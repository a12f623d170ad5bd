//! Isomorphic-subtree symmetry engine: orbit-fold and certificate timings.
//!
//! Tracks the two reductions the symmetry subsystem adds, at 1 and 4
//! threads:
//!
//! * **orbit materialise** — the twin Line 2 facility under FRF-1: two
//!   identical 257-block line chains fold from 66,049 joint tuples to
//!   33,153 sorted-pair orbit representatives, materialised through the
//!   sharded representative-row enumeration;
//! * **orbit availability** — the full twin availability validation: the
//!   orbit chain's cold Gauss–Seidel solve plus its balance residual;
//! * **minimality certificate** — the exact-lumping pass proving the
//!   paper's DED×DED product (15,360 blocks) carries no cross-line symmetry
//!   for the facility measures.
//!
//! Every thread count must produce bit-identical results before timing —
//! the sweep asserts this up front, mirroring the other benches.

use arcade_core::{ComposerOptions, ExecOptions, FacilityAnalysis};
use criterion::{criterion_group, criterion_main, Criterion};
use ctmc::SteadyStateSolver;
use watertreatment::{facility, strategies, Line};

const THREAD_COUNTS: [usize; 2] = [1, 4];

fn options(threads: usize) -> ComposerOptions {
    ComposerOptions {
        exec: ExecOptions::with_threads(threads),
        ..ComposerOptions::default()
    }
}

fn orbit_chain(threads: usize) -> ctmc::Ctmc {
    let model = facility::twin_facility(Line::Line2, &strategies::frf(1)).unwrap();
    let analysis = FacilityAnalysis::with_options(&model, options(threads)).unwrap();
    let product = analysis.quotient_product().unwrap();
    let orbit = product.orbit().expect("twin lines are interchangeable");
    orbit
        .materialize(&product, &ExecOptions::with_threads(threads))
        .unwrap()
}

fn bench_orbit_materialisation(c: &mut Criterion) {
    // Determinism gate: the orbit chain must be identical for every thread
    // count before anything is timed.
    let reference = orbit_chain(1);
    assert_eq!(reference.num_states(), 257 * 258 / 2);
    for threads in THREAD_COUNTS {
        assert_eq!(orbit_chain(threads), reference, "{threads} threads");
    }

    let mut group = c.benchmark_group("symmetry_orbit_materialise");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("twin_frf1/threads_{threads}"), |b| {
            b.iter(|| orbit_chain(threads).num_transitions())
        });
    }
    group.finish();
}

fn bench_orbit_availability(c: &mut Criterion) {
    // Determinism gate for the orbit-level availability validation.
    let availability = |threads: usize| {
        let model = facility::twin_facility(Line::Line2, &strategies::frf(1)).unwrap();
        let analysis = FacilityAnalysis::with_options(&model, options(threads)).unwrap();
        let quotient = analysis.compiled_quotient().unwrap();
        assert_eq!(quotient.num_states(), 257 * 258 / 2);
        let solver =
            SteadyStateSolver::new(quotient.chain()).exec(ExecOptions::with_threads(threads));
        let pi = solver.solve().unwrap();
        let residual = solver.balance_residual(&pi).unwrap();
        assert!(residual < 1e-9, "residual {residual}");
        quotient.availability_of(&pi)
    };
    let reference = availability(1);
    for threads in THREAD_COUNTS {
        assert_eq!(
            availability(threads).to_bits(),
            reference.to_bits(),
            "{threads} threads"
        );
    }

    let mut group = c.benchmark_group("symmetry_orbit_availability");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("twin_frf1/threads_{threads}"), |b| {
            b.iter(|| availability(threads))
        });
    }
    group.finish();
}

fn bench_minimality_certificate(c: &mut Criterion) {
    // Determinism gate: the certificate is a full partition-refinement pass;
    // its block count must not depend on the thread count.
    let certificate = |threads: usize| {
        let model =
            facility::facility_model(&strategies::dedicated(), &strategies::dedicated()).unwrap();
        let analysis = FacilityAnalysis::with_options(&model, options(threads)).unwrap();
        analysis.joint_reduction().unwrap()
    };
    let reference = certificate(1);
    assert_eq!(reference.product_blocks, 160 * 96);
    assert_eq!(reference.exact_blocks, reference.solver_blocks);
    for threads in THREAD_COUNTS {
        assert_eq!(certificate(threads), reference, "{threads} threads");
    }

    let mut group = c.benchmark_group("symmetry_minimality_certificate");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("ded_pair/threads_{threads}"), |b| {
            b.iter(|| certificate(threads).exact_blocks)
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_orbit_materialisation,
    bench_orbit_availability,
    bench_minimality_certificate
);
criterion_main!(benches);
