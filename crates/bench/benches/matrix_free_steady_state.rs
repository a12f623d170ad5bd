//! Matrix-free vs materialised steady state on the flagship FRF-1 × FRF-1
//! facility product (449 × 257 = 115,393 joint blocks).
//!
//! The acceptance race of the operator tier: **materialise+solve** builds the
//! joint `SparseMatrix` through the sharded row enumeration (the compiled
//! quotient the transient queries use) and Gauss–Seidels it from a cold
//! start, while **operator-solve** hands the Kronecker-sum operator straight
//! to the Krylov solver, warm started from the product form — no
//! `materialize()` call anywhere on that path, so its peak allocation is a
//! handful of product-length vectors instead of the ≈ 1.2M-entry joint
//! matrix.
//!
//! Before any timing, the gate asserts the two paths agree to ≤ 1e-10 and
//! that the operator solve is bit-identical at 1, 2, 4 and 8 threads.

use arcade_core::{ComposerOptions, ExecOptions, FacilityAnalysis, FacilityModel};
use criterion::{criterion_group, criterion_main, Criterion};
use ctmc::SteadyStateSolver;
use watertreatment::{facility, strategies};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn options(threads: usize) -> ComposerOptions {
    ComposerOptions {
        exec: ExecOptions::with_threads(threads),
        ..ComposerOptions::default()
    }
}

fn frf1_model() -> FacilityModel {
    facility::facility_model(&strategies::frf(1), &strategies::frf(1)).unwrap()
}

fn bench_matrix_free_steady_state(c: &mut Criterion) {
    let model = frf1_model();

    // Acceptance gate: operator ≡ materialised ≤ 1e-10, certified, and the
    // operator path is bit-identical for every thread count.
    let reference_analysis = FacilityAnalysis::with_options(&model, options(1)).unwrap();
    let quotient = reference_analysis.compiled_quotient().unwrap();
    assert_eq!(quotient.num_states(), 449 * 257);
    let pi = SteadyStateSolver::new(quotient.chain())
        .tolerance(1e-13)
        .solve()
        .unwrap();
    let materialised = quotient.availability_of(&pi);
    let reference = reference_analysis
        .matrix_free_steady_state_availability()
        .unwrap();
    assert_eq!(reference.solver_tier, "krylov-operator");
    assert!(
        (reference.availability - materialised).abs() <= 1e-10,
        "operator {} vs materialised {materialised}",
        reference.availability
    );
    assert!(reference.residual < 1e-9, "residual {}", reference.residual);
    for threads in THREAD_COUNTS {
        let analysis = FacilityAnalysis::with_options(&model, options(threads)).unwrap();
        let row = analysis.matrix_free_steady_state_availability().unwrap();
        assert!(
            row.availability.to_bits() == reference.availability.to_bits()
                && row.iterations == reference.iterations,
            "operator solve differs at {threads} threads"
        );
    }

    let mut group = c.benchmark_group("matrix_free_steady_state");
    group.sample_size(10);
    for threads in [1usize, 4] {
        // A fresh analysis per iteration so neither lap reuses the cached
        // joint chain or group solves: both race end to end from compilation.
        // The matrix-free lap never calls materialize().
        group.bench_function(format!("materialise_plus_gs/threads_{threads}"), |b| {
            b.iter(|| {
                FacilityAnalysis::with_options(&model, options(threads))
                    .unwrap()
                    .compiled_quotient()
                    .unwrap()
                    .availability(ExecOptions::with_threads(threads))
                    .unwrap()
            })
        });
        group.bench_function(format!("operator_krylov/threads_{threads}"), |b| {
            b.iter(|| {
                FacilityAnalysis::with_options(&model, options(threads))
                    .unwrap()
                    .matrix_free_steady_state_availability()
                    .unwrap()
                    .availability
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matrix_free_steady_state);
criterion_main!(benches);
