//! k-line facility scale-out: the reduction-ladder tiers at 1 and 4 threads.
//!
//! Pins the three evaluation tiers of the k-line sweep
//! (`wt-experiments facility --k ...`):
//!
//! * **counts ladder** — reading the flat / product / orbit rungs off the
//!   per-line quotients for k ∈ {2, 3, 4, 8} twin DED banks, nothing
//!   materialised (the k = 8 orbit bound is C(103, 8) ≈ 2.4 × 10¹¹);
//! * **orbit enumeration** — the availability of the `ded^4` bank walked
//!   lazily over its C(99, 4) = 3,764,376 canonical multisets under the
//!   stationary product measure, the tier that replaces an 84,934,656-state
//!   product materialisation;
//! * **joint solve** — the `ded^2` bank's 9,216-state product solved
//!   matrix-free by the availability planner.
//!
//! Every thread count must produce bit-identical results before timing —
//! the sweep asserts this up front, mirroring the other benches.

use arcade_core::{AvailabilityTier, ComposerOptions, ExecOptions, FacilityAnalysis};
use criterion::{criterion_group, criterion_main, Criterion};
use watertreatment::experiments::ORBIT_ENUMERATION_CAP;
use watertreatment::ModelSpec;

const THREAD_COUNTS: [usize; 2] = [1, 4];

fn options(threads: usize) -> ComposerOptions {
    ComposerOptions {
        exec: ExecOptions::with_threads(threads),
        ..ComposerOptions::default()
    }
}

fn bank_analysis(spec: &str, threads: usize) -> (arcade_core::FacilityModel, usize) {
    let spec = ModelSpec::parse(spec).unwrap();
    let model = spec.facility_model().unwrap().expect("facility spec");
    let analysis = FacilityAnalysis::with_options(&model, options(threads)).unwrap();
    let stats = analysis.stats();
    drop(analysis);
    (model, stats.joint_blocks)
}

fn bench_counts_ladder(c: &mut Criterion) {
    // Determinism gate: the ladder counts are pure state-space arithmetic
    // and must be identical at every thread count.
    let counts = |threads: usize| -> Vec<(usize, usize, Option<usize>)> {
        [2usize, 3, 4, 8]
            .iter()
            .map(|&k| {
                let spec = ModelSpec::parse(&format!("facility/ded^{k}")).unwrap();
                let model = spec.facility_model().unwrap().unwrap();
                let analysis = FacilityAnalysis::with_options(&model, options(threads)).unwrap();
                let stats = analysis.stats();
                (k, stats.joint_blocks, stats.orbit_blocks)
            })
            .collect()
    };
    let reference = counts(1);
    assert_eq!(reference[0].1, 96 * 96);
    assert_eq!(reference[0].2, Some(96 * 97 / 2));
    assert_eq!(reference[2].1, 84_934_656);
    assert_eq!(reference[2].2, Some(3_764_376), "C(99, 4)");
    assert_eq!(reference[3].2, Some(237_762_021_420), "C(103, 8)");
    for threads in THREAD_COUNTS {
        assert_eq!(counts(threads), reference, "{threads} threads");
    }

    let mut group = c.benchmark_group("kline_counts_ladder");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("ded_k2348/threads_{threads}"), |b| {
            b.iter(|| counts(threads).len())
        });
    }
    group.finish();
}

fn bench_orbit_enumeration(c: &mut Criterion) {
    // Determinism gate: the k = 4 enumeration is strictly sequential over
    // deterministic per-group solves, so the availability must be
    // bit-identical at every thread count.
    let enumerate = |threads: usize| {
        let (model, joint_blocks) = bank_analysis("facility/ded^4", threads);
        assert_eq!(joint_blocks, 84_934_656);
        let analysis = FacilityAnalysis::with_options(&model, options(threads)).unwrap();
        let orbit = analysis.orbit_availability(ORBIT_ENUMERATION_CAP).unwrap();
        assert_eq!(orbit.orbit_bound, 3_764_376);
        assert_eq!(orbit.orbits_explored, 3_764_376);
        assert!((orbit.total_mass - 1.0).abs() < 1e-9);
        orbit.availability
    };
    let reference = enumerate(1);
    for threads in THREAD_COUNTS {
        assert_eq!(
            enumerate(threads).to_bits(),
            reference.to_bits(),
            "{threads} threads"
        );
    }

    let mut group = c.benchmark_group("kline_orbit_enumeration");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("ded_k4/threads_{threads}"), |b| {
            b.iter(|| enumerate(threads))
        });
    }
    group.finish();
}

fn bench_joint_solve_tier(c: &mut Criterion) {
    // Determinism gate for the joint-solve tier on the twin-pair fold.
    let solve = |threads: usize| {
        let spec = ModelSpec::parse("facility/ded^2").unwrap();
        let model = spec.facility_model().unwrap().unwrap();
        let analysis = FacilityAnalysis::with_options(&model, options(threads)).unwrap();
        let joint = analysis.planned_availability().unwrap();
        assert_eq!(joint.tier, AvailabilityTier::JointSolve);
        assert_eq!(joint.solved_states, 96 * 96);
        assert!(
            joint.certificate.unwrap() < 1e-9,
            "residual {:?}",
            joint.certificate
        );
        joint.availability
    };
    let reference = solve(1);
    for threads in THREAD_COUNTS {
        assert_eq!(
            solve(threads).to_bits(),
            reference.to_bits(),
            "{threads} threads"
        );
    }

    let mut group = c.benchmark_group("kline_joint_solve");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("ded_k2/threads_{threads}"), |b| {
            b.iter(|| solve(threads))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_counts_ladder,
    bench_orbit_enumeration,
    bench_joint_solve_tier
);
criterion_main!(benches);
