//! Property tests of the matrix-free stationary solver: for random
//! irreducible chains, every [`OperatorSteadyStateSolver`] method must agree
//! with the materialised [`SteadyStateSolver`] to 1e-10, and the sharded
//! solves must be bit-identical for every thread count.

use ctmc::{
    Ctmc, CtmcBuilder, ExecOptions, OperatorSteadyStateMethod, OperatorSteadyStateSolver,
    SteadyStateSolver,
};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

const METHODS: [OperatorSteadyStateMethod; 2] = [
    OperatorSteadyStateMethod::Krylov,
    OperatorSteadyStateMethod::Jacobi,
];

/// An irreducible ring chain with shortcut chords and deterministic
/// pseudo-random rates derived from `seed` — the same chain family the
/// lumping product proptests use.
fn ring_chain(n: usize, seed: u64) -> Ctmc {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut builder = CtmcBuilder::new(n);
    for s in 0..n {
        let rate = 0.1 + (next() % 1000) as f64 / 250.0;
        builder.add_transition(s, (s + 1) % n, rate).unwrap();
        if n > 2 {
            let chord = (s + 1 + next() as usize % (n - 2)) % n;
            if chord != s {
                let rate = 0.05 + (next() % 1000) as f64 / 500.0;
                builder.add_transition(s, chord, rate).unwrap();
            }
        }
    }
    builder.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Operator ≡ materialised on random irreducible chains: both solvers
    /// driven to a tolerance well below the comparison threshold.
    #[test]
    fn operator_methods_agree_with_the_materialised_solver(
        n in 2usize..=40,
        seed in 1u64..10_000,
    ) {
        let chain = ring_chain(n, seed);
        let reference = SteadyStateSolver::new(&chain)
            .tolerance(1e-13)
            .solve()
            .unwrap();
        for method in METHODS {
            let pi = OperatorSteadyStateSolver::new(
                chain.rate_matrix(),
                chain.exit_rates().to_vec(),
            )
            .unwrap()
            .method(method)
            .tolerance(1e-13)
            .solve()
            .unwrap();
            prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{method:?}");
            for (s, (a, b)) in pi.iter().zip(reference.iter()).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-10,
                    "{method:?}, state {s}: {a} vs {b}"
                );
            }
        }
    }

    /// A warm start from the answer keeps the fixed point and the sharded
    /// solves are bit-identical (same vector, same apply count) for every
    /// thread count.
    #[test]
    fn sharded_operator_solves_are_bit_identical(
        n in 8usize..=40,
        seed in 1u64..10_000,
    ) {
        let chain = ring_chain(n, seed);
        for method in METHODS {
            let reference = OperatorSteadyStateSolver::new(
                chain.rate_matrix(),
                chain.exit_rates().to_vec(),
            )
            .unwrap()
            .method(method)
            .exec(ExecOptions::serial())
            .solve_counted()
            .unwrap();
            for &threads in &THREAD_COUNTS {
                let sharded = OperatorSteadyStateSolver::new(
                    chain.rate_matrix(),
                    chain.exit_rates().to_vec(),
                )
                .unwrap()
                .method(method)
                .exec(ExecOptions::with_threads(threads))
                .solve_counted()
                .unwrap();
                prop_assert_eq!(&sharded.0, &reference.0, "{:?}, {} threads", method, threads);
                prop_assert_eq!(sharded.1, reference.1, "{:?}, {} threads", method, threads);
            }
            // The balance-residual certificate accepts the solution and
            // rejects a visibly wrong vector.
            let solver = OperatorSteadyStateSolver::new(
                chain.rate_matrix(),
                chain.exit_rates().to_vec(),
            )
            .unwrap();
            prop_assert!(solver.balance_residual(&reference.0).unwrap() < 1e-7);
        }
    }
}
