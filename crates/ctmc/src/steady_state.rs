//! Long-run (steady-state) analysis.
//!
//! For an irreducible CTMC the steady-state distribution is the unique
//! probability vector solving `pi Q = 0`. For reducible chains the standard
//! decomposition applies: all long-run mass lives in the bottom strongly
//! connected components (BSCCs); the solver computes the probability of ending
//! up in each BSCC (via the embedded jump chain) and combines it with the local
//! steady-state distribution of each BSCC. This is what the CSL steady-state
//! operator `S=? [ phi ]` evaluates.

use arcade_telemetry::Recorder;

use crate::error::CtmcError;
use crate::exec::ExecOptions;
use crate::graph::bottom_sccs;
use crate::markov::{Ctmc, StateIndex};
use crate::sparse::{SparseMatrix, SparseMatrixBuilder};
use crate::{DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE};

/// Name of the residual probe series a Gauss–Seidel solve records.
const PROBE_TIER: &str = "gauss-seidel";

/// Steady-state solver for labelled CTMCs.
#[derive(Debug, Clone)]
pub struct SteadyStateSolver<'a> {
    chain: &'a Ctmc,
    tolerance: f64,
    max_iterations: usize,
    exec: ExecOptions,
    initial_guess: Option<Vec<f64>>,
    recorder: Recorder,
}

impl<'a> SteadyStateSolver<'a> {
    /// Stable identifier of this solver in daemon replies, service counters
    /// and JSON reports: Gauss–Seidel on a materialised chain.
    pub const TIER_NAME: &'static str = "gs-materialised";

    /// Creates a Gauss–Seidel solver with the default tolerances. Telemetry
    /// defaults to the ambient [`Recorder::current`] scope.
    pub fn new(chain: &'a Ctmc) -> Self {
        SteadyStateSolver {
            chain,
            tolerance: DEFAULT_TOLERANCE,
            max_iterations: DEFAULT_MAX_ITERATIONS,
            exec: ExecOptions::default(),
            initial_guess: None,
            recorder: Recorder::current(),
        }
    }

    /// Overrides the telemetry recorder the solve reports spans and
    /// convergence probes to. Observability only — never changes results.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Selects the worker pool used by the balance-residual computation.
    ///
    /// Gauss–Seidel *sweeps* cannot shard: row `s` of a sweep reads the
    /// already-updated values of rows `< s` from the same sweep (that forward
    /// substitution is exactly why GS converges in few sweeps), so splitting
    /// the sweep across workers would either change the iterates
    /// (block-Jacobi hybrid, different fixed-point trajectory and thus
    /// thread-count-dependent results) or serialise on a dependency chain the
    /// length of the state space. The sweep therefore stays serial and only
    /// the embarrassingly parallel residual norm shards. The knob never
    /// changes results.
    pub fn exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Warm-starts the iteration from `guess` (a nonnegative vector over the
    /// *full* state space; it is restricted to each irreducible subset and
    /// normalised there, falling back to the uniform start when the guess
    /// carries no mass on a subset). The fixed point is unchanged — a good
    /// guess only shortens the iteration, and a converged result still
    /// satisfies the same balance-equation stopping criterion as a cold
    /// start.
    pub fn initial_guess(mut self, guess: Vec<f64>) -> Self {
        self.initial_guess = Some(guess);
        self
    }

    /// Sets the convergence tolerance (maximum absolute change per sweep).
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the iteration cap.
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Computes the steady-state distribution of the chain, taking the initial
    /// distribution into account when the chain has several BSCCs.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::NotConverged`] if an iterative solve fails to reach
    /// the requested tolerance within the iteration cap.
    pub fn solve(&self) -> Result<Vec<f64>, CtmcError> {
        self.solve_counted().map(|(pi, _)| pi)
    }

    /// [`SteadyStateSolver::solve`] plus the total number of iterative sweeps
    /// performed across all local solves — the observable a warm start
    /// shortens. The distribution returned is bit-identical to
    /// [`SteadyStateSolver::solve`]'s.
    ///
    /// # Errors
    ///
    /// See [`SteadyStateSolver::solve`].
    pub fn solve_counted(&self) -> Result<(Vec<f64>, usize), CtmcError> {
        let mut span = self.recorder.span("solve");
        span.count("states", self.chain.num_states() as u64);
        let result = self.solve_counted_inner();
        if let Ok((_, iterations)) = &result {
            span.count("iterations", *iterations as u64);
        }
        result
    }

    fn solve_counted_inner(&self) -> Result<(Vec<f64>, usize), CtmcError> {
        let n = self.chain.num_states();
        if let Some(guess) = &self.initial_guess {
            validate_guess(guess, n)?;
        }
        let bsccs = bottom_sccs(self.chain);

        if bsccs.len() == 1 && bsccs[0].len() == n {
            // Irreducible chain: a single global solve.
            return self.solve_irreducible_subset(&bsccs[0]);
        }

        // Reducible chain: probability of absorption into each BSCC, then the
        // conditional steady-state distribution inside each BSCC.
        let absorption = self.bscc_absorption_probabilities(&bsccs)?;
        let mut result = vec![0.0; n];
        let mut iterations = 0;
        for (bscc, mass) in bsccs.iter().zip(absorption.iter()) {
            if *mass <= 0.0 {
                continue;
            }
            if bscc.len() == 1 {
                result[bscc[0]] += mass;
                continue;
            }
            let (local, local_iterations) = self.solve_irreducible_subset(bscc)?;
            iterations += local_iterations;
            for (&s, &p) in bscc.iter().zip(local_states(&local, bscc).iter()) {
                result[s] += mass * p;
            }
        }
        Ok((result, iterations))
    }

    /// Computes the long-run probability of residing in any state of `states`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SteadyStateSolver::solve`] and returns
    /// [`CtmcError::StateOutOfBounds`] for invalid indices.
    pub fn probability_of(&self, states: &[StateIndex]) -> Result<f64, CtmcError> {
        let pi = self.solve()?;
        let mut total = 0.0;
        for &s in states {
            if s >= pi.len() {
                return Err(CtmcError::StateOutOfBounds {
                    state: s,
                    num_states: pi.len(),
                });
            }
            total += pi[s];
        }
        Ok(total)
    }

    /// Computes the long-run probability of the given label; `Ok(None)` when the
    /// label is not attached to the chain.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SteadyStateSolver::solve`].
    pub fn probability_of_label(&self, label: &str) -> Result<Option<f64>, CtmcError> {
        match self.chain.states_with_label(label) {
            None => Ok(None),
            Some(states) => self.probability_of(&states).map(Some),
        }
    }

    /// Maximum absolute balance-equation residual of `pi` against this
    /// chain's full rate matrix: `max_s |sum_{s'≠s} pi_{s'} R[s'][s] - pi_s E(s)|`.
    ///
    /// This is an independent certificate of a (possibly externally computed)
    /// stationary vector: a tiny residual means `pi` satisfies *this* chain's
    /// balance equations, regardless of how it was obtained. The sweep shards
    /// across the worker pool, bit-identically for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] on a length mismatch.
    pub fn balance_residual(&self, pi: &[f64]) -> Result<f64, CtmcError> {
        if pi.len() != self.chain.num_states() {
            return Err(CtmcError::DimensionMismatch {
                expected: self.chain.num_states(),
                actual: pi.len(),
            });
        }
        let incoming = self.chain.rate_matrix().transpose();
        Ok(self.residual(&incoming, self.chain.exit_rates(), pi))
    }

    /// Solves the steady state restricted to an irreducible subset of states
    /// (either the full chain or one BSCC), returning the distribution over the
    /// full state space (zero outside the subset) and the number of iterative
    /// sweeps used.
    fn solve_irreducible_subset(
        &self,
        subset: &[StateIndex],
    ) -> Result<(Vec<f64>, usize), CtmcError> {
        let n = self.chain.num_states();
        if subset.len() == 1 {
            let mut pi = vec![0.0; n];
            pi[subset[0]] = 1.0;
            return Ok((pi, 0));
        }

        // Build the restricted rate matrix over local indices.
        let mut local_index = vec![usize::MAX; n];
        for (li, &s) in subset.iter().enumerate() {
            local_index[s] = li;
        }
        let m = subset.len();
        let mut builder = SparseMatrixBuilder::new(m, m);
        for (li, &s) in subset.iter().enumerate() {
            let (cols, values) = self.chain.rate_matrix().row(s);
            for (c, v) in cols.iter().zip(values.iter()) {
                let lj = local_index[*c];
                if lj != usize::MAX {
                    builder.push(li, lj, *v);
                }
            }
        }
        let local_rates = builder.build();
        let start = self.local_start(subset);
        let (local_pi, iterations) = self.gauss_seidel(&local_rates, start)?;

        let mut pi = vec![0.0; n];
        for (li, &s) in subset.iter().enumerate() {
            pi[s] = local_pi[li];
        }
        Ok((pi, iterations))
    }

    /// The starting vector of an iterative solve on `subset`: the restricted
    /// and renormalised [`SteadyStateSolver::initial_guess`] when one is set
    /// and carries mass on the subset, the uniform distribution otherwise.
    fn local_start(&self, subset: &[StateIndex]) -> Vec<f64> {
        let m = subset.len();
        if let Some(guess) = &self.initial_guess {
            let mut local: Vec<f64> = subset.iter().map(|&s| guess[s]).collect();
            let total: f64 = local.iter().sum();
            if total > 0.0 {
                local.iter_mut().for_each(|x| *x /= total);
                return local;
            }
        }
        vec![1.0 / m as f64; m]
    }

    /// Gauss–Seidel on the balance equations `pi_s * E(s) = sum_{s'} pi_{s'} R[s'][s]`.
    ///
    /// The sweep itself is inherently serial — see [`SteadyStateSolver::exec`]
    /// — so only the residual norm reported on failure shards.
    fn gauss_seidel(
        &self,
        rates: &SparseMatrix,
        start: Vec<f64>,
    ) -> Result<(Vec<f64>, usize), CtmcError> {
        let exit: Vec<f64> = rates.row_sums();
        let incoming = rates.transpose();
        let mut pi = start;
        let m = pi.len();
        let mut probe = self.recorder.probe("residual", PROBE_TIER);

        for iteration in 0..self.max_iterations {
            let mut max_delta: f64 = 0.0;
            for s in 0..m {
                if exit[s] <= 0.0 {
                    continue;
                }
                let (cols, values) = incoming.row(s);
                let mut inflow = 0.0;
                for (c, v) in cols.iter().zip(values.iter()) {
                    if *c != s {
                        inflow += pi[*c] * v;
                    }
                }
                let new_value = inflow / exit[s];
                max_delta = max_delta.max((new_value - pi[s]).abs());
                pi[s] = new_value;
            }
            probe.record(max_delta);
            normalize(&mut pi);
            if max_delta < self.tolerance {
                return Ok((pi, iteration + 1));
            }
        }
        Err(CtmcError::NotConverged {
            solver: "gauss-seidel steady-state",
            iterations: self.max_iterations,
            residual: self.residual(&incoming, &exit, &pi),
        })
    }

    /// Maximum absolute balance-equation residual `|inflow(s) - pi_s E(s)|`,
    /// sharded across the worker pool. Every state's residual is a pure
    /// function of `pi`, and `f64::max` over the per-shard maxima is
    /// order-independent, so the result is bit-identical for any thread
    /// count.
    fn residual(&self, incoming: &SparseMatrix, exit: &[f64], pi: &[f64]) -> f64 {
        let shards = crate::exec::shard_ranges(
            pi.len(),
            self.exec.workers_for(incoming.num_entries()).min(pi.len()),
        );
        crate::exec::map_ordered(&shards, self.exec, |range| {
            let mut max_res: f64 = 0.0;
            for s in range.clone() {
                let (cols, values) = incoming.row(s);
                let mut inflow = 0.0;
                for (c, v) in cols.iter().zip(values.iter()) {
                    if *c != s {
                        inflow += pi[*c] * v;
                    }
                }
                max_res = max_res.max((inflow - pi[s] * exit[s]).abs());
            }
            max_res
        })
        .into_iter()
        .fold(0.0, f64::max)
    }

    /// Probability (under the chain's initial distribution and embedded jump
    /// chain) of eventually being absorbed into each BSCC.
    fn bscc_absorption_probabilities(
        &self,
        bsccs: &[Vec<StateIndex>],
    ) -> Result<Vec<f64>, CtmcError> {
        let n = self.chain.num_states();
        let embedded = self.chain.embedded_matrix();
        let mut in_bscc = vec![usize::MAX; n];
        for (bi, bscc) in bsccs.iter().enumerate() {
            for &s in bscc {
                in_bscc[s] = bi;
            }
        }

        let mut result = vec![0.0; bsccs.len()];
        // For each BSCC compute the per-state probability of eventually reaching
        // it (value iteration on the embedded DTMC), then weight by the initial
        // distribution. Transient mass vanishes in the long run so the reach
        // probabilities over all BSCCs sum to one for every state.
        for (bi, _) in bsccs.iter().enumerate() {
            let mut x: Vec<f64> = (0..n)
                .map(|s| if in_bscc[s] == bi { 1.0 } else { 0.0 })
                .collect();
            let mut next = vec![0.0; n];
            for _ in 0..self.max_iterations {
                let mut max_delta: f64 = 0.0;
                for s in 0..n {
                    if in_bscc[s] != usize::MAX {
                        next[s] = if in_bscc[s] == bi { 1.0 } else { 0.0 };
                        continue;
                    }
                    let (cols, values) = embedded.row(s);
                    let mut acc = 0.0;
                    for (c, v) in cols.iter().zip(values.iter()) {
                        acc += v * x[*c];
                    }
                    max_delta = max_delta.max((acc - x[s]).abs());
                    next[s] = acc;
                }
                std::mem::swap(&mut x, &mut next);
                if max_delta < self.tolerance {
                    break;
                }
            }
            result[bi] = self
                .chain
                .initial_distribution()
                .iter()
                .zip(x.iter())
                .map(|(p0, p)| p0 * p)
                .sum();
        }
        Ok(result)
    }
}

fn local_states(full: &[f64], subset: &[StateIndex]) -> Vec<f64> {
    subset.iter().map(|&s| full[s]).collect()
}

/// Rejects an initial guess of the wrong length or with negative or
/// non-finite entries (shared by the materialised and operator solvers).
pub(crate) fn validate_guess(guess: &[f64], n: usize) -> Result<(), CtmcError> {
    if guess.len() != n {
        return Err(CtmcError::DimensionMismatch {
            expected: n,
            actual: guess.len(),
        });
    }
    if guess.iter().any(|&g| !g.is_finite() || g < 0.0) {
        return Err(CtmcError::InvalidArgument {
            reason: "initial guess must be nonnegative and finite".to_string(),
        });
    }
    Ok(())
}

/// Scales `v` to unit mass; a zero vector stays zero.
pub(crate) fn normalize(v: &mut [f64]) {
    let total: f64 = v.iter().sum();
    if total > 0.0 {
        v.iter_mut().for_each(|x| *x /= total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::CtmcBuilder;

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new(2);
        b.add_transition(0, 1, lambda).unwrap();
        b.add_transition(1, 0, mu).unwrap();
        b.build().unwrap()
    }

    /// Irreducible ring chain with shortcut chords, large enough (4,400
    /// entries) to clear the parallel-work threshold.
    fn ring_chain(n: usize) -> Ctmc {
        let mut b = CtmcBuilder::new(n);
        for s in 0..n {
            b.add_transition(s, (s + 1) % n, 1.0 + (s % 5) as f64)
                .unwrap();
            b.add_transition(s, (s + n / 2 + s % 7) % n, 2.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn two_state_steady_state_closed_form() {
        let chain = two_state(0.002, 0.2);
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        let expected_down = 0.002 / 0.202;
        assert!((pi[1] - expected_down).abs() < 1e-8, "{}", pi[1]);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn birth_death_chain_matches_detailed_balance() {
        // 0 <-> 1 <-> 2 with birth rate 1, death rate 2: pi_k proportional to (1/2)^k.
        let mut b = CtmcBuilder::new(3);
        b.add_transition(0, 1, 1.0).unwrap();
        b.add_transition(1, 2, 1.0).unwrap();
        b.add_transition(1, 0, 2.0).unwrap();
        b.add_transition(2, 1, 2.0).unwrap();
        let chain = b.build().unwrap();
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        let z = 1.0 + 0.5 + 0.25;
        assert!((pi[0] - 1.0 / z).abs() < 1e-8);
        assert!((pi[1] - 0.5 / z).abs() < 1e-8);
        assert!((pi[2] - 0.25 / z).abs() < 1e-8);
    }

    #[test]
    fn independent_components_product_form() {
        // Two independent 2-state components composed into a 4-state chain:
        // state = (a, b); the steady state is the product of the marginals.
        let la = 0.1;
        let ma = 1.0;
        let lb = 0.5;
        let mb = 2.0;
        let idx = |a: usize, b: usize| a * 2 + b;
        let mut builder = CtmcBuilder::new(4);
        for a in 0..2 {
            for b_state in 0..2 {
                let s = idx(a, b_state);
                if a == 0 {
                    builder.add_transition(s, idx(1, b_state), la).unwrap();
                } else {
                    builder.add_transition(s, idx(0, b_state), ma).unwrap();
                }
                if b_state == 0 {
                    builder.add_transition(s, idx(a, 1), lb).unwrap();
                } else {
                    builder.add_transition(s, idx(a, 0), mb).unwrap();
                }
            }
        }
        let chain = builder.build().unwrap();
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        let a_up = ma / (la + ma);
        let b_up = mb / (lb + mb);
        assert!((pi[idx(0, 0)] - a_up * b_up).abs() < 1e-8);
        assert!((pi[idx(1, 1)] - (1.0 - a_up) * (1.0 - b_up)).abs() < 1e-8);
    }

    #[test]
    fn reducible_chain_absorbing_state() {
        // 0 -> 1 (absorbing) means all long-run mass is on 1.
        let mut b = CtmcBuilder::new(2);
        b.add_transition(0, 1, 3.0).unwrap();
        let chain = b.build().unwrap();
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        assert!((pi[0]).abs() < 1e-12);
        assert!((pi[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reducible_chain_two_bsccs_split_by_branching() {
        // 0 -> 1 with rate 1 and 0 -> 2 with rate 3: absorption probabilities 1/4, 3/4.
        let mut b = CtmcBuilder::new(3);
        b.add_transition(0, 1, 1.0).unwrap();
        b.add_transition(0, 2, 3.0).unwrap();
        let chain = b.build().unwrap();
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        assert!((pi[1] - 0.25).abs() < 1e-9);
        assert!((pi[2] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn reducible_chain_with_cyclic_bscc() {
        // 0 -> {1,2} cycle; the cycle's local steady state follows the rates.
        let mut b = CtmcBuilder::new(3);
        b.add_transition(0, 1, 1.0).unwrap();
        b.add_transition(1, 2, 1.0).unwrap();
        b.add_transition(2, 1, 4.0).unwrap();
        let chain = b.build().unwrap();
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        assert!(pi[0].abs() < 1e-12);
        assert!((pi[1] - 0.8).abs() < 1e-8);
        assert!((pi[2] - 0.2).abs() < 1e-8);
    }

    #[test]
    fn probability_of_label_and_states() {
        let mut chain = two_state(1.0, 1.0);
        chain.set_label("down", vec![false, true]).unwrap();
        let solver = SteadyStateSolver::new(&chain);
        let p = solver.probability_of_label("down").unwrap().unwrap();
        assert!((p - 0.5).abs() < 1e-9);
        assert_eq!(solver.probability_of_label("unknown").unwrap(), None);
        assert!(solver.probability_of(&[9]).is_err());
    }

    #[test]
    fn warm_start_reaches_the_same_fixed_point() {
        let chain = two_state(0.002, 0.2);
        let cold = SteadyStateSolver::new(&chain).solve().unwrap();
        // Warm-starting from the answer, from a bad guess and from a
        // zero-mass guess (uniform fallback) must all land on the fixed
        // point; the guess changes only the trajectory.
        for guess in [cold.clone(), vec![0.9, 0.1], vec![0.0, 0.0]] {
            let warm = SteadyStateSolver::new(&chain)
                .initial_guess(guess)
                .solve()
                .unwrap();
            assert!((warm[1] - cold[1]).abs() < 1e-8, "{}", warm[1]);
        }
        // Invalid guesses are rejected up front.
        assert!(SteadyStateSolver::new(&chain)
            .initial_guess(vec![1.0])
            .solve()
            .is_err());
        assert!(SteadyStateSolver::new(&chain)
            .initial_guess(vec![-1.0, 2.0])
            .solve()
            .is_err());
    }

    #[test]
    fn balance_residual_certifies_stationarity() {
        let chain = two_state(0.002, 0.2);
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        let solver = SteadyStateSolver::new(&chain);
        assert!(solver.balance_residual(&pi).unwrap() < 1e-10);
        assert!(solver.balance_residual(&[0.5, 0.5]).unwrap() > 1e-3);
        assert!(solver.balance_residual(&[1.0]).is_err());

        // On a large ring the residual still separates the stationary vector
        // from a skewed one.
        let ring = ring_chain(2200);
        let solver = SteadyStateSolver::new(&ring).exec(ExecOptions::serial());
        let pi = solver.solve().unwrap();
        let skewed: Vec<f64> = (0..2200).map(|s| (1 + s % 3) as f64 / 4400.0).collect();
        let certified = solver.balance_residual(&pi).unwrap();
        let visible = solver.balance_residual(&skewed).unwrap();
        assert!(certified < 1e-8, "{certified}");
        assert!(visible > 1e-4, "{visible}");
    }

    #[test]
    fn sharded_sweeps_are_bit_identical_to_serial() {
        // On a chain large enough to shard, the solve and the residual of
        // both a stationary and a non-stationary vector are bit-identical at
        // every thread count.
        let ring = ring_chain(2200);
        let serial = SteadyStateSolver::new(&ring).exec(ExecOptions::serial());
        let (pi, iterations) = serial.solve_counted().unwrap();
        let skewed: Vec<f64> = (0..2200).map(|s| (1 + s % 3) as f64 / 4400.0).collect();
        let certified = serial.balance_residual(&pi).unwrap();
        let visible = serial.balance_residual(&skewed).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let sharded = SteadyStateSolver::new(&ring).exec(ExecOptions::with_threads(threads));
            assert_eq!(
                sharded.solve_counted().unwrap(),
                (pi.clone(), iterations),
                "{threads} threads"
            );
            assert_eq!(
                sharded.balance_residual(&pi).unwrap().to_bits(),
                certified.to_bits(),
                "{threads} threads"
            );
            assert_eq!(
                sharded.balance_residual(&skewed).unwrap().to_bits(),
                visible.to_bits(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn solve_counted_reports_iterations_and_matches_solve() {
        let chain = two_state(0.002, 0.2);
        let pi = SteadyStateSolver::new(&chain).solve().unwrap();
        let (counted_pi, cold_iterations) = SteadyStateSolver::new(&chain).solve_counted().unwrap();
        assert_eq!(counted_pi, pi);
        assert!(cold_iterations > 0);
        // Warm-starting from the answer converges in fewer sweeps.
        let (warm_pi, warm_iterations) = SteadyStateSolver::new(&chain)
            .initial_guess(pi.clone())
            .solve_counted()
            .unwrap();
        assert!(warm_iterations <= cold_iterations);
        assert!((warm_pi[1] - pi[1]).abs() < 1e-10);
        // Singleton BSCCs need no sweeps at all.
        let mut b = CtmcBuilder::new(2);
        b.add_transition(0, 1, 3.0).unwrap();
        let absorbing = b.build().unwrap();
        let (_, iterations) = SteadyStateSolver::new(&absorbing).solve_counted().unwrap();
        assert_eq!(iterations, 0);
    }

    #[test]
    fn iteration_cap_produces_not_converged() {
        // Asymmetric rates so the uniform starting guess is not already the answer.
        let chain = two_state(1.0, 3.0);
        let result = SteadyStateSolver::new(&chain)
            .max_iterations(1)
            .tolerance(1e-16)
            .solve();
        assert!(matches!(result, Err(CtmcError::NotConverged { .. })));
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(SteadyStateSolver::TIER_NAME, "gs-materialised");
        assert_eq!(PROBE_TIER, "gauss-seidel");
    }

    #[test]
    fn recorder_captures_solve_span_and_residual_series_without_changing_results() {
        let chain = two_state(0.002, 0.2);
        let plain = SteadyStateSolver::new(&chain).solve_counted().unwrap();
        let recorder = arcade_telemetry::Recorder::with_probes();
        let traced = SteadyStateSolver::new(&chain)
            .recorder(recorder.clone())
            .solve_counted()
            .unwrap();
        assert_eq!(traced, plain, "tracing must not perturb");
        assert_eq!(recorder.span_count("solve"), 1);
        assert_eq!(
            recorder.counter_total("solve", "iterations"),
            plain.1 as u64
        );
        let series = recorder.series();
        assert_eq!(series.len(), 1, "one residual series");
        assert_eq!(series[0].kind, "residual");
        assert_eq!(series[0].tier, PROBE_TIER);
        assert_eq!(series[0].values.len(), plain.1);
        let last = *series[0].values.last().unwrap();
        assert!(last < 1e-8, "converged residual, got {last}");
        // The ambient default (no scope, no global) records nothing and the
        // result is bit-identical.
        let ambient = SteadyStateSolver::new(&chain).solve_counted().unwrap();
        assert_eq!(ambient, plain);
    }
}
