//! Matrix-free steady-state analysis: iterative stationary solvers over any
//! [`LinearOperator`] instead of a materialised [`SparseMatrix`].
//!
//! The solver is handed the rate operator `R` (e.g. the Kronecker sum of
//! per-line quotient generators from `arcade_lumping::product`) and the
//! per-state exit rates `E`, and drives the balance equations
//! `pi_s E(s) = sum_{s'} pi_{s'} R[s'][s]` through `R`'s sharded left-multiply
//! kernel — the joint generator is never stored, so a facility product of
//! `k` line quotients solves in `O(states)` memory instead of
//! `O(transitions)`.
//!
//! Two methods are available: a restarted GMRES-style Krylov iteration on
//! the normalised balance equations, which converges in a handful of operator
//! applies on stiff chains (repair rates four orders of magnitude above
//! failure rates, as in the water-treatment models), and sharded damped
//! Jacobi (one operator pass per iteration with the successive-iterate norm
//! folded in), the fallback when a Krylov solve stalls.
//!
//! # Determinism
//!
//! Both methods are bit-identical for every thread count: the operator
//! applies are bit-identical by the [`crate::ops`] contract, the fused
//! update-and-norm passes merge per-shard maxima with the order-independent
//! `f64::max`, and every Krylov reduction (dot products, norms, the
//! re-orthogonalisation pass) runs serially in state-index order. Unlike the
//! materialised solver the floating-point accumulation differs from
//! [`crate::SteadyStateSolver`]'s (the diagonal is applied outside the
//! operator), so the two agree to numerical tolerance, not bit-for-bit.
//!
//! # Contract
//!
//! The caller guarantees the operator describes a single irreducible chain
//! (e.g. a product of irreducible factors). There is no BSCC decomposition
//! here — reducible chains belong on the materialised
//! [`crate::SteadyStateSolver`], which owns the graph analysis.
//!
//! [`LinearOperator`]: crate::ops::LinearOperator
//! [`SparseMatrix`]: crate::sparse::SparseMatrix

use arcade_telemetry::Recorder;

use crate::error::CtmcError;
use crate::exec::ExecOptions;
use crate::ops::LinearOperator;
use crate::steady_state::{normalize, validate_guess};
use crate::{DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE};

/// Iterative method used by [`OperatorSteadyStateSolver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OperatorSteadyStateMethod {
    /// Restarted GMRES on the normalised balance equations (default): the
    /// singular system `pi Q = 0` is made nonsingular by replacing one column
    /// with the normalisation constraint `sum pi = 1`, and the Krylov
    /// iteration solves it in few operator applies even on stiff chains.
    #[default]
    Krylov,
    /// Damped Jacobi iteration on the balance equations. Robust and
    /// memory-minimal — three vectors — but needs many sweeps when rates are
    /// stiff; the place to fall back to when a Krylov solve stalls.
    Jacobi,
}

impl OperatorSteadyStateMethod {
    /// Stable identifier used in logs, stats and JSON reports.
    pub fn tier_name(&self) -> &'static str {
        match self {
            OperatorSteadyStateMethod::Krylov => "krylov-operator",
            OperatorSteadyStateMethod::Jacobi => "jacobi-operator",
        }
    }
}

/// Headroom applied to the maximal exit rate when scaling the balance
/// equations by a uniformisation rate.
const UNIFORMIZATION_FACTOR: f64 = 1.02;

/// Damping of the Jacobi update.
const DAMPING: f64 = 0.5;

/// Default Krylov restart length: `restart + 2` basis vectors bound the
/// solver's memory at roughly `32 * num_states` doubles.
const DEFAULT_RESTART: usize = 30;

/// Matrix-free steady-state solver over a [`LinearOperator`] plus exit rates.
///
/// See the module docs for the determinism and irreducibility contract. The
/// builder mirrors [`crate::SteadyStateSolver`]:
///
/// ```
/// use ctmc::{ExecOptions, OperatorSteadyStateMethod, OperatorSteadyStateSolver};
/// use ctmc::sparse::SparseMatrixBuilder;
///
/// // A two-state repairable component as a bare operator: fail 0.002/h,
/// // repair 0.2/h.
/// let mut b = SparseMatrixBuilder::new(2, 2);
/// b.push(0, 1, 0.002);
/// b.push(1, 0, 0.2);
/// let rates = b.build();
/// let pi = OperatorSteadyStateSolver::new(&rates, vec![0.002, 0.2])
///     .unwrap()
///     .method(OperatorSteadyStateMethod::Krylov)
///     .exec(ExecOptions::serial())
///     .solve()
///     .unwrap();
/// assert!((pi[1] - 0.002 / 0.202).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct OperatorSteadyStateSolver<'a, O: LinearOperator> {
    rates: &'a O,
    exit_rates: Vec<f64>,
    method: OperatorSteadyStateMethod,
    tolerance: f64,
    max_iterations: usize,
    restart: usize,
    exec: ExecOptions,
    initial_guess: Option<Vec<f64>>,
    recorder: Recorder,
}

impl<'a, O: LinearOperator> OperatorSteadyStateSolver<'a, O> {
    /// Creates a solver for the rate operator `rates` with the given exit
    /// rates, default method (Krylov) and default tolerances.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] if the operator is not square
    /// or `exit_rates` has the wrong length, and
    /// [`CtmcError::InvalidArgument`] for negative or non-finite exits.
    pub fn new(rates: &'a O, exit_rates: Vec<f64>) -> Result<Self, CtmcError> {
        if rates.num_rows() != rates.num_cols() {
            return Err(CtmcError::DimensionMismatch {
                expected: rates.num_rows(),
                actual: rates.num_cols(),
            });
        }
        if exit_rates.len() != rates.num_rows() {
            return Err(CtmcError::DimensionMismatch {
                expected: rates.num_rows(),
                actual: exit_rates.len(),
            });
        }
        if exit_rates.iter().any(|&e| !e.is_finite() || e < 0.0) {
            return Err(CtmcError::InvalidArgument {
                reason: "exit rates must be non-negative and finite".to_string(),
            });
        }
        Ok(OperatorSteadyStateSolver {
            rates,
            exit_rates,
            method: OperatorSteadyStateMethod::default(),
            tolerance: DEFAULT_TOLERANCE,
            max_iterations: DEFAULT_MAX_ITERATIONS,
            restart: DEFAULT_RESTART,
            exec: ExecOptions::default(),
            initial_guess: None,
            recorder: Recorder::current(),
        })
    }

    /// Selects the iterative method.
    pub fn method(mut self, method: OperatorSteadyStateMethod) -> Self {
        self.method = method;
        self
    }

    /// Overrides the telemetry recorder the solve reports spans and
    /// convergence probes to. Observability only — never changes results.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Sets the convergence tolerance: the maximum-norm threshold on the
    /// per-iteration change (Jacobi) or on the normalised-balance
    /// residual (Krylov).
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Caps the number of operator applies across the whole solve.
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the Krylov restart length (ignored by Jacobi). The solver
    /// keeps `restart + 2` basis vectors, so this bounds its working memory.
    pub fn restart(mut self, restart: usize) -> Self {
        self.restart = restart.max(1);
        self
    }

    /// Selects the worker pool for the operator applies and the fused
    /// elementwise sweeps. Never changes results (module docs).
    pub fn exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Warm-starts the iteration from `guess` (nonnegative, finite; it is
    /// normalised, falling back to the uniform start when it carries no
    /// mass). The fixed point is unchanged — a good guess only shortens the
    /// iteration. For Kronecker-sum products the product of the factor
    /// stationary distributions is *exactly* stationary, so a warm-started
    /// solve converges in a handful of applies and acts as an independent
    /// validation of the product-form argument.
    pub fn initial_guess(mut self, guess: Vec<f64>) -> Self {
        self.initial_guess = Some(guess);
        self
    }

    /// Computes the stationary distribution.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::NotConverged`] if the method fails to reach the
    /// requested tolerance within the iteration cap, and validation errors
    /// for a malformed initial guess.
    pub fn solve(&self) -> Result<Vec<f64>, CtmcError> {
        self.solve_counted().map(|(pi, _)| pi)
    }

    /// [`OperatorSteadyStateSolver::solve`] plus the number of operator
    /// applies performed — the cost unit of the matrix-free path and the
    /// observable a warm start shortens.
    ///
    /// # Errors
    ///
    /// See [`OperatorSteadyStateSolver::solve`].
    pub fn solve_counted(&self) -> Result<(Vec<f64>, usize), CtmcError> {
        let mut span = self.recorder.span("solve");
        span.count("states", self.num_states() as u64);
        let result = self.solve_counted_inner();
        if let Ok((_, applies)) = &result {
            span.count("iterations", *applies as u64);
            span.count("operator_applies", *applies as u64);
        }
        result
    }

    fn solve_counted_inner(&self) -> Result<(Vec<f64>, usize), CtmcError> {
        let start = self.start_vector()?;
        let max_exit = self.exit_rates.iter().copied().fold(0.0f64, f64::max);
        if max_exit <= 0.0 {
            // No transitions at all: every distribution is stationary; return
            // the (normalised) start, matching the materialised solvers.
            return Ok((start, 0));
        }
        match self.method {
            OperatorSteadyStateMethod::Jacobi => self.jacobi(start),
            OperatorSteadyStateMethod::Krylov => self.krylov(start, max_exit),
        }
    }

    /// Maximum absolute balance-equation residual of `pi` against the
    /// operator: `max_s |(pi R)[s] - pi_s E(s)|`. One sharded operator apply;
    /// an independent certificate of an externally computed stationary
    /// vector, bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] on a length mismatch.
    pub fn balance_residual(&self, pi: &[f64]) -> Result<f64, CtmcError> {
        let mut inflow = vec![0.0; self.num_states()];
        self.rates.left_multiply_exec(pi, &mut inflow, &self.exec)?;
        Ok(inflow
            .iter()
            .zip(pi.iter().zip(self.exit_rates.iter()))
            .map(|(&inf, (&p, &e))| (inf - p * e).abs())
            .fold(0.0f64, f64::max))
    }

    fn num_states(&self) -> usize {
        self.exit_rates.len()
    }

    /// The normalised starting vector: the validated initial guess when one
    /// is set and carries mass, the uniform distribution otherwise.
    fn start_vector(&self) -> Result<Vec<f64>, CtmcError> {
        let n = self.num_states();
        if let Some(guess) = &self.initial_guess {
            validate_guess(guess, n)?;
            let total: f64 = guess.iter().sum();
            if total > 0.0 {
                return Ok(guess.iter().map(|g| g / total).collect());
            }
        }
        Ok(vec![1.0 / n as f64; n])
    }

    /// Fused elementwise update: `(next[s], delta) = step(s, inflow[s])` on
    /// the worker pool, returning the maximal `delta` — per-shard maxima
    /// merged with the order-independent `f64::max`, so both the vector and
    /// the norm are bit-identical for every thread count.
    fn fused_update<F>(&self, inflow: &[f64], next: &mut [f64], step: F) -> f64
    where
        F: Fn(usize, f64) -> (f64, f64) + Sync,
    {
        let sweep = |start: usize, shard: &mut [f64]| {
            let mut max_delta = 0.0f64;
            for (offset, slot) in shard.iter_mut().enumerate() {
                let (value, delta) = step(start + offset, inflow[start + offset]);
                *slot = value;
                max_delta = max_delta.max(delta);
            }
            max_delta
        };
        let n = next.len();
        let workers = self.exec.workers_for(n).min(n.max(1));
        if workers <= 1 {
            return sweep(0, next);
        }
        let chunk = crate::exec::chunk_len(n, workers);
        std::thread::scope(|scope| {
            let sweep = &sweep;
            let handles: Vec<_> = next
                .chunks_mut(chunk)
                .enumerate()
                .map(|(i, shard)| scope.spawn(move || sweep(i * chunk, shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no worker panicked"))
                .fold(0.0f64, f64::max)
        })
    }

    /// Damped Jacobi on the balance equations: one operator apply plus one
    /// fused elementwise sweep per iteration. The fixed point is unchanged by
    /// any diagonal entries the operator may carry (a self-loop contributes
    /// equally to both sides of the balance equation).
    fn jacobi(&self, start: Vec<f64>) -> Result<(Vec<f64>, usize), CtmcError> {
        let n = self.num_states();
        let mut pi = start;
        let mut next = vec![0.0; n];
        let mut inflow = vec![0.0; n];
        let exit = &self.exit_rates;
        let mut probe = self
            .recorder
            .probe("residual", OperatorSteadyStateMethod::Jacobi.tier_name());
        for iteration in 0..self.max_iterations {
            self.rates
                .left_multiply_exec(&pi, &mut inflow, &self.exec)?;
            let pi_ref = &pi;
            let max_delta = self.fused_update(&inflow, &mut next, |s, inf| {
                if exit[s] <= 0.0 {
                    return (pi_ref[s], 0.0);
                }
                let updated = inf / exit[s];
                let damped = DAMPING * updated + (1.0 - DAMPING) * pi_ref[s];
                (damped, (updated - pi_ref[s]).abs())
            });
            probe.record(max_delta);
            std::mem::swap(&mut pi, &mut next);
            normalize(&mut pi);
            if max_delta < self.tolerance {
                return Ok((pi, iteration + 1));
            }
        }
        Err(CtmcError::NotConverged {
            solver: "jacobi-operator steady-state",
            iterations: self.max_iterations,
            residual: self.balance_residual(&pi)?,
        })
    }

    /// Restarted GMRES on the normalised balance equations.
    ///
    /// The singular system `pi Q = 0` (with `Q = (R - diag E)/q`, scaled by
    /// the uniformisation rate so the residual norm is comparable across
    /// chains of any stiffness) is made nonsingular by replacing the column
    /// of the maximal-exit state `k` with the all-ones column — i.e. solve
    /// `pi Ã = e_k` where `(x Ã)[k] = sum_s x_s` and `(x Ã)[j] = (x Q)[j]`
    /// elsewhere. Because `Q`'s rows sum to zero, any solution satisfies
    /// *all* balance equations (the replaced one included) and sums to
    /// exactly one; for an irreducible chain it is the unique stationary
    /// vector.
    ///
    /// Determinism: the Arnoldi process re-orthogonalises with a second
    /// modified-Gram–Schmidt pass in fixed basis order, and every dot
    /// product and norm is a serial fold in state-index order; only the
    /// operator applies shard, and those are bit-identical by contract.
    fn krylov(&self, start: Vec<f64>, max_exit: f64) -> Result<(Vec<f64>, usize), CtmcError> {
        let n = self.num_states();
        let q = max_exit * UNIFORMIZATION_FACTOR;
        // First occurrence of the maximal exit rate: a deterministic pivot.
        let k = self
            .exit_rates
            .iter()
            .position(|&e| e == max_exit)
            .expect("max_exit is attained");
        let m = self.restart.min(n);
        let exit = &self.exit_rates;

        // One application of Ã to a row vector; counts one operator apply.
        let mut scratch = vec![0.0; n];
        let mut applies = 0usize;
        let mut x = start;
        let mut w = vec![0.0; n];
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        let mut residual_inf = f64::INFINITY;
        let mut probe = self
            .recorder
            .probe("residual", OperatorSteadyStateMethod::Krylov.tier_name());

        while applies < self.max_iterations {
            // True residual r = e_k - x Ã.
            apply_modified(self.rates, exit, q, k, &x, &mut w, &mut scratch, &self.exec)?;
            applies += 1;
            let mut r: Vec<f64> = w.iter().map(|v| -v).collect();
            r[k] += 1.0;
            residual_inf = r.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
            probe.record(residual_inf);
            if residual_inf < self.tolerance {
                clamp_normalize(&mut x);
                return Ok((x, applies));
            }
            let beta = norm2(&r);
            if beta == 0.0 {
                clamp_normalize(&mut x);
                return Ok((x, applies));
            }
            r.iter_mut().for_each(|v| *v /= beta);

            basis.clear();
            basis.push(r);
            // Upper-Hessenberg columns (rotated in place into R) and the
            // Givens-rotated right-hand side.
            let mut hcols: Vec<Vec<f64>> = Vec::with_capacity(m);
            let mut cs: Vec<f64> = Vec::with_capacity(m);
            let mut sn: Vec<f64> = Vec::with_capacity(m);
            let mut g = vec![0.0; m + 1];
            g[0] = beta;
            let mut cols = 0usize;
            let mut breakdown = false;

            for i in 0..m {
                if applies >= self.max_iterations {
                    break;
                }
                apply_modified(
                    self.rates,
                    exit,
                    q,
                    k,
                    &basis[i],
                    &mut w,
                    &mut scratch,
                    &self.exec,
                )?;
                applies += 1;
                // Modified Gram–Schmidt, twice, in fixed basis order: the
                // deterministic re-orthogonalisation that keeps the basis
                // orthogonal to working precision without any
                // scheduling-dependent pivoting.
                let mut h = vec![0.0; i + 2];
                for pass in 0..2 {
                    for (j, v) in basis.iter().enumerate().take(i + 1) {
                        let c = dot(&w, v);
                        if pass == 0 {
                            h[j] = c;
                        } else {
                            h[j] += c;
                        }
                        for (ws, vs) in w.iter_mut().zip(v.iter()) {
                            *ws -= c * vs;
                        }
                    }
                }
                let hnorm = norm2(&w);
                h[i + 1] = hnorm;
                // Apply the accumulated Givens rotations to the new column,
                // then compute the rotation that annihilates its subdiagonal.
                for j in 0..i {
                    let t = cs[j] * h[j] + sn[j] * h[j + 1];
                    h[j + 1] = -sn[j] * h[j] + cs[j] * h[j + 1];
                    h[j] = t;
                }
                let denom = (h[i] * h[i] + h[i + 1] * h[i + 1]).sqrt();
                if denom == 0.0 {
                    // The subspace is invariant and exhausted: stagnation.
                    breakdown = true;
                    break;
                }
                cs.push(h[i] / denom);
                sn.push(h[i + 1] / denom);
                h[i] = denom;
                h[i + 1] = 0.0;
                g[i + 1] = -sn[i] * g[i];
                g[i] *= cs[i];
                hcols.push(h);
                cols = i + 1;
                if hnorm == 0.0 {
                    // Happy breakdown: the exact solution lies in the span.
                    breakdown = true;
                    break;
                }
                if g[i + 1].abs() < self.tolerance {
                    break;
                }
                let mut v = vec![0.0; n];
                for (vs, ws) in v.iter_mut().zip(w.iter()) {
                    *vs = ws / hnorm;
                }
                basis.push(v);
            }

            if cols > 0 {
                // Back-substitute the least-squares solution and update x.
                let mut y = vec![0.0; cols];
                let mut solvable = true;
                for j in (0..cols).rev() {
                    let mut acc = g[j];
                    for (l, yl) in y.iter().enumerate().skip(j + 1) {
                        acc -= hcols[l][j] * yl;
                    }
                    let diag = hcols[j][j];
                    if diag == 0.0 {
                        solvable = false;
                        break;
                    }
                    y[j] = acc / diag;
                }
                if solvable {
                    for (yi, v) in y.iter().zip(basis.iter()) {
                        for (xs, vs) in x.iter_mut().zip(v.iter()) {
                            *xs += yi * vs;
                        }
                    }
                } else {
                    // A singular projected system: no progress possible.
                    break;
                }
            } else if breakdown {
                // No progress possible from this iterate.
                break;
            }
        }
        Err(CtmcError::NotConverged {
            solver: "krylov-operator steady-state",
            iterations: applies,
            residual: residual_inf,
        })
    }
}

/// One application of the modified balance operator:
/// `w = x Ã` with `(x Ã)[j] = ((x R)[j] - x_j E_j)/q` for `j != k` and
/// `(x Ã)[k] = sum_s x_s` (the normalisation column). The column sum runs
/// serially in state-index order — deterministic for every thread count.
#[allow(clippy::too_many_arguments)]
fn apply_modified<O: LinearOperator>(
    rates: &O,
    exit: &[f64],
    q: f64,
    k: usize,
    x: &[f64],
    w: &mut [f64],
    scratch: &mut [f64],
    exec: &ExecOptions,
) -> Result<(), CtmcError> {
    rates.left_multiply_exec(x, scratch, exec)?;
    for (ws, ((&sc, &xs), &es)) in w
        .iter_mut()
        .zip(scratch.iter().zip(x.iter()).zip(exit.iter()))
    {
        *ws = (sc - xs * es) / q;
    }
    w[k] = x.iter().sum();
    Ok(())
}

/// Serial dot product in index order (deterministic across thread counts).
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Serial Euclidean norm in index order.
fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// Clamps the tiny negative entries a Krylov least-squares solution may carry
/// (at residual scale) and renormalises to a probability vector.
fn clamp_normalize(v: &mut [f64]) {
    v.iter_mut().for_each(|x| {
        if *x < 0.0 {
            *x = 0.0;
        }
    });
    normalize(v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::{Ctmc, CtmcBuilder};
    use crate::steady_state::SteadyStateSolver;

    const METHODS: [OperatorSteadyStateMethod; 2] = [
        OperatorSteadyStateMethod::Krylov,
        OperatorSteadyStateMethod::Jacobi,
    ];

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new(2);
        b.add_transition(0, 1, lambda).unwrap();
        b.add_transition(1, 0, mu).unwrap();
        b.build().unwrap()
    }

    /// Irreducible ring chain with shortcut chords, large enough to clear the
    /// parallel-work threshold.
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
    fn stiff_two_state_matches_closed_form_for_every_method() {
        // Repair rate two orders of magnitude above the failure rate — the
        // stiffness regime of the paper's component models.
        let chain = two_state(0.002, 0.2);
        let expected_down = 0.002 / 0.202;
        for method in METHODS {
            let pi =
                OperatorSteadyStateSolver::new(chain.rate_matrix(), chain.exit_rates().to_vec())
                    .unwrap()
                    .method(method)
                    .tolerance(1e-12)
                    .solve()
                    .unwrap();
            assert!(
                (pi[1] - expected_down).abs() < 1e-9,
                "{method:?}: {}",
                pi[1]
            );
            assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{method:?}");
        }
    }

    #[test]
    fn matches_the_materialised_solver_on_a_ring_chain() {
        let chain = ring_chain(600);
        let reference = SteadyStateSolver::new(&chain)
            .tolerance(1e-13)
            .solve()
            .unwrap();
        for method in METHODS {
            let pi =
                OperatorSteadyStateSolver::new(chain.rate_matrix(), chain.exit_rates().to_vec())
                    .unwrap()
                    .method(method)
                    .tolerance(1e-13)
                    .solve()
                    .unwrap();
            for (a, b) in pi.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-10, "{method:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sharded_solves_are_bit_identical_to_serial() {
        let chain = ring_chain(2200);
        for method in METHODS {
            let reference =
                OperatorSteadyStateSolver::new(chain.rate_matrix(), chain.exit_rates().to_vec())
                    .unwrap()
                    .method(method)
                    .tolerance(1e-8)
                    .exec(ExecOptions::serial())
                    .solve_counted()
                    .unwrap();
            for threads in [2usize, 4, 8] {
                let sharded = OperatorSteadyStateSolver::new(
                    chain.rate_matrix(),
                    chain.exit_rates().to_vec(),
                )
                .unwrap()
                .method(method)
                .tolerance(1e-8)
                .exec(ExecOptions::with_threads(threads))
                .solve_counted()
                .unwrap();
                assert_eq!(sharded.0, reference.0, "{method:?}, {threads} threads");
                assert_eq!(sharded.1, reference.1, "{method:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn warm_start_shortens_the_krylov_solve_and_keeps_the_fixed_point() {
        let chain = ring_chain(600);
        let solver = |guess: Option<Vec<f64>>| {
            let mut s =
                OperatorSteadyStateSolver::new(chain.rate_matrix(), chain.exit_rates().to_vec())
                    .unwrap()
                    .tolerance(1e-12);
            if let Some(g) = guess {
                s = s.initial_guess(g);
            }
            s.solve_counted().unwrap()
        };
        let (cold, cold_applies) = solver(None);
        let (warm, warm_applies) = solver(Some(cold.clone()));
        assert!(
            warm_applies <= cold_applies,
            "{warm_applies} > {cold_applies}"
        );
        for (a, b) in warm.iter().zip(cold.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
        // A zero-mass guess falls back to the uniform start.
        let (fallback, _) = solver(Some(vec![0.0; 600]));
        for (a, b) in fallback.iter().zip(cold.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn balance_residual_certifies_the_solution() {
        let chain = ring_chain(600);
        let solver =
            OperatorSteadyStateSolver::new(chain.rate_matrix(), chain.exit_rates().to_vec())
                .unwrap()
                .tolerance(1e-12);
        let pi = solver.solve().unwrap();
        // The certificate is an unscaled balance residual; rates here are
        // O(1), so the solve tolerance bounds it up to the uniformisation
        // factor.
        assert!(solver.balance_residual(&pi).unwrap() < 1e-9);
        let uniform = vec![1.0 / 600.0; 600];
        assert!(solver.balance_residual(&uniform).unwrap() > 1e-6);
        assert!(solver.balance_residual(&[1.0]).is_err());
    }

    #[test]
    fn validation_mirrors_the_transient_operator_solver() {
        let chain = two_state(1.0, 2.0);
        let rates = chain.rate_matrix();
        assert!(OperatorSteadyStateSolver::new(rates, vec![0.0; 3]).is_err());
        assert!(OperatorSteadyStateSolver::new(rates, vec![-1.0, 0.0]).is_err());
        assert!(OperatorSteadyStateSolver::new(rates, vec![f64::NAN, 0.0]).is_err());
        let mut b = crate::sparse::SparseMatrixBuilder::new(2, 3);
        b.push(0, 1, 1.0);
        let rect = b.build();
        assert!(OperatorSteadyStateSolver::new(&rect, vec![0.0; 2]).is_err());

        let solver = OperatorSteadyStateSolver::new(rates, chain.exit_rates().to_vec()).unwrap();
        assert!(solver.clone().initial_guess(vec![1.0]).solve().is_err());
        assert!(solver
            .clone()
            .initial_guess(vec![-1.0, 2.0])
            .solve()
            .is_err());
    }

    #[test]
    fn transition_free_operator_returns_the_start() {
        let empty = crate::sparse::SparseMatrixBuilder::new(3, 3).build();
        let (pi, applies) = OperatorSteadyStateSolver::new(&empty, vec![0.0; 3])
            .unwrap()
            .solve_counted()
            .unwrap();
        assert_eq!(pi, vec![1.0 / 3.0; 3]);
        assert_eq!(applies, 0);
    }

    #[test]
    fn iteration_cap_produces_not_converged() {
        let chain = two_state(1.0, 3.0);
        let result =
            OperatorSteadyStateSolver::new(chain.rate_matrix(), chain.exit_rates().to_vec())
                .unwrap()
                .method(OperatorSteadyStateMethod::Jacobi)
                .max_iterations(1)
                .tolerance(1e-16)
                .solve();
        assert!(matches!(result, Err(CtmcError::NotConverged { .. })));
        // Krylov needs at least the initial residual apply plus one Arnoldi
        // step; a one-apply budget cannot converge from a bad start.
        let result =
            OperatorSteadyStateSolver::new(chain.rate_matrix(), chain.exit_rates().to_vec())
                .unwrap()
                .max_iterations(1)
                .tolerance(1e-16)
                .solve();
        assert!(matches!(result, Err(CtmcError::NotConverged { .. })));
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(
            OperatorSteadyStateMethod::Krylov.tier_name(),
            "krylov-operator"
        );
        assert_eq!(
            OperatorSteadyStateMethod::Jacobi.tier_name(),
            "jacobi-operator"
        );
    }
}
