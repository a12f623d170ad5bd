//! `rare-event`: Monte-Carlo estimates with `QuotientSimulator`.
//!
//! One op is one estimate: unbiased unavailability on Line 1 FRF-1,
//! unavailability of the rare-failure Line 2 DED variant (failure rates
//! ×10⁻³) under failure biasing 1000, and the cost after Line 2's mixed
//! disaster with VaR/CVaR. Compiling the quotients, building the alias
//! tables and the exact reference answers are set-up.

use arcade_core::{CompiledQuotient, ComposerOptions};
use arcade_sim::{Estimate, MeasureReport, QuotientSimulator, SimulationOptions};
use ctmc::{RewardSolver, RewardStructure, TransientOptions};
use watertreatment::facility::{line_model_scaled, DISASTER_LINE2_MIXED};
use watertreatment::{ModelSpec, ModelTarget};

use crate::harness::{median, timed, Config, Metric, OpRecord, Outcome};
use crate::layers;
use crate::rng::Rng;
use crate::trace;
use crate::workload::Workload;

pub struct RareEvent;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Measure {
    Unavailability,
    Cost,
}

/// One estimator configuration.
struct Estimator {
    spec: &'static str,
    measure: Measure,
    horizon: f64,
    replications: usize,
    bias: f64,
}

const ESTIMATORS: [Estimator; 3] = [
    Estimator {
        spec: "line1/frf-1",
        measure: Measure::Unavailability,
        horizon: 1000.0,
        replications: 200_000,
        bias: 1.0,
    },
    Estimator {
        spec: "line2/ded@0.001",
        measure: Measure::Unavailability,
        horizon: 100.0,
        replications: 200_000,
        bias: 1000.0,
    },
    Estimator {
        spec: "line2/ded",
        measure: Measure::Cost,
        horizon: 50.0,
        replications: 200_000,
        bias: 1.0,
    },
];

/// Tail level of the cost VaR/CVaR.
const ALPHA: f64 = 0.95;

/// Gates compare at z = 5 rather than the reported 95% interval (z = 1.96):
/// a correct simulator then fails an op with probability below 10⁻⁶
/// instead of one op in twenty.
const GATE_Z: f64 = 5.0;
const Z95: f64 = 1.959_963_984_540_054;

fn within(estimate: &Estimate, exact: f64) -> bool {
    (estimate.mean - exact).abs() <= estimate.half_width * GATE_Z / Z95
}

/// A simulator with the exact answer of its quotient.
struct Target {
    simulator: QuotientSimulator<'static>,
    exact: f64,
}

pub struct State {
    targets: Vec<Target>,
    /// Replication seed of the first op; op `i` uses `base_seed + i`.
    base_seed: u64,
    rel_half_widths: Vec<f64>,
}

/// The exact answer on the quotient: interval unavailability as the
/// accumulated down-time reward over the horizon, or the expected
/// accumulated cost after the disaster.
fn exact(q: &CompiledQuotient, e: &Estimator, cfg: &Config) -> Result<f64, String> {
    let err = |e: arcade_core::ArcadeError| e.to_string();
    match e.measure {
        Measure::Unavailability => {
            let chain = q
                .chain()
                .with_initial_state(q.initial())
                .map_err(|e| e.to_string())?;
            let down: Vec<f64> = q
                .operational_mask()
                .iter()
                .map(|&up| if up { 0.0 } else { 1.0 })
                .collect();
            let rewards = RewardStructure::new("down", down).map_err(|e| e.to_string())?;
            let options = TransientOptions {
                exec: cfg.exec(),
                ..TransientOptions::default()
            };
            let solver = RewardSolver::new(&chain, &rewards).map_err(|e| e.to_string())?;
            let down_time = layers::transient("ctmc.transient_acc_cost", q.num_states(), 1, || {
                solver.with_options(options).accumulated_until(e.horizon)
            })
            .map_err(|e| e.to_string())?;
            Ok(down_time / e.horizon)
        }
        Measure::Cost => {
            let curve = layers::transient("ctmc.transient_acc_cost", q.num_states(), 1, || {
                q.accumulated_cost_curve(Some(DISASTER_LINE2_MIXED), &[e.horizon], cfg.exec())
            })
            .map_err(err)?;
            Ok(curve[0].1)
        }
    }
}

fn estimate(
    simulator: &QuotientSimulator,
    e: &Estimator,
    seed: u64,
    cfg: &Config,
) -> Result<MeasureReport, String> {
    let options = SimulationOptions {
        replications: e.replications,
        seed,
        exec: cfg.exec(),
        bias: e.bias,
        ..SimulationOptions::default()
    };
    let mut span = trace::span("sim.estimate");
    let report = match e.measure {
        Measure::Unavailability => simulator.unavailability(e.horizon, &options),
        Measure::Cost => {
            simulator.accumulated_cost(Some(DISASTER_LINE2_MIXED), e.horizon, ALPHA, &options)
        }
    }
    .map_err(|err| err.to_string())?;
    span.set("replications", e.replications as f64);
    if let Some(lr) = report.lr_mean {
        span.set("lr_mean", lr.mean);
        span.set("lr_runs", 1.0);
    }
    Ok(report)
}

/// The gates of one estimate.
fn check(report: &MeasureReport, e: &Estimator, exact: f64) -> Result<(), String> {
    if !within(&report.estimate, exact) {
        return Err(format!(
            "exact {exact:e} outside {:e} ± {:e} (z = {GATE_Z})",
            report.estimate.mean,
            report.estimate.half_width * GATE_Z / Z95
        ));
    }
    if e.bias != 1.0 {
        let lr = report
            .lr_mean
            .ok_or("biased run without an LR certificate")?;
        if !within(&lr, 1.0) {
            return Err(format!(
                "LR certificate {:e} ± {:e} misses 1",
                lr.mean, lr.half_width
            ));
        }
    }
    if e.measure == Measure::Cost {
        let tail = report.tail.ok_or("cost run without VaR/CVaR")?;
        if !(tail.var.is_finite() && tail.cvar.is_finite() && tail.cvar >= tail.var) {
            return Err(format!(
                "VaR {} / CVaR {} inconsistent",
                tail.var, tail.cvar
            ));
        }
    }
    Ok(())
}

/// Replication seed of the first op for a workload seed.
fn base_seed(seed: u64) -> u64 {
    Rng::stream(seed, "rare-event").next_u64() >> 16
}

impl Workload for RareEvent {
    type State = State;

    const NAME: &'static str = "rare-event";
    const NOMINAL_PASS_S: f64 = 0.125;
    const WHY: &'static str = "the quotient simulator takes ~99% of a traced pass (~0.3 s \
        per 10^6 replications at 2 threads); no other workload gives it most of the time";

    fn setup(&self, cfg: &Config) -> Result<State, String> {
        let err = |e: arcade_core::ArcadeError| e.to_string();
        let mut targets = Vec::new();
        for e in &ESTIMATORS {
            let model = {
                let _span = trace::span("watertreatment.model_build");
                let spec = ModelSpec::parse(e.spec).map_err(err)?;
                let ModelTarget::Line { line, strategy } = spec.target().clone() else {
                    return Err(format!("{} is not a line", e.spec));
                };
                line_model_scaled(line, &strategy, spec.rate_scale()).map_err(err)?
            };
            let quotient = {
                let mut span = trace::span("core.compose");
                let q = CompiledQuotient::of_model(
                    &model,
                    ComposerOptions {
                        exec: cfg.exec(),
                        ..ComposerOptions::default()
                    },
                )
                .map_err(err)?;
                span.set("states", q.source_states() as f64);
                q
            };
            let exact = exact(&quotient, e, cfg)?;
            // The simulator borrows its quotient for the rest of the run; the
            // few hundred blocks of each set-up repeat stay allocated.
            let quotient: &'static CompiledQuotient = Box::leak(Box::new(quotient));
            let simulator = {
                let _span = trace::span("sim.alias_build");
                QuotientSimulator::new(quotient)
            };
            targets.push(Target { simulator, exact });
        }
        Ok(State {
            targets,
            base_seed: base_seed(cfg.seed),
            rel_half_widths: Vec::new(),
        })
    }

    fn pass(&self, cfg: &Config, state: &mut State, index: usize, out: &mut Outcome) {
        for (i, (e, target)) in ESTIMATORS.iter().zip(&state.targets).enumerate() {
            let op = (index * ESTIMATORS.len() + i) as u64;
            let _span = trace::op_span(op + 1);
            let seed = state.base_seed.wrapping_add(op);
            let (report, latency_ms) = timed(|| estimate(&target.simulator, e, seed, cfg));
            let result = report.and_then(|report| {
                if e.bias != 1.0 {
                    state
                        .rel_half_widths
                        .push(report.estimate.relative_half_width());
                }
                check(&report, e, target.exact)
            });
            if let Err(reason) = &result {
                out.gate("op", false, format!("{} seed {seed}: {reason}", e.spec));
            }
            out.ops.push(OpRecord {
                latency_ms,
                failed: result.is_err(),
            });
        }
    }

    fn finish(&self, _cfg: &Config, state: &mut State, out: &mut Outcome) {
        out.gate(
            "exact-in-ci",
            out.failed_ops() == 0,
            "exact quotient answer inside every CI, LR certificate covers 1 (both at z = 5)",
        );
        out.extra.push(
            Metric::new("ci_rel_half_width", median(&state.rel_half_widths), "ratio")
                .note("relative 95% half-width of the biased estimate, median over ops"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_replication_streams_only() {
        assert_ne!(base_seed(1), base_seed(2));
        assert_eq!(base_seed(1), base_seed(1));
    }
}
