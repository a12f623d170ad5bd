//! `paper-sweep`: the paper's 2 lines × 5 strategies plus seeded
//! rate-scaled variants, each through the whole batch pipeline.
//!
//! A timed pass runs rate-scaled variants: Line 1 FRF-1 and FFF-1 (both
//! 111,809-state chains, so every pass composes the same number of states)
//! and one small model, in turn the five Line 2 strategies and Line 1 DED.
//! Most ops are the long compositions on purpose: the ~0.1 s ops spawn
//! worker threads many times over, and on a shared 2-vCPU machine their
//! latency moved about twice as much from run to run as the whole pass
//! (`op_p50_ms` spread 0.28 IQR/median over ten seeds when most timed ops
//! were small). After the passes the paper's ten models run once at the
//! paper's rates, untimed, for the Table 1 and Table 2 gates.
//!
//! One op is one model: flat compose (`LumpingMode::Disabled`), exact
//! lumping, the solver quotient, the stationary solve and the model's
//! figure curves (Fig. 3 reliability for DED, Figs. 4–7 for Line 1,
//! Figs. 8–11 for Line 2).

use std::collections::BTreeMap;

use arcade_core::{
    ArcadeError, ArcadeModel, CompiledModel, CompiledQuotient, ComposerOptions, LumpingMode,
    QuotientParts,
};
use ctmc::{TransientOptions, TransientSolver};
use watertreatment::experiments::{grids, service_levels, table2_paper_reference};
use watertreatment::facility::{line_model_scaled, DISASTER_ALL_PUMPS, DISASTER_LINE2_MIXED};
use watertreatment::{combined_availability, Line, ModelSpec, ModelTarget};

use crate::harness::{timed, Config, Metric, OpRecord, Outcome};
use crate::layers;
use crate::rng::Rng;
use crate::trace;
use crate::workload::{passes, Workload};

pub struct PaperSweep;

const STRATEGIES: [&str; 5] = ["ded", "frf-1", "frf-2", "fff-1", "fff-2"];

/// The Line 1 strategies every timed pass composes.
const LINE1_TIMED: [&str; 2] = ["frf-1", "fff-1"];

/// The small model of pass `p` is `SMALL_TIMED[p % 6]`.
const SMALL_TIMED: [(Line, &str); 6] = [
    (Line::Line2, "ded"),
    (Line::Line2, "frf-1"),
    (Line::Line2, "frf-2"),
    (Line::Line2, "fff-1"),
    (Line::Line2, "fff-2"),
    (Line::Line1, "ded"),
];

/// Table 1 of this reproduction: (flat states, lumped blocks) per line and
/// strategy. Rate scaling keeps the state space, so variants must match too.
fn table1(line: Line, strategy: &str) -> (usize, usize) {
    match (line, strategy) {
        (Line::Line1, "ded") => (2048, 160),
        (Line::Line1, "frf-1" | "fff-1") => (111_809, 449),
        (Line::Line1, _) => (178_606, 727),
        (Line::Line2, "ded") => (512, 96),
        (Line::Line2, "frf-1" | "fff-1") => (8129, 257),
        (Line::Line2, _) => (11_956, 387),
    }
}

/// Transitions of the flat Line 1 DED chain (Table 1: 2048/22528).
const LINE1_DED_TRANSITIONS: usize = 22_528;

struct Model {
    spec: ModelSpec,
    line: Line,
    strategy: String,
    model: ArcadeModel,
}

/// Built models: one list per timed pass, and the paper's ten.
pub struct State {
    models: Vec<Vec<Model>>,
    paper: Vec<Model>,
}

/// The spec strings of timed pass `pass` for `seed`.
fn specs(seed: u64, pass: usize) -> Vec<String> {
    let mut rng = Rng::stream(seed ^ ((pass as u64) << 8), "paper-sweep");
    let (line, small) = SMALL_TIMED[pass % SMALL_TIMED.len()];
    LINE1_TIMED
        .iter()
        .map(|s| format!("{}/{s}", Line::Line1.id()))
        .chain(std::iter::once(format!("{}/{small}", line.id())))
        .map(|spec| format!("{spec}@{}", rng.rate_scale()))
        .collect()
}

/// The paper's models: 2 lines × 5 strategies at the paper's rates.
fn paper_specs() -> Vec<String> {
    [Line::Line1, Line::Line2]
        .iter()
        .flat_map(|line| STRATEGIES.iter().map(move |s| format!("{}/{s}", line.id())))
        .collect()
}

fn build(spec: &str) -> Result<Model, ArcadeError> {
    let _span = trace::span("watertreatment.model_build");
    let spec = ModelSpec::parse(spec)?;
    let ModelTarget::Line { line, strategy } = spec.target().clone() else {
        unreachable!("the sweep names single lines only");
    };
    let model = line_model_scaled(line, &strategy, spec.rate_scale())?;
    Ok(Model {
        strategy: strategy.label.to_lowercase(),
        line,
        spec,
        model,
    })
}

/// The solver quotient of an exactly lumped flat model (what
/// `CompiledQuotient::of_compiled` builds when the lumping is attached).
fn quotient(
    model: &ArcadeModel,
    compiled: &CompiledModel,
) -> Result<CompiledQuotient, ArcadeError> {
    let lumped = {
        let mut span = trace::span("lumping.lump");
        let lumped = compiled.lump()?;
        span.set("states", compiled.chain().num_states() as f64);
        span.set("blocks", lumped.num_blocks() as f64);
        lumped
    };
    let _span = trace::span("core.materialise");
    let block_of = |flat: usize| lumped.lumping().block_of(flat);
    let mut disaster_starts = BTreeMap::new();
    for disaster in model.disasters() {
        let flat = compiled.disaster_state_index(disaster)?;
        disaster_starts.insert(disaster.name().to_string(), block_of(flat));
    }
    CompiledQuotient::from_parts(QuotientParts {
        name: model.name().to_string(),
        chain: lumped.quotient().clone(),
        operational: lumped.operational_mask().to_vec(),
        service: lumped.service_levels().to_vec(),
        cost: lumped.cost_rewards().clone(),
        initial: block_of(compiled.initial_index()),
        disaster_starts,
        source_states: compiled.chain().num_states(),
    })
}

/// The figure curves of one model; returns a description of the first
/// implausible value, if any.
fn curves(m: &Model, q: &CompiledQuotient, cfg: &Config) -> Result<Option<String>, ArcadeError> {
    let exec = cfg.exec();
    let n = q.num_states();
    let mut problems = Vec::new();
    let mut probability = |what: &str, curve: &[(f64, f64)]| {
        if curve
            .iter()
            .any(|&(_, p)| !(-1e-9..=1.0 + 1e-9).contains(&p))
        {
            problems.push(format!("{what} leaves [0, 1]"));
        }
    };
    if m.strategy == "ded" {
        // Fig. 3: reliability, 1 − P(reach a down block by t).
        let times = grids::fig3();
        let down: Vec<bool> = q.operational_mask().iter().map(|up| !up).collect();
        let chain = q.chain().with_initial_state(q.initial())?;
        let options = TransientOptions {
            exec,
            ..TransientOptions::default()
        };
        let unreliability = layers::transient("ctmc.transient_surv", n, times.len(), || {
            TransientSolver::with_options(&chain, options).bounded_until_many(
                &vec![true; n],
                &down,
                &times,
            )
        })?;
        let reliability: Vec<(f64, f64)> = times
            .iter()
            .zip(&unreliability)
            .map(|(&t, u)| (t, 1.0 - u))
            .collect();
        probability("reliability", &reliability);
    }
    let (disaster, levels, surv_times, inst_times, acc_times) = match m.line {
        Line::Line1 => (
            DISASTER_ALL_PUMPS,
            [service_levels::LINE1_X1, service_levels::LINE1_X2],
            grids::fig4_to_6(),
            grids::fig4_to_6(),
            grids::fig7(),
        ),
        Line::Line2 => (
            DISASTER_LINE2_MIXED,
            [service_levels::LINE2_X1, service_levels::LINE2_X3],
            grids::fig8_9(),
            grids::fig10_11(),
            grids::fig10_11(),
        ),
    };
    for level in levels {
        let curve = layers::transient("ctmc.transient_surv", n, surv_times.len(), || {
            q.survivability_curve(disaster, level, &surv_times, exec)
        })?;
        probability("survivability", &curve);
    }
    let inst = layers::transient("ctmc.transient_inst_cost", n, inst_times.len(), || {
        q.instantaneous_cost_curve(Some(disaster), &inst_times, exec)
    })?;
    let acc = layers::transient("ctmc.transient_acc_cost", n, acc_times.len(), || {
        q.accumulated_cost_curve(Some(disaster), &acc_times, exec)
    })?;
    if inst
        .iter()
        .chain(&acc)
        .any(|&(_, c)| !c.is_finite() || c < -1e-9)
    {
        problems.push("a cost is negative or not finite".to_string());
    }
    Ok(problems.into_iter().next())
}

/// One op: returns the availability, or why the op failed.
fn run_model(m: &Model, cfg: &Config) -> Result<f64, String> {
    let compiled = {
        let mut span = trace::span("core.compose");
        let compiled = CompiledModel::compile_with(
            &m.model,
            ComposerOptions {
                lumping: LumpingMode::Disabled,
                exec: cfg.exec(),
                ..ComposerOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        span.set("states", compiled.chain().num_states() as f64);
        compiled
    };
    let q = quotient(&m.model, &compiled).map_err(|e| e.to_string())?;
    let (flat, blocks) = table1(m.line, &m.strategy);
    let (got_flat, got_blocks) = (compiled.chain().num_states(), q.num_states());
    if (got_flat, got_blocks) != (flat, blocks) {
        return Err(format!(
            "Table 1: {} has {got_flat} states / {got_blocks} blocks, expected {flat} / {blocks}",
            m.spec
        ));
    }
    if m.line == Line::Line1 && m.strategy == "ded" {
        let transitions = compiled.chain().num_transitions();
        if transitions != LINE1_DED_TRANSITIONS {
            return Err(format!(
                "Table 1: {} has {transitions} transitions, expected {LINE1_DED_TRANSITIONS}",
                m.spec
            ));
        }
    }
    let (pi, iterations) = {
        let mut span = trace::span("ctmc.solve");
        let solved = q
            .stationary_counted(None, cfg.exec())
            .map_err(|e| e.to_string())?;
        span.set("iters", solved.1 as f64);
        span.set("states", q.num_states() as f64);
        span.set("gs", 1.0);
        solved
    };
    let availability = q.availability_of(&pi);
    if !(0.0..=1.0).contains(&availability) || iterations == 0 {
        return Err(format!(
            "{}: availability {availability} after {iterations} sweeps",
            m.spec
        ));
    }
    let problem = curves(m, &q, cfg).map_err(|e| e.to_string())?;
    {
        // Freeing the flat chain is part of what the composer costs.
        let _span = trace::span("core.compose");
        drop(compiled);
    }
    match problem {
        Some(problem) => Err(format!("{}: {problem}", m.spec)),
        None => Ok(availability),
    }
}

impl Workload for PaperSweep {
    type State = State;

    const NAME: &'static str = "paper-sweep";
    // A pass takes 3.3-3.8 s; a 20 s run does six (18 ops, see `specs`).
    const NOMINAL_PASS_S: f64 = 3.3;
    const WHY: &'static str = "flat compose takes ~89% of a traced pass (two 111,809-state \
        Line 1 chains per pass), lumping ~10%, solves and figure curves under 1%; simulation \
        and serving do nothing";

    fn setup(&self, cfg: &Config) -> Result<State, String> {
        let models = (0..passes::<Self>(cfg.seconds))
            .map(|pass| {
                specs(cfg.seed, pass)
                    .iter()
                    .map(|spec| build(spec))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let paper = paper_specs()
            .iter()
            .map(|spec| build(spec))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(State { models, paper })
    }

    fn pass(&self, cfg: &Config, state: &mut State, index: usize, out: &mut Outcome) {
        let models = &state.models[index % state.models.len()];
        let first_op = index * models.len();
        for (i, m) in models.iter().enumerate() {
            let _op = trace::op_span((first_op + i) as u64 + 1);
            let (result, latency_ms) = timed(|| run_model(m, cfg));
            let failed = match result {
                Ok(_) => false,
                Err(reason) => {
                    out.gate("op", false, reason);
                    true
                }
            };
            out.ops.push(OpRecord { latency_ms, failed });
        }
    }

    fn finish(&self, cfg: &Config, state: &mut State, out: &mut Outcome) {
        let mut availability = BTreeMap::new();
        let mut paper_failures = Vec::new();
        for m in &state.paper {
            match run_model(m, cfg) {
                Ok(a) => {
                    availability.insert((m.line.id(), m.strategy.clone()), a);
                }
                Err(reason) => paper_failures.push(reason),
            }
        }
        out.gate(
            "table1-counts",
            out.failed_ops() == 0 && paper_failures.is_empty(),
            format!(
                "flat 2048/22528, 111809, 178606, 8129, 11956 and lumped 160/449/727/96/257/387 \
                 on every timed model and the paper's ten{}",
                paper_failures
                    .first()
                    .map_or(String::new(), |r| format!("; first failure: {r}"))
            ),
        );
        let measured = |line: Line, strategy: &str| {
            availability
                .get(&(line.id(), strategy.to_string()))
                .copied()
        };
        let mut gap_max: f64 = 0.0;
        for row in table2_paper_reference() {
            let strategy = row.strategy.to_lowercase();
            let (Some(a1), Some(a2)) = (
                measured(Line::Line1, &strategy),
                measured(Line::Line2, &strategy),
            ) else {
                out.gate("table2", false, format!("no availability for {strategy}"));
                continue;
            };
            let combined = combined_availability(a1, a2);
            for (got, paper) in [(a1, row.line1), (a2, row.line2), (combined, row.combined)] {
                gap_max = gap_max.max((got - paper).abs());
            }
            if strategy == "ded" {
                let seven = |x: f64| format!("{x:.7}");
                let ok = seven(a1) == seven(row.line1)
                    && seven(a2) == seven(row.line2)
                    && seven(combined) == seven(row.combined);
                out.gate(
                    "table2-ded-7-digits",
                    ok,
                    format!("{a1:.7} / {a2:.7} / {combined:.7}"),
                );
            }
        }
        out.extra.push(
            Metric::new("paper_gap_max", gap_max, "abs")
                .note("largest |measured − paper| over the 15 Table 2 cells"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_scales_but_not_structure() {
        let family = |s: &String| s.split('@').next().unwrap().to_string();
        let mut small = Vec::new();
        for pass in 0..SMALL_TIMED.len() {
            let (a, b) = (specs(1, pass), specs(2, pass));
            assert_eq!(a.len(), 3);
            assert!(a.iter().all(|spec| spec.contains('@')));
            assert_eq!(
                a.iter().map(family).collect::<Vec<_>>(),
                b.iter().map(family).collect::<Vec<_>>()
            );
            assert_ne!(a, b);
            small.push(family(&a[2]));
        }
        // Six passes time every small model once.
        small.sort();
        small.dedup();
        assert_eq!(small.len(), SMALL_TIMED.len());
        // The paper's 2 lines × 5 strategies, unscaled.
        let mut paper = paper_specs();
        paper.dedup();
        assert_eq!(paper.len(), 10);
        assert!(paper.iter().all(|spec| !spec.contains('@')));
    }
}
