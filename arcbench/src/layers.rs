//! The metric catalogue and the per-layer metrics of a traced run.
//!
//! Layer spans come from the benchmark's own timers ([`crate::trace`]). The
//! program's existing span counters (`compose`, `lump`, `materialise`,
//! `solve`, `transient`, `simulate`) are collected from an
//! [`arcade_telemetry::Recorder`] installed globally for the traced part of
//! the run; the uniformisation step counts come from there.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use arcade_telemetry::Recorder;

use crate::harness::Metric;
use crate::trace::{self, Summary};

/// End-to-end metrics every workload reports in its untraced runs:
/// (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports: (name, unit, the end-to-end
/// metric and workload it should move). A layer a workload never calls
/// reports 0 (see [`complete`]).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "watertreatment.model_build_ms",
        "ms",
        "setup_s, all workloads",
    ),
    (
        "core.compose_ms",
        "ms",
        "wall_s on paper-sweep; cold_op_p50_ms on daemon-mixed",
    ),
    ("core.compose_states", "count", "wall_s on paper-sweep"),
    ("core.compose_states_per_s", "1/s", "wall_s on paper-sweep"),
    ("lumping.lump_ms", "ms", "wall_s on paper-sweep"),
    ("lumping.blocks", "count", "wall_s on paper-sweep"),
    ("lumping.reduction_ratio", "ratio", "wall_s on paper-sweep"),
    (
        "core.materialise_ms",
        "ms",
        "wall_s and peak_rss_mb on facility-transient",
    ),
    (
        "facility.analysis_ms",
        "ms",
        "wall_s and peak_rss_mb on facility-transient",
    ),
    (
        "symmetry.orbit_ms",
        "ms",
        "wall_s on facility-transient; cold_op_p50_ms on daemon-mixed",
    ),
    ("symmetry.orbits", "count", "wall_s on facility-transient"),
    (
        "ctmc.solve_ms",
        "ms",
        "wall_s on facility-transient; cold_op_p50_ms on daemon-mixed",
    ),
    ("ctmc.solve_iters", "count", "wall_s on facility-transient"),
    ("ctmc.solve_states", "count", "wall_s on facility-transient"),
    ("ctmc.solves_gs", "count", "wall_s on facility-transient"),
    (
        "ctmc.solves_jacobi",
        "count",
        "wall_s on facility-transient",
    ),
    (
        "ctmc.solves_krylov",
        "count",
        "wall_s on facility-transient",
    ),
    (
        "ctmc.transient_surv_ms",
        "ms",
        "wall_s and op_p50_ms on facility-transient",
    ),
    (
        "ctmc.transient_inst_cost_ms",
        "ms",
        "wall_s and op_p50_ms on facility-transient",
    ),
    (
        "ctmc.transient_acc_cost_ms",
        "ms",
        "wall_s and op_p50_ms on facility-transient",
    ),
    (
        "ctmc.transient_surv_us_per_step",
        "us",
        "wall_s on facility-transient",
    ),
    (
        "ctmc.transient_inst_cost_us_per_step",
        "us",
        "wall_s on facility-transient",
    ),
    (
        "ctmc.transient_acc_cost_us_per_step",
        "us",
        "wall_s on facility-transient",
    ),
    (
        "ctmc.transient_states",
        "count",
        "wall_s on facility-transient",
    ),
    (
        "ctmc.transient_points",
        "count",
        "wall_s on facility-transient",
    ),
    (
        "ctmc.transient_steps",
        "count",
        "wall_s on facility-transient",
    ),
    (
        "sim.alias_build_ms",
        "ms",
        "setup_s on rare-event; op_p50_ms of simulate on daemon-mixed",
    ),
    ("sim.estimate_ms", "ms", "ops_per_s on rare-event"),
    ("sim.replications_per_s", "1/s", "ops_per_s on rare-event"),
    ("sim.lr_mean", "ratio", "ops_per_s on rare-event"),
    (
        "server.handle_ms",
        "ms",
        "op_p50_ms and cold_op_p50_ms on daemon-mixed",
    ),
    ("server.codec_us", "us", "op_p50_ms on daemon-mixed"),
    (
        "server.transport_ms",
        "ms",
        "op_p50_ms and ops_per_s on daemon-mixed",
    ),
    (
        "server.ping_ms",
        "ms",
        "op_p50_ms and ops_per_s on daemon-mixed",
    ),
    (
        "server.cache_hit_ratio",
        "ratio",
        "cold_op_p50_ms and ops_per_s on daemon-mixed",
    ),
    (
        "server.warm_solve_ratio",
        "ratio",
        "cold_op_p50_ms on daemon-mixed",
    ),
    ("server.coalesced", "count", "ops_per_s on daemon-mixed"),
    (
        "server.evictions",
        "count",
        "cold_op_p50_ms on daemon-mixed",
    ),
    (
        "server.hist_p50_ratio",
        "ratio",
        "none: error of the daemon's latency histogram",
    ),
    (
        "server.replay_bit_mismatch_frac",
        "ratio",
        "none: replies not bit-identical to the in-process replay",
    ),
    (
        "server.cold_ded3_ms",
        "ms",
        "cold_op_p50_ms on daemon-mixed",
    ),
    (
        "core.kline_ded3_ms",
        "ms",
        "none: in-process reference for server.cold_ded3_ms",
    ),
    (
        "exec.speedup_compose",
        "ratio",
        "wall_s and cpu_s on paper-sweep",
    ),
    (
        "exec.speedup_solve",
        "ratio",
        "wall_s and cpu_s on facility-transient",
    ),
    (
        "exec.speedup_transient",
        "ratio",
        "wall_s and cpu_s on facility-transient",
    ),
    (
        "exec.speedup_sim",
        "ratio",
        "wall_s and cpu_s on rare-event",
    ),
    (
        "telemetry.overhead_frac",
        "ratio",
        "none: tracing is off in untraced runs",
    ),
    ("unattributed_ms", "ms", "none: benchmark glue"),
];

/// The program's recorder, installed globally by [`install_program_recorder`].
static PROGRAM: OnceLock<Recorder> = OnceLock::new();

/// Installs an enabled [`Recorder`] as the process-global recorder, so the
/// program's own spans are captured from here on.
pub fn install_program_recorder() {
    let recorder = PROGRAM.get_or_init(Recorder::enabled);
    Recorder::install_global(recorder.clone());
}

/// Uniformisation steps the program has recorded so far (0 untraced).
pub fn program_steps() -> f64 {
    PROGRAM
        .get()
        .map_or(0.0, |r| r.counter_total("transient", "steps") as f64)
}

/// Runs a transient call under the layer span `layer`, recording the
/// states, time points and uniformisation steps it covered. The step
/// counter scans every span the program has recorded, so it is read
/// outside the layer's time.
pub fn transient<T>(layer: &'static str, states: usize, points: usize, f: impl FnOnce() -> T) -> T {
    let traced = trace::enabled();
    let before = if traced { program_steps() } else { 0.0 };
    let mut span = trace::span(layer);
    let value = f();
    span.stop();
    if traced {
        span.set("steps", program_steps() - before);
        span.set("states", states as f64);
        span.set("points", points as f64);
    }
    value
}

/// Count and summed duration (ms) of the program's own spans, by name.
pub fn program_spans() -> BTreeMap<&'static str, (usize, f64)> {
    let mut totals: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    if let Some(recorder) = PROGRAM.get() {
        for span in recorder.spans() {
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_us as f64 / 1e3;
        }
    }
    totals
}

/// `numerator / denominator`, or 0 when nothing was measured.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Measured `exec` speedups: (compose, solve, transient, sim), each the
/// same call's time at one thread divided by its time at `nproc` threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Speedups {
    pub compose: f64,
    pub solve: f64,
    pub transient: f64,
    pub sim: f64,
}

/// Every catalogue metric of a traced run, from the span summary plus the
/// run-level figures the workload measured.
pub fn layer_metrics(summary: &Summary, overhead_frac: f64, speedups: Speedups) -> Vec<Metric> {
    let s = summary;
    let ms = |layer: &str| s.layer_ms(layer);
    let compose_states = s.attr("core.compose", "states");
    let blocks = s.attr("lumping.lump", "blocks");
    let surv_steps = s.attr("ctmc.transient_surv", "steps");
    let inst_steps = s.attr("ctmc.transient_inst_cost", "steps");
    let acc_steps = s.attr("ctmc.transient_acc_cost", "steps");
    let transient = [
        "ctmc.transient_surv",
        "ctmc.transient_inst_cost",
        "ctmc.transient_acc_cost",
    ];
    let transient_attr = |key: &str| {
        transient
            .iter()
            .map(|layer| s.attr(layer, key))
            .sum::<f64>()
    };
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        (
            "watertreatment.model_build_ms",
            ms("watertreatment.model_build"),
        ),
        ("core.compose_ms", ms("core.compose")),
        ("core.compose_states", compose_states),
        (
            "core.compose_states_per_s",
            ratio(compose_states, ms("core.compose") / 1e3),
        ),
        ("lumping.lump_ms", ms("lumping.lump")),
        ("lumping.blocks", blocks),
        (
            "lumping.reduction_ratio",
            ratio(s.attr("lumping.lump", "states"), blocks),
        ),
        ("core.materialise_ms", ms("core.materialise")),
        ("facility.analysis_ms", ms("facility.analysis")),
        ("symmetry.orbit_ms", ms("symmetry.orbit")),
        ("symmetry.orbits", s.attr("symmetry.orbit", "orbits")),
        ("ctmc.solve_ms", ms("ctmc.solve")),
        ("ctmc.solve_iters", s.attr("ctmc.solve", "iters")),
        ("ctmc.solve_states", s.attr("ctmc.solve", "states")),
        ("ctmc.solves_gs", s.attr("ctmc.solve", "gs")),
        ("ctmc.solves_jacobi", s.attr("ctmc.solve", "jacobi")),
        ("ctmc.solves_krylov", s.attr("ctmc.solve", "krylov")),
        ("ctmc.transient_surv_ms", ms("ctmc.transient_surv")),
        (
            "ctmc.transient_inst_cost_ms",
            ms("ctmc.transient_inst_cost"),
        ),
        ("ctmc.transient_acc_cost_ms", ms("ctmc.transient_acc_cost")),
        (
            "ctmc.transient_surv_us_per_step",
            ratio(ms("ctmc.transient_surv") * 1e3, surv_steps),
        ),
        (
            "ctmc.transient_inst_cost_us_per_step",
            ratio(ms("ctmc.transient_inst_cost") * 1e3, inst_steps),
        ),
        (
            "ctmc.transient_acc_cost_us_per_step",
            ratio(ms("ctmc.transient_acc_cost") * 1e3, acc_steps),
        ),
        ("ctmc.transient_states", transient_attr("states")),
        ("ctmc.transient_points", transient_attr("points")),
        ("ctmc.transient_steps", transient_attr("steps")),
        ("sim.alias_build_ms", ms("sim.alias_build")),
        ("sim.estimate_ms", ms("sim.estimate")),
        (
            "sim.replications_per_s",
            ratio(
                s.attr("sim.estimate", "replications"),
                ms("sim.estimate") / 1e3,
            ),
        ),
        (
            "sim.lr_mean",
            ratio(
                s.attr("sim.estimate", "lr_mean"),
                s.attr("sim.estimate", "lr_runs"),
            ),
        ),
        ("exec.speedup_compose", speedups.compose),
        ("exec.speedup_solve", speedups.solve),
        ("exec.speedup_transient", speedups.transient),
        ("exec.speedup_sim", speedups.sim),
        ("telemetry.overhead_frac", overhead_frac),
        ("unattributed_ms", s.unattributed_ms),
    ]);
    PER_LAYER
        .iter()
        .filter_map(|&(name, unit, moves)| {
            // `+ 0.0` turns the -0.0 of an empty sum into 0.
            let value = values.get(name)? + 0.0;
            Some(Metric::new(name, value, unit).note(format!("→ {moves}")))
        })
        .collect()
}

/// Adds a 0 for every catalogue metric the run did not measure: the
/// serving layer outside `daemon-mixed`.
pub fn complete(layers: &mut Vec<Metric>) {
    for &(name, unit, moves) in PER_LAYER {
        if !layers.iter().any(|m| m.name == name) {
            layers.push(
                Metric::new(name, 0.0, unit).note(format!("→ {moves}; not run by this workload")),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` name the same metrics with the
    /// same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = arcade_server::Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|list| list.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let expected_e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let expected_layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), expected_e2e);
        assert_eq!(names("per_layer"), expected_layers);
    }

    #[test]
    fn every_catalogue_metric_is_computed() {
        let mut metrics = layer_metrics(&Summary::default(), 0.0, Speedups::default());
        assert!(metrics.iter().all(|m| !m.name.starts_with("server.")));
        complete(&mut metrics);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.iter().all(|m| m.value == 0.0));
    }
}
