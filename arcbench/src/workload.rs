//! The run skeleton every workload shares.
//!
//! A run does a fixed number of passes over the workload's op list:
//! `--seconds` divided by the workload's nominal pass time. Every run of one
//! length therefore does the same work and its latency percentiles cover the
//! same ops; a faster program finishes sooner.
//!
//! `setup_s` is the median of set-ups each timed in a fresh process of the
//! benchmark (`--setup-only`), so it is the set-up a user meets from process
//! start. Timed inside the long-running process instead, the same set-up
//! switched between levels a third apart with the heap the passes left
//! behind (the allocator's adaptive mmap threshold), and a run's median with
//! them.
//!
//! Untraced run: a few set-ups, then the passes, with more set-ups spread
//! between them so that the median samples the whole run. Traced run:
//! set-ups, a quarter of the passes (at least one cycle) untraced as the
//! reference, the thread-speedup probe, then one set-up plus as many passes
//! again with the benchmark's spans and the program's recorder on.

use arcade_core::{
    CompiledModel, CompiledQuotient, ComposerOptions, ExecOptions, FacilityAnalysis, LumpingMode,
};
use arcade_sim::{QuotientSimulator, SimulationOptions};
use watertreatment::facility::{line_model, FACILITY_DISASTER_ALL_PUMPS};
use watertreatment::{strategies, Line, ModelSpec};

use crate::harness::{self, measure_pass, median, timed, Config, Metric, Outcome};
use crate::layers::{self, Speedups};
use crate::trace;

/// Set-ups per untraced run, `SETUP_FIRST` of them before the first pass
/// and the rest spread between passes, so that `setup_s` samples the whole
/// run rather than its first milliseconds.
const SETUP_SAMPLES: usize = 25;
const SETUP_FIRST: usize = 5;

/// The flag that makes a run time one set-up and print it.
pub const SETUP_ONLY: &str = "--setup-only";

pub trait Workload {
    type State;

    const NAME: &'static str;
    /// Why the workload was chosen: which layer it stresses.
    const WHY: &'static str;
    /// Seconds one pass takes at this commit on a 2-vCPU machine; a run of
    /// `--seconds` does `seconds / NOMINAL_PASS_S` passes (at least `CYCLE`).
    const NOMINAL_PASS_S: f64;
    /// Passes that cover the workload's op list once: every run, traced or
    /// not, does at least this many.
    const CYCLE: usize = 1;

    /// Builds the inputs of the timed ops.
    fn setup(&self, cfg: &Config) -> Result<Self::State, String>;

    /// One pass over the fixed op list: pushes one [`crate::harness::OpRecord`]
    /// per op and a gate entry per failed check.
    fn pass(&self, cfg: &Config, state: &mut Self::State, index: usize, out: &mut Outcome);

    /// Checks over the whole run and workload-specific metrics.
    fn finish(&self, cfg: &Config, state: &mut Self::State, out: &mut Outcome);
}

/// Passes of a run of `seconds`.
pub fn passes<W: Workload>(seconds: f64) -> usize {
    ((seconds / W::NOMINAL_PASS_S).round() as usize).max(W::CYCLE.max(1))
}

/// Times `count` set-ups, each in a fresh process, into `out.setup_s`.
fn sample_setups(count: usize, out: &mut Outcome) -> Result<(), String> {
    for _ in 0..count {
        out.setup_s.push(harness::setup_in_child(SETUP_ONLY)?);
    }
    Ok(())
}

pub fn run<W: Workload>(w: &W, cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if cfg.setup_only {
        let (built, ms) = timed(|| w.setup(cfg));
        drop(built?);
        out.setup_s.push(ms / 1e3);
        return Ok(out);
    }
    let passes = passes::<W>(cfg.seconds);
    sample_setups(SETUP_FIRST, &mut out)?;
    let mut state = w.setup(cfg)?;
    if !cfg.trace {
        let spread = SETUP_SAMPLES - SETUP_FIRST;
        for index in 0..passes {
            let record = measure_pass(|| w.pass(cfg, &mut state, index, &mut out));
            out.passes.push(record);
            let due = (index + 1) * spread / passes - index * spread / passes;
            sample_setups(due, &mut out)?;
        }
        out.measured_s = out.passes.iter().map(|p| p.wall_s).sum();
        w.finish(cfg, &mut state, &mut out);
        return Ok(out);
    }

    // Untraced reference for the tracing overhead.
    let traced_passes = (passes / 4).max(W::CYCLE.max(1));
    let mut reference = Outcome::default();
    let reference_ms: f64 = (0..traced_passes)
        .map(|index| measure_pass(|| w.pass(cfg, &mut state, index, &mut reference)).wall_s * 1e3)
        .sum();
    let untraced_ms = median(&out.setup_s) * 1e3 + reference_ms;
    out.gates
        .extend(reference.gates.into_iter().filter(|g| !g.passed));
    drop(state);
    let speedups = speedups(cfg)?;

    layers::install_program_recorder();
    trace::set_enabled(true);
    // Wall time of the traced part, measured like the reference: the root
    // spans would count the daemon's concurrent clients twice.
    let (traced, traced_ms) = timed(|| {
        let _root = trace::span("bench.run");
        w.setup(cfg).map(|mut traced_state| {
            for index in 0..traced_passes {
                let record = measure_pass(|| w.pass(cfg, &mut traced_state, index, &mut out));
                out.passes.push(record);
            }
            traced_state
        })
    });
    trace::set_enabled(false);
    out.measured_s = out.passes.iter().map(|p| p.wall_s).sum();
    let mut traced_state = traced?;
    let spans = trace::drain();
    write_trace(cfg, &spans);
    let summary = trace::summarise(&spans);
    let overhead = traced_ms / untraced_ms - 1.0;
    let gap = summary.attribution_gap_ms();
    out.gate(
        "trace-attribution",
        gap.abs() < 1e-3,
        format!(
            "layer self times + unattributed − root wall = {gap:.6} ms over {} ops",
            summary.ops
        ),
    );
    out.layers = layers::layer_metrics(&summary, overhead, speedups);
    // Layer spans outside the catalogue (the daemon's client round trips).
    for (&name, &ms) in &summary.self_ms {
        let metric = format!("{name}_ms");
        if !out.layers.iter().any(|m| m.name == metric) {
            out.layers
                .push(Metric::new(metric, ms, "ms").note("self time of the benchmark's spans"));
        }
    }
    for (name, (count, total_ms)) in layers::program_spans() {
        out.layers.push(
            Metric::new(format!("program.{name}_ms"), total_ms, "ms")
                .note(format!("the program's own `{name}` spans, {count} of them")),
        );
    }
    w.finish(cfg, &mut traced_state, &mut out);
    layers::complete(&mut out.layers);
    Ok(out)
}

/// Writes the traced run's spans under the build directory (where the
/// checkout's `.gitignore` keeps them out of version control).
fn write_trace(cfg: &Config, spans: &[trace::SpanRecord]) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "arcbench/target".to_string()),
    );
    let path = dir.join(format!("trace-{}-seed{}.json", cfg.workload, cfg.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace(spans)))
    {
        Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("# spans not written to {}: {e}", path.display()),
    }
}

/// Times `f` at `cfg.nproc` threads and at one, returning t(1) / t(nproc).
fn speedup(cfg: &Config, f: impl Fn(ExecOptions) -> Result<(), String>) -> Result<f64, String> {
    let (parallel, parallel_ms) = timed(|| f(cfg.exec()));
    parallel?;
    let (serial, serial_ms) = timed(|| f(ExecOptions::serial()));
    serial?;
    Ok(serial_ms / parallel_ms)
}

/// The `exec.speedup_*` probe: one representative call per layer, timed at
/// one thread and at `nproc` threads. The calls are the ones the workloads
/// spend their time in: the flat compose of Line 1 FRF-1 (paper-sweep), the
/// Gauss–Seidel solve and a survivability curve on the materialised
/// FRF-1 × FRF-1 joint chain (facility-transient), and 10⁶ quotient
/// replications on Line 1 FRF-1 (rare-event).
pub fn speedups(cfg: &Config) -> Result<Speedups, String> {
    let err = |e: arcade_core::ArcadeError| e.to_string();
    let line = line_model(Line::Line1, &strategies::frf(1)).map_err(err)?;
    let compose = speedup(cfg, |exec| {
        let options = ComposerOptions {
            lumping: LumpingMode::Disabled,
            exec,
            ..ComposerOptions::default()
        };
        CompiledModel::compile_with(&line, options)
            .map(drop)
            .map_err(err)
    })?;
    let facility = ModelSpec::parse("facility/frf-1+frf-1")
        .and_then(|spec| Ok(spec.facility_model()?.expect("a facility spec")))
        .map_err(err)?;
    let joint = FacilityAnalysis::with_options(&facility, ComposerOptions::default())
        .and_then(|analysis| analysis.compiled_quotient())
        .map_err(err)?;
    let solve = speedup(cfg, |exec| {
        joint.stationary_counted(None, exec).map(drop).map_err(err)
    })?;
    let times: Vec<f64> = (0..=6).map(|i| f64::from(i) * 0.75).collect();
    let transient = speedup(cfg, |exec| {
        joint
            .survivability_curve(FACILITY_DISASTER_ALL_PUMPS, 1.0, &times, exec)
            .map(drop)
            .map_err(err)
    })?;
    let quotient = CompiledQuotient::of_model(&line, ComposerOptions::default()).map_err(err)?;
    let simulator = QuotientSimulator::new(&quotient);
    let sim = speedup(cfg, |exec| {
        let options = SimulationOptions {
            replications: 1_000_000,
            exec,
            ..SimulationOptions::default()
        };
        simulator
            .unavailability(100.0, &options)
            .map(drop)
            .map_err(err)
    })?;
    Ok(Speedups {
        compose,
        solve,
        transient,
        sim,
    })
}
