//! The repository benchmark: four seeded workloads across compile → solve →
//! transient → simulate → serve, driven through the crates' public
//! functions.
//!
//! ```text
//! cargo run --release --offline --manifest-path arcbench/Cargo.toml -- \
//!     --workload paper-sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every metric is printed as a `metric <name> <value> <unit>` line, every
//! correctness gate as a `gate` line, and the last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

mod daemon_mixed;
mod facility_transient;
mod harness;
mod layers;
mod paper_sweep;
mod rare_event;
mod rng;
mod trace;
mod workload;

use std::process::ExitCode;

use harness::{median, peak_rss_mb, tail, Config, Metric, Outcome};
use workload::Workload;

const USAGE: &str =
    "usage: arcbench --workload <paper-sweep|facility-transient|daemon-mixed|rare-event> \
     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Ok(Config {
        workload: value("--workload")?,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
        nproc,
        setup_only: args.iter().any(|a| a == workload::SETUP_ONLY),
    })
}

fn run(cfg: &Config) -> Result<(Outcome, &'static str), String> {
    fn go<W: Workload>(w: W, cfg: &Config) -> Result<(Outcome, &'static str), String> {
        println!("# why {}: {}", W::NAME, W::WHY);
        workload::run(&w, cfg).map(|out| (out, W::NAME))
    }
    match cfg.workload.as_str() {
        paper_sweep::PaperSweep::NAME => go(paper_sweep::PaperSweep, cfg),
        facility_transient::FacilityTransient::NAME => {
            go(facility_transient::FacilityTransient, cfg)
        }
        daemon_mixed::DaemonMixed::NAME => go(daemon_mixed::DaemonMixed, cfg),
        rare_event::RareEvent::NAME => go(rare_event::RareEvent, cfg),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }
}

/// The end-to-end metrics of an untraced run, in catalogue order.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let latencies: Vec<f64> = out.ops.iter().map(|op| op.latency_ms).collect();
    let walls: Vec<f64> = out.passes.iter().map(|p| p.wall_s).collect();
    // CPU time is read in 10 ms ticks, so it is averaged over all passes.
    let cpu_per_pass =
        out.passes.iter().map(|p| p.cpu_s).sum::<f64>() / out.passes.len().max(1) as f64;
    let n = latencies.len();
    let tail = match tail(&latencies) {
        Some((p, value)) => Metric::new("op_tail_ms", value, "ms").note(format!("p{p} of {n} ops")),
        None => Metric::new(
            "op_tail_ms",
            latencies.iter().copied().fold(0.0, f64::max),
            "ms",
        )
        .note(format!("max of {n} ops (fewer than 20)")),
    };
    vec![
        Metric::new("setup_s", median(&out.setup_s), "s")
            .note(format!("median of {} set-ups", out.setup_s.len())),
        Metric::new("wall_s", median(&walls), "s").note(format!(
            "median of {} passes: {}",
            walls.len(),
            walls
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        )),
        Metric::new("ops_per_s", n as f64 / out.measured_s, "1/s")
            .note(format!("{n} ops in {:.3} s", out.measured_s)),
        Metric::new("op_p50_ms", median(&latencies), "ms").note(format!("{n} ops")),
        tail,
        Metric::new("cpu_s", cpu_per_pass, "s").note("user+sys per pass, mean"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn print_metric(m: &Metric) {
    let note = if m.note.is_empty() {
        String::new()
    } else {
        format!("  ({})", m.note)
    };
    println!("metric {} {} {}{note}", m.name, m.value, m.unit);
}

/// The closing JSON line; `None` if a value cannot be written as JSON.
fn json_line(out: &Outcome, metrics: &[Metric]) -> Option<String> {
    let mut fields = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return None;
        }
        fields.push(format!(
            "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Some(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.ops.len(),
        out.failed_ops(),
        fields.join(",")
    ))
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg.setup_only {
        return match run(&cfg) {
            Ok((out, _)) => {
                println!("setup_s {:?}", median(&out.setup_s));
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("arcbench: {message}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "# arcbench workload={} seed={} seconds={} trace={} threads={} nproc={} revision={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.nproc,
        cfg.nproc,
        harness::git_revision()
    );
    let (out, name) = match run(&cfg) {
        Ok(result) => result,
        Err(message) => {
            eprintln!("arcbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let (printed, catalogue): (Vec<Metric>, Vec<&str>) = if cfg.trace {
        let names = layers::PER_LAYER.iter().map(|&(name, _, _)| name).collect();
        (out.layers.clone(), names)
    } else {
        let names = layers::END_TO_END.iter().map(|&(name, _)| name).collect();
        (end_to_end(&out), names)
    };
    printed.iter().chain(&out.extra).for_each(print_metric);
    let reported: Vec<Metric> = catalogue
        .iter()
        .map(|name| {
            printed
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .expect("every catalogue metric is computed")
        })
        .collect();
    let failed_frac = out.failed_ops() as f64 / out.ops.len().max(1) as f64;
    print_metric(
        &Metric::new("failed_frac", failed_frac, "ratio").note(format!(
            "{} of {} ops",
            out.failed_ops(),
            out.ops.len()
        )),
    );
    for gate in &out.gates {
        println!(
            "gate {name}/{} {} {}{}",
            gate.name,
            if gate.passed { "ok" } else { "FAILED" },
            gate.detail,
            if gate.answers {
                ""
            } else {
                " (reproducibility gate: reported, counted in neither `failed` nor `correct`)"
            }
        );
    }
    if out.ops.is_empty() {
        eprintln!("arcbench: no op ran");
        return ExitCode::FAILURE;
    }
    match json_line(&out, &reported) {
        Some(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("arcbench: a metric is not finite");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload says why it was chosen, and `BENCHMARK.json` names
    /// only workloads this harness runs.
    #[test]
    fn workloads_record_why_and_match_benchmark_json() {
        let whys = [
            (paper_sweep::PaperSweep::NAME, paper_sweep::PaperSweep::WHY),
            (
                facility_transient::FacilityTransient::NAME,
                facility_transient::FacilityTransient::WHY,
            ),
            (
                daemon_mixed::DaemonMixed::NAME,
                daemon_mixed::DaemonMixed::WHY,
            ),
            (rare_event::RareEvent::NAME, rare_event::RareEvent::WHY),
        ];
        assert!(whys.iter().all(|(_, why)| why.len() > 40));
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = arcade_server::Json::parse(&text).expect("valid JSON");
        let listed = json
            .get("workloads")
            .and_then(|w| w.as_array())
            .expect("workloads");
        assert!(listed.len() >= 2);
        for workload in listed {
            let name = workload
                .get("name")
                .and_then(|n| n.as_str())
                .expect("a name");
            assert!(whys.iter().any(|(known, _)| *known == name), "{name}");
            assert!(!workload
                .get("why")
                .and_then(|w| w.as_str())
                .unwrap_or("")
                .is_empty());
        }
    }
}
