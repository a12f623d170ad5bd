//! What every workload shares: the run configuration, the timed pass loop,
//! op records, process counters and the summary statistics.

use std::time::Instant;

use arcade_core::ExecOptions;

/// The parsed command line plus the machine facts every result records.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `std::thread::available_parallelism`: every compute call runs on
    /// this many worker threads.
    pub nproc: usize,
    /// Only time one set-up and print it (the child processes that sample
    /// `setup_s`).
    pub setup_only: bool,
}

impl Config {
    pub fn exec(&self) -> ExecOptions {
        ExecOptions::with_threads(self.nproc)
    }
}

/// One measured op.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub latency_ms: f64,
    /// The op's result failed a gate or returned an error.
    pub failed: bool,
}

/// Wall and CPU time of one pass over a workload's fixed op list.
#[derive(Debug, Clone, Copy)]
pub struct PassRecord {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// A metric as printed: name, value, unit and an optional note.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// A check over a run's results.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub passed: bool,
    pub detail: String,
    /// A failure means a wrong answer and makes the run incorrect. A
    /// reproducibility gate (right answers, different bits) is reported
    /// only: it makes neither the run incorrect nor an op failed.
    pub answers: bool,
}

/// Everything one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub passes: Vec<PassRecord>,
    pub ops: Vec<OpRecord>,
    /// Seconds spent in the measured passes.
    pub measured_s: f64,
    /// Workload-specific end-to-end metrics (`paper_gap_max`, …).
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    pub gates: Vec<Gate>,
}

impl Outcome {
    /// Records a correctness gate.
    pub fn gate(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.push_gate(name, passed, detail.into(), true);
    }

    /// Records a reproducibility gate.
    pub fn reproducibility_gate(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.push_gate(name, passed, detail.into(), false);
    }

    fn push_gate(&mut self, name: &str, passed: bool, detail: String, answers: bool) {
        self.gates.push(Gate {
            name: name.to_string(),
            passed,
            detail,
            answers,
        });
    }

    pub fn failed_ops(&self) -> usize {
        self.ops.iter().filter(|op| op.failed).count()
    }

    /// Every answer was right: no correctness gate failed. Every op that
    /// fails a check fails a correctness gate with it.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.passed || !g.answers)
    }
}

/// Runs this benchmark again with the same arguments plus `flag`, waits for
/// it, and returns the value of its `setup_s <seconds>` line.
pub fn setup_in_child(flag: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("set-up process: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(std::env::args().skip(1))
        .arg(flag)
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "set-up process failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find_map(|line| line.strip_prefix("setup_s "))
        .and_then(|value| value.trim().parse().ok())
        .ok_or_else(|| "set-up process printed no time".to_string())
}

/// Times one pass: wall and process CPU.
pub fn measure_pass(pass: impl FnOnce()) -> PassRecord {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    pass();
    PassRecord {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
    }
}

/// Times `f` in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64() * 1e3)
}

/// User plus system CPU time of the whole process (all threads), from
/// `/proc/self/stat`; 0 where that file does not exist.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (100 per second on Linux).
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size in MiB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs").and_then(|packed| {
                    packed
                        .lines()
                        .find(|line| line.ends_with(reference))
                        .and_then(|line| line.split_whitespace().next())
                        .map(str::to_string)
                })
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// The median (mean of the middle two for even lengths); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail latency: the highest percentile with at least ten samples
/// beyond it, as (percentile, value). `None` below twenty samples.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n < 20 {
        return None;
    }
    // Largest whole percentile p with n·(1 − p/100) ≥ 10.
    let p = (100 * (n - 10) / n) as u32;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest-rank: the value below which p% of the samples lie.
    let rank = ((p as usize * n).div_ceil(100)).clamp(1, n);
    Some((p, sorted[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 19]), None);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, value) = tail(&values).unwrap();
        assert_eq!(p, 90);
        assert_eq!(value, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let (p, value) = tail(&values).unwrap();
        assert_eq!((p, value), (50, 10.0));
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values).unwrap().0, 99);
    }

    #[test]
    fn process_counters_read_on_linux() {
        // CPU time advances in 10 ms ticks: burn until one shows.
        let started = Instant::now();
        while cpu_seconds() == 0.0 && started.elapsed().as_secs() < 5 {
            std::hint::black_box((0..1_000_000u64).map(std::hint::black_box).sum::<u64>());
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
