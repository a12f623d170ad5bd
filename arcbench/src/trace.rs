//! Benchmark-side span tracer.
//!
//! Spans are recorded around every public call the benchmark makes into the
//! program: a name (the layer, e.g. `core.compose`), start and end, the span
//! that caused it and the op it belongs to. Spans stay in memory and are
//! summarised when the run ends. While tracing is off every call is one
//! relaxed atomic load.
//!
//! A span's *self time* is its duration minus the part of it that its child
//! spans cover. Spans named after a layer (`<crate>.<what>`) are layer spans;
//! the rest (`bench.*`, `op`) are the benchmark's own glue, and their self
//! time is reported as `unattributed_ms`. Per root span, the layer self
//! times plus the unattributed time add up to the root's wall time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn buffer() -> &'static Mutex<Vec<SpanRecord>> {
    static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
    &SPANS
}

thread_local! {
    /// Open spans of this thread, innermost last: (span id, op id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    /// The enclosing span on the same thread, `None` for a root.
    pub parent: Option<u64>,
    /// The op the span belongs to (0 outside any op).
    pub op: u64,
    /// Small dense id of the recording thread.
    pub thread: u64,
    pub name: &'static str,
    /// Start and end in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Attributes attached with [`Span::set`], summed per key.
    pub attrs: Vec<(&'static str, f64)>,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Removes and returns every recorded span.
pub fn drain() -> Vec<SpanRecord> {
    std::mem::take(&mut *buffer().lock().expect("span buffer poisoned"))
}

/// A span guard: records on drop. Inert while tracing is off.
#[must_use = "the span is timed until the guard drops"]
pub struct Span {
    active: Option<Active>,
}

struct Active {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start: Instant,
    /// Set by [`Span::stop`]; the drop time otherwise.
    end: Option<Instant>,
    attrs: Vec<(&'static str, f64)>,
}

/// Opens a span under the innermost open span of this thread.
pub fn span(name: &'static str) -> Span {
    open(name, None)
}

/// Opens the span of op `op`: it and every span opened inside it carry the
/// op's id.
pub fn op_span(op: u64) -> Span {
    open("op", Some(op))
}

fn open(name: &'static str, op: Option<u64>) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, inherited) = STACK.with(|stack| {
        stack
            .borrow()
            .last()
            .map_or((None, 0), |&(parent, op)| (Some(parent), op))
    });
    let op = op.unwrap_or(inherited);
    STACK.with(|stack| stack.borrow_mut().push((id, op)));
    Span {
        active: Some(Active {
            id,
            parent,
            op,
            name,
            start: Instant::now(),
            end: None,
            attrs: Vec::new(),
        }),
    }
}

impl Span {
    /// Adds `value` to attribute `key` (a count or a measured value).
    pub fn set(&mut self, key: &'static str, value: f64) {
        if let Some(active) = &mut self.active {
            match active.attrs.iter_mut().find(|(k, _)| *k == key) {
                Some((_, total)) => *total += value,
                None => active.attrs.push((key, value)),
            }
        }
    }

    /// Ends the span's time now. Attributes can still be set until the
    /// guard drops, and the work between is not charged to this span. Open
    /// no other span in between.
    pub fn stop(&mut self) {
        if let Some(active) = &mut self.active {
            active.end.get_or_insert_with(Instant::now);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end = active.end.unwrap_or_else(Instant::now);
        STACK.with(|stack| {
            let popped = stack.borrow_mut().pop();
            debug_assert_eq!(popped.map(|(id, _)| id), Some(active.id));
        });
        let base = epoch();
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            op: active.op,
            thread: THREAD.with(|t| *t),
            name: active.name,
            start_ns: active.start.duration_since(base).as_nanos() as u64,
            end_ns: end.duration_since(base).as_nanos() as u64,
            attrs: active.attrs,
        };
        buffer().lock().expect("span buffer poisoned").push(record);
    }
}

/// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
/// complete event per span, with its op, parent and attributes as args.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|span| {
            let mut args = vec![format!("\"op\":{}", span.op), format!("\"id\":{}", span.id)];
            if let Some(parent) = span.parent {
                args.push(format!("\"parent\":{parent}"));
            }
            args.extend(span.attrs.iter().map(|(key, value)| format!("\"{key}\":{value:?}")));
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.thread,
                args.join(",")
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

/// Whether a span name is a program layer (`core.compose`) rather than the
/// benchmark's own glue (`op`, `bench.run`).
fn is_layer(name: &str) -> bool {
    name != "op" && !name.starts_with("bench.")
}

/// Per-layer totals of one traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Summed wall time of the root spans, in ms.
    pub root_wall_ms: f64,
    /// Layer name → summed self time, in ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// (layer name, attribute) → summed attribute value.
    pub attrs: BTreeMap<(&'static str, &'static str), f64>,
    /// Self time of the benchmark's own spans, in ms.
    pub unattributed_ms: f64,
    /// Distinct op ids seen.
    pub ops: usize,
}

impl Summary {
    pub fn layer_ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn attr(&self, name: &str, key: &str) -> f64 {
        self.attrs
            .iter()
            .filter(|((n, k), _)| *n == name && *k == key)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Layer self times plus unattributed time, minus the root wall: zero
    /// up to rounding when every child lies inside its parent.
    pub fn attribution_gap_ms(&self) -> f64 {
        self.self_ms.values().sum::<f64>() + self.unattributed_ms - self.root_wall_ms
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self times and attribute totals of a set of spans.
pub fn summarise(spans: &[SpanRecord]) -> Summary {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut summary = Summary::default();
    let mut ops = std::collections::BTreeSet::new();
    for span in spans {
        let mut kids = children.remove(&span.id).unwrap_or_default();
        let self_ns = span.duration_ns() - covered_ns(span.start_ns, span.end_ns, &mut kids);
        let self_ms = self_ns as f64 / 1e6;
        if span.parent.is_none() {
            summary.root_wall_ms += span.duration_ns() as f64 / 1e6;
        }
        if span.op != 0 {
            ops.insert(span.op);
        }
        if is_layer(span.name) {
            *summary.self_ms.entry(span.name).or_default() += self_ms;
            for &(key, value) in &span.attrs {
                *summary.attrs.entry((span.name, key)).or_default() += value;
            }
        } else {
            summary.unattributed_ms += self_ms;
        }
    }
    summary.ops = ops.len();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            op: 1,
            thread: 1,
            name,
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
            attrs: vec![("states", 10.0)],
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            record(1, None, "bench.run", 0, 100),
            record(2, Some(1), "op", 5, 95),
            record(3, Some(2), "core.compose", 10, 40),
            record(4, Some(3), "lumping.lump", 20, 30),
            record(5, Some(2), "ctmc.solve", 50, 90),
        ];
        let summary = summarise(&spans);
        assert_eq!(summary.root_wall_ms, 100.0);
        assert_eq!(summary.layer_ms("core.compose"), 20.0);
        assert_eq!(summary.layer_ms("lumping.lump"), 10.0);
        assert_eq!(summary.layer_ms("ctmc.solve"), 40.0);
        // bench.run 10 ms outside the op, op 20 ms outside its layers.
        assert_eq!(summary.unattributed_ms, 30.0);
        assert!(summary.attribution_gap_ms().abs() < 1e-9);
        assert_eq!(summary.attr("core.compose", "states"), 10.0);
        assert_eq!(summary.ops, 1);
        let exported = arcade_server::Json::parse(&chrome_trace(&spans)).expect("valid JSON");
        let events = exported
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert_eq!(events.len(), spans.len());
        assert_eq!(
            events[3]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_usize()),
            Some(3)
        );
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut intervals = vec![(10, 30), (20, 40), (50, 60), (55, 58)];
        assert_eq!(covered_ns(0, 100, &mut intervals), 40);
        let mut clipped = vec![(0, 30), (90, 120)];
        assert_eq!(covered_ns(10, 100, &mut clipped), 30);
    }

    #[test]
    fn recorded_spans_nest_and_add_up_to_the_root_wall() {
        set_enabled(true);
        {
            let _root = span("bench.run");
            for op in 1..=3 {
                let _op = op_span(op);
                let mut layer = span("core.compose");
                layer.set("states", 5.0);
                let _inner = span("lumping.lump");
                std::hint::black_box((0..1000).sum::<u64>());
            }
            let _op = op_span(4);
            let mut stopped = span("ctmc.solve");
            stopped.stop();
            std::thread::sleep(std::time::Duration::from_millis(5));
            stopped.set("iters", 2.0);
        }
        set_enabled(false);
        let spans = drain();
        let summary = summarise(&spans);
        assert_eq!(summary.ops, 4);
        assert_eq!(summary.attr("core.compose", "states"), 15.0);
        // A stopped span keeps its attributes but not the time after `stop`,
        // which goes to its parent.
        assert_eq!(summary.attr("ctmc.solve", "iters"), 2.0);
        assert!(summary.layer_ms("ctmc.solve") < 5.0);
        assert!(summary.unattributed_ms >= 5.0);
        assert!(summary.attribution_gap_ms().abs() < 1e-6);
        let lump = spans.iter().find(|s| s.name == "lumping.lump").unwrap();
        let compose = spans.iter().find(|s| s.id == lump.parent.unwrap()).unwrap();
        assert_eq!(compose.name, "core.compose");
        assert_eq!(lump.op, compose.op);
    }
}
