//! Span tracing from the benchmark's own code, on `eftq_obs`'s
//! [`SpanCollector`]/[`SpanGuard`].
//!
//! Every span carries its start (`t0`) and end (`t1`) in nanoseconds
//! since the run's epoch, so a layer's *self* time can subtract the union
//! of its children's intervals — children that may have run in parallel
//! (GA fitness threads, sweep runner threads). Spans stay in memory: a
//! workload drains its tracer after each op and folds the batch into
//! [`Layers`], which keeps per-name totals plus the raw rows of the first
//! few thousand spans for the trace file written at exit.

use eftq_obs::{SpanCollector, SpanGuard, SpanRecord};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Raw span rows kept for the trace file (the first ones of the run).
const SAMPLE_ROWS: usize = 20_000;

fn ns_since(epoch: Instant) -> i64 {
    i64::try_from(epoch.elapsed().as_nanos()).unwrap_or(i64::MAX)
}

/// A span sink with a shared clock and id counter (cheaply cloneable;
/// clones share the sink).
#[derive(Clone, Debug)]
pub struct Tracer {
    collector: SpanCollector,
    epoch: Instant,
    next_id: Arc<AtomicU64>,
}

/// An open span: records itself, stamped with `t0`/`t1`, when dropped.
pub struct Span {
    guard: SpanGuard,
    id: String,
    epoch: Instant,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            collector: SpanCollector::new(),
            epoch,
            next_id: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A fresh sink on the same clock and id counter, so a batch of spans
    /// (one op's) can be drained on its own.
    pub fn fork(&self) -> Self {
        Tracer {
            collector: SpanCollector::new(),
            ..self.clone()
        }
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&self, name: &str, parent: Option<&str>) -> Span {
        let id = format!("s{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        let mut guard = SpanGuard::enter(&self.collector, name, &id);
        if let Some(p) = parent {
            guard.set_parent(p);
        }
        guard.field_int("t0", ns_since(self.epoch));
        Span {
            guard,
            id,
            epoch: self.epoch,
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &str, parent: Option<&str>, f: impl FnOnce() -> T) -> T {
        let _span = self.open(name, parent);
        f()
    }

    /// Takes every finished span.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.collector.drain()
    }
}

impl Span {
    /// This span's id (the parent id of its children).
    pub fn id(&self) -> &str {
        &self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // Runs before the guard field drops and records the span.
        self.guard.field_int("t1", ns_since(self.epoch));
    }
}

/// The fields of one span row that self time needs.
#[derive(Clone, Debug, PartialEq)]
struct Parsed {
    id: String,
    name: String,
    parent: Option<String>,
    t0: u64,
    t1: u64,
}

/// Reads `id`, `name`, `parent`, `t0` and `t1` back out of a span's
/// flat JSON identity row (the only public view of its fields).
fn parse(row: &str) -> Option<Parsed> {
    fn field<'a>(row: &'a str, key: &str) -> Option<&'a str> {
        let tag = format!("\"{key}\":");
        let start = row.find(&tag)? + tag.len();
        let rest = &row[start..];
        if let Some(s) = rest.strip_prefix('"') {
            s.find('"').map(|end| &s[..end])
        } else {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(&rest[..end])
        }
    }
    Some(Parsed {
        id: field(row, "id")?.to_string(),
        name: field(row, "name")?.to_string(),
        parent: field(row, "parent").map(str::to_string),
        t0: field(row, "t0")?.parse().ok()?,
        t1: field(row, "t1")?.parse().ok()?,
    })
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Per-layer totals folded from span batches, plus named counts.
#[derive(Debug, Default)]
pub struct Layers {
    /// `name → (self ns, calls)`.
    self_ns: BTreeMap<String, (u64, u64)>,
    /// `name → whole-span durations (ns)`, for distribution metrics.
    durations: BTreeMap<String, Vec<u64>>,
    /// Counts recorded directly at layer boundaries.
    counts: BTreeMap<String, f64>,
    /// Intervals of spans whose parent was not in their batch, keyed by
    /// that parent's id: they count as its children when it is folded.
    orphans: HashMap<String, Vec<(u64, u64)>>,
    /// The first raw span rows, identity and timing, for the trace file.
    sample: Vec<String>,
}

impl Layers {
    /// Folds one batch of finished spans.
    pub fn fold(&mut self, spans: &[SpanRecord]) {
        let parsed: Vec<Parsed> = spans
            .iter()
            .map(|s| parse(&s.to_json_row()).expect("span rows carry id, name, t0 and t1"))
            .collect();
        let ids: HashMap<&str, usize> = parsed
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id.as_str(), i))
            .collect();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); parsed.len()];
        for p in &parsed {
            if let Some(parent) = &p.parent {
                match ids.get(parent.as_str()) {
                    Some(&i) => children[i].push((p.t0, p.t1)),
                    None => self
                        .orphans
                        .entry(parent.clone())
                        .or_default()
                        .push((p.t0, p.t1)),
                }
            }
        }
        for (p, mut kids) in parsed.iter().zip(children) {
            if let Some(mut adopted) = self.orphans.remove(&p.id) {
                kids.append(&mut adopted);
            }
            let dur = p.t1.saturating_sub(p.t0);
            let own = dur - covered(p.t0, p.t1, &mut kids).min(dur);
            let slot = self.self_ns.entry(p.name.clone()).or_default();
            slot.0 += own;
            slot.1 += 1;
            self.durations.entry(p.name.clone()).or_default().push(dur);
        }
        for s in spans {
            if self.sample.len() >= SAMPLE_ROWS {
                break;
            }
            self.sample.push(s.to_json_row());
            if let Some(t) = s.timing_json_row() {
                self.sample.push(t);
            }
        }
    }

    /// Adds `v` to the count `name`.
    pub fn count(&mut self, name: &str, v: f64) {
        *self.counts.entry(name.to_string()).or_default() += v;
    }

    /// Self seconds and calls of the spans named `name`.
    pub fn self_s(&self, name: &str) -> (f64, u64) {
        self.self_ns
            .get(name)
            .map_or((0.0, 0), |&(ns, calls)| (ns as f64 * 1e-9, calls))
    }

    /// Whole-span durations (ns) of the spans named `name`.
    pub fn durations(&self, name: &str) -> &[u64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// The count `name` (0 when never recorded).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The sampled raw span rows.
    pub fn sample(&self) -> &[String] {
        &self.sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_parallel_children() {
        // A parent over [0, 100) with two children overlapping on
        // [20, 50) ∪ [40, 70): union 50, self 50.
        let mut kids = vec![(40, 70), (20, 50)];
        assert_eq!(covered(0, 100, &mut kids), 50);
        // Children sticking out of the parent are clipped.
        let mut kids = vec![(90, 130)];
        assert_eq!(covered(0, 100, &mut kids), 10);
    }

    #[test]
    fn spans_fold_into_self_times_across_threads() {
        let tracer = Tracer::new(Instant::now());
        {
            let root = tracer.open("root", None);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let (tracer, id) = (&tracer, root.id());
                    s.spawn(move || {
                        let _child = tracer.open("child", Some(id));
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    });
                }
            });
        }
        let mut layers = Layers::default();
        layers.fold(&tracer.drain());
        let (root_self, root_calls) = layers.self_s("root");
        let (child_self, child_calls) = layers.self_s("child");
        assert_eq!((root_calls, child_calls), (1, 2));
        // Two parallel 20 ms children cover about 20 ms of the root, not
        // 40: the root keeps only its own bookkeeping.
        assert!(child_self >= 0.040, "{child_self}");
        assert!(root_self < 0.015, "{root_self}");
    }

    #[test]
    fn orphans_join_their_parent_in_a_later_batch() {
        let tracer = Tracer::new(Instant::now());
        let mut layers = Layers::default();
        let outer = tracer.open("outer", None);
        let op = tracer.fork();
        {
            let _inner = op.open("inner", Some(outer.id()));
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        layers.fold(&op.drain());
        drop(outer);
        layers.fold(&tracer.drain());
        assert!(layers.self_s("outer").0 < 0.005);
        assert!(layers.self_s("inner").0 >= 0.010);
    }
}
