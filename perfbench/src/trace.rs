//! In-memory spans around every call the benchmark makes into a layer.
//!
//! Every timed call goes through [`Tracer::time`], which always measures the
//! call's wall time (the end-to-end metrics need it) and, only when tracing is
//! on, also records a [`Span`]: name, start, end, parent span and op id. The
//! spans stay in memory until the run ends; [`self_time_by_layer`] then
//! attributes each span's self time (its duration minus the part of it that
//! its children cover) to the layer named by the span's first dotted
//! component (`core.prefix_mis` belongs to `core`).

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifies a span; [`ROOT`] is the parent of top-level spans.
pub type SpanId = u64;

/// The implicit root every top-level span hangs off.
pub const ROOT: SpanId = 0;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// The operation the call belongs to (batch index, request index, rep).
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times calls and, when enabled, records them as spans.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` as span `name` under `parent` and returns its result and
    /// wall time. `f` receives the new span's id so it can open children.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, Duration) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.enabled {
            let span = Span {
                id,
                parent,
                op,
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            };
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
        (out, end.duration_since(start))
    }

    /// The recorded spans (empty when tracing is off).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Total self time in seconds per layer: each span's duration minus the union
/// of its children's intervals clipped to it. Concurrent children (the serve
/// phase's writer and reader) are covered once, not twice.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Writes the spans as tab-separated rows, one per span.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, ROOT, "bench.phase", 0, 100),
            span(2, 1, "server.commit", 10, 50),
            span(3, 1, "server.query", 40, 60),
            span(4, 1, "server.query", 90, 120),
        ];
        let layers = self_time_by_layer(&spans);
        // Children cover [10, 60) and [90, 100) of the parent: 60 ns.
        assert!((layers["bench"] - 40e-9).abs() < 1e-15);
        assert!((layers["server"] - (40e-9 + 20e-9 + 30e-9)).abs() < 1e-15);
    }
}
