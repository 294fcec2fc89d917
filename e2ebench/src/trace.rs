//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end, its parent, and the identifier
//! of the operation it belongs to; a span opened with no parent starts
//! a new operation. Spans stay in memory until [`write_spans`] writes
//! them out at the end of a run. A span's *self time* is its duration
//! minus the time its child spans cover — spans are opened and closed
//! on one thread in strict nesting, so children never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call (`cluster.round`, `rscode.decode`, …) or, for a root,
    /// the operation kind (`op.prepare`, …).
    pub name: &'static str,
    /// Operation identifier shared by all spans of one operation.
    pub op: u64,
    /// Index of the parent span, `None` for an operation root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// Records spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span, or a new operation
    /// root when none is open.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let parent = self.open.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// When spans are closed out of order (a bug in the caller).
    pub fn exit(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Total duration in milliseconds of the spans named `name` in the
    /// operation that `root` belongs to.
    #[must_use]
    pub fn op_total_ms(&self, root: SpanId, name: &str) -> f64 {
        let op = self.spans[root.0].op;
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans out of the tracer.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in nanoseconds (same indexing as `spans`).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// One operation's self times summed by span name.
#[derive(Clone, Debug)]
pub struct OpProfile {
    /// The root span's name.
    pub kind: &'static str,
    /// The root span's duration in milliseconds.
    pub wall_ms: f64,
    /// Self time in milliseconds by span name; the root's own self time
    /// (glue between layer calls) is under the root's name.
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl OpProfile {
    /// Self time of `name` in this operation (0 when absent).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of all self times: equals `wall_ms` up to rounding when the
    /// spans nest properly.
    #[must_use]
    pub fn self_total_ms(&self) -> f64 {
        self.self_ms.values().sum()
    }
}

/// Per-operation profiles, in operation order.
#[must_use]
pub fn profiles(spans: &[Span]) -> Vec<OpProfile> {
    let own = self_times(spans);
    let mut by_op: BTreeMap<u64, OpProfile> = BTreeMap::new();
    for (span, &self_ns) in spans.iter().zip(&own) {
        if span.parent.is_none() {
            by_op.insert(
                span.op,
                OpProfile {
                    kind: span.name,
                    wall_ms: span.duration_ns() as f64 / 1e6,
                    self_ms: BTreeMap::new(),
                },
            );
        }
        if let Some(profile) = by_op.get_mut(&span.op) {
            *profile.self_ms.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
    }
    by_op.into_values().collect()
}

/// Median over the operations of kind `kind` of the self time of span
/// `name` (0 when there are none).
#[must_use]
pub fn median_self_ms(profiles: &[OpProfile], kind: &str, name: &str) -> f64 {
    let values: Vec<f64> =
        profiles.iter().filter(|p| p.kind == kind).map(|p| p.get(name)).collect();
    crate::stats::median(&values)
}

/// Unattributed share over all operations: total root self time over
/// total operation wall time, in percent.
#[must_use]
pub fn unattributed_pct(profiles: &[OpProfile]) -> f64 {
    let wall: f64 = profiles.iter().map(|p| p.wall_ms).sum();
    let glue: f64 = profiles.iter().map(|p| p.get(p.kind)).sum();
    if wall > 0.0 {
        100.0 * glue / wall
    } else {
        0.0
    }
}

/// Mean self time per operation by span name, over all operations —
/// the table the traced run prints so later changes can see where time
/// moved.
#[must_use]
pub fn self_time_table(profiles: &[OpProfile]) -> Vec<String> {
    let mut kinds: BTreeMap<&str, (usize, BTreeMap<&str, f64>)> = BTreeMap::new();
    for p in profiles {
        let entry = kinds.entry(p.kind).or_default();
        entry.0 += 1;
        for (name, ms) in &p.self_ms {
            *entry.1.entry(name).or_insert(0.0) += ms;
        }
    }
    let mut lines = Vec::new();
    for (kind, (count, names)) in kinds {
        for (name, total) in names {
            lines.push(format!(
                "self_ms op={kind} span={name} mean={:.4} ops={count}",
                total / count as f64
            ));
        }
    }
    lines
}

/// Writes the spans as tab-separated rows (`op id parent name start_us
/// end_us self_us`) to `path`, creating its directory.
///
/// # Errors
///
/// File-system errors.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_times(spans);
    let mut text = String::from("op\tid\tparent\tname\tstart_us\tend_us\tself_us\n");
    for (id, (span, self_ns)) in spans.iter().zip(own).enumerate() {
        let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{}\t{id}\t{parent}\t{}\t{:.3}\t{:.3}\t{:.3}",
            span.op,
            span.name,
            span.start_ns as f64 / 1e3,
            span.end_ns as f64 / 1e3,
            self_ns as f64 / 1e3
        );
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children() {
        let spans = vec![
            Span { name: "op.x", op: 1, parent: None, start_ns: 0, end_ns: 100 },
            Span { name: "a", op: 1, parent: Some(0), start_ns: 10, end_ns: 40 },
            Span { name: "b", op: 1, parent: Some(1), start_ns: 15, end_ns: 25 },
            Span { name: "a", op: 1, parent: Some(0), start_ns: 50, end_ns: 90 },
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let p = &profiles(&spans)[0];
        assert_eq!(p.kind, "op.x");
        assert!((p.self_total_ms() - p.wall_ms).abs() < 1e-12);
        assert!((p.get("a") - 60e-6).abs() < 1e-12);
        assert!((unattributed_pct(std::slice::from_ref(p)) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn roots_open_new_operations() {
        let mut tr = Tracer::new();
        let a = tr.enter("op.a");
        let inner = tr.enter("x");
        tr.exit(inner);
        tr.exit(a);
        let b = tr.enter("op.b");
        tr.exit(b);
        let ops: Vec<u64> = tr.spans().iter().map(|s| s.op).collect();
        assert_eq!(ops, vec![1, 1, 2]);
    }
}
