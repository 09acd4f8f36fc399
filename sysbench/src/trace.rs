//! Spans recorded from the bench's own files, around the calls into each
//! layer: name, start, end, the span that caused it, and the op (one
//! training step or one request) it belongs to. Kept in memory; written
//! out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// Start instant.
    pub start_ns: u64,
    /// End instant.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op all spans of one step/request share.
    pub op: u64,
}

/// In-memory span recorder of one thread.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start the next op; spans begun from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a finished interval measured elsewhere (the serve generator
    /// timestamps on its own threads), in nanoseconds since a common origin.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its child spans
/// cover (children of one parent never overlap here — each thread nests
/// its own spans).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per stage name, the self times (µs) of its spans in recording order.
pub fn self_us_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        by_name.entry(s.name).or_default().push(own as f64 * 1e-3);
    }
    by_name
}

/// The trace file: one object per span, one span per line.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .zip(self_times_ns(spans))
        .map(|(s, own)| {
            format!(
                "{{\"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"parent\": {}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"spans\": [\n{}\n]}}",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new();
        tr.next_op();
        let root = tr.push("step", 0, 10_000, None, 1);
        tr.push("forward", 1_000, 4_000, Some(root), 1);
        let bwd = tr.push("backward", 4_000, 9_000, Some(root), 1);
        tr.push("exchange", 5_000, 6_000, Some(bwd), 1);
        let own = self_times_ns(tr.spans());
        assert_eq!(own, vec![2_000, 3_000, 4_000, 1_000]);
        assert_eq!(own.iter().sum::<u64>(), 10_000, "self times tile the root");
        let by = self_us_by_name(tr.spans());
        assert_eq!(by["backward"], vec![4.0]);
    }

    #[test]
    fn begin_end_nest_and_share_the_op() {
        let mut tr = Tracer::new();
        tr.next_op();
        let a = tr.begin("step");
        let b = tr.begin("forward");
        tr.end(b);
        tr.end(a);
        tr.next_op();
        let c = tr.begin("step");
        tr.end(c);
        let s = tr.spans();
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
