//! In-memory spans recorded around the calls the traced replay makes into
//! each layer. Spans carry a name, start, end, parent and the id of the
//! request they belong to; they are kept in memory and written out once
//! the replay ends. A disabled tracer records nothing, so the same replay
//! code gives the untraced pass the traced pass is compared against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer call, e.g. `storage.append`.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span served (shared by all spans of one request).
    pub request: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A handle to an open span, closed by [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Records nested spans on one thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes `span` (spans close innermost first).
    pub fn exit(&mut self, span: Open) {
        let Some(index) = span.0 else { return };
        let end_ns = self.now_ns();
        debug_assert_eq!(
            self.open.last(),
            Some(&index),
            "spans close innermost first"
        );
        self.open.pop();
        self.spans[index].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, request);
        let out = f();
        self.exit(span);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Per span name: call count, total duration and total self time
    /// (duration minus the time its direct children cover), in ns.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_ns) {
            let totals = out.entry(span.name).or_default();
            totals.calls += 1;
            totals.total_ns += span.duration_ns();
            totals.self_ns += self_ns;
        }
        out
    }

    /// Mean duration of the spans named `name`, in ns, if any ran.
    pub fn mean_ns(&self, name: &str) -> Option<f64> {
        let (calls, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(c, t), s| (c + 1, t + s.duration_ns()));
        (calls > 0).then(|| total as f64 / calls as f64)
    }

    /// The spans as JSON lines (one object per span), for the trace file.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// Aggregate of all spans sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// How many spans.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus its direct children's.
/// Children of one span run one after another on the same thread, so
/// their durations never overlap and simply add up.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 100, None),
            span("net.frame_parse", 10, 30, Some(0)),
            span("serving.apply", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn nested_spans_record_parents_and_requests() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("request", 7);
        tracer.time("net.frame_parse", 7, || ());
        tracer.exit(outer);
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let summary = tracer.summary();
        assert_eq!(summary["request"].calls, 1);
        assert!(summary["request"].self_ns <= summary["request"].total_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.time("net.frame_parse", 1, || 42);
        assert_eq!(value, 42);
        assert!(tracer.spans.is_empty());
        assert_eq!(tracer.mean_ns("net.frame_parse"), None);
    }
}
