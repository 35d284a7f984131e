//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer of the simulator, kept in memory, and written out once when the run
//! ends, as Chrome trace-event JSON (opens offline in Perfetto or
//! `chrome://tracing`).

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`"layout"`, `"machine.run"`, ...).
    pub name: &'static str,
    /// The cell the span belongs to, if any.
    pub cell: Option<usize>,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// The span store of one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that ends at [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.record(name, cell, parent, start_ns, start_ns)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span whose interval is already known.
    pub fn record(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// The span `id`.
    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Seconds spent in each span name over spans `from..`, summed.
    pub fn seconds_by_name(&self, from: SpanId) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans[from..] {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        out
    }

    /// Every span as Chrome trace-event JSON ("X" complete events, times in
    /// microseconds; the cell id and parent span ride in `args`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"cell\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                opt(s.cell),
                opt(s.parent)
            ));
        }
        out.push_str("]}");
        out
    }
}
