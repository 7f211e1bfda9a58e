//! Spans recorded from outside the layers: one per call into a layer's
//! public function, each a child of the rep that made it.

use otm_metrics::json::JsonWriter;
use std::io::Write;
use std::time::Instant;

/// The layer entry points the stream driver times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    PacketBuild,
    Send,
    SenderPoll,
    Post,
    Progress,
    TakeCompleted,
}

impl Call {
    pub const ALL: [Call; 6] = [
        Call::PacketBuild,
        Call::Send,
        Call::SenderPoll,
        Call::Post,
        Call::Progress,
        Call::TakeCompleted,
    ];

    pub fn span_name(self) -> &'static str {
        match self {
            Call::PacketBuild => "rdma.packet_build",
            Call::Send => "reliable.send",
            Call::SenderPoll => "reliable.poll",
            Call::Post => "service.post",
            Call::Progress => "service.progress",
            Call::TakeCompleted => "service.take_completed",
        }
    }
}

const REP_SPAN: &str = "driver.rep";
const NO_PARENT: u32 = u32::MAX;

/// Spans kept for the span file; later ones are still summed, not stored.
const SPAN_CAPACITY: usize = 1 << 16;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// Per-call totals plus a bounded buffer of individual spans, allocated up
/// front and written out when the run ends.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    rep: u32,
    call_ns: [u64; Call::ALL.len()],
    call_count: [u64; Call::ALL.len()],
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { SPAN_CAPACITY } else { 0 }),
            dropped: 0,
            rep: NO_PARENT,
            call_ns: [0; Call::ALL.len()],
            call_count: [0; Call::ALL.len()],
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn store(&mut self, span: Span) -> u32 {
        if self.spans.len() < SPAN_CAPACITY {
            self.spans.push(span);
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        }
    }

    /// Opens the span every call of the coming rep hangs under.
    pub fn begin_rep(&mut self, start: Instant) {
        if self.on {
            let start_ns = self.ns(start);
            self.rep = self.store(Span {
                name: REP_SPAN,
                start_ns,
                end_ns: start_ns,
                parent: NO_PARENT,
            });
        }
    }

    pub fn end_rep(&mut self, end: Instant) {
        if self.on {
            let end_ns = self.ns(end);
            if let Some(span) = self.spans.get_mut(self.rep as usize) {
                span.end_ns = end_ns;
            }
            self.rep = NO_PARENT;
        }
    }

    /// Runs `f`, and when tracing is on records it as one `call` span.
    #[inline]
    pub fn time<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let i = call as usize;
        self.call_ns[i] += end_ns - start_ns;
        self.call_count[i] += 1;
        self.store(Span {
            name: call.span_name(),
            start_ns,
            end_ns,
            parent: self.rep,
        });
        out
    }

    /// Total nanoseconds spent inside `call` so far.
    pub fn total_ns(&self, call: Call) -> u64 {
        self.call_ns[call as usize]
    }

    /// Nanoseconds spent inside any timed call so far.
    pub fn children_ns(&self) -> u64 {
        self.call_ns.iter().sum()
    }

    /// Writes the span buffer as JSON lines: a header object, then one
    /// `{id, name, start_ns, end_ns, parent}` object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("spans", self.spans.len() as u64);
        w.field_u64("dropped_after_capacity", self.dropped);
        w.end_object();
        writeln!(out, "{}", w.finish())?;
        for (id, s) in self.spans.iter().enumerate() {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_u64("id", id as u64);
            w.field_str("name", s.name);
            w.field_u64("start_ns", s.start_ns);
            w.field_u64("end_ns", s.end_ns);
            if s.parent == NO_PARENT {
                w.field_null("parent");
            } else {
                w.field_u64("parent", u64::from(s.parent));
            }
            w.end_object();
            writeln!(out, "{}", w.finish())?;
        }
        out.flush()
    }
}
