//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public function: name, start, end, parent span and request id. Each load
//! thread owns one [`SpanBuf`]; nothing is shared or written while the run
//! measures. When the run ends the buffers are merged, every span's *self
//! time* (its duration minus the part its children cover) is summed per
//! span name, and the raw spans are written to one CSV file.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Marks a span without a parent.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u64,
}

/// A span handle returned by [`SpanBuf::open`]; children name it as parent.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

/// One thread's span buffer. With tracing off every call is a no-op.
pub struct SpanBuf {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanBuf {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves a span whose children are recorded before it closes.
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            req,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Sets the interval of a span reserved with [`open`](Self::open).
    pub fn close(&mut self, id: SpanId, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[id.0 as usize];
        span.start = s;
        span.end = e;
    }

    /// Records a finished leaf span.
    pub fn leaf(
        &mut self,
        name: &'static str,
        req: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let id = self.open(name, req, Some(parent));
        self.close(id, start, end);
    }
}

/// Per-name totals over every merged buffer.
#[derive(Default)]
pub struct SelfTimes {
    /// Span name → (self nanoseconds, span count).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Summed duration of root spans (the client-observed operations).
    pub root_ns: u64,
    /// Number of root spans.
    pub roots: u64,
}

impl SelfTimes {
    /// Mean self time per root operation of spans named `name`, in µs.
    pub fn self_us_per_op(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(&(ns, _)) if self.roots > 0 => ns as f64 / self.roots as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Mean root-span duration in µs.
    pub fn op_us(&self) -> f64 {
        if self.roots == 0 {
            return 0.0;
        }
        self.root_ns as f64 / self.roots as f64 / 1e3
    }
}

/// Sums self times over `bufs` and writes every span to `out` as CSV.
pub fn finish(bufs: &[SpanBuf], out: &Path) -> std::io::Result<SelfTimes> {
    let mut acc = SelfTimes::default();
    let mut w = std::io::BufWriter::new(std::fs::File::create(out)?);
    writeln!(w, "thread,span,parent,req,name,start_ns,end_ns")?;
    for (t, buf) in bufs.iter().enumerate() {
        // Children of one span run one after another on the buffer's
        // thread and lie inside it, so their durations add up without
        // overlap; clamping guards a derived span against clock skew.
        let mut child_ns = vec![0u64; buf.spans.len()];
        for s in &buf.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end.saturating_sub(s.start);
            }
        }
        for (i, s) in buf.spans.iter().enumerate() {
            let dur = s.end.saturating_sub(s.start);
            let e = acc.by_name.entry(s.name).or_default();
            e.0 += dur.saturating_sub(child_ns[i]);
            e.1 += 1;
            if s.parent == NO_PARENT {
                acc.root_ns += dur;
                acc.roots += 1;
            }
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{t},{i},{parent},{},{},{},{}",
                s.req, s.name, s.start, s.end
            )?;
        }
    }
    w.flush()?;
    Ok(acc)
}
