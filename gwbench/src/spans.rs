//! In-memory span recorder for the traced run.
//!
//! Spans are taken in the benchmark's own code, around each call into a
//! layer's public API, so the library itself carries no instrumentation.
//! Each application thread owns one [`Recorder`]; spans stay in its
//! vector until the run ends and are only then summarised and written out.

use std::time::Instant;

/// Span names, one per call boundary. `OP` is the root of one message
/// (bulk) or one round trip (rpc) on one application thread; every other
/// name is a leaf under it.
pub const OP: &str = "op";
pub const PACK_BEGIN: &str = "pack.begin";
pub const PACK_PACK: &str = "pack.pack";
pub const PACK_END: &str = "pack.end";
pub const UNPACK_BEGIN: &str = "unpack.begin";
pub const UNPACK_COPY: &str = "unpack.copy";
pub const UNPACK_END: &str = "unpack.end";
/// Application work between library calls: payload verification and,
/// on the echo node, the turnaround to the reply.
pub const APP: &str = "app.verify";

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded call: nanoseconds since the run's epoch, the enclosing
/// span (index into the same recorder, or [`ROOT`]), the message id shared
/// by every span of one message, and the payload bytes the call moved.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub msg: u64,
    pub bytes: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-thread recorder. When off, every method is a clock read at most,
/// so the untraced passes pay nothing for the traced ones.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Recorder {
            on,
            epoch,
            spans: if on {
                Vec::with_capacity(1 << 16)
            } else {
                Vec::new()
            },
        }
    }

    /// Nanoseconds since the run's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a root span for message `msg`; returns its index.
    pub fn open(&mut self, msg: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start = self.now();
        self.spans.push(Span {
            name: OP,
            start,
            end: start,
            parent: ROOT,
            msg,
            bytes: 0,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, idx: u32, bytes: u64) {
        if self.on {
            let end = self.now();
            let s = &mut self.spans[idx as usize];
            s.end = end;
            s.bytes = bytes;
        }
    }

    /// Run `f` as leaf span `name` under `parent`.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        msg: u64,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = self.now();
        let r = f();
        let end = self.now();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            msg,
            bytes,
        });
        r
    }
}

/// Totals of one span name over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub ns: u64,
    pub bytes: u64,
}

/// Sum the spans named `name` whose message id is at least `from_msg`.
pub fn totals<'a>(spans: impl IntoIterator<Item = &'a Span>, name: &str, from_msg: u64) -> Totals {
    let mut t = Totals::default();
    for s in spans {
        if s.name == name && s.msg >= from_msg {
            t.count += 1;
            t.ns += s.dur();
            t.bytes += s.bytes;
        }
    }
    t
}

/// Share of one thread's measured wall time that its leaf spans cover:
/// from the start of the first root span at or after `from_msg` to the end
/// of the last one. What the leaves leave uncovered is the benchmark's own
/// loop and timing glue.
pub fn coverage(spans: &[Span], from_msg: u64) -> Option<f64> {
    let roots = spans
        .iter()
        .filter(|s| s.parent == ROOT && s.msg >= from_msg);
    let start = roots.clone().map(|s| s.start).min()?;
    let end = roots.map(|s| s.end).max()?;
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent != ROOT && s.msg >= from_msg)
        .map(Span::dur)
        .sum();
    (end > start).then(|| covered as f64 / (end - start) as f64)
}

/// Write the spans as CSV (`thread,name,start_ns,end_ns,parent,msg,bytes`),
/// at most `cap` per thread so a long run leaves a bounded file.
pub fn write_csv(path: &std::path::Path, spans: &[Vec<Span>], cap: usize) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,name,start_ns,end_ns,parent,msg,bytes")?;
    for (t, thread) in spans.iter().enumerate() {
        for s in thread.iter().take(cap) {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{t},{},{},{},{parent},{},{}",
                s.name, s.start, s.end, s.msg, s.bytes
            )?;
        }
    }
    out.flush()
}
