//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, request id)` with host times in
//! nanoseconds since the recorder was created. Spans stay in memory and
//! are written out as CSV once the run ends. A layer's self time is the
//! sum of its spans' durations minus the time their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name, e.g. `exec` or `isolation.conclude`.
    pub name: &'static str,
    /// Host start, ns since the recorder's epoch.
    pub start: u64,
    /// Host end, ns since the recorder's epoch.
    pub end: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// Request the span belongs to (0 for batch spans).
    pub req: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    /// Calls the spans cover (a batch span covers many calls).
    pub calls: u64,
    /// Self time: span time not covered by child spans, ns.
    pub self_ns: u64,
}

/// The recorder.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    calls: Vec<u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            calls: Vec::new(),
        }
    }

    /// Host nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index. Close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.calls.push(1);
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`, recording that it covered `calls` calls.
    pub fn close(&mut self, id: u32, calls: u64) {
        let end = self.now();
        self.spans[id as usize].end = end;
        self.calls[id as usize] = calls;
    }

    /// Times `f` as a span of one call.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id, 1);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time and call counts per layer name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.calls += self.calls[i];
            e.self_ns += (s.end - s.start).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as CSV (`name,start_ns,end_ns,parent,req,calls`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,start_ns,end_ns,parent,req,calls")?;
        for (s, calls) in self.spans.iter().zip(&self.calls) {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{},{},{},{},{},{}",
                s.name, s.start, s.end, parent, s.req, calls
            )?;
        }
        w.flush()
    }
}
