//! In-memory span recording for the traced run.
//!
//! A span has a name, start, end, parent and request id. Spans are kept
//! in per-thread buffers (no lock on the hot path), merged when a thread
//! hands its buffer back, and written out as JSON lines at the end of
//! the run. With tracing off every call is a branch on `enabled` and
//! nothing is recorded.
//!
//! Where a layer is reachable only through its parent, the benchmark
//! calls the child's public function separately on the same input and
//! records that span with the parent's id as its logical parent; self
//! time is then the parent's duration minus its children's, exactly as
//! for spans that nest in time.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::common::{json_str, median};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub rid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// One thread's span buffer.
pub struct SpanBuf {
    enabled: bool,
    epoch: Instant,
    thread: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A buffer for thread number `thread` (ids are unique per thread).
    pub fn buf(&self, thread: u64) -> SpanBuf {
        SpanBuf {
            enabled: self.enabled,
            epoch: self.epoch,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn absorb(&self, buf: SpanBuf) {
        if self.enabled {
            self.spans
                .lock()
                .expect("span store poisoned by a panicking thread")
                .extend(buf.spans);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Per span name: the median self time in ns (duration minus the
    /// durations of the spans naming it as parent) and the span count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns();
            }
        }
        let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in spans.iter() {
            let own = s.dur_ns() as f64 - child_ns.get(&s.id).copied().unwrap_or(0) as f64;
            per_name.entry(s.name).or_default().push(own);
        }
        per_name
            .into_iter()
            .map(|(name, v)| (name, (median(&v), v.len())))
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"rid\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_str(s.name),
                s.rid,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

impl SpanBuf {
    /// Open a span; `None` when tracing is off.
    #[inline]
    pub fn enter(&mut self, name: &'static str, parent: Option<u64>, rid: u64) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = (self.thread << 40) | self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            rid,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        Some(id)
    }

    #[inline]
    pub fn exit(&mut self, id: Option<u64>) {
        if let Some(id) = id {
            let idx = (id & ((1 << 40) - 1)) as usize;
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Record a span whose start and end were taken by the caller (for a
    /// request timed from its due time, or finished on another thread).
    pub fn record(&mut self, name: &'static str, rid: u64, start: Instant, end: Instant) {
        if self.enabled {
            let id = (self.thread << 40) | self.spans.len() as u64;
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent: None,
                name,
                rid,
                start_ns: at(start),
                end_ns: at(end),
            });
        }
    }

    /// Run `f` inside a span; `f` receives the span id for its children.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        rid: u64,
        f: impl FnOnce(&mut Self, Option<u64>) -> R,
    ) -> R {
        let id = self.enter(name, parent, rid);
        let r = f(self, id);
        self.exit(id);
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Cost of one enter/exit pair, for `trace.overhead_frac`.
pub fn span_cost_ns() -> f64 {
    let tracer = Tracer::new(true);
    let mut buf = tracer.buf(0);
    let n = 20_000u64;
    let t = Instant::now();
    for i in 0..n {
        let id = buf.enter("probe", None, i);
        buf.exit(id);
    }
    let ns = t.elapsed().as_nanos() as f64 / n as f64;
    std::hint::black_box(buf.len());
    ns
}
