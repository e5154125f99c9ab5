//! The benchmark's own span recorder: one span per call into a layer's
//! public function, recorded from this package's code only (the program
//! under test is not instrumented). Spans stay in memory and are written
//! as JSONL when the traced run ends.
//!
//! A disabled recorder records nothing; [`Tracer::begin`] then costs one
//! branch, so the untraced run measures the program alone.

use neuspin_core::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark's own layer: time no program layer accounts for.
pub const HARNESS: &str = "perfbench";

/// Handle of an open span (`None` while tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// One finished span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Spans recorded on one thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self::with_origin(on, Instant::now())
    }

    /// A recorder sharing `origin` with another, so spans recorded on
    /// worker threads line up with the main thread's.
    pub fn with_origin(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        self.begin_under(layer, name, self.open.last().copied())
    }

    /// Opens a span under an explicit parent (for spans recorded on
    /// another thread whose parent lives here).
    pub fn begin_under(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
    ) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (a no-op for a disabled recorder).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.remove(pos);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Moves another thread's spans in; their parents index this
    /// recorder's spans, their own indices are rebased.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            // Parents marked by `foreign_parent` point into this
            // recorder; the rest are the worker's own spans.
            s.parent = s.parent.map(|p| {
                if p >= OTHER_PARENT {
                    p - OTHER_PARENT
                } else {
                    p + base
                }
            });
            self.spans.push(s);
        }
    }

    /// Per-layer self time of `root` and the spans below it: each span's
    /// duration minus the part of it its child spans cover (children on
    /// several threads may overlap; covered time counts once), in ns.
    pub fn self_time_by_layer(&self, root: SpanId) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        let Some(root) = root.0 else { return out };
        // Parents always precede their children, so one pass marks the
        // subtree.
        let mut under = vec![false; self.spans.len()];
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            under[i] = i == root || s.parent.is_some_and(|p| under[p]);
            if let (true, Some(p)) = (under[i], s.parent) {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if !under[i] {
                continue;
            }
            let kids = &mut children[i];
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0) += own;
        }
        out
    }

    /// Duration of an ended span, in nanoseconds (0 while tracing is off).
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        id.0.map_or(0, |i| self.spans[i].end_ns - self.spans[i].start_ns)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            let line = Json::obj([
                ("id", Json::Num(i as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("layer", Json::Str(s.layer.to_string())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", parent),
                ("workload", Json::Str(workload.to_string())),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

/// Offset marking a parent index that points into the absorbing
/// recorder rather than the worker's own spans.
pub const OTHER_PARENT: usize = 1 << 48;

/// A parent handle for spans recorded on a worker thread under `id`.
pub fn foreign_parent(id: SpanId) -> Option<usize> {
    id.0.map(|i| i + OTHER_PARENT)
}
