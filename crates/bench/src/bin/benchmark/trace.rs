//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented: a span here brackets one
//! call to a public function, so a layer's numbers are what a caller of
//! that layer sees. Spans stay in memory while a workload runs and are
//! written out once, after the measurement, as one JSON object per line.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// An in-memory span log for one thread of a workload.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Count and summed times of every span that shares a name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of durations minus the part child spans cover, seconds.
    pub self_s: f64,
}

impl Tracer {
    /// An empty log whose timestamps count from `epoch`. Threads of one
    /// workload share the epoch so their spans line up in one file.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span. `request` ties the
    /// spans of one request (one push, one pull, one training round)
    /// together.
    pub fn enter(&mut self, name: &'static str, request: u64) -> SpanId {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        SpanId(id)
    }

    /// Closes `span`, which must be the innermost open one. Returns its
    /// duration in seconds.
    pub fn exit(&mut self, span: SpanId) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        let s = &mut self.spans[span.0 as usize];
        s.end_ns = end_ns;
        (end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Renames a span — for a call whose kind (a push that flushed, a
    /// pull that came back empty) is known only once it returns.
    pub fn rename(&mut self, span: SpanId, name: &'static str) {
        self.spans[span.0 as usize].name = name;
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += shift;
            }
            s
        }));
    }

    /// Per-name totals. A span's self time is its duration minus the
    /// durations of its direct children.
    pub fn by_layer(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += dur as f64 * 1e-9;
            e.self_s += dur.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Durations (seconds) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Median duration (seconds) of the spans called `name`; 0 if there
    /// are none.
    pub fn median_s(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            crate::stats::median(&d)
        }
    }

    /// Writes the log as JSON lines: span id, name, start and end in
    /// nanoseconds since the epoch, parent id (or null) and request id.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_owned() } else { s.parent.to_string() };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let mut t = Tracer::new(Instant::now());
        let root = t.enter("root", 1);
        t.span("child", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span("child", 1, || ());
        let root_s = t.exit(root);
        let layers = t.by_layer();
        assert_eq!(layers["child"].count, 2);
        assert_eq!(layers["root"].count, 1);
        assert!(layers["child"].total_s >= 0.002);
        let sum = layers["root"].self_s + layers["child"].self_s;
        assert!((sum - root_s).abs() < 1e-9, "self times sum to the root span");
        assert_eq!(t.durations("child").len(), 2);
    }

    #[test]
    fn absorb_keeps_parent_links_and_jsonl_has_one_line_per_span() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("a", 1, || ());
        let mut b = Tracer::new(epoch);
        let outer = b.enter("outer", 2);
        b.span("inner", 2, || ());
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        let layers = a.by_layer();
        assert!(layers["outer"].self_s <= layers["outer"].total_s);
        let path =
            std::env::temp_dir().join(format!("orco-trace-test-{}.jsonl", std::process::id()));
        a.write_jsonl(&path).expect("writable");
        let text = std::fs::read_to_string(&path).expect("readable");
        std::fs::remove_file(&path).expect("removable");
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).expect("third").contains("\"parent\":1"));
    }
}
