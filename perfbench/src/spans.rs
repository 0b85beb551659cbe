//! Outside-in span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a crate's
//! public API. Spans live in memory and are written as one JSON file when
//! the run ends; nothing inside the program is instrumented.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `engine.run`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to; 0 outside any job.
    pub job: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on the calling thread. A disabled recorder keeps
/// nothing, so the untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Keep (or stop keeping) spans opened from now on. Only between
    /// spans: a span must close under the setting it opened with.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "set_enabled inside an open span");
        self.enabled = enabled;
    }

    /// Tag spans opened from now on with job number `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`, nested in the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            job: self.job,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span; spans must close innermost first.
    pub fn close(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Write every span, with its self time, as one JSON document.
    pub fn write_json(&self, path: &Path, run_id: &str) -> io::Result<()> {
        let mut out = String::new();
        let _ = write!(out, "{{\"run_id\":\"{run_id}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"run_id\":\"{run_id}\",\
                 \"job\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.job,
                s.start_ns,
                s.end_ns,
                self_time_ns(&self.spans, i),
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Self time of `spans[idx]`: its duration minus the part of its interval
/// that its direct children cover. Overlapping children count once, and a
/// child's time outside its parent's interval is not subtracted.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            job: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_time_ns(&spans, 0), 70);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 40, 70),
        ];
        assert_eq!(self_time_ns(&spans, 0), 40);
    }

    #[test]
    fn self_time_ignores_grandchildren_and_clips_to_the_parent() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 150, 260),
            span(Some(1), 160, 170),
            span(Some(0), 80, 120),
        ];
        // Child 1 covers 150..200 inside the parent, child 3 covers
        // 100..120; the grandchild is already inside child 1.
        assert_eq!(self_time_ns(&spans, 0), 30);
        assert_eq!(self_time_ns(&spans, 1), 100);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_keeps_none() {
        let mut t = Tracer::new(true);
        t.set_job(3);
        let outer = t.open("outer");
        let v = t.time("inner", || 7);
        t.close(outer);
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].job), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_s("inner").len(), 1);

        let mut off = Tracer::new(false);
        let o = off.open("outer");
        off.close(o);
        assert!(off.spans().is_empty());
    }
}
