//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! A span is `name`, `start_ns`, `end_ns` (both from one monotonic
//! origin) and `parent` (the index of the span that caused it). All spans
//! of one run share a run id. A layer's *self time* is its span's
//! duration minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Recorder::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Collects the spans of one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    run_id: String,
    spans: Vec<Span>,
    /// Open spans, innermost last: a new span's parent is the top.
    stack: Vec<usize>,
    /// Counts taken at the same boundaries as the spans.
    counts: BTreeMap<String, u64>,
}

impl Recorder {
    pub fn new(run_id: String) -> Self {
        Recorder {
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &str) -> SpanId {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id` — and any span still open inside it, which an early
    /// error return leaves behind — and returns its duration.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end_ns = now;
            if open == id.0 {
                break;
            }
        }
        self.spans[id.0].duration_ns()
    }

    /// Records `f` as one span.
    pub fn within<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Adds `n` to the count called `name`.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += n;
    }

    /// Raises the count called `name` to `n` (a high-water mark).
    pub fn count_max(&mut self, name: &str, n: u64) {
        let slot = self.counts.entry(name.to_string()).or_insert(0);
        *slot = (*slot).max(n);
    }

    /// The count called `name`; 0 when nothing was counted under it.
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
    }

    /// Durations, in recording order, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
    }

    /// Writes one JSON object per span, then one per count.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, n) in &self.counts {
            writeln!(out, "{{\"run\":\"{}\",\"count\":\"{name}\",\"value\":{n}}}", self.run_id)?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // pass [0,100) ⊃ stream [10,70) ⊃ {sync [20,30), sync [40,55)}; pass ⊃ finish [70,95)
        let spans = vec![
            span("pass", 0, 100, None),
            span("stream", 10, 70, Some(0)),
            span("sync", 20, 30, Some(1)),
            span("sync", 40, 55, Some(1)),
            span("finish", 70, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 35, 10, 15, 25]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_open_order_and_writes_jsonl() {
        let mut r = Recorder::new("run-1".into());
        let outer = r.open("outer");
        r.within("inner", || {});
        r.close(outer);
        r.count("frames", 2);
        r.count("frames", 3);
        r.count_max("high_water", 7);
        r.count_max("high_water", 4);
        assert_eq!((r.counted("frames"), r.counted("high_water"), r.counted("absent")), (5, 7, 0));
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[0].parent, None);
        assert!(r.spans[0].duration_ns() >= r.spans[1].duration_ns());
        assert_eq!(r.total_ns("inner"), r.durations_ns("inner")[0]);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert_eq!(
            text.lines().nth(2).unwrap(),
            "{\"run\":\"run-1\",\"count\":\"frames\",\"value\":5}"
        );
        assert!(text
            .lines()
            .next()
            .unwrap()
            .starts_with("{\"run\":\"run-1\",\"id\":0,\"name\":\"outer\""));
        assert!(text.lines().nth(1).unwrap().ends_with("\"parent\":0}"));
    }
}
