//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A traced run records `workload → round → op → {build, run, digest}`,
//! the layer probes and `serve → job → {submit, poll, metrics, snapshot}`;
//! an untraced run keeps the recorder switched off, so every call is a
//! branch and nothing is stored.

use cmp_json::Value;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, workload: &'static str) -> Self {
        Tracer {
            on,
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Adds an already finished span as a child of the innermost open one
    /// (for intervals delimited by callbacks rather than by a call).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: self.spans.len(),
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f`, turning a panic into an error that names it. Spans the
    /// panic left open are closed at the moment it was caught.
    pub fn catch<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> Result<R, String> {
        let depth = self.open.len();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)));
        while self.open.len() > depth {
            let id = self.open.pop().expect("open span");
            self.spans[id].end_ns = self.now_ns();
        }
        r.map_err(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            format!("panicked: {msg}")
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                Value::object()
                    .insert("id", s.id)
                    .insert("parent", s.parent)
                    .insert("name", s.name.as_str())
                    .insert("workload", self.workload)
                    .insert("start_ns", s.start_ns)
                    .insert("end_ns", s.end_ns)
            })
            .collect();
        Value::Array(spans)
    }
}

/// Per span name: `(name, count, total_ns, self_ns)` in first-seen order.
/// A span's self time is its duration minus the part of its interval that
/// its children cover (overlapping children are counted once, and a child
/// running past its parent's end is clipped).
pub fn self_times(spans: &[Span]) -> Vec<(String, u64, u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: Vec<(String, u64, u64, u64)> = Vec::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut kids: Vec<(u64, u64)> = children[s.id]
            .iter()
            .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
            .filter(|&(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = dur - covered;
        match out.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += dur;
                e.3 += own;
            }
            None => out.push((s.name.clone(), 1, dur, own)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "build", 10, 30),
            span(2, Some(0), "run", 20, 50),
            span(3, Some(0), "digest", 90, 120),
            span(4, Some(2), "window", 25, 35),
            span(5, None, "op", 200, 210),
        ];
        let t = self_times(&spans);
        let get = |n: &str| t.iter().find(|e| e.0 == n).cloned().unwrap();
        // [10,50] ∪ [90,100] covers 50 of the first op's 100 ns; the second
        // op has no children.
        assert_eq!(get("op"), ("op".into(), 2, 110, 60));
        assert_eq!(get("run"), ("run".into(), 1, 30, 20));
        assert_eq!(get("window"), ("window".into(), 1, 10, 10));
        assert_eq!(get("digest"), ("digest".into(), 1, 30, 30));
    }

    #[test]
    fn recorder_nests_and_switches_off() {
        let mut t = Tracer::new(true, "mix2");
        t.span("round", |t| t.span("op", |t| t.span("run", |_| ())));
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(1))
        );
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let mut off = Tracer::new(false, "mix2");
        assert_eq!(off.span("op", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
