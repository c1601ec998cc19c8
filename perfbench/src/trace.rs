//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into the
//! solver: name, start, end, parent span and run id. They stay in
//! memory until the run ends and are then written out as one JSON
//! document. A span's self time is its duration minus the part of it
//! that its children cover (children may overlap when they ran in
//! parallel, so the covered part is the union of their intervals).

use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans; shared by reference across the rayon workers that
/// run parallel children.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking span")
    }

    /// Run `f` inside a span named `name`; `f` receives the new span's
    /// id so it can open children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                run,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.lock()[id].end_ns = end;
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Seconds of `spans[id]` covered by the union of its children.
pub fn covered_secs(spans: &[Span], id: SpanId) -> f64 {
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = spans[id].start_ns;
    for (s, e) in kids {
        let s = s.max(reach);
        let e = e.min(spans[id].end_ns);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered as f64 * 1e-9
}

/// Self time of `spans[id]`: its duration minus what its children cover.
pub fn self_secs(spans: &[Span], id: SpanId) -> f64 {
    spans[id].secs() - covered_secs(spans, id)
}

/// Sum and maximum duration of the children of `parent` named `name`.
pub fn child_sum_max(spans: &[Span], parent: SpanId, name: &str) -> (f64, f64) {
    spans
        .iter()
        .filter(|s| s.parent == Some(parent) && s.name == name)
        .fold((0.0, 0.0), |(sum, max), s| {
            (sum + s.secs(), f64::max(max, s.secs()))
        })
}

/// The first child of `parent` named `name`.
pub fn child(spans: &[Span], parent: SpanId, name: &str) -> Option<SpanId> {
    spans
        .iter()
        .position(|s| s.parent == Some(parent) && s.name == name)
}

/// Every span as one JSON array (times in ns from the tracer's origin).
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"id\":{id},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_s\":{}}}",
                s.name,
                s.run,
                s.start_ns,
                s.end_ns,
                self_secs(spans, id)
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps the first child
            span(80, 120, Some(0)), // runs past the parent's end
        ];
        assert!((covered_secs(&spans, 0) - 70e-9).abs() < 1e-15);
        assert!((self_secs(&spans, 0) - 30e-9).abs() < 1e-15);
        let (sum, max) = child_sum_max(&spans, 0, "s");
        assert!((sum - 100e-9).abs() < 1e-15 && (max - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_record_parent_links() {
        let t = Tracer::new();
        t.span("outer", None, 3, |id| t.span("inner", Some(id), 3, |_| ()));
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(child(&spans, 0, "inner"), Some(1));
    }
}
