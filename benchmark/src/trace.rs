//! In-memory spans around the calls into each layer. The benchmark
//! records them from outside the program; nothing inside the measured
//! crates is timed.

use crate::json::Json;
use std::borrow::Cow;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for the root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one clock origin. `open` and `close` cost one
/// clock read each and never allocate once `capacity` is reserved.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's duration minus the part of its interval that its child
/// spans cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let own = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(own.start_ns, own.end_ns),
                s.end_ns.clamp(own.start_ns, own.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = own.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    own.duration_ns() - covered
}

/// How much longer the traced pass ran than the untraced one, in
/// percent of the untraced wall.
pub fn overhead_pct(traced_wall_s: f64, untraced_wall_s: f64) -> f64 {
    (traced_wall_s - untraced_wall_s) / untraced_wall_s * 100.0
}

/// Durations, in milliseconds, of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// The identifier every span of one workload's trace shares.
pub fn workload_id(workload: &str, seed: u64) -> String {
    format!("{workload}@{seed:#x}")
}

pub fn spans_to_json(spans: &[Span], workload_id: &str) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name.as_ref())),
                    ("start_ns", Json::num(s.start_ns as f64)),
                    ("end_ns", Json::num(s.end_ns as f64)),
                    ("parent", Json::opt(s.parent.map(|p| p as f64))),
                    ("self_ns", Json::num(self_time_ns(spans, id) as f64)),
                    ("workload", Json::str(workload_id)),
                ])
            })
            .collect(),
    )
}

pub fn spans_from_json(value: &Json) -> Option<Vec<Span>> {
    value
        .as_arr()
        .iter()
        .map(|s| {
            Some(Span {
                name: Cow::Owned(s.get("name")?.as_str()?.to_string()),
                start_ns: s.get("start_ns")?.as_f64()? as u64,
                end_ns: s.get("end_ns")?.as_f64()? as u64,
                parent: s.get("parent")?.as_f64().map(|p| p as usize),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("workload", 0, 100, None),
            span("new", 5, 25, Some(0)),
            span("round", 30, 60, Some(0)),
            // Overlaps the previous child: only 60..70 is new cover.
            span("round", 50, 70, Some(0)),
            // A grandchild is its parent's business, not the root's.
            span("inner", 31, 35, Some(2)),
            // Sticks out past the parent: clipped to 90..100.
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 30 - 10 - 10);
        assert_eq!(self_time_ns(&spans, 2), 30 - 4);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(durations_ms(&spans, "round"), vec![30e-6, 20e-6]);
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_wall() {
        assert_eq!(overhead_pct(10.5, 10.0), 5.0);
        assert_eq!(overhead_pct(9.0, 10.0), -10.0);
    }

    #[test]
    fn tracer_nests_and_survives_json() {
        let mut tracer = Tracer::with_capacity(3);
        let root = tracer.open("workload", None);
        let child = tracer.open("sim.engine.new", Some(root));
        tracer.close(child);
        tracer.close(root);
        let spans = tracer.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = spans_to_json(&spans, "w-1");
        assert_eq!(json.as_arr()[1].get("workload"), Some(&Json::str("w-1")));
        assert_eq!(spans_from_json(&json), Some(spans));
    }
}
