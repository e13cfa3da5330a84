//! In-memory span recording for the traced pass, and self-time analysis.
//!
//! A span covers one call (or one block of calls) into a layer: its name,
//! start and end, the span that caused it, and a count of the work it did
//! (records, operations or bytes), so ratios are taken where the work
//! happened. A disabled tracer records nothing and never reads the clock:
//! running the same pass with it measures what tracing itself costs.

use serde::Value;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Work done inside the span, in the layer's own unit.
    pub count: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            count: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId, count: u64) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let span = &mut self.spans[id.0];
        span.end = end;
        span.count = count;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover. Children may nest or overlap (spans recorded from
/// several threads); covered time is their union, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration() - covered
        })
        .collect()
}

/// Spans as the JSON array of the span file.
pub fn to_json(spans: &[Span], workload: &str, pass: &str) -> Vec<Value> {
    spans
        .iter()
        .map(|span| {
            Value::Object(vec![
                ("workload".into(), Value::Str(workload.into())),
                ("pass".into(), Value::Str(pass.into())),
                ("name".into(), Value::Str(span.name.into())),
                ("start_ns".into(), Value::UInt(span.start)),
                ("end_ns".into(), Value::UInt(span.end)),
                (
                    "parent".into(),
                    span.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("count".into(), Value::UInt(span.count)),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 35, 45, Some(0)),
            // Runs past the parent's end: only the covered part counts.
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.enter("x");
        t.exit(id, 5);
        assert!(t.spans().is_empty());

        let mut t = Tracer::new(Instant::now(), true);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner, 3);
        t.exit(outer, 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].count, 3);
        assert!(t.spans()[0].end >= t.spans()[1].end);
    }
}
