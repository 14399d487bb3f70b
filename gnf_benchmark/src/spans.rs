//! Host-time spans recorded from outside, around calls into each layer.
//!
//! A span covers one call (or one loop of calls) into a crate's public API.
//! Spans stay in memory and are written out when the traced run ends. A
//! layer's self time is its spans' duration minus the part their child
//! spans cover.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call the span wraps, e.g. `Emulator::run`.
    pub name: &'static str,
    /// The crate the call enters, without the `gnf-` prefix.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass the span belongs to: spans of one pass share it.
    pub pass: u32,
    /// Work items the span covers (packets, reports, events, bytes).
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next pass; spans recorded from here on carry its id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Records a span around `f`, which returns its result and the number
    /// of work items it covered. Nested calls become child spans.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> (T, u64),
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
            items: 0,
        });
        self.open.push(index);
        let (value, items) = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.items = items;
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and items of every span with this name.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, items), s| {
                (ns + s.duration_ns(), items + s.items)
            })
    }

    /// Nanoseconds per item over every span with this name (0 if none ran).
    pub fn ns_per_item(&self, name: &str) -> f64 {
        let (ns, items) = self.total(name);
        if items == 0 {
            0.0
        } else {
            ns as f64 / items as f64
        }
    }

    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".into(), Value::String(s.name.into())),
                        ("layer".into(), Value::String(s.layer.into())),
                        ("start_ns".into(), Value::UInt(s.start_ns)),
                        ("end_ns".into(), Value::UInt(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("pass".into(), Value::UInt(u64::from(s.pass))),
                        ("items".into(), Value::UInt(s.items)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of each span: its duration minus its direct children's, never
/// negative (a child that outlives its parent by clock granularity is
/// clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut layers = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *layers.entry(span.layer).or_insert(0) += own;
    }
    layers
}

/// Cost of recording one empty span: the benchmark's own tracing overhead.
pub fn span_cost_ns() -> f64 {
    const SPANS: u64 = 100_000;
    let mut recorder = Recorder::new();
    recorder.spans.reserve(SPANS as usize);
    let start = Instant::now();
    for _ in 0..SPANS {
        recorder.span("bench", "empty", |_| ((), 0));
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    std::hint::black_box(&recorder.spans);
    elapsed / SPANS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "call",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            items: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("core", 0, 100, None),
            span("nf", 10, 40, Some(0)),
            span("switch", 50, 70, Some(0)),
            span("packet", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["core"], 50);
        assert_eq!(layers["nf"], 20);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = [span("core", 0, 10, None), span("nf", 0, 12, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn nested_closures_become_child_spans_of_one_pass() {
        let mut recorder = Recorder::new();
        recorder.next_pass();
        let value = recorder.span("core", "outer", |r| {
            let inner = r.span("nf", "inner", |_| (7, 3));
            (inner + 1, 5)
        });
        assert_eq!(value, 8);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].items),
            ("outer", None, 5)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].items),
            ("inner", Some(0), 3)
        );
        assert!(spans.iter().all(|s| s.pass == 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(recorder.total("inner"), (spans[1].duration_ns(), 3));
    }

    #[test]
    fn spans_serialize_with_every_field() {
        let mut recorder = Recorder::new();
        recorder.span("sim", "EventQueue::pop", |_| ((), 9));
        let json = serde_json::to_string(&recorder.to_json()).expect("serializes");
        for key in [
            "name", "layer", "start_ns", "end_ns", "parent", "pass", "items",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "{key} missing in {json}"
            );
        }
        assert!(json.contains("\"EventQueue::pop\"") && json.contains("\"parent\":null"));
    }
}
