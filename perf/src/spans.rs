//! Harness spans: one per call into a layer, kept in memory and written
//! out when the benchmark ends.
//!
//! The spans sit in the benchmark's own files, around the calls into each
//! layer; spans inside the simulator are the `obs` crate's business. A
//! disabled recorder does nothing, so untraced runs pay nothing for it.

use crate::json::Value;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.grid.run`.
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    /// Seconds since the recorder was created.
    pub end_s: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The repeat this span belongs to; spans of one repeat share it.
    pub run: u64,
}

/// Handle returned by [`Spans::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    run: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that keeps every span.
    pub fn recording() -> Self {
        Spans {
            enabled: true,
            origin: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder that keeps nothing.
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Spans::recording()
        }
    }

    /// Starts the next repeat: later spans carry a new run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes a span. Spans close innermost first.
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Total seconds spent in spans called `name` during `run`.
    pub fn total_s(&self, name: &str, run: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.run == run)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// The current run id.
    pub fn run(&self) -> u64 {
        self.run
    }

    /// Every span as a JSON array of objects.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::object([
                        ("id", Value::from(id as u64)),
                        ("name", Value::from(s.name)),
                        ("start_s", Value::from(s.start_s)),
                        ("end_s", Value::from(s.end_s)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                        ),
                        ("run", Value::from(s.run)),
                    ])
                })
                .collect(),
        )
    }
}
