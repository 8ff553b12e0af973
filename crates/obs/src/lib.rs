//! Grid-wide observability for the InteGrade reproduction: a metrics
//! registry with pre-resolved handles, causal trace spans keyed on protocol
//! request ids, and feature-gated hot-loop profiling timers.
//!
//! The paper's ASCT must "monitor application progress" and the LRMs
//! continuously report node state; once the grid grew retransmissions,
//! replica placement and active-set ticking, the stringly event log stopped
//! being a debugging substrate. This crate is the replacement:
//!
//! * [`metrics`] — counters/gauges/histograms registered once and updated
//!   through `Send` handles with single-writer relaxed updates (the hot path
//!   never hashes a string or takes a lock), with JSON and Prometheus-text
//!   export from a detached snapshot.
//! * [`span`] — causal spans reusing the grid-unique RPC `request_id`s, so
//!   tracing allocates no new identifiers and cannot perturb determinism;
//!   one call reconstructs the negotiation→launch→checkpoint→recovery tree
//!   of any part under any chaos seed.
//! * [`profile`] — per-phase wall-time attribution that compiles to
//!   zero-sized no-ops unless built with `--features profile`.
//!
//! Everything here is **passive**: no RNG draws, no new event scheduling,
//! no change to message ordering. The simulator behaves bit-for-bit
//! identically with observability on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod profile;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use profile::{Phase, ProfileReport, Profiler};
pub use span::{Span, SpanKind, SpanOutcome, SpanRecorder, SpanTree};
