//! The metrics registry: cheap labeled counters, gauges and fixed-bucket
//! histograms behind pre-resolved handles.
//!
//! Instruments are registered **once** (a name lookup under the registry's
//! lock, an allocation) and then updated through handles that are plain
//! `Arc`'d atomics — the hot path never hashes a string, never takes a
//! lock, never allocates. A disabled registry turns every update into a
//! single boolean load, so benchmark harnesses can measure the
//! instrumented and uninstrumented configurations of the *same* binary.
//!
//! # Single writer
//!
//! A registry has one writer at a time: the thread that currently owns the
//! grid (or federation) holding it. A federation advances its member grids
//! on worker threads, so a grid — and with it its handles — moves between
//! threads, but never is updated from two at once; the report flush's
//! chunk workers touch no handle at all and return upload counts for the
//! coordinator to add. Updates are therefore relaxed atomic `load` + `store` pairs,
//! not read-modify-writes: they cost what a `Cell` costs, and the handles
//! are `Send` so a grid can cross threads. Two threads updating one handle
//! concurrently would lose increments; nothing in the workspace does that.
//!
//! # Examples
//!
//! ```
//! use integrade_obs::metrics::Registry;
//!
//! let registry = Registry::new();
//! let retransmits = registry.counter("grid_retransmits_total");
//! retransmits.inc();
//! retransmits.add(2);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("grid_retransmits_total"), Some(3));
//! assert!(snap.to_prometheus().contains("grid_retransmits_total 3"));
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

/// A label set: `(key, value)` pairs attached to an instrument.
pub type Labels = Vec<(String, String)>;

/// A `u64` cell with relaxed single-writer updates (see the module docs).
/// `f64` values are stored as their bits; all-zero bits are `0.0`.
#[derive(Debug, Default)]
struct Cell64(AtomicU64);

impl Cell64 {
    #[inline]
    fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    #[inline]
    fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    #[inline]
    fn get_f64(&self) -> f64 {
        f64::from_bits(self.get())
    }

    #[inline]
    fn set_f64(&self, v: f64) {
        self.set(v.to_bits());
    }
}

#[derive(Debug)]
struct CounterEntry {
    name: String,
    labels: Labels,
    value: Arc<Cell64>,
}

#[derive(Debug)]
struct GaugeEntry {
    name: String,
    labels: Labels,
    /// The gauge's `f64` bits.
    value: Arc<Cell64>,
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the finite buckets, ascending. An implicit `+inf`
    /// bucket follows.
    bounds: Vec<f64>,
    /// One count per finite bucket plus the overflow bucket.
    counts: Vec<Cell64>,
    /// The sum's `f64` bits.
    sum: Cell64,
    count: Cell64,
}

#[derive(Debug)]
struct HistogramEntry {
    name: String,
    labels: Labels,
    core: Arc<HistogramCore>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<Vec<CounterEntry>>,
    gauges: Mutex<Vec<GaugeEntry>>,
    histograms: Mutex<Vec<HistogramEntry>>,
}

/// Locks one of the registry's instrument lists. Registration and snapshots
/// never panic while holding the lock, so a poisoned list is still whole.
fn lock<T>(list: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
    list.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The instrument registry. Cloning shares the underlying store — the grid
/// keeps one clone, each snapshot consumer another.
#[derive(Clone)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .field("counters", &lock(&self.inner.counters).len())
            .field("gauges", &lock(&self.inner.gauges).len())
            .field("histograms", &lock(&self.inner.histograms).len())
            .finish()
    }
}

impl Registry {
    /// An empty, enabled registry.
    pub fn new() -> Self {
        Registry {
            enabled: Arc::new(AtomicBool::new(true)),
            inner: Arc::new(RegistryInner::default()),
        }
    }

    /// Turns every instrument on or off at once. Handles stay valid; a
    /// disabled update is a single boolean load.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Relaxed);
    }

    /// Whether updates are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Registers (or re-resolves) an unlabeled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Registers (or re-resolves) a labeled counter. Registering the same
    /// `(name, labels)` twice returns a handle to the same cell.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let labels = own_labels(labels);
        let mut counters = lock(&self.inner.counters);
        let value = match counters
            .iter()
            .find(|c| c.name == name && c.labels == labels)
        {
            Some(existing) => existing.value.clone(),
            None => {
                let value = Arc::new(Cell64::default());
                counters.push(CounterEntry {
                    name: name.to_owned(),
                    labels,
                    value: value.clone(),
                });
                value
            }
        };
        Counter {
            enabled: self.enabled.clone(),
            value,
        }
    }

    /// Registers (or re-resolves) an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Registers (or re-resolves) a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let labels = own_labels(labels);
        let mut gauges = lock(&self.inner.gauges);
        let value = match gauges.iter().find(|g| g.name == name && g.labels == labels) {
            Some(existing) => existing.value.clone(),
            None => {
                let value = Arc::new(Cell64::default());
                gauges.push(GaugeEntry {
                    name: name.to_owned(),
                    labels,
                    value: value.clone(),
                });
                value
            }
        };
        Gauge {
            enabled: self.enabled.clone(),
            value,
        }
    }

    /// Registers (or re-resolves) a fixed-bucket histogram. `bounds` are the
    /// ascending upper bounds of the finite buckets; an implicit `+inf`
    /// bucket is appended.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram {name} needs buckets");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name} bounds must ascend"
        );
        let labels: Labels = Vec::new();
        let mut histograms = lock(&self.inner.histograms);
        let core = match histograms
            .iter()
            .find(|h| h.name == name && h.labels == labels)
        {
            Some(existing) => existing.core.clone(),
            None => {
                let core = Arc::new(HistogramCore {
                    bounds: bounds.to_vec(),
                    counts: (0..=bounds.len()).map(|_| Cell64::default()).collect(),
                    sum: Cell64::default(),
                    count: Cell64::default(),
                });
                histograms.push(HistogramEntry {
                    name: name.to_owned(),
                    labels,
                    core: core.clone(),
                });
                core
            }
        };
        Histogram {
            enabled: self.enabled.clone(),
            core,
        }
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.inner.counters)
                .iter()
                .map(|c| CounterSample {
                    name: c.name.clone(),
                    labels: c.labels.clone(),
                    value: c.value.get(),
                })
                .collect(),
            gauges: lock(&self.inner.gauges)
                .iter()
                .map(|g| GaugeSample {
                    name: g.name.clone(),
                    labels: g.labels.clone(),
                    value: g.value.get_f64(),
                })
                .collect(),
            histograms: lock(&self.inner.histograms)
                .iter()
                .map(|h| HistogramSample {
                    name: h.name.clone(),
                    labels: h.labels.clone(),
                    bounds: h.core.bounds.clone(),
                    counts: h.core.counts.iter().map(Cell64::get).collect(),
                    sum: h.core.sum.get_f64(),
                    count: h.core.count.get(),
                })
                .collect(),
        }
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Labels {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

/// A pre-resolved counter handle: `inc`/`add` are a flag load and a
/// relaxed load + store.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    value: Arc<Cell64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Relaxed) {
            self.value.set(self.value.get().wrapping_add(n));
        }
    }

    /// Overwrites the running total — for mirroring a component-internal
    /// cumulative counter (e.g. [`NetStats`-style] structs) into the
    /// registry at sync points. Not affected by the enable flag: mirrors
    /// reflect state that was accumulated regardless.
    ///
    /// [`NetStats`-style]: Counter::set_total
    #[inline]
    pub fn set_total(&self, total: u64) {
        self.value.set(total);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.get()
    }
}

/// A pre-resolved gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    value: Arc<Cell64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if self.enabled.load(Relaxed) {
            self.value.set_f64(v);
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        self.value.get_f64()
    }
}

/// A pre-resolved histogram handle. `observe` is a short linear scan over
/// the fixed bounds (registries use ≤ 16 buckets) plus three cell writes.
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        if !self.enabled.load(Relaxed) {
            return;
        }
        let core = &self.core;
        let mut index = core.bounds.len();
        for (i, bound) in core.bounds.iter().enumerate() {
            if v <= *bound {
                index = i;
                break;
            }
        }
        let cell = &core.counts[index];
        cell.set(cell.get() + 1);
        core.sum.set_f64(core.sum.get_f64() + v);
        core.count.set(core.count.get() + 1);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.core.count.get()
    }

    /// Sum of observations so far.
    pub fn sum(&self) -> f64 {
        self.core.sum.get_f64()
    }
}

/// One counter's sampled state.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Instrument name.
    pub name: String,
    /// Label set.
    pub labels: Labels,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge's sampled state.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Instrument name.
    pub name: String,
    /// Label set.
    pub labels: Labels,
    /// Value at snapshot time.
    pub value: f64,
}

/// One histogram's sampled state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Instrument name.
    pub name: String,
    /// Label set.
    pub labels: Labels,
    /// Finite bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one extra trailing slot for `+inf`.
    pub counts: Vec<u64>,
    /// Sum of observations.
    pub sum: f64,
    /// Count of observations.
    pub count: u64,
}

impl HistogramSample {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A point-in-time copy of a [`Registry`], detached from the live cells —
/// safe to keep, diff, or export after the run moves on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<CounterSample>,
    /// All gauges.
    pub gauges: Vec<GaugeSample>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// The value of the unlabeled counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels.is_empty())
            .map(|c| c.value)
    }

    /// The sum of `name` across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// The value of the unlabeled gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.labels.is_empty())
            .map(|g| g.value)
    }

    /// The histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes the snapshot as JSON (hand-rolled: the workspace builds
    /// offline against stand-in crates, so there is no serde_json).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": \"{}\", \"labels\": {}, \"value\": {}}}",
                escape(&c.name),
                labels_json(&c.labels),
                c.value
            );
        }
        out.push_str("\n  ],\n  \"gauges\": [");
        for (i, g) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": \"{}\", \"labels\": {}, \"value\": {}}}",
                escape(&g.name),
                labels_json(&g.labels),
                json_f64(g.value)
            );
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let bounds: Vec<String> = h.bounds.iter().map(|b| json_f64(*b)).collect();
            let counts: Vec<String> = h.counts.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": \"{}\", \"labels\": {}, \"bounds\": [{}], \
                 \"counts\": [{}], \"sum\": {}, \"count\": {}}}",
                escape(&h.name),
                labels_json(&h.labels),
                bounds.join(", "),
                counts.join(", "),
                json_f64(h.sum),
                h.count
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let _ = writeln!(out, "{}{} {}", c.name, prom_labels(&c.labels), c.value);
        }
        for g in &self.gauges {
            let _ = writeln!(
                out,
                "{}{} {}",
                g.name,
                prom_labels(&g.labels),
                json_f64(g.value)
            );
        }
        for h in &self.histograms {
            let mut cumulative = 0u64;
            for (i, count) in h.counts.iter().enumerate() {
                cumulative += count;
                let le = match h.bounds.get(i) {
                    Some(b) => json_f64(*b),
                    None => "+Inf".to_owned(),
                };
                let mut labels = h.labels.clone();
                labels.push(("le".to_owned(), le));
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    h.name,
                    prom_labels(&labels),
                    cumulative
                );
            }
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                h.name,
                prom_labels(&h.labels),
                json_f64(h.sum)
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                h.name,
                prom_labels(&h.labels),
                h.count
            );
        }
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn labels_json(labels: &Labels) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": \"{}\"", escape(k), escape(v));
    }
    out.push('}');
    out
}

fn prom_labels(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape(v));
    }
    out.push('}');
    out
}

/// Formats a float the way JSON expects (no trailing `.0` surprises for
/// integral values beyond keeping them parseable).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    } else {
        // JSON has no inf/nan; clamp to null-ish sentinel strings would
        // break parsers, so emit a large sentinel instead.
        "1e308".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = Registry::new();
        let c = r.counter("a_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.snapshot().counter("a_total"), Some(5));
    }

    #[test]
    fn re_registering_returns_the_same_cell() {
        let r = Registry::new();
        let a = r.counter("same");
        let b = r.counter("same");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn labels_distinguish_series() {
        let r = Registry::new();
        let a = r.counter_with("reqs", &[("op", "reserve")]);
        let b = r.counter_with("reqs", &[("op", "launch")]);
        a.add(2);
        b.add(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("reqs"), 5);
        assert_eq!(snap.counter("reqs"), None, "no unlabeled series");
    }

    #[test]
    fn disabled_registry_drops_updates_but_keeps_mirrors() {
        let r = Registry::new();
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram("h", &[1.0]);
        r.set_enabled(false);
        c.inc();
        g.set(9.0);
        h.observe(0.5);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        c.set_total(42);
        assert_eq!(c.get(), 42, "mirror sync ignores the enable flag");
        r.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 43);
    }

    #[test]
    fn histogram_buckets_observations() {
        let r = Registry::new();
        let h = r.histogram("lat", &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.7, 5.0, 100.0] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let sample = snap.histogram("lat").unwrap();
        assert_eq!(sample.counts, vec![1, 2, 1, 1]);
        assert_eq!(sample.count, 5);
        assert!((sample.sum - 106.25).abs() < 1e-9);
        assert!((sample.mean() - 21.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must ascend")]
    fn histogram_rejects_unsorted_bounds() {
        Registry::new().histogram("bad", &[2.0, 1.0]);
    }

    #[test]
    fn json_and_prometheus_render() {
        let r = Registry::new();
        r.counter("c_total").add(7);
        r.gauge("g").set(1.5);
        let h = r.histogram("h", &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(3.0);
        let snap = r.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"name\": \"c_total\""));
        assert!(json.contains("\"value\": 7"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let prom = snap.to_prometheus();
        assert!(prom.contains("c_total 7"));
        assert!(prom.contains("g 1.5"));
        assert!(prom.contains("h_bucket{le=\"1.0\"} 1"));
        assert!(prom.contains("h_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("h_count 2"));
    }

    #[test]
    fn labeled_counter_renders_prometheus_labels() {
        let r = Registry::new();
        r.counter_with("reqs", &[("op", "reserve")]).add(2);
        let prom = r.snapshot().to_prometheus();
        assert!(prom.contains("reqs{op=\"reserve\"} 2"), "{prom}");
    }
}
