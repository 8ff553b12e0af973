//! Hot-loop profiling timers that compile to no-ops when disabled.
//!
//! The simulator is deterministic; wall-clock reads must never influence
//! its behavior, only *observe* it. With the `profile` cargo feature off
//! (the default) every timer here is a zero-sized guard whose construction
//! and drop are empty inline functions — the hot loop pays literally
//! nothing, not even a branch. With `--features profile` each phase guard
//! reads `std::time::Instant` on entry and accumulates elapsed wall time
//! per [`Phase`] on drop.
//!
//! ```
//! use integrade_obs::profile::{Phase, Profiler};
//!
//! let profiler = Profiler::new();
//! {
//!     let _guard = profiler.enter(Phase::SlotWalk);
//!     // ... the timed work ...
//! }
//! let report = profiler.report();
//! assert_eq!(report.phases.len(), Phase::ALL.len());
//! ```

use std::sync::Arc;

/// The hot-loop phases the simulator attributes wall time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The per-tick walk over engaged nodes.
    SlotWalk,
    /// Lazy catch-up replay of parked idle nodes.
    CatchUpReplay,
    /// Event-queue pop (wheel advance, heap refill, due-list ops).
    QueuePop,
    /// World event dispatch (everything a popped event triggers).
    Dispatch,
    /// GIOP/CDR request encoding into pooled buffers.
    GiopEncode,
    /// GIOP/CDR decode of incoming wire frames.
    GiopDecode,
    /// The node-local compute: a lazy slot frame's walk over its active
    /// members, and the report flush's chunks (replay and digestion of
    /// every deferred node, on every core).
    ShardWalk,
    /// The fold after [`Phase::ShardWalk`]: applying a slot frame's
    /// effects in node order, or the report flush's sum of per-chunk upload
    /// counts.
    ShardMerge,
    /// GUPA upload digestion: appending completed day-periods to a node's
    /// history and (once enough history exists) retraining its LUPA model.
    /// In lazy slot frames and in the report flush the digestion lands
    /// inside [`Phase::ShardWalk`]; this phase times the other digestion
    /// paths (the reference walk, single-node catch-up).
    GupaDigest,
    /// Entered by nothing: the slot walk is no longer cut into shards, so
    /// there are no shard ranges to rebalance. The variant stays because
    /// per-layer metric lists generated from [`Phase::ALL`] publish its
    /// name; it always reports zero.
    ShardRebalance,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 10] = [
        Phase::SlotWalk,
        Phase::CatchUpReplay,
        Phase::QueuePop,
        Phase::Dispatch,
        Phase::GiopEncode,
        Phase::GiopDecode,
        Phase::ShardWalk,
        Phase::ShardMerge,
        Phase::GupaDigest,
        Phase::ShardRebalance,
    ];

    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SlotWalk => "slot_walk",
            Phase::CatchUpReplay => "catch_up_replay",
            Phase::QueuePop => "queue_pop",
            Phase::Dispatch => "dispatch",
            Phase::GiopEncode => "giop_encode",
            Phase::GiopDecode => "giop_decode",
            Phase::ShardWalk => "shard_walk",
            Phase::ShardMerge => "shard_merge",
            Phase::GupaDigest => "gupa_digest",
            Phase::ShardRebalance => "shard_rebalance",
        }
    }

    #[cfg_attr(not(feature = "profile"), allow(dead_code))]
    fn index(self) -> usize {
        match self {
            Phase::SlotWalk => 0,
            Phase::CatchUpReplay => 1,
            Phase::QueuePop => 2,
            Phase::Dispatch => 3,
            Phase::GiopEncode => 4,
            Phase::GiopDecode => 5,
            Phase::ShardWalk => 6,
            Phase::ShardMerge => 7,
            Phase::GupaDigest => 8,
            Phase::ShardRebalance => 9,
        }
    }
}

/// Accumulated wall time for one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseReport {
    /// Which phase.
    pub phase: Phase,
    /// Total wall nanoseconds attributed (always 0 without the `profile`
    /// feature).
    pub total_ns: u64,
    /// Number of guard enter/exit pairs (always 0 without `profile`).
    pub entries: u64,
}

/// A full profiler report, one row per [`Phase`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Whether the binary was built with the `profile` feature — when
    /// false every row is zero by construction.
    pub enabled: bool,
    /// Per-phase totals, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseReport>,
}

impl ProfileReport {
    /// Total nanoseconds for `phase`.
    pub fn total_ns(&self, phase: Phase) -> u64 {
        self.phases
            .iter()
            .find(|p| p.phase == phase)
            .map_or(0, |p| p.total_ns)
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.enabled {
            out.push_str("profiling disabled (build with --features profile)\n");
            return out;
        }
        for row in &self.phases {
            let _ = writeln!(
                out,
                "{:<16} {:>12} ns {:>10} entries",
                row.phase.name(),
                row.total_ns,
                row.entries
            );
        }
        out
    }
}

#[cfg(feature = "profile")]
mod imp {
    use super::Phase;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::time::Instant;

    /// Per-phase totals. Like a metrics registry, a profiler has one writer
    /// at a time (the thread owning its grid), so updates are relaxed
    /// `load` + `store` pairs, not read-modify-writes.
    #[derive(Debug, Default)]
    pub struct ProfilerInner {
        totals_ns: [AtomicU64; 10],
        entries: [AtomicU64; 10],
    }

    impl ProfilerInner {
        pub fn add(&self, phase: Phase, ns: u64) {
            let i = phase.index();
            let (total, entries) = (&self.totals_ns[i], &self.entries[i]);
            total.store(total.load(Relaxed) + ns, Relaxed);
            entries.store(entries.load(Relaxed) + 1, Relaxed);
        }

        pub fn total_ns(&self, phase: Phase) -> u64 {
            self.totals_ns[phase.index()].load(Relaxed)
        }

        pub fn entries(&self, phase: Phase) -> u64 {
            self.entries[phase.index()].load(Relaxed)
        }
    }

    /// A live timing guard: accumulates elapsed wall time on drop.
    #[must_use = "the guard times its scope; dropping it immediately times nothing"]
    pub struct PhaseGuard<'a> {
        pub(super) inner: &'a ProfilerInner,
        pub(super) phase: Phase,
        pub(super) started: Instant,
    }

    impl Drop for PhaseGuard<'_> {
        fn drop(&mut self) {
            let ns = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            self.inner.add(self.phase, ns);
        }
    }
}

#[cfg(not(feature = "profile"))]
mod imp {
    /// Zero-sized placeholder; construction and drop are empty.
    #[derive(Debug, Default)]
    pub struct ProfilerInner;

    /// The disabled guard: a zero-sized type with no drop glue.
    #[must_use = "the guard times its scope; dropping it immediately times nothing"]
    pub struct PhaseGuard<'a>(pub(super) std::marker::PhantomData<&'a ()>);
}

pub use imp::PhaseGuard;

/// Per-phase wall-time accumulator. Clones share totals, so the grid can
/// keep one handle and the event loop another.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    #[cfg_attr(not(feature = "profile"), allow(dead_code))]
    inner: Arc<imp::ProfilerInner>,
}

impl Profiler {
    /// A fresh profiler with all totals at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the binary was built with timing support.
    pub const fn compiled_in() -> bool {
        cfg!(feature = "profile")
    }

    /// Starts timing `phase`; the returned guard attributes the elapsed
    /// wall time on drop. Without the `profile` feature this returns a
    /// zero-sized guard and performs no work.
    #[inline]
    pub fn enter(&self, phase: Phase) -> PhaseGuard<'_> {
        #[cfg(feature = "profile")]
        {
            PhaseGuard {
                inner: &self.inner,
                phase,
                started: std::time::Instant::now(),
            }
        }
        #[cfg(not(feature = "profile"))]
        {
            let _ = phase;
            PhaseGuard(std::marker::PhantomData)
        }
    }

    /// The accumulated per-phase totals.
    pub fn report(&self) -> ProfileReport {
        #[cfg(feature = "profile")]
        {
            ProfileReport {
                enabled: true,
                phases: Phase::ALL
                    .iter()
                    .map(|&p| PhaseReport {
                        phase: p,
                        total_ns: self.inner.total_ns(p),
                        entries: self.inner.entries(p),
                    })
                    .collect(),
            }
        }
        #[cfg(not(feature = "profile"))]
        {
            ProfileReport {
                enabled: false,
                phases: Phase::ALL
                    .iter()
                    .map(|&p| PhaseReport {
                        phase: p,
                        total_ns: 0,
                        entries: 0,
                    })
                    .collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_every_phase() {
        let profiler = Profiler::new();
        {
            let _guard = profiler.enter(Phase::SlotWalk);
        }
        let report = profiler.report();
        assert_eq!(report.phases.len(), Phase::ALL.len());
        assert_eq!(report.enabled, Profiler::compiled_in());
        assert!(!report.render().is_empty());
    }

    #[cfg(feature = "profile")]
    #[test]
    fn enabled_profiler_accumulates_time() {
        let profiler = Profiler::new();
        for _ in 0..3 {
            let _guard = profiler.enter(Phase::Dispatch);
            std::hint::black_box(0u64);
        }
        let report = profiler.report();
        let row = report
            .phases
            .iter()
            .find(|p| p.phase == Phase::Dispatch)
            .unwrap();
        assert_eq!(row.entries, 3);
    }

    #[cfg(not(feature = "profile"))]
    #[test]
    fn disabled_guard_is_zero_sized() {
        assert_eq!(std::mem::size_of::<PhaseGuard<'_>>(), 0);
        let profiler = Profiler::new();
        {
            let _guard = profiler.enter(Phase::QueuePop);
        }
        assert_eq!(profiler.report().total_ns(Phase::QueuePop), 0);
    }

    #[test]
    fn clones_share_totals() {
        let a = Profiler::new();
        let b = a.clone();
        {
            let _guard = b.enter(Phase::GiopEncode);
        }
        // Entries only tick with the feature on; either way both handles
        // must agree.
        assert_eq!(
            a.report().total_ns(Phase::GiopEncode),
            b.report().total_ns(Phase::GiopEncode)
        );
    }
}
