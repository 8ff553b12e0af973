//! The per-node tick kernel, the lazy walk's slot frame and the chunked
//! report flush.
//!
//! Everything a slot tick does that touches only one node's own state lives
//! here, as plain functions over owned data: [`NodeLocal`] is a node's LRM,
//! QoS ledger, tick cursor and owner trace; [`tick_node_local`] is the slot
//! body, [`replay_node_local`] the bulk catch-up of a node the lazy walk
//! skipped. Neither touches the event queue, the log, the ORBs, the GRM or
//! another node. [`tick_members`] runs both over a slot frame's active
//! members on the calling thread. The report and ranking flush goes through
//! [`Flush`], which cuts the node table into contiguous chunks and runs
//! them on core's one scoped-thread executor ([`scoped_map`]), so it uses
//! every core. A node's measurement jitter is keyed by the node and the
//! slot ([`Noise`]), never drawn from a stream, so whichever walk, chunk or
//! catch-up measures a slot, and in whatever order, it measures the same
//! sample. The shared-state half of a tick (messages, log records,
//! event-queue inserts) comes back as [`NodeTickEffects`] for
//! `GridWorld::apply_node_effects` to apply in ascending node order.
//!
//! Node state is `Send` by construction (checked at compile time below), so
//! handing a chunk to a worker is ordinary safe borrowing.

use crate::grid::GridConfig;
use crate::gupa::GupaCell;
use crate::lrm::{CompletedPart, DueCheckpoint, LrmState};
use crate::par::scoped_map;
use crate::protocol::PartEvicted;
use crate::qos::{QosLedger, SharingDiscipline};
use integrade_simnet::rng::{keyed_u64, streams, Jitter};
use integrade_simnet::time::{SimDuration, SimTime};
use integrade_usage::patterns::LupaConfig;
use integrade_usage::sample::{DayPeriod, UsageSample, Weekday};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything the per-slot walk reads or writes for one node, owned in one
/// place so the walk splits a single slice.
#[derive(Debug)]
pub(crate) struct NodeLocal {
    /// The node's agent.
    pub lrm: LrmState,
    /// The node's owner-QoS ledger, merged node-major on `Grid::report`.
    /// Per-node ledgers let the lazy walk bulk-replay an idle node's
    /// accounting without disturbing other nodes' record order.
    pub qos: QosLedger,
    /// Highest slot-tick index (1-based, matching the world's
    /// `slots_elapsed`) whose bookkeeping has been applied to this node.
    /// Nodes the lazy walk skips lag behind and are caught up in bulk.
    pub ticks_applied: u64,
    /// Owner usage trace, one sample per 5-minute slot, cycled when
    /// exhausted. Empty means always idle. Shared with every node whose
    /// trace has the same content ([`TraceInterner`]).
    pub trace: Trace,
}

impl NodeLocal {
    /// A node at tick zero.
    pub fn new(lrm: LrmState, trace: Trace) -> Self {
        NodeLocal {
            lrm,
            qos: QosLedger::new(),
            ticks_applied: 0,
            trace,
        }
    }
}

/// An owner trace, shared by every node interned onto it.
pub(crate) type Trace = Arc<Vec<UsageSample>>;

/// Interns owner traces by exact content, so that nodes handed equal traces
/// share one buffer and GUPA warm-up can learn each distinct history once.
/// A trace's [`fingerprint`] picks its bucket; a match is confirmed by
/// comparing every component's bits, so `-0.0` and `0.0` stay distinct.
#[derive(Debug, Default)]
pub(crate) struct TraceInterner {
    buckets: BTreeMap<u64, Vec<Trace>>,
}

impl TraceInterner {
    /// The shared copy of `trace`. The first occurrence of a content keeps
    /// its own buffer (moved, not copied); later ones are dropped.
    pub fn intern(&mut self, trace: Vec<UsageSample>) -> Trace {
        let bucket = self.buckets.entry(fingerprint(&trace)).or_default();
        if let Some(shared) = bucket.iter().find(|t| bitwise_eq(t, &trace)) {
            return Arc::clone(shared);
        }
        let trace = Arc::new(trace);
        bucket.push(Arc::clone(&trace));
        trace
    }
}

/// The bits of a sample's four components.
fn sample_bits(s: &UsageSample) -> [u64; 4] {
    [
        s.cpu.to_bits(),
        s.mem.to_bits(),
        s.disk.to_bits(),
        s.net.to_bits(),
    ]
}

fn bitwise_eq(a: &[UsageSample], b: &[UsageSample]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| sample_bits(x) == sample_bits(y))
}

/// A cheap content hash: the length and the bits of eight evenly spaced
/// samples. Traces differing only elsewhere collide, which the bucket's
/// full comparison resolves.
pub(crate) fn fingerprint(trace: &[UsageSample]) -> u64 {
    const PROBES: usize = 8;
    let mut hash = trace.len() as u64;
    if !trace.is_empty() {
        for probe in 0..PROBES {
            for bits in sample_bits(&trace[probe * trace.len() / PROBES]) {
                hash = (hash ^ bits).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    hash
}

// A flush chunk carries `&mut [NodeLocal]` and `&mut [GupaCell]`; both
// must cross a thread boundary.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<NodeLocal>();
    assert_send::<LrmState>();
    assert_send::<GupaCell>();
};

/// Day/weekday/minute of a virtual instant (day 0 = Monday).
pub(crate) fn wall_at(now: SimTime) -> (u64, Weekday, u32) {
    let (day, offset) = now.day_and_offset();
    (
        day,
        Weekday::from_day_number(day),
        (offset.as_micros() / 60_000_000) as u32,
    )
}

/// The owner sample a trace yields at `now` (empty trace = always idle).
pub(crate) fn trace_sample_at(trace: &[UsageSample], now: SimTime) -> UsageSample {
    if trace.is_empty() {
        return UsageSample::idle();
    }
    let slot = (now.as_micros() / SimDuration::from_mins(5).as_micros()) as usize;
    trace[slot % trace.len()]
}

/// The measured channel a jitter value perturbs.
#[derive(Debug, Clone, Copy)]
enum Channel {
    Cpu = 0,
    Mem = 1,
}

/// A grid's [`GridConfig::lupa_noise`] measurement jitter. The jitter of a
/// sample is a pure function of `(seed, node, k, channel)` — `k` the
/// 0-based index of the tick the slot fired at — hashed by [`keyed_u64`]
/// with the seed and [`streams::LUPA_JITTER`] as the salt and mapped by the
/// one [`Jitter`] formula. Nothing is drawn from a stream, so every walk,
/// catch-up and flush chunk measures a slot identically, in any order.
#[derive(Debug, Clone, Copy)]
struct Noise {
    jitter: Jitter,
    salt: u64,
}

impl Noise {
    /// The grid's noise, or `None` with `lupa_noise` off.
    fn of(config: &GridConfig) -> Option<Noise> {
        (config.lupa_noise != 0.0).then(|| Noise {
            jitter: Jitter::new(config.lupa_noise),
            salt: config.seed ^ streams::LUPA_JITTER,
        })
    }

    /// The jitter of `channel` in the sample node `node` takes at tick
    /// index `k`, in `[-lupa_noise, lupa_noise]`.
    fn draw(self, node: usize, k: u64, channel: Channel) -> f64 {
        self.jitter
            .of(keyed_u64(self.salt, [node as u64, k, channel as u64]))
    }

    /// `owner` with its CPU and memory components jittered for node `node`
    /// at tick index `k`, re-clamped into range.
    fn measure(self, node: usize, k: u64, owner: UsageSample) -> UsageSample {
        owner.with_jitter(
            self.draw(node, k, Channel::Cpu),
            self.draw(node, k, Channel::Mem),
        )
    }
}

/// The measured (LUPA-visible) version of the owner sample node `node` takes
/// at tick index `k`: the true sample when noise is off, otherwise the
/// sample perturbed by its keyed CPU and memory jitter ([`Noise`]).
fn measured_sample(config: &GridConfig, node: usize, k: u64, owner: UsageSample) -> UsageSample {
    match Noise::of(config) {
        Some(noise) => noise.measure(node, k, owner),
        None => owner,
    }
}

/// The node-local half of catch-up replay: advances one node's deferred
/// owner sampling, LUPA accumulation and QoS accounting to tick `target`
/// using only that node's state. Returns the days the replayed slots
/// completed, in day order, for the caller to [`digest`] as one batch.
///
/// The whole span `[applied, target)` goes to the LUPA window as one run of
/// measured samples; the window cuts it into days. That equals the eager
/// per-slot body because, for a disengaged node, a slot has exactly four
/// effects and the run reproduces each: the measured sample entering the
/// window (same samples, same order, each jittered by its node and slot),
/// the QoS record (same records, same order), the owner state and clock
/// (only the last slot's survive — nothing reads the intermediate ones),
/// and the drain of a completed day (a slot completes at most one day, so
/// the eager walk's per-slot drains are the run's days, in day order). An
/// untraced node with noise off is the constant case: every sample is idle
/// and `QosLedger::record(0, 0, 0, _, _)` is a no-op by inspection, so the
/// run is a plain fill.
///
/// Runs in slot frames, single-node catch-ups and flush chunks, for node
/// `id`. The jitter ([`Noise`]) perturbs what the LUPA window records but
/// never the owner state QoS sees.
pub(crate) fn replay_node_local(
    config: &GridConfig,
    node: &mut NodeLocal,
    id: usize,
    target: u64,
) -> Vec<DayPeriod> {
    let applied = node.ticks_applied;
    if applied >= target {
        return Vec::new();
    }
    let (tick, noise) = (config.tick, Noise::of(config));
    let NodeLocal {
        lrm, qos, trace, ..
    } = node;
    // The (k+1)-th tick fired at k * tick.
    let fired_at = |k: u64| SimTime::from_micros(tick.as_micros() * k);
    let last = fired_at(target - 1);
    let last_owner = trace_sample_at(trace, last);
    let (_, weekday, minute) = wall_at(last);
    debug_assert!(
        lrm.lupa_window().completed().is_empty(),
        "every observation drains the window before the next"
    );
    if trace.is_empty() && noise.is_none() {
        let idle = std::iter::repeat_n(UsageSample::idle(), (target - applied) as usize);
        lrm.observe_owner_run(last_owner, idle, weekday, minute);
    } else {
        let cap = lrm.policy.max_cpu_fraction;
        let measured = (applied..target).map(|k| {
            let owner = trace_sample_at(trace, fired_at(k));
            qos.record(owner.cpu, 0.0, 0.0, cap, SharingDiscipline::Yielding);
            match noise {
                Some(noise) => noise.measure(id, k, owner),
                None => owner,
            }
        });
        lrm.observe_owner_run(last_owner, measured, weekday, minute);
    }
    node.ticks_applied = target;
    node.lrm.take_lupa_periods()
}

/// [`replay_node_local`] as the eager walk defines it — one observation,
/// one QoS record and one window drain per slot — kept as the oracle the
/// run form is tested against.
#[cfg(test)]
fn replay_node_local_per_slot(
    config: &GridConfig,
    node: &mut NodeLocal,
    id: usize,
    target: u64,
) -> Vec<DayPeriod> {
    let applied = node.ticks_applied;
    if applied >= target {
        return Vec::new();
    }
    let mut days = Vec::new();
    let cap = node.lrm.policy.max_cpu_fraction;
    for k in applied..target {
        let then = SimTime::from_micros(config.tick.as_micros() * k);
        let owner = trace_sample_at(&node.trace, then);
        let measured = measured_sample(config, id, k, owner);
        let (_, weekday, minute) = wall_at(then);
        node.lrm
            .observe_owner_sampled(owner, measured, weekday, minute);
        days.extend(node.lrm.take_lupa_periods());
        node.qos
            .record(owner.cpu, 0.0, 0.0, cap, SharingDiscipline::Yielding);
    }
    node.ticks_applied = target;
    days
}

/// The shared-state side effects of one node's slot tick, produced by
/// [`tick_node_local`] and applied by `GridWorld::apply_node_effects`.
/// Applying queued effects in ascending node order reproduces the eager
/// walk's message, log and RNG order exactly.
#[derive(Debug)]
pub(crate) struct NodeTickEffects {
    /// The node the effects belong to.
    pub node: usize,
    /// Reservation leases that expired this slot (metric + log records).
    pub expired: usize,
    /// Parts that finished (stash + PartDone send to the GRM).
    pub completed: Vec<CompletedPart>,
    /// Parts evicted by a returning owner (stash + PartEvicted send).
    pub evictions: Vec<PartEvicted>,
    /// Checkpoints crossing an interval boundary (replica store requests).
    pub dues: Vec<DueCheckpoint>,
    /// The tick's own LUPA drain (at most one completed period). The lazy
    /// walk digests this in [`tick_members`] and ships the effects with it
    /// emptied; the reference walk leaves it for `apply_node_effects`.
    pub tick_upload: Vec<DayPeriod>,
}

/// The node-local half of one slot tick: everything the tick does that
/// touches only the node's own LRM, QoS ledger and tick cursor; the
/// returned effects carry the shared-state work. Callers must have applied
/// all earlier ticks to the node. `slot` is the 1-based index of the tick
/// firing at `now`, so its measurement jitter is keyed by tick index
/// `slot - 1`.
pub(crate) fn tick_node_local(
    config: &GridConfig,
    node: &mut NodeLocal,
    id: usize,
    now: SimTime,
    slot: u64,
) -> NodeTickEffects {
    let owner = trace_sample_at(&node.trace, now);
    let measured = measured_sample(config, id, slot - 1, owner);
    let (_, weekday, minute) = wall_at(now);
    let lrm = &mut node.lrm;
    // Credit the elapsed tick under the owner state that held during it
    // *before* observing the new sample; otherwise a returning owner would
    // retroactively erase the idle interval's progress.
    let completed = lrm.advance_at(now, config.tick);
    let dues = lrm.due_checkpoints();
    lrm.observe_owner_sampled(owner, measured, weekday, minute);
    let expired = lrm.expire_reservations(now);
    let evictions = lrm.check_eviction();
    let grid_running = !lrm.running().is_empty();
    let grid_share = lrm.grid_share();
    let cap = lrm.policy.max_cpu_fraction;
    // Owner QoS accounting (InteGrade's user-level scheduler always
    // yields, so usage == the capped share).
    let grid_demand = if grid_running { 1.0 } else { 0.0 };
    let grid_usage = if grid_running { grid_share } else { 0.0 };
    node.qos.record(
        owner.cpu,
        grid_demand,
        grid_usage,
        cap,
        SharingDiscipline::Yielding,
    );
    let tick_upload = lrm.take_lupa_periods();
    node.ticks_applied = slot;
    NodeTickEffects {
        node: id,
        expired,
        completed,
        evictions,
        dues,
        tick_upload,
    }
}

/// Digests the days one node completed since its last digest into its GUPA
/// cell as one batch — one retrain however many days there are, which
/// trains the model per-day digests would, since a model is fit over its
/// whole history and nothing reads the cell between the days — and returns
/// the uploads they count as: one per day, the eager walk's one upload call
/// per completed day. Every lazy digest goes through here: slot frames,
/// single-node catch-ups and flush chunks.
pub(crate) fn digest(cell: &mut GupaCell, config: LupaConfig, days: Vec<DayPeriod>) -> u64 {
    let uploads = days.len() as u64;
    cell.digest(config, days);
    uploads
}

/// The node-local half of one lazy slot frame: for each active member
/// (ascending node ids) the catch-up replay to the previous tick, the slot
/// body, and one [`digest`] of every day either completed into the
/// member's cell — replayed days first, then the tick's own drain, the
/// order the eager walk uses.
/// `cells` is index-aligned with `nodes`. Returns the members' effects in
/// node order and the upload count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tick_members(
    config: &GridConfig,
    gupa: LupaConfig,
    nodes: &mut [NodeLocal],
    cells: &mut [GupaCell],
    members: &[usize],
    now: SimTime,
    slot: u64,
) -> (Vec<NodeTickEffects>, u64) {
    let mut digested = 0;
    let effects = members
        .iter()
        .map(|&id| {
            let node = &mut nodes[id];
            let mut days = replay_node_local(config, node, id, slot - 1);
            let mut effects = tick_node_local(config, node, id, now, slot);
            days.append(&mut effects.tick_upload);
            digested += digest(&mut cells[id], gupa, days);
            effects
        })
        .collect();
    (effects, digested)
}

/// The fewest deferred node-slots (nodes × ticks still to replay) one
/// report-flush chunk carries. At ~2¹⁸ a chunk is milliseconds of replay,
/// so a 50k-node flush spreads over every core while a chunk's own cost (one
/// claim on the executor) stays noise; a
/// flush below one chunk runs on the calling thread.
pub(crate) const FLUSH_CHUNK_SLOTS: u64 = 1 << 18;

/// The report/ranking flush — every node caught up to one tick and its
/// uploads digested — cut so that chunks of nodes run side by side.
///
/// The node table is cut into contiguous chunks. A chunk writes only its
/// own nodes and GUPA cells, and a node's replay reads only its own state
/// (its jitter is keyed by the node and the slot, [`Noise`]), so whatever
/// the worker count and whichever chunk finishes first, the flush leaves
/// the state — nodes, cells, upload count — the serial walk leaves.
pub(crate) struct Flush<'a> {
    chunks: Vec<FlushChunk<'a>>,
    /// Less than one chunk of work in all: run on the calling thread.
    inline: bool,
}

/// One contiguous run of nodes, from node `first` on, and the matching
/// GUPA cells.
pub(crate) struct FlushChunk<'a> {
    first: usize,
    nodes: &'a mut [NodeLocal],
    cells: &'a mut [GupaCell],
}

impl<'a> Flush<'a> {
    /// Cuts the flush to tick `target` into chunks of at least
    /// `chunk_slots` deferred node-slots (the last may hold fewer).
    /// `cells` is index-aligned with `nodes`. `chunk_slots` is
    /// [`FLUSH_CHUNK_SLOTS`] except in tests, which cut small worlds finer.
    pub fn cut(
        mut nodes: &'a mut [NodeLocal],
        mut cells: &'a mut [GupaCell],
        target: u64,
        chunk_slots: u64,
    ) -> Self {
        debug_assert!(cells.len() >= nodes.len());
        let mut chunks = Vec::new();
        let (mut first, mut total) = (0, 0);
        while !nodes.is_empty() {
            let (mut len, mut slots) = (0, 0);
            while len < nodes.len() && slots < chunk_slots {
                slots += target.saturating_sub(nodes[len].ticks_applied);
                len += 1;
            }
            let (chunk_nodes, rest) = std::mem::take(&mut nodes).split_at_mut(len);
            nodes = rest;
            let (chunk_cells, rest) = std::mem::take(&mut cells).split_at_mut(len);
            cells = rest;
            chunks.push(FlushChunk {
                first,
                nodes: chunk_nodes,
                cells: chunk_cells,
            });
            first += len;
            total += slots;
        }
        Flush {
            chunks,
            inline: total < chunk_slots,
        }
    }

    /// Runs `body` once per chunk on up to `workers` threads ([`scoped_map`])
    /// and returns the results in chunk order. A flush below one chunk of
    /// work creates no thread.
    pub fn run<R: Send>(self, workers: usize, body: impl Fn(FlushChunk<'a>) -> R + Sync) -> Vec<R> {
        let workers = if self.inline { 1 } else { workers };
        scoped_map(self.chunks, workers, body)
    }
}

impl FlushChunk<'_> {
    /// Catches the chunk's nodes up to tick `target` in node order and
    /// digests the uploads into their cells; returns the upload count.
    pub fn replay(self, config: &GridConfig, gupa: LupaConfig, target: u64) -> u64 {
        let FlushChunk {
            first,
            nodes,
            cells,
        } = self;
        nodes
            .iter_mut()
            .zip(cells)
            .enumerate()
            .map(|(i, (node, cell))| {
                let days = replay_node_local(config, node, first + i, target);
                digest(cell, gupa, days)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::NodeSetup;
    use crate::lrm::LrmConfig;
    use crate::types::NodeId;
    use integrade_simnet::rng::DetRng;

    fn config(lupa_noise: f64) -> GridConfig {
        GridConfig {
            lupa_noise,
            ..GridConfig::default()
        }
    }

    fn node(trace: Trace) -> NodeLocal {
        let setup = NodeSetup::idle_desktop();
        NodeLocal::new(
            LrmState::new(
                NodeId(0),
                setup.resources,
                setup.platform,
                setup.policy,
                setup.roles,
                LrmConfig::default(),
            ),
            trace,
        )
    }

    #[test]
    fn interning_moves_the_first_buffer_and_shares_equal_content() {
        let trace = |disk: f64| vec![UsageSample::new(0.5, 0.2, disk, 0.0); 300];
        let mut interner = TraceInterner::default();
        let first = trace(0.0);
        let buffer = first.as_ptr();
        let shared = interner.intern(first);
        assert_eq!(shared.as_ptr(), buffer, "moved, not copied");
        assert!(Arc::ptr_eq(&shared, &interner.intern(trace(0.0))));
        let negative = interner.intern(trace(-0.0));
        assert!(!Arc::ptr_eq(&shared, &negative), "-0.0 is not 0.0");
        assert!(Arc::ptr_eq(&negative, &interner.intern(trace(-0.0))));
    }

    /// The keyed jitter at amplitude 0.05: bounded, both signs about
    /// equally often, and a mean near zero.
    #[test]
    fn keyed_jitter_is_symmetric_and_bounded() {
        assert!(Noise::of(&config(0.0)).is_none(), "noise off keys nothing");
        let noise = Noise::of(&config(0.05)).unwrap();
        let (mut sum, mut negative) = (0.0, 0);
        for node in 0..50 {
            for k in 0..100 {
                for channel in [Channel::Cpu, Channel::Mem] {
                    let j = noise.draw(node, k, channel);
                    assert!((-0.05..=0.05).contains(&j), "{j}");
                    sum += j;
                    negative += usize::from(j < 0.0);
                }
            }
        }
        assert!(sum.abs() < 0.05 * 100.0, "mean should be near zero: {sum}");
        assert!(
            (4_800..=5_200).contains(&negative),
            "{negative} of 10000 negative"
        );
    }

    /// Equal keys give equal bits; changing any one of the seed, the node,
    /// the tick index or the channel changes the value.
    #[test]
    fn every_part_of_the_key_moves_the_jitter() {
        let draw = |seed: u64, node: usize, k: u64, channel: Channel| {
            let config = GridConfig {
                seed,
                ..config(0.05)
            };
            Noise::of(&config).unwrap().draw(node, k, channel).to_bits()
        };
        for seed in [0, 29, u64::MAX] {
            for node in [0, 1, 49_999] {
                for k in [0, 287, 288, 1 << 40] {
                    let cpu = draw(seed, node, k, Channel::Cpu);
                    assert_eq!(cpu, draw(seed, node, k, Channel::Cpu));
                    let case = format!("seed {seed}, node {node}, k {k}");
                    assert_ne!(cpu, draw(seed ^ 1, node, k, Channel::Cpu), "{case}: seed");
                    assert_ne!(cpu, draw(seed, node + 1, k, Channel::Cpu), "{case}: node");
                    assert_ne!(cpu, draw(seed, node, k + 1, Channel::Cpu), "{case}: k");
                    assert_ne!(cpu, draw(seed, node, k, Channel::Mem), "{case}: channel");
                }
            }
        }
    }

    proptest::proptest! {
        /// The run-form replay against the per-slot body it replaced: same
        /// completed days in the same order, same LUPA window, QoS ledger,
        /// tick cursor and owner state — over empty and wrapping traces,
        /// noise off and on, and spans that start mid-day and cross zero to
        /// three day rollovers.
        #[test]
        fn run_replay_matches_the_per_slot_body(seed in proptest::arbitrary::any::<u64>()) {
            for salt in crate::par::chaos_salts() {
                let seed = seed ^ salt;
                let mut gen = DetRng::new(seed);
                let trace_len = gen.index(700);
                let noisy = gen.bernoulli(0.5);
                let applied = gen.uniform_range(0, 600);
                let span = gen.uniform_range(0, 3 * 288 + 100);
                let id = gen.index(50_000);
                let case = format!(
                    "seed {seed:#x}: node {id}, trace of {trace_len}, noisy {noisy}, {applied} + {span} ticks"
                );
                let config = &config(if noisy { 0.05 } else { 0.0 });
                let trace: Vec<UsageSample> = (0..trace_len)
                    .map(|_| {
                        // A third of the slots idle, so QoS sees both branches.
                        let cpu = (gen.uniform_f64() - 0.33).max(0.0);
                        UsageSample::new(cpu, gen.uniform_f64(), 0.0, 0.0)
                    })
                    .collect();
                let trace = Arc::new(trace);
                let (mut run, mut slot) = (node(Arc::clone(&trace)), node(trace));
                // Both start mid-history, brought there by the oracle.
                replay_node_local_per_slot(config, &mut run, id, applied);
                replay_node_local_per_slot(config, &mut slot, id, applied);
                let target = applied + span;
                let run_days = replay_node_local(config, &mut run, id, target);
                let slot_days = replay_node_local_per_slot(config, &mut slot, id, target);
                proptest::prop_assert_eq!(run_days, slot_days, "{}", case);
                proptest::prop_assert!(run.lrm.lupa_window().completed().is_empty(), "{}", case);
                proptest::prop_assert_eq!(first_divergence(&[run], &[slot]), None, "{}", case);
            }
        }
    }

    /// The first node whose tick cursor, LUPA partial day (bitwise), owner
    /// state or QoS ledger differs between two node tables of equal length.
    fn first_divergence(a: &[NodeLocal], b: &[NodeLocal]) -> Option<usize> {
        assert_eq!(a.len(), b.len());
        let window = |n: &NodeLocal| -> Vec<[u64; 4]> {
            n.lrm
                .lupa_window()
                .partial_day()
                .iter()
                .map(sample_bits)
                .collect()
        };
        a.iter().zip(b).position(|(x, y)| {
            x.ticks_applied != y.ticks_applied
                || window(x) != window(y)
                || x.lrm.owner_load() != y.lrm.owner_load()
                || x.lrm.grid_share().to_bits() != y.lrm.grid_share().to_bits()
                || x.qos != y.qos
        })
    }

    #[test]
    fn replay_to_an_already_applied_tick_is_a_no_op() {
        let config = &config(0.05);
        let mut node = node(Trace::default());
        replay_node_local(config, &mut node, 0, 300);
        let uploads = replay_node_local(config, &mut node, 0, 200);
        assert!(uploads.is_empty());
        assert_eq!(node.ticks_applied, 300);
    }

    /// An idle `n`-node world.
    fn world(n: usize) -> (Vec<NodeLocal>, Vec<GupaCell>) {
        (
            (0..n).map(|_| node(Trace::default())).collect(),
            (0..n).map(|_| GupaCell::default()).collect(),
        )
    }

    /// The serial flush [`Flush`] replaced, kept as its oracle: every node
    /// in order.
    fn serial_flush(
        config: &GridConfig,
        nodes: &mut [NodeLocal],
        cells: &mut [GupaCell],
        target: u64,
    ) -> u64 {
        let gupa = LupaConfig::default();
        nodes
            .iter_mut()
            .zip(cells)
            .enumerate()
            .map(|(id, (node, cell))| {
                digest(cell, gupa, replay_node_local(config, node, id, target))
            })
            .sum()
    }

    /// A world about to be flushed to its returned target tick (6–9 days
    /// in): a mix of traced nodes, each with a history of its own length,
    /// and untraced ones, each already at its own tick with the uploads
    /// that got it there digested — node 0 at tick 0, about a quarter at
    /// the target, as `catch_up_node` leaves them.
    fn flush_world(config: &GridConfig, seed: u64) -> (Vec<NodeLocal>, Vec<GupaCell>, u64) {
        let mut gen = DetRng::new(seed);
        let target = 6 * 288 + gen.uniform_range(0, 3 * 288);
        let (mut nodes, mut cells) = (Vec::new(), Vec::new());
        for id in 0..4 + gen.index(48) {
            let trace: Vec<UsageSample> = match gen.bernoulli(0.5) {
                true => (0..1 + gen.index(700))
                    .map(|_| UsageSample::new(gen.uniform_f64(), gen.uniform_f64(), 0.0, 0.0))
                    .collect(),
                false => Vec::new(),
            };
            let mut local = node(Arc::new(trace));
            let applied = match (id, gen.index(4)) {
                (0, _) => 0,
                (_, 0) => target,
                _ => gen.uniform_range(0, target),
            };
            let mut cell = GupaCell::default();
            let days = replay_node_local(config, &mut local, id, applied);
            digest(&mut cell, LupaConfig::default(), days);
            nodes.push(local);
            cells.push(cell);
        }
        (nodes, cells, target)
    }

    /// The flush sizes the proptests cut at: from one node-slot per chunk
    /// to the production size.
    const CHUNK_SIZES: [u64; 5] = [1, 97, 1_000, 5_000, FLUSH_CHUNK_SLOTS];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(8))]

        /// The chunked flush against the serial one at 1, 2, 3 and 8
        /// workers, noise off and on, and chunk sizes from one node-slot to
        /// the production size: equal LUPA windows, QoS ledgers, tick
        /// cursors, GUPA cells and upload counts.
        #[test]
        fn chunked_flush_matches_the_serial_flush(seed in proptest::arbitrary::any::<u64>()) {
            for salt in crate::par::chaos_salts() {
                let seed = seed ^ salt;
                let chunk_slots = CHUNK_SIZES[DetRng::new(seed).index(CHUNK_SIZES.len())];
                for noise in [0.0, 0.05] {
                    let config = &config(noise);
                    let (mut nodes, mut cells, target) = flush_world(config, seed);
                    let uploads = serial_flush(config, &mut nodes, &mut cells, target);
                    proptest::prop_assert!(uploads > 0, "node 0 crosses a midnight");
                    for workers in [1, 2, 3, 8] {
                        let case = format!(
                            "seed {seed:#x}, noise {noise}, {workers} workers, chunks of {chunk_slots}"
                        );
                        let (mut n, mut c, _) = flush_world(config, seed);
                        let chunked: u64 = Flush::cut(&mut n, &mut c, target, chunk_slots)
                            .run(workers, |chunk| chunk.replay(config, LupaConfig::default(), target))
                            .into_iter()
                            .sum();
                        proptest::prop_assert_eq!(chunked, uploads, "{}", case);
                        proptest::prop_assert!(c == cells, "{}: GUPA cells diverged", case);
                        proptest::prop_assert_eq!(first_divergence(&n, &nodes), None, "{}", case);
                    }
                }
            }
        }

        /// Catch-ups of a seeded random subset of the nodes, each to a
        /// random tick and in shuffled order, then the chunked flush,
        /// against the in-order serial flush — noise off and on, chunk
        /// sizes down to one node-slot: equal LUPA windows, QoS ledgers,
        /// tick cursors, GUPA cells and upload counts. A node's catch-up
        /// reads only its own state, its jitter included.
        #[test]
        fn catch_up_in_any_order_matches_the_serial_flush(seed in proptest::arbitrary::any::<u64>()) {
            for salt in crate::par::chaos_salts() {
                let seed = seed ^ salt;
                let mut gen = DetRng::new(!seed);
                let chunk_slots = CHUNK_SIZES[gen.index(CHUNK_SIZES.len())];
                for noise in [0.0, 0.05] {
                    let config = &config(noise);
                    let (mut nodes, mut cells, target) = flush_world(config, seed);
                    let uploads = serial_flush(config, &mut nodes, &mut cells, target);
                    let (mut n, mut c, _) = flush_world(config, seed);
                    let mut order: Vec<usize> = (0..n.len()).filter(|_| gen.bernoulli(0.5)).collect();
                    gen.shuffle(&mut order);
                    let case = format!(
                        "seed {seed:#x}, noise {noise}, chunks of {chunk_slots}, catch-ups {order:?}"
                    );
                    let mut caught_up = 0;
                    for &id in &order {
                        let to = gen.uniform_range(0, target + 1);
                        let days = replay_node_local(config, &mut n[id], id, to);
                        caught_up += digest(&mut c[id], LupaConfig::default(), days);
                    }
                    let flushed: u64 = Flush::cut(&mut n, &mut c, target, chunk_slots)
                        .run(2, |chunk| chunk.replay(config, LupaConfig::default(), target))
                        .into_iter()
                        .sum();
                    proptest::prop_assert_eq!(caught_up + flushed, uploads, "{}", case);
                    proptest::prop_assert!(c == cells, "{}: GUPA cells diverged", case);
                    proptest::prop_assert_eq!(first_divergence(&n, &nodes), None, "{}", case);
                }
            }
        }
    }

    #[test]
    fn a_flush_below_one_chunk_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let config = &config(0.05);
        for (chunk_slots, inline) in [(FLUSH_CHUNK_SLOTS, true), (1, false)] {
            let (mut nodes, mut cells) = world(7);
            let threads = Flush::cut(&mut nodes, &mut cells, 300, chunk_slots).run(8, |chunk| {
                chunk.replay(config, LupaConfig::default(), 300);
                std::thread::current().id()
            });
            assert_eq!(threads.len(), if inline { 1 } else { 7 });
            assert_eq!(threads.iter().all(|t| *t == caller), inline);
        }
    }
}
