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
//! [`Flush`], which cuts the node table into contiguous chunks that each
//! start from the jitter-stream position the serial walk would reach there
//! ([`replay_draws`]), and runs them on core's one scoped-thread executor
//! ([`scoped_map`]), so it uses every core and draws the same jitter. The
//! shared-state half of a tick (messages, log records, event-queue inserts)
//! comes back as [`NodeTickEffects`] for `GridWorld::apply_node_effects` to
//! apply in ascending node order.
//!
//! Node state is `Send` by construction (checked at compile time below), so
//! handing a chunk to a worker is ordinary safe borrowing.

use crate::grid::GridConfig;
use crate::gupa::GupaCell;
use crate::lrm::{CompletedPart, DueCheckpoint, LrmState};
use crate::par::scoped_map;
use crate::protocol::PartEvicted;
use crate::qos::{QosLedger, SharingDiscipline};
use integrade_simnet::rng::{DetRng, Jitter};
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

// A flush chunk carries `&mut [NodeLocal]`, `&mut [GupaCell]` and a
// `DetRng`; all three must cross a thread boundary.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<NodeLocal>();
    assert_send::<LrmState>();
    assert_send::<GupaCell>();
    assert_send::<DetRng>();
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

/// The measured (LUPA-visible) version of an owner sample: the true sample
/// when noise is off, otherwise the sample perturbed by two jitter draws
/// (CPU then memory) from the grid's jitter stream and re-clamped into
/// range. `noise == 0` consumes nothing from the stream — that is what
/// keeps every pre-noise scenario bit-for-bit.
fn measured_sample(owner: UsageSample, noise: f64, rng: &mut DetRng) -> UsageSample {
    if noise == 0.0 {
        return owner;
    }
    let cpu_delta = rng.jitter(noise);
    let mem_delta = rng.jitter(noise);
    owner.with_jitter(cpu_delta, mem_delta)
}

/// How many jitter values a catch-up replay reads from the stream at a
/// time: 32 slots' worth, a 512-byte stack block.
const JITTER_BLOCK: usize = 64;

/// The measurement jitter of one catch-up replay, read from the grid's
/// stream in stack blocks of [`JITTER_BLOCK`] values ([`DetRng::fill_u64`])
/// rather than one serial draw at a time. The amplitude is checked once, and
/// the blocks draw exactly the `undrawn` values the replay asked for — the
/// last block is cut short — so the stream ends where per-slot draws leave
/// it.
struct ReplayJitter<'a> {
    rng: &'a mut DetRng,
    jitter: Jitter,
    block: [u64; JITTER_BLOCK],
    /// The next unread value of `block`, and how many of it are filled.
    next: usize,
    filled: usize,
    /// Values still to draw from the stream.
    undrawn: u64,
}

impl<'a> ReplayJitter<'a> {
    fn new(rng: &'a mut DetRng, noise: f64, draws: u64) -> Self {
        ReplayJitter {
            rng,
            jitter: Jitter::new(noise),
            block: [0; JITTER_BLOCK],
            next: 0,
            filled: 0,
            undrawn: draws,
        }
    }

    /// [`measured_sample`] of one slot: the owner sample perturbed by the
    /// next two values (CPU, then memory).
    fn measure(&mut self, owner: UsageSample) -> UsageSample {
        if self.next == self.filled {
            debug_assert!(self.undrawn > 0, "drew past the replay's draw count");
            let len = self.undrawn.min(JITTER_BLOCK as u64) as usize;
            self.rng.fill_u64(&mut self.block[..len]);
            (self.undrawn, self.next, self.filled) = (self.undrawn - len as u64, 0, len);
        }
        let (cpu, mem) = (self.block[self.next], self.block[self.next + 1]);
        self.next += 2;
        owner.with_jitter(self.jitter.of(cpu), self.jitter.of(mem))
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
/// window (same samples, same order, drawn from `rng` in slot order), the
/// QoS record (same records, same order), the owner state and clock (only
/// the last slot's survive — nothing reads the intermediate ones), and the
/// drain of a completed day (a slot completes at most one day, so the eager
/// walk's per-slot drains are the run's days, in day order). An untraced
/// node with noise off is the constant case: every sample is idle and
/// `QosLedger::record(0, 0, 0, _, _)` is a no-op by inspection, so the run
/// is a plain fill.
///
/// Runs in slot frames, single-node catch-ups and flush chunks. It draws
/// exactly [`replay_draws`] values from `rng`, in blocks
/// ([`ReplayJitter`]), positioned where the serial walk would draw for this
/// node; the jitter perturbs what the LUPA window records but never the
/// owner state QoS sees.
pub(crate) fn replay_node_local(
    config: &GridConfig,
    node: &mut NodeLocal,
    rng: &mut DetRng,
    target: u64,
) -> Vec<DayPeriod> {
    let applied = node.ticks_applied;
    if applied >= target {
        return Vec::new();
    }
    let (tick, noise) = (config.tick, config.lupa_noise);
    let draws = replay_draws(config, node, target);
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
    if trace.is_empty() && noise == 0.0 {
        let idle = std::iter::repeat_n(UsageSample::idle(), (target - applied) as usize);
        lrm.observe_owner_run(last_owner, idle, weekday, minute);
    } else {
        let cap = lrm.policy.max_cpu_fraction;
        let mut jitter = (noise != 0.0).then(|| ReplayJitter::new(rng, noise, draws));
        let measured = (applied..target).map(|k| {
            let owner = trace_sample_at(trace, fired_at(k));
            qos.record(owner.cpu, 0.0, 0.0, cap, SharingDiscipline::Yielding);
            match &mut jitter {
                Some(jitter) => jitter.measure(owner),
                None => owner,
            }
        });
        lrm.observe_owner_run(last_owner, measured, weekday, minute);
    }
    node.ticks_applied = target;
    node.lrm.take_lupa_periods()
}

/// How many raw values ([`DetRng::next_u64`]) [`replay_node_local`] draws
/// to bring `node` to tick `target`: two jitter draws (CPU, then memory) per
/// replayed slot with [`GridConfig::lupa_noise`] on, none with it off or
/// when the node is already there. The count is known before the replay,
/// so a stream cloned before it and advanced by this many
/// ([`DetRng::skip_u64`]) equals the stream after it — the contract
/// [`Flush`] starts each chunk from.
pub(crate) fn replay_draws(config: &GridConfig, node: &NodeLocal, target: u64) -> u64 {
    if config.lupa_noise == 0.0 {
        return 0;
    }
    2 * target.saturating_sub(node.ticks_applied)
}

/// [`replay_node_local`] as the eager walk defines it — one observation,
/// one QoS record and one window drain per slot — kept as the oracle the
/// run form is tested against.
#[cfg(test)]
fn replay_node_local_per_slot(
    config: &GridConfig,
    node: &mut NodeLocal,
    rng: &mut DetRng,
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
        let measured = measured_sample(owner, config.lupa_noise, rng);
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
/// firing at `now`; `rng` is the grid's jitter stream, consumed only when
/// `lupa_noise > 0`.
pub(crate) fn tick_node_local(
    config: &GridConfig,
    node: &mut NodeLocal,
    rng: &mut DetRng,
    id: usize,
    now: SimTime,
    slot: u64,
) -> NodeTickEffects {
    let owner = trace_sample_at(&node.trace, now);
    let measured = measured_sample(owner, config.lupa_noise, rng);
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
/// order the eager walk uses. Every jitter draw comes from `rng` in that
/// order.
/// `cells` is index-aligned with `nodes`. Returns the members' effects in
/// node order and the upload count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tick_members(
    config: &GridConfig,
    gupa: LupaConfig,
    nodes: &mut [NodeLocal],
    cells: &mut [GupaCell],
    rng: &mut DetRng,
    members: &[usize],
    now: SimTime,
    slot: u64,
) -> (Vec<NodeTickEffects>, u64) {
    let mut digested = 0;
    let effects = members
        .iter()
        .map(|&id| {
            let node = &mut nodes[id];
            let mut days = replay_node_local(config, node, rng, slot - 1);
            let mut effects = tick_node_local(config, node, rng, id, now, slot);
            days.append(&mut effects.tick_upload);
            digested += digest(&mut cells[id], gupa, days);
            effects
        })
        .collect();
    (effects, digested)
}

/// The fewest deferred node-slots (nodes × ticks still to replay) one
/// report-flush chunk carries. At ~2¹⁸ a chunk is milliseconds of replay,
/// so a 50k-node flush spreads over every core while a chunk's own costs (a
/// stream clone, a jump-ahead, one claim on the executor) stay noise; a
/// flush below one chunk runs on the calling thread.
pub(crate) const FLUSH_CHUNK_SLOTS: u64 = 1 << 18;

/// The report/ranking flush — every node caught up to one tick and its
/// uploads digested — cut so that chunks of nodes run side by side and
/// still draw exactly the jitter the serial walk draws.
///
/// The serial walk takes the nodes in order, drawing every node's jitter
/// from the grid's one stream. A node's draw count is known before its
/// replay ([`replay_draws`]), so the node table is cut into contiguous
/// chunks, and each chunk gets a copy of the stream advanced past the draws
/// of the nodes before it ([`DetRng::skip_u64`], O(log n)); the stream
/// itself ends advanced past every node. A chunk writes only its own nodes
/// and GUPA cells, so whatever the worker count and whichever chunk
/// finishes first, the flush leaves the state — nodes, cells, stream,
/// upload count — the serial walk leaves.
pub(crate) struct Flush<'a> {
    chunks: Vec<FlushChunk<'a>>,
    /// Less than one chunk of work in all: run on the calling thread.
    inline: bool,
}

/// One contiguous run of nodes, the matching GUPA cells, and the jitter
/// stream where the serial walk reaches `nodes[0]`.
pub(crate) struct FlushChunk<'a> {
    nodes: &'a mut [NodeLocal],
    cells: &'a mut [GupaCell],
    rng: DetRng,
}

impl<'a> Flush<'a> {
    /// Cuts the flush to tick `target` into chunks of at least
    /// `chunk_slots` deferred node-slots (the last may hold fewer), and
    /// advances `rng` past every chunk's draws. `cells` is index-aligned
    /// with `nodes`. `chunk_slots` is [`FLUSH_CHUNK_SLOTS`] except in
    /// tests, which cut small worlds finer.
    pub fn cut(
        config: &GridConfig,
        mut nodes: &'a mut [NodeLocal],
        mut cells: &'a mut [GupaCell],
        rng: &mut DetRng,
        target: u64,
        chunk_slots: u64,
    ) -> Self {
        debug_assert!(cells.len() >= nodes.len());
        let mut chunks = Vec::new();
        let mut total = 0;
        while !nodes.is_empty() {
            let (mut len, mut slots, mut draws) = (0, 0, 0);
            while len < nodes.len() && slots < chunk_slots {
                slots += target.saturating_sub(nodes[len].ticks_applied);
                draws += replay_draws(config, &nodes[len], target);
                len += 1;
            }
            let (chunk_nodes, rest) = std::mem::take(&mut nodes).split_at_mut(len);
            nodes = rest;
            let (chunk_cells, rest) = std::mem::take(&mut cells).split_at_mut(len);
            cells = rest;
            chunks.push(FlushChunk {
                nodes: chunk_nodes,
                cells: chunk_cells,
                rng: rng.clone(),
            });
            rng.skip_u64(draws);
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
            nodes,
            cells,
            mut rng,
        } = self;
        nodes
            .iter_mut()
            .zip(cells)
            .map(|(node, cell)| {
                let days = replay_node_local(config, node, &mut rng, target);
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

    proptest::proptest! {
        /// The run-form replay against the per-slot body it replaced: same
        /// completed days in the same order, same LUPA window, QoS ledger,
        /// tick cursor, owner state and jitter-stream position — over empty
        /// and wrapping traces, noise off and on, and spans that start
        /// mid-day, cross zero to three day rollovers and end on either
        /// side of a jitter-block edge.
        #[test]
        fn run_replay_matches_the_per_slot_body(seed in proptest::arbitrary::any::<u64>()) {
            for salt in crate::par::chaos_salts() {
                let seed = seed ^ salt;
                let mut gen = DetRng::new(seed);
                let trace_len = gen.index(700);
                let noisy = gen.bernoulli(0.5);
                let applied = gen.uniform_range(0, 600);
                let span = gen.uniform_range(0, 3 * 288 + 100);
                let case = format!(
                    "seed {seed:#x}: trace of {trace_len}, noisy {noisy}, {applied} + {span} ticks"
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
                let (mut run, mut run_rng) = (node(Arc::clone(&trace)), DetRng::new(seed));
                let (mut slot, mut slot_rng) = (node(trace), DetRng::new(seed));
                // Both start mid-history, brought there by the oracle.
                replay_node_local_per_slot(config, &mut run, &mut run_rng, applied);
                replay_node_local_per_slot(config, &mut slot, &mut slot_rng, applied);
                let target = applied + span;
                // The draw count is known up front: a pre-replay copy of the
                // stream skipped by it lands where the replay leaves the
                // stream.
                let mut skipped = run_rng.clone();
                skipped.skip_u64(replay_draws(config, &run, target));
                let run_days = replay_node_local(config, &mut run, &mut run_rng, target);
                proptest::prop_assert_eq!(&skipped, &run_rng, "{}", case);
                let slot_days = replay_node_local_per_slot(config, &mut slot, &mut slot_rng, target);
                proptest::prop_assert_eq!(run_days, slot_days, "{}", case);
                proptest::prop_assert_eq!(
                    run.lrm.lupa_window().partial_day(),
                    slot.lrm.lupa_window().partial_day(),
                    "{}", case
                );
                proptest::prop_assert!(run.lrm.lupa_window().completed().is_empty(), "{}", case);
                proptest::prop_assert_eq!(run.lrm.owner_load(), slot.lrm.owner_load(), "{}", case);
                proptest::prop_assert_eq!(
                    run.lrm.grid_share().to_bits(),
                    slot.lrm.grid_share().to_bits(),
                    "{}", case
                );
                proptest::prop_assert_eq!(&run.qos, &slot.qos, "{}", case);
                proptest::prop_assert_eq!(run.ticks_applied, slot.ticks_applied, "{}", case);
                proptest::prop_assert_eq!(run_rng.next_u64(), slot_rng.next_u64(), "{}", case);
            }
        }
    }

    #[test]
    fn replay_to_an_already_applied_tick_is_a_no_op() {
        let config = &config(0.05);
        let mut node = node(Trace::default());
        let mut rng = DetRng::new(1);
        replay_node_local(config, &mut node, &mut rng, 300);
        let before = rng.clone();
        let uploads = replay_node_local(config, &mut node, &mut rng, 200);
        assert!(uploads.is_empty());
        assert_eq!(node.ticks_applied, 300);
        assert_eq!(rng, before);
    }

    /// An idle `n`-node world and a jitter stream.
    fn world(n: usize) -> (Vec<NodeLocal>, Vec<GupaCell>, DetRng) {
        (
            (0..n).map(|_| node(Trace::default())).collect(),
            (0..n).map(|_| GupaCell::default()).collect(),
            DetRng::new(9),
        )
    }

    /// The serial flush [`Flush`] replaced, kept as its oracle: every node
    /// in order, each drawing from the one stream.
    fn serial_flush(
        config: &GridConfig,
        nodes: &mut [NodeLocal],
        cells: &mut [GupaCell],
        rng: &mut DetRng,
        target: u64,
    ) -> u64 {
        let gupa = LupaConfig::default();
        nodes
            .iter_mut()
            .zip(cells)
            .map(|(node, cell)| digest(cell, gupa, replay_node_local(config, node, rng, target)))
            .sum()
    }

    /// A world about to be flushed to its returned target tick (6–9 days
    /// in): a mix of traced nodes, each with a history of its own length,
    /// and untraced ones, each already at its own tick with the uploads
    /// that got it there digested — node 0 at tick 0, about a quarter at
    /// the target, as `catch_up_node` leaves them — and a partly drawn
    /// stream.
    fn flush_world(config: &GridConfig, seed: u64) -> (Vec<NodeLocal>, Vec<GupaCell>, DetRng, u64) {
        let mut gen = DetRng::new(seed);
        let target = 6 * 288 + gen.uniform_range(0, 3 * 288);
        let mut setup = DetRng::new(!seed);
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
            let days = replay_node_local(config, &mut local, &mut setup, applied);
            digest(&mut cell, LupaConfig::default(), days);
            nodes.push(local);
            cells.push(cell);
        }
        let mut rng = DetRng::with_stream(seed, integrade_simnet::rng::streams::LUPA_JITTER);
        rng.skip_u64(gen.uniform_range(0, 1_000));
        (nodes, cells, rng, target)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(8))]

        /// The chunked flush against the serial one at 1, 2, 3 and 8
        /// workers, noise off and on, and chunk sizes from one node-slot to
        /// the production size: equal LUPA windows, QoS ledgers, tick
        /// cursors, GUPA cells, upload counts and final stream positions.
        #[test]
        fn chunked_flush_matches_the_serial_flush(seed in proptest::arbitrary::any::<u64>()) {
            for salt in crate::par::chaos_salts() {
                let seed = seed ^ salt;
                let sizes = [1, 97, 1_000, 5_000, FLUSH_CHUNK_SLOTS];
                let chunk_slots = sizes[DetRng::new(seed).index(sizes.len())];
                for noise in [0.0, 0.05] {
                    let config = &config(noise);
                    let (mut nodes, mut cells, mut rng, target) = flush_world(config, seed);
                    let uploads = serial_flush(config, &mut nodes, &mut cells, &mut rng, target);
                    proptest::prop_assert!(uploads > 0, "node 0 crosses a midnight");
                    for workers in [1, 2, 3, 8] {
                        let case = format!(
                            "seed {seed:#x}, noise {noise}, {workers} workers, chunks of {chunk_slots}"
                        );
                        let (mut n, mut c, mut r, _) = flush_world(config, seed);
                        let chunked: u64 = Flush::cut(config, &mut n, &mut c, &mut r, target, chunk_slots)
                            .run(workers, |chunk| chunk.replay(config, LupaConfig::default(), target))
                            .into_iter()
                            .sum();
                        proptest::prop_assert_eq!(chunked, uploads, "{}", case);
                        proptest::prop_assert_eq!(&r, &rng, "{}", case);
                        proptest::prop_assert!(c == cells, "{}: GUPA cells diverged", case);
                        for (id, (a, b)) in n.iter().zip(&nodes).enumerate() {
                            proptest::prop_assert_eq!(a.ticks_applied, b.ticks_applied, "{} node {}", case, id);
                            proptest::prop_assert_eq!(
                                a.lrm.lupa_window().partial_day(),
                                b.lrm.lupa_window().partial_day(),
                                "{} node {}", case, id
                            );
                            proptest::prop_assert_eq!(&a.qos, &b.qos, "{} node {}", case, id);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_flush_below_one_chunk_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let config = &config(0.05);
        for (chunk_slots, inline) in [(FLUSH_CHUNK_SLOTS, true), (1, false)] {
            let (mut nodes, mut cells, mut rng) = world(7);
            let threads = Flush::cut(config, &mut nodes, &mut cells, &mut rng, 300, chunk_slots)
                .run(8, |chunk| {
                    chunk.replay(config, LupaConfig::default(), 300);
                    std::thread::current().id()
                });
            assert_eq!(threads.len(), if inline { 1 } else { 7 });
            assert_eq!(threads.iter().all(|t| *t == caller), inline);
        }
    }
}
