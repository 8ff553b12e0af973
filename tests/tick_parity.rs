//! Tick-engine parity: the lazy slot walk (`TickMode::Lazy`) must be
//! *observably identical* to the exhaustive per-node reference walk
//! (`TickMode::Reference`) it replaced — same event logs, same completions
//! and makespans, same network traffic, same update-protocol counters, same
//! merged owner-QoS ledger — across seeds, owner-trace mixes,
//! delta-suppression settings and injected faults.
//!
//! The reference walk is kept in the tree exactly so this oracle exists; a
//! divergence here means the lazy catch-up, timer parking or the frame's
//! effect order broke semantics, not just performance. The LUPA
//! measurement jitter gets dedicated tests: a noisy run reproduces itself
//! exactly, both engines learn the same noisy histories, the jitter moves
//! those histories and nothing else, and the histories of a flush-heavy
//! noisy grid are pinned by hash, so a change to how a sample's jitter is
//! keyed or mapped fails.
//!
//! The seed matrix defaults to a small set for `cargo test`; CI widens it
//! via the `CHAOS_SEEDS` environment variable (comma-separated u64s).

use integrade::core::asct::{JobSpec, JobState};
use integrade::core::grid::{Grid, GridBuilder, GridConfig, NodeSetup, TickMode};
use integrade::core::types::NodeId;
use integrade::simnet::faults::FaultPlan;
use integrade::simnet::time::{SimDuration, SimTime};
use integrade::usage::sample::{UsageSample, Weekday};
use proptest::prelude::*;

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(spec) => {
            let seeds: Vec<u64> = spec
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect();
            assert!(!seeds.is_empty(), "CHAOS_SEEDS set but empty: {spec:?}");
            seeds
        }
        Err(_) => vec![1, 2, 3, 4],
    }
}

/// Office-hours owner trace: busy weekdays 9–18h, near-idle otherwise.
fn office_trace() -> Vec<UsageSample> {
    let slots_per_day = 288;
    let mut trace = Vec::with_capacity(slots_per_day * 7);
    for day in 0..7u64 {
        let weekday = Weekday::from_day_number(day);
        for slot in 0..slots_per_day {
            let hour = slot as f64 * 24.0 / slots_per_day as f64;
            let busy = !weekday.is_weekend() && (9.0..18.0).contains(&hour);
            trace.push(if busy {
                UsageSample::new(0.8, 0.5, 0.1, 0.05)
            } else {
                UsageSample::new(0.02, 0.05, 0.0, 0.0)
            });
        }
    }
    trace
}

/// A mixed cluster: `traced` office-hours nodes, the rest always idle —
/// so both the lazily replayed sampling path (traced) and the parked-timer
/// path (untraced + suppression) are exercised.
fn build_grid(mode: TickMode, seed: u64, nodes: usize, traced: usize, delta: bool) -> Grid {
    let config = GridConfig::builder()
        .seed(seed)
        .gupa_warmup_days(0)
        // Checkpointing on: replicas keep holder nodes engaged and drive
        // the shared-payload store path from inside the tick loop.
        .sequential_checkpoint_mips_s(30_000.0)
        .delta_suppression(delta)
        .tick_mode(mode)
        .build();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster(
        (0..nodes)
            .map(|i| {
                if i < traced {
                    NodeSetup {
                        trace: office_trace(),
                        ..NodeSetup::idle_desktop()
                    }
                } else {
                    NodeSetup::idle_desktop()
                }
            })
            .collect(),
    );
    builder.build()
}

/// Drives one grid through the shared scenario script.
fn run_scenario(grid: &mut Grid, seed: u64, drop_pct: f64, crash: bool) {
    if drop_pct > 0.0 {
        grid.set_fault_plan(
            FaultPlan::new(seed)
                .with_drop_probability(drop_pct)
                .with_jitter(SimDuration::from_millis(50)),
        );
    }
    grid.submit(JobSpec::sequential("parity-seq", 300_000));
    grid.submit(JobSpec::bag_of_tasks("parity-bag", 3, 60_000));
    grid.run_until(SimTime::from_secs(1800));
    if crash {
        grid.crash_node(NodeId(0));
        grid.run_until(SimTime::from_secs(2400));
        grid.restore_node(NodeId(0));
    }
    grid.submit(JobSpec::sequential("parity-late", 90_000));
    grid.run_until(SimTime::from_secs(6 * 3600));
}

/// Asserts every externally observable artifact matches bit for bit.
fn assert_execution_parity(fast: &mut Grid, reference: &mut Grid, ctx: &str) {
    assert_eq!(
        fast.log().records(),
        reference.log().records(),
        "{ctx}: event logs diverged"
    );
    let fast_report = fast.report();
    let ref_report = reference.report();
    assert_eq!(
        fast_report.records, ref_report.records,
        "{ctx}: job records diverged"
    );
    assert_eq!(fast_report.net, ref_report.net, "{ctx}: net stats diverged");
    assert_eq!(
        fast_report.updates, ref_report.updates,
        "{ctx}: update-protocol stats diverged"
    );
    assert_eq!(
        fast_report.trader_queries, ref_report.trader_queries,
        "{ctx}: trader query counts diverged"
    );
    assert_eq!(
        fast_report.qos, ref_report.qos,
        "{ctx}: QoS ledgers diverged"
    );
    assert_eq!(
        fast_report.overhead, ref_report.overhead,
        "{ctx}: overhead ledgers diverged"
    );
    assert_eq!(
        fast_report.gupa_models, ref_report.gupa_models,
        "{ctx}: GUPA model counts diverged"
    );
    // Guard against a vacuous scenario: the workload must actually run.
    assert!(
        fast_report
            .records
            .iter()
            .any(|r| r.state == JobState::Completed),
        "{ctx}: no job completed — scenario exercised nothing"
    );
    // Internal per-node state converges too once both sides are flushed
    // (report() catches every node up).
    for n in 0..fast.node_count() as u32 {
        let a = fast.lrm(NodeId(n)).unwrap();
        let b = reference.lrm(NodeId(n)).unwrap();
        assert_eq!(
            a.running(),
            b.running(),
            "{ctx}: node {n} running sets diverged"
        );
        assert_eq!(
            a.reservations(),
            b.reservations(),
            "{ctx}: node {n} reservations diverged"
        );
    }
}

/// [`assert_execution_parity`] plus the pattern learner's state: every
/// node's trained GUPA model and in-progress LUPA day. These are what the
/// lazy catch-up replay writes, so comparing them checks the replay kernel
/// against the eager walk itself, not just against what execution shows of
/// it. Holds with measurement noise off and on: a sample's jitter is keyed
/// by its node and slot, whichever engine measures it.
fn assert_parity(fast: &mut Grid, reference: &mut Grid, ctx: &str) {
    assert_execution_parity(fast, reference, ctx);
    for n in 0..fast.node_count() as u32 {
        let node = NodeId(n);
        assert_eq!(
            fast.gupa().model(node),
            reference.gupa().model(node),
            "{ctx}: node {n} GUPA models diverged"
        );
        assert_eq!(
            fast.lrm(node).unwrap().lupa_window().partial_day(),
            reference.lrm(node).unwrap().lupa_window().partial_day(),
            "{ctx}: node {n} LUPA partial days diverged"
        );
    }
}

/// The default engine (`GridConfig::default()`'s lazy walk, set by nobody)
/// against the reference walk.
fn check_parity(seed: u64, nodes: usize, traced: usize, delta: bool, drop_pct: f64, crash: bool) {
    let default_mode = GridConfig::default().tick_mode;
    assert_eq!(default_mode, TickMode::Lazy);
    let mut fast = build_grid(default_mode, seed, nodes, traced, delta);
    let mut reference = build_grid(TickMode::Reference, seed, nodes, traced, delta);
    run_scenario(&mut fast, seed, drop_pct, crash);
    run_scenario(&mut reference, seed, drop_pct, crash);
    let ctx = format!(
        "seed {seed}, {nodes} nodes ({traced} traced), delta={delta}, \
         drop={drop_pct}, crash={crash}"
    );
    assert_parity(&mut fast, &mut reference, &ctx);
}

#[test]
fn parity_across_chaos_seed_matrix_with_faults() {
    for seed in chaos_seeds() {
        check_parity(seed, 8, 3, false, 0.05, true);
    }
}

#[test]
fn learner_state_parity_through_training_and_retraining() {
    // The other suites stop before the first midnight with no warm-up, so
    // their models are all `None`. Here six warm-up days put every traced
    // node one upload short of the training threshold; the run crosses two
    // midnights, so each trains at the first and retrains at the second —
    // by lazy replay in the lazy walk, slot by slot in the reference. With
    // the default 30 s update timer every catch-up spans a few slots, so
    // the lazy walk digests the two days apart. With the timer and the
    // crash detector pushed past the horizon, nodes nothing engages wait for
    // the report flush, whose one catch-up hands them both days as one batch
    // — one training where the reference trains and then retrains.
    let far = SimDuration::from_secs(4 * 24 * 3600);
    let build = |mode, timers: Option<SimDuration>| {
        let mut config = GridConfig::builder()
            .seed(5)
            .gupa_warmup_days(6)
            .tick_mode(mode);
        if let Some(period) = timers {
            config = config.update_period(period).crash_silence(period);
        }
        let mut builder = GridBuilder::new(config.build());
        builder.add_cluster(
            (0..8)
                .map(|i| NodeSetup {
                    // Traces of different lengths wrap at different slots.
                    trace: office_trace()[..288 * (7 - i % 3)].to_vec(),
                    ..NodeSetup::idle_desktop()
                })
                .collect(),
        );
        builder.build()
    };
    let run = |grid: &mut Grid| {
        grid.submit(JobSpec::sequential("learner-seq", 300_000));
        grid.run_until(SimTime::from_secs(30 * 3600));
        grid.submit(JobSpec::bag_of_tasks("learner-bag", 3, 60_000));
        grid.run_until(SimTime::from_secs(54 * 3600));
    };
    for timers in [None, Some(far)] {
        let ctx = format!("two midnights, update timer {timers:?}");
        let mut reference = build(TickMode::Reference, timers);
        run(&mut reference);
        assert_eq!(
            reference.report().gupa_models,
            8,
            "{ctx}: every node trained"
        );
        assert_eq!(reference.gupa().history_days(NodeId(0)), 8, "{ctx}");
        let mut lazy = build(TickMode::Lazy, timers);
        run(&mut lazy);
        // Nodes still holding only their warm-up days get both midnights
        // from the flush's one catch-up.
        let batched: Vec<NodeId> = (0..8)
            .map(NodeId)
            .filter(|&n| lazy.gupa().history_days(n) == 6)
            .collect();
        lazy.report();
        for &node in &batched {
            assert_eq!(lazy.gupa().history_days(node), 8, "{ctx}: {node:?}");
        }
        if timers.is_some() {
            assert!(
                !batched.is_empty(),
                "{ctx}: no node got two days in one catch-up — the batch digest went untested"
            );
        }
        assert_parity(&mut lazy, &mut reference, &ctx);
    }
}

#[test]
fn parity_with_delta_suppression_and_parked_timers() {
    // Delta suppression plus idle nodes is the configuration where the
    // lazy walk actually parks update timers — the riskiest divergence
    // surface, so it gets its own deterministic pass.
    for seed in chaos_seeds() {
        check_parity(seed, 8, 2, true, 0.0, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Randomized scenario shapes: any mix of traced nodes, suppression,
    /// loss and a mid-run crash must leave the lazy walk and the reference
    /// walk indistinguishable.
    #[test]
    fn parity_is_seed_and_shape_independent(
        seed in 1u64..1_000_000,
        nodes in 4usize..10,
        traced_frac in 0usize..4,
        delta in any::<bool>(),
        drop in prop_oneof![Just(0.0), Just(0.05), Just(0.15)],
        crash in any::<bool>(),
    ) {
        let traced = nodes * traced_frac / 4;
        let mut reference = build_grid(TickMode::Reference, seed, nodes, traced, delta);
        run_scenario(&mut reference, seed, drop, crash);
        let ctx = format!(
            "seed {seed}, {nodes} nodes ({traced} traced), delta={delta}, \
             drop={drop}, crash={crash}"
        );
        let mut lazy = build_grid(TickMode::Lazy, seed, nodes, traced, delta);
        run_scenario(&mut lazy, seed, drop, crash);
        assert_parity(&mut lazy, &mut reference, &ctx);
    }
}

/// Gray-failure parity: a fault plan carrying every degradation primitive
/// — a CPU derate, a limping link and a flapping host — with speculative
/// re-execution armed, must still replay bit-for-bit across every tick
/// engine. The straggler detector and twin races run in the
/// single-threaded phase, so their log stream is part of the contract.
#[test]
fn gray_failure_speculation_parity_across_all_modes() {
    use integrade::simnet::faults::{DerateWindow, HostFlap, LinkLimp};

    fn build_gray(mode: TickMode, seed: u64) -> Grid {
        let config = GridConfig::builder()
            .seed(seed)
            .gupa_warmup_days(0)
            .sequential_checkpoint_mips_s(30_000.0)
            .speculation(true)
            .tick_mode(mode)
            .build();
        let mut builder = GridBuilder::new(config);
        builder.add_cluster(
            (0..8)
                .map(|i| {
                    if i < 3 {
                        NodeSetup {
                            trace: office_trace(),
                            ..NodeSetup::idle_desktop()
                        }
                    } else {
                        NodeSetup::idle_desktop()
                    }
                })
                .collect(),
        );
        builder.build()
    }

    fn run_gray(grid: &mut Grid, seed: u64) {
        let plan = FaultPlan::new(seed)
            .with_drop_probability(0.03)
            .with_jitter(SimDuration::from_millis(30))
            .with_derate(DerateWindow {
                host: grid.host_of(NodeId(3)),
                start: SimTime::from_secs(0),
                end: SimTime::from_secs(24 * 3600),
                factor: 0.25,
            })
            .with_limp(LinkLimp {
                a: grid.host_of(NodeId(4)),
                b: grid.host_of(NodeId(5)),
                added_latency: SimDuration::from_millis(200),
                start: SimTime::from_secs(600),
                end: SimTime::from_secs(3600),
            })
            .with_flap(HostFlap {
                host: grid.host_of(NodeId(7)),
                first_down: SimTime::from_secs(900),
                down_for: SimDuration::from_secs(120),
                up_for: SimDuration::from_secs(900),
                cycles: 2,
            });
        grid.set_fault_plan(plan);
        grid.submit(JobSpec::bag_of_tasks("gray-bag", 6, 300_000));
        grid.submit(JobSpec::sequential("gray-seq", 120_000));
        grid.run_until(SimTime::from_secs(6 * 3600));
    }

    for seed in chaos_seeds() {
        let mut reference = build_gray(TickMode::Reference, seed);
        run_gray(&mut reference, seed);
        let mut lazy = build_gray(TickMode::Lazy, seed);
        run_gray(&mut lazy, seed);
        assert_parity(
            &mut lazy,
            &mut reference,
            &format!("seed {seed}, gray plan"),
        );
    }
}

/// A grid with the LUPA measurement jitter at amplitude `noise`: 8 nodes,
/// 3 traced, checkpointing on. Jitter is the only random per-node work, so
/// these scenarios exercise its half of the determinism contract.
fn build_noisy(mode: TickMode, noise: f64, seed: u64) -> Grid {
    let config = GridConfig::builder()
        .seed(seed)
        .gupa_warmup_days(0)
        .sequential_checkpoint_mips_s(30_000.0)
        .lupa_noise(noise)
        .tick_mode(mode)
        .build();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster(
        (0..8)
            .map(|i| {
                if i < 3 {
                    NodeSetup {
                        trace: office_trace(),
                        ..NodeSetup::idle_desktop()
                    }
                } else {
                    NodeSetup::idle_desktop()
                }
            })
            .collect(),
    );
    builder.build()
}

/// Runs past one midnight rollover so every node completes a day period and
/// uploads its (jittered) samples to the GUPA.
fn run_noisy(grid: &mut Grid) {
    grid.submit(JobSpec::sequential("noisy-seq", 300_000));
    grid.submit(JobSpec::bag_of_tasks("noisy-bag", 3, 60_000));
    grid.run_until(SimTime::from_secs(26 * 3600));
}

/// Every node's uploaded GUPA history (the day curves its cell stores) —
/// the one artifact the measurement jitter is allowed to move.
fn gupa_histories(grid: &Grid) -> Vec<Vec<(Weekday, Vec<f64>)>> {
    (0..grid.node_count() as u32)
        .map(|n| {
            grid.gupa()
                .day_curves(NodeId(n))
                .map(|(weekday, curve)| (weekday, curve.to_vec()))
                .collect()
        })
        .collect()
}

#[test]
fn noisy_fixed_width_reproduces_itself() {
    // Same seed → bit-for-bit, including the jittered GUPA history content.
    let mut first = build_noisy(TickMode::Lazy, 0.05, 11);
    let mut second = build_noisy(TickMode::Lazy, 0.05, 11);
    run_noisy(&mut first);
    run_noisy(&mut second);
    let ctx = "lupa_noise, self-reproducibility";
    assert_parity(&mut first, &mut second, ctx);
    assert_eq!(
        gupa_histories(&first),
        gupa_histories(&second),
        "{ctx}: jittered GUPA histories diverged"
    );
    assert!(
        first.gupa().uploads() > 0,
        "{ctx}: no uploads — the rollover never happened"
    );
}

#[test]
fn noise_moves_only_the_learned_histories() {
    // A sample's jitter is keyed by its node and slot, so both engines
    // measure every sample alike and learn the same noisy histories and
    // models. The jitter feeds only the pattern learner, never the owner
    // state that drives eviction, QoS, status updates or uploads: each noisy
    // run shows execution exactly what a noise-free run shows, while the
    // measured samples the GUPA stores genuinely differ.
    let mut quiet = build_noisy(TickMode::Lazy, 0.0, 11);
    run_noisy(&mut quiet);
    let quiet_histories = gupa_histories(&quiet);
    let mut lazy = build_noisy(TickMode::Lazy, 0.05, 11);
    let mut reference = build_noisy(TickMode::Reference, 0.05, 11);
    run_noisy(&mut lazy);
    run_noisy(&mut reference);
    assert_parity(&mut lazy, &mut reference, "lupa_noise, Lazy vs Reference");
    let histories = gupa_histories(&lazy);
    assert_eq!(
        histories,
        gupa_histories(&reference),
        "lupa_noise: the engines learned different GUPA histories"
    );
    for (mode, noisy) in [
        (TickMode::Lazy, &mut lazy),
        (TickMode::Reference, &mut reference),
    ] {
        let ctx = format!("{mode:?} with lupa_noise vs without");
        assert_execution_parity(noisy, &mut quiet, &ctx);
    }
    // Same shape — one upload per node per rollover...
    assert_eq!(
        histories.iter().map(Vec::len).collect::<Vec<_>>(),
        quiet_histories.iter().map(Vec::len).collect::<Vec<_>>(),
        "lupa_noise: upload counts diverged"
    );
    // ...but different content, or the jitter never perturbed a sample and
    // this suite is vacuous.
    assert_ne!(
        histories, quiet_histories,
        "lupa_noise: no jitter was applied"
    );
}

/// FNV-1a over 64-bit words, fed little-endian byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// FNV-1a over every node's GUPA history: node id, then each stored day's
/// weekday and feature-curve bits, in arrival order.
fn gupa_history_hash(grid: &Grid) -> u64 {
    let mut hash = Fnv::new();
    for n in 0..grid.node_count() as u32 {
        hash.feed(u64::from(n));
        for (weekday, curve) in grid.gupa().day_curves(NodeId(n)) {
            hash.feed(u64::from(weekday.index()));
            for v in curve {
                hash.feed(v.to_bits());
            }
        }
    }
    hash.0
}

/// FNV-1a over every node's trained GUPA model: node id, then the model's
/// category count (0 for no model), each centroid's bits and each retained
/// day's category assignment. The history hash cannot see a retrain that
/// fit other clusters to the same days; this one can.
fn gupa_model_hash(grid: &Grid) -> u64 {
    let mut hash = Fnv::new();
    for n in 0..grid.node_count() as u32 {
        hash.feed(u64::from(n));
        let Some(model) = grid.gupa().model(NodeId(n)) else {
            hash.feed(0);
            continue;
        };
        hash.feed(model.categories().len() as u64);
        for category in model.categories() {
            for v in &category.centroid {
                hash.feed(v.to_bits());
            }
        }
        for day in model.days() {
            hash.feed(day.category as u64);
        }
    }
    hash.0
}

#[test]
fn jittered_learner_state_is_pinned() {
    // A flush-heavy noisy grid: the update timer and the crash detector are
    // pushed past the horizon, so only the first quarter of the nodes is
    // ever caught up one at a time (by its single update) and the report
    // flush replays everything else, measuring ~3 days of jittered samples
    // per node — enough node-slots for the flush to run in several chunks.
    // A sample's jitter is keyed by its node and slot, so the order in which
    // nodes are caught up cannot move the hash; a change to the key or to
    // the jitter formula does. The models trained on those histories are
    // pinned beside them, so an engine change that trains or retrains on the
    // same days differently moves the second hash.
    const PINNED: u64 = 0x28b4_0956_5875_7835;
    const PINNED_MODELS: u64 = 0x48a5_ef4d_9ab4_afe6;
    let horizon = SimDuration::from_secs(3 * 24 * 3600);
    let far = SimDuration::from_micros(horizon.as_micros() * 4);
    let config = GridConfig::builder()
        .seed(29)
        .gupa_warmup_days(6)
        .lupa_noise(0.05)
        .delta_suppression(true)
        .update_period(far)
        .crash_silence(far)
        .build();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster(
        (0..3_000)
            .map(|i| NodeSetup {
                trace: if i % 7 == 0 {
                    office_trace()
                } else {
                    Vec::new()
                },
                ..NodeSetup::idle_desktop()
            })
            .collect(),
    );
    let mut grid = builder.build();
    grid.submit(JobSpec::sequential("pinned-seq", 300_000));
    grid.submit(JobSpec::bag_of_tasks("pinned-bag", 3, 60_000));
    grid.run_until(SimTime::ZERO + horizon);
    let report = grid.report();
    assert!(report.gupa_models > 0, "no node trained");
    assert_eq!(
        gupa_history_hash(&grid),
        PINNED,
        "jittered GUPA histories moved"
    );
    assert_eq!(
        gupa_model_hash(&grid),
        PINNED_MODELS,
        "GUPA models trained on the jittered histories moved"
    );
}

/// Byzantine parity: a sabotage plan — one loner, one colluding pair —
/// with the full certification stack armed (voting quorum, spot-check
/// probes, credibility-adaptive trust) must replay bit-for-bit across
/// both tick engines. Sabotage decisions and probe designations are pure
/// hashes of part identity, never live RNG draws, so the adversarial
/// machinery costs the lazy walk nothing in determinism.
#[test]
fn sabotage_and_certification_parity_across_all_modes() {
    use integrade::simnet::faults::Saboteur;

    fn build_cert(mode: TickMode, seed: u64) -> Grid {
        let config = GridConfig::builder()
            .seed(seed)
            .gupa_warmup_days(0)
            .sequential_checkpoint_mips_s(30_000.0)
            .certification(true)
            .cert_replication(2)
            .cert_adaptive(true)
            .cert_spot_check_rate(0.2)
            .cert_trust_threshold(3)
            .tick_mode(mode)
            .build();
        let mut builder = GridBuilder::new(config);
        builder.add_cluster((0..8).map(|_| NodeSetup::idle_desktop()).collect());
        builder.build()
    }

    fn run_cert(grid: &mut Grid, seed: u64) {
        let mut plan = FaultPlan::new(seed).with_drop_probability(0.02);
        for n in 0..3u32 {
            plan = plan.with_saboteur(Saboteur {
                host: grid.host_of(NodeId(n)),
                start: SimTime::from_secs(0),
                end: SimTime::from_secs(24 * 3600),
                probability: 0.5,
                collusion: if n == 0 { None } else { Some(3) },
            });
        }
        grid.set_fault_plan(plan);
        grid.submit(JobSpec::bag_of_tasks("cert-bag", 8, 60_000));
        grid.submit(JobSpec::sequential("cert-seq", 120_000));
        grid.run_until(SimTime::from_secs(12 * 3600));
    }

    /// The certification counters are part of the parity contract too —
    /// including the omniscient delivered-error count.
    fn cert_counters(grid: &Grid) -> Vec<(String, u64)> {
        let snap = grid.metrics_snapshot();
        [
            "grid_cert_votes",
            "grid_cert_certified",
            "grid_cert_reexecutions",
            "grid_cert_mismatches",
            "grid_cert_spot_checks",
            "grid_cert_blacklisted",
            "grid_cert_wrong_delivered",
        ]
        .iter()
        .map(|n| (n.to_string(), snap.counter(n).unwrap_or(0)))
        .collect()
    }

    for seed in chaos_seeds() {
        let mut reference = build_cert(TickMode::Reference, seed);
        run_cert(&mut reference, seed);
        let ref_counters = cert_counters(&reference);
        assert!(
            reference.log().count("cert.certified") >= 1,
            "seed {seed}: the scenario must actually certify something"
        );
        let mut lazy = build_cert(TickMode::Lazy, seed);
        run_cert(&mut lazy, seed);
        assert_eq!(
            cert_counters(&lazy),
            ref_counters,
            "seed {seed}: cert counters diverged"
        );
        assert_parity(
            &mut lazy,
            &mut reference,
            &format!("seed {seed}, sabotage plan"),
        );
    }
}
