use super::repo_flow::{checkpoint_payload, verified};
use super::wire::REQUEST_TIMEOUT;
use super::*;
use crate::lrm::DueCheckpoint;
use crate::protocol::{CheckpointBlob, FetchCheckpointReply, UpdateAck, OP_LAUNCH};
use crate::repo::crc32;
use integrade_obs::span::SpanKind::{
    CancelPart, FetchCkpt, Launch, RereplFetch, Reserve, StoreCkpt,
};
use integrade_usage::sample::{DayPeriod, Weekday};
use std::sync::Arc;

/// `nodes` always-idle desktops under `config`, without GUPA warm-up.
fn idle_grid(nodes: usize, config: GridConfig) -> Grid {
    let mut builder = GridBuilder::new(GridConfig {
        gupa_warmup_days: 0,
        ..config
    });
    builder.add_cluster((0..nodes).map(|_| NodeSetup::idle_desktop()).collect());
    builder.build()
}

fn small_grid(strategy: Strategy) -> Grid {
    let config = GridConfig {
        strategy,
        ..Default::default()
    };
    idle_grid(4, config)
}

#[test]
fn sequential_job_completes() {
    let mut grid = small_grid(Strategy::AvailabilityOnly);
    // 1500 MIPS-s on a 500 MIPS node at 30% cap = 10 s of CPU... but
    // progress advances per 5-min tick, so it completes on the first
    // tick after launch.
    let job = grid.submit(JobSpec::sequential("hello", 1500));
    grid.run_until(SimTime::from_secs(3600));
    let record = grid.job_record(job).unwrap();
    assert_eq!(record.state, JobState::Completed, "{record:?}");
    assert!(record.makespan().unwrap() <= SimDuration::from_mins(10));
    assert_eq!(record.parts_done, 1);
}

#[test]
fn protocol_messages_flow_through_the_network() {
    let mut grid = small_grid(Strategy::AvailabilityOnly);
    grid.submit(JobSpec::sequential("hello", 1500));
    grid.run_until(SimTime::from_secs(600));
    let report = grid.report();
    // Info updates + reserve + launch + done at minimum.
    assert!(report.net.messages > 10, "messages={}", report.net.messages);
    assert!(report.updates.accepted > 0);
    assert!(report.trader_queries >= 1);
}

#[test]
fn bag_of_tasks_distributes_across_nodes() {
    let mut grid = small_grid(Strategy::AvailabilityOnly);
    let job = grid.submit(JobSpec::bag_of_tasks("bag", 8, 90_000));
    grid.run_until(SimTime::from_secs(4 * 3600));
    let record = grid.job_record(job).unwrap();
    assert_eq!(record.state, JobState::Completed, "{record:?}");
    assert_eq!(record.parts_done, 8);
}

#[test]
fn bsp_job_completes_on_gang() {
    let mut grid = small_grid(Strategy::AvailabilityOnly);
    let job = grid.submit(JobSpec::bsp("bsp", 3, 20, 3000, 10_000));
    grid.run_until(SimTime::from_secs(8 * 3600));
    let record = grid.job_record(job).unwrap();
    assert_eq!(record.state, JobState::Completed, "{record:?}");
    assert_eq!(record.parts_done, 3);
}

#[test]
fn oversized_bsp_job_fails_cleanly() {
    let config = GridConfig {
        max_attempts: 4,
        ..Default::default()
    };
    let mut grid = idle_grid(4, config);
    let job = grid.submit(JobSpec::bsp("too-big", 10, 5, 100, 100)); // only 4 nodes
    grid.run_until(SimTime::from_secs(4 * 3600));
    let record = grid.job_record(job).unwrap();
    assert_eq!(record.state, JobState::Failed);
}

/// A trace where the owner is busy 09:00–18:00 every weekday.
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

#[test]
fn owner_return_evicts_and_reschedules() {
    let config = GridConfig {
        gupa_warmup_days: 0,
        ..Default::default()
    };
    let mut builder = GridBuilder::new(config);
    // One office-hours node plus one always-idle node.
    let office = NodeSetup {
        trace: office_trace(),
        ..NodeSetup::idle_desktop()
    };
    builder.add_cluster(vec![office, NodeSetup::idle_desktop()]);
    let mut grid = builder.build();
    // Start the run at Monday 08:30: the office node is idle but the
    // owner arrives at 09:00. The preference (fastest CPU) ties, so the
    // first-ranked node may be the office node; a long job submitted now
    // gets evicted there and must migrate.
    let job = grid.submit(JobSpec::sequential("long", 3_000_000)); // ~5.5h at 150 MIPS
    grid.run_until(SimTime::from_secs(26 * 3600));
    let record = grid.job_record(job).unwrap();
    assert_eq!(record.state, JobState::Completed, "{record:?}");
    let report = grid.report();
    // The QoS invariant: the grid never exceeded the NCC caps.
    assert_eq!(report.qos.cap_violations, 0);
    assert_eq!(report.qos.mean_slowdown(), 1.0);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut grid = small_grid(Strategy::Random);
        grid.submit(JobSpec::bag_of_tasks("bag", 6, 200_000));
        grid.run_until(SimTime::from_secs(6 * 3600));
        let report = grid.report();
        (
            report.net.messages,
            report.records[0].state,
            report.records[0].completed_at,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn gupa_trains_during_long_runs() {
    let config = GridConfig {
        gupa_warmup_days: 0,
        ..Default::default()
    };
    let mut builder = GridBuilder::new(config);
    builder.add_cluster(vec![NodeSetup {
        trace: office_trace(),
        ..NodeSetup::idle_desktop()
    }]);
    let mut grid = builder.build();
    grid.run_until(SimTime::from_secs(8 * 86_400));
    let report = grid.report();
    assert_eq!(report.gupa_models, 1, "a week of history trains the model");
}

#[test]
fn warmup_gives_models_at_start() {
    let config = GridConfig {
        gupa_warmup_days: 14,
        strategy: Strategy::PatternAware,
        ..Default::default()
    };
    let mut builder = GridBuilder::new(config);
    builder.add_cluster(vec![
        NodeSetup {
            trace: office_trace(),
            ..NodeSetup::idle_desktop()
        },
        NodeSetup {
            trace: office_trace(),
            ..NodeSetup::idle_desktop()
        },
    ]);
    let mut grid = builder.build();
    let report = grid.report();
    assert_eq!(report.gupa_models, 2);
    // And scheduling still works under the pattern-aware strategy.
    let job = grid.submit(JobSpec::sequential("s", 1500));
    grid.run_until(SimTime::from_secs(3600));
    assert_eq!(grid.job_record(job).unwrap().state, JobState::Completed);
}

fn trace_bits(trace: &[UsageSample]) -> Vec<[u64; 4]> {
    trace
        .iter()
        .map(|s| [s.cpu, s.mem, s.disk, s.net].map(f64::to_bits))
        .collect()
}

fn curve_bits<'a>(curves: impl Iterator<Item = (Weekday, &'a [f64])>) -> Vec<(Weekday, Vec<u64>)> {
    curves
        .map(|(weekday, curve)| (weekday, curve.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// `days` warm-up days of `trace` sampled every `interval_mins`, indexed by
/// hand: slot `k` reads the trace's 5-minute sample `k * interval_mins / 5`.
fn warmup_periods(trace: &[UsageSample], days: u64, interval_mins: u64) -> Vec<DayPeriod> {
    let per_day = 1440 / interval_mins;
    (0..days)
        .map(|day| DayPeriod {
            day,
            weekday: Weekday::from_day_number(day),
            samples: (day * per_day..(day + 1) * per_day)
                .map(|k| trace[(k * interval_mins / 5) as usize % trace.len()])
                .collect(),
        })
        .collect()
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

    /// Trace interning and shared warm-up against a fresh per-node digest:
    /// the first `k` traces of a pool round-robined over `n` nodes, 0 to 14
    /// warm-up days, at the default and a coarse tick. The pool holds near
    /// twins of one trace — a zero's sign flipped, one sample changed that
    /// the fingerprint does not read, an equal copy — beside an unrelated
    /// trace and an empty one.
    #[test]
    fn warmup_sharing_matches_a_per_node_digest(
        seed in proptest::arbitrary::any::<u64>(),
        k in 1usize..=6,
        n in 1usize..=12,
        days in 0u64..=14,
        coarse in proptest::arbitrary::any::<bool>(),
    ) {
        let mut rng = DetRng::new(seed);
        let mut random_trace = |len: usize| -> Vec<UsageSample> {
            (0..len)
                .map(|_| UsageSample::new(rng.uniform_f64(), rng.uniform_f64(), 0.0, 0.0))
                .collect()
        };
        let base = random_trace(100 + (seed % 600) as usize);
        let mut signed = base.clone();
        signed[(seed % 97) as usize].disk = -0.0;
        let mut unprobed = base.clone();
        unprobed[1].cpu += if unprobed[1].cpu < 0.5 { 0.25 } else { -0.25 };
        proptest::prop_assert_eq!(
            crate::tick::fingerprint(&unprobed),
            crate::tick::fingerprint(&base)
        );
        let other = random_trace(288);
        let pool = [base.clone(), signed, unprobed, base, other, Vec::new()];
        let interval_mins = if coarse { 15 } else { 5 };
        let config = GridConfig {
            gupa_warmup_days: days as usize,
            ..GridConfig::builder().tick_mins(interval_mins as u32).build()
        };
        let mut builder = GridBuilder::new(config);
        builder.add_cluster(
            (0..n)
                .map(|i| NodeSetup {
                    trace: pool[i % k].clone(),
                    ..NodeSetup::idle_desktop()
                })
                .collect(),
        );
        let grid = builder.build();

        let nodes = &grid.world.nodes;
        for (i, a) in nodes.iter().enumerate() {
            proptest::prop_assert_eq!(trace_bits(&a.trace), trace_bits(&pool[i % k]));
            for b in nodes {
                let equal = trace_bits(&a.trace) == trace_bits(&b.trace);
                proptest::prop_assert_eq!(Arc::ptr_eq(&a.trace, &b.trace), equal);
            }
        }
        let (gupa, mut uploads) = (grid.gupa(), 0);
        for i in 0..n {
            let (node, trace) = (NodeId(i as u32), &pool[i % k]);
            let mut fresh = GupaState::new(LupaConfig::default());
            if days > 0 && !trace.is_empty() {
                fresh.upload(node, warmup_periods(trace, days, interval_mins));
                uploads += 1;
            }
            proptest::prop_assert_eq!(
                curve_bits(gupa.day_curves(node)),
                curve_bits(fresh.day_curves(node))
            );
            proptest::prop_assert_eq!(gupa.model(node), fresh.model(node));
            proptest::prop_assert_eq!(gupa.has_model(node), fresh.has_model(node));
        }
        proptest::prop_assert_eq!(gupa.uploads(), uploads);
    }
}

/// At a 15-minute tick a day is 96 samples on both sides of the build:
/// warm-up day `d` reads exactly the trace slots live day `d` reads, and
/// predictions read the partial day as 96 slots a day.
#[test]
fn coarse_tick_warms_up_and_predicts_at_the_configured_sampling() {
    let config = GridConfig {
        gupa_warmup_days: 7,
        ..GridConfig::builder().tick_mins(15).build()
    };
    // A 5-minute sawtooth on top of office hours, so a day averaged down
    // from 288 samples differs from one sampled at 96.
    let trace = office_trace()
        .iter()
        .enumerate()
        .map(|(slot, s)| UsageSample::new(s.cpu + 0.01 * (slot % 3) as f64, s.mem, 0.0, 0.0))
        .collect();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster(vec![NodeSetup {
        trace,
        ..NodeSetup::idle_desktop()
    }]);
    let mut grid = builder.build();
    let node = NodeId(0);
    let warm = curve_bits(grid.gupa().day_curves(node));
    // Tuesday 13:00, mid office hours; the live Monday has been uploaded.
    let now = SimTime::from_secs((24 + 13) * 3600);
    grid.run_until(now);
    let predictions = grid.world.idle_predictions(now);
    let curves = curve_bits(grid.gupa().day_curves(node));
    assert_eq!(curves.len(), 8);
    assert_eq!(curves[7], warm[0], "the live Monday is the warm-up Monday");
    let expected = grid.gupa().predict_idle(
        node,
        Weekday::new(1),
        13 * 60,
        grid.world.nodes[0].lrm.lupa_window().partial_day(),
        96,
        super::negotiate::PREDICTION_HORIZON_MINS,
        &mut Vec::new(),
    );
    assert!(expected.is_some());
    assert_eq!(predictions.get(&node).copied(), expected);
}

#[test]
fn monitoring_log_orders_lifecycle() {
    let mut grid = small_grid(Strategy::AvailabilityOnly);
    grid.submit(JobSpec::sequential("hello", 1500));
    grid.run_until(SimTime::from_secs(3600));
    let log = grid.log();
    assert!(log.happens_before("asct.submit", "job.part_started"));
    assert!(log.happens_before("job.part_started", "job.completed"));
}

#[test]
#[should_panic(expected = "at least one node")]
fn empty_grid_panics() {
    GridBuilder::new(GridConfig::default()).build();
}

/// [`small_grid`] with another update period.
fn small_grid_updating_every(period: SimDuration) -> Grid {
    let mut config = GridConfig::default();
    config.lrm.update_period = period;
    idle_grid(4, config)
}

/// A four-node grid whose node↔manager links each add `one_way` of
/// latency from t = 100 s on: after the first updates were acknowledged
/// and a job submitted at zero was placed, before its part finishes at
/// the 300 s slot tick. Updates go out every 60 s, longer than either
/// round trip below, so a late ack still finds its entry: only the ack
/// window can turn it away, not the next send's sweep.
fn limping_grid(one_way: SimDuration) -> Grid {
    use integrade_simnet::faults::LinkLimp;
    let mut grid = small_grid_updating_every(SimDuration::from_secs(60));
    let mut plan = FaultPlan::new(1);
    for node in 0..grid.node_count() as u32 {
        plan = plan.with_limp(LinkLimp {
            a: grid.host_of(NodeId(node)),
            b: grid.manager_host(),
            added_latency: one_way,
            start: SimTime::from_secs(100),
            end: SimTime::MAX,
        });
    }
    grid.set_fault_plan(plan);
    grid
}

/// Round trips of 40 s and 20 s against the default 30 s timeout.
const LATE: SimDuration = SimDuration::from_secs(20);
const IN_TIME: SimDuration = SimDuration::from_secs(10);

#[test]
fn offers_mirror_the_accepted_status_across_a_grm_crash_and_restart() {
    // Idle nodes mostly repeat their status, so most updates take the
    // skipped-write branch; the job moves `running_parts` through the
    // written one, and the crash marks every node unavailable.
    let mut grid = small_grid(Strategy::AvailabilityOnly);
    let job = grid.submit(JobSpec::bag_of_tasks("bag", 2, 30_000));
    let mut accepted = 0;
    for (until, then) in [
        (200, Some(Grid::crash_grm as fn(&mut Grid))),
        (260, Some(Grid::restart_grm)),
        (1200, None),
    ] {
        grid.run_until(SimTime::from_secs(until));
        for node in 0..4 {
            assert!(
                grid.world.grm.offer_mirrors_status(NodeId(node)),
                "node {node} at {until} s"
            );
        }
        // Nothing is accepted while the manager is down (200 to 260 s).
        let now_accepted = grid.report().updates.accepted;
        assert_eq!(now_accepted > accepted, until != 260, "at {until} s");
        accepted = now_accepted;
        if let Some(step) = then {
            step(&mut grid);
        }
    }
    assert_eq!(grid.job_record(job).unwrap().state, JobState::Completed);
}

#[test]
fn acks_later_than_the_request_timeout_retire_nothing() {
    let unacked_after_a_job = |one_way| {
        let mut grid = limping_grid(one_way);
        let job = grid.submit(JobSpec::sequential("s", 1500));
        grid.run_until(SimTime::from_secs(900));
        assert_eq!(grid.job_record(job).unwrap().state, JobState::Completed);
        (0..grid.node_count() as u32)
            .map(|n| grid.lrm(NodeId(n)).unwrap().unacked_outcomes())
            .sum::<usize>()
    };
    assert_eq!(unacked_after_a_job(IN_TIME), 0, "a slow ack still counts");
    assert_eq!(
        unacked_after_a_job(LATE),
        1,
        "the completion notice rides on every update, never retired"
    );
}

#[test]
fn acks_later_than_the_request_timeout_leave_the_epoch_unobserved() {
    let observations = |one_way| {
        let mut grid = limping_grid(one_way);
        grid.run_until(SimTime::from_secs(200));
        grid.crash_grm();
        grid.run_until(SimTime::from_secs(260));
        grid.restart_grm();
        grid.run_until(SimTime::from_secs(600));
        assert_eq!(grid.grm_epoch(), 2);
        grid.log()
            .records()
            .iter()
            .filter(|r| r.category == "grm.epoch" && r.detail.contains("observed"))
            .count()
    };
    assert_eq!(observations(IN_TIME), 4, "every node sees the restart");
    assert_eq!(observations(LATE), 0);
}

#[test]
fn the_ack_window_closes_exactly_at_the_request_timeout() {
    let mut grid = small_grid(Strategy::AvailabilityOnly);
    let host = grid.host_of(NodeId(0));
    let sent_at = SimTime::from_secs(5);
    grid.world.nodes[0].lrm.observe_grm_epoch(1);
    // Delivers an ack announcing a new `epoch` for an update sent at
    // `sent_at`; returns how many epoch changes node 0 has logged.
    let mut ack_at = |request_id: u64, epoch: u64, at: SimTime| {
        let ack = AwaitedAck {
            request_id,
            seq: 1,
            sent_at,
        };
        grid.world.await_update_ack(sent_at, 0, ack);
        let ack = UpdateAck { epoch, seq: 1 }.to_cdr_bytes();
        grid.world
            .handle_reply(at, host, request_id, Ok(&ack), &mut grid.queue);
        assert!(
            grid.world.update_acks[0].is_empty(),
            "an ack consumes its record, late or not"
        );
        grid.log().count("grm.epoch")
    };
    let closes = sent_at + REQUEST_TIMEOUT;
    let just_inside = SimTime::from_micros(closes.as_micros() - 1);
    assert_eq!(ack_at(900, 2, just_inside), 1);
    // At the closing instant the per-update timer used to fire first
    // (it was scheduled before the ack's frame) and drop the entry.
    assert_eq!(ack_at(901, 3, closes), 1, "the window is half-open");
    assert_eq!(ack_at(902, 3, closes + SimDuration::from_secs(9)), 1);
}

#[test]
fn an_update_that_never_left_its_host_awaits_no_ack() {
    let mut grid = small_grid(Strategy::AvailabilityOnly);
    grid.set_fault_plan(FaultPlan::new(5).with_drop_probability(1.0));
    grid.run_until(SimTime::from_secs(100));
    assert!(grid.log().count("drops") >= 12, "4 nodes, 3+ rounds");
    assert!(grid.world.update_acks.iter().all(Vec::is_empty));
    assert!(grid.world.pending.is_empty());
    assert_eq!(grid.report().updates.accepted, 0);
}

#[test]
fn awaited_acks_stay_bounded_for_periods_below_and_above_the_timeout() {
    let awaited = |grid: &Grid| {
        let per_node = grid.world.update_acks.iter().map(Vec::len);
        (per_node.clone().sum::<usize>(), per_node.max().unwrap_or(0))
    };
    for period_s in [10, 75] {
        let build = || small_grid_updating_every(SimDuration::from_secs(period_s));
        // Fault-free, every ack is back within a millisecond: between
        // rounds nothing is awaited, and nothing ever enters `pending`.
        let mut grid = build();
        grid.run_until(SimTime::from_secs(399));
        assert_eq!(awaited(&grid), (0, 0), "period {period_s} s");
        assert!(grid.world.pending.is_empty(), "period {period_s} s");
        assert!(grid.report().updates.accepted >= 4 * (399 / period_s));
        // With acks being lost, a record waits for its node's next send to
        // drop it: never more than one timeout's worth per node.
        let mut grid = build();
        grid.set_fault_plan(FaultPlan::new(9).with_drop_probability(0.4));
        let per_node = REQUEST_TIMEOUT
            .as_micros()
            .div_ceil(SimDuration::from_secs(period_s).as_micros()) as usize;
        let mut most = 0;
        for t in (50..=1500).step_by(50) {
            grid.run_until(SimTime::from_secs(t));
            let (total, on_one_node) = awaited(&grid);
            most = most.max(total);
            assert!(
                on_one_node <= per_node,
                "period {period_s} s at {t} s: {on_one_node} awaited on one node"
            );
        }
        assert!(most > 0, "no ack was lost: the bound was never tested");
    }
}

// ---- One description per request, one verified-fetch walk ---------------

const SPECULATIVE: Waste = Waste {
    credit: 0,
    speculative: true,
};

#[test]
fn span_key_is_what_the_per_variant_match_produced() {
    // Every request is sent to the node it names, so that is `dest` too.
    let (job, part, node) = (JobId(7), 2, NodeId(5));
    let fetch = |why| Pending::Fetch {
        job,
        part,
        rest: vec![NodeId(9)],
        why,
    };
    let store = Pending::StoreCkpt {
        origin: NodeId(9),
        blob: CheckpointBlob::empty(job, part),
        replica: node,
        resends: 0,
        rerepl: false,
    };
    let loser = Some((part, node, SPECULATIVE));
    let mut cases = vec![
        // A gang teardown's cancel is job-wide, per node asked.
        (Pending::Cancel { job, loser: None }, (CancelPart, u32::MAX)),
        (Pending::Cancel { job, loser }, (CancelPart, part)),
        // Only relays get a fetch kind of their own.
        (
            fetch(FetchWhy::Recover { dead_node: node }),
            (FetchCkpt, part),
        ),
        (fetch(FetchWhy::Twin), (FetchCkpt, part)),
        (
            fetch(FetchWhy::Rerepl { target: node }),
            (RereplFetch, part),
        ),
        (store, (StoreCkpt, part)),
    ];
    // Twin traffic shares the primary's span kinds.
    for role in [Role::Primary, Role::Twin] {
        let reserve = Pending::Reserve {
            job,
            part,
            node,
            role,
        };
        let launch = Pending::Launch {
            job,
            part,
            node,
            role,
        };
        cases.push((reserve, (Reserve, part)));
        cases.push((launch, (Launch, part)));
    }
    for (pending, (kind, part)) in cases {
        assert_eq!(pending.span_key(node), (kind, 7, part, 5), "{pending:?}");
    }
}

#[test]
fn checkpoint_payload_is_the_global_checkpoint_encoding() {
    use integrade_bsp::checkpoint::GlobalCheckpoint;
    use integrade_orb::cdr::{CdrDecode, CdrWriter};
    let (job, part, version, work) = (JobId(0x0102_0304_0506_0708), 9, 77, 123_456_789);
    for state_bytes in [0, 1, 31, 32, 33, 4_096, 4_097] {
        let mut w = CdrWriter::new();
        w.write_u64(job.0);
        w.write_u32(part);
        w.write_u64(version);
        w.write_u64(work);
        let mut state = w.into_bytes();
        if (state.len() as u64) < state_bytes {
            state.resize(state_bytes as usize, 0);
        }
        let expected = GlobalCheckpoint {
            superstep: version,
            halted: false,
            proc_states: vec![state],
            inboxes: vec![Vec::new()],
        };
        let payload = checkpoint_payload(job, part, version, work, state_bytes);
        assert_eq!(
            &payload[..],
            expected.to_cdr_bytes(),
            "state_bytes {state_bytes}"
        );
        assert_eq!(GlobalCheckpoint::from_cdr_bytes(&payload), Ok(expected));
    }
}

/// An intact version-3 replica of `(job, part)`, as a fetch reply.
fn replica(job: JobId, part: u32) -> FetchCheckpointReply {
    let payload = checkpoint_payload(job, part, 3, 40_000, 64);
    let blob = CheckpointBlob {
        job,
        part,
        version: 3,
        work_mips_s: 40_000,
        digest: crc32(&payload),
        payload,
    };
    FetchCheckpointReply { found: true, blob }
}

/// The two ways a found replica can be bad: its digest does not match its
/// payload, or it does but the payload is no checkpoint.
fn damaged_replicas(job: JobId, part: u32) -> [FetchCheckpointReply; 2] {
    let mut mismatch = replica(job, part);
    mismatch.blob.digest ^= 1;
    let mut undecodable = replica(job, part);
    undecodable.blob.payload = b"not a checkpoint"[..].into();
    undecodable.blob.digest = crc32(&undecodable.blob.payload);
    [mismatch, undecodable]
}

#[test]
fn only_an_intact_found_replica_is_verified() {
    let (job, part) = (JobId(1), 0);
    assert!(verified(None).is_none(), "no reply");
    let mut absent = replica(job, part);
    absent.found = false;
    assert!(verified(Some(absent)).is_none(), "not found");
    for bad in damaged_replicas(job, part) {
        assert!(verified(Some(bad)).is_none());
    }
    assert_eq!(verified(Some(replica(job, part))).unwrap().version, 3);
}

/// Five idle nodes with two retransmissions per request: a three-task bag
/// is running on three of them, one is spare, and one — returned — has
/// crashed and is known dead, so the only requests it gets are the test's,
/// and each takes its kind's failure continuation.
fn grid_with_a_dead_node() -> (Grid, JobId, NodeId) {
    let config = GridConfig {
        max_retransmits: 2,
        ..Default::default()
    };
    let mut grid = idle_grid(5, config);
    grid.run_until(SimTime::from_secs(60)); // every node has reported
    let job = grid.submit(JobSpec::bag_of_tasks("bag", 3, 10_000_000));
    grid.run_until(SimTime::from_secs(61));
    let busy: Vec<NodeId> = (0..3).flat_map(|p| grid.part_executors(job, p)).collect();
    let dead = (0..5).map(NodeId).find(|n| !busy.contains(n)).unwrap();
    grid.crash_node(dead);
    // Keep the scheduler's own traffic away from it.
    grid.world.grm.mark_unavailable(dead);
    (grid, job, dead)
}

/// Runs past the retransmission schedule (1 µs, then 30 s and 60 s ± 25 %)
/// of every request in flight, to an instant no status update is at.
fn quiesce(grid: &mut Grid, timeouts: usize) {
    grid.run_until(grid.now() + SimDuration::from_micros(130_500_000));
    assert_eq!(grid.log().count("grm.timeout"), timeouts);
    assert_eq!(grid.log().count("retransmits"), 2 * timeouts);
    assert!(grid.world.pending.is_empty(), "{:?}", grid.world.pending);
}

/// Starts, by hand, the three kinds of fetch on parts 0, 1 and 2 and
/// answers each with `reply(part)` from node 0: a recovery (whose next
/// holder is the dead node), a twin's resume point and a re-replication
/// relay to `target`.
fn answer_each_fetch_with(
    grid: &mut Grid,
    job: JobId,
    (dead, target): (NodeId, NodeId),
    reply: impl Fn(u32) -> FetchCheckpointReply,
) {
    let (now, w) = (grid.now(), &mut grid.world);
    let parts = &mut w.jobs.get_mut(&job).unwrap().parts;
    parts[0].state = PartState::Recovering;
    parts[1].twin = Some(TwinRuntime {
        state: TwinState::Fetching,
        node: None,
        reservation: 0,
        candidates: Vec::new(),
        resume_work: 0.0,
        resume_version: 0,
    });
    w.rerepl_inflight.insert((job, 2));
    let dead_node = parts[0].node.unwrap();
    let whys = [
        (vec![dead], FetchWhy::Recover { dead_node }),
        (vec![], FetchWhy::Twin),
        (vec![], FetchWhy::Rerepl { target }),
    ];
    for (part, (rest, why)) in (0..).zip(whys) {
        let reply = Some(reply(part));
        w.on_fetch_reply(now, job, part, NodeId(0), rest, why, reply, &mut grid.queue);
    }
}

#[test]
fn a_damaged_replica_sends_each_kind_of_fetch_down_its_own_path() {
    for (i, bad) in damaged_replicas(JobId(1), 0).into_iter().enumerate() {
        let (mut grid, job, dead) = grid_with_a_dead_node();
        answer_each_fetch_with(&mut grid, job, (dead, dead), |_| bad.clone());
        // The twin fell through to the trader query at the banked level,
        // the relay gave the round up for the next slot…
        let twin = grid.world.jobs[&job].parts[1].twin.as_ref().unwrap();
        assert_eq!((twin.state, twin.resume_version), (TwinState::Reserving, 0));
        assert!(grid.world.rerepl_inflight.is_empty());
        // …and recovery asks the next holder, which never answers, then
        // concedes and reschedules.
        quiesce(&mut grid, 1);
        let log = grid.log();
        assert_eq!(log.count("corrupt_detected"), 3, "case {i}");
        assert_eq!(log.count("repo.recover_failed"), 1);
        assert_eq!(log.count("repo.fetch") + log.count("spec.fetch"), 0);
        assert_ne!(grid.world.jobs[&job].parts[0].state, PartState::Recovering);
    }
}

#[test]
fn an_intact_replica_means_what_the_fetch_was_for() {
    let (mut grid, job, dead) = grid_with_a_dead_node();
    answer_each_fetch_with(&mut grid, job, (dead, NodeId(1)), |part| replica(job, part));
    let parts = &grid.world.jobs[&job].parts;
    assert_eq!(parts[0].banked_version, 3, "recovery banks it");
    let twin = parts[1].twin.as_ref().unwrap();
    assert_eq!((twin.resume_version, twin.resume_work), (3, 40_000.0));
    quiesce(&mut grid, 0);
    assert_eq!(
        grid.log().count("repo.rereplicated"),
        1,
        "the relay stored it"
    );
    assert_eq!(grid.replica_holders(job, 2), vec![NodeId(1)]);
}

#[test]
fn an_unanswered_request_takes_the_failure_continuation_of_its_kind() {
    let (mut grid, job, dead) = grid_with_a_dead_node();
    let (now, w) = (grid.now(), &mut grid.world);
    // A launch: the part is requeued (and then placed on the spare node).
    let parts = &mut w.jobs.get_mut(&job).unwrap().parts;
    (parts[0].state, parts[0].node) = (PartState::Launching, Some(dead));
    let (part, node, role) = (0, dead, Role::Primary);
    let launch = Pending::Launch {
        job,
        part,
        node,
        role,
    };
    w.send_to_lrm(now, dead, OP_LAUNCH, |_| {}, launch, &mut grid.queue);
    // The last cancel of a gang teardown: the rollback runs regardless.
    w.jobs.get_mut(&job).unwrap().pending_cancels = 1;
    w.send_cancel_part(now, job, 1, dead, None, &mut grid.queue);
    // A speculation loser's cancel: nothing is known to be wasted.
    w.send_cancel_part(now, job, 1, dead, Some(SPECULATIVE), &mut grid.queue);
    // A checkpoint store: dropped; the next interval's supersedes it.
    let due = DueCheckpoint {
        job,
        part: 2,
        version: 1,
        work_mips_s: 1_000,
        state_bytes: 64,
        replicas: vec![dead],
    };
    w.store_checkpoint(now, NodeId(0), due, &mut grid.queue);
    quiesce(&mut grid, 4);
    let part = &grid.world.jobs[&job].parts[0];
    assert_eq!(
        (part.state, part.node == Some(dead)),
        (PartState::Running, false)
    );
    assert_eq!(grid.world.jobs[&job].pending_cancels, 0);
    let (log, record) = (grid.log(), grid.job_record(job).unwrap());
    assert_eq!(
        (log.count("job.rollback"), log.count("spec.wasted")),
        (1, 0)
    );
    assert_eq!(
        (record.negotiation_refusals, record.wasted_work_mips_s),
        (1, 0)
    );
    assert_eq!(log.count("repo.store") + log.count("repo.resend"), 0);
    assert!(grid.replica_holders(job, 2).is_empty());
    assert_eq!(grid.report().overhead.spec_wasted_mips_s, 0.0);
}
