//! The four pinned workloads: input generation, system build, and the
//! timed drive (submit, run to the horizon, report).
//!
//! Everything random derives from the `--seed` argument; the simulator
//! receives only the generated inputs (traces, job specs, config seeds).
//! None of the workloads sets `tick_mode` or `workers`, so each measures
//! whatever engine `GridConfig::default()` ships.

use crate::spans::Spans;
use integrade_core::asct::{JobRecord, JobSpec};
use integrade_core::federation::{Federation, RoutingPolicy, WanStats};
use integrade_core::grid::{Grid, GridBuilder, GridConfig, GridReport, NodeSetup};
use integrade_core::types::{ClusterId, ResourceVector};
use integrade_obs::metrics::MetricsSnapshot;
use integrade_obs::profile::ProfileReport;
use integrade_simnet::event::QueueStats;
use integrade_simnet::rng::DetRng;
use integrade_simnet::time::{SimDuration, SimTime};
use integrade_simnet::topology::LinkSpec;
use integrade_usage::sample::{UsageSample, Weekday};
use integrade_workload::apps::{generate_stream, JobMix, WorkloadConfig};
use integrade_workload::desktop::{generate_trace, Archetype, TraceConfig};
use std::time::Instant;

/// Windows the traced run splits its horizon into.
pub const RUN_WINDOWS: u64 = 200;

/// The population divisor of `--quick`.
pub const QUICK_DIVISOR: usize = 50;

/// A pinned workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 50 000 mostly idle nodes over several sim-days: slot walk, lazy
    /// catch-up replay, LUPA sampling, GUPA digestion, k-means.
    Idle50k,
    /// The Information Update Protocol at its defaults on 10 000 nodes:
    /// event queue, GIOP/CDR, GRM update handling, trader modify.
    Update10k,
    /// A Poisson job stream on 5 000 owner-reclaimed nodes: trader query,
    /// ranking, negotiation, eviction, checkpoint repository, BSP gangs.
    Churn5k,
    /// A 21-cluster linked-trader federation of 42 000 nodes.
    Fed21,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Idle50k,
        Workload::Update10k,
        Workload::Churn5k,
        Workload::Fed21,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Idle50k => "idle50k",
            Workload::Update10k => "update10k",
            Workload::Churn5k => "churn5k",
            Workload::Fed21 => "fed21",
        }
    }

    /// Parses a normative name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Node population, at full or `--quick` scale.
    pub fn nodes(self, quick: bool) -> usize {
        let full = match self {
            Workload::Idle50k => 50_000,
            Workload::Update10k => 10_000,
            Workload::Churn5k => 5_000,
            Workload::Fed21 => FED_CLUSTERS as usize * FED_NODES_PER_CLUSTER,
        };
        full / if quick { QUICK_DIVISOR } else { 1 }
    }

    /// Nodes of one cluster: the offer count the workload's traders hold.
    pub fn cluster_nodes(self, quick: bool) -> usize {
        let clusters = match self {
            Workload::Fed21 => FED_CLUSTERS as usize,
            _ => 1,
        };
        self.nodes(quick) / clusters
    }

    /// Simulated horizon, seconds.
    pub const fn horizon_s(self) -> u64 {
        match self {
            Workload::Idle50k => IDLE_HORIZON_S,
            Workload::Update10k => UPDATE_HORIZON_S,
            Workload::Churn5k => CHURN_HORIZON_S,
            Workload::Fed21 => FED_HORIZON_S,
        }
    }
}

// Sizes. Node counts are the issue's. Horizons are set so that a timed
// region costs 4 to 5 s of host time: long enough to resolve a few per
// cent, short enough that a warm-up and three timed repeats fit a run of
// which the driver makes 92 inside 3 420 s.

/// Six midnights: every traced node arrives with six days of GUPA history,
/// crosses the seven-day training threshold at the first and retrains on a
/// longer history at each of the others.
const IDLE_HORIZON_S: u64 = 6 * 24 * 3600;
const IDLE_TRACED_DIVISOR: usize = 20;
/// 180 update periods of 30 s.
const UPDATE_HORIZON_S: u64 = 5400;
/// Small: each finishes within a few slot ticks at a desktop's 30 % cap.
const UPDATE_JOB_WORK_MIPS_S: u64 = 6_000;
const TRACE_POOL_PER_ARCHETYPE: usize = 50;
/// The churn run starts Monday 08:00 (slot 96 of the 5-minute week) and
/// runs to 16:00: jobs arrive while the office workers (09:00) and the lab
/// users (10:00) come in and reclaim the nodes the jobs run on.
const CHURN_START_SLOT: usize = 96;
const CHURN_HORIZON_S: u64 = 8 * 3600;
const CHURN_STREAM_START_S: u64 = 300;
const CHURN_STREAM_S: u64 = 2 * 3600;
const CHURN_INTERARRIVAL_S: u64 = 10;
/// One 5-minute owner slot. With suppression on, the default 30 s timers
/// are 600 k silent events per sim-hour on 5 000 nodes, which took four
/// fifths of the run and left the job lifecycle too small to measure.
const CHURN_UPDATE_PERIOD_S: u64 = 300;
const FED_HUBS: u32 = 4;
const FED_LEAVES_PER_HUB: u32 = 4;
const FED_CLUSTERS: u32 = 1 + FED_HUBS + FED_HUBS * FED_LEAVES_PER_HUB;
const FED_NODES_PER_CLUSTER: usize = 2_000;
const FED_UPDATE_PERIOD_S: u64 = 60;
/// Submission rounds. The first follows three federation update periods,
/// so that routing sees populated soft state; each round's jobs finish at
/// the next 300 s slot tick, and the second lands on the tick after that.
const FED_ROUNDS_S: [u64; 2] = [180, 480];
const FED_HORIZON_S: u64 = 1200;

// The traced run steps one grid of `RUN_WINDOWS` equal windows, so every
// horizon divides into them and the federation's rounds fall on the grid.
const _: () = {
    let mut i = 0;
    while i < Workload::ALL.len() {
        assert!(Workload::ALL[i].horizon_s().is_multiple_of(RUN_WINDOWS));
        i += 1;
    }
    let window_s = FED_HORIZON_S / RUN_WINDOWS;
    assert!(FED_ROUNDS_S[0].is_multiple_of(window_s) && FED_ROUNDS_S[1].is_multiple_of(window_s));
};

/// Sub-seed streams, so that traces, job streams and config seeds are
/// independent functions of the one `--seed`.
mod stream {
    pub const TRACES: u64 = 0x7065_7266_0001;
    pub const JOBS: u64 = 0x7065_7266_0002;
    pub const GRID: u64 = 0x7065_7266_0003;
}

fn sub_seed(seed: u64, stream: u64) -> u64 {
    DetRng::with_stream(seed, stream).next_u64()
}

/// What input generation hands to the build step.
pub struct Inputs {
    workload: Workload,
    cluster_nodes: usize,
    grid_seed: u64,
    /// Trace pool the nodes draw from (empty for `fed21`).
    traces: Vec<Vec<UsageSample>>,
    /// Open-loop arrivals in simulated time.
    stream: Vec<(SimTime, JobSpec)>,
}

/// The built system under test.
pub enum System {
    /// A single cluster.
    Grid(Box<Grid>),
    /// The 21-cluster federation.
    Fed(Box<Federation>),
}

/// Office-hours owner trace (E19's): busy weekdays 9-18 h, near-idle
/// otherwise. Deterministic; the seed enters through `GridConfig::seed`
/// and the LUPA measurement noise.
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

/// 250 distinct seeded one-week campus traces, 50 per archetype,
/// interleaved so that a round-robin draw mixes archetypes.
fn campus_pool(seed: u64, start_slot: usize) -> Vec<Vec<UsageSample>> {
    let config = TraceConfig {
        weeks: 1,
        ..TraceConfig::default()
    };
    let mut master = DetRng::with_stream(seed, stream::TRACES);
    let mut pool = Vec::with_capacity(TRACE_POOL_PER_ARCHETYPE * Archetype::ALL.len());
    for i in 0..TRACE_POOL_PER_ARCHETYPE {
        for archetype in Archetype::ALL {
            let mut rng = master.fork((i * Archetype::ALL.len()) as u64 + archetype as u64);
            let mut trace = generate_trace(archetype, &config, &mut rng);
            trace.rotate_left(start_slot);
            pool.push(trace);
        }
    }
    pool
}

fn five_small_jobs(prefix: &str, work_mips_s: u64) -> Vec<(SimTime, JobSpec)> {
    (0..5)
        .map(|i| {
            (
                SimTime::ZERO,
                JobSpec::sequential(&format!("{prefix}-{i}"), work_mips_s),
            )
        })
        .collect()
}

fn churn_stream(seed: u64, quick: bool) -> Vec<(SimTime, JobSpec)> {
    let config = WorkloadConfig {
        // The quick population is 1/50, so its arrival rate is too.
        mean_interarrival: SimDuration::from_secs(
            CHURN_INTERARRIVAL_S * if quick { QUICK_DIVISOR as u64 } else { 1 },
        ),
        mix: JobMix {
            sequential: 0.45,
            bag_of_tasks: 0.45,
            bsp: 0.10,
        },
        mean_seq_work: 60_000.0,
        bsp_procs: (2, 4),
        bsp_supersteps: (5, 20),
        ..WorkloadConfig::default()
    };
    let mut rng = DetRng::with_stream(seed, stream::JOBS);
    generate_stream(
        &config,
        SimTime::from_secs(CHURN_STREAM_START_S),
        SimDuration::from_secs(CHURN_STREAM_S),
        &mut rng,
    )
}

/// Generates a workload's inputs from the seed.
pub fn generate(workload: Workload, seed: u64, quick: bool) -> Inputs {
    let (traces, stream) = match workload {
        Workload::Idle50k => (vec![office_trace()], five_small_jobs("idle", 60_000)),
        Workload::Update10k => (
            campus_pool(seed, 0),
            five_small_jobs("update", UPDATE_JOB_WORK_MIPS_S),
        ),
        Workload::Churn5k => (
            campus_pool(seed, CHURN_START_SLOT),
            churn_stream(seed, quick),
        ),
        Workload::Fed21 => (Vec::new(), Vec::new()),
    };
    Inputs {
        workload,
        cluster_nodes: workload.cluster_nodes(quick),
        grid_seed: sub_seed(seed, stream::GRID),
        traces,
        stream,
    }
}

fn single_cluster(config: GridConfig, nodes: Vec<NodeSetup>) -> Grid {
    let mut builder = GridBuilder::new(config);
    builder.add_cluster(nodes);
    let mut grid = builder.build();
    grid.disable_trace();
    grid
}

fn pool_nodes(count: usize, pool: &[Vec<UsageSample>]) -> Vec<NodeSetup> {
    (0..count)
        .map(|i| NodeSetup {
            trace: pool[i % pool.len()].clone(),
            ..NodeSetup::idle_desktop()
        })
        .collect()
}

/// A federation member exactly as E20's `grid_of`: `GridConfig` defaults
/// but for the seed and the GUPA warm-up.
fn fed_member(seed: u64, nodes: usize, cpu_mips: u64, ram_mb: u64) -> Grid {
    let config = GridConfig::builder().seed(seed).gupa_warmup_days(0).build();
    single_cluster(
        config,
        (0..nodes)
            .map(|_| NodeSetup {
                resources: ResourceVector {
                    cpu_mips,
                    ram_mb,
                    disk_mb: 10_000,
                },
                ..NodeSetup::idle_desktop()
            })
            .collect(),
    )
}

fn fed_leaf_ids() -> std::ops::Range<u32> {
    1 + FED_HUBS..FED_CLUSTERS
}

fn build_federation(seed: u64, nodes_per_cluster: usize) -> Federation {
    let member_seed = |id: u32| sub_seed(seed, stream::GRID + 1 + u64::from(id));
    let mut b = Federation::builder()
        .seed(seed)
        .routing(RoutingPolicy::LinkedTraders)
        .update_period(SimDuration::from_secs(FED_UPDATE_PERIOD_S))
        .hop_budget(4)
        .root(
            ClusterId(0),
            fed_member(member_seed(0), nodes_per_cluster, 1_000, 512),
        );
    for h in 1..=FED_HUBS {
        b = b.child_linked(
            ClusterId(h),
            ClusterId(0),
            fed_member(member_seed(h), nodes_per_cluster, 1_500, 2_048),
            LinkSpec::wan_regional(),
        );
    }
    for h in 1..=FED_HUBS {
        for l in 0..FED_LEAVES_PER_HUB {
            let id = 1 + FED_HUBS + (h - 1) * FED_LEAVES_PER_HUB + l;
            b = b.child_linked(
                ClusterId(id),
                ClusterId(h),
                fed_member(member_seed(id), nodes_per_cluster, 500, 256),
                LinkSpec::wan_metro(),
            );
        }
    }
    b.build().expect("the static fed21 topology is valid")
}

/// Builds the system from generated inputs.
pub fn build(inputs: &Inputs) -> System {
    let far = |horizon_s: u64| SimDuration::from_secs(horizon_s * 4);
    match inputs.workload {
        Workload::Idle50k => {
            let config = GridConfig::builder()
                .seed(inputs.grid_seed)
                .gupa_warmup_days(6)
                .lupa_noise(0.05)
                .delta_suppression(true)
                .update_period(far(IDLE_HORIZON_S))
                .crash_silence(far(IDLE_HORIZON_S))
                .build();
            let nodes = (0..inputs.cluster_nodes)
                .map(|i| {
                    if i % IDLE_TRACED_DIVISOR == 0 {
                        NodeSetup {
                            trace: inputs.traces[0].clone(),
                            ..NodeSetup::idle_desktop()
                        }
                    } else {
                        NodeSetup::idle_desktop()
                    }
                })
                .collect();
            System::Grid(Box::new(single_cluster(config, nodes)))
        }
        Workload::Update10k => {
            let config = GridConfig::builder()
                .seed(inputs.grid_seed)
                .update_period(SimDuration::from_secs(30))
                .delta_suppression(false)
                .build();
            System::Grid(Box::new(single_cluster(
                config,
                pool_nodes(inputs.cluster_nodes, &inputs.traces),
            )))
        }
        Workload::Churn5k => {
            let config = GridConfig::builder()
                .seed(inputs.grid_seed)
                .delta_suppression(true)
                .update_period(SimDuration::from_secs(CHURN_UPDATE_PERIOD_S))
                .crash_silence(far(CHURN_HORIZON_S))
                .sequential_checkpoint_mips_s(30_000.0)
                .build();
            System::Grid(Box::new(single_cluster(
                config,
                pool_nodes(inputs.cluster_nodes, &inputs.traces),
            )))
        }
        Workload::Fed21 => System::Fed(Box::new(build_federation(
            inputs.grid_seed,
            inputs.cluster_nodes,
        ))),
    }
}

/// What one drive of a workload produced: the simulated outcome and the
/// exact counts the layers keep, one entry per cluster in cluster order.
#[derive(Default)]
pub struct Outcome {
    /// Host seconds from the first submission to the end of the report
    /// flush: `wall_s`. The bookkeeping around it is not in it.
    pub wall_s: f64,
    /// Jobs offered to the system.
    pub submitted: usize,
    /// Nominal work of every submitted job, MIPS-s.
    pub nominal_work_mips_s: u64,
    /// Federated submissions the routing layer refused.
    pub refused: usize,
    /// Per-cluster reports.
    pub reports: Vec<(u32, GridReport)>,
    /// Events `run_until_counting` fired. The federation keeps its members'
    /// event loops to itself, so for `fed21` this is the members' scheduled
    /// events: the fired ones plus those still pending at the horizon.
    pub events_fired: u64,
    /// Per-cluster event-queue instrumentation.
    pub queues: Vec<QueueStats>,
    /// Per-cluster metric registry snapshots.
    pub metrics: Vec<MetricsSnapshot>,
    /// Per-cluster hot-loop phase timers (zero without `profile`).
    pub profiles: Vec<ProfileReport>,
    /// GUPA uploads digested during the drive, across clusters (warm-up
    /// history is uploaded at build time and not counted).
    pub gupa_uploads: u64,
    /// WAN ledger (`fed21` only).
    pub wan: Option<WanStats>,
    /// Wall time of each run window, ms (windowed drives only).
    pub window_ms: Vec<f64>,
}

impl Outcome {
    /// Job records across clusters, in (cluster, job) order.
    pub fn records(&self) -> impl Iterator<Item = &JobRecord> {
        self.reports.iter().flat_map(|(_, r)| r.records.iter())
    }
}

/// Advances `step` from `from` to `to` seconds: in one call, or in
/// windows of `window_us` whose wall times land in `window_ms`.
fn advance(
    from: u64,
    to: u64,
    window_us: Option<u64>,
    window_ms: &mut Vec<f64>,
    mut step: impl FnMut(SimTime),
) {
    let Some(window_us) = window_us else {
        step(SimTime::from_secs(to));
        return;
    };
    let end = to * 1_000_000;
    let mut now = from * 1_000_000;
    while now < end {
        now = (now + window_us).min(end);
        let started = Instant::now();
        step(SimTime::from_micros(now));
        window_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
}

/// One round of E20's per-leaf triple: a bag that fits the leaf, a job
/// only a hub is fast enough for, a bag that overflows leaf memory.
fn fed_round(fed: &mut Federation, outcome: &mut Outcome) {
    for id in fed_leaf_ids() {
        let mut fast = JobSpec::sequential("fast", 30_000);
        fast.requirements.min_cpu_mips = 1_200;
        let mut wide = JobSpec::bag_of_tasks("big-ram", 8, 15_000);
        wide.requirements.min_ram_mb = 512;
        for spec in [JobSpec::bag_of_tasks("local", 4, 20_000), fast, wide] {
            outcome.submitted += 1;
            outcome.nominal_work_mips_s += spec.kind.total_work();
            if fed.submit(ClusterId(id), spec).is_err() {
                outcome.refused += 1;
            }
        }
    }
}

/// The timed region: every submission, the run to the horizon, and the
/// report flush. With `windowed` the run is split into [`RUN_WINDOWS`]
/// windows, which must not change the outcome.
pub fn drive(system: &mut System, inputs: Inputs, windowed: bool, spans: &mut Spans) -> Outcome {
    let horizon = inputs.workload.horizon_s();
    let window_us = windowed.then_some(horizon * 1_000_000 / RUN_WINDOWS);
    let mut outcome = Outcome::default();
    match system {
        System::Grid(grid) => {
            let uploads_before = grid.gupa().uploads();
            let started = Instant::now();
            outcome.submitted = inputs.stream.len();
            outcome.nominal_work_mips_s =
                inputs.stream.iter().map(|(_, s)| s.kind.total_work()).sum();
            let span = spans.enter("core.grid.submit");
            for (at, spec) in inputs.stream {
                if at == SimTime::ZERO {
                    grid.submit(spec);
                } else {
                    grid.submit_at(spec, at);
                }
            }
            spans.exit(span);
            let span = spans.enter("core.grid.run");
            let mut fired = 0;
            advance(0, horizon, window_us, &mut outcome.window_ms, |t| {
                fired += grid.run_until_counting(t).1;
            });
            spans.exit(span);
            outcome.events_fired = fired;
            let span = spans.enter("core.grid.report");
            let report = grid.report();
            spans.exit(span);
            outcome.wall_s = started.elapsed().as_secs_f64();
            outcome.reports.push((0, report));
            outcome.queues.push(grid.queue_stats());
            outcome.metrics.push(grid.metrics_snapshot());
            outcome.profiles.push(grid.profile_report());
            outcome.gupa_uploads = grid.gupa().uploads() - uploads_before;
        }
        System::Fed(fed) => {
            let clusters: Vec<ClusterId> = fed.clusters().collect();
            fn member(fed: &Federation, c: ClusterId) -> &Grid {
                fed.member(c).expect("listed by clusters()")
            }
            let uploads = |fed: &Federation| -> u64 {
                clusters
                    .iter()
                    .map(|&c| member(fed, c).gupa().uploads())
                    .sum()
            };
            let uploads_before = uploads(fed);
            let started = Instant::now();
            let span = spans.enter("core.federation.run");
            let mut now = 0;
            for round_at in FED_ROUNDS_S {
                advance(now, round_at, window_us, &mut outcome.window_ms, |t| {
                    fed.run_until(t)
                });
                now = round_at;
                let inner = spans.enter("core.federation.submit");
                fed_round(fed, &mut outcome);
                spans.exit(inner);
            }
            advance(now, horizon, window_us, &mut outcome.window_ms, |t| {
                fed.run_until(t)
            });
            spans.exit(span);
            let span = spans.enter("core.federation.refresh");
            fed.refresh();
            spans.exit(span);
            outcome.wall_s = started.elapsed().as_secs_f64();
            outcome.reports = fed
                .reports()
                .iter()
                .map(|(c, r)| (c.0, r.clone()))
                .collect();
            outcome.gupa_uploads = uploads(fed) - uploads_before;
            for &cluster in &clusters {
                let grid = member(fed, cluster);
                let queue = grid.queue_stats();
                outcome.events_fired += queue.wheel_scheduled + queue.heap_scheduled;
                outcome.queues.push(queue);
                outcome.metrics.push(grid.metrics_snapshot());
                outcome.profiles.push(grid.profile_report());
            }
            outcome.wan = Some(fed.wan_stats());
        }
    }
    outcome
}
