//! Application Submission and Control Tool — job specifications and status.
//!
//! "The ASCT allows InteGrade users to submit applications for execution in
//! the grid. The user can specify execution prerequisites, such as hardware
//! and software platforms, resource requirements such as minimum memory
//! requirements, and preferences, like rather executing on a faster CPU than
//! on a slower one. The user can also use the tool to monitor application
//! progress" (§4).
//!
//! A [`JobSpec`] carries the application shape ([`JobKind`]), the
//! requirements (compiled to a trader constraint string — the GRM stores
//! node status in the Trader), a [`SchedulingPreference`], and optionally a
//! [`TopologyRequest`] expressing the paper's §3 example: "two groups of 50
//! nodes, each group connected internally by a 100 Mbps network and the two
//! groups connected by a 10 Mbps network".

use crate::types::{JobId, Platform};
use integrade_orb::cdr::{CdrDecode, CdrEncode, CdrError, CdrReader, CdrWriter};
use integrade_orb::impl_cdr;
use integrade_simnet::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The computational shape of an application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobKind {
    /// One task of `work_mips_s` million instructions.
    Sequential {
        /// Total work in MIPS-seconds (millions of instructions).
        work_mips_s: u64,
    },
    /// Independent tasks (parametric/high-throughput computing).
    BagOfTasks {
        /// Work per task in MIPS-seconds.
        task_work_mips_s: Vec<u64>,
    },
    /// A BSP parallel application (Valiant's model, per §3).
    Bsp {
        /// Number of parallel processes.
        procs: usize,
        /// Supersteps to execute.
        supersteps: u64,
        /// Local work per process per superstep, MIPS-seconds.
        work_per_superstep_mips_s: u64,
        /// Bytes each process exchanges per superstep (h-relation volume).
        bytes_per_superstep: u64,
        /// Checkpoint every k supersteps (0 = never).
        checkpoint_every: u64,
        /// Marshalled per-process state size, bytes — the volume a
        /// checkpoint migration must move to a new node.
        state_bytes: u64,
    },
}

impl JobKind {
    /// Number of schedulable parts.
    pub fn parts(&self) -> usize {
        match self {
            JobKind::Sequential { .. } => 1,
            JobKind::BagOfTasks { task_work_mips_s } => task_work_mips_s.len(),
            JobKind::Bsp { procs, .. } => *procs,
        }
    }

    /// Whether all parts must run concurrently (gang scheduling).
    pub fn is_parallel(&self) -> bool {
        matches!(self, JobKind::Bsp { .. })
    }

    /// Total work across parts, MIPS-seconds.
    pub fn total_work(&self) -> u64 {
        match self {
            JobKind::Sequential { work_mips_s } => *work_mips_s,
            JobKind::BagOfTasks { task_work_mips_s } => task_work_mips_s.iter().sum(),
            JobKind::Bsp {
                procs,
                supersteps,
                work_per_superstep_mips_s,
                ..
            } => *procs as u64 * supersteps * work_per_superstep_mips_s,
        }
    }
}

/// Hard requirements a node must meet to host a part.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct JobRequirements {
    /// Required platform (prerequisite), if any.
    pub platform: Option<Platform>,
    /// Minimum free RAM in MB (the §3 example: 16 MB).
    pub min_ram_mb: u64,
    /// Minimum CPU speed in MIPS (the §3 example: 500 MIPS).
    pub min_cpu_mips: u64,
    /// Extra raw trader-constraint clause, and-ed in, for power users.
    pub extra_constraint: Option<String>,
}

impl JobRequirements {
    /// The §3 example requirements: ≥16 MB RAM, ≥500 MIPS.
    pub fn paper_example() -> Self {
        JobRequirements {
            platform: None,
            min_ram_mb: 16,
            min_cpu_mips: 500,
            extra_constraint: None,
        }
    }

    /// Compiles the requirements to a trader constraint string over the
    /// node-offer properties exported by the LRMs.
    pub fn to_constraint(&self) -> String {
        let mut clauses = vec![
            "exporting == true".to_owned(),
            format!("free_ram_mb >= {}", self.min_ram_mb),
            format!("cpu_mips >= {}", self.min_cpu_mips),
        ];
        if let Some(platform) = &self.platform {
            clauses.push(format!("os == '{}'", platform.os));
            clauses.push(format!("arch == '{}'", platform.arch));
        }
        if let Some(extra) = &self.extra_constraint {
            clauses.push(format!("({extra})"));
        }
        clauses.join(" and ")
    }
}

/// One typed hard requirement, the unit the fluent API composes.
/// A list of these folds into a [`JobRequirements`] (and from there into
/// the trader constraint string) without callers hand-assembling structs.
#[derive(Debug, Clone, PartialEq)]
pub enum Requirement {
    /// The part must run on this platform (prerequisite).
    Platform(Platform),
    /// Minimum free RAM in MB.
    MinRamMb(u64),
    /// Minimum CPU speed in MIPS.
    MinCpuMips(u64),
    /// A raw trader-constraint clause, and-ed in, for power users.
    /// Multiple clauses are and-ed together in order.
    Constraint(String),
}

impl Requirement {
    fn apply(self, reqs: &mut JobRequirements) {
        match self {
            Requirement::Platform(p) => reqs.platform = Some(p),
            Requirement::MinRamMb(mb) => reqs.min_ram_mb = mb,
            Requirement::MinCpuMips(mips) => reqs.min_cpu_mips = mips,
            Requirement::Constraint(clause) => {
                reqs.extra_constraint = Some(match reqs.extra_constraint.take() {
                    Some(prev) => format!("({prev}) and ({clause})"),
                    None => clause,
                });
            }
        }
    }
}

impl FromIterator<Requirement> for JobRequirements {
    fn from_iter<I: IntoIterator<Item = Requirement>>(iter: I) -> Self {
        let mut reqs = JobRequirements::default();
        for r in iter {
            r.apply(&mut reqs);
        }
        reqs
    }
}

/// Soft ordering among acceptable nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulingPreference {
    /// "Rather executing on a faster CPU than on a slower one" (§4).
    #[default]
    FastestCpu,
    /// Most free memory first.
    MostFreeRam,
    /// Least loaded (most free CPU fraction) first.
    LeastLoaded,
    /// Longest predicted idle period first (requires GUPA predictions).
    LongestPredictedIdle,
    /// Uniformly random among acceptable nodes.
    Random,
}

impl SchedulingPreference {
    /// The trader preference string this compiles to; predictions are
    /// ranked outside the trader (GUPA data is not in the offer).
    pub fn to_trader_preference(&self) -> &'static str {
        match self {
            SchedulingPreference::FastestCpu => "max cpu_mips",
            SchedulingPreference::MostFreeRam => "max free_ram_mb",
            SchedulingPreference::LeastLoaded => "max free_cpu",
            SchedulingPreference::LongestPredictedIdle => "first",
            SchedulingPreference::Random => "random",
        }
    }
}

/// One group of a virtual-topology request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupRequest {
    /// Nodes in this group.
    pub nodes: usize,
    /// Minimum pairwise bandwidth inside the group, bits/s.
    pub min_intra_bps: u64,
}

/// A virtual network topology the placement must satisfy (§3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyRequest {
    /// The requested groups.
    pub groups: Vec<GroupRequest>,
    /// Minimum bandwidth between any two nodes of different groups, bits/s.
    pub min_inter_bps: u64,
}

impl TopologyRequest {
    /// The paper's example: "two groups of 50 nodes, each group connected
    /// internally by a 100 Mbps network and the two groups connected by a
    /// 10 Mbps network".
    pub fn paper_example() -> Self {
        TopologyRequest {
            groups: vec![
                GroupRequest {
                    nodes: 50,
                    min_intra_bps: 100_000_000,
                },
                GroupRequest {
                    nodes: 50,
                    min_intra_bps: 100_000_000,
                },
            ],
            min_inter_bps: 10_000_000,
        }
    }

    /// Total nodes requested.
    pub fn total_nodes(&self) -> usize {
        self.groups.iter().map(|g| g.nodes).sum()
    }
}

/// A complete submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Human-readable name.
    pub name: String,
    /// Application shape.
    pub kind: JobKind,
    /// Hard requirements.
    pub requirements: JobRequirements,
    /// Soft preference.
    pub preference: SchedulingPreference,
    /// Optional virtual-topology request.
    pub topology: Option<TopologyRequest>,
}

impl JobSpec {
    /// A small sequential job, defaults everywhere else.
    pub fn sequential(name: &str, work_mips_s: u64) -> Self {
        JobSpec {
            name: name.to_owned(),
            kind: JobKind::Sequential { work_mips_s },
            requirements: JobRequirements::default(),
            preference: SchedulingPreference::default(),
            topology: None,
        }
    }

    /// A bag-of-tasks job with `tasks` equal tasks.
    pub fn bag_of_tasks(name: &str, tasks: usize, work_each_mips_s: u64) -> Self {
        JobSpec {
            name: name.to_owned(),
            kind: JobKind::BagOfTasks {
                task_work_mips_s: vec![work_each_mips_s; tasks],
            },
            requirements: JobRequirements::default(),
            preference: SchedulingPreference::default(),
            topology: None,
        }
    }

    /// A BSP job with the given shape.
    pub fn bsp(
        name: &str,
        procs: usize,
        supersteps: u64,
        work_per_superstep_mips_s: u64,
        bytes_per_superstep: u64,
    ) -> Self {
        JobSpec {
            name: name.to_owned(),
            kind: JobKind::Bsp {
                procs,
                supersteps,
                work_per_superstep_mips_s,
                bytes_per_superstep,
                checkpoint_every: 10,
                state_bytes: 1_048_576,
            },
            requirements: JobRequirements::default(),
            preference: SchedulingPreference::default(),
            topology: None,
        }
    }

    /// Replaces the hard requirements with a list of typed
    /// [`Requirement`]s, fluently:
    ///
    /// ```
    /// use integrade_core::asct::{JobSpec, Requirement, SchedulingPreference};
    ///
    /// let spec = JobSpec::bsp("render", 8, 20, 5_000, 1 << 16)
    ///     .with_requirements([
    ///         Requirement::MinRamMb(16),
    ///         Requirement::MinCpuMips(500),
    ///     ])
    ///     .with_preference(SchedulingPreference::LeastLoaded);
    /// assert!(spec.requirements.to_constraint().contains("cpu_mips >= 500"));
    /// ```
    #[must_use]
    pub fn with_requirements<I: IntoIterator<Item = Requirement>>(mut self, reqs: I) -> Self {
        self.requirements = reqs.into_iter().collect();
        self
    }

    /// Adds one more typed [`Requirement`] on top of the current set.
    #[must_use]
    pub fn with_requirement(mut self, req: Requirement) -> Self {
        req.apply(&mut self.requirements);
        self
    }

    /// Sets the soft scheduling preference, fluently.
    #[must_use]
    pub fn with_preference(mut self, preference: SchedulingPreference) -> Self {
        self.preference = preference;
        self
    }

    /// Requests a virtual network topology for the placement, fluently.
    #[must_use]
    pub fn with_topology(mut self, topology: TopologyRequest) -> Self {
        self.topology = Some(topology);
        self
    }

    /// For BSP jobs: sets the checkpoint cadence (`every` supersteps,
    /// 0 = never) and the marshalled per-process state size. A no-op for
    /// sequential and bag-of-tasks shapes, whose checkpointing is driven by
    /// the grid config instead.
    #[must_use]
    pub fn with_checkpointing(mut self, every: u64, bytes: u64) -> Self {
        if let JobKind::Bsp {
            checkpoint_every,
            state_bytes,
            ..
        } = &mut self.kind
        {
            *checkpoint_every = every;
            *state_bytes = bytes;
        }
        self
    }
}

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Submitted, not yet placed.
    Queued,
    /// Negotiating reservations with candidate nodes.
    Negotiating,
    /// At least one part running.
    Running,
    /// Evicted and waiting for re-placement.
    Rescheduling,
    /// All parts finished.
    Completed,
    /// Given up (no candidates after retries).
    Failed,
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobState::Queued => "queued",
            JobState::Negotiating => "negotiating",
            JobState::Running => "running",
            JobState::Rescheduling => "rescheduling",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
        };
        f.write_str(s)
    }
}

/// What the ASCT shows the user about one job — the monitoring view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job id.
    pub id: JobId,
    /// Name from the spec.
    pub name: String,
    /// Current state.
    pub state: JobState,
    /// Submission time.
    pub submitted_at: SimTime,
    /// First time any part started running.
    pub started_at: Option<SimTime>,
    /// Completion time.
    pub completed_at: Option<SimTime>,
    /// Parts finished / total.
    pub parts_done: usize,
    /// Total parts.
    pub parts_total: usize,
    /// Times parts were evicted by returning owners.
    pub evictions: u64,
    /// Scheduling negotiation refusals encountered.
    pub negotiation_refusals: u64,
    /// Work (MIPS-s) lost to evictions (re-executed).
    pub wasted_work_mips_s: u64,
}

impl JobRecord {
    /// Wall-clock from submission to completion, if completed.
    pub fn makespan(&self) -> Option<SimDuration> {
        self.completed_at.map(|done| done - self.submitted_at)
    }

    /// Wait from submission to first execution, if started.
    pub fn wait_time(&self) -> Option<SimDuration> {
        self.started_at.map(|s| s - self.submitted_at)
    }

    /// Completion fraction in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.parts_total == 0 {
            return 1.0;
        }
        self.parts_done as f64 / self.parts_total as f64
    }
}

// CDR marshalling for the submission types, so a [`JobSpec`] can travel
// between clusters inside [`crate::protocol::FedForward`] with a realistic
// wire size.

// Hand-written: a CDR union, a u32 discriminant then the variant's fields.
impl CdrEncode for JobKind {
    fn encode(&self, w: &mut CdrWriter) {
        match self {
            JobKind::Sequential { work_mips_s } => {
                0u32.encode(w);
                work_mips_s.encode(w);
            }
            JobKind::BagOfTasks { task_work_mips_s } => {
                1u32.encode(w);
                task_work_mips_s.encode(w);
            }
            JobKind::Bsp {
                procs,
                supersteps,
                work_per_superstep_mips_s,
                bytes_per_superstep,
                checkpoint_every,
                state_bytes,
            } => {
                2u32.encode(w);
                procs.encode(w);
                supersteps.encode(w);
                work_per_superstep_mips_s.encode(w);
                bytes_per_superstep.encode(w);
                checkpoint_every.encode(w);
                state_bytes.encode(w);
            }
        }
    }
}
impl CdrDecode for JobKind {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        match u32::decode(r)? {
            0 => Ok(JobKind::Sequential {
                work_mips_s: u64::decode(r)?,
            }),
            1 => Ok(JobKind::BagOfTasks {
                task_work_mips_s: Vec::decode(r)?,
            }),
            2 => Ok(JobKind::Bsp {
                procs: usize::decode(r)?,
                supersteps: u64::decode(r)?,
                work_per_superstep_mips_s: u64::decode(r)?,
                bytes_per_superstep: u64::decode(r)?,
                checkpoint_every: u64::decode(r)?,
                state_bytes: u64::decode(r)?,
            }),
            tag => Err(CdrError::InvalidDiscriminant {
                type_name: "JobKind",
                value: tag,
            }),
        }
    }
}

impl_cdr!(struct JobRequirements { platform, min_ram_mb, min_cpu_mips, extra_constraint });

impl_cdr!(
    enum SchedulingPreference {
        FastestCpu = 0,
        MostFreeRam = 1,
        LeastLoaded = 2,
        LongestPredictedIdle = 3,
        Random = 4,
    }
);

impl_cdr!(struct GroupRequest { nodes, min_intra_bps });

impl_cdr!(struct TopologyRequest { groups, min_inter_bps });

impl_cdr!(struct JobSpec { name, kind, requirements, preference, topology });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_report_parts_and_work() {
        assert_eq!(JobKind::Sequential { work_mips_s: 10 }.parts(), 1);
        let bag = JobKind::BagOfTasks {
            task_work_mips_s: vec![5, 5, 5],
        };
        assert_eq!(bag.parts(), 3);
        assert_eq!(bag.total_work(), 15);
        let bsp = JobKind::Bsp {
            procs: 4,
            supersteps: 10,
            work_per_superstep_mips_s: 2,
            bytes_per_superstep: 100,
            checkpoint_every: 5,
            state_bytes: 1_048_576,
        };
        assert_eq!(bsp.parts(), 4);
        assert_eq!(bsp.total_work(), 80);
        assert!(bsp.is_parallel());
        assert!(!bag.is_parallel());
    }

    #[test]
    fn requirements_compile_to_constraint() {
        let c = JobRequirements::paper_example().to_constraint();
        assert_eq!(
            c,
            "exporting == true and free_ram_mb >= 16 and cpu_mips >= 500"
        );
    }

    #[test]
    fn platform_and_extra_clauses_appear() {
        let r = JobRequirements {
            platform: Some(Platform::linux_x86()),
            min_ram_mb: 64,
            min_cpu_mips: 300,
            extra_constraint: Some("free_cpu >= 0.5".into()),
        };
        let c = r.to_constraint();
        assert!(c.contains("os == 'linux'"));
        assert!(c.contains("arch == 'x86'"));
        assert!(c.ends_with("(free_cpu >= 0.5)"));
        // And it parses in the trader language.
        assert!(integrade_orb::constraint::parse(&c).is_ok());
    }

    #[test]
    fn preferences_compile() {
        assert_eq!(
            SchedulingPreference::FastestCpu.to_trader_preference(),
            "max cpu_mips"
        );
        assert_eq!(
            SchedulingPreference::Random.to_trader_preference(),
            "random"
        );
    }

    #[test]
    fn paper_topology_request() {
        let t = TopologyRequest::paper_example();
        assert_eq!(t.total_nodes(), 100);
        assert_eq!(t.groups.len(), 2);
        assert_eq!(t.min_inter_bps, 10_000_000);
    }

    #[test]
    fn record_metrics() {
        let record = JobRecord {
            id: JobId(1),
            name: "test".into(),
            state: JobState::Completed,
            submitted_at: SimTime::from_secs(100),
            started_at: Some(SimTime::from_secs(160)),
            completed_at: Some(SimTime::from_secs(400)),
            parts_done: 4,
            parts_total: 4,
            evictions: 1,
            negotiation_refusals: 2,
            wasted_work_mips_s: 10,
        };
        assert_eq!(record.makespan(), Some(SimDuration::from_secs(300)));
        assert_eq!(record.wait_time(), Some(SimDuration::from_secs(60)));
        assert_eq!(record.progress(), 1.0);
    }

    #[test]
    fn requirement_list_folds_into_requirements() {
        let reqs: JobRequirements = [
            Requirement::Platform(Platform::linux_x86()),
            Requirement::MinRamMb(64),
            Requirement::MinCpuMips(300),
            Requirement::Constraint("free_cpu >= 0.5".into()),
        ]
        .into_iter()
        .collect();
        let c = reqs.to_constraint();
        assert!(c.contains("free_ram_mb >= 64"));
        assert!(c.contains("os == 'linux'"));
        assert!(c.ends_with("(free_cpu >= 0.5)"));
        assert!(integrade_orb::constraint::parse(&c).is_ok());
    }

    #[test]
    fn multiple_raw_constraints_and_together() {
        let reqs: JobRequirements = [
            Requirement::Constraint("free_cpu >= 0.5".into()),
            Requirement::Constraint("free_ram_mb >= 32".into()),
        ]
        .into_iter()
        .collect();
        let c = reqs.to_constraint();
        assert!(c.contains("(free_cpu >= 0.5) and (free_ram_mb >= 32)"));
        assert!(integrade_orb::constraint::parse(&c).is_ok());
    }

    #[test]
    fn fluent_spec_matches_field_poking() {
        let fluent = JobSpec::bsp("p", 4, 10, 5, 1024)
            .with_requirements([Requirement::MinRamMb(16), Requirement::MinCpuMips(500)])
            .with_preference(SchedulingPreference::MostFreeRam)
            .with_topology(TopologyRequest::paper_example())
            .with_checkpointing(5, 2048);
        let mut poked = JobSpec::bsp("p", 4, 10, 5, 1024);
        poked.requirements = JobRequirements {
            platform: None,
            min_ram_mb: 16,
            min_cpu_mips: 500,
            extra_constraint: None,
        };
        poked.preference = SchedulingPreference::MostFreeRam;
        poked.topology = Some(TopologyRequest::paper_example());
        if let JobKind::Bsp {
            checkpoint_every,
            state_bytes,
            ..
        } = &mut poked.kind
        {
            *checkpoint_every = 5;
            *state_bytes = 2048;
        }
        assert_eq!(fluent, poked);
    }

    #[test]
    fn with_requirement_layers_on_top() {
        let spec = JobSpec::sequential("s", 100)
            .with_requirements([Requirement::MinRamMb(16)])
            .with_requirement(Requirement::MinCpuMips(700));
        assert_eq!(spec.requirements.min_ram_mb, 16);
        assert_eq!(spec.requirements.min_cpu_mips, 700);
    }

    #[test]
    fn builders_produce_expected_shapes() {
        let s = JobSpec::sequential("s", 100);
        assert_eq!(s.kind.parts(), 1);
        let b = JobSpec::bag_of_tasks("b", 10, 50);
        assert_eq!(b.kind.parts(), 10);
        assert_eq!(b.kind.total_work(), 500);
        let p = JobSpec::bsp("p", 8, 20, 5, 1024);
        assert_eq!(p.kind.parts(), 8);
    }
}
