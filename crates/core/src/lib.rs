//! # integrade-core
//!
//! The InteGrade grid middleware — a reproduction of Goldchleger, Kon,
//! Goldman & Finger, *"InteGrade: Object-Oriented Grid Middleware
//! Leveraging Idle Computing Power of Desktop Machines"* (Middleware 2003).
//!
//! The crate implements the complete intra-cluster architecture of the
//! paper's Figure 1 plus the inter-cluster hierarchy:
//!
//! * [`lrm`] — Local Resource Manager: per-node monitoring, the
//!   Information Update Protocol sender, reservation/launch negotiation,
//!   the owner-protecting user-level scheduler and eviction.
//! * [`grm`] — Global Resource Manager: Trading-service-backed node
//!   registry and the scheduling hint store.
//! * [`gupa`] / the LUPA collection inside [`lrm`] — usage-pattern
//!   analysis and idle-period prediction.
//! * [`ncc`] — Node Control Center: the owner's sharing policy.
//! * [`asct`] — Application Submission and Control Tool: job
//!   specifications, requirements→constraint compilation, monitoring.
//! * [`protocol`] — the CDR-marshalled intra-cluster protocol messages.
//! * [`repo`] — the distributed checkpoint repository: per-LRM replica
//!   storage with CRC32 integrity digests and the GRM's soft-state
//!   replica map.
//! * [`scheduler`] — random / availability-only / pattern-aware ranking
//!   and the §3 virtual-topology group placement.
//! * [`hierarchy`] — wide-area cluster hierarchy with aggregate summaries
//!   and request routing; [`federation`] runs one grid per cluster under it.
//! * [`qos`] — owner-perceived slowdown accounting.
//! * [`grid`] — the assembled, runnable grid simulation. It owns every
//!   node's state as plain data; the per-node slot kernel, the lazy walk's
//!   frame and the chunked report flush live in the private `tick` module.
//!
//! # Examples
//!
//! ```
//! use integrade_core::asct::JobSpec;
//! use integrade_core::grid::{GridBuilder, GridConfig, NodeSetup};
//! use integrade_simnet::time::SimTime;
//!
//! let mut builder = GridBuilder::new(GridConfig::default());
//! builder.add_cluster((0..4).map(|_| NodeSetup::idle_desktop()).collect());
//! let mut grid = builder.build();
//!
//! let job = grid.submit(JobSpec::sequential("render-frame", 1500));
//! grid.run_until(SimTime::from_secs(3600));
//! let record = grid.job_record(job).unwrap();
//! assert_eq!(record.state.to_string(), "completed");
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod asct;
pub mod builder;
pub mod federation;
pub mod grid;
pub mod grm;
pub mod gupa;
pub mod hierarchy;
pub mod lrm;
pub mod ncc;
pub mod observe;
mod par;
pub mod protocol;
pub mod qos;
pub mod repo;
pub mod scheduler;
mod tick;
pub mod types;

pub use asct::{
    JobKind, JobRecord, JobRequirements, JobSpec, JobState, SchedulingPreference, TopologyRequest,
};
pub use federation::{
    FederatedPlacement, Federation, FederationBuilder, FederationError, GlobalJobId, RoutingPolicy,
    WanStats,
};
pub use grid::{Grid, GridBuilder, GridConfig, GridReport, NodeSetup};
pub use ncc::{SharingPolicy, WeeklySchedule};
pub use scheduler::Strategy;
pub use types::{ClusterId, JobId, NodeId, NodeRoles, NodeStatus, Platform, ResourceVector};
