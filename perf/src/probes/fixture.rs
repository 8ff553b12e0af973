//! Inputs the probes share: the workload's operating point and the
//! layer objects populated to it.

use integrade_core::asct::JobSpec;
use integrade_core::grm::{GrmState, NodeRegistration};
use integrade_core::protocol::StatusUpdate;
use integrade_core::types::{NodeId, NodeStatus, Platform, ResourceVector};
use integrade_orb::ior::{Endpoint, Ior, ObjectKey};
use integrade_simnet::rng::DetRng;
use integrade_simnet::topology::HostId;
use integrade_usage::sample::{DayPeriod, SampleWindow, SamplingConfig};
use integrade_workload::desktop::{generate_trace, Archetype, TraceConfig};

/// Where on its cost curve each layer is probed.
#[derive(Debug, Clone)]
pub struct Point {
    /// Offers in the trader and nodes at the GRM: the node count of one
    /// cluster of the workload.
    pub nodes: usize,
    /// Standing event-queue depth: the run's `simnet.event.peak_depth`.
    pub queue_depth: usize,
    /// The workload's `--seed`.
    pub seed: u64,
}

/// The constraint string the workload's jobs compile to.
pub fn constraint() -> String {
    JobSpec::sequential("probe", 1).requirements.to_constraint()
}

/// The status an idle, exporting desktop reports, as the workload's LRMs
/// send it; `seq` varies a field so a modify has something to write.
pub fn status_update(node: u32, seq: u64) -> StatusUpdate {
    StatusUpdate {
        node: NodeId(node),
        seq,
        status: NodeStatus {
            free_cpu_fraction: 0.30 - (seq % 5) as f64 * 0.01,
            free_ram_mb: 128,
            owner_active: false,
            exporting: true,
            running_parts: 0,
        },
        replicas: vec![],
        pending_done: vec![],
        pending_evicted: vec![],
        progress: vec![],
    }
}

/// The object reference of node `i`'s LRM.
pub fn lrm_ior(i: u32) -> Ior {
    Ior::new(
        "IDL:integrade/Lrm:1.0",
        Endpoint::new(i, 0),
        ObjectKey::new(format!("lrm{i}")),
    )
}

/// A GRM with `point.nodes` registered desktops, each heard from once.
pub fn grm(point: &Point) -> GrmState {
    let mut grm = GrmState::new(point.seed);
    for i in 0..point.nodes as u32 {
        grm.register_node(NodeRegistration {
            node: NodeId(i),
            host: HostId(i),
            resources: ResourceVector::desktop(),
            platform: Platform::linux_x86(),
            lrm: lrm_ior(i),
        });
        grm.handle_update(&status_update(i, 1));
    }
    grm
}

/// `days` completed day periods of a seeded office-worker trace.
pub fn day_periods(seed: u64, days: usize) -> Vec<DayPeriod> {
    let mut rng = DetRng::new(seed);
    let trace = generate_trace(
        Archetype::OfficeWorker,
        &TraceConfig {
            weeks: days.div_ceil(7),
            ..TraceConfig::default()
        },
        &mut rng,
    );
    let mut window = SampleWindow::new(SamplingConfig::default());
    for &sample in &trace {
        window.push(sample);
    }
    window.take_completed().into_iter().take(days).collect()
}

/// Days of history the usage probes train on (the GUPA threshold).
pub const HISTORY_DAYS: usize = 7;
