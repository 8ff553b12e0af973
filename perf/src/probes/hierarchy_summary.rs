//! `core.hierarchy.summary_ns`: one summary round at a hub of the fed21
//! tree: set own usage, aggregate the subtree's soft state, deliver the
//! report to the parent.

use super::fixture::Point;
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_core::hierarchy::{ClusterHierarchy, ClusterSummary, UsageSummary};
use integrade_core::types::ClusterId;
use integrade_simnet::time::{SimDuration, SimTime};

pub fn run(point: &Point, _: &mut GrmState) -> f64 {
    let mut hierarchy = ClusterHierarchy::new(ClusterId(0));
    let hub = ClusterId(1);
    hierarchy.add_cluster(hub, ClusterId(0)).expect("fresh id");
    for leaf in 2..6 {
        hierarchy
            .add_cluster(ClusterId(leaf), hub)
            .expect("fresh id");
    }
    let usage = |epoch: u64| UsageSummary {
        summary: ClusterSummary {
            nodes: point.nodes as u32,
            exporting_nodes: point.nodes as u32,
            max_cpu_mips: 1_500,
            max_free_ram_mb: 1_024,
            max_cluster_exporting: 0,
        },
        epoch,
        ..UsageSummary::default()
    };
    let staleness = SimDuration::from_secs(180);
    let mut epoch = 0;
    ns_per_op(|| {
        epoch += 1;
        let now = SimTime::from_secs(epoch * 60);
        for leaf in 2..6 {
            hierarchy
                .apply_child_report(hub, ClusterId(leaf), usage(epoch), now)
                .expect("leaf of the hub");
        }
        hierarchy.set_own_usage(hub, usage(epoch)).expect("member");
        let report = hierarchy
            .reported_subtree(hub, now, staleness)
            .expect("member");
        hierarchy.apply_child_report(ClusterId(0), hub, report, now)
    })
}
