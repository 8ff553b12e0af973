//! E9 (hierarchy scalability) and E10 (middleware wire costs).

use crate::table::{f2, Table};
use integrade_core::hierarchy::{ClusterHierarchy, ClusterSummary, UsageSummary, WideAreaRequest};
use integrade_core::protocol::{LaunchRequest, ReserveRequest, StatusUpdate};
use integrade_core::types::{ClusterId, JobId, NodeId, NodeStatus};
use integrade_orb::cdr::CdrEncode;
use integrade_orb::giop::Message;
use integrade_orb::ior::ObjectKey;
use integrade_simnet::time::{SimDuration, SimTime};

fn leaf_usage(exporting: u32) -> UsageSummary {
    let summary = ClusterSummary {
        nodes: 64,
        exporting_nodes: exporting,
        max_cpu_mips: 1000,
        max_free_ram_mb: 256,
        ..Default::default()
    };
    UsageSummary {
        summary,
        ..Default::default()
    }
}

/// E9: per-manager message load per reporting period, hierarchy vs flat
/// directory, as the grid grows.
pub fn e9() -> Table {
    let mut table = Table::new(
        "E9: wide-area scalability — one reporting period, every cluster reports once",
        &[
            "fanout",
            "depth",
            "clusters",
            "hier_total_msgs",
            "hier_msgs_per_manager",
            "flat_root_msgs",
            "route_hops",
        ],
    );
    let now = SimTime::from_secs(60);
    let staleness = SimDuration::from_secs(180);
    for &(fanout, depth) in &[(2usize, 2usize), (4, 2), (4, 3), (8, 2), (8, 3), (16, 2)] {
        let (mut hierarchy, leaves) = ClusterHierarchy::uniform(fanout, depth);
        // Only the last leaf can serve the request below, so routing it
        // from the first leaf is the worst-case traversal.
        let (&last, rest) = leaves.split_last().unwrap();
        hierarchy.set_own_usage(last, leaf_usage(1000)).unwrap();
        for &leaf in rest {
            hierarchy.set_own_usage(leaf, leaf_usage(40)).unwrap();
        }
        // One period with nothing lost: every cluster sends its reported
        // subtree one edge up, children before parents (`uniform` numbers
        // clusters breadth-first, so descending id order is bottom-up).
        for id in (1..hierarchy.len() as u32).rev().map(ClusterId) {
            let parent = hierarchy.parent(id).unwrap();
            let report = hierarchy.reported_subtree(id, now, staleness).unwrap();
            hierarchy
                .apply_child_report(parent, id, report, now)
                .unwrap();
        }
        let hier_msgs = hierarchy.stats().update_messages;
        let managers = hierarchy.len() - leaves.len();
        // In the flat design every cluster below the root reports straight
        // to the one global GRM.
        let flat_root_msgs = hierarchy.len() - 1;
        let request = WideAreaRequest {
            nodes: 500,
            min_cpu_mips: 500,
            min_ram_mb: 64,
        };
        let route = hierarchy
            .route_soft(leaves[0], &request, now, staleness)
            .unwrap();
        assert_eq!(route.target, Some(last));
        table.push_row(vec![
            fanout.to_string(),
            depth.to_string(),
            hierarchy.len().to_string(),
            hier_msgs.to_string(),
            f2(hier_msgs as f64 / managers as f64),
            flat_root_msgs.to_string(),
            route.walked.to_string(),
        ]);
    }
    table
}

/// E10: wire sizes of the middleware's protocol messages — the "lightweight
/// ORB" claim made concrete.
pub fn e10() -> Table {
    let mut table = Table::new(
        "E10: protocol message wire sizes (CDR body + 12-byte GIOP header)",
        &["message", "body_bytes", "wire_bytes", "overhead_pct"],
    );
    let mut push = |name: &str, body: Vec<u8>, operation: &str| {
        let msg = Message::Request {
            request_id: 1,
            response_expected: true,
            object_key: ObjectKey::new("integrade/lrm"),
            operation: operation.to_owned(),
            body: body.clone().into(),
        };
        let wire = msg.wire_size();
        table.push_row(vec![
            name.to_owned(),
            body.len().to_string(),
            wire.to_string(),
            f2(100.0 * (wire - body.len()) as f64 / wire as f64),
        ]);
    };
    push(
        "StatusUpdate",
        StatusUpdate {
            node: NodeId(42),
            seq: 1234,
            status: NodeStatus {
                free_cpu_fraction: 0.3,
                free_ram_mb: 128,
                owner_active: false,
                exporting: true,
                running_parts: 1,
            },
            replicas: vec![],
            pending_done: vec![],
            pending_evicted: vec![],
            progress: vec![],
        }
        .to_cdr_bytes(),
        "update_status",
    );
    push(
        "ReserveRequest",
        ReserveRequest {
            request_id: 1,
            job: JobId(7),
            part: 3,
            ram_mb: 64,
            min_cpu_fraction: 0.1,
            duration_hint_s: 600,
        }
        .to_cdr_bytes(),
        "reserve",
    );
    push(
        "LaunchRequest",
        LaunchRequest {
            request_id: 2,
            reservation: 99,
            job: JobId(7),
            part: 3,
            work_mips_s: 1_000_000,
            checkpoint_interval_mips_s: 0.0,
            state_bytes: 4096,
            resume_version: 0,
            replicas: vec![],
        }
        .to_cdr_bytes(),
        "launch",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_hierarchy_bounds_per_cluster_load() {
        let table = e9();
        for row in 0..table.rows.len() {
            let fanout = table.cell_f64(row, "fanout").unwrap();
            let depth = table.cell_f64(row, "depth").unwrap();
            let clusters = table.cell_f64(row, "clusters").unwrap();
            // A manager hears from its fan-out each period; never from the
            // cluster count.
            let per_manager = table.cell_f64(row, "hier_msgs_per_manager").unwrap();
            assert!(
                (per_manager - fanout).abs() < 1e-9,
                "row {row}: {per_manager} vs fan-out {fanout}"
            );
            // The flat root absorbs one message per cluster (linear).
            let flat = table.cell_f64(row, "flat_root_msgs").unwrap();
            assert_eq!(flat, clusters - 1.0);
            // The worst-case request is found, crossing the whole tree.
            let hops = table.cell_f64(row, "route_hops").unwrap();
            assert_eq!(hops, 2.0 * depth, "row {row}");
        }
    }

    #[test]
    fn e10_messages_are_small() {
        let table = e10();
        for row in 0..table.rows.len() {
            let wire = table.cell_f64(row, "wire_bytes").unwrap();
            assert!(wire <= 160.0, "protocol messages are tens of bytes: {wire}");
        }
    }
}
