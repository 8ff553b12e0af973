//! Wide-area InteGrade: a hierarchy of running clusters.
//!
//! "Clusters are then arranged in a hierarchy, allowing a single InteGrade
//! grid to encompass millions of machines" (§4). This example federates a
//! three-level campus (campus → departments → labs), each cluster a running
//! grid with its own GRM. Every update period each cluster reports its
//! subtree's usage summary one WAN edge up; inner clusters hold those
//! reports as soft state that expires. A request the local lab cannot
//! satisfy is routed over that soft state to a lab in another department —
//! the [MK02] wide-area extension — forwarded there, executed, and its
//! completion reported back to the origin.
//!
//! Run with: `cargo run --example wide_area`

use integrade::core::asct::JobSpec;
use integrade::core::federation::{Federation, RoutingPolicy};
use integrade::core::grid::{Grid, GridBuilder, GridConfig, NodeSetup};
use integrade::core::types::{ClusterId, ResourceVector};
use integrade::simnet::time::{SimDuration, SimTime};
use integrade::simnet::topology::LinkSpec;

const NAMES: [&str; 6] = ["campus", "cs", "physics", "lab-a", "lab-b", "lab-c"];

fn grid_of(nodes: usize, cpu_mips: u64) -> Grid {
    let mut b = GridBuilder::new(GridConfig::builder().gupa_warmup_days(0).build());
    b.add_cluster(
        (0..nodes)
            .map(|_| NodeSetup {
                resources: ResourceVector {
                    cpu_mips,
                    ..ResourceVector::desktop()
                },
                ..NodeSetup::idle_desktop()
            })
            .collect(),
    );
    b.build()
}

fn main() {
    // campus(0) — cs(1), physics(2); cs — lab-a(3), lab-b(4); physics — lab-c(5).
    // The departments sit a regional link away from the campus GRM; labs
    // reach their department over the default metro link.
    let staleness = SimDuration::from_secs(180);
    let mut federation = Federation::builder()
        .seed(42)
        .routing(RoutingPolicy::HierarchySummaries)
        .staleness(staleness)
        .root(ClusterId(0), grid_of(2, 500))
        .child_linked(
            ClusterId(1),
            ClusterId(0),
            grid_of(2, 500),
            LinkSpec::wan_regional(),
        )
        .child_linked(
            ClusterId(2),
            ClusterId(0),
            grid_of(2, 500),
            LinkSpec::wan_regional(),
        )
        .child(ClusterId(3), ClusterId(1), grid_of(8, 500))
        .child(ClusterId(4), ClusterId(1), grid_of(8, 500))
        .child(ClusterId(5), ClusterId(2), grid_of(24, 1500))
        .build()
        .unwrap();

    // Each cluster reports once per 60 s update period. A lab's summary is
    // news at the campus GRM only after a report has crossed both edges in
    // between: one period is not enough.
    println!("== Reported soft state (nodes exporting / fastest MIPS in each subtree) ==");
    for periods in [1u64, 3] {
        federation.run_until(SimTime::from_secs(60 * periods + 59));
        let views: Vec<String> = (0..6u32)
            .map(|id| {
                let view = federation
                    .hierarchy()
                    .reported_subtree(ClusterId(id), federation.now(), staleness)
                    .unwrap()
                    .summary;
                format!(
                    "{} {}/{}",
                    NAMES[id as usize], view.exporting_nodes, view.max_cpu_mips
                )
            })
            .collect();
        println!("after {periods} period(s): {}", views.join(", "));
    }
    println!(
        "{} summary reports delivered, one per edge per period — each GRM hears\n\
         only from its own children, never from the whole grid",
        federation.hierarchy().stats().update_messages
    );

    // A user in lab-a asks for 12 fast nodes; lab-a has 8 slow ones.
    println!("\n== Request from lab-a: 12 tasks on nodes of ≥1000 MIPS ==");
    let mut spec = JobSpec::bag_of_tasks("federated-bag", 12, 60_000);
    spec.requirements.min_cpu_mips = 1000;
    let placed = federation.submit(ClusterId(3), spec).unwrap();
    println!(
        "routed to {} in {} inter-cluster hops ({} routing messages, {} WAN bytes)",
        NAMES[placed.id.cluster.0 as usize],
        placed.hops,
        federation.hierarchy().stats().routing_messages,
        placed.wan_bytes
    );

    federation.run_until(SimTime::from_secs(4 * 3600));
    federation.refresh();
    let wan = federation.wan_stats();
    println!(
        "state: {:?}, origin knows completion: {}, total completed: {}",
        federation.job_state(placed.id).unwrap(),
        federation.origin_knows_complete(placed.id),
        federation.total_completed()
    );
    println!(
        "WAN traffic: {} messages, {} bytes ({} summary updates, {} forwards, {} statuses)",
        wan.messages, wan.bytes, wan.summary_updates, wan.forwards, wan.status_messages
    );
}
