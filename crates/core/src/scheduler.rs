//! Scheduling strategies.
//!
//! The GRM "selects a candidate node for execution, based on resource
//! availability and application requirements", using "its local information
//! about the cluster state as a hint" (§4). On top of the trader-filtered
//! candidate list this module implements three ranking strategies — the E5
//! comparison set — plus the virtual-topology group placement of §3 and the
//! BSP-cost placement scoring used by E8:
//!
//! * [`Strategy::Random`] — uniformly random (control);
//! * [`Strategy::AvailabilityOnly`] — rank by the user's preference over
//!   current status only (what a pattern-blind scheduler can do);
//! * [`Strategy::PatternAware`] — rank primarily by the GUPA's predicted
//!   probability that each node stays idle through the job, then by the
//!   user preference (the paper's proposal).

use crate::asct::{SchedulingPreference, TopologyRequest};
use crate::types::{NodeId, NodeStatus, ResourceVector};
use integrade_simnet::rng::DetRng;
use integrade_simnet::topology::{ClusterTag, HostId, PathQuality, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A node that passed the trader constraint, with everything the ranker may
/// consider.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateNode {
    /// The node.
    pub node: NodeId,
    /// Its simnet host (for topology queries).
    pub host: HostId,
    /// Last known status (possibly stale — negotiation re-checks).
    pub status: NodeStatus,
    /// Static capacity.
    pub resources: ResourceVector,
    /// GUPA's P(stays idle through the job), when available.
    pub predicted_idle_prob: Option<f64>,
}

/// Node-ranking strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Uniform random order.
    Random,
    /// Order by the user's preference over current status.
    AvailabilityOnly,
    /// Order by predicted idleness first (GUPA), preference second.
    PatternAware,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::Random => "random",
            Strategy::AvailabilityOnly => "availability-only",
            Strategy::PatternAware => "pattern-aware",
        };
        f.write_str(s)
    }
}

fn preference_key(c: &CandidateNode, preference: SchedulingPreference) -> f64 {
    match preference {
        SchedulingPreference::FastestCpu => c.resources.cpu_mips as f64,
        SchedulingPreference::MostFreeRam => c.status.free_ram_mb as f64,
        SchedulingPreference::LeastLoaded => c.status.free_cpu_fraction,
        // Idle prediction as a preference degrades to availability when no
        // prediction exists.
        SchedulingPreference::LongestPredictedIdle => c.predicted_idle_prob.unwrap_or(0.0),
        SchedulingPreference::Random => 0.0,
    }
}

/// Ranks candidates best-first under `strategy` and `preference`.
///
/// Deterministic for a given `rng` state; ties break by node id so runs
/// replay exactly.
pub fn rank(
    candidates: &[CandidateNode],
    strategy: Strategy,
    preference: SchedulingPreference,
    rng: &mut DetRng,
) -> Vec<CandidateNode> {
    let mut ranked: Vec<CandidateNode> = candidates.to_vec();
    match strategy {
        Strategy::Random => rng.shuffle(&mut ranked),
        Strategy::AvailabilityOnly => {
            ranked.sort_by(|a, b| {
                preference_key(b, preference)
                    .total_cmp(&preference_key(a, preference))
                    .then(a.node.cmp(&b.node))
            });
        }
        Strategy::PatternAware => {
            ranked.sort_by(|a, b| {
                let pa = a.predicted_idle_prob.unwrap_or(0.5);
                let pb = b.predicted_idle_prob.unwrap_or(0.5);
                pb.total_cmp(&pa)
                    .then(preference_key(b, preference).total_cmp(&preference_key(a, preference)))
                    .then(a.node.cmp(&b.node))
            });
        }
    }
    ranked
}

/// Why a virtual-topology placement failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// Fewer candidates than requested nodes.
    NotEnoughNodes {
        /// Nodes requested across all groups.
        requested: usize,
        /// Candidates available.
        available: usize,
    },
    /// No cluster (or cluster set) satisfies a group's size + bandwidth.
    GroupUnsatisfiable {
        /// Index of the group in the request.
        group: usize,
    },
    /// Groups placed, but an inter-group path is below the floor.
    InterGroupBandwidth {
        /// Measured bottleneck, bits/s.
        got: u64,
        /// Required floor, bits/s.
        needed: u64,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NotEnoughNodes {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} nodes but only {available} candidates"
                )
            }
            PlacementError::GroupUnsatisfiable { group } => {
                write!(f, "no cluster satisfies group {group}")
            }
            PlacementError::InterGroupBandwidth { got, needed } => {
                write!(
                    f,
                    "inter-group bandwidth {got} bps below required {needed} bps"
                )
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// A satisfied virtual-topology placement.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPlacement {
    /// Chosen nodes, one vec per requested group.
    pub groups: Vec<Vec<CandidateNode>>,
    /// Worst intra-group path observed.
    pub worst_intra: PathQuality,
    /// Worst inter-group path observed (loopback if single group).
    pub worst_inter: PathQuality,
}

/// Places a [`TopologyRequest`] over the candidates: each group goes into a
/// single physical cluster whose internal bandwidth meets the group floor,
/// and inter-group paths must meet the request's inter floor. Candidates
/// should arrive pre-ranked (best first); within a cluster the best-ranked
/// are picked.
///
/// # Errors
///
/// Returns a [`PlacementError`] describing the first unsatisfiable part.
pub fn place_groups(
    topology: &mut Topology,
    candidates: &[CandidateNode],
    request: &TopologyRequest,
) -> Result<GroupPlacement, PlacementError> {
    let requested = request.total_nodes();
    if candidates.len() < requested {
        return Err(PlacementError::NotEnoughNodes {
            requested,
            available: candidates.len(),
        });
    }
    // Bucket candidates by physical cluster, preserving rank order.
    let mut by_cluster: BTreeMap<ClusterTag, Vec<&CandidateNode>> = BTreeMap::new();
    for c in candidates {
        if let Some(tag) = topology.cluster_of(c.host) {
            by_cluster.entry(tag).or_default().push(c);
        }
    }

    // Largest groups first: hardest to place.
    let mut group_order: Vec<usize> = (0..request.groups.len()).collect();
    group_order.sort_by_key(|&g| std::cmp::Reverse(request.groups[g].nodes));

    let mut used_clusters: Vec<ClusterTag> = Vec::new();
    let mut placed: Vec<Option<Vec<CandidateNode>>> = vec![None; request.groups.len()];
    let mut worst_intra = PathQuality::loopback();

    for &g in &group_order {
        let need = request.groups[g].nodes;
        let floor = request.groups[g].min_intra_bps;
        let mut chosen: Option<(ClusterTag, Vec<CandidateNode>)> = None;
        for (&tag, members) in &by_cluster {
            if used_clusters.contains(&tag) || members.len() < need {
                continue;
            }
            let pick: Vec<CandidateNode> =
                members.iter().take(need).map(|c| (*c).clone()).collect();
            // Verify the intra-group bandwidth floor on representative
            // pairs (adjacent + endpoints — a switched cluster is uniform).
            let mut ok = true;
            let mut local_worst = PathQuality::loopback();
            for window in pick.windows(2) {
                match topology.path_quality(window[0].host, window[1].host) {
                    Ok(q) if q.bottleneck_bps >= floor => {
                        if q.bottleneck_bps < local_worst.bottleneck_bps {
                            local_worst = q;
                        }
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                if local_worst.bottleneck_bps < worst_intra.bottleneck_bps {
                    worst_intra = local_worst;
                }
                chosen = Some((tag, pick));
                break;
            }
        }
        match chosen {
            Some((tag, pick)) => {
                used_clusters.push(tag);
                placed[g] = Some(pick);
            }
            None => return Err(PlacementError::GroupUnsatisfiable { group: g }),
        }
    }

    let groups: Vec<Vec<CandidateNode>> =
        placed.into_iter().map(|g| g.expect("all placed")).collect();

    // Inter-group floor between group representatives.
    let mut worst_inter = PathQuality::loopback();
    for i in 0..groups.len() {
        for j in (i + 1)..groups.len() {
            let a = &groups[i][0];
            let b = &groups[j][0];
            match topology.path_quality(a.host, b.host) {
                Ok(q) => {
                    if q.bottleneck_bps < request.min_inter_bps {
                        return Err(PlacementError::InterGroupBandwidth {
                            got: q.bottleneck_bps,
                            needed: request.min_inter_bps,
                        });
                    }
                    if q.bottleneck_bps < worst_inter.bottleneck_bps {
                        worst_inter = q;
                    }
                }
                Err(_) => {
                    return Err(PlacementError::InterGroupBandwidth {
                        got: 0,
                        needed: request.min_inter_bps,
                    })
                }
            }
        }
    }
    Ok(GroupPlacement {
        groups,
        worst_intra,
        worst_inter,
    })
}

/// Topology-blind alternative for comparison (E8): take the top-ranked
/// nodes regardless of where they sit.
pub fn place_blind(candidates: &[CandidateNode], count: usize) -> Option<Vec<CandidateNode>> {
    if candidates.len() < count {
        None
    } else {
        Some(candidates[..count].to_vec())
    }
}

/// Worst pairwise path among a placement — the `g`/`l` driver of the BSP
/// cost model. Samples adjacent pairs plus the endpoints for O(n) cost.
pub fn worst_path(topology: &mut Topology, nodes: &[CandidateNode]) -> Option<PathQuality> {
    if nodes.len() < 2 {
        return Some(PathQuality::loopback());
    }
    let mut worst = PathQuality::loopback();
    let update = |q: PathQuality, worst: &mut PathQuality| {
        if q.bottleneck_bps < worst.bottleneck_bps
            || (q.bottleneck_bps == worst.bottleneck_bps && q.latency > worst.latency)
        {
            *worst = q;
        }
    };
    for window in nodes.windows(2) {
        let q = topology.path_quality(window[0].host, window[1].host).ok()?;
        update(q, &mut worst);
    }
    let q = topology
        .path_quality(nodes[0].host, nodes[nodes.len() - 1].host)
        .ok()?;
    update(q, &mut worst);
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asct::GroupRequest;
    use integrade_simnet::topology::LinkSpec;

    fn candidate(node: u32, host: HostId, mips: u64, idle_prob: Option<f64>) -> CandidateNode {
        CandidateNode {
            node: NodeId(node),
            host,
            status: NodeStatus {
                free_cpu_fraction: 0.3,
                free_ram_mb: 128,
                owner_active: false,
                exporting: true,
                running_parts: 0,
            },
            resources: ResourceVector {
                cpu_mips: mips,
                ram_mb: 256,
                disk_mb: 10_000,
            },
            predicted_idle_prob: idle_prob,
        }
    }

    #[test]
    fn availability_only_follows_preference() {
        let cands = vec![
            candidate(1, HostId(1), 400, None),
            candidate(2, HostId(2), 900, None),
            candidate(3, HostId(3), 600, None),
        ];
        let mut rng = DetRng::new(1);
        let ranked = rank(
            &cands,
            Strategy::AvailabilityOnly,
            SchedulingPreference::FastestCpu,
            &mut rng,
        );
        let order: Vec<u32> = ranked.iter().map(|c| c.node.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn pattern_aware_puts_predicted_idle_first() {
        let cands = vec![
            candidate(1, HostId(1), 2000, Some(0.1)), // fast but about to be reclaimed
            candidate(2, HostId(2), 500, Some(0.95)), // slow but solidly idle
        ];
        let mut rng = DetRng::new(1);
        let ranked = rank(
            &cands,
            Strategy::PatternAware,
            SchedulingPreference::FastestCpu,
            &mut rng,
        );
        assert_eq!(ranked[0].node, NodeId(2));
        // Availability-only would choose the opposite.
        let ranked = rank(
            &cands,
            Strategy::AvailabilityOnly,
            SchedulingPreference::FastestCpu,
            &mut rng,
        );
        assert_eq!(ranked[0].node, NodeId(1));
    }

    #[test]
    fn pattern_aware_breaks_prediction_ties_by_preference() {
        let cands = vec![
            candidate(1, HostId(1), 400, Some(0.9)),
            candidate(2, HostId(2), 900, Some(0.9)),
        ];
        let mut rng = DetRng::new(1);
        let ranked = rank(
            &cands,
            Strategy::PatternAware,
            SchedulingPreference::FastestCpu,
            &mut rng,
        );
        assert_eq!(ranked[0].node, NodeId(2));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let cands: Vec<CandidateNode> = (0..10)
            .map(|i| candidate(i, HostId(i), 500, None))
            .collect();
        let mut a = DetRng::new(5);
        let mut b = DetRng::new(5);
        let ra = rank(
            &cands,
            Strategy::Random,
            SchedulingPreference::Random,
            &mut a,
        );
        let rb = rank(
            &cands,
            Strategy::Random,
            SchedulingPreference::Random,
            &mut b,
        );
        assert_eq!(
            ra.iter().map(|c| c.node).collect::<Vec<_>>(),
            rb.iter().map(|c| c.node).collect::<Vec<_>>()
        );
    }

    /// A campus with 2 clusters of 60 nodes (100 Mbps inside, 10 Mbps core).
    fn paper_campus() -> (Topology, Vec<CandidateNode>) {
        let (topo, clusters) =
            Topology::campus(2, 60, LinkSpec::lan_100mbps(), LinkSpec::lan_10mbps());
        let mut cands = Vec::new();
        let mut id = 0;
        for (_, hosts) in &clusters {
            for &h in hosts {
                cands.push(candidate(id, h, 700, None));
                id += 1;
            }
        }
        (topo, cands)
    }

    #[test]
    fn paper_example_request_is_satisfied() {
        // §3: two groups of 50, 100 Mbps intra, 10 Mbps inter.
        let (mut topo, cands) = paper_campus();
        let request = TopologyRequest::paper_example();
        let placement = place_groups(&mut topo, &cands, &request).unwrap();
        assert_eq!(placement.groups.len(), 2);
        assert_eq!(placement.groups[0].len(), 50);
        assert_eq!(placement.groups[1].len(), 50);
        assert!(placement.worst_intra.bottleneck_bps >= 100_000_000);
        assert!(placement.worst_inter.bottleneck_bps >= 10_000_000);
        // Groups land in different clusters.
        let c0 = topo.cluster_of(placement.groups[0][0].host);
        let c1 = topo.cluster_of(placement.groups[1][0].host);
        assert_ne!(c0, c1);
    }

    #[test]
    fn oversized_group_fails() {
        let (mut topo, cands) = paper_campus();
        let request = TopologyRequest {
            groups: vec![GroupRequest {
                nodes: 70, // no single 100 Mbps cluster has 70
                min_intra_bps: 100_000_000,
            }],
            min_inter_bps: 0,
        };
        assert_eq!(
            place_groups(&mut topo, &cands, &request).unwrap_err(),
            PlacementError::GroupUnsatisfiable { group: 0 }
        );
    }

    #[test]
    fn not_enough_candidates_fails_fast() {
        let (mut topo, cands) = paper_campus();
        let request = TopologyRequest {
            groups: vec![GroupRequest {
                nodes: 200,
                min_intra_bps: 0,
            }],
            min_inter_bps: 0,
        };
        assert!(matches!(
            place_groups(&mut topo, &cands, &request).unwrap_err(),
            PlacementError::NotEnoughNodes { requested: 200, .. }
        ));
    }

    #[test]
    fn inter_group_floor_enforced() {
        let (mut topo, cands) = paper_campus();
        let request = TopologyRequest {
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
            min_inter_bps: 50_000_000, // core is only 10 Mbps
        };
        assert!(matches!(
            place_groups(&mut topo, &cands, &request).unwrap_err(),
            PlacementError::InterGroupBandwidth { .. }
        ));
    }

    #[test]
    fn blind_placement_ignores_clusters() {
        let (_, cands) = paper_campus();
        let blind = place_blind(&cands, 100).unwrap();
        assert_eq!(blind.len(), 100);
        assert!(place_blind(&cands, 1000).is_none());
    }

    #[test]
    fn worst_path_detects_cross_cluster_placement() {
        let (mut topo, cands) = paper_campus();
        // First 50 are all in cluster 0: worst path is intra (100 Mbps).
        let intra = worst_path(&mut topo, &cands[..50]).unwrap();
        assert_eq!(intra.bottleneck_bps, 100_000_000);
        // A straddling placement crosses the 10 Mbps core.
        let straddle = worst_path(&mut topo, &cands[30..90]).unwrap();
        assert_eq!(straddle.bottleneck_bps, 10_000_000);
    }

    #[test]
    fn worst_path_single_node_is_loopback() {
        let (mut topo, cands) = paper_campus();
        let q = worst_path(&mut topo, &cands[..1]).unwrap();
        assert_eq!(q.hops, 0);
    }
}
