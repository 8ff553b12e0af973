//! Network topology: hosts, switches, links, clusters, routing.
//!
//! The topology is an undirected weighted graph. Vertices are either *hosts*
//! (machines that send and receive) or *switches* (pure forwarders); edges
//! carry a latency and a bandwidth. Routing minimises latency (Dijkstra) and
//! routes are cached, since grid topologies are static during a run.
//!
//! Hosts can be tagged with a cluster, which the grid layer uses to model
//! InteGrade's intra-cluster (fast) versus inter-cluster (slow) connectivity
//! — e.g. the paper's "100 Mbps inside each group, 10 Mbps between groups".

use crate::idmap::{DenseId, IdMap};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of a vertex (host or switch) in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl DenseId for HostId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a cluster grouping of hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClusterTag(pub u32);

impl fmt::Display for ClusterTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Physical characteristics of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
}

impl LinkSpec {
    /// A standard switched 100 Mbps LAN link (the paper's intra-group network).
    pub fn lan_100mbps() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(200),
            bandwidth_bps: 100_000_000,
        }
    }

    /// A 10 Mbps link (the paper's inter-group network).
    pub fn lan_10mbps() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(500),
            bandwidth_bps: 10_000_000,
        }
    }

    /// A gigabit LAN link.
    pub fn lan_1gbps() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: 1_000_000_000,
        }
    }

    /// A wide-area link with tens of milliseconds of latency.
    pub fn wan(latency_ms: u64, bandwidth_bps: u64) -> Self {
        LinkSpec {
            latency: SimDuration::from_millis(latency_ms),
            bandwidth_bps,
        }
    }

    /// Metro-area WAN tier: clusters on the same campus or city ring
    /// (~2 ms, 1 Gbps). The default tier for federation links.
    pub fn wan_metro() -> Self {
        LinkSpec::wan(2, 1_000_000_000)
    }

    /// Regional WAN tier: clusters a few hundred kilometres apart
    /// (~20 ms, 100 Mbps).
    pub fn wan_regional() -> Self {
        LinkSpec::wan(20, 100_000_000)
    }

    /// Intercontinental WAN tier: clusters across an ocean
    /// (~120 ms, 10 Mbps).
    pub fn wan_intercontinental() -> Self {
        LinkSpec::wan(120, 10_000_000)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum VertexKind {
    Host,
    Switch,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Vertex {
    kind: VertexKind,
    name: String,
    cluster: Option<ClusterTag>,
    up: bool,
}

/// Quality of the routed path between two hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathQuality {
    /// Sum of link latencies along the path.
    pub latency: SimDuration,
    /// Minimum link bandwidth along the path (the bottleneck).
    pub bottleneck_bps: u64,
    /// Number of links traversed.
    pub hops: u32,
}

impl PathQuality {
    /// Path quality for a host talking to itself (loopback).
    pub fn loopback() -> Self {
        PathQuality {
            latency: SimDuration::from_micros(5),
            bottleneck_bps: 10_000_000_000,
            hops: 0,
        }
    }

    /// Time to move `bytes` across this path: latency + serialisation at the
    /// bottleneck link.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        let bits = bytes.saturating_mul(8);
        let tx_us = (bits as u128 * 1_000_000 / self.bottleneck_bps.max(1) as u128) as u64;
        self.latency + SimDuration::from_micros(tx_us)
    }
}

/// Errors from topology queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The referenced vertex does not exist.
    UnknownHost(HostId),
    /// The two hosts are not connected by any path of up links.
    Unreachable {
        /// Source host.
        from: HostId,
        /// Destination host.
        to: HostId,
    },
    /// The referenced vertex is a switch where a host was required.
    NotAHost(HostId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownHost(h) => write!(f, "unknown host {h}"),
            TopologyError::Unreachable { from, to } => {
                write!(f, "no path from {from} to {to}")
            }
            TopologyError::NotAHost(h) => write!(f, "vertex {h} is a switch, not a host"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An undirected network graph of hosts, switches and links.
///
/// # Examples
///
/// ```
/// use integrade_simnet::topology::{Topology, LinkSpec};
///
/// let mut topo = Topology::new();
/// let sw = topo.add_switch("sw0");
/// let a = topo.add_host("a", None);
/// let b = topo.add_host("b", None);
/// topo.connect(a, sw, LinkSpec::lan_100mbps());
/// topo.connect(b, sw, LinkSpec::lan_100mbps());
/// let q = topo.path_quality(a, b).unwrap();
/// assert_eq!(q.hops, 2);
/// assert_eq!(q.bottleneck_bps, 100_000_000);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    vertices: Vec<Vertex>,
    adjacency: Vec<Vec<(u32, LinkSpec)>>,
    /// Per-source route tables: one full Dijkstra pass answers every
    /// destination from that source, so n hosts talking to one manager
    /// cost one search total instead of one search each.
    #[serde(skip)]
    route_tables: IdMap<HostId, Vec<Option<PathQuality>>>,
    generation: u64,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_vertex(&mut self, kind: VertexKind, name: &str, cluster: Option<ClusterTag>) -> HostId {
        let id = HostId(self.vertices.len() as u32);
        self.vertices.push(Vertex {
            kind,
            name: name.to_owned(),
            cluster,
            up: true,
        });
        self.adjacency.push(Vec::new());
        self.invalidate_routes();
        id
    }

    /// Adds a host, optionally tagged with a cluster.
    pub fn add_host(&mut self, name: &str, cluster: Option<ClusterTag>) -> HostId {
        self.add_vertex(VertexKind::Host, name, cluster)
    }

    /// Adds a switch (forwarding-only vertex).
    pub fn add_switch(&mut self, name: &str) -> HostId {
        self.add_vertex(VertexKind::Switch, name, None)
    }

    /// Connects two vertices with an undirected link.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist or `a == b`.
    pub fn connect(&mut self, a: HostId, b: HostId, spec: LinkSpec) {
        assert!(a != b, "self-links are not allowed");
        assert!((a.0 as usize) < self.vertices.len(), "unknown vertex {a}");
        assert!((b.0 as usize) < self.vertices.len(), "unknown vertex {b}");
        self.adjacency[a.0 as usize].push((b.0, spec));
        self.adjacency[b.0 as usize].push((a.0, spec));
        self.invalidate_routes();
    }

    fn invalidate_routes(&mut self) {
        self.route_tables.clear();
        self.generation += 1;
    }

    /// Iterator over all host ids (excluding switches).
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.vertices
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VertexKind::Host)
            .map(|(i, _)| HostId(i as u32))
    }

    /// The cluster tag of a host, if any.
    pub fn cluster_of(&self, host: HostId) -> Option<ClusterTag> {
        self.vertices.get(host.0 as usize).and_then(|v| v.cluster)
    }

    /// All hosts tagged with `cluster`.
    pub fn hosts_in_cluster(&self, cluster: ClusterTag) -> Vec<HostId> {
        self.hosts()
            .filter(|h| self.cluster_of(*h) == Some(cluster))
            .collect()
    }

    /// The display name of a vertex.
    pub fn name_of(&self, host: HostId) -> Option<&str> {
        self.vertices.get(host.0 as usize).map(|v| v.name.as_str())
    }

    /// Marks a host up or down. Down hosts neither originate, receive, nor
    /// forward traffic.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownHost`] for an unknown id.
    pub fn set_up(&mut self, host: HostId, up: bool) -> Result<(), TopologyError> {
        let v = self
            .vertices
            .get_mut(host.0 as usize)
            .ok_or(TopologyError::UnknownHost(host))?;
        if v.up != up {
            v.up = up;
            self.invalidate_routes();
        }
        Ok(())
    }

    /// Whether a host is currently up.
    pub fn is_up(&self, host: HostId) -> bool {
        self.vertices.get(host.0 as usize).is_some_and(|v| v.up)
    }

    fn check_host(&self, h: HostId) -> Result<(), TopologyError> {
        match self.vertices.get(h.0 as usize) {
            None => Err(TopologyError::UnknownHost(h)),
            Some(v) if v.kind != VertexKind::Host => Err(TopologyError::NotAHost(h)),
            Some(_) => Ok(()),
        }
    }

    /// Computes the latency-minimal path quality between two hosts.
    ///
    /// Results are cached until the topology changes.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is unknown, a switch, or no path
    /// of up vertices exists.
    pub fn path_quality(&mut self, from: HostId, to: HostId) -> Result<PathQuality, TopologyError> {
        self.check_host(from)?;
        self.check_host(to)?;
        if from == to {
            return Ok(PathQuality::loopback());
        }
        if !self.is_up(from) || !self.is_up(to) {
            return Err(TopologyError::Unreachable { from, to });
        }
        // Links are undirected, so a table computed from either endpoint
        // answers the pair.
        if let Some(table) = self.route_tables.get(from) {
            return table[to.0 as usize].ok_or(TopologyError::Unreachable { from, to });
        }
        if let Some(table) = self.route_tables.get(to) {
            return table[from.0 as usize].ok_or(TopologyError::Unreachable { from, to });
        }
        // Miss: settle every vertex from `to` in one pass. Building the
        // table at the *destination* pays off for fan-in traffic patterns
        // (n nodes reporting to one manager) where the sources are all
        // distinct but the destination repeats.
        let table = self.dijkstra_all(to);
        let result = table[from.0 as usize];
        self.route_tables.insert(to, table);
        result.ok_or(TopologyError::Unreachable { from, to })
    }

    /// Single-source Dijkstra: path quality from `from` to every vertex.
    ///
    /// Settling each vertex at its first pop yields exactly the answer the
    /// old early-exit per-pair search returned for that destination, so
    /// routing behaviour (and thus every simulated latency) is unchanged.
    fn dijkstra_all(&self, from: HostId) -> Vec<Option<PathQuality>> {
        #[derive(PartialEq, Eq)]
        struct State {
            cost: u64, // latency in µs
            vertex: u32,
            bottleneck: u64,
            hops: u32,
        }
        impl Ord for State {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .cost
                    .cmp(&self.cost)
                    .then_with(|| other.vertex.cmp(&self.vertex))
            }
        }
        impl PartialOrd for State {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = self.vertices.len();
        let mut dist = vec![u64::MAX; n];
        let mut settled: Vec<Option<PathQuality>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[from.0 as usize] = 0;
        heap.push(State {
            cost: 0,
            vertex: from.0,
            bottleneck: u64::MAX,
            hops: 0,
        });
        while let Some(State {
            cost,
            vertex,
            bottleneck,
            hops,
        }) = heap.pop()
        {
            if cost > dist[vertex as usize] || settled[vertex as usize].is_some() {
                continue;
            }
            settled[vertex as usize] = Some(PathQuality {
                latency: SimDuration::from_micros(cost),
                bottleneck_bps: bottleneck,
                hops,
            });
            for &(next, spec) in &self.adjacency[vertex as usize] {
                if !self.vertices[next as usize].up {
                    continue;
                }
                let next_cost = cost.saturating_add(spec.latency.as_micros());
                if next_cost < dist[next as usize] {
                    dist[next as usize] = next_cost;
                    heap.push(State {
                        cost: next_cost,
                        vertex: next,
                        bottleneck: bottleneck.min(spec.bandwidth_bps),
                        hops: hops + 1,
                    });
                }
            }
        }
        settled
    }
}

/// Convenience constructors for common grid topologies.
impl Topology {
    /// Builds a single switched cluster of `n` hosts (star around one switch).
    /// Returns the topology, the cluster tag and the host ids.
    pub fn star_cluster(n: usize, link: LinkSpec) -> (Topology, ClusterTag, Vec<HostId>) {
        let mut topo = Topology::new();
        let tag = ClusterTag(0);
        let sw = topo.add_switch("sw0");
        let hosts = (0..n)
            .map(|i| {
                let h = topo.add_host(&format!("node{i}"), Some(tag));
                topo.connect(h, sw, link);
                h
            })
            .collect();
        (topo, tag, hosts)
    }

    /// Builds a campus: `clusters` switched groups of `per_cluster` hosts with
    /// `intra` links inside each group, and group switches joined to a core
    /// switch by `inter` links.
    ///
    /// Returns the topology and, per cluster, its tag and host ids.
    pub fn campus(
        clusters: usize,
        per_cluster: usize,
        intra: LinkSpec,
        inter: LinkSpec,
    ) -> (Topology, Vec<(ClusterTag, Vec<HostId>)>) {
        let mut topo = Topology::new();
        let core = topo.add_switch("core");
        let mut out = Vec::with_capacity(clusters);
        for c in 0..clusters {
            let tag = ClusterTag(c as u32);
            let sw = topo.add_switch(&format!("sw{c}"));
            topo.connect(sw, core, inter);
            let hosts: Vec<HostId> = (0..per_cluster)
                .map(|i| {
                    let h = topo.add_host(&format!("c{c}n{i}"), Some(tag));
                    topo.connect(h, sw, intra);
                    h
                })
                .collect();
            out.push((tag, hosts));
        }
        (topo, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_cluster_connects_all_pairs() {
        let (mut topo, tag, hosts) = Topology::star_cluster(4, LinkSpec::lan_100mbps());
        assert_eq!(topo.hosts_in_cluster(tag).len(), 4);
        for &a in &hosts {
            for &b in &hosts {
                let q = topo.path_quality(a, b).unwrap();
                if a == b {
                    assert_eq!(q.hops, 0);
                } else {
                    assert_eq!(q.hops, 2);
                    assert_eq!(q.bottleneck_bps, 100_000_000);
                    assert_eq!(q.latency, SimDuration::from_micros(400));
                }
            }
        }
    }

    #[test]
    fn campus_intra_faster_than_inter() {
        let (mut topo, clusters) =
            Topology::campus(2, 3, LinkSpec::lan_100mbps(), LinkSpec::lan_10mbps());
        let a0 = clusters[0].1[0];
        let a1 = clusters[0].1[1];
        let b0 = clusters[1].1[0];
        let intra = topo.path_quality(a0, a1).unwrap();
        let inter = topo.path_quality(a0, b0).unwrap();
        assert!(intra.latency < inter.latency);
        assert_eq!(intra.bottleneck_bps, 100_000_000);
        assert_eq!(inter.bottleneck_bps, 10_000_000);
        assert_eq!(inter.hops, 4);
    }

    #[test]
    fn transfer_time_accounts_for_size() {
        let q = PathQuality {
            latency: SimDuration::from_micros(100),
            bottleneck_bps: 8_000_000, // 1 MB/s
            hops: 1,
        };
        // 1 MB at 1 MB/s = 1 s + latency.
        let t = q.transfer_time(1_000_000);
        assert_eq!(t, SimDuration::from_micros(1_000_100));
    }

    #[test]
    fn down_host_is_unreachable() {
        let (mut topo, _, hosts) = Topology::star_cluster(3, LinkSpec::lan_100mbps());
        topo.set_up(hosts[1], false).unwrap();
        let err = topo.path_quality(hosts[0], hosts[1]).unwrap_err();
        assert!(matches!(err, TopologyError::Unreachable { .. }));
        // Others remain reachable.
        assert!(topo.path_quality(hosts[0], hosts[2]).is_ok());
        // Bringing it back restores the route.
        topo.set_up(hosts[1], true).unwrap();
        assert!(topo.path_quality(hosts[0], hosts[1]).is_ok());
    }

    #[test]
    fn down_switch_partitions_cluster() {
        let mut topo = Topology::new();
        let sw = topo.add_switch("sw");
        let a = topo.add_host("a", None);
        let b = topo.add_host("b", None);
        topo.connect(a, sw, LinkSpec::lan_100mbps());
        topo.connect(b, sw, LinkSpec::lan_100mbps());
        topo.set_up(sw, false).unwrap();
        assert!(topo.path_quality(a, b).is_err());
    }

    #[test]
    fn routing_prefers_lower_latency() {
        let mut topo = Topology::new();
        let a = topo.add_host("a", None);
        let b = topo.add_host("b", None);
        let relay = topo.add_switch("relay");
        // Direct slow-latency link vs two fast links through the relay.
        topo.connect(
            a,
            b,
            LinkSpec {
                latency: SimDuration::from_millis(10),
                bandwidth_bps: 1_000_000_000,
            },
        );
        topo.connect(a, relay, LinkSpec::lan_100mbps());
        topo.connect(relay, b, LinkSpec::lan_100mbps());
        let q = topo.path_quality(a, b).unwrap();
        assert_eq!(q.hops, 2, "should route via the relay (lower latency)");
        assert_eq!(q.bottleneck_bps, 100_000_000);
    }

    #[test]
    fn switch_endpoints_are_rejected() {
        let mut topo = Topology::new();
        let sw = topo.add_switch("sw");
        let a = topo.add_host("a", None);
        topo.connect(a, sw, LinkSpec::lan_100mbps());
        assert_eq!(
            topo.path_quality(a, sw).unwrap_err(),
            TopologyError::NotAHost(sw)
        );
    }

    #[test]
    fn unknown_host_is_an_error() {
        let mut topo = Topology::new();
        let a = topo.add_host("a", None);
        assert_eq!(
            topo.path_quality(a, HostId(42)).unwrap_err(),
            TopologyError::UnknownHost(HostId(42))
        );
    }

    #[test]
    fn cache_invalidated_on_change() {
        let mut topo = Topology::new();
        let a = topo.add_host("a", None);
        let b = topo.add_host("b", None);
        topo.connect(a, b, LinkSpec::lan_10mbps());
        let q1 = topo.path_quality(a, b).unwrap();
        assert_eq!(q1.bottleneck_bps, 10_000_000);
        // Adding a better parallel path must be picked up.
        let sw = topo.add_switch("sw");
        topo.connect(a, sw, LinkSpec::lan_1gbps());
        topo.connect(sw, b, LinkSpec::lan_1gbps());
        let q2 = topo.path_quality(a, b).unwrap();
        assert_eq!(q2.bottleneck_bps, 1_000_000_000);
    }
}
