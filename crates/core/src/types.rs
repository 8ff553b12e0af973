//! Core identifier and resource-description types.

use integrade_orb::impl_cdr;
use integrade_simnet::idmap::DenseId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a grid node within a grid (maps 1:1 onto a simnet host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl DenseId for NodeId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl_cdr!(struct NodeId(u32));

/// Identifier of an InteGrade cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClusterId(pub u32);

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster{}", self.0)
    }
}

impl_cdr!(struct ClusterId(u32));

/// Identifier of a submitted application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

impl_cdr!(struct JobId(u64));

/// Hardware/software platform of a node — the "execution prerequisites"
/// ASCT lets users state (§4).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Platform {
    /// Operating system, e.g. `linux`.
    pub os: String,
    /// Instruction architecture, e.g. `x86`.
    pub arch: String,
}

impl Platform {
    /// The default platform of this reproduction's simulated campus.
    pub fn linux_x86() -> Self {
        Platform {
            os: "linux".into(),
            arch: "x86".into(),
        }
    }

    /// A second platform for heterogeneity tests.
    pub fn solaris_sparc() -> Self {
        Platform {
            os: "solaris".into(),
            arch: "sparc".into(),
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.os, self.arch)
    }
}

impl_cdr!(struct Platform { os, arch });

/// Static hardware capacity of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceVector {
    /// Processor speed in MIPS (the paper's example unit).
    pub cpu_mips: u64,
    /// Physical memory in MB.
    pub ram_mb: u64,
    /// Scratch disk in MB.
    pub disk_mb: u64,
}

impl ResourceVector {
    /// A typical 2003-era desktop: 500 MIPS, 256 MB RAM, 10 GB disk.
    pub fn desktop() -> Self {
        ResourceVector {
            cpu_mips: 500,
            ram_mb: 256,
            disk_mb: 10_000,
        }
    }

    /// A faster lab machine.
    pub fn lab_machine() -> Self {
        ResourceVector {
            cpu_mips: 1000,
            ram_mb: 512,
            disk_mb: 20_000,
        }
    }

    /// A dedicated compute node.
    pub fn dedicated() -> Self {
        ResourceVector {
            cpu_mips: 2000,
            ram_mb: 1024,
            disk_mb: 40_000,
        }
    }
}

impl_cdr!(struct ResourceVector { cpu_mips, ram_mb, disk_mb });

/// The overlapping node roles of Figure 1. "Note that those categories can
/// overlap; for example, a node can be a User Node and a Resource Provider
/// node at the same time."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NodeRoles {
    /// Runs the cluster-management components (GRM/GUPA).
    pub cluster_manager: bool,
    /// A grid user submits applications from this node.
    pub user_node: bool,
    /// Exports part of its resources to the grid.
    pub resource_provider: bool,
    /// Reserved exclusively for grid computation.
    pub dedicated: bool,
}

impl NodeRoles {
    /// A plain shared workstation.
    pub fn provider() -> Self {
        NodeRoles {
            resource_provider: true,
            ..Default::default()
        }
    }

    /// A dedicated grid node (also a provider, trivially).
    pub fn dedicated() -> Self {
        NodeRoles {
            resource_provider: true,
            dedicated: true,
            ..Default::default()
        }
    }

    /// The cluster-manager node.
    pub fn manager() -> Self {
        NodeRoles {
            cluster_manager: true,
            ..Default::default()
        }
    }
}

impl fmt::Display for NodeRoles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.cluster_manager {
            parts.push("cluster-manager");
        }
        if self.user_node {
            parts.push("user");
        }
        if self.resource_provider {
            parts.push("provider");
        }
        if self.dedicated {
            parts.push("dedicated");
        }
        if parts.is_empty() {
            parts.push("none");
        }
        f.write_str(&parts.join("+"))
    }
}

/// Dynamic node status carried by the Information Update Protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeStatus {
    /// Fraction of CPU currently free for the grid (after owner load and
    /// NCC caps).
    pub free_cpu_fraction: f64,
    /// MB of RAM currently free for the grid.
    pub free_ram_mb: u64,
    /// Whether the owner is actively using the machine.
    pub owner_active: bool,
    /// Whether the NCC currently allows exporting at all.
    pub exporting: bool,
    /// Grid parts currently hosted.
    pub running_parts: u32,
}

impl NodeStatus {
    /// Status of a node not available to the grid at all.
    pub fn unavailable() -> Self {
        NodeStatus {
            free_cpu_fraction: 0.0,
            free_ram_mb: 0,
            owner_active: true,
            exporting: false,
            running_parts: 0,
        }
    }
}

impl_cdr!(struct NodeStatus {
    free_cpu_fraction, free_ram_mb, owner_active, exporting, running_parts
});

#[cfg(test)]
mod tests {
    use super::*;
    use integrade_orb::cdr::assert_wire_sound;

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(ClusterId(1).to_string(), "cluster1");
        assert_eq!(JobId(9).to_string(), "job9");
    }

    #[test]
    fn cdr_round_trips() {
        assert_wire_sound(&NodeId(7));
        assert_wire_sound(&Platform::linux_x86());
        assert_wire_sound(&ResourceVector::desktop());
        assert_wire_sound(&NodeStatus {
            free_cpu_fraction: 0.7,
            free_ram_mb: 128,
            owner_active: false,
            exporting: true,
            running_parts: 2,
        });
    }

    #[test]
    fn roles_can_overlap() {
        let both = NodeRoles {
            user_node: true,
            resource_provider: true,
            ..Default::default()
        };
        assert_eq!(both.to_string(), "user+provider");
        assert_eq!(NodeRoles::default().to_string(), "none");
        assert!(NodeRoles::dedicated().resource_provider);
    }

    #[test]
    fn resource_presets_are_ordered() {
        assert!(ResourceVector::desktop().cpu_mips < ResourceVector::lab_machine().cpu_mips);
        assert!(ResourceVector::lab_machine().cpu_mips < ResourceVector::dedicated().cpu_mips);
    }

    #[test]
    fn unavailable_status_is_closed() {
        let s = NodeStatus::unavailable();
        assert!(!s.exporting);
        assert_eq!(s.free_cpu_fraction, 0.0);
    }
}
