//! # integrade-simnet
//!
//! Deterministic discrete-event simulation substrate for the InteGrade grid
//! middleware reproduction.
//!
//! The InteGrade paper (Goldchleger et al., Middleware 2003) describes grid
//! middleware deployed over campus networks of desktop machines. This crate
//! provides the virtual world those experiments run in:
//!
//! * [`time`] — virtual clock types ([`time::SimTime`], [`time::SimDuration`]).
//! * [`rng`] — deterministic random number generation so every experiment
//!   replays bit-for-bit from a seed.
//! * [`event`] — the event queue and simulation driver.
//! * [`idmap`] — [`idmap::IdMap`], the table every dense-id-keyed map in the
//!   simulator is built on.
//! * [`topology`] — hosts, switches, links, clusters, latency-based routing.
//! * [`net`] — message-level delivery delays with NIC egress queueing.
//! * [`faults`] — deterministic fault injection (drops, jitter, partitions,
//!   host outages) threaded through the network.
//! * [`trace`] — event trace recording for tests and harnesses.
//!
//! # Examples
//!
//! Simulate two hosts pinging through a switch:
//!
//! ```
//! use integrade_simnet::event::{EventQueue, World, run_to_completion};
//! use integrade_simnet::net::Network;
//! use integrade_simnet::time::SimTime;
//! use integrade_simnet::topology::{HostId, LinkSpec, Topology};
//!
//! struct Ping {
//!     net: Network,
//!     a: HostId,
//!     b: HostId,
//!     replies: u32,
//! }
//!
//! enum Ev { Deliver { to: HostId } }
//!
//! impl World for Ping {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
//!         match ev {
//!             Ev::Deliver { to } if to == self.b => {
//!                 // Pong back.
//!                 let d = self.net.send(now, self.b, self.a, 64).unwrap();
//!                 q.schedule_after(d, Ev::Deliver { to: self.a });
//!             }
//!             Ev::Deliver { .. } => self.replies += 1,
//!         }
//!     }
//! }
//!
//! let (topo, _, hosts) = Topology::star_cluster(2, LinkSpec::lan_100mbps());
//! let mut net = Network::new(topo);
//! let mut queue = EventQueue::new();
//! let d = net.send(SimTime::ZERO, hosts[0], hosts[1], 64).unwrap();
//! queue.schedule_after(d, Ev::Deliver { to: hosts[1] });
//! let mut world = Ping { net, a: hosts[0], b: hosts[1], replies: 0 };
//! run_to_completion(&mut world, &mut queue, 100);
//! assert_eq!(world.replies, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod event;
pub mod faults;
pub mod idmap;
pub mod net;
pub mod rng;
pub mod time;
pub mod topology;
pub mod trace;

pub use event::{run_to_completion, run_until, EventQueue, RunOutcome, World};
pub use faults::{FaultDecision, FaultPlan, HostOutage, Partition};
pub use idmap::{DenseId, IdMap};
pub use net::{NetError, NetStats, Network};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use topology::{ClusterTag, HostId, LinkSpec, PathQuality, Topology, TopologyError};
pub use trace::{TraceLog, TraceRecord};
