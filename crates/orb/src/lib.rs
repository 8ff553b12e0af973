//! # integrade-orb
//!
//! A lightweight, CORBA-style object request broker — the middleware
//! substrate of the InteGrade reproduction.
//!
//! The InteGrade paper (Goldchleger et al., 2003) builds its grid middleware
//! on CORBA: UIC-CORBA on resource-provider nodes (a ~90 KB ORB), JacORB on
//! the cluster manager, IDL-defined interfaces between components, and the
//! standard Naming and Trading services. No CORBA stack exists for Rust, so
//! this crate implements the subset InteGrade actually relies on, from the
//! wire up:
//!
//! * [`cdr`] — aligned CDR marshalling with [`cdr::CdrEncode`]/[`cdr::CdrDecode`].
//! * [`giop`] — GIOP-style framed `Request`/`Reply` messages.
//! * [`ior`] — interoperable object references with `IOR:` stringification.
//! * [`any`] — dynamically typed property values.
//! * [`servant`] — the [`servant::Servant`] trait and [`servant::Poa`]
//!   object adapter.
//! * [`orb`] — per-host [`orb::Orb`]: request construction and incoming
//!   message handling, decoupled from byte transport.
//! * [`transport`] — [`transport::LoopbackBus`], synchronous in-process RPC.
//! * [`naming`] — hierarchical Naming service.
//! * [`constraint`] — the trader constraint expression language.
//! * [`security`] — keyed-MAC frame authentication (the paper's §3
//!   authentication/cryptography investigation).
//! * [`trading`] — the Trading service used by the GRM's scheduler.
//!
//! # Examples
//!
//! ```
//! use integrade_orb::any::AnyValue;
//! use integrade_orb::ior::{Endpoint, Ior, ObjectKey};
//! use integrade_orb::trading::Trader;
//! use std::collections::BTreeMap;
//!
//! // The GRM stores node status offers in the trader and queries them with
//! // application requirements as the constraint — exactly the paper's flow.
//! let mut trader = Trader::new(1);
//! let lrm = Ior::new("IDL:integrade/Lrm:1.0", Endpoint::new(1, 0), ObjectKey::new("lrm1"));
//! let props: BTreeMap<String, AnyValue> = [
//!     ("cpu_mips".to_owned(), AnyValue::Long(700)),
//!     ("mem_mb".to_owned(), AnyValue::Long(64)),
//! ].into_iter().collect();
//! trader.export("integrade::node", &lrm, props).unwrap();
//!
//! let matches = trader
//!     .query("integrade::node", "cpu_mips >= 500 and mem_mb >= 16", "max cpu_mips", 5)
//!     .unwrap();
//! assert_eq!(matches.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod any;
pub mod cdr;
pub mod constraint;
pub mod giop;
pub mod ior;
pub mod naming;
pub mod orb;
pub mod security;
pub mod servant;
pub mod trading;
pub mod transport;

pub use any::AnyValue;
pub use cdr::{CdrDecode, CdrEncode, CdrError, CdrReader, CdrWriter};
pub use giop::{FrameError, Message, ReplyStatus};
pub use ior::{Endpoint, Ior, ObjectKey};
pub use naming::{NamingError, NamingServant, NamingService};
pub use orb::{decode_reply, Incoming, Orb, OrbStats, RemoteError};
pub use security::{open as open_sealed, seal, siphash24, AuthError, ClusterKey};
pub use servant::{Poa, Servant, ServerException};
pub use trading::{
    LinkFollowPolicy, OfferId, OfferRef, Preference, ServiceOffer, Trader, TraderError, TraderLink,
    TraderServant,
};
pub use transport::LoopbackBus;
