//! In-process transport: a synchronous bus connecting ORBs by endpoint.
//!
//! [`LoopbackBus`] hosts a set of ORBs and performs synchronous RPC between
//! them through the full marshal → frame → dispatch → frame → unmarshal
//! path. It is the "collocated" deployment: no virtual network, but the
//! exact same middleware code as the simulated wide-area case, which is what
//! the examples and service tests use. The discrete-event grid simulation
//! instead moves the same frames through `integrade-simnet`.

use crate::cdr::CdrWriter;
use crate::ior::{Endpoint, Ior, ObjectKey};
use crate::orb::{decode_reply, Incoming, Orb, RemoteError};
use crate::servant::Servant;
use std::collections::BTreeMap;

/// A registry of ORBs with synchronous invocation between them.
///
/// # Examples
///
/// ```
/// use integrade_orb::cdr::{CdrDecode, CdrEncode, CdrReader};
/// use integrade_orb::ior::{Endpoint, ObjectKey};
/// use integrade_orb::servant::{Servant, ServerException};
/// use integrade_orb::transport::LoopbackBus;
///
/// struct Upper;
/// impl Servant for Upper {
///     fn type_id(&self) -> &'static str { "IDL:test/Upper:1.0" }
///     fn dispatch(&mut self, op: &str, args: &mut CdrReader<'_>)
///         -> Result<Vec<u8>, ServerException> {
///         match op {
///             "up" => Ok(String::decode(args)?.to_uppercase().to_cdr_bytes()),
///             o => Err(ServerException::BadOperation(o.to_owned())),
///         }
///     }
/// }
///
/// let mut bus = LoopbackBus::new();
/// let ep = bus.add_orb(Endpoint::new(1, 0));
/// let ior = bus.activate(ep, ObjectKey::new("upper"), Box::new(Upper)).unwrap();
/// let out = bus.invoke(&ior, "up", |w| "grid".encode(w)).unwrap();
/// assert_eq!(String::from_cdr_bytes(&out).unwrap(), "GRID");
/// ```
#[derive(Debug, Default)]
pub struct LoopbackBus {
    orbs: BTreeMap<Endpoint, Orb>,
}

impl LoopbackBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an ORB at `endpoint`, returning the endpoint for convenience.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint is already occupied.
    pub fn add_orb(&mut self, endpoint: Endpoint) -> Endpoint {
        let prev = self.orbs.insert(endpoint, Orb::new(endpoint));
        assert!(prev.is_none(), "endpoint {endpoint} already has an ORB");
        endpoint
    }

    /// Activates a servant on the ORB at `endpoint`.
    ///
    /// # Errors
    ///
    /// Returns [`RemoteError::Unreachable`] if no ORB lives there.
    ///
    /// # Panics
    ///
    /// Panics on double activation of the same key (see
    /// [`crate::servant::Poa::activate`]).
    pub fn activate(
        &mut self,
        endpoint: Endpoint,
        key: ObjectKey,
        servant: Box<dyn Servant>,
    ) -> Result<Ior, RemoteError> {
        let orb = self
            .orbs
            .get_mut(&endpoint)
            .ok_or(RemoteError::Unreachable(endpoint))?;
        Ok(orb.activate(key, servant))
    }

    /// Borrow an ORB.
    pub fn orb(&self, endpoint: Endpoint) -> Option<&Orb> {
        self.orbs.get(&endpoint)
    }

    /// Removes an ORB (simulates a host leaving the grid). Its objects
    /// become unreachable.
    pub fn remove_orb(&mut self, endpoint: Endpoint) -> Option<Orb> {
        self.orbs.remove(&endpoint)
    }

    /// Synchronous RPC: invokes `operation` on `target` through the full
    /// marshalling path and returns the CDR-encoded result.
    ///
    /// The client side is an anonymous ORB so callers need not register one.
    ///
    /// # Errors
    ///
    /// Returns [`RemoteError::Unreachable`] if the target endpoint has no
    /// ORB, and the remote exception otherwise signalled by the servant.
    pub fn invoke(
        &mut self,
        target: &Ior,
        operation: &str,
        encode_args: impl FnOnce(&mut CdrWriter),
    ) -> Result<Vec<u8>, RemoteError> {
        // Build the request through a scratch client ORB so ids are fresh.
        let mut scratch = Orb::new(Endpoint::new(u32::MAX, 0));
        let (id, wire) = scratch.make_request(target, operation, encode_args);
        let server = self
            .orbs
            .get_mut(&target.endpoint)
            .ok_or(RemoteError::Unreachable(target.endpoint))?;
        match server.handle_wire(&wire)? {
            Incoming::ReplyToSend(reply) => {
                let (rid, result) = decode_reply(&reply)?;
                debug_assert_eq!(rid, id);
                result.map(<[u8]>::to_vec)
            }
            Incoming::OnewayHandled => Ok(Vec::new()),
            Incoming::ReplyReceived { .. } => {
                Err(RemoteError::System("request produced a stray reply".into()))
            }
        }
    }

    /// Oneway RPC: fire-and-forget.
    ///
    /// # Errors
    ///
    /// Returns [`RemoteError::Unreachable`] if the target endpoint has no ORB.
    pub fn invoke_oneway(
        &mut self,
        target: &Ior,
        operation: &str,
        encode_args: impl FnOnce(&mut CdrWriter),
    ) -> Result<(), RemoteError> {
        let mut scratch = Orb::new(Endpoint::new(u32::MAX, 0));
        let (_, wire) = scratch.make_oneway(target, operation, encode_args);
        let server = self
            .orbs
            .get_mut(&target.endpoint)
            .ok_or(RemoteError::Unreachable(target.endpoint))?;
        server.handle_wire(&wire)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::{CdrDecode, CdrEncode, CdrReader};
    use crate::servant::ServerException;

    struct Store {
        items: Vec<String>,
    }

    impl Servant for Store {
        fn type_id(&self) -> &'static str {
            "IDL:test/Store:1.0"
        }
        fn dispatch(
            &mut self,
            op: &str,
            args: &mut CdrReader<'_>,
        ) -> Result<Vec<u8>, ServerException> {
            match op {
                "put" => {
                    self.items.push(String::decode(args)?);
                    Ok(Vec::new())
                }
                "list" => Ok(self.items.clone().to_cdr_bytes()),
                o => Err(ServerException::BadOperation(o.to_owned())),
            }
        }
    }

    fn bus_with_store() -> (LoopbackBus, Ior) {
        let mut bus = LoopbackBus::new();
        let ep = bus.add_orb(Endpoint::new(1, 0));
        let ior = bus
            .activate(
                ep,
                ObjectKey::new("store"),
                Box::new(Store { items: vec![] }),
            )
            .unwrap();
        (bus, ior)
    }

    #[test]
    fn invoke_mutates_and_reads_state() {
        let (mut bus, ior) = bus_with_store();
        bus.invoke(&ior, "put", |w| "a".encode(w)).unwrap();
        bus.invoke(&ior, "put", |w| "b".encode(w)).unwrap();
        let out = bus.invoke(&ior, "list", |_| {}).unwrap();
        assert_eq!(Vec::<String>::from_cdr_bytes(&out).unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn oneway_also_executes() {
        let (mut bus, ior) = bus_with_store();
        bus.invoke_oneway(&ior, "put", |w| "x".encode(w)).unwrap();
        let out = bus.invoke(&ior, "list", |_| {}).unwrap();
        assert_eq!(Vec::<String>::from_cdr_bytes(&out).unwrap(), vec!["x"]);
    }

    #[test]
    fn unknown_endpoint_is_unreachable() {
        let (mut bus, mut ior) = bus_with_store();
        ior.endpoint = Endpoint::new(99, 0);
        assert_eq!(
            bus.invoke(&ior, "list", |_| {}).unwrap_err(),
            RemoteError::Unreachable(Endpoint::new(99, 0))
        );
    }

    #[test]
    fn removed_orb_becomes_unreachable() {
        let (mut bus, ior) = bus_with_store();
        bus.remove_orb(ior.endpoint).unwrap();
        assert!(matches!(
            bus.invoke(&ior, "list", |_| {}),
            Err(RemoteError::Unreachable(_))
        ));
    }

    #[test]
    #[should_panic(expected = "already has an ORB")]
    fn duplicate_endpoint_panics() {
        let mut bus = LoopbackBus::new();
        bus.add_orb(Endpoint::new(1, 0));
        bus.add_orb(Endpoint::new(1, 0));
    }

    #[test]
    fn bad_operation_surfaces_as_system_error() {
        let (mut bus, ior) = bus_with_store();
        assert!(matches!(
            bus.invoke(&ior, "nope", |_| {}),
            Err(RemoteError::System(_))
        ));
    }
}
