//! Servants and the object adapter.
//!
//! A [`Servant`] is the implementation object behind an IDL interface: it
//! receives an operation name and CDR-encoded arguments and produces a
//! CDR-encoded result (the moral equivalent of a CORBA skeleton's dynamic
//! dispatch). The [`Poa`] (portable object adapter) maps object keys to
//! servants, activates/deactivates them and converts invocation failures
//! into GIOP system exceptions.

use crate::cdr::{CdrError, CdrReader, CdrWriter};
use crate::giop::{write_reply_frame, ReplyStatus, Request};
use crate::ior::{Endpoint, Ior, ObjectKey};
use std::collections::BTreeMap;
use std::fmt;

/// Application- or ORB-level invocation failure raised by a servant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerException {
    /// IDL user exception: the operation's declared failure mode.
    User(String),
    /// The operation name is not part of the interface.
    BadOperation(String),
    /// The arguments failed to unmarshal.
    Marshal(CdrError),
    /// Any other internal servant failure.
    Internal(String),
}

impl fmt::Display for ServerException {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerException::User(msg) => write!(f, "user exception: {msg}"),
            ServerException::BadOperation(op) => write!(f, "bad operation '{op}'"),
            ServerException::Marshal(e) => write!(f, "marshal error: {e}"),
            ServerException::Internal(msg) => write!(f, "internal servant error: {msg}"),
        }
    }
}

impl std::error::Error for ServerException {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerException::Marshal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CdrError> for ServerException {
    fn from(e: CdrError) -> Self {
        ServerException::Marshal(e)
    }
}

/// The implementation side of a remote object.
///
/// Implementations decode `args` according to the operation and return the
/// CDR-encoded result. Servants are `Send` so that an ORB, and the grid
/// owning it, can move to another thread.
pub trait Servant: Send {
    /// The repository id of the interface, e.g. `IDL:integrade/Lrm:1.0`.
    fn type_id(&self) -> &'static str;

    /// Handles one invocation.
    ///
    /// # Errors
    ///
    /// Returns a [`ServerException`] for unknown operations, argument
    /// unmarshalling failures, or application errors.
    fn dispatch(
        &mut self,
        operation: &str,
        args: &mut CdrReader<'_>,
    ) -> Result<Vec<u8>, ServerException>;

    /// [`Servant::dispatch`] encoding a successful result straight into
    /// `out`: for a two-way request, the body of the reply frame itself.
    /// On an error, whatever was written is discarded. The provided body
    /// copies `dispatch`'s result; a servant on a hot path overrides it to
    /// encode the result in place.
    ///
    /// # Errors
    ///
    /// As [`Servant::dispatch`].
    fn dispatch_into(
        &mut self,
        operation: &str,
        args: &mut CdrReader<'_>,
        out: &mut CdrWriter,
    ) -> Result<(), ServerException> {
        out.write_bytes(&self.dispatch(operation, args)?);
        Ok(())
    }
}

/// Object adapter: routes requests to activated servants.
///
/// # Examples
///
/// ```
/// use integrade_orb::cdr::{CdrDecode, CdrEncode, CdrReader};
/// use integrade_orb::ior::{Endpoint, ObjectKey};
/// use integrade_orb::servant::{Poa, Servant, ServerException};
///
/// struct Echo;
/// impl Servant for Echo {
///     fn type_id(&self) -> &'static str { "IDL:test/Echo:1.0" }
///     fn dispatch(&mut self, op: &str, args: &mut CdrReader<'_>)
///         -> Result<Vec<u8>, ServerException> {
///         match op {
///             "echo" => Ok(String::decode(args)?.to_cdr_bytes()),
///             other => Err(ServerException::BadOperation(other.to_owned())),
///         }
///     }
/// }
///
/// let mut poa = Poa::new(Endpoint::new(0, 1));
/// let ior = poa.activate(ObjectKey::new("echo"), Box::new(Echo));
/// assert_eq!(ior.type_id, "IDL:test/Echo:1.0");
/// ```
pub struct Poa {
    endpoint: Endpoint,
    servants: BTreeMap<ObjectKey, Box<dyn Servant>>,
    dispatched: u64,
}

impl fmt::Debug for Poa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Poa")
            .field("endpoint", &self.endpoint)
            .field("servants", &self.servants.keys().collect::<Vec<_>>())
            .field("dispatched", &self.dispatched)
            .finish()
    }
}

impl Poa {
    /// Creates an adapter bound to `endpoint`.
    pub fn new(endpoint: Endpoint) -> Self {
        Poa {
            endpoint,
            servants: BTreeMap::new(),
            dispatched: 0,
        }
    }

    /// The endpoint this adapter answers on.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// Activates a servant under `key`, returning its reference.
    ///
    /// # Panics
    ///
    /// Panics if the key is already active (activation is a wiring-time
    /// operation; double activation is a program error).
    pub fn activate(&mut self, key: ObjectKey, servant: Box<dyn Servant>) -> Ior {
        let ior = Ior::new(servant.type_id(), self.endpoint, key.clone());
        let prev = self.servants.insert(key.clone(), servant);
        assert!(prev.is_none(), "object key '{key}' already active");
        ior
    }

    /// Deactivates and returns the servant under `key`, if present.
    pub fn deactivate(&mut self, key: &ObjectKey) -> Option<Box<dyn Servant>> {
        self.servants.remove(key)
    }

    /// True when a servant is active under `key`.
    pub fn is_active(&self, key: &ObjectKey) -> bool {
        self.servants.contains_key(key)
    }

    /// The reference for an active servant.
    pub fn reference(&self, key: &ObjectKey) -> Option<Ior> {
        self.servants
            .get(key)
            .map(|s| Ior::new(s.type_id(), self.endpoint, key.clone()))
    }

    /// Borrows a servant for direct (collocated) use.
    pub fn servant_mut(&mut self, key: &ObjectKey) -> Option<&mut (dyn Servant + '_)> {
        self.servants.get_mut(key).map(|b| &mut **b as _)
    }

    /// Number of invocations dispatched through this adapter.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Dispatches a request; returns the reply frame, or `None` for a
    /// oneway request.
    pub fn handle_request(&mut self, request: &Request<'_>) -> Option<Vec<u8>> {
        let servants = &mut self.servants;
        serve(&mut self.dispatched, request, |key| {
            servants.get_mut(key).map(|s| &mut **s as &mut dyn Servant)
        })
    }

    /// [`Poa::handle_request`] for a servant that is not activated here but
    /// *borrowed for the call*: the request is dispatched to `servant` when
    /// it is addressed to `key`, and answered exactly as a request to an
    /// unknown object otherwise. Lets a caller that owns its implementation
    /// objects as plain data (and needs them back between calls) still route
    /// every invocation through the adapter's exception mapping and counts.
    pub fn handle_request_with(
        &mut self,
        request: &Request<'_>,
        key: &ObjectKey,
        servant: &mut dyn Servant,
    ) -> Option<Vec<u8>> {
        serve(&mut self.dispatched, request, |target| {
            (target == key.as_str()).then_some(servant)
        })
    }
}

/// The one dispatch body behind both [`Poa`] entries: count the request,
/// resolve its object key to a servant, invoke, and map the outcome to a
/// reply frame whose body the servant encodes in place (`None` for a
/// oneway).
fn serve<'s>(
    dispatched: &mut u64,
    request: &Request<'_>,
    resolve: impl FnOnce(&str) -> Option<&'s mut (dyn Servant + 's)>,
) -> Option<Vec<u8>> {
    *dispatched += 1;
    let invoke = |out: &mut CdrWriter| match resolve(request.object_key) {
        None => Err(ServerException::Internal(format!(
            "no servant for object key '{}'",
            request.object_key
        ))),
        Some(servant) => {
            servant.dispatch_into(request.operation, &mut CdrReader::new(request.args), out)
        }
    };
    if !request.response_expected {
        let _ = invoke(&mut CdrWriter::new());
        return None;
    }
    let mut reply = Vec::with_capacity(64);
    write_reply_frame(&mut reply, request.request_id, |body| {
        let Err(e) = invoke(body) else {
            return ReplyStatus::NoException;
        };
        body.clear();
        match e {
            ServerException::User(detail) => {
                body.write_bytes(detail.as_bytes());
                ReplyStatus::UserException
            }
            e => {
                body.write_bytes(e.to_string().as_bytes());
                ReplyStatus::SystemException
            }
        }
    });
    Some(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::{CdrDecode, CdrEncode};
    use crate::giop::Frame;

    struct Adder {
        calls: u32,
    }

    impl Servant for Adder {
        fn type_id(&self) -> &'static str {
            "IDL:test/Adder:1.0"
        }
        fn dispatch(
            &mut self,
            operation: &str,
            args: &mut CdrReader<'_>,
        ) -> Result<Vec<u8>, ServerException> {
            match operation {
                "add" => {
                    self.calls += 1;
                    let (a, b) = <(i64, i64)>::decode(args)?;
                    Ok((a + b).to_cdr_bytes())
                }
                "fail" => Err(ServerException::User("requested failure".into())),
                other => Err(ServerException::BadOperation(other.to_owned())),
            }
        }
    }

    /// Sends `op` with `args` to `key`; the reply's status and body, or
    /// `None` for a oneway.
    fn call(
        poa: &mut Poa,
        key: &str,
        op: &str,
        args: &[u8],
        response_expected: bool,
    ) -> Option<(ReplyStatus, Vec<u8>)> {
        let request = Request {
            request_id: 1,
            response_expected,
            object_key: key,
            operation: op,
            args,
        };
        let wire = poa.handle_request(&request)?;
        match Frame::parse(&wire).unwrap() {
            Frame::Reply(reply) => {
                assert_eq!(reply.request_id, 1);
                Some((reply.status, reply.body.to_vec()))
            }
            Frame::Request(_) => panic!("expected reply"),
        }
    }

    fn poa_with_adder() -> Poa {
        let mut poa = Poa::new(Endpoint::new(0, 1));
        poa.activate(ObjectKey::new("adder"), Box::new(Adder { calls: 0 }));
        poa
    }

    #[test]
    fn successful_dispatch_returns_result() {
        let mut poa = poa_with_adder();
        let args = (2i64, 3i64).to_cdr_bytes();
        let (status, body) = call(&mut poa, "adder", "add", &args, true).unwrap();
        assert_eq!(status, ReplyStatus::NoException);
        assert_eq!(i64::from_cdr_bytes(&body).unwrap(), 5);
    }

    #[test]
    fn user_exception_maps_to_user_status() {
        let mut poa = poa_with_adder();
        let (status, body) = call(&mut poa, "adder", "fail", &[], true).unwrap();
        assert_eq!(status, ReplyStatus::UserException);
        assert_eq!(String::from_utf8(body).unwrap(), "requested failure");
    }

    #[test]
    fn unknown_operation_is_system_exception() {
        let mut poa = poa_with_adder();
        let (status, _) = call(&mut poa, "adder", "nope", &[], true).unwrap();
        assert_eq!(status, ReplyStatus::SystemException);
    }

    #[test]
    fn unknown_object_is_system_exception() {
        let mut poa = poa_with_adder();
        let (status, body) = call(&mut poa, "ghost", "add", &[], true).unwrap();
        assert_eq!(status, ReplyStatus::SystemException);
        assert_eq!(
            String::from_utf8(body).unwrap(),
            "internal servant error: no servant for object key 'ghost'"
        );
    }

    #[test]
    fn marshal_error_is_system_exception() {
        let mut poa = poa_with_adder();
        let (status, _) = call(&mut poa, "adder", "add", &[1], true).unwrap();
        assert_eq!(status, ReplyStatus::SystemException);
    }

    #[test]
    fn oneway_requests_get_no_reply() {
        let mut poa = poa_with_adder();
        let args = (1i64, 1i64).to_cdr_bytes();
        assert!(call(&mut poa, "adder", "add", &args, false).is_none());
        assert_eq!(poa.dispatched(), 1);
    }

    #[test]
    fn activation_lifecycle() {
        let mut poa = poa_with_adder();
        let key = ObjectKey::new("adder");
        assert!(poa.is_active(&key));
        let ior = poa.reference(&key).unwrap();
        assert_eq!(ior.type_id, "IDL:test/Adder:1.0");
        assert!(poa.deactivate(&key).is_some());
        assert!(!poa.is_active(&key));
        assert!(poa.reference(&key).is_none());
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_activation_panics() {
        let mut poa = poa_with_adder();
        poa.activate(ObjectKey::new("adder"), Box::new(Adder { calls: 0 }));
    }

    #[test]
    fn collocated_access_via_servant_mut() {
        let mut poa = poa_with_adder();
        let s = poa.servant_mut(&ObjectKey::new("adder")).unwrap();
        let args = (4i64, 5i64).to_cdr_bytes();
        let mut r = CdrReader::new(&args);
        let out = s.dispatch("add", &mut r).unwrap();
        assert_eq!(i64::from_cdr_bytes(&out).unwrap(), 9);
    }
}
