//! Servants and the object adapter.
//!
//! A [`Servant`] is the implementation object behind an IDL interface: it
//! receives an operation name and CDR-encoded arguments and produces a
//! CDR-encoded result (the moral equivalent of a CORBA skeleton's dynamic
//! dispatch). The [`Poa`] (portable object adapter) maps object keys to
//! servants, activates/deactivates them and converts invocation failures
//! into GIOP system exceptions.

use crate::cdr::{CdrError, CdrReader};
use crate::giop::{Message, ReplyStatus};
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

    /// Dispatches a request message; returns the reply message, or `None`
    /// for oneway requests.
    ///
    /// Non-request messages yield a system-exception reply when a response
    /// is expected, mirroring ORB behaviour of never letting a client hang
    /// on a malformed interaction.
    pub fn handle_request(&mut self, message: &Message<'_>) -> Option<Message<'static>> {
        let servants = &mut self.servants;
        serve(&mut self.dispatched, message, |key| {
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
        message: &Message<'_>,
        key: &ObjectKey,
        servant: &mut dyn Servant,
    ) -> Option<Message<'static>> {
        serve(&mut self.dispatched, message, |target| {
            (target == key).then_some(servant)
        })
    }
}

/// The one dispatch body behind both [`Poa`] entries: count the request,
/// resolve its object key to a servant, invoke, and map the outcome to a
/// reply (`None` for oneways and for non-request messages).
fn serve<'s>(
    dispatched: &mut u64,
    message: &Message<'_>,
    resolve: impl FnOnce(&ObjectKey) -> Option<&'s mut (dyn Servant + 's)>,
) -> Option<Message<'static>> {
    let Message::Request {
        request_id,
        response_expected,
        object_key,
        operation,
        body,
    } = message
    else {
        return None;
    };
    *dispatched += 1;
    let outcome = match resolve(object_key) {
        None => Err(ServerException::Internal(format!(
            "no servant for object key '{object_key}'"
        ))),
        Some(servant) => servant.dispatch(operation, &mut CdrReader::new(body)),
    };
    if !response_expected {
        return None;
    }
    let (status, body) = match outcome {
        Ok(result) => (ReplyStatus::NoException, result),
        Err(ServerException::User(detail)) => (ReplyStatus::UserException, detail.into_bytes()),
        Err(e) => (ReplyStatus::SystemException, e.to_string().into_bytes()),
    };
    Some(Message::Reply {
        request_id: *request_id,
        status,
        body: body.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::{CdrDecode, CdrEncode};

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

    fn request(key: &str, op: &str, body: Vec<u8>, expect: bool) -> Message<'static> {
        Message::Request {
            request_id: 1,
            response_expected: expect,
            object_key: ObjectKey::new(key),
            operation: op.into(),
            body: body.into(),
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
        let reply = poa
            .handle_request(&request("adder", "add", (2i64, 3i64).to_cdr_bytes(), true))
            .unwrap();
        let Message::Reply { status, body, .. } = reply else {
            panic!("expected reply")
        };
        assert_eq!(status, ReplyStatus::NoException);
        assert_eq!(i64::from_cdr_bytes(&body).unwrap(), 5);
    }

    #[test]
    fn user_exception_maps_to_user_status() {
        let mut poa = poa_with_adder();
        let reply = poa
            .handle_request(&request("adder", "fail", vec![], true))
            .unwrap();
        let Message::Reply { status, body, .. } = reply else {
            panic!()
        };
        assert_eq!(status, ReplyStatus::UserException);
        assert_eq!(
            String::from_utf8(body.into_owned()).unwrap(),
            "requested failure"
        );
    }

    #[test]
    fn unknown_operation_is_system_exception() {
        let mut poa = poa_with_adder();
        let reply = poa
            .handle_request(&request("adder", "nope", vec![], true))
            .unwrap();
        let Message::Reply { status, .. } = reply else {
            panic!()
        };
        assert_eq!(status, ReplyStatus::SystemException);
    }

    #[test]
    fn unknown_object_is_system_exception() {
        let mut poa = poa_with_adder();
        let reply = poa
            .handle_request(&request("ghost", "add", vec![], true))
            .unwrap();
        let Message::Reply { status, .. } = reply else {
            panic!()
        };
        assert_eq!(status, ReplyStatus::SystemException);
    }

    #[test]
    fn marshal_error_is_system_exception() {
        let mut poa = poa_with_adder();
        let reply = poa
            .handle_request(&request("adder", "add", vec![1], true))
            .unwrap();
        let Message::Reply { status, .. } = reply else {
            panic!()
        };
        assert_eq!(status, ReplyStatus::SystemException);
    }

    #[test]
    fn oneway_requests_get_no_reply() {
        let mut poa = poa_with_adder();
        let reply =
            poa.handle_request(&request("adder", "add", (1i64, 1i64).to_cdr_bytes(), false));
        assert!(reply.is_none());
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
