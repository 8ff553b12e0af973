//! The ORB core: request creation and incoming-message handling.
//!
//! One [`Orb`] runs per simulated host. On the client side it builds framed
//! request messages ([`Orb::make_request`]) and interprets framed replies
//! ([`decode_reply`]); on the server side it owns a [`Poa`] and turns
//! incoming requests into reply frames ([`Orb::handle_wire`]). The actual
//! byte movement is left to the caller — an in-process bus
//! ([`crate::transport::LoopbackBus`]) or the discrete-event network in the
//! grid simulation — so the same middleware code runs in both settings.

use crate::cdr::CdrWriter;
use crate::giop::{write_request_frame, Frame, FrameError, Reply, ReplyStatus, Request};
use crate::ior::{Endpoint, Ior, ObjectKey};
use crate::servant::{Poa, Servant};
use std::fmt;

/// Failure observed by an invoking client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The servant raised its declared (user) exception.
    User(String),
    /// The remote ORB raised a system exception.
    System(String),
    /// The wire bytes could not be parsed.
    Frame(FrameError),
    /// The target endpoint is unreachable.
    Unreachable(Endpoint),
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::User(m) => write!(f, "remote user exception: {m}"),
            RemoteError::System(m) => write!(f, "remote system exception: {m}"),
            RemoteError::Frame(e) => write!(f, "invalid reply frame: {e}"),
            RemoteError::Unreachable(ep) => write!(f, "endpoint {ep} unreachable"),
        }
    }
}

impl std::error::Error for RemoteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RemoteError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for RemoteError {
    fn from(e: FrameError) -> Self {
        RemoteError::Frame(e)
    }
}

/// What an ORB did with an incoming wire message; a received reply's body
/// is borrowed from the wire bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming<'a> {
    /// The message was a request; these reply bytes must be sent back to the
    /// requester.
    ReplyToSend(Vec<u8>),
    /// The message was a oneway request; nothing to send.
    OnewayHandled,
    /// The message was a reply to one of our requests; the caller correlates
    /// it by id.
    ReplyReceived {
        /// Id of the originating request.
        request_id: u64,
        /// The operation result or failure.
        result: Result<&'a [u8], RemoteError>,
    },
}

/// Decodes reply wire bytes into `(request_id, result)`, the result
/// borrowed from `bytes`.
///
/// # Errors
///
/// Fails if the bytes are not a well-formed reply frame.
pub fn decode_reply(bytes: &[u8]) -> Result<(u64, Result<&[u8], RemoteError>), RemoteError> {
    match Frame::parse(bytes)? {
        Frame::Reply(reply) => Ok((reply.request_id, reply_result(&reply))),
        Frame::Request(_) => Err(RemoteError::Frame(FrameError::BadMessageType(0))),
    }
}

/// A reply's body on success, its exception detail as the error otherwise.
fn reply_result<'a>(reply: &Reply<'a>) -> Result<&'a [u8], RemoteError> {
    let detail = || String::from_utf8_lossy(reply.body).into_owned();
    match reply.status {
        ReplyStatus::NoException => Ok(reply.body),
        ReplyStatus::UserException => Err(RemoteError::User(detail())),
        ReplyStatus::SystemException => Err(RemoteError::System(detail())),
    }
}

/// Per-host object request broker.
///
/// # Examples
///
/// ```
/// use integrade_orb::cdr::{CdrDecode, CdrEncode, CdrReader};
/// use integrade_orb::ior::{Endpoint, ObjectKey};
/// use integrade_orb::orb::{decode_reply, Incoming, Orb};
/// use integrade_orb::servant::{Servant, ServerException};
///
/// struct Echo;
/// impl Servant for Echo {
///     fn type_id(&self) -> &'static str { "IDL:test/Echo:1.0" }
///     fn dispatch(&mut self, op: &str, args: &mut CdrReader<'_>)
///         -> Result<Vec<u8>, ServerException> {
///         match op {
///             "echo" => Ok(String::decode(args)?.to_cdr_bytes()),
///             o => Err(ServerException::BadOperation(o.to_owned())),
///         }
///     }
/// }
///
/// let mut server = Orb::new(Endpoint::new(1, 0));
/// let ior = server.activate(ObjectKey::new("echo"), Box::new(Echo));
///
/// let mut client = Orb::new(Endpoint::new(2, 0));
/// let (id, wire) = client.make_request(&ior, "echo", |w| "hi".encode(w));
///
/// // "Network": hand the bytes to the server, then the reply back.
/// let Incoming::ReplyToSend(reply) = server.handle_wire(&wire).unwrap() else { panic!() };
/// let (rid, result) = decode_reply(&reply).unwrap();
/// assert_eq!(rid, id);
/// assert_eq!(String::from_cdr_bytes(result.unwrap()).unwrap(), "hi");
/// ```
#[derive(Debug)]
pub struct Orb {
    poa: Poa,
    next_request_id: u64,
    requests_sent: u64,
    oneways_sent: u64,
    replies_received: u64,
    requests_dispatched: u64,
}

/// Point-in-time traffic counters for one [`Orb`].
///
/// `requests_sent` counts every outgoing frame (two-way and oneway);
/// `oneways_sent` is the oneway subset. `requests_dispatched` counts
/// incoming frames routed to a local servant, and `replies_received`
/// counts reply frames classified for caller-side correlation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrbStats {
    /// Outgoing request frames issued (including oneways).
    pub requests_sent: u64,
    /// Outgoing oneway frames issued (subset of `requests_sent`).
    pub oneways_sent: u64,
    /// Incoming reply frames classified for correlation.
    pub replies_received: u64,
    /// Incoming request frames dispatched to a local servant.
    pub requests_dispatched: u64,
}

impl Orb {
    /// Creates an ORB answering on `endpoint`.
    pub fn new(endpoint: Endpoint) -> Self {
        Orb {
            poa: Poa::new(endpoint),
            next_request_id: 1,
            requests_sent: 0,
            oneways_sent: 0,
            replies_received: 0,
            requests_dispatched: 0,
        }
    }

    /// This ORB's endpoint.
    pub fn endpoint(&self) -> Endpoint {
        self.poa.endpoint()
    }

    /// Shared view of the object adapter.
    pub fn poa(&self) -> &Poa {
        &self.poa
    }

    /// Activates a servant; see [`Poa::activate`].
    ///
    /// # Panics
    ///
    /// Panics on double activation of the same key.
    pub fn activate(&mut self, key: ObjectKey, servant: Box<dyn Servant>) -> Ior {
        self.poa.activate(key, servant)
    }

    /// Builds a framed request for `operation` on `target`. Returns the
    /// request id (for reply correlation) and the wire bytes to transmit.
    pub fn make_request(
        &mut self,
        target: &Ior,
        operation: &str,
        encode_args: impl FnOnce(&mut CdrWriter),
    ) -> (u64, Vec<u8>) {
        let mut out = Vec::new();
        let id = self.make_request_into(target, operation, encode_args, &mut out);
        (id, out)
    }

    /// Builds a framed *oneway* request (no reply will be produced).
    pub fn make_oneway(
        &mut self,
        target: &Ior,
        operation: &str,
        encode_args: impl FnOnce(&mut CdrWriter),
    ) -> (u64, Vec<u8>) {
        let mut out = Vec::new();
        let id = self.make_oneway_into(target, operation, encode_args, &mut out);
        (id, out)
    }

    /// Like [`Orb::make_request`], but appends the wire bytes to a
    /// caller-supplied (typically pooled) buffer instead of allocating one.
    pub fn make_request_into(
        &mut self,
        target: &Ior,
        operation: &str,
        encode_args: impl FnOnce(&mut CdrWriter),
        out: &mut Vec<u8>,
    ) -> u64 {
        self.make_request_inner(target, operation, true, encode_args, out)
    }

    /// Like [`Orb::make_oneway`], but appends into a caller-supplied buffer.
    pub fn make_oneway_into(
        &mut self,
        target: &Ior,
        operation: &str,
        encode_args: impl FnOnce(&mut CdrWriter),
        out: &mut Vec<u8>,
    ) -> u64 {
        self.make_request_inner(target, operation, false, encode_args, out)
    }

    fn make_request_inner(
        &mut self,
        target: &Ior,
        operation: &str,
        response_expected: bool,
        encode_args: impl FnOnce(&mut CdrWriter),
        out: &mut Vec<u8>,
    ) -> u64 {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        self.requests_sent += 1;
        if !response_expected {
            self.oneways_sent += 1;
        }
        write_request_frame(
            out,
            request_id,
            response_expected,
            target.object_key.as_str(),
            operation,
            encode_args,
        );
        request_id
    }

    /// Handles incoming wire bytes: dispatches requests to local servants
    /// and classifies replies for the caller to correlate.
    ///
    /// # Errors
    ///
    /// Fails if the bytes are not a well-formed frame.
    pub fn handle_wire<'a>(&mut self, bytes: &'a [u8]) -> Result<Incoming<'a>, RemoteError> {
        self.handle_wire_via(bytes, |poa, request| poa.handle_request(request))
    }

    /// [`Orb::handle_wire`] with the servant *borrowed for the call* instead
    /// of activated: an incoming request is dispatched to `servant` when it
    /// is addressed to `key` (see [`Poa::handle_request_with`]); replies are
    /// classified exactly as `handle_wire` does. For hosts whose owner keeps
    /// the implementation object as plain data between calls.
    ///
    /// # Errors
    ///
    /// Fails if the bytes are not a well-formed frame.
    pub fn handle_wire_with<'a>(
        &mut self,
        bytes: &'a [u8],
        key: &ObjectKey,
        servant: &mut dyn Servant,
    ) -> Result<Incoming<'a>, RemoteError> {
        self.handle_wire_via(bytes, |poa, request| {
            poa.handle_request_with(request, key, servant)
        })
    }

    fn handle_wire_via<'a>(
        &mut self,
        bytes: &'a [u8],
        serve: impl FnOnce(&mut Poa, &Request<'_>) -> Option<Vec<u8>>,
    ) -> Result<Incoming<'a>, RemoteError> {
        match Frame::parse(bytes)? {
            Frame::Request(request) => {
                self.requests_dispatched += 1;
                Ok(match serve(&mut self.poa, &request) {
                    Some(reply) => Incoming::ReplyToSend(reply),
                    None => Incoming::OnewayHandled,
                })
            }
            Frame::Reply(reply) => {
                self.replies_received += 1;
                Ok(Incoming::ReplyReceived {
                    request_id: reply.request_id,
                    result: reply_result(&reply),
                })
            }
        }
    }

    /// Total requests this ORB has issued.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// Snapshot of this ORB's traffic counters.
    pub fn stats(&self) -> OrbStats {
        OrbStats {
            requests_sent: self.requests_sent,
            oneways_sent: self.oneways_sent,
            replies_received: self.replies_received,
            requests_dispatched: self.requests_dispatched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::{CdrDecode, CdrEncode, CdrReader};
    use crate::servant::ServerException;

    struct Counter {
        value: i64,
    }

    impl Servant for Counter {
        fn type_id(&self) -> &'static str {
            "IDL:test/Counter:1.0"
        }
        fn dispatch(
            &mut self,
            op: &str,
            args: &mut CdrReader<'_>,
        ) -> Result<Vec<u8>, ServerException> {
            match op {
                "add" => {
                    self.value += i64::decode(args)?;
                    Ok(self.value.to_cdr_bytes())
                }
                "boom" => Err(ServerException::User("boom".into())),
                o => Err(ServerException::BadOperation(o.to_owned())),
            }
        }
    }

    fn setup() -> (Orb, Orb, Ior) {
        let mut server = Orb::new(Endpoint::new(1, 0));
        let ior = server.activate(ObjectKey::new("counter"), Box::new(Counter { value: 0 }));
        let client = Orb::new(Endpoint::new(2, 0));
        (server, client, ior)
    }

    #[test]
    fn request_reply_round_trip() {
        let (mut server, mut client, ior) = setup();
        let (id, wire) = client.make_request(&ior, "add", |w| 7i64.encode(w));
        let Incoming::ReplyToSend(reply) = server.handle_wire(&wire).unwrap() else {
            panic!()
        };
        let Incoming::ReplyReceived { request_id, result } = client.handle_wire(&reply).unwrap()
        else {
            panic!()
        };
        assert_eq!(request_id, id);
        assert_eq!(i64::from_cdr_bytes(result.unwrap()).unwrap(), 7);
    }

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let (_, mut client, ior) = setup();
        let (a, _) = client.make_request(&ior, "add", |w| 1i64.encode(w));
        let (b, _) = client.make_request(&ior, "add", |w| 1i64.encode(w));
        assert!(b > a);
        assert_eq!(client.requests_sent(), 2);
    }

    #[test]
    fn user_exception_propagates() {
        let (mut server, mut client, ior) = setup();
        let (_, wire) = client.make_request(&ior, "boom", |_| {});
        let Incoming::ReplyToSend(reply) = server.handle_wire(&wire).unwrap() else {
            panic!()
        };
        let Incoming::ReplyReceived { result, .. } = client.handle_wire(&reply).unwrap() else {
            panic!()
        };
        assert_eq!(result.unwrap_err(), RemoteError::User("boom".into()));
    }

    #[test]
    fn oneway_produces_no_reply_but_executes() {
        let (mut server, mut client, ior) = setup();
        let (_, wire) = client.make_oneway(&ior, "add", |w| 3i64.encode(w));
        assert_eq!(server.handle_wire(&wire).unwrap(), Incoming::OnewayHandled);
        // State changed: a follow-up add sees 3 + 4.
        let (_, wire2) = client.make_request(&ior, "add", |w| 4i64.encode(w));
        let Incoming::ReplyToSend(reply) = server.handle_wire(&wire2).unwrap() else {
            panic!()
        };
        let (_, result) = decode_reply(&reply).unwrap();
        assert_eq!(i64::from_cdr_bytes(result.unwrap()).unwrap(), 7);
    }

    #[test]
    fn borrowed_dispatch_answers_byte_for_byte_like_the_activated_path() {
        let (mut activated, mut client, ior) = setup();
        let mut borrowing = Orb::new(activated.endpoint());
        let mut lent = Counter { value: 0 };
        let foreign = Ior::new(ior.type_id.clone(), ior.endpoint, ObjectKey::new("ghost"));
        let frames = [
            client.make_request(&ior, "add", |w| 7i64.encode(w)).1, // success
            client.make_request(&ior, "boom", |_| {}).1,            // user exception
            client.make_request(&ior, "nope", |_| {}).1,            // bad operation
            client.make_request(&ior, "add", |w| 1u8.encode(w)).1,  // marshal error
            client.make_oneway(&ior, "add", |w| 5i64.encode(w)).1,  // oneway: no reply
            client.make_request(&foreign, "add", |w| 1i64.encode(w)).1, // foreign key
            client.make_request(&ior, "add", |w| 0i64.encode(w)).1, // state: 7 + 5
        ];
        for (sent, wire) in frames.iter().enumerate() {
            let expected = activated.handle_wire(wire).unwrap();
            let got = borrowing
                .handle_wire_with(wire, &ior.object_key, &mut lent)
                .unwrap();
            assert_eq!(got, expected, "frame {sent}");
            assert_eq!(borrowing.stats(), activated.stats(), "frame {sent}");
            assert_eq!(borrowing.stats().requests_dispatched, sent as u64 + 1);
            assert_eq!(borrowing.poa().dispatched(), sent as u64 + 1);
        }
        assert_eq!(lent.value, 12, "the foreign-key request never reached it");
        let Incoming::ReplyToSend(ghost) = activated.handle_wire(&frames[5]).unwrap() else {
            panic!("two-way request")
        };
        let (_, result) = decode_reply(&ghost).unwrap();
        assert!(matches!(result, Err(RemoteError::System(m)) if m.contains("no servant")));
        // A reply frame takes the same path through either entry.
        let from_borrowed = client.handle_wire_with(&ghost, &ior.object_key, &mut lent);
        assert_eq!(from_borrowed, client.handle_wire(&ghost));
    }

    #[test]
    fn garbage_bytes_are_a_frame_error() {
        let (mut server, _, _) = setup();
        assert!(matches!(
            server.handle_wire(b"not a frame").unwrap_err(),
            RemoteError::Frame(_)
        ));
    }

    #[test]
    fn decode_reply_rejects_requests() {
        let (_, mut client, ior) = setup();
        let (_, wire) = client.make_request(&ior, "add", |w| 1i64.encode(w));
        assert!(decode_reply(&wire).is_err());
    }
}
