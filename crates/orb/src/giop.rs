//! GIOP-style wire messages.
//!
//! The General Inter-ORB Protocol frames every interaction as a `Request` or
//! `Reply` with a small fixed header (magic, version, message type, body
//! size) followed by a CDR-encoded message header and body. This module
//! reproduces that framing: message sizes measured in benchmarks therefore
//! include realistic header overhead, mirroring the UIC-CORBA transport the
//! InteGrade prototype used.

use crate::cdr::{CdrDecode, CdrEncode, CdrError, CdrReader, CdrWriter};
use crate::ior::ObjectKey;
use std::borrow::Cow;
use std::fmt;

/// Magic bytes opening every message.
pub const MAGIC: [u8; 4] = *b"GIOP";
/// Protocol version emitted by this implementation.
pub const VERSION: (u8, u8) = (1, 0);

/// Reply outcome category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyStatus {
    /// Operation returned normally; body is the CDR-encoded result.
    NoException,
    /// Operation raised an application-level exception.
    UserException,
    /// ORB-level failure (unknown object, bad operation, marshal error...).
    SystemException,
}

impl ReplyStatus {
    fn to_u32(self) -> u32 {
        match self {
            ReplyStatus::NoException => 0,
            ReplyStatus::UserException => 1,
            ReplyStatus::SystemException => 2,
        }
    }

    fn from_u32(v: u32) -> Result<Self, CdrError> {
        match v {
            0 => Ok(ReplyStatus::NoException),
            1 => Ok(ReplyStatus::UserException),
            2 => Ok(ReplyStatus::SystemException),
            other => Err(CdrError::InvalidDiscriminant {
                type_name: "ReplyStatus",
                value: other,
            }),
        }
    }
}

/// A framed protocol message.
///
/// The owned view of a frame. The body is a [`Cow`]: decoding with
/// [`Message::from_wire`] borrows it out of the wire buffer, while
/// constructed messages own their bytes. The ORB's own paths use the
/// borrowed [`Frame`] instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Message<'a> {
    /// An invocation sent to a servant.
    Request {
        /// Correlates the eventual reply.
        request_id: u64,
        /// `false` for oneway operations (no reply is generated).
        response_expected: bool,
        /// Which servant at the receiving ORB.
        object_key: ObjectKey,
        /// Operation name.
        operation: String,
        /// CDR-encoded arguments.
        body: Cow<'a, [u8]>,
    },
    /// The response to a request.
    Reply {
        /// Matches the originating request.
        request_id: u64,
        /// Outcome category.
        status: ReplyStatus,
        /// CDR-encoded result or exception detail.
        body: Cow<'a, [u8]>,
    },
}

const MSG_REQUEST: u8 = 0;
const MSG_REPLY: u8 = 1;

/// Error from decoding a framed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The magic bytes were wrong.
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8, u8),
    /// Unknown message type byte.
    BadMessageType(u8),
    /// The declared body size disagrees with the buffer.
    SizeMismatch {
        /// Size declared in the header.
        declared: u32,
        /// Bytes actually present after the header.
        actual: usize,
    },
    /// The header or body failed CDR decoding.
    Cdr(CdrError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad GIOP magic {m:?}"),
            FrameError::BadVersion(maj, min) => write!(f, "unsupported GIOP version {maj}.{min}"),
            FrameError::BadMessageType(t) => write!(f, "unknown GIOP message type {t}"),
            FrameError::SizeMismatch { declared, actual } => {
                write!(
                    f,
                    "GIOP size mismatch: header says {declared}, buffer has {actual}"
                )
            }
            FrameError::Cdr(e) => write!(f, "GIOP payload malformed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Cdr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CdrError> for FrameError {
    fn from(e: CdrError) -> Self {
        FrameError::Cdr(e)
    }
}

/// Opens a frame in `out`: 12-byte GIOP-style header with a zeroed size
/// field, returning the offset of the header for backpatching.
fn begin_frame(out: &mut Vec<u8>, msg_type: u8) -> usize {
    let header = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION.0);
    out.push(VERSION.1);
    out.push(0); // flags: big-endian
    out.push(msg_type);
    out.extend_from_slice(&[0u8; 4]); // size, backpatched by end_frame
    header
}

/// Backpatches the size field of a frame opened at `header`.
fn end_frame(out: &mut [u8], header: usize) {
    let size = (out.len() - header - 12) as u32;
    out[header + 8..header + 12].copy_from_slice(&size.to_be_bytes());
}

/// Ends the message header `w` holds with a length-prefixed block that
/// `encode` writes in place, then backpatches the length. The block's
/// writer is based at the block's first byte: CDR aligns an encapsulated
/// body relative to its own start, not the frame's.
fn write_block<R>(mut w: CdrWriter, encode: impl FnOnce(&mut CdrWriter) -> R) -> (Vec<u8>, R) {
    w.write_u32(0);
    let out = w.into_bytes();
    let len_at = out.len() - 4;
    let mut block = CdrWriter::append_to(out);
    let result = encode(&mut block);
    let len = block.len() as u32;
    let mut out = block.into_bytes();
    out[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
    (out, result)
}

/// Appends a request frame to `out` in one pass, `encode_args` writing the
/// arguments straight into it.
pub fn write_request_frame(
    out: &mut Vec<u8>,
    request_id: u64,
    response_expected: bool,
    object_key: &str,
    operation: &str,
    encode_args: impl FnOnce(&mut CdrWriter),
) {
    let header = begin_frame(out, MSG_REQUEST);
    let mut w = CdrWriter::append_to(std::mem::take(out));
    request_id.encode(&mut w);
    response_expected.encode(&mut w);
    object_key.encode(&mut w);
    operation.encode(&mut w);
    (*out, ()) = write_block(w, encode_args);
    end_frame(out, header);
}

/// Appends a reply frame to `out` in one pass: `encode_body` writes the
/// body straight into it and returns the reply's status.
pub fn write_reply_frame(
    out: &mut Vec<u8>,
    request_id: u64,
    encode_body: impl FnOnce(&mut CdrWriter) -> ReplyStatus,
) {
    let header = begin_frame(out, MSG_REPLY);
    let mut w = CdrWriter::append_to(std::mem::take(out));
    request_id.encode(&mut w);
    w.write_u32(0); // status, backpatched below
    let status_at = header + 12 + w.len() - 4;
    let status;
    (*out, status) = write_block(w, encode_body);
    out[status_at..status_at + 4].copy_from_slice(&status.to_u32().to_be_bytes());
    end_frame(out, header);
}

/// A frame parsed in place: every field, the request's object key and
/// operation included, is borrowed from the wire bytes. This is the one
/// decoder; [`Message::from_wire`] is this parse plus two `to_owned`
/// calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// An invocation sent to a servant.
    Request(Request<'a>),
    /// The response to a request.
    Reply(Reply<'a>),
}

/// A request frame's header and arguments, borrowed from the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    /// Correlates the eventual reply.
    pub request_id: u64,
    /// `false` for oneway operations (no reply is generated).
    pub response_expected: bool,
    /// Which servant at the receiving ORB.
    pub object_key: &'a str,
    /// Operation name.
    pub operation: &'a str,
    /// CDR-encoded arguments.
    pub args: &'a [u8],
}

/// A reply frame, borrowed from the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply<'a> {
    /// Matches the originating request.
    pub request_id: u64,
    /// Outcome category.
    pub status: ReplyStatus,
    /// CDR-encoded result or exception detail.
    pub body: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Parses a framed message without copying any of it.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] describing the first malformation.
    pub fn parse(bytes: &'a [u8]) -> Result<Frame<'a>, FrameError> {
        if bytes.len() < 12 {
            return Err(FrameError::Cdr(CdrError::UnexpectedEof {
                needed: 12 - bytes.len(),
                at: bytes.len(),
            }));
        }
        let magic: [u8; 4] = bytes[0..4].try_into().unwrap();
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        if (bytes[4], bytes[5]) != VERSION {
            return Err(FrameError::BadVersion(bytes[4], bytes[5]));
        }
        let msg_type = bytes[7];
        let declared = u32::from_be_bytes(bytes[8..12].try_into().unwrap());
        let body = &bytes[12..];
        if declared as usize != body.len() {
            return Err(FrameError::SizeMismatch {
                declared,
                actual: body.len(),
            });
        }
        let mut r = CdrReader::new(body);
        let frame = match msg_type {
            MSG_REQUEST => Frame::Request(Request {
                request_id: u64::decode(&mut r)?,
                response_expected: bool::decode(&mut r)?,
                object_key: r.read_str()?,
                operation: r.read_str()?,
                args: read_block(&mut r)?,
            }),
            MSG_REPLY => Frame::Reply(Reply {
                request_id: u64::decode(&mut r)?,
                status: ReplyStatus::from_u32(u32::decode(&mut r)?)?,
                body: read_block(&mut r)?,
            }),
            t => return Err(FrameError::BadMessageType(t)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Reads a length-prefixed block, borrowed.
fn read_block<'a>(r: &mut CdrReader<'a>) -> Result<&'a [u8], CdrError> {
    let len = u32::decode(r)? as usize;
    r.read_bytes(len)
}

impl<'a> Message<'a> {
    /// Appends the framed encoding of this message to `out` (single pass,
    /// size backpatched — no intermediate body buffer).
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        match self {
            Message::Request {
                request_id,
                response_expected,
                object_key,
                operation,
                body,
            } => write_request_frame(
                out,
                *request_id,
                *response_expected,
                object_key.as_str(),
                operation,
                |w| w.write_bytes(body),
            ),
            Message::Reply {
                request_id,
                status,
                body,
            } => write_reply_frame(out, *request_id, |w| {
                w.write_bytes(body);
                *status
            }),
        }
    }

    /// Encodes the message with its 12-byte GIOP-style header.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(76);
        self.write_wire(&mut out);
        out
    }

    /// Decodes a framed message, borrowing the body out of `bytes`: a
    /// [`Frame::parse`] that owns its object key and operation.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] describing the first malformation.
    pub fn from_wire(bytes: &'a [u8]) -> Result<Message<'a>, FrameError> {
        Ok(match Frame::parse(bytes)? {
            Frame::Request(request) => Message::Request {
                request_id: request.request_id,
                response_expected: request.response_expected,
                object_key: ObjectKey::new(request.object_key),
                operation: request.operation.to_owned(),
                body: Cow::Borrowed(request.args),
            },
            Frame::Reply(reply) => Message::Reply {
                request_id: reply.request_id,
                status: reply.status,
                body: Cow::Borrowed(reply.body),
            },
        })
    }

    /// Total wire size in bytes (header + body).
    pub fn wire_size(&self) -> usize {
        self.to_wire().len()
    }
}

/// Test support: the frame-level twin of [`crate::cdr::assert_wire_sound`].
/// Given a well-formed `frame`, checks that
/// - it parses and re-frames to the same bytes;
/// - every strict prefix, and the frame with one byte appended, is refused;
/// - every single-bit flip parses or errors without panicking;
/// - for each of `seeds`, 64 seeded flips of 2 to 8 bits do the same;
/// - a flipped frame that parses re-frames to one that parses back to the
///   same message (the flip landed in padding or an ignored flag byte, or
///   made a different but well-formed message).
///
/// # Panics
///
/// Panics naming the first check that fails.
pub fn assert_frame_sound(frame: &[u8], seeds: &[u64]) {
    let message =
        Message::from_wire(frame).unwrap_or_else(|e| panic!("the frame does not parse: {e}"));
    assert_eq!(
        message.to_wire(),
        frame,
        "the frame does not re-frame to itself"
    );
    for cut in 0..frame.len() {
        assert!(
            Message::from_wire(&frame[..cut]).is_err(),
            "parsed from its first {cut} of {} bytes",
            frame.len()
        );
    }
    let mut longer = frame.to_vec();
    longer.push(0);
    assert!(
        Message::from_wire(&longer).is_err(),
        "parsed with one byte appended"
    );
    let bits = frame.len() * 8;
    let mut flips: Vec<Vec<usize>> = (0..bits).map(|bit| vec![bit]).collect();
    for &seed in seeds {
        let mut rng = integrade_simnet::rng::DetRng::with_stream(seed, frame.len() as u64);
        for _ in 0..64 {
            let count = 2 + rng.index(7);
            flips.push((0..count).map(|_| rng.index(bits)).collect());
        }
    }
    let mut flipped = frame.to_vec();
    for bits in flips {
        for &bit in &bits {
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let outcome = std::panic::catch_unwind(|| {
            Message::from_wire(&flipped).map(|m| {
                let again = m.to_wire();
                Message::from_wire(&again).ok() == Some(m)
            })
        });
        match outcome {
            Err(_) => panic!("flipping bits {bits:?} panicked"),
            Ok(Ok(stable)) => assert!(stable, "flipping bits {bits:?} re-framed unstably"),
            Ok(Err(_)) => {}
        }
        for &bit in &bits {
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Message<'static> {
        Message::Request {
            request_id: 42,
            response_expected: true,
            object_key: ObjectKey::new("grm"),
            operation: "update_status".into(),
            body: vec![1, 2, 3, 4].into(),
        }
    }

    #[test]
    fn request_round_trips() {
        let m = sample_request();
        assert_eq!(Message::from_wire(&m.to_wire()).unwrap(), m);
    }

    #[test]
    fn reply_round_trips() {
        for status in [
            ReplyStatus::NoException,
            ReplyStatus::UserException,
            ReplyStatus::SystemException,
        ] {
            let m = Message::Reply {
                request_id: 7,
                status,
                body: vec![9; 17].into(),
            };
            assert_eq!(Message::from_wire(&m.to_wire()).unwrap(), m);
        }
    }

    #[test]
    fn empty_bodies_round_trip() {
        let m = Message::Request {
            request_id: 0,
            response_expected: false,
            object_key: ObjectKey::new("k"),
            operation: "ping".into(),
            body: vec![].into(),
        };
        assert_eq!(Message::from_wire(&m.to_wire()).unwrap(), m);
    }

    #[test]
    fn header_layout_is_giop_like() {
        let wire = sample_request().to_wire();
        assert_eq!(&wire[0..4], b"GIOP");
        assert_eq!((wire[4], wire[5]), VERSION);
        let declared = u32::from_be_bytes(wire[8..12].try_into().unwrap());
        assert_eq!(declared as usize, wire.len() - 12);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = sample_request().to_wire();
        wire[0] = b'X';
        assert!(matches!(
            Message::from_wire(&wire).unwrap_err(),
            FrameError::BadMagic(_)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut wire = sample_request().to_wire();
        wire[4] = 9;
        assert_eq!(
            Message::from_wire(&wire).unwrap_err(),
            FrameError::BadVersion(9, 0)
        );
    }

    #[test]
    fn size_mismatch_rejected() {
        let mut wire = sample_request().to_wire();
        wire.push(0);
        assert!(matches!(
            Message::from_wire(&wire).unwrap_err(),
            FrameError::SizeMismatch { .. }
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(matches!(
            Message::from_wire(b"GIOP").unwrap_err(),
            FrameError::Cdr(CdrError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn unknown_message_type_rejected() {
        let mut wire = sample_request().to_wire();
        wire[7] = 77;
        assert_eq!(
            Message::from_wire(&wire).unwrap_err(),
            FrameError::BadMessageType(77)
        );
    }

    #[test]
    fn wire_size_matches_encoding() {
        let m = sample_request();
        assert_eq!(m.wire_size(), m.to_wire().len());
    }

    #[test]
    fn decode_borrows_body_from_wire_buffer() {
        let wire = sample_request().to_wire();
        let Message::Request { body, .. } = Message::from_wire(&wire).unwrap() else {
            panic!()
        };
        assert!(matches!(body, Cow::Borrowed(_)), "decode must not copy");
        assert_eq!(&*body, &[1, 2, 3, 4]);
    }

    #[test]
    fn write_wire_appends_and_matches_to_wire() {
        let m = sample_request();
        let mut out = vec![0xEE; 5]; // pre-existing prefix is left intact
        m.write_wire(&mut out);
        assert_eq!(&out[..5], &[0xEE; 5]);
        assert_eq!(&out[5..], &m.to_wire()[..]);
        assert_eq!(Message::from_wire(&out[5..]).unwrap(), m);
    }

    #[test]
    fn in_place_framers_match_the_message_encoding() {
        // The argument block starts 4-aligned inside the frame body ("grm"
        // and "update_status" leave it at offset 36): a u64 argument must
        // still be aligned relative to the block, as a standalone encoding
        // aligns it.
        let args = (7u8, 0xAB_u64);
        let m = Message::Request {
            request_id: 42,
            response_expected: true,
            object_key: ObjectKey::new("grm"),
            operation: "update_status".into(),
            body: args.to_cdr_bytes().into(),
        };
        let mut direct = Vec::new();
        write_request_frame(&mut direct, 42, true, "grm", "update_status", |w| {
            args.encode(w)
        });
        assert_eq!(direct, m.to_wire());
        let Frame::Request(request) = Frame::parse(&direct).unwrap() else {
            panic!("a request")
        };
        assert_eq!(
            (request.object_key, request.operation),
            ("grm", "update_status")
        );
        assert_eq!(request.args, &args.to_cdr_bytes()[..]);
        // A reply body written, discarded and rewritten as an exception
        // carries only the rewrite and the status returned last.
        let mut reply = Vec::new();
        write_reply_frame(&mut reply, 7, |w| {
            args.encode(w);
            w.clear();
            w.write_bytes(&[9; 17]);
            ReplyStatus::UserException
        });
        let expected = Message::Reply {
            request_id: 7,
            status: ReplyStatus::UserException,
            body: vec![9; 17].into(),
        };
        assert_eq!(reply, expected.to_wire());
        assert_eq!(
            Frame::parse(&reply).unwrap(),
            Frame::Reply(Reply {
                request_id: 7,
                status: ReplyStatus::UserException,
                body: &[9; 17],
            })
        );
    }
}
