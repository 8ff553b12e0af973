//! CDR-style marshalling (Common Data Representation).
//!
//! CORBA's GIOP protocol marshals values in CDR: primitives are aligned to
//! their natural size, strings are length-prefixed and NUL-terminated,
//! sequences are length-prefixed. This module reproduces that encoding
//! (big-endian flavour) so the InteGrade protocol messages have realistic
//! wire sizes and the marshalling cost shows up in benchmarks, as it did in
//! the paper's UIC-CORBA-based prototype.
//!
//! The [`CdrEncode`]/[`CdrDecode`] traits are implemented for primitives,
//! `String`, `Vec<T>`, `Option<T>`, shared byte slices, maps and small
//! tuples. An application type declares its wire shape once with
//! [`impl_cdr!`](crate::impl_cdr), the way an IDL compiler emits stubs: the
//! fields in wire order (classic CDR struct layout), a newtype's inner type,
//! or a fieldless enum's discriminants. [`assert_wire_sound`] is the one test
//! every such type's samples go through.
//!
//! ```
//! use integrade_orb::cdr::{assert_wire_sound, CdrDecode, CdrEncode};
//!
//! #[derive(Debug, PartialEq)]
//! struct NodeId(u32);
//! #[derive(Debug, PartialEq)]
//! enum Mode { Idle = 0, Busy = 1 }
//! #[derive(Debug, PartialEq)]
//! struct Status { node: NodeId, mode: Mode, load: f64 }
//!
//! integrade_orb::impl_cdr!(struct NodeId(u32));
//! integrade_orb::impl_cdr!(enum Mode { Idle = 0, Busy = 1 });
//! integrade_orb::impl_cdr!(struct Status { node, mode, load });
//!
//! let s = Status { node: NodeId(7), mode: Mode::Busy, load: 0.5 };
//! // u32 node, u32 tag, then the f64 aligned to eight.
//! assert_eq!(s.to_cdr_bytes().len(), 16);
//! assert_eq!(Status::from_cdr_bytes(&s.to_cdr_bytes()).unwrap(), s);
//! assert_wire_sound(&s);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Error produced when decoding malformed CDR data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdrError {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// Bytes needed beyond the buffer end.
        needed: usize,
        /// Read position at the failure.
        at: usize,
    },
    /// A string was not valid UTF-8.
    InvalidUtf8,
    /// A boolean byte was neither 0 nor 1.
    InvalidBool(u8),
    /// A sequence length exceeded the sanity bound.
    LengthOverflow(u64),
    /// An enum discriminant was out of range.
    InvalidDiscriminant {
        /// The type being decoded.
        type_name: &'static str,
        /// The offending discriminant.
        value: u32,
    },
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for CdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdrError::UnexpectedEof { needed, at } => {
                write!(
                    f,
                    "unexpected end of CDR buffer at offset {at} (needed {needed} more bytes)"
                )
            }
            CdrError::InvalidUtf8 => write!(f, "CDR string was not valid UTF-8"),
            CdrError::InvalidBool(b) => write!(f, "invalid CDR boolean byte {b:#04x}"),
            CdrError::LengthOverflow(n) => {
                write!(f, "CDR sequence length {n} exceeds sanity bound")
            }
            CdrError::InvalidDiscriminant { type_name, value } => {
                write!(f, "invalid discriminant {value} for {type_name}")
            }
            CdrError::TrailingBytes(n) => write!(f, "{n} trailing bytes after CDR value"),
        }
    }
}

impl std::error::Error for CdrError {}

/// Upper bound on decoded sequence lengths; prevents hostile lengths from
/// causing huge allocations.
const MAX_SEQ_LEN: u64 = 16 * 1024 * 1024;

/// CDR encoder: appends aligned big-endian values to a growable buffer.
///
/// # Examples
///
/// ```
/// use integrade_orb::cdr::{CdrWriter, CdrReader, CdrEncode, CdrDecode};
///
/// let mut w = CdrWriter::new();
/// 42u32.encode(&mut w);
/// "hello".to_owned().encode(&mut w);
/// let bytes = w.into_bytes();
///
/// let mut r = CdrReader::new(&bytes);
/// assert_eq!(u32::decode(&mut r).unwrap(), 42);
/// assert_eq!(String::decode(&mut r).unwrap(), "hello");
/// ```
#[derive(Debug, Default)]
pub struct CdrWriter {
    buf: Vec<u8>,
    /// Offset the CDR value starts at; alignment is relative to it.
    base: usize,
}

impl CdrWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        CdrWriter {
            buf: Vec::with_capacity(cap),
            base: 0,
        }
    }

    /// Creates a writer that appends a CDR value to an existing buffer,
    /// re-using its allocation. Alignment is relative to the current end of
    /// `buf`, so the encoding is identical to a standalone one — this is
    /// how frames are built in place without a copy.
    pub fn append_to(buf: Vec<u8>) -> Self {
        let base = buf.len();
        CdrWriter { buf, base }
    }

    /// Pads with zero bytes so the next write lands on a multiple of `align`
    /// (relative to the start of the value being encoded).
    pub fn align(&mut self, align: usize) {
        let rem = (self.buf.len() - self.base) % align;
        if rem != 0 {
            self.buf.resize(self.buf.len() + (align - rem), 0);
        }
    }

    /// Appends raw bytes without alignment.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends an aligned big-endian u16.
    pub fn write_u16(&mut self, v: u16) {
        self.align(2);
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an aligned big-endian u32.
    pub fn write_u32(&mut self, v: u32) {
        self.align(4);
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an aligned big-endian u64.
    pub fn write_u64(&mut self, v: u64) {
        self.align(8);
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Current encoded length in bytes (excluding any pre-existing prefix
    /// the writer was appended to).
    pub fn len(&self) -> usize {
        self.buf.len() - self.base
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards everything written since the writer's start, keeping any
    /// prefix it was appended to.
    pub fn clear(&mut self) {
        self.buf.truncate(self.base);
    }

    /// Consumes the writer and returns the encoded buffer (including any
    /// prefix it was appended to).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the encoded bytes without consuming.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// CDR decoder over a byte slice.
#[derive(Debug)]
pub struct CdrReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> CdrReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        CdrReader { data, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Skips padding so the next read is aligned to `align`.
    pub fn align(&mut self, align: usize) {
        let rem = self.pos % align;
        if rem != 0 {
            self.pos = (self.pos + align - rem).min(self.data.len());
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CdrError> {
        if self.remaining() < n {
            return Err(CdrError::UnexpectedEof {
                needed: n - self.remaining(),
                at: self.pos,
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, CdrError> {
        Ok(self.take(1)?[0])
    }

    /// Reads an aligned big-endian u16.
    pub fn read_u16(&mut self) -> Result<u16, CdrError> {
        self.align(2);
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads an aligned big-endian u32.
    pub fn read_u32(&mut self) -> Result<u32, CdrError> {
        self.align(4);
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads an aligned big-endian u64.
    pub fn read_u64(&mut self) -> Result<u64, CdrError> {
        self.align(8);
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], CdrError> {
        self.take(n)
    }

    /// Reads a CDR string (u32 length including the NUL, the bytes, the NUL)
    /// borrowed from the input.
    pub fn read_str(&mut self) -> Result<&'a str, CdrError> {
        let len = self.read_u32()? as u64;
        if len == 0 || len > MAX_SEQ_LEN {
            return Err(CdrError::LengthOverflow(len));
        }
        let bytes = self.read_bytes(len as usize)?;
        let (body, nul) = bytes.split_at(bytes.len() - 1);
        if nul != [0] {
            return Err(CdrError::InvalidUtf8);
        }
        std::str::from_utf8(body).map_err(|_| CdrError::InvalidUtf8)
    }

    /// Fails with [`CdrError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), CdrError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CdrError::TrailingBytes(self.remaining()))
        }
    }
}

/// Types that marshal themselves into CDR.
pub trait CdrEncode {
    /// Appends this value to the writer.
    fn encode(&self, w: &mut CdrWriter);

    /// Convenience: encodes into a fresh buffer.
    fn to_cdr_bytes(&self) -> Vec<u8> {
        let mut w = CdrWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Types that unmarshal themselves from CDR.
pub trait CdrDecode: Sized {
    /// Reads one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`CdrError`] describing the first malformation encountered.
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError>;

    /// Convenience: decodes a complete buffer, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or leftover bytes.
    fn from_cdr_bytes(bytes: &[u8]) -> Result<Self, CdrError> {
        let mut r = CdrReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! impl_cdr_primitive {
    ($ty:ty, $write:ident, $read:ident) => {
        impl CdrEncode for $ty {
            fn encode(&self, w: &mut CdrWriter) {
                w.$write(*self);
            }
        }
        impl CdrDecode for $ty {
            fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
                r.$read()
            }
        }
    };
}

impl_cdr_primitive!(u8, write_u8, read_u8);
impl_cdr_primitive!(u16, write_u16, read_u16);
impl_cdr_primitive!(u32, write_u32, read_u32);
impl_cdr_primitive!(u64, write_u64, read_u64);

impl CdrEncode for i32 {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u32(*self as u32);
    }
}
impl CdrDecode for i32 {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(r.read_u32()? as i32)
    }
}

impl CdrEncode for i64 {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u64(*self as u64);
    }
}
impl CdrDecode for i64 {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(r.read_u64()? as i64)
    }
}

impl CdrEncode for usize {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u64(*self as u64);
    }
}
impl CdrDecode for usize {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(r.read_u64()? as usize)
    }
}

impl CdrEncode for f64 {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u64(self.to_bits());
    }
}
impl CdrDecode for f64 {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(f64::from_bits(r.read_u64()?))
    }
}

impl CdrEncode for bool {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u8(*self as u8);
    }
}
impl CdrDecode for bool {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CdrError::InvalidBool(b)),
        }
    }
}

impl CdrEncode for String {
    fn encode(&self, w: &mut CdrWriter) {
        // CDR strings: u32 length including NUL, bytes, NUL terminator.
        w.write_u32(self.len() as u32 + 1);
        w.write_bytes(self.as_bytes());
        w.write_u8(0);
    }
}
impl CdrDecode for String {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        r.read_str().map(str::to_owned)
    }
}

impl CdrEncode for &str {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u32(self.len() as u32 + 1);
        w.write_bytes(self.as_bytes());
        w.write_u8(0);
    }
}

impl<T: CdrEncode> CdrEncode for Vec<T> {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }
}
impl<T: CdrDecode> CdrDecode for Vec<T> {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        let len = r.read_u32()? as u64;
        if len > MAX_SEQ_LEN {
            return Err(CdrError::LengthOverflow(len));
        }
        let mut out = Vec::with_capacity((len as usize).min(1024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Shared raw bytes: the wire shape of `Vec<u8>` (a u32 length, then the
/// bytes), written and read as one slice rather than byte by byte.
impl CdrEncode for Arc<[u8]> {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u32(self.len() as u32);
        w.write_bytes(self);
    }
}
impl CdrDecode for Arc<[u8]> {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        let len = r.read_u32()? as usize;
        Ok(Arc::from(r.read_bytes(len)?))
    }
}

impl<T: CdrEncode> CdrEncode for Option<T> {
    fn encode(&self, w: &mut CdrWriter) {
        match self {
            None => w.write_u8(0),
            Some(v) => {
                w.write_u8(1);
                v.encode(w);
            }
        }
    }
}
impl<T: CdrDecode> CdrDecode for Option<T> {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(CdrError::InvalidBool(b)),
        }
    }
}

impl<K: CdrEncode, V: CdrEncode> CdrEncode for BTreeMap<K, V> {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u32(self.len() as u32);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}
impl<K: CdrDecode + Ord, V: CdrDecode> CdrDecode for BTreeMap<K, V> {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        let len = r.read_u32()? as u64;
        if len > MAX_SEQ_LEN {
            return Err(CdrError::LengthOverflow(len));
        }
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl CdrEncode for () {
    fn encode(&self, _w: &mut CdrWriter) {}
}
impl CdrDecode for () {
    fn decode(_r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(())
    }
}

macro_rules! impl_cdr_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: CdrEncode),+> CdrEncode for ($($name,)+) {
            fn encode(&self, w: &mut CdrWriter) {
                $(self.$idx.encode(w);)+
            }
        }
        impl<$($name: CdrDecode),+> CdrDecode for ($($name,)+) {
            fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_cdr_tuple!(A: 0);
impl_cdr_tuple!(A: 0, B: 1);
impl_cdr_tuple!(A: 0, B: 1, C: 2);
impl_cdr_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_cdr_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Declares a type's CDR codec from its wire shape, written once:
///
/// * a struct's named fields in wire order —
///   `struct Status { node, mode, load }`. Decoding builds the struct
///   literal, so a missing or repeated field is a compile error;
/// * a newtype and its inner type — `struct NodeId(u32)`;
/// * a fieldless enum and its u32 discriminants —
///   `enum Mode { Idle = 0, Busy = 1 }`; an unknown tag decodes to
///   [`CdrError::InvalidDiscriminant`].
///
/// See the [`cdr`](crate::cdr) module for an example.
#[macro_export]
macro_rules! impl_cdr {
    (enum $ty:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::cdr::CdrEncode for $ty {
            fn encode(&self, w: &mut $crate::cdr::CdrWriter) {
                w.write_u32(match self {
                    $($ty::$variant => $tag,)+
                });
            }
        }
        impl $crate::cdr::CdrDecode for $ty {
            fn decode(
                r: &mut $crate::cdr::CdrReader<'_>,
            ) -> ::std::result::Result<Self, $crate::cdr::CdrError> {
                match r.read_u32()? {
                    $($tag => Ok($ty::$variant),)+
                    value => Err($crate::cdr::CdrError::InvalidDiscriminant {
                        type_name: ::std::stringify!($ty),
                        value,
                    }),
                }
            }
        }
    };
    (struct $ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::cdr::CdrEncode for $ty {
            fn encode(&self, _w: &mut $crate::cdr::CdrWriter) {
                $($crate::cdr::CdrEncode::encode(&self.$field, _w);)*
            }
        }
        impl $crate::cdr::CdrDecode for $ty {
            fn decode(
                _r: &mut $crate::cdr::CdrReader<'_>,
            ) -> ::std::result::Result<Self, $crate::cdr::CdrError> {
                Ok($ty {
                    $($field: $crate::cdr::CdrDecode::decode(_r)?,)*
                })
            }
        }
    };
    (struct $ty:ident ( $inner:ty )) => {
        impl $crate::cdr::CdrEncode for $ty {
            fn encode(&self, w: &mut $crate::cdr::CdrWriter) {
                $crate::cdr::CdrEncode::encode(&self.0, w);
            }
        }
        impl $crate::cdr::CdrDecode for $ty {
            fn decode(
                r: &mut $crate::cdr::CdrReader<'_>,
            ) -> ::std::result::Result<Self, $crate::cdr::CdrError> {
                Ok($ty(<$inner as $crate::cdr::CdrDecode>::decode(r)?))
            }
        }
    };
}

/// Test support: checks that `sample` survives the wire and that damaged
/// copies of it are refused or decoded, never a crash. Four checks:
///
/// * the sample round-trips;
/// * every strict prefix of its encoding fails to decode;
/// * one appended byte gives [`CdrError::TrailingBytes`];
/// * every single-bit flip, tried exhaustively, decodes to `Ok` or `Err`
///   without panicking.
///
/// # Panics
///
/// Panics naming the first check that fails.
pub fn assert_wire_sound<T>(sample: &T)
where
    T: CdrEncode + CdrDecode + PartialEq + fmt::Debug,
{
    let bytes = sample.to_cdr_bytes();
    match T::from_cdr_bytes(&bytes) {
        Ok(back) => assert_eq!(&back, sample, "round trip changed the value"),
        Err(e) => panic!("{sample:?} does not decode from its own encoding: {e}"),
    }
    for cut in 0..bytes.len() {
        assert!(
            T::from_cdr_bytes(&bytes[..cut]).is_err(),
            "{sample:?} decoded from its first {cut} of {} bytes",
            bytes.len()
        );
    }
    let mut longer = bytes.clone();
    longer.push(0);
    assert_eq!(
        T::from_cdr_bytes(&longer).err(),
        Some(CdrError::TrailingBytes(1)),
        "{sample:?} with one byte appended"
    );
    let mut flipped = bytes;
    for bit in 0..flipped.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let decoded = std::panic::catch_unwind(|| T::from_cdr_bytes(&flipped).is_ok());
        assert!(decoded.is_ok(), "flipping bit {bit} of {sample:?} panicked");
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_wire_sound(&0u8);
        assert_wire_sound(&255u8);
        assert_wire_sound(&0xBEEFu16);
        assert_wire_sound(&0xDEAD_BEEFu32);
        assert_wire_sound(&u64::MAX);
        assert_wire_sound(&-42i32);
        assert_wire_sound(&i64::MIN);
        assert_wire_sound(&std::f64::consts::PI);
        assert_wire_sound(&f64::NEG_INFINITY);
        assert_wire_sound(&true);
        assert_wire_sound(&false);
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let bytes = f64::NAN.to_cdr_bytes();
        let back = f64::from_cdr_bytes(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn strings_round_trip() {
        assert_wire_sound(&String::new());
        assert_wire_sound(&"hello world".to_owned());
        assert_wire_sound(&"ünïcødé ✓".to_owned());
    }

    #[test]
    fn string_wire_format_matches_cdr() {
        // "hi" -> length 3 (incl. NUL), 'h', 'i', 0.
        let bytes = "hi".to_owned().to_cdr_bytes();
        assert_eq!(bytes, vec![0, 0, 0, 3, b'h', b'i', 0]);
    }

    #[test]
    fn alignment_inserts_padding() {
        let mut w = CdrWriter::new();
        1u8.encode(&mut w);
        2u32.encode(&mut w); // should align to offset 4
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![1, 0, 0, 0, 0, 0, 0, 2]);
        let mut r = CdrReader::new(&bytes);
        assert_eq!(u8::decode(&mut r).unwrap(), 1);
        assert_eq!(u32::decode(&mut r).unwrap(), 2);
    }

    #[test]
    fn append_to_aligns_relative_to_value_start() {
        // Appending to a misaligned prefix must produce the same encoding
        // as a standalone writer, byte for byte.
        let mut w = CdrWriter::append_to(vec![0xAA; 3]);
        1u8.encode(&mut w);
        2u32.encode(&mut w);
        assert_eq!(w.len(), 8);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..3], &[0xAA; 3]);
        assert_eq!(&bytes[3..], &[1, 0, 0, 0, 0, 0, 0, 2]);
    }

    #[test]
    fn u64_aligns_to_eight() {
        let mut w = CdrWriter::new();
        1u32.encode(&mut w);
        7u64.encode(&mut w);
        assert_eq!(w.len(), 16);
    }

    #[test]
    fn vec_round_trips() {
        assert_wire_sound(&Vec::<u32>::new());
        assert_wire_sound(&vec![1u32, 2, 3]);
        assert_wire_sound(&vec!["a".to_owned(), String::new(), "c".to_owned()]);
        assert_wire_sound(&vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn option_round_trips() {
        assert_wire_sound(&Option::<u32>::None);
        assert_wire_sound(&Some(17u32));
        assert_wire_sound(&Some("text".to_owned()));
    }

    #[test]
    fn map_round_trips() {
        let mut m = BTreeMap::new();
        m.insert("cpu".to_owned(), 95u64);
        m.insert("mem".to_owned(), 2048u64);
        assert_wire_sound(&m);
    }

    #[test]
    fn tuples_round_trip() {
        assert_wire_sound(&(1u32,));
        assert_wire_sound(&(1u32, "two".to_owned()));
        assert_wire_sound(&(1u8, 2u16, 3u32, 4u64, true));
    }

    #[test]
    fn shared_bytes_and_usize_keep_their_twins_wire_shape() {
        let shared: Arc<[u8]> = Arc::from(&[1u8, 2, 3][..]);
        assert_eq!(shared.to_cdr_bytes(), vec![1u8, 2, 3].to_cdr_bytes());
        assert_wire_sound(&shared);
        assert_eq!(7usize.to_cdr_bytes(), 7u64.to_cdr_bytes());
    }

    #[derive(Debug, PartialEq)]
    enum Mode {
        Idle,
        Busy,
    }
    crate::impl_cdr!(
        enum Mode {
            Idle = 0,
            Busy = 7,
        }
    );

    #[derive(Debug, PartialEq)]
    struct Tagged(u16);
    crate::impl_cdr!(struct Tagged(u16));

    #[derive(Debug, PartialEq)]
    struct Pair {
        mode: Mode,
        tag: Tagged,
        name: String,
    }
    crate::impl_cdr!(struct Pair { mode, tag, name });

    #[test]
    fn declared_codecs_write_fields_in_listed_order() {
        let pair = Pair {
            mode: Mode::Busy,
            tag: Tagged(9),
            name: "x".to_owned(),
        };
        let mut w = CdrWriter::new();
        7u32.encode(&mut w);
        9u16.encode(&mut w);
        "x".encode(&mut w);
        assert_eq!(pair.to_cdr_bytes(), w.into_bytes());
        assert_wire_sound(&pair);
        assert_eq!(
            Mode::from_cdr_bytes(&1u32.to_cdr_bytes()).unwrap_err(),
            CdrError::InvalidDiscriminant {
                type_name: "Mode",
                value: 1
            }
        );
    }

    #[test]
    fn truncated_buffer_reports_eof() {
        let bytes = 0xAABBCCDDu32.to_cdr_bytes();
        let err = u32::from_cdr_bytes(&bytes[..3]).unwrap_err();
        assert!(matches!(err, CdrError::UnexpectedEof { .. }));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 5u32.to_cdr_bytes();
        bytes.push(0);
        assert_eq!(
            u32::from_cdr_bytes(&bytes).unwrap_err(),
            CdrError::TrailingBytes(1)
        );
    }

    #[test]
    fn invalid_bool_detected() {
        assert_eq!(
            bool::from_cdr_bytes(&[2]).unwrap_err(),
            CdrError::InvalidBool(2)
        );
    }

    #[test]
    fn hostile_length_rejected() {
        // Sequence claiming u32::MAX elements.
        let bytes = u32::MAX.to_cdr_bytes();
        let err = Vec::<u64>::from_cdr_bytes(&bytes).unwrap_err();
        assert_eq!(err, CdrError::LengthOverflow(u32::MAX as u64));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // Valid framing, invalid UTF-8 payload (0xFF), correct NUL.
        let bytes = vec![0, 0, 0, 2, 0xFF, 0];
        assert_eq!(
            String::from_cdr_bytes(&bytes).unwrap_err(),
            CdrError::InvalidUtf8
        );
    }

    #[test]
    fn zero_length_string_is_malformed() {
        // CDR string length includes the NUL, so 0 is never valid.
        let bytes = 0u32.to_cdr_bytes();
        assert!(matches!(
            String::from_cdr_bytes(&bytes).unwrap_err(),
            CdrError::LengthOverflow(0)
        ));
    }

    #[test]
    fn error_display_is_descriptive() {
        let e = CdrError::UnexpectedEof { needed: 4, at: 10 };
        assert!(e.to_string().contains("offset 10"));
    }
}
