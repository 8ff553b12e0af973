//! Interoperable object references.
//!
//! A CORBA object reference names a servant independent of location: a
//! repository type id, an endpoint profile and an opaque object key. This
//! module provides the same triple plus the classic stringified `IOR:<hex>`
//! form, so references can be passed through the Naming/Trading services or
//! embedded in protocol messages.

use crate::cdr::{CdrDecode, CdrEncode, CdrError};
use crate::impl_cdr;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// Network endpoint of an object: a simulated host plus a logical port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Endpoint {
    /// Host index (maps to `integrade_simnet::topology::HostId`).
    pub host: u32,
    /// Logical port distinguishing ORBs on one host.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint.
    pub const fn new(host: u32, port: u16) -> Self {
        Endpoint { host, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}:{}", self.host, self.port)
    }
}

impl_cdr!(struct Endpoint { host, port });

/// Opaque key identifying a servant within its object adapter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectKey(String);

impl ObjectKey {
    /// Creates a key from a string.
    pub fn new(key: impl Into<String>) -> Self {
        ObjectKey(key.into())
    }

    /// The key text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Keys compare, order and hash as their text does, so a map keyed by
/// `ObjectKey` can be searched with a key borrowed from the wire.
impl Borrow<str> for ObjectKey {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ObjectKey {
    fn from(s: &str) -> Self {
        ObjectKey(s.to_owned())
    }
}

impl_cdr!(struct ObjectKey(String));

/// An interoperable object reference.
///
/// # Examples
///
/// ```
/// use integrade_orb::ior::{Endpoint, Ior, ObjectKey};
///
/// let ior = Ior::new("IDL:integrade/Lrm:1.0", Endpoint::new(3, 2048), ObjectKey::new("lrm"));
/// let s = ior.to_stringified();
/// assert!(s.starts_with("IOR:"));
/// assert_eq!(Ior::from_stringified(&s).unwrap(), ior);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ior {
    /// Repository id of the most-derived interface, e.g. `IDL:integrade/Grm:1.0`.
    pub type_id: String,
    /// Where the servant lives.
    pub endpoint: Endpoint,
    /// Which servant at that endpoint.
    pub object_key: ObjectKey,
}

/// Error from parsing a stringified IOR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IorParseError {
    /// Missing the `IOR:` prefix.
    MissingPrefix,
    /// The hex payload contained a non-hex character or odd length.
    InvalidHex,
    /// The decoded bytes were not a valid CDR-encoded reference.
    InvalidBody(CdrError),
}

impl fmt::Display for IorParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IorParseError::MissingPrefix => {
                write!(f, "stringified reference must start with \"IOR:\"")
            }
            IorParseError::InvalidHex => write!(f, "stringified reference contains invalid hex"),
            IorParseError::InvalidBody(e) => write!(f, "reference body is malformed: {e}"),
        }
    }
}

impl std::error::Error for IorParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IorParseError::InvalidBody(e) => Some(e),
            _ => None,
        }
    }
}

impl Ior {
    /// Creates a reference.
    pub fn new(type_id: impl Into<String>, endpoint: Endpoint, object_key: ObjectKey) -> Self {
        Ior {
            type_id: type_id.into(),
            endpoint,
            object_key,
        }
    }

    /// Produces the `IOR:<hex>` stringified form (hex of the CDR encoding).
    pub fn to_stringified(&self) -> String {
        let bytes = self.to_cdr_bytes();
        let mut out = String::with_capacity(4 + bytes.len() * 2);
        out.push_str("IOR:");
        for b in bytes {
            out.push_str(&format!("{b:02x}"));
        }
        out
    }

    /// Parses the `IOR:<hex>` stringified form.
    ///
    /// # Errors
    ///
    /// Returns [`IorParseError`] when the prefix, hex payload or CDR body is
    /// malformed.
    pub fn from_stringified(s: &str) -> Result<Self, IorParseError> {
        let hex = s.strip_prefix("IOR:").ok_or(IorParseError::MissingPrefix)?;
        if hex.len() % 2 != 0 {
            return Err(IorParseError::InvalidHex);
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        let hex_bytes = hex.as_bytes();
        for pair in hex_bytes.chunks(2) {
            let hi = (pair[0] as char)
                .to_digit(16)
                .ok_or(IorParseError::InvalidHex)?;
            let lo = (pair[1] as char)
                .to_digit(16)
                .ok_or(IorParseError::InvalidHex)?;
            bytes.push(((hi << 4) | lo) as u8);
        }
        Ior::from_cdr_bytes(&bytes).map_err(IorParseError::InvalidBody)
    }
}

impl fmt::Display for Ior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}/{}", self.type_id, self.endpoint, self.object_key)
    }
}

impl_cdr!(struct Ior { type_id, endpoint, object_key });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::assert_wire_sound;

    fn sample() -> Ior {
        Ior::new(
            "IDL:integrade/Grm:1.0",
            Endpoint::new(7, 2048),
            ObjectKey::new("grm/cluster0"),
        )
    }

    #[test]
    fn stringified_round_trip() {
        let ior = sample();
        let s = ior.to_stringified();
        assert!(s.starts_with("IOR:"));
        assert_eq!(Ior::from_stringified(&s).unwrap(), ior);
    }

    #[test]
    fn cdr_round_trip() {
        assert_wire_sound(&sample());
    }

    #[test]
    fn missing_prefix_rejected() {
        assert_eq!(
            Ior::from_stringified("ABC:00").unwrap_err(),
            IorParseError::MissingPrefix
        );
    }

    #[test]
    fn odd_hex_rejected() {
        assert_eq!(
            Ior::from_stringified("IOR:abc").unwrap_err(),
            IorParseError::InvalidHex
        );
    }

    #[test]
    fn non_hex_rejected() {
        assert_eq!(
            Ior::from_stringified("IOR:zz").unwrap_err(),
            IorParseError::InvalidHex
        );
    }

    #[test]
    fn malformed_body_rejected() {
        assert!(matches!(
            Ior::from_stringified("IOR:0000").unwrap_err(),
            IorParseError::InvalidBody(_)
        ));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(
            sample().to_string(),
            "IDL:integrade/Grm:1.0@h7:2048/grm/cluster0"
        );
    }
}
