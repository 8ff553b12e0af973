//! Dynamically typed values (`Any`).
//!
//! The CORBA Trading service stores service-offer properties as `Any` values
//! and evaluates constraint expressions over them. [`AnyValue`] is the small
//! dynamic type used for that purpose: booleans, integers, doubles, strings
//! and sequences, with CDR marshalling and the comparison semantics the
//! trader's constraint language needs (numeric widening between integer and
//! double, no cross-kind comparisons otherwise).

use crate::cdr::{CdrDecode, CdrEncode, CdrError, CdrReader, CdrWriter};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A dynamically typed property value.
///
/// # Examples
///
/// ```
/// use integrade_orb::any::AnyValue;
///
/// let a = AnyValue::Long(500);
/// let b = AnyValue::Double(500.0);
/// assert_eq!(a.partial_cmp_numeric(&b), Some(std::cmp::Ordering::Equal));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnyValue {
    /// A boolean.
    Bool(bool),
    /// A signed 64-bit integer.
    Long(i64),
    /// A 64-bit float.
    Double(f64),
    /// A UTF-8 string.
    Str(String),
    /// A sequence of values.
    Seq(Vec<AnyValue>),
}

impl AnyValue {
    /// The kind name, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            AnyValue::Bool(_) => "boolean",
            AnyValue::Long(_) => "long",
            AnyValue::Double(_) => "double",
            AnyValue::Str(_) => "string",
            AnyValue::Seq(_) => "sequence",
        }
    }

    /// Returns the boolean payload if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AnyValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as `f64` if numeric (long or double).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AnyValue::Long(n) => Some(*n as f64),
            AnyValue::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Returns the string payload if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AnyValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compares two values with numeric widening: `Long` and `Double`
    /// compare by value; strings compare lexicographically; booleans compare
    /// `false < true`. Cross-kind comparisons (other than the two numeric
    /// kinds) and sequences return `None`.
    pub fn partial_cmp_numeric(&self, other: &AnyValue) -> Option<Ordering> {
        match (self, other) {
            (AnyValue::Str(a), AnyValue::Str(b)) => Some(a.cmp(b)),
            (AnyValue::Bool(a), AnyValue::Bool(b)) => Some(a.cmp(b)),
            (AnyValue::Seq(_), _) | (_, AnyValue::Seq(_)) => None,
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }
}

impl fmt::Display for AnyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnyValue::Bool(b) => write!(f, "{b}"),
            AnyValue::Long(n) => write!(f, "{n}"),
            AnyValue::Double(d) => write!(f, "{d}"),
            AnyValue::Str(s) => write!(f, "'{s}'"),
            AnyValue::Seq(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for AnyValue {
    fn from(v: bool) -> Self {
        AnyValue::Bool(v)
    }
}
impl From<i64> for AnyValue {
    fn from(v: i64) -> Self {
        AnyValue::Long(v)
    }
}
impl From<u32> for AnyValue {
    fn from(v: u32) -> Self {
        AnyValue::Long(v as i64)
    }
}
impl From<f64> for AnyValue {
    fn from(v: f64) -> Self {
        AnyValue::Double(v)
    }
}
impl From<&str> for AnyValue {
    fn from(v: &str) -> Self {
        AnyValue::Str(v.to_owned())
    }
}
impl From<String> for AnyValue {
    fn from(v: String) -> Self {
        AnyValue::Str(v)
    }
}

const TAG_BOOL: u8 = 0;
const TAG_LONG: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_SEQ: u8 = 4;

// Hand-written: a union whose discriminant is a single u8 tag.
impl CdrEncode for AnyValue {
    fn encode(&self, w: &mut CdrWriter) {
        match self {
            AnyValue::Bool(b) => {
                w.write_u8(TAG_BOOL);
                b.encode(w);
            }
            AnyValue::Long(n) => {
                w.write_u8(TAG_LONG);
                n.encode(w);
            }
            AnyValue::Double(d) => {
                w.write_u8(TAG_DOUBLE);
                d.encode(w);
            }
            AnyValue::Str(s) => {
                w.write_u8(TAG_STR);
                s.encode(w);
            }
            AnyValue::Seq(items) => {
                w.write_u8(TAG_SEQ);
                items.encode(w);
            }
        }
    }
}

impl CdrDecode for AnyValue {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        match r.read_u8()? {
            TAG_BOOL => Ok(AnyValue::Bool(bool::decode(r)?)),
            TAG_LONG => Ok(AnyValue::Long(i64::decode(r)?)),
            TAG_DOUBLE => Ok(AnyValue::Double(f64::decode(r)?)),
            TAG_STR => Ok(AnyValue::Str(String::decode(r)?)),
            TAG_SEQ => Ok(AnyValue::Seq(Vec::decode(r)?)),
            tag => Err(CdrError::InvalidDiscriminant {
                type_name: "AnyValue",
                value: tag as u32,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::{assert_wire_sound, CdrDecode};

    #[test]
    fn round_trips_all_kinds() {
        for v in [
            AnyValue::Bool(true),
            AnyValue::Long(-5),
            AnyValue::Double(2.5),
            AnyValue::Str("node".into()),
            AnyValue::Seq(vec![
                AnyValue::Long(1),
                AnyValue::Str("x".into()),
                AnyValue::Seq(vec![AnyValue::Bool(false), AnyValue::Double(0.5)]),
            ]),
        ] {
            assert_wire_sound(&v);
        }
    }

    #[test]
    fn numeric_widening_compares() {
        assert_eq!(
            AnyValue::Long(2).partial_cmp_numeric(&AnyValue::Double(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            AnyValue::Double(3.0).partial_cmp_numeric(&AnyValue::Long(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn cross_kind_comparison_is_undefined() {
        assert_eq!(
            AnyValue::Str("5".into()).partial_cmp_numeric(&AnyValue::Long(5)),
            None
        );
        assert_eq!(
            AnyValue::Bool(true).partial_cmp_numeric(&AnyValue::Long(1)),
            None
        );
        assert_eq!(
            AnyValue::Seq(vec![]).partial_cmp_numeric(&AnyValue::Seq(vec![])),
            None
        );
    }

    #[test]
    fn string_and_bool_ordering() {
        assert_eq!(
            AnyValue::Str("a".into()).partial_cmp_numeric(&AnyValue::Str("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            AnyValue::Bool(false).partial_cmp_numeric(&AnyValue::Bool(true)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(AnyValue::Long(5).as_f64(), Some(5.0));
        assert_eq!(AnyValue::Str("s".into()).as_str(), Some("s"));
        assert_eq!(AnyValue::Bool(true).as_bool(), Some(true));
        assert_eq!(AnyValue::Str("s".into()).as_f64(), None);
    }

    #[test]
    fn invalid_tag_rejected() {
        let err = AnyValue::from_cdr_bytes(&[9]).unwrap_err();
        assert!(matches!(
            err,
            CdrError::InvalidDiscriminant { value: 9, .. }
        ));
    }

    #[test]
    fn display_formats() {
        assert_eq!(AnyValue::Str("x".into()).to_string(), "'x'");
        assert_eq!(
            AnyValue::Seq(vec![AnyValue::Long(1), AnyValue::Long(2)]).to_string(),
            "[1, 2]"
        );
    }
}
