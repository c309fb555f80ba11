//! Attribute values.

use crate::error::{HeraError, Result};
use crate::json::Json;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// One attribute value of a record.
///
/// The paper treats value similarity as a black box over "various data
/// types, such as string data, numeric data, etc." (§II-A); this enum is the
/// concrete carrier those black boxes dispatch on. `Null` exists for the
/// homogeneous datasets produced by data exchange, where target attributes
/// with no source counterpart become labeled nulls.
#[derive(Debug, Clone)]
pub enum Value {
    /// Free-form text (the dominant case; compared with q-gram Jaccard by
    /// default).
    Str(String),
    /// Integer data (years, counts, phone-number-ish codes).
    Int(i64),
    /// Floating-point data (ratings, runtimes).
    Float(f64),
    /// Absent value. Introduced by data exchange; never similar to anything.
    Null,
}

/// Discriminant of a [`Value`], used by similarity dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// String value.
    Str,
    /// Integer value.
    Int,
    /// Float value.
    Float,
    /// Null value.
    Null,
}

impl Value {
    /// Returns the kind discriminant.
    #[inline]
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Str(_) => ValueKind::Str,
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Null => ValueKind::Null,
        }
    }

    /// True if the value is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the string payload if this is a string value.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns a numeric view: integers and floats both map to `f64`.
    #[inline]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Renders the value as display text; numbers use their canonical
    /// formatting and nulls render as the empty string. This is the text
    /// the string-similarity fallbacks operate on when comparing values of
    /// mixed kinds.
    pub fn to_text(&self) -> String {
        self.text().into_owned()
    }

    /// [`Value::to_text`] without the copy where the text is already
    /// there: a string is borrowed, a number rendered.
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(s),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Float(f) => Cow::Owned(format!("{f}")),
            Value::Null => Cow::Borrowed(""),
        }
    }

    /// Encodes as externally tagged JSON — `{"Str": ..}`, `{"Int": ..}`,
    /// `{"Float": ..}`, or the bare string `"Null"` — matching the format
    /// earlier (serde-based) builds exported.
    pub fn to_json(&self) -> Json {
        match self {
            Value::Str(s) => Json::Obj(vec![("Str".into(), Json::Str(s.clone()))]),
            Value::Int(i) => Json::Obj(vec![("Int".into(), Json::Int(*i))]),
            Value::Float(f) => Json::Obj(vec![("Float".into(), Json::Float(*f))]),
            Value::Null => Json::Str("Null".into()),
        }
    }

    /// Decodes from the representation produced by [`Value::to_json`].
    pub fn from_json(json: &Json) -> Result<Self> {
        match json {
            Json::Str(tag) if tag == "Null" => Ok(Value::Null),
            Json::Obj(pairs) if pairs.len() == 1 => {
                let (tag, payload) = &pairs[0];
                match tag.as_str() {
                    "Str" => Ok(Value::Str(payload.as_str()?.to_owned())),
                    "Int" => Ok(Value::Int(payload.as_i64()?)),
                    "Float" => Ok(Value::Float(payload.as_f64()?)),
                    other => Err(HeraError::Serialization(format!(
                        "unknown value tag {other:?}"
                    ))),
                }
            }
            _ => Err(HeraError::Serialization(
                "expected a tagged value object or \"Null\"".into(),
            )),
        }
    }

    /// Structural equality that treats `Null` as not equal to anything,
    /// including another `Null` (SQL semantics): nulls carry no evidence.
    pub fn same(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            _ => false,
        }
    }
}

impl PartialEq for Value {
    /// Structural equality for container use; unlike [`Value::same`], two
    /// `Null`s compare equal here so that `Value` can live in maps/sets.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            _ => self.same(other),
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: Null < numbers (by value) < strings (lexicographic).
    /// Only used for deterministic iteration; not semantically meaningful.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            (a, b) if rank(a) == 1 && rank(b) == 1 => {
                let (x, y) = (a.as_number().unwrap(), b.as_number().unwrap());
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Str(s) => {
                0u8.hash(state);
                s.hash(state);
            }
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Null => 2u8.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Null => write!(f, "∅"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds() {
        assert_eq!(Value::from("x").kind(), ValueKind::Str);
        assert_eq!(Value::from(3i64).kind(), ValueKind::Int);
        assert_eq!(Value::from(3.5).kind(), ValueKind::Float);
        assert_eq!(Value::Null.kind(), ValueKind::Null);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn same_null_semantics() {
        assert!(!Value::Null.same(&Value::Null));
        assert!(Value::from(3i64).same(&Value::Float(3.0)));
        assert!(Value::from("a").same(&Value::from("a")));
        assert!(!Value::from("a").same(&Value::from("b")));
        assert!(!Value::from("3").same(&Value::from(3i64)));
    }

    #[test]
    fn eq_for_containers() {
        // PartialEq treats Null == Null so Values can key maps.
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Int(2), Value::Float(2.0));
    }

    #[test]
    fn to_text() {
        assert_eq!(Value::from("ab").to_text(), "ab");
        assert_eq!(Value::from(42i64).to_text(), "42");
        assert_eq!(Value::from(1.5).to_text(), "1.5");
        assert_eq!(Value::Null.to_text(), "");
        assert!(matches!(Value::from("ab").text(), Cow::Borrowed("ab")));
        assert_eq!(Value::from(1.5).text(), "1.5");
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let mut vs = vec![
            Value::from("b"),
            Value::Null,
            Value::from(10i64),
            Value::from(2.5),
            Value::from("a"),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::from(2.5),
                Value::from(10i64),
                Value::from("a"),
                Value::from("b"),
            ]
        );
    }

    #[test]
    fn numeric_view() {
        assert_eq!(Value::from(2i64).as_number(), Some(2.0));
        assert_eq!(Value::from(2.5).as_number(), Some(2.5));
        assert_eq!(Value::from("2").as_number(), None);
        assert_eq!(Value::Null.as_number(), None);
    }

    #[test]
    fn json_roundtrip_preserves_kind() {
        for v in [
            Value::from("a\"b"),
            Value::from(-3i64),
            Value::from(2.0),
            Value::from(2.5),
            Value::Null,
        ] {
            let json = v.to_json().to_string_compact();
            let back = Value::from_json(&crate::json::parse(&json).unwrap()).unwrap();
            assert_eq!(v.kind(), back.kind(), "{json}");
            assert_eq!(v, back, "{json}");
        }
    }

    #[test]
    fn hash_consistent_with_eq_for_numbers() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(2)), h(&Value::Float(2.0)));
    }
}
