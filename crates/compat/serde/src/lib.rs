//! Minimal, offline stand-in for the [`serde`] API subset this workspace
//! uses: `#[derive(Serialize, Deserialize)]` on plain structs and unit-only
//! enums, plus the `Serialize` bound consumed by `serde_json`.
//!
//! The build environment has no network access, so the real crates cannot be
//! fetched. Instead of serde's visitor architecture, this shim serialises
//! through an owned [`Value`] tree — ample for the result-record types the
//! evaluation harness persists, and wire-compatible with the JSON they
//! produce (externally-tagged unit enum variants, field-name objects).
//!
//! [`serde`]: https://crates.io/crates/serde

#![deny(missing_docs)]

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// An owned, JSON-shaped value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (kept separate so `u64::MAX` survives).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered fields.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Returns the object fields when this value is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up a field by name in an object value.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }
}

/// Error produced when a [`Value`] cannot be converted into the requested
/// type.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    /// Human-readable description of the mismatch.
    pub message: String,
}

impl DeError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.message)
    }
}

impl std::error::Error for DeError {}

/// Types that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn to_value(&self) -> Value;

    /// The value tree a serializer emits: [`Serialize::to_value`] for every
    /// type but a [`Value`], which lends itself, so emitting a tree never
    /// copies it.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs a value of this type from the tree.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when the tree's shape does not match the type.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| DeError::new(format!("{i} out of range for {}", stringify!($t)))),
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| DeError::new(format!("{u} out of range for {}", stringify!($t)))),
                    other => Err(DeError::new(format!(
                        "expected integer for {}, found {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}

ser_de_int!(i8, i16, i32, i64, isize, u8, u16, u32, usize);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        Value::UInt(*self)
    }
}

impl Deserialize for u64 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::UInt(u) => Ok(*u),
            Value::Int(i) => {
                u64::try_from(*i).map_err(|_| DeError::new(format!("{i} out of range for u64")))
            }
            other => Err(DeError::new(format!(
                "expected integer for u64, found {other:?}"
            ))),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            Value::UInt(u) => Ok(*u as f64),
            other => Err(DeError::new(format!("expected number, found {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        f64::from_value(value).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::new(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::new(format!("expected string, found {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::new(format!("expected array, found {other:?}"))),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(fields)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(usize::from_value(&7usize.to_value()).unwrap(), 7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<f64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<f64>::from_value(&Value::Float(2.0)).unwrap(),
            Some(2.0)
        );
        let v: Vec<usize> = vec![1, 2, 3];
        assert_eq!(Vec::<usize>::from_value(&v.to_value()).unwrap(), v);
    }

    #[test]
    fn object_field_lookup() {
        let v = Value::Object(vec![("a".into(), Value::Int(1))]);
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        assert_eq!(v.get("b"), None);
        assert!(Value::Null.get("a").is_none());
    }

    #[test]
    fn type_mismatch_is_an_error() {
        assert!(bool::from_value(&Value::Int(1)).is_err());
        assert!(u32::from_value(&Value::Int(-1)).is_err());
        let e = String::from_value(&Value::Bool(true)).unwrap_err();
        assert!(e.to_string().contains("expected string"));
    }
}
