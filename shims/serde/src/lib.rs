//! Offline shim for `serde`: `Serialize`/`Deserialize` defined over an
//! owned JSON-like [`Value`] tree instead of serde's visitor-based data
//! model. The only consumer in this workspace is the `serde_json` shim,
//! and the derive macro (`serde_derive` shim, re-exported under the
//! `derive` feature) generates impls against exactly this trait pair.
//!
//! The wire shape produced for the constructs the workspace uses
//! matches real serde_json: structs as objects, newtype structs
//! transparent, unit enum variants as strings, newtype variants as
//! single-key objects, maps with stringified integer keys.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON-like tree: the interchange format between `Serialize`
/// impls and the `serde_json` shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered object; duplicate keys never arise from
    /// generated code.
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization failure: a human-readable path-free message.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

pub trait Serialize {
    fn serialize_value(&self) -> Value;
}

pub trait Deserialize: Sized {
    fn deserialize_value(v: &Value) -> Result<Self, DeError>;
}

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::UInt(_) | Value::Int(_) => "integer",
        Value::Float(_) => "number",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

fn unexpected(expected: &str, got: &Value) -> DeError {
    DeError(format!("expected {expected}, found {}", type_name(got)))
}

// ---------------------------------------------------------------- scalars

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, DeError> {
                let raw = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u64,
                    other => return Err(unexpected("unsigned integer", other)),
                };
                <$t>::try_from(raw)
                    .map_err(|_| DeError(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, DeError> {
                let raw = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) => i64::try_from(*n)
                        .map_err(|_| DeError(format!("integer {n} out of range for i64")))?,
                    other => return Err(unexpected("integer", other)),
                };
                <$t>::try_from(raw)
                    .map_err(|_| DeError(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            other => Err(unexpected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn serialize_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        f64::deserialize_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(unexpected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(unexpected("string", other)),
        }
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

/// `Arc<T>` is transparent: it serializes as `T` and deserializes into a
/// fresh, unshared `Arc`.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        T::deserialize_value(v).map(std::sync::Arc::new)
    }
}

// ------------------------------------------------------------ containers

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize_value).collect(),
            other => Err(unexpected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(inner) => inner.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+) with $len:expr;)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Array(items) if items.len() == $len => {
                        Ok(($($name::deserialize_value(&items[$idx])?,)+))
                    }
                    other => Err(unexpected(concat!("array of length ", $len), other)),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A: 0) with 1;
    (A: 0, B: 1) with 2;
    (A: 0, B: 1, C: 2) with 3;
    (A: 0, B: 1, C: 2, D: 3) with 4;
}

/// Map keys: JSON object keys are strings, so integer keys stringify
/// (matching real serde_json's map-key behaviour).
pub trait MapKey: Sized + Ord {
    fn to_key(&self) -> String;
    fn from_key(key: &str) -> Result<Self, DeError>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }

    fn from_key(key: &str) -> Result<Self, DeError> {
        Ok(key.to_string())
    }
}

macro_rules! impl_map_key_int {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Result<Self, DeError> {
                key.parse()
                    .map_err(|_| DeError(format!("invalid {} map key: {key:?}", stringify!($t))))
            }
        }
    )*};
}

impl_map_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.serialize_value()))
                .collect(),
        )
    }
}

impl<K: MapKey, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::deserialize_value(v)?)))
                .collect(),
            other => Err(unexpected("object", other)),
        }
    }
}

impl<K: MapKey + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize_value(&self) -> Value {
        // Sort for stable output, as serde_json does with sorted-map
        // feature sets; deterministic files diff cleanly.
        let mut fields: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.serialize_value()))
            .collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(fields)
    }
}

impl<K: MapKey + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::deserialize_value(v)?)))
                .collect(),
            other => Err(unexpected("object", other)),
        }
    }
}

/// Support code for the derive macro's generated impls. Not a stable
/// API; nothing outside generated code should call these.
pub mod __private {
    use super::{DeError, Deserialize, Value};

    /// Look up a struct field by name and deserialize it. Missing
    /// fields are an error: this shim never omits fields on the way
    /// out, so absence means a schema mismatch.
    pub fn field<T: Deserialize>(fields: &[(String, Value)], name: &str) -> Result<T, DeError> {
        match fields.iter().find(|(k, _)| k == name) {
            Some((_, v)) => {
                T::deserialize_value(v).map_err(|e| DeError(format!("field {name:?}: {e}")))
            }
            None => Err(DeError(format!("missing field {name:?}"))),
        }
    }

    pub fn expect_object(v: &Value, ty: &str) -> Result<&'static str, DeError> {
        match v {
            Value::Object(_) => Ok(""),
            other => Err(DeError(format!(
                "expected {ty} object, found {}",
                super::type_name(other)
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(u64::deserialize_value(&7u64.serialize_value()).unwrap(), 7);
        assert_eq!(
            i32::deserialize_value(&(-3i32).serialize_value()).unwrap(),
            -3
        );
        assert_eq!(
            String::deserialize_value(&"hi".to_string().serialize_value()).unwrap(),
            "hi"
        );
        assert!(bool::deserialize_value(&Value::UInt(1)).is_err());
    }

    #[test]
    fn arc_is_transparent() {
        use std::sync::Arc;
        let shared = Arc::new(vec![1u32, 2, 3]);
        assert_eq!(shared.serialize_value(), vec![1u32, 2, 3].serialize_value());
        let back = Arc::<Vec<u32>>::deserialize_value(&shared.serialize_value()).unwrap();
        assert_eq!(back, shared);
    }

    #[test]
    fn options_use_null() {
        assert_eq!(Option::<u32>::None.serialize_value(), Value::Null);
        assert_eq!(
            Option::<u32>::deserialize_value(&Value::Null).unwrap(),
            None
        );
        assert_eq!(
            Option::<u32>::deserialize_value(&Value::UInt(5)).unwrap(),
            Some(5)
        );
    }

    #[test]
    fn integer_keyed_maps_stringify() {
        let mut m = BTreeMap::new();
        m.insert(42u64, "x".to_string());
        let v = m.serialize_value();
        assert_eq!(
            v,
            Value::Object(vec![("42".into(), Value::Str("x".into()))])
        );
        let back: BTreeMap<u64, String> = Deserialize::deserialize_value(&v).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn tuples_are_arrays() {
        let v = (1u32, "a".to_string()).serialize_value();
        let back: (u32, String) = Deserialize::deserialize_value(&v).unwrap();
        assert_eq!(back, (1, "a".to_string()));
    }
}
