//! Cell values and column types.
//!
//! The store speaks a deliberately SQLite-like type system: `NULL`,
//! `INTEGER`, `REAL`, `TEXT`. [`Value::total_cmp`] orders them totally
//! (reals via `f64::total_cmp`): SQL comparisons and `ORDER BY`, and the
//! foreign-key order of a table's rows.

use std::cmp::Ordering;
use std::fmt;

/// A column's declared type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Integer,
    /// 64-bit float.
    Real,
    /// UTF-8 text.
    Text,
}

/// A cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Real(f64),
    /// Text.
    Text(String),
}

impl Value {
    /// Does this value fit a column of `ty`? (`Null` fits any nullable
    /// column; integers are accepted into REAL columns, as in SQLite.)
    #[must_use]
    pub fn fits(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), ColumnType::Integer)
                | (Value::Int(_), ColumnType::Real)
                | (Value::Real(_), ColumnType::Real)
                | (Value::Text(_), ColumnType::Text)
        )
    }

    /// Integer payload (also from REAL columns holding an integral value).
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Real(r) if r.fract() == 0.0 => Some(*r as i64),
            _ => None,
        }
    }

    /// Float payload (integers widen).
    #[must_use]
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// Text payload.
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Is this NULL?
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total order: NULL < numbers < text; ints and reals compare
    /// numerically (SQLite's cross-type affinity for our subset).
    #[must_use]
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn class(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Real(_) => 1,
                Value::Text(_) => 2,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) if class(a) == 1 && class(b) == 1 => {
                let (x, y) = (a.as_real().expect("numeric"), b.as_real().expect("numeric"));
                x.total_cmp(&y)
            }
            (a, b) => class(a).cmp(&class(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Text(t) => write!(f, "{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Int(i64::from(v))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn type_fitting() {
        assert!(Value::Int(3).fits(ColumnType::Integer));
        assert!(Value::Int(3).fits(ColumnType::Real));
        assert!(Value::Real(3.5).fits(ColumnType::Real));
        assert!(!Value::Real(3.5).fits(ColumnType::Integer));
        assert!(Value::Text("x".into()).fits(ColumnType::Text));
        assert!(!Value::Text("x".into()).fits(ColumnType::Integer));
        assert!(Value::Null.fits(ColumnType::Text));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Real(7.0).as_int(), Some(7));
        assert_eq!(Value::Real(7.5).as_int(), None);
        assert_eq!(Value::Int(7).as_real(), Some(7.0));
        assert_eq!(Value::Text("a".into()).as_text(), Some("a"));
        assert!(Value::Null.is_null());
    }

    #[test]
    fn ordering_is_total_and_cross_type() {
        let mut values = vec![
            Value::Text("b".into()),
            Value::Int(2),
            Value::Null,
            Value::Real(1.5),
            Value::Text("a".into()),
            Value::Int(1),
        ];
        values.sort_by(Value::total_cmp);
        assert_eq!(
            values,
            vec![
                Value::Null,
                Value::Int(1),
                Value::Real(1.5),
                Value::Int(2),
                Value::Text("a".into()),
                Value::Text("b".into()),
            ]
        );
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Text("ior".into()).to_string(), "ior");
    }
}
