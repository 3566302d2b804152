//! Row representation.

use crate::value::Value;
use std::fmt;
use std::ops::Index;

/// An immutable row of values. Boxed slice keeps the footprint at two words.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple(values.into_boxed_slice())
    }

    pub fn values(&self) -> &[Value] {
        &self.0
    }

    pub fn arity(&self) -> usize {
        self.0.len()
    }

    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// Extract the key values at the given columns (for index keys).
    pub fn key(&self, cols: &[usize]) -> Vec<Value> {
        cols.iter().map(|&i| self.0[i].clone()).collect()
    }

    pub fn into_values(self) -> Vec<Value> {
        self.0.into_vec()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

/// Build a tuple from heterogeneous literals: `tuple![1i64, "x", 0.5]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_values() {
        let t = tuple![1i64, "x", 0.5, true, 7u64];
        assert_eq!(t.arity(), 5);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t[1], Value::Str("x".into()));
        assert_eq!(t[4], Value::Id(7));
    }

    #[test]
    fn key_extracts_in_order() {
        let t = tuple![10i64, 20i64, 30i64];
        assert_eq!(t.key(&[2, 1]), vec![Value::Int(30), Value::Int(20)]);
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1i64, "a"].to_string(), "(1, a)");
    }

    #[test]
    fn get_in_and_out_of_range() {
        let t = tuple![1i64];
        assert!(t.get(0).is_some());
        assert!(t.get(1).is_none());
    }
}
