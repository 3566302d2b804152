//! Relation schemas: named, typed, optionally nullable columns.

use crate::error::StorageError;
use crate::value::{Value, ValueType};
use std::fmt;

/// One column of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: ValueType,
    pub nullable: bool,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: ValueType) -> Column {
        Column {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    pub fn nullable(name: impl Into<String>, ty: ValueType) -> Column {
        Column {
            name: name.into(),
            ty,
            nullable: true,
        }
    }
}

/// An ordered list of columns with unique names.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Result<Schema, StorageError> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(StorageError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Schema { columns })
    }

    /// Convenience constructor from `(name, type)` pairs, all non-nullable.
    pub fn of(cols: &[(&str, ValueType)]) -> Schema {
        Schema::new(
            cols.iter()
                .map(|(n, t)| Column::new(*n, *t))
                .collect::<Vec<_>>(),
        )
        .expect("duplicate column name in Schema::of")
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Validate that a row of values conforms to this schema.
    pub fn check_row(&self, row: &[Value]) -> Result<(), StorageError> {
        if row.len() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                got: row.len(),
            });
        }
        for (v, c) in row.iter().zip(&self.columns) {
            if v.is_null() {
                if !c.nullable {
                    return Err(StorageError::NullViolation(c.name.clone()));
                }
            } else if !v.conforms_to(c.ty) {
                return Err(StorageError::TypeMismatch {
                    column: c.name.clone(),
                    expected: c.ty,
                    got: v.value_type(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}: {}{}",
                c.name,
                c.ty,
                if c.nullable { "?" } else { "" }
            )?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::of(&[
            ("a", ValueType::Int),
            ("b", ValueType::Str),
            ("c", ValueType::Float),
        ])
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = Schema::new(vec![
            Column::new("x", ValueType::Int),
            Column::new("x", ValueType::Str),
        ])
        .unwrap_err();
        assert!(matches!(err, StorageError::DuplicateColumn(_)));
    }

    #[test]
    fn index_of_and_column() {
        let s = abc();
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("zzz"), None);
        assert_eq!(s.column(2).unwrap().name, "c");
        assert!(s.column(3).is_none());
    }

    #[test]
    fn check_row_accepts_conforming() {
        let s = abc();
        s.check_row(&[Value::Int(1), Value::Str("x".into()), Value::Float(0.5)])
            .unwrap();
    }

    #[test]
    fn check_row_rejects_arity() {
        let s = abc();
        let err = s.check_row(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ArityMismatch {
                expected: 3,
                got: 1
            }
        ));
    }

    #[test]
    fn check_row_rejects_type() {
        let s = abc();
        let err = s
            .check_row(&[
                Value::Str("no".into()),
                Value::Str("x".into()),
                Value::Float(0.5),
            ])
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn check_row_null_rules() {
        let s = Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::nullable("b", ValueType::Str),
        ])
        .unwrap();
        s.check_row(&[Value::Int(1), Value::Null]).unwrap();
        let err = s.check_row(&[Value::Null, Value::Null]).unwrap_err();
        assert!(matches!(err, StorageError::NullViolation(_)));
    }

    #[test]
    fn display_is_readable() {
        let s = Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::nullable("b", ValueType::Str),
        ])
        .unwrap();
        assert_eq!(s.to_string(), "(a: int, b: str?)");
    }
}
