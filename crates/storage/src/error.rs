//! Error type shared by the storage crate.

use crate::value::ValueType;
use std::fmt;

/// All the ways a storage operation can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    DuplicateColumn(String),
    ArityMismatch {
        expected: usize,
        got: usize,
    },
    TypeMismatch {
        column: String,
        expected: ValueType,
        got: Option<ValueType>,
    },
    NullViolation(String),
    NoSuchColumn(String),
    NoSuchRelation(String),
    RelationExists(String),
    UniqueViolation {
        relation: String,
        key: String,
    },
    NoSuchRow(u64),
    /// Malformed CSV input.
    Csv {
        line: usize,
        message: String,
    },
    /// Malformed snapshot input.
    Snapshot {
        line: usize,
        message: String,
    },
    /// Malformed event-journal input, or an invalid entry kind.
    Journal {
        line: usize,
        message: String,
    },
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::DuplicateColumn(n) => write!(f, "duplicate column `{n}`"),
            StorageError::ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: expected {expected} values, got {got}")
            }
            StorageError::TypeMismatch {
                column,
                expected,
                got,
            } => match got {
                Some(g) => write!(f, "column `{column}` expects {expected}, got {g}"),
                None => write!(f, "column `{column}` expects {expected}, got null"),
            },
            StorageError::NullViolation(n) => {
                write!(f, "null value in non-nullable column `{n}`")
            }
            StorageError::NoSuchColumn(n) => write!(f, "no such column `{n}`"),
            StorageError::NoSuchRelation(n) => write!(f, "no such relation `{n}`"),
            StorageError::RelationExists(n) => write!(f, "relation `{n}` already exists"),
            StorageError::UniqueViolation { relation, key } => {
                write!(f, "unique violation in `{relation}` on key {key}")
            }
            StorageError::NoSuchRow(id) => write!(f, "no such row id {id}"),
            StorageError::Csv { line, message } => write!(f, "csv error at line {line}: {message}"),
            StorageError::Snapshot { line, message } => {
                write!(f, "snapshot error at line {line}: {message}")
            }
            StorageError::Journal { line, message } => {
                write!(f, "journal error at line {line}: {message}")
            }
            StorageError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<StorageError> = vec![
            StorageError::DuplicateColumn("x".into()),
            StorageError::ArityMismatch {
                expected: 2,
                got: 3,
            },
            StorageError::TypeMismatch {
                column: "c".into(),
                expected: ValueType::Int,
                got: Some(ValueType::Str),
            },
            StorageError::TypeMismatch {
                column: "c".into(),
                expected: ValueType::Int,
                got: None,
            },
            StorageError::NullViolation("c".into()),
            StorageError::NoSuchColumn("q".into()),
            StorageError::NoSuchRelation("r".into()),
            StorageError::RelationExists("r".into()),
            StorageError::UniqueViolation {
                relation: "r".into(),
                key: "[1]".into(),
            },
            StorageError::NoSuchRow(1),
            StorageError::Csv {
                line: 3,
                message: "oops".into(),
            },
            StorageError::Snapshot {
                line: 4,
                message: "oops".into(),
            },
            StorageError::Journal {
                line: 5,
                message: "oops".into(),
            },
            StorageError::Io("gone".into()),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn from_io_error() {
        let e = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let s: StorageError = e.into();
        assert!(matches!(s, StorageError::Io(_)));
    }
}
