//! Error type for the CyLog language pipeline.

use crate::token::Pos;
use crowd4u_storage::prelude::StorageError;
use std::fmt;

/// Errors from lexing, parsing, semantic analysis or evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum CylogError {
    Lex {
        pos: Pos,
        message: String,
    },
    Parse {
        pos: Pos,
        message: String,
    },
    /// Semantic errors (undeclared predicate, arity/type mismatch, unsafe
    /// rule, unstratifiable program…).
    Semantic(String),
    /// Runtime evaluation errors.
    Eval(String),
    /// The predicate is bound to host facts
    /// ([`CylogEngine::bind_host`](crate::engine::CylogEngine::bind_host)):
    /// it takes no inserted fact, and a run needs the host's source.
    HostBound(String),
    Storage(StorageError),
}

impl fmt::Display for CylogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CylogError::Lex { pos, message } => write!(f, "lex error at {pos}: {message}"),
            CylogError::Parse { pos, message } => write!(f, "parse error at {pos}: {message}"),
            CylogError::Semantic(m) => write!(f, "semantic error: {m}"),
            CylogError::Eval(m) => write!(f, "evaluation error: {m}"),
            CylogError::HostBound(p) => write!(f, "`{p}` is bound to host facts"),
            CylogError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CylogError {}

impl From<StorageError> for CylogError {
    fn from(e: StorageError) -> Self {
        CylogError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        let p = Pos { line: 1, col: 2 };
        for e in [
            CylogError::Lex {
                pos: p,
                message: "x".into(),
            },
            CylogError::Parse {
                pos: p,
                message: "x".into(),
            },
            CylogError::Semantic("x".into()),
            CylogError::Eval("x".into()),
            CylogError::HostBound("x".into()),
            CylogError::Storage(StorageError::NoSuchRelation("r".into())),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
