//! Query results: a schema plus materialised rows.
//!
//! Storage evaluates no queries; CyLog (`crowd4u-cylog`) derives facts, and
//! a [`ResultSet`] is the snapshot it hands out of one relation.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// A snapshot of a relation's rows, with their schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub schema: Schema,
    pub rows: Vec<Tuple>,
}

impl ResultSet {
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> ResultSet {
        ResultSet { schema, rows }
    }

    /// Snapshot of a whole relation.
    pub fn from_relation(rel: &Relation) -> ResultSet {
        ResultSet {
            schema: rel.schema().clone(),
            rows: rel.to_rows(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}
