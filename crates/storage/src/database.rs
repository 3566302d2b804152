//! The catalog: a named collection of relations.

use crate::error::StorageError;
use crate::query::ResultSet;
use crate::relation::Relation;
use crate::schema::Schema;
use std::collections::BTreeMap;

/// A database is a set of named relations. `BTreeMap` keeps iteration order
/// deterministic, which matters for snapshots and reproducible tests.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
    /// Monotonic id source for entities created by the platform.
    next_id: u64,
}

impl Database {
    pub fn new() -> Database {
        Database {
            relations: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Allocate a fresh entity id (worker/task/project ids share one space,
    /// mirroring the platform's global identifiers).
    pub fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Bump the id counter to at least `floor` (used when loading snapshots).
    pub fn ensure_id_floor(&mut self, floor: u64) {
        if self.next_id < floor {
            self.next_id = floor;
        }
    }

    pub fn next_id_hint(&self) -> u64 {
        self.next_id
    }

    pub fn create_relation(
        &mut self,
        name: &str,
        schema: Schema,
    ) -> Result<&mut Relation, StorageError> {
        if self.relations.contains_key(name) {
            return Err(StorageError::RelationExists(name.to_owned()));
        }
        self.relations
            .insert(name.to_owned(), Relation::new(name, schema));
        Ok(self.relations.get_mut(name).expect("just inserted"))
    }

    pub fn relation(&self, name: &str) -> Result<&Relation, StorageError> {
        self.relations
            .get(name)
            .ok_or_else(|| StorageError::NoSuchRelation(name.to_owned()))
    }

    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation, StorageError> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| StorageError::NoSuchRelation(name.to_owned()))
    }

    /// Names of all relations in deterministic (sorted) order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// Snapshot a whole relation as a [`ResultSet`].
    pub fn scan(&self, name: &str) -> Result<ResultSet, StorageError> {
        Ok(ResultSet::from_relation(self.relation(name)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::ValueType;

    #[test]
    fn create_scan_drop() {
        let mut db = Database::new();
        db.create_relation("t", Schema::of(&[("x", ValueType::Int)]))
            .unwrap();
        db.relation_mut("t").unwrap().insert(tuple![5i64]).unwrap();
        assert_eq!(db.scan("t").unwrap().len(), 1);
        assert!(db.scan("u").is_err());
    }

    #[test]
    fn duplicate_creation_rejected() {
        let mut db = Database::new();
        db.create_relation("t", Schema::of(&[("x", ValueType::Int)]))
            .unwrap();
        assert!(matches!(
            db.create_relation("t", Schema::of(&[("x", ValueType::Int)])),
            Err(StorageError::RelationExists(_))
        ));
    }

    #[test]
    fn fresh_ids_are_monotonic() {
        let mut db = Database::new();
        let a = db.fresh_id();
        let b = db.fresh_id();
        assert!(b > a);
        db.ensure_id_floor(100);
        assert!(db.fresh_id() >= 100);
        db.ensure_id_floor(5); // never moves backwards
        assert!(db.fresh_id() > 100);
    }

    #[test]
    fn names_sorted() {
        let mut db = Database::new();
        for n in ["zeta", "alpha", "mid"] {
            db.create_relation(n, Schema::of(&[("x", ValueType::Int)]))
                .unwrap();
        }
        let names: Vec<&str> = db.relation_names().collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(db.relations().count(), 3);
    }

    #[test]
    fn missing_relation_errors() {
        let mut db = Database::new();
        assert!(db.relation("nope").is_err());
        assert!(db.relation_mut("nope").is_err());
    }
}
