//! # crowd4u-storage — relational substrate for the Crowd4U platform
//!
//! The production Crowd4U platform keeps workers, tasks, worker↔task
//! relationships and CyLog facts in a relational database. This crate is the
//! in-process equivalent: typed schemas, slab-backed relations with secondary
//! hash indexes, the platform's event journal, CSV import/export for
//! spreadsheet-defined tasks, and a textual snapshot format for persistence.
//! It evaluates no queries: what is derived from the facts, CyLog computes.
//!
//! Everything is deterministic: iteration orders are stable, snapshots are
//! canonical, and floats use a total order so they can appear in keys.
//!
//! ```
//! use crowd4u_storage::prelude::*;
//!
//! let mut db = Database::new();
//! let rel = db
//!     .create_relation(
//!         "worker",
//!         Schema::of(&[("id", ValueType::Id), ("lang", ValueType::Str)]),
//!     )
//!     .unwrap();
//! rel.create_index(&["id"], true).unwrap();
//! rel.insert(tuple![1u64, "en"]).unwrap();
//! rel.insert(tuple![2u64, "ja"]).unwrap();
//!
//! let hits = db.relation("worker").unwrap().lookup(&[0], &[Value::Id(2)]);
//! assert_eq!(hits, vec![&tuple![2u64, "ja"]]);
//! ```

pub mod csv;
pub mod database;
pub mod error;
pub mod journal;
pub mod query;
pub mod relation;
pub mod schema;
pub mod snapshot;
pub mod tuple;
pub mod value;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::database::Database;
    pub use crate::error::StorageError;
    pub use crate::journal::{EventJournal, JournalEntry};
    pub use crate::query::ResultSet;
    pub use crate::relation::{Relation, RowId};
    pub use crate::schema::{Column, Schema};
    pub use crate::tuple;
    pub use crate::tuple::Tuple;
    pub use crate::value::{Value, ValueType};
}

#[cfg(test)]
mod proptests {
    //! Property-based invariants of the storage layer.
    use crate::prelude::*;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // Finite floats plus specials.
            prop_oneof![
                any::<f64>().prop_filter("finite", |f| f.is_finite()),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ]
            .prop_map(Value::Float),
            "[ -~]{0,12}".prop_map(Value::Str), // printable ascii incl. space
            any::<u64>().prop_map(Value::Id),
        ]
    }

    proptest! {
        /// Value ordering is a total order: antisymmetric + transitive on triples.
        #[test]
        fn value_order_total(a in arb_value(), b in arb_value(), c in arb_value()) {
            use std::cmp::Ordering;
            prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
            if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
                prop_assert_ne!(a.cmp(&c), Ordering::Greater);
            }
        }

        /// Equal values hash equally.
        #[test]
        fn value_hash_consistent(a in arb_value(), b in arb_value()) {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            if a == b {
                let mut ha = DefaultHasher::new();
                let mut hb = DefaultHasher::new();
                a.hash(&mut ha);
                b.hash(&mut hb);
                prop_assert_eq!(ha.finish(), hb.finish());
            }
        }

        /// Indexed lookup returns exactly the same rows as a full scan filter.
        #[test]
        fn index_scan_equivalence(keys in proptest::collection::vec(0i64..20, 1..60)) {
            let mut indexed = Relation::new("t", Schema::of(&[("k", ValueType::Int), ("pos", ValueType::Int)]));
            indexed.create_index(&["k"], false).unwrap();
            let mut plain = Relation::new("t", Schema::of(&[("k", ValueType::Int), ("pos", ValueType::Int)]));
            for (i, k) in keys.iter().enumerate() {
                indexed.insert(tuple![*k, i as i64]).unwrap();
                plain.insert(tuple![*k, i as i64]).unwrap();
            }
            for probe in 0i64..20 {
                let mut via_index: Vec<Tuple> = indexed
                    .lookup(&[0], &[Value::Int(probe)])
                    .into_iter().cloned().collect();
                let mut via_scan: Vec<Tuple> = plain
                    .lookup(&[0], &[Value::Int(probe)])
                    .into_iter().cloned().collect();
                via_index.sort();
                via_scan.sort();
                prop_assert_eq!(via_index, via_scan);
            }
        }

        /// Deleting and reinserting arbitrary subsets keeps len and index in sync.
        #[test]
        fn delete_reinsert_consistency(ops in proptest::collection::vec((0i64..10, any::<bool>()), 0..80)) {
            let mut rel = Relation::new("t", Schema::of(&[("k", ValueType::Int)]));
            rel.create_index(&["k"], false).unwrap();
            let mut model: Vec<i64> = Vec::new();
            for (k, insert) in ops {
                if insert {
                    rel.insert(tuple![k]).unwrap();
                    model.push(k);
                } else if let Some(pos) = model.iter().position(|&m| m == k) {
                    model.remove(pos);
                    let victims: Vec<RowId> = rel
                        .iter_ids()
                        .filter(|(_, t)| t[0] == Value::Int(k))
                        .map(|(rid, _)| rid)
                        .take(1)
                        .collect();
                    for rid in victims { rel.delete(rid).unwrap(); }
                }
                prop_assert_eq!(rel.len(), model.len());
                for probe in 0i64..10 {
                    let expected = model.iter().filter(|&&m| m == probe).count();
                    prop_assert_eq!(rel.lookup(&[0], &[Value::Int(probe)]).len(), expected);
                }
            }
        }

        /// Snapshots round-trip any database contents exactly (canonical dump).
        #[test]
        fn snapshot_round_trip(rows in proptest::collection::vec(
            (any::<i64>(), "[ -~]{0,16}", proptest::option::of(any::<f64>().prop_filter("finite", |f| f.is_finite()))),
            0..40,
        )) {
            let mut db = Database::new();
            let rel = db.create_relation("r", Schema::new(vec![
                Column::new("a", ValueType::Int),
                Column::new("b", ValueType::Str),
                Column::nullable("c", ValueType::Float),
            ]).unwrap()).unwrap();
            for (a, b, c) in rows {
                let cv = c.map(Value::Float).unwrap_or(Value::Null);
                rel.insert(Tuple::new(vec![Value::Int(a), Value::Str(b), cv])).unwrap();
            }
            let text = crate::snapshot::dump(&db);
            let back = crate::snapshot::load(&text).unwrap();
            prop_assert_eq!(crate::snapshot::dump(&back), text);
        }

        /// CSV round-trips arbitrary records.
        #[test]
        fn csv_round_trip(recs in proptest::collection::vec(
            proptest::collection::vec("[ -~]{0,10}", 1..5), 1..20)) {
            let text = crate::csv::write_csv(&recs);
            let back = crate::csv::parse_csv(&text).unwrap();
            prop_assert_eq!(back, recs);
        }
    }
}
