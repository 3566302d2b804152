//! A single relation (table): slab row storage plus secondary hash indexes.
//!
//! Rows live in a slab (`Vec<Option<Tuple>>`) so that row ids stay stable
//! across deletions. Every registered index is maintained eagerly, and the
//! cost of that maintenance is per row touched: an insert pushes one id per
//! index, a delete or update removes one id per index directly, and only a
//! bulk delete that takes several rows out of *one* posting list rewrites
//! that list in a single pass. Posting lists keep insertion order, so a
//! lookup's result order depends on the rows and the order they arrived in,
//! never on how an earlier removal was carried out.
//!
//! Probes ([`Relation::lookup`], [`Relation::contains`],
//! [`Relation::insert_distinct`], [`Relation::delete_matching`]) all resolve
//! through one rule: among the indexes whose columns are all probed, the
//! widest; among equally wide ones, the one whose posting list for the
//! probed key is shortest (the first declared on a tie). Declaration order
//! therefore never changes a result, only — on exact ties — which of two
//! equally good lists is walked.

use crate::error::StorageError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Stable identifier of a row inside one relation.
pub type RowId = u64;

/// The key `ix_cols` select, read out of `values` through `pos` (the
/// position in `values` that holds a given column). Borrowed when the
/// selected positions are one ascending run — a single column, a prefix,
/// the full row, or a probe on exactly the index's columns — so the common
/// probes hash the caller's values in place instead of cloning them.
fn key_of<'a>(
    values: &'a [Value],
    ix_cols: &[usize],
    pos: impl Fn(usize) -> usize,
) -> Cow<'a, [Value]> {
    let start = ix_cols.first().map_or(0, |&c| pos(c));
    if ix_cols
        .iter()
        .enumerate()
        .all(|(i, &c)| pos(c) == start + i)
    {
        Cow::Borrowed(&values[start..start + ix_cols.len()])
    } else {
        Cow::Owned(ix_cols.iter().map(|&c| values[pos(c)].clone()).collect())
    }
}

#[derive(Debug, Clone, Default)]
struct HashIndex {
    cols: Vec<usize>,
    unique: bool,
    map: HashMap<Vec<Value>, Vec<RowId>>,
}

impl HashIndex {
    /// The posting list of the key a full row has under this index.
    fn postings(&self, row: &[Value]) -> Option<&Vec<RowId>> {
        self.map.get(&*key_of(row, &self.cols, |c| c))
    }

    fn add(&mut self, row: &[Value], rid: RowId) {
        let key = key_of(row, &self.cols, |c| c);
        match self.map.get_mut(&*key) {
            Some(ids) => ids.push(rid),
            None => {
                self.map.insert(key.into_owned(), vec![rid]);
            }
        }
    }

    /// Take one row id out of its posting list, keeping the order of the
    /// rest: a scan for the position and one `Vec::remove`, no hashing of
    /// the other ids.
    fn remove(&mut self, row: &[Value], rid: RowId) {
        let key = key_of(row, &self.cols, |c| c);
        let Some(ids) = self.map.get_mut(&*key) else {
            return;
        };
        if let Some(at) = ids.iter().position(|&r| r == rid) {
            ids.remove(at);
        }
        if ids.is_empty() {
            self.map.remove(&*key);
        }
    }
}

/// An in-memory table with schema enforcement and secondary indexes.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    schema: Schema,
    slots: Vec<Option<Tuple>>,
    free: Vec<RowId>,
    live: usize,
    indexes: Vec<HashIndex>,
}

impl Relation {
    pub fn new(name: impl Into<String>, schema: Schema) -> Relation {
        Relation {
            name: name.into(),
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            indexes: Vec::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Register a hash index over the named columns. Existing rows are
    /// indexed immediately. `unique` enforces key uniqueness on inserts.
    pub fn create_index(&mut self, cols: &[&str], unique: bool) -> Result<(), StorageError> {
        let mut idx_cols = Vec::with_capacity(cols.len());
        for c in cols {
            idx_cols.push(
                self.schema
                    .index_of(c)
                    .ok_or_else(|| StorageError::NoSuchColumn((*c).to_owned()))?,
            );
        }
        let mut index = HashIndex {
            cols: idx_cols,
            unique,
            map: HashMap::new(),
        };
        for (rid, t) in self.iter_ids() {
            if unique && index.postings(t.values()).is_some() {
                return Err(self.unique_violation(&index, t));
            }
            index.add(t.values(), rid);
        }
        self.indexes.push(index);
        Ok(())
    }

    fn unique_violation(&self, ix: &HashIndex, t: &Tuple) -> StorageError {
        StorageError::UniqueViolation {
            relation: self.name.clone(),
            key: format!("{:?}", t.key(&ix.cols)),
        }
    }

    /// Insert a row, returning its id. Fails on schema or unique violations;
    /// a failed insert leaves the relation unchanged.
    pub fn insert(&mut self, row: impl Into<Tuple>) -> Result<RowId, StorageError> {
        let t: Tuple = row.into();
        self.schema.check_row(t.values())?;
        for ix in self.indexes.iter().filter(|ix| ix.unique) {
            if ix.postings(t.values()).is_some() {
                return Err(self.unique_violation(ix, &t));
            }
        }
        let rid = match self.free.pop() {
            Some(r) => r,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as RowId
            }
        };
        for ix in &mut self.indexes {
            ix.add(t.values(), rid);
        }
        self.slots[rid as usize] = Some(t);
        self.live += 1;
        Ok(rid)
    }

    /// Insert unless an identical tuple is already present. Returns the row id
    /// and whether the tuple was newly inserted. This is the set-semantics
    /// primitive the Datalog evaluator builds on.
    pub fn insert_distinct(
        &mut self,
        row: impl Into<Tuple>,
    ) -> Result<(RowId, bool), StorageError> {
        let t: Tuple = row.into();
        self.schema.check_row(t.values())?;
        if let Some(rid) = self.find_row(&t) {
            return Ok((rid, false));
        }
        let rid = self.insert(t)?;
        Ok((rid, true))
    }

    /// The first row identical to `t`: a probe on every column, resolved by
    /// the selection rule in the module docs.
    fn find_row(&self, t: &Tuple) -> Option<RowId> {
        if t.arity() != self.schema.arity() {
            return None;
        }
        match self.select_index(t.values(), Some) {
            Selected::Postings(ids) => ids
                .iter()
                .copied()
                .find(|&rid| self.slots[rid as usize].as_ref() == Some(t)),
            Selected::NoMatch => None,
            Selected::Scan => self
                .iter_ids()
                .find(|&(_, row)| row == t)
                .map(|(rid, _)| rid),
        }
    }

    /// Apply the selection rule to a probe: `key` holds the probed values
    /// and `pos` tells where in `key` a column's value sits (`None` for a
    /// column the probe does not fix).
    fn select_index<'a>(
        &'a self,
        key: &[Value],
        pos: impl Fn(usize) -> Option<usize>,
    ) -> Selected<'a> {
        let usable =
            |ix: &HashIndex| !ix.cols.is_empty() && ix.cols.iter().all(|&c| pos(c).is_some());
        let Some(width) = self
            .indexes
            .iter()
            .filter(|ix| usable(ix))
            .map(|ix| ix.cols.len())
            .max()
        else {
            return Selected::Scan;
        };
        let mut best: Option<&Vec<RowId>> = None;
        for ix in self
            .indexes
            .iter()
            .filter(|ix| ix.cols.len() == width && usable(ix))
        {
            let subkey = key_of(key, &ix.cols, |c| pos(c).expect("usable index"));
            match ix.map.get(&*subkey) {
                // Every match is in every usable index's list for the key.
                None => return Selected::NoMatch,
                Some(ids) if best.is_none_or(|b| ids.len() < b.len()) => best = Some(ids),
                Some(_) => {}
            }
        }
        Selected::Postings(best.expect("an index of the widest width exists"))
    }

    /// True if an identical tuple exists.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.find_row(t).is_some()
    }

    pub fn get(&self, rid: RowId) -> Option<&Tuple> {
        self.slots.get(rid as usize).and_then(|s| s.as_ref())
    }

    /// Delete a row by id. Returns the removed tuple.
    pub fn delete(&mut self, rid: RowId) -> Result<Tuple, StorageError> {
        let slot = self
            .slots
            .get_mut(rid as usize)
            .ok_or(StorageError::NoSuchRow(rid))?;
        let t = slot.take().ok_or(StorageError::NoSuchRow(rid))?;
        for ix in &mut self.indexes {
            ix.remove(t.values(), rid);
        }
        self.free.push(rid);
        self.live -= 1;
        Ok(t)
    }

    /// Replace the row at `rid` with `row` (schema checked, indexes updated).
    pub fn update(&mut self, rid: RowId, row: impl Into<Tuple>) -> Result<(), StorageError> {
        let t: Tuple = row.into();
        self.schema.check_row(t.values())?;
        if self.get(rid).is_none() {
            return Err(StorageError::NoSuchRow(rid));
        }
        // Unique check against *other* rows.
        for ix in self.indexes.iter().filter(|ix| ix.unique) {
            if ix
                .postings(t.values())
                .is_some_and(|ids| ids.iter().any(|&r| r != rid))
            {
                return Err(self.unique_violation(ix, &t));
            }
        }
        let old = self.slots[rid as usize].replace(t).expect("checked above");
        let t = self.slots[rid as usize].as_ref().expect("just stored");
        for ix in &mut self.indexes {
            if ix.cols.iter().any(|&c| old[c] != t[c]) {
                ix.remove(old.values(), rid);
                ix.add(t.values(), rid);
            }
        }
        Ok(())
    }

    /// Iterate live `(RowId, &Tuple)` pairs in slab order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (RowId, &Tuple)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (i as RowId, t)))
    }

    /// Iterate live rows.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.iter_ids().map(|(_, t)| t)
    }

    /// Point lookup on `cols` (column positions) matching `key` values,
    /// resolved by the selection rule in the module docs; the columns the
    /// chosen index does not cover are post-filtered, and a probe no index
    /// applies to scans. Matches come back in the order they were inserted
    /// under the chosen index's key.
    pub fn lookup(&self, cols: &[usize], key: &[Value]) -> Vec<&Tuple> {
        self.lookup_ids(cols, key)
            .into_iter()
            .map(|rid| self.slots[rid as usize].as_ref().expect("live row"))
            .collect()
    }

    /// [`lookup`](Self::lookup) returning row ids instead of tuples — the
    /// building block for indexed deletion
    /// ([`delete_matching`](Self::delete_matching)) and for callers that
    /// mutate matches.
    pub fn lookup_ids(&self, cols: &[usize], key: &[Value]) -> Vec<RowId> {
        let matches = |t: &Tuple| cols.iter().zip(key).all(|(&c, k)| &t[c] == k);
        let pos = |c: usize| cols.iter().position(|&x| x == c);
        match self.select_index(key, pos) {
            Selected::Postings(ids) => ids
                .iter()
                .copied()
                .filter(|&rid| self.slots[rid as usize].as_ref().is_some_and(&matches))
                .collect(),
            Selected::NoMatch => Vec::new(),
            Selected::Scan => self
                .iter_ids()
                .filter(|(_, t)| matches(t))
                .map(|(rid, _)| rid)
                .collect(),
        }
    }

    /// Delete every row matching `key` on `cols`, resolved through an index
    /// like [`lookup`](Self::lookup).
    /// Finding the victims costs one posting-list walk; removing them costs,
    /// per index, one direct removal for each victim that is alone under
    /// its key (a scan of that key's posting list for the id, no hashing)
    /// and one pass over the list where several victims share a key.
    /// Returns how many rows were removed.
    pub fn delete_matching(&mut self, cols: &[usize], key: &[Value]) -> usize {
        let victims = self.lookup_ids(cols, key);
        // Bulk form of [`delete`](Self::delete): n victims under one index
        // key (exactly the clear-a-task case) would cost n shifting removes
        // on the same list. Take every victim out of its slot first, group
        // them by key per index, and rewrite a shared list once.
        // Bookkeeping (free-list order, live count) matches n sequential
        // `delete` calls exactly.
        let mut removed: Vec<Tuple> = Vec::with_capacity(victims.len());
        for &rid in &victims {
            let t = self.slots[rid as usize].take().expect("looked-up row");
            removed.push(t);
            self.free.push(rid);
            self.live -= 1;
        }
        let mut victim_set: Option<HashSet<RowId>> = None;
        for ix in &mut self.indexes {
            let mut under_key: HashMap<Cow<[Value]>, (usize, usize)> = HashMap::new();
            for (i, t) in removed.iter().enumerate() {
                let entry = under_key
                    .entry(key_of(t.values(), &ix.cols, |c| c))
                    .or_insert((i, 0));
                entry.1 += 1;
            }
            for (k, (first, count)) in under_key {
                if count == 1 {
                    ix.remove(removed[first].values(), victims[first]);
                    continue;
                }
                let gone = victim_set.get_or_insert_with(|| victims.iter().copied().collect());
                let ids = ix.map.get_mut(&*k).expect("indexed victim");
                ids.retain(|r| !gone.contains(r));
                if ids.is_empty() {
                    ix.map.remove(&*k);
                }
            }
        }
        victims.len()
    }

    /// Remove all rows but keep schema and index definitions.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        for ix in &mut self.indexes {
            ix.map.clear();
        }
    }

    /// Clone all live tuples into a vector (snapshot order = slab order).
    pub fn to_rows(&self) -> Vec<Tuple> {
        self.iter().cloned().collect()
    }
}

/// What the selection rule resolved a probe to.
enum Selected<'a> {
    /// Walk this posting list (post-filtering uncovered columns).
    Postings(&'a [RowId]),
    /// A usable index has no entry for the key: nothing matches.
    NoMatch,
    /// No index applies: scan the slab.
    Scan,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::ValueType;

    fn workers() -> Relation {
        let mut r = Relation::new(
            "worker",
            Schema::of(&[
                ("id", ValueType::Id),
                ("name", ValueType::Str),
                ("skill", ValueType::Float),
            ]),
        );
        r.create_index(&["id"], true).unwrap();
        r
    }

    #[test]
    fn insert_get_len() {
        let mut r = workers();
        let a = r.insert(tuple![1u64, "ann", 0.9]).unwrap();
        let b = r.insert(tuple![2u64, "bob", 0.5]).unwrap();
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(a).unwrap()[1], Value::Str("ann".into()));
    }

    #[test]
    fn schema_violation_rejected() {
        let mut r = workers();
        let err = r.insert(tuple![1u64, 2i64, 0.9]).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        assert!(r.is_empty());
    }

    #[test]
    fn unique_index_enforced() {
        let mut r = workers();
        r.insert(tuple![1u64, "ann", 0.9]).unwrap();
        let err = r.insert(tuple![1u64, "dup", 0.1]).unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn create_unique_index_on_conflicting_data_fails() {
        let mut r = Relation::new("t", Schema::of(&[("k", ValueType::Int)]));
        r.insert(tuple![1i64]).unwrap();
        r.insert(tuple![1i64]).unwrap();
        assert!(r.create_index(&["k"], true).is_err());
    }

    #[test]
    fn delete_frees_slot_and_index() {
        let mut r = workers();
        let a = r.insert(tuple![1u64, "ann", 0.9]).unwrap();
        let t = r.delete(a).unwrap();
        assert_eq!(t[0], Value::Id(1));
        assert!(r.get(a).is_none());
        assert!(r.lookup(&[0], &[Value::Id(1)]).is_empty());
        // Slot reuse keeps ids stable for other rows.
        let b = r.insert(tuple![2u64, "bob", 0.5]).unwrap();
        assert_eq!(a, b, "slab reuses freed slot");
        assert!(r.delete(999).is_err());
    }

    #[test]
    fn update_maintains_indexes() {
        let mut r = workers();
        let a = r.insert(tuple![1u64, "ann", 0.9]).unwrap();
        r.update(a, tuple![3u64, "ann", 0.9]).unwrap();
        assert!(r.lookup(&[0], &[Value::Id(1)]).is_empty());
        assert_eq!(r.lookup(&[0], &[Value::Id(3)]).len(), 1);
    }

    #[test]
    fn update_unique_violation() {
        let mut r = workers();
        let _a = r.insert(tuple![1u64, "ann", 0.9]).unwrap();
        let b = r.insert(tuple![2u64, "bob", 0.5]).unwrap();
        let err = r.update(b, tuple![1u64, "bob", 0.5]).unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
        // Self-update to the same key is fine.
        r.update(b, tuple![2u64, "bobby", 0.6]).unwrap();
    }

    #[test]
    fn insert_distinct_dedups() {
        let mut r = Relation::new("t", Schema::of(&[("x", ValueType::Int)]));
        let (a, fresh) = r.insert_distinct(tuple![1i64]).unwrap();
        assert!(fresh);
        let (b, fresh2) = r.insert_distinct(tuple![1i64]).unwrap();
        assert!(!fresh2);
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple![1i64]));
        assert!(!r.contains(&tuple![2i64]));
    }

    #[test]
    fn lookup_without_index_scans() {
        let mut r = workers();
        r.insert(tuple![1u64, "ann", 0.9]).unwrap();
        r.insert(tuple![2u64, "bob", 0.9]).unwrap();
        // no index on skill
        let hits = r.lookup(&[2], &[Value::Float(0.9)]);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn delete_matching_counts() {
        let mut r = workers();
        for i in 0..10u64 {
            r.insert(tuple![i, "w", (i % 2) as f64]).unwrap();
        }
        assert_eq!(r.delete_matching(&[2], &[Value::Float(0.0)]), 5);
        assert_eq!(r.len(), 5);
        assert!(r.lookup(&[0], &[Value::Id(4)]).is_empty());
        assert_eq!(r.lookup(&[0], &[Value::Id(5)]).len(), 1);
    }

    #[test]
    fn clear_keeps_indexes_working() {
        let mut r = workers();
        r.insert(tuple![1u64, "ann", 0.9]).unwrap();
        r.clear();
        assert!(r.is_empty());
        r.insert(tuple![1u64, "ann", 0.9]).unwrap();
        assert_eq!(r.lookup(&[0], &[Value::Id(1)]).len(), 1);
    }

    #[test]
    fn non_unique_index_groups() {
        let mut r = Relation::new(
            "t",
            Schema::of(&[("g", ValueType::Int), ("v", ValueType::Int)]),
        );
        r.create_index(&["g"], false).unwrap();
        for i in 0..6i64 {
            r.insert(tuple![i % 2, i]).unwrap();
        }
        assert_eq!(r.lookup(&[0], &[Value::Int(0)]).len(), 3);
    }
}
