//! Model-based property test of [`Relation`]: random operation sequences,
//! replayed under every declaration order of one to three indexes, checked
//! after each step against a naive slab the test maintains itself.
//!
//! The model knows nothing about posting lists. It keeps the rows, the
//! free-slot stack, and — per declared index — the step at which each row
//! last entered its current key (insert, or an update that changed that
//! key). From those it derives what every probe must return *and in which
//! order*: the selection rule of `relation.rs` (widest usable index, then
//! fewest rows under the probed key, then first declared) picks the index,
//! and matches come back in the order they entered that index's key. A
//! change to index selection, to how a removal rewrites a posting list, or
//! to slot reuse that alters any result fails here, whatever order the
//! indexes were declared in.

use crowd4u_storage::prelude::*;
use proptest::prelude::*;

/// Column domains, small enough that keys collide constantly.
const DOMAIN: [i64; 3] = [3, 3, 2];

/// Index column sets to draw from — single columns, a prefix, a suffix,
/// the full row, and one out-of-order pair (its keys cannot be borrowed
/// from the row).
const INDEX_SETS: [&[usize]; 6] = [&[0], &[1], &[0, 1], &[1, 2], &[0, 1, 2], &[2, 0]];

/// Probes checked after every step: every non-empty column subset, plus
/// one whose columns are listed out of order.
const PROBES: [&[usize]; 8] = [
    &[0],
    &[1],
    &[2],
    &[0, 1],
    &[1, 2],
    &[0, 2],
    &[0, 1, 2],
    &[1, 0],
];

const COL_NAMES: [&str; 3] = ["a", "b", "c"];

#[derive(Debug, Clone)]
struct ModelRow {
    values: [i64; 3],
    /// Per declared index: the step this row entered its current key.
    entered: Vec<u64>,
}

#[derive(Debug, Default)]
struct Model {
    slots: Vec<Option<ModelRow>>,
    free: Vec<RowId>,
    step: u64,
}

fn tuple_of(v: [i64; 3]) -> Tuple {
    Tuple::new(v.iter().map(|&x| Value::Int(x)).collect())
}

impl Model {
    fn live(&self) -> impl Iterator<Item = (RowId, &ModelRow)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (i as RowId, r)))
    }

    fn insert(&mut self, values: [i64; 3], n_indexes: usize) -> RowId {
        self.step += 1;
        let row = ModelRow {
            values,
            entered: vec![self.step; n_indexes],
        };
        match self.free.pop() {
            Some(rid) => {
                self.slots[rid as usize] = Some(row);
                rid
            }
            None => {
                self.slots.push(Some(row));
                (self.slots.len() - 1) as RowId
            }
        }
    }

    fn delete(&mut self, rid: RowId) {
        self.slots[rid as usize] = None;
        self.free.push(rid);
    }

    fn update(&mut self, rid: RowId, values: [i64; 3], indexes: &[&[usize]]) {
        self.step += 1;
        let row = self.slots[rid as usize].as_mut().expect("live row");
        for (i, cols) in indexes.iter().enumerate() {
            if cols.iter().any(|&c| row.values[c] != values[c]) {
                row.entered[i] = self.step;
            }
        }
        row.values = values;
    }

    /// What `lookup_ids(cols, key)` must return, in order.
    fn expected(&self, indexes: &[&[usize]], cols: &[usize], key: &[i64]) -> Vec<RowId> {
        let fixed = |c: usize| cols.iter().position(|&x| x == c).map(|p| key[p]);
        let matches = |r: &ModelRow| cols.iter().zip(key).all(|(&c, &k)| r.values[c] == k);
        let usable = |ix: &[usize]| ix.iter().all(|&c| fixed(c).is_some());
        let width = indexes
            .iter()
            .filter(|ix| usable(ix))
            .map(|ix| ix.len())
            .max();
        let mut hits: Vec<(RowId, &ModelRow)> = self.live().filter(|(_, r)| matches(r)).collect();
        let Some(width) = width else {
            // No usable index: slab order.
            return hits.into_iter().map(|(rid, _)| rid).collect();
        };
        // Rows under the probed key of one index.
        let under = |ix: &[usize]| {
            self.live()
                .filter(|(_, r)| ix.iter().all(|&c| Some(r.values[c]) == fixed(c)))
                .count()
        };
        let chosen = indexes
            .iter()
            .enumerate()
            .filter(|(_, ix)| ix.len() == width && usable(ix))
            .min_by_key(|(i, ix)| (under(ix), *i))
            .map(|(i, _)| i)
            .expect("an index of the widest width");
        hits.sort_by_key(|(_, r)| r.entered[chosen]);
        hits.into_iter().map(|(rid, _)| rid).collect()
    }
}

/// Every key a probe on `cols` can carry.
fn keys_for(cols: &[usize]) -> Vec<Vec<i64>> {
    let mut keys = vec![Vec::new()];
    for &c in cols {
        keys = keys
            .into_iter()
            .flat_map(|k| {
                (0..DOMAIN[c]).map(move |v| {
                    let mut k = k.clone();
                    k.push(v);
                    k
                })
            })
            .collect();
    }
    keys
}

fn check(rel: &Relation, model: &Model, indexes: &[&[usize]]) -> Result<(), TestCaseError> {
    prop_assert_eq!(rel.len(), model.live().count());
    prop_assert_eq!(rel.is_empty(), model.live().count() == 0);
    let rows: Vec<(RowId, Tuple)> = rel.iter_ids().map(|(r, t)| (r, t.clone())).collect();
    let want: Vec<(RowId, Tuple)> = model
        .live()
        .map(|(r, row)| (r, tuple_of(row.values)))
        .collect();
    prop_assert_eq!(rows, want);
    for cols in PROBES {
        for key in keys_for(cols) {
            let vals: Vec<Value> = key.iter().map(|&k| Value::Int(k)).collect();
            let got = rel.lookup_ids(cols, &vals);
            let want = model.expected(indexes, cols, &key);
            prop_assert_eq!(
                &got,
                &want,
                "lookup {:?}={:?} under indexes {:?}: got {:?}, want {:?}",
                cols,
                key,
                indexes,
                got,
                want
            );
            let tuples: Vec<Tuple> = rel.lookup(cols, &vals).into_iter().cloned().collect();
            let want_tuples: Vec<Tuple> = want
                .iter()
                .map(|&r| tuple_of(model.slots[r as usize].as_ref().unwrap().values))
                .collect();
            prop_assert_eq!(tuples, want_tuples);
            if cols.len() == 3 && cols.windows(2).all(|w| w[0] < w[1]) {
                prop_assert_eq!(rel.contains(&Tuple::new(vals)), !want.is_empty());
            }
        }
    }
    Ok(())
}

/// One generated operation: `(kind, row values, pick)`.
type Op = (u8, (i64, i64, i64), usize);

fn run(ops: &[Op], indexes: &[&[usize]]) -> Result<(), TestCaseError> {
    let schema = Schema::of(&[
        ("a", ValueType::Int),
        ("b", ValueType::Int),
        ("c", ValueType::Int),
    ]);
    let mut rel = Relation::new("t", schema);
    for cols in indexes {
        let names: Vec<&str> = cols.iter().map(|&c| COL_NAMES[c]).collect();
        rel.create_index(&names, false).unwrap();
    }
    let mut model = Model::default();
    let n = indexes.len();
    for &(kind, (a, b, c), pick) in ops {
        let values = [a, b, c];
        let live: Vec<RowId> = model.live().map(|(r, _)| r).collect();
        match kind {
            0 | 1 => {
                let rid = rel.insert(tuple_of(values)).unwrap();
                prop_assert_eq!(rid, model.insert(values, n));
            }
            2 | 3 => {
                let present = model.expected(indexes, &[0, 1, 2], &values);
                let (rid, fresh) = rel.insert_distinct(tuple_of(values)).unwrap();
                prop_assert_eq!(fresh, present.is_empty());
                if fresh {
                    prop_assert_eq!(rid, model.insert(values, n));
                } else {
                    prop_assert_eq!(rid, present[0]);
                }
            }
            4 => match live.get(pick % (live.len() + 1)) {
                Some(&rid) => {
                    let t = rel.delete(rid).unwrap();
                    prop_assert_eq!(
                        t,
                        tuple_of(model.slots[rid as usize].clone().unwrap().values)
                    );
                    model.delete(rid);
                }
                // One pick in `len + 1` aims at a row that is not there.
                None => prop_assert!(rel.delete(model.slots.len() as RowId + 7).is_err()),
            },
            5 => {
                let cols = PROBES[pick % PROBES.len()];
                let key: Vec<i64> = cols.iter().map(|&c| values[c]).collect();
                let vals: Vec<Value> = key.iter().map(|&k| Value::Int(k)).collect();
                let victims = model.expected(indexes, cols, &key);
                prop_assert_eq!(rel.delete_matching(cols, &vals), victims.len());
                for rid in victims {
                    model.delete(rid);
                }
            }
            _ => {
                if let Some(&rid) = live.get(pick % live.len().max(1)) {
                    rel.update(rid, tuple_of(values)).unwrap();
                    model.update(rid, values, indexes);
                } else {
                    prop_assert!(rel.update(0, tuple_of(values)).is_err());
                }
            }
        }
        check(&rel, &model, indexes)?;
    }
    Ok(())
}

/// All orderings of `items` (at most three, so at most six).
fn permutations<T: Copy>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn relation_agrees_with_a_naive_model_under_every_index_order(
        ops in proptest::collection::vec(
            (0u8..8, (0i64..DOMAIN[0], 0i64..DOMAIN[1], 0i64..DOMAIN[2]), 0usize..64),
            1..40,
        ),
        chosen in proptest::collection::vec(0usize..INDEX_SETS.len(), 1..=3),
    ) {
        // Drawing with replacement also covers two indexes on the same columns.
        let sets: Vec<&[usize]> = chosen.iter().map(|&i| INDEX_SETS[i]).collect();
        for order in permutations(&sets) {
            run(&ops, &order)?;
        }
    }

    /// No index at all: every probe scans, and results follow slab order.
    #[test]
    fn unindexed_relation_agrees_with_the_model(
        ops in proptest::collection::vec(
            (0u8..8, (0i64..DOMAIN[0], 0i64..DOMAIN[1], 0i64..DOMAIN[2]), 0usize..64),
            1..40,
        ),
    ) {
        run(&ops, &[])?;
    }
}
