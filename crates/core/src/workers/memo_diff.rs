//! Differential test of the pair memo: however the profiles change, every
//! memoised read equals a submatrix computed from scratch, to the bit.
//!
//! Each generated step changes the manager by a registration (new id or
//! re-registration; a registration is the one way a profile changes) or
//! fills the memo through `fill_candidate_affinity`, over an id slice
//! that may be shuffled and may name an unknown id. After every step, `fill_candidate_affinity`,
//! `candidate_affinity`, `submatrix_of` and `team_affinity` over the step's
//! slice must equal `affinity_from_profile_refs` over the same registered
//! profiles: the same worker order, every table entry and the matrix mean
//! `to_bits()`-equal.

use super::*;
use crowd4u_crowd::affinity::{affinity_from_profile_refs, AffinityLookup};
use crowd4u_crowd::profile::Region;
use crowd4u_sim::rng::SimRng;
use proptest::prelude::*;

/// Worker ids the steps draw from; 99 is never registered.
const IDS: [u64; 8] = [2, 3, 5, 8, 13, 21, 34, 55];
const UNKNOWN: u64 = 99;

/// One generated step: what to do, two selectors and a level.
type Step = (u8, u8, u8, f64);

fn worker(slot: u8, variant: u8, level: f64) -> WorkerProfile {
    let id = IDS[slot as usize % IDS.len()];
    let x = (id as f64 * 0.37).fract();
    let mut p = WorkerProfile::new(WorkerId(id), format!("w{id}"))
        .with_native_lang(if variant & 1 == 0 { "en" } else { "ja" })
        .with_region(Region::new("r", x, level))
        .with_skill("survey", level);
    if variant & 2 != 0 {
        p = p.with_skill("edit", (level * 3.1).fract());
    }
    if variant & 4 != 0 {
        p = p.with_fluency("fr", 0.9);
    }
    p
}

/// The step's id slice: the ids whose bit is set in `mask`, ascending;
/// with the unknown id when `order & 1`, shuffled when `order & 2`.
fn slice(mask: u8, order: u8, seed: f64) -> Vec<WorkerId> {
    let mut ids: Vec<WorkerId> = IDS
        .iter()
        .enumerate()
        .filter(|(bit, _)| mask & (1 << bit) != 0)
        .map(|(_, &id)| WorkerId(id))
        .collect();
    if order & 1 != 0 {
        ids.insert(ids.len() / 2, WorkerId(UNKNOWN));
    }
    if order & 2 != 0 {
        SimRng::seed_from(seed.to_bits()).shuffle(&mut ids);
    }
    ids
}

fn apply(m: &mut WorkerManager, step: &Step) {
    let &(kind, a, b, level) = step;
    match kind {
        0..=2 => m.register(worker(a, b, level).into()),
        _ => {
            m.fill_candidate_affinity(&slice(b, a, level));
        }
    }
}

/// Same workers in the same order, every `table` entry over `ids` and the
/// mean (which reads every slot, repeated ids included) bit-equal.
fn bit_equal(got: &AffinityMatrix, want: &AffinityMatrix, ids: &[WorkerId]) -> bool {
    let bits =
        |m: &AffinityMatrix| -> Vec<u64> { m.table(ids).iter().map(|v| v.to_bits()).collect() };
    got.workers() == want.workers()
        && got.mean().to_bits() == want.mean().to_bits()
        && bits(got) == bits(want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn memoised_reads_equal_fresh_submatrices(
        steps in proptest::collection::vec((0u8..6, 0u8..8, any::<u8>(), 0.0f64..1.0), 1..40),
    ) {
        let mut m = WorkerManager::new();
        for (i, step) in steps.iter().enumerate() {
            apply(&mut m, step);
            let ids = slice(step.2.rotate_left(3), step.1 ^ step.0, step.3);
            let (wg, wl, ws) = WEIGHTS;
            let want = affinity_from_profile_refs(&m.registered(&ids), wg, wl, ws);
            prop_assert!(
                bit_equal(&m.candidate_affinity(&ids), &want, &ids),
                "candidate_affinity, step {} {:?}, ids {:?}", i, step, ids
            );
            prop_assert!(
                bit_equal(&m.submatrix_of(&m.registered(&ids)), &want, &ids),
                "submatrix_of, step {} {:?}, ids {:?}", i, step, ids
            );
            prop_assert_eq!(
                m.team_affinity(&ids).to_bits(),
                group_affinity(&want, &ids).to_bits(),
                "team_affinity, step {} {:?}, ids {:?}", i, step, ids
            );
            let (filled, work) = m.fill_candidate_affinity(&ids);
            prop_assert!(
                bit_equal(&filled, &want, &ids),
                "fill_candidate_affinity, step {} {:?}, ids {:?}", i, step, ids
            );
            let n = want.len() as u64;
            prop_assert_eq!(work.computed + work.reused, n * n.saturating_sub(1) / 2);
        }
    }
}
