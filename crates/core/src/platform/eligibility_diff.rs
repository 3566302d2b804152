//! Differential test of the patched eligibility cache: whatever route the
//! profiles, the projects and the facts change by, a platform that keeps
//! its caches reads what a platform without caches reads.
//!
//! Every generated step is applied to two platforms. The *twin* has every
//! project's cache cleared before each step and each read, so each of its
//! `eligible_set` calls — the explicit ones and the ones inside
//! `create_collab_task`, `sync_tasks` and a registration's declarative
//! refresh — is the full screen, and its engines evaluate semi-naively, so
//! every declarative run is a full recompute over the registry where the
//! platform's own is seeded from what changed. After every step the two
//! journals and state dumps (engine databases included) must be
//! byte-identical, and on the steps the generator
//! marks, `eligible_set` must agree for every project, and for a
//! factor-screen project equal a screen of `workers.profiles()` made here.
//! Profiles change only by registration: new workers, and re-registrations
//! that flip a worker's login or move their skill. Reads happen on marked
//! steps only, so registrations also meet caches that a project's
//! migration round trip left behind.
//!
//! Projects screen by factors (with and without requirements) or by one
//! of three CyLog programs: the paper's rule, a skill gate, and a
//! stratified `not` over a derived predicate.

use super::*;
use crowd4u_crowd::profile::WorkerProfile;
use crowd4u_cylog::eval::EvalMode;
use proptest::prelude::*;

const FACTOR_SRC: &str = "\
rel sentence(s: str).
open translate(s: str) -> (t: str) points 2.
rel published(s: str, t: str).
published(S, T) :- sentence(S), translate(S, T).
";

/// The declarative programs, each with a project fact `flag(W)` that a
/// step seeds. The paper's rule, with `flag` admitting a worker beside it.
const DECLARATIVE_SRC: &str = "\
rel worker_online(w: id).
rel worker_native(w: id, lang: str).
rel flag(w: id).
rel eligible(w: id).
eligible(W) :- worker_online(W), worker_native(W, \"en\").
eligible(W) :- flag(W).
rel sentence(s: str).
open translate(s: str) -> (t: str).
rel published(s: str, t: str).
published(S, T) :- sentence(S), translate(S, T).
";

/// Skill-gated: online workers whose translation skill clears a bar, so
/// a registered skill change moves verdicts.
const SKILL_SRC: &str = "\
rel worker_online(w: id).
rel worker_skill(w: id, skill: str, level: float).
rel flag(w: id).
rel eligible(w: id).
eligible(W) :- worker_online(W), worker_skill(W, \"translation\", L), L >= 0.5.
eligible(W) :- flag(W).
rel sentence(s: str).
open translate(s: str) -> (t: str).
";

/// Stratified `not`: online workers not `blocked`, where `blocked` is
/// derived from native Japanese or from `flag` — so a seed *removes* a
/// worker from the set.
const NEGATION_SRC: &str = "\
rel worker_online(w: id).
rel worker_native(w: id, lang: str).
rel flag(w: id).
rel blocked(w: id).
blocked(W) :- worker_native(W, \"ja\").
blocked(W) :- flag(W).
rel eligible(w: id).
eligible(W) :- worker_online(W), not blocked(W).
rel sentence(s: str).
open translate(s: str) -> (t: str).
";

/// Worker ids the steps draw from: non-contiguous, so a registration lands
/// at the front (1), in the middle or at the end (64) of the id order.
const IDS: [u64; 8] = [1, 4, 9, 16, 25, 36, 49, 64];

/// One generated step: what to do, two small selectors, a level, and
/// whether to read every project's eligible set afterwards.
type Step = (u8, u8, u8, f64, bool);

fn worker(slot: u8, variant: u8, skill: f64) -> WorkerProfile {
    let id = IDS[slot as usize % IDS.len()];
    let mut p = WorkerProfile::new(WorkerId(id), format!("w{id}"))
        .with_native_lang(if variant & 1 == 0 { "en" } else { "ja" })
        .with_skill("translation", skill);
    if variant & 2 != 0 {
        p = p.with_fluency("en", skill);
    }
    p.factors.logged_in = variant & 4 == 0;
    p
}

fn register_project(p: &mut Crowd4U, kind: u8) {
    let (source, factors) = match kind % 5 {
        0 => (FACTOR_SRC, DesiredFactors::default()),
        1 => (
            FACTOR_SRC,
            DesiredFactors {
                required_language: Some("en".into()),
                skill_name: Some("translation".into()),
                min_quality: 0.8,
                ..Default::default()
            },
        ),
        2 => (DECLARATIVE_SRC, DesiredFactors::default()),
        3 => (SKILL_SRC, DesiredFactors::default()),
        _ => (NEGATION_SRC, DesiredFactors::default()),
    };
    p.register_project(format!("p{kind}"), source, factors, Scheme::Sequential)
        .expect("every source compiles");
}

/// Apply one step. Calls that fail (an unknown worker, a project that is
/// currently extracted) fail the same way on both platforms; the returned
/// flag lets the caller check that they did.
fn apply(p: &mut Crowd4U, held: &mut Option<ProjectSlice>, step: &Step) -> bool {
    let &(kind, a, b, level, _) = step;
    let ids = p.project_ids();
    let project = ids.get(a as usize % ids.len().max(1)).copied();
    let slot_id = WorkerId(IDS[a as usize % IDS.len()]);
    match kind {
        0..=3 => {
            p.register_worker(worker(a, b, level));
            true
        }
        4 | 5 => match p.workers.get(slot_id) {
            Ok(w) => {
                let mut w = w.clone();
                if kind == 4 {
                    w.factors.logged_in = !w.factors.logged_in;
                } else {
                    w.factors.set_skill("translation", level);
                }
                p.register_worker(w);
                true
            }
            Err(_) => false,
        },
        6 => project.is_some_and(|id| {
            if p.project(id).is_ok_and(|proj| proj.declarative) {
                p.seed_fact(id, "flag", vec![Value::Id(slot_id.0)]).is_ok()
            } else {
                p.seed_fact(id, "sentence", vec![format!("s{b}").into()])
                    .is_ok()
            }
        }),
        7 => {
            if ids.len() + usize::from(held.is_some()) < 4 {
                register_project(p, b);
            }
            true
        }
        8 => project.is_some_and(|id| p.create_collab_task(id, format!("t{b}")).is_ok()),
        9 => project.is_some_and(|id| p.sync_tasks(id).is_ok()),
        _ => {
            // Migration round trip: the slice stays out for as long as the
            // generator takes to draw this step again, and comes back with
            // whatever cache it left with.
            match held.take() {
                Some(slice) => p.adopt_project(slice),
                None => *held = project.and_then(|id| p.extract_project(id).ok()),
            }
            true
        }
    }
}

/// Make `p` the reference: no cached eligible set, and every engine run a
/// full recompute.
fn as_reference(p: &mut Crowd4U) {
    for proj in p.projects.values_mut() {
        proj.eligible_cache = None;
        proj.engine.set_mode(EvalMode::SemiNaive);
    }
}

fn screen_from_scratch(p: &Crowd4U, project: ProjectId) -> Vec<WorkerId> {
    let factors = &p.project(project).expect("listed project").factors;
    p.workers
        .profiles()
        .filter(|w| eligibility::is_eligible(w, factors))
        .map(|w| w.id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_reads_equal_rescreened_reads(
        first_project in 0u8..6,
        steps in proptest::collection::vec(
            (0u8..11, 0u8..8, 0u8..8, 0.0f64..1.0, any::<bool>()),
            1..48,
        ),
    ) {
        let mut cached = Crowd4U::new();
        let mut twin = Crowd4U::new();
        // Five in six runs start with a project, so the first
        // registrations already meet a cache; the rest register one late.
        if first_project < 5 {
            register_project(&mut cached, first_project);
            register_project(&mut twin, first_project);
        }
        let (mut held, mut twin_held) = (None, None);
        let last = steps.len() - 1;
        for (i, step) in steps.iter().enumerate() {
            as_reference(&mut twin);
            let ok = apply(&mut cached, &mut held, step);
            prop_assert_eq!(ok, apply(&mut twin, &mut twin_held, step), "step {} {:?}", i, step);
            if step.4 || i == last {
                as_reference(&mut twin);
                for id in cached.project_ids() {
                    let got = cached.eligible_set(id).unwrap();
                    prop_assert_eq!(
                        &got, &twin.eligible_set(id).unwrap(),
                        "step {} {:?}: project {}", i, step, id
                    );
                    if !cached.project(id).unwrap().declarative {
                        prop_assert_eq!(
                            &got, &screen_from_scratch(&cached, id),
                            "step {} {:?}: project {}", i, step, id
                        );
                    }
                }
            }
            prop_assert_eq!(
                cached.journal().dump(), twin.journal().dump(),
                "journal after step {} {:?}", i, step
            );
            prop_assert_eq!(
                cached.state_dump(), twin.state_dump(),
                "state after step {} {:?}", i, step
            );
        }
    }
}
