//! Property: the lazy [`AffinityProvider`] is *observationally identical*
//! to the dense matrix it replaced. For any random population (profiles
//! with random geo / fluency / skill factors):
//!
//! * single-pair queries return values **bit-identical** to
//!   `affinity_from_profiles` over the ascending-id population — the
//!   provider canonicalises pair order, so the last-ulp-sensitive
//!   skill-union sum matches the dense builder exactly;
//! * candidate submatrices over arbitrary subsets are bit-identical to
//!   the corresponding dense entries;
//! * the pair cache never changes an answer: a warm sweep returns every
//!   cold value bit for bit, and `cached_entries()` counts each distinct
//!   pair probed twice (once under each endpoint) — what the benchmark's
//!   `crowd.affinity.cached_entries` reads;
//! * the same bit-identity holds through the sharded runtime: every
//!   shard's replica (each registration is a broadcast the replica
//!   installs from its mailbox) computes the same team affinities as a
//!   serial platform.
//!   Set `RUNTIME_SHARDS` to test an extra shard count (CI runs with
//!   `RUNTIME_SHARDS=4`).

use crowd4u::crowd::affinity::{affinity_from_profiles, AffinityLookup, AffinityProvider};
use crowd4u::crowd::profile::{Region, WorkerId, WorkerProfile};
use proptest::prelude::*;

/// Raw generated factors of one worker: id gap, geo, three fluencies, two
/// skill levels.
type RawWorker = (u64, (f64, f64), (f64, f64, f64), (f64, f64));

/// Build a population with distinct ascending ids (prefix sums of the
/// generated gaps) — the order `WorkerManager` stores and the dense
/// builder's bit-exactness contract assumes.
fn population(raw: &[RawWorker]) -> Vec<WorkerProfile> {
    let mut id = 0u64;
    raw.iter()
        .map(|(gap, (x, y), fluency, skills)| {
            id += 1 + gap % 5;
            WorkerProfile::new(WorkerId(id), format!("w{id}"))
                .with_region(Region::new(format!("r{}", id % 3), *x, *y))
                .with_fluency("en", fluency.0)
                .with_fluency("ja", fluency.1)
                .with_fluency("xh", fluency.2)
                .with_skill("survey", skills.0)
                .with_skill("drafting", skills.1)
        })
        .collect()
}

fn raw_workers() -> impl Strategy<Value = Vec<RawWorker>> {
    proptest::collection::vec(
        (
            0u64..20,
            (0.0f64..1.0, 0.0f64..1.0),
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            (0.0f64..1.0, 0.0f64..1.0),
        ),
        2..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pair queries and subset submatrices are bit-identical to the dense
    /// matrix, and the cache holds each distinct pair probed under both
    /// endpoints.
    #[test]
    fn provider_is_bit_identical_to_the_dense_matrix(
        raw in raw_workers(),
        subset_mask in proptest::collection::vec(any::<bool>(), 2..12),
        (wg, wl, ws) in (0.1f64..2.0, 0.1f64..2.0, 0.1f64..2.0),
    ) {
        let pop = population(&raw);
        let dense = affinity_from_profiles(&pop, wg, wl, ws);
        let mut provider = AffinityProvider::new(wg, wl, ws);

        // Every pair, twice: a cold sweep, then a warm one served from the
        // cache. Both must equal the dense entry bit for bit, so every warm
        // value is its cold value.
        for _round in 0..2 {
            for a in &pop {
                for b in &pop {
                    let got = provider.pair(a, b);
                    let want = if a.id == b.id { 0.0 } else { dense.affinity(a.id, b.id) };
                    prop_assert_eq!(
                        got.to_bits(), want.to_bits(),
                        "pair ({:?}, {:?}): {} vs {}", a.id, b.id, got, want
                    );
                }
            }
        }
        let distinct_pairs = pop.len() * (pop.len() - 1) / 2;
        prop_assert_eq!(provider.cached_entries(), 2 * distinct_pairs);

        // A random subset's submatrix matches the dense entries bitwise.
        let subset: Vec<&WorkerProfile> = pop
            .iter()
            .enumerate()
            .filter(|(i, _)| *subset_mask.get(*i).unwrap_or(&false))
            .map(|(_, p)| p)
            .collect();
        let sub = provider.submatrix(&subset);
        for a in &subset {
            for b in &subset {
                if a.id != b.id {
                    prop_assert_eq!(
                        sub.affinity(a.id, b.id).to_bits(),
                        dense.affinity(a.id, b.id).to_bits()
                    );
                }
            }
        }
    }

    /// Runtime parity: shard replicas fed by the coordinator-owned worker
    /// service compute team affinities bit-identical to a serial platform.
    #[test]
    fn shard_replicas_answer_identical_team_affinities(
        raw in raw_workers(),
        team_mask in proptest::collection::vec(any::<bool>(), 2..12),
    ) {
        use crowd4u::core::events::PlatformEvent;
        use crowd4u::core::platform::Crowd4U;
        use crowd4u::runtime::prelude::*;

        let pop = population(&raw);
        let mut serial = Crowd4U::new();
        for p in &pop {
            serial
                .apply_event(PlatformEvent::WorkerRegistered { profile: p.clone() })
                .unwrap();
        }
        let team: Vec<WorkerId> = pop
            .iter()
            .enumerate()
            .filter(|(i, _)| *team_mask.get(*i).unwrap_or(&false))
            .map(|(_, p)| p.id)
            .collect();
        let want = serial.workers.team_affinity(&team);

        let mut shard_counts = vec![1usize, 2, 4];
        let env_shards = crowd4u::runtime::router::shards_from_env(0);
        if env_shards > 0 && !shard_counts.contains(&env_shards) {
            shard_counts.push(env_shards);
        }
        for shards in shard_counts {
            let rt = ShardedRuntime::new(RuntimeConfig {
                shards,
                drain_every: 0,
                mailbox_capacity: 256,
                recovery: false,
            });
            rt.submit_batch(
                pop.iter()
                    .map(|p| PlatformEvent::WorkerRegistered { profile: p.clone() })
                    .collect::<Vec<_>>(),
            );
            let run = rt.finish().unwrap();
            for (i, platform) in run.platforms.iter().enumerate() {
                let got = platform.workers.team_affinity(&team);
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "shard {}/{} team affinity {} vs serial {}", i, shards, got, want
                );
            }
        }
    }
}
