//! The equivalence oracle: one way to run the runtime ([`Run`]), one
//! reference ([`Reference`]), one check ([`assert_equivalent`]), and the
//! op-list shrinker a failing check runs ([`shrinking`]).

use super::RawOp;
use crowd4u::core::error::{PlatformError, ProjectId};
use crowd4u::core::events::{EventScope, PlatformEvent};
use crowd4u::core::platform::Crowd4U;
use crowd4u::runtime::prelude::*;
use crowd4u::runtime::router::shards_from_env;
use crowd4u::runtime::RunReport;
use crowd4u::scenarios::stream::{apply_stream, MergedStream, StreamOp};
use crowd4u::storage::snapshot;
use crowd4u::telemetry::{MetricsSnapshot, Registry};
use proptest::test_runner::TestCaseError;
use proptest::{prop_assert, prop_assert_eq};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The shard counts a suite sweeps: `base`, plus `RUNTIME_SHARDS` when it
/// is set to a count `base` does not hold. The one reader of that variable
/// among the suites.
pub fn shard_counts(base: &[usize]) -> Vec<usize> {
    let env = Some(shards_from_env(0)).filter(|n| *n > 0 && !base.contains(n));
    base.iter().copied().chain(env).collect()
}

/// How a run treats telemetry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Telemetry {
    /// A live registry, every stage recording.
    On,
    /// [`Registry::disabled`]: every cell a no-op.
    Off,
    /// A live registry, scraped and rendered after every drain while the
    /// shard threads run.
    Scraped,
}

/// One runtime configuration: [`Run::at`] a shard count, then a setter
/// per field that differs, `Run::at(4).drain_every(3).faults(plan)`.
#[derive(Clone, Debug)]
pub struct Run {
    shards: usize,
    /// 0 for coordinated drains, K to auto-drain every K mailbox events.
    drain_every: usize,
    capacity: usize,
    telemetry: Telemetry,
    /// A plan with a kill point turns recovery on.
    faults: FaultPlan,
    /// Recovery on without a fault plan (a run that crashes a shard by a
    /// job panic).
    recovery: bool,
    /// 1 submits every batch in order; 4 submits the first batch, then
    /// deals the others round-robin to four threads of their own.
    submitters: usize,
    /// Between the first and the second batch, move this project to this
    /// shard (refused while the project is not registered yet).
    migrate: Option<(ProjectId, usize)>,
}

/// `Run::field(self, value)` for each field named.
macro_rules! setters {
    ($($field:ident: $ty:ty),*) => {$(
        pub fn $field(self, $field: $ty) -> Run {
            Run { $field, ..self }
        }
    )*};
}

/// A finished run.
pub struct Outcome {
    pub report: RunReport,
    /// The registry after `finish` (empty with telemetry off).
    pub metrics: MetricsSnapshot,
    /// The migration that happened: the project and its new owner.
    pub moved: Option<(ProjectId, usize)>,
    /// The configuration, for failure messages.
    pub label: String,
}

impl Run {
    /// `shards` shards, coordinated drains, 1 024-slot mailboxes, telemetry
    /// on, no fault, recovery off, one submitter, no migration.
    pub fn at(shards: usize) -> Run {
        Run {
            shards,
            drain_every: 0,
            capacity: 1024,
            telemetry: Telemetry::On,
            faults: FaultPlan::none(),
            recovery: false,
            submitters: 1,
            migrate: None,
        }
    }

    setters!(drain_every: usize, capacity: usize, telemetry: Telemetry, faults: FaultPlan,
        recovery: bool, submitters: usize, migrate: Option<(ProjectId, usize)>);

    /// Run `feed` on a fresh runtime of this configuration and finish it.
    pub fn run<T>(&self, feed: impl FnOnce(&ShardedRuntime) -> T) -> (Outcome, T) {
        let registry = match self.telemetry {
            Telemetry::Off => Registry::disabled(),
            _ => Registry::new(),
        };
        let config = RuntimeConfig {
            shards: self.shards,
            drain_every: self.drain_every,
            mailbox_capacity: self.capacity,
            recovery: self.recovery || !self.faults.is_empty(),
        };
        let rt =
            ShardedRuntime::new_chaos_instrumented(config, registry.clone(), self.faults.clone());
        let fed = feed(&rt);
        let report = rt.finish().expect("runtime alive");
        let outcome = Outcome {
            report,
            metrics: registry.snapshot(),
            moved: None,
            label: format!("{self:?}"),
        };
        (outcome, fed)
    }

    /// Submit `batches`, a drain after each (the first batch, then every
    /// submitter's share, with four), migrating between the first and the
    /// second. Returns the batches as the gate sequenced them: what a
    /// serial platform must apply, one `apply_batch` each, to be the
    /// reference.
    pub fn batches(&self, batches: &[Vec<PlatformEvent>]) -> (Outcome, Vec<Vec<PlatformEvent>>) {
        let (mut outcome, (sequenced, moved)) = self.run(|rt| {
            let submit = |batch: &[PlatformEvent]| {
                rt.submit_batch(batch.to_vec());
                rt.drain();
                if self.telemetry == Telemetry::Scraped {
                    let _ = rt.metrics().render();
                }
            };
            let (first, rest) = batches.split_first().expect("a first batch");
            submit(first);
            let moved = self.migrate.filter(|&(project, to)| {
                let moved = rt.migrate_project(project, to);
                let unknown = Err(PlatformError::UnknownProject(project));
                assert!(moved.is_ok() || moved == unknown, "{moved:?}");
                moved.is_ok() && rt.owner_of(project) == to
            });
            if self.submitters == 1 {
                rest.iter().for_each(|batch| submit(batch));
                return (batches.to_vec(), moved);
            }
            // Deal the rest round-robin to the submitters, each through a
            // gate handle of its own, and sort what they stamped by seq.
            let mut stamped: Vec<(u64, PlatformEvent)> = std::thread::scope(|scope| {
                let threads: Vec<_> = (0..self.submitters)
                    .map(|k| {
                        let gate = rt.gate();
                        let share = rest.iter().skip(k).step_by(self.submitters).flatten();
                        scope.spawn(move || {
                            let stamp = |e: &PlatformEvent| gate.submit(e.clone()).expect("alive");
                            share.map(|e| (stamp(e), e.clone())).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .flat_map(|t| t.join().expect("submitter"))
                    .collect()
            });
            submit(&[]);
            stamped.sort_by_key(|(seq, _)| *seq);
            let stamped = stamped.into_iter().map(|(_, e)| e).collect();
            (vec![first.clone(), stamped], moved)
        });
        outcome.moved = moved;
        (outcome, sequenced)
    }
}

/// What a run must equal: a serial platform's, or a fault-free run's with
/// the same routing (which adds every slice's dump).
pub struct Reference {
    pub journal: String,
    pub state: String,
    pub dropped: u64,
    pub submitted: u64,
    /// Each slice's `state_dump()`, for a runtime reference.
    pub slices: Option<Vec<String>>,
}

impl Reference {
    /// A serial platform that was submitted `submitted` events and dropped
    /// `dropped` of them.
    pub fn of(platform: &Crowd4U, dropped: u64, submitted: usize) -> Reference {
        Reference {
            journal: platform.journal().dump(),
            state: platform.state_dump(),
            dropped,
            submitted: submitted as u64,
            slices: None,
        }
    }

    /// The serial platform, `batches` applied one `apply_batch` each.
    pub fn serial(batches: &[Vec<PlatformEvent>]) -> Reference {
        let mut platform = Crowd4U::new();
        let mut dropped =
            |batch: &Vec<_>| platform.apply_batch(batch.clone()).unwrap().errors.len();
        let dropped = batches.iter().map(&mut dropped).sum::<usize>() as u64;
        Reference::of(&platform, dropped, batches.iter().map(Vec::len).sum())
    }

    /// The serial platform a merged scenario stream is applied to by one
    /// thread.
    pub fn stream(merged: &MergedStream) -> Reference {
        let mut platform = Crowd4U::new();
        let dropped = apply_stream(&mut platform, merged).expect("serial apply");
        let events = merged
            .ops
            .iter()
            .filter(|(_, op)| matches!(op, StreamOp::Event(_)))
            .count();
        Reference::of(&platform, dropped, events)
    }

    /// A fault-free run that was submitted `submitted` events (and must
    /// account for each): its journal, replay, drops and slices.
    pub fn run(outcome: &Outcome, submitted: usize) -> Reference {
        let report = &outcome.report;
        let stats = report.stats;
        assert_eq!(
            stats.applied + stats.dropped,
            submitted as u64,
            "reference accounting: {}",
            outcome.label
        );
        Reference {
            journal: report.journal.dump(),
            state: Crowd4U::replay(&report.journal)
                .expect("reference replays")
                .state_dump(),
            dropped: stats.dropped,
            submitted: submitted as u64,
            slices: Some(report.platforms.iter().map(Crowd4U::state_dump).collect()),
        }
    }
}

/// The contract: `run` equals `reference`, checked in this order —
///
/// 1. the merged journal, byte for byte;
/// 2. the journal's replay, by `state_dump()`;
/// 3. the accounting: the same drops, and applied + dropped = submitted;
/// 4. every slice's own journal is empty;
/// 5. against a runtime reference, unless the run migrated, every slice's
///    `state_dump()`;
/// 6. each replayed project's engine database against its owner slice's.
///
/// A failure names the part that differs and, for text, the first line
/// that differs on each side. Returns the replay.
pub fn assert_equivalent(
    reference: &Reference,
    run: &Outcome,
    leg: &str,
) -> Result<Crowd4U, TestCaseError> {
    let label = format!("{leg}: {}", run.label);
    let same = |part: &str, got: &str, want: &str| same(part, got, want, &label);
    let report = &run.report;
    same("journal", &report.journal.dump(), &reference.journal)?;
    let replayed = Crowd4U::replay(&report.journal).expect("a merged journal replays");
    same("replayed state", &replayed.state_dump(), &reference.state)?;
    let (applied, dropped) = (report.stats.applied, report.stats.dropped);
    prop_assert!(
        dropped == reference.dropped && applied + dropped == reference.submitted,
        "accounting differs: applied {} + dropped {}, reference dropped {} of {}: {}",
        applied,
        dropped,
        reference.dropped,
        reference.submitted,
        label
    );
    for (k, slice) in report.platforms.iter().enumerate() {
        prop_assert!(
            slice.journal().is_empty(),
            "slice {} kept journal entries: {}",
            k,
            label
        );
    }
    if let (Some(slices), None) = (&reference.slices, run.moved) {
        prop_assert_eq!(
            slices.len(),
            report.platforms.len(),
            "slice count: {}",
            label
        );
        for (k, (slice, want)) in report.platforms.iter().zip(slices).enumerate() {
            same(&format!("slice {k}"), &slice.state_dump(), want)?;
        }
    }
    for id in replayed.project_ids() {
        let owner = match run.moved {
            Some((project, to)) if project == id => to,
            _ => (id.0 as usize - 1) % report.platforms.len(),
        };
        let database = |p: &Crowd4U| {
            let project = p.project(id);
            project.map_or_else(|e| e.to_string(), |p| snapshot::dump(p.engine.database()))
        };
        let part = format!("project {id}'s database on owner slice {owner}");
        same(
            &part,
            &database(&report.platforms[owner]),
            &database(&replayed),
        )?;
    }
    Ok(replayed)
}

/// [`assert_equivalent`] for a plain `#[test]`: panics with the message.
pub fn expect_equivalent(reference: &Reference, run: &Outcome, leg: &str) -> Crowd4U {
    assert_equivalent(reference, run, leg).unwrap_or_else(|e| panic!("{e}"))
}

/// `got` equals `want`, or a failure naming `part`, the first line that
/// differs and that line of each side.
fn same(part: &str, got: &str, want: &str, label: &str) -> Result<(), TestCaseError> {
    if got == want {
        return Ok(());
    }
    let n = got
        .lines()
        .zip(want.lines())
        .take_while(|(a, b)| a == b)
        .count();
    let line = |text: &str| text.lines().nth(n).unwrap_or("<end>").to_owned();
    Err(TestCaseError::fail(format!(
        "{part} differs at line {}:\n       run: {}\n reference: {}\n({label})",
        n + 1,
        line(got),
        line(want)
    )))
}

/// How many of `events` the recorder of `shard` (of `shards`) applies:
/// the broadcasts on shard 0, a project's events on its round-robin owner.
/// An upper bound on the shard's recorded applies, which drop what the
/// platform refuses.
pub fn routed_to<'a>(
    events: impl IntoIterator<Item = &'a PlatformEvent>,
    shard: usize,
    shards: usize,
) -> u64 {
    let recorder = |e: &PlatformEvent| match e.scope() {
        EventScope::Global => 0,
        EventScope::Project(p) => (p.0 as usize - 1) % shards,
    };
    events.into_iter().filter(|e| recorder(e) == shard).count() as u64
}

/// A kill point at `fraction` (in `0..1`) of `applies`: in `1..=applies`,
/// so it fires anywhere in the stream, or 1 when the shard applies nothing
/// (a plan that never fires).
pub fn kill_point(applies: u64, fraction: f64) -> u64 {
    1 + (applies as f64 * fraction) as u64
}

/// The most re-runs [`shrinking`] spends on one failure.
pub const SHRINK_RERUNS: usize = 64;

/// Remove chunks of `input` while `fails` still holds on the rest (ddmin:
/// halves, then quarters, and so on, down to single items), calling
/// `fails` at most `cap` times. Returns the smallest failing list found
/// and the calls made.
pub fn shrink<T: Clone>(
    input: &[T],
    cap: usize,
    mut fails: impl FnMut(&[T]) -> bool,
) -> (Vec<T>, usize) {
    let mut list = input.to_vec();
    let mut chunks = 2;
    let mut calls = 0;
    while !list.is_empty() && calls < cap {
        let size = list.len().div_ceil(chunks);
        let mut reduced = false;
        for start in (0..list.len()).step_by(size) {
            if calls == cap {
                break;
            }
            let rest: Vec<T> = list[..start]
                .iter()
                .chain(list.get(start + size..).unwrap_or_default())
                .cloned()
                .collect();
            calls += 1;
            if fails(&rest) {
                list = rest;
                chunks = (chunks - 1).max(2);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if chunks >= list.len() {
                break;
            }
            chunks = (chunks * 2).min(list.len());
        }
    }
    (list, calls)
}

/// Check `property` on `ops`. On a failure (a returned error or a panic),
/// shrink the op list with [`shrink`], print the smallest list that still
/// fails, and fail with the original failure.
pub fn shrinking(
    ops: &[RawOp],
    property: impl Fn(&[RawOp]) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let check = |ops: &[RawOp]| catch_unwind(AssertUnwindSafe(|| property(ops)));
    let first = check(ops);
    if matches!(first, Ok(Ok(()))) {
        return Ok(());
    }
    let (smallest, reruns) = shrink(ops, SHRINK_RERUNS, |ops| !matches!(check(ops), Ok(Ok(()))));
    eprintln!(
        "smallest failing op list ({} of {} ops, {reruns} re-runs): {smallest:?}",
        smallest.len(),
        ops.len()
    );
    first.unwrap_or_else(|panic| resume_unwind(panic))
}
