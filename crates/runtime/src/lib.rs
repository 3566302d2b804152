//! # crowd4u-runtime — the sharded parallel execution layer
//!
//! The platform core (`crowd4u-core`) executes on one thread. This crate
//! scales it out in two directions:
//!
//! * **across shards** — N shard threads, each owning an independent
//!   [`Crowd4U`](crowd4u_core::platform::Crowd4U) slice, partitioned by
//!   project ([`ShardedRuntime`]); and
//! * **across clients** — any number of producer threads submitting
//!   [`PlatformEvent`](crowd4u_core::events::PlatformEvent)s concurrently
//!   through cloned [`IngestGate`] handles, with a lock-free global
//!   sequence stamper and per-shard bounded mailboxes providing
//!   backpressure (block or typed error).
//!
//! The full design — layer map, event-sourcing rules, the determinism
//! contract, and the gate's ordering guarantees — is written down in the
//! repository's `ARCHITECTURE.md`; the module docs of [`gate`], [`router`]
//! and [`shard`] cover the mechanics. The short version:
//!
//! * **Ownership**: project-scoped events go to the owner shard only
//!   (round-robin by project id); clock, project and worker registrations
//!   are broadcast and applied by every shard in the same global sequence
//!   order, so replicated state (worker manager, project-id sequence)
//!   advances in lockstep. The coordinator (shard 0) records a
//!   broadcast; every other shard applies its copy without a journal
//!   entry and files the copy in its own ledger slot.
//! * **Determinism**: every event is stamped with a global sequence
//!   number; each mailbox is delivered in sequence order; the entries
//!   each slice journals are moved, seq-tagged, into the runtime's ledger
//!   (the one event history a running shard keeps) and stitched by
//!   [`EventJournal::merge_streams`](crowd4u_storage::journal::EventJournal::merge_streams).
//!   In coordinated-drain mode the merged journal is byte-identical to a
//!   serial run over the same sequence — even when the events were fanned
//!   in from many threads (`tests/shard_equivalence.rs` proptests both).
//!
//! ## A multi-submitter run
//!
//! Four client threads ingest answers for four projects concurrently; the
//! merged journal still replays to the exact final state:
//!
//! ```
//! use crowd4u_core::error::{ProjectId, TaskId, WorkerId};
//! use crowd4u_core::events::PlatformEvent;
//! use crowd4u_core::platform::Crowd4U;
//! use crowd4u_crowd::profile::WorkerProfile;
//! use crowd4u_forms::admin::DesiredFactors;
//! use crowd4u_runtime::prelude::*;
//!
//! let rt = ShardedRuntime::new(RuntimeConfig {
//!     shards: 2,
//!     drain_every: 0,     // coordinated mode: drains only at barriers
//!     mailbox_capacity: 64,
//!     recovery: false,    // shard panics propagate (set true to replay)
//! });
//!
//! // Register a worker and four single-question projects (broadcasts),
//! // then surface the micro-tasks with a drain barrier.
//! rt.submit(PlatformEvent::WorkerRegistered {
//!     profile: WorkerProfile::new(WorkerId(1), "ann"),
//! });
//! for p in 0..4 {
//!     rt.submit(PlatformEvent::ProjectRegistered {
//!         name: format!("proj-{p}"),
//!         source: "rel item(i: id).\nopen judge(i: id) -> (ok: bool) points 1.\n\
//!                  rel good(i: id).\ngood(I) :- item(I), judge(I, OK), OK = true.\n"
//!             .into(),
//!         factors: DesiredFactors::default(),
//!         scheme: crowd4u_collab::Scheme::Sequential,
//!         owner: 0,
//!     });
//!     rt.submit(PlatformEvent::FactSeeded {
//!         project: ProjectId(p + 1),
//!         pred: "item".into(),
//!         values: vec![1u64.into()],
//!     });
//! }
//! rt.drain();
//!
//! // Fan in answers from four concurrent submitter threads, one per
//! // project, each through its own cloned gate handle.
//! let mut clients = Vec::new();
//! for p in 1..=4u64 {
//!     let gate = rt.gate();
//!     clients.push(std::thread::spawn(move || {
//!         gate.submit(PlatformEvent::AnswerSubmitted {
//!             worker: WorkerId(1),
//!             task: TaskId::compose(ProjectId(p), 1),
//!             outputs: vec![true.into()],
//!         })
//!         .expect("runtime alive")
//!     }));
//! }
//! for c in clients {
//!     c.join().unwrap();
//! }
//!
//! rt.drain();
//! let run = rt.finish().unwrap();
//! assert_eq!(run.stats.applied, 13); // 1 worker + 4×(project, seed, answer)
//! assert_eq!(run.stats.dropped, 0);
//!
//! // The merged journal replays on one thread to the same state.
//! let replayed = Crowd4U::replay(&run.journal).unwrap();
//! assert_eq!(replayed.points_of(WorkerId(1)), 4);
//! ```
//!
//! ## Crash recovery, migration and chaos
//!
//! With `RuntimeConfig::recovery` on, a shard thread that panics is
//! respawned in place: its mailbox is held (blocking submitters park;
//! [`gate::GateError::Recovering`] on `try_submit`), its slice is rebuilt
//! by replaying the runtime-owned [ledger](recovery) — project events it
//! owns, and broadcasts (on a replica, the copies it filed there) — and
//! held traffic then resumes, with the merged journal
//! byte-identical to a run where the failure never happened
//! (`tests/recovery_equivalence.rs` proptests this). Projects can also be
//! rebalanced while the runtime runs:
//! [`ShardedRuntime::migrate_project`] quiesces one project, extracts it
//! from its shard, adopts it into another, and flips the routing table.
//! Deterministic crash schedules come from [`recovery::FaultPlan`],
//! handed to `ShardedRuntime::new_chaos_instrumented`.
//!
//! ## Scenario streaming
//!
//! [`scenario::run_scenarios`] runs the §2.5 demo workloads **through the
//! gate**: each scenario's decision logic executes once on its own
//! shadow [`Driver`](crowd4u_scenarios::Driver) (recording is parallel
//! across jobs), and the recorded, timestamp-interleaved event streams
//! are pushed through cloned [`IngestGate`] handles — so one scenario's
//! projects span shards, several scenarios share one runtime, and the
//! merged journal stays byte-identical to a serial run. See the
//! [`scenario`] module docs and `docs/SCENARIOS.md` for the authoring
//! guide.

pub mod gate;
pub mod recovery;
pub mod router;
pub mod scenario;
pub mod shard;

pub use gate::{GateError, IngestGate};
pub use recovery::FaultPlan;
pub use router::{RunReport, RuntimeConfig, ShardedRuntime};
pub use shard::ShardStats;

pub mod prelude {
    pub use crate::gate::{GateError, IngestGate};
    pub use crate::recovery::FaultPlan;
    pub use crate::router::{RunReport, RuntimeConfig, ShardedRuntime};
    pub use crate::scenario::{run_mixed, run_scenarios, stream_traces, stream_traces_shared};
    pub use crate::shard::ShardStats;
}
