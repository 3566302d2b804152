//! The platform's counts, one typed field each, bumped by one statement.
//!
//! [`PlatformCounters`] holds the counts of one platform instance (a
//! sharded runtime's slice counts its own); [`ProjectCounters`] is a field
//! of each [`Project`](crate::platform::Project), so a project's counts
//! move with it when it migrates. Both are volatile bookkeeping: never
//! journaled and never in [`Crowd4U::state_dump`], so a replay counts
//! again. The seven counts that telemetry exports are [`Exported`] fields.
//!
//! [`Crowd4U::state_dump`]: crate::platform::Crowd4U::state_dump

use crate::error::WorkerId;
use crowd4u_telemetry::{Counter, TelemetryHandle};
use std::collections::BTreeMap;
use std::fmt;

/// A count telemetry also exports, as `crowd4u_core_<field>_total`: the
/// value and its telemetry cell, bumped together by one `add`.
#[derive(Clone, Default)]
pub struct Exported(u64, Counter);

impl Exported {
    pub fn get(&self) -> u64 {
        self.0
    }

    pub(crate) fn add(&mut self, n: u64) {
        self.0 += n;
        self.1.add(n);
    }
}

impl fmt::Debug for Exported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Platform-wide counts, read through
/// [`Crowd4U::counters`](crate::platform::Crowd4U::counters).
#[derive(Clone, Debug, Default)]
pub struct PlatformCounters {
    /// Journal entries appended, `drain` entries included.
    pub events_journaled: u64,
    /// Events [`apply_event`](crate::platform::Crowd4U::apply_event)
    /// applied (a recovery's replay included) and rejected.
    pub events_applied: Exported,
    pub events_dropped: Exported,
    pub batches_applied: u64,
    pub workers_registered: u64,
    pub projects_registered: u64,
    pub micro_tasks_generated: u64,
    pub micro_tasks_completed: u64,
    pub collab_tasks_created: u64,
    pub collab_tasks_completed: u64,
    pub interest_expressed: u64,
    pub teams_suggested: u64,
    pub assignment_infeasible: u64,
    pub teams_started: u64,
    pub deadlines_missed: u64,
    pub tasks_abandoned: u64,
    pub eligibility_errors: u64,
    pub eligibility_cache_hits: Exported,
    pub eligibility_cache_misses: Exported,
    pub eligibility_cache_patches: Exported,
    /// Pair affinities the assignment path computed, and read back from
    /// the worker manager's pair memo.
    pub affinity_pairs_computed: Exported,
    pub affinity_pairs_reused: Exported,
}

impl PlatformCounters {
    /// Point the exported counts at `handle`'s cells. The values are kept;
    /// the cells count from here on.
    pub(crate) fn attach(&mut self, handle: &TelemetryHandle) {
        let cell = |field: &str| handle.counter(&format!("crowd4u_core_{field}_total"));
        self.events_applied.1 = cell("events_applied");
        self.events_dropped.1 = cell("events_dropped");
        self.eligibility_cache_hits.1 = cell("eligibility_cache_hits");
        self.eligibility_cache_misses.1 = cell("eligibility_cache_misses");
        self.eligibility_cache_patches.1 = cell("eligibility_cache_patches");
        self.affinity_pairs_computed.1 = cell("affinity_pairs_computed");
        self.affinity_pairs_reused.1 = cell("affinity_pairs_reused");
    }

    /// Every count with its field name, in declaration order.
    pub fn named(&self) -> [(&'static str, u64); 22] {
        [
            ("events_journaled", self.events_journaled),
            ("events_applied", self.events_applied.0),
            ("events_dropped", self.events_dropped.0),
            ("batches_applied", self.batches_applied),
            ("workers_registered", self.workers_registered),
            ("projects_registered", self.projects_registered),
            ("micro_tasks_generated", self.micro_tasks_generated),
            ("micro_tasks_completed", self.micro_tasks_completed),
            ("collab_tasks_created", self.collab_tasks_created),
            ("collab_tasks_completed", self.collab_tasks_completed),
            ("interest_expressed", self.interest_expressed),
            ("teams_suggested", self.teams_suggested),
            ("assignment_infeasible", self.assignment_infeasible),
            ("teams_started", self.teams_started),
            ("deadlines_missed", self.deadlines_missed),
            ("tasks_abandoned", self.tasks_abandoned),
            ("eligibility_errors", self.eligibility_errors),
            ("eligibility_cache_hits", self.eligibility_cache_hits.0),
            ("eligibility_cache_misses", self.eligibility_cache_misses.0),
            (
                "eligibility_cache_patches",
                self.eligibility_cache_patches.0,
            ),
            ("affinity_pairs_computed", self.affinity_pairs_computed.0),
            ("affinity_pairs_reused", self.affinity_pairs_reused.0),
        ]
    }
}

/// One project's counts: what scenario accounting reads when several
/// workloads share one platform, where a global delta cannot say which
/// scenario formed a team.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProjectCounters {
    pub answers: u64,
    pub teams_suggested: u64,
    pub deadlines_missed: u64,
    pub tasks_abandoned: u64,
    pub collab_completed: u64,
    pub eligibility_errors: u64,
    /// Per worker, the completed collaborative tasks they were a team
    /// member of: each completion's team decomposes exactly into these.
    pub collabs: BTreeMap<WorkerId, u64>,
}

impl ProjectCounters {
    /// Every scalar count with its field name, in declaration order.
    pub fn named(&self) -> [(&'static str, u64); 6] {
        [
            ("answers", self.answers),
            ("teams_suggested", self.teams_suggested),
            ("deadlines_missed", self.deadlines_missed),
            ("tasks_abandoned", self.tasks_abandoned),
            ("collab_completed", self.collab_completed),
            ("eligibility_errors", self.eligibility_errors),
        ]
    }
}
