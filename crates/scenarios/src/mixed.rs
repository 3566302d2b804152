//! Demo scenario 4: the **mixed** workload — all three §2.5 applications
//! interleaved by timestamp on one platform.
//!
//! The paper's pitch is precisely this shape: one declarative platform
//! hosting heterogeneous crowdsourcing applications (translation,
//! journalism, surveillance) *at the same time*, rather than one silo per
//! application. The mixed scenario records each scheme's event stream on
//! its own decision shadow ([`crate::stream::record_scheme`]), interleaves
//! the three streams by simulated time with per-scenario id remapping
//! ([`crate::stream::merge_traces`]), and applies the merged stream to a
//! single platform — the serial reference. `crowd4u-runtime::scenario`
//! pushes the identical stream through the ingestion gate instead, so the
//! three applications genuinely share one sharded runtime (their projects
//! land on different shards) and the merged journal is byte-identical to
//! this module's serial run.

use crate::config::{ScenarioConfig, ScenarioReport};
use crate::stream::{
    apply_stream, assemble_report, merge_traces, platform_side, record_scheme, PlatformSide,
    ScenarioTrace, SplitLedger,
};
use crowd4u_collab::Scheme;
use crowd4u_core::prelude::*;
use crowd4u_sim::time::SimDuration;
use std::fmt;

/// The mixed workload's report: one [`ScenarioReport`] per scheme (in
/// [`Scheme::all`] order) plus the cross-scheme aggregates a requester
/// dashboard would show.
#[derive(Debug, Clone)]
pub struct MixedReport {
    /// Per-scheme reports, in [`Scheme::all`] order.
    pub reports: Vec<ScenarioReport>,
    /// Items completed across all schemes.
    pub items_completed: usize,
    /// Items attempted across all schemes.
    pub items_total: usize,
    /// Crowd answers across all schemes.
    pub answers: u64,
    /// Points awarded across all schemes (the `points_of`-style aggregate
    /// over every project ledger).
    pub points_awarded: i64,
    /// The slowest scheme's makespan — the workload ran interleaved, so
    /// wall-clock is the maximum, not the sum.
    pub makespan: SimDuration,
}

impl MixedReport {
    /// Aggregate per-scheme reports into the combined view.
    pub fn combine(reports: Vec<ScenarioReport>) -> MixedReport {
        MixedReport {
            items_completed: reports.iter().map(|r| r.items_completed).sum(),
            items_total: reports.iter().map(|r| r.items_total).sum(),
            answers: reports.iter().map(|r| r.answers).sum(),
            points_awarded: reports.iter().map(|r| r.points_awarded).sum(),
            makespan: reports
                .iter()
                .map(|r| r.makespan)
                .max()
                .unwrap_or(SimDuration::ZERO),
            reports,
        }
    }
}

impl fmt::Display for MixedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mixed completed={}/{} answers={} points={} makespan={}",
            self.items_completed,
            self.items_total,
            self.answers,
            self.points_awarded,
            self.makespan
        )
    }
}

/// Record the three schemes' streams, each on its own decision shadow
/// under the shared config (one trace per scheme, [`Scheme::all`] order).
pub fn record(config: &ScenarioConfig) -> Result<Vec<ScenarioTrace>, PlatformError> {
    Scheme::all()
        .into_iter()
        .map(|scheme| record_scheme(scheme, config))
        .collect()
}

/// Build the per-scheme reports for a merged run from the authoritative
/// platform state: platform-side fields from `lookup` (which resolves a
/// project's owning platform slice — the platform itself here, an owner
/// shard in the runtime), crowd-side fields from each trace's shadow.
pub fn reports_from<E>(
    traces: &[ScenarioTrace],
    merged: &crate::stream::MergedStream,
    mut lookup: impl FnMut(ProjectId, &crate::stream::Completion) -> Result<PlatformSide, E>,
) -> Result<Vec<ScenarioReport>, E> {
    traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut side = PlatformSide::default();
            for local in &t.projects {
                side.absorb(lookup(merged.remaps[i].project(*local), &t.completion)?);
            }
            Ok(assemble_report(&t.shadow, side))
        })
        .collect()
}

/// Run the mixed workload serially: record, merge, apply to one fresh
/// platform, and rebuild the reports from that platform's per-project
/// state. This is the byte-level reference for the streamed run — the
/// sharded runtime's merged journal must equal this platform's journal.
pub fn run(config: &ScenarioConfig) -> Result<MixedReport, PlatformError> {
    let traces = record(config)?;
    let merged = merge_traces(&traces);
    let mut platform = Crowd4U::new();
    apply_stream(&mut platform, &merged)?;
    let reports = reports_from(&traces, &merged, |project, completion| {
        platform_side(&platform, project, completion)
    })?;
    Ok(MixedReport::combine(reports))
}

/// Build each trace's [`SplitLedger`] from the authoritative runtime:
/// `lookup` resolves one (authoritative) project's per-worker split off
/// its owning platform slice, and a trace's ledger absorbs all of its
/// projects' splits.
pub fn splits_from<E>(
    traces: &[ScenarioTrace],
    merged: &crate::stream::MergedStream,
    mut lookup: impl FnMut(ProjectId) -> Result<SplitLedger, E>,
) -> Result<Vec<SplitLedger>, E> {
    traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut ledger = SplitLedger::default();
            for local in &t.projects {
                ledger.absorb(lookup(merged.remaps[i].project(*local))?);
            }
            Ok(ledger)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ScenarioConfig {
        ScenarioConfig::default()
            .with_crowd(24)
            .with_items(2)
            .with_seed(13)
    }

    #[test]
    fn mixed_runs_all_three_schemes_on_one_platform() {
        let r = run(&cfg()).unwrap();
        assert_eq!(r.reports.len(), 3);
        let schemes: Vec<Scheme> = r.reports.iter().map(|x| x.scheme).collect();
        assert_eq!(schemes, Scheme::all().to_vec());
        assert_eq!(r.items_total, 6);
        assert!(r.items_completed > 0, "nothing completed: {r}");
        assert!(r.answers > 0);
        assert_eq!(
            r.points_awarded,
            r.reports.iter().map(|x| x.points_awarded).sum::<i64>()
        );
        assert_eq!(
            r.makespan,
            r.reports.iter().map(|x| x.makespan).max().unwrap()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run(&cfg()).unwrap();
        let b = run(&cfg()).unwrap();
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert_eq!(x.items_completed, y.items_completed);
            assert_eq!(x.answers, y.answers);
            assert_eq!(x.points_awarded, y.points_awarded);
            assert_eq!(x.makespan, y.makespan);
        }
    }

    #[test]
    fn interleaving_preserves_each_schemes_accounting() {
        // The three schemes share one platform but must not contaminate
        // each other's reports: each matches its standalone shadow run.
        let config = cfg();
        let r = run(&config).unwrap();
        for (got, scheme) in r.reports.iter().zip(Scheme::all()) {
            let want = crate::run_scheme(scheme, &config).unwrap();
            assert_eq!(got.items_completed, want.items_completed, "{scheme}");
            assert_eq!(got.answers, want.answers, "{scheme}");
            assert_eq!(got.teams_formed, want.teams_formed, "{scheme}");
            assert_eq!(got.reassignments, want.reassignments, "{scheme}");
            assert_eq!(got.points_awarded, want.points_awarded, "{scheme}");
            assert_eq!(got.makespan, want.makespan, "{scheme}");
        }
    }
}
