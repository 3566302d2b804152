//! # crowd4u-scenarios — the three demonstration applications of §2.5
//!
//! Reusable, seeded workloads built on the full platform stack:
//!
//! * [`translation`] — video subtitle generation + translation
//!   (**sequential** collaboration: chained CyLog open predicates
//!   transcribe → translate → review);
//! * [`journalism`] — citizen journalism (**simultaneous** collaboration:
//!   SNS-id protocol + shared workspace, one submitter per team);
//! * [`surveillance`] — geographic surveillance (**hybrid**: sequential
//!   observation/correction + simultaneous testimonials);
//! * [`mixed`] — all three applications interleaved by timestamp on one
//!   platform (the paper's "many heterogeneous applications, one
//!   declarative platform" shape), built on the [`stream`] layer that
//!   records a scenario's event stream for replay through a sharded
//!   runtime's ingestion gate (see `docs/SCENARIOS.md`).
//!
//! Each scenario takes a [`config::ScenarioConfig`] and returns a
//! [`config::ScenarioReport`] with completion counts, quality, makespan,
//! team metrics and points. The examples and the benchmark harness both
//! consume these entry points, so paper experiments E1/E5/E9 are a single
//! function call.

pub mod config;
pub mod driver;
pub mod journalism;
pub mod mixed;
pub mod stream;
pub mod surveillance;
pub mod translation;

pub use config::{ScenarioConfig, ScenarioReport};
pub use driver::Driver;
pub use mixed::MixedReport;
pub use stream::{merge_traces, record_scheme, ScenarioTrace};

use crowd4u_collab::Scheme;
use crowd4u_core::prelude::PlatformError;

/// Run one scenario by scheme (convenience for sweeps).
pub fn run_scheme(
    scheme: Scheme,
    config: &ScenarioConfig,
) -> Result<ScenarioReport, PlatformError> {
    match scheme {
        Scheme::Sequential => translation::run(config),
        Scheme::Simultaneous => journalism::run(config),
        Scheme::Hybrid => surveillance::run(config),
    }
}

/// Run one scenario by scheme on a prepared [`Driver`], so several
/// schemes can share one driver's crowd and platform (the recording half
/// of scenario streaming does this; see `crowd4u_runtime::scenario`).
pub fn run_scheme_on(
    d: &mut Driver,
    scheme: Scheme,
    config: &ScenarioConfig,
) -> Result<ScenarioReport, PlatformError> {
    match scheme {
        Scheme::Sequential => translation::run_on(d, config),
        Scheme::Simultaneous => journalism::run_on(d, config),
        Scheme::Hybrid => surveillance::run_on(d, config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_scheme_dispatches_all_three() {
        let cfg = ScenarioConfig::default()
            .with_crowd(30)
            .with_items(2)
            .with_seed(2);
        for scheme in Scheme::all() {
            let r = run_scheme(scheme, &cfg).unwrap();
            assert_eq!(r.scheme, scheme);
            assert_eq!(r.items_total, 2);
        }
    }

    /// The paper's §1 claim in miniature: each scheme is *appropriate* for
    /// its task type. We verify the structural signature: sequential does
    /// ≥3 passes per item (transcribe/translate/review); simultaneous
    /// parallelises (makespan per item lower than sequential); hybrid
    /// produces both facts and testimonials (most answers per item).
    #[test]
    fn scheme_signatures_match_paper_claims() {
        let cfg = ScenarioConfig::default()
            .with_crowd(60)
            .with_items(4)
            .with_seed(33);
        let seq = translation::run(&cfg).unwrap();
        let sim = journalism::run(&cfg).unwrap();
        let hyb = surveillance::run(&cfg).unwrap();
        if seq.items_completed > 0 {
            assert!(seq.answers >= 3 * seq.items_completed as u64);
        }
        if sim.items_completed > 0 && seq.items_completed > 0 {
            let sim_per_item = sim.makespan.ticks() as f64 / sim.items_completed as f64;
            let seq_per_item = seq.makespan.ticks() as f64 / seq.items_completed as f64;
            assert!(
                sim_per_item < seq_per_item * 3.0,
                "simultaneous should not be drastically slower per item \
                 (sim {sim_per_item}, seq {seq_per_item})"
            );
        }
        if hyb.items_completed > 0 {
            assert!(hyb.answers as usize >= hyb.items_completed * 3);
        }
    }
}
