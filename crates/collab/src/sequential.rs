//! Sequential collaboration: "team members collaborate with each other
//! through the tasks dynamically generated based on other members' task
//! results. For example, after a worker translates a sentence into another
//! language, a task for checking the result is dynamically generated, and
//! the result is sent to another team member." (§2.3)

use crate::quality::sequential_improve;
use crowd4u_crowd::profile::WorkerId;
use std::fmt;

/// What kind of pass a stage performs (labels for reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Produce the initial artifact (transcribe, draft, observe).
    Produce,
    /// Improve/repair the current artifact (translate pass, fix).
    Improve,
    /// Check and certify (verify).
    Verify,
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StageKind::Produce => "produce",
            StageKind::Improve => "improve",
            StageKind::Verify => "verify",
        })
    }
}

/// One entry in an artifact's provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    pub worker: WorkerId,
    pub kind: StageKind,
    pub quality_after: f64,
}

/// The work product travelling through a sequential pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    pub content: String,
    pub quality: f64,
    pub history: Vec<Pass>,
}

impl Artifact {
    /// Create the initial artifact from a producer's contribution.
    pub fn produced_by(worker: WorkerId, content: impl Into<String>, quality: f64) -> Artifact {
        let q = quality.clamp(0.0, 1.0);
        Artifact {
            content: content.into(),
            quality: q,
            history: vec![Pass {
                worker,
                kind: StageKind::Produce,
                quality_after: q,
            }],
        }
    }

    pub fn passes(&self) -> usize {
        self.history.len()
    }

    /// Workers who touched the artifact, in order, without duplicates.
    pub fn contributors(&self) -> Vec<WorkerId> {
        let mut out = Vec::new();
        for p in &self.history {
            if !out.contains(&p.worker) {
                out.push(p.worker);
            }
        }
        out
    }
}

/// Plan of a sequential pipeline: the ordered stage kinds after production.
/// The classic find-fix-verify pattern (Bernstein et al., the pattern §1
/// cites for crowd-powered authoring) is `[Improve, Verify]`, which is
/// [`SequentialPipeline::translation`]`(1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialPipeline {
    pub stages: Vec<StageKind>,
}

impl SequentialPipeline {
    /// Translation pipeline: improve passes then a verify pass.
    pub fn translation(rounds: usize) -> SequentialPipeline {
        let mut stages = vec![StageKind::Improve; rounds.max(1)];
        stages.push(StageKind::Verify);
        SequentialPipeline { stages }
    }

    pub fn len(&self) -> usize {
        self.stages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

/// Error from advancing a sequential flow.
#[derive(Debug, Clone, PartialEq)]
pub enum SequentialError {
    /// All stages already executed.
    Complete,
    /// The same worker may not perform two consecutive passes — sequential
    /// collaboration is about *each other's* contributions (§2.3).
    SameWorkerTwice(WorkerId),
}

impl fmt::Display for SequentialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SequentialError::Complete => f.write_str("pipeline already complete"),
            SequentialError::SameWorkerTwice(w) => {
                write!(f, "worker {w} cannot perform two consecutive passes")
            }
        }
    }
}

/// A sequential collaboration in progress.
#[derive(Debug, Clone)]
pub struct SequentialFlow {
    pipeline: SequentialPipeline,
    artifact: Artifact,
    next_stage: usize,
}

impl SequentialFlow {
    pub fn start(pipeline: SequentialPipeline, artifact: Artifact) -> SequentialFlow {
        SequentialFlow {
            pipeline,
            artifact,
            next_stage: 0,
        }
    }

    pub fn is_complete(&self) -> bool {
        self.next_stage >= self.pipeline.stages.len()
    }

    /// The stage awaiting a worker, if any.
    pub fn pending_stage(&self) -> Option<StageKind> {
        self.pipeline.stages.get(self.next_stage).copied()
    }

    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }

    /// Perform the next pass. `contribution` replaces or annotates the
    /// content; `worker_quality` drives the quality model.
    pub fn advance(
        &mut self,
        worker: WorkerId,
        contribution: impl Into<String>,
        worker_quality: f64,
    ) -> Result<&Artifact, SequentialError> {
        let Some(kind) = self.pending_stage() else {
            return Err(SequentialError::Complete);
        };
        if let Some(last) = self.artifact.history.last() {
            if last.worker == worker {
                return Err(SequentialError::SameWorkerTwice(worker));
            }
        }
        let new_quality = sequential_improve(self.artifact.quality, worker_quality);
        let content = contribution.into();
        if !content.is_empty() {
            self.artifact.content = content;
        }
        self.artifact.quality = new_quality;
        self.artifact.history.push(Pass {
            worker,
            kind,
            quality_after: new_quality,
        });
        self.next_stage += 1;
        Ok(&self.artifact)
    }

    /// Finish and return the artifact (only when complete).
    pub fn finish(self) -> Result<Artifact, SequentialError> {
        if self.is_complete() {
            Ok(self.artifact)
        } else {
            Err(SequentialError::Complete)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: u64) -> WorkerId {
        WorkerId(i)
    }

    #[test]
    fn full_pipeline_improves_quality() {
        let art = Artifact::produced_by(w(1), "draft subtitles", 0.4);
        let mut flow = SequentialFlow::start(SequentialPipeline::translation(2), art);
        assert_eq!(flow.pending_stage(), Some(StageKind::Improve));
        flow.advance(w(2), "better subtitles", 0.7).unwrap();
        flow.advance(w(3), "best subtitles", 0.8).unwrap();
        assert_eq!(flow.pending_stage(), Some(StageKind::Verify));
        flow.advance(w(4), "", 0.9).unwrap();
        assert!(flow.is_complete());
        let done = flow.finish().unwrap();
        assert!(done.quality > 0.4);
        assert_eq!(done.passes(), 4);
        assert_eq!(done.content, "best subtitles"); // empty verify keeps content
        assert_eq!(done.contributors(), vec![w(1), w(2), w(3), w(4)]);
        // quality monotone along history
        for pair in done.history.windows(2) {
            assert!(pair[1].quality_after >= pair[0].quality_after);
        }
    }

    #[test]
    fn same_worker_consecutive_rejected() {
        let art = Artifact::produced_by(w(1), "x", 0.5);
        let mut flow = SequentialFlow::start(SequentialPipeline::translation(1), art);
        let err = flow.advance(w(1), "y", 0.6).unwrap_err();
        assert_eq!(err, SequentialError::SameWorkerTwice(w(1)));
        // alternating is fine, including a comeback
        flow.advance(w(2), "y", 0.6).unwrap();
        flow.advance(w(1), "z", 0.7).unwrap();
        assert!(flow.is_complete());
    }

    #[test]
    fn advancing_complete_pipeline_errors() {
        let art = Artifact::produced_by(w(1), "x", 0.5);
        let mut flow = SequentialFlow::start(
            SequentialPipeline {
                stages: vec![StageKind::Verify],
            },
            art,
        );
        flow.advance(w(2), "", 0.9).unwrap();
        assert_eq!(
            flow.advance(w(3), "", 0.9).unwrap_err(),
            SequentialError::Complete
        );
    }

    #[test]
    fn finish_requires_completion() {
        let art = Artifact::produced_by(w(1), "x", 0.5);
        let flow = SequentialFlow::start(SequentialPipeline::translation(1), art);
        assert!(flow.finish().is_err());
    }

    #[test]
    fn pipelines_shapes() {
        let t = SequentialPipeline::translation(3);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.stages[3], StageKind::Verify);
        // rounds floor at 1
        assert_eq!(SequentialPipeline::translation(0).len(), 2);
    }

    #[test]
    fn produced_by_clamps() {
        let a = Artifact::produced_by(w(1), "x", 7.0);
        assert_eq!(a.quality, 1.0);
    }

    #[test]
    fn stage_kind_display() {
        assert_eq!(StageKind::Produce.to_string(), "produce");
        assert_eq!(StageKind::Improve.to_string(), "improve");
        assert_eq!(StageKind::Verify.to_string(), "verify");
        assert!(SequentialError::Complete.to_string().contains("complete"));
    }
}
