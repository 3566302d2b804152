//! # crowd4u-core — the Crowd4U platform
//!
//! The paper's primary contribution: a declarative, collaboration-aware
//! crowdsourcing platform. This crate wires every substrate together,
//! mirroring the architecture of paper Figure 2:
//!
//! | Figure 2 component          | module |
//! |-----------------------------|--------|
//! | CyLog processor             | per-project [`crowd4u_cylog::engine::CylogEngine`] held by [`platform::Project`] |
//! | Task pool                   | [`task::TaskPool`] |
//! | Worker manager (user properties, affinity matrix) | [`workers::WorkerManager`] |
//! | Task assignment controller  | [`controller::suggest_team`], run with each project's [`controller::AlgorithmChoice`] |
//! | Eligible / InterestedIn / Undertakes | [`relations::RelationStore`] (ordered pair sets) |
//! | Project admin pages         | [`pages::AdminPage`] |
//! | User pages                  | [`pages::UserPage`] |
//!
//! The workflow of §2.2.1 maps to methods on [`platform::Crowd4U`]:
//! 1. register a project (admin page available) — [`platform::Crowd4U::register_project`];
//! 2. desired factors reach the controller — carried in [`platform::Project`];
//! 3. workers see eligible tasks, declare interest — [`platform::Crowd4U::express_interest`];
//! 4. worker manager supplies factors + affinity — [`workers::WorkerManager::pair_affinity`];
//! 5. controller suggests a team — [`platform::Crowd4U::run_assignment`];
//!    deadline misses re-execute assignment as the clock passes them ([`platform::Crowd4U::advance_to`]),
//!    and infeasibility produces a requester suggestion.

pub mod controller;
pub mod counters;
pub mod declarative;
pub mod decompose;
pub mod eligibility;
pub mod error;
pub mod events;
pub mod pages;
pub mod platform;
pub mod qualification;
pub mod relations;
pub mod task;
pub mod workers;

pub mod prelude {
    pub use crate::controller::{
        candidates_from_profiles, constraints_from_factors, suggest_team, AlgorithmChoice,
    };
    pub use crate::declarative::uses_declarative_eligibility;
    pub use crate::decompose::{
        ChunkSplitter, Decomposer, OutlineSplitter, Piece, SentenceSplitter,
    };
    pub use crate::eligibility::is_eligible;
    pub use crate::error::{PlatformError, ProjectId, TaskId, WorkerId};
    pub use crate::events::PlatformEvent;
    pub use crate::pages::{admin_page, user_page, AdminPage, UserPage};
    pub use crate::platform::{
        BatchReport, Crowd4U, Project, ProjectSlice, MAX_REASSIGNMENTS, STALL_AFTER,
    };
    pub use crate::qualification::QualificationTest;
    pub use crate::relations::RelationStore;
    pub use crate::task::{Task, TaskBody, TaskPool, TaskState};
    pub use crate::workers::WorkerManager;
}
