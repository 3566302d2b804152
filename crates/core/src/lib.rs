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
//! | Task assignment controller  | [`controller::AssignmentController`] |
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
//!    deadline misses re-execute assignment ([`platform::Crowd4U::process_deadlines`]),
//!    and infeasibility produces a requester suggestion.

pub mod controller;
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
        candidates_from_profiles, constraints_from_factors, AlgorithmChoice, AssignmentController,
    };
    pub use crate::declarative::{sync_worker_facts, uses_declarative_eligibility};
    pub use crate::decompose::{
        ChunkSplitter, Decomposer, OutlineSplitter, Piece, SentenceSplitter,
    };
    pub use crate::eligibility::{check_eligibility, is_eligible, Ineligibility};
    pub use crate::error::{PlatformError, ProjectId, TaskId, WorkerId};
    pub use crate::events::PlatformEvent;
    pub use crate::pages::{admin_page, user_page, AdminPage, UserPage};
    pub use crate::platform::{BatchReport, Crowd4U, Project, ProjectSlice};
    pub use crate::qualification::QualificationTest;
    pub use crate::relations::RelationStore;
    pub use crate::task::{Task, TaskBody, TaskPool, TaskState};
    pub use crate::workers::WorkerManager;
}
