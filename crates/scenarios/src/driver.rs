//! Common glue driving the platform with the simulated crowd: registering
//! a population, collecting interest, running assignment with deadline
//! handling, and tracking elapsed simulated time.
//!
//! Since the event-core refactor the driver is a thin scheduler: simulated
//! worker actions (interest, undertakes, answers) become timed
//! [`PlatformEvent`]s on a discrete-event queue, and [`Driver::pump`]
//! delivers them to the platform in time order — advancing the clock batch
//! by batch and draining dirty projects once at the end, exactly the way a
//! production front-end would feed the ingestion API.

use crate::config::ScenarioConfig;
use crate::stream::{StreamOp, TimedOp};
use crowd4u_assign::prelude::Team;
use crowd4u_collab::Scheme;
use crowd4u_core::events::DRAIN_KIND;
use crowd4u_core::prelude::*;
use crowd4u_crowd::population::{generate, Population, PopulationConfig};
use crowd4u_crowd::profile::WorkerId;
use crowd4u_forms::admin::DesiredFactors;
use crowd4u_sim::engine::Simulation;
use crowd4u_sim::rng::SimRng;
use crowd4u_sim::time::{SimDuration, SimTime};

/// A platform + population pair with a shared clock.
pub struct Driver {
    pub platform: Crowd4U,
    pub crowd: Population,
    pub rng: SimRng,
    /// Timed platform events awaiting delivery (the simulated "network").
    events: Simulation<PlatformEvent>,
    start: SimTime,
    /// Worker actions [`Driver::pump`] dropped as stale.
    dropped: u64,
}

impl Driver {
    /// Build the world: a seeded crowd registered on a fresh platform, as
    /// one registration batch through the event-ingestion path. The
    /// configured algorithm reaches the platform with each project's
    /// factors ([`Driver::factors`]).
    pub fn new(config: &ScenarioConfig) -> Driver {
        let mut platform = Crowd4U::new();
        let mut rng = SimRng::seed_from(config.seed);
        let crowd = generate(
            &PopulationConfig {
                size: config.crowd,
                ..Default::default()
            },
            &mut rng,
        );
        let registrations: Vec<PlatformEvent> = crowd
            .agents
            .iter()
            .map(|agent| PlatformEvent::WorkerRegistered {
                profile: agent.profile.clone(),
            })
            .collect();
        platform
            .apply_batch(registrations)
            .expect("worker registration cannot fail");
        let start = platform.now();
        Driver {
            platform,
            crowd,
            rng,
            events: Simulation::new(),
            start,
            dropped: 0,
        }
    }

    /// Schedule a platform event for delivery at an absolute time.
    pub fn schedule_at(&mut self, at: SimTime, event: PlatformEvent) {
        self.events.schedule(at, event);
    }

    /// Schedule a platform event for delivery after a delay.
    pub fn schedule_after(&mut self, delay: SimDuration, event: PlatformEvent) {
        let at = self.platform.now() + delay;
        self.events.schedule(at, event);
    }

    /// Deliver every scheduled event in time order: the platform clock
    /// advances to each batch's tick (processing deadlines on the way), the
    /// batch is applied, and dirty projects are synchronised once at the
    /// end. Worker actions that became invalid in flight — e.g. an
    /// undertake arriving after its recruitment deadline expired — are
    /// dropped and counted, like a production platform rejecting a stale
    /// request.
    ///
    /// Deadline boundary: "unless all suggested workers start … **by** the
    /// specified deadline" is inclusive, so deadlines strictly before a
    /// batch's tick are processed first, the batch's events are applied,
    /// and only then does the sweep at the tick itself run — an undertake
    /// arriving exactly at its recruitment deadline still counts.
    pub fn pump(&mut self) -> Result<(), PlatformError> {
        while let Some((t, batch)) = self.events.next_batch() {
            if t.ticks() > 0 {
                self.platform.advance_to(SimTime(t.ticks() - 1))?;
            }
            for event in batch {
                match self.platform.apply_event(event) {
                    Ok(()) => {}
                    Err(
                        PlatformError::BadTaskState { .. }
                        | PlatformError::NotSuggested { .. }
                        | PlatformError::NotEligible { .. }
                        | PlatformError::NoFeasibleTeam { .. },
                    ) => {
                        self.dropped += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
            self.platform.advance_to(t)?;
        }
        self.platform.drain_events()?;
        Ok(())
    }

    /// Worker actions [`Driver::pump`] has dropped as stale so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The timed operation stream this driver's platform journaled, ready
    /// for routing through a sharded runtime's ingestion gate: one
    /// [`TimedOp`] per journal entry, stamped with the platform clock at
    /// the moment it applied (`clock` entries stamp their own target), with
    /// `drain` entries yielded as [`StreamOp::Drain`] markers (a router
    /// turns those into coordinated drain barriers).
    ///
    /// Replaying the yielded events in order against a fresh platform —
    /// serially or through `ShardedRuntime` mailboxes — reproduces this
    /// driver's platform state and journal byte-identically: the stream
    /// *is* the journal, decoded and timestamped.
    pub fn ops(&self) -> Result<Vec<TimedOp>, PlatformError> {
        let mut at = SimTime::ZERO;
        let mut out = Vec::with_capacity(self.platform.journal().len());
        for entry in self.platform.journal().iter() {
            if entry.kind == DRAIN_KIND {
                out.push(TimedOp {
                    at,
                    op: StreamOp::Drain,
                });
                continue;
            }
            let event = PlatformEvent::decode(entry)?;
            if let PlatformEvent::ClockAdvanced { to, .. } = &event {
                // The platform clock never moves backwards; a clock entry
                // recorded at-or-before `now` keeps the current stamp.
                if *to > at {
                    at = *to;
                }
            }
            out.push(TimedOp {
                at,
                op: StreamOp::Event(event),
            });
        }
        Ok(out)
    }

    /// Desired factors matching the config (language-agnostic by default),
    /// naming the config's team algorithm.
    pub fn factors(&self, config: &ScenarioConfig, skill: Option<&str>) -> DesiredFactors {
        DesiredFactors {
            skill_name: skill.map(str::to_owned),
            min_quality: if skill.is_some() { 0.4 } else { 0.0 },
            min_team: config.min_team,
            max_team: config.max_team,
            recruitment_secs: 1800,
            algorithm: config.algorithm,
            ..Default::default()
        }
    }

    /// Advance the shared clock by `d` and process platform deadlines.
    pub fn pass_time(&mut self, d: SimDuration) -> Result<(), PlatformError> {
        let t = self.platform.now() + d;
        self.platform.advance_to(t)
    }

    /// Simulated elapsed time since the driver was built.
    pub fn elapsed(&self) -> SimDuration {
        self.platform.now() - self.start
    }

    /// Step (3) of the workflow: every eligible agent looks at the task and
    /// may declare interest (per its behaviour model). Interest arrives in
    /// parallel as timed events and is pumped through the platform — the
    /// clock ends at the slowest responder. Returns how many declared.
    pub fn collect_interest(&mut self, task: TaskId) -> Result<usize, PlatformError> {
        let eligible = self.platform.relations().eligible_workers(task);
        let mut n = 0;
        for w in eligible {
            let Some(agent) = self.crowd.agent_mut(w) else {
                continue;
            };
            let delay = agent.response_delay();
            if agent.declares_interest() {
                self.schedule_after(delay, PlatformEvent::InterestExpressed { worker: w, task });
                n += 1;
            }
        }
        self.pump()?;
        Ok(n)
    }

    /// Steps (4)+(5) with undertake simulation and deadline-driven retry:
    /// returns the team that actually started (task `InProgress`), or
    /// `None` when assignment remained infeasible after `max_rounds`.
    pub fn form_team(
        &mut self,
        task: TaskId,
        max_rounds: usize,
    ) -> Result<Option<Team>, PlatformError> {
        for _ in 0..max_rounds {
            // Pending members awaiting an undertake decision this round.
            let pending: Vec<WorkerId> = match self.platform.pool().get(task)?.state.clone() {
                TaskState::Open => match self.platform.run_assignment(task) {
                    Ok(t) => t.members,
                    Err(PlatformError::NoFeasibleTeam { .. }) => return Ok(None),
                    Err(e) => return Err(e),
                },
                TaskState::Suggested {
                    team, undertaken, ..
                } => team
                    .into_iter()
                    .filter(|m| !undertaken.contains(m))
                    .collect(),
                TaskState::InProgress { team } => return Ok(Some(self.assemble(&team))),
                TaskState::Completed { .. } | TaskState::Abandoned { .. } => return Ok(None),
            };
            // Each pending member independently decides to start; the
            // undertakes arrive as timed events. Even members who hold out
            // consume wall-clock time (the platform waits for them), so the
            // round lasts until the slowest decision either way.
            let mut max_delay = SimDuration::ZERO;
            for &m in &pending {
                let Some(agent) = self.crowd.agent_mut(m) else {
                    continue;
                };
                let delay = agent.response_delay();
                if delay > max_delay {
                    max_delay = delay;
                }
                if agent.commits() {
                    self.schedule_after(delay, PlatformEvent::Undertaken { worker: m, task });
                }
            }
            self.schedule_after(
                max_delay,
                PlatformEvent::ClockAdvanced {
                    to: self.platform.now() + max_delay,
                    owner: 0,
                },
            );
            self.pump()?;
            if let TaskState::InProgress { team } = self.platform.pool().get(task)?.state.clone() {
                return Ok(Some(self.assemble(&team)));
            }
            // Someone held out: jump past the recruitment deadline so the
            // platform re-executes assignment (§2.2.1) and try again.
            self.pass_time(SimDuration::secs(1801))?;
        }
        Ok(None)
    }

    /// Rebuild a [`Team`] record (members + affinity) for a started team.
    fn assemble(&mut self, members: &[WorkerId]) -> Team {
        let affinity = self.team_affinity(members);
        Team {
            members: members.to_vec(),
            affinity,
            quality: 0.0,
            cost: 0.0,
        }
    }

    /// Mean pairwise affinity of a set of workers, via the candidate
    /// submatrix — O(members²), never a full-population matrix build.
    pub fn team_affinity(&self, members: &[WorkerId]) -> f64 {
        self.platform.workers.team_affinity(members)
    }

    /// Register a collaborative project with scheme + factors in one call.
    pub fn collab_project(
        &mut self,
        name: &str,
        cylog: &str,
        config: &ScenarioConfig,
        scheme: Scheme,
        skill: Option<&str>,
    ) -> Result<ProjectId, PlatformError> {
        let f = self.factors(config, skill);
        self.platform.register_project(name, cylog, f, scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "rel item(x: str).\nopen label(x: str) -> (y: str).\nrel out(x: str, y: str).\nout(X, Y) :- item(X), label(X, Y).\n";

    #[test]
    fn driver_builds_world() {
        let cfg = ScenarioConfig::default().with_crowd(20);
        let d = Driver::new(&cfg);
        assert_eq!(d.platform.workers.len(), 20);
        assert_eq!(d.crowd.agents.len(), 20);
        assert_eq!(d.elapsed(), SimDuration::ZERO);
    }

    #[test]
    fn interest_collection_is_seeded() {
        let cfg = ScenarioConfig::default().with_crowd(30).with_seed(5);
        let mut d1 = Driver::new(&cfg);
        let mut d2 = Driver::new(&cfg);
        for d in [&mut d1, &mut d2] {
            let proj = d
                .collab_project("p", SRC, &cfg, Scheme::Sequential, None)
                .unwrap();
            let task = d.platform.create_collab_task(proj, "x").unwrap();
            let n = d.collect_interest(task).unwrap();
            assert!(n > 0);
        }
        assert_eq!(d1.elapsed(), d2.elapsed());
        assert_eq!(
            d1.platform.counters().interest_expressed,
            d2.platform.counters().interest_expressed
        );
    }

    #[test]
    fn team_formation_end_to_end() {
        let cfg = ScenarioConfig::default().with_crowd(40).with_seed(9);
        let mut d = Driver::new(&cfg);
        let proj = d
            .collab_project("p", SRC, &cfg, Scheme::Sequential, None)
            .unwrap();
        let task = d.platform.create_collab_task(proj, "x").unwrap();
        d.collect_interest(task).unwrap();
        let team = d.form_team(task, 5).unwrap();
        if let Some(team) = team {
            assert!(team.size() >= cfg.min_team);
            let aff = d.team_affinity(&team.members);
            assert!((0.0..=1.0).contains(&aff));
            // the task is in progress now
            assert_eq!(
                d.platform.pool().get(task).unwrap().state.label(),
                "in-progress"
            );
        }
    }

    #[test]
    fn scheduled_events_deliver_in_time_order() {
        let cfg = ScenarioConfig::default().with_crowd(10).with_seed(2);
        let mut d = Driver::new(&cfg);
        let proj = d
            .collab_project("p", SRC, &cfg, Scheme::Sequential, None)
            .unwrap();
        // Seed a fact late, a worker answer even later; pump delivers both
        // and the closing drain generates + completes the pipeline.
        d.schedule_after(
            SimDuration::secs(10),
            PlatformEvent::FactSeeded {
                project: proj,
                pred: "item".into(),
                values: vec!["a".into()],
            },
        );
        d.pump().unwrap();
        assert_eq!(d.platform.now(), SimTime(10));
        // the drain synced the dirty project: the question became a task
        let task = d.platform.pool().open_tasks(Some(proj))[0].id;
        let worker = d.platform.relations().eligible_workers(task)[0];
        d.schedule_after(
            SimDuration::secs(5),
            PlatformEvent::AnswerSubmitted {
                worker,
                task,
                outputs: vec!["b".into()],
            },
        );
        d.pump().unwrap();
        assert_eq!(d.platform.now(), SimTime(15));
        assert_eq!(
            d.platform.project(proj).unwrap().engine.fact_count("out"),
            Ok(1)
        );
        // stale events are dropped, not fatal: answering the same task again
        d.schedule_after(
            SimDuration::secs(1),
            PlatformEvent::AnswerSubmitted {
                worker,
                task,
                outputs: vec!["c".into()],
            },
        );
        d.pump().unwrap();
        assert_eq!(d.dropped(), 1);
    }

    #[test]
    fn infeasible_when_no_interest() {
        let cfg = ScenarioConfig {
            crowd: 3,
            min_team: 3,
            max_team: 3,
            ..Default::default()
        };
        let mut d = Driver::new(&cfg);
        let proj = d
            .collab_project("p", SRC, &cfg, Scheme::Sequential, None)
            .unwrap();
        let task = d.platform.create_collab_task(proj, "x").unwrap();
        // nobody expressed interest
        let team = d.form_team(task, 2).unwrap();
        assert!(team.is_none());
    }
}
