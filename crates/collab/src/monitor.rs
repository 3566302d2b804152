//! Collaboration monitoring: "Once workers undertake a task, Crowd4U
//! monitors their collaboration for ensuring successful task completion."
//! (§2.2.1). The monitor tracks per-member activity timestamps and flags
//! stalled members and stalled collaborations, so the platform can trigger
//! re-assignment.

use crowd4u_crowd::profile::WorkerId;
use crowd4u_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A monitoring-relevant occurrence, as mapped from the platform's event
/// stream. The platform translates its own `PlatformEvent`s into these
/// and feeds them through [`CollabMonitor::apply`] — activity records and
/// completions today — so monitoring state is driven by the same events
/// that drive execution. `MemberRemoved` exists for team-repair flows
/// (dropping a stalled member and recruiting a replacement), which operate
/// on the monitor directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorEvent {
    /// A member did something at the given time.
    Activity(WorkerId, SimTime),
    /// A member left the team.
    MemberRemoved(WorkerId),
    /// The collaboration finished (terminal).
    Completed,
}

/// Health verdict for one collaboration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Everyone active recently.
    Healthy,
    /// Some members idle beyond the stall threshold.
    MembersStalled(Vec<WorkerId>),
    /// Nobody has acted for the threshold: the collaboration is stuck.
    Stalled,
    /// Completed (terminal).
    Complete,
}

/// Tracks activity of one team on one collaborative task.
#[derive(Debug, Clone)]
pub struct CollabMonitor {
    stall_after: SimDuration,
    last_activity: BTreeMap<WorkerId, SimTime>,
    complete: bool,
}

impl CollabMonitor {
    /// Start monitoring a team. Members start with activity at `started`
    /// (undertaking counts as activity).
    pub fn new(members: &[WorkerId], started: SimTime, stall_after: SimDuration) -> CollabMonitor {
        CollabMonitor {
            stall_after,
            last_activity: members.iter().map(|&m| (m, started)).collect(),
            complete: false,
        }
    }

    /// Apply one event from the platform's event stream.
    pub fn apply(&mut self, event: MonitorEvent) {
        match event {
            MonitorEvent::Activity(member, at) => self.record_activity(member, at),
            MonitorEvent::MemberRemoved(member) => self.remove_member(member),
            MonitorEvent::Completed => self.mark_complete(),
        }
    }

    /// Record that a member did something at `now`. Unknown members are
    /// added (late replacements join the same monitor).
    pub fn record_activity(&mut self, member: WorkerId, now: SimTime) {
        let e = self.last_activity.entry(member).or_insert(now);
        if now > *e {
            *e = now;
        }
    }

    /// Remove a member (dropped from the team).
    pub fn remove_member(&mut self, member: WorkerId) {
        self.last_activity.remove(&member);
    }

    pub fn mark_complete(&mut self) {
        self.complete = true;
    }

    pub fn members(&self) -> Vec<WorkerId> {
        self.last_activity.keys().copied().collect()
    }

    /// Idle time of one member at `now`.
    pub fn idle_for(&self, member: WorkerId, now: SimTime) -> Option<SimDuration> {
        self.last_activity.get(&member).map(|&t| now - t)
    }

    /// Assess health at `now`.
    pub fn check(&self, now: SimTime) -> Verdict {
        if self.complete {
            return Verdict::Complete;
        }
        if self.last_activity.is_empty() {
            return Verdict::Stalled;
        }
        let stalled: Vec<WorkerId> = self
            .last_activity
            .iter()
            .filter(|(_, &t)| now - t >= self.stall_after)
            .map(|(&w, _)| w)
            .collect();
        if stalled.len() == self.last_activity.len() {
            Verdict::Stalled
        } else if stalled.is_empty() {
            Verdict::Healthy
        } else {
            Verdict::MembersStalled(stalled)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: u64) -> WorkerId {
        WorkerId(i)
    }

    fn monitor() -> CollabMonitor {
        CollabMonitor::new(&[w(1), w(2), w(3)], SimTime(0), SimDuration::minutes(10))
    }

    #[test]
    fn healthy_when_recent_activity() {
        let mut m = monitor();
        m.record_activity(w(1), SimTime(100));
        m.record_activity(w(2), SimTime(200));
        m.record_activity(w(3), SimTime(300));
        assert_eq!(m.check(SimTime(400)), Verdict::Healthy);
    }

    #[test]
    fn partial_stall_names_the_idle() {
        let mut m = monitor();
        // workers 1 and 2 act late; worker 3 never acts after start
        m.record_activity(w(1), SimTime(500));
        m.record_activity(w(2), SimTime(550));
        match m.check(SimTime(0) + SimDuration::minutes(10)) {
            Verdict::MembersStalled(v) => assert_eq!(v, vec![w(3)]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_stall_detected() {
        let m = monitor();
        assert_eq!(
            m.check(SimTime(0) + SimDuration::minutes(10)),
            Verdict::Stalled
        );
        // just before the threshold: healthy
        assert_eq!(m.check(SimTime(599)), Verdict::Healthy);
    }

    #[test]
    fn completion_is_terminal() {
        let mut m = monitor();
        m.mark_complete();
        assert_eq!(
            m.check(SimTime(0) + SimDuration::days(1)),
            Verdict::Complete
        );
    }

    #[test]
    fn member_management() {
        let mut m = monitor();
        m.remove_member(w(3));
        assert_eq!(m.members(), vec![w(1), w(2)]);
        // replacement joins with fresh activity
        m.record_activity(w(9), SimTime(600));
        assert_eq!(m.members(), vec![w(1), w(2), w(9)]);
        match m.check(SimTime(0) + SimDuration::minutes(10)) {
            Verdict::MembersStalled(v) => assert_eq!(v, vec![w(1), w(2)]),
            other => panic!("unexpected {other:?}"),
        }
        // removing everyone means stalled
        for id in m.members() {
            m.remove_member(id);
        }
        assert_eq!(m.check(SimTime(601)), Verdict::Stalled);
    }

    #[test]
    fn activity_never_moves_backwards() {
        let mut m = monitor();
        m.record_activity(w(1), SimTime(500));
        m.record_activity(w(1), SimTime(100)); // out-of-order event
        assert_eq!(m.idle_for(w(1), SimTime(600)), Some(SimDuration::secs(100)));
        assert_eq!(m.idle_for(w(9), SimTime(600)), None);
    }

    #[test]
    fn event_stream_drives_monitor() {
        let mut m = monitor();
        m.apply(MonitorEvent::Activity(w(1), SimTime(500)));
        m.apply(MonitorEvent::Activity(w(2), SimTime(550)));
        m.apply(MonitorEvent::MemberRemoved(w(3)));
        assert_eq!(
            m.check(SimTime(0) + SimDuration::minutes(10)),
            Verdict::Healthy
        );
        assert_eq!(m.members(), vec![w(1), w(2)]);
        m.apply(MonitorEvent::Completed);
        assert_eq!(m.check(SimTime(10_000)), Verdict::Complete);
    }
}
