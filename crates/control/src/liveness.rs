//! VNF liveness tracking from heartbeat beacons.
//!
//! The paper's controller learns about node health from periodic probes
//! (Sec. IV-B); this module is the failure-detection half: relays emit
//! heartbeat frames (feedback kind 3, see `ncvnf-dataplane`), and the
//! controller feeds arrival times into a [`LivenessTracker`]. A node
//! that misses beacons long enough is declared *suspect*, then *dead* —
//! at which point the controller replans routes around it (see
//! [`crate::failover`]) and pushes fresh `NC_FORWARD_TAB`s to the
//! survivors.
//!
//! All methods take an explicit `now: Instant`, so tests drive the clock
//! deterministically instead of sleeping.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Suspicion thresholds. With a beacon interval `i`, sensible values are
/// `suspect_after ≈ 3i` and `dead_after ≈ 6i`: one lost datagram must
/// not trigger a reroute, but detection latency bounds the failover
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessConfig {
    /// Silence longer than this marks a node suspect.
    pub suspect_after: Duration,
    /// Silence longer than this declares a node dead.
    pub dead_after: Duration,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            suspect_after: Duration::from_millis(75),
            dead_after: Duration::from_millis(150),
        }
    }
}

/// A tracked node's health, by beacon recency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessState {
    /// Beacons arriving within `suspect_after`.
    Alive,
    /// Silent past `suspect_after` but not yet `dead_after`.
    Suspect,
    /// Silent past `dead_after`; routes should avoid this node.
    Dead,
}

/// State transitions surfaced by [`LivenessTracker::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessEvent {
    /// A node went silent past the suspect threshold.
    Suspected(u32),
    /// A node went silent past the dead threshold (fires once per
    /// outage).
    Died(u32),
    /// A suspect or dead node resumed beaconing.
    Recovered(u32),
}

#[derive(Debug, Clone, Copy)]
struct NodeRecord {
    last_seen: Instant,
    state: LivenessState,
}

/// Heartbeat bookkeeping: last-seen times and the Alive → Suspect → Dead
/// state machine.
#[derive(Debug)]
pub struct LivenessTracker {
    config: LivenessConfig,
    nodes: HashMap<u32, NodeRecord>,
}

impl LivenessTracker {
    /// A tracker with the given thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `dead_after < suspect_after`.
    pub fn new(config: LivenessConfig) -> Self {
        assert!(
            config.dead_after >= config.suspect_after,
            "dead_after must not precede suspect_after"
        );
        LivenessTracker {
            config,
            nodes: HashMap::new(),
        }
    }

    /// The thresholds in effect.
    pub fn config(&self) -> LivenessConfig {
        self.config
    }

    /// Records a heartbeat from `node` at `now`. Returns `Recovered` if
    /// the node was suspect or dead.
    pub fn heartbeat(&mut self, node: u32, now: Instant) -> Option<LivenessEvent> {
        let rec = self.nodes.entry(node).or_insert(NodeRecord {
            last_seen: now,
            state: LivenessState::Alive,
        });
        let was = rec.state;
        rec.last_seen = now;
        rec.state = LivenessState::Alive;
        (was != LivenessState::Alive).then_some(LivenessEvent::Recovered(node))
    }

    /// Re-evaluates every tracked node against `now`; returns the state
    /// transitions since the previous poll (each fires once).
    pub fn poll(&mut self, now: Instant) -> Vec<LivenessEvent> {
        let mut events = Vec::new();
        let mut ids: Vec<u32> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let rec = self.nodes.get_mut(&id).expect("tracked node");
            let silence = now.saturating_duration_since(rec.last_seen);
            let target = if silence >= self.config.dead_after {
                LivenessState::Dead
            } else if silence >= self.config.suspect_after {
                LivenessState::Suspect
            } else {
                LivenessState::Alive
            };
            if target == rec.state {
                continue;
            }
            // Silence only deepens suspicion; recovery happens in
            // `heartbeat`. (A Dead node cannot poll back to Suspect.)
            match (rec.state, target) {
                (LivenessState::Alive, LivenessState::Suspect) => {
                    rec.state = target;
                    events.push(LivenessEvent::Suspected(id));
                }
                (LivenessState::Alive, LivenessState::Dead) => {
                    rec.state = target;
                    events.push(LivenessEvent::Suspected(id));
                    events.push(LivenessEvent::Died(id));
                }
                (LivenessState::Suspect, LivenessState::Dead) => {
                    rec.state = target;
                    events.push(LivenessEvent::Died(id));
                }
                _ => {}
            }
        }
        events
    }

    /// Current state of a node, if it ever beaconed.
    pub fn state(&self, node: u32) -> Option<LivenessState> {
        self.nodes.get(&node).map(|r| r.state)
    }

    /// Node ids currently declared dead, ascending.
    pub fn dead_nodes(&self) -> Vec<u32> {
        self.nodes_in(LivenessState::Dead)
    }

    /// Node ids currently alive, ascending. Restart reconciliation does
    /// not read this: it probes every journaled node with `NC_STATS` and
    /// pushes to each one that answers.
    pub fn alive_nodes(&self) -> Vec<u32> {
        self.nodes_in(LivenessState::Alive)
    }

    /// Stops tracking a node entirely (e.g. its τ-pool entry expired
    /// while the controller was down, so its silence is expected, not a
    /// failure). Returns true if it was tracked.
    pub fn forget(&mut self, node: u32) -> bool {
        self.nodes.remove(&node).is_some()
    }

    fn nodes_in(&self, state: LivenessState) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .nodes
            .iter()
            .filter(|(_, r)| r.state == state)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LivenessConfig {
        LivenessConfig {
            suspect_after: Duration::from_millis(30),
            dead_after: Duration::from_millis(60),
        }
    }

    #[test]
    fn fresh_beacons_keep_a_node_alive() {
        let mut t = LivenessTracker::new(cfg());
        let t0 = Instant::now();
        assert_eq!(t.heartbeat(1, t0), None);
        for k in 1..10 {
            let now = t0 + Duration::from_millis(10 * k);
            assert!(t.poll(now).is_empty());
            t.heartbeat(1, now);
        }
        assert_eq!(t.state(1), Some(LivenessState::Alive));
        assert!(t.dead_nodes().is_empty());
    }

    #[test]
    fn silence_escalates_suspect_then_dead_exactly_once() {
        let mut t = LivenessTracker::new(cfg());
        let t0 = Instant::now();
        t.heartbeat(7, t0);
        assert_eq!(
            t.poll(t0 + Duration::from_millis(35)),
            vec![LivenessEvent::Suspected(7)]
        );
        assert_eq!(t.state(7), Some(LivenessState::Suspect));
        // Repolling in the same band is silent.
        assert!(t.poll(t0 + Duration::from_millis(40)).is_empty());
        assert_eq!(
            t.poll(t0 + Duration::from_millis(65)),
            vec![LivenessEvent::Died(7)]
        );
        assert_eq!(t.dead_nodes(), vec![7]);
        assert!(t.poll(t0 + Duration::from_millis(600)).is_empty());
    }

    #[test]
    fn a_long_gap_fires_both_transitions_in_order() {
        let mut t = LivenessTracker::new(cfg());
        let t0 = Instant::now();
        t.heartbeat(3, t0);
        assert_eq!(
            t.poll(t0 + Duration::from_millis(200)),
            vec![LivenessEvent::Suspected(3), LivenessEvent::Died(3)]
        );
    }

    #[test]
    fn a_beacon_recovers_a_dead_node() {
        let mut t = LivenessTracker::new(cfg());
        let t0 = Instant::now();
        t.heartbeat(5, t0);
        t.poll(t0 + Duration::from_millis(100));
        assert_eq!(t.state(5), Some(LivenessState::Dead));
        let ev = t.heartbeat(5, t0 + Duration::from_millis(110));
        assert_eq!(ev, Some(LivenessEvent::Recovered(5)));
        assert_eq!(t.state(5), Some(LivenessState::Alive));
        assert!(t.poll(t0 + Duration::from_millis(120)).is_empty());
    }

    #[test]
    fn a_flapping_node_reregisters_alive_and_can_die_again() {
        // A node that dies, comes back, and dies again must go through
        // the full Alive → Suspect → Dead ladder each time — one
        // Recovered per comeback, one Suspected+Died per outage, never
        // a corpse that stops being tracked.
        let mut t = LivenessTracker::new(cfg());
        let t0 = Instant::now();
        t.heartbeat(4, t0);

        // Outage #1.
        assert_eq!(
            t.poll(t0 + Duration::from_millis(100)),
            vec![LivenessEvent::Suspected(4), LivenessEvent::Died(4)]
        );
        assert_eq!(t.dead_nodes(), vec![4]);
        assert!(t.alive_nodes().is_empty());

        // Comeback #1: the dead node re-registers as Alive.
        assert_eq!(
            t.heartbeat(4, t0 + Duration::from_millis(120)),
            Some(LivenessEvent::Recovered(4))
        );
        assert_eq!(t.state(4), Some(LivenessState::Alive));
        assert_eq!(t.alive_nodes(), vec![4]);
        assert!(t.poll(t0 + Duration::from_millis(130)).is_empty());

        // Outage #2 escalates again — exactly once.
        assert_eq!(
            t.poll(t0 + Duration::from_millis(300)),
            vec![LivenessEvent::Suspected(4), LivenessEvent::Died(4)]
        );
        assert!(t.poll(t0 + Duration::from_millis(400)).is_empty());

        // Comeback #2 still works: recovery is not a one-shot.
        assert_eq!(
            t.heartbeat(4, t0 + Duration::from_millis(410)),
            Some(LivenessEvent::Recovered(4))
        );
        assert_eq!(t.state(4), Some(LivenessState::Alive));
    }

    #[test]
    fn forgotten_nodes_stop_generating_events() {
        let mut t = LivenessTracker::new(cfg());
        let t0 = Instant::now();
        t.heartbeat(1, t0);
        t.heartbeat(2, t0);
        assert!(t.forget(1));
        assert!(!t.forget(1), "already forgotten");
        let events = t.poll(t0 + Duration::from_millis(100));
        assert_eq!(
            events,
            vec![LivenessEvent::Suspected(2), LivenessEvent::Died(2)],
            "only the still-tracked node escalates"
        );
        assert_eq!(t.state(1), None);
    }

    #[test]
    fn nodes_are_tracked_independently() {
        let mut t = LivenessTracker::new(cfg());
        let t0 = Instant::now();
        t.heartbeat(1, t0);
        t.heartbeat(2, t0);
        t.heartbeat(2, t0 + Duration::from_millis(50));
        let events = t.poll(t0 + Duration::from_millis(70));
        assert_eq!(
            events,
            vec![LivenessEvent::Suspected(1), LivenessEvent::Died(1)]
        );
        assert_eq!(t.state(2), Some(LivenessState::Alive));
        assert_eq!(t.dead_nodes(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "dead_after must not precede")]
    fn inverted_thresholds_panic() {
        let _ = LivenessTracker::new(LivenessConfig {
            suspect_after: Duration::from_millis(60),
            dead_after: Duration::from_millis(30),
        });
    }
}
