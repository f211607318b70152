//! Admission control for the data path.
//!
//! Overload protection is opt-in and has two layers (DESIGN.md §15):
//!
//! 1. **Per-session admission.** Each shard keeps a token bucket
//!    per session, provisioned by the control plane
//!    via `NC_QUOTA` (session 0 sets the default bucket unknown
//!    sessions are lazily cloned from). Refill is folded into the
//!    admission check itself — O(1) per datagram, no timer thread.
//!    Control signals live on the control socket and feedback frames
//!    are classified before admission, so neither class can ever be
//!    shed by this gate.
//! 2. **Backpressure.** Every shed datagram nominates its source for a
//!    `Congestion` feedback frame (kind 5), emitted by
//!    [`relay_batch`](crate::relay_batch) with the same egress flush as
//!    the coded traffic; senders react by cutting redundancy
//!    multiplicatively and pausing bursts.
//!
//! Until the first quota arrives the regime does not exist at all — the hot path pays a single
//! `Option` test and behaves byte-identically to a relay without this
//! module.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

use ncvnf_rlnc::SessionId;

/// Monotonic seconds since the first call in this process — the clock
/// the token buckets refill against. Tests drive
/// [`OverloadState::admit`] with explicit times instead.
#[must_use]
pub fn monotonic_secs() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// A session's provisioned admission quota.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaConfig {
    /// Token refill rate, packets per second. `0` blocks the session.
    pub rate_pps: f64,
    /// Bucket depth in packets (the tolerated burst).
    pub burst: f64,
}

/// One session's token bucket. Refill happens lazily on each take: the
/// elapsed time since the previous take converts to tokens, capped at
/// the burst depth.
#[derive(Debug, Clone, Copy)]
struct SessionBudget {
    tokens: f64,
    last_refill_secs: f64,
    quota: QuotaConfig,
}

impl SessionBudget {
    fn new(quota: QuotaConfig, now_secs: f64) -> Self {
        SessionBudget {
            tokens: quota.burst,
            last_refill_secs: now_secs,
            quota,
        }
    }

    /// Refills for the elapsed time and takes one token; false when the
    /// bucket is dry (the datagram must be shed).
    fn try_take(&mut self, now_secs: f64) -> bool {
        if self.quota.rate_pps <= 0.0 && self.quota.burst <= 0.0 {
            return false;
        }
        let dt = (now_secs - self.last_refill_secs).max(0.0);
        self.last_refill_secs = now_secs;
        self.tokens = (self.tokens + dt * self.quota.rate_pps).min(self.quota.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Tunables for one shard's admission gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Bound on lazily-tracked unknown sessions; beyond it, sessions
    /// without a provisioned quota are rejected outright.
    pub max_tracked_sessions: usize,
    /// Bucket unknown sessions are cloned from (`None` admits them
    /// freely; a zero-rate quota rejects them).
    pub default_quota: Option<QuotaConfig>,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            max_tracked_sessions: 1024,
            default_quota: None,
        }
    }
}

/// Running admission counters of one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Datagrams the gate admitted.
    pub admitted: u64,
    /// Shed because the session's token bucket was dry (or the session
    /// was rejected).
    pub shed_quota: u64,
}

/// Per-shard admission state, owned by the shard's
/// [`RelayEngine`](crate::RelayEngine) so the existing engine lock
/// covers it — no second mutex on the hot path.
#[derive(Debug)]
pub struct OverloadState {
    config: OverloadConfig,
    budgets: HashMap<SessionId, SessionBudget>,
    /// Sessions with an explicitly provisioned quota (the rest of
    /// `budgets` are lazy clones of the default bucket).
    provisioned: usize,
    stats: OverloadStats,
}

impl OverloadState {
    /// A passive gate: no quotas, admits everything.
    #[must_use]
    pub fn new(config: OverloadConfig) -> Self {
        OverloadState {
            config,
            budgets: HashMap::new(),
            provisioned: 0,
            stats: OverloadStats::default(),
        }
    }

    /// (Re)provisions a session's quota. Session 0 sets the default
    /// bucket unknown sessions are admitted against.
    pub fn provision(&mut self, session: SessionId, quota: QuotaConfig, now_secs: f64) {
        if session.value() == 0 {
            self.config.default_quota = Some(quota);
            return;
        }
        if self
            .budgets
            .insert(session, SessionBudget::new(quota, now_secs))
            .is_none()
        {
            self.provisioned += 1;
        }
    }

    /// Number of sessions with an explicitly provisioned quota.
    #[must_use]
    pub fn provisioned_sessions(&self) -> usize {
        self.provisioned
    }

    /// Running admission counters.
    #[must_use]
    pub fn stats(&self) -> OverloadStats {
        self.stats
    }

    /// Judges one coded-data datagram of `session`: true to process it,
    /// false to shed it (counted in [`OverloadStats::shed_quota`]).
    pub fn admit(&mut self, session: SessionId, now_secs: f64) -> bool {
        let budget = match self.budgets.get_mut(&session) {
            Some(budget) => Some(budget),
            None => match self.config.default_quota {
                // Table full: reject rather than admit untracked.
                Some(_) if self.budgets.len() >= self.config.max_tracked_sessions => None,
                Some(default) => Some(
                    self.budgets
                        .entry(session)
                        .or_insert_with(|| SessionBudget::new(default, now_secs)),
                ),
                None => {
                    self.stats.admitted += 1;
                    return true;
                }
            },
        };
        let admitted = budget.is_some_and(|b| b.try_take(now_secs));
        if admitted {
            self.stats.admitted += 1;
        } else {
            self.stats.shed_quota += 1;
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quota(rate: f64, burst: f64) -> QuotaConfig {
        QuotaConfig {
            rate_pps: rate,
            burst,
        }
    }

    #[test]
    fn unprovisioned_sessions_pass_without_a_default() {
        let mut ov = OverloadState::new(OverloadConfig::default());
        for i in 0..100 {
            assert!(ov.admit(SessionId::new(9), i as f64 * 0.001));
        }
        assert_eq!(ov.stats().admitted, 100);
        assert_eq!(ov.stats().shed_quota, 0);
    }

    #[test]
    fn token_bucket_sheds_beyond_burst_and_refills() {
        let mut ov = OverloadState::new(OverloadConfig::default());
        ov.provision(SessionId::new(1), quota(100.0, 4.0), 0.0);
        // Burst of 4 admitted at t=0, the 5th is over quota.
        for _ in 0..4 {
            assert!(ov.admit(SessionId::new(1), 0.0));
        }
        assert!(!ov.admit(SessionId::new(1), 0.0));
        // 50 ms at 100 pps refills 5 tokens, capped at burst 4.
        assert!(ov.admit(SessionId::new(1), 0.05));
        assert_eq!(ov.stats().shed_quota, 1);
    }

    #[test]
    fn zero_rate_quota_blocks_a_session() {
        let mut ov = OverloadState::new(OverloadConfig::default());
        ov.provision(SessionId::new(2), quota(0.0, 0.0), 0.0);
        assert!(!ov.admit(SessionId::new(2), 10.0));
    }

    #[test]
    fn session_zero_provisions_the_default_bucket() {
        let mut ov = OverloadState::new(OverloadConfig::default());
        ov.provision(SessionId::new(0), quota(0.0, 0.0), 0.0);
        // Unknown sessions now inherit the zero default: rejected.
        assert!(!ov.admit(SessionId::new(7), 0.0));
        assert_eq!(ov.provisioned_sessions(), 0);
    }

    #[test]
    fn tracked_session_table_is_bounded() {
        let cfg = OverloadConfig {
            max_tracked_sessions: 2,
            default_quota: Some(quota(1000.0, 8.0)),
        };
        let mut ov = OverloadState::new(cfg);
        assert!(ov.admit(SessionId::new(1), 0.0));
        assert!(ov.admit(SessionId::new(2), 0.0));
        // A third unknown session cannot be tracked: rejected.
        assert!(!ov.admit(SessionId::new(3), 0.0));
    }

    #[test]
    fn reprovision_resets_the_bucket() {
        let mut ov = OverloadState::new(OverloadConfig::default());
        ov.provision(SessionId::new(1), quota(1.0, 1.0), 0.0);
        assert!(ov.admit(SessionId::new(1), 0.0));
        assert!(!ov.admit(SessionId::new(1), 0.0));
        // The control plane raises the quota: fresh burst available.
        ov.provision(SessionId::new(1), quota(100.0, 8.0), 0.0);
        assert_eq!(ov.provisioned_sessions(), 1, "re-provision, not a new row");
        for _ in 0..8 {
            assert!(ov.admit(SessionId::new(1), 0.0));
        }
    }
}
