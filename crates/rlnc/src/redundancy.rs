//! Redundancy policy: extra coded packets per generation.
//!
//! Two flavours: the paper's *static* NC0/NC1/NC2 policies
//! ([`RedundancyPolicy`]), and an *adaptive* controller
//! ([`AdaptiveRedundancy`]) that estimates the path's erasure rate from
//! what receivers report and sizes redundancy from it — "a small number
//! of extra coded packets ... in cases of high packet loss rate, and no
//! extra coded packets if the links are reliable", chosen online instead
//! of configured up front, and spent only where it saves a round trip.

/// How many extra coded packets a node emits per generation.
///
/// The paper's robustness experiments (Figs. 8–9) compare NC0 (no
/// redundancy: exactly `g` coded packets per generation), NC1 (one extra)
/// and NC2 (two extra). Redundancy trades bandwidth for loss resilience:
/// "it is desirable to produce a small number of extra coded packets for
/// each generation in cases of high packet loss rate, and no extra coded
/// packets if the links are reliable."
///
/// # Examples
///
/// ```
/// use ncvnf_rlnc::RedundancyPolicy;
/// assert_eq!(RedundancyPolicy::NC1.packets_per_generation(4), 5);
/// assert_eq!(RedundancyPolicy::new(3).extra(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RedundancyPolicy {
    extra: u32,
}

impl RedundancyPolicy {
    /// No redundancy (the paper's NC0).
    pub const NC0: RedundancyPolicy = RedundancyPolicy { extra: 0 };
    /// One extra coded packet per generation (NC1).
    pub const NC1: RedundancyPolicy = RedundancyPolicy { extra: 1 };
    /// Two extra coded packets per generation (NC2).
    pub const NC2: RedundancyPolicy = RedundancyPolicy { extra: 2 };

    /// A policy with `extra` additional coded packets per generation.
    pub const fn new(extra: u32) -> Self {
        RedundancyPolicy { extra }
    }

    /// Extra coded packets per generation.
    pub const fn extra(self) -> u32 {
        self.extra
    }

    /// Total packets emitted per generation of size `g`.
    pub fn packets_per_generation(self, generation_size: usize) -> usize {
        generation_size + self.extra as usize
    }

    /// Bandwidth expansion factor relative to sending only `g` packets.
    pub fn overhead_factor(self, generation_size: usize) -> f64 {
        self.packets_per_generation(generation_size) as f64 / generation_size as f64
    }
}

impl std::fmt::Display for RedundancyPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NC{}", self.extra)
    }
}

/// Bounds of the adaptive redundancy (named for the AIMD law it used to
/// tune).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AimdConfig {
    /// Fresh generations never carry fewer extra packets than this (the
    /// configured static policy acts as the floor).
    pub floor: u32,
    /// Neither a fresh generation nor a repair burst carries more extra
    /// packets than this per generation's worth (bandwidth expansion
    /// stays bounded even under pathological feedback).
    pub ceiling: u32,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            floor: 0,
            ceiling: 8,
        }
    }
}

/// Packets the erasure estimate looks back over: past this many, both
/// of its sums are halved.
const ESTIMATE_HORIZON: f64 = 512.0;

/// Redundancy controller for the live data path: an erasure-rate
/// estimate p̂ that puts extra packets only where a round trip is not
/// hidden.
///
/// p̂ is what resolved generations report ([`on_resolved`](Self::on_resolved)).
/// A paced source that answers a NACK while fresh data is still leaving
/// loses no time to the round trip, so such a repair carries exactly the
/// count asked for and fresh generations stay at the floor; where the
/// round trip *is* exposed, bursts are sized for `1 / (1 − p̂)` so that
/// one round is expected to be enough.
///
/// # Examples
///
/// ```
/// use ncvnf_rlnc::{AdaptiveRedundancy, AimdConfig};
/// let mut r = AdaptiveRedundancy::new(AimdConfig::default());
/// r.on_resolved(1, 4); // a first NACK: 1 of 4 packets missing
/// assert_eq!(r.loss_estimate(), 0.25);
/// assert_eq!(r.repair_packets(3, true, 4), 3, "hidden: what was asked");
/// assert_eq!(r.repair_packets(3, false, 4), 4, "exposed: 3 / (1 - 0.25)");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveRedundancy {
    config: AimdConfig,
    /// Packets reported missing, and packets sent, by the generations
    /// resolved so far (with forgetting).
    lost: f64,
    sent: f64,
    /// Extra per generation's worth last applied, and the highest so far.
    extra: f64,
    peak: f64,
}

impl AdaptiveRedundancy {
    /// A controller with nothing observed yet.
    ///
    /// # Panics
    ///
    /// Panics if the floor exceeds the ceiling.
    pub fn new(config: AimdConfig) -> Self {
        assert!(config.floor <= config.ceiling, "floor exceeds ceiling");
        let floor = f64::from(config.floor);
        AdaptiveRedundancy {
            config,
            lost: 0.0,
            sent: 0.0,
            extra: floor,
            peak: floor,
        }
    }

    /// A controller whose floor is the static `policy` (the live path's
    /// drop-in replacement for a fixed NCr).
    pub fn from_policy(policy: RedundancyPolicy, mut config: AimdConfig) -> Self {
        config.floor = policy.extra();
        config.ceiling = config.ceiling.max(config.floor);
        Self::new(config)
    }

    /// Extra packets per generation's worth the controller last applied.
    pub fn current_extra(&self) -> f64 {
        self.extra
    }

    /// Highest extra per generation's worth applied so far.
    pub fn peak_extra(&self) -> f64 {
        self.peak
    }

    /// The erasure-rate estimate p̂ (0 before anything resolved).
    pub fn loss_estimate(&self) -> f64 {
        (self.lost / self.sent.max(1.0)).min(1.0)
    }

    /// Records a resolved generation: `missing` of the `sent` packets it
    /// left with did not arrive (its first NACK's count, or 0 for a
    /// generation ACKed without a repair).
    pub fn on_resolved(&mut self, missing: u16, sent: usize) {
        self.lost += f64::from(missing).min(sent as f64);
        self.sent += sent as f64;
        if self.sent > ESTIMATE_HORIZON {
            self.lost *= 0.5;
            self.sent *= 0.5;
        }
    }

    /// Records a `Congestion` frame from a downstream relay: what an
    /// overloaded relay sheds is not erasure, and answering it with more
    /// packets would feed the overload, so the estimate is halved.
    pub fn on_congestion(&mut self) {
        self.lost *= 0.5;
    }

    /// Packets that deliver `wanted` at the estimated erasure rate, at
    /// most the ceiling's ratio `(g + ceiling) / g` of it.
    fn sized(&self, wanted: usize, generation_size: usize) -> usize {
        let expected = (wanted as f64 / (1.0 - self.loss_estimate())).ceil() as usize;
        let cap = wanted * (generation_size + self.config.ceiling as usize);
        expected.clamp(wanted, cap.div_ceil(generation_size))
    }

    fn apply(&mut self, extra: f64) {
        self.extra = extra;
        self.peak = self.peak.max(extra);
    }

    /// The policy for the next fresh generation of `generation_size`
    /// blocks: the extras `1 / (1 − p̂)` calls for if they are within
    /// `hideable` — the extras per generation whose pacing time, over what
    /// is left of the fresh pass, a repair round trip would outlast —
    /// and the floor otherwise.
    pub fn fresh_policy(&mut self, generation_size: usize, hideable: u32) -> RedundancyPolicy {
        let floor = self.config.floor;
        let sized = (self.sized(generation_size, generation_size) - generation_size) as u32;
        let extra = if sized <= hideable {
            sized.max(floor)
        } else {
            floor
        };
        self.apply(f64::from(extra));
        RedundancyPolicy::new(extra)
    }

    /// Size of the burst answering a NACK for `missing` packets (at least
    /// one): exactly that when the round trip is `hidden` behind fresh
    /// data still being paced out, `missing / (1 − p̂)` rounded up when a
    /// second round would cost a round trip of its own.
    pub fn repair_packets(
        &mut self,
        missing: usize,
        hidden: bool,
        generation_size: usize,
    ) -> usize {
        let wanted = missing.max(1);
        let burst = if hidden {
            wanted
        } else {
            self.sized(wanted, generation_size)
        };
        self.apply(((burst - wanted) * generation_size) as f64 / wanted as f64);
        burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policies() {
        assert_eq!(RedundancyPolicy::NC0.packets_per_generation(4), 4);
        assert_eq!(RedundancyPolicy::NC1.packets_per_generation(4), 5);
        assert_eq!(RedundancyPolicy::NC2.packets_per_generation(4), 6);
        assert_eq!(RedundancyPolicy::NC2.to_string(), "NC2");
    }

    #[test]
    fn overhead_factor() {
        assert!((RedundancyPolicy::NC1.overhead_factor(4) - 1.25).abs() < 1e-12);
        assert!((RedundancyPolicy::NC0.overhead_factor(4) - 1.0).abs() < 1e-12);
    }

    /// A controller that has seen `lost` of every 100 packets go missing.
    fn at_loss(lost: u16, config: AimdConfig) -> AdaptiveRedundancy {
        let mut r = AdaptiveRedundancy::new(config);
        r.on_resolved(lost, 100);
        r
    }

    #[test]
    fn estimate_is_missing_over_sent_and_forgets() {
        let mut r = AdaptiveRedundancy::new(AimdConfig::default());
        assert_eq!(r.loss_estimate(), 0.0, "nothing observed");
        r.on_resolved(1, 4); // first NACK: 1 of 4
        r.on_resolved(0, 4); // clean ACK
        assert_eq!(r.loss_estimate(), 0.125);
        // A NACK cannot report more missing than was sent.
        r.on_resolved(u16::MAX, 4);
        assert!((r.loss_estimate() - 5.0 / 12.0).abs() < 1e-12);
        // A long clean stretch outweighs old loss: the sums are halved
        // every horizon, so the early 5 packets fade geometrically.
        for _ in 0..1000 {
            r.on_resolved(0, 4);
        }
        assert!(r.loss_estimate() < 0.001, "{}", r.loss_estimate());
    }

    #[test]
    fn hidden_rounds_carry_what_was_asked_exposed_ones_the_margin() {
        let mut r = at_loss(19, AimdConfig::default());
        for want in 1..=4 {
            assert_eq!(r.repair_packets(want, true, 4), want);
        }
        assert_eq!(r.current_extra(), 0.0);
        assert_eq!(r.peak_extra(), 0.0, "hidden rounds apply no extra");
        // ceil(want / 0.81): 2, 3, 4, 5.
        let exposed: Vec<usize> = (1..=4).map(|w| r.repair_packets(w, false, 4)).collect();
        assert_eq!(exposed, [2, 3, 4, 5]);
        assert_eq!(r.current_extra(), 1.0, "5 for 4 is one per generation");
        assert_eq!(r.peak_extra(), 4.0, "2 for 1 is four per generation");
        // A NACK for nothing still gets one packet.
        assert_eq!(r.repair_packets(0, true, 4), 1);
        // With nothing observed the margin is nil.
        let mut fresh = AdaptiveRedundancy::new(AimdConfig::default());
        assert_eq!(fresh.repair_packets(3, false, 4), 3);
    }

    #[test]
    fn bursts_are_capped_at_the_ceiling_ratio() {
        let mut r = at_loss(
            99,
            AimdConfig {
                ceiling: 4,
                ..AimdConfig::default()
            },
        );
        // 1 / (1 - 0.99) would be 100 packets; NC4 at g=4 doubles.
        assert_eq!(r.repair_packets(1, false, 4), 2);
        assert_eq!(r.repair_packets(4, false, 4), 8);
        assert_eq!(r.fresh_policy(4, u32::MAX).extra(), 4);
        // Total loss must not divide by zero either.
        let mut dead = at_loss(100, AimdConfig::default());
        assert_eq!(dead.repair_packets(1, false, 4), 3, "NC8 ratio");
    }

    #[test]
    fn fresh_generations_stay_at_the_floor_unless_extras_hide_a_round_trip() {
        let mut r = at_loss(19, AimdConfig::default());
        assert_eq!(r.fresh_policy(4, 0), RedundancyPolicy::NC0);
        assert_eq!(r.peak_extra(), 0.0);
        // ceil(4 / 0.81) = 5: one extra, once a round trip outlasts it.
        assert_eq!(r.fresh_policy(4, 1), RedundancyPolicy::NC1);
        assert_eq!((r.current_extra(), r.peak_extra()), (1.0, 1.0));
        // The static policy is the floor either way.
        let mut nc2 = AdaptiveRedundancy::from_policy(RedundancyPolicy::NC2, AimdConfig::default());
        nc2.on_resolved(19, 100);
        assert_eq!(nc2.fresh_policy(4, 0), RedundancyPolicy::NC2);
        assert_eq!(nc2.fresh_policy(4, 8), RedundancyPolicy::NC2);
        // A clean path calls for nothing.
        let mut clean = at_loss(0, AimdConfig::default());
        assert_eq!(clean.fresh_policy(4, u32::MAX), RedundancyPolicy::NC0);
    }

    #[test]
    fn congestion_halves_the_estimate() {
        let mut r = at_loss(40, AimdConfig::default());
        r.on_congestion();
        assert_eq!(r.loss_estimate(), 0.2);
        r.on_congestion();
        assert_eq!(r.loss_estimate(), 0.1);
    }

    #[test]
    #[should_panic(expected = "floor exceeds ceiling")]
    fn floor_above_ceiling_panics() {
        let _ = AdaptiveRedundancy::new(AimdConfig {
            floor: 9,
            ceiling: 8,
        });
    }
}
