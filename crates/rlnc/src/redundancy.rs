//! Redundancy policy: extra coded packets per generation.
//!
//! Two flavours: the paper's *static* NC0/NC1/NC2 policies
//! ([`RedundancyPolicy`]), and an *adaptive* AIMD controller
//! ([`AdaptiveRedundancy`]) that raises the redundancy when receivers
//! NACK undecodable generations and decays it back once the path is
//! clean — "a small number of extra coded packets ... in cases of high
//! packet loss rate, and no extra coded packets if the links are
//! reliable", chosen online instead of configured up front.

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

    /// Packets that repair `missing` lost ones at the same redundancy
    /// *ratio* a fresh generation carries: `missing × (g + extra) / g`,
    /// rounded up (at least one). NC8 at g=4 repairs one loss with 3
    /// packets, not 9.
    pub fn repair_packets(self, missing: usize, generation_size: usize) -> usize {
        (missing.max(1) * self.packets_per_generation(generation_size)).div_ceil(generation_size)
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

/// Tuning of the additive-increase / multiplicative-decrease controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AimdConfig {
    /// Redundancy never falls below this many extra packets (the
    /// configured static policy acts as the floor).
    pub floor: u32,
    /// Redundancy never rises above this many extra packets (bandwidth
    /// expansion must stay bounded even under pathological feedback).
    pub ceiling: u32,
    /// Extra packets added per observed loss event (additive increase).
    pub increase: f64,
    /// Multiplicative factor applied per clean generation (decay toward
    /// the floor); must be in `(0, 1)`.
    pub decay: f64,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            floor: 0,
            ceiling: 8,
            increase: 1.0,
            decay: 0.7,
        }
    }
}

/// AIMD redundancy controller for the live data path.
///
/// Each NACK (a generation the receiver could not decode) bumps the
/// working redundancy additively; each ACKed-without-retransmit
/// generation decays it multiplicatively toward the floor.
/// [`policy`](Self::policy) rounds the working value to the
/// [`RedundancyPolicy`] the encoder applies to the *next* generation, so
/// under sustained loss the source sends more coded packets per
/// generation instead of stalling on retransmission round trips.
///
/// # Examples
///
/// ```
/// use ncvnf_rlnc::{AdaptiveRedundancy, AimdConfig};
/// let mut r = AdaptiveRedundancy::new(AimdConfig::default());
/// assert_eq!(r.policy().extra(), 0);
/// r.on_loss(2); // a NACK asking for 2 packets
/// assert!(r.policy().extra() >= 1);
/// for _ in 0..16 {
///     r.on_clean(); // the path recovered
/// }
/// assert_eq!(r.policy().extra(), 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveRedundancy {
    config: AimdConfig,
    /// Working redundancy in fractional packets.
    extra: f64,
    /// Highest redundancy reached so far (for reporting).
    peak: f64,
}

impl AdaptiveRedundancy {
    /// A controller starting at the configured floor.
    ///
    /// # Panics
    ///
    /// Panics if `config.decay` is outside `(0, 1)`, `config.increase`
    /// is not positive, or the floor exceeds the ceiling.
    pub fn new(config: AimdConfig) -> Self {
        assert!(
            config.decay > 0.0 && config.decay < 1.0,
            "decay must be in (0, 1)"
        );
        assert!(config.increase > 0.0, "increase must be positive");
        assert!(config.floor <= config.ceiling, "floor exceeds ceiling");
        AdaptiveRedundancy {
            config,
            extra: config.floor as f64,
            peak: config.floor as f64,
        }
    }

    /// A controller whose floor is the static `policy` (the live path's
    /// drop-in replacement for a fixed NCr).
    pub fn from_policy(policy: RedundancyPolicy, mut config: AimdConfig) -> Self {
        config.floor = policy.extra();
        config.ceiling = config.ceiling.max(config.floor);
        Self::new(config)
    }

    /// The tuning in effect.
    pub fn config(&self) -> AimdConfig {
        self.config
    }

    /// Current working redundancy in fractional extra packets.
    pub fn current_extra(&self) -> f64 {
        self.extra
    }

    /// Highest working redundancy reached so far.
    pub fn peak_extra(&self) -> f64 {
        self.peak
    }

    /// The policy to apply to the next generation (working value,
    /// rounded to the nearest whole packet).
    pub fn policy(&self) -> RedundancyPolicy {
        RedundancyPolicy::new(self.extra.round() as u32)
    }

    /// Records a loss event: a NACK for `missing` packets (at least one
    /// additive step even when `missing` is 0).
    pub fn on_loss(&mut self, missing: u16) {
        let steps = (missing.max(1) as f64).min(4.0);
        self.extra = (self.extra + self.config.increase * steps).min(self.config.ceiling as f64);
        self.peak = self.peak.max(self.extra);
    }

    /// Records a congestion signal from a downstream relay (a
    /// `Congestion` feedback frame): redundancy is cut multiplicatively
    /// toward the floor — halving the working headroom per signal — so
    /// an overloaded mesh sheds the source's *extra* packets first,
    /// before the relay has to. The TCP-style asymmetry (additive raise
    /// on loss, multiplicative cut on congestion) keeps competing
    /// senders converging instead of oscillating.
    ///
    /// # Examples
    ///
    /// ```
    /// use ncvnf_rlnc::{AdaptiveRedundancy, AimdConfig};
    /// let mut r = AdaptiveRedundancy::new(AimdConfig::default());
    /// r.on_loss(4);
    /// r.on_loss(4);
    /// let before = r.current_extra();
    /// r.on_congestion();
    /// assert!(r.current_extra() <= before / 2.0 + 1e-9);
    /// ```
    pub fn on_congestion(&mut self) {
        let floor = self.config.floor as f64;
        self.extra = (floor + (self.extra - floor) * 0.5).max(floor);
        if self.extra - floor < 1e-6 {
            self.extra = floor;
        }
    }

    /// Records a clean generation (decoded without any retransmission).
    pub fn on_clean(&mut self) {
        let floor = self.config.floor as f64;
        self.extra = (floor + (self.extra - floor) * self.config.decay).max(floor);
        // Geometric decay never *reaches* the floor; snap once the gap is
        // far below packet resolution.
        if self.extra - floor < 1e-6 {
            self.extra = floor;
        }
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
    fn repairs_carry_the_generation_ratio() {
        assert_eq!(RedundancyPolicy::NC0.repair_packets(2, 4), 2);
        assert_eq!(RedundancyPolicy::NC0.repair_packets(0, 4), 1);
        assert_eq!(RedundancyPolicy::NC1.repair_packets(1, 4), 2);
        assert_eq!(RedundancyPolicy::new(8).repair_packets(1, 4), 3);
        assert_eq!(RedundancyPolicy::new(8).repair_packets(4, 4), 12);
    }

    #[test]
    fn overhead_factor() {
        assert!((RedundancyPolicy::NC1.overhead_factor(4) - 1.25).abs() < 1e-12);
        assert!((RedundancyPolicy::NC0.overhead_factor(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sustained_loss_raises_redundancy_above_floor() {
        let mut r = AdaptiveRedundancy::new(AimdConfig::default());
        assert_eq!(r.policy(), RedundancyPolicy::NC0);
        for _ in 0..3 {
            r.on_loss(1);
        }
        assert!(r.policy().extra() >= 3, "3 NACKs raise NCr to ≥3");
        assert!(r.peak_extra() >= 3.0);
    }

    #[test]
    fn redundancy_is_capped_at_the_ceiling() {
        let mut r = AdaptiveRedundancy::new(AimdConfig {
            ceiling: 4,
            ..AimdConfig::default()
        });
        for _ in 0..100 {
            r.on_loss(u16::MAX);
        }
        assert_eq!(r.current_extra(), 4.0);
        assert_eq!(r.policy().extra(), 4);
    }

    #[test]
    fn clean_path_decays_back_to_floor_within_bounded_window() {
        let mut r = AdaptiveRedundancy::from_policy(
            RedundancyPolicy::NC1,
            AimdConfig {
                ceiling: 8,
                ..AimdConfig::default()
            },
        );
        assert_eq!(r.config().floor, 1);
        for _ in 0..8 {
            r.on_loss(2);
        }
        assert_eq!(r.current_extra(), 8.0);
        // Geometric decay: (8 - 1) * 0.7^k < 0.5 for k ≥ 8, so at most
        // 8 clean generations return the rounded policy to the floor.
        let mut clean = 0;
        while r.policy().extra() > 1 {
            r.on_clean();
            clean += 1;
            assert!(
                clean <= 8,
                "decay window exceeded: extra={}",
                r.current_extra()
            );
        }
        assert!(clean > 0, "decay takes at least one clean generation");
        // Never undershoots the floor.
        for _ in 0..100 {
            r.on_clean();
        }
        assert_eq!(r.current_extra(), 1.0);
    }

    #[test]
    fn nack_size_scales_increase_but_is_bounded() {
        let mut small = AdaptiveRedundancy::new(AimdConfig::default());
        let mut big = AdaptiveRedundancy::new(AimdConfig::default());
        small.on_loss(1);
        big.on_loss(4);
        assert!(big.current_extra() > small.current_extra());
        // A pathological NACK cannot blow past 4 additive steps at once.
        let mut huge = AdaptiveRedundancy::new(AimdConfig::default());
        huge.on_loss(u16::MAX);
        assert_eq!(huge.current_extra(), 4.0);
    }

    #[test]
    fn congestion_cuts_multiplicatively_and_respects_floor() {
        let mut r = AdaptiveRedundancy::from_policy(
            RedundancyPolicy::NC2,
            AimdConfig {
                ceiling: 8,
                ..AimdConfig::default()
            },
        );
        for _ in 0..8 {
            r.on_loss(2);
        }
        assert_eq!(r.current_extra(), 8.0);
        r.on_congestion();
        assert_eq!(r.current_extra(), 5.0, "floor 2 + (8-2)/2");
        for _ in 0..64 {
            r.on_congestion();
        }
        assert_eq!(r.current_extra(), 2.0, "never undershoots the floor");
        assert_eq!(r.peak_extra(), 8.0, "peak is unaffected by the cut");
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1)")]
    fn invalid_decay_panics() {
        let _ = AdaptiveRedundancy::new(AimdConfig {
            decay: 1.0,
            ..AimdConfig::default()
        });
    }
}
