//! VNF lifecycle: launch latency, τ-delayed shutdown, instance reuse.

/// Manages the VNF instances of one data center over (abstract) time.
///
/// The paper's lifecycle rules (Sec. III-A, V-C-5):
///
/// * launching a fresh VM takes ≈35 s, while starting the coding function
///   on a warm VM takes ≈376 ms ("100× slower"), so
/// * "after a daemon receives a `NC_VNF_END` signal, it shuts down its VNF
///   (VM) in a threshold time τ, instead of immediately, for potential
///   reuse ... The idle VNF is shut down after τ for saving operational
///   cost."
///
/// Time is caller-supplied in seconds (monotonic), so the pool works both
/// inside the simulator and against wall clocks.
#[derive(Debug, Clone)]
pub struct VnfPool {
    /// Instances actively serving traffic.
    active: u64,
    /// Instances signalled down but lingering for reuse: shutdown times.
    lingering: Vec<f64>,
    /// Instances being provisioned: ready times.
    launching: Vec<f64>,
    /// Grace period τ in seconds.
    tau: f64,
    /// Fresh-VM provision latency in seconds (paper: ≈35 s).
    launch_latency: f64,
    /// Cumulative fresh launches (cost accounting).
    total_launches: u64,
    /// Cumulative reuses of lingering instances.
    total_reuses: u64,
}

impl VnfPool {
    /// Creates an empty pool.
    ///
    /// # Panics
    ///
    /// Panics if `tau` or `launch_latency` is negative.
    pub fn new(tau: f64, launch_latency: f64) -> Self {
        assert!(tau >= 0.0 && launch_latency >= 0.0, "invalid pool timing");
        VnfPool {
            active: 0,
            lingering: Vec::new(),
            launching: Vec::new(),
            tau,
            launch_latency,
            total_launches: 0,
            total_reuses: 0,
        }
    }

    /// The paper's timings: τ = 10 min, 35 s VM launch.
    pub fn paper_defaults() -> Self {
        Self::new(600.0, 35.0)
    }

    /// Instances currently serving traffic.
    pub fn active(&self) -> u64 {
        self.active
    }

    /// Instances still billed: active + lingering + launching.
    pub fn billable(&self, now: f64) -> u64 {
        let lingering = self.lingering.iter().filter(|&&t| t > now).count() as u64;
        let launching = self.launching.iter().filter(|&&t| t > now).count() as u64;
        self.active + lingering + launching
    }

    /// Fresh VM launches so far.
    pub fn total_launches(&self) -> u64 {
        self.total_launches
    }

    /// Lingering-instance reuses so far.
    pub fn total_reuses(&self) -> u64 {
        self.total_reuses
    }

    /// Advances time: finished launches become active, expired lingerers
    /// disappear.
    pub fn tick(&mut self, now: f64) {
        let mut became_ready = 0;
        self.launching.retain(|&t| {
            if t <= now {
                became_ready += 1;
                false
            } else {
                true
            }
        });
        self.active += became_ready;
        self.lingering.retain(|&t| t > now);
    }

    /// Requests that `target` instances serve traffic, reusing lingering
    /// instances before launching fresh ones. Returns the time at which
    /// the target will be fully met (now if no launch was needed).
    pub fn scale_to(&mut self, target: u64, now: f64) -> f64 {
        self.tick(now);
        let committed = self.active + self.launching.len() as u64;
        if target > committed {
            let mut needed = target - committed;
            // Reuse lingering instances first — they are warm.
            while needed > 0 && !self.lingering.is_empty() {
                self.lingering.pop();
                self.active += 1;
                self.total_reuses += 1;
                needed -= 1;
            }
            for _ in 0..needed {
                self.launching.push(now + self.launch_latency);
                self.total_launches += 1;
            }
        } else if target < self.active {
            // Scale in: move surplus active instances into the τ window.
            let surplus = self.active - target;
            for _ in 0..surplus {
                self.lingering.push(now + self.tau);
            }
            self.active = target;
        }
        self.launching.iter().fold(now, |acc, &t| acc.max(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_takes_latency() {
        let mut p = VnfPool::new(600.0, 35.0);
        let ready = p.scale_to(2, 0.0);
        assert_eq!(ready, 35.0);
        assert_eq!(p.active(), 0);
        assert_eq!(p.billable(1.0), 2);
        p.tick(35.0);
        assert_eq!(p.active(), 2);
        assert_eq!(p.total_launches(), 2);
    }

    #[test]
    fn scale_in_lingers_then_expires() {
        let mut p = VnfPool::new(600.0, 35.0);
        p.scale_to(3, 0.0);
        p.tick(35.0);
        p.scale_to(1, 100.0);
        assert_eq!(p.active(), 1);
        assert_eq!(p.billable(100.0), 3); // 1 active + 2 lingering
        assert_eq!(p.billable(701.0), 1); // lingerers expired at 700
        p.tick(701.0);
        assert_eq!(p.billable(701.0), 1);
    }

    #[test]
    fn reuse_prefers_lingering_instances() {
        let mut p = VnfPool::new(600.0, 35.0);
        p.scale_to(2, 0.0);
        p.tick(35.0);
        p.scale_to(0, 40.0);
        assert_eq!(p.active(), 0);
        // Demand returns within τ: instant reuse, no fresh launch.
        let ready = p.scale_to(2, 100.0);
        assert_eq!(ready, 100.0);
        assert_eq!(p.active(), 2);
        assert_eq!(p.total_launches(), 2);
        assert_eq!(p.total_reuses(), 2);
    }

    #[test]
    fn reuse_after_expiry_requires_fresh_launch() {
        let mut p = VnfPool::new(10.0, 35.0);
        p.scale_to(1, 0.0);
        p.tick(35.0);
        p.scale_to(0, 40.0);
        // τ = 10 s passed: the lingerer is gone.
        let ready = p.scale_to(1, 60.0);
        assert_eq!(ready, 95.0);
        assert_eq!(p.total_launches(), 2);
        assert_eq!(p.total_reuses(), 0);
    }

    #[test]
    fn scale_to_while_launching_does_not_double_launch() {
        let mut p = VnfPool::new(600.0, 35.0);
        p.scale_to(2, 0.0);
        p.scale_to(2, 1.0);
        assert_eq!(p.total_launches(), 2);
        p.scale_to(3, 2.0);
        assert_eq!(p.total_launches(), 3);
    }
}
