//! The arithmetic every workload shares: slice medians with their
//! spread, the percentile rule, the host fingerprint and the process's
//! peak resident set.

use std::fmt;
use std::path::Path;

/// Median of `values` (upper median for an even count; 0 when empty).
/// Sorts the slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    values[values.len() / 2]
}

/// One metric measured once per slice.
#[derive(Debug, Clone, Default)]
pub struct PerSlice(Vec<f64>);

impl PerSlice {
    /// Records one slice's value.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// The reported value: the median over slices.
    pub fn median(&self) -> f64 {
        median(&mut self.0.clone())
    }

    /// The best slice of a metric where higher is better.
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// The best slice of a metric where lower is better (0 when empty).
    pub fn min(&self) -> f64 {
        self.0.iter().copied().reduce(f64::min).unwrap_or(0.0)
    }

    /// `(max − min) / median` over slices: how far one run's slices
    /// disagree. 0 when the median is 0.
    pub fn spread(&self) -> f64 {
        let mid = self.median();
        if mid == 0.0 {
            return 0.0;
        }
        (self.max() - self.min()) / mid
    }
}

impl fmt::Display for PerSlice {
    /// `median (.spread s; slices a b c …)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} (.spread {:.3}; slices",
            self.median(),
            self.spread()
        )?;
        for v in &self.0 {
            write!(f, " {v:.2}")?;
        }
        f.write_str(")")
    }
}

/// Value at quantile `q` (0..=1) of an ascending-sorted sample, by the
/// nearest-rank rule; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The tolerance keeps 0.999 × 10 000 at rank 9990, not 9991.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency sample summarised as its median and its highest
/// supportable tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Sample count.
    pub count: usize,
    /// The median.
    pub p50: f64,
    /// The tail percentile reported, in percent (e.g. 99.9); equals 50
    /// when the sample supports no tail.
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// Tail percentiles a sample may be summarised at, ascending, each with
/// the share of samples beyond it in parts per 10 000.
const TAILS: [(f64, usize); 4] = [(90.0, 1000), (99.0, 100), (99.9, 10), (99.99, 1)];

impl Percentiles {
    /// Median plus the highest percentile of `TAILS` that still has at
    /// least ten samples beyond it — a tail read off fewer than ten
    /// samples is an anecdote. Sorts the sample.
    pub fn of(samples: &mut [f64]) -> Percentiles {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
        let n = samples.len();
        let tail_pct = TAILS
            .iter()
            .filter(|(_, beyond)| n * beyond / 10_000 >= 10)
            .fold(50.0, |_, (pct, _)| *pct);
        Percentiles {
            count: n,
            p50: quantile(samples, 0.5),
            tail_pct,
            tail: quantile(samples, tail_pct / 100.0),
        }
    }
}

impl fmt::Display for Percentiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50 {:.2} p{} {:.2} (n={})",
            self.p50, self.tail_pct, self.tail, self.count
        )
    }
}

/// What a result depends on besides the code: printed with every run.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPUs available to the process.
    pub nproc: usize,
    /// The GF(2^8) kernel tier the dispatcher selected.
    pub kernel_tier: &'static str,
    /// Whether `recvmmsg`/`sendmmsg` are in use.
    pub batched_syscalls: bool,
    /// Kernel release string.
    pub kernel_release: String,
    /// Git commit of the checkout, or `unknown` outside a repository.
    pub commit: String,
    /// Whether thread placement is fixed (see [`crate::affinity`]).
    pub pinned: bool,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and checkout.
    pub fn read() -> Fingerprint {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Fingerprint {
            nproc: crate::affinity::cpus(),
            kernel_tier: ncvnf_gf256::bulk::kernel_tier().name(),
            batched_syscalls: ncvnf_sysnet::batched_syscalls_available(),
            kernel_release: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned()),
            commit: git_commit(&repo.join(".git")).unwrap_or_else(|| "unknown".into()),
            pinned: crate::affinity::pinned(),
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} pinned={} kernel_tier={} batched_syscalls={} kernel={} commit={}",
            self.nproc,
            self.pinned,
            self.kernel_tier,
            self.batched_syscalls,
            self.kernel_release,
            self.commit
        )
    }
}

/// The commit `HEAD` names, following one level of symbolic ref.
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git_dir.join(reference))
            .ok()
            .map(|s| s.trim().to_owned()),
        None => Some(head.to_owned()),
    }
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`); 0 where the file is unavailable. With
/// `--workload all` the workloads share a process and so a high-water
/// mark; the contract's runs are one workload per process.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 99 samples: 10 % of them (9.9) is under ten, so no tail.
        let mut s: Vec<f64> = (1..=99).map(f64::from).collect();
        let p = Percentiles::of(&mut s);
        assert_eq!((p.count, p.p50, p.tail_pct), (99, 50.0, 50.0));
        // 100 samples support p90 and nothing higher.
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::of(&mut s);
        assert_eq!((p.tail_pct, p.tail), (90.0, 90.0));
        // 1000 → p99; 10 000 → p99.9; 100 000 → p99.99.
        for (n, pct) in [(1_000, 99.0), (10_000, 99.9), (100_000, 99.99)] {
            let mut s: Vec<f64> = (1..=n).map(f64::from).collect();
            let p = Percentiles::of(&mut s);
            assert_eq!(p.tail_pct, pct, "n={n}");
            assert_eq!(p.tail, (f64::from(n) * pct / 100.0).ceil());
        }
    }

    #[test]
    fn percentiles_sort_their_input() {
        let mut s = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(Percentiles::of(&mut s).p50, 3.0);
        assert!(Percentiles::of(&mut []).p50 == 0.0);
    }

    #[test]
    fn slice_median_and_spread() {
        let mut s = PerSlice::default();
        for v in [10.0, 12.0, 11.0, 9.0, 10.5] {
            s.push(v);
        }
        assert_eq!(s.median(), 10.5);
        assert!((s.spread() - 3.0 / 10.5).abs() < 1e-12);
        assert_eq!(PerSlice::default().median(), 0.0);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
