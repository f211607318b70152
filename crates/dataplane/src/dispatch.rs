//! Which VNF instance (or relay shard) owns a generation.

use ncvnf_rlnc::SessionId;

/// Index in `0..instances` of the VNF instance that handles a packet of
/// `(session, generation)` when a data center runs several — and of the
/// engine shard that owns it inside one relay.
///
/// "In case of multiple VNFs launched in one data center, we dispatch the
/// incoming packets across these VNFs based on session id and generation
/// id ... Packets belonging to the same generation are dispatched to the
/// same VNF instance" (Sec. IV-A). A generation's decoder state is not
/// splittable, and successive generations of one session should spread
/// so that one heavy session can use more than one instance. The map
/// must be stable across packets and across whoever computes it, so it
/// is a pure function: a Fibonacci hash of the pair.
///
/// # Panics
///
/// Panics if `instances` is zero.
#[must_use]
pub fn shard_of(session: SessionId, generation: u64, instances: usize) -> usize {
    assert!(instances > 0, "need at least one instance");
    if instances <= 1 {
        return 0;
    }
    let key = (u64::from(session.value()) << 32) ^ generation;
    let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> 33) as usize % instances
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_mapping() {
        for g in 0..100 {
            let a = shard_of(SessionId::new(1), g, 4);
            let b = shard_of(SessionId::new(1), g, 4);
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn single_instance_gets_everything() {
        for g in 0..50 {
            assert_eq!(shard_of(SessionId::new(7), g, 1), 0);
        }
    }

    #[test]
    fn spread_is_roughly_even() {
        let instances = 4;
        let mut counts = vec![0usize; instances];
        for s in 0..8u16 {
            for g in 0..250u64 {
                counts[shard_of(SessionId::new(s), g, instances)] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        let expect = total / instances;
        for &c in &counts {
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < (expect / 4) as u64,
                "uneven spread: {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_panics() {
        let _ = shard_of(SessionId::new(0), 0, 0);
    }
}
