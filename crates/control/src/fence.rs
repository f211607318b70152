//! The receiver's half of epoch fencing (DESIGN.md §13): a pure verdict
//! on each [`FencedSignal`](crate::FencedSignal), with no transport
//! attached. The relay's control thread owns one; tests drive one
//! directly.

/// What a receiver does with one fenced frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// A superseded controller sent it: never apply, tell the sender.
    Stale,
    /// Already applied (or overtaken) in this epoch: ACK, do not apply.
    Duplicate,
    /// Apply it.
    Apply,
}

/// The highest controller epoch a receiver has accepted and the last
/// sequence number it applied within that epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fence {
    epoch: u64,
    last_seq: u64,
}

impl Fence {
    /// The verdict on a frame fenced with `(epoch, seq)`: a lower epoch
    /// is [`Admit::Stale`]; a higher one is adopted and restarts
    /// duplicate tracking; a `seq` at or below the last applied one is
    /// [`Admit::Duplicate`]; anything else is [`Admit::Apply`].
    pub fn admit(&mut self, epoch: u64, seq: u64) -> Admit {
        if epoch < self.epoch {
            return Admit::Stale;
        }
        if epoch > self.epoch {
            *self = Fence { epoch, last_seq: 0 };
        }
        if seq <= self.last_seq {
            return Admit::Duplicate;
        }
        self.last_seq = seq;
        Admit::Apply
    }

    /// The highest epoch accepted (0 before any frame).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The last sequence number applied within [`epoch`](Self::epoch).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_fence_applies_epoch_zero_in_order() {
        let mut f = Fence::default();
        assert_eq!(f.admit(0, 1), Admit::Apply);
        assert_eq!(f.admit(0, 2), Admit::Apply);
        assert_eq!((f.epoch(), f.last_seq()), (0, 2));
    }

    #[test]
    fn repeated_and_overtaken_seqs_are_duplicates() {
        let mut f = Fence::default();
        assert_eq!(f.admit(3, 5), Admit::Apply);
        assert_eq!(f.admit(3, 5), Admit::Duplicate);
        assert_eq!(f.admit(3, 4), Admit::Duplicate);
        assert_eq!(f.admit(3, 6), Admit::Apply);
        assert_eq!(f.last_seq(), 6);
    }

    #[test]
    fn lower_epoch_is_stale_and_changes_nothing() {
        let mut f = Fence::default();
        assert_eq!(f.admit(2, 1), Admit::Apply);
        assert_eq!(f.admit(1, 99), Admit::Stale);
        assert_eq!((f.epoch(), f.last_seq()), (2, 1));
    }

    #[test]
    fn higher_epoch_is_adopted_and_restarts_seq() {
        let mut f = Fence::default();
        assert_eq!(f.admit(1, 40), Admit::Apply);
        // A new controller starts its counters at 1: applied, not a
        // duplicate of the old epoch's seq 1.
        assert_eq!(f.admit(2, 1), Admit::Apply);
        assert_eq!((f.epoch(), f.last_seq()), (2, 1));
        assert_eq!(f.admit(1, 41), Admit::Stale);
    }

    #[test]
    fn seq_zero_under_a_new_epoch_adopts_it_without_applying() {
        let mut f = Fence::default();
        assert_eq!(f.admit(1, 3), Admit::Apply);
        assert_eq!(f.admit(2, 0), Admit::Duplicate);
        assert_eq!((f.epoch(), f.last_seq()), (2, 0));
        assert_eq!(f.admit(1, 4), Admit::Stale);
    }
}
