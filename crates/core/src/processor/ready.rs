//! Per-(cluster, FU kind) ready queues with an occupancy bitmask, so the
//! event kernel's issue step and idle-cycle skipper visit only non-empty
//! queues instead of all `clusters × FU_KINDS` of them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{FU_KINDS, MAX_CLUSTERS};

/// Occupancy words: one bit per queue at the widest supported machine.
const WORDS: usize = 4;
const _: () = assert!(MAX_CLUSTERS * FU_KINDS <= WORDS * 64);

/// Min-heaps of known-ready waiting instructions, indexed
/// `cluster * FU_KINDS + kind`, plus a bitmask of the non-empty ones.
#[derive(Debug)]
pub(super) struct ReadyQueues {
    queues: Vec<BinaryHeap<Reverse<u64>>>,
    /// Bit `i` is set iff `queues[i]` is non-empty.
    occupied: [u64; WORDS],
}

impl ReadyQueues {
    /// Empty queues for a `clusters`-wide machine.
    pub(super) fn new(clusters: usize) -> Self {
        ReadyQueues {
            queues: (0..clusters * FU_KINDS)
                .map(|_| BinaryHeap::new())
                .collect(),
            occupied: [0; WORDS],
        }
    }

    /// Enqueues `seq` on queue `idx`.
    #[inline]
    pub(super) fn push(&mut self, idx: usize, seq: u64) {
        self.queues[idx].push(Reverse(seq));
        self.occupied[idx / 64] |= 1 << (idx % 64);
    }

    /// Pops the oldest seq on queue `idx`.
    #[inline]
    pub(super) fn pop(&mut self, idx: usize) -> Option<u64> {
        let q = &mut self.queues[idx];
        let Reverse(seq) = q.pop()?;
        if q.is_empty() {
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        Some(seq)
    }

    /// Indices of the non-empty queues, ascending. Iterates a snapshot of
    /// the mask, so the caller may pop while walking it.
    #[inline]
    pub(super) fn occupied(&self) -> Occupied {
        Occupied {
            mask: self.occupied,
            word: 0,
        }
    }

    /// Instructions waiting across all queues.
    pub(super) fn len(&self) -> usize {
        self.occupied().map(|i| self.queues[i].len()).sum()
    }
}

/// Ascending set-bit walk over an occupancy snapshot.
pub(super) struct Occupied {
    mask: [u64; WORDS],
    word: usize,
}

impl Iterator for Occupied {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word < WORDS {
            let bits = &mut self.mask[self.word];
            if *bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                return Some(self.word * 64 + bit);
            }
            self.word += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_tracks_exactly_the_non_empty_queues() {
        let mut rq = ReadyQueues::new(MAX_CLUSTERS);
        let last = MAX_CLUSTERS * FU_KINDS - 1;
        for idx in [last, 70, 3, 64, 3] {
            rq.push(idx, idx as u64 + 100);
        }
        assert_eq!(rq.occupied().collect::<Vec<_>>(), vec![3, 64, 70, last]);
        assert_eq!(rq.len(), 5);
        // Queue 3 holds two entries: the first pop keeps its bit.
        assert_eq!(rq.pop(3), Some(103));
        assert_eq!(rq.occupied().collect::<Vec<_>>(), vec![3, 64, 70, last]);
        assert_eq!(rq.pop(3), Some(103));
        assert_eq!(rq.pop(3), None);
        assert_eq!(rq.pop(last), Some(last as u64 + 100));
        assert_eq!(rq.occupied().collect::<Vec<_>>(), vec![64, 70]);
    }

    #[test]
    fn queues_pop_oldest_first() {
        let mut rq = ReadyQueues::new(4);
        for seq in [9, 2, 5] {
            rq.push(6, seq);
        }
        assert_eq!(
            (rq.pop(6), rq.pop(6), rq.pop(6)),
            (Some(2), Some(5), Some(9))
        );
        assert_eq!(rq.occupied().count(), 0);
    }
}
