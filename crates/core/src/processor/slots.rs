//! The value pool: per-value state recycled like a physical register file
//! (DESIGN.md §13).
//!
//! Every destination value in flight carries a [`ValueInfo`] plus
//! per-cluster state: arrival cycles, intrusive waiter-list heads and the
//! ordered subscriber list. All of it lives in one pool of **rows**; a
//! row's per-cluster slots sit in struct-of-arrays tables whose row width
//! (**stride**) is the machine's cluster count, read off the `Topology`
//! once at `Processor` construction:
//! `slot(row, cluster) = table[row * stride + cluster]`.
//!
//! A row is allocated when a destination-carrying op dispatches and
//! released when the *next writer of the same architectural register
//! commits* — the physical-register-file rule. Every consumer of the old
//! value dispatched before that writer (it read the rename map while the
//! old value was current), so it has already committed; each consumer
//! needed its copy to issue, so every copy has been delivered and every
//! waiter woken. Live rows are therefore bounded by the in-flight writers
//! plus one committed value per architectural register: the pool reserves
//! exactly that bound, `rob_size + ArchReg::total()` rows, at construction
//! and hands out rows from it (recycled ones first, fresh ones only when
//! none is free), so the tables never reallocate and stop growing once
//! the run's peak of live values is reached.
//!
//! Handles ([`ValueRef`]) carry the row next to the producer's seq; each
//! row stores its owner seq as a tag, and every access checks it in debug
//! builds, so a handle that outlived its row is caught where it is used.
//!
//! This is deliberately *not* an inline-vs-spill enum per value (an
//! earlier cut of the widening was, and the per-access tag dispatch plus
//! the fatter `ValueInfo` cost ~5% wall-clock on the ≤16-cluster fast
//! path). A flat table is branch-free on every access, keeps `ValueInfo`
//! small, and on narrow machines shrinks the per-value footprint to the
//! machine width (stride 4 on the paper's crossbar).

use super::{MAX_CLUSTERS, NOT_SENT, NO_WAITER};
use crate::mask::ClusterMask;

/// Handle of a live value: the producing op's seq and its pool row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ValueRef {
    pub(super) seq: u64,
    pub(super) row: u32,
}

/// Row tag of a free row (no seq ever reaches it: waiter nodes already
/// bound seqs to 31 bits).
const FREE: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub(super) struct ValueInfo {
    /// Owner tag: the seq of the op that produces this value.
    seq: u64,
    pub(super) cluster: usize,
    pub(super) done_at: Option<u64>,
    pub(super) narrow: bool,
    pub(super) value: u64,
    pub(super) pc: u64,
    /// Subscribed clusters whose consumer marked this producer as its
    /// last-arriving (youngest still-pending) operand at dispatch — the
    /// criticality signal completion-time copies hand to the policy.
    pub(super) critical_subs: ClusterMask,
}

impl ValueInfo {
    pub(super) fn new(seq: u64, cluster: usize, narrow: bool, value: u64, pc: u64) -> Self {
        ValueInfo {
            seq,
            cluster,
            done_at: None,
            narrow,
            value,
            pc,
            critical_subs: ClusterMask::EMPTY,
        }
    }
}

/// A bounded pool of value rows, each a [`ValueInfo`] plus `stride`
/// per-cluster slots.
#[derive(Debug, Clone)]
pub(super) struct ValuePool {
    /// Row width: the machine's cluster count.
    stride: usize,
    /// Most rows the pool may hold (the tables' reserved capacity).
    bound: usize,
    /// Per-row value record and owner tag; its length is the number of
    /// rows ever handed out.
    info: Vec<ValueInfo>,
    /// Free rows, popped LIFO so recently released (cache-warm) rows are
    /// reused first.
    free: Vec<u32>,
    /// Cycle a copy arrives per remote cluster ([`NOT_SENT`] /
    /// [`super::IN_FLIGHT`] sentinels).
    arrivals: Vec<u64>,
    /// Per-cluster heads of the intrusive waiter lists ([`NO_WAITER`] =
    /// empty; see `rob.rs` for the node encoding).
    waiters: Vec<u32>,
    /// Remote clusters awaiting a copy once the value completes,
    /// insertion-ordered — copies must be sent in subscription order
    /// because the network assigns transfer ids (and breaks arbitration
    /// ties) in send order.
    subscribers: Vec<u8>,
    /// Live prefix length of each subscriber row.
    subs_len: Vec<u8>,
}

impl ValuePool {
    /// An empty pool of at most `bound` rows for a `clusters`-wide
    /// machine. Every table reserves its full size here; rows are
    /// initialised only when first handed out.
    pub(super) fn new(clusters: usize, bound: usize) -> Self {
        debug_assert!(clusters <= MAX_CLUSTERS);
        assert!(bound <= u32::MAX as usize, "value pool rows must fit u32");
        ValuePool {
            stride: clusters,
            bound,
            info: Vec::with_capacity(bound),
            free: Vec::with_capacity(bound),
            arrivals: Vec::with_capacity(bound * clusters),
            waiters: Vec::with_capacity(bound * clusters),
            subscribers: Vec::with_capacity(bound * clusters),
            subs_len: Vec::with_capacity(bound),
        }
    }

    /// Rows handed out so far (live + free): the run's peak of live
    /// values.
    #[cfg(test)]
    pub(super) fn rows(&self) -> usize {
        self.info.len()
    }

    /// Rows the record and slot tables can hold without reallocating.
    #[cfg(test)]
    pub(super) fn reserved_rows(&self) -> usize {
        self.info
            .capacity()
            .min(self.arrivals.capacity() / self.stride)
    }

    /// Rows currently holding a value.
    #[cfg(test)]
    pub(super) fn live(&self) -> usize {
        self.info.len() - self.free.len()
    }

    /// Takes a row for `info` (whose tag is its producer's seq): a
    /// released one if any, else a fresh one. Either way every slot holds
    /// its sentinel.
    ///
    /// # Panics
    ///
    /// Panics when all `bound` rows are live — the
    /// free-at-next-writer-commit bound was broken.
    #[inline]
    pub(super) fn alloc(&mut self, info: ValueInfo) -> ValueRef {
        let seq = info.seq;
        if let Some(row) = self.free.pop() {
            self.info[row as usize] = info;
            return ValueRef { seq, row };
        }
        self.fresh_row(info)
    }

    /// Appends a sentinel-filled row within the reserved capacity.
    #[cold]
    fn fresh_row(&mut self, info: ValueInfo) -> ValueRef {
        assert!(
            self.info.len() < self.bound,
            "value pool exhausted: live values exceed rob_size + architected registers"
        );
        let (seq, row) = (info.seq, self.info.len() as u32);
        let slots = self.arrivals.len() + self.stride;
        self.info.push(info);
        self.arrivals.resize(slots, NOT_SENT);
        self.waiters.resize(slots, NO_WAITER);
        self.subscribers.resize(slots, 0);
        self.subs_len.push(0);
        ValueRef { seq, row }
    }

    /// Returns `v`'s row to the free list, resetting its arrival slots.
    /// The value's last consumer has committed, so no waiter, in-flight
    /// copy or subscription may remain.
    #[inline]
    pub(super) fn release(&mut self, v: ValueRef) {
        let base = self.base(v);
        let arrivals = &mut self.arrivals[base..base + self.stride];
        debug_assert!(
            !arrivals.contains(&super::IN_FLIGHT),
            "released value {v:?} has a copy in flight"
        );
        debug_assert!(
            self.waiters[base..base + self.stride]
                .iter()
                .all(|&w| w == NO_WAITER),
            "released value {v:?} has waiters"
        );
        debug_assert_eq!(
            self.subs_len[v.row as usize], 0,
            "released value {v:?} has subscribers"
        );
        arrivals.fill(NOT_SENT);
        self.info[v.row as usize].seq = FREE;
        self.free.push(v.row);
    }

    /// Offset of `v`'s first slot, checking the row's owner tag.
    #[inline]
    fn base(&self, v: ValueRef) -> usize {
        debug_assert!(self.owns(v), "stale value handle {v:?}");
        v.row as usize * self.stride
    }

    #[inline]
    fn idx(&self, v: ValueRef, cluster: usize) -> usize {
        debug_assert!(cluster < self.stride);
        self.base(v) + cluster
    }

    /// Whether `v`'s row still holds `v` (its tag is `v`'s seq).
    #[inline]
    pub(super) fn owns(&self, v: ValueRef) -> bool {
        self.info[v.row as usize].seq == v.seq
    }

    /// The value record behind `v`.
    #[inline]
    pub(super) fn get(&self, v: ValueRef) -> &ValueInfo {
        debug_assert!(self.owns(v), "stale value handle {v:?}");
        &self.info[v.row as usize]
    }

    #[inline]
    pub(super) fn get_mut(&mut self, v: ValueRef) -> &mut ValueInfo {
        debug_assert!(self.owns(v), "stale value handle {v:?}");
        &mut self.info[v.row as usize]
    }

    /// The arrival slot for `v` in `cluster`.
    #[inline]
    pub(super) fn arrival(&self, v: ValueRef, cluster: usize) -> u64 {
        self.arrivals[self.idx(v, cluster)]
    }

    /// Sets the arrival slot for `v` in `cluster`.
    #[inline]
    pub(super) fn set_arrival(&mut self, v: ValueRef, cluster: usize, cycle: u64) {
        let i = self.idx(v, cluster);
        self.arrivals[i] = cycle;
    }

    /// Swaps `node` into the waiter-list head for (`v`, `cluster`) and
    /// returns the previous head.
    #[inline]
    pub(super) fn replace_waiter(&mut self, v: ValueRef, cluster: usize, node: u32) -> u32 {
        let i = self.idx(v, cluster);
        std::mem::replace(&mut self.waiters[i], node)
    }

    /// Appends `cluster` to `v`'s subscriber list unless already
    /// subscribed.
    pub(super) fn push_subscriber_unique(&mut self, v: ValueRef, cluster: usize) {
        let base = self.base(v);
        let row = &mut self.subscribers[base..base + self.stride];
        let n = self.subs_len[v.row as usize] as usize;
        if row[..n].contains(&(cluster as u8)) {
            return;
        }
        row[n] = cluster as u8;
        self.subs_len[v.row as usize] = n as u8 + 1;
    }

    /// Empties `v`'s subscriber list, returning the subscribed clusters
    /// in subscription order (the publish path iterates them while
    /// sending, which needs `&mut self`).
    pub(super) fn take_subscribers(&mut self, v: ValueRef) -> TakenSubscribers {
        let base = self.base(v);
        let len = std::mem::take(&mut self.subs_len[v.row as usize]);
        let mut clusters = [0u8; MAX_CLUSTERS];
        clusters[..len as usize].copy_from_slice(&self.subscribers[base..base + len as usize]);
        TakenSubscribers { clusters, len }
    }
}

/// An owned, drained subscriber list (at most one slot per cluster, so an
/// inline [`MAX_CLUSTERS`]-wide buffer always suffices — no allocation).
pub(super) struct TakenSubscribers {
    clusters: [u8; MAX_CLUSTERS],
    len: u8,
}

impl TakenSubscribers {
    /// The drained clusters, in subscription order.
    pub(super) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.clusters[..self.len as usize]
            .iter()
            .map(|&c| c as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(seq: u64) -> ValueInfo {
        ValueInfo::new(seq, 0, false, 0, 0)
    }

    #[test]
    fn rows_are_stride_wide_and_sentinel_filled() {
        for stride in [4, 16, 64] {
            let mut pool = ValuePool::new(stride, 2);
            let a = pool.alloc(value(0));
            let b = pool.alloc(value(1));
            for c in 0..stride {
                assert_eq!(pool.arrival(b, c), NOT_SENT);
                assert_eq!(pool.replace_waiter(b, c, 7), NO_WAITER);
                pool.replace_waiter(b, c, NO_WAITER);
            }
            pool.set_arrival(b, stride - 1, 42);
            assert_eq!(pool.arrival(b, stride - 1), 42);
            // Row a is untouched by row b's writes.
            assert_eq!(pool.arrival(a, stride - 1), NOT_SENT);
        }
    }

    #[test]
    fn released_rows_come_back_clean_under_a_new_owner() {
        let mut pool = ValuePool::new(8, 2);
        let a = pool.alloc(value(10));
        pool.set_arrival(a, 3, 99);
        pool.get_mut(a).done_at = Some(5);
        pool.release(a);
        assert_eq!(pool.live(), 0);
        // LIFO reuse: the released row is handed straight back, with its
        // slots reset and the new owner's record.
        let b = pool.alloc(value(11));
        assert_eq!(b.row, a.row);
        assert_eq!(pool.arrival(b, 3), NOT_SENT);
        assert_eq!(pool.get(b).done_at, None);
        assert_eq!(pool.rows(), 1, "no fresh row while one is free");
    }

    #[test]
    #[should_panic(expected = "value pool exhausted")]
    fn allocating_past_the_bound_panics() {
        let mut pool = ValuePool::new(4, 1);
        pool.alloc(value(0));
        pool.alloc(value(1));
    }

    #[test]
    #[should_panic(expected = "stale value handle")]
    #[cfg(debug_assertions)]
    fn a_handle_outliving_its_row_is_caught() {
        let mut pool = ValuePool::new(4, 1);
        let a = pool.alloc(value(0));
        pool.release(a);
        pool.alloc(value(1));
        let _ = pool.arrival(a, 0);
    }

    #[test]
    #[should_panic(expected = "has waiters")]
    #[cfg(debug_assertions)]
    fn releasing_a_value_with_waiters_is_caught() {
        let mut pool = ValuePool::new(4, 1);
        let a = pool.alloc(value(0));
        pool.replace_waiter(a, 2, 6);
        pool.release(a);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn slots_are_bounded_by_the_cluster_count() {
        let mut pool = ValuePool::new(4, 1);
        let a = pool.alloc(value(0));
        let _ = pool.arrival(a, 4);
    }

    #[test]
    fn subscribers_keep_insertion_order_at_any_width() {
        for stride in [4, 16, 64] {
            let mut pool = ValuePool::new(stride, 1);
            let a = pool.alloc(value(0));
            for c in [3, 1, 3, 0, 1] {
                pool.push_subscriber_unique(a, c);
            }
            let taken = pool.take_subscribers(a);
            assert_eq!(taken.iter().collect::<Vec<_>>(), vec![3, 1, 0]);
            // Taking drains the list.
            assert_eq!(pool.take_subscribers(a).iter().count(), 0);
        }
        let mut wide = ValuePool::new(64, 1);
        let a = wide.alloc(value(0));
        wide.push_subscriber_unique(a, 63);
        wide.push_subscriber_unique(a, 17);
        let taken = wide.take_subscribers(a);
        assert_eq!(taken.iter().collect::<Vec<_>>(), vec![63, 17]);
    }
}
