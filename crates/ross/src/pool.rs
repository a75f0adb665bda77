//! Envelope pool: slab-allocated cold storage for queued events.
//!
//! The pending-event queues keep only a small **hot entry** (timestamps,
//! sender, slot index) in their sorted structures; what it lacks — the
//! tiebreak, destination and payload — parks here as a [`Slot`] until the
//! event is popped and its envelope rebuilt. Slots are recycled through a
//! free list, so once the simulation's event population has peaked
//! (`high_water`), the steady state performs **zero heap allocations per
//! event**: push reuses a freed slot and pop frees it again.
//!
//! Separating hot from cold also makes the queues cache-conscious: rung
//! buckets and heap nodes sort 24/32-byte keys instead of moving whole
//! envelopes (which carry the model payload) through every bucket spill,
//! rung spawn and sift.

use crate::event::{Envelope, EventUid, LpId};
use crate::time::SimTime;
use std::mem::MaybeUninit;
use std::num::NonZeroU32;

/// Best-effort read prefetch into all cache levels. A scheduling hint
/// only — never required for correctness; compiles to nothing off
/// x86_64. The schedulers use it to hide the slab/LP-state misses of the
/// next two events behind the current event's handler.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// [`prefetch_read`] every cache line of the `len` bytes at `p`: a value
/// that straddles lines (an 80-byte CODES pool slot always spans two) is
/// only resident once all of them are. `p` need not be valid.
#[inline(always)]
pub(crate) fn prefetch_bytes(p: *const u8, len: usize) {
    const LINE: usize = 64;
    let end = p as usize + len.max(1);
    let mut line = p as usize & !(LINE - 1);
    while line < end {
        prefetch_read(line as *const u8);
        line += LINE;
    }
}

/// [`prefetch_bytes`] over the whole `T` at `p`.
#[inline(always)]
pub(crate) fn prefetch_value<T>(p: *const T) {
    prefetch_bytes(p as *const u8, std::mem::size_of::<T>())
}

/// Pool counters surfaced through scheduler telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Peak number of live (queued) envelopes — the slab never grows past
    /// the population high-water mark.
    pub high_water: u64,
    /// Slot reuses: pushes served from the free list instead of fresh
    /// slab growth. In steady state this tracks `pushes - high_water`.
    pub recycled: u64,
}

impl PoolStats {
    /// Fold per-thread pools into one record: peaks max, reuse sums.
    pub fn merge(&mut self, other: PoolStats) {
        self.high_water = self.high_water.max(other.high_water);
        self.recycled += other.recycled;
    }
}

/// The cold half of a queued event. `dst` is stored plus one so that
/// `Option<Slot<E>>` uses its niche: a PHOLD slot is 16 bytes.
pub(crate) struct Slot<E> {
    pub(crate) tiebreak: u64,
    dst: NonZeroU32,
    payload: E,
}

impl<E> Slot<E> {
    #[inline]
    pub(crate) fn dst(&self) -> LpId {
        self.dst.get() - 1
    }
}

const _: () = assert!(std::mem::size_of::<Option<Slot<u32>>>() == 16);

/// Bytes one pool slot occupies for payload type `E`: the slab's size is
/// the population high-water mark times this.
pub fn pool_slot_bytes<E>() -> u64 {
    std::mem::size_of::<Option<Slot<E>>>() as u64
}

/// Slab of slots with a free list. Indices are dense `u32` slots — the
/// queues store them beside the hot ordering key.
pub(crate) struct EventPool<E> {
    slots: Vec<Option<Slot<E>>>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
    recycled: u64,
}

impl<E> EventPool<E> {
    pub(crate) fn new() -> Self {
        EventPool { slots: Vec::new(), free: Vec::new(), live: 0, high_water: 0, recycled: 0 }
    }

    /// Park what `env`'s hot entry lacks, returning its slot.
    #[inline]
    pub(crate) fn insert(&mut self, env: Envelope<E>) -> u32 {
        debug_assert_eq!(env.uid, EventUid { src: env.src, seq: env.tiebreak }, "uid is derived");
        let dst = NonZeroU32::new(env.dst.wrapping_add(1)).expect("LP id below u32::MAX");
        let cold = Slot { tiebreak: env.tiebreak, dst, payload: env.payload };
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        match self.free.pop() {
            Some(i) => {
                self.recycled += 1;
                debug_assert!(self.slots[i as usize].is_none(), "free list points at live slot");
                self.slots[i as usize] = Some(cold);
                i
            }
            None => {
                let i = self.slots.len();
                assert!(i < u32::MAX as usize, "event pool exceeds u32 slots");
                self.slots.push(Some(cold));
                i as u32
            }
        }
    }

    /// Empty `slot` (recycling it) and rebuild its envelope around the
    /// hot entry's `(recv, send, src)`; the uid is `(src, tiebreak)`.
    #[inline]
    pub(crate) fn take(&mut self, slot: u32, recv: u64, send: u64, src: LpId) -> Envelope<E> {
        let mut out = MaybeUninit::uninit();
        self.take_into(slot, recv, send, src, &mut out);
        // SAFETY: `take_into` initializes `out` or panics.
        unsafe { out.assume_init() }
    }

    /// [`take`](EventPool::take), building the envelope in `out` itself
    /// (overwritten, not dropped): the payload moves from the slot to its
    /// final place once, with no envelope-sized temporary in between.
    #[inline]
    pub(crate) fn take_into(
        &mut self,
        slot: u32,
        recv: u64,
        send: u64,
        src: LpId,
        out: &mut MaybeUninit<Envelope<E>>,
    ) {
        let cold = self.slots[slot as usize].take().expect("pool slot already empty");
        self.live -= 1;
        self.free.push(slot);
        out.write(Envelope {
            recv_time: SimTime(recv),
            send_time: SimTime(send),
            src,
            dst: cold.dst(),
            tiebreak: cold.tiebreak,
            uid: EventUid { src, seq: cold.tiebreak },
            payload: cold.payload,
        });
    }

    /// Borrow the contents of `slot` (peek / tie comparisons).
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> &Slot<E> {
        self.slots[slot as usize].as_ref().expect("pool slot empty")
    }

    /// Hint that `slot` will be read soon: all of it, since `peek` tests
    /// the `Option` niche and `take` moves the payload, wherever in the
    /// slot those lie (see [`prefetch_value`]).
    #[inline(always)]
    pub(crate) fn prefetch(&self, slot: u32) {
        if let Some(s) = self.slots.get(slot as usize) {
            prefetch_value(s);
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats { high_water: self.high_water as u64, recycled: self.recycled }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An event from LP 3 (the sender `take` is told in these tests).
    fn env(tiebreak: u64, dst: LpId, payload: u64) -> Envelope<u64> {
        Envelope {
            recv_time: SimTime(10),
            send_time: SimTime(5),
            src: 3,
            dst,
            tiebreak,
            uid: EventUid { src: 3, seq: tiebreak },
            payload,
        }
    }

    #[test]
    fn slots_recycle_and_high_water_tracks_peak() {
        let mut p = EventPool::new();
        let a = p.insert(env(1, 7, 1000));
        let b = p.insert(env(2, 0, 2000));
        assert_eq!(p.len(), 2);
        assert_eq!((p.get(a).payload, p.get(a).dst(), p.get(b).dst()), (1000, 7, 0));
        let back = p.take(a, 10, 5, 3);
        assert_eq!((back.recv_time.0, back.send_time.0, back.src, back.dst), (10, 5, 3, 7));
        assert_eq!((back.tiebreak, back.uid, back.payload), (1, EventUid { src: 3, seq: 1 }, 1000));
        // The freed slot is reused; the slab does not grow.
        let c = p.insert(env(3, u32::MAX - 1, 3000));
        assert_eq!(p.get(c).dst(), u32::MAX - 1);
        assert_eq!(c, a);
        assert_eq!(p.take(b, 0, 0, 3).payload, 2000);
        assert_eq!(p.take(c, 0, 0, 3).payload, 3000);
        let s = p.stats();
        assert_eq!(s.high_water, 2);
        assert_eq!(s.recycled, 1);
        assert_eq!(p.len(), 0);
    }

    #[test]
    #[should_panic(expected = "already empty")]
    fn double_take_is_caught() {
        let mut p = EventPool::new();
        let a = p.insert(env(1, 0, 0));
        p.take(a, 0, 0, 3);
        p.take(a, 0, 0, 3);
    }

    #[test]
    fn merge_folds_peaks_and_sums_reuse() {
        let mut a = PoolStats { high_water: 10, recycled: 5 };
        a.merge(PoolStats { high_water: 7, recycled: 9 });
        assert_eq!(a, PoolStats { high_water: 10, recycled: 14 });
    }
}
