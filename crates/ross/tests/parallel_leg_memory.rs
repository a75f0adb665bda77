//! Memory contract of a bounded parallel leg's boundaries.
//!
//! A leg hands the pending set to its workers and back as whole queues
//! (DESIGN.md §6): the scatter streams the simulation's queue into the
//! workers' and frees it, and the gather adopts the fullest worker queue
//! and streams the others into it. So at no point does the leg hold the
//! pending set once as queued slots and again as a vector of whole
//! envelopes. This test pins that with a counting `#[global_allocator]`
//! that tracks live and peak heap bytes: around a bounded `par:2` leg of
//! a PHOLD whose 256-byte payload makes events dominate the heap, the
//! peak above the pre-leg live bytes must stay within a bound relative to
//! the live bytes after the leg.
//!
//! Deliberately a single `#[test]` in its own binary: the counters are
//! process-global, and a concurrent sibling test would pollute them.
//! Production cfg only: the leg runs real threads, which the shimmed
//! primitives of a `union_check` build accept only inside the checker.
#![cfg(not(union_check))]

use ross::{Ctx, Envelope, Lp, QueueKind, SimDuration, SimTime, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live heap bytes and their high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    /// Counted as a resize, not as old + new blocks: large reallocations
    /// move pages rather than copying them.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// xorshift64*, so the model needs no `rand`.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// Constant-population PHOLD with a 256-byte payload: every handled event
/// sends one replacement to a uniform LP 50..=549 ns later.
struct FatPhold {
    n_lps: u32,
    rng: XorShift,
}

impl Lp for FatPhold {
    type Event = [u64; 32];
    fn handle(&mut self, ev: &Envelope<[u64; 32]>, ctx: &mut Ctx<'_, [u64; 32]>) {
        let r = self.rng.next();
        let dst = (r % self.n_lps as u64) as u32;
        let mut payload = ev.payload;
        payload[(r >> 59) as usize] ^= r;
        ctx.send(dst, SimDuration::from_ns(50 + (r >> 32) % 500), payload);
    }
}

#[test]
fn parallel_leg_moves_queues_not_envelopes() {
    const N_LPS: u32 = 128;
    const PER_LP: u64 = 64;
    let lps = (0..N_LPS)
        .map(|i| FatPhold { n_lps: N_LPS, rng: XorShift(0x9E3779B97F4A7C15 ^ (i as u64) << 17) })
        .collect();
    let mut sim = Simulation::with_queue(lps, SimDuration::from_ns(1), QueueKind::Ladder);
    for i in 0..N_LPS {
        for k in 0..PER_LP {
            sim.schedule(i, SimTime::from_ns(k * 7 + i as u64), [k; 32]);
        }
    }

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let stats = sim.run_conservative_parallel(2, SimDuration::from_ns(50), SimTime::from_us(20));
    let (peak, after) = (PEAK.load(Ordering::SeqCst), LIVE.load(Ordering::SeqCst));

    assert!(stats.committed > 10 * (N_LPS as u64 * PER_LP), "leg ran dry: {stats:?}");
    assert_eq!(sim.pending_events(), (N_LPS as u64 * PER_LP) as usize);
    let ratio = (peak - before) as f64 / after as f64;
    eprintln!("live before {before} B, peak {peak} B, after {after} B: ratio {ratio:.2}");
    // Moving queues measures about 1.1 here: the workers' slabs fill
    // while the simulation's is still alive, then the gather's merge
    // briefly holds both worker slabs. Copying the pending set out as
    // whole envelopes while the queues still hold it measures above 3.
    assert!(
        ratio < 1.5,
        "a parallel leg peaked {} B above its {before} B start, {ratio:.2}x the {after} B it \
         ended with: the pending set is being copied at a leg boundary",
        peak - before
    );
}
