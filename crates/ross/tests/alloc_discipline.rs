//! Steady-state allocation discipline for the sequential hot path.
//!
//! The event-pooling rework (DESIGN.md §14) promises that once the pool,
//! rung shells and chunk arena have warmed up, processing an event
//! allocates nothing: envelopes are recycled through `EventPool`, ladder
//! bucket chunks through the arena's free list, and the scheduler's
//! scratch buffers keep their capacity across events. This test pins that
//! promise with a counting `#[global_allocator]`: warm up a
//! constant-population PHOLD, then process a couple hundred thousand more
//! events and assert the allocator was hit at most a handful of times *per
//! run call* — i.e. zero times per event.
//!
//! Deliberately a single `#[test]` in its own binary: the allocator
//! counter is process-global, and a concurrent sibling test would
//! pollute it.

use ross::{Ctx, Envelope, Lp, QueueKind, SimDuration, SimTime, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts `alloc`/`realloc`/`alloc_zeroed` hits while `TRACKING` is set.
/// Frees are not counted: releasing warmup-era memory is fine, acquiring
/// new memory on the hot path is what this test forbids.
struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// xorshift64* — inline so the model needs no `rand` (whose thread-local
/// state could itself allocate under the counter).
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

/// Constant-population PHOLD: every handled event sends exactly one
/// replacement to a uniform LP after a 1..=500 ns delay.
struct Phold {
    n_lps: u32,
    rng: XorShift,
    hits: u64,
}

impl Lp for Phold {
    type Event = u64;
    fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
        self.hits += 1;
        let r = self.rng.next();
        let dst = (r % self.n_lps as u64) as u32;
        let delay = 1 + (r >> 32) % 500;
        ctx.send(dst, SimDuration::from_ns(delay), ev.payload ^ r);
    }
}

#[test]
fn sequential_steady_state_allocates_nothing_per_event() {
    const N_LPS: u32 = 256;
    let lps = (0..N_LPS)
        .map(|i| Phold {
            n_lps: N_LPS,
            rng: XorShift(0x9E3779B97F4A7C15 ^ (i as u64) << 17),
            hits: 0,
        })
        .collect();
    let mut sim = Simulation::with_queue(lps, SimDuration::from_ns(1), QueueKind::Ladder);
    for i in 0..N_LPS {
        sim.schedule(i, SimTime::from_ns(i as u64), i as u64);
    }

    // Warm up: pool slots, ladder rung shells, arena slabs and scratch
    // buffers all reach their steady-state capacity here.
    let warm = sim.run_sequential(SimTime::from_ns(2_000_000));
    assert!(warm.committed > 50_000, "warmup ran dry: {warm:?}");

    // Measured window: ~200k more events under the counting allocator.
    ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    let run = sim.run_sequential(SimTime::from_ns(2_200_000));
    TRACKING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert!(run.committed > 100_000, "measured window ran dry: {run:?}");
    // Per-run setup cost (the scheduler's scratch `out` buffer) is
    // allowed; anything scaling with the event count is not. 8 is a
    // loud, generous bound — the expected count is 1.
    assert!(
        allocs <= 8,
        "sequential hot path allocated {} times over {} events — \
         event pooling or chunk recycling has regressed",
        allocs,
        run.committed
    );
}
