//! Model-checked oracle harness for the parallel schedulers.
//!
//! Built (and meaningful) only under `RUSTFLAGS="--cfg union_check"`:
//! every synchronization primitive in `ross::parallel`, `ross::mailbox`
//! and the sharded scheduler's loopback transport then routes through
//! `ross-check`'s controlled scheduler, and `ross_check::Builder::check`
//! drives whole simulation runs through every DPOR-distinct thread
//! interleaving.
//!
//! On **every explored schedule** the harness asserts:
//!
//! * the parallel/sharded fingerprint is bit-identical to the
//!   sequential reference (determinism oracle);
//! * no processed event ever precedes the agreed GVT (asserted inside
//!   the schedulers, `cfg(union_check)` only);
//! * no mailbox event is dropped or double-delivered (push/drain
//!   counters asserted in `Mailbox::drop`);
//! * no data race and no deadlock (the checker fails the run and prints
//!   a replayable schedule otherwise — see DESIGN.md §13).
//!
//! Models are deliberately tiny (2 LPs, ~8 events) so the DPOR-pruned
//! exploration stays exhaustive over trace-equivalence classes.
#![cfg(union_check)]

use ross::shard::{loopback_mesh, shard_owner_map};
use ross::{Ctx, Envelope, Lp, QueueKind, SimDuration, SimTime, Simulation};

/// Deterministic mini-PHOLD: every event forwards to the next LP on the
/// ring after a fixed 60 ns delay, folding a checksum. No RNG — state
/// space stays small and the sequential fingerprint is exact.
#[derive(Clone)]
struct Ring {
    n_lps: u32,
    hits: u64,
    checksum: u64,
    horizon: SimTime,
}

impl Lp for Ring {
    type Event = u64;
    fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
        self.hits += 1;
        self.checksum = self
            .checksum
            .wrapping_mul(6364136223846793005)
            .wrapping_add(ev.payload ^ ev.recv_time.as_ns());
        if ctx.now() < self.horizon {
            let dst = (ev.dst + 1) % self.n_lps;
            ctx.send(dst, SimDuration::from_ns(60), self.checksum);
        }
    }
}

// Four events per ring chain (t=i, i+60, i+120, i+180), several
// processing rounds: big enough to cross partitions/shards every round,
// small enough that DPOR-pruned exploration finishes in seconds on one
// core.
const HORIZON_NS: u64 = 150;

fn mk_sim(n_lps: u32, qk: QueueKind) -> Simulation<Ring> {
    let lps = (0..n_lps)
        .map(|_| Ring { n_lps, hits: 0, checksum: 0, horizon: SimTime::from_ns(HORIZON_NS) })
        .collect();
    let mut sim = Simulation::with_queue(lps, SimDuration::from_ns(1), qk);
    for i in 0..n_lps {
        sim.schedule(i, SimTime::from_ns(i as u64), i as u64);
    }
    sim
}

fn fingerprint(sim: &Simulation<Ring>) -> Vec<(u64, u64)> {
    sim.lps().iter().map(|l| (l.hits, l.checksum)).collect()
}

fn sequential_reference(qk: QueueKind) -> Vec<(u64, u64)> {
    let mut seq = mk_sim(2, qk);
    let stats = seq.run_sequential(SimTime::MAX);
    assert!(stats.committed >= 4, "reference model generated no work: {stats:?}");
    fingerprint(&seq)
}

/// 2-thread conservative-parallel run: 1 ring LP per worker, so every
/// send crosses partitions through a lock-free mailbox.
fn check_parallel(qk: QueueKind) {
    let expect = sequential_reference(qk);
    let schedules = ross_check::Builder::new().max_paths(100_000).check(|| {
        let mut sim = mk_sim(2, qk);
        let stats = sim.run_conservative_parallel(2, SimDuration::from_ns(60), SimTime::MAX);
        assert!(stats.committed >= 4);
        assert_eq!(
            fingerprint(&sim),
            expect,
            "parallel fingerprint diverged from sequential on this schedule"
        );
    });
    // DPOR must actually have explored alternatives (the workers' final
    // stats merges alone conflict), not bailed after one path.
    assert!(schedules > 1, "expected >1 explored schedules, got {schedules}");
}

/// 2-shard loopback run: each shard leader + 1 worker, cross-shard
/// events and the Mattern token fence over shimmed mpsc channels.
fn check_sharded(qk: QueueKind) {
    let expect = sequential_reference(qk);
    let schedules = ross_check::Builder::new().max_paths(100_000).check(|| {
        let mut mesh = loopback_mesh::<u64>(2);
        let t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        let run = move |mut tr: ross::shard::LoopbackTransport<u64>| {
            let mut sim = mk_sim(2, qk);
            let stats = sim
                .run_sharded(&mut tr, 1, SimDuration::from_ns(60), SimTime::MAX)
                .expect("sharded run failed");
            (fingerprint(&sim), stats.committed)
        };
        let h0 = ross_check::thread::spawn(move || run(t0));
        let h1 = ross_check::thread::spawn(move || run(t1));
        let (f0, c0) = h0.join().unwrap();
        let (f1, c1) = h1.join().unwrap();
        assert!(c0 + c1 >= 4);
        // Merge owned slices: each shard's fingerprint is only
        // meaningful for the LPs it owns.
        let owner = shard_owner_map(None, 2, 2);
        let merged: Vec<(u64, u64)> =
            (0..2).map(|g| if owner[g] == 0 { f0[g] } else { f1[g] }).collect();
        assert_eq!(merged, expect, "sharded fingerprint diverged from sequential on this schedule");
    });
    assert!(schedules >= 1, "sharded model explored no schedules");
}

/// 2-thread barrier-free asynchronous run: safe-horizon publishes, the
/// Mattern S/R counters, the park/wake handshake and (when load allows)
/// the steal handoff all route through the shimmed seam. The checked
/// build additionally asserts horizon monotonicity at every publish and
/// exactly-once delivery in `Mailbox::drop`. Full DPOR over the
/// per-iteration SeqCst horizon traffic is intractable, so this uses CHESS-style preemption bounding
/// (≤ 1 preemption) with `max_paths` as a loud bound.
fn check_async(qk: QueueKind) {
    let expect = sequential_reference(qk);
    let schedules = ross_check::Builder::new().fringe(1).max_paths(200_000).check(|| {
        let mut sim = mk_sim(2, qk);
        let stats = sim.run_conservative_async(2, SimDuration::from_ns(60), SimTime::MAX);
        assert!(stats.committed >= 4);
        assert_eq!(
            fingerprint(&sim),
            expect,
            "async fingerprint diverged from sequential on this schedule"
        );
    });
    assert!(schedules >= 1, "async model explored no schedules");
}

#[test]
fn async_two_workers_heap_matches_sequential_on_every_schedule() {
    check_async(QueueKind::Heap);
}

#[test]
fn async_two_workers_ladder_matches_sequential_on_every_schedule() {
    check_async(QueueKind::Ladder);
}

/// Mini-ring that keeps all traffic on LPs {0, 1} while LPs {2, 3} stay
/// silent: with partition blocks `[0, 0, 1, 1]` worker 1 owns only dead
/// LPs, so it must go through the thief path (request, horizon cap,
/// migration install) to ever contribute. Exercises the steal handshake
/// under the controlled scheduler.
#[derive(Clone)]
struct LopsidedRing {
    hits: u64,
    checksum: u64,
    horizon: SimTime,
}

impl Lp for LopsidedRing {
    type Event = u64;
    fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
        self.hits += 1;
        self.checksum = self
            .checksum
            .wrapping_mul(6364136223846793005)
            .wrapping_add(ev.payload ^ ev.recv_time.as_ns());
        if ctx.now() < self.horizon {
            ctx.send((ev.dst + 1) % 2, SimDuration::from_ns(60), self.checksum);
        }
    }
}

/// Steal-path oracle: on every explored schedule the lopsided model must
/// stay bit-identical to sequential, and across the exploration the
/// handoff must actually fire (8 seeded chains keep the victim's queue
/// at the steal threshold, so an idle thief always finds it).
#[test]
fn async_work_stealing_matches_sequential_on_every_schedule() {
    let mk = || {
        let lps = (0..4)
            .map(|_| LopsidedRing { hits: 0, checksum: 0, horizon: SimTime::from_ns(HORIZON_NS) })
            .collect();
        let mut sim = Simulation::new(lps, SimDuration::from_ns(1));
        sim.set_partition(ross::Partition::from_blocks(vec![0, 0, 1, 1]));
        for i in 0..8u64 {
            sim.schedule((i % 2) as u32, SimTime::from_ns(i), i);
        }
        sim
    };
    let mut seq = mk();
    seq.run_sequential(SimTime::MAX);
    let expect: Vec<(u64, u64)> = seq.lps().iter().map(|l| (l.hits, l.checksum)).collect();
    // Plain std atomic on purpose: tallies across schedules without
    // perturbing the controlled exploration.
    let total_steals = std::sync::atomic::AtomicU64::new(0);
    let schedules = ross_check::Builder::new().fringe(1).max_paths(200_000).check(|| {
        let mut sim = mk();
        let stats = sim.run_conservative_async(2, SimDuration::from_ns(60), SimTime::MAX);
        total_steals.fetch_add(stats.steals, std::sync::atomic::Ordering::Relaxed);
        let got: Vec<(u64, u64)> = sim.lps().iter().map(|l| (l.hits, l.checksum)).collect();
        assert_eq!(got, expect, "steal-path fingerprint diverged on this schedule");
    });
    assert!(schedules >= 1, "steal model explored no schedules");
    assert!(
        total_steals.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "no explored schedule ever exercised the steal handoff"
    );
}

#[test]
fn parallel_two_workers_heap_matches_sequential_on_every_schedule() {
    check_parallel(QueueKind::Heap);
}

#[test]
fn parallel_two_workers_ladder_matches_sequential_on_every_schedule() {
    check_parallel(QueueKind::Ladder);
}

#[test]
fn sharded_two_shards_loopback_heap_matches_sequential_on_every_schedule() {
    check_sharded(QueueKind::Heap);
}

#[test]
fn sharded_two_shards_loopback_ladder_matches_sequential_on_every_schedule() {
    check_sharded(QueueKind::Ladder);
}

/// Fringe smoke: the same parallel model under CHESS-style preemption
/// bounding (≤ 1 preemption) — the mode CI uses for larger models.
#[test]
fn fringe_bounded_preemption_smoke() {
    let expect = sequential_reference(QueueKind::Ladder);
    let schedules = ross_check::Builder::new().fringe(1).max_paths(20_000).check(|| {
        let mut sim = mk_sim(2, QueueKind::Ladder);
        sim.run_conservative_parallel(2, SimDuration::from_ns(60), SimTime::MAX);
        assert_eq!(fingerprint(&sim), expect);
    });
    assert!(schedules >= 1);
}
