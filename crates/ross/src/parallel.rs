//! Multi-threaded conservative scheduler with explicit lookahead windows
//! and lock-free cross-partition mailboxes (the CMB null-message idea
//! collapsed into a shared-memory barrier protocol).
//!
//! * **Topology-aware partitions.** LPs are grouped by a model-supplied
//!   [`crate::Partition`] (e.g. CODES keeps each router with its attached
//!   nodes), then packed onto threads by a deterministic greedy
//!   bin-packer. Partitions need not be contiguous, so LP state is moved
//!   into per-thread vectors and reassembled after the run. With no
//!   partition installed every LP is its own block.
//! * **Lock-free mailboxes.** Cross-partition events travel through
//!   Treiber-stack MPSC mailboxes ([`crate::mailbox`]) in chunks; a
//!   worker drains its mailbox once per round.
//! * **Caller-chosen lookahead.** The synchronization window is
//!   `max(window, engine lookahead)` — a window of 0 is the classic YAWNS
//!   protocol on the lookahead the model declared. A model whose true
//!   minimum delay exceeds the 1 ns it declared (CODES models: link
//!   latency floors) can run with wide windows and few barriers. A window
//!   wider than the model's real minimum delay is caught at run time by a
//!   hard causality check, never silently accepted.
//!
//! ## Protocol
//!
//! [`round_loop`] is the whole protocol, shared with the sharded runner
//! ([`crate::shard`]). Per round, every worker: (1) drains its mailbox
//! into its local queue, (2) publishes its minimum pending timestamp and
//! barriers, (3) learns the GVT from the [`Bound`] policy — [`LocalMin`]
//! reduces the published minima on the spot, the shard runner's token
//! fence asks the other processes — and processes every local event in
//! `[gvt, gvt + window)`, routing what they send through the [`Delivery`]
//! policy, (4) barriers again so all sends are visible before the next
//! drain. Determinism: within a partition events are processed in
//! total-key order from its [`crate::queue`]; across partitions every event in
//! one window is causally independent (window ≤ true minimum delay); and
//! mailbox arrival order is erased by the queue. For a fixed seed the
//! results are bit-identical to [`Simulation::run_sequential`].

use crate::engine::{RunStats, Simulation};
use crate::event::Envelope;
use crate::lp::Lp;
use crate::queue::EventQueue;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Barrier;
use crate::time::{SimDuration, SimTime};
use crate::worker::{drive, Lane, Run, Step, Worker};

/// Shared state of the round protocol: the barrier every party waits on
/// and one published queue minimum per worker.
pub(crate) struct Rounds {
    pub(crate) barrier: Barrier,
    pub(crate) mins: Vec<AtomicU64>,
}

impl Rounds {
    /// `parties` counts the workers plus whoever else joins the barrier
    /// (the shard runner's leader).
    pub(crate) fn new(n_workers: usize, parties: usize) -> Rounds {
        Rounds {
            barrier: Barrier::new(parties),
            mins: (0..n_workers).map(|_| AtomicU64::new(u64::MAX)).collect(),
        }
    }

    pub(crate) fn local_min(&self) -> u64 {
        self.mins.iter().map(|m| m.load(Ordering::Relaxed)).min().unwrap_or(u64::MAX)
    }
}

/// How the workers of a round agree on its GVT.
pub(crate) trait Bound<L: Lp>: Sync {
    /// Called by every worker right after the barrier that follows the
    /// publication of `rounds.mins`; returns the round's GVT (`u64::MAX`
    /// when nothing is pending anywhere). May wait on `rounds.barrier`,
    /// the same number of times on every worker.
    fn gvt(&self, w: &mut Worker<'_, L>, rounds: &Rounds) -> u64;
}

/// The in-process bound: every worker reduces the published minima itself
/// — a shared-memory GVT, two barrier waits per round in total.
pub(crate) struct LocalMin;

impl<L: Lp> Bound<L> for LocalMin {
    #[inline]
    fn gvt(&self, _w: &mut Worker<'_, L>, rounds: &Rounds) -> u64 {
        rounds.local_min()
    }
}

/// Where a freshly sent event goes.
pub(crate) trait Delivery<E> {
    fn route(&mut self, lane: &mut Lane<'_, E>, new: Envelope<E>);

    /// Called once per window, after the lane shipped its partial chunks:
    /// nothing may linger in policy-private buffers either.
    fn flush(&mut self) {}
}

/// In-process delivery: the local queue or a peer's mailbox.
pub(crate) struct Mailboxes<'a> {
    pub(crate) owner_of: &'a [u32],
    pub(crate) t: usize,
}

impl<E> Delivery<E> for Mailboxes<'_> {
    #[inline]
    fn route(&mut self, lane: &mut Lane<'_, E>, new: Envelope<E>) {
        let o = self.owner_of[new.dst as usize] as usize;
        if o == self.t {
            lane.queue.push(new);
        } else {
            lane.send(o, new);
        }
    }
}

/// One worker's side of the barrier round protocol (module docs), for the
/// LPs whose slab slots `local_of` names. Monomorphised per policy pair:
/// neither policy is consulted through a `dyn`, and the per-event path
/// holds no branch on which one is in use.
pub(crate) fn round_loop<L: Lp, B: Bound<L>, D: Delivery<L::Event>>(
    w: &mut Worker<'_, L>,
    run: &Run<L::Event>,
    rounds: &Rounds,
    bound: &B,
    mut delivery: D,
    local_of: &[u32],
    until: SimTime,
) {
    let t = w.t;
    loop {
        // (1) Ingest cross-partition events from the previous round.
        w.lane.ingest(t);
        // Read the latch here, in the quiescent interval between the
        // round's closing barrier and the next one: it only ever trips
        // while some thread is processing (between the barriers below), so
        // every worker reads the same frozen value and they all wind down
        // together. Reading it after the barrier would race a fast
        // worker's write against a slow worker's read and desynchronize
        // the barrier counts (deadlock).
        let halted = run.latch.tripped();
        // (2) Publish the local minimum, agree on the GVT. A halted worker
        // publishes "nothing pending": alone in its process that ends the
        // run at once; under a shard fence it keeps the rounds turning
        // (without processing) so the other shards can drain and finish.
        let local_min = match w.lane.queue.peek_time() {
            Some(ts) if !halted => ts.0,
            _ => u64::MAX,
        };
        rounds.mins[t].store(local_min, Ordering::Relaxed);
        w.wait(&rounds.barrier);
        let gvt = bound.gvt(w, rounds);
        if gvt == u64::MAX || gvt > until.0 {
            break;
        }
        w.rounds += 1;
        let wend = gvt.saturating_add(run.window_ns).min(until.0.saturating_add(1));

        // (3) Process local events in [gvt, wend). Model code
        // (`Lp::handle`) runs in here; the latch catches its panics so
        // this worker still reaches barrier (4) and the round protocol
        // stays in lockstep — everyone winds down at the next quiescent
        // interval and the payload resurfaces on the main thread.
        if !halted {
            let t0 = run.report.timing.then(std::time::Instant::now);
            run.latch.guard(|| {
                let slot = |dst: u32| local_of[dst as usize] as usize;
                let mut route = |lane: &mut Lane<'_, L::Event>, new| delivery.route(lane, new);
                let mut last = Step::Ran;
                while last == Step::Ran {
                    last = w.step(gvt, wend, &slot, &mut route);
                }
                run.late(last);
            });
            if let Some(t0) = t0 {
                w.busy_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        // Live flush once per window: counter deltas and local queue
        // depth from everyone, the round count and window floor from
        // worker 0.
        if t == 0 {
            if let Some(tp) = w.tap.as_mut() {
                tp.round();
            }
        }
        w.live_flush((t == 0).then_some(gvt));
        // Flush partial chunks — unconditionally, even on a violation or
        // model panic, so no buffered event is ever stranded in this
        // worker's locals.
        w.lane.flush(|_| {});
        delivery.flush();
        // (4) All sends of this round must be visible before anyone's
        // next mailbox drain.
        w.wait(&rounds.barrier);
    }
}

impl<L: Lp> Simulation<L> {
    /// Run with the conservative-parallel scheduler on `n_threads`
    /// workers and a synchronization window of `window` (clamped up to
    /// the engine lookahead, so 0 means "the lookahead the model
    /// declared"), until the queue drains or the next event exceeds
    /// `until`.
    ///
    /// Uses the partition installed with [`Simulation::set_partition`],
    /// or a per-LP partition when none was set. Produces results
    /// bit-identical to [`Simulation::run_sequential`]; panics if
    /// `window` exceeds the model's true minimum send delay (a causality
    /// violation would otherwise corrupt results silently).
    pub fn run_conservative_parallel(
        &mut self,
        n_threads: usize,
        window: SimDuration,
        until: SimTime,
    ) -> RunStats {
        let start = std::time::Instant::now();
        let Some(plan) = self.plan_workers(n_threads) else {
            return self.run_sequential(until);
        };
        let n_threads = plan.locals.len();
        let window = window.max(self.lookahead);
        let run = Run::open(self, "conservative-parallel", n_threads, window, start);
        let (workers, home) = run.scatter(self, &plan);
        let rounds = Rounds::new(n_threads, n_threads);
        let body = |w: &mut Worker<'_, L>| {
            let delivery = Mailboxes { owner_of: &plan.owner_of, t: w.t };
            round_loop(w, &run, &rounds, &LocalMin, delivery, &plan.local_of, until);
        };
        let (workers, ()) = drive(workers, body, || ());
        run.gather(self, workers, home)
    }
}

// These tests drive real multi-thread runs; under `union_check` the
// shimmed primitives require a model-checking context, so they only
// build in production cfg (the checked-build twin lives in
// `tests/union_check_oracle.rs`).
#[cfg(all(test, not(union_check)))]
pub(crate) mod tests {
    use super::*;
    use crate::lp::Ctx;
    use crate::{Partition, Scheduler};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[derive(Clone)]
    pub(crate) struct Phold {
        rng: SmallRng,
        n_lps: u32,
        hits: u64,
        checksum: u64,
        horizon: SimTime,
    }

    impl Lp for Phold {
        type Event = u64;
        fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
            self.hits += 1;
            self.checksum = self
                .checksum
                .wrapping_mul(6364136223846793005)
                .wrapping_add(ev.payload ^ ev.recv_time.as_ns());
            if ctx.now() < self.horizon {
                let dst = self.rng.gen_range(0..self.n_lps);
                let delay = SimDuration::from_ns(self.rng.gen_range(50..500));
                ctx.send(dst, delay, self.checksum);
            }
        }
    }

    /// PHOLD whose minimum send delay (50 ns) is far above the declared
    /// engine lookahead (1 ns) — the case wide windows exist for.
    pub(crate) fn phold_sim(n_lps: u32, seeds: u64) -> Simulation<Phold> {
        let lps = (0..n_lps)
            .map(|i| Phold {
                rng: SmallRng::seed_from_u64(seeds + i as u64),
                n_lps,
                hits: 0,
                checksum: 0,
                horizon: SimTime::from_us(100),
            })
            .collect();
        let mut sim = Simulation::new(lps, SimDuration::from_ns(1));
        for i in 0..n_lps {
            sim.schedule(i, SimTime::from_ns(i as u64 % 7), i as u64);
        }
        sim
    }

    pub(crate) fn fingerprint(sim: &Simulation<Phold>) -> Vec<(u64, u64)> {
        sim.lps().iter().map(|l| (l.hits, l.checksum)).collect()
    }

    #[test]
    fn matches_sequential_bit_for_bit() {
        let mut a = phold_sim(16, 21);
        let sa = a.run_sequential(SimTime::MAX);
        for threads in [2usize, 3, 4] {
            // Windows up to the model's true minimum delay (50 ns).
            for window_ns in [1u64, 25, 50] {
                let mut b = phold_sim(16, 21);
                let sb = b.run_conservative_parallel(
                    threads,
                    SimDuration::from_ns(window_ns),
                    SimTime::MAX,
                );
                assert_eq!(sa.committed, sb.committed, "t={threads} w={window_ns}");
                assert_eq!(fingerprint(&a), fingerprint(&b), "t={threads} w={window_ns}");
            }
        }
    }

    #[test]
    fn wide_windows_use_fewer_rounds() {
        let mut narrow = phold_sim(16, 5);
        let mut wide = phold_sim(16, 5);
        let sn = narrow.run_conservative_parallel(2, SimDuration::from_ns(1), SimTime::MAX);
        let sw = wide.run_conservative_parallel(2, SimDuration::from_ns(50), SimTime::MAX);
        assert_eq!(fingerprint(&narrow), fingerprint(&wide));
        assert!(
            sw.rounds < sn.rounds,
            "50 ns windows ({} rounds) should beat 1 ns windows ({} rounds)",
            sw.rounds,
            sn.rounds
        );
    }

    #[test]
    fn custom_partition_preserves_results() {
        let mut a = phold_sim(12, 9);
        let sa = a.run_sequential(SimTime::MAX);
        let mut b = phold_sim(12, 9);
        // Deliberately lopsided, non-contiguous blocks.
        b.set_partition(Partition::from_blocks(vec![5, 1, 5, 1, 5, 1, 9, 9, 5, 1, 9, 5]));
        let sb = b.run_conservative_parallel(3, SimDuration::from_ns(50), SimTime::MAX);
        assert_eq!(sa.committed, sb.committed);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn until_bound_pauses_and_resumes() {
        let mut a = phold_sim(8, 13);
        let mut b = phold_sim(8, 13);
        a.run_sequential(SimTime::MAX);
        b.run_conservative_parallel(3, SimDuration::from_ns(50), SimTime::from_us(40));
        assert!(b.pending_events() > 0);
        // Finish with a different scheduler — state must be seamless.
        b.run_sequential(SimTime::MAX);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    /// Every leg boundary adopts, merges or re-scatters queues: a worker
    /// queue becomes the pending set (par, async), a sequential leg runs
    /// on an adopted queue, and the next parallel leg streams it out
    /// again onto a different worker count. None of it may lose, duplicate
    /// or reorder an event.
    #[test]
    fn mixed_scheduler_legs_match_one_sequential_run() {
        use crate::queue::QueueKind;
        let window = SimDuration::from_ns(50);
        for qk in [QueueKind::Heap, QueueKind::Ladder] {
            let sim = || {
                let mut s = phold_sim(16, 41);
                s.set_queue(qk);
                s
            };
            let mut whole = sim();
            let total = whole.run_sequential(SimTime::MAX).committed;
            let (mut mixed, mut stepped) = (sim(), sim());
            let mut committed = 0;
            let bounds = [SimTime::from_us(10), SimTime::from_us(25), SimTime::from_us(40)];
            for (leg, until) in bounds.into_iter().chain([SimTime::MAX]).enumerate() {
                committed += match leg {
                    0 => mixed.run_conservative_parallel(2, window, until),
                    1 => mixed.run_conservative_async(2, window, until),
                    2 => mixed.run_sequential(until),
                    _ => mixed.run_conservative_parallel(3, window, until),
                }
                .committed;
                stepped.run_sequential(until);
                assert_eq!(mixed.pending_events(), stepped.pending_events(), "{qk:?} leg {leg}");
                assert_eq!(mixed.pending_events() > 0, leg < 3, "{qk:?} leg {leg}");
            }
            assert_eq!(committed, total, "{qk:?}");
            assert_eq!(fingerprint(&mixed), fingerprint(&whole), "{qk:?}");
        }
    }

    /// The `sequential` telemetry record counts its own run, not the
    /// queue's lifetime: two legs sum to exactly one leg's ops and slot
    /// reuses (the step peeks at the boundary event, it never pops it).
    #[test]
    fn sequential_record_counts_only_its_own_leg() {
        fn field(line: &str, name: &str) -> u64 {
            let at = line.find(&format!("\"{name}\":")).expect(name) + name.len() + 3;
            line[at..].split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
        }
        let run = |untils: &[SimTime]| {
            let rec = std::sync::Arc::new(telemetry::Recorder::new());
            let mut sim = phold_sim(8, 13);
            sim.set_telemetry(Some(rec.clone()));
            for &until in untils {
                sim.run_sequential(until);
            }
            let lines = rec.lines();
            assert_eq!(lines.len(), untils.len());
            let sum = |name| lines.iter().map(|l| field(l, name)).sum::<u64>();
            (sum("queue_ops"), sum("pool_recycled"))
        };
        let (ops, recycled) = run(&[SimTime::MAX]);
        let (ops2, recycled2) = run(&[SimTime::from_us(40), SimTime::MAX]);
        assert_eq!(ops2, ops);
        assert_eq!(recycled2, recycled);
    }

    #[test]
    fn counts_remote_events() {
        let mut sim = phold_sim(16, 2);
        let stats = sim.run_conservative_parallel(4, SimDuration::from_ns(50), SimTime::MAX);
        assert!(stats.remote_events > 0, "PHOLD traffic must cross partitions");
        assert!(stats.remote_events <= stats.committed + sim.pending_events() as u64);
    }

    #[test]
    fn scheduler_enum_dispatches_parallel() {
        let mut a = phold_sim(8, 31);
        let sa = Scheduler::Sequential.run(&mut a, SimTime::MAX);
        let mut b = phold_sim(8, 31);
        let sched =
            Scheduler::ConservativeParallel { threads: 4, lookahead: SimDuration::from_ns(50) };
        let sb = sched.run(&mut b, SimTime::MAX);
        assert_eq!(sa.committed, sb.committed);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    /// Ring-forwarding LP that panics once simulated time passes `boom_at`.
    #[derive(Clone)]
    pub(crate) struct PanickyRing {
        n_lps: u32,
        boom_at: SimTime,
        horizon: SimTime,
    }

    impl Lp for PanickyRing {
        type Event = u64;
        fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
            if ev.recv_time >= self.boom_at {
                panic!("model LP blew up at {} ns", ev.recv_time.0);
            }
            if ctx.now() < self.horizon {
                let dst = (ev.dst + 1) % self.n_lps;
                ctx.send(dst, SimDuration::from_ns(50), ev.payload + 1);
            }
        }
    }

    /// Regression for the worker-panic → barrier-deadlock hazard: a panic
    /// in model code must resurface on the caller with its original
    /// payload instead of leaving the sibling workers parked on the round
    /// barrier forever — and under every scheduler the simulation gets
    /// its LPs back before the panic resumes.
    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let la = SimDuration::from_ns(50);
        for sched in [
            Scheduler::Sequential,
            Scheduler::ConservativeParallel { threads: 4, lookahead: la },
            Scheduler::ConservativeAsync { threads: 4, lookahead: la },
        ] {
            let mut sim = panicky_ring_sim();
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sched.run(&mut sim, SimTime::MAX)
            }))
            .expect_err("the model panic must resurface");
            let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
            assert!(msg.starts_with("model LP blew up"), "{sched:?}: payload {msg:?}");
            assert_eq!(sim.lps().len(), 8, "{sched:?}");
        }
    }

    /// 8 LPs whose every event sends to LP 99.
    #[derive(Clone)]
    struct Stray;

    impl Lp for Stray {
        type Event = ();
        fn handle(&mut self, _ev: &Envelope<()>, ctx: &mut Ctx<'_, ()>) {
            ctx.send(99, SimDuration::from_ns(50), ());
        }
    }

    fn stray_sim() -> Simulation<Stray> {
        let mut sim = Simulation::new(vec![Stray; 8], SimDuration::from_ns(1));
        sim.schedule(3, SimTime::ZERO, ());
        sim
    }

    /// A send to an LP the simulation does not have panics where it is
    /// sealed, naming the sender, the target and the LP count.
    #[test]
    #[should_panic(expected = "unknown LP 99")]
    fn send_to_unknown_lp_is_named_under_seq() {
        stray_sim().run_sequential(SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "unknown LP 99")]
    fn send_to_unknown_lp_is_named_under_par() {
        stray_sim().run_conservative_parallel(2, SimDuration::from_ns(50), SimTime::MAX);
    }

    /// 8-LP ring of 50 ns hops whose LPs panic from 10 us on.
    pub(crate) fn panicky_ring_sim() -> Simulation<PanickyRing> {
        let n_lps = 8u32;
        let lps = (0..n_lps)
            .map(|_| PanickyRing {
                n_lps,
                boom_at: SimTime::from_us(10),
                horizon: SimTime::from_us(100),
            })
            .collect();
        let mut sim = Simulation::new(lps, SimDuration::from_ns(1));
        for i in 0..n_lps {
            sim.schedule(i, SimTime::from_ns(i as u64), i as u64);
        }
        sim
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn oversized_window_is_caught() {
        // Window far beyond the model's 50 ns minimum delay: the hard
        // causality check must fire rather than silently corrupt.
        let mut sim = phold_sim(16, 77);
        sim.run_conservative_parallel(4, SimDuration::from_us(10), SimTime::MAX);
    }
}
