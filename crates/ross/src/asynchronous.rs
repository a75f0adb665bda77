//! Barrier-free asynchronous conservative scheduler.
//!
//! Where [`crate::parallel`] synchronizes every worker twice per round on a
//! [`Barrier`](crate::sync::Barrier), this scheduler has **no barriers at
//! all**: each worker continuously publishes a monotone **safe horizon** —
//! a lower bound on the receive time of any event it will ever push to a
//! peer in the future — and processes its own pending events strictly
//! below the minimum of its peers' horizons. Mailboxes are drained
//! opportunistically at the top of every scheduling iteration instead of
//! at round edges, so a fast worker never waits for a slow one unless
//! true event dependencies force it to.
//!
//! Like the round loop, a worker owns the partition blocks the bin-packer
//! gives it for the whole run: no block is ever split across workers, so
//! the protocol lookahead may be the least delay over edges *between*
//! blocks (a CODES model's block window, DESIGN.md §7).
//!
//! ## The horizon protocol
//!
//! Worker `t` owns an atomic `clock[t]`. The invariant (the "promise"):
//! every envelope `t` pushes to a peer mailbox *after* `clock[t]` held
//! value `c` has `recv_time >= c`. Peers may therefore process events
//! with `recv_time < B_t = min(clock[k] for k != t)` knowing no earlier
//! arrival can appear. Each iteration runs in a load-bearing order:
//!
//! 1. read peer clocks (computing the bound `B`),
//! 2. drain the mailbox,
//! 3. process queued events with `recv_time < B`,
//! 4. flush outgoing chunks,
//! 5. publish `clock[t] = min(queue_head, B) + L` (fetch_max).
//!
//! Draining *after* the clock read guarantees any event still undrained
//! at publish time was pushed after the read, hence has
//! `recv_time >= clock[sender] >= B` — so the published value
//! `min(head, B) + L` never exceeds a future send's receive time: sends
//! come from events at `recv >= min(head, B)` and carry at least the
//! lookahead `L` of delay. Publishing with `fetch_max` keeps the horizon
//! monotone; the checked build asserts the computed value never regresses
//! (the horizon-monotonicity oracle).
//!
//! ## Termination (Mattern counters, no token waves)
//!
//! Monotone counters `S` (envelopes pushed to any mailbox) and `R`
//! (envelopes drained) replace a token fence. Workers publish
//! their raw queue minimum *lowering it before counting the arrivals that
//! caused it* (fetch_min before the `R` add) and *raising it only after
//! counting the sends that emptied it* (`S` adds before the store). The
//! leader (worker 0) then detects completion by reading `R`, then every
//! published minimum, then `S` — in that order. `S == R` across the read
//! span proves no envelope was in flight, and the minimums prove no
//! worker holds unprocessed work at or below `until`.
//!
//! ## Idle workers park — they do not spin
//!
//! A worker with nothing processable publishes its horizon one last time,
//! sets a `parked` flag, re-checks every wake condition, and blocks on an
//! mpsc wakeup channel. Wakers (mailbox pushers, horizon raisers, the
//! terminating leader) swap the flag and send a token only when it was
//! set. The flag-then-recheck / change-then-swap pairing is the classic
//! Dekker handshake: whichever side acts second sees the other. Blocking
//! instead of spinning is what keeps `--cfg union_check` exploration
//! finite — a parked thread is simply not enabled until a send lands.

use crate::engine::{RunStats, Simulation};
use crate::event::Envelope;
use crate::lp::Lp;
use crate::queue::EventQueue;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::mpsc;
use crate::time::{SimDuration, SimTime};
use crate::worker::{drive, Lane, Run, Step, Worker};

/// Bounded spin before parking on multi-core hosts (production only; the
/// checked build parks immediately so exploration stays finite, and a
/// single-core host parks immediately too — spinning there only delays
/// the peer whose horizon raise we are waiting for).
#[cfg(not(union_check))]
fn idle_spin_budget() -> u32 {
    match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => 64,
        _ => 0,
    }
}
#[cfg(union_check)]
fn idle_spin_budget() -> u32 {
    0
}

/// What one worker thread starts with: the shared-core worker plus its
/// end of the wakeup channels (worker t owns `rx`; every worker holds a
/// clone of every sender).
struct Seat<'r, L: Lp> {
    w: Worker<'r, L>,
    rx: mpsc::Receiver<()>,
    wake_tx: Vec<mpsc::Sender<()>>,
}

fn head_of<E>(queue: &mut impl EventQueue<E>) -> u64 {
    queue.peek_time().map(|ts| ts.0).unwrap_or(u64::MAX)
}

impl<L: Lp> Simulation<L> {
    /// Run with the asynchronous conservative scheduler on `n_threads`
    /// workers with protocol lookahead `lookahead` (clamped up to the
    /// engine lookahead), until the queue drains or the next event
    /// exceeds `until`.
    ///
    /// Uses the partition installed with [`Simulation::set_partition`],
    /// or a per-LP partition when none was set, and keeps each block on
    /// one worker. Produces results bit-identical to
    /// [`Simulation::run_sequential`]; a `lookahead` above the model's
    /// true minimum send delay between blocks is caught by the same hard
    /// causality check as [`Simulation::run_conservative_parallel`].
    pub fn run_conservative_async(
        &mut self,
        n_threads: usize,
        lookahead: SimDuration,
        until: SimTime,
    ) -> RunStats {
        let start = std::time::Instant::now();
        let Some(plan) = self.plan_workers(n_threads) else {
            return self.run_sequential(until);
        };
        let n_threads = plan.locals.len();
        let la = lookahead.max(self.lookahead).as_ns().max(1);
        let (owner_of, local_of) = (&plan.owner_of, &plan.local_of);
        let run = Run::open(self, "conservative-async", n_threads, SimDuration::from_ns(la), start);
        let (mut workers, home) = run.scatter(self, &plan);

        // Initial horizons: every event anywhere sits at or above the
        // global pending minimum, and every send adds at least `la` of
        // delay — so `global_min + la` is a sound first promise for every
        // worker, and the fixed point the publish rule grows from. (A
        // per-worker `head + la` would be unsound: a peer's earlier event
        // can arrive below this worker's own head.)
        let heads: Vec<u64> = workers.iter_mut().map(|w| head_of(&mut w.lane.queue)).collect();
        let global_min = heads.iter().copied().min().unwrap_or(u64::MAX);
        let init_clock = global_min.saturating_add(la);

        let clocks: Vec<AtomicU64> = (0..n_threads).map(|_| AtomicU64::new(init_clock)).collect();
        let raw_mins: Vec<AtomicU64> = heads.iter().map(|&h| AtomicU64::new(h)).collect();
        let parked: Vec<AtomicBool> = (0..n_threads).map(|_| AtomicBool::new(false)).collect();
        let sent = AtomicU64::new(0);
        let received = AtomicU64::new(0);
        let done = AtomicBool::new(false);

        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n_threads).map(|_| mpsc::channel::<()>()).unzip();
        let seats: Vec<Seat<'_, L>> = workers
            .into_iter()
            .zip(rxs)
            .map(|(w, rx)| Seat { w, rx, wake_tx: txs.clone() })
            .collect();

        // The violation / model-panic latch is the shared one, minus the
        // round-boundary rendezvous: each worker independently breaks when
        // it observes the latch, and whoever trips it wakes every parked
        // peer.
        let body = |seat: &mut Seat<'_, L>| {
            let Seat { w, rx, wake_tx } = seat;
            let t = w.t;
            let leader = t == 0;
            // Dekker wake: the parker stores its flag and then re-checks;
            // we make our change, then swap the flag — whichever side
            // acted second sees the other. The load before the swap keeps
            // the running-peer case (flag clear) free of an RMW; the
            // handshake only needs the swap when the flag reads set.
            let wake = |k: usize| {
                if parked[k].load(Ordering::SeqCst) && parked[k].swap(false, Ordering::SeqCst) {
                    let _ = wake_tx[k].send(());
                }
            };
            let wake_all = |me: usize| (0..n_threads).filter(|&k| k != me).for_each(wake);
            // Mailbox wakes owed to each peer, delivered at the step-4
            // flush. A pushed envelope is never processable before this
            // worker's next horizon raise (its receive time is at or above
            // the published clock, hence at or above the peer's bound), so
            // waking mid-burst on every full chunk only preempts the
            // producer — one deferred wake per iteration carries the same
            // information. The push-then-wake pairing the Dekker handshake
            // needs is preserved: the flush runs before this worker can
            // reach its own park.
            let mut owed_wake: Vec<bool> = vec![false; n_threads];
            // Fresh sends accumulate S here and flush to the shared counter
            // immediately before any mailbox push (and at the end of every
            // processing burst), so an envelope is never R-countable before
            // it is S-counted. Flushing early only over-approximates
            // in-flight mail, which merely delays termination detection —
            // the safe direction.
            let mut s_pending = 0u64;
            let mut published = init_clock;
            // Shadow copy of this worker's own raw_mins slot (nobody else
            // writes it), so an unchanged value skips the SeqCst store on
            // idle iterations.
            let mut last_raw = raw_mins[t].load(Ordering::SeqCst);
            let mut idle_spins = 0u32;
            let idle_spins_max = idle_spin_budget();
            'outer: loop {
                if done.load(Ordering::SeqCst) || run.latch.tripped() {
                    break;
                }
                w.rounds += 1;
                let mut progressed = false;

                // (1) Processing bound: min over peer horizons.
                let mut bound = u64::MAX;
                let mut peer_max = 0u64;
                for (k, clock) in clocks.iter().enumerate() {
                    if k != t {
                        let c = clock.load(Ordering::SeqCst);
                        bound = bound.min(c);
                        peer_max = peer_max.max(c);
                    }
                }

                // (2) Drain the mailbox. Arrivals lower the published raw
                // minimum *before* the R count below (lower-before-count),
                // in one batched fetch_min.
                let mut arr_min = u64::MAX;
                let drained = w.lane.drain(t, |lane, env| {
                    arr_min = arr_min.min(env.recv_time.0);
                    lane.queue.push(env);
                });
                if arr_min != u64::MAX {
                    raw_mins[t].fetch_min(arr_min, Ordering::SeqCst);
                    last_raw = last_raw.min(arr_min);
                }
                if drained > 0 {
                    received.fetch_add(drained, Ordering::SeqCst);
                    progressed = true;
                }

                // Publish the raw queue minimum (may raise: the S adds for
                // everything that consumed the old minimum are sequenced
                // before this store).
                let head = head_of(&mut w.lane.queue);
                if head != last_raw {
                    raw_mins[t].store(head, Ordering::SeqCst);
                    last_raw = head;
                }

                // (3) Process every queued event strictly below the bound
                // (ties are unsafe: a peer at `clock == B` may still send
                // an event *at* B) and at or below `until`.
                let limit = bound.min(until.0.saturating_add(1));
                if head < limit {
                    let t0 = run.report.timing.then(std::time::Instant::now);
                    let slot = |dst: u32| local_of[dst as usize] as usize;
                    // A send that leaves this worker: S-count it, and ship
                    // its chunk (S first) once full.
                    let mut route = |lane: &mut Lane<'_, L::Event>, new: Envelope<_>| {
                        let o = owner_of[new.dst as usize] as usize;
                        if o == t {
                            lane.queue.push(new);
                            return;
                        }
                        s_pending += 1;
                        if lane.stage(o, new) {
                            sent.fetch_add(s_pending, Ordering::SeqCst);
                            s_pending = 0;
                            lane.ship(o);
                            owed_wake[o] = true;
                        }
                    };
                    let mut last = Step::Ran;
                    let clean = run.latch.guard(|| {
                        while last == Step::Ran {
                            last = w.step(0, limit, &slot, &mut route);
                        }
                    });
                    if !clean || run.late(last) {
                        wake_all(t);
                    }
                    // Settle the burst's S before the step-4 flush pushes
                    // the chunks these sends sit in (and before the next
                    // iteration raises raw_min).
                    if s_pending > 0 {
                        sent.fetch_add(s_pending, Ordering::SeqCst);
                        s_pending = 0;
                    }
                    if let Some(t0) = t0 {
                        w.busy_ns += t0.elapsed().as_nanos() as u64;
                    }
                    progressed = true;
                }

                // (4) Flush partial chunks — unconditionally, so no
                // buffered event is ever stranded locally — and note the
                // wakes owed for them. Every chunked event was S-counted at
                // buffering, which precedes this push, so `S >= R` always
                // holds.
                w.lane.flush(|o| owed_wake[o] = true);

                // (5) Publish the safe horizon: min(head, B) + L. Peer
                // clocks only rise, and an arrival carries at least its
                // sender's promise, so neither term falls below what the
                // last publish used — which the checked build asserts (the
                // monotonicity oracle).
                let val = head_of(&mut w.lane.queue).min(bound).saturating_add(la);
                // Only this worker writes clocks[t], so the local shadow
                // is exact and an unchanged value can skip the RMW
                // outright.
                #[cfg(union_check)]
                assert!(
                    val >= published,
                    "horizon monotonicity violated: worker {t} computed {val} \
                     below its published {published}"
                );
                if val > published {
                    clocks[t].fetch_max(val, Ordering::SeqCst);
                    published = val;
                    wake_all(t);
                    owed_wake.iter_mut().for_each(|w| *w = false);
                }
                // Settle wakes owed for mailbox pushes, *after* the
                // publish: a peer woken before the raise would find its new
                // mail unprocessable, park again, and cost a second wake
                // cycle. `wake_all` on a raise covers every owed peer (both
                // only fire on a set parked flag), so the raise path clears
                // the slate above; this loop is the no-raise fallback that
                // keeps the push-then-wake pairing the Dekker handshake
                // (and the checked build's liveness) depends on.
                for (o, owed) in owed_wake.iter_mut().enumerate() {
                    if std::mem::take(owed) {
                        wake(o);
                    }
                }
                // Spread of the published clocks: the most-advanced minus
                // the least-advanced, this worker's own included.
                w.lag_max = w.lag_max.max(peer_max.max(published) - bound.min(published));

                // Live flush: barrier-free, so cadence is committed volume
                // rather than rounds. One branch per outer iteration when
                // detached.
                if w.live.is_some() && w.live_backlog().0 >= crate::live::FLUSH_EVERY {
                    w.live_flush(leader.then_some(published.min(bound)));
                }

                if progressed {
                    idle_spins = 0;
                    continue 'outer;
                }

                // (6) Idle. Leader: termination detection in the
                // R -> mins -> S read order (see module docs).
                if leader {
                    let r = received.load(Ordering::SeqCst);
                    let all_quiet = raw_mins.iter().all(|m| {
                        let v = m.load(Ordering::SeqCst);
                        v == u64::MAX || v > until.0
                    });
                    let s = sent.load(Ordering::SeqCst);
                    if all_quiet && s == r {
                        done.store(true, Ordering::SeqCst);
                        wake_all(t);
                        break 'outer;
                    }
                }
                if idle_spins < idle_spins_max {
                    idle_spins += 1;
                    std::hint::spin_loop();
                    continue 'outer;
                }
                // About to go quiet: flush whatever the volume cadence has
                // not pushed yet, so a parked worker still exposes exact
                // cumulative counts. The leader parks far more often than
                // every `FLUSH_EVERY` commits, so this flush, too, must
                // carry its horizon, or the gauge never moves.
                if w.live.is_some() && w.live_backlog() != (0, 0) {
                    w.live_flush(leader.then_some(published.min(bound)));
                }
                // Park. Flag first, then re-check every wake condition
                // (Dekker handshake with the wakers). Idle non-leaders
                // nudge the leader so the final termination check always
                // runs after the last worker goes quiet.
                parked[t].store(true, Ordering::SeqCst);
                if !leader {
                    wake(0);
                }
                let mut b2 = u64::MAX;
                for (k, clock) in clocks.iter().enumerate() {
                    if k != t {
                        b2 = b2.min(clock.load(Ordering::SeqCst));
                    }
                }
                // Note the leader parks even with envelopes in flight
                // (S != R): the worker holding them cannot park while its
                // mailbox has mail, and whichever worker drains them
                // either raises its horizon (wake_all) or hits the pre-park
                // wake(0) nudge — so the leader always gets another look.
                // Spinning here instead would burn a core in production and
                // give the model checker an unbounded path.
                let wake_now = done.load(Ordering::SeqCst)
                    || run.latch.tripped()
                    || run.mailboxes[t].has_mail()
                    || b2 > bound;
                if wake_now {
                    parked[t].store(false, Ordering::SeqCst);
                    continue 'outer;
                }
                let t0 = std::time::Instant::now();
                #[cfg(union_check)]
                {
                    let _ = rx.recv();
                }
                #[cfg(not(union_check))]
                {
                    // Purely a safety net — liveness of the wake protocol
                    // is verified timeout-free under `--cfg union_check`.
                    // Short timeouts are actively harmful on saturated
                    // hosts: a peer mid-burst gets preempted by every
                    // spurious timeout wake.
                    let _ = rx.recv_timeout(std::time::Duration::from_millis(10));
                }
                w.stalled(t0);
                parked[t].store(false, Ordering::SeqCst);
                // Eat stale tokens so one park consumes one token in steady
                // state; conditions are re-read at the loop top regardless.
                while rx.try_recv().is_ok() {}
            }
        };
        let seats = drive(seats, body);
        let workers: Vec<Worker<'_, L>> = seats.into_iter().map(|seat| seat.w).collect();
        run.gather(self, workers, home)
    }
}

// These tests drive real multi-thread runs; under `union_check` the
// shimmed primitives require a model-checking context, so they only
// build in production cfg (the checked-build twin lives in
// `tests/union_check_oracle.rs`).
#[cfg(all(test, not(union_check)))]
mod tests {
    use super::*;
    use crate::lp::Ctx;
    // PHOLD with a 50 ns minimum send delay (wide lookaheads are the
    // point) and the panicking ring, shared with the barrier scheduler.
    use crate::parallel::tests::{fingerprint, panicky_ring_sim, phold_sim};
    use crate::queue::QueueKind;
    use crate::{Partition, Scheduler};

    #[test]
    fn matches_sequential_bit_for_bit() {
        let mut a = phold_sim(16, 21);
        let sa = a.run_sequential(SimTime::MAX);
        for threads in [2usize, 3, 4] {
            for la_ns in [1u64, 25, 50] {
                let mut b = phold_sim(16, 21);
                let sb =
                    b.run_conservative_async(threads, SimDuration::from_ns(la_ns), SimTime::MAX);
                assert_eq!(sa.committed, sb.committed, "t={threads} la={la_ns}");
                assert_eq!(fingerprint(&a), fingerprint(&b), "t={threads} la={la_ns}");
            }
        }
    }

    #[test]
    fn matches_sequential_on_both_queues() {
        for qk in [QueueKind::Heap, QueueKind::Ladder] {
            let mut a = phold_sim(16, 63);
            a.set_queue(qk);
            let sa = a.run_sequential(SimTime::MAX);
            let mut b = phold_sim(16, 63);
            b.set_queue(qk);
            let sb = b.run_conservative_async(3, SimDuration::from_ns(50), SimTime::MAX);
            assert_eq!(sa.committed, sb.committed, "{qk:?}");
            assert_eq!(fingerprint(&a), fingerprint(&b), "{qk:?}");
        }
    }

    #[test]
    fn custom_partition_preserves_results() {
        let mut a = phold_sim(12, 9);
        let sa = a.run_sequential(SimTime::MAX);
        let mut b = phold_sim(12, 9);
        b.set_partition(Partition::from_blocks(vec![5, 1, 5, 1, 5, 1, 9, 9, 5, 1, 9, 5]));
        let sb = b.run_conservative_async(3, SimDuration::from_ns(50), SimTime::MAX);
        assert_eq!(sa.committed, sb.committed);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn until_bound_pauses_and_resumes() {
        let mut a = phold_sim(8, 13);
        let mut b = phold_sim(8, 13);
        a.run_sequential(SimTime::MAX);
        b.run_conservative_async(3, SimDuration::from_ns(50), SimTime::from_us(40));
        assert!(b.pending_events() > 0);
        // Finish with a different scheduler — state must be seamless.
        b.run_sequential(SimTime::MAX);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn counts_remote_events() {
        let mut sim = phold_sim(16, 2);
        let stats = sim.run_conservative_async(4, SimDuration::from_ns(50), SimTime::MAX);
        assert!(stats.remote_events > 0, "PHOLD traffic must cross partitions");
        assert!(stats.remote_events <= stats.committed + sim.pending_events() as u64);
    }

    #[test]
    fn scheduler_enum_dispatches_async() {
        let mut a = phold_sim(8, 31);
        let sa = Scheduler::Sequential.run(&mut a, SimTime::MAX);
        let mut b = phold_sim(8, 31);
        let sched =
            Scheduler::ConservativeAsync { threads: 4, lookahead: SimDuration::from_ns(50) };
        let sb = sched.run(&mut b, SimTime::MAX);
        assert_eq!(sa.committed, sb.committed);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    /// Self-contained chain LP: every event re-sends to a neighbor within
    /// a fixed group after `delay`, so all load stays on the LPs it starts
    /// on.
    #[derive(Clone)]
    struct Chain {
        group: Vec<u32>,
        delay: SimDuration,
        hits: u64,
        checksum: u64,
        horizon: SimTime,
    }

    impl Lp for Chain {
        type Event = u64;
        fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
            self.hits += 1;
            self.checksum = self
                .checksum
                .wrapping_mul(6364136223846793005)
                .wrapping_add(ev.payload ^ ev.recv_time.as_ns());
            if ctx.now() < self.horizon {
                let pos = self.group.iter().position(|&g| g == ev.dst).unwrap();
                let dst = self.group[(pos + 1) % self.group.len()];
                ctx.send(dst, self.delay, self.checksum);
            }
        }
    }

    /// Forced imbalance: 16 chains hop inside block 0 every 10 ns while
    /// block 1 stays silent. The 60 ns window is only safe between
    /// blocks, so the run is exact only if block 0 stays on one worker
    /// for the whole run — on every thread count, and with no event ever
    /// crossing to the idle peer.
    #[test]
    fn async_keeps_blocks_whole_at_the_block_window() {
        let mk = || {
            let group: Vec<u32> = (0..4).collect();
            let lps: Vec<Chain> = (0..8)
                .map(|_| Chain {
                    group: group.clone(),
                    delay: SimDuration::from_ns(10),
                    hits: 0,
                    checksum: 0,
                    horizon: SimTime::from_us(60),
                })
                .collect();
            let mut sim = Simulation::new(lps, SimDuration::from_ns(1));
            sim.set_partition(Partition::from_blocks(vec![0, 0, 0, 0, 1, 1, 1, 1]));
            for i in 0..16u64 {
                sim.schedule((i % 4) as u32, SimTime::from_ns(i), i);
            }
            sim
        };
        let chains = |sim: &Simulation<Chain>| -> Vec<(u64, u64)> {
            sim.lps().iter().map(|l| (l.hits, l.checksum)).collect()
        };
        let mut a = mk();
        let sa = a.run_sequential(SimTime::MAX);
        for threads in [2usize, 3, 4] {
            let mut b = mk();
            let sb = b.run_conservative_async(threads, SimDuration::from_ns(60), SimTime::MAX);
            assert_eq!(sa.committed, sb.committed, "t={threads}: {sb:?}");
            assert_eq!(chains(&a), chains(&b), "t={threads}");
            assert_eq!(sb.remote_events, 0, "t={threads}: block 0 left its worker: {sb:?}");
            assert!(sb.horizon_lag_max > 0, "t={threads}: published clocks never spread: {sb:?}");
        }
    }

    /// A panic in model code must resurface on the caller instead of
    /// leaving sibling workers parked forever.
    #[test]
    #[should_panic(expected = "model LP blew up")]
    fn worker_panic_propagates_instead_of_hanging() {
        panicky_ring_sim().run_conservative_async(4, SimDuration::from_ns(50), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn oversized_lookahead_is_caught() {
        // Lookahead far beyond the model's 50 ns minimum delay: the hard
        // causality check must fire rather than silently corrupt.
        let mut sim = phold_sim(16, 77);
        sim.run_conservative_async(4, SimDuration::from_us(10), SimTime::MAX);
    }
}
