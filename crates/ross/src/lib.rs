//! # ross-pdes
//!
//! A [ROSS](https://github.com/ROSS-org/ROSS)-style parallel discrete event
//! simulation (PDES) engine, built as the substrate for the CODES network
//! models and the Union workload manager in this workspace.
//!
//! Three schedulers over the same model code:
//!
//! * [`Simulation::run_sequential`] — single-threaded reference executor;
//! * [`Simulation::run_conservative_parallel`] — conservative lookahead
//!   windows over OS threads, synchronized by barrier rounds (ROSS's
//!   conservative mode used MPI ranks; see DESIGN.md substitution #1). A
//!   window of 0 on a simulation with no partition installed is the
//!   classic YAWNS protocol; [`Simulation::run_sharded`] runs the same
//!   rounds across OS processes;
//! * [`Simulation::run_conservative_async`] — the same conservative
//!   guarantee without barriers: published safe horizons and LP-block
//!   work stealing.
//!
//! All three run one worker core (the private `worker` module: the
//! per-event step, worker state, run report and scaffold); the sequential
//! scheduler is its one-worker case, run in place, so `Lp::handle` has
//! one call site. All three produce **bit-identical** model states:
//! events are totally ordered by `(recv_time, send_time, src, tiebreak)`
//! where the tiebreak counter is per-LP engine state that travels with
//! the LP. The
//! pending-event set behind every scheduler is pluggable ([`queue`]): a
//! reference binary heap or the default O(1)-amortized ladder queue,
//! selected with [`Simulation::with_queue`] / [`Simulation::set_queue`] —
//! the choice never changes results, only throughput.
//!
//! ## Model rules
//!
//! * An LP mutates only itself and communicates only via [`Ctx::send`].
//! * Every send delay is at least the engine lookahead (≥ 1 ns).
//! * Any randomness lives inside LP state (e.g. a seeded
//!   `rand::rngs::SmallRng`) so every scheduler draws the same stream.
//! * Metrics live inside LP state and are harvested after the run — never
//!   write to shared sinks from `handle`.
//!
//! ```
//! use ross::{Ctx, Envelope, Lp, SimDuration, SimTime, Simulation};
//!
//! #[derive(Clone)]
//! struct Counter { hits: u64, limit: u64 }
//!
//! impl Lp for Counter {
//!     type Event = ();
//!     fn handle(&mut self, _ev: &Envelope<()>, ctx: &mut Ctx<'_, ()>) {
//!         self.hits += 1;
//!         if self.hits < self.limit {
//!             ctx.send_self(SimDuration::from_ns(10), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(vec![Counter { hits: 0, limit: 5 }], SimDuration::from_ns(1));
//! sim.schedule(0, SimTime::ZERO, ());
//! let stats = sim.run_sequential(SimTime::MAX);
//! assert_eq!(stats.committed, 5);
//! assert_eq!(sim.lps()[0].hits, 5);
//! ```

mod asynchronous;
mod engine;
mod event;
mod live;
mod lp;
mod mailbox;
mod parallel;
mod partition;
mod pool;
pub mod queue;
pub mod shard;
pub(crate) mod sync;
mod time;
pub mod trace;
mod worker;

pub use engine::{RunStats, Simulation};
pub use event::{Envelope, EventKey, EventUid, LpId};
pub use lp::{Ctx, Lp};
pub use partition::Partition;
pub use pool::{pool_slot_bytes, PoolStats};
pub use queue::{EventQueue, QueueKind};
pub use time::{SimDuration, SimTime};
pub use trace::{SpanKind, TraceEvent, Tracer};

/// Which scheduler to use; lets callers sweep schedulers uniformly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// Single-threaded reference executor.
    Sequential,
    /// Conservative windows of `lookahead` ns on `threads` workers, with
    /// topology-aware partitions and lock-free mailboxes — see
    /// [`Simulation::run_conservative_parallel`]. `lookahead` 0 on a
    /// simulation with no partition installed is the YAWNS baseline.
    ConservativeParallel { threads: usize, lookahead: SimDuration },
    /// Barrier-free asynchronous conservative scheduler: workers publish
    /// monotone safe horizons and steal LP blocks from backlogged peers —
    /// see [`Simulation::run_conservative_async`].
    ConservativeAsync { threads: usize, lookahead: SimDuration },
}

impl Scheduler {
    /// Run `sim` to `until` with this scheduler.
    pub fn run<L: Lp>(self, sim: &mut Simulation<L>, until: SimTime) -> RunStats {
        match self {
            Scheduler::Sequential => sim.run_sequential(until),
            Scheduler::ConservativeParallel { threads, lookahead } => {
                sim.run_conservative_parallel(threads, lookahead, until)
            }
            Scheduler::ConservativeAsync { threads, lookahead } => {
                sim.run_conservative_async(threads, lookahead, until)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// PHOLD: every event forwards to a random LP after a random delay.
    /// Classic PDES stress test: dense cross-LP traffic.
    #[derive(Clone)]
    struct Phold {
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
                let delay = SimDuration::from_ns(self.rng.gen_range(1..500));
                ctx.send(dst, delay, self.checksum);
            }
        }
    }

    fn phold_sim(n_lps: u32, seeds: u64) -> Simulation<Phold> {
        let lps = (0..n_lps)
            .map(|i| Phold {
                rng: SmallRng::seed_from_u64(seeds + i as u64),
                n_lps,
                hits: 0,
                checksum: 0,
                horizon: SimTime::from_us(200),
            })
            .collect();
        let mut sim = Simulation::new(lps, SimDuration::from_ns(1));
        for i in 0..n_lps {
            sim.schedule(i, SimTime::from_ns(i as u64 % 7), i as u64);
        }
        sim
    }

    fn fingerprint(sim: &Simulation<Phold>) -> Vec<(u64, u64)> {
        sim.lps().iter().map(|l| (l.hits, l.checksum)).collect()
    }

    #[test]
    fn sequential_is_deterministic() {
        let mut a = phold_sim(16, 42);
        let mut b = phold_sim(16, 42);
        let sa = a.run_sequential(SimTime::MAX);
        let sb = b.run_sequential(SimTime::MAX);
        assert_eq!(sa.committed, sb.committed);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert!(sa.committed > 1000, "PHOLD should generate work");
    }

    /// `par:T:0` with no partition installed: per-LP blocks, window =
    /// the engine lookahead — the YAWNS case.
    #[cfg(not(union_check))]
    fn yawns(threads: usize) -> Scheduler {
        Scheduler::ConservativeParallel { threads, lookahead: SimDuration::from_ns(0) }
    }

    // The conservative tests below drive real multi-thread runs; under
    // `union_check` the schedulers sit on the shimmed sync seam and must
    // run inside `ross_check::model()` — the oracle harness covers them
    // there (`tests/union_check_oracle.rs`, `par:2`, `async:2`).
    #[test]
    #[cfg(not(union_check))]
    fn conservative_matches_sequential() {
        let mut a = phold_sim(16, 7);
        let mut b = phold_sim(16, 7);
        let sa = a.run_sequential(SimTime::MAX);
        let sb = yawns(4).run(&mut b, SimTime::MAX);
        assert_eq!(sa.committed, sb.committed);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    #[cfg(not(union_check))]
    fn until_bound_pauses_and_resumes() {
        let mut a = phold_sim(8, 5);
        let mut b = phold_sim(8, 5);
        a.run_sequential(SimTime::MAX);
        // Run b in two legs split at 100us, with different schedulers.
        yawns(2).run(&mut b, SimTime::from_us(100));
        assert!(b.pending_events() > 0);
        b.run_sequential(SimTime::MAX);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    #[cfg(not(union_check))]
    fn scheduler_enum_dispatches() {
        let asynchronous =
            Scheduler::ConservativeAsync { threads: 2, lookahead: SimDuration::from_ns(1) };
        for sched in [Scheduler::Sequential, yawns(2), asynchronous] {
            let mut sim = phold_sim(4, 11);
            let stats = sched.run(&mut sim, SimTime::MAX);
            assert!(stats.committed > 0);
        }
    }
}
