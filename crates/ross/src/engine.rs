//! The `Simulation` container shared by every scheduler, and the
//! sequential scheduler: the one-worker case of the shared worker step
//! ([`crate::worker`]), run in place.

use crate::event::{Envelope, EventUid, LpId};
use crate::live::FLUSH_EVERY;
use crate::lp::{Lp, LpMeta};
use crate::queue::{EventQueue, PendingQueue, QueueKind};
use crate::time::{SimDuration, SimTime};
use crate::worker::{Report, Step, Tally};
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// Statistics returned by a scheduler run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Events processed and committed.
    pub committed: u64,
    /// Events delivered across partitions through mailboxes
    /// (conservative-parallel scheduler only).
    pub remote_events: u64,
    /// Events delivered across OS-process shards through a transport
    /// ([`crate::shard`] runs only).
    pub cross_shard_events: u64,
    /// Synchronization rounds (conservative windows or shard fences).
    pub rounds: u64,
    /// Always 0: no scheduler moves LP blocks between workers. Kept only
    /// because the repo benchmark reads it (`ross.async.steals`); it goes
    /// once the benchmark drops that metric.
    pub steals: u64,
    /// Total nanoseconds workers spent stalled waiting for peer safe
    /// horizons to advance (conservative-async scheduler only).
    pub horizon_stall_ns: u64,
    /// Max observed gap between the most- and least-advanced published
    /// safe horizons (conservative-async scheduler only).
    pub horizon_lag_max: u64,
    /// Wall-clock seconds spent inside the scheduler.
    pub wall_seconds: f64,
    /// Virtual time of the last committed event: the global clock when
    /// the run stopped.
    pub end_time: SimTime,
}

impl RunStats {
    /// Committed event rate in events per wall-clock second.
    pub fn event_rate(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.committed as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// A discrete-event simulation: a set of LPs plus pending events.
///
/// Construct with [`Simulation::new`], inject initial events with
/// [`Simulation::schedule`], then drive it with one of
/// [`Simulation::run_sequential`], [`Simulation::run_conservative_parallel`],
/// [`Simulation::run_conservative_async`] or, across processes,
/// [`Simulation::run_sharded`].
pub struct Simulation<L: Lp> {
    pub(crate) lps: Vec<L>,
    pub(crate) meta: Vec<LpMeta>,
    pub(crate) pending: PendingQueue<L::Event>,
    /// Which queue implementation `pending` (and the per-thread queues the
    /// parallel schedulers build) uses.
    pub(crate) queue: QueueKind,
    pub(crate) lookahead: SimDuration,
    /// Co-location hint for the conservative-parallel scheduler.
    pub(crate) partition: Option<crate::partition::Partition>,
    /// Telemetry sink; every scheduler emits one record per run when set.
    pub(crate) telemetry: Option<std::sync::Arc<telemetry::Recorder>>,
    /// Causal tracer; every scheduler records per-event causality and
    /// phase spans into it when set.
    pub(crate) tracer: Option<std::sync::Arc<crate::trace::Tracer>>,
    /// Live metrics registry; every scheduler streams counters, gauges,
    /// and histograms into it at sync-point cadence when set.
    pub(crate) live: Option<std::sync::Arc<telemetry::live::MetricsRegistry>>,
}

impl<L: Lp> Simulation<L> {
    /// Create a simulation over `lps` with the given minimum event delay
    /// (`lookahead`). Every [`Ctx::send`] must use a delay of at least
    /// `lookahead`; 1 ns is always safe but shrinks conservative windows.
    /// Uses the default event queue ([`QueueKind::Ladder`]); see
    /// [`Simulation::with_queue`].
    pub fn new(lps: Vec<L>, lookahead: SimDuration) -> Self {
        Simulation::with_queue(lps, lookahead, QueueKind::default())
    }

    /// [`Simulation::new`] with an explicit event-queue implementation.
    /// The choice never affects results — only throughput.
    pub fn with_queue(lps: Vec<L>, lookahead: SimDuration, queue: QueueKind) -> Self {
        assert!(lookahead.as_ns() >= 1, "lookahead must be at least 1 ns");
        let n = lps.len();
        Simulation {
            lps,
            meta: (0..n).map(|_| LpMeta::default()).collect(),
            pending: queue.new_queue(),
            queue,
            lookahead,
            partition: None,
            telemetry: None,
            tracer: None,
            live: None,
        }
    }

    /// Swap the event-queue implementation. Pending events (e.g. between
    /// the legs of a paused run) are migrated to the new queue.
    pub fn set_queue(&mut self, queue: QueueKind) {
        if queue == self.queue {
            return;
        }
        self.queue = queue;
        let mut old = std::mem::replace(&mut self.pending, queue.new_queue());
        old.drain_each(|env| self.pending.push(env));
    }

    /// The event-queue implementation in use.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue
    }

    /// Attach (or detach) a telemetry recorder. When set, every scheduler
    /// run appends one `scheduler` record with its counters and per-thread
    /// timing to the recorder. Schedulers read only thread-local counters
    /// on hot paths; with `None` (the default) even the clock reads are
    /// skipped, so the disabled cost is zero.
    pub fn set_telemetry(&mut self, recorder: Option<std::sync::Arc<telemetry::Recorder>>) {
        self.telemetry = recorder;
    }

    /// The attached telemetry recorder, if any.
    pub fn telemetry(&self) -> Option<&std::sync::Arc<telemetry::Recorder>> {
        self.telemetry.as_ref()
    }

    /// Attach (or detach) a causal tracer ([`crate::trace`]). When set,
    /// every scheduler run opens a trace run, records each executed
    /// event (plus barrier spans on the parallel schedulers) and closes
    /// the run with its wall time. With `None` (the default) the
    /// per-event cost is a single branch.
    pub fn set_tracer(&mut self, tracer: Option<std::sync::Arc<crate::trace::Tracer>>) {
        self.tracer = tracer;
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&std::sync::Arc<crate::trace::Tracer>> {
        self.tracer.as_ref()
    }

    /// Attach (or detach) a live metrics registry
    /// ([`telemetry::live::MetricsRegistry`]). When set, every scheduler
    /// streams its counters/gauges/histograms into the registry at its
    /// synchronization cadence (windows, rounds, shard fences, or every
    /// few thousand events on the sequential path) so an exposition
    /// endpoint can observe the run in flight. With `None` (the default) the cost
    /// is a single branch at those same coarse points.
    pub fn set_live(&mut self, live: Option<std::sync::Arc<telemetry::live::MetricsRegistry>>) {
        self.live = live;
    }

    /// The attached live registry, if any.
    pub fn live(&self) -> Option<&std::sync::Arc<telemetry::live::MetricsRegistry>> {
        self.live.as_ref()
    }

    /// Install a co-location hint for
    /// [`Simulation::run_conservative_parallel`]: LPs sharing a block
    /// are guaranteed to run on the same worker thread. Has no effect on
    /// results (only on cross-thread traffic), and no effect on the
    /// other schedulers.
    pub fn set_partition(&mut self, partition: crate::partition::Partition) {
        assert_eq!(
            partition.n_lps(),
            self.lps.len(),
            "partition covers {} LPs but the simulation has {}",
            partition.n_lps(),
            self.lps.len()
        );
        self.partition = Some(partition);
    }

    /// The installed partition hint, if any.
    pub fn partition(&self) -> Option<&crate::partition::Partition> {
        self.partition.as_ref()
    }

    /// Number of LPs.
    pub fn n_lps(&self) -> usize {
        self.lps.len()
    }

    /// Inject an event from "outside" the model before (or between) runs.
    pub fn schedule(&mut self, dst: LpId, at: SimTime, payload: L::Event) {
        assert!((dst as usize) < self.lps.len(), "dst {dst} out of range");
        let meta = &mut self.meta[dst as usize];
        let env = Envelope {
            recv_time: at,
            send_time: SimTime::ZERO,
            src: dst,
            dst,
            tiebreak: meta.tiebreak,
            uid: EventUid { src: dst, seq: meta.tiebreak },
            payload,
        };
        meta.tiebreak += 1;
        self.pending.push(env);
    }

    /// Read access to the LPs (e.g. to pull metrics out after a run).
    pub fn lps(&self) -> &[L] {
        &self.lps
    }

    /// Number of events awaiting processing.
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Envelope-pool counters of the pending-event queue (population
    /// high-water mark, recycled slots) over its lifetime. A parallel leg
    /// hands back its fullest worker queue as the pending set, so after
    /// one these include that worker's counts; telemetry reports each
    /// run's own.
    pub fn pending_pool_stats(&self) -> crate::pool::PoolStats {
        self.pending.pool_stats()
    }

    /// Run with the single-threaded reference scheduler until the event
    /// queue drains or the next event is after `until`. Events beyond
    /// `until` remain pending.
    ///
    /// This is the one-worker case of the shared worker step, run in
    /// place: LP states, meta and the pending set move into the worker
    /// and back (no copy), and the run builds no synchronization
    /// primitive. A panicking LP leaves the simulation whole (the worker
    /// hands everything back before the panic resumes).
    pub fn run_sequential(&mut self, until: SimTime) -> RunStats {
        let report = Report::open(self, "sequential", 1, Instant::now());
        let queue = std::mem::replace(&mut self.pending, self.queue.new_queue());
        let (lps, metas) = (std::mem::take(&mut self.lps), std::mem::take(&mut self.meta));
        let mut w = report.worker(0, Vec::new(), lps, metas, queue, &[]);
        let limit = until.0.saturating_add(1);
        let t0 = report.timing.then(Instant::now);
        let last = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
            match w.step(0, limit, &|dst| dst as usize, &mut |lane, env| lane.queue.push(env)) {
                // Live flush every `FLUSH_EVERY` commits: one branch per
                // event when no registry is attached.
                Step::Ran if w.live.is_some() && w.live_backlog().0 >= FLUSH_EVERY => {
                    w.live_flush(Some(w.clock))
                }
                Step::Ran => {}
                stop => break stop,
            }
        }));
        if let Some(t0) = t0 {
            w.busy_ns = t0.elapsed().as_nanos() as u64;
        }
        w.rounds = 1;
        let mut tally = Tally::default();
        report.fold(&mut tally, &mut w);
        (self.lps, self.meta, self.pending) = (w.lps, w.metas, w.lane.queue);
        match last {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(Step::Late(what)) => panic!("causality violation: {what}"),
            Ok(_) => report.close(self, tally),
        }
    }
}
