//! The `Simulation` container shared by every scheduler.

use crate::event::{Envelope, EventUid, LpId};
use crate::lp::{Ctx, Lp, LpMeta, Outgoing};
use crate::queue::{EventQueue, PendingQueue, QueueKind};
use crate::time::{SimDuration, SimTime};

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
    /// LP blocks migrated between workers by work stealing
    /// (conservative-async scheduler only).
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

    /// Consume the simulation, returning the LPs.
    pub fn into_lps(self) -> Vec<L> {
        self.lps
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
    pub fn run_sequential(&mut self, until: SimTime) -> RunStats {
        let start = std::time::Instant::now();
        // The queue may have served earlier legs (or a parallel worker):
        // this run's record counts only its own ops and slot reuses.
        let (ops0, recycled0) = (self.pending.ops(), self.pending.pool_stats().recycled);
        let mut stats = RunStats::default();
        let mut out: Vec<Outgoing<L::Event>> = Vec::with_capacity(8);
        let mut clock = SimTime::ZERO;
        let mut flushed_committed = 0u64;
        let mut tbuf = self.tracer.as_ref().map(|tr| {
            let run = tr.open_run("sequential", 1);
            tr.buf(run, 0)
        });
        let mut tap = crate::live::LiveHandles::from_sim(&self.live, 1).map(|h| h.tap(0));

        // Pop directly instead of peek-clone-pop: the one event that lands
        // beyond `until` is pushed back, every committed event moves once.
        while let Some(mut env) = self.pending.pop() {
            if env.recv_time > until {
                self.pending.push(env);
                break;
            }
            let dst = env.dst as usize;
            // Same-LP run batching: as long as the *global* minimum event
            // stays on this LP, keep executing with its state (and meta
            // line) resident instead of bouncing through the outer loop.
            // Re-peeking after every handle sees the sends the handler
            // just queued, so this is exactly sequential order.
            loop {
                debug_check_monotonic(&mut clock, env.recv_time);
                debug_assert!(env.recv_time >= self.meta[dst].now, "causality violation");
                self.meta[dst].now = env.recv_time;
                let trace = tbuf.as_mut().map(|b| {
                    (self.lps[dst].trace_kind(&env), b.event_start(), self.meta[dst].tiebreak)
                });

                let mut ctx = Ctx {
                    now: env.recv_time,
                    me: env.dst,
                    lookahead: self.lookahead,
                    out: &mut out,
                };
                self.lps[dst].handle(&env, &mut ctx);
                stats.committed += 1;

                for o in out.drain(..) {
                    let meta = &mut self.meta[dst];
                    let new = Envelope {
                        recv_time: env.recv_time + o.delay,
                        send_time: env.recv_time,
                        src: env.dst,
                        dst: o.dst,
                        tiebreak: meta.tiebreak,
                        uid: EventUid { src: env.dst, seq: meta.tiebreak },
                        payload: o.payload,
                    };
                    meta.tiebreak += 1;
                    debug_assert!(
                        (o.dst as usize) < self.lps.len(),
                        "send to unknown LP {}",
                        o.dst
                    );
                    self.pending.push(new);
                }
                if let (Some(b), Some((kind, t0, uid_lo))) = (tbuf.as_mut(), trace) {
                    let children = (self.meta[dst].tiebreak - uid_lo) as u32;
                    b.record(&env, uid_lo, children, kind, t0);
                }
                match self.pending.peek() {
                    Some(next) if next.dst as usize == dst && next.recv_time <= until => {
                        env = self.pending.pop().expect("peeked event vanished");
                    }
                    Some(next) if next.recv_time <= until => {
                        // Different LP up next: its per-LP state and model
                        // struct are random slots in two big arrays — start
                        // pulling them in while this batch's trace/loop
                        // bookkeeping retires.
                        let nd = next.dst as usize;
                        if nd < self.lps.len() {
                            crate::pool::prefetch_read(&self.meta[nd]);
                            crate::pool::prefetch_read(&self.lps[nd]);
                        }
                        break;
                    }
                    _ => break,
                }
            }
            // Live flush at batch granularity, never per event: one branch
            // per outer iteration keeps the detached cost inside the <2%
            // overhead gate.
            if let Some(t) = tap.as_mut() {
                t.commit(stats.committed - flushed_committed);
                flushed_committed = stats.committed;
                if t.pending_committed() >= crate::live::FLUSH_EVERY {
                    t.gvt(clock.as_ns());
                    t.queue_depth(self.pending.len() as u64);
                    t.flush();
                }
            }
        }

        stats.rounds = 1;
        stats.end_time = clock;
        stats.wall_seconds = start.elapsed().as_secs_f64();
        if let Some(t) = tap.as_mut() {
            t.commit(stats.committed - flushed_committed);
            t.round();
            t.gvt(clock.as_ns());
            t.queue_depth(self.pending.len() as u64);
            t.pool_high_water(self.pending.pool_stats().high_water);
            t.flush();
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        let pool = self.pending.pool_stats();
        if let (Some(tr), Some(buf)) = (self.tracer.as_ref(), tbuf) {
            let run = buf.run();
            tr.submit(buf);
            tr.close_run(run, wall_ns, stats.end_time.as_ns());
        }
        emit_sched_telemetry::<L::Event>(
            self.telemetry.as_deref(),
            "sequential",
            1,
            &stats,
            QueueTelemetry {
                kind: self.queue,
                ops: self.pending.ops() - ops0,
                max_len: self.pending.max_len(),
                pool: crate::pool::PoolStats { recycled: pool.recycled - recycled0, ..pool },
            },
            vec![telemetry::ThreadRecord {
                thread: 0,
                events: stats.committed,
                busy_ns: wall_ns,
                ..Default::default()
            }],
        );
        stats
    }
}

/// Queue counters folded into a run's scheduler record. `ops` and
/// `pool.recycled` count this run only (summed over the parallel
/// schedulers' per-thread queues); `max_len` and `pool.high_water` are
/// the maxima over each queue's lifetime, which for the sequential
/// scheduler's pending set spans every earlier leg it served.
pub(crate) struct QueueTelemetry {
    pub(crate) kind: QueueKind,
    pub(crate) ops: u64,
    pub(crate) max_len: u64,
    pub(crate) pool: crate::pool::PoolStats,
}

impl QueueTelemetry {
    /// Identity for folding per-thread queues.
    pub(crate) fn empty(kind: QueueKind) -> Self {
        QueueTelemetry { kind, ops: 0, max_len: 0, pool: crate::pool::PoolStats::default() }
    }
}

/// Shared tail of every scheduler: fold the run counters and the workers'
/// thread records into one `scheduler` telemetry record for events of
/// type `E`. No-op when no recorder is attached.
pub(crate) fn emit_sched_telemetry<E>(
    telem: Option<&telemetry::Recorder>,
    name: &str,
    threads: usize,
    stats: &RunStats,
    queue: QueueTelemetry,
    mut per_thread: Vec<telemetry::ThreadRecord>,
) {
    let Some(rec) = telem else { return };
    let wall_ns = (stats.wall_seconds * 1e9) as u64;
    per_thread.sort_by_key(|t| t.thread);
    for t in per_thread.iter_mut() {
        t.idle_ns = wall_ns.saturating_sub(t.busy_ns + t.blocked_ns);
    }
    let mut r = telemetry::SchedulerRecord::new(name, threads);
    r.queue = queue.kind.label().to_string();
    r.queue_ops = queue.ops;
    r.queue_max_len = queue.max_len;
    r.pool_high_water = queue.pool.high_water;
    r.pool_recycled = queue.pool.recycled;
    r.pool_slot_bytes = crate::pool::pool_slot_bytes::<E>();
    r.committed = stats.committed;
    r.remote_events = stats.remote_events;
    r.cross_shard_events = stats.cross_shard_events;
    r.rounds = stats.rounds;
    r.steals = stats.steals;
    r.horizon_stall_ns = stats.horizon_stall_ns;
    r.horizon_lag_max = stats.horizon_lag_max;
    r.end_time_ns = stats.end_time.as_ns();
    r.wall_ns = wall_ns;
    r.per_thread = per_thread;
    rec.emit(&r);
}

/// Debug guard on dequeue order: timestamps pulled off an in-order event
/// queue must be non-decreasing, and a violation means the `Ord` on
/// [`Envelope`] (or a scheduler's merge of queues) regressed. Advances
/// `last` to `t` so callers can use it as their running clock.
#[inline]
pub(crate) fn debug_check_monotonic(last: &mut SimTime, t: SimTime) {
    debug_assert!(t >= *last, "non-monotonic dequeue: {} ns after {} ns", t.as_ns(), last.as_ns());
    *last = t;
}

/// Helper shared by the parallel schedulers: turn buffered outgoing sends
/// into envelopes, updating the sender's meta counters.
pub(crate) fn seal_outgoing<E>(
    src: LpId,
    send_time: SimTime,
    meta: &mut LpMeta,
    out: &mut Vec<Outgoing<E>>,
    mut push: impl FnMut(Envelope<E>),
) {
    for o in out.drain(..) {
        let env = Envelope {
            recv_time: send_time + o.delay,
            send_time,
            src,
            dst: o.dst,
            tiebreak: meta.tiebreak,
            uid: EventUid { src, seq: meta.tiebreak },
            payload: o.payload,
        };
        meta.tiebreak += 1;
        push(env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_dequeue_advances_the_clock() {
        let mut clock = SimTime::ZERO;
        debug_check_monotonic(&mut clock, SimTime::from_ns(5));
        debug_check_monotonic(&mut clock, SimTime::from_ns(5));
        debug_check_monotonic(&mut clock, SimTime::from_ns(9));
        assert_eq!(clock, SimTime::from_ns(9));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-monotonic")]
    fn decreasing_dequeue_timestamp_is_caught() {
        let mut clock = SimTime::from_ns(10);
        debug_check_monotonic(&mut clock, SimTime::from_ns(9));
    }
}
