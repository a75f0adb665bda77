//! The one worker core (DESIGN.md §6).
//!
//! Every scheduler is the same machine: run every queued event below a
//! bound, deliver what those events sent. The threaded conservative
//! schedulers — the barrier rounds of [`crate::parallel`] (in-process
//! and, through [`crate::shard`], across processes) and the barrier-free
//! horizons of [`crate::asynchronous`] — add a mailbox drain and an
//! agreement on the bound; [`Simulation::run_sequential`] is the
//! one-worker case with no bound but `until`, run in place. This module
//! holds the parts that do not depend on *how* the bound is agreed:
//!
//! * [`Worker::step`], the per-event path (peek → hard causality check →
//!   pop → prefetch of the next event's LP → meta update → trace →
//!   [`Lp::handle`] → seal → route);
//! * [`Worker`] itself: queue + envelope pool, the LP/meta slab, the
//!   chunked mailbox [`Lane`], counters, trace buffer and live tap;
//! * [`Report`], the observed side of every run: the shared worker
//!   constructor, the counter fold and the run tail (trace footer, one
//!   telemetry record). It builds no `crate::sync` primitive, so the
//!   sequential run stays usable outside the model checker;
//! * the scaffold around the threads: [`Run::open`] / [`Run::scatter`] /
//!   [`drive`] / [`Run::gather`], and the [`Latch`] that turns a
//!   causality violation or a panicking LP into an orderly shutdown
//!   instead of a hung barrier.

use crate::engine::{RunStats, Simulation};
use crate::event::{Envelope, EventUid, LpId};
use crate::live::{LiveHandles, LiveTap};
use crate::lp::{Ctx, Lp, LpMeta, Outgoing};
use crate::mailbox::Mailbox;
use crate::partition::Assignment;
use crate::pool::{prefetch_read, PoolStats};
use crate::queue::{EventQueue, PendingQueue};
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{thread, Barrier, Mutex};
use crate::time::{SimDuration, SimTime};
use crate::trace::{SpanKind, TraceBuf, Tracer};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// Cross-partition events are batched into chunks of this many envelopes
/// before a mailbox push: one allocation + CAS per chunk instead of per
/// event, and the receiver ingests a cache-line-friendly contiguous run.
/// Partial chunks are flushed before the sender's next synchronization
/// point, so batching never delays delivery across a round boundary.
pub(crate) const MAILBOX_CHUNK: usize = 8;
/// Retained empty chunk vectors per worker (senders pull replacements from
/// here; receivers recycle drained chunks into it), bounding steady-state
/// chunk allocation.
const SPARE_CHUNKS_MAX: usize = 64;

/// What travels through a mailbox: a batch of envelopes, never split or
/// merged in flight (the exactly-once invariant checked under
/// `union_check` therefore counts chunks).
pub(crate) type Chunk<E> = Vec<Envelope<E>>;

enum Abort {
    Violation(String),
    Panic(Box<dyn std::any::Any + Send>),
}

/// Shutdown latch shared by the workers of one run.
///
/// A worker that detects a causality violation must not panic on the
/// spot, and a panic inside an LP's `handle` (model code we do not
/// control) must not unwind out of the worker: siblings would wait on a
/// barrier or a parked horizon forever. Either cause is parked here, every
/// worker winds down at its next look at [`Latch::tripped`], and the main
/// thread re-raises the first cause once all of them have returned.
pub(crate) struct Latch {
    tripped: AtomicBool,
    cause: Mutex<Option<Abort>>,
}

impl Latch {
    fn new() -> Latch {
        Latch { tripped: AtomicBool::new(false), cause: Mutex::new(None) }
    }

    #[inline]
    pub(crate) fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    fn trip(&self, cause: Abort) {
        let mut slot = self.cause.lock();
        if slot.is_none() {
            *slot = Some(cause);
        }
        self.tripped.store(true, Ordering::SeqCst);
    }

    /// Run a processing phase (model code runs in here). A panic trips the
    /// latch with the original payload and returns `false`, so the caller
    /// still reaches its next synchronization point.
    pub(crate) fn guard(&self, phase: impl FnOnce()) -> bool {
        match std::panic::catch_unwind(AssertUnwindSafe(phase)) {
            Ok(()) => true,
            Err(payload) => {
                self.trip(Abort::Panic(payload));
                false
            }
        }
    }

    fn raise(&self) {
        match self.cause.lock().take() {
            Some(Abort::Panic(payload)) => std::panic::resume_unwind(payload),
            Some(Abort::Violation(msg)) => panic!("{msg}"),
            None => {}
        }
    }
}

/// One worker's event traffic: its pending queue, and the chunked
/// Treiber mailboxes to and from its peers.
pub(crate) struct Lane<'r, E> {
    pub(crate) queue: PendingQueue<E>,
    mailboxes: &'r [Mailbox<Chunk<E>>],
    /// Per-destination outgoing chunk buffers plus a pool of spare
    /// (empty, capacity-carrying) chunk vectors.
    chunks: Vec<Chunk<E>>,
    spare: Vec<Chunk<E>>,
    inbox: Vec<Chunk<E>>,
    /// Events sent to a peer worker of this process.
    pub(crate) remote: u64,
    /// Events sent to another OS-process shard.
    pub(crate) cross: u64,
    mailbox_high_water: u64,
}

impl<E> Lane<'_, E> {
    /// Buffer `env` for worker `o`. Returns `true` when that filled the
    /// chunk, which the caller must then [`ship`](Lane::ship) — the two
    /// halves are separate because the async scheduler has to count the
    /// chunk into `S` in between.
    #[inline]
    pub(crate) fn stage(&mut self, o: usize, env: Envelope<E>) -> bool {
        self.remote += 1;
        let c = &mut self.chunks[o];
        c.push(env);
        c.len() >= MAILBOX_CHUNK
    }

    pub(crate) fn ship(&mut self, o: usize) {
        let full = std::mem::replace(&mut self.chunks[o], self.spare.pop().unwrap_or_default());
        self.mailboxes[o].push(full);
    }

    #[inline]
    pub(crate) fn send(&mut self, o: usize, env: Envelope<E>) {
        if self.stage(o, env) {
            self.ship(o);
        }
    }

    /// Ship every partial chunk, so no buffered event is ever stranded in
    /// this worker's locals; `shipped` hears each destination.
    pub(crate) fn flush(&mut self, mut shipped: impl FnMut(usize)) {
        for o in 0..self.chunks.len() {
            if !self.chunks[o].is_empty() {
                self.ship(o);
                shipped(o);
            }
        }
    }

    /// Take everything in worker `t`'s mailbox, one chunk at a time,
    /// handing each envelope to `each`. Returns the envelope count.
    pub(crate) fn drain(&mut self, t: usize, mut each: impl FnMut(&mut Self, Envelope<E>)) -> u64 {
        let mut inbox = std::mem::take(&mut self.inbox);
        self.mailboxes[t].drain_into(&mut inbox);
        let mut drained = 0u64;
        for mut chunk in inbox.drain(..) {
            drained += chunk.len() as u64;
            for env in chunk.drain(..) {
                each(self, env);
            }
            if self.spare.len() < SPARE_CHUNKS_MAX {
                self.spare.push(chunk);
            }
        }
        self.inbox = inbox;
        self.mailbox_high_water = self.mailbox_high_water.max(drained);
        drained
    }

    /// [`drain`](Lane::drain) straight into the local queue.
    pub(crate) fn ingest(&mut self, t: usize) {
        self.drain(t, |lane, env| lane.queue.push(env));
    }
}

/// Outcome of one [`Worker::step`].
#[derive(PartialEq, Eq)]
pub(crate) enum Step {
    /// One event was executed.
    Ran,
    /// Nothing queued below the limit.
    Idle,
    /// The head event lies in its LP's past (it stays queued): what
    /// happened, for the caller's panic message.
    Late(String),
}

/// The seal's hard check failed: `src` sent to an LP the simulation does
/// not have. Out of line, so the per-send check stays one compare (inline,
/// the panic's formatting measured ~5% of `phold-seq` wall time).
#[cold]
#[inline(never)]
fn unknown_lp(src: LpId, dst: LpId, n_lps: usize) -> ! {
    panic!("LP {src} sent an event to unknown LP {dst} (the simulation has {n_lps} LPs)")
}

/// One worker's private state.
pub(crate) struct Worker<'r, L: Lp> {
    pub(crate) t: usize,
    /// Engine lookahead, for [`Ctx`].
    lookahead: SimDuration,
    /// The simulation's LP count: the seal refuses a send beyond it.
    n_lps: usize,
    /// LP slab: slot `i` hosts global LP `gids[i]` (the sequential run
    /// leaves `gids` empty: there, slot and id coincide). Async migration
    /// hands off a victim's tail slots, so the rest keep their index.
    pub(crate) gids: Vec<u32>,
    pub(crate) lps: Vec<L>,
    pub(crate) metas: Vec<LpMeta>,
    pub(crate) lane: Lane<'r, L::Event>,
    out: Vec<Outgoing<L::Event>>,
    tbuf: Option<TraceBuf>,
    pub(crate) tap: Option<LiveTap>,
    /// (committed, remote, cross) already pushed through the live tap.
    live_flushed: (u64, u64, u64),
    pub(crate) committed: u64,
    /// Synchronization rounds (barrier) or scheduling iterations (async).
    pub(crate) rounds: u64,
    pub(crate) clock: u64,
    pub(crate) busy_ns: u64,
    pub(crate) stall_ns: u64,
    pub(crate) steals: u64,
    pub(crate) lag_max: u64,
    /// The queue's (ops, recycled slots) when the run began: an adopted
    /// queue that served earlier legs reports only this run's share.
    queue0: (u64, u64),
}

impl<L: Lp> Worker<'_, L> {
    /// The per-event path every scheduler shares. Executes the head of the
    /// queue if its receive time is strictly below `limit`; `slot` maps the
    /// destination LP to its slab index and `route` delivers each event the
    /// handler sent. `floor` is the agreed GVT the caller derived `limit`
    /// from (0 when there is none).
    #[inline]
    pub(crate) fn step(
        &mut self,
        floor: u64,
        limit: u64,
        slot: &impl Fn(LpId) -> usize,
        route: &mut impl FnMut(&mut Lane<'_, L::Event>, Envelope<L::Event>),
    ) -> Step {
        let top = match self.lane.queue.peek() {
            Some(top) if top.recv_time.0 < limit => top,
            _ => return Step::Idle,
        };
        // Oracle (checked builds): the agreed GVT is a true lower bound —
        // no worker may ever commit an event from its past.
        #[cfg(union_check)]
        assert!(
            top.recv_time.0 >= floor,
            "GVT oracle violated: processing event at {} ns below the agreed GVT {} ns",
            top.recv_time.0,
            floor
        );
        let _ = floor;
        let li = slot(top.dst);
        let reached = self.metas[li].now;
        // Hard check (not debug): an event landing in its LP's past means a
        // window exceeded the model's true minimum delay (or, sequentially,
        // that one was scheduled into the LP's past between legs).
        if top.recv_time < reached {
            return Step::Late(format!(
                "event for LP {} at {} ns arrived after the LP reached {} ns",
                top.dst, top.recv_time.0, reached.0
            ));
        }
        let env = self.lane.queue.pop().expect("peeked event vanished");
        // The next event's LP state and meta are random slots in two big
        // arrays: start pulling them in now, so the handler below hides the
        // misses (a send that lands ahead of it only wastes the hint).
        if let Some(next) = self.lane.queue.peek() {
            if next.recv_time.0 < limit {
                let ni = slot(next.dst);
                prefetch_read(self.metas.as_ptr().wrapping_add(ni));
                prefetch_read(self.lps.as_ptr().wrapping_add(ni));
            }
        }
        let meta = &mut self.metas[li];
        self.clock = self.clock.max(env.recv_time.0);
        meta.now = env.recv_time;
        let lp = &mut self.lps[li];
        // A dry trace buffer costs what a detached one does: one branch.
        let trace = match self.tbuf.as_mut() {
            Some(b) if !b.is_dry() => Some((lp.trace_kind(&env), b.event_start(), meta.tiebreak)),
            _ => None,
        };
        let mut ctx =
            Ctx { now: env.recv_time, me: env.dst, lookahead: self.lookahead, out: &mut self.out };
        lp.handle(&env, &mut ctx);
        self.committed += 1;
        // Seal: buffered sends become envelopes, numbered by the sender.
        let (src, n_lps) = (env.dst, self.n_lps);
        for o in self.out.drain(..) {
            if o.dst as usize >= n_lps {
                unknown_lp(src, o.dst, n_lps);
            }
            let new = Envelope {
                recv_time: env.recv_time + o.delay,
                send_time: env.recv_time,
                src,
                dst: o.dst,
                tiebreak: meta.tiebreak,
                uid: EventUid { src, seq: meta.tiebreak },
                payload: o.payload,
            };
            meta.tiebreak += 1;
            route(&mut self.lane, new);
        }
        if let (Some(b), Some((kind, t0, uid_lo))) = (self.tbuf.as_mut(), trace) {
            b.record(&env, uid_lo, (meta.tiebreak - uid_lo) as u32, kind, t0);
        }
        Step::Ran
    }

    /// Account a blocking wait that began at `t0`. Waits are timed
    /// unconditionally — the benchmark's stall comparison between the
    /// barrier and async protocols (`BENCHMARK.json`, `ross.par.*` vs
    /// `ross.async.*`) needs them even with telemetry off.
    pub(crate) fn stalled(&mut self, t0: Instant) {
        self.stall_ns += t0.elapsed().as_nanos() as u64;
        if let Some(b) = self.tbuf.as_mut() {
            b.end_span(SpanKind::Barrier, t0);
        }
    }

    pub(crate) fn wait(&mut self, barrier: &Barrier) {
        let t0 = Instant::now();
        barrier.wait();
        self.stalled(t0);
    }

    /// Push the counter deltas since the last flush, the queue depth and
    /// (from the one worker that reports it) the global clock through the
    /// live tap. One branch when no registry is attached.
    pub(crate) fn live_flush(&mut self, gvt: Option<u64>) {
        let Some(tp) = self.tap.as_mut() else { return };
        let now = (self.committed, self.lane.remote, self.lane.cross);
        tp.commit(now.0 - self.live_flushed.0);
        tp.remote(now.1 - self.live_flushed.1);
        tp.cross_shard(now.2 - self.live_flushed.2);
        self.live_flushed = now;
        if let Some(gvt) = gvt {
            tp.gvt(gvt);
        }
        tp.lag(self.lag_max);
        tp.queue_depth(self.lane.queue.len() as u64);
        tp.flush();
    }

    /// (committed, remote) not yet pushed through the live tap.
    pub(crate) fn live_backlog(&self) -> (u64, u64) {
        (self.committed - self.live_flushed.0, self.lane.remote - self.live_flushed.1)
    }

    /// Host one more LP (async migration install); returns its slot.
    pub(crate) fn adopt(&mut self, gid: u32, lp: L, meta: LpMeta) -> usize {
        self.gids.push(gid);
        self.lps.push(lp);
        self.metas.push(meta);
        self.lps.len() - 1
    }
}

/// The observed side of one run: its name, start and shape, and the trace
/// run and live handles it opened. It builds every [`Worker`] and, at the
/// end, folds their counters into one [`RunStats`], one `scheduler`
/// telemetry record and the trace run's footer. It holds no `crate::sync`
/// primitive: the sequential run, which the model checker's oracle runs
/// outside `ross_check::model()` as its reference, opens one too.
pub(crate) struct Report {
    name: &'static str,
    start: Instant,
    n_workers: usize,
    n_lps: usize,
    lookahead: SimDuration,
    telem_on: bool,
    /// Read the clock around processing phases: a few reads per round when
    /// a recorder or tracer is attached, nothing at all otherwise.
    pub(crate) timing: bool,
    trace: Option<(Arc<Tracer>, u32)>,
    live: Option<Arc<LiveHandles>>,
}

/// A run's counters, folded over its workers by [`Report::fold`].
#[derive(Default)]
pub(crate) struct Tally {
    stats: RunStats,
    /// Queue ops and slot reuses of this run only; `max_len` and the pool
    /// high water are lifetime maxima of each queue (for an adopted queue
    /// they span the earlier legs it served).
    queue_ops: u64,
    queue_max_len: u64,
    pool: PoolStats,
    per_thread: Vec<telemetry::ThreadRecord>,
}

impl Report {
    /// Open a run of scheduler `name` on `n_workers` workers: the trace
    /// run and live handles the simulation asks for. `start` is when the
    /// scheduler was entered (wall time includes its planning).
    pub(crate) fn open<L: Lp>(
        sim: &Simulation<L>,
        name: &'static str,
        n_workers: usize,
        start: Instant,
    ) -> Report {
        let trace = sim.tracer.as_ref().map(|tr| (Arc::clone(tr), tr.open_run(name, n_workers)));
        let telem_on = sim.telemetry.is_some();
        Report {
            name,
            start,
            n_workers,
            n_lps: sim.lps.len(),
            lookahead: sim.lookahead,
            telem_on,
            timing: telem_on || trace.is_some(),
            trace,
            live: LiveHandles::from_sim(&sim.live, n_workers),
        }
    }

    /// Worker `t` of this run: it hosts `lps` and `metas` (slot `i` is
    /// global LP `gids[i]`), runs the events in `queue` and reaches its
    /// peers through `mailboxes` (none for the sequential run).
    pub(crate) fn worker<'r, L: Lp>(
        &self,
        t: usize,
        gids: Vec<u32>,
        lps: Vec<L>,
        metas: Vec<LpMeta>,
        queue: PendingQueue<L::Event>,
        mailboxes: &'r [Mailbox<Chunk<L::Event>>],
    ) -> Worker<'r, L> {
        Worker {
            t,
            lookahead: self.lookahead,
            n_lps: self.n_lps,
            gids,
            lps,
            metas,
            queue0: (queue.ops(), queue.pool_stats().recycled),
            lane: Lane {
                queue,
                mailboxes,
                chunks: mailboxes.iter().map(|_| Vec::new()).collect(),
                spare: Vec::new(),
                inbox: Vec::new(),
                remote: 0,
                cross: 0,
                mailbox_high_water: 0,
            },
            out: Vec::with_capacity(8),
            tbuf: self.trace.as_ref().map(|(tr, run)| tr.buf(*run, t as u32)),
            tap: self.live.as_ref().map(|h| h.tap(t)),
            live_flushed: (0, 0, 0),
            committed: 0,
            rounds: 0,
            clock: 0,
            busy_ns: 0,
            stall_ns: 0,
            steals: 0,
            lag_max: 0,
        }
    }

    /// Fold `w`'s counters into `tally`, push its last live deltas (with
    /// `gvt`, from the worker that reports it) and submit its trace buffer.
    pub(crate) fn fold<L: Lp>(&self, tally: &mut Tally, w: &mut Worker<'_, L>, gvt: Option<u64>) {
        let stats = &mut tally.stats;
        stats.committed += w.committed;
        stats.remote_events += w.lane.remote;
        stats.cross_shard_events += w.lane.cross;
        stats.rounds = stats.rounds.max(w.rounds);
        stats.steals += w.steals;
        stats.horizon_stall_ns += w.stall_ns;
        stats.horizon_lag_max = stats.horizon_lag_max.max(w.lag_max);
        stats.end_time = stats.end_time.max(SimTime(w.clock));
        let queue = &w.lane.queue;
        let pool = queue.pool_stats();
        tally.queue_ops += queue.ops() - w.queue0.0;
        tally.queue_max_len = tally.queue_max_len.max(queue.max_len());
        tally.pool.merge(PoolStats { recycled: pool.recycled - w.queue0.1, ..pool });
        w.live_flush(gvt);
        if let Some(tp) = w.tap.as_ref() {
            tp.pool_high_water(pool.high_water);
        }
        if let (Some((tr, _)), Some(mut buf)) = (self.trace.as_ref(), w.tbuf.take()) {
            buf.settle(w.committed);
            tr.submit(buf);
        }
        if self.telem_on {
            tally.per_thread.push(telemetry::ThreadRecord {
                thread: w.t,
                events: w.committed,
                busy_ns: w.busy_ns,
                blocked_ns: w.stall_ns,
                idle_ns: 0,
                mailbox_high_water: w.lane.mailbox_high_water,
            });
        }
    }

    /// The run tail every scheduler shares: stamp the wall time, close the
    /// trace run and emit one `scheduler` record (when a recorder is
    /// attached).
    pub(crate) fn close<L: Lp>(&self, sim: &Simulation<L>, tally: Tally) -> RunStats {
        let Tally { mut stats, queue_ops, queue_max_len, pool, mut per_thread } = tally;
        stats.wall_seconds = self.start.elapsed().as_secs_f64();
        let wall_ns = (stats.wall_seconds * 1e9) as u64;
        if let Some((tr, run)) = &self.trace {
            tr.close_run(*run, wall_ns, stats.end_time.as_ns());
        }
        let Some(rec) = sim.telemetry.as_deref() else { return stats };
        per_thread.sort_by_key(|t| t.thread);
        for t in per_thread.iter_mut() {
            t.idle_ns = wall_ns.saturating_sub(t.busy_ns + t.blocked_ns);
        }
        let mut r = telemetry::SchedulerRecord::new(self.name, self.n_workers);
        r.queue = sim.queue.label().to_string();
        r.queue_ops = queue_ops;
        r.queue_max_len = queue_max_len;
        r.pool_high_water = pool.high_water;
        r.pool_recycled = pool.recycled;
        r.pool_slot_bytes = crate::pool::pool_slot_bytes::<L::Event>();
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
        stats
    }
}

/// State shared by the threads of one run, and the scaffold around them.
pub(crate) struct Run<E> {
    pub(crate) report: Report,
    pub(crate) mailboxes: Vec<Mailbox<Chunk<E>>>,
    pub(crate) latch: Latch,
    /// Protocol window: the round loop's window width, and the violation
    /// message names it.
    pub(crate) window_ns: u64,
}

impl<E: Clone + Send + 'static> Run<E> {
    /// Open a run of scheduler `name` on `n_workers` threads: its
    /// [`Report`], mailboxes and latch.
    pub(crate) fn open<L: Lp<Event = E>>(
        sim: &Simulation<L>,
        name: &'static str,
        n_workers: usize,
        window: SimDuration,
        start: Instant,
    ) -> Run<E> {
        Run {
            report: Report::open(sim, name, n_workers, start),
            mailboxes: (0..n_workers).map(|_| Mailbox::new()).collect(),
            latch: Latch::new(),
            window_ns: window.0,
        }
    }

    /// Trip the latch if `last` is a causality violation; returns whether
    /// it was one.
    pub(crate) fn late(&self, last: Step) -> bool {
        let Step::Late(what) = last else { return false };
        self.latch.trip(Abort::Violation(format!(
            "lookahead violation: {what}; window {} ns exceeds the model's minimum send delay",
            self.window_ns
        )));
        true
    }

    /// Move the LPs `plan` assigns (plus a copy of their meta) and their
    /// pending events into one [`Worker`] each. Partitions are not
    /// contiguous in general, so LP state leaves the simulation for the
    /// duration of the run; the second return value holds the slots
    /// [`Run::gather`] refills (LPs `plan` leaves unowned stay in it).
    /// Events stream straight from the pending set into their owners'
    /// queues; one for an LP `plan` leaves unowned (another shard's) is
    /// dropped, because every shard built the same initial set. The
    /// pending set is left empty and its slab released for the leg.
    pub(crate) fn scatter<'r, L: Lp<Event = E>>(
        &'r self,
        sim: &mut Simulation<L>,
        plan: &Assignment,
    ) -> (Vec<Worker<'r, L>>, Vec<Option<L>>) {
        let mut home: Vec<Option<L>> = std::mem::take(&mut sim.lps).into_iter().map(Some).collect();
        let mut workers: Vec<Worker<'r, L>> = plan
            .locals
            .iter()
            .enumerate()
            .map(|(t, gids)| {
                self.report.worker(
                    t,
                    gids.clone(),
                    gids.iter()
                        .map(|&g| home[g as usize].take().expect("LP owned twice"))
                        .collect(),
                    gids.iter().map(|&g| sim.meta[g as usize].clone()).collect(),
                    sim.queue.new_queue(),
                    &self.mailboxes,
                )
            })
            .collect();
        let mut pending = std::mem::replace(&mut sim.pending, sim.queue.new_queue());
        pending.drain_each(|env| {
            if let Some(w) = workers.get_mut(plan.owner_of[env.dst as usize] as usize) {
                w.lane.queue.push(env);
            }
        });
        (workers, home)
    }

    /// Close the run: LP state and meta go back to their global slots,
    /// unprocessed events (beyond `until`, or stranded by a shutdown) back
    /// to the pending set for a later leg; a latched violation or model
    /// panic is re-raised; otherwise the workers' counters fold into the
    /// [`Report`]'s run tail. Events move as queues: the fullest worker
    /// queue becomes the pending set and the others stream into it
    /// ([`EventQueue::drain_each`]).
    pub(crate) fn gather<L: Lp<Event = E>>(
        &self,
        sim: &mut Simulation<L>,
        workers: Vec<Worker<'_, L>>,
        mut home: Vec<Option<L>>,
    ) -> RunStats {
        let mut tally = Tally::default();
        let mut queues = Vec::with_capacity(workers.len());
        for mut w in workers {
            self.report.fold(&mut tally, &mut w, None);
            for ((gid, lp), meta) in w.gids.into_iter().zip(w.lps).zip(w.metas) {
                assert!(home[gid as usize].is_none(), "LP {gid} returned twice");
                home[gid as usize] = Some(lp);
                sim.meta[gid as usize] = meta;
            }
            queues.push(w.lane.queue);
        }
        debug_assert!(sim.pending.is_empty(), "events queued on the simulation mid-leg");
        if let Some(fullest) = (0..queues.len()).max_by_key(|&i| queues[i].len()) {
            sim.pending = queues.swap_remove(fullest);
        }
        for mut q in queues {
            q.drain_each(|env| sim.pending.push(env));
        }
        // Mailboxes are drained before every processing phase and a clean
        // run performs no sends after its last drain, but a latched
        // shutdown can strand chunks.
        let mut stray = Vec::new();
        for mb in &self.mailboxes {
            mb.drain_into(&mut stray);
        }
        for env in stray.into_iter().flatten() {
            sim.pending.push(env);
        }
        sim.lps = home.into_iter().map(|s| s.expect("missing LP")).collect();
        self.latch.raise();
        self.report.close(sim, tally)
    }
}

/// Run `body` on one scoped thread per seed (a [`Worker`], possibly with
/// per-thread extras) while `leader` runs on the calling thread; returns
/// the seeds, in order, and the leader's result.
///
/// Finished seeds come back through one shared list, not the join
/// handles: handing in results is the only unordered cross-worker
/// synchronization a barrier-round run has left (everything else is
/// ordered by the round barriers), and the model checker's oracle relies
/// on there being one to tell a real exploration from a single path.
pub(crate) fn drive<S: Send, R>(
    seeds: Vec<S>,
    body: impl Fn(&mut S) + Sync,
    leader: impl FnOnce() -> R,
) -> (Vec<S>, R) {
    let done: Mutex<Vec<(usize, S)>> = Mutex::new(Vec::with_capacity(seeds.len()));
    let (body, done_ref) = (&body, &done);
    let led = thread::scope(|scope| {
        for (i, mut seed) in seeds.into_iter().enumerate() {
            scope.spawn(move || {
                body(&mut seed);
                done_ref.lock().push((i, seed));
            });
        }
        leader()
    });
    let mut done = done.into_inner();
    done.sort_unstable_by_key(|(i, _)| *i);
    (done.into_iter().map(|(_, seed)| seed).collect(), led)
}

impl<L: Lp> Simulation<L> {
    /// Worker-level placement for an in-process run on up to `n_threads`
    /// threads: the installed partition (or one block per LP) through the
    /// deterministic bin-packer. `None` when that leaves a single worker,
    /// which callers hand to the sequential scheduler.
    pub(crate) fn plan_workers(&self, n_threads: usize) -> Option<Assignment> {
        let n_lps = self.lps.len();
        let n_threads = n_threads.max(1).min(n_lps.max(1));
        (n_threads > 1).then(|| Assignment::of(self.partition.as_ref(), n_lps, n_threads))
    }
}
