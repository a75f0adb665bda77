//! The one conservative worker core (DESIGN.md §6).
//!
//! Every threaded conservative scheduler — the barrier rounds of
//! [`crate::parallel`] (in-process and, through [`crate::shard`], across
//! processes) and the barrier-free horizons of [`crate::asynchronous`] —
//! is the same machine: drain the mailbox, agree on a bound, run every
//! local event below the bound, deliver what those events sent. This
//! module holds the parts that do not depend on *how* the bound is agreed:
//!
//! * [`Worker::step`], the per-event path (pop → hard causality check →
//!   meta update → trace → [`Lp::handle`] → seal → route);
//! * [`Worker`] itself: queue + envelope pool, the LP/meta slab, the
//!   chunked mailbox [`Lane`], counters, trace buffer and live tap;
//! * the run scaffold around the threads: [`Run::open`] /
//!   [`Run::scatter`] / [`drive`] / [`Run::gather`], and the [`Latch`]
//!   that turns a causality violation or a panicking LP into an orderly
//!   shutdown instead of a hung barrier.

use crate::engine::{emit_sched_telemetry, seal_outgoing, QueueTelemetry, RunStats, Simulation};
use crate::event::{Envelope, LpId};
use crate::live::{LiveHandles, LiveTap};
use crate::lp::{Ctx, Lp, LpMeta, Outgoing};
use crate::mailbox::Mailbox;
use crate::partition::Assignment;
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
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// One event was executed.
    Ran,
    /// Nothing queued below the limit.
    Idle,
    /// The head event lies in its LP's past; the latch is tripped.
    Violation,
}

/// One worker thread's private state.
pub(crate) struct Worker<'r, L: Lp> {
    pub(crate) t: usize,
    pub(crate) run: &'r Run<L::Event>,
    /// LP slab: slot `i` hosts global LP `gids[i]`; `None` once the LP
    /// migrated away (async work stealing).
    pub(crate) gids: Vec<u32>,
    pub(crate) lps: Vec<Option<L>>,
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
    clock: u64,
    pub(crate) busy_ns: u64,
    pub(crate) stall_ns: u64,
    pub(crate) steals: u64,
    pub(crate) lag_max: u64,
}

impl<L: Lp> Worker<'_, L> {
    /// The per-event path every conservative scheduler shares. Executes
    /// the head of the queue if its receive time is strictly below
    /// `limit`; `slot` maps the destination LP to its slab index and
    /// `route` delivers each event the handler sent. `floor` is the agreed
    /// GVT the caller derived `limit` from (0 when there is none).
    #[inline]
    pub(crate) fn step(
        &mut self,
        floor: u64,
        limit: u64,
        slot: &impl Fn(LpId) -> usize,
        route: &mut impl FnMut(&mut Lane<'_, L::Event>, Envelope<L::Event>),
    ) -> Step {
        match self.lane.queue.peek() {
            Some(top) if top.recv_time.0 < limit => {}
            _ => return Step::Idle,
        }
        let env = self.lane.queue.pop().expect("peeked event vanished");
        // Oracle (checked builds): the agreed GVT is a true lower bound —
        // no worker may ever commit an event from its past.
        #[cfg(union_check)]
        assert!(
            env.recv_time.0 >= floor,
            "GVT oracle violated: processing event at {} ns below the agreed GVT {} ns",
            env.recv_time.0,
            floor
        );
        let _ = floor;
        self.clock = self.clock.max(env.recv_time.0);
        let li = slot(env.dst);
        let meta = &mut self.metas[li];
        // Hard check (not debug): a cross-partition event landing in this
        // LP's past means the window exceeded the model's true minimum
        // delay.
        if env.recv_time < meta.now {
            self.run.latch.trip(Abort::Violation(format!(
                "lookahead violation: event for LP {} at {} ns arrived after the LP reached \
                 {} ns; window {} ns exceeds the model's minimum send delay",
                env.dst, env.recv_time.0, meta.now.0, self.run.window_ns,
            )));
            self.lane.queue.push(env);
            return Step::Violation;
        }
        meta.now = env.recv_time;
        let lp = self.lps[li].as_mut().expect("resident LP state");
        let trace =
            self.tbuf.as_mut().map(|b| (lp.trace_kind(&env), b.event_start(), meta.tiebreak));
        let mut ctx = Ctx {
            now: env.recv_time,
            me: env.dst,
            lookahead: self.run.lookahead,
            out: &mut self.out,
        };
        lp.handle(&env, &mut ctx);
        self.committed += 1;
        let lane = &mut self.lane;
        seal_outgoing(env.dst, env.recv_time, meta, &mut self.out, |new| route(lane, new));
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
        self.lps.push(Some(lp));
        self.metas.push(meta);
        self.lps.len() - 1
    }
}

/// State shared by the workers of one run, and the scaffold around them.
pub(crate) struct Run<E> {
    name: &'static str,
    start: Instant,
    pub(crate) mailboxes: Vec<Mailbox<Chunk<E>>>,
    pub(crate) latch: Latch,
    /// Engine lookahead, for [`Ctx`].
    lookahead: SimDuration,
    /// Protocol window, for the violation message.
    window_ns: u64,
    telem_on: bool,
    /// Read the clock around processing phases: a few reads per round when
    /// a recorder or tracer is attached, nothing at all otherwise.
    pub(crate) timing: bool,
    trace: Option<(Arc<Tracer>, u32)>,
    live: Option<Arc<LiveHandles>>,
}

impl<E: Clone + Send + 'static> Run<E> {
    /// Open a run of scheduler `name` on `n_workers` threads: mailboxes,
    /// latch, and the trace run / live handles the simulation asks for.
    /// `start` is when the scheduler was entered (wall time includes its
    /// planning).
    pub(crate) fn open<L: Lp<Event = E>>(
        sim: &Simulation<L>,
        name: &'static str,
        n_workers: usize,
        window: SimDuration,
        start: Instant,
    ) -> Run<E> {
        let trace = sim.tracer.as_ref().map(|tr| (Arc::clone(tr), tr.open_run(name, n_workers)));
        let telem_on = sim.telemetry.is_some();
        Run {
            name,
            start,
            mailboxes: (0..n_workers).map(|_| Mailbox::new()).collect(),
            latch: Latch::new(),
            lookahead: sim.lookahead,
            window_ns: window.0,
            telem_on,
            timing: telem_on || trace.is_some(),
            trace,
            live: LiveHandles::from_sim(&sim.live, n_workers),
        }
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
        let n_workers = plan.locals.len();
        let mut home: Vec<Option<L>> = std::mem::take(&mut sim.lps).into_iter().map(Some).collect();
        let mut workers: Vec<Worker<'r, L>> = plan
            .locals
            .iter()
            .enumerate()
            .map(|(t, gids)| Worker {
                t,
                run: self,
                gids: gids.clone(),
                lps: gids.iter().map(|&g| home[g as usize].take()).collect(),
                metas: gids.iter().map(|&g| sim.meta[g as usize].clone()).collect(),
                lane: Lane {
                    queue: sim.queue.new_queue(),
                    mailboxes: &self.mailboxes,
                    chunks: (0..n_workers).map(|_| Vec::new()).collect(),
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
    /// panic is re-raised; otherwise the workers' counters fold into one
    /// [`RunStats`], one telemetry record and the trace run's footer.
    /// Events move as queues: the fullest worker queue becomes the pending
    /// set and the others stream into it ([`EventQueue::drain_each`]).
    pub(crate) fn gather<L: Lp<Event = E>>(
        &self,
        sim: &mut Simulation<L>,
        workers: Vec<Worker<'_, L>>,
        mut home: Vec<Option<L>>,
    ) -> RunStats {
        let n_workers = workers.len();
        let mut stats = RunStats::default();
        let mut queue = QueueTelemetry::empty(sim.queue);
        let mut per_thread = Vec::new();
        let mut queues = Vec::with_capacity(n_workers);
        for mut w in workers {
            stats.committed += w.committed;
            stats.remote_events += w.lane.remote;
            stats.cross_shard_events += w.lane.cross;
            stats.rounds = stats.rounds.max(w.rounds);
            stats.steals += w.steals;
            stats.horizon_stall_ns += w.stall_ns;
            stats.horizon_lag_max = stats.horizon_lag_max.max(w.lag_max);
            stats.end_time = stats.end_time.max(SimTime(w.clock));
            let pool = w.lane.queue.pool_stats();
            queue.ops += w.lane.queue.ops();
            queue.max_len = queue.max_len.max(w.lane.queue.max_len());
            queue.pool.merge(pool);
            w.live_flush(None);
            if let Some(tp) = w.tap.as_ref() {
                tp.pool_high_water(pool.high_water);
            }
            if let (Some((tr, _)), Some(buf)) = (self.trace.as_ref(), w.tbuf.take()) {
                tr.submit(buf);
            }
            if self.telem_on {
                per_thread.push(telemetry::ThreadRecord {
                    thread: w.t,
                    events: w.committed,
                    busy_ns: w.busy_ns,
                    blocked_ns: w.stall_ns,
                    idle_ns: 0,
                    mailbox_high_water: w.lane.mailbox_high_water,
                });
            }
            for ((gid, lp), meta) in w.gids.into_iter().zip(w.lps).zip(w.metas) {
                // An emptied slot is an LP that migrated: its new host
                // returns it, with the meta that kept advancing.
                if let Some(lp) = lp {
                    assert!(home[gid as usize].is_none(), "LP {gid} returned twice");
                    home[gid as usize] = Some(lp);
                    sim.meta[gid as usize] = meta;
                }
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

        stats.wall_seconds = self.start.elapsed().as_secs_f64();
        if let Some((tr, run)) = &self.trace {
            tr.close_run(*run, (stats.wall_seconds * 1e9) as u64, stats.end_time.as_ns());
        }
        emit_sched_telemetry::<E>(
            sim.telemetry.as_deref(),
            self.name,
            n_workers,
            &stats,
            queue,
            per_thread,
        );
        stats
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
