//! Optimistic parallel scheduler (Time Warp).
//!
//! Threads speculatively process their LPs' events in local key order.
//! A straggler (an event ordered before work already done on its LP)
//! triggers a **rollback**: the LP restores the most recent snapshot at or
//! before the straggler, *coast-forwards* (re-executes with sends
//! suppressed) up to the straggler, returns the undone events to the
//! pending set, and sends **anti-messages** cancelling every event those
//! undone events produced.
//!
//! Epochs are synchronized with barriers: every `batch` locally processed
//! events the threads drain mailboxes to quiescence, compute **GVT** (the
//! minimum unprocessed event time anywhere), and fossil-collect snapshots
//! and processed-event logs below it. Determinism: because each LP's
//! tiebreak counter is saved and restored with its state, re-executions
//! regenerate identical event keys and the committed schedule is
//! bit-identical to the sequential one.

use crate::engine::{seal_outgoing, QueueTelemetry, RunStats, Simulation};
use crate::event::{Envelope, EventKey, EventUid};
use crate::lp::{Ctx, Lp, LpMeta, Outgoing};
use crate::queue::{EventQueue, PendingQueue};
use crate::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use crate::sync::{thread, Barrier, Mutex};
use crate::time::{SimDuration, SimTime};
use crate::trace::{SpanKind, TraceBuf};
use std::collections::{HashSet, VecDeque};

/// Tuning knobs for the optimistic scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimisticConfig {
    /// Locally processed events per thread between GVT epochs.
    pub batch: usize,
    /// Take a state snapshot every `snapshot_interval` events per LP.
    /// 1 = copy state before every event (cheapest rollbacks, most memory).
    pub snapshot_interval: u64,
}

impl Default for OptimisticConfig {
    fn default() -> Self {
        OptimisticConfig { batch: 512, snapshot_interval: 4 }
    }
}

/// Partition LPs into `n` contiguous ranges of near-equal size.
fn partition(n_lps: usize, n_threads: usize) -> Vec<std::ops::Range<usize>> {
    let n_threads = n_threads.max(1).min(n_lps.max(1));
    let base = n_lps / n_threads;
    let extra = n_lps % n_threads;
    let mut ranges = Vec::with_capacity(n_threads);
    let mut start = 0;
    for t in 0..n_threads {
        let len = base + usize::from(t < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Map an LP id to its owning thread given the partition.
#[inline]
fn owner(ranges: &[std::ops::Range<usize>], lp: usize) -> usize {
    // Ranges are contiguous and sorted; binary search on start.
    match ranges.binary_search_by(|r| {
        if lp < r.start {
            std::cmp::Ordering::Greater
        } else if lp >= r.end {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Equal
        }
    }) {
        Ok(t) => t,
        Err(_) => unreachable!("LP {lp} outside all partitions"),
    }
}

/// A message between threads: a scheduled event or a cancellation.
enum Msg<E> {
    Event(Envelope<E>),
    Anti { dst: u32, uid: EventUid },
}

impl<E> Msg<E> {
    fn dst(&self) -> usize {
        match self {
            Msg::Event(e) => e.dst as usize,
            Msg::Anti { dst, .. } => *dst as usize,
        }
    }
}

struct SentRecord {
    dst: u32,
    uid: EventUid,
}

struct Processed<E> {
    env: Envelope<E>,
    sends: Vec<SentRecord>,
}

struct Snapshot<L> {
    /// Absolute processed-event index this snapshot precedes.
    at: u64,
    lp: L,
    tiebreak: u64,
    now: SimTime,
}

/// Per-LP runtime for Time Warp.
struct LpRt<L: Lp> {
    lp: L,
    meta: LpMeta,
    processed: VecDeque<Processed<L::Event>>,
    snapshots: VecDeque<Snapshot<L>>,
    /// The GVT fence: the newest snapshot at or below the last fossil
    /// collection point. Fossil collection *moves* retired snapshots here
    /// instead of dropping the knowledge, so a rollback whose target
    /// undoes every younger snapshot can always restore from the fence
    /// and coast-forward — it never runs out of restore targets.
    /// Invariant: `fence.at == base` after every fossil collection, and
    /// `fence.at <= base + i` for any legal rollback target `i`.
    fence: Snapshot<L>,
    /// Absolute index of `processed.front()`.
    base: u64,
}

impl<L: Lp + Clone> LpRt<L> {
    fn count(&self) -> u64 {
        self.base + self.processed.len() as u64
    }

    fn last_key(&self) -> Option<EventKey> {
        self.processed.back().map(|p| p.env.key())
    }
}

#[derive(Default)]
struct LocalStats {
    rolled: u64,
    rollbacks: u64,
    anti: u64,
    annihilated: u64,
    fence_restores: u64,
    epochs: u64,
    /// Max over epochs of `local_min - gvt`: how far this thread's
    /// frontier ran ahead of the slowest thread.
    gvt_lag_max: u64,
}

/// Roll `rt` back so every processed event with key >= `to` is undone.
/// Undone events are returned to `queue`, except the one whose uid matches
/// `skip_uid` (an annihilated event). Anti-messages for the sends of undone
/// events are appended to `antis` for the caller to post. Undone
/// executions are marked wasted in `tbuf` and the whole episode becomes
/// a rollback span.
#[allow(clippy::too_many_arguments)]
fn rollback<L: Lp + Clone>(
    rt: &mut LpRt<L>,
    to: EventKey,
    skip_uid: Option<EventUid>,
    queue: &mut PendingQueue<L::Event>,
    lookahead: SimDuration,
    scratch: &mut Vec<Outgoing<L::Event>>,
    stats: &mut LocalStats,
    antis: &mut Vec<(u32, EventUid)>,
    tbuf: &mut Option<TraceBuf>,
) {
    // First undone index (relative).
    let mut i = rt.processed.len();
    while i > 0 && rt.processed[i - 1].env.key() >= to {
        i -= 1;
    }
    if i == rt.processed.len() {
        return;
    }
    let span_t0 = tbuf.as_ref().map(|_| std::time::Instant::now());
    stats.rollbacks += 1;
    let abs_i = rt.base + i as u64;
    // Undo events [i..): re-enqueue them and cancel their sends.
    while rt.processed.len() > i {
        let p = rt.processed.pop_back().unwrap();
        stats.rolled += 1;
        if let Some(b) = tbuf.as_mut() {
            b.mark_rolled_back(p.env.uid);
        }
        for s in p.sends {
            antis.push((s.dst, s.uid));
        }
        if Some(p.env.uid) != skip_uid {
            queue.push(p.env);
        }
    }
    // Restore the latest snapshot at or before abs_i. When every snapshot
    // younger than the straggler has been undone (a deep rollback early in
    // an epoch, before the first periodic snapshot), fall back to the GVT
    // fence: it sits at `rt.base`, which is never above a legal rollback
    // target, so the restore + coast-forward below always succeeds.
    while rt.snapshots.back().map(|s| s.at > abs_i).unwrap_or(false) {
        rt.snapshots.pop_back();
    }
    let snap = match rt.snapshots.back() {
        Some(s) => s,
        None => {
            stats.fence_restores += 1;
            &rt.fence
        }
    };
    debug_assert!(snap.at >= rt.base && snap.at <= abs_i, "snapshot outside rollback range");
    let (snap_lp, snap_tiebreak, snap_now, snap_at) =
        (snap.lp.clone(), snap.tiebreak, snap.now, snap.at);
    rt.lp = snap_lp;
    rt.meta.tiebreak = snap_tiebreak;
    rt.meta.now = snap_now;
    let replay_from = (snap_at - rt.base) as usize;
    // Coast-forward: re-execute [replay_from..i) with sends suppressed —
    // those sends are already in flight and were not cancelled. The tiebreak
    // counter advances identically because the replayed handlers emit the
    // same sends.
    for k in replay_from..i {
        let env = rt.processed[k].env.clone();
        rt.meta.now = env.recv_time;
        let mut ctx = Ctx { now: env.recv_time, me: env.dst, lookahead, out: scratch };
        rt.lp.handle(&env, &mut ctx);
        seal_outgoing(env.dst, env.recv_time, &mut rt.meta, scratch, |_| {});
    }
    if let (Some(b), Some(t0)) = (tbuf.as_mut(), span_t0) {
        b.end_span(SpanKind::Rollback, t0);
    }
}

/// Deliver one message to this thread's state, rolling back on stragglers
/// and annihilating on anti-messages. Induced anti-messages go to `antis`.
#[allow(clippy::too_many_arguments)]
fn ingest<L: Lp + Clone>(
    msg: Msg<L::Event>,
    base_lp: usize,
    lookahead: SimDuration,
    rts: &mut [LpRt<L>],
    queue: &mut PendingQueue<L::Event>,
    tombstones: &mut HashSet<EventUid>,
    scratch: &mut Vec<Outgoing<L::Event>>,
    stats: &mut LocalStats,
    antis: &mut Vec<(u32, EventUid)>,
    tbuf: &mut Option<TraceBuf>,
) {
    match msg {
        Msg::Event(env) => {
            let rt = &mut rts[env.dst as usize - base_lp];
            if rt.last_key().map(|k| k >= env.key()).unwrap_or(false) {
                rollback(rt, env.key(), None, queue, lookahead, scratch, stats, antis, tbuf);
            }
            queue.push(env);
        }
        Msg::Anti { dst, uid } => {
            let rt = &mut rts[dst as usize - base_lp];
            if let Some(p) = rt.processed.iter().rev().find(|p| p.env.uid == uid) {
                let key = p.env.key();
                stats.annihilated += 1;
                rollback(rt, key, Some(uid), queue, lookahead, scratch, stats, antis, tbuf);
            } else {
                // Not yet processed: annihilate lazily when it pops.
                tombstones.insert(uid);
            }
        }
    }
}

struct ThreadOutcome<L: Lp> {
    lps: Vec<(usize, L, LpMeta)>,
    leftover: Vec<Envelope<L::Event>>,
    stats: LocalStats,
    committed: u64,
    final_gvt: u64,
    queue_ops: u64,
    queue_max_len: u64,
    pool: crate::pool::PoolStats,
}

impl<L: Lp + Clone> Simulation<L> {
    /// Run with the Time Warp scheduler on `n_threads` threads until the
    /// event population drains or GVT passes `until`.
    ///
    /// Produces results bit-identical to [`Simulation::run_sequential`].
    pub fn run_optimistic(
        &mut self,
        n_threads: usize,
        cfg: OptimisticConfig,
        until: SimTime,
    ) -> RunStats {
        assert!(cfg.snapshot_interval >= 1);
        assert!(cfg.batch >= 1);
        let start = std::time::Instant::now();
        let n_lps = self.lps.len();
        let ranges = partition(n_lps, n_threads);
        let n_threads = ranges.len();
        if n_threads <= 1 {
            return self.run_sequential(until);
        }

        let qkind = self.queue;
        let mut queues: Vec<PendingQueue<L::Event>> =
            (0..n_threads).map(|_| qkind.new_queue()).collect();
        let mut scratch0 = Vec::with_capacity(self.pending.len());
        self.pending.drain_to(&mut scratch0);
        for env in scratch0.drain(..) {
            queues[owner(&ranges, env.dst as usize)].push(env);
        }

        let mailboxes: Vec<Mutex<Vec<Msg<L::Event>>>> =
            (0..n_threads).map(|_| Mutex::new(Vec::new())).collect();
        // Net count of messages posted to mailboxes and not yet drained.
        let in_flight = AtomicI64::new(0);
        // Threads that still have local messages queued during quiescence
        // detection.
        let busy_threads = AtomicI64::new(0);
        let barrier = Barrier::new(n_threads);
        let mins: Vec<AtomicU64> = (0..n_threads).map(|_| AtomicU64::new(u64::MAX)).collect();
        let lookahead = self.lookahead;
        // Telemetry: clock reads around barriers and batches, only when a
        // recorder or tracer is attached; the per-event path is untouched
        // unless a tracer asks for it.
        let telem_on = self.telemetry.is_some();
        let trace_run = self
            .tracer
            .as_ref()
            .map(|tr| (std::sync::Arc::clone(tr), tr.open_run("optimistic", n_threads)));
        let timing = telem_on || trace_run.is_some();
        let thread_records: Mutex<Vec<telemetry::ThreadRecord>> = Mutex::new(Vec::new());
        let live_handles = crate::live::LiveHandles::from_sim(&self.live, n_threads);

        // Move LP state into per-thread runtimes.
        let mut rts_per_thread: Vec<Vec<LpRt<L>>> = Vec::with_capacity(n_threads);
        {
            let mut lps: VecDeque<L> = std::mem::take(&mut self.lps).into();
            let mut metas: VecDeque<LpMeta> = std::mem::take(&mut self.meta).into();
            for r in &ranges {
                let mut v = Vec::with_capacity(r.len());
                for _ in r.clone() {
                    let lp = lps.pop_front().unwrap();
                    let meta = metas.pop_front().unwrap();
                    // The initial fence captures the pre-run state —
                    // including the tiebreak already advanced by any
                    // `schedule()` calls — so a rollback to index 0
                    // regenerates identical event keys.
                    let fence =
                        Snapshot { at: 0, lp: lp.clone(), tiebreak: meta.tiebreak, now: meta.now };
                    v.push(LpRt {
                        lp,
                        meta,
                        processed: VecDeque::new(),
                        snapshots: VecDeque::new(),
                        fence,
                        base: 0,
                    });
                }
                rts_per_thread.push(v);
            }
        }

        let outcomes: Vec<Mutex<Option<ThreadOutcome<L>>>> =
            (0..n_threads).map(|_| Mutex::new(None)).collect();

        thread::scope(|scope| {
            for (t, mut rts) in rts_per_thread.into_iter().enumerate() {
                let mut queue = std::mem::replace(&mut queues[t], qkind.new_queue());
                let ranges = &ranges;
                let mailboxes = &mailboxes;
                let in_flight = &in_flight;
                let busy_threads = &busy_threads;
                let barrier = &barrier;
                let mins = &mins;
                let outcomes = &outcomes;
                let thread_records = &thread_records;
                let trace_run = &trace_run;
                let live_handles = &live_handles;
                scope.spawn(move || {
                    let mut tbuf = trace_run.as_ref().map(|(tr, run)| tr.buf(*run, t as u32));
                    let mut tap = live_handles.as_ref().map(|h| h.tap(t));
                    // (committed-at-GVT, rolled, rollbacks, anti) already
                    // pushed into the live registry.
                    let mut live_flushed = [0u64; 4];
                    let base_lp = ranges[t].start;
                    let mut tombstones: HashSet<EventUid> = HashSet::new();
                    let mut scratch: Vec<Outgoing<L::Event>> = Vec::with_capacity(8);
                    let mut stats = LocalStats::default();
                    let mut antis: Vec<(u32, EventUid)> = Vec::new();
                    let mut locals: VecDeque<Msg<L::Event>> = VecDeque::new();
                    let mut routed: Vec<Envelope<L::Event>> = Vec::new();
                    let mut busy_ns = 0u64;
                    let mut blocked_ns = 0u64;
                    let mut mailbox_hw = 0u64;
                    #[allow(unused_assignments)] // always written before the loop breaks
                    let mut gvt = 0u64;

                    // Post a message: remote destinations go to the owner's
                    // mailbox (counted in `in_flight`); local destinations
                    // are queued for direct ingestion.
                    let post = |m: Msg<L::Event>, locals: &mut VecDeque<Msg<L::Event>>| {
                        let o = owner(ranges, m.dst());
                        if o == t {
                            locals.push_back(m);
                        } else {
                            in_flight.fetch_add(1, Ordering::SeqCst);
                            mailboxes[o].lock().push(m);
                        }
                    };

                    loop {
                        // ---- GVT epoch: drain to quiescence ----
                        loop {
                            while let Some(m) = locals.pop_front() {
                                ingest(
                                    m,
                                    base_lp,
                                    lookahead,
                                    &mut rts,
                                    &mut queue,
                                    &mut tombstones,
                                    &mut scratch,
                                    &mut stats,
                                    &mut antis,
                                    &mut tbuf,
                                );
                                for (dst, uid) in antis.drain(..) {
                                    stats.anti += 1;
                                    post(Msg::Anti { dst, uid }, &mut locals);
                                }
                            }
                            let msgs: Vec<Msg<L::Event>> =
                                std::mem::take(&mut *mailboxes[t].lock());
                            mailbox_hw = mailbox_hw.max(msgs.len() as u64);
                            in_flight.fetch_sub(msgs.len() as i64, Ordering::SeqCst);
                            for m in msgs {
                                ingest(
                                    m,
                                    base_lp,
                                    lookahead,
                                    &mut rts,
                                    &mut queue,
                                    &mut tombstones,
                                    &mut scratch,
                                    &mut stats,
                                    &mut antis,
                                    &mut tbuf,
                                );
                                for (dst, uid) in antis.drain(..) {
                                    stats.anti += 1;
                                    post(Msg::Anti { dst, uid }, &mut locals);
                                }
                            }
                            let busy = !locals.is_empty();
                            if busy {
                                busy_threads.fetch_add(1, Ordering::SeqCst);
                            }
                            let t0 = timing.then(std::time::Instant::now);
                            barrier.wait();
                            // Stable region: nothing mutates the counters
                            // between the two barriers, so every thread reads
                            // the same quiescence verdict.
                            let quiescent = in_flight.load(Ordering::SeqCst) == 0
                                && busy_threads.load(Ordering::SeqCst) == 0;
                            barrier.wait();
                            if let Some(t0) = t0 {
                                blocked_ns += t0.elapsed().as_nanos() as u64;
                                if let Some(b) = tbuf.as_mut() {
                                    b.end_span(SpanKind::Barrier, t0);
                                }
                            }
                            if busy {
                                busy_threads.fetch_sub(1, Ordering::SeqCst);
                            }
                            if quiescent {
                                break;
                            }
                        }

                        // ---- compute GVT ----
                        while let Some(uid) = queue.peek().map(|top| top.uid) {
                            if tombstones.remove(&uid) {
                                queue.pop();
                                stats.annihilated += 1;
                            } else {
                                break;
                            }
                        }
                        let local_min = queue.peek_time().map(|ts| ts.0).unwrap_or(u64::MAX);
                        mins[t].store(local_min, Ordering::SeqCst);
                        let t0 = timing.then(std::time::Instant::now);
                        barrier.wait();
                        gvt = mins.iter().map(|m| m.load(Ordering::SeqCst)).min().unwrap();
                        stats.epochs += 1;
                        if local_min != u64::MAX {
                            stats.gvt_lag_max =
                                stats.gvt_lag_max.max(local_min.saturating_sub(gvt));
                        }
                        // All threads computed the same GVT; the barrier at
                        // the top of the next epoch keeps phases aligned.
                        barrier.wait();
                        if let Some(t0) = t0 {
                            blocked_ns += t0.elapsed().as_nanos() as u64;
                            if let Some(b) = tbuf.as_mut() {
                                b.end_span(SpanKind::Gvt, t0);
                            }
                        }
                        if gvt == u64::MAX || gvt > until.0 {
                            break;
                        }

                        // ---- fossil collection ----
                        // Events below GVT are committed: retire their
                        // snapshots into the fence (the newest one at or
                        // below the keep point) and drop the processed log
                        // below it. Rollback targets are never below GVT,
                        // so the fence always covers them.
                        let fossil_t0 = tbuf.as_ref().map(|_| std::time::Instant::now());
                        let mut live_cum = 0u64;
                        for rt in rts.iter_mut() {
                            let mut i = rt.processed.len();
                            while i > 0 && rt.processed[i - 1].env.recv_time.0 >= gvt {
                                i -= 1;
                            }
                            // Events strictly below GVT are committed for
                            // good: `abs_keep` summed over LPs is this
                            // thread's exact, monotone committed count —
                            // what the live plane reports mid-run.
                            let abs_keep = rt.base + i as u64;
                            live_cum += abs_keep;
                            while rt.snapshots.front().map(|s| s.at <= abs_keep).unwrap_or(false) {
                                rt.fence = rt.snapshots.pop_front().unwrap();
                            }
                            while rt.base < rt.fence.at {
                                rt.processed.pop_front();
                                rt.base += 1;
                            }
                            debug_assert_eq!(rt.fence.at, rt.base);
                        }
                        if let (Some(b), Some(t0)) = (tbuf.as_mut(), fossil_t0) {
                            b.end_span(SpanKind::Fossil, t0);
                        }
                        // Live flush once per GVT epoch. Committed counts
                        // only events at or below GVT (monotone even under
                        // rollback); rollback/anti counters flush deltas.
                        if let Some(tp) = tap.as_mut() {
                            tp.commit(live_cum.saturating_sub(live_flushed[0]));
                            tp.roll_back(
                                stats.rolled - live_flushed[1],
                                stats.rollbacks - live_flushed[2],
                            );
                            tp.anti_message(stats.anti - live_flushed[3]);
                            live_flushed = [
                                live_cum.max(live_flushed[0]),
                                stats.rolled,
                                stats.rollbacks,
                                stats.anti,
                            ];
                            if t == 0 {
                                tp.round();
                                tp.gvt(gvt);
                            }
                            tp.lag(stats.gvt_lag_max);
                            tp.queue_depth(queue.len() as u64);
                            tp.flush();
                        }

                        // ---- speculative processing batch ----
                        let t0 = timing.then(std::time::Instant::now);
                        let mut processed_now = 0usize;
                        while processed_now < cfg.batch {
                            // Stragglers delivered by local sends first.
                            while let Some(m) = locals.pop_front() {
                                ingest(
                                    m,
                                    base_lp,
                                    lookahead,
                                    &mut rts,
                                    &mut queue,
                                    &mut tombstones,
                                    &mut scratch,
                                    &mut stats,
                                    &mut antis,
                                    &mut tbuf,
                                );
                                for (dst, uid) in antis.drain(..) {
                                    stats.anti += 1;
                                    post(Msg::Anti { dst, uid }, &mut locals);
                                }
                            }
                            let env = loop {
                                match queue.pop() {
                                    None => break None,
                                    Some(e) => {
                                        if tombstones.remove(&e.uid) {
                                            stats.annihilated += 1;
                                            continue;
                                        }
                                        break Some(e);
                                    }
                                }
                            };
                            let Some(env) = env else { break };
                            if env.recv_time > until {
                                queue.push(env);
                                break;
                            }
                            {
                                let rt = &mut rts[env.dst as usize - base_lp];
                                debug_assert!(
                                    rt.last_key().map(|k| k < env.key()).unwrap_or(true),
                                    "out-of-order speculative execution"
                                );
                                let count = rt.count();
                                // The fence acts as the previous snapshot
                                // when the deque is empty, keeping the
                                // snapshot cadence exact across fossils
                                // and deep rollbacks.
                                let due = match rt.snapshots.back() {
                                    None => count - rt.fence.at >= cfg.snapshot_interval,
                                    Some(s) => count - s.at >= cfg.snapshot_interval,
                                };
                                if due {
                                    rt.snapshots.push_back(Snapshot {
                                        at: count,
                                        lp: rt.lp.clone(),
                                        tiebreak: rt.meta.tiebreak,
                                        now: rt.meta.now,
                                    });
                                }
                                rt.meta.now = env.recv_time;
                                rt.meta.processed += 1;
                                let trace = tbuf.as_mut().map(|b| {
                                    (rt.lp.trace_kind(&env), b.event_start(), rt.meta.uid_seq)
                                });
                                let mut ctx = Ctx {
                                    now: env.recv_time,
                                    me: env.dst,
                                    lookahead,
                                    out: &mut scratch,
                                };
                                rt.lp.handle(&env, &mut ctx);
                                let mut sends = Vec::new();
                                seal_outgoing(
                                    env.dst,
                                    env.recv_time,
                                    &mut rt.meta,
                                    &mut scratch,
                                    |e| {
                                        sends.push(SentRecord { dst: e.dst, uid: e.uid });
                                        routed.push(e);
                                    },
                                );
                                if let (Some(b), Some((kind, t0, uid_lo))) = (tbuf.as_mut(), trace)
                                {
                                    let children = (rt.meta.uid_seq - uid_lo) as u32;
                                    b.record(&env, uid_lo, children, kind, t0);
                                }
                                rt.processed.push_back(Processed { env, sends });
                            }
                            // Route after releasing the LP borrow: local
                            // deliveries may roll back *other* local LPs.
                            for e in routed.drain(..) {
                                post(Msg::Event(e), &mut locals);
                            }
                            processed_now += 1;
                        }
                        if let Some(t0) = t0 {
                            busy_ns += t0.elapsed().as_nanos() as u64;
                        }
                    }

                    let committed: u64 = rts.iter().map(|rt| rt.meta.processed).sum();
                    if let Some(tp) = tap.as_mut() {
                        // At termination everything processed is committed;
                        // flush the remainder above the last fossil point.
                        tp.commit(committed.saturating_sub(live_flushed[0]));
                        tp.roll_back(
                            stats.rolled - live_flushed[1],
                            stats.rollbacks - live_flushed[2],
                        );
                        tp.anti_message(stats.anti - live_flushed[3]);
                        tp.lag(stats.gvt_lag_max);
                        tp.pool_high_water(queue.pool_stats().high_water);
                        tp.flush();
                    }
                    if let (Some((tr, _)), Some(b)) = (trace_run.as_ref(), tbuf) {
                        tr.submit(b);
                    }
                    if telem_on {
                        thread_records.lock().push(telemetry::ThreadRecord {
                            thread: t,
                            events: committed,
                            busy_ns,
                            blocked_ns,
                            idle_ns: 0,
                            mailbox_high_water: mailbox_hw,
                        });
                    }
                    let lps = rts
                        .into_iter()
                        .enumerate()
                        .map(|(i, rt)| (base_lp + i, rt.lp, rt.meta))
                        .collect();
                    let (queue_ops, queue_max_len) = (queue.ops(), queue.max_len());
                    let pool = queue.pool_stats();
                    let mut leftover: Vec<Envelope<L::Event>> = Vec::new();
                    queue.drain_to(&mut leftover);
                    leftover.retain(|e| {
                        let dead = tombstones.contains(&e.uid);
                        if dead {
                            stats.annihilated += 1;
                        }
                        !dead
                    });
                    *outcomes[t].lock() = Some(ThreadOutcome {
                        lps,
                        leftover,
                        stats,
                        committed,
                        final_gvt: gvt,
                        queue_ops,
                        queue_max_len,
                        pool,
                    });
                });
            }
        });

        // Reassemble LP state and leftover events.
        let mut lps: Vec<Option<L>> = (0..n_lps).map(|_| None).collect();
        let mut metas: Vec<LpMeta> = (0..n_lps).map(|_| LpMeta::new()).collect();
        let mut stats = RunStats::default();
        let mut speculative = 0u64;
        let mut max_gvt_lag = 0u64;
        let mut queue_telem = QueueTelemetry::empty(qkind);
        for oc in &outcomes {
            if let Some(oc) = oc.lock().take() {
                for (i, lp, meta) in oc.lps {
                    lps[i] = Some(lp);
                    metas[i] = meta;
                }
                for env in oc.leftover {
                    self.pending.push(env);
                }
                queue_telem.ops += oc.queue_ops;
                queue_telem.max_len = queue_telem.max_len.max(oc.queue_max_len);
                queue_telem.pool.merge(oc.pool);
                speculative += oc.committed;
                stats.rolled_back += oc.stats.rolled;
                stats.rollbacks += oc.stats.rollbacks;
                stats.anti_messages += oc.stats.anti;
                stats.annihilated += oc.stats.annihilated;
                stats.fence_restores += oc.stats.fence_restores;
                stats.rounds = stats.rounds.max(oc.stats.epochs);
                stats.end_time = stats.end_time.max(SimTime(oc.final_gvt.min(until.0)));
                max_gvt_lag = max_gvt_lag.max(oc.stats.gvt_lag_max);
            }
        }
        self.lps = lps.into_iter().map(|o| o.expect("missing LP after run")).collect();
        self.meta = metas;

        // `meta.processed` counts speculative executions (including
        // re-executions); committed work is the difference.
        stats.committed = speculative - stats.rolled_back;
        stats.wall_seconds = start.elapsed().as_secs_f64();
        if let Some((tr, run)) = trace_run {
            tr.close_run(run, (stats.wall_seconds * 1e9) as u64, stats.end_time.as_ns());
        }
        crate::engine::emit_sched_telemetry(
            self.telemetry.as_deref(),
            "optimistic",
            n_threads,
            &stats,
            max_gvt_lag,
            queue_telem,
            thread_records.into_inner(),
        );
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything() {
        for (n_lps, n_threads) in [(10, 3), (1, 4), (8, 8), (100, 7), (5, 1)] {
            let ranges = partition(n_lps, n_threads);
            let mut covered = 0;
            for (i, r) in ranges.iter().enumerate() {
                covered += r.len();
                for lp in r.clone() {
                    assert_eq!(owner(&ranges, lp), i);
                }
            }
            assert_eq!(covered, n_lps);
        }
    }
}
