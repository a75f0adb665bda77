//! Process-level sharding: one simulation across N OS processes.
//!
//! Each *shard* owns a subset of the LPs (chosen by the same
//! [`Partition`] bin-packer the in-process schedulers use, applied at
//! the shard level first and then again across each shard's worker
//! threads). Within a shard, the workers of [`Simulation::run_sharded`]
//! run `crate::parallel::round_loop` — the very function
//! [`Simulation::run_conservative_parallel`] runs — unchanged above the
//! transport, with two policies swapped in: workers exchange intra-shard
//! events through lock-free mailboxes, while cross-shard events are
//! buffered into per-peer outboxes (the *delivery* policy) and flushed
//! by a *leader* (the spawning thread) through a [`ShardTransport`]; and
//! the round's GVT comes from the leader's token fence (the *bound*
//! policy) instead of a local reduction.
//!
//! ## Distributed GVT
//!
//! The single-process barrier fence is replaced only at the top level:
//! between rounds, the leaders run a Mattern-style token reduction.
//! Shard 0 circulates a [`Token`] carrying the running minimum pending
//! timestamp and the Σ(sent − received) in-transit count; waves repeat
//! until the count is zero, at which point every cross-shard event has
//! been absorbed and the minimum is the true GVT, which shard 0
//! broadcasts. Mattern's white/red coloring collapses to an epoch tag
//! on event frames because no sends ever happen *during* a fence — a
//! frame tagged with a stale epoch is therefore a protocol violation
//! rather than a color to wait out, and the transport asserts it.
//!
//! ## Checkpoint/restart
//!
//! A fence is a consistent cut: nothing is in flight and every LP sits
//! at the fence GVT. On checkpoint rounds each worker serializes its
//! LPs and pending events (via a model-supplied [`ShardCodec`]), the
//! leaders funnel the per-shard sections to shard 0, and shard 0
//! writes one versioned, checksummed file atomically
//! ([`checkpoint`]). A restoring process rebuilds the simulation
//! exactly as the original launch did, then overwrites its owned LPs
//! and pending events from its section of the file.
//!
//! Determinism: the round/window structure *is* `crate::parallel`'s
//! (window ≤ the model's true minimum delay, enforced by the same hard
//! causality check in the shared per-event step), so for a fixed seed the
//! merged LP state is bit-identical to `run_sequential` for any shard
//! and thread count.

pub mod checkpoint;
pub mod transport;
pub mod wire;

pub use checkpoint::{ShardCodec, Snapshot, SnapshotMeta};
pub use transport::{
    loopback_mesh, EventCodec, Frame, LoopbackTransport, ShardTransport, TcpTransport, Token,
};

use crate::engine::{RunStats, Simulation};
use crate::event::Envelope;
use crate::lp::{Lp, LpMeta};
use crate::parallel::{round_loop, Bound, Delivery, Mailboxes, Rounds};
use crate::partition::{Assignment, Partition};
use crate::queue::EventQueue;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::Mutex;
use crate::time::{SimDuration, SimTime};
use crate::worker::{drive, Chunk, Lane, Run, Worker, MAILBOX_CHUNK};
use checkpoint::LpSnapshot;
use std::fmt;
use std::path::PathBuf;

/// Upper bound on events per `Frame::Events`: a burst window is shipped as
/// several bounded frames (serialized, sent and ingested incrementally)
/// rather than one giant allocation on both ends of the transport.
const MAX_FRAME_EVENTS: usize = 256;

/// Errors a sharded run can surface (transport failures, malformed
/// checkpoint files, protocol violations between shards).
#[derive(Debug)]
pub enum ShardError {
    Io(std::io::Error),
    /// Malformed bytes: bad frame, truncated or corrupt checkpoint.
    Format(String),
    /// The shards disagree about the protocol state (stale epoch,
    /// unexpected frame, mismatched mesh).
    Protocol(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard I/O error: {e}"),
            ShardError::Format(m) => write!(f, "shard format error: {m}"),
            ShardError::Protocol(m) => write!(f, "shard protocol error: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Periodic checkpointing: write the fence snapshot to `path` whenever
/// the GVT has advanced `every` past the previous checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    pub path: PathBuf,
    pub every: SimDuration,
}

/// Options for one [`Simulation::run_sharded`] call. Every shard of a
/// run must pass identical options (the harness launcher guarantees
/// this by re-execing the same argv).
pub struct ShardRun<'a, L: Lp> {
    /// Worker threads within this shard.
    pub threads: usize,
    /// Synchronization window (clamped up to the engine lookahead);
    /// must not exceed the model's true minimum send delay.
    pub window: SimDuration,
    /// Periodic checkpointing (requires `codec`).
    pub checkpoint: Option<CheckpointSpec>,
    /// Restore from this checkpoint file before running (requires
    /// `codec`).
    pub restore: Option<PathBuf>,
    /// Model state/payload codec; only needed for checkpoint/restore
    /// (the loopback transport passes events by value).
    pub codec: Option<&'a dyn ShardCodec<L>>,
    /// Called with the cut's GVT (ns) after each checkpoint round
    /// completes on this shard: on shard 0 once the file is durably on
    /// disk, on other shards once shard 0 acknowledged their section.
    /// The harness fault-injection hook lives here.
    pub on_checkpoint: Option<&'a (dyn Fn(u64) + Sync)>,
}

impl<'a, L: Lp> ShardRun<'a, L> {
    /// Plain sharded run: no checkpointing, no restore.
    pub fn new(threads: usize, window: SimDuration) -> Self {
        ShardRun {
            threads,
            window,
            checkpoint: None,
            restore: None,
            codec: None,
            on_checkpoint: None,
        }
    }
}

/// Which shard owns each LP: the same deterministic bin-packing of
/// partition blocks the in-process parallel scheduler uses, applied at
/// the shard level. `partition = None` means every LP is its own block.
pub fn shard_owner_map(partition: Option<&Partition>, n_lps: usize, n_shards: usize) -> Vec<u32> {
    Assignment::of(partition, n_lps, n_shards).owner_of
}

impl<L: Lp> Simulation<L> {
    /// Run this shard's slice of the simulation, coordinating with the
    /// other shards through `transport`. Every participating process
    /// must have built an identical simulation (same LPs, seeds,
    /// partition and initial events) and pass identical options; each
    /// keeps only the LPs the shard-level partition assigns to it.
    ///
    /// After the call returns, **only the owned LPs' state is
    /// meaningful** — foreign LPs still hold their initial state. The
    /// caller merges owned slices across shards (the harness does this
    /// with per-LP fingerprints; in-process tests adopt LP state from
    /// each shard's simulation).
    ///
    /// Panics on a lookahead violation (same hard causality check as
    /// [`Simulation::run_conservative_parallel`]); returns `Err` on
    /// transport or checkpoint failures.
    pub fn run_sharded(
        &mut self,
        transport: &mut dyn ShardTransport<L::Event>,
        opts: ShardRun<'_, L>,
        until: SimTime,
    ) -> Result<RunStats, ShardError> {
        let start = std::time::Instant::now();
        let me = transport.me();
        let n_shards = transport.n_shards();
        let n_lps = self.lps.len();
        let window = opts.window.max(self.lookahead);
        if (opts.checkpoint.is_some() || opts.restore.is_some()) && opts.codec.is_none() {
            return Err(ShardError::Protocol(
                "checkpoint/restore requires a ShardCodec for this model".to_string(),
            ));
        }
        // A single shard with no checkpoint/restore has no cross-process
        // protocol to run, so the in-process thread pool IS the whole
        // simulation — delegate to the barrier-free async scheduler
        // (bit-identical results, no token fences, work stealing; see
        // DESIGN.md §15) instead of spinning the shard rounds against
        // zero peers.
        if n_shards == 1 && opts.checkpoint.is_none() && opts.restore.is_none() {
            return Ok(self.run_conservative_async(opts.threads, window, until));
        }

        // Shard-level ownership, then worker-level ownership within the
        // owned slice (both from the same deterministic bin-packer).
        let shard_of = shard_owner_map(self.partition.as_ref(), n_lps, n_shards);
        let owned: Vec<u32> =
            (0..n_lps as u32).filter(|&g| shard_of[g as usize] == me as u32).collect();
        let n_threads = opts.threads.max(1).min(owned.len().max(1));
        let sub_blocks: Vec<u32> = owned
            .iter()
            .map(|&g| match &self.partition {
                Some(p) => p.block(g),
                None => g,
            })
            .collect();
        let tassign = Partition::from_blocks(sub_blocks).assign(n_threads);
        // The worker-level plan over global ids (u32::MAX = not ours).
        let mut plan = Assignment {
            owner_of: vec![u32::MAX; n_lps],
            local_of: vec![u32::MAX; n_lps],
            locals: tassign
                .locals
                .iter()
                .map(|ol| ol.iter().map(|&oi| owned[oi as usize]).collect())
                .collect(),
        };
        for (oi, &gid) in owned.iter().enumerate() {
            plan.owner_of[gid as usize] = tassign.owner_of[oi];
            plan.local_of[gid as usize] = tassign.local_of[oi];
        }
        let worker_of = &plan.owner_of;

        // Restore: overwrite owned LP state/meta and replace pending
        // events with this shard's section of the cut.
        let mut committed_base = 0u64;
        let mut initial: Vec<Envelope<L::Event>>;
        if let Some(path) = &opts.restore {
            let codec = opts.codec.unwrap();
            let bytes = checkpoint::read_file(path)?;
            let (meta, raw_sections) = checkpoint::parse_file(&bytes)?;
            if meta.n_shards as usize != n_shards {
                return Err(ShardError::Format(format!(
                    "checkpoint {} was taken with {} shards, cannot restore into {}: shard \
                     rebalancing from a checkpoint is not implemented yet (ROADMAP item 2) — \
                     relaunch with the original shard count (--sched shard:{}:T)",
                    path.display(),
                    meta.n_shards,
                    n_shards,
                    meta.n_shards
                )));
            }
            if meta.n_lps as usize != n_lps {
                return Err(ShardError::Format(format!(
                    "checkpoint covers {} LPs but the model has {}",
                    meta.n_lps, n_lps
                )));
            }
            committed_base = meta.committed;
            // The pre-run initial events are part of the history the
            // checkpoint already includes; drop them.
            drop(self.take_pending());
            let mine = raw_sections
                .iter()
                .map(|s| checkpoint::decode_section(s, codec.as_event_codec()))
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .find(|s| s.shard as usize == me)
                .ok_or_else(|| {
                    ShardError::Format(format!("checkpoint has no section for shard {me}"))
                })?;
            for snap in &mine.lps {
                let gid = snap.gid as usize;
                if gid >= n_lps || worker_of[gid] == u32::MAX {
                    return Err(ShardError::Format(format!(
                        "checkpoint LP {} is not owned by shard {me} (partition mismatch)",
                        snap.gid
                    )));
                }
                self.meta[gid] = LpMeta {
                    tiebreak: snap.tiebreak,
                    uid_seq: snap.uid_seq,
                    now: SimTime(snap.now_ns),
                    processed: snap.processed,
                };
                let mut r = wire::ByteReader::new(&snap.state);
                codec.load_lp(&mut self.lps[gid], &mut r)?;
            }
            initial = mine.events;
        } else {
            // Fresh start: every process built the full initial event
            // set identically.
            initial = self.take_pending();
        }
        // Keep only the owned destinations (a checkpoint section is
        // outside input: its ids are not trusted to be in range either).
        initial.retain(|env| worker_of.get(env.dst as usize).is_some_and(|&w| w != u32::MAX));

        let run = Run::open(self, "sharded-conservative", n_threads, window, start);
        let (workers, home) = run.scatter(self, &plan, initial);
        let rounds = Rounds::new(n_threads, n_threads + 1); // workers + leader
        let outboxes: Vec<Mutex<Vec<Envelope<L::Event>>>> =
            (0..n_shards).map(|_| Mutex::new(Vec::new())).collect();
        let fence = TokenFence {
            gvt: AtomicU64::new(0),
            ckpt: AtomicBool::new(false),
            committed: AtomicU64::new(0),
            parts: (0..n_threads).map(|_| Mutex::new(None)).collect(),
            codec: opts.codec,
        };
        let body = |w: &mut Worker<'_, L>| {
            let delivery = ShardOutbox {
                shard_of: &shard_of,
                me,
                within: Mailboxes { owner_of: worker_of, t: w.t },
                xchunks: (0..n_shards).map(|_| Vec::new()).collect(),
                outboxes: &outboxes,
            };
            round_loop(w, &rounds, &fence, delivery, &plan.local_of, window, until);
        };

        // The leader's side of each round, between the workers' barriers:
        // (B) mins published -> flush outboxes, token fence, publish
        // gvt/ckpt -> (C) -> checkpoint if due -> (A) window processed.
        // Returns the first transport/checkpoint error, if any.
        let leader = || -> Option<ShardError> {
            let ckpt_every = opts.checkpoint.as_ref().map(|c| c.every.as_ns().max(1));
            // A restored run resumes its checkpoint cadence from the cut:
            // 0 means "recompute from the first fence GVT".
            let mut next_ckpt = match ckpt_every {
                Some(_) if opts.restore.is_some() => 0,
                Some(every) => every,
                None => u64::MAX,
            };
            let mut fence_err: Option<ShardError> = None;
            let mut epoch = 0u64;
            let mut sent_total = 0u64;
            let mut recv_total = 0u64;
            // Next-epoch frames that raced ahead of a fence conclusion;
            // replayed by the next fence (see `token_fence`).
            let mut stash: Vec<(usize, Frame<L::Event>)> = Vec::new();
            // Fence arrivals, batched into one mailbox chunk per worker.
            let mut arrivals: Vec<Chunk<L::Event>> = (0..n_threads).map(|_| Vec::new()).collect();
            loop {
                rounds.barrier.wait(); // (B) worker mins published
                let fenced =
                    flush_outboxes(transport, &outboxes, epoch, &mut sent_total).and_then(|()| {
                        token_fence(
                            transport,
                            epoch,
                            // A halted (causality-violated or poisoned)
                            // shard's workers publish MAX, so it keeps
                            // fencing with min = MAX: the other shards can
                            // drain and terminate, and it re-raises the
                            // cause after the run winds down.
                            rounds.local_min(),
                            sent_total,
                            &mut recv_total,
                            fence.committed.load(Ordering::Relaxed) + committed_base,
                            &mut stash,
                            |env| {
                                let w = worker_of[env.dst as usize];
                                debug_assert_ne!(w, u32::MAX, "fence delivery for foreign LP");
                                arrivals[w as usize].push(env);
                            },
                        )
                    });
                let (gvt, global_committed) = match fenced {
                    Ok(v) => v,
                    Err(e) => {
                        // "Nothing pending anywhere" ends every worker's
                        // loop right after barrier (C).
                        fence.ckpt.store(false, Ordering::Release);
                        fence.gvt.store(u64::MAX, Ordering::Release);
                        rounds.barrier.wait(); // (C)
                        return Some(e);
                    }
                };
                for (w, chunk) in arrivals.iter_mut().enumerate() {
                    if !chunk.is_empty() {
                        run.mailboxes[w].push(std::mem::take(chunk));
                    }
                }
                let done = gvt == u64::MAX || gvt > until.0;
                if next_ckpt == 0 {
                    // First fence of a restored run: resume the cadence
                    // one interval past the restored cut.
                    next_ckpt = gvt.saturating_add(ckpt_every.unwrap_or(u64::MAX));
                }
                let do_ckpt = !done && gvt >= next_ckpt;
                fence.gvt.store(gvt, Ordering::Release);
                fence.ckpt.store(do_ckpt, Ordering::Release);
                rounds.barrier.wait(); // (C) gvt/ckpt published
                if do_ckpt {
                    rounds.barrier.wait(); // (C2) workers staged their parts
                    let spec = opts.checkpoint.as_ref().expect("checkpoint round without a spec");
                    let r = write_checkpoint(
                        transport,
                        spec,
                        opts.codec.expect("checked above").as_event_codec(),
                        &fence.parts,
                        &mut stash,
                        SnapshotMeta {
                            gvt_ns: gvt,
                            epoch,
                            n_shards: n_shards as u32,
                            n_lps: n_lps as u32,
                            committed: global_committed,
                        },
                    );
                    next_ckpt = gvt.saturating_add(spec.every.as_ns().max(1));
                    rounds.barrier.wait(); // (C3)
                    match r {
                        Ok(()) => {
                            if let Some(cb) = opts.on_checkpoint {
                                cb(gvt);
                            }
                        }
                        // Latch the error and let the run finish; the
                        // barrier discipline has already moved past the
                        // point where this round could stop cleanly.
                        Err(e) => fence_err = fence_err.or(Some(e)),
                    }
                }
                if done {
                    return fence_err;
                }
                epoch += 1;
                rounds.barrier.wait(); // (A) the window's sends are all buffered
            }
        };
        let (workers, fence_err) = drive(workers, body, leader);

        // Owned LP state goes back to its slots (foreign slots kept their
        // initial state), unprocessed events are reabsorbed for a later
        // leg, and a latched violation or model panic is re-raised.
        let stats = run.gather(self, workers, home);
        match fence_err {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }
}

/// The cross-process bound policy: the leader runs the token fence
/// between barriers (B) and (C) and publishes its outcome here.
struct TokenFence<'a, L: Lp> {
    /// The fence's GVT; `u64::MAX` doubles as "stop" (drained, or the
    /// fence failed).
    gvt: AtomicU64,
    /// This round is a checkpoint cut.
    ckpt: AtomicBool,
    /// Events committed by this shard's workers so far. Added to before
    /// a round's closing barrier, so it is exact at the next fence — the
    /// checkpoint metadata needs the committed count at the cut.
    committed: AtomicU64,
    parts: Vec<CkptPart<L::Event>>,
    codec: Option<&'a dyn ShardCodec<L>>,
}

impl<L: Lp> Bound<L> for TokenFence<'_, L> {
    fn gvt(&self, w: &mut Worker<'_, L>, rounds: &Rounds) -> u64 {
        w.wait(&rounds.barrier); // (C) gvt/ckpt published
        w.lane.ingest(w.t); // cross-shard fence arrivals
        if self.ckpt.load(Ordering::Acquire) {
            // The cut hook: serialize this worker's slice of the cut.
            let codec = self.codec.expect("checkpoint round without a codec");
            let snaps = (w.gids.iter().zip(&w.lps).zip(&w.metas))
                .map(|((&gid, lp), m)| {
                    let mut state = Vec::new();
                    codec.save_lp(lp.as_ref().expect("resident LP state"), &mut state);
                    LpSnapshot {
                        gid,
                        tiebreak: m.tiebreak,
                        uid_seq: m.uid_seq,
                        now_ns: m.now.0,
                        processed: m.processed,
                        state,
                    }
                })
                .collect();
            let mut evs: Vec<Envelope<L::Event>> = Vec::new();
            w.lane.queue.drain_to(&mut evs);
            for env in &evs {
                w.lane.queue.push(env.clone());
            }
            *self.parts[w.t].lock() = Some((snaps, evs));
            w.wait(&rounds.barrier); // (C2) parts staged
            w.wait(&rounds.barrier); // (C3) leader wrote/acked
        }
        self.gvt.load(Ordering::Acquire)
    }

    fn committed(&self, n: u64) {
        self.committed.fetch_add(n, Ordering::Relaxed);
    }
}

/// The cross-process delivery policy: events for another shard go to that
/// shard's outbox, everything else through the in-process policy.
struct ShardOutbox<'a, E> {
    shard_of: &'a [u32],
    me: usize,
    within: Mailboxes<'a>,
    /// Per-destination-shard chunk buffers: cross-shard sends take the
    /// outbox lock once per chunk, not once per event (`append` leaves
    /// the buffer empty with its capacity intact, so this allocates
    /// nothing in steady state).
    xchunks: Vec<Vec<Envelope<E>>>,
    outboxes: &'a [Mutex<Vec<Envelope<E>>>],
}

impl<E> Delivery<E> for ShardOutbox<'_, E> {
    #[inline]
    fn route(&mut self, lane: &mut Lane<'_, E>, new: Envelope<E>) {
        let s = self.shard_of[new.dst as usize] as usize;
        if s != self.me {
            lane.cross += 1;
            let c = &mut self.xchunks[s];
            c.push(new);
            if c.len() >= MAILBOX_CHUNK {
                self.outboxes[s].lock().append(c);
            }
        } else {
            self.within.route(lane, new);
        }
    }

    /// The leader reads the outboxes after barrier (B) of the next round,
    /// so nothing may linger in worker locals.
    fn flush(&mut self) {
        for (s, c) in self.xchunks.iter_mut().enumerate() {
            if !c.is_empty() {
                self.outboxes[s].lock().append(c);
            }
        }
    }
}

/// Ship the previous window's cross-shard sends. A burst window goes out
/// as several bounded `Events` frames instead of one giant serialization
/// — the fence stashes and classifies each individually, so multiple
/// frames per epoch are already handled.
fn flush_outboxes<E: Clone + Send>(
    transport: &mut dyn ShardTransport<E>,
    outboxes: &[Mutex<Vec<Envelope<E>>>],
    epoch: u64,
    sent_total: &mut u64,
) -> Result<(), ShardError> {
    let me = transport.me();
    for (s, ob) in outboxes.iter().enumerate() {
        if s == me {
            continue;
        }
        let mut batch = std::mem::take(&mut *ob.lock());
        *sent_total += batch.len() as u64;
        while !batch.is_empty() {
            let rest = if batch.len() > MAX_FRAME_EVENTS {
                batch.split_off(MAX_FRAME_EVENTS)
            } else {
                Vec::new()
            };
            let chunk = std::mem::replace(&mut batch, rest);
            transport.send(s, Frame::Events { epoch, batch: chunk })?;
        }
    }
    Ok(())
}

/// One worker's staged checkpoint contribution: snapshots of its owned
/// LPs plus their pending events, parked for the leader to assemble.
type CkptPart<E> = Mutex<Option<(Vec<LpSnapshot>, Vec<Envelope<E>>)>>;

/// Assemble this shard's checkpoint section from the staged worker
/// parts and get it onto disk: shard 0 collects every section and
/// writes the file atomically; other shards send their section as a
/// [`Frame::Blob`] and block for the [`Frame::CkptDone`] ack. Runs in
/// the quiescent interval after a fence, so the only frames legal on
/// the wire are blobs and acks.
fn write_checkpoint<E: Clone + Send>(
    transport: &mut dyn ShardTransport<E>,
    spec: &CheckpointSpec,
    codec: &dyn EventCodec<E>,
    parts: &[CkptPart<E>],
    stash: &mut Vec<(usize, Frame<E>)>,
    meta: SnapshotMeta,
) -> Result<(), ShardError> {
    let me = transport.me();
    let n = transport.n_shards();
    let mut lps = Vec::new();
    let mut events = Vec::new();
    for p in parts {
        let (l, e) = p.lock().take().expect("worker did not stage checkpoint part");
        lps.extend(l);
        events.extend(e);
    }
    // Canonical order: identical cuts produce identical bytes.
    lps.sort_by_key(|s| s.gid);
    events.sort();
    let section = checkpoint::ShardSection { shard: me as u32, lps, events };
    let bytes = checkpoint::encode_section(&section, codec);

    if me == 0 {
        let mut sections: Vec<Option<Vec<u8>>> = (0..n).map(|_| None).collect();
        sections[0] = Some(bytes);
        for _ in 1..n {
            match transport.recv()? {
                (from, Frame::Blob(b)) => {
                    if from >= n || sections[from].is_some() {
                        return Err(ShardError::Protocol(format!(
                            "duplicate checkpoint section from shard {from}"
                        )));
                    }
                    sections[from] = Some(b);
                }
                (from, other) => {
                    return Err(ShardError::Protocol(format!(
                        "expected checkpoint blob from shard {from}, got {other:?}"
                    )));
                }
            }
        }
        let sections: Vec<Vec<u8>> = sections.into_iter().map(|s| s.unwrap()).collect();
        let file = checkpoint::assemble_file(&meta, &sections);
        let write = checkpoint::write_atomic(&spec.path, &file);
        let ok = write.is_ok();
        for j in 1..n {
            transport.send(j, Frame::CkptDone { ok })?;
        }
        write.map_err(ShardError::Io)
    } else {
        transport.send(0, Frame::Blob(bytes))?;
        loop {
            match transport.recv()? {
                (0, Frame::CkptDone { ok: true }) => return Ok(()),
                (0, Frame::CkptDone { ok: false }) => {
                    return Err(ShardError::Io(std::io::Error::other(
                        "shard 0 failed to write checkpoint",
                    )));
                }
                // A peer that already got its ack can race into the
                // next round and send us next-epoch traffic before our
                // own ack is dequeued; stash it for the next fence.
                (from, Frame::Events { epoch, batch }) => {
                    if classify_epoch(epoch, meta.epoch)? {
                        return Err(ShardError::Protocol(format!(
                            "current-epoch events from shard {from} while awaiting checkpoint ack"
                        )));
                    }
                    stash.push((from, Frame::Events { epoch, batch }));
                }
                (from, Frame::Token(t)) => {
                    if classify_epoch(t.epoch, meta.epoch)? {
                        return Err(ShardError::Protocol(format!(
                            "current-epoch token from shard {from} while awaiting checkpoint ack"
                        )));
                    }
                    stash.push((from, Frame::Token(t)));
                }
                (from, other) => {
                    return Err(ShardError::Protocol(format!(
                        "expected checkpoint ack from shard 0, got {other:?} from {from}"
                    )));
                }
            }
        }
    }
}

/// Frame epoch relative to the fence in progress.
fn classify_epoch(frame_epoch: u64, fence_epoch: u64) -> Result<bool, ShardError> {
    if frame_epoch == fence_epoch {
        Ok(true)
    } else if frame_epoch == fence_epoch + 1 {
        // Causally legal early arrival: a peer can only be one round
        // ahead, and only after this fence's outcome (the Gvt broadcast
        // or the checkpoint ack) was already issued — our copy just has
        // not been dequeued yet. Stash it for the next fence.
        Ok(false)
    } else {
        Err(ShardError::Protocol(format!(
            "frame from epoch {frame_epoch} arrived during fence of epoch {fence_epoch}"
        )))
    }
}

/// One Mattern-style token fence. Returns the agreed GVT and (on
/// shard 0 only) the global committed-event count; other shards get 0
/// for the count. Events arriving during the fence are delivered
/// through `deliver` and folded into the local minimum. `stash` holds
/// next-epoch frames that raced ahead of this fence's conclusion; they
/// are replayed at the start of the next fence.
#[allow(clippy::too_many_arguments)]
fn token_fence<E: Clone + Send>(
    transport: &mut dyn ShardTransport<E>,
    epoch: u64,
    mut local_min: u64,
    sent_total: u64,
    recv_total: &mut u64,
    local_committed: u64,
    stash: &mut Vec<(usize, Frame<E>)>,
    mut deliver: impl FnMut(Envelope<E>),
) -> Result<(u64, u64), ShardError> {
    let me = transport.me();
    let n = transport.n_shards();
    if n == 1 {
        return Ok((local_min, local_committed));
    }
    // Frames stashed during the previous fence all belong to this one.
    let mut replay: std::collections::VecDeque<(usize, Frame<E>)> = std::mem::take(stash).into();
    let mut absorb = |batch: Vec<Envelope<E>>, local_min: &mut u64, recv_total: &mut u64| {
        for env in batch {
            *local_min = (*local_min).min(env.recv_time.0);
            *recv_total += 1;
            deliver(env);
        }
    };

    if me == 0 {
        let mut wave = 0u32;
        loop {
            transport.send(
                1,
                Frame::Token(Token {
                    min: local_min,
                    in_flight: sent_total as i64 - *recv_total as i64,
                    committed: local_committed,
                    wave,
                    epoch,
                }),
            )?;
            let complete = loop {
                let (from, frame) = match replay.pop_front() {
                    Some(f) => f,
                    None => transport.recv()?,
                };
                match frame {
                    Frame::Events { epoch: e, batch } => {
                        if classify_epoch(e, epoch)? {
                            absorb(batch, &mut local_min, recv_total);
                        } else {
                            stash.push((from, Frame::Events { epoch: e, batch }));
                        }
                    }
                    Frame::Token(t) => {
                        if !classify_epoch(t.epoch, epoch)? {
                            stash.push((from, Frame::Token(t)));
                            continue;
                        }
                        // in_flight == 0 means every shard had absorbed
                        // everything sent before its token visit, so
                        // t.min is complete. Otherwise retry the wave
                        // with refreshed counters.
                        break if t.in_flight == 0 { Some(t) } else { None };
                    }
                    other => {
                        return Err(ShardError::Protocol(format!(
                            "unexpected {other:?} from shard {from} during fence"
                        )));
                    }
                }
            };
            match complete {
                Some(t) => {
                    for j in 1..n {
                        transport.send(j, Frame::Gvt { gvt: t.min })?;
                    }
                    return Ok((t.min, t.committed));
                }
                None => wave += 1,
            }
        }
    } else {
        loop {
            let (from, frame) = match replay.pop_front() {
                Some(f) => f,
                None => transport.recv()?,
            };
            match frame {
                Frame::Events { epoch: e, batch } => {
                    if classify_epoch(e, epoch)? {
                        absorb(batch, &mut local_min, recv_total);
                    } else {
                        stash.push((from, Frame::Events { epoch: e, batch }));
                    }
                }
                Frame::Token(mut t) => {
                    if !classify_epoch(t.epoch, epoch)? {
                        stash.push((from, Frame::Token(t)));
                        continue;
                    }
                    t.min = t.min.min(local_min);
                    t.in_flight += sent_total as i64 - *recv_total as i64;
                    t.committed += local_committed;
                    transport.send((me + 1) % n, Frame::Token(t))?;
                }
                // A Gvt can only belong to the fence in progress: the
                // next one requires the token to visit us first.
                Frame::Gvt { gvt } => return Ok((gvt, 0)),
                other => {
                    return Err(ShardError::Protocol(format!(
                        "unexpected {other:?} from shard {from} during fence"
                    )));
                }
            }
        }
    }
}

impl<L: Lp> dyn ShardCodec<L> + '_ {
    /// Upcast to the event-payload half of the codec.
    pub fn as_event_codec(&self) -> &dyn EventCodec<L::Event> {
        self
    }
}

// Real multi-thread runs — production cfg only (the checked-build twin
// lives in `tests/union_check_oracle.rs`).
#[cfg(all(test, not(union_check)))]
mod tests;
