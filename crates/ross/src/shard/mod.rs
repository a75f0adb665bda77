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
//! Determinism: the round/window structure *is* `crate::parallel`'s
//! (window ≤ the model's true minimum delay, enforced by the same hard
//! causality check in the shared per-event step), so for a fixed seed the
//! merged LP state is bit-identical to `run_sequential` for any shard
//! and thread count.

pub mod transport;
pub mod wire;

pub use transport::{
    loopback_mesh, EventCodec, Frame, LoopbackTransport, ShardTransport, TcpTransport, Token,
};

use crate::engine::{RunStats, Simulation};
use crate::event::Envelope;
use crate::lp::Lp;
use crate::parallel::{round_loop, Bound, Delivery, Mailboxes, Rounds};
use crate::partition::{Assignment, Partition};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use crate::time::{SimDuration, SimTime};
use crate::worker::{drive, Chunk, Lane, Run, Worker, MAILBOX_CHUNK};
use std::collections::VecDeque;
use std::fmt;

/// Upper bound on events per `Frame::Events`: a burst window is shipped as
/// several bounded frames (serialized, sent and ingested incrementally)
/// rather than one giant allocation on both ends of the transport.
const MAX_FRAME_EVENTS: usize = 256;

/// Errors a sharded run can surface (transport failures, malformed
/// frames, protocol violations between shards).
#[derive(Debug)]
pub enum ShardError {
    Io(std::io::Error),
    /// Malformed bytes on the wire.
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

/// Which shard owns each LP: the same deterministic bin-packing of
/// partition blocks the in-process parallel scheduler uses, applied at
/// the shard level. `partition = None` means every LP is its own block.
pub fn shard_owner_map(partition: Option<&Partition>, n_lps: usize, n_shards: usize) -> Vec<u32> {
    Assignment::of(partition, n_lps, n_shards).owner_of
}

impl<L: Lp> Simulation<L> {
    /// Run this shard's slice of the simulation on `threads` workers,
    /// coordinating with the other shards through `transport`. Every
    /// participating process must have built an identical simulation
    /// (same LPs, seeds, partition and initial events) and pass the same
    /// `threads`, `window` (clamped up to the engine lookahead; must not
    /// exceed the model's true minimum send delay) and `until`; each
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
    /// transport failures.
    pub fn run_sharded(
        &mut self,
        transport: &mut dyn ShardTransport<L::Event>,
        threads: usize,
        window: SimDuration,
        until: SimTime,
    ) -> Result<RunStats, ShardError> {
        let start = std::time::Instant::now();
        let me = transport.me();
        let n_shards = transport.n_shards();
        let n_lps = self.lps.len();
        let window = window.max(self.lookahead);
        // A single shard has no cross-process protocol to run, so the
        // in-process thread pool IS the whole simulation — delegate to
        // the barrier-free async scheduler (bit-identical results, no
        // token fences, work stealing; see DESIGN.md §15) instead of
        // spinning the shard rounds against zero peers.
        if n_shards == 1 {
            return Ok(self.run_conservative_async(threads, window, until));
        }

        // Shard-level ownership, then worker-level ownership within the
        // owned slice (both from the same deterministic bin-packer).
        let shard_of = shard_owner_map(self.partition.as_ref(), n_lps, n_shards);
        let owned: Vec<u32> =
            (0..n_lps as u32).filter(|&g| shard_of[g as usize] == me as u32).collect();
        let n_threads = threads.max(1).min(owned.len().max(1));
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

        // Every process built the full initial event set identically; the
        // scatter keeps only the owned destinations.
        let run = Run::open(self, "sharded-conservative", n_threads, window, start);
        let (workers, home) = run.scatter(self, &plan);
        let rounds = Rounds::new(n_threads, n_threads + 1); // workers + leader
        let outboxes: Vec<Mutex<Vec<Envelope<L::Event>>>> =
            (0..n_shards).map(|_| Mutex::new(Vec::new())).collect();
        let fence = TokenFence { gvt: AtomicU64::new(0) };
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
        // (B) mins published -> flush outboxes, token fence, publish gvt
        // -> (C) -> (A) window processed. Returns the transport error that
        // stopped the fence, if any.
        let leader = || -> Result<(), ShardError> {
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
                            &mut stash,
                            |env| {
                                let w = worker_of[env.dst as usize];
                                debug_assert_ne!(w, u32::MAX, "fence delivery for foreign LP");
                                arrivals[w as usize].push(env);
                            },
                        )
                    });
                let gvt = match fenced {
                    Ok(gvt) => gvt,
                    Err(e) => {
                        // "Nothing pending anywhere" ends every worker's
                        // loop right after barrier (C).
                        fence.gvt.store(u64::MAX, Ordering::Release);
                        rounds.barrier.wait(); // (C)
                        return Err(e);
                    }
                };
                for (w, chunk) in arrivals.iter_mut().enumerate() {
                    if !chunk.is_empty() {
                        run.mailboxes[w].push(std::mem::take(chunk));
                    }
                }
                fence.gvt.store(gvt, Ordering::Release);
                rounds.barrier.wait(); // (C) gvt published
                if gvt == u64::MAX || gvt > until.0 {
                    return Ok(());
                }
                epoch += 1;
                rounds.barrier.wait(); // (A) the window's sends are all buffered
            }
        };
        let (workers, fenced) = drive(workers, body, leader);

        // Owned LP state goes back to its slots (foreign slots kept their
        // initial state), unprocessed events are reabsorbed for a later
        // leg, and a latched violation or model panic is re-raised.
        let stats = run.gather(self, workers, home);
        fenced.map(|()| stats)
    }
}

/// The cross-process bound policy: the leader runs the token fence
/// between barriers (B) and (C) and publishes its GVT here.
struct TokenFence {
    /// The fence's GVT; `u64::MAX` doubles as "stop" (drained, or the
    /// fence failed).
    gvt: AtomicU64,
}

impl<L: Lp> Bound<L> for TokenFence {
    fn gvt(&self, w: &mut Worker<'_, L>, rounds: &Rounds) -> u64 {
        w.wait(&rounds.barrier); // (C) gvt published
        w.lane.ingest(w.t); // cross-shard fence arrivals
        self.gvt.load(Ordering::Acquire)
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

/// Frame epoch relative to the fence in progress.
fn classify_epoch(frame_epoch: u64, fence_epoch: u64) -> Result<bool, ShardError> {
    if frame_epoch == fence_epoch {
        Ok(true)
    } else if frame_epoch == fence_epoch + 1 {
        // Causally legal early arrival: a peer can only be one round
        // ahead, and only after this fence's outcome (the Gvt broadcast)
        // was already issued — our copy just has not been dequeued yet.
        // Stash it for the next fence.
        Ok(false)
    } else {
        Err(ShardError::Protocol(format!(
            "frame from epoch {frame_epoch} arrived during fence of epoch {fence_epoch}"
        )))
    }
}

/// The receiving side of one fence, shared by both ring roles.
struct FenceInbox<'a, E, D> {
    epoch: u64,
    /// Frames stashed during the previous fence; they all belong to this
    /// one and are consumed before the transport is read.
    replay: VecDeque<(usize, Frame<E>)>,
    /// Next-epoch frames that raced ahead of this fence's conclusion.
    stash: &'a mut Vec<(usize, Frame<E>)>,
    /// The local minimum, folded with every absorbed event.
    min: u64,
    recv_total: &'a mut u64,
    deliver: D,
}

impl<E: Clone + Send, D: FnMut(Envelope<E>)> FenceInbox<'_, E, D> {
    /// Absorb this fence's events and stash next-epoch frames until the
    /// first current-epoch `Token` or `Gvt`, which is returned.
    fn next(
        &mut self,
        transport: &mut dyn ShardTransport<E>,
    ) -> Result<(usize, Frame<E>), ShardError> {
        loop {
            let (from, frame) = match self.replay.pop_front() {
                Some(f) => f,
                None => transport.recv()?,
            };
            let frame_epoch = match &frame {
                Frame::Events { epoch, .. } => *epoch,
                Frame::Token(t) => t.epoch,
                // A Gvt can only belong to the fence in progress: the
                // next one requires the token to visit us first.
                Frame::Gvt { .. } => self.epoch,
            };
            if !classify_epoch(frame_epoch, self.epoch)? {
                self.stash.push((from, frame));
                continue;
            }
            match frame {
                Frame::Events { batch, .. } => {
                    for env in batch {
                        self.min = self.min.min(env.recv_time.0);
                        *self.recv_total += 1;
                        (self.deliver)(env);
                    }
                }
                frame => return Ok((from, frame)),
            }
        }
    }
}

/// One Mattern-style token fence over two or more shards. Returns the
/// agreed GVT. Events arriving during the fence are delivered through
/// `deliver` and folded into the local minimum. `stash` holds next-epoch
/// frames that raced ahead of this fence's conclusion; they are replayed
/// at the start of the next fence.
fn token_fence<E: Clone + Send>(
    transport: &mut dyn ShardTransport<E>,
    epoch: u64,
    local_min: u64,
    sent_total: u64,
    recv_total: &mut u64,
    stash: &mut Vec<(usize, Frame<E>)>,
    deliver: impl FnMut(Envelope<E>),
) -> Result<u64, ShardError> {
    let me = transport.me();
    let n = transport.n_shards();
    let replay = std::mem::take(stash).into();
    let mut inbox = FenceInbox { epoch, replay, stash, min: local_min, recv_total, deliver };
    let unexpected = |from: usize, frame: Frame<E>| {
        ShardError::Protocol(format!("unexpected {frame:?} from shard {from} during fence"))
    };

    if me == 0 {
        let mut wave = 0u32;
        loop {
            let in_flight = sent_total as i64 - *inbox.recv_total as i64;
            transport.send(1, Frame::Token(Token { min: inbox.min, in_flight, wave, epoch }))?;
            match inbox.next(transport)? {
                // in_flight == 0 means every shard had absorbed
                // everything sent before its token visit, so t.min is
                // complete.
                (_, Frame::Token(t)) if t.in_flight == 0 => {
                    for j in 1..n {
                        transport.send(j, Frame::Gvt { gvt: t.min })?;
                    }
                    return Ok(t.min);
                }
                // Otherwise retry the wave with refreshed counters.
                (_, Frame::Token(_)) => wave += 1,
                (from, other) => return Err(unexpected(from, other)),
            }
        }
    } else {
        loop {
            match inbox.next(transport)? {
                (_, Frame::Token(mut t)) => {
                    t.min = t.min.min(inbox.min);
                    t.in_flight += sent_total as i64 - *inbox.recv_total as i64;
                    transport.send((me + 1) % n, Frame::Token(t))?;
                }
                (_, Frame::Gvt { gvt }) => return Ok(gvt),
                (from, other) => return Err(unexpected(from, other)),
            }
        }
    }
}

// Real multi-thread runs — production cfg only (the checked-build twin
// lives in `tests/union_check_oracle.rs`).
#[cfg(all(test, not(union_check)))]
mod tests;
