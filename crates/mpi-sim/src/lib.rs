//! # mpi-sim
//!
//! MPI point-to-point and collective semantics over a simulated network —
//! the CODES-side "workload module" that executes `UNION_MPI_X`
//! operations.
//!
//! Each rank is an [`MpiRank`]: it pulls operations from its Union skeleton
//! VM, expands collectives into point-to-point schedules
//! ([`collectives`]), and drives an eager/rendezvous transfer protocol:
//!
//! * payloads ≤ the eager threshold go straight out; the send request
//!   completes when the NIC finishes injecting;
//! * larger payloads send a small RTS; the receiver answers CTS when a
//!   matching receive is posted; the data follows, and the send request
//!   completes when the data leaves the NIC.
//!
//! The host (crate `codes`) owns time and the network: it feeds arriving
//! messages and NIC/compute completions in, and carries [`Action`]s out.
//! `MpiRank` is plain owned state (`Clone`, no shared handles), so its
//! behaviour depends only on the events it has been fed — the determinism
//! every scheduler relies on.

pub mod collectives;

use metricsx::{CommTimer, LatencyRecorder};
use std::collections::VecDeque;
use union_core::{MpiOp, OpSource};

// The metrics crate is named `metrics`; alias locally to avoid a name
// clash with this module path in doc links.
use metrics as metricsx;

/// On-the-wire message classes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgKind {
    /// Payload sent without a handshake.
    Eager,
    /// Rendezvous request-to-send (control).
    Rts,
    /// Rendezvous clear-to-send (control).
    Cts,
    /// Rendezvous payload.
    Data,
    /// One-sided synthetic traffic (no matching).
    Synthetic,
}

/// A rank-to-rank message (job-local rank numbering). The host maps ranks
/// to nodes and moves the bytes.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MpiMsg {
    pub src: u32,
    pub dst: u32,
    pub tag: u32,
    /// Sender-unique id; pairs RTS/CTS/Data and tracks NIC injection.
    pub seq: u64,
    pub kind: MsgKind,
    /// Logical payload size (what the application asked to move).
    pub payload: u64,
    /// Bytes that actually cross the network for this message.
    pub wire: u64,
    /// Virtual time (ns) the *original* send was issued — the latency
    /// metric origin, preserved across the rendezvous handshake.
    pub created_ns: u64,
}

/// Size of RTS/CTS control messages on the wire.
pub const CTRL_WIRE_BYTES: u64 = 16;

/// Default eager/rendezvous threshold in bytes (a typical MPI default):
/// payloads up to this size go out eagerly, larger ones rendezvous.
pub const EAGER_MAX: u64 = 16 * 1024;

/// What the host must do on behalf of the rank.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Action {
    /// Hand a message to the NIC.
    Send(MpiMsg),
    /// Model local computation: call `on_compute_done` after `ns`.
    Compute { ns: u64 },
}

#[derive(Clone, Debug, PartialEq)]
enum State {
    Ready,
    Blocked(Vec<u64>),
    Computing,
    Done,
    /// The wire protocol was violated (e.g. a CTS for a rendezvous this
    /// rank never started). The rank stops making progress and the host
    /// surfaces [`MpiRank::protocol_error`] as a simulation failure —
    /// a malformed or duplicated message must not abort the whole
    /// process with a panic.
    Failed,
}

#[derive(Clone, Copy, Debug)]
struct Posted {
    src: u32,
    tag: u32,
    req: u64,
}

#[derive(Clone, Copy, Debug)]
enum UnexKind {
    Eager,
    Rts { seq: u64 },
}

#[derive(Clone, Copy, Debug)]
struct Unexpected {
    src: u32,
    tag: u32,
    kind: UnexKind,
}

#[derive(Clone, Copy, Debug)]
struct RdvOut {
    dst: u32,
    tag: u32,
    payload: u64,
    req: u64,
    created_ns: u64,
}

/// MPI engine for one rank.
#[derive(Clone)]
pub struct MpiRank {
    src: OpSource,
    n: u32,
    rank: u32,
    /// Expanded collective ops waiting to run before the VM resumes.
    queue: VecDeque<MpiOp>,
    state: State,
    outstanding: Vec<u64>,
    req_seq: u64,
    msg_seq: u64,
    coll_seq: u32,
    eager_max: u64,
    posted: Vec<Posted>,
    unexpected: Vec<Unexpected>,
    /// Matched inbound rendezvous: (src, seq) → recv request.
    rdv_in: Vec<((u32, u64), u64)>,
    /// Outbound rendezvous awaiting CTS, by seq.
    rdv_out: Vec<(u64, RdvOut)>,
    /// Send requests completing when the NIC finishes msg `seq`.
    inject_wait: Vec<(u64, u64)>,
    /// Metrics.
    pub comm: CommTimer,
    pub latency: LatencyRecorder,
    pub bytes_sent: u64,
    /// Tag-epoch fences injected at `SEQ_MASK` wrap boundaries.
    pub coll_fences: u64,
    pub finished_at_ns: Option<u64>,
    pub ops_executed: u64,
    /// First protocol violation observed, if any (see `State::Failed`).
    protocol_error: Option<String>,
}

// `MpiRank` rides inside node LPs that the parallel schedulers move
// between worker threads — it must stay `Send`.
const _: () = {
    const fn require_send<T: Send>() {}
    require_send::<MpiRank>();
};

impl MpiRank {
    /// Wrap an op source (a Union skeleton VM or a trace cursor).
    /// `eager_max` is the eager/rendezvous threshold in bytes (see
    /// [`EAGER_MAX`]).
    pub fn new(src: impl Into<OpSource>, eager_max: u64) -> MpiRank {
        let src = src.into();
        let n = src.num_tasks();
        let rank = src.rank();
        MpiRank {
            src,
            n,
            rank,
            queue: VecDeque::new(),
            state: State::Ready,
            outstanding: Vec::new(),
            req_seq: 0,
            msg_seq: 0,
            coll_seq: 0,
            eager_max,
            posted: Vec::new(),
            unexpected: Vec::new(),
            rdv_in: Vec::new(),
            rdv_out: Vec::new(),
            inject_wait: Vec::new(),
            comm: CommTimer::default(),
            latency: LatencyRecorder::default(),
            bytes_sent: 0,
            coll_fences: 0,
            finished_at_ns: None,
            ops_executed: 0,
            protocol_error: None,
        }
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// True when the rank stopped on a wire-protocol violation.
    pub fn is_failed(&self) -> bool {
        self.state == State::Failed
    }

    /// The protocol violation that failed this rank, if any.
    pub fn protocol_error(&self) -> Option<&str> {
        self.protocol_error.as_deref()
    }

    /// Coarse state label ("ready", "blocked", "computing", "done") for
    /// diagnostics and trace track names.
    pub fn state_label(&self) -> &'static str {
        match self.state {
            State::Ready => "ready",
            State::Blocked(_) => "blocked",
            State::Computing => "computing",
            State::Done => "done",
            State::Failed => "failed",
        }
    }

    /// One-line description for trace tracks, e.g. `"rank 3/64 · done"`.
    /// A rank still `blocked` after a bounded run is the first place to
    /// look when a job misses its makespan.
    pub fn describe(&self) -> String {
        format!("rank {}/{} · {}", self.rank, self.n, self.state_label())
    }

    /// The op source this rank pulls from; how far it got tells which op
    /// the rank is at.
    pub fn source(&self) -> &OpSource {
        &self.src
    }

    /// Peers a blocked rank waits on, one entry per blocking request still
    /// open: the source of an unmatched receive, the destination of a
    /// rendezvous send no CTS has answered. A request whose messages are
    /// already on the network names no peer. Empty unless blocked.
    pub fn blocked_on(&self) -> Vec<u32> {
        let State::Blocked(reqs) = &self.state else { return Vec::new() };
        reqs.iter()
            .filter_map(|&req| {
                let recv = self.posted.iter().find(|p| p.req == req).map(|p| p.src);
                let send = || self.rdv_out.iter().find(|(_, o)| o.req == req).map(|(_, o)| o.dst);
                recv.or_else(send)
            })
            .collect()
    }

    /// Source of every message that arrived with no receive posted for it
    /// and is still unclaimed (eager payloads and rendezvous RTSs).
    pub fn unexpected_sources(&self) -> impl Iterator<Item = u32> + '_ {
        self.unexpected.iter().map(|u| u.src)
    }

    /// Source of every posted receive no message has matched yet.
    pub fn posted_sources(&self) -> impl Iterator<Item = u32> + '_ {
        self.posted.iter().map(|p| p.src)
    }

    /// Kick the rank off (call once at simulation start).
    pub fn start(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        self.step(now_ns, out);
    }

    /// The NIC finished serializing message `seq`.
    pub fn on_injected(&mut self, now_ns: u64, seq: u64, out: &mut Vec<Action>) {
        if let Some(i) = self.inject_wait.iter().position(|&(s, _)| s == seq) {
            let (_, req) = self.inject_wait.swap_remove(i);
            self.complete_req(req);
        }
        self.resume_if_ready(now_ns, out);
    }

    /// A message addressed to this rank was fully delivered.
    pub fn on_delivery(&mut self, now_ns: u64, msg: &MpiMsg, out: &mut Vec<Action>) {
        self.deliver(now_ns, msg, out);
        self.resume_if_ready(now_ns, out);
    }

    /// A `Compute` delay finished.
    pub fn on_compute_done(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        if self.state == State::Failed {
            return;
        }
        debug_assert_eq!(self.state, State::Computing);
        self.state = State::Ready;
        self.step(now_ns, out);
    }

    // ---- internals ----

    /// Record the first protocol violation and stop this rank: no more
    /// ops execute, no more actions are emitted, and `is_done` stays
    /// false so the host reports the run as failed rather than hung.
    fn protocol_fail(&mut self, msg: String) {
        if self.protocol_error.is_none() {
            self.protocol_error = Some(msg);
        }
        self.state = State::Failed;
    }

    fn resume_if_ready(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        if let State::Blocked(reqs) = &self.state {
            if reqs.iter().all(|r| !self.outstanding.contains(r)) {
                self.state = State::Ready;
                self.comm.unblock(now_ns);
                self.step(now_ns, out);
            }
        }
    }

    /// Advance until blocked, computing, or done.
    fn step(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        while self.state == State::Ready {
            let op = match self.queue.pop_front() {
                Some(op) => Some(op),
                None => self.src.next_op(),
            };
            let Some(op) = op else {
                self.state = State::Done;
                self.finished_at_ns = Some(now_ns);
                return;
            };
            self.ops_executed += 1;
            match op {
                MpiOp::Init
                | MpiOp::Finalize
                | MpiOp::ResetCounters
                | MpiOp::LogCounters
                | MpiOp::Aggregates => {}
                MpiOp::Compute { ns } => {
                    if ns > 0 {
                        self.state = State::Computing;
                        out.push(Action::Compute { ns });
                    }
                }
                MpiOp::Isend { dst, bytes, tag } => {
                    self.do_isend(now_ns, dst, bytes, tag, out);
                }
                MpiOp::Send { dst, bytes, tag } => {
                    let req = self.do_isend(now_ns, dst, bytes, tag, out);
                    self.block_on(now_ns, vec![req]);
                }
                MpiOp::Irecv { src, bytes, tag } => {
                    self.do_irecv(now_ns, src, bytes, tag, out);
                }
                MpiOp::Recv { src, bytes, tag } => {
                    let req = self.do_irecv(now_ns, src, bytes, tag, out);
                    self.block_on(now_ns, vec![req]);
                }
                MpiOp::WaitAll => {
                    let reqs = self.outstanding.clone();
                    self.block_on(now_ns, reqs);
                }
                MpiOp::Allreduce { .. }
                | MpiOp::Bcast { .. }
                | MpiOp::Reduce { .. }
                | MpiOp::Barrier => {
                    let seq = self.coll_seq;
                    self.coll_seq = self.coll_seq.wrapping_add(1);
                    // Internal tags carry only `seq & SEQ_MASK`: fence the
                    // epoch boundary so a collective can never cross-match
                    // one from 32768 collectives earlier. All ranks issue
                    // collectives in the same order, so every rank injects
                    // the fence at the same sequence number and the fence
                    // barrier is itself matched.
                    if seq & collectives::SEQ_MASK == collectives::SEQ_MASK {
                        self.coll_fences += 1;
                        let fence = collectives::epoch_fence(self.rank, self.n, seq);
                        for e in fence.into_iter().rev() {
                            self.queue.push_front(e);
                        }
                    }
                    let expansion = collectives::expand(&op, self.rank, self.n, seq);
                    for e in expansion.into_iter().rev() {
                        self.queue.push_front(e);
                    }
                }
                MpiOp::SyntheticSend { dst, bytes } => {
                    let seq = self.next_msg_seq();
                    self.bytes_sent += bytes;
                    out.push(Action::Send(MpiMsg {
                        src: self.rank,
                        dst,
                        tag: 0,
                        seq,
                        kind: MsgKind::Synthetic,
                        payload: bytes,
                        wire: bytes,
                        created_ns: now_ns,
                    }));
                }
            }
        }
    }

    fn next_req(&mut self) -> u64 {
        self.req_seq += 1;
        self.req_seq
    }

    fn next_msg_seq(&mut self) -> u64 {
        self.msg_seq += 1;
        self.msg_seq
    }

    fn block_on(&mut self, now_ns: u64, reqs: Vec<u64>) {
        let pending: Vec<u64> = reqs.into_iter().filter(|r| self.outstanding.contains(r)).collect();
        if !pending.is_empty() {
            self.state = State::Blocked(pending);
            self.comm.block(now_ns);
        }
    }

    fn complete_req(&mut self, req: u64) {
        if let Some(i) = self.outstanding.iter().position(|&r| r == req) {
            self.outstanding.swap_remove(i);
        }
    }

    fn do_isend(
        &mut self,
        now_ns: u64,
        dst: u32,
        bytes: u64,
        tag: u32,
        out: &mut Vec<Action>,
    ) -> u64 {
        let req = self.next_req();
        self.outstanding.push(req);
        self.bytes_sent += bytes;
        if dst == self.rank {
            // Self-send: deliver locally and complete immediately.
            let msg = MpiMsg {
                src: self.rank,
                dst,
                tag,
                seq: self.next_msg_seq(),
                kind: MsgKind::Eager,
                payload: bytes,
                wire: 0,
                created_ns: now_ns,
            };
            self.deliver(now_ns, &msg, out);
            self.complete_req(req);
            return req;
        }
        let seq = self.next_msg_seq();
        if bytes <= self.eager_max {
            self.inject_wait.push((seq, req));
            out.push(Action::Send(MpiMsg {
                src: self.rank,
                dst,
                tag,
                seq,
                kind: MsgKind::Eager,
                payload: bytes,
                wire: bytes,
                created_ns: now_ns,
            }));
        } else {
            self.rdv_out.push((seq, RdvOut { dst, tag, payload: bytes, req, created_ns: now_ns }));
            out.push(Action::Send(MpiMsg {
                src: self.rank,
                dst,
                tag,
                seq,
                kind: MsgKind::Rts,
                payload: bytes,
                wire: CTRL_WIRE_BYTES,
                created_ns: now_ns,
            }));
        }
        req
    }

    fn do_irecv(
        &mut self,
        _now_ns: u64,
        src: u32,
        _bytes: u64,
        tag: u32,
        out: &mut Vec<Action>,
    ) -> u64 {
        let req = self.next_req();
        self.outstanding.push(req);
        // Check the unexpected queue first (FIFO per (src, tag)).
        if let Some(i) = self.unexpected.iter().position(|u| u.src == src && u.tag == tag) {
            let u = self.unexpected.remove(i);
            match u.kind {
                UnexKind::Eager => {
                    // Payload already arrived; latency was recorded then.
                    self.complete_req(req);
                }
                UnexKind::Rts { seq } => {
                    self.rdv_in.push(((src, seq), req));
                    // CTS gets its own wire id; the RTS seq it answers
                    // rides in `payload` (ids are per-sender — reusing the
                    // peer's seq would collide with our own messages).
                    let cts_seq = self.next_msg_seq();
                    out.push(Action::Send(MpiMsg {
                        src: self.rank,
                        dst: src,
                        tag,
                        seq: cts_seq,
                        kind: MsgKind::Cts,
                        payload: seq,
                        wire: CTRL_WIRE_BYTES,
                        created_ns: _now_ns,
                    }));
                }
            }
        } else {
            self.posted.push(Posted { src, tag, req });
        }
        req
    }

    fn deliver(&mut self, now_ns: u64, msg: &MpiMsg, out: &mut Vec<Action>) {
        if self.state == State::Failed {
            return;
        }
        match msg.kind {
            MsgKind::Eager => {
                self.latency.record(now_ns.saturating_sub(msg.created_ns));
                if let Some(i) =
                    self.posted.iter().position(|p| p.src == msg.src && p.tag == msg.tag)
                {
                    let p = self.posted.remove(i);
                    self.complete_req(p.req);
                } else {
                    self.unexpected.push(Unexpected {
                        src: msg.src,
                        tag: msg.tag,
                        kind: UnexKind::Eager,
                    });
                }
            }
            MsgKind::Rts => {
                if let Some(i) =
                    self.posted.iter().position(|p| p.src == msg.src && p.tag == msg.tag)
                {
                    let p = self.posted.remove(i);
                    self.rdv_in.push(((msg.src, msg.seq), p.req));
                    let cts_seq = self.next_msg_seq();
                    out.push(Action::Send(MpiMsg {
                        src: self.rank,
                        dst: msg.src,
                        tag: msg.tag,
                        seq: cts_seq,
                        kind: MsgKind::Cts,
                        payload: msg.seq,
                        wire: CTRL_WIRE_BYTES,
                        created_ns: now_ns,
                    }));
                } else {
                    self.unexpected.push(Unexpected {
                        src: msg.src,
                        tag: msg.tag,
                        kind: UnexKind::Rts { seq: msg.seq },
                    });
                }
            }
            MsgKind::Cts => {
                let rts_seq = msg.payload;
                let Some(i) = self.rdv_out.iter().position(|&(s, _)| s == rts_seq) else {
                    self.protocol_fail(format!(
                        "rank {}: CTS from rank {} (tag {}) answers rendezvous seq {} \
                         this rank never started",
                        self.rank, msg.src, msg.tag, rts_seq,
                    ));
                    return;
                };
                let (seq, rdv) = self.rdv_out.swap_remove(i);
                self.inject_wait.push((seq, rdv.req));
                out.push(Action::Send(MpiMsg {
                    src: self.rank,
                    dst: rdv.dst,
                    tag: rdv.tag,
                    seq,
                    kind: MsgKind::Data,
                    payload: rdv.payload,
                    wire: rdv.payload,
                    created_ns: rdv.created_ns,
                }));
            }
            MsgKind::Data => {
                self.latency.record(now_ns.saturating_sub(msg.created_ns));
                let Some(i) = self.rdv_in.iter().position(|&(k, _)| k == (msg.src, msg.seq)) else {
                    self.protocol_fail(format!(
                        "rank {}: rendezvous data from rank {} (tag {}, seq {}) \
                         arrived without a matched RTS",
                        self.rank, msg.src, msg.tag, msg.seq,
                    ));
                    return;
                };
                let (_, req) = self.rdv_in.swap_remove(i);
                self.complete_req(req);
            }
            MsgKind::Synthetic => {
                self.latency.record(now_ns.saturating_sub(msg.created_ns));
            }
        }
    }
}

/// An instantaneous loopback network: every message arrives, and every
/// injection and compute completes, at time 0. `ranks[i]` must be rank
/// `i` of one job. Starts every rank and drives them until nothing is in
/// flight, leaving each in its final state: done, or blocked on requests
/// that nothing can complete any more. The same MPI semantics the
/// simulator runs, without a network.
pub fn loopback(ranks: &mut [MpiRank]) {
    let mut inflight = start_all(ranks);
    pump(ranks, &mut inflight, |_, _| false);
}

/// Start every rank; returns their first actions, tagged with the rank.
fn start_all(ranks: &mut [MpiRank]) -> VecDeque<(usize, Action)> {
    let mut inflight = VecDeque::new();
    let mut out = Vec::new();
    for (who, r) in ranks.iter_mut().enumerate() {
        r.start(0, &mut out);
        inflight.extend(out.drain(..).map(|a| (who, a)));
    }
    inflight
}

/// Carry out `inflight` and every action it causes, loopback-style.
/// Messages `hold(sender, msg)` keeps back are injected but not
/// delivered; they are returned in send order.
fn pump(
    ranks: &mut [MpiRank],
    inflight: &mut VecDeque<(usize, Action)>,
    mut hold: impl FnMut(usize, &MpiMsg) -> bool,
) -> Vec<MpiMsg> {
    let mut out = Vec::new();
    let mut held = Vec::new();
    while let Some((who, action)) = inflight.pop_front() {
        match action {
            Action::Compute { .. } => ranks[who].on_compute_done(0, &mut out),
            Action::Send(msg) => ranks[who].on_injected(0, msg.seq, &mut out),
        }
        inflight.extend(out.drain(..).map(|a| (who, a)));
        if let Action::Send(msg) = action {
            if hold(who, &msg) {
                held.push(msg);
            } else {
                let dst = msg.dst as usize;
                ranks[dst].on_delivery(0, &msg, &mut out);
                inflight.extend(out.drain(..).map(|a| (dst, a)));
            }
        }
    }
    held
}

#[cfg(test)]
mod tests {
    use super::*;
    use union_core::{translate_source, Builder, RankVm, SkeletonInstance};

    /// Run `ranks` on the loopback and require every one to finish.
    fn loopback_to_completion(mut ranks: Vec<MpiRank>) -> Vec<MpiRank> {
        loopback(&mut ranks);
        for r in &ranks {
            assert!(r.is_done(), "rank {} deadlocked", r.rank());
        }
        ranks
    }

    fn ranks_for(src: &str, n: u32, eager: u64) -> Vec<MpiRank> {
        let skel = translate_source(src, "t").unwrap();
        let inst = SkeletonInstance::new(&skel, n, &[]).unwrap();
        (0..n).map(|r| MpiRank::new(RankVm::new(inst.clone(), r, 1), eager)).collect()
    }

    #[test]
    fn describe_tracks_the_state_machine() {
        let mut ranks = ranks_for("task 0 sends a 8 byte message to task 1.", 2, 1 << 20);
        assert_eq!(ranks[0].state_label(), "ready");
        assert_eq!(ranks[0].describe(), "rank 0/2 · ready");
        ranks = loopback_to_completion(ranks);
        assert_eq!(ranks[0].state_label(), "done");
        assert_eq!(ranks[1].describe(), "rank 1/2 · done");
    }

    /// Wrap-boundary regression: the 32768th collective reuses the tags
    /// of the 1st (`SEQ_MASK` wrap), so an epoch fence must stop any rank
    /// from entering the next tag epoch while old-epoch messages are
    /// still unconsumed. Without the fence, a bcast root — whose sends
    /// complete at injection — races arbitrarily far ahead of a receiver
    /// stuck behind one slow message, and a new-epoch message can match
    /// the receiver's still-posted old-epoch `Recv`.
    #[test]
    fn tag_epoch_fence_blocks_next_epoch_until_prior_messages_land() {
        let mut ranks = ranks_for(
            "for 4 repetitions { task 0 multicasts an 8 byte message to all other tasks }.",
            2,
            1 << 20,
        );
        // Start two collectives before the wrap so the run crosses it.
        for r in ranks.iter_mut() {
            r.coll_seq = collectives::SEQ_MASK - 1;
        }
        let mut inflight = start_all(&mut ranks);
        // Loopback, except the root's first bcast payload stays in the
        // network until everything else has drained.
        let mut first = true;
        let held = pump(&mut ranks, &mut inflight, |who, _| who == 0 && std::mem::take(&mut first));
        // Quiescent with one old-epoch message in flight: the fence must
        // be holding the root inside the old tag epoch (before the fix
        // the root finished all four bcasts here).
        assert_eq!(held.len(), 1);
        assert!(!ranks[0].is_done(), "root raced past the tag-epoch fence");
        assert!(!ranks[1].is_done());
        assert_eq!(ranks[0].coll_fences, 1);
        let mut out = Vec::new();
        ranks[1].on_delivery(0, &held[0], &mut out);
        inflight.extend(out.drain(..).map(|a| (1, a)));
        pump(&mut ranks, &mut inflight, |_, _| false);
        for r in &ranks {
            assert!(r.is_done(), "rank {} deadlocked", r.rank());
            assert_eq!(r.coll_fences, 1);
        }
        // Four bcast payloads plus the fence control message.
        assert_eq!(ranks[1].latency.count, 5);
    }

    /// The loopback stops when nothing is in flight, not when every rank
    /// is done: a deadlocked job is left blocked, with its open requests
    /// and leftover traffic readable.
    #[test]
    fn loopback_leaves_a_deadlock_blocked_and_readable() {
        let mut ranks =
            ranks_for("all tasks t send a 1048576 byte message to task (1 - t).", 2, EAGER_MAX);
        loopback(&mut ranks);
        for (r, peer) in [(0, 1), (1, 0)] {
            assert_eq!(ranks[r].state_label(), "blocked");
            assert_eq!(ranks[r].blocked_on(), [peer], "the rendezvous send waits on its peer");
            assert_eq!(ranks[r].unexpected_sources().collect::<Vec<_>>(), [peer], "unanswered RTS");
            assert!(ranks[r].posted_sources().next().is_none());
        }
    }

    #[test]
    fn ping_pong_completes_eager_and_rendezvous() {
        for eager in [1 << 20, 4] {
            let ranks = loopback_to_completion(ranks_for(
                "for 3 repetitions { task 0 sends a 1024 byte message to task 1 then \
                 task 1 sends a 1024 byte message to task 0 }.",
                2,
                eager,
            ));
            for r in &ranks {
                assert_eq!(r.latency.count, 3, "eager={eager}");
            }
        }
    }

    #[test]
    fn nonblocking_ring_completes() {
        let ranks = loopback_to_completion(ranks_for(
            "for 5 repetitions { all tasks t asynchronously send a 100000 byte message \
             to task (t+1) mod num_tasks then all tasks await completions }.",
            6,
            EAGER_MAX,
        ));
        for r in &ranks {
            assert_eq!(r.latency.count, 5);
            assert_eq!(r.bytes_sent, 5 * 100_000);
        }
    }

    #[test]
    fn collectives_complete_for_odd_sizes() {
        for n in [2u32, 3, 5, 8, 13] {
            let ranks = loopback_to_completion(ranks_for(
                "all tasks reduce a 1000000 byte message to all tasks then \
                 task 0 multicasts a 25 byte message to all other tasks then \
                 all tasks synchronize then \
                 all tasks reduce a 8 byte message to task 0.",
                n,
                EAGER_MAX,
            ));
            for r in &ranks {
                assert!(r.is_done(), "n={n}");
            }
        }
    }

    #[test]
    fn unexpected_messages_match_later_recvs() {
        // Rank 1 computes before receiving, so rank 0's eager send arrives
        // unexpected; the later recv must still match.
        let ranks = loopback_to_completion(ranks_for(
            "task 0 sends a 64 byte message to task 1 then \
             task 1 computes for 1 microseconds.",
            2,
            EAGER_MAX,
        ));
        assert_eq!(ranks[1].latency.count, 1);
    }

    #[test]
    fn comm_time_accumulates_only_when_blocked() {
        let skel =
            Builder::new("b").compute_ns(conceptual::Expr::lit(1000)).barrier().build().unwrap();
        let inst = SkeletonInstance::new(&skel, 2, &[]).unwrap();
        let ranks: Vec<MpiRank> =
            (0..2).map(|r| MpiRank::new(RankVm::new(inst.clone(), r, 1), 1024)).collect();
        let ranks = loopback_to_completion(ranks);
        // Loopback time advances one step per action, so comm time is tiny
        // but the timer must be closed (not blocked at the end).
        for r in &ranks {
            assert!(!r.comm.is_blocked());
        }
    }

    #[test]
    fn synthetic_traffic_needs_no_match() {
        let skel = Builder::new("ur")
            .loop_n(conceptual::Expr::lit(4), |b| b.send_random(conceptual::Expr::lit(10240), true))
            .build()
            .unwrap();
        let inst = SkeletonInstance::new(&skel, 4, &[]).unwrap();
        let ranks: Vec<MpiRank> =
            (0..4).map(|r| MpiRank::new(RankVm::new(inst.clone(), r, 9), 1 << 20)).collect();
        let ranks = loopback_to_completion(ranks);
        let total: u64 = ranks.iter().map(|r| r.latency.count).sum();
        assert_eq!(total, 16, "every synthetic send is received somewhere");
    }

    #[test]
    fn bogus_cts_fails_the_rank_instead_of_panicking() {
        let mut ranks = ranks_for("task 0 sends a 100000 byte message to task 1.", 2, EAGER_MAX);
        let mut out = Vec::new();
        ranks[0].start(0, &mut out);
        // A CTS answering a rendezvous seq this rank never started —
        // e.g. a duplicated or misrouted control message.
        let bogus = MpiMsg {
            src: 1,
            dst: 0,
            tag: 0,
            seq: 7,
            kind: MsgKind::Cts,
            payload: 424_242,
            wire: CTRL_WIRE_BYTES,
            created_ns: 0,
        };
        out.clear();
        ranks[0].on_delivery(1, &bogus, &mut out);
        assert!(ranks[0].is_failed());
        assert!(!ranks[0].is_done());
        assert_eq!(ranks[0].state_label(), "failed");
        let err = ranks[0].protocol_error().expect("error recorded").to_string();
        assert!(err.contains("never started"), "unhelpful error: {err}");
        assert!(out.is_empty(), "a failed rank must emit no actions: {out:?}");
        // A failed rank ignores further traffic instead of cascading.
        ranks[0].on_delivery(2, &bogus, &mut out);
        ranks[0].on_compute_done(3, &mut out);
        assert!(out.is_empty());
        assert_eq!(ranks[0].protocol_error(), Some(err.as_str()));
    }

    #[test]
    fn unmatched_rendezvous_data_fails_the_rank() {
        let mut ranks = ranks_for("task 0 sends a 8 byte message to task 1.", 2, 1 << 20);
        let mut out = Vec::new();
        ranks[1].start(0, &mut out);
        let bogus = MpiMsg {
            src: 0,
            dst: 1,
            tag: 0,
            seq: 99,
            kind: MsgKind::Data,
            payload: 100_000,
            wire: 100_000,
            created_ns: 0,
        };
        out.clear();
        ranks[1].on_delivery(1, &bogus, &mut out);
        assert!(ranks[1].is_failed());
        let err = ranks[1].protocol_error().expect("error recorded");
        assert!(err.contains("without a matched RTS"), "unhelpful error: {err}");
    }

    #[test]
    fn self_sends_complete_locally() {
        let ranks = loopback_to_completion(ranks_for(
            "all tasks t send a 4096 byte message to task t.",
            3,
            EAGER_MAX,
        ));
        for r in &ranks {
            assert!(r.is_done());
            assert_eq!(r.latency.count, 1);
        }
    }

    #[test]
    fn large_collective_uses_rendezvous_and_completes() {
        // 1 MiB allreduce with a 16 KiB eager threshold forces the
        // rendezvous path inside Rabenseifner rounds.
        let ranks = loopback_to_completion(ranks_for(
            "all tasks reduce a 1048576 byte message to all tasks.",
            8,
            EAGER_MAX,
        ));
        for r in &ranks {
            assert!(r.is_done());
            assert!(r.bytes_sent > 1_500_000, "~2P per rank, got {}", r.bytes_sent);
        }
    }
}
