//! The node logical process: NIC + (optionally) a Union rank process.
//!
//! The NIC is self-clocking: it serializes one packet at a time at
//! terminal-link bandwidth, waking itself with `NicPulse` events. This
//! keeps the event population proportional to active nodes rather than to
//! outstanding packets, which matters when a rank pushes a 20 MiB
//! allreduce round into the network.

use crate::event::{code_kind, kind_code, Event, Pkt};
use crate::shared::Shared;
use dragonfly::{LinkClass, Packet};
use mpi_sim::{Action, MpiMsg, MpiRank};
use ross::{Ctx, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// A rank process bound to this node.
#[derive(Clone)]
pub struct Proc {
    /// Application (job) id.
    pub app: u32,
    pub mpi: MpiRank,
}

/// One message queued at the NIC.
#[derive(Clone, Debug)]
struct NicMsg {
    template: Pkt,
    wire: u64,
    emitted: u64,
    mpi_seq: u64,
}

/// Self-clocking NIC.
#[derive(Clone, Debug, Default)]
struct Nic {
    queue: VecDeque<NicMsg>,
    sending: Option<NicMsg>,
    /// A pulse event is in flight.
    pulsing: bool,
    pub injected_bytes: u64,
    pub injected_packets: u64,
}

/// The node LP.
#[derive(Clone)]
pub struct NodeLp {
    pub node: u32,
    shared: Arc<Shared>,
    nic: Nic,
    /// Boxed: a rank process is most of a node's bytes, and unboxed it
    /// would size every LP of the model, routers and idle nodes included.
    pub proc: Option<Box<Proc>>,
    /// Partial message reassembly: ((src_node, msg_id), bytes received),
    /// one entry per incomplete message — a handful, so a linear scan
    /// beats hashing the key.
    assembly: Vec<((u32, u64), u64)>,
    /// Scratch for the actions one rank call produces; empty between
    /// events, kept for its capacity.
    actions: Vec<Action>,
    /// Packets fully received at this node (telemetry).
    pub delivered_packets: u64,
}

impl NodeLp {
    pub fn new(node: u32, shared: Arc<Shared>, proc: Option<Proc>) -> NodeLp {
        NodeLp {
            node,
            shared,
            nic: Nic::default(),
            proc: proc.map(Box::new),
            assembly: Vec::new(),
            actions: Vec::new(),
            delivered_packets: 0,
        }
    }

    /// Bytes this node's NIC pushed into the network.
    pub fn injected_bytes(&self) -> u64 {
        self.nic.injected_bytes
    }

    /// Packets this node's NIC pushed into the network.
    pub fn injected_packets(&self) -> u64 {
        self.nic.injected_packets
    }

    /// Hint that an event for this node is next: prefetch its rank
    /// process, the one part of the node behind a pointer.
    #[inline]
    pub fn prefetch(&self) {
        if let Some(p) = &self.proc {
            ross::prefetch(&**p);
        }
    }

    /// Causal-trace kind tag: 0 = network plumbing, then one comm/compute
    /// pair per application (`1 + 2*app` = comm, `2 + 2*app` = compute).
    /// Must match `codes::trace_kind_names`.
    pub fn trace_kind(&self, ev: &Event) -> u16 {
        let Some(p) = &self.proc else { return 0 };
        let app = p.app as u16;
        match ev {
            Event::ComputeDone => 2 + 2 * app,
            Event::Start | Event::Pkt(_) => 1 + 2 * app,
            Event::NicPulse | Event::Credit { .. } => 0,
        }
    }

    pub fn handle_event(&mut self, now: SimTime, ev: &Event, ctx: &mut Ctx<'_, Event>) {
        match ev {
            Event::Start => {
                if let Some(p) = &mut self.proc {
                    p.mpi.start(now.as_ns(), &mut self.actions);
                }
                self.apply(now, ctx);
            }
            Event::ComputeDone => {
                if let Some(p) = &mut self.proc {
                    p.mpi.on_compute_done(now.as_ns(), &mut self.actions);
                }
                self.apply(now, ctx);
            }
            Event::NicPulse => self.pulse(now, ctx),
            Event::Pkt(pkt) => self.receive_packet(now, ctx, pkt),
            Event::Credit { .. } => unreachable!("credit event at node LP"),
        }
    }

    /// Process the actions a rank call left in `self.actions`.
    fn apply(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        let mut actions = std::mem::take(&mut self.actions);
        for a in actions.drain(..) {
            match a {
                Action::Compute { ns } => {
                    ctx.send_self(SimDuration::from_ns(ns.max(1)), Event::ComputeDone);
                }
                Action::Send(msg) => self.enqueue_send(now, ctx, msg),
            }
        }
        self.actions = actions;
    }

    fn enqueue_send(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>, msg: MpiMsg) {
        let p = self.proc.as_ref().expect("send from node without a rank");
        let dst_node = self.shared.layout.node_of(p.app, msg.dst);
        debug_assert_ne!(dst_node, self.node, "self-sends are local to MpiRank");
        let wire = msg.wire.max(1);
        let template = Packet {
            app: p.app as u8,
            kind: kind_code(msg.kind),
            tag: msg.tag,
            aux: msg.payload,
            src_node: self.node,
            dst_node,
            bytes: 0,
            msg_id: msg.seq,
            msg_bytes: wire,
            created: SimTime::from_ns(msg.created_ns),
            intermediate: None,
            gateway: None,
            routed: false,
            hops: 0,
            up_router: u32::MAX,
            up_port: 0,
            vc: 0,
        }
        .into();
        self.nic.queue.push_back(NicMsg { template, wire, emitted: 0, mpi_seq: msg.seq });
        if !self.nic.pulsing {
            // NIC idle: start emitting now.
            self.emit_next(now, ctx);
        }
    }

    /// Emit one packet of the current (or next queued) message; schedules
    /// the next pulse at the packet's serialization finish.
    fn emit_next(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        if self.nic.sending.is_none() {
            self.nic.sending = self.nic.queue.pop_front();
        }
        let topo = &self.shared.topo;
        let Some(cur) = &mut self.nic.sending else {
            self.nic.pulsing = false;
            return;
        };
        let chunk = (cur.wire - cur.emitted).min(topo.cfg.packet_bytes as u64) as u32;
        debug_assert!(chunk > 0, "emitting an already-finished message");
        let mut pkt = cur.template;
        pkt.bytes = chunk;
        cur.emitted += chunk as u64;
        self.nic.injected_bytes += chunk as u64;
        self.nic.injected_packets += 1;
        let ser = topo.serialization(LinkClass::Terminal, chunk);
        let router = topo.node_router(self.node);
        ctx.send(
            self.shared.lpmap.router_lp(router),
            ser + topo.hop_delay(LinkClass::Terminal),
            Event::Pkt(pkt),
        );
        // Wake up when this packet has left the NIC.
        ctx.send_self(ser, Event::NicPulse);
        self.nic.pulsing = true;
        let _ = now;
    }

    fn pulse(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        self.nic.pulsing = false;
        // Did the in-flight message just finish serializing?
        if let Some(cur) = &self.nic.sending {
            if cur.emitted >= cur.wire {
                let seq = cur.mpi_seq;
                self.nic.sending = None;
                if let Some(p) = &mut self.proc {
                    p.mpi.on_injected(now.as_ns(), seq, &mut self.actions);
                }
                self.apply(now, ctx);
            }
        }
        // `apply` may already have restarted the NIC (a resumed rank
        // queueing a new send); only emit if it did not.
        if !self.nic.pulsing && (self.nic.sending.is_some() || !self.nic.queue.is_empty()) {
            self.emit_next(now, ctx);
        }
    }

    fn receive_packet(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>, pkt: &Pkt) {
        debug_assert_eq!({ pkt.dst_node }, self.node, "packet delivered to the wrong node");
        self.delivered_packets += 1;
        // A one-packet message has nothing to reassemble.
        if (pkt.bytes as u64) < pkt.msg_bytes {
            let key = (pkt.src_node, pkt.msg_id);
            let bytes = pkt.bytes as u64;
            match self.assembly.iter().position(|(k, _)| *k == key) {
                None => {
                    self.assembly.push((key, bytes));
                    return;
                }
                Some(i) if self.assembly[i].1 + bytes < pkt.msg_bytes => {
                    self.assembly[i].1 += bytes;
                    return;
                }
                Some(i) => {
                    self.assembly.swap_remove(i);
                }
            }
        }
        // Whole message arrived: hand it to the rank process.
        let Some((src_app, src_rank)) = self.shared.owner(pkt.src_node) else {
            panic!("message from unowned node {}", { pkt.src_node })
        };
        let p = self.proc.as_mut().expect("message delivered to empty node");
        debug_assert_eq!(src_app, p.app, "cross-application message");
        let kind = code_kind(pkt.kind).expect("kind byte written by kind_code");
        let msg = MpiMsg {
            src: src_rank,
            dst: p.mpi.rank(),
            tag: pkt.tag,
            seq: pkt.msg_id,
            kind,
            payload: pkt.aux,
            wire: pkt.msg_bytes,
            created_ns: pkt.created_ns,
        };
        p.mpi.on_delivery(now.as_ns(), &msg, &mut self.actions);
        self.apply(now, ctx);
    }
}
