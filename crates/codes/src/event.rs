//! Simulation events and logical-process id mapping.

use dragonfly::Packet;
use mpi_sim::MsgKind;
use ross::SimTime;

/// Every event in the composed CODES simulation.
#[derive(Clone, Debug)]
pub enum Event {
    /// Kick a node's rank process off at simulation start.
    Start,
    /// A packet arrives at an LP: a router forwards it, a node NIC
    /// receives it (final hop). The receiving LP's kind says which.
    Pkt(Pkt),
    /// The node NIC finished serializing one packet; emit the next.
    NicPulse,
    /// A rank's compute delay elapsed.
    ComputeDone,
    /// Credit-mode flow control: a downstream buffer slot freed up for
    /// (port, vc) on this router.
    Credit { port: u16, vc: u8 },
}

/// A [`Packet`] in flight, packed to 4-byte alignment: the pool holds one
/// per pending packet event, so its bytes are most of a paper-scale
/// pending set. Fields are ordered widest first so `repr(C)` leaves no
/// padding inside; the `Option<u32>` group ids use `u32::MAX` as `None`,
/// and `created` is kept as nanoseconds. Converting either way is
/// lossless (group and router ids fit below `u32::MAX`, as LP ids must).
#[derive(Clone, Copy, Debug)]
#[repr(C, packed(4))]
pub struct Pkt {
    pub aux: u64,
    pub msg_id: u64,
    pub msg_bytes: u64,
    pub created_ns: u64,
    pub tag: u32,
    pub src_node: u32,
    pub dst_node: u32,
    pub bytes: u32,
    /// `u32::MAX` = none.
    pub intermediate: u32,
    /// `u32::MAX` = none.
    pub gateway: u32,
    pub up_router: u32,
    pub up_port: u16,
    pub app: u8,
    pub kind: u8,
    pub routed: bool,
    pub hops: u8,
    pub vc: u8,
}

const _: () = assert!(std::mem::size_of::<Pkt>() == 68);
// One packet variant: the enum tag sits in `routed`'s niche.
const _: () = assert!(std::mem::size_of::<Event>() <= 68);
// The LP slab holds one `CodesLp` per node and router, and the worker
// step prefetches the whole LP of the event after next: keep it at four
// cache lines (a rank process sits behind a `Box`).
const _: () = assert!(std::mem::size_of::<crate::sim::CodesLp>() <= 256);

/// A `Pkt` group id's "none".
pub(crate) const NO_ID: u32 = u32::MAX;

fn pack_opt(v: Option<u32>) -> u32 {
    match v {
        Some(x) => {
            assert_ne!(x, NO_ID, "group/router id u32::MAX is the in-flight `None`");
            x
        }
        None => NO_ID,
    }
}

fn unpack_opt(v: u32) -> Option<u32> {
    (v != NO_ID).then_some(v)
}

impl From<Packet> for Pkt {
    #[inline]
    fn from(p: Packet) -> Pkt {
        Pkt {
            aux: p.aux,
            msg_id: p.msg_id,
            msg_bytes: p.msg_bytes,
            created_ns: p.created.as_ns(),
            tag: p.tag,
            src_node: p.src_node,
            dst_node: p.dst_node,
            bytes: p.bytes,
            intermediate: pack_opt(p.intermediate),
            gateway: pack_opt(p.gateway),
            up_router: p.up_router,
            up_port: p.up_port,
            app: p.app,
            kind: p.kind,
            routed: p.routed,
            hops: p.hops,
            vc: p.vc,
        }
    }
}

impl From<Pkt> for Packet {
    #[inline]
    fn from(p: Pkt) -> Packet {
        Packet {
            app: p.app,
            kind: p.kind,
            tag: p.tag,
            aux: p.aux,
            src_node: p.src_node,
            dst_node: p.dst_node,
            bytes: p.bytes,
            msg_id: p.msg_id,
            msg_bytes: p.msg_bytes,
            created: SimTime::from_ns(p.created_ns),
            intermediate: unpack_opt(p.intermediate),
            gateway: unpack_opt(p.gateway),
            routed: p.routed,
            hops: p.hops,
            up_router: p.up_router,
            up_port: p.up_port,
            vc: p.vc,
        }
    }
}

/// The packet's opaque `kind` byte for a message kind. [`code_kind`] is
/// its inverse; the node LP and the wire decoder both go through this
/// pair.
pub(crate) fn kind_code(k: MsgKind) -> u8 {
    match k {
        MsgKind::Eager => 0,
        MsgKind::Rts => 1,
        MsgKind::Cts => 2,
        MsgKind::Data => 3,
        MsgKind::Synthetic => 4,
    }
}

/// The message kind a `kind` byte encodes; `None` for an unknown code.
pub(crate) fn code_kind(c: u8) -> Option<MsgKind> {
    Some(match c {
        0 => MsgKind::Eager,
        1 => MsgKind::Rts,
        2 => MsgKind::Cts,
        3 => MsgKind::Data,
        4 => MsgKind::Synthetic,
        _ => return None,
    })
}

/// LP id layout: nodes first, then routers.
#[derive(Clone, Copy, Debug)]
pub struct LpMap {
    pub n_nodes: u32,
}

impl LpMap {
    #[inline]
    pub fn node_lp(&self, node: u32) -> u32 {
        node
    }

    #[inline]
    pub fn router_lp(&self, router: u32) -> u32 {
        self.n_nodes + router
    }

    #[inline]
    pub fn is_node(&self, lp: u32) -> bool {
        lp < self.n_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip_and_reject_the_rest() {
        for c in 0..=u8::MAX {
            match code_kind(c) {
                Some(k) => assert_eq!(kind_code(k), c),
                None => assert!(c > 4, "code {c} unmapped"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "in-flight `None`")]
    fn a_group_id_of_u32_max_is_refused() {
        let p = Packet { gateway: Some(u32::MAX), ..crate::wire::tests::sample_packet() };
        let _ = Pkt::from(p);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `Packet -> Pkt -> Packet` is the identity, field for field.
        #[test]
        fn packet_round_trips_through_the_packed_form(seed in 1u64..u64::MAX) {
            let mut s = seed;
            let p = crate::wire::tests::random_packet(&mut s);
            proptest::prop_assert_eq!(Packet::from(Pkt::from(p)), p);
        }
    }
}
