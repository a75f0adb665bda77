//! Topology construction: ids, port tables, and global-link wiring.
//!
//! Identifiers are dense and group-major:
//!
//! * node `n` attaches to router `n / nodes_per_router` at terminal port
//!   `n % nodes_per_router`;
//! * router `r` belongs to group `r / routers_per_group`; its local index
//!   within the group is `r % routers_per_group = row·cols + col`.
//!
//! Global wiring uses the standard *consecutive* arrangement: router local
//! index `rl`'s global channel `j` is global port `gp = rl·h + j`; it
//! connects to group offset `gp mod (G−1)` (i.e. group `(g + offset + 1)
//! mod G`) as parallel link `gp / (G−1)`. The peer group reaches back with
//! offset `G−2−offset` and the same parallel-link index, making the wiring
//! an involution.

use crate::config::{DragonflyConfig, Flavor, LinkClass};
use ross::SimDuration;
use serde::{Deserialize, Serialize};

pub type NodeId = u32;
pub type RouterId = u32;
pub type GroupId = u32;
/// Port index within a router: `[terminals][locals][globals]`.
pub type Port = u16;

/// What a router port connects to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Peer {
    Node(NodeId),
    Router { router: RouterId, port: Port },
}

/// Static description of one router port.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PortInfo {
    pub class: LinkClass,
    pub peer: Peer,
}

/// The per-hop delays of one link class, computed once at build: every
/// router hop and NIC packet needs them, and `transfer_time` costs two
/// dependent `f64` divisions.
#[derive(Clone, Copy, Debug)]
struct LinkTiming {
    /// Serialization time of a full `packet_bytes` packet.
    full_packet: SimDuration,
    /// Propagation latency plus the peer router's traversal delay.
    hop: SimDuration,
}

/// A fully wired dragonfly.
pub struct Topology {
    pub cfg: DragonflyConfig,
    /// Static wiring, one flat table: router `r`'s ports are
    /// `ports[r * radix..][..radix]`, so a hop reads one line of it.
    ports: Vec<PortInfo>,
    radix: usize,
    /// Indexed by `LinkClass as usize`.
    timing: [LinkTiming; 3],
    /// `gateways[src_group * groups + dst_group]` — every (router, global
    /// port) in `src_group` with a direct link to `dst_group`.
    gateways: Vec<Vec<(RouterId, Port)>>,
}

impl Topology {
    /// Build and wire the topology. Panics on invalid configurations (use
    /// [`DragonflyConfig::check`] to validate first).
    pub fn build(cfg: DragonflyConfig) -> Topology {
        cfg.check().unwrap_or_else(|e| panic!("invalid dragonfly config: {e}"));
        let g = cfg.groups;
        let rpg = cfg.routers_per_group();
        let npr = cfg.nodes_per_router;
        let h = cfg.global_per_router;
        let n_routers = cfg.total_routers();

        let radix = cfg.radix() as usize;
        let mut ports: Vec<PortInfo> = Vec::with_capacity(n_routers as usize * radix);
        for r in 0..n_routers {
            let group = r / rpg;
            let rl = r % rpg;
            // Terminal ports.
            for t in 0..npr {
                ports.push(PortInfo { class: LinkClass::Terminal, peer: Peer::Node(r * npr + t) });
            }
            // Local ports.
            match cfg.flavor {
                Flavor::OneD => {
                    for peer_l in 0..rpg {
                        if peer_l != rl {
                            let peer = group * rpg + peer_l;
                            let peer_port =
                                npr as u16 + if rl < peer_l { rl } else { rl - 1 } as u16;
                            ports.push(PortInfo {
                                class: LinkClass::Local,
                                peer: Peer::Router { router: peer, port: peer_port },
                            });
                        }
                    }
                }
                Flavor::TwoD => {
                    let (row, col) = (rl / cfg.cols, rl % cfg.cols);
                    // Row peers (same row, different column).
                    for c in 0..cfg.cols {
                        if c != col {
                            let peer = group * rpg + row * cfg.cols + c;
                            let peer_port = npr as u16 + if col < c { col } else { col - 1 } as u16;
                            ports.push(PortInfo {
                                class: LinkClass::Local,
                                peer: Peer::Router { router: peer, port: peer_port },
                            });
                        }
                    }
                    // Column peers (same column, different row).
                    for rr in 0..cfg.rows {
                        if rr != row {
                            let peer = group * rpg + rr * cfg.cols + col;
                            let peer_port = npr as u16
                                + (cfg.cols - 1) as u16
                                + if row < rr { row } else { row - 1 } as u16;
                            ports.push(PortInfo {
                                class: LinkClass::Local,
                                peer: Peer::Router { router: peer, port: peer_port },
                            });
                        }
                    }
                }
            }
            // Global ports.
            for j in 0..h {
                let gp = rl * h + j;
                let offset = gp % (g - 1);
                let k = gp / (g - 1);
                let peer_group = (group + offset + 1) % g;
                let peer_offset = g - 2 - offset;
                let peer_gp = peer_offset + k * (g - 1);
                let peer_rl = peer_gp / h;
                let peer_j = peer_gp % h;
                let peer = peer_group * rpg + peer_rl;
                let peer_port = (npr + cfg.local_ports() + peer_j) as u16;
                ports.push(PortInfo {
                    class: LinkClass::Global,
                    peer: Peer::Router { router: peer, port: peer_port },
                });
            }
            debug_assert_eq!(ports.len(), (r as usize + 1) * radix, "router {r} is not radix");
        }

        // Gateway tables.
        let mut gateways = vec![Vec::new(); (g * g) as usize];
        for (r, pv) in ports.chunks_exact(radix).enumerate() {
            let group = r as u32 / rpg;
            for (p, info) in pv.iter().enumerate() {
                if info.class == LinkClass::Global {
                    let Peer::Router { router: peer, .. } = info.peer else { unreachable!() };
                    let peer_group = peer / rpg;
                    gateways[(group * g + peer_group) as usize].push((r as u32, p as Port));
                }
            }
        }

        let timing = [LinkClass::Terminal, LinkClass::Local, LinkClass::Global].map(|class| {
            let full = SimDuration::transfer_time(cfg.packet_bytes as u64, cfg.bandwidth(class));
            let hop = SimDuration::from_ns(cfg.latency_ns(class) + cfg.router_delay_ns);
            LinkTiming { full_packet: full, hop }
        });
        Topology { cfg, ports, radix, timing, gateways }
    }

    /// Serialization time of `bytes` over a link of `class`: the cached
    /// full-packet value for a full packet, [`SimDuration::transfer_time`]
    /// for anything shorter.
    #[inline]
    pub fn serialization(&self, class: LinkClass, bytes: u32) -> SimDuration {
        if bytes == self.cfg.packet_bytes {
            self.timing[class as usize].full_packet
        } else {
            SimDuration::transfer_time(bytes as u64, self.cfg.bandwidth(class))
        }
    }

    /// What a packet spends after serializing onto a link of `class`
    /// before the peer handles it: propagation plus router delay.
    #[inline]
    pub fn hop_delay(&self, class: LinkClass) -> SimDuration {
        self.timing[class as usize].hop
    }

    #[inline]
    pub fn node_router(&self, n: NodeId) -> RouterId {
        n / self.cfg.nodes_per_router
    }

    #[inline]
    pub fn node_terminal_port(&self, n: NodeId) -> Port {
        (n % self.cfg.nodes_per_router) as Port
    }

    #[inline]
    pub fn router_group(&self, r: RouterId) -> GroupId {
        r / self.cfg.routers_per_group()
    }

    #[inline]
    pub fn node_group(&self, n: NodeId) -> GroupId {
        self.router_group(self.node_router(n))
    }

    /// Static port table of a router.
    #[inline]
    pub fn ports(&self, r: RouterId) -> &[PortInfo] {
        let at = r as usize * self.radix;
        &self.ports[at..at + self.radix]
    }

    /// All (router, port) pairs in `src_group` with a global link to
    /// `dst_group`.
    #[inline]
    pub fn gateways(&self, src_group: GroupId, dst_group: GroupId) -> &[(RouterId, Port)] {
        &self.gateways[(src_group * self.cfg.groups + dst_group) as usize]
    }

    /// The local port on `from` that reaches `to` directly (same group;
    /// 2D requires same row or column). `None` if not directly connected.
    pub fn local_port_to(&self, from: RouterId, to: RouterId) -> Option<Port> {
        let rpg = self.cfg.routers_per_group();
        if from / rpg != to / rpg || from == to {
            return None;
        }
        let (fl, tl) = (from % rpg, to % rpg);
        let npr = self.cfg.nodes_per_router as u16;
        match self.cfg.flavor {
            Flavor::OneD => Some(npr + if tl < fl { tl } else { tl - 1 } as u16),
            Flavor::TwoD => {
                let (fr, fc) = (fl / self.cfg.cols, fl % self.cfg.cols);
                let (tr, tc) = (tl / self.cfg.cols, tl % self.cfg.cols);
                if fr == tr {
                    Some(npr + if tc < fc { tc } else { tc - 1 } as u16)
                } else if fc == tc {
                    Some(
                        npr + (self.cfg.cols - 1) as u16 + if tr < fr { tr } else { tr - 1 } as u16,
                    )
                } else {
                    None
                }
            }
        }
    }

    /// Routers adjacent to both `from` and `to` within a 2D group (the
    /// two grid corners: `(from_row, to_col)` then `(to_row, from_col)`).
    /// `None` for directly connected or 1D routers.
    pub fn corners(&self, from: RouterId, to: RouterId) -> Option<[RouterId; 2]> {
        if self.cfg.flavor != Flavor::TwoD {
            return None;
        }
        let rpg = self.cfg.routers_per_group();
        if from / rpg != to / rpg || self.local_port_to(from, to).is_some() || from == to {
            return None;
        }
        let group_base = (from / rpg) * rpg;
        let (fl, tl) = (from % rpg, to % rpg);
        let (fr, fc) = (fl / self.cfg.cols, fl % self.cfg.cols);
        let (tr, tc) = (tl / self.cfg.cols, tl % self.cfg.cols);
        Some([group_base + fr * self.cfg.cols + tc, group_base + tr * self.cfg.cols + fc])
    }

    /// Minimal intra-group hop count between two routers of the same group.
    pub fn intra_hops(&self, a: RouterId, b: RouterId) -> u32 {
        if a == b {
            0
        } else if self.local_port_to(a, b).is_some() {
            1
        } else {
            2
        }
    }

    /// Router-to-router minimal hop estimate (used to bias UGAL decisions).
    pub fn min_hops_estimate(&self, a: RouterId, b: RouterId) -> u32 {
        if self.router_group(a) == self.router_group(b) {
            self.intra_hops(a, b)
        } else {
            match self.cfg.flavor {
                Flavor::OneD => 3,
                Flavor::TwoD => 5,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_configs() -> Vec<DragonflyConfig> {
        vec![
            DragonflyConfig::tiny_1d(),
            DragonflyConfig::tiny_2d(),
            DragonflyConfig::dragonfly_1d(),
            DragonflyConfig::dragonfly_2d(),
        ]
    }

    #[test]
    fn wiring_is_an_involution() {
        for cfg in all_configs() {
            let topo = Topology::build(cfg);
            for r in 0..topo.cfg.total_routers() {
                for (p, info) in topo.ports(r).iter().enumerate() {
                    if let Peer::Router { router, port } = info.peer {
                        let back = topo.ports(router)[port as usize];
                        let Peer::Router { router: r2, port: p2 } = back.peer else {
                            panic!("router port pointing at a node")
                        };
                        assert_eq!((r2, p2 as usize), (r, p), "asymmetric wiring at {r}:{p}");
                        assert_eq!(back.class, info.class);
                    }
                }
            }
        }
    }

    /// The cached per-class delays agree with computing them per packet,
    /// for every packet length a message can be cut into.
    #[test]
    fn cached_link_timing_matches_transfer_time() {
        let small = [DragonflyConfig::small_1d(), DragonflyConfig::small_2d()];
        for cfg in all_configs().into_iter().chain(small) {
            let topo = Topology::build(cfg);
            let cfg = &topo.cfg;
            for class in [LinkClass::Terminal, LinkClass::Local, LinkClass::Global] {
                for bytes in 1..=cfg.packet_bytes {
                    let want = SimDuration::transfer_time(bytes as u64, cfg.bandwidth(class));
                    assert_eq!(topo.serialization(class, bytes), want, "{class:?} {bytes} B");
                }
                let hop = cfg.latency_ns(class) + cfg.router_delay_ns;
                assert_eq!(topo.hop_delay(class), SimDuration::from_ns(hop), "{class:?}");
            }
        }
    }

    #[test]
    fn radix_matches_config() {
        for cfg in all_configs() {
            let radix = cfg.radix() as usize;
            let topo = Topology::build(cfg);
            for r in 0..topo.cfg.total_routers() {
                assert_eq!(topo.ports(r).len(), radix);
            }
        }
    }

    #[test]
    fn every_group_pair_has_expected_links() {
        for cfg in all_configs() {
            let expect = cfg.links_per_group_pair() as usize;
            let topo = Topology::build(cfg);
            for a in 0..topo.cfg.groups {
                for b in 0..topo.cfg.groups {
                    let n = topo.gateways(a, b).len();
                    if a == b {
                        assert_eq!(n, 0);
                    } else {
                        assert_eq!(n, expect, "groups {a}->{b}");
                    }
                }
            }
        }
    }

    #[test]
    fn terminal_ports_round_trip() {
        let topo = Topology::build(DragonflyConfig::tiny_2d());
        for n in 0..topo.cfg.total_nodes() {
            let r = topo.node_router(n);
            let p = topo.node_terminal_port(n);
            let info = topo.ports(r)[p as usize];
            assert_eq!(info.peer, Peer::Node(n));
            assert_eq!(info.class, LinkClass::Terminal);
        }
    }

    #[test]
    fn local_connectivity_1d_is_all_to_all() {
        let topo = Topology::build(DragonflyConfig::tiny_1d());
        let rpg = topo.cfg.routers_per_group();
        for a in 0..rpg {
            for b in 0..rpg {
                if a != b {
                    let p = topo.local_port_to(a, b).unwrap();
                    let Peer::Router { router, .. } = topo.ports(a)[p as usize].peer else {
                        panic!()
                    };
                    assert_eq!(router, b);
                }
            }
        }
    }

    #[test]
    fn local_connectivity_2d_rows_and_columns() {
        let topo = Topology::build(DragonflyConfig::dragonfly_2d());
        // Router 0 = (row 0, col 0): direct to (0, 5) [same row] and
        // (3, 0) = local idx 48 [same column]; not to (1, 1) = idx 17.
        assert!(topo.local_port_to(0, 5).is_some());
        assert!(topo.local_port_to(0, 3 * 16).is_some());
        assert!(topo.local_port_to(0, 17).is_none());
        assert_eq!(topo.intra_hops(0, 17), 2);
        // Corners are (row 0, col 1) = 1 then (row 1, col 0) = 16.
        assert_eq!(topo.corners(0, 17), Some([1, 16]));
        assert_eq!(topo.corners(0, 5), None);
    }

    #[test]
    fn gateway_ports_actually_reach_target_group() {
        for cfg in all_configs() {
            let topo = Topology::build(cfg);
            for a in 0..topo.cfg.groups {
                for b in 0..topo.cfg.groups {
                    for &(r, p) in topo.gateways(a, b) {
                        assert_eq!(topo.router_group(r), a);
                        let Peer::Router { router, .. } = topo.ports(r)[p as usize].peer else {
                            panic!()
                        };
                        assert_eq!(topo.router_group(router), b);
                    }
                }
            }
        }
    }
}
