//! The model's decomposition and lookahead: the scheduler blocks the
//! builder installs, the static LP-to-LP delay edges, and the one
//! window derived from them (DESIGN.md §7).

use crate::event::LpMap;
use dragonfly::{FlowControl, Peer, Topology};

/// Scheduler block assignment for a topology — the topology-aware
/// partition `SimulationBuilder::build()` installs: each dragonfly group
/// forms one block together with its routers' attached nodes, so
/// terminal and local-link traffic stays on one worker thread and only
/// global-link events cross blocks.
pub(crate) fn partition_blocks(topo: &Topology) -> Vec<u32> {
    let n_nodes = topo.cfg.total_nodes();
    let n_routers = topo.cfg.total_routers();
    let mut blocks: Vec<u32> = Vec::with_capacity((n_nodes + n_routers) as usize);
    blocks.extend((0..n_nodes).map(|node| topo.node_group(node)));
    blocks.extend((0..n_routers).map(|router| topo.router_group(router)));
    blocks
}

/// One static LP-to-LP scheduling edge of the assembled model: `src_lp`
/// may schedule an event on `dst_lp` no sooner than `delay_ns` after the
/// current time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LpDelayEdge {
    pub src_lp: u32,
    pub dst_lp: u32,
    pub delay_ns: u64,
    /// `"terminal"`, `"packet"`, or `"credit"`.
    pub kind: &'static str,
}

impl LpDelayEdge {
    /// `<kind> edge <src> -> <dst>`, naming LPs as `node N` / `router R`.
    fn describe(&self, lpmap: LpMap) -> String {
        let name = |lp: u32| match lpmap.is_node(lp) {
            true => format!("node {lp}"),
            false => format!("router {}", lp - lpmap.n_nodes),
        };
        format!("{} edge {} -> {}", self.kind, name(self.src_lp), name(self.dst_lp))
    }
}

/// Every static cross-LP delay edge of the model built from `topo`,
/// using the same delay composition as the runtime paths:
///
/// * node↔router packets add the link propagation latency plus the
///   router traversal delay (serialization only increases the delay, so
///   the edge records the guaranteed minimum);
/// * router→router packets add link latency plus router delay
///   (`RouterState::occupy`, both through `Topology::hop_delay`);
/// * router→router credits (credit/VC flow control only) are sent after
///   exactly the upstream link latency (`credit_arrived`) — typically
///   the binding constraint for conservative lookahead.
pub(crate) fn lp_delay_edges(topo: &Topology) -> impl Iterator<Item = LpDelayEdge> + '_ {
    let cfg = &topo.cfg;
    let lpmap = LpMap { n_nodes: cfg.total_nodes() };
    let credits = matches!(cfg.flow, FlowControl::CreditVc { .. });
    (0..cfg.total_routers()).flat_map(move |r| {
        let r_lp = lpmap.router_lp(r);
        topo.ports(r).iter().flat_map(move |info| {
            let hop = topo.hop_delay(info.class).as_ns();
            let edge =
                |src_lp, dst_lp, delay_ns, kind| LpDelayEdge { src_lp, dst_lp, delay_ns, kind };
            let (there, back) = match info.peer {
                Peer::Node(node) => {
                    let n_lp = lpmap.node_lp(node);
                    (edge(n_lp, r_lp, hop, "terminal"), Some(edge(r_lp, n_lp, hop, "terminal")))
                }
                // Credits flow upstream: the peer acknowledges packets it
                // received from us over this link.
                Peer::Router { router, .. } => {
                    let peer = lpmap.router_lp(router);
                    let credit = || edge(peer, r_lp, cfg.latency_ns(info.class), "credit");
                    (edge(r_lp, peer, hop, "packet"), credits.then(credit))
                }
            };
            std::iter::once(there).chain(back)
        })
    })
}

/// The lookahead window of the assembled model, derived from its delay
/// edges and its block map (DESIGN.md §7): the minimum delay over the
/// edges between blocks, and the edge that sets it. Every conservative
/// schedule keeps a block on one thread, so every CODES run uses it,
/// whatever lookahead its scheduler carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Window {
    pub ns: u64,
    /// `<kind> edge <src> -> <dst>`, e.g. `packet edge router 0 -> router 4`.
    pub edge: String,
}

impl Window {
    /// The window of the model built on `topo`, under the partition
    /// `build` installs. `Err` names the edge when any edge has zero
    /// delay: no positive lookahead is then safe for any parallel
    /// schedule.
    pub fn of(topo: &Topology) -> Result<Window, String> {
        Window::derive(topo, &partition_blocks(topo))
    }

    /// One pass over the delay edges, keeping the first edge of least
    /// delay overall and among those that cross `blocks`.
    pub(crate) fn derive(topo: &Topology, blocks: &[u32]) -> Result<Window, String> {
        let (mut block, mut any) = (None::<LpDelayEdge>, None::<LpDelayEdge>);
        let keep = |min: &mut Option<LpDelayEdge>, e: LpDelayEdge| {
            if min.is_none_or(|m| e.delay_ns < m.delay_ns) {
                *min = Some(e);
            }
        };
        lp_delay_edges(topo).for_each(|e| {
            if blocks[e.src_lp as usize] != blocks[e.dst_lp as usize] {
                keep(&mut block, e);
            }
            keep(&mut any, e);
        });
        let lpmap = LpMap { n_nodes: topo.cfg.total_nodes() };
        let any = any.ok_or("the model has no delay edges to derive a lookahead window from")?;
        if any.delay_ns == 0 {
            return Err(format!(
                "zero-delay {}; no positive lookahead window is safe for this model",
                any.describe(lpmap)
            ));
        }
        // One block synchronizes nothing; the least edge delay keeps the
        // window finite.
        let e = block.unwrap_or(any);
        Ok(Window { ns: e.delay_ns, edge: e.describe(lpmap) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly::DragonflyConfig;

    fn lpmap(topo: &Topology) -> LpMap {
        LpMap { n_nodes: topo.cfg.total_nodes() }
    }

    /// Each router a block of its own, with its attached nodes: local
    /// links now cross blocks, terminal links still do not.
    fn router_blocks(topo: &Topology) -> Vec<u32> {
        let nodes = (0..topo.cfg.total_nodes()).map(|n| topo.node_router(n));
        nodes.chain(0..topo.cfg.total_routers()).collect()
    }

    /// The first edge of least delay among those `keep` accepts.
    fn min_edge(topo: &Topology, keep: impl Fn(&LpDelayEdge) -> bool) -> LpDelayEdge {
        lp_delay_edges(topo)
            .filter(keep)
            .reduce(|m, e| if e.delay_ns < m.delay_ns { e } else { m })
            .unwrap()
    }

    #[test]
    fn min_delay_ignores_intra_partition_edges() {
        let topo = Topology::build(DragonflyConfig::tiny_1d());
        let cfg = &topo.cfg;
        let blocks = partition_blocks(&topo);
        let crosses = |e: &LpDelayEdge| blocks[e.src_lp as usize] != blocks[e.dst_lp as usize];
        // Group blocks: the cheaper terminal and local edges stay inside
        // a block, so only global packets bound the window.
        let w = Window::derive(&topo, &blocks).unwrap();
        assert_eq!(w.ns, min_edge(&topo, crosses).delay_ns);
        assert_eq!(w.ns, cfg.global_latency_ns + cfg.router_delay_ns);
        assert!(lp_delay_edges(&topo).any(|e| !crosses(&e) && e.delay_ns < w.ns));
        // Router blocks: local packets cross too and set a smaller window.
        let w = Window::derive(&topo, &router_blocks(&topo)).unwrap();
        assert_eq!(w.ns, cfg.local_latency_ns + cfg.router_delay_ns);
        assert!(w.edge.starts_with("packet edge router "), "{w:?}");
        // One LP per block: every edge crosses, so the cheapest edge of
        // all, a terminal link, sets the window.
        let own: Vec<u32> = (0..blocks.len() as u32).collect();
        let w = Window::derive(&topo, &own).unwrap();
        assert_eq!(w.ns, min_edge(&topo, |_| true).delay_ns);
        assert!(w.edge.starts_with("terminal edge node "), "{w:?}");
    }

    #[test]
    fn window_names_the_edge_that_sets_it() {
        let topo = Topology::build(DragonflyConfig::tiny_1d());
        let blocks = partition_blocks(&topo);
        let w = Window::derive(&topo, &blocks).unwrap();
        let block = min_edge(&topo, |e| blocks[e.src_lp as usize] != blocks[e.dst_lp as usize]);
        assert_eq!(w, Window { ns: block.delay_ns, edge: block.describe(lpmap(&topo)) });
        let (src, dst) = (block.src_lp - lpmap(&topo).n_nodes, block.dst_lp - lpmap(&topo).n_nodes);
        assert_eq!(w.edge, format!("packet edge router {src} -> router {dst}"));
        assert_ne!(topo.router_group(src), topo.router_group(dst));
    }

    #[test]
    fn zero_delay_cross_edge_is_always_an_error() {
        // A zero-delay edge is an error whichever blocks it joins: global
        // links cross groups, local links do not.
        let global = DragonflyConfig {
            global_latency_ns: 0,
            router_delay_ns: 0,
            ..DragonflyConfig::tiny_1d()
        };
        let local = DragonflyConfig {
            local_latency_ns: 0,
            router_delay_ns: 0,
            ..DragonflyConfig::tiny_1d()
        };
        for (cfg, same_group) in [(global, false), (local, true)] {
            let topo = Topology::build(cfg);
            let zero = min_edge(&topo, |_| true);
            assert_eq!(zero.delay_ns, 0);
            let n_nodes = lpmap(&topo).n_nodes;
            let (src, dst) = (zero.src_lp - n_nodes, zero.dst_lp - n_nodes);
            assert_eq!(topo.router_group(src) == topo.router_group(dst), same_group);
            let one = vec![0; topo.cfg.total_nodes() as usize + topo.cfg.total_routers() as usize];
            for blocks in [partition_blocks(&topo), router_blocks(&topo), one] {
                let e = Window::derive(&topo, &blocks).unwrap_err();
                assert!(
                    e.starts_with(&format!("zero-delay packet edge router {src} -> router {dst};")),
                    "{e}"
                );
            }
        }
    }
}
