//! Glue between `union-lint` and the assembled experiment: extract the LP
//! delay graph from a built topology and derive from it the lookahead
//! window a parallel schedule runs with (DESIGN.md §7).

use crate::run::Sched;
use crate::sweep::SweepConfig;
use dragonfly::Topology;
use union_lint::model::{DelayEdge, ModelGraph, Shape};
use union_lint::{Diagnostic, Report};

/// The static LP delay graph of a built topology, with the partition
/// assignment the conservative-parallel scheduler would use.
pub fn model_graph(topo: &Topology) -> ModelGraph {
    let edges = codes::lp_delay_edges(topo)
        .into_iter()
        .map(|e| DelayEdge {
            src_lp: e.src_lp,
            dst_lp: e.dst_lp,
            delay_ns: e.delay_ns,
            kind: e.kind,
        })
        .collect();
    ModelGraph::new(codes::partition_blocks(topo), edges).with_names(codes::lp_names(topo))
}

/// A derived lookahead window and the edge that sets it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Window {
    pub ns: u64,
    /// `<kind> edge <src> -> <dst>`.
    pub edge: String,
}

/// The lookahead window `sched` runs the model built on `topo` with: the
/// minimum delay over the edges the schedule synchronizes. `par:T` and
/// `async:T` make the same per-partition promise, so both synchronize
/// every cross-block edge (so does `seq`, were it asked: the window any
/// in-process parallel run of the model would get). `shard:N:T` mirrors
/// `run_sharded`: shards own whole partition blocks (dealt by the same
/// deterministic bin-packer), so cross-shard edges bind the window, plus
/// intra-shard cross-block edges when `T > 1`. Every shard of a gang
/// builds the same model and so derives the same window. `Err`: no
/// positive window is safe.
pub fn window(topo: &Topology, sched: &Sched) -> Result<Window, Report> {
    let g = model_graph(topo);
    let shard_of;
    let shape = match *sched {
        Sched::Shard(s) => {
            let part = ross::Partition::from_blocks(g.block_of.clone());
            shard_of = ross::shard::shard_owner_map(Some(&part), g.block_of.len(), s.shards);
            Shape::Shards { shard_of: &shard_of, threads: s.threads }
        }
        _ => Shape::Blocks,
    };
    let (ns, e) = g.window(shape)?;
    Ok(Window { ns, edge: g.describe(e) })
}

/// What `union-exp lint` says about the model: one `info` per network of
/// `cfg` naming the window `sched` derives there and the edge that sets
/// it, or the errors that leave no safe window.
pub fn window_report(cfg: &SweepConfig, sched: &Sched) -> Report {
    let label = match sched {
        Sched::Seq => "par".to_string(),
        s => s.to_string(),
    };
    let mut out = Report::new();
    for &net in &cfg.nets {
        let at = net.label();
        match window(&Topology::build(cfg.net_config(net)), sched) {
            Ok(w) => out.push(Diagnostic::info(
                "window",
                format!("{at} network: {label} window {} ns ({})", w.ns, w.edge),
            )),
            Err(errors) => {
                for d in errors.iter() {
                    let mut d = d.clone();
                    d.message = format!("{at} network: {}", d.message);
                    out.push(d);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardSpec;
    use crate::sweep::Net;
    use dragonfly::{DragonflyConfig, FlowControl};
    use union_lint::Severity;

    fn shard(shards: usize, threads: usize) -> Sched {
        Sched::Shard(ShardSpec { shards, threads })
    }

    fn on(cfg: &SweepConfig, net: Net, sched: Sched) -> Window {
        window(&Topology::build(cfg.net_config(net)), &sched)
            .unwrap_or_else(|r| panic!("{sched}: {r}"))
    }

    fn ns(cfg: &SweepConfig, net: Net, sched: Sched) -> u64 {
        on(cfg, net, sched).ns
    }

    #[test]
    fn tiny_model_par_window_is_the_min_cross_partition_delay() {
        let topo = Topology::build(DragonflyConfig::tiny_1d());
        let g = model_graph(&topo);
        let (min, e) = g.min_cross_partition_delay().expect("multi-router model");
        // Partitions are router-rooted, so node<->router edges are
        // internal and the binding edge is router-to-router.
        assert!(e.kind == "packet" || e.kind == "credit");
        assert_eq!(g.window(Shape::Blocks).unwrap(), (min, e));
    }

    #[test]
    fn sweep_par_window_is_derived_per_net_and_flow() {
        let mut cfg = SweepConfig::smoke();
        let par = Sched::Par { threads: 2 };
        let w = on(&cfg, Net::OneD, par);
        // Busy-until flow: router-to-router packets, link latency plus
        // router delay.
        assert_eq!(w.ns, 150, "{w:?}");
        assert!(w.edge.starts_with("packet edge router ") && w.edge.contains(" -> router "));
        assert_eq!(ns(&cfg, Net::TwoD, par), 150);
        // Credit flow adds latency-only credit edges: a smaller window.
        cfg.flow = FlowControl::credit_default();
        let credit = on(&cfg, Net::OneD, par);
        assert!(credit.ns < w.ns && credit.edge.starts_with("credit edge"), "{credit:?}");
    }

    #[test]
    fn sweep_async_lookahead_shares_the_par_bound() {
        let cfg = SweepConfig::smoke();
        for net in [Net::OneD, Net::TwoD] {
            let par = ns(&cfg, net, Sched::Par { threads: 2 });
            assert_eq!(ns(&cfg, net, Sched::Async { threads: 2 }), par);
            assert_eq!(ns(&cfg, net, Sched::Seq), par);
        }
    }

    #[test]
    fn sweep_shard_window_binds_blocks_only_with_threads() {
        let cfg = SweepConfig::smoke();
        let par = ns(&cfg, Net::OneD, Sched::Par { threads: 2 });
        // Threads inside a shard synchronize cross-block edges too.
        assert_eq!(ns(&cfg, Net::OneD, shard(2, 2)), par);
        assert_eq!(ns(&cfg, Net::OneD, shard(1, 4)), par);
        // One shard of one thread synchronizes nothing: the window is the
        // model's minimum edge, still finite.
        let g = model_graph(&Topology::build(Net::OneD.config(cfg.profile)));
        let min = g.edges.iter().map(|e| e.delay_ns).min().unwrap();
        assert_eq!(ns(&cfg, Net::OneD, shard(1, 1)), min);
    }

    #[test]
    fn shard_map_is_coarser_than_blocks() {
        // Shards own whole blocks, so shard:2:1 can only relax the window
        // par gets on the same model.
        let cfg = SweepConfig::smoke();
        for net in [Net::OneD, Net::TwoD] {
            let par = ns(&cfg, net, Sched::Par { threads: 2 });
            let w = on(&cfg, net, shard(2, 1));
            assert!(w.ns >= par, "{net:?}: {w:?} < {par}");
        }
    }

    #[test]
    fn lint_reports_the_window_of_each_net() {
        let cfg = SweepConfig { nets: vec![Net::OneD, Net::TwoD], ..SweepConfig::smoke() };
        let r = window_report(&cfg, &Sched::Seq);
        assert_eq!(r.len(), 2, "{r}");
        assert_eq!(r.max_severity(), Some(Severity::Info), "{r}");
        let first = &r.iter().next().unwrap().message;
        assert!(first.starts_with("1D network: par window 150 ns (packet edge router "), "{first}");
        let r = window_report(&cfg, &Sched::Async { threads: 2 });
        assert!(r.iter().all(|d| d.message.contains(": async:2 window ")), "{r}");
        let r = window_report(&cfg, &shard(2, 1));
        assert!(r.iter().all(|d| d.message.contains(": shard:2:1 window ")), "{r}");
    }

    #[test]
    fn zero_delay_edge_leaves_no_window_and_names_the_pair() {
        let net_cfg = DragonflyConfig {
            local_latency_ns: 0,
            router_delay_ns: 0,
            ..DragonflyConfig::tiny_1d()
        };
        let r = window(&Topology::build(net_cfg), &Sched::Par { threads: 2 }).unwrap_err();
        // The severity `union-exp lint` exits 1 on.
        assert!(r.max_severity() >= Some(Severity::Warning), "{r}");
        let d = r.iter().next().unwrap();
        assert_eq!(d.code, "zero-delay");
        assert!(d.message.starts_with("zero-delay packet edge router "), "{r}");
        assert!(d.message.contains(" -> router "), "{r}");
    }
}
