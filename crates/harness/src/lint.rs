//! What `union-exp lint` says about the assembled model: the lookahead
//! window `codes` derives on each network of a sweep (DESIGN.md §7).

use crate::sweep::SweepConfig;
use dragonfly::Topology;
use union_lint::{Diagnostic, Report};

/// One `info` per network of `cfg` naming the window [`codes::Window`]
/// derives there and the edge that sets it, or the `zero-delay` error
/// that leaves no safe window.
pub fn window_report(cfg: &SweepConfig) -> Report {
    let mut out = Report::new();
    for &net in &cfg.nets {
        let at = net.label();
        match codes::Window::of(&Topology::build(cfg.net_config(net))) {
            Ok(w) => out.push(Diagnostic::info(
                "window",
                format!(
                    "{at} network: block window {} ns ({}) for par:T and async:T",
                    w.ns, w.edge
                ),
            )),
            Err(e) => out.push(Diagnostic::error("zero-delay", format!("{at} network: {e}"))),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Net;
    use dragonfly::{DragonflyConfig, FlowControl, Peer};
    use union_lint::Severity;

    fn window(cfg: &SweepConfig, net: Net) -> codes::Window {
        codes::Window::of(&Topology::build(cfg.net_config(net))).unwrap()
    }

    #[test]
    fn sweep_par_window_is_derived_per_net_and_flow() {
        let mut cfg = SweepConfig::smoke();
        for net in [Net::OneD, Net::TwoD] {
            // Busy-until flow: blocks are groups, so only global packets
            // cross them (global latency plus router delay).
            let w = window(&cfg, net);
            assert_eq!(w.ns, 550, "{net:?}: {w:?}");
            assert!(w.edge.starts_with("packet edge router "), "{w:?}");
        }
        // Credit flow adds latency-only credit edges: a smaller window.
        cfg.flow = FlowControl::credit_default();
        let w = window(&cfg, Net::OneD);
        assert_eq!(w.ns, 500, "{w:?}");
        assert!(w.edge.starts_with("credit edge"), "{w:?}");
    }

    #[test]
    fn tiny_model_par_window_is_the_min_cross_partition_delay() {
        // Recomputed from the topology alone: blocks are dragonfly
        // groups, a node shares its router's group, and a router-to-router
        // packet pays link latency plus the router delay.
        let topo = Topology::build(DragonflyConfig::tiny_1d());
        let cfg = &topo.cfg;
        let min = (0..cfg.total_routers())
            .flat_map(|r| topo.ports(r).iter().map(move |p| (r, p)))
            .filter_map(|(r, p)| match p.peer {
                Peer::Router { router, .. }
                    if topo.router_group(router) != topo.router_group(r) =>
                {
                    Some(cfg.latency_ns(p.class) + cfg.router_delay_ns)
                }
                _ => None,
            })
            .min()
            .expect("multi-group model");
        let w = codes::Window::of(&topo).unwrap();
        assert_eq!(w.ns, min, "{w:?}");
        assert!(w.edge.starts_with("packet edge router "), "{w:?}");
    }

    /// `async:T` keeps every block on one worker, like `par:T`, so both
    /// run at the one window: on both nets and both flows it is positive
    /// and wider than the cheapest (intra-group) edge.
    #[test]
    fn sweep_async_lookahead_shares_the_par_bound() {
        let mut cfg = SweepConfig::smoke();
        for flow in [FlowControl::BusyUntil, FlowControl::credit_default()] {
            cfg.flow = flow;
            for net in [Net::OneD, Net::TwoD] {
                let w = window(&cfg, net);
                let c = cfg.net_config(net);
                let cheapest = c.local_latency_ns.min(c.global_latency_ns);
                assert!(0 < cheapest && cheapest < w.ns, "{net:?}: {w:?}");
            }
        }
    }

    #[test]
    fn lint_reports_the_window_of_each_net() {
        let cfg = SweepConfig { nets: vec![Net::OneD, Net::TwoD], ..SweepConfig::smoke() };
        let r = window_report(&cfg);
        assert_eq!(r.len(), 2, "{r}");
        assert_eq!(r.max_severity(), Some(Severity::Info), "{r}");
        let first = &r.iter().next().unwrap().message;
        assert!(
            first.starts_with("1D network: block window 550 ns (packet edge router "),
            "{first}"
        );
        assert!(first.ends_with(") for par:T and async:T"), "{first}");
    }

    /// A zero-delay edge is the builder's error, and lint reports it as
    /// the finding `union-exp lint` exits 1 on.
    #[test]
    fn zero_delay_edge_leaves_no_window_and_names_the_pair() {
        let net_cfg = DragonflyConfig {
            local_latency_ns: 0,
            router_delay_ns: 0,
            ..DragonflyConfig::tiny_1d()
        };
        let e = codes::SimulationBuilder::new(net_cfg.clone())
            .job_sources("app", Vec::new())
            .build()
            .err()
            .expect("a zero-delay model builds no simulation");
        assert!(e.starts_with("zero-delay packet edge router "), "{e}");
        assert!(e.contains(" -> router "), "{e}");
        assert_eq!(codes::Window::of(&Topology::build(net_cfg)), Err(e));
    }
}
