//! # codes
//!
//! The composed CODES-style simulation (paper Fig 2/3): Union rank
//! processes execute skeletons in situ; their `UNION_MPI_X` operations
//! flow through the `mpi-sim` matching/transfer layer; messages are
//! packetized by self-clocking NICs and forwarded by congestion-sensing
//! dragonfly routers; everything runs on the `ross-pdes` engine under any
//! of its three schedulers.
//!
//! ```
//! use codes::SimulationBuilder;
//! use dragonfly::{DragonflyConfig, Routing};
//! use placement::Placement;
//! use ross::{Scheduler, SimTime};
//! use union_core::{translate_source, RankVm, SkeletonInstance};
//!
//! let skel = translate_source(
//!     "for 2 repetitions { task 0 sends a 4096 byte message to task 1 then \
//!      task 1 sends a 4096 byte message to task 0 }.",
//!     "pingpong",
//! ).unwrap();
//! let inst = SkeletonInstance::new(&skel, 2, &[]).unwrap();
//! let vms: Vec<RankVm> = (0..2).map(|r| RankVm::new(inst.clone(), r, 1)).collect();
//!
//! let mut sim = SimulationBuilder::new(DragonflyConfig::tiny_1d())
//!     .routing(Routing::Minimal)
//!     .placement(Placement::RandomGroups)
//!     .job("pingpong", vms)
//!     .build()
//!     .unwrap();
//! let results = sim.run(Scheduler::Sequential, SimTime::MAX);
//! assert!(results.apps[0].all_done());
//! ```

pub mod event;
pub mod model;
pub mod node;
pub mod router_lp;
pub mod shared;
pub mod sim;
pub mod wire;

pub use event::Event;
pub use model::{Window, Windows};
pub use sim::{AppResult, CodesSim, JobSpec, SimResults, SimulationBuilder};
pub use wire::CodesEventCodec;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{lp_delay_edges, partition_blocks, LpDelayEdge};
    use dragonfly::{DragonflyConfig, Routing};
    use placement::Placement;
    use ross::{Scheduler, SimDuration, SimTime};
    use union_core::{translate_source, RankVm, SkeletonInstance};

    /// A lookahead far beyond every delay edge of the model: were it
    /// used, a conservative run would trip the lookahead panic.
    const TOO_WIDE: SimDuration = SimDuration::from_ns(1_000_000);

    /// `par:T` and `async:T`: CODES runs each at the model's own window,
    /// whatever lookahead the scheduler carries.
    fn parallel(threads: usize) -> [Scheduler; 2] {
        [
            Scheduler::ConservativeParallel { threads, lookahead: TOO_WIDE },
            Scheduler::ConservativeAsync { threads, lookahead: TOO_WIDE },
        ]
    }

    fn vms(src: &str, n: u32) -> Vec<RankVm> {
        let skel = translate_source(src, "app").unwrap();
        let inst = SkeletonInstance::new(&skel, n, &[]).unwrap();
        (0..n).map(|r| RankVm::new(inst.clone(), r, 1)).collect()
    }

    fn run_one(src: &str, n: u32, routing: Routing, placement: Placement) -> SimResults {
        let mut sim = SimulationBuilder::new(DragonflyConfig::tiny_1d())
            .routing(routing)
            .placement(placement)
            .job("app", vms(src, n))
            .build()
            .unwrap();
        sim.run(Scheduler::Sequential, SimTime::MAX)
    }

    #[test]
    fn ping_pong_latency_is_plausible() {
        let r = run_one(
            "for 10 repetitions { task 0 sends a 1024 byte message to task 1 then \
             task 1 sends a 1024 byte message to task 0 }.",
            2,
            Routing::Minimal,
            Placement::RandomGroups,
        );
        let app = &r.apps[0];
        assert!(app.all_done());
        assert_eq!(app.latency[0].count, 10);
        assert_eq!(app.latency[1].count, 10);
        // One-hop-ish latency: at least link latencies (~300ns), below 1ms.
        assert!(app.latency[1].min_ns > 200, "{:?}", app.latency[1]);
        assert!(app.latency[1].max_ns < 1_000_000);
        // Makespan covers 20 message trips.
        assert!(app.makespan_ns().unwrap() > 10 * app.latency[1].min_ns);
    }

    #[test]
    fn all_schedulers_agree_bit_exactly() {
        let src = "for 3 repetitions { all tasks t asynchronously send a 60000 byte \
                   message to task (t+1) mod num_tasks then all tasks await completions } \
                   then all tasks reduce a 100000 byte message to all tasks.";
        let mut fingerprints = Vec::new();
        for sched in std::iter::once(Scheduler::Sequential).chain(parallel(4)) {
            let mut sim = SimulationBuilder::new(DragonflyConfig::tiny_1d())
                .routing(Routing::Adaptive)
                .placement(Placement::RandomNodes)
                .job("app", vms(src, 12))
                .build()
                .unwrap();
            let r = sim.run(sched, SimTime::MAX);
            let app = &r.apps[0];
            assert!(app.all_done(), "{sched:?}");
            let fp: Vec<(u64, u64, u64)> = app
                .latency
                .iter()
                .zip(&app.finished_at_ns)
                .map(|(l, f)| (l.count, l.sum_ns, f.unwrap()))
                .collect();
            fingerprints.push((fp, r.link_load));
        }
        assert!(fingerprints.iter().all(|f| *f == fingerprints[0]), "conservative != sequential");
    }

    /// Three senders' multi-packet messages reach one node at once, their
    /// packets interleaved: each message is reassembled and handed to the
    /// rank exactly once.
    #[test]
    fn interleaved_multi_packet_messages_each_arrive_once() {
        let r = run_one(
            "for 4 repetitions { tasks t such that t > 0 asynchronously send a 40000 byte \
             message to task 0 then all tasks await completions }.",
            4,
            Routing::Minimal,
            Placement::RandomNodes,
        );
        let app = &r.apps[0];
        assert!(app.all_done() && !app.failed(), "{:?}", app.errors);
        assert_eq!(app.latency[0].count, 3 * 4);
        assert!(app.latency[1..].iter().all(|l| l.count == 0));
    }

    #[test]
    fn rendezvous_messages_cross_the_network() {
        // 1 MiB >> eager threshold: RTS/CTS/Data must still deliver.
        let r = run_one(
            "task 0 sends a 1048576 byte message to task 8.",
            9,
            Routing::Minimal,
            Placement::RandomNodes,
        );
        assert!(r.apps[0].all_done());
        assert_eq!(r.apps[0].latency.iter().map(|l| l.count).sum::<u64>(), 1);
        // Latency of a 1 MiB transfer at 16 GiB/s is at least ~61 us.
        let lat = r.apps[0].latency.iter().find(|l| l.count > 0).unwrap();
        assert!(lat.max_ns > 60_000, "{lat:?}");
    }

    #[test]
    fn collectives_finish_on_the_network() {
        for n in [5u32, 8, 13] {
            let r = run_one(
                "all tasks reduce a 200000 byte message to all tasks then \
                 task 0 multicasts a 64 byte message to all other tasks then \
                 all tasks synchronize.",
                n,
                Routing::Adaptive,
                Placement::RandomRouters,
            );
            assert!(r.apps[0].all_done(), "n={n}");
        }
    }

    #[test]
    fn two_jobs_interfere_but_complete() {
        let a = vms(
            "for 5 repetitions { all tasks t asynchronously send a 100000 byte message \
             to task (t+1) mod num_tasks then all tasks await completions }.",
            8,
        );
        let b = vms("all tasks reduce a 500000 byte message to all tasks.", 8);
        let mut sim = SimulationBuilder::new(DragonflyConfig::tiny_1d())
            .routing(Routing::Adaptive)
            .placement(Placement::RandomNodes)
            .job("ring", a)
            .job("allreduce", b)
            .build()
            .unwrap();
        let r = sim.run(Scheduler::Sequential, SimTime::MAX);
        assert_eq!(r.apps.len(), 2);
        assert!(r.apps[0].all_done() && r.apps[1].all_done());
        assert!(r.link_load.local_bytes > 0);
    }

    #[test]
    fn link_load_accounting_sums_all_classes() {
        let r = run_one(
            "all tasks t asynchronously send a 50000 byte message to \
             task (t + num_tasks/2) mod num_tasks then all tasks await completions.",
            16,
            Routing::Minimal,
            Placement::RandomNodes,
        );
        // Messages crossed groups, so both local and global links were hit.
        assert!(r.link_load.global_bytes > 0);
        assert!(r.link_load.terminal_bytes > 0);
        let topo_links = r.link_load.n_global_links;
        // tiny_1d: 9 groups * 4 routers * 2 global ports = 72 directed.
        assert_eq!(topo_links, 72);
        assert_eq!(r.link_load.n_local_links, 9 * 4 * 3);
    }

    #[test]
    fn window_counters_produce_series() {
        let a = vms(
            "for 20 repetitions { all tasks t asynchronously send a 60000 byte message \
             to task (t+3) mod num_tasks then all tasks await completions }.",
            12,
        );
        let mut sim = SimulationBuilder::new(DragonflyConfig::tiny_1d())
            .routing(Routing::Adaptive)
            .placement(Placement::RandomGroups)
            .window_ns(500_000)
            .job("app", a)
            .build()
            .unwrap();
        let r = sim.run(Scheduler::Sequential, SimTime::MAX);
        assert!(!r.router_windows.is_empty());
        let mut routers: Vec<u32> = r.router_windows.iter().map(|(r, _)| *r).collect();
        routers.sort_unstable();
        let ts = r.series_over(&routers, 500_000);
        assert!(ts.total(0) > 0);
    }

    #[test]
    fn credit_vc_mode_completes_and_differs() {
        use dragonfly::FlowControl;
        let src = "for 6 repetitions { all tasks t asynchronously send a 120000 byte \
                   message to task (t + num_tasks/2) mod num_tasks \
                   then all tasks await completions }.";
        let run = |flow: FlowControl| {
            let mut cfg = DragonflyConfig::tiny_1d();
            cfg.flow = flow;
            let mut sim = SimulationBuilder::new(cfg)
                .routing(Routing::Minimal)
                .placement(Placement::RandomNodes)
                .seed(8)
                .job("app", vms(src, 24))
                .build()
                .unwrap();
            sim.run(Scheduler::Sequential, SimTime::MAX)
        };
        let bu = run(FlowControl::BusyUntil);
        let vc = run(FlowControl::credit_default());
        assert!(bu.apps[0].all_done());
        assert!(vc.apps[0].all_done(), "credit mode must not deadlock");
        // Same traffic crossed the network in both modes.
        assert_eq!(bu.apps[0].bytes_sent, vc.apps[0].bytes_sent);
        // Backpressure slows (or at least never speeds up) the congested
        // exchange relative to unbounded buffers.
        let m_bu = bu.apps[0].makespan_ns().unwrap();
        let m_vc = vc.apps[0].makespan_ns().unwrap();
        assert!(m_vc >= m_bu, "credit {m_vc} vs busy-until {m_bu}");
    }

    #[test]
    fn credit_vc_schedulers_agree() {
        use dragonfly::FlowControl;
        let src = "for 3 repetitions { all tasks t asynchronously send a 60000 byte \
                   message to task (t+1) mod num_tasks then all tasks await completions }.";
        let fp = |sched: Scheduler| {
            let mut cfg = DragonflyConfig::tiny_1d();
            cfg.flow = FlowControl::credit_default();
            let mut sim = SimulationBuilder::new(cfg)
                .routing(Routing::Adaptive)
                .placement(Placement::RandomNodes)
                .seed(4)
                .job("app", vms(src, 12))
                .build()
                .unwrap();
            let r = sim.run(sched, SimTime::MAX);
            assert!(r.apps[0].all_done(), "{sched:?}");
            let lat: Vec<(u64, u64)> =
                r.apps[0].latency.iter().map(|l| (l.count, l.sum_ns)).collect();
            (lat, r.link_load)
        };
        let seq = fp(Scheduler::Sequential);
        for sched in parallel(4) {
            assert_eq!(seq, fp(sched), "{sched:?}");
        }
    }

    #[test]
    fn symmetric_rendezvous_exchange_completes() {
        // Regression: both partners Isend large payloads to each other at
        // the same time, so their message sequence numbers coincide. The
        // CTS each sends back must not collide with the peer's own
        // in-flight messages in packet reassembly (it once reused the RTS
        // seq as its wire id and deadlocked Rabenseifner rounds).
        let r = run_one(
            "for 8 repetitions { all tasks t asynchronously send a 300000 byte message \
             to task (t + num_tasks/2) mod num_tasks then all tasks await completions }.",
            16,
            Routing::Minimal,
            Placement::RandomNodes,
        );
        assert!(r.apps[0].all_done());
        assert_eq!(r.apps[0].latency.iter().map(|l| l.count).sum::<u64>(), 16 * 8);
    }

    #[test]
    fn trace_replay_reproduces_skeleton_run_exactly() {
        // Table I: a trace recorded from the application must drive the
        // simulator to the identical result as the in-situ skeleton.
        use std::sync::Arc;
        use union_core::{SkeletonInstance, Trace};
        let skel = translate_source(
            "for 4 repetitions { all tasks t asynchronously send a 80000 byte message \
             to task (t+3) mod num_tasks then all tasks await completions } \
             then all tasks reduce a 150000 byte message to all tasks.",
            "app",
        )
        .unwrap();
        let inst = SkeletonInstance::new(&skel, 10, &[]).unwrap();
        let trace = Arc::new(Trace::record(&inst, 1));

        let fingerprint = |r: &SimResults| {
            let a = &r.apps[0];
            let lat: Vec<(u64, u64)> = a.latency.iter().map(|l| (l.count, l.sum_ns)).collect();
            (lat, a.finished_at_ns.clone(), r.link_load)
        };
        let mut s1 = SimulationBuilder::new(DragonflyConfig::tiny_1d())
            .seed(6)
            .job("app", (0..10).map(|r| RankVm::new(inst.clone(), r, 1)).collect())
            .build()
            .unwrap();
        let r1 = s1.run(Scheduler::Sequential, SimTime::MAX);
        let mut s2 = SimulationBuilder::new(DragonflyConfig::tiny_1d())
            .seed(6)
            .job_trace("app", &trace)
            .build()
            .unwrap();
        let r2 = s2.run(Scheduler::Sequential, SimTime::MAX);
        assert_eq!(fingerprint(&r1), fingerprint(&r2));
    }

    #[test]
    fn until_bound_stops_early() {
        let a = vms(
            "for 1000 repetitions { task 0 sends a 100000 byte message to task 1 then \
             task 1 sends a 100000 byte message to task 0 }.",
            2,
        );
        let mut sim =
            SimulationBuilder::new(DragonflyConfig::tiny_1d()).job("app", a).build().unwrap();
        let r = sim.run(Scheduler::Sequential, SimTime::from_us(200));
        assert!(!r.apps[0].all_done());
        assert!(sim.pending_events() > 0);
    }

    #[test]
    fn partition_blocks_group_nodes_with_their_router() {
        let topo = dragonfly::Topology::build(DragonflyConfig::tiny_1d());
        let blocks = partition_blocks(&topo);
        let n_nodes = topo.cfg.total_nodes();
        assert_eq!(blocks.len(), (n_nodes + topo.cfg.total_routers()) as usize);
        for n in 0..n_nodes {
            // A node shares its block with its attached router, and a
            // block is a whole dragonfly group.
            let router = topo.node_router(n);
            assert_eq!(blocks[n as usize], blocks[(n_nodes + router) as usize]);
            assert_eq!(blocks[n as usize], topo.router_group(router));
        }
        let mut groups = blocks.clone();
        groups.sort_unstable();
        groups.dedup();
        assert_eq!(groups.len() as u32, topo.cfg.groups);
    }

    #[test]
    fn delay_edges_match_runtime_delay_composition() {
        use dragonfly::{FlowControl, LinkClass, Topology};
        let topo = Topology::build(DragonflyConfig::tiny_1d());
        let cfg = &topo.cfg;
        let blocks = partition_blocks(&topo);
        let crosses = |e: &LpDelayEdge| blocks[e.src_lp as usize] != blocks[e.dst_lp as usize];
        // BusyUntil: only packets cross routers, each paying link latency
        // plus the router traversal delay. Only global links leave a
        // group; local links are the cheapest hop.
        assert!(lp_delay_edges(&topo).all(|e| e.kind != "credit"));
        assert!(lp_delay_edges(&topo).filter(|e| e.kind == "terminal").all(|e| !crosses(&e)));
        let global = cfg.latency_ns(LinkClass::Global);
        assert!(lp_delay_edges(&topo).filter(crosses).all(|e| e.delay_ns >= global));
        let w = Windows::of(&topo).unwrap();
        assert_eq!(w.block.ns, cfg.global_latency_ns + cfg.router_delay_ns);
        assert_eq!(w.lp.ns, cfg.local_latency_ns + cfg.router_delay_ns);
        assert_eq!((w.block.ns, w.lp.ns), (550, 150));
        assert!(w.block.edge.starts_with("packet edge router "), "{w:?}");

        // Credit/VC: upstream credits pay exactly the link latency — the
        // tighter constraint (matches `credit_arrived`'s `at = now + latency`).
        let mut cfg2 = DragonflyConfig::tiny_1d();
        cfg2.flow = FlowControl::credit_default();
        let topo2 = Topology::build(cfg2);
        assert!(lp_delay_edges(&topo2).any(|e| e.kind == "credit"));
        let w = Windows::of(&topo2).unwrap();
        assert_eq!(
            (w.block.ns, w.lp.ns),
            (topo2.cfg.global_latency_ns, topo2.cfg.local_latency_ns)
        );
        assert_eq!((w.block.ns, w.lp.ns), (500, 100));
        assert!(w.lp.edge.starts_with("credit edge router "), "{w:?}");
    }

    #[test]
    fn one_block_window_falls_back_to_the_lp_window() {
        // Nothing crosses a single block; the block window stays finite.
        let topo = dragonfly::Topology::build(DragonflyConfig::tiny_1d());
        let one = vec![0; partition_blocks(&topo).len()];
        let w = Windows::derive(&topo, &one).unwrap();
        assert_eq!(w.block, w.lp);
        assert_eq!(w.lp, Windows::of(&topo).unwrap().lp);
    }

    /// The engine parks a pending event's tiebreak, destination and
    /// payload in its pool; at paper scale that slab is most of the
    /// pending set's memory, so its size is pinned exactly (the packed
    /// 68 B `Pkt` plus the slot's `u64` tiebreak and `u32` destination).
    #[test]
    fn pending_event_pool_slot_is_80_bytes() {
        assert_eq!(ross::pool_slot_bytes::<Event>(), 80);
    }

    #[test]
    fn adaptive_is_competitive_under_adversarial_traffic() {
        // Every node sends to the diametrically opposite rank: minimal
        // routing squeezes through few direct links; adaptive spreads.
        let src = "for 4 repetitions { all tasks t asynchronously send a 200000 byte \
                   message to task (t + num_tasks/2) mod num_tasks \
                   then all tasks await completions }.";
        let mk = |routing| {
            let mut sim = SimulationBuilder::new(DragonflyConfig::tiny_1d())
                .routing(routing)
                .placement(Placement::RandomGroups)
                .seed(3)
                .job("app", vms(src, 8))
                .build()
                .unwrap();
            let r = sim.run(Scheduler::Sequential, SimTime::MAX);
            r.apps[0].makespan_ns().unwrap()
        };
        let min = mk(Routing::Minimal);
        let adp = mk(Routing::Adaptive);
        // Adaptive should not be dramatically worse; usually better.
        assert!(adp as f64 <= min as f64 * 1.25, "ADP {adp} vs MIN {min}");
    }
}
