//! Per-layer probes of the traced run: each calls one layer of the
//! repository directly, on inputs taken from the workload, inside a span
//! of its own. They give the layer numbers the end-to-end run cannot
//! (the crates carry no spans yet); none of them feeds an end-to-end
//! metric.

use crate::phold::{self, Rng};
use crate::report::Values;
use crate::spans::Spans;
use crate::spec::MixSpec;
use dragonfly::{Packet, RouterState, Topology};
use placement::{JobRequest, Layout};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ross::{Envelope, EventQueue, EventUid, QueueKind, SimTime};
use std::hint::black_box;
use union_core::{MpiOp, RankVm, SkeletonInstance};
use workloads::AppConfig;

/// Passes over the two bundled `.ncptl` sources; one pass is microseconds.
const FRONTEND_PASSES: u32 = 200;
/// (router, destination) pairs routed.
const ROUTE_SAMPLES: u32 = 1_000_000;
/// Events resident in the hold-model queue, and hold operations timed.
const HOLD_RESIDENT: u32 = 65_536;
const HOLD_OPS: u32 = 2_000_000;
/// Events the null-handler PHOLD commits, about.
const NULL_EVENTS: u64 = 3_000_000;

/// The compile/translate/instantiate/topology/placement children of
/// set-up, called one by one as `workloads::workload`, `AppConfig::vms`
/// and `SimulationBuilder::build` call them in sequence.
pub fn setup_layers(spec: &MixSpec, seed: u64, spans: &mut Spans, out: &mut Values) {
    let sources =
        [(workloads::COSMOFLOW_NCPTL, "cosmoflow"), (workloads::ALEXNET_NCPTL, "alexnet")];
    let (programs, s) = spans.scope("conceptual.compile", |_| {
        let mut last = Vec::new();
        for _ in 0..FRONTEND_PASSES {
            last = sources
                .iter()
                .map(|(src, _)| conceptual::compile(black_box(src)).expect("bundled source"))
                .collect();
        }
        last
    });
    out.set("conceptual.compile_s", s / f64::from(FRONTEND_PASSES));
    let (_, s) = spans.scope("core.translate", |_| {
        for _ in 0..FRONTEND_PASSES {
            for (prog, (_, name)) in programs.iter().zip(&sources) {
                black_box(union_core::translate(black_box(prog), name).expect("bundled source"));
            }
        }
    });
    out.set("core.translate_s", s / f64::from(FRONTEND_PASSES));

    let apps = workloads::workload(spec.which, spec.profile, spec.iters, spec.scale);
    let (_, s) = spans.scope("core.instantiate", |_| {
        for a in &apps {
            let args: Vec<&str> = a.args.iter().map(String::as_str).collect();
            black_box(SkeletonInstance::new(&a.skeleton, a.ranks, &args).expect("bundled app"));
        }
    });
    out.set("core.instantiate_s", s);

    let (topo, s) =
        spans.scope("dragonfly.topology_build", |_| Topology::build(spec.net.config(spec.profile)));
    out.set("dragonfly.topology_build_s", s);
    let requests: Vec<JobRequest> =
        apps.iter().map(|a| JobRequest::new(a.name(), a.ranks)).collect();
    let (_, s) = spans.scope("placement.place", |_| {
        black_box(Layout::place(&topo, &requests, spec.placement, seed).expect("jobs fit"))
    });
    out.set("placement.place_s", s);

    vm_drain(&apps, seed, spans, out);
    collectives(&apps, seed, spans, out);
    routing(spec, &topo, seed, spans, out);
}

/// Every op of every rank VM of the workload, with no network under it:
/// the skeleton interpreter's own cost.
fn vm_drain(apps: &[AppConfig], seed: u64, spans: &mut Spans, out: &mut Values) {
    let mut vms: Vec<_> =
        apps.iter().flat_map(|a| a.vms(seed).expect("bundled workloads instantiate")).collect();
    let (ops, s) = spans.scope("core.vm_drain", |_| {
        let mut ops = 0u64;
        for vm in &mut vms {
            while let Some(op) = vm.next_op() {
                black_box(op);
                ops += 1;
            }
        }
        ops
    });
    out.set("core.vm_ops", ops as f64);
    out.set("core.vm_ns_per_op", s * 1e9 / ops as f64);
}

/// `collectives::expand` of each distinct collective the workload's
/// applications issue, for every rank of the job that issues it.
fn collectives(apps: &[AppConfig], seed: u64, spans: &mut Spans, out: &mut Values) {
    let mut calls: Vec<(MpiOp, u32)> = Vec::new();
    for a in apps {
        let args: Vec<&str> = a.args.iter().map(String::as_str).collect();
        let inst = SkeletonInstance::new(&a.skeleton, a.ranks, &args).expect("bundled app");
        for op in RankVm::new(inst, 0, seed).filter(MpiOp::is_collective) {
            if !calls.contains(&(op, a.ranks)) {
                calls.push((op, a.ranks));
            }
        }
    }
    let (expanded, s) = spans.scope("mpi-sim.expand", |_| {
        let mut expanded = 0u64;
        for (op, ranks) in &calls {
            for rank in 0..*ranks {
                expanded +=
                    black_box(mpi_sim::collectives::expand(op, rank, *ranks, 1)).len() as u64;
            }
        }
        expanded
    });
    out.set("mpi-sim.expanded_ops", expanded as f64);
    out.set("mpi-sim.expand_ns_per_op", s * 1e9 / expanded as f64);
}

/// `RouterState::forward` at the injection router of a fixed seeded
/// sample of (source node, destination node) pairs under the workload's
/// routing; ports fill as they would, so adaptive routing sees backlog.
fn routing(spec: &MixSpec, topo: &Topology, seed: u64, spans: &mut Spans, out: &mut Values) {
    let n_nodes = u64::from(topo.cfg.total_nodes());
    let mut routers: Vec<RouterState> = (0..topo.cfg.total_routers())
        .map(|r| RouterState::new(r, topo.ports(r).len(), 0, 8))
        .collect();
    let mut pick = Rng::new(seed);
    let pairs: Vec<(u32, u32)> = (0..ROUTE_SAMPLES)
        .map(|_| (pick.below(n_nodes) as u32, pick.below(n_nodes) as u32))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let (_, s) = spans.scope("dragonfly.route", |_| {
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let mut pkt = Packet {
                app: 0,
                kind: 0,
                tag: 0,
                aux: 0,
                src_node: src,
                dst_node: dst,
                bytes: 512,
                msg_id: i as u64,
                msg_bytes: 512,
                created: SimTime::ZERO,
                intermediate: None,
                gateway: None,
                routed: false,
                hops: 0,
                up_router: u32::MAX,
                up_port: 0,
                vc: 0,
            };
            let at = topo.node_router(src) as usize;
            let now = SimTime::from_ns(i as u64);
            black_box(routers[at].forward(now, &mut pkt, topo, spec.routing, &mut rng));
        }
    });
    out.set("dragonfly.route_ns_per_decision", s * 1e9 / f64::from(ROUTE_SAMPLES));
}

/// The hold model on one pending-event queue: with 65,536 events
/// resident, pop the least and push one 100..1000 ns later. Returns host
/// nanoseconds per operation (a pop and a push are two).
fn hold<E>(kind: QueueKind, payload: impl Fn(u32) -> E, seed: u64) -> f64 {
    let mut q = kind.new_queue::<E>();
    let mut rng = Rng::new(seed);
    let mut seq = 0u64;
    let mut push = |q: &mut ross::queue::PendingQueue<E>, at: u64, from: u64, lp: u32| {
        seq += 1;
        q.push(Envelope {
            recv_time: SimTime::from_ns(at),
            send_time: SimTime::from_ns(from),
            src: lp,
            dst: lp,
            tiebreak: seq,
            uid: EventUid { src: lp, seq },
            payload: payload(lp),
        });
    };
    for lp in 0..HOLD_RESIDENT {
        push(&mut q, 100 + rng.below(900), 0, lp);
    }
    let t0 = std::time::Instant::now();
    for _ in 0..HOLD_OPS {
        let ev = q.pop().expect("the hold model never drains");
        let now = ev.recv_time.as_ns();
        push(&mut q, now + 100 + rng.below(900), now, ev.dst);
        black_box(ev.payload);
    }
    t0.elapsed().as_secs_f64() * 1e9 / (2.0 * f64::from(HOLD_OPS))
}

/// Queue cost alone, both implementations at PHOLD's 4-byte payload and
/// the ladder at 256 bytes (the hot/cold split's large-payload case).
pub fn queues(seed: u64, spans: &mut Spans, out: &mut Values) {
    let (ns, _) = spans.scope("ross.queue.ladder", |_| hold(QueueKind::Ladder, |lp| lp, seed));
    out.set("ross.queue.ladder_ns_per_op", ns);
    let (ns, _) = spans.scope("ross.queue.heap", |_| hold(QueueKind::Heap, |lp| lp, seed));
    out.set("ross.queue.heap_ns_per_op", ns);
    let (ns, _) =
        spans.scope("ross.queue.fat", |_| hold(QueueKind::Ladder, |lp| [lp as u8; 256], seed));
    out.set("ross.queue.fat_ns_per_op", ns);
}

/// What the engine costs per event when handlers do nothing: the local
/// PHOLD at `n_lps` LPs, sequential, about `NULL_EVENTS` events. Also the
/// only place the envelope-pool counters can be read from outside `ross`.
pub fn null_handlers(n_lps: u32, seed: u64, spans: &mut Spans, out: &mut Values) -> f64 {
    // One ball per LP hops every 550 ns on average.
    let horizon_ns = NULL_EVENTS * 550 / u64::from(n_lps);
    let mut sim = phold::build(n_lps, horizon_ns, seed);
    let (stats, s) = spans.scope("ross.seq.null", |_| sim.run_sequential(SimTime::MAX));
    let ns_per_event = s * 1e9 / stats.committed as f64;
    out.set("ross.seq.ns_per_event", ns_per_event);
    pool_counters(sim.pending_pool_stats(), stats.committed, out);
    ns_per_event
}

/// Every event that was committed was pushed once, so pushes equal the
/// committed count of a run to completion.
pub fn pool_counters(pool: ross::PoolStats, pushes: u64, out: &mut Values) {
    out.set("ross.pool.high_water", pool.high_water as f64);
    out.set("ross.pool.recycled", pool.recycled as f64);
    out.set("ross.pool.reuse_ratio", pool.recycled as f64 / pushes as f64);
}
