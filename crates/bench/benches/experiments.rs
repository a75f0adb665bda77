//! One benchmark per paper artifact: each runs a micro version of the
//! code path that regenerates that table or figure. Absolute numbers are
//! documented in EXPERIMENTS.md from `union-exp` runs; these benches keep
//! every experiment's machinery exercised and timed under `cargo bench`.

use codes::SimulationBuilder;
use criterion::{criterion_group, criterion_main, Criterion};
use dragonfly::{DragonflyConfig, Routing};
use harness::sweep::{run_one, Net, RunKey, SweepConfig, Workload};
use placement::Placement;
use ross::{Scheduler, SimTime};
use union_core::{RankVm, SkeletonInstance, Validation};
use workloads::{app, AppKind, Profile};

/// A micro mix on the 72-node tiny system (fast enough for criterion).
fn micro_mix(routing: Routing, placement: Placement, window_ns: u64) -> codes::SimResults {
    let mut b = SimulationBuilder::new(DragonflyConfig::tiny_1d())
        .routing(routing)
        .placement(placement)
        .seed(3)
        .window_ns(window_ns);
    for (kind, ranks) in
        [(AppKind::Cosmoflow, 16u32), (AppKind::UniformRandom, 16), (AppKind::NearestNeighbor, 27)]
    {
        let mut cfg = app(kind, Profile::Quick, 1, 256);
        cfg.ranks = ranks;
        if kind == AppKind::NearestNeighbor {
            cfg.args.extend(["--nx", "3", "--ny", "3", "--nz", "3"].iter().map(|s| s.to_string()));
        }
        b = b.job(cfg.name(), cfg.vms(1).unwrap());
    }
    b.build().unwrap().run(Scheduler::Sequential, SimTime::MAX)
}

/// Tables IV/V + Fig 6: the AlexNet validation at a reduced rank count.
fn bench_validation(c: &mut Criterion) {
    let mut g = c.benchmark_group("table4-5-fig6");
    g.sample_size(10);
    g.bench_function("alexnet-validation-64", |b| {
        let skel = workloads::alexnet();
        let inst = SkeletonInstance::new(&skel, 64, &[]).unwrap();
        b.iter(|| {
            let s = Validation::collect(64, |r| RankVm::new(inst.clone(), r, 1));
            let a =
                Validation::collect(64, |r| workloads::alexnet_reference::ops(r, 64).into_iter());
            assert!(s.matches(&a));
        })
    });
    g.finish();
}

/// Fig 7 + Fig 9: a micro interference run producing latency and
/// communication-time distributions.
fn bench_fig7_fig9(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7-fig9");
    g.sample_size(10);
    for placement in Placement::all() {
        g.bench_function(placement.label(), |b| {
            b.iter(|| {
                let r = micro_mix(Routing::Adaptive, placement, 0);
                let lat: u64 = r.apps.iter().flat_map(|a| a.latency.iter().map(|l| l.count)).sum();
                lat
            })
        });
    }
    g.finish();
}

/// Fig 8: the windowed-router-counter path (0.5 ms windows) plus series
/// aggregation over one job's routers.
fn bench_fig8(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    g.bench_function("windowed-run+series", |b| {
        b.iter(|| {
            let r = micro_mix(Routing::Adaptive, Placement::RandomGroups, 500_000);
            let routers: Vec<u32> = r.router_windows.iter().map(|(id, _)| *id).collect();
            let ts = r.series_over(&routers, 500_000);
            ts.total(0)
        })
    });
    g.finish();
}

/// Table VI: link-load accounting on both network flavors.
fn bench_table6(c: &mut Criterion) {
    let mut g = c.benchmark_group("table6");
    g.sample_size(10);
    for routing in [Routing::Minimal, Routing::Adaptive] {
        g.bench_function(routing.label(), |b| {
            b.iter(|| {
                let r = micro_mix(routing, Placement::RandomGroups, 0);
                (r.link_load.global_bytes, r.link_load.local_bytes)
            })
        });
    }
    g.finish();
}

/// Flow-control ablation (DESIGN.md substitution #2): busy-until queues
/// vs credit/VC backpressure on the same congested exchange.
fn bench_flow_control(c: &mut Criterion) {
    use dragonfly::FlowControl;
    let mut g = c.benchmark_group("flow-control");
    g.sample_size(10);
    for (label, flow) in
        [("busy-until", FlowControl::BusyUntil), ("credit-vc", FlowControl::credit_default())]
    {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut cfg = DragonflyConfig::tiny_1d();
                cfg.flow = flow;
                let mut builder = SimulationBuilder::new(cfg)
                    .routing(Routing::Minimal)
                    .placement(Placement::RandomNodes)
                    .seed(8);
                let mut app_cfg = app(AppKind::NearestNeighbor, Profile::Quick, 2, 64);
                app_cfg.ranks = 27;
                app_cfg
                    .args
                    .extend(["--nx", "3", "--ny", "3", "--nz", "3"].iter().map(|s| s.to_string()));
                builder = builder.job(app_cfg.name(), app_cfg.vms(1).unwrap());
                builder.build().unwrap().run(Scheduler::Sequential, SimTime::MAX).stats.committed
            })
        });
    }
    g.finish();
}

/// Table I: trace recording + replay vs in-situ skeleton execution.
fn bench_table1(c: &mut Criterion) {
    use std::sync::Arc;
    use union_core::Trace;
    let mut g = c.benchmark_group("table1");
    g.sample_size(10);
    let skel = workloads::nearest_neighbor();
    let inst =
        SkeletonInstance::new(&skel, 27, &["--nx", "3", "--ny", "3", "--nz", "3", "--iters", "3"])
            .unwrap();
    g.bench_function("record-trace", |b| b.iter(|| Trace::record(&inst, 1).len()));
    let trace = Arc::new(Trace::record(&inst, 1));
    g.bench_function("simulate-trace-replay", |b| {
        b.iter(|| {
            let mut sim = SimulationBuilder::new(DragonflyConfig::tiny_1d())
                .seed(2)
                .job_trace("nn", &trace)
                .build()
                .unwrap();
            sim.run(Scheduler::Sequential, SimTime::MAX).stats.committed
        })
    });
    g.bench_function("simulate-skeleton", |b| {
        b.iter(|| {
            let mut sim = SimulationBuilder::new(DragonflyConfig::tiny_1d())
                .seed(2)
                .job("nn", (0..27).map(|r| RankVm::new(inst.clone(), r, 1)).collect())
                .build()
                .unwrap();
            sim.run(Scheduler::Sequential, SimTime::MAX).stats.committed
        })
    });
    g.finish();
}

/// The harness sweep runner itself at smoke scale (the machinery behind
/// `union-exp all`).
fn bench_sweep_smoke(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    g.bench_function("run-one-smoke", |b| {
        let mut cfg = SweepConfig::smoke();
        cfg.scale = 256;
        let key = RunKey {
            net: Net::OneD,
            workload: Workload::Mix(3),
            placement: Placement::RandomGroups,
            routing: Routing::Adaptive,
        };
        b.iter(|| run_one(&cfg, key).unwrap().stats.committed)
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_validation,
    bench_fig7_fig9,
    bench_fig8,
    bench_table6,
    bench_flow_control,
    bench_table1,
    bench_sweep_smoke
);
criterion_main!(benches);
