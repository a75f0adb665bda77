//! Integration tests spanning every crate: DSL source → Union translator
//! → skeleton VM → MPI layer → dragonfly network → PDES engine → metrics.

use codes::SimulationBuilder;
use dragonfly::{DragonflyConfig, Routing};
use harness::sweep::{self, SweepConfig};
use metrics::AppLatencySummary;
use placement::Placement;
use ross::{Scheduler, SimDuration, SimTime};
use union_core::{translate_source, RankVm, SkeletonInstance, Validation};
use workloads::{app, AppKind, Profile};

/// The paper's Fig 1 ping-pong program, end to end, on both dragonfly
/// flavors.
#[test]
fn fig1_pingpong_runs_on_both_networks() {
    let src = r#"
        Require language version "1.5".
        reps is "Number of repetitions" and comes from "--reps" or "-r" with default 50.
        msgsize is "Message size" and comes from "--msgsize" or "-m" with default 1024.
        Assert that "the latency test requires at least two tasks" with num_tasks >= 2.
        For reps repetitions {
          task 0 resets its counters then
          task 0 sends a msgsize byte message to task 1 then
          task 1 sends a msgsize byte message to task 0 then
          task 0 logs the msgsize as "Bytes" and the median of elapsed_usecs/2 as "1/2 RTT (usecs)"
        }
        then task 0 computes aggregates.
    "#;
    let skel = translate_source(src, "pingpong").unwrap();
    for cfg in [DragonflyConfig::tiny_1d(), DragonflyConfig::tiny_2d()] {
        let inst = SkeletonInstance::new(&skel, 2, &["-r", "25"]).unwrap();
        let vms: Vec<RankVm> = (0..2).map(|r| RankVm::new(inst.clone(), r, 3)).collect();
        let mut sim = SimulationBuilder::new(cfg)
            .routing(Routing::Minimal)
            .placement(Placement::RandomNodes)
            .job("pingpong", vms)
            .build()
            .unwrap();
        let r = sim.run(Scheduler::Sequential, SimTime::MAX);
        assert!(r.apps[0].all_done());
        assert_eq!(r.apps[0].latency[0].count, 25);
        assert_eq!(r.apps[0].latency[1].count, 25);
    }
}

/// Every Table III workload mix completes on both Quick networks under
/// every placement policy.
#[test]
fn all_workload_mixes_complete() {
    for w in 1..=3u8 {
        let apps = workloads::workload(w, Profile::Quick, 1, 64);
        for placement in Placement::all() {
            let mut b = SimulationBuilder::new(DragonflyConfig::small_1d())
                .routing(Routing::Adaptive)
                .placement(placement)
                .seed(9);
            for a in &apps {
                b = b.job(a.name(), a.vms(1).unwrap());
            }
            let mut sim = b.build().unwrap();
            let r = sim.run(Scheduler::Sequential, SimTime::MAX);
            for a in &r.apps {
                assert!(a.done_or_panic(&format!("W{w}/{placement:?}")));
            }
        }
    }
}

trait DoneExt {
    fn done_or_panic(&self, ctx: &str) -> bool;
}
impl DoneExt for codes::AppResult {
    fn done_or_panic(&self, ctx: &str) -> bool {
        assert!(self.all_done(), "{ctx}: {} did not finish", self.name);
        true
    }
}

/// Union's skeleton path and the independent reference generator agree
/// for AlexNet at full 512 ranks (Tables IV/V + Fig 6).
#[test]
fn alexnet_validation_at_paper_scale() {
    let skel = workloads::alexnet();
    let inst = SkeletonInstance::new(&skel, 512, &[]).unwrap();
    let s = Validation::collect(512, |r| RankVm::new(inst.clone(), r, 1));
    let a = Validation::collect(512, |r| workloads::alexnet_reference::ops(r, 512).into_iter());
    assert!(s.matches(&a));
    assert_eq!(s.event_counts["MPI_Bcast"], 1969);
    assert_eq!(s.event_counts["MPI_Allreduce"], 1958);
    assert_eq!(s.event_counts["MPI_Init"], 512);
}

/// The three PDES schedulers produce bit-identical hybrid-workload
/// results on the full composed model.
#[test]
fn schedulers_agree_on_hybrid_workload() {
    let fingerprint = |sched: Scheduler| {
        let mut b = SimulationBuilder::new(DragonflyConfig::tiny_1d())
            .routing(Routing::Adaptive)
            .placement(Placement::RandomNodes)
            .seed(4);
        for kind in [AppKind::NearestNeighbor, AppKind::UniformRandom] {
            let mut cfg = app(kind, Profile::Quick, 2, 64);
            cfg.ranks = 24; // shrink to the tiny system
            if kind == AppKind::NearestNeighbor {
                // 24 ranks need a smaller grid than the quick default.
                for (i, a) in cfg.args.iter().enumerate() {
                    if a == "--nx" || a == "--ny" {
                        let _ = i;
                    }
                }
                cfg.args.extend([
                    "--nx".into(),
                    "3".into(),
                    "--ny".into(),
                    "2".into(),
                    "--nz".into(),
                    "4".into(),
                ]);
            }
            b = b.job(cfg.name(), cfg.vms(1).unwrap());
        }
        let mut sim = b.build().unwrap();
        let r = sim.run(sched, SimTime::MAX);
        let mut fp: Vec<(String, u64, u64)> = Vec::new();
        for a in &r.apps {
            let lat: u64 = a.latency.iter().map(|l| l.sum_ns).sum();
            let fin: u64 = a.finished_at_ns.iter().map(|f| f.unwrap()).max().unwrap();
            fp.push((a.name.clone(), lat, fin));
        }
        (fp, r.link_load)
    };
    let seq = fingerprint(Scheduler::Sequential);
    // par:3 — CODES runs it at the model's block window.
    let par = Scheduler::ConservativeParallel { threads: 3, lookahead: SimDuration::ZERO };
    assert_eq!(seq, fingerprint(par));
}

/// The sweep machinery produces baselines and mixes with sane structure.
#[test]
fn smoke_sweep_has_expected_records() {
    let mut cfg = SweepConfig::smoke();
    cfg.baselines = true;
    let records = sweep::run_sweep(&cfg, |_| {}).expect("every smoke run completes");
    // 5 baselines (W3 apps) + 1 mix.
    assert_eq!(records.len(), 6);
    let mix = records.iter().find(|r| matches!(r.key.workload, sweep::Workload::Mix(3))).unwrap();
    assert_eq!(mix.apps.len(), 5);
    for a in &mix.apps {
        assert!(a.done, "{} unfinished in mix", a.name);
        let base =
            sweep::baseline_of(&records, mix.key.net, &a.name, mix.key.placement, mix.key.routing)
                .unwrap();
        assert!(base.done);
    }
}

/// Per-rank latency summaries feed boxplots with coherent ordering.
#[test]
fn latency_summaries_are_ordered() {
    let cfg = app(AppKind::NearestNeighbor, Profile::Quick, 2, 16);
    let mut sim = SimulationBuilder::new(DragonflyConfig::small_1d())
        .placement(Placement::RandomRouters)
        .job(cfg.name(), cfg.vms(1).unwrap())
        .build()
        .unwrap();
    let r = sim.run(Scheduler::Sequential, SimTime::MAX);
    let s = AppLatencySummary::from_ranks(&r.apps[0].latency);
    assert!(s.max_box.min <= s.max_box.q1);
    assert!(s.max_box.q1 <= s.max_box.median);
    assert!(s.max_box.median <= s.max_box.q3);
    assert!(s.max_box.q3 <= s.max_box.max);
    assert!(s.min_box.mean <= s.max_box.mean);
}

/// Running the same configuration twice gives identical results
/// (reproducibility across process lifetime, not just schedulers).
#[test]
fn runs_are_reproducible() {
    let run = || {
        // 32 ranks of UR on the 72-node tiny system.
        let mut cfg = app(AppKind::UniformRandom, Profile::Quick, 3, 64);
        cfg.ranks = 32;
        let mut sim = SimulationBuilder::new(DragonflyConfig::tiny_1d())
            .placement(Placement::RandomNodes)
            .seed(77)
            .job(cfg.name(), cfg.vms(5).unwrap())
            .build()
            .unwrap();
        let r = sim.run(Scheduler::Sequential, SimTime::MAX);
        (r.stats.committed, r.link_load)
    };
    assert_eq!(run(), run());
}
