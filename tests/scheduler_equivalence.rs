//! Cross-scheduler determinism: every PDES scheduler — sequential,
//! barrier windows and barrier-free horizons — must produce bit-identical
//! `SimResults` and final LP state for the same model and seed, under
//! either pending-event queue (binary heap or ladder). This is the
//! contract that lets the harness sweep schedulers freely — a parallel
//! run is a faster sequential run, never a different experiment.

use codes::{CodesSim, SimResults, SimulationBuilder};
use dragonfly::{DragonflyConfig, Routing};
use placement::Placement;
use ross::{QueueKind, Scheduler, SimDuration, SimTime};
use workloads::{app, AppKind, Profile};

/// Per app: (name, per-rank latency (count, sum, min, max), per-rank comm
/// total, per-rank finish time, bytes, ops).
type AppPrint = (String, Vec<(u64, u64, u64, u64)>, Vec<u64>, Vec<Option<u64>>, u64, u64);

/// Every observable a run produces, flattened for equality comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fingerprint {
    apps: Vec<AppPrint>,
    link_load: (u64, u64, u64, u64, u64),
    router_windows: Vec<(u32, Vec<Vec<u64>>)>,
    committed: u64,
    /// [`CodesSim::state_fingerprint`]: the digest of every LP's state.
    state: u64,
}

fn fingerprint(sim: &CodesSim, r: &SimResults) -> Fingerprint {
    Fingerprint {
        apps: r
            .apps
            .iter()
            .map(|a| {
                (
                    a.name.clone(),
                    a.latency.iter().map(|l| (l.count, l.sum_ns, l.min_ns, l.max_ns)).collect(),
                    a.comm.iter().map(|c| c.total_ns).collect(),
                    a.finished_at_ns.clone(),
                    a.bytes_sent,
                    a.ops_executed,
                )
            })
            .collect(),
        link_load: (
            r.link_load.global_bytes,
            r.link_load.local_bytes,
            r.link_load.terminal_bytes,
            r.link_load.n_global_links,
            r.link_load.n_local_links,
        ),
        router_windows: r.router_windows.clone(),
        committed: r.stats.committed,
        state: sim.state_fingerprint(),
    }
}

/// Two-job mix on the tiny 1D dragonfly with windowed router counters
/// on — the shared model every cell of the equivalence matrix runs.
fn build_mix(queue: QueueKind) -> CodesSim {
    let mut b = SimulationBuilder::new(DragonflyConfig::tiny_1d())
        .routing(Routing::Adaptive)
        .placement(Placement::RandomGroups)
        .seed(11)
        .window_ns(500_000)
        .queue(queue);
    for kind in [AppKind::UniformRandom, AppKind::NearestNeighbor] {
        let mut cfg = app(kind, Profile::Quick, 2, 64);
        if kind == AppKind::NearestNeighbor {
            cfg.ranks = 24;
            cfg.args.extend(["--nx", "3", "--ny", "2", "--nz", "4"].iter().map(|s| s.to_string()));
        } else {
            cfg.ranks = 16;
        }
        b = b.job(cfg.name(), cfg.vms(1).unwrap());
    }
    b.build().unwrap()
}

fn run_q(sched: Scheduler, queue: QueueKind) -> Fingerprint {
    let mut sim = build_mix(queue);
    let r = sim.run(sched, SimTime::MAX);
    for a in &r.apps {
        assert!(a.all_done(), "{} unfinished under {sched:?}/{queue:?}", a.name);
    }
    fingerprint(&sim, &r)
}

/// `par:T`: CODES runs it at the model's block window, whatever the
/// lookahead field says.
fn par(threads: usize) -> Scheduler {
    Scheduler::ConservativeParallel { threads, lookahead: SimDuration::ZERO }
}

/// `async:T`, at the same block window.
fn asy(threads: usize) -> Scheduler {
    Scheduler::ConservativeAsync { threads, lookahead: SimDuration::ZERO }
}

fn run(sched: Scheduler) -> Fingerprint {
    run_q(sched, QueueKind::default())
}

#[test]
fn all_schedulers_agree_bit_for_bit() {
    let seq = run(Scheduler::Sequential);
    assert!(seq.committed > 0);
    // Each thread count deals the nine group blocks differently.
    for threads in [2, 3, 4] {
        assert_eq!(seq, run(par(threads)), "par:{threads} != sequential");
        assert_eq!(seq, run(asy(threads)), "async:{threads} != sequential");
    }
}

/// The full {scheduler} × {queue} matrix: the queue choice must be
/// invisible in the results — every cell agrees bit-for-bit with the
/// sequential/heap reference cell.
#[test]
fn queue_choice_never_changes_results() {
    let reference = run_q(Scheduler::Sequential, QueueKind::Heap);
    assert!(reference.committed > 0);
    for sched in [Scheduler::Sequential, par(3), asy(3)] {
        for queue in [QueueKind::Heap, QueueKind::Ladder] {
            // The reference cell is `reference` itself; skip re-running it.
            if sched == Scheduler::Sequential && queue == QueueKind::Heap {
                continue;
            }
            assert_eq!(reference, run_q(sched, queue), "{sched:?}/{queue:?} != sequential/heap");
        }
    }
}

/// The parallel scheduler must also agree with itself when interrupted:
/// pausing at a bound and resuming under a different scheduler cannot
/// change the outcome.
#[test]
fn parallel_run_survives_rescheduling_midway() {
    let seq = run(Scheduler::Sequential);
    let mut sim = build_mix(QueueKind::default());
    sim.run(par(3), SimTime::from_us(50));
    let r = sim.run(Scheduler::Sequential, SimTime::MAX);
    let mut fp = fingerprint(&sim, &r);
    // Committed counts are per-leg; compare everything else.
    fp.committed = seq.committed;
    assert_eq!(seq, fp);

    // Same contract for the barrier-free scheduler: pause at a bound,
    // finish sequentially, and the observables must be untouched.
    let mut sim = build_mix(QueueKind::default());
    sim.run(asy(3), SimTime::from_us(50));
    let r = sim.run(Scheduler::Sequential, SimTime::MAX);
    let mut fp = fingerprint(&sim, &r);
    fp.committed = seq.committed;
    assert_eq!(seq, fp, "async pause/resume diverged");
}

/// Legs that mix schedulers — `par:2` → `async:2` → `seq` → `par:3` —
/// hand the pending set back and forth between the simulation and the
/// workers' queues at every bound. Each leg must leave exactly the events
/// a sequential run stopped at the same bound leaves, and the legs
/// together must equal one sequential run, under either queue.
#[test]
fn mixed_scheduler_legs_match_one_sequential_run() {
    let legs = [par(2), asy(2), Scheduler::Sequential, par(3)];
    let bounds = [SimTime::from_us(8), SimTime::from_us(16), SimTime::from_us(28), SimTime::MAX];
    for queue in [QueueKind::Heap, QueueKind::Ladder] {
        let seq = run_q(Scheduler::Sequential, queue);
        let (mut mixed, mut stepped) = (build_mix(queue), build_mix(queue));
        let mut committed = 0;
        let mut last = None;
        for (leg, (sched, until)) in legs.into_iter().zip(bounds).enumerate() {
            let r = mixed.run(sched, until);
            committed += r.stats.committed;
            stepped.run(Scheduler::Sequential, until);
            assert!(r.stats.committed > 0, "{queue:?} leg {leg} ({sched:?}) ran nothing");
            let pending = mixed.pending_events();
            assert_eq!(pending, stepped.pending_events(), "{queue:?} leg {leg} ({sched:?})");
            assert_eq!(pending > 0, leg < 3, "{queue:?} leg {leg} ({sched:?})");
            last = Some(r);
        }
        let mut fp = fingerprint(&mixed, &last.unwrap());
        // Committed counts are per leg; their sum is the whole run's.
        fp.committed = committed;
        assert_eq!(seq, fp, "{queue:?}: mixed legs diverged from sequential");
    }
}
