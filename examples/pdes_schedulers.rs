//! The ROSS-style PDES engine on its own: run the same workload under the
//! sequential, conservative, and optimistic (Time Warp) schedulers and
//! compare wall time, event rates, and rollback behaviour.
//!
//! ```sh
//! cargo run --release --example pdes_schedulers
//! ```

use codes::SimulationBuilder;
use dragonfly::{DragonflyConfig, Routing};
use placement::Placement;
use ross::{OptimisticConfig, Scheduler, SimDuration, SimTime};
use workloads::{app, AppKind, Profile};

fn main() {
    println!("One Workload3-style mix, three schedulers (the paper used\nCODES/ROSS's optimistic parallel mode on 144 cores):\n");
    println!("| scheduler | events | wall (s) | events/s | rolled back | efficiency |");
    println!("|---|---|---|---|---|---|");

    let mut reference: Option<u64> = None;
    // par:4:0 — conservative windows of the engine lookahead (YAWNS).
    let conservative =
        Scheduler::ConservativeParallel { threads: 4, lookahead: SimDuration::from_ns(0) };
    let optimistic = Scheduler::Optimistic { threads: 4, config: OptimisticConfig::default() };
    for sched in [Scheduler::Sequential, conservative, optimistic] {
        // Rebuild the identical simulation for each scheduler.
        let mut b = SimulationBuilder::new(DragonflyConfig::small_1d())
            .routing(Routing::Adaptive)
            .placement(Placement::RandomGroups)
            .seed(5);
        for kind in [AppKind::Cosmoflow, AppKind::NearestNeighbor, AppKind::Milc] {
            let cfg = app(kind, Profile::Quick, 2, 32);
            b = b.job(cfg.name(), cfg.vms(1).unwrap());
        }
        let mut sim = b.build().unwrap();
        let r = sim.run(sched, SimTime::MAX);
        println!(
            "| {:?} | {} | {:.2} | {:.0} | {} | {:.1}% |",
            sched,
            r.stats.committed,
            r.stats.wall_seconds,
            r.stats.event_rate(),
            r.stats.rolled_back,
            100.0 * r.stats.rollback_efficiency(),
        );
        // All three must commit exactly the same events.
        match reference {
            None => reference = Some(r.stats.committed),
            Some(c) => assert_eq!(c, r.stats.committed, "schedulers disagreed!"),
        }
    }
    println!("\nAll three schedulers committed identical event counts — the\nengine's determinism guarantee (same model, bit-identical results).");
}
