//! The ROSS-style PDES engine on its own: run the same workload under the
//! sequential, barrier-window and barrier-free conservative schedulers and
//! compare wall time and event rates.
//!
//! ```sh
//! cargo run --release --example pdes_schedulers
//! ```

use codes::SimulationBuilder;
use dragonfly::{DragonflyConfig, Routing};
use placement::Placement;
use ross::{Scheduler, SimDuration, SimTime};
use workloads::{app, AppKind, Profile};

fn main() {
    println!("One Workload3-style mix, three schedulers (the paper ran CODES/ROSS\nin optimistic mode on 144 cores; this engine is conservative):\n");
    println!("| scheduler | events | wall (s) | events/s |");
    println!("|---|---|---|---|");

    let mut reference: Option<u64> = None;
    // par:4:0 — conservative windows of the engine lookahead (YAWNS).
    let windows =
        Scheduler::ConservativeParallel { threads: 4, lookahead: SimDuration::from_ns(0) };
    // async:4:100 — no barriers; 100 ns is the minimum cross-partition
    // delay of the default dragonfly config (local link latency).
    let horizons =
        Scheduler::ConservativeAsync { threads: 4, lookahead: SimDuration::from_ns(100) };
    for sched in [Scheduler::Sequential, windows, horizons] {
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
            "| {:?} | {} | {:.2} | {:.0} |",
            sched,
            r.stats.committed,
            r.stats.wall_seconds,
            r.stats.event_rate(),
        );
        // All three must commit exactly the same events.
        match reference {
            None => reference = Some(r.stats.committed),
            Some(c) => assert_eq!(c, r.stats.committed, "schedulers disagreed!"),
        }
    }
    println!("\nAll three schedulers committed identical event counts — the\nengine's determinism guarantee (same model, bit-identical results).");
}
