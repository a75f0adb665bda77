//! The Table III mix workloads: set-up, one timed run, and its checks,
//! through the same public calls `union-exp mix` makes.

use crate::spans::Spans;
use crate::spec::{MixSpec, Pin};
use codes::{CodesSim, SimResults, SimulationBuilder};
use ross::{Scheduler, SimDuration, SimTime};

impl MixSpec {
    pub fn until(&self) -> SimTime {
        self.until_us.map_or(SimTime::MAX, SimTime::from_us)
    }
}

/// `par:2:100`: two workers, the 100 ns link-latency lookahead.
pub fn par_scheduler() -> Scheduler {
    Scheduler::ConservativeParallel { threads: 2, lookahead: SimDuration::from_ns(100) }
}

/// DSL/skeleton source to a runnable model: compile and translate the
/// applications, instantiate one VM per rank, then build the topology,
/// place the jobs and lay out the LPs. Returns the model and the seconds
/// the whole took.
pub fn setup(spec: &MixSpec, seed: u64, spans: &mut Spans) -> (CodesSim, f64) {
    spans.scope("setup", |spans| {
        let (apps, _) = spans.scope("workloads.workload", |_| {
            workloads::workload(spec.which, spec.profile, spec.iters, spec.scale)
        });
        let (jobs, _) = spans.scope("workloads.vms", |_| {
            apps.iter()
                .map(|a| (a.name(), a.vms(seed).expect("bundled workloads instantiate")))
                .collect::<Vec<_>>()
        });
        let (sim, _) = spans.scope("codes.build", |_| {
            let mut b = SimulationBuilder::new(spec.net.config(spec.profile))
                .routing(spec.routing)
                .placement(spec.placement)
                .seed(seed);
            for (name, vms) in jobs {
                b = b.job(name, vms);
            }
            b.build().expect("bundled workloads fit their system")
        });
        sim
    })
}

/// What one run of a model left behind, as far as the checks and the
/// metrics need it.
pub struct RunOutcome {
    pub results: SimResults,
    pub pin: Pin,
    /// Host seconds around `CodesSim::run` (scheduler plus harvest).
    pub wall_s: f64,
}

pub fn run(sim: &mut CodesSim, sched: Scheduler, until: SimTime, spans: &mut Spans) -> RunOutcome {
    let (results, wall_s) = spans.scope("run", |_| sim.run(sched, until));
    let pin = Pin { fingerprint: sim.state_fingerprint(), committed: results.stats.committed };
    RunOutcome { results, pin, wall_s }
}

/// A run-to-completion workload must finish every rank of every
/// application without a protocol failure; a bounded one must at least
/// not fail. `None` when the run is good.
pub fn completion_fault(spec: &MixSpec, results: &SimResults) -> Option<String> {
    for a in &results.apps {
        if a.failed() {
            return Some(format!("{}: MPI protocol failure: {}", a.name, a.errors.join("; ")));
        }
        if spec.until_us.is_none() && !a.all_done() {
            return Some(format!("{}: not every rank finished", a.name));
        }
    }
    None
}
