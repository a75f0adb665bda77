//! The hybrid-workload experiment sweep (methodology of paper §IV):
//! baseline runs (each application alone) and the Table III mixes, across
//! {1D, 2D} × {RN, RR, RG} × {MIN, ADP}, collecting message-latency and
//! communication-time distributions, link loads, and (optionally)
//! windowed router counters.

use crate::run::Sched;
use codes::{CodesSim, SimResults, SimulationBuilder};
use dragonfly::{DragonflyConfig, FlowControl, Routing};
use metrics::{AppLatencySummary, Boxplot, LinkLoad};
use placement::Placement;
use ross::{RunStats, Scheduler, SimDuration, SimTime};
use serde::Serialize;
use workloads::{AppConfig, AppKind, Profile};

/// Which network (paper Table II).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum Net {
    OneD,
    TwoD,
}

impl Net {
    pub fn label(self) -> &'static str {
        match self {
            Net::OneD => "1D",
            Net::TwoD => "2D",
        }
    }

    /// The dragonfly configuration for this network at a profile.
    pub fn config(self, profile: Profile) -> DragonflyConfig {
        match (self, profile) {
            (Net::OneD, Profile::Paper) => DragonflyConfig::dragonfly_1d(),
            (Net::TwoD, Profile::Paper) => DragonflyConfig::dragonfly_2d(),
            (Net::OneD, Profile::Quick) => DragonflyConfig::small_1d(),
            (Net::TwoD, Profile::Quick) => DragonflyConfig::small_2d(),
        }
    }
}

/// What is running: one application alone (baseline) or a Table III mix.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum Workload {
    Baseline(#[serde(skip)] AppKind),
    Mix(u8),
}

impl Workload {
    pub fn label(self) -> String {
        match self {
            Workload::Baseline(_) => "baseline".to_string(),
            Workload::Mix(w) => format!("Workload{w}"),
        }
    }
}

/// One point of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct RunKey {
    pub net: Net,
    pub workload: Workload,
    pub placement: Placement,
    pub routing: Routing,
}

impl RunKey {
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.net.label(),
            self.workload.label(),
            self.placement.label(),
            self.routing.label()
        )
    }

    /// The label a sweep announces a run with: baselines share one
    /// workload label, so they also name their application.
    pub(crate) fn progress_label(&self) -> String {
        match self.workload {
            Workload::Baseline(k) => format!("{} [{}]", self.label(), k.label()),
            Workload::Mix(_) => self.label(),
        }
    }
}

/// Per-application outcome of one run.
#[derive(Clone, Debug, Serialize)]
pub struct AppOutcome {
    pub name: String,
    /// Distribution over ranks of each rank's **maximum** message latency
    /// (Fig 7's boxes), ns.
    pub max_latency: Boxplot,
    /// Distribution of per-rank average latency, ns.
    pub avg_latency: Boxplot,
    /// Mean over ranks of per-rank average latency (the red square), ns.
    pub overall_avg_latency_ns: f64,
    /// Distribution over ranks of communication time (Fig 9), ns.
    pub comm_time: Boxplot,
    /// Did every rank finish?
    pub done: bool,
    pub bytes_sent: u64,
}

/// One completed run.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub key: RunKey,
    pub apps: Vec<AppOutcome>,
    pub link_load: LinkLoad,
    /// LP count of the built model (routers + NICs + ranks).
    pub n_lps: u32,
    pub stats: RunStats,
    /// Raw results retained when windowed counters were enabled (Fig 8).
    pub results: Option<SimResults>,
}

impl RunRecord {
    pub fn app(&self, name: &str) -> Option<&AppOutcome> {
        self.apps.iter().find(|a| a.name == name)
    }
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    pub profile: Profile,
    /// Iterations/updates per application.
    pub iters: i64,
    /// Payload/compute scale divisor.
    pub scale: i64,
    pub seed: u64,
    pub nets: Vec<Net>,
    pub placements: Vec<Placement>,
    pub routings: Vec<Routing>,
    /// Which Table III mixes to run.
    pub workloads: Vec<u8>,
    /// Also run each involved application alone (the paper's baselines).
    pub baselines: bool,
    /// In-process scheduler; each cell runs at its own model's window
    /// (a `shard:N:T` gang runs its cell in worker processes).
    pub sched: Sched,
    /// Router counter window (0 = off).
    pub window_ns: u64,
    /// Virtual-time bound per run.
    pub until: SimTime,
    /// Keep raw results (needed for Fig 8 / Table VI post-processing).
    pub keep_results: bool,
    /// Router flow-control model.
    pub flow: FlowControl,
    /// Telemetry sink: every run appends scheduler/network/phase records.
    pub telemetry: Option<std::sync::Arc<telemetry::Recorder>>,
    /// Causal tracer: every run records executed events and scheduler
    /// phases, labelled with the run key, for Chrome-trace export.
    pub tracer: Option<std::sync::Arc<ross::Tracer>>,
    /// Live metrics registry: every run streams engine counters into it
    /// while in flight and publishes per-app gauges at harvest.
    pub live: Option<std::sync::Arc<telemetry::live::MetricsRegistry>>,
}

impl SweepConfig {
    /// The paper's full methodology at Quick scale: both networks, all
    /// six placement/routing combinations, all three workloads plus
    /// baselines.
    pub fn quick() -> SweepConfig {
        SweepConfig {
            profile: Profile::Quick,
            iters: 2,
            scale: 16,
            seed: 42,
            nets: vec![Net::OneD, Net::TwoD],
            placements: Placement::all().to_vec(),
            routings: vec![Routing::Minimal, Routing::Adaptive],
            workloads: vec![1, 2, 3],
            baselines: true,
            sched: Sched::Seq,
            window_ns: 0,
            until: SimTime::MAX,
            keep_results: false,
            flow: FlowControl::BusyUntil,
            telemetry: None,
            tracer: None,
            live: None,
        }
    }

    /// A minimal smoke configuration (used by tests and benches).
    pub fn smoke() -> SweepConfig {
        SweepConfig {
            iters: 1,
            scale: 64,
            nets: vec![Net::OneD],
            placements: vec![Placement::RandomGroups],
            routings: vec![Routing::Adaptive],
            workloads: vec![3],
            baselines: false,
            ..SweepConfig::quick()
        }
    }

    /// The dragonfly configuration of `net` under this sweep's profile
    /// and flow control.
    pub fn net_config(&self, net: Net) -> DragonflyConfig {
        DragonflyConfig { flow: self.flow, ..net.config(self.profile) }
    }
}

/// The applications participating in a workload (for baseline selection).
fn apps_of(workload: u8) -> Vec<AppKind> {
    workloads::workload(workload, Profile::Quick, 1, 64).into_iter().map(|a| a.kind).collect()
}

/// Build the simulation of one sweep cell: the model every run of `key`
/// (in-process, shard worker, verification reference) starts from.
pub(crate) fn build(cfg: &SweepConfig, key: RunKey) -> Result<CodesSim, String> {
    let apps: Vec<AppConfig> = match key.workload {
        Workload::Mix(w) => workloads::workload(w, cfg.profile, cfg.iters, cfg.scale),
        Workload::Baseline(kind) => {
            vec![workloads::app(kind, cfg.profile, cfg.iters, cfg.scale)]
        }
    };
    let mut b = SimulationBuilder::new(cfg.net_config(key.net))
        .routing(key.routing)
        .placement(key.placement)
        .seed(cfg.seed)
        .window_ns(cfg.window_ns);
    if let Some(rec) = &cfg.telemetry {
        b = b.telemetry(rec.clone());
    }
    if let Some(tr) = &cfg.tracer {
        tr.label_next_run(&key.label());
        b = b.tracer(tr.clone());
    }
    if let Some(reg) = &cfg.live {
        b = b.live(reg.clone());
    }
    for a in &apps {
        b = b.job(a.name(), a.vms(cfg.seed)?);
    }
    b.build()
}

/// Run one configuration and summarize it.
pub fn run_one(cfg: &SweepConfig, key: RunKey) -> Result<RunRecord, String> {
    run_cell(cfg, key).map(|(record, _)| record)
}

/// [`run_one`] that also hands back the finished simulation, so a
/// single-cell run (`union-exp mix`) can fingerprint its final state.
pub(crate) fn run_cell(cfg: &SweepConfig, key: RunKey) -> Result<(RunRecord, CodesSim), String> {
    let mut sim = build(cfg, key)?;
    // The model runs at its own window; the lookahead given here is unused.
    let lookahead = SimDuration::ZERO;
    let sched = match cfg.sched {
        Sched::Seq => Scheduler::Sequential,
        Sched::Par { threads } => Scheduler::ConservativeParallel { threads, lookahead },
        Sched::Async { threads } => Scheduler::ConservativeAsync { threads, lookahead },
        Sched::Shard(_) => return Err("a shard:N:T gang runs in worker processes".to_string()),
    };
    let t0 = std::time::Instant::now();
    let results = sim.run(sched, cfg.until);
    // A wire-protocol violation is a simulation failure, not a result.
    for a in &results.apps {
        if a.failed() {
            return Err(format!("{}: MPI protocol failure: {}", a.name, a.errors.join("; ")));
        }
    }
    if let Some(rec) = &cfg.telemetry {
        rec.emit(&telemetry::PhaseRecord::new(&key.label(), t0.elapsed().as_nanos() as u64));
    }
    let outcomes = results
        .apps
        .iter()
        .map(|a| {
            let lat = AppLatencySummary::from_ranks(&a.latency);
            let comm: Vec<f64> = a.comm.iter().map(|c| c.total_ns as f64).collect();
            AppOutcome {
                name: a.name.clone(),
                max_latency: lat.max_box,
                avg_latency: lat.avg_box,
                overall_avg_latency_ns: lat.overall_avg_ns,
                comm_time: Boxplot::from_samples(&comm),
                done: a.all_done(),
                bytes_sent: a.bytes_sent,
            }
        })
        .collect();
    let record = RunRecord {
        key,
        apps: outcomes,
        link_load: results.link_load,
        n_lps: sim.n_lps(),
        stats: results.stats.clone(),
        results: if cfg.keep_results { Some(results) } else { None },
    };
    Ok((record, sim))
}

/// Expand a sweep into its run keys: for every (net, placement, routing),
/// each involved application alone (once, when baselines are on), then
/// each selected workload mix.
pub(crate) fn keys(cfg: &SweepConfig) -> Vec<RunKey> {
    let mut workloads: Vec<Workload> = Vec::new();
    if cfg.baselines {
        for kind in cfg.workloads.iter().flat_map(|&w| apps_of(w)) {
            if !workloads.contains(&Workload::Baseline(kind)) {
                workloads.push(Workload::Baseline(kind));
            }
        }
    }
    workloads.extend(cfg.workloads.iter().map(|&w| Workload::Mix(w)));
    let mut keys = Vec::new();
    for &net in &cfg.nets {
        for &placement in &cfg.placements {
            for &routing in &cfg.routings {
                let cell = |&workload| RunKey { net, workload, placement, routing };
                keys.extend(workloads.iter().map(cell));
            }
        }
    }
    keys
}

/// Run every cell of the sweep in [`keys`] order, announcing each to
/// `progress` and handing each finished run to `visit`; the first failed
/// run ends the sweep with `<key>: <error>`.
pub(crate) fn for_each_cell(
    cfg: &SweepConfig,
    mut progress: impl FnMut(&str),
    mut visit: impl FnMut(RunRecord, CodesSim),
) -> Result<(), String> {
    for key in keys(cfg) {
        progress(&key.progress_label());
        let (record, sim) = run_cell(cfg, key).map_err(|e| format!("{}: {e}", key.label()))?;
        visit(record, sim);
    }
    Ok(())
}

/// Run the full sweep and collect its records.
pub fn run_sweep(cfg: &SweepConfig, progress: impl FnMut(&str)) -> Result<Vec<RunRecord>, String> {
    let mut records = Vec::new();
    for_each_cell(cfg, progress, |record, _| records.push(record))?;
    Ok(records)
}

/// Find the baseline record for (net, app, placement, routing).
pub fn baseline_of<'a>(
    records: &'a [RunRecord],
    net: Net,
    app: &str,
    placement: Placement,
    routing: Routing,
) -> Option<&'a AppOutcome> {
    records
        .iter()
        .find(|r| {
            matches!(r.key.workload, Workload::Baseline(k) if k.label() == app)
                && r.key.net == net
                && r.key.placement == placement
                && r.key.routing == routing
        })
        .and_then(|r| r.app(app))
}
