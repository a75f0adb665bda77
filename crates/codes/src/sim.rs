//! The simulation assembly: builder, the composed LP, and result harvest.

use crate::event::{Event, LpMap};
use crate::model::{partition_blocks, Window};
use crate::node::{NodeLp, Proc};
use crate::router_lp::RouterLp;
use crate::shared::Shared;
use dragonfly::{DragonflyConfig, LinkClass, Routing, Topology};
use metrics::{CommTimer, LatencyRecorder, LinkLoad, TimeSeries};
use mpi_sim::MpiRank;
use placement::{JobRequest, Layout, Placement};
use ross::{
    Ctx, Envelope, Lp, Partition, QueueKind, RunStats, Scheduler, SimDuration, SimTime, Simulation,
};
use std::sync::Arc;
use union_core::{OpSource, RankVm};

/// The composed logical process: either a node or a router.
#[derive(Clone)]
pub enum CodesLp {
    Node(NodeLp),
    Router(RouterLp),
}

impl Lp for CodesLp {
    type Event = Event;
    fn handle(&mut self, ev: &Envelope<Event>, ctx: &mut Ctx<'_, Event>) {
        match self {
            CodesLp::Node(n) => n.handle_event(ev.recv_time, &ev.payload, ctx),
            CodesLp::Router(r) => r.handle_event(ev.recv_time, &ev.payload, ctx),
        }
    }

    fn trace_kind(&self, ev: &Envelope<Event>) -> u16 {
        match self {
            CodesLp::Node(n) => n.trace_kind(&ev.payload),
            CodesLp::Router(_) => 0,
        }
    }

    #[inline]
    fn prefetch(&self) {
        match self {
            CodesLp::Node(n) => n.prefetch(),
            CodesLp::Router(r) => r.prefetch(),
        }
    }
}

// Compile-time proof that the composed LP (and everything it drags
// along: VMs, trace cursors, router state, `Arc<Shared>`) can be moved
// onto the parallel schedulers' worker threads.
const _: () = {
    const fn require_send<T: Send>() {}
    require_send::<CodesLp>();
};

/// A job to simulate: a name and one op source per MPI rank (skeleton
/// VMs for Union in-situ workloads, trace cursors for trace replay).
pub struct JobSpec {
    pub name: String,
    pub sources: Vec<OpSource>,
}

/// Builder for a hybrid-workload simulation.
pub struct SimulationBuilder {
    cfg: DragonflyConfig,
    routing: Routing,
    placement: Placement,
    seed: u64,
    eager_max: u64,
    window_ns: u64,
    queue: QueueKind,
    jobs: Vec<JobSpec>,
    telemetry: Option<Arc<telemetry::Recorder>>,
    tracer: Option<Arc<ross::Tracer>>,
    live: Option<Arc<telemetry::live::MetricsRegistry>>,
}

impl SimulationBuilder {
    pub fn new(cfg: DragonflyConfig) -> SimulationBuilder {
        SimulationBuilder {
            cfg,
            routing: Routing::Adaptive,
            placement: Placement::RandomGroups,
            seed: 1,
            eager_max: mpi_sim::EAGER_MAX,
            window_ns: 0,
            queue: QueueKind::default(),
            jobs: Vec::new(),
            telemetry: None,
            tracer: None,
            live: None,
        }
    }

    /// Attach a telemetry recorder: schedulers append per-run records and
    /// the harvest appends one `network` record per run.
    pub fn telemetry(mut self, recorder: Arc<telemetry::Recorder>) -> Self {
        self.telemetry = Some(recorder);
        self
    }

    /// Attach a causal tracer: schedulers record every executed event,
    /// the builder stages kind names (per-app comm/compute) and per-LP
    /// track names (app + MPI rank), and the harvest refreshes the track
    /// names with each rank's final state.
    pub fn tracer(mut self, tracer: Arc<ross::Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attach a live metrics registry: schedulers stream engine metrics
    /// at their sync cadence and the harvest publishes per-app progress
    /// gauges (`app_ops{app="..."}` and friends).
    pub fn live(mut self, reg: Arc<telemetry::live::MetricsRegistry>) -> Self {
        self.live = Some(reg);
        self
    }

    pub fn routing(mut self, r: Routing) -> Self {
        self.routing = r;
        self
    }

    pub fn placement(mut self, p: Placement) -> Self {
        self.placement = p;
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    pub fn eager_max(mut self, bytes: u64) -> Self {
        self.eager_max = bytes;
        self
    }

    /// Enable per-app windowed router counters (the paper uses 0.5 ms).
    pub fn window_ns(mut self, ns: u64) -> Self {
        self.window_ns = ns;
        self
    }

    /// Select the engine's pending-event queue (default: ladder). Never
    /// changes results, only throughput.
    pub fn queue(mut self, q: QueueKind) -> Self {
        self.queue = q;
        self
    }

    /// Add a Union in-situ job (application). App ids are assigned in
    /// insertion order.
    pub fn job(self, name: &str, vms: Vec<RankVm>) -> Self {
        self.job_sources(name, vms.into_iter().map(OpSource::from).collect())
    }

    /// Add a trace-replay job (one cursor per rank) — the baseline
    /// workload mechanism Union replaces (paper Table I).
    pub fn job_trace(self, name: &str, trace: &std::sync::Arc<union_core::Trace>) -> Self {
        let sources = (0..trace.num_ranks()).map(|r| trace.cursor(r).into()).collect();
        self.job_sources(name, sources)
    }

    /// Add a job from explicit op sources.
    pub fn job_sources(mut self, name: &str, sources: Vec<OpSource>) -> Self {
        self.jobs.push(JobSpec { name: name.to_string(), sources });
        self
    }

    /// Place the jobs, wire up all LPs, install one scheduler block per
    /// dragonfly group and derive the model's lookahead [`Window`].
    /// `Err` when the model cannot be built or no positive window is safe.
    pub fn build(self) -> Result<CodesSim, String> {
        self.cfg.check()?;
        if self.jobs.is_empty() {
            return Err("no jobs".into());
        }
        let topo = Topology::build(self.cfg);
        let blocks = partition_blocks(&topo);
        let window = Window::derive(&topo, &blocks)?;
        let requests: Vec<JobRequest> =
            self.jobs.iter().map(|j| JobRequest::new(&j.name, j.sources.len() as u32)).collect();
        let layout = Layout::place(&topo, &requests, self.placement, self.seed)?;
        let n_nodes = topo.cfg.total_nodes();
        let n_routers = topo.cfg.total_routers();
        let shared = Arc::new(Shared {
            topo,
            layout,
            routing: self.routing,
            eager_max: self.eager_max,
            window_ns: self.window_ns,
            max_apps: self.jobs.len().max(1),
            lpmap: LpMap { n_nodes },
            lookahead: SimDuration::from_ns(1),
            job_names: self.jobs.iter().map(|j| j.name.clone()).collect(),
        });

        // Attach rank processes to their placed nodes.
        let mut procs: Vec<Option<Proc>> = (0..n_nodes).map(|_| None).collect();
        for (app, job) in self.jobs.into_iter().enumerate() {
            for (rank, src) in job.sources.into_iter().enumerate() {
                let node = shared.layout.node_of(app as u32, rank as u32);
                debug_assert_eq!(src.rank(), rank as u32, "source rank order mismatch");
                procs[node as usize] =
                    Some(Proc { app: app as u32, mpi: MpiRank::new(src, shared.eager_max) });
            }
        }

        let mut lps: Vec<CodesLp> = Vec::with_capacity((n_nodes + n_routers) as usize);
        let mut start_lps = Vec::new();
        for (node, proc) in procs.into_iter().enumerate() {
            if proc.is_some() {
                start_lps.push(node as u32);
            }
            lps.push(CodesLp::Node(NodeLp::new(node as u32, shared.clone(), proc)));
        }
        for router in 0..n_routers {
            lps.push(CodesLp::Router(RouterLp::new(router, shared.clone(), self.seed)));
        }

        let mut sim = Simulation::with_queue(lps, shared.lookahead, self.queue);
        sim.set_partition(Partition::from_blocks(blocks));
        sim.set_telemetry(self.telemetry);
        sim.set_tracer(self.tracer);
        sim.set_live(self.live);
        for lp in start_lps {
            sim.schedule(lp, SimTime::ZERO, Event::Start);
        }
        let codes = CodesSim { sim, shared, window };
        codes.stage_trace_names();
        Ok(codes)
    }
}

/// Kind-tag names matching [`NodeLp::trace_kind`] / `CodesLp::trace_kind`:
/// index 0 is network plumbing, then a comm/compute pair per application.
pub fn trace_kind_names(job_names: &[String]) -> Vec<String> {
    let mut names = Vec::with_capacity(1 + 2 * job_names.len());
    names.push("net".to_string());
    for j in job_names {
        names.push(format!("{j} comm"));
        names.push(format!("{j} compute"));
    }
    names
}

/// A runnable hybrid-workload simulation. Its recorder, tracer and live
/// registry are the engine's (`ross::Simulation::{telemetry, tracer,
/// live}`): the harvest reports through the same sinks the schedulers do.
pub struct CodesSim {
    sim: Simulation<CodesLp>,
    shared: Arc<Shared>,
    window: Window,
}

/// Per-application outcome.
#[derive(Clone, Debug)]
pub struct AppResult {
    pub name: String,
    /// Per-rank message-latency records.
    pub latency: Vec<LatencyRecorder>,
    /// Per-rank communication time (ns spent blocked in MPI).
    pub comm: Vec<CommTimer>,
    /// Per-rank completion time (None = did not finish before the bound).
    pub finished_at_ns: Vec<Option<u64>>,
    pub bytes_sent: u64,
    pub ops_executed: u64,
    /// Wire-protocol violations that stopped ranks of this app (one
    /// entry per failed rank). A rank that fails never finishes, so a
    /// non-empty list also means `all_done()` is false — but the error
    /// text distinguishes "failed" from "hung" or "out of time".
    pub errors: Vec<String>,
}

impl AppResult {
    pub fn all_done(&self) -> bool {
        self.finished_at_ns.iter().all(|f| f.is_some())
    }

    /// True when any rank stopped on a protocol violation.
    pub fn failed(&self) -> bool {
        !self.errors.is_empty()
    }

    /// Job makespan (max rank completion), ns.
    pub fn makespan_ns(&self) -> Option<u64> {
        self.finished_at_ns.iter().copied().collect::<Option<Vec<u64>>>()?.into_iter().max()
    }
}

/// Everything the experiments harvest from one run.
#[derive(Clone, Debug)]
pub struct SimResults {
    pub apps: Vec<AppResult>,
    pub link_load: LinkLoad,
    /// Per-router windowed per-app byte counters (only routers with
    /// traffic; empty when windowing is disabled).
    pub router_windows: Vec<(u32, Vec<Vec<u64>>)>,
    pub stats: RunStats,
}

impl SimResults {
    /// Sum the windowed series over a set of routers (Fig 8: all routers
    /// serving one application).
    pub fn series_over(&self, routers: &[u32], window_ns: u64) -> TimeSeries {
        let mut ts = TimeSeries::default();
        for (r, counts) in &self.router_windows {
            if routers.binary_search(r).is_ok() {
                // Every router in one run is binned at the same window
                // size, so a mismatch here is a harvest bug, not input.
                ts.accumulate(window_ns, counts).expect("routers share one window size");
            }
        }
        ts
    }
}

impl CodesSim {
    /// Run to completion (or `until`) with the chosen scheduler and
    /// harvest results. A conservative scheduler runs at the model's own
    /// window, whatever `lookahead` it carries: the round loop and the
    /// async scheduler both keep each block on one thread.
    pub fn run(&mut self, sched: Scheduler, until: SimTime) -> SimResults {
        let lookahead = SimDuration::from_ns(self.window.ns);
        let sched = match sched {
            Scheduler::Sequential => Scheduler::Sequential,
            Scheduler::ConservativeParallel { threads, .. } => {
                Scheduler::ConservativeParallel { threads, lookahead }
            }
            Scheduler::ConservativeAsync { threads, .. } => {
                Scheduler::ConservativeAsync { threads, lookahead }
            }
        };
        let stats = sched.run(&mut self.sim, until);
        self.harvest(stats)
    }

    /// Order-independent digest of the final state of every LP, folding
    /// every observable the harvest reads (NIC counters, per-rank MPI
    /// results, router port bytes, windowed counters): the wrapping sum of
    /// the per-LP digests. Every scheduler must leave the same value.
    pub fn state_fingerprint(&self) -> u64 {
        self.sim
            .lps()
            .iter()
            .enumerate()
            .fold(0u64, |acc, (g, lp)| acc.wrapping_add(Self::lp_digest_impl(g as u32, lp)))
    }

    pub fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Total LP count of the built model (routers + NICs + ranks).
    pub fn n_lps(&self) -> u32 {
        self.sim.n_lps() as u32
    }

    /// Stage kind names and app/rank-aware LP track names for the next
    /// trace run.
    fn stage_trace_names(&self) {
        if let Some(tr) = self.sim.tracer() {
            tr.stage_kind_names(trace_kind_names(&self.shared.job_names));
            tr.stage_lp_names(self.trace_lp_names());
        }
    }

    /// Per-LP trace track names: nodes hosting a rank carry app name,
    /// rank and current MPI state; other LPs fall back to topology names.
    fn trace_lp_names(&self) -> Vec<String> {
        self.sim
            .lps()
            .iter()
            .map(|lp| match lp {
                CodesLp::Node(n) => match &n.proc {
                    Some(p) => format!(
                        "node {} · {} {}",
                        n.node,
                        self.shared.job_names[p.app as usize],
                        p.mpi.describe()
                    ),
                    None => format!("node {}", n.node),
                },
                CodesLp::Router(r) => format!("router {}", r.state.id),
            })
            .collect()
    }

    /// Pending event count (nonzero after a bounded run that stopped
    /// early).
    pub fn pending_events(&self) -> usize {
        self.sim.pending_events()
    }

    /// Digest of one LP's observable end-of-run state (everything
    /// [`CodesSim::harvest`] reads from it), keyed by its global id.
    fn lp_digest_impl(gid: u32, lp: &CodesLp) -> u64 {
        use ross::digest::{fnv1a, put_u64};
        let mut buf = Vec::with_capacity(256);
        put_u64(&mut buf, gid as u64);
        match lp {
            CodesLp::Node(n) => {
                put_u64(&mut buf, 0);
                put_u64(&mut buf, n.injected_packets());
                put_u64(&mut buf, n.injected_bytes());
                put_u64(&mut buf, n.delivered_packets);
                if let Some(p) = &n.proc {
                    put_u64(&mut buf, 1 + p.app as u64);
                    put_u64(&mut buf, p.mpi.rank() as u64);
                    put_u64(&mut buf, p.mpi.bytes_sent);
                    put_u64(&mut buf, p.mpi.ops_executed);
                    put_u64(&mut buf, p.mpi.finished_at_ns.unwrap_or(u64::MAX));
                    put_u64(&mut buf, p.mpi.latency.min_ns);
                    put_u64(&mut buf, p.mpi.latency.max_ns);
                    put_u64(&mut buf, p.mpi.latency.sum_ns);
                    put_u64(&mut buf, p.mpi.latency.count);
                    put_u64(&mut buf, p.mpi.comm.total_ns);
                    put_u64(&mut buf, p.mpi.protocol_error().is_some() as u64);
                }
            }
            CodesLp::Router(r) => {
                put_u64(&mut buf, 2);
                for b in r.state.port_bytes() {
                    put_u64(&mut buf, b);
                }
                if let Some(c) = &r.credit {
                    put_u64(&mut buf, c.stalls);
                }
                for w in &r.state.windows.counts {
                    for &v in w {
                        put_u64(&mut buf, v);
                    }
                }
            }
        }
        fnv1a(&buf)
    }

    fn harvest(&self, stats: RunStats) -> SimResults {
        if let Some(tr) = self.sim.tracer() {
            // Re-label trace tracks with the final rank states so the
            // exported names reflect how each rank ended the run.
            tr.refresh_lp_names(self.trace_lp_names());
        }
        let mut apps: Vec<AppResult> = self
            .shared
            .job_names
            .iter()
            .enumerate()
            .map(|(a, name)| {
                let ranks = self.shared.layout.rank_to_node[a].len();
                AppResult {
                    name: name.clone(),
                    latency: vec![LatencyRecorder::default(); ranks],
                    comm: vec![CommTimer::default(); ranks],
                    finished_at_ns: vec![None; ranks],
                    bytes_sent: 0,
                    ops_executed: 0,
                    errors: Vec::new(),
                }
            })
            .collect();
        let mut link_load = LinkLoad::default();
        let mut router_windows = Vec::new();
        let mut net = telemetry::NetworkRecord::new();

        for lp in self.sim.lps() {
            match lp {
                CodesLp::Node(n) => {
                    net.packets_injected += n.injected_packets();
                    net.packets_delivered += n.delivered_packets;
                    net.bytes_injected += n.injected_bytes();
                    if let Some(p) = &n.proc {
                        let a = &mut apps[p.app as usize];
                        let r = p.mpi.rank() as usize;
                        a.latency[r] = p.mpi.latency.clone();
                        a.comm[r] = p.mpi.comm;
                        a.finished_at_ns[r] = p.mpi.finished_at_ns;
                        a.bytes_sent += p.mpi.bytes_sent;
                        a.ops_executed += p.mpi.ops_executed;
                        if let Some(e) = p.mpi.protocol_error() {
                            a.errors.push(e.to_string());
                        }
                    }
                }
                CodesLp::Router(r) => {
                    if let Some(c) = &r.credit {
                        net.credit_stalls += c.stalls;
                    }
                    let ports = self.shared.topo.ports(r.state.id);
                    for (info, bytes) in ports.iter().zip(r.state.port_bytes()) {
                        match info.class {
                            LinkClass::Terminal => {
                                link_load.terminal_bytes += bytes;
                            }
                            LinkClass::Local => {
                                link_load.local_bytes += bytes;
                                link_load.n_local_links += 1;
                            }
                            LinkClass::Global => {
                                link_load.global_bytes += bytes;
                                link_load.n_global_links += 1;
                            }
                        }
                    }
                    if !r.state.windows.counts.is_empty() {
                        router_windows.push((r.state.id, r.state.windows.counts.clone()));
                    }
                }
            }
        }
        // Per-app progress, rendered twice: as `app_*{app="…"}` gauges on
        // the live endpoint and as the `network` record's `apps`. Gauges,
        // not counters: the harvest publishes final per-run values (and
        // multi-run experiments overwrite, which is the live-view
        // semantic we want — "where is this app now").
        net.apps = apps
            .iter()
            .map(|a| telemetry::AppProgressRecord {
                app: a.name.clone(),
                ranks: a.finished_at_ns.len() as u64,
                ranks_finished: a.finished_at_ns.iter().filter(|f| f.is_some()).count() as u64,
                bytes_sent: a.bytes_sent,
                ops_executed: a.ops_executed,
                makespan_ns: a.makespan_ns(),
            })
            .collect();
        if let Some(reg) = self.sim.live() {
            for p in &net.apps {
                let label = |m: &str| format!("{m}{{app=\"{}\"}}", p.app);
                reg.gauge(&label("app_ops")).set(p.ops_executed);
                reg.gauge(&label("app_bytes_sent")).set(p.bytes_sent);
                reg.gauge(&label("app_ranks")).set(p.ranks);
                reg.gauge(&label("app_ranks_finished")).set(p.ranks_finished);
                reg.gauge(&label("app_makespan_ns")).set(p.makespan_ns.unwrap_or(0));
            }
        }
        if let Some(rec) = self.sim.telemetry() {
            rec.emit(&net);
        }
        SimResults { apps, link_load, router_windows, stats }
    }
}
