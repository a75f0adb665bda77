//! One description of a run — [`RunSpec`] — parsed once from the command
//! line, validated once, and executed by one [`run`].
//!
//! Every `union-exp` command that simulates something (`phold`, `mix`,
//! the sweep commands) goes through here: [`RunSpec::parse`] checks the
//! arguments against one flag table ([`RunSpec::usage`] renders the same
//! table), [`RunSpec::validate`] refuses what the model cannot run before
//! anything is built, and [`run`] executes it — sequentially or under a
//! parallel scheduler — with the telemetry, trace, live-metrics and
//! profiler sinks set up and torn down around it. The spec serializes
//! into the telemetry manifest, so a recorded run carries its own
//! description.

use crate::live::{LiveOpts, LivePlane};
use crate::phold::{self, PholdParams};
use crate::sweep::{self, Net, RunRecord, SweepConfig};
use crate::trace_analysis::RunAnalysis;
use dragonfly::{FlowControl, Routing};
use placement::Placement;
use ross::SimTime;
use serde::Value;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use telemetry::Recorder;
use workloads::Profile;

/// One command-line flag: its spelling, its value placeholder (empty for
/// a switch), the commands that take it and what it means.
struct Flag {
    name: &'static str,
    value: &'static str,
    /// Space-separated command names; `sweep` stands for [`SWEEP_CMDS`].
    cmds: &'static str,
    help: &'static str,
}

const SWEEP_CMDS: [&str; 6] = ["fig7", "fig8", "fig9", "table6", "all", "lint"];

/// The `--sched` grammar, as documented.
const SCHED_GRAMMAR: &str = "seq|par:T|async:T";

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--profile", value: "quick|paper", cmds: "sweep mix", help: "system scale (default quick; paper = the Table II systems)" },
    Flag { name: "--iters", value: "N", cmds: "sweep mix table1", help: "iterations per application (default 2; table1: 5)" },
    Flag { name: "--scale", value: "N", cmds: "sweep mix", help: "payload divisor (default 16; 1 under --profile paper)" },
    Flag { name: "--seed", value: "N", cmds: "sweep mix phold", help: "placement/model seed (default 42)" },
    Flag { name: "--sched", value: "SPEC", cmds: "sweep mix phold", help: "seq|par:T|async:T (phold: seq; default seq): T threads; the model sets the lookahead window" },
    Flag { name: "--flow", value: "busy|credit", cmds: "sweep", help: "router flow control (default busy)" },
    Flag { name: "--nets", value: "1d,2d", cmds: "sweep", help: "networks to sweep (default both)" },
    Flag { name: "--placements", value: "RN,RR,RG", cmds: "sweep", help: "placement policies to sweep (default all)" },
    Flag { name: "--routings", value: "MIN,ADP", cmds: "sweep", help: "routing policies to sweep (default both)" },
    Flag { name: "--workloads", value: "1,2,3", cmds: "sweep", help: "Table III mixes to sweep (default all)" },
    Flag { name: "--no-baselines", value: "", cmds: "sweep", help: "skip the each-application-alone runs" },
    Flag { name: "--net", value: "1d|2d", cmds: "mix", help: "network (default 1d)" },
    Flag { name: "--placement", value: "RN|RR|RG", cmds: "mix", help: "placement policy (default RG)" },
    Flag { name: "--routing", value: "MIN|ADP", cmds: "mix", help: "routing policy (default ADP)" },
    Flag { name: "--workload", value: "1|2|3", cmds: "mix", help: "Table III mix (default 3)" },
    Flag { name: "--lps", value: "N", cmds: "phold", help: "PHOLD LP count (default 16)" },
    Flag { name: "--horizon-us", value: "U", cmds: "phold", help: "PHOLD stops sending at U us of virtual time (default 30)" },
    Flag { name: "--until-us", value: "U", cmds: "mix phold", help: "stop at U us of virtual time (default 0 = run to completion)" },
    Flag { name: "--json", value: "FILE", cmds: "sweep", help: "dump the run records as JSON" },
    Flag { name: "--telemetry", value: "FILE", cmds: "sweep mix phold", help: "write run telemetry as JSONL, the run manifest first; sweeps also print a summary" },
    Flag { name: "--trace", value: "FILE[:RATE]", cmds: "sweep", help: "export a causal trace as Chrome trace-event JSON, timing every RATE-th handler (default 1)" },
    Flag { name: "--live", value: "ADDR", cmds: "mix phold", help: "serve /metrics (Prometheus text) and /snapshot (JSON)" },
    Flag { name: "--live-hold", value: "MS", cmds: "mix phold", help: "keep the endpoint up MS ms after the run (default 0)" },
    Flag { name: "--live-interval", value: "MS", cmds: "mix phold", help: "sampler interval (default 250)" },
    Flag { name: "--sample-out", value: "FILE", cmds: "mix phold", help: "write a SIGPROF CPU profile of the run (read it with scripts/samples.py)" },
    Flag { name: "--ranks", value: "N", cmds: "table1 validate lint", help: "rank count (table1: 64, validate: 512, lint --file: 4)" },
    Flag { name: "--fixture", value: "NAME", cmds: "lint", help: "lint a seeded-bug fixture instead of the bundled workloads" },
    Flag { name: "--file", value: "PROG.ncptl", cmds: "lint", help: "lint a DSL program instead of the bundled workloads" },
    Flag { name: "--analyze", value: "FILE.json", cmds: "trace", help: "critical path and speedup bound of an exported trace" },
];

impl Flag {
    fn accepted_by(&self, cmd: &str) -> bool {
        self.cmds.split(' ').any(|c| c == cmd || (c == "sweep" && SWEEP_CMDS.contains(&cmd)))
    }
}

/// A command line that cannot be run as written (exit code 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Why a [`run`] did not produce a report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// Something the command line named turned out unusable once the run
    /// touched it — a `--live` address that cannot be bound. A usage
    /// error in effect (exit code 2).
    Input(String),
    /// The run itself failed (exit code 1).
    Failed(String),
}

impl From<UsageError> for RunError {
    fn from(e: UsageError) -> RunError {
        RunError::Input(e.0)
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (RunError::Input(m) | RunError::Failed(m)) = self;
        f.write_str(m)
    }
}

/// The arguments of one command, checked against [`FLAGS`].
struct Args<'a> {
    given: Vec<(&'static Flag, &'a str)>,
}

impl<'a> Args<'a> {
    fn parse(cmd: &str, args: &'a [String]) -> Result<Args<'a>, UsageError> {
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = FLAGS
                .iter()
                .find(|f| f.name == arg && f.accepted_by(cmd))
                .ok_or_else(|| UsageError(format!("`{cmd}` takes no argument `{arg}`")))?;
            let value = match flag.value {
                "" => "",
                placeholder => it.next().ok_or_else(|| {
                    UsageError(format!("flag {arg} needs a value ({placeholder})"))
                })?,
            };
            given.push((flag, value));
        }
        Ok(Args { given })
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.given.iter().find(|(f, _)| f.name == name).map(|&(_, v)| v)
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of `name` (or `default` when absent), each element as
    /// `item` reads it. A flag whose placeholder shows a comma takes a
    /// list; the result is never empty, since an empty element is refused
    /// like any other value `item` does not know — a usage error naming
    /// the flag, the value and what the flag table expects.
    fn list<T>(
        &self,
        name: &str,
        default: &str,
        item: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, UsageError> {
        let expected = FLAGS.iter().find(|f| f.name == name).map_or("", |f| f.value);
        let given = self.get(name).unwrap_or(default);
        let elements =
            if expected.contains(',') { given.split(',').collect() } else { vec![given] };
        let read = |v: &str| {
            item(v.trim()).ok_or_else(|| {
                UsageError(format!("bad value `{v}` for {name} (expected {expected})"))
            })
        };
        elements.into_iter().map(read).collect()
    }

    fn value<T>(
        &self,
        name: &str,
        default: &str,
        item: impl Fn(&str) -> Option<T>,
    ) -> Result<T, UsageError> {
        self.list(name, default, item).map(|mut one| one.remove(0))
    }
}

fn num<T: FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

/// Read a value by the label its type prints with.
fn by_label<T: Copy>(all: &[T], label: fn(T) -> &'static str) -> impl Fn(&str) -> Option<T> + '_ {
    move |v| all.iter().copied().find(|&t| label(t).eq_ignore_ascii_case(v))
}

const NETS: [Net; 2] = [Net::OneD, Net::TwoD];
const ROUTINGS: [Routing; 2] = [Routing::Minimal, Routing::Adaptive];
const PROFILES: [Profile; 2] = [Profile::Quick, Profile::Paper];

fn profile_label(p: Profile) -> &'static str {
    match p {
        Profile::Quick => "quick",
        Profile::Paper => "paper",
    }
}

/// How a run is scheduled: sequentially or by worker threads. No variant
/// carries a lookahead window: a CODES model derives its own
/// ([`codes::Window`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sched {
    Seq,
    /// Conservative windows with a barrier per round.
    Par {
        threads: usize,
    },
    /// The same promise as `Par`, without barriers.
    Async {
        threads: usize,
    },
}

impl Sched {
    /// Parse a `--sched` spec: `seq`, `par:T` or `async:T` — `T` worker
    /// threads. Malformed specs are reported, not defaulted; so is the
    /// retired `cons:T`.
    pub fn parse(s: &str) -> Result<Sched, String> {
        let mut fields = s.split(':');
        let kind = fields.next().unwrap_or("");
        let fields: Vec<&str> = fields.collect();
        let count = |i: usize, what: &str| -> Result<usize, String> {
            num::<usize>(fields[i])
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("bad {what} `{}` in scheduler spec `{s}`", fields[i]))
        };
        match (kind, fields.len()) {
            ("seq", 0) => Ok(Sched::Seq),
            ("cons", _) => Err(format!(
                "`{s}`: the YAWNS scheduler is retired; the parallel one derives its window \
                 from the model — use par:{}",
                fields.first().unwrap_or(&"T")
            )),
            ("par", 1) => Ok(Sched::Par { threads: count(0, "thread count")? }),
            ("async", 1) => Ok(Sched::Async { threads: count(0, "thread count")? }),
            ("par" | "async", _) => Err(format!("scheduler spec `{s}` must be {kind}:<threads>")),
            _ => Err(format!("unknown scheduler `{s}`")),
        }
    }
}

/// The `--sched` specs `cmd` can run: PHOLD is sequential only.
fn supported_scheds(cmd: &str) -> &'static str {
    match cmd {
        "phold" => "seq",
        _ => SCHED_GRAMMAR,
    }
}

/// The spec string [`Sched::parse`] reads back.
impl fmt::Display for Sched {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Sched::Seq => f.write_str("seq"),
            Sched::Par { threads } => write!(f, "par:{threads}"),
            Sched::Async { threads } => write!(f, "async:{threads}"),
        }
    }
}

/// What a run simulates.
#[derive(Clone, Debug)]
pub enum Model {
    /// The PHOLD demonstration model.
    Phold { params: PholdParams, until: SimTime },
    /// The CODES dragonfly under Union workloads: one run per cell of the
    /// grid `cfg` spans — every cell of a sweep command, the single cell
    /// of `mix`. Its `sched`, `telemetry` and `tracer` fields are filled
    /// in by [`run`] from the spec's [`Sched`] and [`Outputs`].
    Codes(SweepConfig),
}

impl Model {
    /// Virtual-time bound of the run.
    pub fn until(&self) -> SimTime {
        match self {
            Model::Phold { until, .. } => *until,
            Model::Codes(cfg) => cfg.until,
        }
    }
}

/// Where a run's by-products go.
#[derive(Clone, Debug, Default)]
pub struct Outputs {
    /// `--telemetry FILE`: JSONL records, the manifest first.
    pub telemetry: Option<String>,
    /// `--trace FILE[:RATE]`: Chrome trace-event JSON and the sampling
    /// divisor for handler durations.
    pub trace: Option<(String, u32)>,
    /// `--json FILE`: the sweep's run records.
    pub json: Option<String>,
    /// `--live ADDR`: the exposition endpoint.
    pub live: Option<LiveOpts>,
    /// `--sample-out FILE`: a sampled CPU profile of the run (`profiler.rs`).
    pub samples: Option<String>,
}

/// Everything that determines one `union-exp` run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The subcommand, e.g. `mix` or `table6`.
    pub cmd: String,
    /// Its arguments as given (recorded in the manifest).
    pub args: Vec<String>,
    pub model: Model,
    pub sched: Sched,
    pub out: Outputs,
}

impl RunSpec {
    /// The usage text: every command and, from the flag table that
    /// [`RunSpec::parse`] checks arguments against, every flag.
    pub fn usage() -> String {
        let mut out = format!(
            "usage: union-exp COMMAND [flags]\n\
             commands: table1 table2 validate table4 table5 fig6 fig7 fig8 fig9 table6 all\n\
             \x20         skeleton NAME  lint  trace  phold  mix  top ADDR|FILE\n\
             exit: 0 ok, 1 run failed or findings, 2 usage error\n\
             flags, with [the commands that take them]; sweep = {}:\n",
            SWEEP_CMDS.join(" ")
        );
        for f in FLAGS {
            let flag = format!("{} {}", f.name, f.value);
            out.push_str(&format!("  {flag:<28} [{}] {}\n", f.cmds, f.help));
        }
        out
    }

    /// Parse the arguments of `cmd`; strict for every flag — an unknown
    /// argument, a missing or malformed value, an unknown name in a list
    /// are all usage errors.
    pub fn parse(cmd: &str, args: &[String]) -> Result<RunSpec, UsageError> {
        let a = Args::parse(cmd, args)?;
        let seed = a.value("--seed", "42", num)?;
        let until = match a.value("--until-us", "0", num)? {
            0 => SimTime::MAX,
            us => SimTime::from_us(us),
        };
        let model = if cmd == "phold" {
            let lps = a.value("--lps", "16", num)?;
            if lps == 0 {
                return Err(UsageError("--lps must be >= 1".to_string()));
            }
            let horizon_us: u64 = a.value("--horizon-us", "30", num)?;
            let horizon_ns = horizon_us.saturating_mul(1_000);
            Model::Phold { params: PholdParams { lps, horizon_ns, seed }, until }
        } else {
            let profile = a.value("--profile", "quick", by_label(&PROFILES, profile_label))?;
            let scale = if profile == Profile::Paper { "1" } else { "16" };
            let flow = |v: &str| match v {
                "busy" => Some(FlowControl::BusyUntil),
                "credit" => Some(FlowControl::credit_default()),
                _ => None,
            };
            let mut cfg = SweepConfig {
                profile,
                iters: a.value("--iters", "2", num)?,
                scale: a.value("--scale", scale, num)?,
                seed,
                until,
                flow: a.value("--flow", "busy", flow)?,
                baselines: !a.has("--no-baselines"),
                ..SweepConfig::quick()
            };
            // `mix` is a one-cell grid: same axes, singular flags.
            let [nets, placements, routings, workloads] = match cmd {
                "mix" => [
                    ("--net", "1d"),
                    ("--placement", "RG"),
                    ("--routing", "ADP"),
                    ("--workload", "3"),
                ],
                _ => [
                    ("--nets", "1d,2d"),
                    ("--placements", "RN,RR,RG"),
                    ("--routings", "MIN,ADP"),
                    ("--workloads", "1,2,3"),
                ],
            };
            cfg.nets = a.list(nets.0, nets.1, by_label(&NETS, Net::label))?;
            cfg.placements =
                a.list(placements.0, placements.1, by_label(&Placement::all(), Placement::label))?;
            cfg.routings = a.list(routings.0, routings.1, by_label(&ROUTINGS, Routing::label))?;
            cfg.workloads = a.list(workloads.0, workloads.1, num)?;
            match cmd {
                // `mix` reports per-app progress from the retained results.
                "mix" => (cfg.baselines, cfg.keep_results) = (false, true),
                // Fig 8 is Workload3 on 1D under adaptive routing, RG vs
                // RR, with the paper's 0.5 ms router counter window.
                "fig8" => {
                    cfg.window_ns = 500_000;
                    cfg.keep_results = true;
                    cfg.baselines = false;
                    cfg.workloads = vec![3];
                    cfg.nets = vec![Net::OneD];
                    cfg.routings = vec![Routing::Adaptive];
                    cfg.placements = vec![Placement::RandomGroups, Placement::RandomRouters];
                }
                _ => {}
            }
            Model::Codes(cfg)
        };
        // `--trace FILE[:RATE]`: a trailing `:N` is the rate, any other `:`
        // stays in the path.
        let trace = match a.get("--trace") {
            Some(v) => match v.rsplit_once(':').and_then(|(p, n)| Some((p, num(n)?))) {
                Some((path, 0)) if !path.is_empty() => {
                    return Err(UsageError(format!("--trace sample rate must be >= 1 in `{v}`")));
                }
                Some((path, rate)) if !path.is_empty() => Some((path.to_string(), rate)),
                _ => Some((v.to_string(), 1)),
            },
            None => None,
        };
        let live = match a.get("--live") {
            Some(addr) => Some(LiveOpts {
                addr: addr.to_string(),
                hold_ms: a.value("--live-hold", "0", num)?,
                interval_ms: a.value("--live-interval", "250", num)?,
            }),
            None => None,
        };
        Ok(RunSpec {
            cmd: cmd.to_string(),
            args: args.to_vec(),
            model,
            sched: Sched::parse(a.get("--sched").unwrap_or("seq")).map_err(|e| {
                UsageError(format!("{e}; {cmd} supports --sched {}", supported_scheds(cmd)))
            })?,
            out: Outputs {
                telemetry: a.get("--telemetry").map(str::to_string),
                trace,
                json: a.get("--json").map(str::to_string),
                live,
                samples: a.get("--sample-out").map(str::to_string),
            },
        })
    }

    /// Check the spec against its model before anything is built: the
    /// scheduler is one the model can run, and workloads are Table III's.
    pub fn validate(&self) -> Result<(), UsageError> {
        let (cmd, sched) = (&self.cmd, &self.sched);
        if matches!(self.model, Model::Phold { .. }) && *sched != Sched::Seq {
            let supported = supported_scheds(cmd);
            return Err(UsageError(format!("{cmd} supports --sched {supported}, not `{sched}`")));
        }
        let Model::Codes(cfg) = &self.model else { return Ok(()) };
        if let Some(w) = cfg.workloads.iter().find(|w| !(1..=3).contains(*w)) {
            return Err(UsageError(format!("no workload {w}: the paper defines workloads 1..=3")));
        }
        Ok(())
    }

    /// The spec as the telemetry manifest's `config` object.
    pub fn to_value(&self) -> Value {
        let text = |s: &str| Value::Str(s.to_string());
        let labels = |l: Vec<&str>| Value::Array(l.into_iter().map(text).collect());
        let until = self.model.until();
        let until = if until == SimTime::MAX { Value::Null } else { Value::UInt(until.as_ns()) };
        let mut o = vec![("sched", text(&self.sched.to_string())), ("until_ns", until)];
        match &self.model {
            Model::Phold { params, .. } => o.extend([
                ("model", text("phold")),
                ("lps", Value::UInt(params.lps as u64)),
                ("horizon_ns", Value::UInt(params.horizon_ns)),
            ]),
            Model::Codes(cfg) => o.extend([
                ("model", text("codes")),
                ("profile", text(profile_label(cfg.profile))),
                ("iters", Value::Int(cfg.iters)),
                ("scale", Value::Int(cfg.scale)),
                ("credit_flow", Value::Bool(cfg.flow != FlowControl::BusyUntil)),
                ("nets", labels(cfg.nets.iter().map(|n| n.label()).collect())),
                ("placements", labels(cfg.placements.iter().map(|p| p.label()).collect())),
                ("routings", labels(cfg.routings.iter().map(|r| r.label()).collect())),
                (
                    "workloads",
                    Value::Array(cfg.workloads.iter().map(|&w| Value::Int(w as i64)).collect()),
                ),
                ("baselines", Value::Bool(cfg.baselines)),
            ]),
        }
        Value::Object(o.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// A run's sinks while it executes, and what it hands back for printing
/// once it has finished.
#[derive(Default)]
pub struct RunReport {
    /// Final-state fingerprint of a single run (`phold`, `mix`); `None`
    /// for a grid of runs.
    pub fingerprint: Option<u64>,
    pub committed: u64,
    /// One record per CODES run, in sweep order.
    pub records: Vec<RunRecord>,
    /// Critical-path analysis of each traced run (`--trace`).
    pub analyses: Vec<RunAnalysis>,
    /// The recorder behind `--telemetry`; written out when `run` returns.
    pub telemetry: Option<Arc<Recorder>>,
    tracer: Option<Arc<ross::Tracer>>,
    live: Option<LivePlane>,
}

/// `git describe` of the working tree for the run manifest, or `unknown`
/// when git (or the repository) is unavailable.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl RunReport {
    /// A report with the sinks `spec.out` asks for attached; the
    /// telemetry stream starts with the run manifest.
    fn open(spec: &RunSpec) -> Result<RunReport, RunError> {
        let seed = match &spec.model {
            Model::Phold { params, .. } => params.seed,
            Model::Codes(cfg) => cfg.seed,
        };
        let telemetry = spec.out.telemetry.as_ref().map(|_| {
            let rec = Arc::new(Recorder::new());
            let mut manifest = telemetry::ManifestRecord::new(
                &spec.cmd,
                spec.args.clone(),
                seed,
                &spec.sched.to_string(),
                &git_describe(),
            );
            manifest.config = spec.to_value();
            rec.emit(&manifest);
            rec
        });
        let tracer = spec.out.trace.as_ref().map(|&(_, rate)| Arc::new(ross::Tracer::new(rate)));
        let live = match &spec.out.live {
            Some(opts) => Some(LivePlane::start(opts).map_err(|e| {
                RunError::Input(format!("cannot bind live endpoint `{}`: {e}", opts.addr))
            })?),
            None => None,
        };
        Ok(RunReport { telemetry, tracer, live, ..RunReport::default() })
    }

    /// Close out the run: export the trace (noted in the telemetry
    /// stream) and analyze it, land the live plane's final snapshots,
    /// stamp the total wall time and write the telemetry file. The live
    /// endpoint keeps serving until [`RunReport::hold`].
    fn close(mut self, spec: &RunSpec) -> Result<RunReport, RunError> {
        if let (Some(tr), Some((path, _))) = (&self.tracer, &spec.out.trace) {
            let json = tr.to_chrome_json();
            let write = || -> std::io::Result<()> {
                let mut w = telemetry::StreamWriter::create(std::path::Path::new(path))?;
                w.write_str(&json)?;
                w.finish()
            };
            write()
                .map_err(|e| RunError::Failed(format!("cannot write trace file `{path}`: {e}")))?;
            let (events, dropped) = (tr.event_count() as u64, tr.events_dropped());
            let capped = match dropped {
                0 => String::new(),
                n => format!(", {n} dropped at the cap"),
            };
            eprintln!("wrote {path} ({events} trace events{capped})");
            if let Some(rec) = &self.telemetry {
                let spans = tr.spans_dropped();
                rec.emit(&telemetry::TraceExportRecord::new(path, events, dropped, spans));
            }
            match crate::parse_chrome(&json) {
                Ok(runs) => self.analyses = runs.iter().map(crate::analyze).collect(),
                Err(e) => eprintln!("union-exp: exported trace failed to re-parse: {e}"),
            }
        }
        if let Some(plane) = &mut self.live {
            plane.finish(self.telemetry.as_deref());
        }
        if let (Some(rec), Some(path)) = (&self.telemetry, &spec.out.telemetry) {
            rec.emit(&telemetry::PhaseRecord::new("total", rec.elapsed_ns()));
            rec.write_jsonl(std::path::Path::new(path)).map_err(|e| {
                RunError::Failed(format!("cannot write telemetry file `{path}`: {e}"))
            })?;
            eprintln!("wrote {path} ({} records)", rec.len());
        }
        Ok(self)
    }

    /// Keep the `--live` endpoint up for `--live-hold` — call once the
    /// results are printed, so scrapers read the totals they just saw —
    /// then shut it down.
    pub fn hold(self) {
        if let Some(plane) = self.live {
            plane.hold();
        }
    }
}

/// Execute a validated spec: sequentially or under a parallel scheduler.
pub fn run(spec: &RunSpec) -> Result<RunReport, RunError> {
    let mut report = RunReport::open(spec)?;
    let profiler = spec.out.samples.as_deref().map(crate::profiler::Profiler::start);
    let profiler = profiler.transpose().map_err(RunError::Input)?;
    let live = report.live.as_ref().map(|plane| plane.registry.clone());
    match &spec.model {
        Model::Phold { params, until } => {
            let mut sim = phold::build_phold(params);
            sim.set_telemetry(report.telemetry.clone());
            sim.set_live(live);
            let stats = sim.run_sequential(*until);
            report.fingerprint = Some(phold::phold_fingerprint(&sim));
            report.committed = stats.committed;
        }
        Model::Codes(cfg) => {
            let cfg = SweepConfig {
                sched: spec.sched,
                telemetry: report.telemetry.clone(),
                tracer: report.tracer.clone(),
                live,
                ..cfg.clone()
            };
            // One run has one final state to fingerprint; a grid has none.
            let single = sweep::keys(&cfg).len() == 1;
            let progress = |label: &str| eprintln!("running {label}…");
            sweep::for_each_cell(&cfg, progress, |record, sim| {
                report.fingerprint = single.then(|| sim.state_fingerprint());
                report.committed += record.stats.committed;
                report.records.push(record);
            })
            .map_err(RunError::Failed)?;
        }
    }
    if let (Some(profiler), Some(path)) = (profiler, &spec.out.samples) {
        let n = profiler.finish().map_err(RunError::Failed)?;
        eprintln!("wrote {path} ({n} samples)");
    }
    report.close(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(line: &str) -> Result<RunSpec, UsageError> {
        let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        RunSpec::parse(&words[0], &words[1..])
    }

    /// Every `union-exp` invocation of a simulating command in ci.yml,
    /// continuation lines joined, shell plumbing dropped.
    fn ci_invocations() -> Vec<String> {
        let yml = include_str!("../../../.github/workflows/ci.yml").replace("\\\n", " ");
        let runs = |cmd: &str| cmd == "mix" || cmd == "phold" || SWEEP_CMDS.contains(&cmd);
        yml.lines()
            .filter_map(|l| l.split_once("union-exp ").map(|(_, rest)| rest))
            .map(|rest| {
                let words = rest.split_whitespace().skip_while(|w| *w == "--");
                let words = words.take_while(|w| !["|", ">", "2>", "&"].contains(w));
                words.collect::<Vec<_>>().join(" ")
            })
            .filter(|line| runs(line.split(' ').next().unwrap_or("")))
            .collect()
    }

    #[test]
    fn every_ci_invocation_parses_and_validates() {
        let lines = ci_invocations();
        assert!(lines.len() >= 7, "ci.yml extraction broke: {lines:?}");
        for line in lines {
            let spec = spec(&line).unwrap_or_else(|e| panic!("`{line}` stopped parsing: {e}"));
            spec.validate().unwrap_or_else(|e| panic!("`{line}` stopped validating: {e}"));
        }
    }

    #[test]
    fn sched_grammar_parses_rejects_and_round_trips() {
        assert_eq!(Sched::parse("par:2"), Ok(Sched::Par { threads: 2 }));
        assert_eq!(Sched::parse("async:3"), Ok(Sched::Async { threads: 3 }));
        assert_eq!(Sched::parse("seq"), Ok(Sched::Seq));
        for bad in ["par:", "par:0", "async:x", "par:2:100", "async:2:100", "seq:1", ""] {
            assert!(Sched::parse(bad).is_err(), "{bad} accepted");
        }
        // The retired window field is named as a malformed spec, with the
        // shape that replaced it.
        assert!(Sched::parse("par:2:100").unwrap_err().contains("must be par:<threads>"));
        let cons = Sched::parse("cons:4").unwrap_err();
        assert!(cons.contains("use par:4") && !cons.contains("par:4:"), "{cons}");
        // So are the retired process-sharding specs.
        for bad in ["bogus", "opt:x", "opt:2", "opt:2:64:4", "shard:2:1", "shard:2:1:50"] {
            assert_eq!(Sched::parse(bad), Err(format!("unknown scheduler `{bad}`")));
        }
        for s in ["seq", "par:4", "par:1", "async:2"] {
            assert_eq!(Sched::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn parse_fills_defaults_and_is_strict() {
        let Model::Codes(cfg) = spec("fig7").unwrap().model else { panic!("sweep model") };
        assert_eq!((cfg.iters, cfg.scale, cfg.seed), (2, 16, 42));
        assert_eq!((cfg.nets.len(), cfg.placements.len(), cfg.routings.len()), (2, 3, 2));
        assert_eq!((cfg.workloads.clone(), cfg.baselines), (vec![1, 2, 3], true));
        let Model::Codes(cfg) = spec("mix --profile paper").unwrap().model else { panic!() };
        assert_eq!((cfg.scale, sweep::keys(&cfg).len(), cfg.baselines), (1, 1, false));
        let Model::Codes(cfg) = spec("fig8 --nets 2d --workloads 1").unwrap().model else {
            panic!()
        };
        assert_eq!(
            (cfg.nets.clone(), cfg.workloads.clone(), cfg.window_ns),
            (vec![Net::OneD], vec![3], 500_000)
        );
        assert_eq!(spec("phold --until-us 9").unwrap().model.until(), SimTime::from_us(9));
        assert_eq!(spec("fig7 --trace t.json").unwrap().out.trace, Some(("t.json".to_string(), 1)));
        let traced = spec("fig7 --trace a:b.json:7").unwrap().out.trace;
        assert_eq!(traced, Some(("a:b.json".to_string(), 7)));

        for (line, needles) in [
            ("fig7 --nets 3d", ["--nets", "`3d`"]),
            ("fig7 --nets 1d,", ["--nets", "``"]),
            ("fig7 --profile papr", ["--profile", "`papr`"]),
            ("table6 --placements RN,XX", ["--placements", "`XX`"]),
            ("table6 --routings ugal", ["--routings", "`ugal`"]),
            ("all --flow wormhole", ["--flow", "`wormhole`"]),
            ("mix --net 1d,2d", ["--net", "`1d,2d`"]),
            ("mix --iters x", ["--iters", "`x`"]),
            ("phold --lps 0", ["--lps", ">= 1"]),
            ("mix --restore ck.bin", ["mix", "--restore"]),
            ("fig7 --trace t.json:0", ["--trace", "sample rate"]),
            ("phold --telemetry", ["--telemetry", "needs a value"]),
            ("phold --nets 1d", ["phold", "--nets"]),
            ("table6 --live 127.0.0.1:0", ["table6", "--live"]),
            ("mix stray", ["mix", "`stray`"]),
            ("mix --sched opt:2", ["`opt:2`", "mix supports --sched seq|par:T|async:T"]),
        ] {
            let e = spec(line).expect_err(line).0;
            assert!(needles.iter().all(|n| e.contains(n)), "`{line}`: {e}");
        }
    }

    #[test]
    fn validate_refuses_what_the_model_cannot_run() {
        for (line, needle) in [
            ("phold --sched par:2", "phold supports --sched seq, not `par:2`"),
            ("phold --sched async:2", "phold supports"),
            ("mix --workload 7", "no workload 7"),
            ("table6 --workloads 1,9", "no workload 9"),
        ] {
            let e = spec(line).unwrap().validate().expect_err(line).0;
            assert!(e.contains(needle), "`{line}`: {e}");
        }
        for line in ["mix --sched par:2", "mix --sched async:2", "fig7 --sched par:2 --flow credit"]
        {
            spec(line).unwrap().validate().unwrap_or_else(|e| panic!("`{line}`: {e}"));
        }
        // The window is not the user's to give, nor to override.
        for line in ["mix --sched par:2:100", "mix --allow-lint"] {
            assert!(spec(line).is_err(), "`{line}` parsed");
        }
        let unknown = spec("phold --sched optimistic").expect_err("unknown scheduler").0;
        assert!(unknown.contains("phold supports"), "{unknown}");
    }

    #[test]
    fn manifest_config_is_the_serialized_spec() {
        let s = spec("mix --workload 2 --net 2d --sched par:2 --until-us 5").unwrap();
        let json = serde_json::to_string(&s.to_value()).unwrap();
        for part in [
            "\"sched\":\"par:2\"",
            "\"until_ns\":5000",
            "\"model\":\"codes\"",
            "\"nets\":[\"2D\"]",
            "\"workloads\":[2]",
            "\"profile\":\"quick\"",
        ] {
            assert!(json.contains(part), "{part} missing from {json}");
        }
        let json = serde_json::to_string(&spec("phold --lps 8").unwrap().to_value()).unwrap();
        assert!(json.contains("\"model\":\"phold\"") && json.contains("\"lps\":8"), "{json}");
    }

    /// The usage text is rendered from the flag table; README embeds it
    /// verbatim and lists every in-process scheduler of the grammar, so
    /// neither can drift from what `parse` accepts.
    #[test]
    fn readme_matches_the_flag_table() {
        let readme = include_str!("../../../README.md");
        assert!(
            readme.contains(&RunSpec::usage()),
            "README's flag reference is stale; expected:\n{}",
            RunSpec::usage()
        );
        for alt in SCHED_GRAMMAR.split('|') {
            assert!(
                readme.contains(&format!("| `{alt}` |")),
                "README scheduler table lacks `{alt}`"
            );
        }
        // The binary's header points here instead of keeping its own copy.
        assert!(include_str!("main.rs").contains("RunSpec::usage"));
        for f in FLAGS {
            assert!(f.cmds.split(' ').all(|c| c == "sweep" || !c.is_empty()), "{}", f.name);
            assert!(f.name.starts_with("--") && !f.help.is_empty(), "{}", f.name);
        }
    }
}
