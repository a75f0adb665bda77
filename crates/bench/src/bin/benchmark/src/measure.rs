//! One run of one workload: the untraced run that gives the end-to-end
//! metrics, and the traced run that gives the per-layer ones.
//!
//! A repetition is a fresh model every time (set-up, then one run), so
//! every repetition yields a set-up sample as well as a run sample and
//! nothing a run leaves behind reaches the next.

use crate::mix;
use crate::phold;
use crate::probes;
use crate::report::{Checks, Values};
use crate::spans::Spans;
use crate::spec::{
    MixSpec, Model, PholdSpec, Pin, Workload, END_TO_END, PER_LAYER, PIN_SEED, SYNC_BOUND,
    SYNC_BOUND_SMOKE,
};
use crate::stats::{median, Summary};
use metrics::{AppLatencySummary, Boxplot};
use ross::{RunStats, Scheduler, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Fewest repetitions a median is taken over, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// What the checks and metrics keep of one repetition.
struct Rep {
    /// One set-up sample per model built (two for `mix-paper-par2`).
    setup_s: Vec<f64>,
    wall_s: f64,
    pin: Pin,
    stats: RunStats,
    /// `mix-paper-par2`: the interleaved sequential run of the same model.
    seq_wall_s: Option<f64>,
    n_lps: u32,
    /// Mix workloads: the run's harvest, for the summarize probe.
    results: Option<codes::SimResults>,
    /// PHOLD: the envelope-pool counters, readable only on a bare
    /// `Simulation`.
    pool: Option<ross::PoolStats>,
}

/// The engine's own clock must agree with ours around the same call;
/// only asked of runs long enough for 2% to exceed timer and harvest
/// noise.
fn check_wall(checks: &mut Checks, ours: f64, stats: &RunStats) {
    if ours >= 0.2 {
        checks.check((ours - stats.wall_seconds).abs() <= 0.02 * ours, || {
            format!("wall clock: Instant {ours:.4} s vs RunStats {:.4} s", stats.wall_seconds)
        });
    }
}

fn mix_rep(spec: &MixSpec, seed: u64, spans: &mut Spans, checks: &mut Checks) -> Rep {
    let one = |sched: Scheduler, spans: &mut Spans, checks: &mut Checks| {
        let (mut sim, setup_s) = mix::setup(spec, seed, spans);
        let out = mix::run(&mut sim, sched, spec.until(), spans);
        let fault = mix::completion_fault(spec, &out.results);
        checks.check(fault.is_none(), || fault.clone().unwrap_or_default());
        check_wall(checks, out.wall_s, &out.results.stats);
        (out, setup_s, sim.n_lps())
    };
    if spec.par2 {
        let (par, setup_par, n_lps) = one(mix::par_scheduler(), spans, checks);
        let (seq, setup_seq, _) = one(Scheduler::Sequential, &mut Spans::new(false), checks);
        checks.same("par:2:100 state vs its sequential run", par.pin, seq.pin);
        Rep {
            setup_s: vec![setup_par, setup_seq],
            wall_s: par.wall_s,
            pin: par.pin,
            stats: par.results.stats.clone(),
            seq_wall_s: Some(seq.wall_s),
            n_lps,
            results: Some(par.results),
            pool: None,
        }
    } else {
        let (out, setup_s, n_lps) = one(Scheduler::Sequential, spans, checks);
        Rep {
            setup_s: vec![setup_s],
            wall_s: out.wall_s,
            pin: out.pin,
            stats: out.results.stats.clone(),
            seq_wall_s: None,
            n_lps,
            results: Some(out.results),
            pool: None,
        }
    }
}

fn phold_rep(spec: &PholdSpec, seed: u64, spans: &mut Spans, checks: &mut Checks) -> Rep {
    let (mut sim, setup_s) =
        spans.scope("setup", |_| phold::build(spec.n_lps, spec.horizon_ns, seed));
    let (stats, wall_s) = spans.scope("run", |_| sim.run_sequential(SimTime::MAX));
    check_wall(checks, wall_s, &stats);
    checks.same("events left pending", sim.pending_events(), 0);
    Rep {
        setup_s: vec![setup_s],
        wall_s,
        pin: Pin { fingerprint: phold::fingerprint(&sim), committed: stats.committed },
        stats,
        seq_wall_s: None,
        n_lps: spec.n_lps,
        results: None,
        pool: Some(sim.pending_pool_stats()),
    }
}

extern "C" {
    /// glibc: give free heap memory back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// One repetition on memory as a fresh process would find it. A
/// `union-exp` user runs one simulation per process, so every page the
/// model touches is touched for the first time; without the trim, later
/// repetitions would reuse the heap of earlier ones at some point that
/// differs from process to process, and set-up time would read either of
/// two values.
fn rep(model: &Model, seed: u64, spans: &mut Spans, checks: &mut Checks) -> Rep {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator holds as free; no Rust allocation is affected.
    unsafe { malloc_trim(0) };
    match model {
        Model::Mix(spec) => mix_rep(spec, seed, spans, checks),
        Model::Phold(spec) => phold_rep(spec, seed, spans, checks),
    }
}

/// At the pin seed the full-size model must reproduce the recorded state.
fn check_pin(w: &Workload, smoke: bool, seed: u64, first: &Rep, checks: &mut Checks) {
    if seed == PIN_SEED && !smoke {
        checks.same("state at the pin seed", first.pin, w.pin_seed42);
    }
}

/// At any seed every repetition must reproduce the first.
fn check_repeat(first: &Rep, this: &Rep, checks: &mut Checks) {
    checks.same("state vs the first repetition", this.pin, first.pin);
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn print_summary(name: &str, unit: &str, samples: &[f64]) {
    let s = Summary::of(samples);
    println!(
        "# {name}: median {:.6} {unit}, quartiles {:.6}..{:.6}, range {:.6}..{:.6}, n {}",
        s.median, s.q1, s.q3, s.min, s.max, s.n
    );
    let all: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
    println!("#   in order: {}", all.join(" "));
}

/// The end-to-end run: repetitions with the span recorder off until
/// `seconds` have passed (at least `MIN_REPS`), medians reported.
pub fn untraced(w: &Workload, smoke: bool, seed: u64, seconds: f64, checks: &mut Checks) -> Values {
    let model = if smoke { &w.smoke } else { &w.model };
    let mut spans = Spans::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let t0 = Instant::now();
    while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        let r = rep(model, seed, &mut spans, checks);
        match reps.first() {
            None => check_pin(w, smoke, seed, &r, checks),
            Some(first) => check_repeat(first, &r, checks),
        }
        reps.push(r);
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.stats.committed as f64 / r.wall_s).collect();
    let setups: Vec<f64> = reps.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    print_summary("wall_s", "s", &walls);
    print_summary("setup_s", "s", &setups);
    println!("# committed {} fingerprint {:016x}", reps[0].pin.committed, reps[0].pin.fingerprint);
    if let Some(ratios) =
        reps.iter().map(|r| Some(r.seq_wall_s? / r.wall_s)).collect::<Option<Vec<f64>>>()
    {
        print_summary("speedup_vs_seq", "ratio", &ratios);
    }
    let mut out = Values::new(END_TO_END);
    out.set("wall_s", median(&walls));
    out.set("events_per_s", median(&rates));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The Fig 7/9 outputs a `union-exp` user gets from a run's harvest.
fn summarize(results: &codes::SimResults, spans: &mut Spans, out: &mut Values) {
    let (_, s) = spans.scope("summarize", |_| {
        for a in &results.apps {
            black_box(AppLatencySummary::from_ranks(&a.latency));
            let comm: Vec<f64> = a.comm.iter().map(|c| c.total_ns as f64).collect();
            black_box(Boxplot::from_samples(&comm));
        }
    });
    out.set("metrics.summarize_s", s);
}

/// `sweep::run_one` for the same key: what `union-exp` adds to the library
/// path (set-up plus run) of the traced repetition.
fn harness_overhead(
    spec: &MixSpec,
    seed: u64,
    library_s: f64,
    spans: &mut Spans,
    out: &mut Values,
) {
    use harness::sweep::{self, RunKey, SweepConfig, Workload as Mix};
    let cfg = SweepConfig {
        profile: spec.profile,
        iters: spec.iters,
        scale: spec.scale,
        seed,
        until: spec.until(),
        ..SweepConfig::quick()
    };
    let key = RunKey {
        net: spec.net,
        workload: Mix::Mix(spec.which),
        placement: spec.placement,
        routing: spec.routing,
    };
    let (record, s) = spans.scope("harness.run_one", |_| sweep::run_one(&cfg, key));
    black_box(record.expect("the same model ran a moment ago"));
    out.set("harness.run_one_overhead_s", s - library_s);
}

/// One more execution of the model under `ConservativeAsync{2, 100 ns}`,
/// for the par-versus-async decision of ROADMAP item 2.
fn async_run(
    spec: &MixSpec,
    seed: u64,
    seq: (f64, Pin),
    spans: &mut Spans,
    checks: &mut Checks,
    out: &mut Values,
) {
    let sched = Scheduler::ConservativeAsync { threads: 2, lookahead: SimDuration::from_ns(100) };
    let (o, _) = spans.scope("ross.async", |spans| {
        let (mut sim, _) = mix::setup(spec, seed, spans);
        mix::run(&mut sim, sched, spec.until(), spans)
    });
    let stats = &o.results.stats;
    checks.same("async:2:100 state vs the sequential run", o.pin, seq.1);
    out.set("ross.async.speedup_vs_seq", seq.0 / o.wall_s);
    out.set(
        "ross.async.horizon_stall_ns_per_event",
        stats.horizon_stall_ns as f64 / stats.committed as f64,
    );
    out.set("ross.async.steals", stats.steals as f64);
    out.set("ross.async.horizon_lag_max", stats.horizon_lag_max as f64);
}

/// What the parallel scheduler added to one worker's time, from the
/// `RunStats` of the traced repetition's `par:2:100` run.
fn par_metrics(r: &Rep, seq_wall_s: f64, out: &mut Values) {
    let (committed, rounds) = (r.stats.committed as f64, r.stats.rounds as f64);
    out.set("ross.par.speedup_vs_seq", seq_wall_s / r.wall_s);
    out.set("ross.par.rounds", rounds);
    out.set("ross.par.remote_events", r.stats.remote_events as f64);
    out.set("ross.par.remote_ratio", r.stats.remote_events as f64 / committed);
    out.set("ross.par.events_per_round", committed / rounds);
    out.set("ross.par.ns_per_round", r.wall_s * 1e9 / rounds);
    // Two workers' time, less what one worker needed.
    out.set("ross.par.overhead_ns_per_event", (2.0 * r.wall_s - seq_wall_s) * 1e9 / committed);
}

/// The layer metrics of a mix workload, from the traced repetition `r`
/// and the probes.
fn mix_layers(
    spec: &MixSpec,
    smoke: bool,
    seed: u64,
    r: &Rep,
    spans: &mut Spans,
    checks: &mut Checks,
    out: &mut Values,
) {
    let committed = r.stats.committed as f64;
    println!("# set-up self time: {:.4} of the set-up span", spans.self_share("setup"));
    out.set("workloads.vms_s", spans.total_s("workloads.vms"));
    out.set("codes.build_s", spans.total_s("codes.build"));
    out.set("codes.n_lps", f64::from(r.n_lps));
    out.set("codes.events_committed", committed);
    out.set("codes.ns_per_event", r.wall_s * 1e9 / committed);
    probes::setup_layers(spec, seed, spans, out);
    probes::queues(seed, spans, out);
    // An estimate: the null run has PHOLD's event population and fan-out,
    // not the mix's.
    let null_ns = probes::null_handlers(r.n_lps, seed, spans, out);
    let seq_wall_s = r.seq_wall_s.unwrap_or(r.wall_s);
    out.set("codes.handler_share_est", 1.0 - null_ns / (seq_wall_s * 1e9 / committed));
    if spec.par2 {
        par_metrics(r, seq_wall_s, out);
        async_run(spec, seed, (seq_wall_s, r.pin), spans, checks, out);
        let sync_bound = if smoke { &SYNC_BOUND_SMOKE } else { &SYNC_BOUND };
        let (q, _) = spans.scope("ross.par.sync_bound", |s| mix_rep(sync_bound, seed, s, checks));
        let q_seq = q.seq_wall_s.expect("the sync-bound model runs par2");
        out.set("ross.par.sync_bound_speedup_vs_seq", q_seq / q.wall_s);
        out.set("ross.par.sync_bound_ns_per_round", q.wall_s * 1e9 / q.stats.rounds as f64);
    } else if spec.until_us.is_none() {
        harness_overhead(spec, seed, median(&r.setup_s) + r.wall_s, spans, out);
    }
}

/// The traced run: one untraced repetition for the overhead ratio, one
/// with the span recorder on, then the layer probes. Returns the
/// per-layer metrics and the spans.
pub fn traced(w: &Workload, smoke: bool, seed: u64, checks: &mut Checks) -> (Values, Spans) {
    let model = if smoke { &w.smoke } else { &w.model };
    let mut out = Values::new(PER_LAYER);
    let plain = rep(model, seed, &mut Spans::new(false), checks);
    check_pin(w, smoke, seed, &plain, checks);

    let mut spans = Spans::new(true);
    spans.scope("workload", |spans| {
        let r = rep(model, seed, spans, checks);
        check_repeat(&plain, &r, checks);
        out.set("bench.trace_overhead_ratio", r.wall_s / plain.wall_s);
        if let Some(results) = &r.results {
            summarize(results, spans, &mut out);
        }
        spans.scope("probes", |spans| match model {
            Model::Phold(_) => {
                out.set("ross.seq.ns_per_event", r.wall_s * 1e9 / r.stats.committed as f64);
                let pool = r.pool.expect("a PHOLD repetition reads its pool");
                probes::pool_counters(pool, r.stats.committed, &mut out);
                probes::queues(seed, spans, &mut out);
            }
            Model::Mix(spec) => mix_layers(spec, smoke, seed, &r, spans, checks, &mut out),
        });
    });
    out.set("bench.spans", spans.len() as f64);
    (out, spans)
}
