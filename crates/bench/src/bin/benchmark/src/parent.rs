//! Every workload in one command: the parent re-executes this program
//! once per workload and kind of run, one child at a time, so that peak
//! memory and allocator state never carry from one workload to the next
//! and never more than one process (of at most two threads) is measuring.

use crate::report;
use crate::spec::{Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{has, opt, write_file, OUT_DIR};
use std::process::Command;

/// Per-layer counts that must repeat bit for bit between two sets of runs
/// of the same code at the same seed.
const EXACT_COUNTS: &[&str] = &[
    "core.vm_ops",
    "mpi-sim.expanded_ops",
    "codes.n_lps",
    "codes.events_committed",
    "ross.pool.high_water",
    "ross.pool.recycled",
    "ross.par.rounds",
    "ross.par.remote_events",
];

/// What one child reported.
struct ChildResult {
    attempted: u64,
    failed: u64,
    /// One value per metric of the table the child was asked for, in
    /// table order.
    values: Vec<f64>,
}

struct Settings {
    seed: u64,
    seconds: f64,
    smoke: bool,
}

fn run_child(w: &Workload, trace: bool, table: &[Metric], s: &Settings) -> Option<ChildResult> {
    let exe = std::env::current_exe().expect("path of this program");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &s.seed.to_string()])
        .args(["--seconds", &s.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if s.smoke {
        cmd.arg("--smoke");
    }
    // The child's own stderr (check diffs, warnings) passes through.
    let out = cmd.stderr(std::process::Stdio::inherit()).output().expect("start a child run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout.lines().last().and_then(|line| {
        Some(ChildResult {
            attempted: report::count_in(line, "attempted")?,
            failed: report::count_in(line, "failed")?,
            values: table.iter().map(|m| report::value_in(line, m.name)).collect::<Option<_>>()?,
        })
    });
    if parsed.is_none() {
        eprintln!("benchmark: {} (trace {trace}) ended with {} and no result", w.name, out.status);
    }
    parsed
}

/// What the runs of one workload in one set reported; `None` for a child
/// that printed no result (or, for `layers`, was not asked for).
struct Runs {
    e2e: Option<ChildResult>,
    layers: Option<ChildResult>,
}

impl Runs {
    /// Checks (attempted, failed) over both runs.
    fn checks(&self) -> (u64, u64) {
        [&self.e2e, &self.layers]
            .into_iter()
            .flatten()
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
    }
}

/// One set: every workload untraced and, if asked, traced.
fn run_set(traced: bool, s: &Settings) -> Vec<Runs> {
    WORKLOADS
        .iter()
        .map(|w| {
            eprintln!("benchmark: running {}…", w.name);
            let e2e = run_child(w, false, END_TO_END, s);
            let layers = if traced { run_child(w, true, PER_LAYER, s) } else { None };
            Runs { e2e, layers }
        })
        .collect()
}

/// One row per metric of `table`, one column per workload.
fn print_table(title: &str, table: &[Metric], columns: Vec<&Option<ChildResult>>) {
    println!("\n{title}");
    print!("{:<40}", "metric");
    for w in WORKLOADS {
        print!(" {:>16}", w.name);
    }
    println!(" unit");
    for (i, m) in table.iter().enumerate() {
        print!("{:<40}", m.name);
        for c in &columns {
            match c {
                Some(r) => print!(" {:>16.6}", r.values[i]),
                None => print!(" {:>16}", "no result"),
            }
        }
        println!(" {}", m.unit);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn result_file(sets: &[Vec<Runs>], s: &Settings) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let metrics = |table: &[Metric], r: &Option<ChildResult>| match r {
        Some(r) => report::metrics_object(table.iter().zip(r.values.iter().copied())),
        None => "null".to_string(),
    };
    let mut rows = Vec::new();
    for (set, results) in sets.iter().enumerate() {
        for (w, runs) in WORKLOADS.iter().zip(results) {
            let model = if s.smoke { &w.smoke } else { &w.model };
            let (attempted, failed) = runs.checks();
            rows.push(format!(
                "    {{\"set\": {set}, \"workload\": \"{}\", \"size\": \"{model:?}\", \
                 \"checks_attempted\": {attempted}, \"checks_failed\": {failed}, \
                 \"end_to_end\": {}, \"per_layer\": {}}}",
                w.name,
                metrics(END_TO_END, &runs.e2e),
                metrics(PER_LAYER, &runs.layers)
            ));
        }
    }
    format!(
        "{{\n  \"schema\": \"union-benchmark/v1\",\n  \"host_cores\": {cores},\n  \
         \"git_rev\": \"{}\",\n  \"rustc\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"smoke\": {},\n  \"reps\": \"at least 3, until seconds have passed; medians\",\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
        s.seed,
        s.seconds,
        s.smoke,
        rows.join(",\n")
    )
}

pub fn run_all(args: &[String]) -> ! {
    let smoke = has(args, "--smoke");
    let s = Settings {
        seed: opt(args, "--seed", crate::spec::PIN_SEED),
        // A smoke run takes the fewest repetitions and nothing more.
        seconds: opt(args, "--seconds", if smoke { 0.0 } else { crate::spec::RUN_SECONDS as f64 }),
        smoke,
    };
    let traced = has(args, "--traced");
    let repeat = has(args, "--repeat-check");
    let sets: Vec<_> = (0..if repeat { 2 } else { 1 }).map(|_| run_set(traced, &s)).collect();

    let mut bad = false;
    for (n, set) in sets.iter().enumerate() {
        let e2e = set.iter().map(|r| &r.e2e).collect();
        print_table(&format!("end-to-end metrics (set {n}, spans off)"), END_TO_END, e2e);
        print!("{:<40}", "check_fail_ratio");
        for runs in set {
            let (a, f) = runs.checks();
            print!(" {:>16}", format!("{f}/{a}"));
            bad |= f > 0 || runs.e2e.is_none() || (traced && runs.layers.is_none());
        }
        println!(" failed/attempted");
        if traced {
            let layers = set.iter().map(|r| &r.layers).collect();
            print_table(&format!("per-layer metrics (set {n}, traced run)"), PER_LAYER, layers);
        }
    }

    if let [first, second] = &sets[..] {
        println!("\nrepeat check: two sets of runs of the same code");
        println!(
            "{:<16} {:<14} {:>16} {:>16} {:>9} {:>7}",
            "workload", "metric", "first", "second", "diff", "bound"
        );
        for (w, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(second)) {
            let (Some(a0), Some(b0)) = (&a.e2e, &b.e2e) else { continue };
            for (i, m) in END_TO_END.iter().enumerate() {
                let (x, y) = (a0.values[i], b0.values[i]);
                let diff = (y - x).abs() / x;
                let bound = m.bound.expect("end-to-end metrics have a bound");
                let ok = diff <= bound;
                bad |= !ok;
                println!(
                    "{:<16} {:<14} {x:>16.6} {y:>16.6} {:>8.2}% {:>6.0}%{}",
                    w.name,
                    m.name,
                    diff * 100.0,
                    bound * 100.0,
                    if ok { "" } else { "  DISAGREE" }
                );
            }
            let (Some(a1), Some(b1)) = (&a.layers, &b.layers) else { continue };
            for (i, m) in PER_LAYER.iter().enumerate() {
                if EXACT_COUNTS.contains(&m.name) && a1.values[i] != b1.values[i] {
                    bad = true;
                    println!(
                        "{:<16} {} is an exact count but read {} then {}",
                        w.name, m.name, a1.values[i], b1.values[i]
                    );
                }
            }
        }
    }

    let path: String = opt(args, "--out", format!("{OUT_DIR}/result.json"));
    write_file(&path, &result_file(&sets, &s));
    println!("\nresult written to {path}");
    std::process::exit(i32::from(bad));
}
