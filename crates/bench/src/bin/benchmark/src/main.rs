//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run of one workload
//!           [--smoke] [--trace-out FILE]
//! benchmark [--seed N] [--seconds S] [--traced] [--smoke]   every workload, one child
//!           [--repeat-check] [--out FILE]                    process each, as a table
//! benchmark --print-spec                                     the text of BENCHMARK.json
//! ```
//!
//! One run prints, as the last line of its standard output, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits 1 when a correctness check failed and 2 on a bad
//! command line or a debug build.

mod measure;
mod mix;
mod parent;
mod phold;
mod probes;
mod report;
mod spans;
mod spec;
mod stats;

use report::Checks;

/// Value of `--flag`, parsed; `default` when the flag is absent. A flag
/// with a missing or malformed value ends the program with status 2.
fn opt<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match args.iter().position(|a| a == flag) {
        None => default,
        Some(i) => args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("benchmark: {flag} needs a value");
            std::process::exit(2);
        }),
    }
}

fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Where the span file and the result file go unless told otherwise:
/// a directory in the working directory, which `.gitignore` names.
const OUT_DIR: &str = ".bench_out";

fn write_file(path: &str, text: &str) {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    };
    if let Err(e) = write() {
        eprintln!("benchmark: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// One run of one workload, in this process.
fn run_one(name: &str, args: &[String]) -> ! {
    let Some(w) = spec::workload(name) else {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("benchmark: unknown workload `{name}` (expected one of {})", known.join(", "));
        std::process::exit(2);
    };
    let seed: u64 = opt(args, "--seed", spec::PIN_SEED);
    let seconds: f64 = opt(args, "--seconds", spec::RUN_SECONDS as f64);
    let smoke = has(args, "--smoke");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# workload {name} seed {seed} seconds {seconds} smoke {smoke} host_cores {cores}");
    if cores < 2 {
        eprintln!("benchmark: host has {cores} core: parallel ratios are not speed-ups here");
    }

    let mut checks = Checks::default();
    let values = match opt::<u8>(args, "--trace", 0) {
        0 => measure::untraced(w, smoke, seed, seconds, &mut checks),
        1 => {
            let (values, spans) = measure::traced(w, smoke, seed, &mut checks);
            let path: String = opt(args, "--trace-out", format!("{OUT_DIR}/spans-{name}.json"));
            write_file(&path, &spans.to_json(name));
            println!("# spans written to {path}");
            values
        }
        other => {
            eprintln!("benchmark: --trace takes 0 or 1, not {other}");
            std::process::exit(2);
        }
    };
    for (m, v) in values.rows() {
        println!("{:<40} {v:>18.6} {}", m.name, m.unit);
    }
    println!("{}", report::result_line(&values, &checks));
    std::process::exit(if checks.failed == 0 { 0 } else { 1 });
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to time a debug build; build with --release");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if has(&args, "--print-spec") {
        print!("{}", spec::benchmark_json());
        return;
    }
    if has(&args, "--workload") {
        let name: String = opt(&args, "--workload", String::new());
        run_one(&name, &args);
    }
    parent::run_all(&args);
}
