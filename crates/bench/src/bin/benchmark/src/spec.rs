//! What the benchmark runs and what it reports: the workload table and
//! the two metric tables. `BENCHMARK.json` at the repo root declares the
//! same names; a unit test holds the two in step.

use dragonfly::Routing;
use harness::Net;
use placement::Placement;
use workloads::Profile;

/// One reported metric. `bound` is the share of the median by which an
/// end-to-end metric may worsen before a change counts as a regression;
/// per-layer metrics have none.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric { name, unit, higher_is_better: higher, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric { name, unit, higher_is_better: higher, bound: None }
}

/// Printed by an untraced run (`--trace 0`), for every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", false, 0.25),
    e2e("events_per_s", "1/s", true, 0.25),
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// Printed by a traced run (`--trace 1`), for every workload. A workload
/// that does not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[Metric] = &[
    layer("conceptual.compile_s", "s", false),
    layer("core.translate_s", "s", false),
    layer("core.instantiate_s", "s", false),
    layer("workloads.vms_s", "s", false),
    layer("dragonfly.topology_build_s", "s", false),
    layer("placement.place_s", "s", false),
    layer("codes.build_s", "s", false),
    layer("core.vm_ops", "count", false),
    layer("core.vm_ns_per_op", "ns", false),
    layer("mpi-sim.expanded_ops", "count", false),
    layer("mpi-sim.expand_ns_per_op", "ns", false),
    layer("dragonfly.route_ns_per_decision", "ns", false),
    layer("codes.n_lps", "count", false),
    layer("codes.events_committed", "count", false),
    layer("codes.ns_per_event", "ns", false),
    layer("codes.handler_share_est", "ratio", false),
    layer("ross.seq.ns_per_event", "ns", false),
    layer("ross.pool.high_water", "count", false),
    layer("ross.pool.recycled", "count", true),
    layer("ross.pool.reuse_ratio", "ratio", true),
    layer("ross.queue.ladder_ns_per_op", "ns", false),
    layer("ross.queue.heap_ns_per_op", "ns", false),
    layer("ross.queue.fat_ns_per_op", "ns", false),
    layer("ross.par.speedup_vs_seq", "ratio", true),
    layer("ross.par.rounds", "count", false),
    layer("ross.par.remote_events", "count", false),
    layer("ross.par.remote_ratio", "ratio", false),
    layer("ross.par.events_per_round", "count", true),
    layer("ross.par.ns_per_round", "ns", false),
    layer("ross.par.overhead_ns_per_event", "ns", false),
    layer("ross.par.sync_bound_speedup_vs_seq", "ratio", true),
    layer("ross.par.sync_bound_ns_per_round", "ns", false),
    layer("ross.async.speedup_vs_seq", "ratio", true),
    layer("ross.async.horizon_stall_ns_per_event", "ns", false),
    layer("ross.async.steals", "count", false),
    layer("ross.async.horizon_lag_max", "ns", false),
    layer("metrics.summarize_s", "s", false),
    layer("harness.run_one_overhead_s", "s", false),
    layer("bench.trace_overhead_ratio", "ratio", false),
    layer("bench.spans", "count", false),
];

/// A Table III mix on a dragonfly, as `union-exp mix` would build it.
#[derive(Clone, Copy, Debug)]
pub struct MixSpec {
    pub which: u8,
    pub net: Net,
    pub profile: Profile,
    pub placement: Placement,
    pub routing: Routing,
    pub iters: i64,
    pub scale: i64,
    /// Virtual-time bound in microseconds; `None` runs to completion.
    pub until_us: Option<u64>,
    /// Time the model under `ConservativeParallel{2, 100 ns}` and, each
    /// repetition, once more sequentially for the ratio.
    pub par2: bool,
}

#[derive(Clone, Copy, Debug)]
pub struct PholdSpec {
    pub n_lps: u32,
    pub horizon_ns: u64,
}

#[derive(Clone, Copy, Debug)]
pub enum Model {
    Mix(MixSpec),
    Phold(PholdSpec),
}

/// State fingerprint and committed-event count a run must reproduce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pin {
    pub fingerprint: u64,
    pub committed: u64,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub model: Model,
    /// The same model shrunk to well under a second (`--smoke`).
    pub smoke: Model,
    /// What the full-size model produces at seed 42.
    pub pin_seed42: Pin,
}

/// The seed the pins were taken at.
pub const PIN_SEED: u64 = 42;

const QUICK_W1: MixSpec = MixSpec {
    which: 1,
    net: Net::OneD,
    profile: Profile::Quick,
    placement: Placement::RandomGroups,
    routing: Routing::Adaptive,
    iters: 2,
    scale: 16,
    until_us: None,
    par2: false,
};

const PAPER_W3: MixSpec = MixSpec {
    which: 3,
    net: Net::TwoD,
    profile: Profile::Paper,
    placement: Placement::RandomNodes,
    routing: Routing::Minimal,
    iters: 1,
    scale: 1,
    until_us: Some(40),
    par2: false,
};

/// The sync-bound regime of the parallel scheduler, probed by the traced
/// run of `mix-paper-par2`: the quick W1 model has about 14 events per
/// 100 ns window, so barriers and mailboxes are all there is to time.
pub const SYNC_BOUND: MixSpec = MixSpec { iters: 1, scale: 128, par2: true, ..QUICK_W1 };
pub const SYNC_BOUND_SMOKE: MixSpec = MixSpec { scale: 512, ..SYNC_BOUND };

// The sizes below are frozen: a later change is judged on these inputs.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "mix-quick-seq",
        why: "Table III W1 on small_1d, RG/ADP, sequential, to completion: handlers and queue share the work, working set fits cache",
        model: Model::Mix(QUICK_W1),
        smoke: Model::Mix(MixSpec { iters: 1, scale: 64, ..QUICK_W1 }),
        pin_seed42: Pin { fingerprint: 0xbcb45a75a0d03a70, committed: 7_874_792 },
    },
    Workload {
        name: "mix-paper-seq",
        why: "Table III W3 on the 8,448-node dragonfly_2d, RN/MIN, bounded virtual time: 15x the LPs, working set beyond L2, the largest set-up",
        model: Model::Mix(PAPER_W3),
        smoke: Model::Mix(MixSpec { until_us: Some(2), ..PAPER_W3 }),
        pin_seed42: Pin { fingerprint: 0x77172c260bfc5374, committed: 3_718_998 },
    },
    Workload {
        name: "phold-seq",
        why: "PHOLD, 65,536 LPs, near-empty handlers: queue, envelope pool and sequential loop do the work; model-layer changes must not move it",
        model: Model::Phold(PholdSpec { n_lps: 65_536, horizon_ns: 80_000 }),
        smoke: Model::Phold(PholdSpec { n_lps: 65_536, horizon_ns: 2_000 }),
        pin_seed42: Pin { fingerprint: 0x79ffd5c128a476a2, committed: 9_586_819 },
    },
    Workload {
        name: "mix-paper-par2",
        why: "the mix-paper-seq model under par:2:100 with an interleaved sequential run: partitioning, mailbox delivery and window barriers, which every sequential workload bypasses",
        model: Model::Mix(MixSpec { par2: true, ..PAPER_W3 }),
        smoke: Model::Mix(MixSpec { until_us: Some(2), par2: true, ..PAPER_W3 }),
        pin_seed42: Pin { fingerprint: 0x77172c260bfc5374, committed: 3_718_998 },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The directory that holds the benchmark, from the repo root.
pub const BENCH_DIR: &str = "crates/bench/src/bin/benchmark";

/// The text of `BENCHMARK.json` (printed by `--print-spec`).
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &format!("{BENCH_DIR}/Cargo.toml"),
        "--",
    ];
    let quoted: Vec<String> = command.iter().map(|c| format!("\"{c}\"")).collect();
    let better = |m: &Metric| if m.higher_is_better { "higher" } else { "lower" };
    let rows = |rows: Vec<String>| rows.join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"{BENCH_DIR}\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted.join(", "),
        rows(
            WORKLOADS
                .iter()
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        ),
        rows(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better(m),
                    m.bound.expect("end-to-end metrics have a bound")
                ))
                .collect()
        ),
        rows(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    better(m)
                ))
                .collect()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Names the benchmark contract accepts: a letter or digit, then up
    /// to 63 more letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn name_validation() {
        for good in ["wall_s", "mpi-sim.expand_ns_per_op", "mix-paper-par2", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "-lead", ".lead", "has space", "slash/y", "perc%", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_name_is_valid_and_used_once() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 40);
    }

    /// `BENCHMARK.json` is this program's own description of itself
    /// (`benchmark --print-spec`), so the names it declares are exactly
    /// the names `report` prints: it walks the same tables and refuses
    /// any other name.
    #[test]
    fn benchmark_json_is_the_printed_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(text, benchmark_json(), "regenerate with `benchmark --print-spec`");
    }
}
