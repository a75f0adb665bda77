//! # union-lint
//!
//! Static analysis for the Union workload pipeline, run *before* any
//! simulation time is spent (the paper's workflow burns hours of PDES
//! time per configuration — a skeleton that deadlocks should be rejected
//! up front).
//!
//! Skeleton analysis ([`lint_skeleton`], [`lint_trace`]): expand each
//! rank's op stream by stepping the simulator's own interpreter,
//! `union_core::RankVm`, under a budget (see [`LintOptions`]), then check
//! cross-rank properties: communication deadlocks (wait-for cycles among
//! blocking sends/receives/collectives), collective-sequence divergence,
//! out-of-range or self-blocking targets, and dead code. Anything data- or
//! RNG-dependent degrades conservatively (truncated expansion is reported
//! as an `info`, not guessed at). The lookahead window of a parallel
//! schedule is the model's to derive (`codes::Window`), not this crate's.
//!
//! Findings use [`conceptual::Diagnostic`] / [`conceptual::Report`], the
//! same types the compiler front end reports through, so parse errors and
//! whole-program findings render identically.

pub mod expand;
pub mod fixtures;
mod skeleton;

pub use conceptual::{Diagnostic, Report, Severity};
pub use expand::{expand_rank, ExpandStatus, ExpandedRank};

use std::sync::Arc;
use union_core::{Skeleton, SkeletonInstance, Trace};

/// Budgets and thresholds for the skeleton analysis.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Max interpreter steps per rank before expansion is truncated.
    pub max_steps_per_rank: usize,
    /// Max emitted ops per rank before expansion is truncated.
    pub max_ops_per_rank: usize,
    /// Largest message sent eagerly (buffered, sender never blocks);
    /// larger blocking sends rendezvous. Matches the simulator's MPI
    /// layer default.
    pub eager_max: u64,
}

impl Default for LintOptions {
    fn default() -> LintOptions {
        LintOptions { max_steps_per_rank: 200_000, max_ops_per_rank: 4096, eager_max: 16 * 1024 }
    }
}

/// Lint a skeleton at a concrete configuration (`num_tasks` ranks,
/// argv-style parameter overrides).
pub fn lint_skeleton(skel: &Skeleton, num_tasks: u32, args: &[&str], opts: &LintOptions) -> Report {
    match SkeletonInstance::new(skel, num_tasks, args) {
        Ok(inst) => lint_instance(&inst, opts),
        Err(e) => {
            let code = if e.contains("out of range") { "out-of-range" } else { "instantiate" };
            Report::from(Diagnostic::error(code, e))
        }
    }
}

/// Lint an already-instantiated skeleton.
pub fn lint_instance(inst: &Arc<SkeletonInstance>, opts: &LintOptions) -> Report {
    let streams: Vec<ExpandedRank> =
        (0..inst.num_tasks).map(|r| expand_rank(inst, r, opts)).collect();
    skeleton::analyze(&streams, Some(inst.code().len()), opts)
}

/// Lint coNCePTuaL source directly (compile + translate + lint). Compile
/// errors come back through the same report.
pub fn lint_source(
    src: &str,
    name: &str,
    num_tasks: u32,
    args: &[&str],
    opts: &LintOptions,
) -> Report {
    match union_core::translate_source(src, name) {
        Ok(skel) => lint_skeleton(&skel, num_tasks, args, opts),
        Err(e) => Report::from(Diagnostic::from(e)),
    }
}

/// Lint a recorded trace. Unlike skeletons — whose collectives are
/// emitted unconditionally under rank-uniform control flow, making
/// rank-divergent collective sequences unexpressible — a trace is raw
/// per-rank history and can carry any defect the recording application
/// had, so this is where collective-order mismatches show up in practice.
pub fn lint_trace(trace: &Trace, opts: &LintOptions) -> Report {
    let streams: Vec<ExpandedRank> = trace
        .ops
        .iter()
        .enumerate()
        .map(|(r, ops)| ExpandedRank {
            rank: r as u32,
            ops: ops.iter().enumerate().map(|(i, op)| (i, *op)).collect(),
            visited: Default::default(),
            status: ExpandStatus::Complete,
        })
        .collect();
    skeleton::analyze(&streams, None, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use union_core::translate_source;

    fn skel(src: &str) -> Skeleton {
        translate_source(src, "t").unwrap()
    }

    #[test]
    fn ping_pong_is_clean() {
        let r = lint_skeleton(
            &skel(
                "for 3 repetitions { task 0 sends a 1024 byte message to task 1 then \
                 task 1 sends a 1024 byte message to task 0 }.",
            ),
            2,
            &[],
            &LintOptions::default(),
        );
        assert!(r.is_empty(), "{r}");
    }

    #[test]
    fn ring_with_waitall_is_clean() {
        let r = lint_skeleton(
            &skel(
                "all tasks t asynchronously send a 64 byte message to task (t+1) mod num_tasks \
                 then all tasks await completions.",
            ),
            8,
            &[],
            &LintOptions::default(),
        );
        assert!(r.is_empty(), "{r}");
    }

    #[test]
    fn collectives_are_clean() {
        let r = lint_skeleton(
            &skel(
                "all tasks reduce a 1024 byte message to all tasks then \
                 task 0 multicasts a 25 byte message to all other tasks then \
                 all tasks synchronize.",
            ),
            4,
            &[],
            &LintOptions::default(),
        );
        assert!(r.is_empty(), "{r}");
    }

    #[test]
    fn eager_send_exchange_is_clean() {
        // Simultaneous blocking sends below the eager threshold complete
        // without rendezvous — the classic "works because it's small" case.
        let r = lint_skeleton(
            &skel("all tasks t send a 512 byte message to task (1 - t)."),
            2,
            &[],
            &LintOptions::default(),
        );
        assert!(r.is_empty(), "{r}");
    }

    #[test]
    fn rendezvous_send_exchange_deadlocks() {
        let r = lint_skeleton(
            &skel("all tasks t send a 1048576 byte message to task (1 - t)."),
            2,
            &[],
            &LintOptions::default(),
        );
        assert_eq!(r.len(), 1, "{r}");
        let d = r.iter().next().unwrap();
        assert_eq!(d.code, "deadlock");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn self_send_blocks() {
        let r = lint_skeleton(
            &skel("task 0 sends a 1048576 byte message to task 0."),
            2,
            &[],
            &LintOptions::default(),
        );
        assert_eq!(r.len(), 1, "{r}");
        assert_eq!(r.iter().next().unwrap().code, "self-block");
    }

    #[test]
    fn reduce_root_out_of_range() {
        let r = lint_skeleton(
            &skel("all tasks reduce a 8 byte message to task num_tasks."),
            4,
            &[],
            &LintOptions::default(),
        );
        assert_eq!(r.len(), 1, "{r}");
        let d = r.iter().next().unwrap();
        assert_eq!(d.code, "out-of-range");
        assert!(d.message.contains("reduce root 4 out of range"), "{}", d.message);
    }

    #[test]
    fn mesh_edges_are_not_flagged() {
        // Out-of-range Single destinations are the mesh-edge idiom and
        // must stay silent, matching the VM.
        let skel = union_core::Builder::new("mesh")
            .send_nb(
                conceptual::parser::parse_expr("MESH_NEIGHBOR(2,2,1, t, 1,0,0)").unwrap(),
                conceptual::Expr::Int(8),
            )
            .build()
            .unwrap();
        let r = lint_skeleton(&skel, 4, &[], &LintOptions::default());
        assert!(r.is_empty(), "{r}");
    }

    #[test]
    fn zero_rep_loop_is_dead_code() {
        let r = lint_skeleton(
            &skel("for 0 repetitions task 0 sends a 8 byte message to task 1."),
            2,
            &[],
            &LintOptions::default(),
        );
        assert_eq!(r.len(), 1, "{r}");
        let d = r.iter().next().unwrap();
        assert_eq!(d.code, "dead-code");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn leaf_evaluation_error_names_the_leaf_pc() {
        let r = lint_skeleton(
            &skel(
                "task 0 sends a 8 byte message to task 1 then \
                 for each i in {0, ..., 1} task 0 computes for 8/i microseconds.",
            ),
            2,
            &[],
            &LintOptions::default(),
        );
        assert_eq!(r.len(), 1, "{r}");
        let d = r.iter().next().unwrap();
        assert_eq!(d.code, "eval");
        assert_eq!(d.pc, Some(2), "the Compute leaf, not the LoopEnd after it: {r}");
    }

    #[test]
    fn synthetic_leaf_evaluation_error_is_reported() {
        let skel = union_core::Builder::new("ur")
            .send_random(conceptual::parser::parse_expr("8/0").unwrap(), true)
            .build()
            .unwrap();
        let r = lint_skeleton(&skel, 4, &[], &LintOptions::default());
        assert_eq!(r.len(), 1, "{r}");
        let d = r.iter().next().unwrap();
        assert_eq!((d.code, d.severity), ("eval", Severity::Error), "{r}");
    }

    #[test]
    fn huge_repeat_count_is_bounded_by_the_op_budget() {
        let r = lint_skeleton(
            &skel("task 0 sends 100000000 8 byte messages to task 1."),
            2,
            &[],
            &LintOptions::default(),
        );
        assert_eq!(r.max_severity(), Some(Severity::Info), "{r}");
        assert!(r.iter().any(|d| d.code == "budget"), "{r}");
    }

    #[test]
    fn untaken_branch_is_dead_code() {
        let r = lint_skeleton(
            &skel(
                "if num_tasks > 4 then task 0 sends a 8 byte message to task 1 \
                 otherwise all tasks synchronize.",
            ),
            2,
            &[],
            &LintOptions::default(),
        );
        assert_eq!(r.len(), 1, "{r}");
        let d = r.iter().next().unwrap();
        assert_eq!((d.code, d.pc), ("dead-code", Some(1)), "{r}");
        assert!(d.message.starts_with("instructions 1..=2 "), "{r}");
    }

    #[test]
    fn budget_truncation_is_reported_as_info() {
        let opts = LintOptions { max_ops_per_rank: 4, ..LintOptions::default() };
        let r = lint_skeleton(
            &skel(
                "for 100 repetitions { task 0 sends a 8 byte message to task 1 then \
                 task 1 sends a 8 byte message to task 0 }.",
            ),
            2,
            &[],
            &opts,
        );
        assert_eq!(r.max_severity(), Some(Severity::Info), "{r}");
        assert!(r.iter().any(|d| d.code == "budget"), "{r}");
    }

    #[test]
    fn divergent_trace_collectives_are_flagged() {
        use union_core::MpiOp;
        let t = Trace {
            ops: vec![
                vec![MpiOp::Init, MpiOp::Barrier, MpiOp::Allreduce { bytes: 8 }, MpiOp::Finalize],
                vec![MpiOp::Init, MpiOp::Allreduce { bytes: 8 }, MpiOp::Barrier, MpiOp::Finalize],
            ],
        };
        let r = lint_trace(&t, &LintOptions::default());
        assert_eq!(r.len(), 1, "{r}");
        assert_eq!(r.iter().next().unwrap().code, "collective-divergence");
    }

    #[test]
    fn recorded_trace_of_clean_skeleton_is_clean() {
        let s = skel(
            "all tasks t asynchronously send a 32 byte message to task (t+1) mod num_tasks \
             then all tasks await completions then all tasks synchronize.",
        );
        let inst = SkeletonInstance::new(&s, 4, &[]).unwrap();
        let trace = Trace::record(&inst, 7);
        let r = lint_trace(&trace, &LintOptions::default());
        assert!(r.is_empty(), "{r}");
    }

    #[test]
    fn unreceived_isend_in_trace_warns() {
        use union_core::MpiOp;
        let t = Trace {
            ops: vec![
                vec![MpiOp::Init, MpiOp::Isend { dst: 1, bytes: 8, tag: 0 }, MpiOp::Finalize],
                vec![MpiOp::Init, MpiOp::Finalize],
            ],
        };
        let r = lint_trace(&t, &LintOptions::default());
        assert_eq!(r.max_severity(), Some(Severity::Warning), "{r}");
        assert!(r.iter().any(|d| d.code == "unmatched-send"), "{r}");
    }

    #[test]
    fn recv_from_terminated_rank_is_unmatched() {
        use union_core::MpiOp;
        let t = Trace {
            ops: vec![
                vec![MpiOp::Init, MpiOp::Recv { src: 1, bytes: 8, tag: 0 }, MpiOp::Finalize],
                vec![MpiOp::Init, MpiOp::Finalize],
            ],
        };
        let r = lint_trace(&t, &LintOptions::default());
        assert_eq!(r.len(), 1, "{r}");
        assert_eq!(r.iter().next().unwrap().code, "unmatched");
    }
}
