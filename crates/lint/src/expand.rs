//! Per-rank expansion of a skeleton into finite op streams, by stepping
//! the simulator's own interpreter, `union_core::vm::RankVm`, one
//! instruction at a time. Expansion adds only what analysis needs:
//!
//! * a budget (instruction steps and emitted ops per rank), so a huge or
//!   non-terminating configuration degrades to a truncated prefix instead
//!   of hanging the linter;
//! * the pc of every executed instruction, so the analysis can report
//!   instructions no rank ever executes at the linted configuration.
//!
//! An evaluation error is the VM's [`VmError`], reported as a failed
//! expansion. Synthetic (random-destination) sends are dropped undrawn:
//! they are one-sided and unmatched, so they cannot take part in a
//! deadlock and their destinations are irrelevant to the analysis.

use std::collections::BTreeSet;
use std::sync::Arc;
use union_core::vm::{Queued, VmError};
use union_core::{MpiOp, RankVm, SkeletonInstance};

use crate::LintOptions;

/// How far a rank's expansion got.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExpandStatus {
    /// The whole program was expanded.
    Complete,
    /// A budget ran out; `ops` is a valid prefix of the real stream.
    Truncated,
    /// Evaluation failed at `pc` — the stream up to that point is valid.
    Failed { pc: usize, message: String },
}

/// One rank's expanded op stream. `ops` pairs each op with the program
/// counter of the instruction that emitted it (trace-derived streams use
/// the op index instead).
#[derive(Clone, Debug)]
pub struct ExpandedRank {
    pub rank: u32,
    pub ops: Vec<(usize, MpiOp)>,
    pub visited: BTreeSet<usize>,
    pub status: ExpandStatus,
}

/// Expand `rank`'s stream from an instantiated skeleton.
pub fn expand_rank(inst: &Arc<SkeletonInstance>, rank: u32, opts: &LintOptions) -> ExpandedRank {
    let mut vm = RankVm::new(inst.clone(), rank, 0);
    let mut ops = Vec::new();
    let mut visited = BTreeSet::new();
    let mut steps = 0;
    let status = 'run: loop {
        let pc = vm.pc();
        if pc >= inst.code().len() {
            break ExpandStatus::Complete;
        }
        if steps >= opts.max_steps_per_rank {
            break ExpandStatus::Truncated;
        }
        steps += 1;
        visited.insert(pc);
        if let Err(VmError { pc, message }) = vm.step() {
            break ExpandStatus::Failed { pc, message };
        }
        for (queued, copies) in vm.drain_runs() {
            let Queued::Op(op) = queued else { continue };
            for _ in 0..copies {
                if ops.len() >= opts.max_ops_per_rank {
                    break 'run ExpandStatus::Truncated;
                }
                ops.push((pc, op));
            }
        }
    };
    ExpandedRank { rank, ops, visited, status }
}
