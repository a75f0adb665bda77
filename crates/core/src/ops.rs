//! The Union message-passing interface (`UNION_MPI_X` in the paper).
//!
//! The event generator declares these operations; the simulator-side
//! workload module (crate `mpi-sim`) implements them, emitting simulation
//! events in CODES fashion. A validation executor (crate
//! `union-core::validate`) implements them as instantaneous bookkeeping.

use serde::{Deserialize, Serialize};

/// A single MPI-level operation emitted by a rank's skeleton.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MpiOp {
    /// `UNION_MPI_Init` — emitted exactly once, before anything else.
    Init,
    /// Nonblocking send; completes at the matching semantics of the
    /// executor (eager or rendezvous). Tracked until the next `WaitAll`.
    Isend { dst: u32, bytes: u64, tag: u32 },
    /// Blocking send: the rank does not advance until the send completes.
    Send { dst: u32, bytes: u64, tag: u32 },
    /// Nonblocking receive.
    Irecv { src: u32, bytes: u64, tag: u32 },
    /// Blocking receive.
    Recv { src: u32, bytes: u64, tag: u32 },
    /// Wait for every outstanding nonblocking operation of this rank.
    WaitAll,
    /// Blocking allreduce over all ranks of the job.
    Allreduce { bytes: u64 },
    /// Blocking rooted reduce.
    Reduce { root: u32, bytes: u64 },
    /// Blocking broadcast.
    Bcast { root: u32, bytes: u64 },
    /// Barrier over all ranks of the job.
    Barrier,
    /// Local computation delay (`UNION_Compute`).
    Compute { ns: u64 },
    /// One-sided synthetic send: delivered without a matching receive
    /// (CODES synthetic-workload style; used by uniform-random traffic).
    SyntheticSend { dst: u32, bytes: u64 },
    /// Counter reset — instantaneous.
    ResetCounters,
    /// Counter log — instantaneous.
    LogCounters,
    /// Statistics aggregation — instantaneous.
    Aggregates,
    /// `UNION_MPI_Finalize` — emitted exactly once, last.
    Finalize,
}

impl MpiOp {
    /// The MPI function name this op corresponds to in a trace (Table IV
    /// grouping).
    pub fn fn_name(&self) -> &'static str {
        match self {
            MpiOp::Init => "MPI_Init",
            MpiOp::Isend { .. } => "MPI_Isend",
            MpiOp::Send { .. } => "MPI_Send",
            MpiOp::Irecv { .. } => "MPI_Irecv",
            MpiOp::Recv { .. } => "MPI_Recv",
            MpiOp::WaitAll => "MPI_Waitall",
            MpiOp::Allreduce { .. } => "MPI_Allreduce",
            MpiOp::Reduce { .. } => "MPI_Reduce",
            MpiOp::Bcast { .. } => "MPI_Bcast",
            MpiOp::Barrier => "MPI_Barrier",
            MpiOp::Compute { .. } => "compute",
            MpiOp::SyntheticSend { .. } => "synthetic_send",
            MpiOp::ResetCounters => "reset_counters",
            MpiOp::LogCounters => "log_counters",
            MpiOp::Aggregates => "aggregates",
            MpiOp::Finalize => "MPI_Finalize",
        }
    }

    /// Whether this is a collective operation.
    pub fn is_collective(&self) -> bool {
        matches!(
            self,
            MpiOp::Allreduce { .. } | MpiOp::Reduce { .. } | MpiOp::Bcast { .. } | MpiOp::Barrier
        )
    }
}
