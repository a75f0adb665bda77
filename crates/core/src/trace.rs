//! Trace-based workloads — the baseline Union replaces (paper Table I).
//!
//! CODES traditionally replays DUMPI traces: one record per MPI call per
//! rank, collected by running the real application. This module provides
//! the equivalent: a [`Trace`] is the full per-rank op stream, recordable
//! from any running source (here: a skeleton VM standing in for the real
//! application), serializable to a DUMPI-like JSON-lines file, and
//! replayable through the same simulator interface as a skeleton.
//!
//! Having both paths lets the repository measure Table I's qualitative
//! claims: trace files are large and fixed-size-per-event, skeletons are
//! tiny and generative; replaying a recorded trace must reproduce the
//! skeleton's simulation **exactly** (`union-exp table1` and the
//! `table1` bench quantify this).

use crate::ops::MpiOp;
use crate::vm::RankVm;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use std::sync::Arc;

/// One trace record: the op a rank issued. (DUMPI also timestamps each
/// record; our replay re-derives timing from the simulated network, which
/// is what CODES' trace replay does with its network model too.)
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct TraceRecord {
    pub rank: u32,
    pub op: MpiOp,
}

/// A complete multi-rank trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// `ops[rank]` = that rank's full op stream.
    pub ops: Vec<Vec<MpiOp>>,
}

impl Trace {
    pub fn num_ranks(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Total records across all ranks.
    pub fn len(&self) -> usize {
        self.ops.iter().map(|v| v.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a trace by draining every rank of a skeleton instance —
    /// the "run the application and collect its trace" step of
    /// trace-driven simulation.
    pub fn record(inst: &Arc<crate::vm::SkeletonInstance>, seed: u64) -> Trace {
        let n = inst.num_tasks;
        Trace { ops: (0..n).map(|r| RankVm::new(inst.clone(), r, seed).collect()).collect() }
    }

    /// Serialize as JSON lines (one record per line, DUMPI-style: flat,
    /// per-event, grep-able).
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for (rank, ops) in self.ops.iter().enumerate() {
            for op in ops {
                let rec = TraceRecord { rank: rank as u32, op: *op };
                serde_json::to_writer(&mut w, &rec)?;
                w.write_all(b"\n")?;
            }
        }
        Ok(())
    }

    /// Parse a JSON-lines trace. Ranks may interleave arbitrarily; order
    /// within a rank is preserved.
    pub fn read_jsonl<R: BufRead>(r: R) -> std::io::Result<Trace> {
        let mut ops: Vec<Vec<MpiOp>> = Vec::new();
        for line in r.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let rec: TraceRecord = serde_json::from_str(&line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            if ops.len() <= rec.rank as usize {
                ops.resize_with(rec.rank as usize + 1, Vec::new);
            }
            ops[rec.rank as usize].push(rec.op);
        }
        Ok(Trace { ops })
    }

    /// The serialized size in bytes (what a trace costs on disk — the
    /// Table I "memory footprint / trace collection" axis).
    pub fn jsonl_size(&self) -> u64 {
        struct Counter(u64);
        impl Write for Counter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += buf.len() as u64;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut c = Counter(0);
        self.write_jsonl(&mut c).expect("counting writer cannot fail");
        c.0
    }

    /// A replay cursor for one rank.
    pub fn cursor(self: &Arc<Trace>, rank: u32) -> TraceCursor {
        assert!(rank < self.num_ranks(), "rank {rank} not in trace");
        TraceCursor { trace: self.clone(), rank, pos: 0 }
    }
}

/// Replays one rank's recorded op stream — the trace-replay counterpart
/// of [`RankVm`].
#[derive(Clone)]
pub struct TraceCursor {
    trace: Arc<Trace>,
    rank: u32,
    pos: usize,
}

impl TraceCursor {
    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn num_tasks(&self) -> u32 {
        self.trace.num_ranks()
    }

    /// How many ops [`next_op`](Self::next_op) has handed out.
    pub fn pos(&self) -> usize {
        self.pos
    }

    pub fn next_op(&mut self) -> Option<MpiOp> {
        let op = self.trace.ops[self.rank as usize].get(self.pos).copied();
        if op.is_some() {
            self.pos += 1;
        }
        op
    }
}

/// A rank's operation source: generative (Union skeleton VM) or recorded
/// (trace replay). This is the seam the paper's Table I compares across.
#[derive(Clone)]
pub enum OpSource {
    Skeleton(RankVm),
    Trace(TraceCursor),
}

// Both variants must remain `Send` so node LPs can move onto the
// parallel schedulers' worker threads.
const _: () = {
    const fn require_send<T: Send>() {}
    require_send::<OpSource>();
};

impl OpSource {
    pub fn rank(&self) -> u32 {
        match self {
            OpSource::Skeleton(vm) => vm.rank(),
            OpSource::Trace(c) => c.rank(),
        }
    }

    pub fn num_tasks(&self) -> u32 {
        match self {
            OpSource::Skeleton(vm) => vm.num_tasks(),
            OpSource::Trace(c) => c.num_tasks(),
        }
    }

    pub fn next_op(&mut self) -> Option<MpiOp> {
        match self {
            OpSource::Skeleton(vm) => vm.next_op(),
            OpSource::Trace(c) => c.next_op(),
        }
    }
}

impl From<RankVm> for OpSource {
    fn from(vm: RankVm) -> OpSource {
        OpSource::Skeleton(vm)
    }
}

impl From<TraceCursor> for OpSource {
    fn from(c: TraceCursor) -> OpSource {
        OpSource::Trace(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate_source;
    use crate::vm::SkeletonInstance;

    fn ring_inst(n: u32) -> Arc<SkeletonInstance> {
        let skel = translate_source(
            "for 3 repetitions { all tasks t asynchronously send a 4096 byte message \
             to task (t+1) mod num_tasks then all tasks await completions }.",
            "ring",
        )
        .unwrap();
        SkeletonInstance::new(&skel, n, &[]).unwrap()
    }

    #[test]
    fn record_and_replay_are_identical() {
        let inst = ring_inst(6);
        let trace = Arc::new(Trace::record(&inst, 1));
        for r in 0..6 {
            let from_vm: Vec<MpiOp> = RankVm::new(inst.clone(), r, 1).collect();
            let mut cur = trace.cursor(r);
            let mut from_trace = Vec::new();
            while let Some(op) = cur.next_op() {
                from_trace.push(op);
            }
            assert_eq!(from_vm, from_trace);
        }
    }

    #[test]
    fn jsonl_round_trip() {
        let inst = ring_inst(4);
        let trace = Trace::record(&inst, 1);
        let mut buf = Vec::new();
        trace.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(std::io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(trace, back);
        assert_eq!(trace.jsonl_size(), buf.len() as u64);
    }

    #[test]
    fn trace_is_much_larger_than_skeleton() {
        // Table I's "memory footprint" column, quantified: the skeleton is
        // O(program), the trace O(events).
        let skel = translate_source(
            "for 200 repetitions { all tasks t asynchronously send a 1024 byte message \
             to task (t+1) mod num_tasks then all tasks await completions }.",
            "ring",
        )
        .unwrap();
        let inst = SkeletonInstance::new(&skel, 16, &[]).unwrap();
        let trace = Trace::record(&inst, 1);
        let skeleton_size = serde_json::to_vec(&skel).unwrap().len() as u64;
        let trace_size = trace.jsonl_size();
        assert!(trace_size > 50 * skeleton_size, "trace {trace_size} vs skeleton {skeleton_size}");
    }

    #[test]
    fn op_source_dispatches_both_ways() {
        let inst = ring_inst(3);
        let trace = Arc::new(Trace::record(&inst, 1));
        let mut a: OpSource = RankVm::new(inst.clone(), 2, 1).into();
        let mut b: OpSource = trace.cursor(2).into();
        assert_eq!(a.rank(), b.rank());
        assert_eq!(a.num_tasks(), b.num_tasks());
        loop {
            let (x, y) = (a.next_op(), b.next_op());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn synthetic_randomness_is_captured_by_the_trace() {
        let skel = crate::ir::Builder::new("ur")
            .loop_n(conceptual::Expr::lit(5), |b| b.send_random(conceptual::Expr::lit(100), true))
            .build()
            .unwrap();
        let inst = SkeletonInstance::new(&skel, 8, &[]).unwrap();
        let t1 = Trace::record(&inst, 7);
        let t2 = Trace::record(&inst, 7);
        let t3 = Trace::record(&inst, 8);
        assert_eq!(t1, t2, "same seed, same trace");
        assert_ne!(t1, t3, "different seed, different destinations");
    }
}
