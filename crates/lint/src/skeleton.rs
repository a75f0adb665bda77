//! Stream-level analysis: collective divergence, deadlock detection, and
//! dead-code reporting over per-rank op streams.
//!
//! The input is whatever produced the streams — the symbolic expander for
//! skeletons, or a recorded [`union_core::Trace`] for trace replay. The
//! passes run in a strict order so each finding is reported once, by the
//! most specific check that can see it:
//!
//! 1. expansion failures (bad roots, bad sources, evaluation errors);
//! 2. collective-sequence divergence (a cross-rank property the matching
//!    stage would otherwise report as an opaque cycle);
//! 3. matching: the streams run on the simulator's own MPI layer
//!    ([`mpi_sim::MpiRank`] over [`mpi_sim::loopback`]); ranks left blocked
//!    give unmatched blocking operations and wait-for cycles;
//! 4. dead code — only when every rank expanded completely and nothing
//!    above fired, since a truncated or failed expansion makes "never
//!    executed" unknowable.
//!
//! Stage 3 adds no semantics of its own, so its verdict is the
//! simulator's: eager sends (≤ `LintOptions::eager_max`) go out at once,
//! larger sends — `Isend`s too — complete only once a receive matches
//! them, self-sends complete locally, receives match by source and tag,
//! and collectives run as the point-to-point schedules
//! `mpi_sim::collectives::expand` makes of them.

use conceptual::{Diagnostic, Report};
use mpi_sim::MpiRank;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use union_core::{MpiOp, OpSource, Trace};

use crate::expand::{ExpandStatus, ExpandedRank};
use crate::LintOptions;

/// Analyze a set of per-rank streams. `code_len` enables the dead-code
/// pass (skeleton expansions only; trace streams have no program to map
/// back to).
pub(crate) fn analyze(
    streams: &[ExpandedRank],
    code_len: Option<usize>,
    opts: &LintOptions,
) -> Report {
    let mut report = Report::new();

    // 1. Expansion failures. Identical messages across ranks (the common
    // case: every rank fails on the same bad root) collapse to one
    // finding attributed to the lowest failing rank.
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for s in streams {
        if let ExpandStatus::Failed { pc, message } = &s.status {
            if seen.insert(message) {
                let code = if message.contains("out of range") { "out-of-range" } else { "eval" };
                report.push(Diagnostic::error(code, message.clone()).on_rank(s.rank).at_pc(*pc));
            }
        }
    }
    if !report.is_empty() {
        return report;
    }

    let truncated = streams.iter().any(|s| s.status == ExpandStatus::Truncated);
    if truncated {
        let t = streams.iter().find(|s| s.status == ExpandStatus::Truncated).unwrap();
        report.push(
            Diagnostic::info(
                "budget",
                format!(
                    "expansion budget exhausted after {} ops; analysis covers only the \
                     expanded prefix (raise the budget to lint this configuration fully)",
                    t.ops.len()
                ),
            )
            .on_rank(t.rank),
        );
    }

    // 2. Collective divergence. With truncated streams only the common
    // prefix is comparable.
    if let Some(d) = check_collectives(streams, truncated) {
        report.push(d);
        return report;
    }
    if truncated {
        return report;
    }

    // 3. Deadlock / unmatched-operation analysis: replay the streams on
    // the simulator's own MPI layer over an instantaneous loopback.
    let trace = Arc::new(Trace {
        ops: streams.iter().map(|s| s.ops.iter().map(|&(_, op)| op).collect()).collect(),
    });
    let mut ranks: Vec<MpiRank> =
        (0..trace.num_ranks()).map(|r| MpiRank::new(trace.cursor(r), opts.eager_max)).collect();
    mpi_sim::loopback(&mut ranks);
    report_matching(streams, &ranks, &mut report);

    // 4. Dead code, only on a fully clean, fully expanded program.
    if report.is_empty() {
        if let Some(len) = code_len {
            let mut visited: BTreeSet<usize> = BTreeSet::new();
            for s in streams {
                visited.extend(&s.visited);
            }
            let mut pc = 0;
            while pc < len {
                if visited.contains(&pc) {
                    pc += 1;
                    continue;
                }
                let start = pc;
                while pc < len && !visited.contains(&pc) {
                    pc += 1;
                }
                let msg = if pc - start == 1 {
                    format!(
                        "instruction {start} is never executed by any rank at this configuration"
                    )
                } else {
                    format!(
                        "instructions {start}..={} are never executed by any rank at this configuration",
                        pc - 1
                    )
                };
                report.push(Diagnostic::warning("dead-code", msg).at_pc(start));
            }
        }
    }
    report
}

/// Signature of one collective call; all ranks must issue equal
/// signatures in the same order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CollSig {
    Barrier,
    Allreduce(u64),
    Reduce(u32, u64),
    Bcast(u32, u64),
}

impl CollSig {
    fn of(op: &MpiOp) -> Option<CollSig> {
        match op {
            MpiOp::Barrier => Some(CollSig::Barrier),
            MpiOp::Allreduce { bytes } => Some(CollSig::Allreduce(*bytes)),
            MpiOp::Reduce { root, bytes } => Some(CollSig::Reduce(*root, *bytes)),
            MpiOp::Bcast { root, bytes } => Some(CollSig::Bcast(*root, *bytes)),
            _ => None,
        }
    }

    fn desc(&self) -> String {
        match self {
            CollSig::Barrier => "Barrier".into(),
            CollSig::Allreduce(b) => format!("Allreduce({b} B)"),
            CollSig::Reduce(r, b) => format!("Reduce(root {r}, {b} B)"),
            CollSig::Bcast(r, b) => format!("Bcast(root {r}, {b} B)"),
        }
    }
}

/// Compare every rank's ordered collective sequence against rank 0's.
/// Returns the first divergence found.
fn check_collectives(streams: &[ExpandedRank], prefix_only: bool) -> Option<Diagnostic> {
    if streams.len() < 2 {
        return None;
    }
    let seqs: Vec<Vec<(usize, CollSig)>> = streams
        .iter()
        .map(|s| s.ops.iter().filter_map(|(pc, op)| CollSig::of(op).map(|c| (*pc, c))).collect())
        .collect();
    let prefix = seqs.iter().map(|s| s.len()).min().unwrap_or(0);
    for (r, b) in seqs.iter().enumerate().skip(1) {
        let a = &seqs[0];
        for i in 0..a.len().min(b.len()).min(if prefix_only { prefix } else { usize::MAX }) {
            if a[i].1 != b[i].1 {
                return Some(
                    Diagnostic::error(
                        "collective-divergence",
                        format!(
                            "collective sequence diverges at collective #{i}: rank 0 issues {} \
                             but rank {r} issues {}",
                            a[i].1.desc(),
                            b[i].1.desc()
                        ),
                    )
                    .on_rank(r as u32)
                    .at_pc(b[i].0),
                );
            }
        }
        if !prefix_only && a.len() != b.len() {
            return Some(
                Diagnostic::error(
                    "collective-divergence",
                    format!(
                        "rank 0 issues {} collective(s) but rank {r} issues {}",
                        a.len(),
                        b.len()
                    ),
                )
                .on_rank(r as u32),
            );
        }
    }
    None
}

/// Read the verdict off the ranks the loopback left in their final
/// states: who is permanently blocked and why, or — when every rank
/// terminated — what traffic was left unmatched.
fn report_matching(streams: &[ExpandedRank], ranks: &[MpiRank], report: &mut Report) {
    let n = ranks.len();
    let stuck: Vec<usize> = (0..n).filter(|&r| !ranks[r].is_done()).collect();

    if stuck.is_empty() {
        // Everyone terminated — flag leftover unmatched traffic.
        let mut sends: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        let mut recvs: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        for (d, rank) in ranks.iter().enumerate() {
            for s in rank.unexpected_sources() {
                *sends.entry((s, d as u32)).or_default() += 1;
            }
            for s in rank.posted_sources() {
                *recvs.entry((s, d as u32)).or_default() += 1;
            }
        }
        for ((s, d), c) in sends {
            report.push(Diagnostic::warning(
                "unmatched-send",
                format!("{c} message(s) from rank {s} to rank {d} are sent but never received"),
            ));
        }
        for ((s, d), c) in recvs {
            report.push(
                Diagnostic::warning(
                    "unmatched-recv",
                    format!(
                        "rank {d} posts {c} receive(s) from rank {s} that are never matched by a send"
                    ),
                )
                .on_rank(d),
            );
        }
        return;
    }

    // Wait-for graph over ranks, from each stuck rank's open requests;
    // terminated ranks are sinks.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &r in &stuck {
        adj[r] = ranks[r].blocked_on().into_iter().map(|p| p as usize).collect();
        adj[r].sort_unstable();
        adj[r].dedup();
    }
    // The op a stuck rank stopped at is the last its cursor handed out (a
    // collective stays current while its expansion runs).
    let at = |r: usize| -> (usize, MpiOp) {
        let OpSource::Trace(cursor) = ranks[r].source() else {
            unreachable!("lint ranks replay expanded streams")
        };
        streams[r].ops[cursor.pos() - 1]
    };
    let blocked_desc = |r: usize| -> String {
        let (pc, op) = at(r);
        let peers: Vec<String> = adj[r].iter().map(|p| p.to_string()).collect();
        let peers = peers.join(", ");
        match op {
            MpiOp::Send { dst, bytes, .. } => {
                format!("blocked in a rendezvous send of {bytes} B to rank {dst} (pc {pc})")
            }
            MpiOp::Recv { src, .. } => format!("waiting for a message from rank {src} (pc {pc})"),
            MpiOp::WaitAll => {
                format!("waiting on unmatched requests with rank(s) {peers} (pc {pc})")
            }
            op => {
                let sig = CollSig::of(&op).map(|c| c.desc()).unwrap_or_else(|| "op".into());
                format!("waiting in {sig} on rank(s) {peers} (pc {pc})")
            }
        }
    };

    if let Some(cycle) = find_cycle(&adj) {
        let (pc0, _) = at(cycle[0]);
        if cycle.len() == 1 {
            let r = cycle[0];
            report.push(
                Diagnostic::error(
                    "self-block",
                    format!("rank {r} waits on itself: {}", blocked_desc(r)),
                )
                .on_rank(r as u32)
                .at_pc(pc0),
            );
        } else {
            let chain: Vec<String> =
                cycle.iter().chain(cycle.first()).map(|r| r.to_string()).collect();
            let hops: Vec<String> =
                cycle.iter().map(|&r| format!("rank {r} {}", blocked_desc(r))).collect();
            report.push(
                Diagnostic::error(
                    "deadlock",
                    format!(
                        "communication deadlock, wait-for cycle {}: {}",
                        chain.join(" -> "),
                        hops.join("; ")
                    ),
                )
                .on_rank(cycle[0] as u32)
                .at_pc(pc0),
            );
        }
        return;
    }

    // No cycle: blocked on operations that can never be matched
    // (e.g. the peer already terminated).
    let r0 = stuck[0];
    report.push(
        Diagnostic::error(
            "unmatched",
            format!(
                "{} rank(s) block forever with no matching operation: rank {r0} {}",
                stuck.len(),
                blocked_desc(r0)
            ),
        )
        .on_rank(r0 as u32)
        .at_pc(at(r0).0),
    );
}

/// First directed cycle in `adj`, as the list of nodes on it.
fn find_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = adj.len();
    let mut color = vec![0u8; n]; // 0 = unvisited, 1 = on path, 2 = done
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut path = vec![start];
        let mut iters = vec![0usize];
        color[start] = 1;
        while let Some(&node) = path.last() {
            let i = *iters.last().unwrap();
            if i < adj[node].len() {
                *iters.last_mut().unwrap() += 1;
                let next = adj[node][i];
                match color[next] {
                    1 => {
                        let pos = path.iter().position(|&x| x == next).unwrap();
                        return Some(path[pos..].to_vec());
                    }
                    0 => {
                        color[next] = 1;
                        path.push(next);
                        iters.push(0);
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                path.pop();
                iters.pop();
            }
        }
    }
    None
}
