//! Model-level analysis: the lookahead window of a conservative-parallel
//! schedule, derived from the model.
//!
//! The conservative protocol is only correct when every event crossing a
//! synchronization boundary is scheduled at least one window into the
//! future. The largest such window is a property of the model: the
//! minimum delay of any LP-to-LP edge the schedule synchronizes. This
//! pass computes it statically, so a parallel run never asks the user
//! for a number the model already determines.
//!
//! The graph is plain data (LP indices, block assignments, delays in
//! nanoseconds) so this crate stays independent of the network-model
//! crates; the harness extracts edges from the assembled CODES model.

use conceptual::{Diagnostic, Report};

/// One static LP-to-LP scheduling edge: "src may send dst an event no
/// sooner than `delay_ns` after now".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelayEdge {
    pub src_lp: u32,
    pub dst_lp: u32,
    pub delay_ns: u64,
    /// Edge class, for diagnostics (e.g. `"packet"`, `"credit"`).
    pub kind: &'static str,
}

/// The shape of a parallel schedule: which edges it synchronizes.
#[derive(Clone, Copy, Debug)]
pub enum Shape<'a> {
    /// `par:T` and `async:T`: every edge between scheduler blocks.
    Blocks,
    /// `shard:N:T`: every edge between shards (`shard_of[lp]` = owning
    /// shard) — the GVT fence bounds them by the window — plus, when each
    /// shard runs more than one worker thread, every cross-block edge
    /// inside a shard, which the in-process rounds bound by the same
    /// window.
    Shards { shard_of: &'a [u32], threads: usize },
}

/// The delay graph of an assembled model, with its partition (scheduler
/// block) assignment.
#[derive(Clone, Debug)]
pub struct ModelGraph {
    /// `block_of[lp]` = the scheduler block the LP belongs to. LPs in the
    /// same block always execute on one thread, so only edges between
    /// different blocks constrain the lookahead window.
    pub block_of: Vec<u32>,
    pub edges: Vec<DelayEdge>,
    /// Human-readable LP names for diagnostics, indexed by LP id
    /// (empty = use `lp N`).
    pub names: Vec<String>,
}

impl ModelGraph {
    pub fn new(block_of: Vec<u32>, edges: Vec<DelayEdge>) -> ModelGraph {
        ModelGraph { block_of, edges, names: Vec::new() }
    }

    pub fn with_names(mut self, names: Vec<String>) -> ModelGraph {
        self.names = names;
        self
    }

    fn name(&self, lp: u32) -> String {
        self.names.get(lp as usize).cloned().unwrap_or_else(|| format!("lp {lp}"))
    }

    /// `<kind> edge <src> -> <dst>`, for findings.
    pub fn describe(&self, e: &DelayEdge) -> String {
        format!("{} edge {} -> {}", e.kind, self.name(e.src_lp), self.name(e.dst_lp))
    }

    /// Do `src` and `dst` of `e` map to different owners? An edge to an
    /// LP the map doesn't cover crosses by definition — conservative
    /// rather than silently ignored.
    fn crosses(e: &DelayEdge, owner: &[u32]) -> bool {
        match (owner.get(e.src_lp as usize), owner.get(e.dst_lp as usize)) {
            (Some(a), Some(b)) => a != b,
            _ => true,
        }
    }

    fn min_edge(&self, keep: impl Fn(&DelayEdge) -> bool) -> Option<(u64, &DelayEdge)> {
        self.edges.iter().filter(|e| keep(e)).map(|e| (e.delay_ns, e)).min_by_key(|(d, _)| *d)
    }

    /// Minimum delay over all cross-partition edges, with the edge that
    /// attains it. `None` when no edge crosses a partition.
    pub fn min_cross_partition_delay(&self) -> Option<(u64, &DelayEdge)> {
        self.min_edge(|e| Self::crosses(e, &self.block_of))
    }

    /// The lookahead window a schedule of `shape` runs with:
    /// the minimum delay over the edges it synchronizes, and the edge
    /// that sets it. Shards own whole blocks, so a shard window is never
    /// smaller than the block window. When nothing is synchronized (one
    /// block, or one shard of one thread) the window is the model's
    /// minimum edge delay, so it stays finite.
    ///
    /// `Err` when no positive window is safe — one `zero-delay` error per
    /// synchronized zero-delay edge, naming the LP pair and where it
    /// crosses — or when the model has no edges to derive a window from.
    pub fn window(&self, shape: Shape<'_>) -> Result<(u64, &DelayEdge), Report> {
        let locus = |e: &DelayEdge| -> Option<String> {
            match shape {
                Shape::Blocks => {
                    Self::crosses(e, &self.block_of).then(|| "crosses partitions".to_string())
                }
                Shape::Shards { shard_of, threads } => {
                    let (s, d) = (shard_of.get(e.src_lp as usize), shard_of.get(e.dst_lp as usize));
                    match (s, d) {
                        (Some(a), Some(b)) if a != b => Some(format!("crosses shards {a} -> {b}")),
                        (Some(a), Some(_)) => (threads > 1 && Self::crosses(e, &self.block_of))
                            .then(|| format!("crosses worker threads within shard {a}")),
                        _ => Some("leaves the shard-owner map".to_string()),
                    }
                }
            }
        };
        let mut report = Report::new();
        for e in self.edges.iter().filter(|e| e.delay_ns == 0) {
            if let Some(at) = locus(e) {
                report.push(Diagnostic::error(
                    "zero-delay",
                    format!(
                        "zero-delay {} {at}; no positive lookahead window is safe for this model",
                        self.describe(e)
                    ),
                ));
            }
        }
        if report.has_errors() {
            return Err(report);
        }
        let window = self.min_edge(|e| locus(e).is_some()).or_else(|| self.min_edge(|_| true));
        window.ok_or_else(|| {
            let mut report = Report::new();
            report.push(Diagnostic::error(
                "no-edges",
                "the model has no delay edges to derive a lookahead window from",
            ));
            report
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: u32, dst: u32, delay: u64) -> DelayEdge {
        DelayEdge { src_lp: src, dst_lp: dst, delay_ns: delay, kind: "packet" }
    }

    fn shards(shard_of: &[u32], threads: usize) -> Shape<'_> {
        Shape::Shards { shard_of, threads }
    }

    #[test]
    fn min_delay_ignores_intra_partition_edges() {
        // LPs 0,1 in block 0; LP 2 in block 1. The 5 ns edge is internal.
        let g =
            ModelGraph::new(vec![0, 0, 1], vec![edge(0, 1, 5), edge(1, 2, 120), edge(2, 0, 90)]);
        let (min, e) = g.min_cross_partition_delay().unwrap();
        assert_eq!(min, 90);
        assert_eq!((e.src_lp, e.dst_lp), (2, 0));
        assert_eq!(g.window(Shape::Blocks).unwrap(), (90, e));
    }

    #[test]
    fn window_names_the_edge_that_sets_it() {
        let g = ModelGraph::new(vec![0, 1], vec![edge(0, 1, 100), edge(1, 0, 150)])
            .with_names(vec!["node 0".into(), "router 0".into()]);
        let (window, e) = g.window(Shape::Blocks).unwrap();
        assert_eq!(window, 100);
        assert_eq!(g.describe(e), "packet edge node 0 -> router 0");
    }

    #[test]
    fn single_block_has_no_constraint() {
        // Nothing crosses, so the window falls back to the minimum edge.
        let g = ModelGraph::new(vec![0, 0], vec![edge(0, 1, 7), edge(1, 0, 3)]);
        assert!(g.min_cross_partition_delay().is_none());
        assert_eq!(g.window(Shape::Blocks).unwrap().0, 3);
        let r = ModelGraph::new(vec![0], vec![]).window(Shape::Blocks).unwrap_err();
        assert!(r.iter().any(|d| d.code == "no-edges"), "{r}");
    }

    #[test]
    fn zero_delay_cross_edge_is_always_an_error() {
        let g = ModelGraph::new(vec![0, 1], vec![edge(0, 1, 0), edge(1, 0, 40)])
            .with_names(vec!["router 3".into(), "router 7".into()]);
        let r = g.window(Shape::Blocks).unwrap_err();
        assert_eq!(r.len(), 1, "{r}");
        let d = r.iter().next().unwrap();
        assert!(d.code == "zero-delay" && r.has_errors(), "{r}");
        assert!(d.message.contains("router 3 -> router 7"), "{}", d.message);
        // An internal zero-delay edge synchronizes nothing.
        let g = ModelGraph::new(vec![0, 0, 1], vec![edge(0, 1, 0), edge(1, 2, 40)]);
        assert_eq!(g.window(Shape::Blocks).unwrap().0, 40);
    }

    #[test]
    fn shard_check_ignores_intra_shard_block_edges_at_one_thread() {
        // Blocks 0,1 live on shard 0; block 2 on shard 1. The 10 ns edge
        // is cross-block but intra-shard: it binds `par` but not
        // `shard:2:1`.
        let g = ModelGraph::new(vec![0, 1, 2], vec![edge(0, 1, 10), edge(1, 2, 80)]);
        let shard_of = vec![0, 0, 1];
        assert_eq!(g.window(Shape::Blocks).unwrap().0, 10);
        let (window, e) = g.window(shards(&shard_of, 1)).unwrap();
        assert_eq!(window, 80);
        assert_eq!((e.src_lp, e.dst_lp), (1, 2));
    }

    #[test]
    fn shard_check_with_threads_also_binds_intra_shard_block_edges() {
        let g = ModelGraph::new(vec![0, 1, 2], vec![edge(0, 1, 10), edge(1, 2, 80)]);
        let (window, e) = g.window(shards(&[0, 0, 1], 2)).unwrap();
        assert_eq!(window, 10);
        assert_eq!((e.src_lp, e.dst_lp), (0, 1));
    }

    #[test]
    fn shard_check_zero_delay_and_unknown_lp_are_conservative() {
        let g = ModelGraph::new(vec![0, 1], vec![edge(0, 1, 0)]);
        let r = g.window(shards(&[0, 1], 1)).unwrap_err();
        let d = r.iter().next().unwrap();
        assert!(d.code == "zero-delay" && d.message.contains("crosses shards 0 -> 1"), "{r}");
        let r = g.window(shards(&[0, 0], 2)).unwrap_err();
        assert!(r.iter().any(|d| d.message.contains("within shard 0")), "{r}");
        // An edge to an LP the owner map doesn't cover counts as crossing.
        let g = ModelGraph::new(vec![0, 0], vec![edge(0, 1, 5), edge(0, 5, 30)]);
        assert_eq!(g.window(shards(&[0, 0], 1)).unwrap().0, 30);
        // Single shard, single thread: nothing is synchronized, so the
        // window is the model's minimum edge.
        let g = ModelGraph::new(vec![0, 1], vec![edge(0, 1, 10), edge(1, 0, 0)]);
        assert_eq!(g.window(shards(&[0, 0], 1)).unwrap().0, 0);
    }
}
