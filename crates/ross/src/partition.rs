//! Topology-aware LP partitioning for the multi-threaded schedulers.
//!
//! A [`Partition`] groups LPs into *blocks* — sets that should stay on
//! the same worker thread because they exchange most of their traffic
//! locally. The CODES layer uses this to co-locate each router with its
//! attached node LPs (ROSS/CODES does the same with its linear LP→PE
//! mapping). Blocks are then packed onto threads by a deterministic
//! greedy bin-packer, so a partition plus a thread count always yields
//! the same placement.

use crate::event::LpId;

/// A grouping of LPs into co-location blocks.
///
/// Block ids are arbitrary `u32` labels — only equality matters. LPs
/// sharing a label are guaranteed to land on the same worker thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    block_of: Vec<u32>,
}

impl Partition {
    /// Build from a per-LP block label (`block_of[lp] == block id`).
    pub fn from_blocks(block_of: Vec<u32>) -> Partition {
        Partition { block_of }
    }

    /// The trivial partition: every LP is its own block, so the packer
    /// is free to balance LPs individually.
    pub fn per_lp(n_lps: usize) -> Partition {
        Partition { block_of: (0..n_lps as u32).collect() }
    }

    /// Number of LPs covered.
    pub fn n_lps(&self) -> usize {
        self.block_of.len()
    }

    /// The block label of one LP.
    pub fn block(&self, lp: LpId) -> u32 {
        self.block_of[lp as usize]
    }

    /// Pack blocks onto `n_threads` workers, or one per block when there
    /// are fewer blocks: blocks in descending size (ties by ascending
    /// block id) each go to the currently least-loaded thread (ties by
    /// ascending thread id). Deterministic by construction.
    pub(crate) fn assign(&self, n_threads: usize) -> Assignment {
        let n_lps = self.block_of.len();

        // Collect distinct blocks and their loads.
        let mut blocks: Vec<(u32, u64)> = Vec::new();
        {
            let mut sorted: Vec<u32> = self.block_of.clone();
            sorted.sort_unstable();
            for b in sorted {
                match blocks.last_mut() {
                    Some((id, load)) if *id == b => *load += 1,
                    _ => blocks.push((b, 1)),
                }
            }
        }
        blocks.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        // A worker without a block would only take part in the
        // synchronization.
        let n_threads = n_threads.max(1).min(blocks.len().max(1));

        let mut thread_load = vec![0u64; n_threads];
        // Sparse block ids → binary-searchable (block, thread) table.
        let mut block_owner: Vec<(u32, u32)> = Vec::with_capacity(blocks.len());
        for (block, load) in blocks {
            let t = thread_load
                .iter()
                .enumerate()
                .min_by_key(|&(tid, &load)| (load, tid))
                .map(|(tid, _)| tid)
                .unwrap();
            thread_load[t] += load;
            block_owner.push((block, t as u32));
        }
        block_owner.sort_unstable_by_key(|(b, _)| *b);

        let owner_of: Vec<u32> = self
            .block_of
            .iter()
            .map(|b| {
                let i = block_owner.binary_search_by_key(b, |(id, _)| *id).unwrap();
                block_owner[i].1
            })
            .collect();

        let mut locals: Vec<Vec<u32>> = vec![Vec::new(); n_threads];
        let mut local_of = vec![0u32; n_lps];
        for (gid, &t) in owner_of.iter().enumerate() {
            local_of[gid] = locals[t as usize].len() as u32;
            locals[t as usize].push(gid as u32);
        }

        Assignment { owner_of, local_of, locals }
    }
}

/// The result of packing a [`Partition`] onto a thread count.
pub(crate) struct Assignment {
    /// Owning thread of each LP (global id → thread).
    pub owner_of: Vec<u32>,
    /// Index of each LP within its thread's local vectors.
    pub local_of: Vec<u32>,
    /// Global LP ids owned by each thread, in ascending order.
    pub locals: Vec<Vec<u32>>,
}

impl Assignment {
    /// Pack `partition` — or, with none installed, every LP as its own
    /// block — onto `n_threads` workers.
    pub(crate) fn of(partition: Option<&Partition>, n_lps: usize, n_threads: usize) -> Assignment {
        match partition {
            Some(p) => p.assign(n_threads),
            None => Partition::per_lp(n_lps).assign(n_threads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_stay_together() {
        // 4 blocks of different sizes over 10 LPs.
        let p = Partition::from_blocks(vec![7, 7, 7, 7, 3, 3, 3, 9, 9, 11]);
        for threads in 1..=5 {
            let a = p.assign(threads);
            for (gid, &b) in [7u32, 7, 7, 7, 3, 3, 3, 9, 9, 11].iter().enumerate() {
                // Every LP with the same block label has the same owner.
                let rep = (0..10).find(|&g| p.block(g as u32) == b).unwrap();
                assert_eq!(a.owner_of[gid], a.owner_of[rep]);
            }
        }
    }

    #[test]
    fn assignment_is_consistent_and_covering() {
        let p = Partition::per_lp(23);
        let a = p.assign(4);
        let mut seen = [false; 23];
        for (t, locals) in a.locals.iter().enumerate() {
            for (li, &gid) in locals.iter().enumerate() {
                assert_eq!(a.owner_of[gid as usize] as usize, t);
                assert_eq!(a.local_of[gid as usize] as usize, li);
                assert!(!seen[gid as usize]);
                seen[gid as usize] = true;
            }
            // Locals are ascending (heap determinism relies on a stable
            // global→local mapping, not on ordering, but ascending makes
            // debugging sane).
            assert!(locals.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn balanced_when_blocks_allow() {
        let p = Partition::per_lp(40);
        let a = p.assign(4);
        for locals in &a.locals {
            assert_eq!(locals.len(), 10);
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let p = Partition::from_blocks((0..100).map(|i| i % 13).collect());
        let a = p.assign(6);
        let b = p.assign(6);
        assert_eq!(a.owner_of, b.owner_of);
        assert_eq!(a.locals, b.locals);
    }

    #[test]
    fn more_threads_than_blocks() {
        let p = Partition::from_blocks(vec![0, 0, 0, 1, 1, 1]);
        let a = p.assign(8);
        // Only 2 distinct blocks → only 2 workers, both with LPs; all LPs
        // still covered exactly once.
        assert_eq!(a.locals.len(), 2);
        assert!(a.locals.iter().all(|l| !l.is_empty()));
        let total: usize = a.locals.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
        assert_eq!(Partition::from_blocks(vec![0, 0, 1, 1]).assign(4).locals.len(), 2);
    }
}
