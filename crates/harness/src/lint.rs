//! Glue between `union-lint` and the assembled experiment: install the
//! skeleton analysis as the registry's pre-instantiation hook, extract
//! the LP delay graph from a built topology, and validate a schedule's
//! lookahead window against it before a run starts (DESIGN.md §7).

use crate::run::Sched;
use crate::sweep::SweepConfig;
use dragonfly::Topology;
use ross::Scheduler;
use std::sync::Arc;
use union_core::SkeletonRegistry;
use union_lint::model::{DelayEdge, ModelGraph};
use union_lint::{LintOptions, Report};

/// Install `union-lint`'s skeleton analysis on a registry: from then on,
/// every `instantiate`/`spawn_job` rejects skeletons with Error-severity
/// findings. `allow_lint` is the `--allow-lint` escape hatch.
pub fn install_linter(reg: &mut SkeletonRegistry, allow_lint: bool) {
    reg.set_linter(Arc::new(|skel, num_tasks, args| {
        let r = union_lint::lint_skeleton(skel, num_tasks, args, &LintOptions::default());
        if r.has_errors() {
            Err(r.render())
        } else {
            Ok(())
        }
    }));
    reg.set_allow_lint(allow_lint);
}

/// The static LP delay graph of a built topology, with the partition
/// assignment the conservative-parallel scheduler would use.
pub fn model_graph(topo: &Topology) -> ModelGraph {
    let edges = codes::lp_delay_edges(topo)
        .into_iter()
        .map(|e| DelayEdge {
            src_lp: e.src_lp,
            dst_lp: e.dst_lp,
            delay_ns: e.delay_ns,
            kind: e.kind,
        })
        .collect();
    ModelGraph::new(codes::partition_blocks(topo), edges).with_names(codes::lp_names(topo))
}

/// Tier-B validation of a schedule against every network `cfg` selects —
/// the one lookahead gate behind every command. `par:T:L` and `async:T:L`
/// make the same per-partition promise, so their window is checked
/// against the minimum cross-partition delay. `shard:N:T:L` mirrors
/// `run_sharded` exactly: shards own whole partition blocks (dealt by the
/// same deterministic bin-packer), so only cross-shard edges bind the
/// window, plus intra-shard cross-block edges when `T > 1` — a flat
/// par-style check would reject windows `shard:N:1:L` handles fine.
/// Empty report = safe (or a schedule that promises no lookahead).
pub fn check_lookahead(cfg: &SweepConfig, sched: &Sched) -> Report {
    let check: Box<dyn Fn(&ModelGraph) -> Report> = match *sched {
        Sched::InProcess(
            Scheduler::ConservativeParallel { lookahead, .. }
            | Scheduler::ConservativeAsync { lookahead, .. },
        ) => Box::new(move |g| g.check_lookahead(lookahead.as_ns())),
        Sched::Shard(s) => Box::new(move |g| {
            let part = ross::Partition::from_blocks(g.block_of.clone());
            let shard_of = ross::shard::shard_owner_map(Some(&part), g.block_of.len(), s.shards);
            g.check_shard_lookahead(&shard_of, s.threads, s.lookahead_ns)
        }),
        Sched::InProcess(_) => return Report::new(),
    };
    let mut out = Report::new();
    for &net in &cfg.nets {
        let mut net_cfg = net.config(cfg.profile);
        net_cfg.flow = cfg.flow;
        for d in check(&model_graph(&Topology::build(net_cfg))).iter() {
            let mut d = d.clone();
            d.message = format!("{} network: {}", net.label(), d.message);
            out.push(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardSpec;
    use crate::sweep::SweepConfig;
    use ross::SimDuration;

    fn par(lookahead: u64) -> Sched {
        let lookahead = SimDuration::from_ns(lookahead);
        Sched::InProcess(Scheduler::ConservativeParallel { threads: 2, lookahead })
    }

    fn shard(shards: usize, threads: usize, lookahead_ns: u64) -> Sched {
        Sched::Shard(ShardSpec { shards, threads, lookahead_ns })
    }

    #[test]
    fn tiny_model_accepts_min_delay_and_rejects_above() {
        let topo = Topology::build(dragonfly::DragonflyConfig::tiny_1d());
        let g = model_graph(&topo);
        let (min, e) = g.min_cross_partition_delay().expect("multi-router model");
        // Partitions are router-rooted, so node<->router edges are
        // internal and the binding edge is router-to-router.
        assert!(e.kind == "packet" || e.kind == "credit");
        assert!(g.check_lookahead(min).is_empty());
        assert!(g.check_lookahead(min + 1).has_errors());
    }

    #[test]
    fn sweep_par_lookahead_is_validated_per_net() {
        let cfg = SweepConfig::smoke();
        assert!(check_lookahead(&cfg, &par(1)).is_empty());
        let r = check_lookahead(&cfg, &par(u64::MAX));
        assert!(r.has_errors(), "{r}");
        // The diagnostic must name the offending LP pair.
        assert!(r.iter().any(|d| d.message.contains(" -> ")), "{r}");
        assert!(check_lookahead(&cfg, &Sched::InProcess(Scheduler::Sequential)).is_empty());
    }

    #[test]
    fn sweep_async_lookahead_shares_the_par_bound() {
        let cfg = SweepConfig::smoke();
        let asynch = |ns| {
            let lookahead = SimDuration::from_ns(ns);
            Sched::InProcess(Scheduler::ConservativeAsync { threads: 2, lookahead })
        };
        assert!(check_lookahead(&cfg, &asynch(1)).is_empty());
        let r = check_lookahead(&cfg, &asynch(u64::MAX));
        assert!(r.has_errors(), "{r}");
        assert!(r.iter().any(|d| d.message.contains(" -> ")), "{r}");
    }

    #[test]
    fn sweep_shard_lookahead_is_validated_per_net() {
        let cfg = SweepConfig::smoke();
        assert!(check_lookahead(&cfg, &shard(2, 1, 1)).is_empty());
        let r = check_lookahead(&cfg, &shard(2, 1, u64::MAX));
        assert!(r.has_errors(), "{r}");
        // The diagnostic must name the offending LP pair and the shards.
        assert!(r.iter().any(|d| d.message.contains(" -> ")), "{r}");
        assert!(r.iter().any(|d| d.message.contains("crosses shards")), "{r}");
        // One shard, one thread: nothing crosses a synchronization
        // boundary, so even an absurd window is accepted.
        assert!(check_lookahead(&cfg, &shard(1, 1, u64::MAX)).is_empty());
        // One shard, many threads: the in-process conservative rounds
        // still bind the window to the block-level minimum.
        assert!(check_lookahead(&cfg, &shard(1, 4, u64::MAX)).has_errors());
    }

    #[test]
    fn shard_map_is_coarser_than_blocks() {
        // A window legal for shard:2:1 can be illegal for par — the
        // shard check must mirror the runtime's whole-block sharding,
        // not reuse the per-block partition.
        let topo = Topology::build(dragonfly::DragonflyConfig::tiny_1d());
        let g = model_graph(&topo);
        let part = ross::Partition::from_blocks(g.block_of.clone());
        let shard_of = ross::shard::shard_owner_map(Some(&part), g.block_of.len(), 2);
        let (block_min, _) = g.min_cross_partition_delay().expect("multi-router model");
        let (shard_min, _) = g.min_cross_shard_delay(&shard_of).expect("2 shards must cross");
        assert!(shard_min >= block_min, "shard grouping can only relax the constraint");
        assert!(g.check_shard_lookahead(&shard_of, 1, shard_min).is_empty());
        assert!(g.check_shard_lookahead(&shard_of, 1, shard_min + 1).has_errors());
    }

    #[test]
    fn registry_hook_rejects_deadlocking_skeleton() {
        let mut reg = SkeletonRegistry::new();
        reg.register(
            union_core::translate_source(union_lint::fixtures::SEND_SEND_DEADLOCK, "bad").unwrap(),
        );
        install_linter(&mut reg, false);
        let err = reg.instantiate("bad", 2, &[]).err().unwrap();
        assert!(err.contains("rejected by lint"), "{err}");
        assert!(err.contains("deadlock"), "{err}");
        // --allow-lint downgrades the rejection to pass-through.
        reg.set_allow_lint(true);
        assert!(reg.instantiate("bad", 2, &[]).is_ok());
    }
}
