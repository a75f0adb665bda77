//! Breadth tests for the coNCePTuaL → Union → simulation pipeline:
//! every major language construct compiled, executed, and (where cheap)
//! simulated on the network.

use codes::SimulationBuilder;
use dragonfly::DragonflyConfig;
use ross::{Scheduler, SimDuration, SimTime};
use union_core::{translate_source, MpiOp, RankVm, SkeletonInstance, Validation};

fn validation(src: &str, n: u32, args: &[&str]) -> Validation {
    let skel = translate_source(src, "t").unwrap();
    let inst = SkeletonInstance::new(&skel, n, args).unwrap();
    Validation::collect(n, |r| RankVm::new(inst.clone(), r, 1))
}

#[test]
fn knomial_tree_written_in_dsl() {
    // A manual binomial "reduce" using the KNOMIAL builtins: every
    // non-root sends once to its parent.
    let v = validation(
        "tasks t such that t > 0 send a 8 byte message to task KNOMIAL_PARENT(t).",
        16,
        &[],
    );
    assert_eq!(v.event_counts["MPI_Send"], 15);
    assert_eq!(v.event_counts["MPI_Recv"], 15);
}

#[test]
fn torus_halo_in_dsl_conserves_bytes() {
    let v = validation(
        "all tasks t asynchronously send a 1000 byte message to \
         task TORUS_NEIGHBOR(4, 4, 1, t, 1, 0, 0) then \
         all tasks t asynchronously send a 1000 byte message to \
         task TORUS_NEIGHBOR(4, 4, 1, t, 0, 1, 0) then \
         all tasks await completions.",
        16,
        &[],
    );
    // Periodic 4x4 grid: every rank sends exactly twice.
    let total: u64 = v.bytes_per_rank.iter().sum();
    assert_eq!(total, 16 * 2 * 1000);
    assert!(v.bytes_per_rank.iter().all(|&b| b == 2000));
}

#[test]
fn conditionals_select_rank_subsets() {
    let v = validation(
        "for each i in {1, ..., 4} \
           if i is even then task i sends a i byte message to task 0 \
           otherwise task i computes for 1 microseconds.",
        5,
        &[],
    );
    assert_eq!(v.event_counts["MPI_Send"], 2); // i = 2, 4
    assert_eq!(v.bytes_per_rank, vec![0, 0, 2, 0, 4]);
}

#[test]
fn let_bindings_parameterize_patterns() {
    let v = validation(
        "let half be num_tasks/2 while \
         tasks t such that t < half send a 100 byte message to task t + half.",
        10,
        &[],
    );
    assert_eq!(v.event_counts["MPI_Send"], 5);
    for r in 0..5 {
        assert_eq!(v.bytes_per_rank[r], 100);
    }
}

#[test]
fn message_counts_multiply() {
    let v = validation("task 0 sends 7 64 byte messages to task 1.", 2, &[]);
    assert_eq!(v.event_counts["MPI_Send"], 7);
    assert_eq!(v.bytes_per_rank[0], 7 * 64);
}

#[test]
fn sync_loops_insert_barriers() {
    let v = validation(
        "for 3 repetitions plus a synchronization \
         task 0 sends a 4 byte message to task 1.",
        4,
        &[],
    );
    assert_eq!(v.event_counts["MPI_Barrier"], 3);
}

#[test]
fn size_units_scale() {
    let v = validation(
        "task 0 sends a 2 kilobyte message to task 1 then \
         task 0 sends a 1 megabyte message to task 1.",
        2,
        &[],
    );
    assert_eq!(v.bytes_per_rank[0], 2048 + (1 << 20));
}

#[test]
fn reduce_to_root_and_sleep() {
    let v = validation(
        "all tasks reduce a 100 byte message to task 3 then \
         all tasks sleep for 5 microseconds.",
        8,
        &[],
    );
    assert_eq!(v.event_counts["MPI_Reduce"], 1);
}

/// A nontrivial DSL program (tree + halo + collectives) survives the full
/// network simulation under every scheduler.
#[test]
fn rich_program_runs_on_the_network() {
    let src = "
        steps is \"steps\" and comes from \"--steps\" with default 2.
        Assert that \"need a 3x3 grid\" with num_tasks >= 9.
        For steps repetitions {
          all tasks t asynchronously send a 20000 byte message
            to task MESH_NEIGHBOR(3, 3, 1, t, 1, 0, 0) then
          all tasks t asynchronously send a 20000 byte message
            to task MESH_NEIGHBOR(3, 3, 1, t, 0, 1, 0) then
          all tasks await completions then
          all tasks reduce a 8 byte message to all tasks then
          tasks t such that t > 0 send a 16 byte message to task TREE_PARENT(t) then
          all tasks synchronize
        }.
    ";
    let skel = translate_source(src, "rich").unwrap();
    let inst = SkeletonInstance::new(&skel, 9, &[]).unwrap();
    let mut fingerprints = Vec::new();
    // par:3 — CODES runs it at the model's block window.
    let par = Scheduler::ConservativeParallel { threads: 3, lookahead: SimDuration::ZERO };
    for sched in [Scheduler::Sequential, par] {
        let vms: Vec<RankVm> = (0..9).map(|r| RankVm::new(inst.clone(), r, 2)).collect();
        let mut sim = SimulationBuilder::new(DragonflyConfig::tiny_1d())
            .seed(5)
            .job("rich", vms)
            .build()
            .unwrap();
        let r = sim.run(sched, SimTime::MAX);
        assert!(r.apps[0].all_done(), "{sched:?}");
        let fp: Vec<u64> = r.apps[0].latency.iter().map(|l| l.sum_ns).collect();
        fingerprints.push(fp);
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
}

/// The generated C skeleton (Fig 5 rendering) stays well-formed for every
/// registered paper workload.
#[test]
fn all_registered_skeletons_render_c() {
    let reg = workloads::registry();
    for name in reg.names() {
        let c = union_core::codegen::render_c(reg.get(name).unwrap());
        assert_eq!(c.matches('{').count(), c.matches('}').count(), "unbalanced braces in {name}");
        assert!(c.contains("UNION_MPI_Init"));
        assert!(c.contains(&format!(".program_name = \"{name}\"")));
    }
}

/// Parameter plumbing end to end: flags rename behaviour without
/// recompiling (Table I's "scaling application size" row).
#[test]
fn same_skeleton_rebinds_to_any_size() {
    let skel = workloads::nearest_neighbor();
    for (n, dims) in [(8u32, ["2", "2", "2"]), (27, ["3", "3", "3"]), (64, ["4", "4", "4"])] {
        let args = ["--nx", dims[0], "--ny", dims[1], "--nz", dims[2], "--iters", "1"];
        let inst = SkeletonInstance::new(&skel, n, &args).unwrap();
        let interior_sends =
            RankVm::new(inst.clone(), 0, 1).filter(|o| matches!(o, MpiOp::Isend { .. })).count();
        assert_eq!(interior_sends, 3, "corner rank always has 3 neighbors");
    }
}
