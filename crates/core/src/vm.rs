//! The Union **event generator**: a resumable per-rank interpreter.
//!
//! The paper runs each skeleton rank as an Argobots user-level thread that
//! yields to CODES whenever it issues a communication call. Here each rank
//! is an explicit state machine — [`RankVm`] — that yields one [`MpiOp`]
//! at a time. The machine is `Clone` and its RNG is part of its state, so
//! a rank's draws depend only on the ops it has executed — never on which
//! scheduler or worker thread ran it.
//!
//! The executor contract: call [`RankVm::next_op`] to obtain the next
//! operation. For a blocking op, do not call `next_op` again until the op
//! completes in virtual time; nonblocking ops may be followed immediately.
//! `next_op` panics on a runtime evaluation error;
//! [`RankVm::try_next_op`] returns it as a [`VmError`].
//!
//! This is the only interpreter of [`Instr`]. `union-lint` drives it one
//! instruction at a time ([`RankVm::step`]) and reads each instruction's
//! output as `(op, copies)` runs ([`RankVm::drain_runs`]): the pending
//! queue holds runs, so a repeat count costs one entry, and a synthetic
//! send's destination is drawn only when the op is taken.

use crate::ir::{Instr, LeafOp, MsgMode, ReduceTarget, Sel, Skeleton};
use crate::ops::MpiOp;
use conceptual::{eval, eval_cond, Cond, Env, Expr, ParamDecl};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// One rank's share of a statically resolved `Message` leaf.
#[derive(Clone, Debug, Default)]
struct RankPlan {
    /// (dst, bytes, copies)
    sends: Vec<(u32, u64, u32)>,
    /// (src, bytes, copies)
    recvs: Vec<(u32, u64, u32)>,
}

/// A skeleton bound to a job size and parameter values, shared by all its
/// rank VMs. Message leaves whose selectors and expressions depend only on
/// parameters (not loop variables or RNG) are resolved once here, so the
/// per-iteration cost of a halo exchange is O(my neighbors), not O(ranks).
pub struct SkeletonInstance {
    pub name: String,
    pub num_tasks: u32,
    code: Vec<Instr>,
    base_env: Env,
    /// `resolved[pc]` = per-rank plans for a static Message leaf at `pc`.
    resolved: Vec<Option<Vec<RankPlan>>>,
}

impl SkeletonInstance {
    /// Bind a skeleton to `num_tasks` ranks, overriding parameters with
    /// `args` (flag/value pairs, e.g. `["--reps", "10"]`).
    pub fn new(
        skel: &Skeleton,
        num_tasks: u32,
        args: &[&str],
    ) -> Result<Arc<SkeletonInstance>, String> {
        if num_tasks == 0 {
            return Err("num_tasks must be positive".into());
        }
        let base_env = bind_params(&skel.params, num_tasks, args)?;
        let mut inst = SkeletonInstance {
            name: skel.name.clone(),
            num_tasks,
            code: skel.code.clone(),
            base_env,
            resolved: vec![None; skel.code.len()],
        };
        inst.resolve_static_messages()?;
        Ok(Arc::new(inst))
    }

    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    pub fn base_env(&self) -> &Env {
        &self.base_env
    }

    /// Precompute send/recv plans for every Message leaf whose expressions
    /// are parameter-static.
    fn resolve_static_messages(&mut self) -> Result<(), String> {
        let n = self.num_tasks;
        for pc in 0..self.code.len() {
            let Instr::Leaf(LeafOp::Message { src, dst, count, bytes, .. }) = &self.code[pc] else {
                continue;
            };
            if !message_is_static(src, dst, count, bytes, &self.base_env) {
                continue;
            }
            let mut plans: Vec<RankPlan> = vec![RankPlan::default(); n as usize];
            let mut env = self.base_env.clone();
            enumerate_pairs(src, dst, count, bytes, n, &mut env, None, &mut |s, d, b, c| {
                plans[s as usize].sends.push((d, b, c));
                plans[d as usize].recvs.push((s, b, c));
            })
            .map_err(|e| format!("{}[pc {pc}]: {e}", self.name))?;
            self.resolved[pc] = Some(plans);
        }
        Ok(())
    }
}

/// Bind parameter declarations against argv-style overrides.
fn bind_params(params: &[ParamDecl], num_tasks: u32, args: &[&str]) -> Result<Env, String> {
    let mut env = Env::with_num_tasks(num_tasks);
    for p in params {
        env.bind(&p.name, p.default);
    }
    let mut i = 0;
    while i < args.len() {
        let flag = args[i];
        let p = params
            .iter()
            .find(|p| p.long_flag == flag || p.short_flag.as_deref() == Some(flag))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for `{flag}`"))?
            .parse::<i64>()
            .map_err(|_| format!("bad value for `{flag}`"))?;
        env.bind(&p.name, value);
        i += 2;
    }
    Ok(env)
}

/// Can this message leaf be resolved once per instance? True when every
/// expression references only instance-level bindings plus the selector
/// variables, and the destination is not RNG-driven.
fn message_is_static(src: &Sel, dst: &Sel, count: &Expr, bytes: &Expr, env: &Env) -> bool {
    let mut bound: HashSet<String> = HashSet::new();
    match src {
        Sel::All(Some(v)) | Sel::SuchThat(v, _) => {
            bound.insert(v.clone());
        }
        _ => {}
    }
    if let Sel::SuchThat(v, _) = dst {
        bound.insert(v.clone());
    }
    let known = |name: &str| bound.contains(name) || env.get(name).is_some();

    let mut vars = HashSet::new();
    expr_vars(count, &mut vars);
    expr_vars(bytes, &mut vars);
    match src {
        Sel::Single(e) => expr_vars(e, &mut vars),
        Sel::SuchThat(_, c) => cond_vars(c, &mut vars),
        _ => {}
    }
    match dst {
        Sel::Single(e) => expr_vars(e, &mut vars),
        Sel::SuchThat(_, c) => cond_vars(c, &mut vars),
        Sel::RandomOther => return false,
        _ => {}
    }
    vars.iter().all(|v| known(v))
}

fn expr_vars(e: &Expr, out: &mut HashSet<String>) {
    match e {
        Expr::Int(_) => {}
        Expr::Var(v) => {
            out.insert(v.clone());
        }
        Expr::Neg(a) => expr_vars(a, out),
        Expr::Bin(_, a, b) => {
            expr_vars(a, out);
            expr_vars(b, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                expr_vars(a, out);
            }
        }
        Expr::IfElse(c, a, b) => {
            cond_vars(c, out);
            expr_vars(a, out);
            expr_vars(b, out);
        }
    }
}

fn cond_vars(c: &Cond, out: &mut HashSet<String>) {
    match c {
        Cond::True => {}
        Cond::Not(a) => cond_vars(a, out),
        Cond::And(a, b) | Cond::Or(a, b) => {
            cond_vars(a, out);
            cond_vars(b, out);
        }
        Cond::Rel(_, a, b) => {
            expr_vars(a, out);
            expr_vars(b, out);
        }
    }
}

/// Enumerate (src, dst, bytes, copies) pairs of a Message leaf, calling
/// `emit` for each. `only_src` restricts enumeration to one source rank
/// (used on the dynamic path for the send side). Out-of-range `Single`
/// destinations (mesh edges) are skipped silently.
#[allow(clippy::too_many_arguments)]
fn enumerate_pairs(
    src: &Sel,
    dst: &Sel,
    count: &Expr,
    bytes: &Expr,
    n: u32,
    env: &mut Env,
    only_src: Option<u32>,
    emit: &mut dyn FnMut(u32, u32, u64, u32),
) -> Result<(), String> {
    let sources: Vec<u32> = match src {
        Sel::Single(e) => {
            let s = eval(e, env).map_err(|e| e.to_string())?;
            if s < 0 || s >= n as i64 {
                return Err(format!("source task {s} out of range 0..{n}"));
            }
            vec![s as u32]
        }
        Sel::All(_) | Sel::SuchThat(_, _) => match only_src {
            Some(s) => vec![s],
            None => (0..n).collect(),
        },
        Sel::AllOthers | Sel::RandomOther => {
            return Err("invalid source selector".into());
        }
    };
    let src_var = match src {
        Sel::All(Some(v)) => Some(v.as_str()),
        Sel::SuchThat(v, _) => Some(v.as_str()),
        _ => None,
    };
    for s in sources {
        if let Some(v) = src_var {
            env.bind(v, s as i64);
        }
        let included = match src {
            Sel::SuchThat(_, c) => eval_cond(c, env).map_err(|e| e.to_string())?,
            _ => true,
        };
        if included {
            let copies = eval(count, env).map_err(|e| e.to_string())?;
            let b = eval(bytes, env).map_err(|e| e.to_string())?;
            if copies > 0 {
                if b < 0 {
                    return Err(format!("negative message size {b}"));
                }
                let (b, copies) = (b as u64, copies as u32);
                match dst {
                    Sel::Single(e) => {
                        let d = eval(e, env).map_err(|e| e.to_string())?;
                        // Out-of-range destinations (e.g. mesh edges, where
                        // MESH_NEIGHBOR returns -1) are silently skipped.
                        if d >= 0 && d < n as i64 {
                            emit(s, d as u32, b, copies);
                        }
                    }
                    Sel::All(_) => {
                        for d in 0..n {
                            emit(s, d, b, copies);
                        }
                    }
                    Sel::AllOthers => {
                        for d in 0..n {
                            if d != s {
                                emit(s, d, b, copies);
                            }
                        }
                    }
                    Sel::SuchThat(v2, c2) => {
                        for d in 0..n {
                            env.bind(v2, d as i64);
                            let m = eval_cond(c2, env).map_err(|e| e.to_string())?;
                            env.unbind(v2);
                            if m {
                                emit(s, d, b, copies);
                            }
                        }
                    }
                    Sel::RandomOther => {
                        return Err("RandomOther must be handled by the VM".into());
                    }
                }
            }
        }
        if let Some(v) = src_var {
            env.unbind(v);
        }
    }
    Ok(())
}

/// A runtime evaluation error: the program counter of the instruction
/// being executed and what went wrong there (division by zero, a root or
/// source task out of range, an invalid selector).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmError {
    pub pc: usize,
    pub message: String,
}

/// What one pending queue entry yields, `copies` times over (the queue
/// holds `(Queued, copies)` runs, so a repeat count costs one entry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Queued {
    /// An op taken as is.
    Op(MpiOp),
    /// A synthetic send of `bytes` whose destination is drawn from the
    /// rank's RNG as the op is taken.
    Synthetic { bytes: u64 },
}

#[derive(Clone, Debug)]
struct LoopFrame {
    start: usize,
    remaining: i64,
    var: Option<String>,
    next_value: i64,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Stage {
    NotStarted,
    Running,
    Done,
}

/// A single rank's resumable interpreter.
#[derive(Clone)]
pub struct RankVm {
    inst: Arc<SkeletonInstance>,
    rank: u32,
    env: Env,
    pc: usize,
    loops: Vec<LoopFrame>,
    queue: VecDeque<(Queued, u32)>,
    stage: Stage,
    rng: SmallRng,
}

// VMs live inside LP state and cross thread boundaries under the
// parallel schedulers — keep `RankVm` `Send`.
const _: () = {
    const fn require_send<T: Send>() {}
    require_send::<RankVm>();
};

impl RankVm {
    /// Create the VM for `rank`. `seed` feeds the per-rank RNG used
    /// by synthetic (random-destination) traffic.
    pub fn new(inst: Arc<SkeletonInstance>, rank: u32, seed: u64) -> RankVm {
        assert!(rank < inst.num_tasks, "rank {rank} out of range");
        let env = inst.base_env.clone();
        RankVm {
            inst,
            rank,
            env,
            pc: 0,
            loops: Vec::new(),
            // Every rank queues ops, so allocate the run buffer (the 4
            // entries its first push would) with the VM, at set-up:
            // 32-byte runs first allocated mid-run fragment the heap, and
            // repeated runs in one process then peak higher.
            queue: VecDeque::with_capacity(4),
            stage: Stage::NotStarted,
            rng: SmallRng::seed_from_u64(seed ^ ((rank as u64) << 32)),
        }
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn num_tasks(&self) -> u32 {
        self.inst.num_tasks
    }

    pub fn is_done(&self) -> bool {
        self.stage == Stage::Done
    }

    /// The program counter of the next instruction [`step`](Self::step)
    /// executes; the program has ended once it reaches the code length.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Advance to the next MPI operation; `None` once the program (and its
    /// final `Finalize`) has been fully emitted.
    ///
    /// Panics on a runtime evaluation error with `name[rank r pc p]:`
    /// context; [`try_next_op`](Self::try_next_op) returns it instead.
    /// Static errors are caught earlier by `conceptual::sema` and
    /// `SkeletonInstance::new`.
    pub fn next_op(&mut self) -> Option<MpiOp> {
        self.try_next_op().unwrap_or_else(|e| {
            panic!("{}[rank {} pc {}]: {}", self.inst.name, self.rank, e.pc, e.message)
        })
    }

    /// [`next_op`](Self::next_op), with an evaluation error as a value.
    pub fn try_next_op(&mut self) -> Result<Option<MpiOp>, VmError> {
        if self.stage == Stage::NotStarted {
            self.stage = Stage::Running;
            return Ok(Some(MpiOp::Init));
        }
        loop {
            if let Some(op) = self.take() {
                return Ok(Some(op));
            }
            if self.stage == Stage::Done {
                return Ok(None);
            }
            if self.pc >= self.inst.code.len() {
                self.stage = Stage::Done;
                return Ok(Some(MpiOp::Finalize));
            }
            self.step()?;
        }
    }

    /// Execute the one instruction at [`pc`](Self::pc), appending what it
    /// emits to the pending runs. For a driver that inspects each
    /// instruction's output through [`drain_runs`](Self::drain_runs)
    /// instead of taking ops; panics if the program has ended.
    pub fn step(&mut self) -> Result<(), VmError> {
        let pc = self.pc;
        self.exec(pc).map_err(|message| VmError { pc, message })
    }

    /// Remove every pending run, leaving synthetic destinations undrawn.
    pub fn drain_runs(&mut self) -> impl Iterator<Item = (Queued, u32)> + '_ {
        self.queue.drain(..)
    }

    /// Take one op off the front run, drawing a synthetic destination.
    fn take(&mut self) -> Option<MpiOp> {
        let (queued, copies) = self.queue.front_mut()?;
        let queued = *queued;
        *copies -= 1;
        if *copies == 0 {
            self.queue.pop_front();
        }
        Some(match queued {
            Queued::Op(op) => op,
            Queued::Synthetic { bytes } => {
                // Uniform over everyone but me.
                let mut dst = self.rng.gen_range(0..self.inst.num_tasks - 1);
                if dst >= self.rank {
                    dst += 1;
                }
                MpiOp::SyntheticSend { dst, bytes }
            }
        })
    }

    fn push(&mut self, queued: Queued, copies: u32) {
        if copies > 0 {
            self.queue.push_back((queued, copies));
        }
    }

    fn exec(&mut self, pc: usize) -> Result<(), String> {
        // The instance handle is cloned, not the instruction: `Expr`
        // trees stay shared while the VM mutates its own state.
        let inst = Arc::clone(&self.inst);
        match &inst.code[pc] {
            Instr::Leaf(op) => {
                self.pc += 1;
                self.emit_leaf(pc, op)?;
            }
            Instr::LoopStart { reps, var, first, end } => {
                let reps = self.eval(reps)?;
                if reps <= 0 {
                    self.pc = end + 1;
                } else {
                    let first = self.eval(first)?;
                    if let Some(v) = var {
                        self.env.bind(v, first);
                    }
                    self.loops.push(LoopFrame {
                        start: pc,
                        remaining: reps - 1,
                        var: var.clone(),
                        next_value: first + 1,
                    });
                    self.pc += 1;
                }
            }
            Instr::LoopEnd { start } => {
                let frame = self.loops.last_mut().ok_or("LoopEnd without LoopStart")?;
                debug_assert_eq!(frame.start, *start);
                if frame.remaining > 0 {
                    frame.remaining -= 1;
                    let next = frame.next_value;
                    frame.next_value += 1;
                    if let Some(v) = &frame.var {
                        self.env.unbind(v);
                        self.env.bind(v, next);
                    }
                    self.pc = start + 1;
                } else {
                    if let Some(v) = self.loops.pop().and_then(|f| f.var) {
                        self.env.unbind(&v);
                    }
                    self.pc += 1;
                }
            }
            Instr::Branch { cond, else_pc } => {
                self.pc = if self.eval_cond(cond)? { pc + 1 } else { *else_pc };
            }
            Instr::Jump { pc: target } => {
                self.pc = *target;
            }
            Instr::Bind { var, value } => {
                let v = self.eval(value)?;
                self.env.bind(var, v);
                self.pc += 1;
            }
            Instr::Unbind { var } => {
                self.env.unbind(var);
                self.pc += 1;
            }
        }
        Ok(())
    }

    fn eval(&self, e: &Expr) -> Result<i64, String> {
        eval(e, &self.env).map_err(|err| err.to_string())
    }

    fn eval_cond(&self, c: &Cond) -> Result<bool, String> {
        eval_cond(c, &self.env).map_err(|err| err.to_string())
    }

    /// Does `sel` include this rank? Binds the selector variable; pass
    /// the returned name to `unbind_sel` once the leaf is evaluated.
    fn sel_matches(&mut self, sel: &Sel) -> Result<Option<Option<String>>, String> {
        match sel {
            Sel::All(None) => Ok(Some(None)),
            Sel::All(Some(v)) => {
                self.env.bind(v, self.rank as i64);
                Ok(Some(Some(v.clone())))
            }
            Sel::Single(e) => Ok((self.eval(e)? == self.rank as i64).then_some(None)),
            Sel::SuchThat(v, c) => {
                self.env.bind(v, self.rank as i64);
                if self.eval_cond(c)? {
                    Ok(Some(Some(v.clone())))
                } else {
                    self.env.unbind(v);
                    Ok(None)
                }
            }
            Sel::AllOthers | Sel::RandomOther => {
                Err("invalid task selector for this operation".into())
            }
        }
    }

    fn unbind_sel(&mut self, binding: Option<String>) {
        if let Some(v) = binding {
            self.env.unbind(&v);
        }
    }

    /// Does `tasks` include this rank? Leaves no selector variable bound.
    fn selects(&mut self, tasks: &Sel) -> Result<bool, String> {
        let binding = self.sel_matches(tasks)?;
        let hit = binding.is_some();
        self.unbind_sel(binding.flatten());
        Ok(hit)
    }

    fn emit_leaf(&mut self, pc: usize, op: &LeafOp) -> Result<(), String> {
        let n = self.inst.num_tasks;
        let op = match op {
            LeafOp::Message { src, dst, count, bytes, mode } => {
                return self.emit_message(pc, src, dst, count, bytes, *mode);
            }
            LeafOp::Multicast { root, bytes } => {
                let root = self.eval(root)?;
                let bytes = self.eval(bytes)?.max(0) as u64;
                Some(MpiOp::Bcast { root: root_in_range("multicast", root, n)?, bytes })
            }
            LeafOp::Reduce { bytes, target } => {
                let bytes = self.eval(bytes)?.max(0) as u64;
                Some(match target {
                    ReduceTarget::AllTasks => MpiOp::Allreduce { bytes },
                    ReduceTarget::Root(e) => {
                        let root = self.eval(e)?;
                        MpiOp::Reduce { root: root_in_range("reduce", root, n)?, bytes }
                    }
                })
            }
            LeafOp::Barrier => Some(MpiOp::Barrier),
            LeafOp::Compute { tasks, ns } | LeafOp::Sleep { tasks, ns } => {
                match self.sel_matches(tasks)? {
                    Some(binding) => {
                        let ns = self.eval(ns)?.max(0) as u64;
                        self.unbind_sel(binding);
                        Some(MpiOp::Compute { ns })
                    }
                    None => None,
                }
            }
            LeafOp::Await { tasks } => self.selects(tasks)?.then_some(MpiOp::WaitAll),
            LeafOp::ResetCounters { tasks } => self.selects(tasks)?.then_some(MpiOp::ResetCounters),
            LeafOp::LogCounters { tasks } => self.selects(tasks)?.then_some(MpiOp::LogCounters),
            LeafOp::Aggregates { tasks } => self.selects(tasks)?.then_some(MpiOp::Aggregates),
        };
        if let Some(op) = op {
            self.push(Queued::Op(op), 1);
        }
        Ok(())
    }

    fn emit_message(
        &mut self,
        pc: usize,
        src: &Sel,
        dst: &Sel,
        count: &Expr,
        bytes: &Expr,
        mode: MsgMode,
    ) -> Result<(), String> {
        let n = self.inst.num_tasks;
        let rank = self.rank;

        // Synthetic random-destination traffic: one-sided, send only. A
        // one-rank job has no one else to send to.
        if matches!(dst, Sel::RandomOther) {
            let Some(binding) = self.sel_matches(src)? else { return Ok(()) };
            let copies = self.eval(count)?.max(0) as u32;
            let bytes = self.eval(bytes)?.max(0) as u64;
            self.unbind_sel(binding);
            if n > 1 {
                self.push(Queued::Synthetic { bytes }, copies);
            }
            return Ok(());
        }

        let inst = Arc::clone(&self.inst);
        let mut dynamic = RankPlan::default();
        let plan = match &inst.resolved[pc] {
            Some(plans) => &plans[rank as usize],
            None => {
                // Dynamic path: my sends cost O(my destinations); my
                // receives require scanning all potential sources.
                let mut env = self.env.clone();
                enumerate_pairs(
                    src,
                    dst,
                    count,
                    bytes,
                    n,
                    &mut env,
                    Some(rank),
                    &mut |s, d, b, c| {
                        if s == rank {
                            dynamic.sends.push((d, b, c));
                        }
                    },
                )?;
                let mut env = self.env.clone();
                enumerate_pairs(src, dst, count, bytes, n, &mut env, None, &mut |s, d, b, c| {
                    if d == rank {
                        dynamic.recvs.push((s, b, c));
                    }
                })?;
                &dynamic
            }
        };

        // Emission order per mode (coNCePTuaL's generated-code convention
        // posts receives first for nonblocking traffic):
        let tag = pc as u32;
        let irecvs =
            plan.recvs.iter().map(|&(src, bytes, c)| (MpiOp::Irecv { src, bytes, tag }, c));
        let recvs = plan.recvs.iter().map(|&(src, bytes, c)| (MpiOp::Recv { src, bytes, tag }, c));
        let isends =
            plan.sends.iter().map(|&(dst, bytes, c)| (MpiOp::Isend { dst, bytes, tag }, c));
        let sends = plan.sends.iter().map(|&(dst, bytes, c)| (MpiOp::Send { dst, bytes, tag }, c));
        match mode {
            MsgMode::Async => self.push_ops(irecvs.chain(isends)),
            // Blocking send first, blocking receive after: the
            // one-directional (ping-pong) idiom.
            MsgMode::Sync => self.push_ops(sends.chain(recvs)),
            // Deadlock-free exchange: post all receives, then blocking
            // sends, then drain.
            MsgMode::SendIrecv => {
                let wait = (!plan.recvs.is_empty()).then_some((MpiOp::WaitAll, 1));
                self.push_ops(irecvs.chain(sends).chain(wait));
            }
        }
        Ok(())
    }

    fn push_ops(&mut self, runs: impl Iterator<Item = (MpiOp, u32)>) {
        for (op, copies) in runs {
            self.push(Queued::Op(op), copies);
        }
    }
}

/// A root task id, range-checked against the job size.
fn root_in_range(what: &str, root: i64, n: u32) -> Result<u32, String> {
    if root < 0 || root >= n as i64 {
        return Err(format!("{what} root {root} out of range 0..{n}"));
    }
    Ok(root as u32)
}

/// Iterator over the op stream assuming instantaneous completion — the
/// contract needed by the validation executors (no data-dependent control
/// flow exists in skeletons).
impl Iterator for RankVm {
    type Item = MpiOp;
    fn next(&mut self) -> Option<MpiOp> {
        self.next_op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Builder;
    use crate::translate::translate_source;

    fn ops(vm: RankVm) -> Vec<MpiOp> {
        vm.collect()
    }

    #[test]
    fn ping_pong_op_streams() {
        let skel = translate_source(
            "reps is \"r\" and comes from \"--reps\" with default 2. \
             For reps repetitions { \
               task 0 sends a 1024 byte message to task 1 then \
               task 1 sends a 1024 byte message to task 0 }.",
            "pingpong",
        )
        .unwrap();
        let inst = SkeletonInstance::new(&skel, 2, &[]).unwrap();
        let r0 = ops(RankVm::new(inst.clone(), 0, 1));
        let r1 = ops(RankVm::new(inst.clone(), 1, 1));
        assert_eq!(
            r0,
            vec![
                MpiOp::Init,
                MpiOp::Send { dst: 1, bytes: 1024, tag: 1 },
                MpiOp::Recv { src: 1, bytes: 1024, tag: 2 },
                MpiOp::Send { dst: 1, bytes: 1024, tag: 1 },
                MpiOp::Recv { src: 1, bytes: 1024, tag: 2 },
                MpiOp::Finalize,
            ]
        );
        assert_eq!(
            r1,
            vec![
                MpiOp::Init,
                MpiOp::Recv { src: 0, bytes: 1024, tag: 1 },
                MpiOp::Send { dst: 0, bytes: 1024, tag: 2 },
                MpiOp::Recv { src: 0, bytes: 1024, tag: 1 },
                MpiOp::Send { dst: 0, bytes: 1024, tag: 2 },
                MpiOp::Finalize,
            ]
        );
    }

    #[test]
    fn args_override_defaults() {
        let skel = translate_source(
            "reps is \"r\" and comes from \"--reps\" with default 2. \
             For reps repetitions task 0 sends a 8 byte message to task 1.",
            "t",
        )
        .unwrap();
        let inst = SkeletonInstance::new(&skel, 2, &["--reps", "5"]).unwrap();
        let sends =
            ops(RankVm::new(inst, 0, 1)).iter().filter(|o| matches!(o, MpiOp::Send { .. })).count();
        assert_eq!(sends, 5);
    }

    #[test]
    fn ring_is_statically_resolved() {
        let skel = translate_source(
            "all tasks t asynchronously send a 64 byte message to task (t+1) mod num_tasks \
             then all tasks await completions.",
            "ring",
        )
        .unwrap();
        let inst = SkeletonInstance::new(&skel, 4, &[]).unwrap();
        assert!(inst.resolved.iter().any(|r| r.is_some()));
        let r2 = ops(RankVm::new(inst, 2, 1));
        assert_eq!(
            r2,
            vec![
                MpiOp::Init,
                MpiOp::Irecv { src: 1, bytes: 64, tag: 0 },
                MpiOp::Isend { dst: 3, bytes: 64, tag: 0 },
                MpiOp::WaitAll,
                MpiOp::Finalize,
            ]
        );
    }

    #[test]
    fn loop_variable_advances() {
        let skel = translate_source(
            "for each i in {1, ..., 3} task 0 sends a i byte message to task 1.",
            "t",
        )
        .unwrap();
        let inst = SkeletonInstance::new(&skel, 2, &[]).unwrap();
        let sizes: Vec<u64> = ops(RankVm::new(inst, 0, 1))
            .iter()
            .filter_map(|o| match o {
                MpiOp::Send { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, vec![1, 2, 3]);
    }

    #[test]
    fn mesh_edges_are_skipped() {
        // 2x2x1 mesh: task 3 = (1,1,0); +x neighbor does not exist.
        let skel = Builder::new("mesh")
            .send_nb(
                conceptual::parser::parse_expr("MESH_NEIGHBOR(2,2,1, t, 1,0,0)").unwrap(),
                Expr::lit(8),
            )
            .build()
            .unwrap();
        let skel = Skeleton { name: skel.name, params: skel.params, code: skel.code };
        let inst = SkeletonInstance::new(&skel, 4, &[]).unwrap();
        let r3 = ops(RankVm::new(inst.clone(), 3, 1));
        // Rank 3 sends nothing (edge) but receives from rank 2.
        assert_eq!(
            r3,
            vec![MpiOp::Init, MpiOp::Irecv { src: 2, bytes: 8, tag: 0 }, MpiOp::Finalize]
        );
    }

    #[test]
    fn collectives_reach_all_ranks() {
        let skel = translate_source(
            "all tasks reduce a 1024 byte message to all tasks then \
             task 0 multicasts a 25 byte message to all other tasks then \
             all tasks synchronize.",
            "coll",
        )
        .unwrap();
        let inst = SkeletonInstance::new(&skel, 3, &[]).unwrap();
        for r in 0..3 {
            let o = ops(RankVm::new(inst.clone(), r, 1));
            assert_eq!(
                o,
                vec![
                    MpiOp::Init,
                    MpiOp::Allreduce { bytes: 1024 },
                    MpiOp::Bcast { root: 0, bytes: 25 },
                    MpiOp::Barrier,
                    MpiOp::Finalize,
                ]
            );
        }
    }

    #[test]
    fn random_traffic_is_one_sided_and_seed_stable() {
        let skel = Builder::new("ur")
            .loop_n(Expr::lit(10), |b| b.send_random(Expr::lit(10240), true))
            .build()
            .unwrap();
        let inst = SkeletonInstance::new(&skel, 8, &[]).unwrap();
        let a = ops(RankVm::new(inst.clone(), 3, 42));
        let b = ops(RankVm::new(inst.clone(), 3, 42));
        assert_eq!(a, b, "same seed, same stream");
        for o in &a {
            if let MpiOp::SyntheticSend { dst, .. } = o {
                assert_ne!(*dst, 3, "never sends to self");
                assert!(*dst < 8);
            }
        }
        assert_eq!(a.iter().filter(|o| matches!(o, MpiOp::SyntheticSend { .. })).count(), 10);
    }

    #[test]
    fn vm_clone_resumes_identically() {
        let skel = translate_source(
            "for 4 repetitions { all tasks t asynchronously send a 16 byte message \
             to task (t+1) mod num_tasks then all tasks await completions }.",
            "t",
        )
        .unwrap();
        let inst = SkeletonInstance::new(&skel, 4, &[]).unwrap();
        let mut vm = RankVm::new(inst, 1, 7);
        let mut prefix = Vec::new();
        for _ in 0..5 {
            prefix.push(vm.next_op().unwrap());
        }
        let fork = vm.clone();
        let rest_a: Vec<_> = vm.collect();
        let rest_b: Vec<_> = fork.collect();
        assert_eq!(rest_a, rest_b, "clone mid-stream must resume identically");
    }

    #[test]
    fn such_that_selectors() {
        let skel =
            translate_source("tasks t such that t is even send a 4 byte message to task t+1.", "t")
                .unwrap();
        let inst = SkeletonInstance::new(&skel, 4, &[]).unwrap();
        let r0 = ops(RankVm::new(inst.clone(), 0, 1));
        assert!(r0.contains(&MpiOp::Send { dst: 1, bytes: 4, tag: 0 }));
        let r1 = ops(RankVm::new(inst.clone(), 1, 1));
        assert!(r1.contains(&MpiOp::Recv { src: 0, bytes: 4, tag: 0 }));
        assert!(!r1.iter().any(|o| matches!(o, MpiOp::Send { .. })));
    }

    #[test]
    fn a_repeat_count_is_one_queue_entry() {
        let skel =
            translate_source("task 0 sends 1000000000 8 byte messages to task 1.", "t").unwrap();
        let inst = SkeletonInstance::new(&skel, 2, &[]).unwrap();
        let mut vm = RankVm::new(inst, 0, 1);
        for _ in 0..4 {
            vm.next_op().unwrap();
        }
        assert_eq!(vm.queue.len(), 1);
        assert_eq!(vm.queue[0].1, 1_000_000_000 - 3);
    }

    const LEAF_ERROR: &str = "task 0 sends a 8 byte message to task 1 then \
        for each i in {0, ..., 1} task 0 computes for 8/i microseconds.";

    #[test]
    fn an_evaluation_error_is_a_value_at_the_leaf_pc() {
        let inst =
            SkeletonInstance::new(&translate_source(LEAF_ERROR, "t").unwrap(), 2, &[]).unwrap();
        let mut vm = RankVm::new(inst, 0, 1);
        assert_eq!(vm.try_next_op(), Ok(Some(MpiOp::Init)));
        assert!(matches!(vm.try_next_op(), Ok(Some(MpiOp::Send { .. }))));
        let err = vm.try_next_op().unwrap_err();
        assert_eq!(err.pc, 2, "the Compute leaf, not the LoopEnd after it: {err:?}");
    }

    #[test]
    #[should_panic(expected = "t[rank 0 pc 2]: ")]
    fn next_op_panics_with_rank_and_pc() {
        let inst =
            SkeletonInstance::new(&translate_source(LEAF_ERROR, "t").unwrap(), 2, &[]).unwrap();
        RankVm::new(inst, 0, 1).for_each(drop);
    }
}
