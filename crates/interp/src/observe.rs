//! Golden-run observers for the decoded loop: the [`Profile`], the
//! register-write trace and checkpoint capture.
//!
//! The decoded loop takes its observer as a type parameter `O: Observe`
//! next to `ARMED`. Every hook call sits behind `if O::ON`, so the
//! campaign instantiation (`NoObs`, `ON = false`) compiles to the bare
//! loop; golden, profile and trace runs instantiate [`Observers`].
//!
//! The observers stay off the per-step path wherever the information can
//! be recovered later:
//!
//! * **Profile.** The loop counts only control transfers — each branch
//!   site's taken direction (dense arrays indexed by the branch's dense
//!   id) and each call. Block entries, edge weights and per-instruction
//!   counts are derived once at the end: a block entry executes the whole
//!   block, except the partial blocks of the frames live when the run
//!   stops (trap, step limit) or starts (a resumed suffix).
//! * **Sections.** A function's first and last executed step change only
//!   when a frame starts or stops running, so they are updated at call,
//!   return and finish.
//! * **Position.** The top frame runs straight-line between control
//!   transfers, so an anchor `(pc, steps)` set at each transfer yields the
//!   exact pc at any later step. Captures that fall between the halves of
//!   a fused superinstruction, and terminations inside one, use it instead
//!   of the carrier's pc.
//! * **Checkpoints.** The next capture step is folded into the loop's
//!   existing `next_pause` compare; a capture converts the decoded frames
//!   back into the canonical [`MachineState`](crate::MachineState) frame
//!   form (`pc` → `(block, pos)` through `block_entry`), so stores, wire
//!   bytes and resumes are unchanged.
//!
//! Only the per-value hooks — injection counts for checkpoints and the
//! trace — run per produced value, because both record every production.

use crate::decode::{DFrame, DecodedModule};
use crate::exec::{ExecResult, Frame, Interp, TraceEvent};
use crate::profile::Profile;
use crate::snapshot::{CheckpointCollector, StateRef};
use crate::value::{OutputItem, Value};
use minpsid_ir::{BlockId, FuncId, GlobalInstId, InstKind};

/// What the decoded loop reports to an observer. The default bodies are
/// no-ops; the loop only calls a hook when `Self::ON`.
pub(crate) trait Observe {
    /// False for the campaign observer: the loop then emits no hook code.
    const ON: bool;
    /// The run enters with `frames` live and `steps` steps completed.
    fn begin(&mut self, _frames: &[DFrame], _steps: u64) {}
    /// Steps completed at which the next checkpoint is due (`u64::MAX`
    /// when none is).
    fn next_capture(&self) -> u64 {
        u64::MAX
    }
    /// Capture a checkpoint of `live`.
    fn capture(&mut self, _dm: &DecodedModule, _live: &Live) {}
    /// Branch site `site` (dense id) took direction `dir` (0 = then or
    /// unconditional, 1 = else) to `target`.
    fn jump(&mut self, _site: u32, _dir: usize, _target: u32, _steps: u64) {}
    /// `caller` called `callee`, entering it at `entry`.
    fn call(&mut self, _caller: u32, _callee: u32, _entry: u32, _steps: u64) {}
    /// `callee` returned; its caller continues at `resume`.
    fn ret(&mut self, _callee: u32, _resume: u32, _steps: u64) {}
    /// A value was written to a register by instruction `dense`.
    fn produced(&mut self, _dense: u32, _inj: bool, _v: Value) {}
    /// The run ended with `frames` still live. `counted` is false when
    /// the last ticked instruction never executed (step limit, deadline).
    fn finish(
        &mut self,
        _interp: &Interp,
        _frames: &[DFrame],
        _inj_ctr: u64,
        _counted: bool,
        _r: &mut ExecResult,
    ) {
    }
}

/// The campaign observer: nothing is observed.
pub(crate) struct NoObs;

impl Observe for NoObs {
    const ON: bool = false;
}

/// Live machine state in decoded form, as a capture sees it.
pub(crate) struct Live<'a> {
    pub(crate) frames: &'a [DFrame],
    pub(crate) regs: &'a [Value],
    pub(crate) args: &'a [Value],
    pub(crate) mem: &'a [u64],
    pub(crate) stack_mem: &'a [u64],
    pub(crate) output: &'a [OutputItem],
    pub(crate) steps: u64,
    pub(crate) inj_ctr: u64,
}

/// The golden-run observers, each enabled on demand.
pub(crate) struct Observers {
    profile: Option<ProfileAcc>,
    trace: Option<Vec<TraceEvent>>,
    ckpt: Option<CheckpointCollector>,
    /// The top frame reached `anchor_pc` with `anchor_steps` steps
    /// completed and has run straight-line since: the instruction at
    /// `anchor_pc + k` is step `anchor_steps + k + 1`.
    anchor_pc: u32,
    anchor_steps: u64,
    /// Capture scratch: the live frames in canonical form.
    frames: Vec<Frame>,
}

/// Profile counters kept during the run; see the module docs.
struct ProfileAcc {
    /// Taken count per branch site and direction: `sites[2 * dense + dir]`.
    sites: Vec<u64>,
    /// Calls into each function (entries of its first block).
    calls: Vec<u64>,
    sec_first: Vec<u64>,
    sec_last: Vec<u64>,
    /// Steps completed when the running frame last started running.
    seg_start: u64,
    /// A fresh run enters the entry block; a resumed suffix enters none.
    fresh: bool,
    /// Resumed suffix: `(func, frame pc, first pc executed)` of every
    /// frame live at entry — the suffix runs only the tail of their
    /// current blocks.
    resumed: Vec<(u32, u32, u32)>,
}

impl Observers {
    pub(crate) fn new(interp: &Interp, ckpt: Option<CheckpointCollector>) -> Self {
        let m = interp.module();
        Observers {
            profile: interp.config().profile.then(|| ProfileAcc {
                sites: vec![0; 2 * m.num_insts()],
                calls: vec![0; m.funcs.len()],
                sec_first: vec![0; m.funcs.len()],
                sec_last: vec![0; m.funcs.len()],
                seg_start: 0,
                fresh: true,
                resumed: Vec::new(),
            }),
            trace: interp.config().trace.then(Vec::new),
            ckpt,
            anchor_pc: 0,
            anchor_steps: 0,
            frames: Vec::new(),
        }
    }

    pub(crate) fn into_collector(self) -> Option<CheckpointCollector> {
        self.ckpt
    }

    /// Pc of the instruction executed as step `steps + 1`.
    #[inline]
    fn pc_after(&self, steps: u64) -> u32 {
        self.anchor_pc + (steps - self.anchor_steps) as u32
    }
}

impl ProfileAcc {
    /// The running frame (function `func`) stopped running after `end`
    /// steps: it ran steps `seg_start + 1 ..= end`.
    fn close(&mut self, func: u32, end: u64) {
        let f = func as usize;
        if end > self.seg_start {
            if self.sec_first[f] == 0 {
                self.sec_first[f] = self.seg_start + 1;
            }
            self.sec_last[f] = end;
        }
        self.seg_start = end;
    }

    /// Derive the [`Profile`]. `last_pc` is the top frame's last ticked
    /// instruction (meaningless when no frame is live).
    fn build(
        self,
        interp: &Interp,
        live: &[DFrame],
        last_pc: u32,
        inj_ctr: u64,
        counted: bool,
        steps: u64,
    ) -> Profile {
        let m = interp.module();
        let dm = interp.decoded();
        let mut p = Profile::for_module(m);
        p.sec_first_step = self.sec_first;
        p.sec_last_step = self.sec_last;

        // block entries and edges
        if self.fresh {
            p.block_counts[m.entry.index()][0] += 1;
        }
        for (f, func) in m.funcs.iter().enumerate() {
            if self.calls[f] > 0 {
                p.block_counts[f][0] += self.calls[f];
            }
            for (b, block) in func.blocks.iter().enumerate() {
                for &iid in &block.insts {
                    let targets = match func.insts[iid.index()].kind {
                        InstKind::Br { target } => [Some(target), None],
                        InstKind::CondBr { then_b, else_b, .. } => [Some(then_b), Some(else_b)],
                        _ => continue,
                    };
                    let site = 2 * interp.dense_index(GlobalInstId {
                        func: FuncId(f as u32),
                        inst: iid,
                    });
                    for (dir, t) in targets.into_iter().enumerate() {
                        let n = self.sites[site + dir];
                        if let (Some(t), true) = (t, n > 0) {
                            p.block_counts[f][t.index()] += n;
                            *p.edge_counts[f].entry((BlockId(b as u32), t)).or_insert(0) += n;
                        }
                    }
                }
            }
        }

        // per-instruction counts: every block entry runs the whole block,
        // corrected by the partial blocks at either end of the run —
        // `(func, frame pc, first pc affected, delta)`, the correction
        // running to the end of the frame pc's block
        let mut partial: Vec<(u32, u32, u32, i64)> = self
            .resumed
            .iter()
            .map(|&(f, at, from)| (f, at, from, 1))
            .collect();
        for (i, fr) in live.iter().enumerate() {
            partial.push(if i + 1 == live.len() {
                (fr.func, last_pc, last_pc + u32::from(counted), -1)
            } else {
                // a caller sits on its call, which has executed
                (fr.func, fr.pc, fr.pc + 1, -1)
            });
        }
        for (f, func) in m.funcs.iter().enumerate() {
            let df = &dm.funcs[f];
            let n = df.code.len();
            let mut diff = vec![0i64; n + 1];
            let block_end = |b: usize| df.block_entry[b] as usize + func.blocks[b].insts.len();
            for (b, &c) in p.block_counts[f].iter().enumerate() {
                diff[df.block_entry[b] as usize] += c as i64;
                diff[block_end(b)] -= c as i64;
            }
            for &(_, at, from, delta) in partial.iter().filter(|c| c.0 as usize == f) {
                let b = df.block_entry.partition_point(|&e| e <= at) - 1;
                diff[from as usize] += delta;
                diff[block_end(b)] -= delta;
            }
            let mut run = 0i64;
            for (pc, di) in df.code.iter().enumerate() {
                run += diff[pc];
                debug_assert!(run >= 0, "negative derived count");
                p.inst_counts[di.dense as usize] = run as u64;
            }
        }
        for ((&n, cyc), &cost) in p
            .inst_counts
            .iter()
            .zip(&mut p.inst_cycles)
            .zip(&interp.cost)
        {
            *cyc = n * cost;
        }
        p.total_cycles = p.inst_cycles.iter().sum();
        p.total_insts = steps;
        p.injectable_execs = inj_ctr;
        p
    }
}

impl Observe for Observers {
    const ON: bool = true;

    fn begin(&mut self, frames: &[DFrame], steps: u64) {
        let top = frames.last().expect("a run starts with a live frame");
        self.anchor_pc = top.pc;
        self.anchor_steps = steps;
        if let Some(p) = &mut self.profile {
            p.seg_start = steps;
            p.fresh = steps == 0;
            if !p.fresh {
                p.resumed = frames
                    .iter()
                    .enumerate()
                    .map(|(i, fr)| {
                        // the top frame resumes at its pc; a caller after
                        // its call returns
                        let from = if i + 1 == frames.len() {
                            fr.pc
                        } else {
                            fr.pc + 1
                        };
                        (fr.func, fr.pc, from)
                    })
                    .collect();
            }
        }
    }

    fn next_capture(&self) -> u64 {
        self.ckpt.as_ref().map_or(u64::MAX, |c| c.next_at())
    }

    fn capture(&mut self, dm: &DecodedModule, live: &Live) {
        let top_pc = self.pc_after(live.steps);
        self.frames.truncate(live.frames.len());
        for (i, fr) in live.frames.iter().enumerate() {
            let df = &dm.funcs[fr.func as usize];
            let pc = if i + 1 == live.frames.len() {
                top_pc
            } else {
                fr.pc
            };
            let block = df.block_entry.partition_point(|&e| e <= pc) - 1;
            let nregs = df.num_regs as usize - df.consts.len();
            let regs = &live.regs[fr.reg_base..fr.reg_base + nregs];
            let args = &live.args[fr.arg_base..fr.arg_base + fr.arg_len];
            if i == self.frames.len() {
                self.frames.push(Frame {
                    func: FuncId(0),
                    block: BlockId(0),
                    pos: 0,
                    regs: Vec::new(),
                    args: Vec::new(),
                    sp_base: 0,
                });
            }
            let f = &mut self.frames[i];
            f.func = FuncId(fr.func);
            f.block = BlockId(block as u32);
            f.pos = (pc - df.block_entry[block]) as usize;
            f.sp_base = fr.sp_base;
            regs.clone_into(&mut f.regs);
            args.clone_into(&mut f.args);
        }
        let c = self.ckpt.as_mut().expect("captures need a collector");
        c.capture(&StateRef {
            frames: &self.frames,
            mem: live.mem,
            stack_mem: live.stack_mem,
            output: live.output,
            steps: live.steps,
            inj_ctr: live.inj_ctr,
        });
    }

    #[inline]
    fn jump(&mut self, site: u32, dir: usize, target: u32, steps: u64) {
        self.anchor_pc = target;
        self.anchor_steps = steps;
        if let Some(p) = &mut self.profile {
            p.sites[2 * site as usize + dir] += 1;
        }
    }

    fn call(&mut self, caller: u32, callee: u32, entry: u32, steps: u64) {
        self.anchor_pc = entry;
        self.anchor_steps = steps;
        if let Some(p) = &mut self.profile {
            p.calls[callee as usize] += 1;
            p.close(caller, steps);
        }
    }

    fn ret(&mut self, callee: u32, resume: u32, steps: u64) {
        self.anchor_pc = resume;
        self.anchor_steps = steps;
        if let Some(p) = &mut self.profile {
            p.close(callee, steps);
        }
    }

    #[inline]
    fn produced(&mut self, dense: u32, inj: bool, v: Value) {
        if inj {
            if let Some(c) = &mut self.ckpt {
                c.inj_counts[dense as usize] += 1;
            }
        }
        if let Some(t) = &mut self.trace {
            t.push(TraceEvent { dense, value: v });
        }
    }

    fn finish(
        &mut self,
        interp: &Interp,
        frames: &[DFrame],
        inj_ctr: u64,
        counted: bool,
        r: &mut ExecResult,
    ) {
        r.trace = self.trace.take();
        if let Some(mut p) = self.profile.take() {
            // the last ticked instruction; no frame is live after the
            // entry function returns
            let last_pc = match frames.last() {
                Some(top) => {
                    p.close(top.func, r.steps - u64::from(!counted));
                    self.pc_after(r.steps - 1)
                }
                None => 0,
            };
            r.profile = Some(p.build(interp, frames, last_pc, inj_ctr, counted, r.steps));
        }
    }
}
