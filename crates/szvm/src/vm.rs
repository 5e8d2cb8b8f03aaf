//! The interpreter proper: pre-decoded flat dispatch.
//!
//! [`Vm::new`] lowers every function into a [`DecodedFunc`] (see
//! [`crate::decode`]) whose every fetch span carries a compiled body;
//! [`Vm::run`] then executes those bodies *by reference* — no
//! per-instruction cloning, no nested `Vec` indexing, no layout-table
//! lookups. Registers for all live frames share one contiguous pool.
//! There is one execution path: a span at a time, each a single
//! batched `retire_batch` + line-range fetch, its body, then its
//! terminal — and fuel is metered per span (see [`Exec::run_span`]
//! for why both are exact).
//!
//! The observable memory-model behaviour (`PerfCounters`, per-period
//! snapshots, and every engine callback with the counter values it
//! sees) is identical to the pre-decode interpreter preserved in
//! [`crate::reference`], so counters and reports are bit-identical;
//! `tests/decode_equivalence.rs` holds that line.

use sz_ir::{FuncId, Operand, Program, Reg};
use sz_machine::{MachineConfig, MemorySystem};

use crate::decode::{
    decode_program, DecodedFunc, DecodedOp, FetchSpan, OpKind, SpanBody, SpanTerm, Step,
};
use crate::engine::FrameView;
use crate::report::assemble_periods;
use crate::{LayoutEngine, RunLimits, RunReport, ValueMemory, VmError};

/// The guest-facing zero-size-malloc policy, in one place.
///
/// C's `malloc(0)` is legal and appears in real workloads; the VM
/// normalizes every guest allocation request through this function
/// before any [`LayoutEngine`] sees it, so engines (and the allocators
/// beneath them) may demand `size > 0` and still behave identically on
/// zero-size guest requests. Allocators keep their own size-class
/// floors (e.g. the shuffle layer's minimum class) — those round a
/// *positive* request up and are not zero-size policy.
#[inline]
pub(crate) fn guest_malloc_size(requested: u64) -> u64 {
    requested.max(1)
}

/// An interpreter for one program.
///
/// Construction pre-decodes every function into a flat code stream
/// ([`DecodedFunc`]); [`Vm::run`] then executes the program under any
/// [`LayoutEngine`].
#[derive(Debug)]
pub struct Vm<'p> {
    program: &'p Program,
    decoded: Vec<DecodedFunc>,
}

/// One activation record.
///
/// Registers live in the shared [`Exec::regs`] pool starting at
/// `reg_base`; the cursor `span` indexes the owning function's
/// [`DecodedFunc::spans`].
#[derive(Debug)]
struct Frame {
    func: FuncId,
    code_base: u64,
    /// First register of this frame in the shared pool.
    reg_base: usize,
    /// Address of stack slot 0 (frames grow down from the caller).
    frame_addr: u64,
    /// Where the caller stores this activation's return value.
    ret_to: Option<Reg>,
    /// Index of the span execution resumes at (span 0 on entry, the
    /// continuation span after a call).
    span: u32,
    /// Stack pointer to restore on return.
    sp_restore: u64,
}

impl<'p> Vm<'p> {
    /// Prepares the program for execution: validates it and lowers
    /// every function to its decoded stream.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation — run
    /// [`Program::validate`] first for a recoverable check.
    pub fn new(program: &'p Program) -> Self {
        program
            .validate()
            .unwrap_or_else(|e| panic!("invalid program {}: {e}", program.name));
        Vm {
            program,
            decoded: decode_program(program),
        }
    }

    /// The program this VM executes.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// The decoded streams, indexed by `FuncId` — exposed so tests can
    /// check the decoder against [`sz_ir::CodeLayout`] ground truth.
    pub fn decoded_funcs(&self) -> &[DecodedFunc] {
        &self.decoded
    }

    /// Executes the program to completion under `engine`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] if the instruction budget, stack depth, or
    /// heap is exhausted, or the program frees a non-live address.
    pub fn run(
        &self,
        engine: &mut dyn LayoutEngine,
        config: MachineConfig,
        limits: RunLimits,
    ) -> Result<RunReport, VmError> {
        let mut mem = MemorySystem::new(config);
        engine.prepare(self.program);

        let mut values = ValueMemory::new();
        for (i, g) in self.program.globals.iter().enumerate() {
            let base = engine.global_base(sz_ir::GlobalId(i as u32));
            match g.init {
                sz_ir::GlobalInit::Zero => {}
                sz_ir::GlobalInit::F64Bits(b) | sz_ir::GlobalInit::U64(b) => {
                    values.write(base, b);
                }
            }
        }

        let mut exec = Exec {
            vm: self,
            engine,
            mem: &mut mem,
            values,
            stack: Vec::new(),
            stack_view: Vec::new(),
            regs: Vec::new(),
            scratch: Vec::new(),
            sp: 0,
            limits,
            gb_memo: (u32::MAX, 0),
        };
        exec.sp = exec.engine.stack_base();
        exec.push_frame(self.program.entry, &[], None)?;

        let mut return_value = None;
        while !exec.stack.is_empty() {
            return_value = exec.run_span()?;
        }

        let counters = *mem.counters();
        let periods = assemble_periods(engine.period_marks(), &counters);
        Ok(RunReport {
            cycles: counters.cycles,
            instructions: counters.instructions,
            time: config.time_of(counters.cycles),
            counters,
            periods,
            return_value,
            engine: engine.name().to_string(),
        })
    }
}

/// Reads an operand against a frame's register window.
#[inline]
fn operand(regs: &[u64], op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => v as u64,
    }
}

/// Mutable execution state, split out so borrows stay simple.
struct Exec<'a, 'p> {
    vm: &'a Vm<'p>,
    engine: &'a mut dyn LayoutEngine,
    mem: &'a mut MemorySystem,
    values: ValueMemory,
    stack: Vec<Frame>,
    stack_view: Vec<FrameView>,
    /// Register pool: frame `i` owns `regs[frame.reg_base..]` up to the
    /// next frame's base (or the pool's end for the top frame). Each
    /// frame's window is its `num_regs` registers followed by the
    /// function's interned constants ([`DecodedFunc::consts`]), so
    /// compiled effects address registers and immediates uniformly.
    regs: Vec<u64>,
    /// Reusable call-argument buffer.
    scratch: Vec<u64>,
    sp: u64,
    limits: RunLimits,
    /// One-entry memo for [`LayoutEngine::global_base`], `(global,
    /// base)`, invalidated at every [`Exec::run_span`] entry. Sound
    /// because the engine is only handed `&mut self` at span-terminal
    /// `Op` sites (tick / enter / pad / malloc / free), all of which
    /// return from `run_span` — so between two resets no engine state
    /// can change and the base it would report is constant. `u32::MAX`
    /// marks the memo cold (no program has 2^32 - 1 globals).
    gb_memo: (u32, u64),
}

impl Exec<'_, '_> {
    /// Resolves a global's base through the one-entry memo (see
    /// [`Exec::gb_memo`]); the dyn engine call only runs on the first
    /// access to each distinct global per `run_span` entry.
    #[inline]
    fn global_base(&mut self, g: sz_ir::GlobalId) -> u64 {
        if self.gb_memo.0 != g.0 {
            self.gb_memo = (g.0, self.engine.global_base(g));
        }
        self.gb_memo.1
    }

    fn push_frame(
        &mut self,
        func: FuncId,
        args: &[u64],
        ret_to: Option<Reg>,
    ) -> Result<(), VmError> {
        if self.stack.len() >= self.limits.max_stack_depth {
            return Err(VmError::StackOverflow {
                limit: self.limits.max_stack_depth,
            });
        }
        // Re-randomization check fires at function entry, modelling the
        // trap STABILIZER plants at each function's first byte (§3.3).
        self.engine
            .tick(self.mem.counters().cycles, &self.stack_view, self.mem);

        let code_base = self.engine.enter_function(func, self.mem);
        let f = &self.vm.decoded[func.0 as usize];
        let pad = self.engine.stack_pad(func, self.mem);
        let sp_restore = self.sp;
        // Layout below the caller: [linkage word][slots...], padded.
        // A frame that would extend below address zero has run the
        // guest stack off the bottom of the address space — that is a
        // stack overflow, not a wrap to the top of memory.
        let new_sp = self
            .sp
            .checked_sub(pad)
            .and_then(|sp| sp.checked_sub(f.frame_bytes))
            .and_then(|sp| sp.checked_sub(8))
            .ok_or(VmError::StackOverflow {
                limit: self.limits.max_stack_depth,
            })?;
        // Pushing the return address is a real store through the cache:
        // this is how stack placement reaches the timing model.
        self.mem.store(new_sp + f.frame_bytes);
        self.sp = new_sp;

        let reg_base = self.regs.len();
        self.regs.resize(reg_base + usize::from(f.num_regs), 0);
        self.regs[reg_base..reg_base + args.len()].copy_from_slice(args);
        // The frame's execution window is its registers followed by
        // the function's interned constants, so effect operands
        // address both uniformly.
        self.regs.extend_from_slice(&f.consts);
        self.stack.push(Frame {
            func,
            code_base,
            reg_base,
            frame_addr: new_sp,
            ret_to,
            span: 0,
            sp_restore,
        });
        self.stack_view.push(FrameView { func, code_base });
        Ok(())
    }

    /// Executes the top frame from its resume span, chaining span to
    /// span through jumps and branches, until an `Op` terminal (call,
    /// return, malloc, free) hands control back to [`Vm::run`].
    /// Returns the program's final value when the last frame returns.
    ///
    /// Every span is one batched front-end event — one `retire_batch`
    /// and one line-range fetch — followed by its compiled body and
    /// its terminal. Exactness: mid-span ops are infallible and
    /// engine-invisible, so nothing observes the counters between two
    /// ops of a span; engine callbacks (tick / enter / pad / malloc /
    /// free), period snapshots, and errors all sit at span terminals,
    /// where the batched totals equal the reference interpreter's
    /// running totals. Impure spans straddling an L1I line under the
    /// current code base keep the reference's fetch interleaving
    /// ([`Exec::run_steps`] with `STRADDLE`), so the shared-L2/L3
    /// access order matches the reference exactly.
    ///
    /// Fuel is metered per span: a span that would retire past the
    /// limit does not start, and the run fails with `OutOfFuel`. The
    /// per-op reference would still run that span's mid ops before
    /// its cut, but those never reach the engine and the failed run
    /// reports no counters, while the terminal — the only op that
    /// can call the engine — runs under both meters exactly when the
    /// whole span fits the budget. The error and the engine-observed
    /// counter trace are therefore identical.
    fn run_span(&mut self) -> Result<Option<u64>, VmError> {
        let limit = self.limits.max_instructions;
        // Anything that mutated the engine since the last entry exited
        // through an `Op` terminal, so one reset here re-validates the
        // global-base memo for the whole dispatch.
        self.gb_memo.0 = u32::MAX;

        // `vm` is a shared reference copied out of `self`, so the span
        // and its body borrow the decoded stream independently of
        // `self` — the hot loop executes by reference with zero
        // cloning. Jump and branch terminals stay inside this frame,
        // so the hoisted frame state below is paid for once per
        // chain, not once per span. `retired` tracks the instruction
        // counter locally: the only retirement mid-chain is this
        // loop's own `retire_batch`.
        let vm = self.vm;
        let top = self.stack.len() - 1;
        let frame = &self.stack[top];
        let func = &vm.decoded[frame.func.0 as usize];
        let code_base = frame.code_base;
        let reg_base = frame.reg_base;
        let frame_addr = frame.frame_addr;
        let mut span_idx = frame.span as usize;
        let mut retired = self.mem.counters().instructions;
        loop {
            let span = &func.spans[span_idx];
            if retired + u64::from(span.count) > limit {
                return Err(VmError::OutOfFuel { limit });
            }
            self.mem
                .retire_batch(u64::from(span.count), span.base_cycles);
            retired += u64::from(span.count);

            // A compiled body executes the exact op sequence — same
            // register writes, same data traffic in the same order.
            // A pure span may hoist its whole footprint into one
            // front-end event even across lines: with no mid-span data
            // traffic the reference's line walk is already an
            // uninterrupted ascending sweep identical to `fetch_lines`.
            // An impure span hoists only when its bytes sit on ONE
            // line (the reference's only probe then happens at the
            // first op, exactly where the batch puts it).
            let first = code_base + span.first_pc;
            let last = code_base + span.end_pc - 1;
            let term = match func.bodies[span_idx] {
                SpanBody::Effects {
                    first: at,
                    count,
                    term,
                } => {
                    self.mem.fetch_lines(first, last);
                    let window = &mut self.regs[reg_base..];
                    for e in &func.effects[at as usize..(at + count) as usize] {
                        window[usize::from(e.dst)] =
                            e.op.eval(window[usize::from(e.a)], window[usize::from(e.b)]);
                    }
                    term
                }
                SpanBody::Steps {
                    first: at,
                    count,
                    term,
                } => {
                    let steps = &func.steps[at as usize..(at + count) as usize];
                    if self.mem.same_fetch_line(first, last) {
                        self.mem.fetch_lines(first, last);
                        self.run_steps::<false>(func, span, steps, reg_base, frame_addr, code_base);
                    } else {
                        self.run_steps::<true>(func, span, steps, reg_base, frame_addr, code_base);
                    }
                    term
                }
            };

            match term {
                SpanTerm::CmpBranch {
                    eff,
                    pc_rel,
                    taken,
                    not_taken,
                } => {
                    let window = &mut self.regs[reg_base..];
                    let c = eff
                        .op
                        .eval(window[usize::from(eff.a)], window[usize::from(eff.b)]);
                    window[usize::from(eff.dst)] = c;
                    let t = c != 0;
                    self.mem.branch(code_base + pc_rel, t);
                    span_idx = if t { taken } else { not_taken } as usize;
                }
                SpanTerm::Jump { target } => span_idx = target as usize,
                SpanTerm::Branch {
                    cond,
                    pc_rel,
                    taken,
                    not_taken,
                } => {
                    let c = self.regs[reg_base + usize::from(cond)] != 0;
                    self.mem.branch(code_base + pc_rel, c);
                    span_idx = if c { taken } else { not_taken } as usize;
                }
                SpanTerm::Op => {
                    // Calls, mallocs and frees resume at the next span
                    // (a call continuation always starts one); a
                    // return pops this frame and never reads it.
                    self.stack[top].span = span_idx as u32 + 1;
                    let op = &func.ops[(span.start + span.count - 1) as usize];
                    return self.exec_op(top, op);
                }
            }
        }
    }

    /// Runs an impure span's compiled mid-op steps. Steps are
    /// infallible and engine-invisible (every fallible or
    /// callback-bearing op is span-terminal by construction), and
    /// fused steps issue their data traffic in the original op order.
    ///
    /// Without `STRADDLE` the caller has already fetched the whole
    /// span. With it, the span crosses an I-line and fetch keeps the
    /// reference's exact interleaving with the data traffic: between
    /// two data accesses every op is fetch-only (effects, dropped
    /// Nops, a folded compare — none emits an observable event), so
    /// their per-op fetches form the same uninterrupted ascending line
    /// sweep [`MemorySystem::fetch_lines`] performs. Each pending run
    /// is flushed as one walk exactly where the next data access pins
    /// it (every data-bearing step carries its op's flat index), and a
    /// final flush covers the span's fetch-only tail through the
    /// terminal.
    #[inline(always)]
    fn run_steps<const STRADDLE: bool>(
        &mut self,
        func: &DecodedFunc,
        span: &FetchSpan,
        steps: &[Step],
        reg_base: usize,
        frame_addr: u64,
        code_base: u64,
    ) {
        // First op whose fetch has not been issued yet.
        let mut pend = span.start;
        let mut flush = |mem: &mut MemorySystem, last: u32| {
            if STRADDLE {
                let first_op = &func.ops[pend as usize];
                let last_op = &func.ops[last as usize];
                mem.fetch_lines(
                    code_base + first_op.pc,
                    code_base + last_op.pc + u64::from(last_op.size) - 1,
                );
                pend = last + 1;
            }
        };
        for step in steps {
            match *step {
                Step::Effect(e) => {
                    let window = &mut self.regs[reg_base..];
                    window[usize::from(e.dst)] =
                        e.op.eval(window[usize::from(e.a)], window[usize::from(e.b)]);
                }
                Step::LoadSlotAlu {
                    idx,
                    dst,
                    byte_off,
                    eff,
                } => {
                    // The load's own fetch lands before its data
                    // access; the fused ALU's fetch joins the next
                    // pending run (the effect itself is unobservable,
                    // so running it early reorders nothing).
                    flush(self.mem, idx);
                    let addr = frame_addr + byte_off;
                    self.mem.load(addr);
                    let v = self.values.read(addr);
                    let window = &mut self.regs[reg_base..];
                    window[usize::from(dst)] = v;
                    window[usize::from(eff.dst)] = eff
                        .op
                        .eval(window[usize::from(eff.a)], window[usize::from(eff.b)]);
                }
                Step::AluStoreSlot {
                    idx,
                    eff,
                    src,
                    byte_off,
                } => {
                    // Both halves fetch before the store's data
                    // access (the ALU emits no event in between).
                    flush(self.mem, idx + 1);
                    let window = &mut self.regs[reg_base..];
                    window[usize::from(eff.dst)] = eff
                        .op
                        .eval(window[usize::from(eff.a)], window[usize::from(eff.b)]);
                    let v = window[usize::from(src)];
                    let addr = frame_addr + byte_off;
                    self.mem.store(addr);
                    self.values.write(addr, v);
                }
                Step::LoadSlot { idx, dst, byte_off } => {
                    flush(self.mem, idx);
                    let addr = frame_addr + byte_off;
                    self.mem.load(addr);
                    self.regs[reg_base + usize::from(dst)] = self.values.read(addr);
                }
                Step::StoreSlot { idx, src, byte_off } => {
                    flush(self.mem, idx);
                    let v = self.regs[reg_base + usize::from(src)];
                    let addr = frame_addr + byte_off;
                    self.mem.store(addr);
                    self.values.write(addr, v);
                }
                Step::LoadGlobal {
                    idx,
                    dst,
                    offset,
                    global,
                } => {
                    flush(self.mem, idx);
                    let off = self.regs[reg_base + usize::from(offset)];
                    let addr = self.global_base(global).wrapping_add(off);
                    self.mem.load(addr);
                    self.regs[reg_base + usize::from(dst)] = self.values.read(addr);
                }
                Step::StoreGlobal {
                    idx,
                    src,
                    offset,
                    global,
                } => {
                    flush(self.mem, idx);
                    let window = &self.regs[reg_base..];
                    let v = window[usize::from(src)];
                    let off = window[usize::from(offset)];
                    let addr = self.global_base(global).wrapping_add(off);
                    self.mem.store(addr);
                    self.values.write(addr, v);
                }
                Step::LoadPtr {
                    idx,
                    dst,
                    base,
                    offset,
                } => {
                    flush(self.mem, idx);
                    let addr = self.regs[reg_base + usize::from(base)].wrapping_add(offset);
                    self.mem.load(addr);
                    self.regs[reg_base + usize::from(dst)] = self.values.read(addr);
                }
                Step::StorePtr {
                    idx,
                    src,
                    base,
                    offset,
                } => {
                    flush(self.mem, idx);
                    let window = &self.regs[reg_base..];
                    let v = window[usize::from(src)];
                    let addr = window[usize::from(base)].wrapping_add(offset);
                    self.mem.store(addr);
                    self.values.write(addr, v);
                }
            }
        }
        flush(self.mem, span.start + span.count - 1);
    }

    /// Executes an `Op` terminal of frame `top` — a call, return,
    /// malloc or free, the ops that reach the layout engine or change
    /// the frame stack — after [`Exec::run_span`] has fetched and
    /// retired it. Returns the program's final value when the last
    /// frame returns.
    fn exec_op(&mut self, top: usize, op: &DecodedOp) -> Result<Option<u64>, VmError> {
        let vm = self.vm;
        let reg_base = self.stack[top].reg_base;
        match &op.kind {
            OpKind::Malloc { dst, size } => {
                let sz = guest_malloc_size(operand(&self.regs[reg_base..], *size));
                let addr = self
                    .engine
                    .malloc(sz, self.mem)
                    .ok_or(VmError::OutOfMemory { request: sz })?;
                self.regs[reg_base + dst.0 as usize] = addr;
            }
            OpKind::Free { ptr } => {
                let addr = self.regs[reg_base + ptr.0 as usize];
                if !self.engine.free(addr, self.mem) {
                    return Err(VmError::InvalidFree { addr });
                }
            }
            OpKind::Call { func, args, ret } => {
                let mut argv = std::mem::take(&mut self.scratch);
                argv.clear();
                let regs = &self.regs[reg_base..];
                argv.extend(args.iter().map(|a| operand(regs, *a)));
                let result = self.push_frame(*func, &argv, *ret);
                self.scratch = argv;
                result?;
            }
            OpKind::Ret { value } => {
                let v = value.map(|op| operand(&self.regs[reg_base..], op));
                let frame = self.stack.pop().expect("top frame exists");
                self.stack_view.pop();
                // Popping the return address is a load.
                let frame_bytes = vm.decoded[frame.func.0 as usize].frame_bytes;
                self.mem.load(frame.frame_addr + frame_bytes);
                self.sp = frame.sp_restore;
                self.regs.truncate(frame.reg_base);
                return if let Some(caller) = self.stack.last() {
                    if let (Some(reg), Some(val)) = (frame.ret_to, v) {
                        self.regs[caller.reg_base + reg.0 as usize] = val;
                    }
                    Ok(None)
                } else {
                    Ok(v)
                };
            }
            _ => unreachable!("only calls, returns, mallocs and frees are Op terminals"),
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimpleLayout;
    use sz_ir::{AluOp, ProgramBuilder};

    fn run(program: &Program) -> RunReport {
        let mut engine = SimpleLayout::new();
        Vm::new(program)
            .run(&mut engine, MachineConfig::tiny(), RunLimits::default())
            .expect("run succeeds")
    }

    #[test]
    fn arithmetic_and_return() {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        let a = f.alu(AluOp::Mul, 6, 7);
        let b = f.alu(AluOp::Sub, a, 2);
        f.ret(Some(b.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(40));
    }

    #[test]
    fn loop_sums_correctly() {
        // sum 0..100 via slots, exercising branches and stack memory.
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        let s_i = f.slot();
        let s_sum = f.slot();
        f.store_slot(s_i, 0);
        f.store_slot(s_sum, 0);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(header);
        f.switch_to(header);
        let i = f.load_slot(s_i);
        let c = f.alu(AluOp::CmpLt, i, 100);
        f.branch(c, body, exit);
        f.switch_to(body);
        let i = f.load_slot(s_i);
        let sum = f.load_slot(s_sum);
        let ns = f.alu(AluOp::Add, sum, i);
        f.store_slot(s_sum, ns);
        let ni = f.alu(AluOp::Add, i, 1);
        f.store_slot(s_i, ni);
        f.jump(header);
        f.switch_to(exit);
        let out = f.load_slot(s_sum);
        f.ret(Some(out.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(4950));
    }

    #[test]
    fn calls_pass_arguments_and_return_values() {
        let mut p = ProgramBuilder::new("t");
        let mut sq = p.function("square", 1);
        let x = sq.param(0);
        let v = sq.alu(AluOp::Mul, x, x);
        sq.ret(Some(v.into()));
        let square = p.add_function(sq);
        let mut f = p.function("main", 0);
        let r = f.call(square, vec![9.into()]);
        let r2 = f.call(square, vec![r.into()]);
        f.ret(Some(r2.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(6561));
    }

    #[test]
    fn recursion_computes_factorial() {
        let mut p = ProgramBuilder::new("t");
        let fact = p.declare();
        let mut fb = p.function("fact", 1);
        let n = fb.param(0);
        let base = fb.new_block();
        let rec = fb.new_block();
        let c = fb.alu(AluOp::CmpLt, n, 2);
        fb.branch(c, base, rec);
        fb.switch_to(base);
        fb.ret(Some(1.into()));
        fb.switch_to(rec);
        let m = fb.alu(AluOp::Sub, n, 1);
        let sub = fb.call(fact, vec![m.into()]);
        let out = fb.alu(AluOp::Mul, n, sub);
        fb.ret(Some(out.into()));
        p.define(fact, fb);
        let mut f = p.function("main", 0);
        let r = f.call(fact, vec![10.into()]);
        f.ret(Some(r.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(3_628_800));
    }

    #[test]
    fn heap_pointers_work() {
        // Build a 3-node linked list on the heap and walk it.
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        // node: [value, next]
        let n1 = f.malloc(16);
        let n2 = f.malloc(16);
        let n3 = f.malloc(16);
        f.store_ptr(n1, 0, 10);
        f.store_ptr(n1, 8, n2);
        f.store_ptr(n2, 0, 20);
        f.store_ptr(n2, 8, n3);
        f.store_ptr(n3, 0, 30);
        f.store_ptr(n3, 8, 0);
        // walk
        let v1 = f.load_ptr(n1, 0);
        let p2 = f.load_ptr(n1, 8);
        let v2 = f.load_ptr(p2, 0);
        let p3 = f.load_ptr(p2, 8);
        let v3 = f.load_ptr(p3, 0);
        let s = f.alu(AluOp::Add, v1, v2);
        let s = f.alu(AluOp::Add, s, v3);
        f.free(n1);
        f.ret(Some(s.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(60));
    }

    #[test]
    fn float_path() {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        let half = f.fp_const(0.5);
        let three = f.int_to_fp(3);
        let v = f.alu(AluOp::FMul, three, half);
        let out = f.fp_to_int(v); // 1.5 -> 1
        f.ret(Some(out.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(1));
    }

    #[test]
    fn globals_initialized_and_mutable() {
        let mut p = ProgramBuilder::new("t");
        let g = p.global_init("k", 8, sz_ir::GlobalInit::U64(100));
        let arr = p.global("arr", 64);
        let mut f = p.function("main", 0);
        let k = f.load_global(g, 0);
        f.store_global(arr, 16, k);
        let v = f.load_global(arr, 16);
        f.ret(Some(v.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        assert_eq!(run(&prog).return_value, Some(100));
    }

    #[test]
    fn fuel_limit_stops_infinite_loops() {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        let spin = f.new_block();
        f.jump(spin);
        f.switch_to(spin);
        f.jump(spin);
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        let mut engine = SimpleLayout::new();
        let err = Vm::new(&prog)
            .run(
                &mut engine,
                MachineConfig::tiny(),
                RunLimits {
                    max_instructions: 1000,
                    max_stack_depth: 10,
                },
            )
            .unwrap_err();
        assert_eq!(err, VmError::OutOfFuel { limit: 1000 });
    }

    #[test]
    fn stack_depth_limit() {
        let mut p = ProgramBuilder::new("t");
        let f_id = p.declare();
        let mut fb = p.function("f", 0);
        let r = fb.call(f_id, vec![]);
        fb.ret(Some(r.into()));
        p.define(f_id, fb);
        let mut main = p.function("main", 0);
        main.call_void(f_id, vec![]);
        main.ret(None);
        let entry = p.add_function(main);
        let prog = p.finish(entry).unwrap();
        let mut engine = SimpleLayout::new();
        let err = Vm::new(&prog)
            .run(
                &mut engine,
                MachineConfig::tiny(),
                RunLimits {
                    max_instructions: 10_000_000,
                    max_stack_depth: 64,
                },
            )
            .unwrap_err();
        assert_eq!(err, VmError::StackOverflow { limit: 64 });
    }

    #[test]
    fn identical_runs_are_cycle_deterministic() {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        let s = f.slot();
        f.store_slot(s, 7);
        let v = f.load_slot(s);
        f.ret(Some(v.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        let a = run(&prog);
        let b = run(&prog);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn report_time_matches_cycles() {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main", 0);
        f.ret(None);
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();
        let r = run(&prog);
        let cfg = MachineConfig::tiny();
        assert!((r.time.as_nanos() - cfg.time_of(r.cycles).as_nanos()).abs() < 1e-9);
        assert!(r.cycles > 0);
    }

    #[test]
    fn matches_the_reference_interpreter_bit_for_bit() {
        // The in-module smoke version of tests/decode_equivalence.rs:
        // a loop with calls, heap, floats, and globals must produce an
        // identical RunReport under both interpreters.
        let mut p = ProgramBuilder::new("t");
        let g = p.global("table", 256);
        let mut leaf = p.function("leaf", 1);
        let x = leaf.param(0);
        let v = leaf.load_global(g, x);
        let w = leaf.alu(AluOp::Add, v, 3);
        leaf.store_global(g, x, w);
        leaf.ret(Some(w.into()));
        let leaf = p.add_function(leaf);
        let mut f = p.function("main", 0);
        let s = f.slot();
        f.store_slot(s, 0);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(header);
        f.switch_to(header);
        let i = f.load_slot(s);
        let c = f.alu(AluOp::CmpLt, i, 40);
        f.branch(c, body, exit);
        f.switch_to(body);
        let i = f.load_slot(s);
        let off = f.alu(AluOp::And, i, 31);
        let buf = f.malloc(32);
        f.store_ptr(buf, 0, off);
        f.call_void(leaf, vec![off.into()]);
        f.free(buf);
        let ni = f.alu(AluOp::Add, i, 1);
        f.store_slot(s, ni);
        f.jump(header);
        f.switch_to(exit);
        let out = f.load_slot(s);
        f.ret(Some(out.into()));
        let main = p.add_function(f);
        let prog = p.finish(main).unwrap();

        let mut e1 = SimpleLayout::new();
        let decoded = Vm::new(&prog)
            .run(&mut e1, MachineConfig::tiny(), RunLimits::default())
            .unwrap();
        let mut e2 = SimpleLayout::new();
        let reference = crate::reference::run_reference(
            &prog,
            &mut e2,
            MachineConfig::tiny(),
            RunLimits::default(),
        )
        .unwrap();
        assert_eq!(decoded, reference);
    }
}
