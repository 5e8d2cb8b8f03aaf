//! The pre-decoded dispatch rewrite must be *invisible*: for every
//! engine configuration the seven experiments use (table1, fig5, fig6,
//! fig7, anova, nist, bias), the decoded interpreter and the reference
//! interpreter must produce bit-identical `RunReport`s — total
//! counters AND per-period snapshots. Plus decoder golden/property
//! tests pinning the decoded metadata to the `CodeLayout` ground
//! truth.

use stabilizer::{prepare_program, Config, Stabilizer};
use sz_ir::{
    AluOp, Block, BlockId, FuncId, Function, Instr, IrError, Operand, Program, ProgramBuilder, Reg,
    Terminator, MAX_WINDOW,
};
use sz_link::{LinkOrder, LinkedLayout};
use sz_machine::{MachineConfig, SimTime};
use sz_opt::{optimize, OptLevel};
use sz_vm::{reference::run_reference, LayoutEngine, OpKind, RunLimits, SimpleLayout, Vm};
use sz_workloads::Scale;

/// Runs one program under one engine through both interpreters and
/// asserts the reports are equal in every field.
fn assert_bit_identical(
    program: &Program,
    mut a: Box<dyn LayoutEngine>,
    mut b: Box<dyn LayoutEngine>,
    machine: MachineConfig,
    label: &str,
) {
    let decoded = Vm::new(program).run(a.as_mut(), machine, RunLimits::default());
    let reference = run_reference(program, b.as_mut(), machine, RunLimits::default());
    let decoded = decoded.unwrap_or_else(|e| panic!("{label}: decoded run failed: {e}"));
    let reference = reference.unwrap_or_else(|e| panic!("{label}: reference run failed: {e}"));
    assert_eq!(
        decoded.counters, reference.counters,
        "{label}: PerfCounters diverged"
    );
    assert_eq!(
        decoded.periods, reference.periods,
        "{label}: per-period snapshots diverged"
    );
    assert_eq!(decoded, reference, "{label}: RunReport diverged");
}

/// The experiments' engine configurations, one probe per experiment.
///
/// - **bias** pins the conventional world: fixed link order plus an
///   environment-size shift.
/// - **fig5** samples link orders.
/// - **table1** compares one-time vs re-randomized STABILIZER.
/// - **fig6** sweeps the three randomization subsets.
/// - **fig7** runs optimizer output under full randomization.
/// - **anova/nist** use the same full-randomization engine on further
///   benchmarks; the probes vary the workload.
#[test]
fn all_seven_experiment_configs_are_bit_identical() {
    let machine = MachineConfig::core_i3_550();
    // Short interval so the probe actually crosses re-randomization
    // period boundaries and the periods vector has real content.
    let fast = SimTime::from_nanos(6_000.0);

    let bzip2 = sz_workloads::build("bzip2", Scale::Tiny).unwrap();
    let mcf = sz_workloads::build("mcf", Scale::Tiny).unwrap();
    let sjeng = sz_workloads::build("sjeng", Scale::Tiny).unwrap();

    // bias: default link order with environment bytes.
    let linked = |order: LinkOrder, env: u64| -> Box<dyn LayoutEngine> {
        Box::new(
            LinkedLayout::builder()
                .link_order(order)
                .env_bytes(env)
                .build(),
        )
    };
    assert_bit_identical(
        &bzip2,
        linked(LinkOrder::Default, 128),
        linked(LinkOrder::Default, 128),
        machine,
        "bias: linked default + env",
    );
    // fig5: shuffled link order.
    assert_bit_identical(
        &bzip2,
        linked(LinkOrder::Shuffled { seed: 7 }, 0),
        linked(LinkOrder::Shuffled { seed: 7 }, 0),
        machine,
        "fig5: linked shuffled",
    );

    // STABILIZER configurations share one prepared program.
    let stab = |program: &Program, config: Config, label: &str| {
        let (prepared, info) = prepare_program(program);
        let mk = || -> Box<dyn LayoutEngine> {
            Box::new(Stabilizer::new(
                config.clone().with_seed(42),
                &machine,
                &info,
            ))
        };
        assert_bit_identical(&prepared, mk(), mk(), machine, label);
    };
    // table1: one-time and re-randomized.
    stab(&bzip2, Config::one_time(), "table1: one-time");
    stab(
        &bzip2,
        Config::default().with_interval(fast),
        "table1: re-randomized",
    );
    // fig6: the randomization subsets.
    stab(&mcf, Config::code_only().with_interval(fast), "fig6: code");
    stab(
        &mcf,
        Config::code_stack().with_interval(fast),
        "fig6: code.stack",
    );
    stab(
        &mcf,
        Config::default().with_interval(fast),
        "fig6: code.heap.stack",
    );
    // fig7: optimizer output under full randomization.
    for (lv, name) in [
        (OptLevel::O1, "O1"),
        (OptLevel::O2, "O2"),
        (OptLevel::O3, "O3"),
    ] {
        let p = optimize(&bzip2, lv);
        stab(
            &p,
            Config::default().with_interval(fast),
            &format!("fig7: {name}"),
        );
    }
    // anova / nist: full randomization on further workloads.
    stab(
        &sjeng,
        Config::default().with_interval(fast),
        "anova: sjeng",
    );
    stab(&mcf, Config::one_time(), "nist: mcf one-time");
}

/// Property: decoded per-op metadata equals the `CodeLayout` path for
/// every function of every suite benchmark.
#[test]
fn decoded_metadata_matches_layout_for_the_whole_suite() {
    for spec in sz_workloads::suite() {
        let program = spec.program(Scale::Tiny);
        let vm = Vm::new(&program);
        for (func, decoded) in program.functions.iter().zip(vm.decoded_funcs()) {
            let layout = func.layout();
            assert_eq!(decoded.num_regs, func.num_regs);
            assert_eq!(decoded.frame_bytes, func.frame_bytes());
            assert_eq!(
                decoded.ops.len(),
                func.instr_count() + func.blocks.len(),
                "{}: stream must cover every instr + terminator",
                spec.name
            );
            for (bi, block) in func.blocks.iter().enumerate() {
                let start = decoded.block_starts[bi] as usize;
                for (ii, instr) in block.instrs.iter().enumerate() {
                    let op = &decoded.ops[start + ii];
                    assert_eq!(op.pc, layout.instr_offsets[bi][ii], "{}", spec.name);
                    assert_eq!(u64::from(op.size), instr.encoded_size(), "{}", spec.name);
                    assert_eq!(u64::from(op.cycles), instr.base_cycles(), "{}", spec.name);
                }
                let term = &decoded.ops[start + block.instrs.len()];
                assert_eq!(
                    term.pc,
                    layout.terminator_offset(BlockId(bi as u32)),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    u64::from(term.size),
                    block.term.encoded_size(),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    u64::from(term.cycles),
                    block.term.base_cycles(),
                    "{}",
                    spec.name
                );
            }
        }
    }
}

/// Property: for every function of every suite benchmark, the decoded
/// fetch spans partition the stream, break exactly at control
/// transfers and engine-visible ops, carry correct extents and
/// latency sums, and start at every dispatchable index — the
/// structural facts the batched interpreter's exactness argument
/// rests on.
#[test]
fn fetch_spans_partition_every_suite_function() {
    let breaking = |k: &OpKind| {
        matches!(
            k,
            OpKind::Malloc { .. }
                | OpKind::Free { .. }
                | OpKind::Call { .. }
                | OpKind::Jump { .. }
                | OpKind::Branch { .. }
                | OpKind::Ret { .. }
        )
    };
    for spec in sz_workloads::suite() {
        let program = spec.program(Scale::Tiny);
        let vm = Vm::new(&program);
        for d in vm.decoded_funcs() {
            assert_eq!(d.span_of.len(), d.ops.len(), "{}", spec.name);
            let mut next = 0u32;
            for span in &d.spans {
                assert_eq!(span.start, next, "{}: contiguous spans", spec.name);
                assert!(span.count >= 1, "{}", spec.name);
                next += span.count;
                let ops = &d.ops[span.start as usize..next as usize];
                let (mid, last) = ops.split_at(ops.len() - 1);
                assert!(breaking(&last[0].kind), "{}: span ends breaking", spec.name);
                assert!(
                    mid.iter().all(|op| !breaking(&op.kind)),
                    "{}: breaking op mid-span",
                    spec.name
                );
                assert_eq!(span.first_pc, ops[0].pc, "{}", spec.name);
                assert_eq!(
                    span.end_pc,
                    last[0].pc + u64::from(last[0].size),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    span.base_cycles,
                    ops.iter().map(|op| u64::from(op.cycles)).sum::<u64>(),
                    "{}",
                    spec.name
                );
            }
            assert_eq!(next as usize, d.ops.len(), "{}: full coverage", spec.name);
            // Every dispatchable index is a span start: block starts
            // (jump/branch targets) and call continuations.
            for &bs in &d.block_starts {
                assert_eq!(
                    d.spans[d.span_of[bs as usize] as usize].start, bs,
                    "{}: block start mid-span",
                    spec.name
                );
            }
            for (i, op) in d.ops.iter().enumerate() {
                if matches!(op.kind, OpKind::Call { .. }) && i + 1 < d.ops.len() {
                    assert_eq!(
                        d.spans[d.span_of[i + 1] as usize].start as usize,
                        i + 1,
                        "{}: call continuation mid-span",
                        spec.name
                    );
                }
            }
        }
    }
}

/// Golden snapshot: the decoded stream of one small program, op by op.
/// Any change to instruction sizes, latencies, or decode lowering
/// shows up here first.
#[test]
fn golden_decoded_stream() {
    let mut p = ProgramBuilder::new("golden");
    let mut f = p.function("main", 0);
    let s = f.slot();
    f.store_slot(s, 5); // pc 0, size 4, 1 cycle
    let header = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    f.jump(header); // pc 4, size 5, 1 cycle
    f.switch_to(header);
    let i = f.load_slot(s); // pc 9, size 4, 1 cycle
    let c = f.alu(AluOp::CmpLt, i, 10); // pc 13, size 5 (imm), 1 cycle
    f.branch(c, body, exit); // pc 18, size 6, 1 cycle
    f.switch_to(body);
    let ni = f.alu(AluOp::Add, i, 1); // pc 24, size 5, 1 cycle
    f.store_slot(s, ni); // pc 29, size 4, 1 cycle
    f.jump(header); // pc 33, size 5, 1 cycle
    f.switch_to(exit);
    f.ret(Some(i.into())); // pc 38, size 1, 1 cycle
    let main = p.add_function(f);
    let prog = p.finish(main).unwrap();

    let vm = Vm::new(&prog);
    let d = &vm.decoded_funcs()[0];
    assert_eq!(d.block_starts, vec![0, 2, 5, 8]);
    assert_eq!(d.num_regs, 3);
    assert_eq!(d.frame_bytes, 8);

    let expected: Vec<(u64, u32, u32)> = vec![
        (0, 4, 1),  // store_slot
        (4, 5, 1),  // jump -> header
        (9, 4, 1),  // load_slot
        (13, 5, 1), // cmp imm
        (18, 6, 1), // branch
        (24, 5, 1), // add imm
        (29, 4, 1), // store_slot
        (33, 5, 1), // jump -> header
        (38, 1, 1), // ret
    ];
    let got: Vec<(u64, u32, u32)> = d.ops.iter().map(|op| (op.pc, op.size, op.cycles)).collect();
    assert_eq!(got, expected);

    // Control flow is pre-resolved to flat indices.
    assert!(matches!(d.ops[1].kind, OpKind::Jump { target: 2 }));
    assert!(matches!(
        d.ops[4].kind,
        OpKind::Branch {
            taken: 5,
            not_taken: 8,
            ..
        }
    ));
    assert!(matches!(d.ops[7].kind, OpKind::Jump { target: 2 }));
    assert!(matches!(d.ops[8].kind, OpKind::Ret { .. }));
    // Slot accesses are pre-scaled to byte offsets.
    assert!(matches!(
        d.ops[0].kind,
        OpKind::StoreSlot { byte_off: 0, .. }
    ));
}

/// A function of one register whose body adds `imms` distinct
/// immediates into it, so its window is `1 + imms`.
fn wide_window(imms: i64) -> Program {
    let instrs = (0..imms)
        .map(|k| Instr::Alu {
            dst: Reg(0),
            op: AluOp::Add,
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(k),
        })
        .collect();
    Program {
        name: "wide".into(),
        functions: vec![Function {
            name: "main".into(),
            params: 0,
            num_regs: 1,
            num_slots: 0,
            blocks: vec![Block {
                instrs,
                term: Terminator::Ret {
                    value: Some(Operand::Reg(Reg(0))),
                },
            }],
        }],
        globals: vec![],
        entry: FuncId(0),
    }
}

/// Span bodies address registers and interned constants through one
/// 16-bit window index, so `Program::validate` caps registers plus
/// distinct immediates at `MAX_WINDOW`. One past the cap is rejected;
/// exactly at the cap the last constant lands on index 65,535 and the
/// run is bit-identical to the reference.
#[test]
fn window_cap_is_validated_and_a_function_at_the_cap_runs_identically() {
    let cap = MAX_WINDOW as i64;
    assert!(matches!(
        wide_window(cap).validate(),
        Err(IrError::WindowTooWide { window, .. }) if window == MAX_WINDOW + 1
    ));

    let program = wide_window(cap - 1);
    assert_eq!(program.validate(), Ok(()));
    let vm = Vm::new(&program);
    let d = &vm.decoded_funcs()[0];
    assert_eq!(usize::from(d.num_regs) + d.consts.len(), MAX_WINDOW);
    assert_bit_identical(
        &program,
        Box::new(SimpleLayout::new()),
        Box::new(SimpleLayout::new()),
        MachineConfig::core_i3_550(),
        "window at the cap",
    );
    let report = vm
        .run(
            &mut SimpleLayout::new(),
            MachineConfig::core_i3_550(),
            RunLimits::default(),
        )
        .unwrap();
    assert_eq!(report.return_value, Some((0..cap as u64 - 1).sum()));
}
