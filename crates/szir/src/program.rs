//! Whole programs, globals, and validation.

use crate::{FuncId, Function, Instr, IrError, Operand, Terminator};

/// The most registers plus distinct immediate values one function may
/// use. Every operand then has a 16-bit index into a window of the
/// function's registers followed by its constants, which is how the
/// interpreter addresses both uniformly.
pub const MAX_WINDOW: usize = 1 << 16;

/// Initial contents of a global.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalInit {
    /// Zero-initialized (BSS).
    Zero,
    /// An 8-byte floating-point constant (how STABILIZER materializes
    /// FP literals, §3.3).
    F64Bits(u64),
    /// An 8-byte integer constant.
    U64(u64),
}

/// A global data object.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Initial contents.
    pub init: GlobalInit,
}

/// A complete program: functions, globals, and an entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (benchmark name in the suite).
    pub name: String,
    /// All functions; index = [`FuncId`].
    pub functions: Vec<Function>,
    /// All globals; index = `GlobalId`.
    pub globals: Vec<Global>,
    /// The function executed first.
    pub entry: FuncId,
}

impl Program {
    /// Total encoded code size across all functions.
    pub fn code_size(&self) -> u64 {
        self.functions.iter().map(Function::code_size).sum()
    }

    /// Total size of global data in bytes.
    pub fn global_size(&self) -> u64 {
        self.globals.iter().map(|g| g.size).sum()
    }

    /// Total instruction count.
    pub fn instr_count(&self) -> usize {
        self.functions.iter().map(Function::instr_count).sum()
    }

    /// Checks structural invariants: every block, register, slot,
    /// global, and function reference is in range; entry exists; call
    /// arity matches callee parameter counts; parameters fit in the
    /// register frame; registers plus distinct immediate values fit
    /// [`MAX_WINDOW`].
    ///
    /// # Errors
    ///
    /// Returns the first violation found as an [`IrError`].
    pub fn validate(&self) -> Result<(), IrError> {
        if self.entry.0 as usize >= self.functions.len() {
            return Err(IrError::BadFunction { func: self.entry });
        }
        for (fi, f) in self.functions.iter().enumerate() {
            let func = FuncId(fi as u32);
            if f.blocks.is_empty() {
                return Err(IrError::EmptyFunction { func });
            }
            if f.params > f.num_regs {
                return Err(IrError::BadRegister {
                    func,
                    reg: crate::Reg(f.params - 1),
                });
            }
            for block in &f.blocks {
                for instr in &block.instrs {
                    self.validate_instr(func, f, instr)?;
                }
                for succ in block.term.successors() {
                    if succ.0 as usize >= f.blocks.len() {
                        return Err(IrError::BadBlock { func, block: succ });
                    }
                }
                if let Terminator::Branch { cond, .. } = &block.term {
                    self.validate_operand(func, f, cond)?;
                }
                if let Terminator::Ret { value: Some(v) } = &block.term {
                    self.validate_operand(func, f, v)?;
                }
            }
            // Counting with repeats bounds the distinct count from
            // above, so the set is only built for functions near the
            // cap.
            let mut total = usize::from(f.num_regs);
            for_each_immediate(f, |_| total += 1);
            if total > MAX_WINDOW {
                let mut distinct = std::collections::HashSet::new();
                for_each_immediate(f, |v| {
                    distinct.insert(v);
                });
                let window = usize::from(f.num_regs) + distinct.len();
                if window > MAX_WINDOW {
                    return Err(IrError::WindowTooWide { func, window });
                }
            }
        }
        Ok(())
    }

    fn validate_operand(&self, func: FuncId, f: &Function, op: &Operand) -> Result<(), IrError> {
        if let Operand::Reg(r) = op {
            if r.0 >= f.num_regs {
                return Err(IrError::BadRegister { func, reg: *r });
            }
        }
        Ok(())
    }

    fn validate_reg(&self, func: FuncId, f: &Function, r: crate::Reg) -> Result<(), IrError> {
        if r.0 >= f.num_regs {
            return Err(IrError::BadRegister { func, reg: r });
        }
        Ok(())
    }

    fn validate_instr(&self, func: FuncId, f: &Function, instr: &Instr) -> Result<(), IrError> {
        if let Some(d) = instr.def() {
            self.validate_reg(func, f, d)?;
        }
        for u in instr.uses() {
            self.validate_reg(func, f, u)?;
        }
        match instr {
            Instr::LoadSlot { slot, .. } | Instr::StoreSlot { slot, .. }
                if *slot >= f.num_slots =>
            {
                return Err(IrError::BadSlot { func, slot: *slot });
            }
            Instr::LoadGlobal { global, .. } | Instr::StoreGlobal { global, .. }
                if global.0 as usize >= self.globals.len() =>
            {
                return Err(IrError::BadGlobal {
                    func,
                    global: *global,
                });
            }
            Instr::Call {
                func: callee, args, ..
            } => {
                let Some(target) = self.functions.get(callee.0 as usize) else {
                    return Err(IrError::BadFunction { func: *callee });
                };
                if args.len() != usize::from(target.params) {
                    return Err(IrError::BadArity {
                        caller: func,
                        callee: *callee,
                        expected: target.params,
                        got: args.len(),
                    });
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// Calls `each` with the 64-bit pattern of every immediate `f` uses:
/// each `Operand::Imm` and each `fp_const` bit pattern.
fn for_each_immediate(f: &Function, mut each: impl FnMut(u64)) {
    let mut operand = |op: &Operand| {
        if let Operand::Imm(v) = op {
            each(*v as u64);
        }
    };
    for block in &f.blocks {
        for instr in &block.instrs {
            match instr {
                Instr::Alu { a, b, .. } => {
                    operand(a);
                    operand(b);
                }
                Instr::FpConst { bits, .. } => operand(&Operand::Imm(*bits as i64)),
                Instr::IntToFp { src, .. }
                | Instr::FpToInt { src, .. }
                | Instr::StoreSlot { src, .. }
                | Instr::StorePtr { src, .. } => operand(src),
                Instr::LoadGlobal { offset, .. } => operand(offset),
                Instr::StoreGlobal { src, offset, .. } => {
                    operand(src);
                    operand(offset);
                }
                Instr::Malloc { size, .. } => operand(size),
                Instr::Call { args, .. } => args.iter().for_each(&mut operand),
                Instr::LoadSlot { .. }
                | Instr::LoadPtr { .. }
                | Instr::Free { .. }
                | Instr::Nop { .. } => {}
            }
        }
        match &block.term {
            Terminator::Branch { cond, .. } => operand(cond),
            Terminator::Ret { value: Some(v) } => operand(v),
            Terminator::Ret { value: None } | Terminator::Jump(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Block, BlockId, GlobalId, Reg};

    fn minimal() -> Program {
        Program {
            name: "t".into(),
            functions: vec![Function {
                name: "main".into(),
                params: 0,
                num_regs: 1,
                num_slots: 0,
                blocks: vec![Block {
                    instrs: vec![],
                    term: Terminator::Ret { value: None },
                }],
            }],
            globals: vec![],
            entry: FuncId(0),
        }
    }

    #[test]
    fn minimal_program_validates() {
        assert_eq!(minimal().validate(), Ok(()));
    }

    #[test]
    fn detects_bad_entry() {
        let mut p = minimal();
        p.entry = FuncId(7);
        assert!(matches!(p.validate(), Err(IrError::BadFunction { .. })));
    }

    #[test]
    fn detects_out_of_range_register() {
        let mut p = minimal();
        p.functions[0].blocks[0].instrs.push(Instr::Alu {
            dst: Reg(5),
            op: AluOp::Add,
            a: Operand::Imm(0),
            b: Operand::Imm(0),
        });
        assert!(matches!(p.validate(), Err(IrError::BadRegister { .. })));
    }

    #[test]
    fn detects_bad_slot_global_block() {
        let mut p = minimal();
        p.functions[0].blocks[0].instrs.push(Instr::LoadSlot {
            dst: Reg(0),
            slot: 3,
        });
        assert!(matches!(p.validate(), Err(IrError::BadSlot { .. })));

        let mut p = minimal();
        p.functions[0].blocks[0].instrs.push(Instr::LoadGlobal {
            dst: Reg(0),
            global: GlobalId(0),
            offset: Operand::Imm(0),
        });
        assert!(matches!(p.validate(), Err(IrError::BadGlobal { .. })));

        let mut p = minimal();
        p.functions[0].blocks[0].term = Terminator::Jump(BlockId(9));
        assert!(matches!(p.validate(), Err(IrError::BadBlock { .. })));
    }

    #[test]
    fn detects_arity_mismatch() {
        let mut p = minimal();
        p.functions.push(Function {
            name: "callee".into(),
            params: 2,
            num_regs: 2,
            num_slots: 0,
            blocks: vec![Block {
                instrs: vec![],
                term: Terminator::Ret { value: None },
            }],
        });
        p.functions[0].blocks[0].instrs.push(Instr::Call {
            func: FuncId(1),
            args: vec![Operand::Imm(1)],
            ret: None,
        });
        assert!(matches!(
            p.validate(),
            Err(IrError::BadArity {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    /// A function of one register and `imms` distinct immediates.
    fn wide(imms: i64) -> Program {
        let mut p = minimal();
        p.functions[0].blocks[0].instrs = (0..imms)
            .map(|k| Instr::Alu {
                dst: Reg(0),
                op: AluOp::Add,
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(k),
            })
            .collect();
        p
    }

    #[test]
    fn caps_registers_plus_distinct_immediates() {
        let cap = MAX_WINDOW as i64;
        assert_eq!(wide(cap - 1).validate(), Ok(()), "exactly at the cap");
        assert_eq!(
            wide(cap).validate(),
            Err(IrError::WindowTooWide {
                func: FuncId(0),
                window: MAX_WINDOW + 1,
            })
        );
        // Repeats count once: many uses of one value stay far below.
        let mut p = wide(cap);
        for instr in &mut p.functions[0].blocks[0].instrs {
            if let Instr::Alu { b, .. } = instr {
                *b = Operand::Imm(7);
            }
        }
        assert_eq!(p.validate(), Ok(()));
        // `fp_const` bits share the 64-bit pattern space with integer
        // immediates.
        let mut p = wide(cap - 1);
        p.functions[0].blocks[0].instrs.push(Instr::FpConst {
            dst: Reg(0),
            bits: 5,
        });
        assert_eq!(p.validate(), Ok(()), "bits 5 == Imm(5)");
        p.functions[0].blocks[0].instrs.push(Instr::FpConst {
            dst: Reg(0),
            bits: u64::MAX - 5,
        });
        assert!(matches!(p.validate(), Err(IrError::WindowTooWide { .. })));
    }

    #[test]
    fn size_accounting() {
        let p = minimal();
        assert_eq!(p.code_size(), 1, "a single ret");
        assert_eq!(p.global_size(), 0);
        assert_eq!(p.instr_count(), 0);
    }
}
