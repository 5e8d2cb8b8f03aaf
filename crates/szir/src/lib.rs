//! A register-machine intermediate representation with byte-accurate
//! code layout.
//!
//! The paper's subject programs are native binaries whose instruction
//! addresses, stack addresses, and heap addresses flow through
//! address-indexed hardware. This IR plays that role in the
//! reproduction: every instruction has an encoded byte size (so
//! function placement determines fetch addresses), every function has a
//! frame of stack slots (so stack placement determines data addresses),
//! and allocation is explicit (so the heap allocator determines object
//! addresses).
//!
//! Programs are built with [`ProgramBuilder`]/[`FunctionBuilder`] and
//! validated with [`Program::validate`]. Execution lives in the
//! `sz-vm` crate; optimization passes in `sz-opt`.
//!
//! # Examples
//!
//! ```
//! use sz_ir::{AluOp, Operand, ProgramBuilder};
//!
//! let mut p = ProgramBuilder::new("demo");
//! let mut f = p.function("main", 0);
//! let x = f.alu(AluOp::Add, Operand::Imm(2), Operand::Imm(3));
//! f.ret(Some(Operand::Reg(x)));
//! let main = p.add_function(f);
//! let program = p.finish(main)?;
//! assert_eq!(program.functions.len(), 1);
//! # Ok::<(), sz_ir::IrError>(())
//! ```

mod builder;
mod error;
mod func;
mod instr;
mod program;

pub use builder::{FunctionBuilder, ProgramBuilder};
pub use error::IrError;
pub use func::{Block, CodeElem, CodeLayout, Function};
pub use instr::{AluOp, Instr, Operand, Terminator};
pub use program::{Global, GlobalInit, Program, MAX_WINDOW};

/// Index of a function within its [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Index of a basic block within its [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Index of a global within its [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

/// A virtual register within a function frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

impl std::fmt::Display for FuncId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl std::fmt::Display for GlobalId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}
