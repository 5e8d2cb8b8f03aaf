//! IR validation errors.

use crate::{BlockId, FuncId, GlobalId, Reg};

/// A structural defect found by [`crate::Program::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrError {
    /// A function reference is out of range.
    BadFunction {
        /// The offending reference.
        func: FuncId,
    },
    /// A function has no blocks.
    EmptyFunction {
        /// The offending function.
        func: FuncId,
    },
    /// A block reference is out of range.
    BadBlock {
        /// Function containing the reference.
        func: FuncId,
        /// The offending block id.
        block: BlockId,
    },
    /// A register index exceeds the function's register frame.
    BadRegister {
        /// Function containing the reference.
        func: FuncId,
        /// The offending register.
        reg: Reg,
    },
    /// A stack slot index exceeds the function's frame.
    BadSlot {
        /// Function containing the reference.
        func: FuncId,
        /// The offending slot index.
        slot: u32,
    },
    /// A global reference is out of range.
    BadGlobal {
        /// Function containing the reference.
        func: FuncId,
        /// The offending global id.
        global: GlobalId,
    },
    /// A call passes the wrong number of arguments.
    BadArity {
        /// Calling function.
        caller: FuncId,
        /// Called function.
        callee: FuncId,
        /// Parameters the callee declares.
        expected: u16,
        /// Arguments the call passes.
        got: usize,
    },
    /// A function's registers plus distinct immediate values exceed
    /// [`crate::MAX_WINDOW`], so its operands cannot all be addressed
    /// by 16-bit indices.
    WindowTooWide {
        /// The offending function.
        func: FuncId,
        /// Registers plus distinct immediate values.
        window: usize,
    },
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::BadFunction { func } => write!(f, "function reference {func} out of range"),
            IrError::EmptyFunction { func } => write!(f, "function {func} has no blocks"),
            IrError::BadBlock { func, block } => {
                write!(f, "block reference {block} out of range in {func}")
            }
            IrError::BadRegister { func, reg } => {
                write!(f, "register {reg} out of range in {func}")
            }
            IrError::BadSlot { func, slot } => {
                write!(f, "stack slot {slot} out of range in {func}")
            }
            IrError::BadGlobal { func, global } => {
                write!(f, "global reference {global} out of range in {func}")
            }
            IrError::BadArity {
                caller,
                callee,
                expected,
                got,
            } => write!(
                f,
                "call from {caller} to {callee} passes {got} arguments, expected {expected}"
            ),
            IrError::WindowTooWide { func, window } => write!(
                f,
                "{func} needs {window} registers plus distinct immediates, more than {}",
                crate::MAX_WINDOW
            ),
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = IrError::BadArity {
            caller: FuncId(0),
            callee: FuncId(1),
            expected: 2,
            got: 3,
        };
        assert_eq!(
            e.to_string(),
            "call from @0 to @1 passes 3 arguments, expected 2"
        );
    }
}
