//! Activation records (stack frames).
//!
//! A [`Frame`] is exactly the paper's unit of migration: method identity,
//! program counter, local variables, and an operand stack. SOD's key
//! invariant — established by the preprocessor's bytecode rearrangement — is
//! that at every migration-safe point the operand stack is *empty*, so a
//! captured frame is fully described by `(class, method, pc, locals)`.

use crate::value::Value;

/// One activation record.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Index of the class in the VM's loaded-class table.
    pub class_idx: usize,
    /// Index of the method within its class.
    pub method_idx: usize,
    /// Next instruction to execute (bytecode index).
    pub pc: u32,
    /// Local variable slots (arguments first).
    pub locals: Vec<Value>,
    /// Operand stack.
    pub ostack: Vec<Value>,
    /// Pinned frames may not migrate (the paper pins frames holding socket
    /// connections so the web server keeps its connections at home).
    pub pinned: bool,
}

impl Frame {
    pub fn new(class_idx: usize, method_idx: usize, nlocals: u16) -> Self {
        Frame {
            class_idx,
            method_idx,
            pc: 0,
            locals: vec![Value::Int(0); nlocals as usize],
            // Sized on demand: the interpreter reserves the method's
            // analysed `max_stack` when it pushes a callee frame.
            ostack: Vec::new(),
            pinned: false,
        }
    }

    /// Build a frame with arguments placed in the first local slots and the
    /// remaining slots zeroed, as the JVM does on invocation.
    pub fn with_args(class_idx: usize, method_idx: usize, nlocals: u16, args: &[Value]) -> Self {
        let mut f = Frame::new(class_idx, method_idx, nlocals);
        debug_assert!(args.len() <= nlocals as usize, "more args than locals");
        f.locals[..args.len()].copy_from_slice(args);
        f
    }

    /// Bytes of state in this frame (locals + operand stack), for the
    /// paper's state-size accounting.
    pub fn state_bytes(&self) -> u64 {
        (self.locals.len() + self.ostack.len()) as u64 * Value::SLOT_BYTES + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_fill_first_slots() {
        let f = Frame::with_args(0, 1, 4, &[Value::Int(7), Value::Num(1.5)]);
        assert_eq!(f.locals[0], Value::Int(7));
        assert_eq!(f.locals[1], Value::Num(1.5));
        assert_eq!(f.locals[2], Value::Int(0));
        assert_eq!(f.locals.len(), 4);
        assert_eq!(f.pc, 0);
        assert!(f.ostack.is_empty());
    }

    #[test]
    fn state_bytes_counts_locals_and_stack() {
        let mut f = Frame::new(0, 0, 2);
        assert_eq!(f.state_bytes(), 2 * 8 + 16);
        f.ostack.push(Value::Int(1));
        assert_eq!(f.state_bytes(), 3 * 8 + 16);
    }
}
