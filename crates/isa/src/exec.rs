//! Architectural (functional) execution.
//!
//! The NoSQ simulator is functional-first: this executor runs a program to
//! produce the correct-path dynamic instruction stream, and the timing
//! models replay that stream. Each [`ArchState::step`] yields an
//! [`ExecRecord`] carrying the architecturally-correct values the timing
//! models need for value-based verification (paper §2.2, §3.4).

use crate::inst::{AluKind, Extension, Inst, MemWidth, Reg, Src};
use crate::mem::Memory;
use crate::program::Program;
use crate::INST_BYTES;

/// Execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The PC does not map to an instruction.
    UnmappedPc {
        /// The faulting PC.
        pc: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnmappedPc { pc } => write!(f, "unmapped pc {pc:#x}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The outcome of executing one dynamic instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ExecRecord {
    /// PC of the executed instruction.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// Effective address (memory operations only, else 0).
    pub addr: u64,
    /// Architecturally-correct load result, post-extension (loads only).
    pub load_value: u64,
    /// Raw data-register value (stores only) — the value SMB's
    /// short-circuited register would carry.
    pub store_data: u64,
    /// The low `width` bytes actually written to memory (stores only;
    /// differs from `store_data` for partial-word and `sts` stores).
    pub store_mem_bits: u64,
    /// Branch outcome (control instructions only; unconditional transfers
    /// report `true`).
    pub taken: bool,
    /// PC of the next dynamic instruction.
    pub next_pc: u64,
}

/// Full architectural machine state.
#[derive(Clone, Debug)]
pub struct ArchState {
    regs: [u64; Reg::COUNT],
    pc: u64,
    mem: Memory,
    halted: bool,
    retired: u64,
}

/// Applies the in-memory truncation a store performs on its data register.
///
/// For `sts` (`float32`), the register's binary64 value is converted to
/// binary32 bits (paper §3.5).
pub fn store_memory_bits(data: u64, width: MemWidth, float32: bool) -> u64 {
    if float32 {
        debug_assert_eq!(width, MemWidth::B4, "sts must be 4 bytes wide");
        return (f64::from_bits(data) as f32).to_bits() as u64;
    }
    match width {
        MemWidth::B8 => data,
        w => data & ((1u64 << (8 * w.bytes())) - 1),
    }
}

/// Applies the widening a load performs on raw memory bits.
///
/// For `lds` ([`Extension::Float32`]), the 4 memory bytes are binary32 and
/// the register receives the binary64 representation (paper §3.5).
pub fn load_extend(raw: u64, width: MemWidth, ext: Extension) -> u64 {
    match ext {
        Extension::Float32 => {
            debug_assert_eq!(width, MemWidth::B4, "lds must be 4 bytes wide");
            f64::from(f32::from_bits(raw as u32)).to_bits()
        }
        Extension::Zero => raw,
        Extension::Sign => match width {
            MemWidth::B1 => raw as u8 as i8 as i64 as u64,
            MemWidth::B2 => raw as u16 as i16 as i64 as u64,
            MemWidth::B4 => raw as u32 as i32 as i64 as u64,
            MemWidth::B8 => raw,
        },
    }
}

/// Evaluates an ALU operation (total: divide-by-zero yields 0).
pub fn alu_eval(kind: AluKind, a: u64, b: u64) -> u64 {
    match kind {
        AluKind::Add => a.wrapping_add(b),
        AluKind::Sub => a.wrapping_sub(b),
        AluKind::And => a & b,
        AluKind::Or => a | b,
        AluKind::Xor => a ^ b,
        AluKind::Shl => a.wrapping_shl(b as u32),
        AluKind::Shr => a.wrapping_shr(b as u32),
        AluKind::Sra => (a as i64).wrapping_shr(b as u32) as u64,
        AluKind::Slt => ((a as i64) < (b as i64)) as u64,
        AluKind::Sltu => (a < b) as u64,
        AluKind::Seq => (a == b) as u64,
        AluKind::Mul => a.wrapping_mul(b),
        AluKind::Div => {
            if b == 0 {
                0
            } else {
                (a as i64).wrapping_div(b as i64) as u64
            }
        }
        AluKind::FAdd => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
        AluKind::FSub => (f64::from_bits(a) - f64::from_bits(b)).to_bits(),
        AluKind::FMul => (f64::from_bits(a) * f64::from_bits(b)).to_bits(),
        AluKind::FDiv => (f64::from_bits(a) / f64::from_bits(b)).to_bits(),
        AluKind::IToF => ((a as i64) as f64).to_bits(),
        AluKind::FToI => (f64::from_bits(a) as i64) as u64,
    }
}

impl ArchState {
    /// Creates the initial state for `program`: all registers zero, PC at
    /// the entry point, memory holding the program's data segments.
    pub fn new(program: &Program) -> ArchState {
        ArchState {
            regs: [0; Reg::COUNT],
            pc: program.entry(),
            mem: program.initial_memory(),
            halted: false,
            retired: 0,
        }
    }

    /// Current PC.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether a [`Inst::Halt`] has been executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of retired dynamic instructions.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads an architectural register (the zero register reads 0).
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes an architectural register (zero-register writes are dropped).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Immutable view of memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    fn src_value(&self, src: Src) -> u64 {
        match src {
            Src::Reg(r) => self.reg(r),
            Src::Imm(i) => i as u64,
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnmappedPc`] if the PC leaves the program.
    /// Stepping a halted machine re-returns the halt record without
    /// advancing.
    pub fn step(&mut self, program: &Program) -> Result<ExecRecord, ExecError> {
        let pc = self.pc;
        let inst = *program.inst_at(pc).ok_or(ExecError::UnmappedPc { pc })?;
        let fall_through = pc + INST_BYTES;

        let mut rec = ExecRecord {
            pc,
            inst,
            addr: 0,
            load_value: 0,
            store_data: 0,
            store_mem_bits: 0,
            taken: false,
            next_pc: fall_through,
        };

        match inst {
            Inst::Alu { kind, rd, ra, src } => {
                let value = alu_eval(kind, self.reg(ra), self.src_value(src));
                self.set_reg(rd, value);
            }
            Inst::Load {
                rd,
                base,
                ofs,
                width,
                ext,
            } => {
                let addr = self.reg(base).wrapping_add(ofs as i64 as u64);
                let raw = self.mem.read(addr, width.bytes());
                let value = load_extend(raw, width, ext);
                self.set_reg(rd, value);
                rec.addr = addr;
                rec.load_value = value;
            }
            Inst::Store {
                data,
                base,
                ofs,
                width,
                float32,
            } => {
                let addr = self.reg(base).wrapping_add(ofs as i64 as u64);
                let reg_value = self.reg(data);
                let bits = store_memory_bits(reg_value, width, float32);
                self.mem.write(addr, width.bytes(), bits);
                rec.addr = addr;
                rec.store_data = reg_value;
                rec.store_mem_bits = bits;
            }
            Inst::Branch {
                cond,
                ra,
                rb,
                target,
            } => {
                rec.taken = cond.eval(self.reg(ra), self.reg(rb));
                if rec.taken {
                    rec.next_pc = target;
                }
            }
            Inst::Jump { target } => {
                rec.taken = true;
                rec.next_pc = target;
            }
            Inst::Call { target, link } => {
                self.set_reg(link, fall_through);
                rec.taken = true;
                rec.next_pc = target;
            }
            Inst::Ret { reg } => {
                rec.taken = true;
                rec.next_pc = self.reg(reg);
            }
            Inst::Halt => {
                self.halted = true;
                rec.next_pc = pc;
            }
        }

        if !self.halted {
            self.pc = rec.next_pc;
            self.retired += 1;
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Assembler;
    use crate::Cond;

    fn run(asm: Assembler) -> ArchState {
        let prog = asm.finish();
        let mut st = ArchState::new(&prog);
        for _ in 0..100_000 {
            if st.halted() {
                break;
            }
            st.step(&prog).unwrap();
        }
        assert!(st.halted(), "program did not halt");
        st
    }

    #[test]
    fn arithmetic_loop_sums() {
        let mut asm = Assembler::new();
        let (i, acc) = (Reg::int(1), Reg::int(2));
        asm.li(i, 10);
        let top = asm.label();
        asm.bind(top);
        asm.add(acc, acc, i);
        asm.addi(i, i, -1);
        asm.branch(Cond::Ne, i, Reg::ZERO, top);
        asm.halt();
        let st = run(asm);
        assert_eq!(st.reg(Reg::int(2)), 55);
    }

    #[test]
    fn store_load_roundtrip_partial_words() {
        let mut asm = Assembler::new();
        let (base, v, out) = (Reg::int(1), Reg::int(2), Reg::int(3));
        asm.li(base, 0x1000);
        asm.li(v, -2i64); // 0xFFFF_FFFF_FFFF_FFFE
        asm.store(v, base, 0, MemWidth::B2);
        asm.load(out, base, 0, MemWidth::B2, Extension::Sign);
        asm.halt();
        let st = run(asm);
        assert_eq!(st.reg(Reg::int(3)), (-2i64) as u64);
    }

    #[test]
    fn zero_extension_of_partial_load() {
        let mut asm = Assembler::new();
        let (base, v, out) = (Reg::int(1), Reg::int(2), Reg::int(3));
        asm.li(base, 0x1000);
        asm.li(v, 0xFFFF);
        asm.store(v, base, 0, MemWidth::B1);
        asm.load(out, base, 0, MemWidth::B1, Extension::Zero);
        asm.halt();
        let st = run(asm);
        assert_eq!(st.reg(Reg::int(3)), 0xFF);
    }

    #[test]
    fn narrow_load_of_wide_store_reads_shifted_bytes() {
        let mut asm = Assembler::new();
        let (base, v, out) = (Reg::int(1), Reg::int(2), Reg::int(3));
        asm.li(base, 0x1000);
        asm.li(v, 0x1122_3344_5566_7788);
        asm.store(v, base, 0, MemWidth::B8);
        asm.load(out, base, 4, MemWidth::B2, Extension::Zero);
        asm.halt();
        let st = run(asm);
        assert_eq!(st.reg(Reg::int(3)), 0x3344);
    }

    #[test]
    fn lds_sts_roundtrip_converts_precision() {
        let mut asm = Assembler::new();
        let (base, f, out) = (Reg::int(1), Reg::float(0), Reg::float(1));
        asm.li(base, 0x2000);
        asm.li(f, 1.5f64.to_bits() as i64);
        asm.sts(f, base, 0);
        asm.lds(out, base, 0);
        asm.halt();
        let st = run(asm);
        assert_eq!(f64::from_bits(st.reg(Reg::float(1))), 1.5);
    }

    #[test]
    fn sts_narrows_precision() {
        // A value not representable in f32 loses precision through memory.
        let precise = 1.0f64 + 1e-12;
        let mut asm = Assembler::new();
        let (base, f, out) = (Reg::int(1), Reg::float(0), Reg::float(1));
        asm.li(base, 0x2000);
        asm.li(f, precise.to_bits() as i64);
        asm.sts(f, base, 0);
        asm.lds(out, base, 0);
        asm.halt();
        let st = run(asm);
        let roundtripped = f64::from_bits(st.reg(Reg::float(1)));
        assert_eq!(roundtripped, f64::from(precise as f32));
        assert_ne!(roundtripped, precise);
    }

    #[test]
    fn call_and_ret_link() {
        let mut asm = Assembler::new();
        let fun = asm.label();
        let done = asm.label();
        asm.call(fun);
        asm.jump(done);
        asm.bind(fun);
        asm.li(Reg::int(5), 99);
        asm.ret();
        asm.bind(done);
        asm.halt();
        let st = run(asm);
        assert_eq!(st.reg(Reg::int(5)), 99);
    }

    #[test]
    fn div_by_zero_is_total() {
        assert_eq!(alu_eval(AluKind::Div, 10, 0), 0);
        assert_eq!(alu_eval(AluKind::Div, 10, 3), 3);
        assert_eq!(alu_eval(AluKind::Div, (-10i64) as u64, 3), (-3i64) as u64);
    }

    #[test]
    fn unmapped_pc_errors() {
        let mut asm = Assembler::new();
        asm.li(Reg::int(0), 1); // falls off the end
        let prog = asm.finish();
        let mut st = ArchState::new(&prog);
        st.step(&prog).unwrap();
        assert!(matches!(
            st.step(&prog),
            Err(ExecError::UnmappedPc { pc: 4 })
        ));
    }

    #[test]
    fn halt_is_sticky() {
        let mut asm = Assembler::new();
        asm.halt();
        let prog = asm.finish();
        let mut st = ArchState::new(&prog);
        st.step(&prog).unwrap();
        assert!(st.halted());
        let retired = st.retired();
        st.step(&prog).unwrap();
        assert_eq!(st.retired(), retired);
    }

    #[test]
    fn store_memory_bits_truncates_and_converts() {
        assert_eq!(store_memory_bits(0xABCD, MemWidth::B1, false), 0xCD);
        assert_eq!(
            store_memory_bits(0x1122_3344_5566_7788, MemWidth::B8, false),
            0x1122_3344_5566_7788
        );
        let bits = store_memory_bits(2.0f64.to_bits(), MemWidth::B4, true);
        assert_eq!(f32::from_bits(bits as u32), 2.0);
    }
}
