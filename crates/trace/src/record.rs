//! Dynamic instruction records with ground-truth memory dependences.

use nosq_isa::{ExecRecord, InstClass};

/// How completely the youngest producing store covers a load's bytes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Coverage {
    /// The single youngest store wrote every byte the load reads;
    /// bypassable by SMB (possibly with a shift, paper §3.5).
    Full,
    /// The load's bytes come from more than one store (or partly from
    /// memory): the narrow-store/wide-load case SMB cannot bypass
    /// because it cannot combine values from multiple sources
    /// (paper §3.3, "Delay").
    Partial,
}

/// Ground truth about the store that produced a load's value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemDep {
    /// Dynamic sequence number of the youngest older store writing any
    /// byte the load reads.
    pub store_seq: u64,
    /// Distance in dynamic stores: 0 means the most recent store renamed
    /// before the load (paper §3.1, `ld.distbyp = SSNrename - ld.SSNbyp`
    /// with 1-based SSNs).
    pub store_distance: u64,
    /// Distance in dynamic instructions (`load.seq - store.seq`).
    pub inst_distance: u64,
    /// Whether that store supplies all of the load's bytes.
    pub coverage: Coverage,
    /// `load.addr - store.addr` in bytes; meaningful for
    /// [`Coverage::Full`] (the shift amount SMB's shift&mask op needs).
    pub shift: u8,
    /// The producing store's access width in bytes.
    pub store_width: u8,
    /// Whether the producing store was an `sts` (float32 conversion).
    pub store_float32: bool,
}

/// One dynamic instruction as seen by the timing models.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DynInst {
    /// Dynamic sequence number (0-based, correct path only).
    pub seq: u64,
    /// The architectural execution record (PC, instruction, addresses,
    /// correct values, branch outcome).
    pub rec: ExecRecord,
    /// Cached instruction class.
    pub class: InstClass,
    /// Number of stores that precede this instruction in the dynamic
    /// stream. For a store this is also its 0-based store index; its SSN
    /// is `stores_before + 1`.
    pub stores_before: u64,
    /// For loads: the youngest older store writing any byte read, if any.
    pub mem_dep: Option<MemDep>,
}

impl DynInst {
    /// This instruction's SSN if it is a store (1-based, as in the paper's
    /// SVW scheme).
    pub fn store_ssn(&self) -> Option<u64> {
        (self.class == InstClass::Store).then_some(self.stores_before + 1)
    }

    /// For a load with a dependence, the SSN of the producing store.
    pub fn dep_ssn(&self) -> Option<u64> {
        self.mem_dep.map(|d| self.stores_before - d.store_distance)
    }

    /// Whether this load's communication involves a partial word on
    /// either side (paper Table 5's "partial-word" column: either the
    /// load or the store is less than eight bytes wide).
    pub fn is_partial_word_comm(&self) -> bool {
        match (&self.mem_dep, self.rec.inst.mem_width()) {
            (Some(dep), Some(w)) => dep.store_width < 8 || w.bytes() < 8,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nosq_isa::{Extension, Inst, MemWidth, Reg};

    fn load_record(width: MemWidth) -> ExecRecord {
        ExecRecord {
            pc: 0,
            inst: Inst::Load {
                rd: Reg::int(1),
                base: Reg::int(2),
                ofs: 0,
                width,
                ext: Extension::Zero,
            },
            addr: 0x100,
            load_value: 0,
            store_data: 0,
            store_mem_bits: 0,
            taken: false,
            next_pc: 4,
        }
    }

    #[test]
    fn ssn_is_one_based() {
        let store = DynInst {
            seq: 5,
            rec: ExecRecord {
                pc: 0,
                inst: Inst::Store {
                    data: Reg::int(1),
                    base: Reg::int(2),
                    ofs: 0,
                    width: MemWidth::B8,
                    float32: false,
                },
                addr: 0x100,
                load_value: 0,
                store_data: 7,
                store_mem_bits: 7,
                taken: false,
                next_pc: 4,
            },
            class: InstClass::Store,
            stores_before: 0,
            mem_dep: None,
        };
        assert_eq!(store.store_ssn(), Some(1));
    }

    #[test]
    fn dep_ssn_from_distance() {
        let load = DynInst {
            seq: 10,
            rec: load_record(MemWidth::B8),
            class: InstClass::Load,
            stores_before: 7,
            mem_dep: Some(MemDep {
                store_seq: 3,
                store_distance: 2,
                inst_distance: 7,
                coverage: Coverage::Full,
                shift: 0,
                store_width: 8,
                store_float32: false,
            }),
        };
        // 7 stores renamed; distance 2 => SSN 5.
        assert_eq!(load.dep_ssn(), Some(5));
    }

    #[test]
    fn partial_word_flag_checks_both_sides() {
        let mut load = DynInst {
            seq: 1,
            rec: load_record(MemWidth::B8),
            class: InstClass::Load,
            stores_before: 1,
            mem_dep: Some(MemDep {
                store_seq: 0,
                store_distance: 0,
                inst_distance: 1,
                coverage: Coverage::Full,
                shift: 0,
                store_width: 8,
                store_float32: false,
            }),
        };
        assert!(!load.is_partial_word_comm());
        load.mem_dep.as_mut().unwrap().store_width = 4;
        assert!(load.is_partial_word_comm());
        load.mem_dep.as_mut().unwrap().store_width = 8;
        load.rec.inst = load_record(MemWidth::B2).inst;
        assert!(load.is_partial_word_comm());
        load.mem_dep = None;
        assert!(!load.is_partial_word_comm());
    }
}
