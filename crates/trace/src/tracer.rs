//! Streaming functional tracer with online dependence analysis.

use std::ops::Range;

use nosq_isa::exec::store_memory_bits;
use nosq_isa::{ArchState, ExecRecord, Inst, InstClass, Program, INST_BYTES};

use crate::lastwriter::{ByteWriter, LastWriterMap};
use crate::record::{Coverage, DynInst, MemDep};

/// The tracer's last-writer map slot: owned by default, borrowed from a
/// reusable arena via [`Tracer::with_arena`].
enum MapSlot<'m> {
    Owned(LastWriterMap),
    Borrowed(&'m mut LastWriterMap),
}

impl MapSlot<'_> {
    fn get(&self) -> &LastWriterMap {
        match self {
            MapSlot::Owned(m) => m,
            MapSlot::Borrowed(m) => m,
        }
    }

    fn get_mut(&mut self) -> &mut LastWriterMap {
        match self {
            MapSlot::Owned(m) => m,
            MapSlot::Borrowed(m) => m,
        }
    }
}

/// Streams the correct-path dynamic instruction sequence of a program,
/// annotating each load with its ground-truth producing store.
///
/// The tracer maintains a per-byte last-writer map (the paged,
/// epoch-stamped [`LastWriterMap`]), so it reports the youngest older
/// store writing any byte a load reads, the distance to it in dynamic
/// stores and instructions, whether it covers the whole load
/// ([`Coverage`]), and the byte shift — everything the bypassing
/// predictor's oracle variant and the verification logic need.
///
/// A tracer allocates its map internally by default; callers that trace
/// many programs back to back (the lab's campaign workers, the bench
/// harnesses) pass a persistent map through [`Tracer::with_arena`] so
/// each new trace starts with an O(1) epoch reset instead of fresh
/// allocations.
///
/// ```
/// use nosq_isa::{Assembler, Reg, MemWidth, Extension};
/// use nosq_trace::Tracer;
///
/// let mut asm = Assembler::new();
/// let (b, v) = (Reg::int(1), Reg::int(2));
/// asm.li(b, 0x1000);
/// asm.li(v, 7);
/// asm.store(v, b, 0, MemWidth::B8);
/// asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
/// asm.halt();
/// let prog = asm.finish();
///
/// let insts: Vec<_> = Tracer::new(&prog, 100).collect();
/// let load = insts
///     .iter()
///     .find(|d| d.class == nosq_isa::InstClass::Load)
///     .unwrap();
/// let dep = load.mem_dep.unwrap();
/// assert_eq!(dep.store_distance, 0); // most recent store
/// assert_eq!(dep.inst_distance, 1);
/// ```
pub struct Tracer<'p> {
    program: &'p Program,
    state: ArchState,
    seq: u64,
    stores: u64,
    last_writer: MapSlot<'p>,
    max_insts: u64,
    error: Option<nosq_isa::ExecError>,
}

impl<'p> Tracer<'p> {
    /// Creates a tracer that yields at most `max_insts` dynamic
    /// instructions (the halt instruction, if reached, is yielded and
    /// ends the stream).
    pub fn new(program: &'p Program, max_insts: u64) -> Tracer<'p> {
        Tracer::build(program, max_insts, MapSlot::Owned(LastWriterMap::new()))
    }

    /// Creates a tracer that borrows a reusable [`LastWriterMap`]
    /// instead of allocating one. The map is [reset](LastWriterMap::reset)
    /// (O(1)) before tracing starts, so any previous program's writers
    /// are invisible; its page buffers are recycled.
    pub fn with_arena(
        program: &'p Program,
        max_insts: u64,
        map: &'p mut LastWriterMap,
    ) -> Tracer<'p> {
        map.reset();
        Tracer::build(program, max_insts, MapSlot::Borrowed(map))
    }

    fn build(program: &'p Program, max_insts: u64, last_writer: MapSlot<'p>) -> Tracer<'p> {
        Tracer {
            program,
            state: ArchState::new(program),
            seq: 0,
            stores: 0,
            last_writer,
            max_insts,
            error: None,
        }
    }

    /// The architectural state reached so far (for end-state checks).
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// An execution error, if one stopped the stream.
    pub fn error(&self) -> Option<&nosq_isa::ExecError> {
        self.error.as_ref()
    }
}

/// A recorded correct-path trace, replayable by any number of timing
/// simulations.
///
/// The dynamic stream a [`Tracer`] produces depends only on the program
/// and the instruction budget — never on the timing configuration — so
/// an evaluation sweeping several pipeline configurations over one
/// workload can pay for functional execution and dependence analysis
/// *once* and replay the buffer for every configuration
/// (`Simulator::replay*` in `nosq-core`). Replay is bit-identical to
/// live tracing by construction.
///
/// Each instruction is stored as a record of at most 32 bytes holding
/// only what cannot be derived from the program or the neighbouring
/// records; [`TraceBuffer::inst`] decodes a record back into the
/// [`DynInst`] the tracer produced, field for field.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    records: Vec<Packed>,
    /// The program's static instructions, indexed by [`Packed::code`].
    code: Vec<StaticInst>,
    /// The last record's `next_pc` (every other record's `next_pc` is
    /// its successor's PC).
    end_pc: u64,
    max_insts: u64,
}

/// One entry of a trace's code table.
#[derive(Copy, Clone, Debug)]
struct StaticInst {
    pc: u64,
    inst: Inst,
    class: InstClass,
}

/// One recorded instruction. `seq` is the record's position, `next_pc`
/// the next record's PC, and `store_mem_bits` is recomputed from the
/// store data with [`store_memory_bits`]. A load's producing store is
/// found `dep_distance` records back, and supplies the dependence's
/// store distance, width and `sts` flag.
#[derive(Copy, Clone, Debug)]
struct Packed {
    /// Effective address (memory operations only, else 0).
    addr: u64,
    /// The load value or the store data (memory operations only).
    value: u64,
    /// Index into the trace's code table (`pc / INST_BYTES`).
    code: u32,
    stores_before: u32,
    /// `MemDep::inst_distance`; 0 when the load has no producing store
    /// (a producer is always at least one instruction older).
    dep_distance: u32,
    /// `MemDep::shift`.
    shift: u8,
    /// [`TAKEN`] | [`PARTIAL`].
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Packed>() <= 32);

/// A placeholder for [`TraceBuffer::decode_into`] to overwrite.
const BLANK: DynInst = DynInst {
    seq: 0,
    rec: ExecRecord {
        pc: 0,
        inst: Inst::Halt,
        addr: 0,
        load_value: 0,
        store_data: 0,
        store_mem_bits: 0,
        taken: false,
        next_pc: 0,
    },
    class: InstClass::Halt,
    stores_before: 0,
    mem_dep: None,
};

/// `ExecRecord::taken`.
const TAKEN: u8 = 1;
/// `MemDep::coverage` is [`Coverage::Partial`].
const PARTIAL: u8 = 2;

/// Narrows a recorded count to a record's 32-bit field, refusing
/// (never wrapping) one that does not fit.
fn narrow(value: u64, what: &str) -> u32 {
    u32::try_from(value)
        .unwrap_or_else(|_| panic!("{what} {value} does not fit a 32-bit trace record field"))
}

impl Packed {
    fn pack(d: &DynInst) -> Packed {
        let value = match d.class {
            InstClass::Load => d.rec.load_value,
            InstClass::Store => d.rec.store_data,
            _ => 0,
        };
        let mut flags = if d.rec.taken { TAKEN } else { 0 };
        let (dep_distance, shift) = match d.mem_dep {
            Some(dep) => {
                if dep.coverage == Coverage::Partial {
                    flags |= PARTIAL;
                }
                (narrow(dep.inst_distance, "dependence distance"), dep.shift)
            }
            None => (0, 0),
        };
        Packed {
            addr: d.rec.addr,
            value,
            code: narrow(d.rec.pc / INST_BYTES, "static instruction index"),
            stores_before: narrow(d.stores_before, "store count"),
            dep_distance,
            shift,
            flags,
        }
    }
}

impl TraceBuffer {
    /// Records the trace of `program`, up to `max_insts` dynamic
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if a count the record narrows to 32 bits (stores before
    /// an instruction, a dependence distance) does not fit.
    pub fn record(program: &Program, max_insts: u64) -> TraceBuffer {
        let mut map = LastWriterMap::new();
        TraceBuffer::record_with_arena(program, max_insts, &mut map)
    }

    /// [`TraceBuffer::record`] reusing a persistent [`LastWriterMap`].
    ///
    /// # Panics
    ///
    /// As [`TraceBuffer::record`].
    pub fn record_with_arena(
        program: &Program,
        max_insts: u64,
        map: &mut LastWriterMap,
    ) -> TraceBuffer {
        let code = program
            .iter()
            .map(|(pc, &inst)| StaticInst {
                pc,
                inst,
                class: inst.class(),
            })
            .collect();
        // One up-front allocation (capped for huge budgets) instead of
        // doubling growth through tens of megabytes.
        let mut records = Vec::with_capacity(max_insts.min(4_000_000) as usize);
        let mut end_pc = program.entry();
        for d in Tracer::with_arena(program, max_insts, map) {
            records.push(Packed::pack(&d));
            end_pc = d.rec.next_pc;
        }
        TraceBuffer {
            records,
            code,
            end_pc,
            max_insts,
        }
    }

    /// Decodes the instruction at trace position `pos` (its `seq`).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    #[inline]
    pub fn inst(&self, pos: usize) -> DynInst {
        let mut d = BLANK;
        self.decode_into(pos, &mut d);
        d
    }

    /// [`TraceBuffer::inst`] written over every field of `out`: a
    /// consumer that keeps instructions in a reused slot decodes in
    /// place instead of building a `DynInst` and copying it.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    #[inline]
    pub fn decode_into(&self, pos: usize, out: &mut DynInst) {
        let r = &self.records[pos];
        let s = &self.code[r.code as usize];
        out.seq = pos as u64;
        out.class = s.class;
        out.stores_before = u64::from(r.stores_before);
        out.mem_dep = None;
        let rec = &mut out.rec;
        rec.pc = s.pc;
        rec.inst = s.inst;
        rec.addr = r.addr;
        rec.load_value = 0;
        rec.store_data = 0;
        rec.store_mem_bits = 0;
        rec.taken = r.flags & TAKEN != 0;
        rec.next_pc = self
            .records
            .get(pos + 1)
            .map_or(self.end_pc, |n| self.code[n.code as usize].pc);
        match s.inst {
            Inst::Load { .. } => {
                rec.load_value = r.value;
                if r.dep_distance != 0 {
                    out.mem_dep = Some(self.mem_dep(pos, r));
                }
            }
            Inst::Store { width, float32, .. } => {
                rec.store_data = r.value;
                rec.store_mem_bits = store_memory_bits(r.value, width, float32);
            }
            _ => {}
        }
    }

    /// The dependence of the load `r` at `pos`, completed from its
    /// producing store's record.
    fn mem_dep(&self, pos: usize, r: &Packed) -> MemDep {
        let store_seq = pos - r.dep_distance as usize;
        let store = &self.records[store_seq];
        let Inst::Store { width, float32, .. } = self.code[store.code as usize].inst else {
            unreachable!("a load's producer is a store");
        };
        MemDep {
            store_seq: store_seq as u64,
            store_distance: u64::from(r.stores_before - store.stores_before - 1),
            inst_distance: u64::from(r.dep_distance),
            coverage: if r.flags & PARTIAL != 0 {
                Coverage::Partial
            } else {
                Coverage::Full
            },
            shift: r.shift,
            store_width: width.bytes() as u8,
            store_float32: float32,
        }
    }

    /// Decodes the instructions at trace positions `range`, in order.
    pub fn iter_range(&self, range: Range<usize>) -> impl Iterator<Item = DynInst> + '_ {
        range.map(move |pos| self.inst(pos))
    }

    /// Decodes every recorded instruction, in order.
    pub fn iter(&self) -> impl Iterator<Item = DynInst> + '_ {
        self.iter_range(0..self.len())
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Heap memory the trace holds: its records (at allocated
    /// capacity) plus its code table.
    pub fn heap_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<Packed>()
            + self.code.capacity() * std::mem::size_of::<StaticInst>()
    }

    /// The budget the trace was recorded with.
    pub fn max_insts(&self) -> u64 {
        self.max_insts
    }

    /// Whether a replay bounded by `budget` instructions reproduces a
    /// live trace with that budget: true when the recording budget was
    /// at least `budget`, or the program halted before exhausting the
    /// recording budget (so the stream is complete).
    pub fn covers(&self, budget: u64) -> bool {
        self.max_insts >= budget || (self.records.len() as u64) < self.max_insts
    }
}

impl Iterator for Tracer<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        if self.state.halted() || self.seq >= self.max_insts || self.error.is_some() {
            return None;
        }
        let rec = match self.state.step(self.program) {
            Ok(rec) => rec,
            Err(e) => {
                self.error = Some(e);
                return None;
            }
        };
        let class = rec.inst.class();
        let mut dyn_inst = DynInst {
            seq: self.seq,
            rec,
            class,
            stores_before: self.stores,
            mem_dep: None,
        };

        match class {
            InstClass::Load => {
                let width = rec.inst.mem_width().expect("load has width").bytes();
                let scan = self.last_writer.get().scan(rec.addr, width);
                if let Some(dep) = scan.youngest {
                    let coverage = if scan.all_same && !scan.any_missing {
                        Coverage::Full
                    } else {
                        Coverage::Partial
                    };
                    dyn_inst.mem_dep = Some(MemDep {
                        store_seq: dep.store_seq,
                        // stores (count renamed) minus 1-based dep SSN:
                        store_distance: self.stores - (dep.store_index + 1),
                        inst_distance: self.seq - dep.store_seq,
                        coverage,
                        shift: rec.addr.wrapping_sub(dep.store_addr) as u8,
                        store_width: dep.store_width,
                        store_float32: dep.store_float32,
                    });
                }
            }
            InstClass::Store => {
                let width = rec.inst.mem_width().expect("store has width").bytes();
                let float32 = matches!(rec.inst, nosq_isa::Inst::Store { float32: true, .. });
                let writer = ByteWriter {
                    store_seq: self.seq,
                    store_index: self.stores,
                    store_addr: rec.addr,
                    store_width: width as u8,
                    store_float32: float32,
                };
                self.last_writer
                    .get_mut()
                    .record_store(rec.addr, width, writer);
                self.stores += 1;
            }
            _ => {}
        }

        self.seq += 1;
        Some(dyn_inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::Profile;
    use crate::record::Coverage;
    use crate::synth::synthesize;
    use nosq_isa::{Assembler, Cond, Extension, MemWidth, Reg};

    fn trace(asm: Assembler, max: u64) -> Vec<DynInst> {
        let prog = asm.finish();
        Tracer::new(&prog, max).collect()
    }

    #[test]
    fn store_distance_counts_intervening_stores() {
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.li(v, 7);
        asm.store(v, b, 0, MemWidth::B8); // SSN 1 — the dependence
        asm.store(v, b, 64, MemWidth::B8); // SSN 2
        asm.store(v, b, 128, MemWidth::B8); // SSN 3
        asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
        asm.halt();
        let t = trace(asm, 100);
        let load = t.iter().find(|d| d.class == InstClass::Load).unwrap();
        let dep = load.mem_dep.unwrap();
        assert_eq!(dep.store_distance, 2); // two stores renamed since
        assert_eq!(load.dep_ssn(), Some(1));
    }

    #[test]
    fn multi_source_load_is_partial_coverage() {
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.li(v, 0x7f);
        asm.store(v, b, 0, MemWidth::B1);
        asm.store(v, b, 1, MemWidth::B1);
        asm.load(v, b, 0, MemWidth::B2, Extension::Zero);
        asm.halt();
        let t = trace(asm, 100);
        let load = t.iter().find(|d| d.class == InstClass::Load).unwrap();
        let dep = load.mem_dep.unwrap();
        assert_eq!(dep.coverage, Coverage::Partial);
        assert_eq!(dep.store_distance, 0); // youngest of the two
    }

    #[test]
    fn narrow_load_from_wide_store_has_shift() {
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.li(v, 0x1122_3344_5566_7788);
        asm.store(v, b, 0, MemWidth::B8);
        asm.load(v, b, 6, MemWidth::B2, Extension::Zero);
        asm.halt();
        let t = trace(asm, 100);
        let load = t.iter().find(|d| d.class == InstClass::Load).unwrap();
        let dep = load.mem_dep.unwrap();
        assert_eq!(dep.coverage, Coverage::Full);
        assert_eq!(dep.shift, 6);
        assert_eq!(load.rec.load_value, 0x1122);
    }

    #[test]
    fn load_from_initial_data_has_no_dep() {
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.data_u64s(0x1000, &[42]);
        asm.li(b, 0x1000);
        asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
        asm.halt();
        let t = trace(asm, 100);
        let load = t.iter().find(|d| d.class == InstClass::Load).unwrap();
        assert!(load.mem_dep.is_none());
        assert_eq!(load.rec.load_value, 42);
    }

    #[test]
    fn partially_initialized_load_is_partial() {
        // Store writes only the low byte; the rest comes from initial data.
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.li(v, 0xAA);
        asm.store(v, b, 0, MemWidth::B1);
        asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
        asm.halt();
        let t = trace(asm, 100);
        let load = t.iter().find(|d| d.class == InstClass::Load).unwrap();
        assert_eq!(load.mem_dep.unwrap().coverage, Coverage::Partial);
    }

    #[test]
    fn max_insts_truncates_stream() {
        let mut asm = Assembler::new();
        let top = asm.label();
        asm.bind(top);
        asm.addi(Reg::int(1), Reg::int(1), 1);
        asm.jump(top);
        let prog = asm.finish();
        let n = Tracer::new(&prog, 10).count();
        assert_eq!(n, 10);
    }

    #[test]
    fn stores_before_counts_monotonically() {
        let mut asm = Assembler::new();
        let (b, v) = (Reg::int(1), Reg::int(2));
        asm.li(b, 0x1000);
        asm.store(v, b, 0, MemWidth::B8);
        asm.store(v, b, 8, MemWidth::B8);
        asm.halt();
        let t = trace(asm, 100);
        let stores: Vec<_> = t.iter().filter(|d| d.class == InstClass::Store).collect();
        assert_eq!(stores[0].store_ssn(), Some(1));
        assert_eq!(stores[1].store_ssn(), Some(2));
    }

    #[test]
    fn arena_tracer_matches_owned_tracer_across_programs() {
        let programs: Vec<_> = (0..3)
            .map(|i| {
                let mut asm = Assembler::new();
                let (b, v) = (Reg::int(1), Reg::int(2));
                asm.li(b, 0x1000 + i * 0x40);
                asm.li(v, 0x11 * (i + 1));
                asm.store(v, b, 0, MemWidth::B4);
                asm.store(v, b, 2, MemWidth::B2);
                asm.load(v, b, 0, MemWidth::B8, Extension::Zero);
                asm.halt();
                asm.finish()
            })
            .collect();
        let mut map = LastWriterMap::new();
        for prog in &programs {
            let owned: Vec<_> = Tracer::new(prog, 100).collect();
            let reused: Vec<_> = Tracer::with_arena(prog, 100, &mut map).collect();
            assert_eq!(owned.len(), reused.len());
            for (a, b) in owned.iter().zip(&reused) {
                assert_eq!(a.seq, b.seq);
                assert_eq!(
                    a.mem_dep.map(|d| (d.store_seq, d.coverage, d.shift)),
                    b.mem_dep.map(|d| (d.store_seq, d.coverage, d.shift)),
                );
            }
        }
    }

    /// Decoding every record reproduces the live tracer's output field
    /// for field.
    fn assert_round_trip(prog: &Program, max: u64) {
        let live: Vec<DynInst> = Tracer::new(prog, max).collect();
        let trace = TraceBuffer::record(prog, max);
        assert_eq!(trace.len(), live.len());
        // One reused slot: decoding in place must overwrite every field
        // the previous instruction left behind.
        let mut slot = BLANK;
        for (pos, d) in live.iter().enumerate() {
            assert_eq!(trace.inst(pos), *d, "record {pos} decodes differently");
            trace.decode_into(pos, &mut slot);
            assert_eq!(slot, *d, "record {pos} decodes differently in place");
        }
        assert!(trace.iter().eq(live.iter().copied()));
    }

    #[test]
    fn records_round_trip_on_every_profile() {
        for profile in Profile::all() {
            assert_round_trip(&synthesize(profile, 42), 5_000);
        }
    }

    /// A random straight-line mix of every memory shape the record has
    /// to carry: partial-word and full-word stores and loads, `sts` and
    /// `lds`, shifted and multi-store loads, loads of initial data, and
    /// taken and not-taken branches, ending in a halt.
    fn generated_program(seed: u64, len: usize) -> Program {
        let mut x = seed | 1;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let widths = [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8];
        let (base, v, w) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let mut asm = Assembler::new();
        asm.data_u64s(0x1000, &[0x0123_4567_89ab_cdef, 42, 7, 1 << 40]);
        asm.li(base, 0x1000);
        for _ in 0..len {
            let ofs = next(32) as i32;
            match next(8) {
                0 => asm.li(v, next(u64::MAX) as i64),
                1 => asm.store(v, base, ofs, widths[next(4) as usize]),
                2 => asm.sts(v, base, ofs & !3),
                3 => asm.lds(w, base, ofs & !3),
                4 => {
                    let ext = [Extension::Zero, Extension::Sign][next(2) as usize];
                    asm.load(w, base, ofs, widths[next(4) as usize], ext);
                }
                5 => {
                    let skip = asm.label();
                    asm.branch([Cond::Eq, Cond::Ne][next(2) as usize], v, w, skip);
                    asm.addi(v, v, 1);
                    asm.bind(skip);
                }
                _ => asm.load(w, base, ofs, MemWidth::B8, Extension::Zero),
            }
        }
        asm.halt();
        asm.finish()
    }

    #[test]
    fn records_round_trip_on_generated_programs() {
        for seed in 1..=20 {
            let prog = generated_program(seed, 300);
            assert_round_trip(&prog, 10_000); // halts early
            assert_round_trip(&prog, 150); // truncated mid-stream
        }
    }

    #[test]
    fn records_round_trip_when_execution_faults() {
        // A return to an unmapped PC ends the stream with an error; the
        // last record's `next_pc` is that PC.
        let mut asm = Assembler::new();
        asm.li(Reg::int(1), 0x10_0000);
        asm.ret_reg(Reg::int(1));
        let prog = asm.finish();
        let mut tracer = Tracer::new(&prog, 100);
        assert_eq!(tracer.by_ref().count(), 2);
        assert!(tracer.error().is_some());
        assert_round_trip(&prog, 100);
    }

    #[test]
    fn over_u32_store_count_is_refused() {
        let mut asm = Assembler::new();
        asm.store(Reg::int(2), Reg::int(1), 0, MemWidth::B8);
        let prog = asm.finish();
        let mut d = Tracer::new(&prog, 1).next().unwrap();
        d.stores_before = u64::from(u32::MAX);
        assert_eq!(Packed::pack(&d).stores_before, u32::MAX);
        d.stores_before += 1;
        let refused = std::panic::catch_unwind(|| Packed::pack(&d));
        assert!(refused.is_err(), "a store count past u32 wrapped silently");
    }

    #[test]
    fn heap_bytes_counts_compact_records() {
        let prog = synthesize(Profile::by_name("gzip").unwrap(), 42);
        let trace = TraceBuffer::record(&prog, 10_000);
        let code = prog.len() * std::mem::size_of::<StaticInst>();
        assert_eq!(trace.heap_bytes(), 32 * 10_000 + code);
        assert!(trace.heap_bytes() < trace.len() * std::mem::size_of::<DynInst>() / 3);
    }
}
