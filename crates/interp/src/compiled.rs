//! The pre-decoded execution engine.
//!
//! The reference interpreter in [`crate::machine`] walks the IR arena on
//! every dynamic instruction: it chases `InstId` indirections, pattern
//! matches [`ipas_ir::Value`] operands, converts constants, scans phi
//! incoming lists per block entry, and allocates a fresh register file
//! per call. Fault-injection campaigns execute the same module thousands
//! of times, so all of that per-instruction decode work is paid
//! redundantly — the cost FastFlip-style campaign optimization targets.
//!
//! [`CompiledProgram::compile`] performs the decode **once** per module:
//!
//! * every function is flattened into a dense array of [`CInst`]s in
//!   block-layout order, phis removed;
//! * SSA value IDs, parameters, *and constants* are resolved to frame
//!   slots — dense `u32` indices into a contiguous per-call window of
//!   one reusable value stack. Constants are interned into a
//!   per-function pool whose register images are copied into the frame
//!   tail on entry, so every operand read is one indexed load with no
//!   operand-kind branch;
//! * the static result type of every instruction is baked into its
//!   opcode variant, so the stack holds raw 64-bit register images
//!   (`u64`) instead of tagged [`RtVal`]s — no enum dispatch, no
//!   bits/value conversion in the hot loop. Booleans are kept canonical
//!   (`0`/`1`), which `Trunc`'s mask, comparison results, and the
//!   width-1 injection flip all preserve;
//! * branch targets become instruction indices, and each CFG edge
//!   carries its precomputed phi move-list (a parallel copy executed
//!   when the edge is taken);
//! * `gep` with a constant index folds to a precomputed byte offset,
//!   and casts that are the identity on register images (`zext` of a
//!   canonical bool, `bitcast`, `ptrtoint`, `inttoptr`) collapse to a
//!   single [`CInst::CastId`] opcode.
//!
//! [`CompiledMachine`] then executes the flat code with a resettable
//! value stack, alloca list, and [`Memory`] that keep their allocations
//! across runs. A [`Ladder`] of golden-run checkpoints lets an injection
//! run start from a snapshot of the fault-free run taken shortly before
//! its injection point instead of from the entry
//! ([`CompiledMachine::run_from`]).
//!
//! # Lowering invariants
//!
//! The compiled engine must be *bit-identical* to the reference, not
//! merely equivalent: campaign records embed `dynamic_insts`,
//! `eligible_results` ordering, injection sites `(FuncId, InstId)`, and
//! hang/watchdog cut-offs, and `--engine` must never change a campaign
//! result. Concretely:
//!
//! * every non-phi instruction charges `HotCounters::tick` (the
//!   register-resident watermark form of the reference's `tick`: same
//!   budget stop instant, same poison/deadline poll at the same
//!   4096-instruction cadence) *before* executing, in original
//!   block-layout order;
//! * taking a CFG edge charges `dynamic_insts` by the number of phi
//!   moves with **no** budget or poll check, matching the reference's
//!   block-entry parallel copy;
//! * eligible results are counted by `HotCounters::inject` — the
//!   bit-image twin of the reference's `maybe_inject`, fed the
//!   precomputed static bit width — in the same dynamic order, and
//!   injected sites are reported under the original [`InstId`];
//! * arithmetic is performed on the same `i64`/`f64` reconstructions
//!   the reference's typed ops use (verified IR guarantees the static
//!   type equals the runtime type), traps check the identical
//!   conditions, and intrinsics rebuild typed [`RtVal`] arguments and
//!   call the shared [`crate::machine::exec_intrinsic`].
//!
//! `tests/differential.rs` (workspace root) and the campaign
//! bit-identity suite in `ipas-faultsim` enforce all of this against
//! the reference on the five SciL workloads plus property-generated
//! programs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use ipas_ir::inst::Callee;
use ipas_ir::passes::constfold::saturating_f64_to_i64;
use ipas_ir::{
    BinOp, BlockId, CastOp, Constant, FcmpPred, FuncId, Function, IcmpPred, Inst, InstId,
    Intrinsic, Module, Type, Value,
};

use crate::env::{Env, SerialEnv};
use crate::machine::{
    exec_intrinsic, is_fault_site, next_stop, no_such_function, validate_entry, HotCounters,
    OutputStream, RunConfig, RunError, RunOutput, RunState, SiteClass, Stop, MAX_CALL_DEPTH,
};
use crate::memory::{gep_addr, Memory, POISON_ADDR};
use crate::rtval::RtVal;
use crate::trap::Trap;

/// Which interpreter executes a run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The tree-walking interpreter in [`crate::machine`] — the
    /// reference semantics.
    Reference,
    /// The pre-decoded engine in this module (default; bit-identical to
    /// the reference, several times faster).
    #[default]
    Compiled,
}

impl Engine {
    /// Both engines, in documentation order.
    pub const ALL: [Engine; 2] = [Engine::Reference, Engine::Compiled];

    /// The CLI spelling of this engine.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" | "ref" => Ok(Engine::Reference),
            "compiled" => Ok(Engine::Compiled),
            other => Err(format!(
                "unknown engine `{other}` (expected `reference` or `compiled`)"
            )),
        }
    }
}

/// Sentinel slot for instructions that produce no storable value
/// (void calls).
const NO_SLOT: u32 = u32::MAX;

/// Injection width of a 64-bit result (`i64`, `f64`, `ptr`).
const W64: u32 = 64;
/// Injection width of a boolean result.
const W1: u32 = 1;

/// A pre-decoded call target.
#[derive(Copy, Clone, Debug)]
enum CCallee {
    Func(FuncId),
    Intrinsic(Intrinsic),
}

/// One CFG edge: the target instruction index and the phi parallel-copy
/// (`(dst, src)` slot pairs) executed when the edge is taken.
#[derive(Clone, Debug)]
struct Edge {
    target: u32,
    moves: Box<[(u32, u32)]>,
}

/// A pre-decoded instruction. Operands are frame-slot indices (the
/// constant pool lives in the frame tail), and the static result type
/// is baked into the variant (plus a `width` field where it varies), so
/// execution never consults [`Type`]. `site` fields carry the original
/// [`InstId`] so injection records are engine-independent.
#[derive(Clone, Debug)]
enum CInst {
    /// Non-trapping integer binary op (`add` … `ashr`, excluding
    /// `sdiv`/`srem`).
    IBin {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
    },
    /// `sdiv` (`rem: false`) or `srem` (`rem: true`) — the trapping
    /// integer ops.
    IDiv {
        rem: bool,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
    },
    /// Float binary op (`fadd` … `frem`).
    FBin {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
    },
    /// Bitwise op on booleans (`and`/`or`/`xor` at type `bool`);
    /// canonical operands stay canonical.
    BBin {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
    },
    /// All operand types (`i64`, `ptr`, canonical `bool`) compare as
    /// sign-reinterpreted images, exactly like the reference's per-type
    /// arms.
    Icmp {
        pred: IcmpPred,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
    },
    Fcmp {
        pred: FcmpPred,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
    },
    /// An `icmp` immediately consumed by the next instruction, a
    /// `condbr` on its result: one dispatch, but still *two*
    /// instructions for tick/injection accounting (the compare ticks,
    /// injects, and stores its result — phis may read it — then the
    /// branch ticks and takes the edge on the possibly-flipped bit).
    IcmpBr {
        pred: IcmpPred,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
        /// The folded `condbr`'s own [`InstId`] (branch-class site).
        br_site: InstId,
        then_edge: u32,
        else_edge: u32,
    },
    /// `fcmp` + `condbr`, fused like [`CInst::IcmpBr`].
    FcmpBr {
        pred: FcmpPred,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
        /// The folded `condbr`'s own [`InstId`] (branch-class site).
        br_site: InstId,
        then_edge: u32,
        else_edge: u32,
    },
    /// A non-trapping integer binary op immediately followed by an
    /// unconditional `br` — the shape of every loop back-edge
    /// (increment, then jump). One dispatch, two instructions for tick
    /// accounting: the op ticks, injects, and stores, then the branch
    /// ticks and takes the edge.
    IBinBr {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
        edge: u32,
    },
    /// A float binary op immediately consumed by the next instruction,
    /// a `store` of its result: one dispatch, two instructions for tick
    /// accounting. The (possibly flipped) result still stores to `dst`
    /// — it may have other users — and that same image is what the
    /// store writes to memory.
    FBinStore {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
        /// The folded `store`'s own [`InstId`] (store-class site).
        store_site: InstId,
        addr: u32,
    },
    /// `sitofp`.
    CastSitofp {
        arg: u32,
        dst: u32,
        site: InstId,
    },
    /// `fptosi` (saturating, like the reference).
    CastFptosi {
        arg: u32,
        dst: u32,
        site: InstId,
    },
    /// `trunc` to bool: masks to the canonical single bit.
    CastTrunc {
        arg: u32,
        dst: u32,
        site: InstId,
    },
    /// Casts that are the identity on register images: `zext` (of a
    /// canonical bool), `bitcast`, `ptrtoint`, `inttoptr`. Still an
    /// eligible injection site of width 64.
    CastId {
        arg: u32,
        dst: u32,
        site: InstId,
    },
    Select {
        cond: u32,
        then_v: u32,
        else_v: u32,
        dst: u32,
        site: InstId,
        /// Static bit width of the selected type.
        width: u32,
    },
    Alloca {
        bytes: i64,
        dst: u32,
    },
    Load {
        addr: u32,
        dst: u32,
        site: InstId,
        /// `1` for bool loads (canonicalizes, like the reference's
        /// `from_bits`), all-ones otherwise.
        mask: u64,
    },
    Store {
        value: u32,
        addr: u32,
        site: InstId,
    },
    Gep {
        base: u32,
        index: u32,
        dst: u32,
        site: InstId,
    },
    /// `gep` whose index is a compile-time constant: the byte offset is
    /// folded. Lowering only folds when `index * 8` does not overflow
    /// (otherwise the generic [`CInst::Gep`] runs and poisons the
    /// address), so `offset` is always exact.
    GepConst {
        base: u32,
        offset: i64,
        dst: u32,
        site: InstId,
    },
    /// A `gep` immediately consumed by the next instruction, a `load`
    /// from its result: one dispatch, two instructions for tick
    /// accounting. The address still stores to `gep_dst` (it is an
    /// eligible injection site and may have other users), and the load
    /// reads the possibly-flipped address.
    GepLoad {
        base: u32,
        index: u32,
        gep_dst: u32,
        site: InstId,
        /// The folded `load`'s own [`InstId`] (load-class site).
        load_site: InstId,
        load_dst: u32,
        mask: u64,
    },
    /// Constant-index [`CInst::GepLoad`].
    GepConstLoad {
        base: u32,
        offset: i64,
        gep_dst: u32,
        site: InstId,
        /// The folded `load`'s own [`InstId`] (load-class site).
        load_site: InstId,
        load_dst: u32,
        mask: u64,
    },
    /// A `gep` immediately consumed by the next instruction, a `store`
    /// through its result — fused like [`CInst::GepLoad`]. The address
    /// is written to `gep_dst` *before* the value operand is read, in
    /// case the stored value is the address itself.
    GepStore {
        base: u32,
        index: u32,
        gep_dst: u32,
        site: InstId,
        /// The folded `store`'s own [`InstId`] (store-class site).
        store_site: InstId,
        value: u32,
    },
    /// Constant-index [`CInst::GepStore`].
    GepConstStore {
        base: u32,
        offset: i64,
        gep_dst: u32,
        site: InstId,
        /// The folded `store`'s own [`InstId`] (store-class site).
        store_site: InstId,
        value: u32,
    },
    Call {
        callee: CCallee,
        args: Box<[u32]>,
        /// `NO_SLOT` for void calls (which are also ineligible
        /// injection sites, mirroring [`is_fault_site`]).
        dst: u32,
        site: InstId,
        /// Static bit width of the return type (unused for void calls).
        width: u32,
    },
    Br {
        edge: u32,
    },
    CondBr {
        cond: u32,
        site: InstId,
        then_edge: u32,
        else_edge: u32,
    },
    Ret {
        value: Option<u32>,
    },
}

/// One flattened function.
#[derive(Clone, Debug)]
struct CompiledFunction {
    /// Original function id (for injection-site reporting).
    fid: FuncId,
    /// Parameter types (entry-point validation).
    params: Vec<Type>,
    /// Return type (rebuilds the entry's typed return value).
    ret_ty: Type,
    /// Frame size in slots: parameters, then one slot per
    /// value-producing instruction in layout order, then the constant
    /// pool.
    frame_slots: u32,
    /// Interned constant register images, copied into the frame tail
    /// (`frame_slots - consts.len() ..`) on every frame push.
    consts: Vec<u64>,
    /// Dense instruction array, phis removed, block-layout order.
    code: Vec<CInst>,
    /// CFG edges referenced by `Br`/`CondBr`.
    edges: Vec<Edge>,
}

/// A module lowered for the pre-decoded engine. Compile once per
/// workload (the lowering walks every instruction), then run any number
/// of [`CompiledMachine`]s against it — the program is immutable and
/// `Sync`, so campaign worker threads share one copy.
#[derive(Debug)]
pub struct CompiledProgram {
    funcs: Vec<CompiledFunction>,
    /// Entry lookup only (never iterated — determinism-safe).
    by_name: HashMap<String, FuncId>,
    /// Unique per lowering: a [`Ladder`] only resumes machines of the
    /// program it was captured on.
    id: u64,
}

impl CompiledProgram {
    /// Lowers `module` (assumed verified, like [`crate::Machine::new`])
    /// into dense per-function instruction arrays.
    pub fn compile(module: &Module) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let mut funcs = Vec::with_capacity(module.num_functions());
        let mut by_name = HashMap::with_capacity(module.num_functions());
        for (fid, func) in module.functions() {
            by_name.insert(func.name().to_string(), fid);
            funcs.push(compile_function(fid, func));
        }
        CompiledProgram {
            funcs,
            by_name,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Number of lowered functions.
    pub fn num_functions(&self) -> usize {
        self.funcs.len()
    }
}

/// Converts an IR constant to its runtime register image (the bits of
/// the reference's `eval` on `Value::Const`).
fn const_bits(c: Constant) -> u64 {
    match c {
        Constant::I64(x) => x as u64,
        Constant::F64Bits(b) => b,
        Constant::Bool(b) => b as u64,
        Constant::Null => 0,
    }
}

/// Slot resolution during lowering: SSA results and parameters map
/// through `slot_of`, constants intern into the frame-tail pool.
struct SlotMap<'f> {
    slot_of: &'f [u32],
    /// First slot of the constant pool (params + results).
    pool_base: u32,
    pool: Vec<u64>,
    interned: HashMap<u64, u32>,
}

impl SlotMap<'_> {
    fn opnd(&mut self, v: Value) -> u32 {
        match v {
            Value::Inst(id) => {
                let slot = self.slot_of[id.index()];
                debug_assert_ne!(slot, NO_SLOT, "use of a void instruction's value");
                slot
            }
            Value::Param(n) => n,
            Value::Const(c) => {
                let bits = const_bits(c);
                match self.interned.get(&bits) {
                    Some(&slot) => slot,
                    None => {
                        let slot = self.pool_base + self.pool.len() as u32;
                        self.pool.push(bits);
                        self.interned.insert(bits, slot);
                        slot
                    }
                }
            }
        }
    }
}

/// Builds the phi move-list for the edge `pred -> succ`.
fn lower_edge(
    func: &Function,
    slots: &mut SlotMap<'_>,
    block_pc: &[u32],
    edges: &mut Vec<Edge>,
    pred: BlockId,
    succ: BlockId,
) -> u32 {
    let mut moves = Vec::new();
    for &id in func.block(succ).insts() {
        match func.inst(id) {
            Inst::Phi { incomings, .. } => {
                let (_, v) = incomings
                    .iter()
                    .find(|(p, _)| *p == pred)
                    .expect("verified phi has an incoming per predecessor");
                moves.push((slots.slot_of[id.index()], slots.opnd(*v)));
            }
            _ => break,
        }
    }
    edges.push(Edge {
        target: block_pc[succ.index()],
        moves: moves.into_boxed_slice(),
    });
    (edges.len() - 1) as u32
}

/// True when `insts[k]` is directly consumed-by-successor fusable with
/// `insts[k - 1]`: a `condbr` branching on the preceding `icmp`/`fcmp`
/// ([`CInst::IcmpBr`]/[`CInst::FcmpBr`]) or a `load`/`store` addressing
/// through the preceding `gep` ([`CInst::GepLoad`] and friends). Both
/// lowering passes use this single predicate, so instruction indices
/// stay consistent.
/// Address computation for the pre-folded `GepConst*` variants. The
/// byte offset is exact (lowering refuses to fold an overflowing
/// `index * 8`), so this matches [`gep_addr`] bit for bit on the same
/// operands — only base-plus-offset overflow remains to poison.
#[inline]
fn gep_const_addr(base: u64, offset: i64) -> u64 {
    base.checked_add_signed(offset).unwrap_or(POISON_ADDR)
}

fn fuses_with_prev(func: &Function, insts: &[InstId], k: usize) -> bool {
    if k == 0 {
        return false;
    }
    let prev = insts[k - 1];
    match func.inst(insts[k]) {
        Inst::CondBr {
            cond: Value::Inst(c),
            ..
        } => *c == prev && matches!(func.inst(prev), Inst::Icmp { .. } | Inst::Fcmp { .. }),
        Inst::Load {
            addr: Value::Inst(a),
            ..
        } => *a == prev && matches!(func.inst(prev), Inst::Gep { .. }),
        Inst::Store { addr, value, .. } => {
            if let Value::Inst(a) = addr {
                if *a == prev && matches!(func.inst(prev), Inst::Gep { .. }) {
                    return true;
                }
            }
            if let Value::Inst(v) = value {
                return *v == prev && matches!(func.inst(prev), Inst::Binary { ty: Type::F64, .. });
            }
            false
        }
        // Loop back-edges: `add` (any non-trapping integer op) feeding
        // straight into an unconditional `br`.
        Inst::Br { .. } => matches!(
            func.inst(prev),
            Inst::Binary { ty, op, .. }
                if *ty != Type::F64
                    && *ty != Type::Bool
                    && !matches!(op, BinOp::Sdiv | BinOp::Srem)
        ),
        _ => false,
    }
}

fn compile_function(fid: FuncId, func: &Function) -> CompiledFunction {
    let nparams = func.params().len() as u32;

    // Frame layout: parameters in slots 0..nparams, then one slot per
    // linked value-producing instruction in block-layout order, then
    // the interned constant pool.
    let mut slot_of: Vec<u32> = vec![NO_SLOT; func.num_inst_slots()];
    let mut next_slot = nparams;
    // Instruction index of each block's first non-phi instruction.
    let mut block_pc = vec![0u32; func.num_blocks()];
    let mut pc = 0u32;
    for bb in func.block_ids() {
        block_pc[bb.index()] = pc;
        let insts = func.block(bb).insts();
        for (k, &id) in insts.iter().enumerate() {
            let inst = func.inst(id);
            if inst.has_result() {
                slot_of[id.index()] = next_slot;
                next_slot += 1;
            }
            // Fused condbrs ride in the preceding compare's slot.
            if !inst.is_phi() && !fuses_with_prev(func, insts, k) {
                pc += 1;
            }
        }
    }

    let mut slots = SlotMap {
        slot_of: &slot_of,
        pool_base: next_slot,
        pool: Vec::new(),
        interned: HashMap::new(),
    };
    let mut code = Vec::with_capacity(pc as usize);
    let mut edges = Vec::new();
    for bb in func.block_ids() {
        let insts = func.block(bb).insts();
        for (k, &id) in insts.iter().enumerate() {
            let inst = func.inst(id);
            let dst = slot_of[id.index()];
            if fuses_with_prev(func, insts, k) {
                continue; // folded into the fused instruction just emitted
            }
            let cinst = match inst {
                Inst::Phi { .. } => continue, // consumed by edge move-lists
                Inst::Binary {
                    op, ty, lhs, rhs, ..
                } => {
                    let (lhs, rhs) = (slots.opnd(*lhs), slots.opnd(*rhs));
                    let fused_next = (k + 1 < insts.len() && fuses_with_prev(func, insts, k + 1))
                        .then(|| func.inst(insts[k + 1]));
                    match (ty, fused_next) {
                        (Type::F64, Some(Inst::Store { addr, .. })) => CInst::FBinStore {
                            op: *op,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                            store_site: insts[k + 1],
                            addr: slots.opnd(*addr),
                        },
                        (Type::F64, _) => CInst::FBin {
                            op: *op,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                        },
                        (Type::Bool, _) => CInst::BBin {
                            op: *op,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                        },
                        _ if matches!(op, BinOp::Sdiv | BinOp::Srem) => CInst::IDiv {
                            rem: *op == BinOp::Srem,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                        },
                        (_, Some(Inst::Br { target })) => CInst::IBinBr {
                            op: *op,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                            edge: lower_edge(func, &mut slots, &block_pc, &mut edges, bb, *target),
                        },
                        (_, Some(_)) => {
                            unreachable!("integer binary only fuses with br")
                        }
                        _ => CInst::IBin {
                            op: *op,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                        },
                    }
                }
                Inst::Icmp { pred, lhs, rhs } => {
                    let (lhs, rhs) = (slots.opnd(*lhs), slots.opnd(*rhs));
                    if k + 1 < insts.len() && fuses_with_prev(func, insts, k + 1) {
                        let Inst::CondBr {
                            then_bb, else_bb, ..
                        } = func.inst(insts[k + 1])
                        else {
                            unreachable!("fuses_with_prev only matches condbr")
                        };
                        CInst::IcmpBr {
                            pred: *pred,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                            br_site: insts[k + 1],
                            then_edge: lower_edge(
                                func, &mut slots, &block_pc, &mut edges, bb, *then_bb,
                            ),
                            else_edge: lower_edge(
                                func, &mut slots, &block_pc, &mut edges, bb, *else_bb,
                            ),
                        }
                    } else {
                        CInst::Icmp {
                            pred: *pred,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                        }
                    }
                }
                Inst::Fcmp { pred, lhs, rhs } => {
                    let (lhs, rhs) = (slots.opnd(*lhs), slots.opnd(*rhs));
                    if k + 1 < insts.len() && fuses_with_prev(func, insts, k + 1) {
                        let Inst::CondBr {
                            then_bb, else_bb, ..
                        } = func.inst(insts[k + 1])
                        else {
                            unreachable!("fuses_with_prev only matches condbr")
                        };
                        CInst::FcmpBr {
                            pred: *pred,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                            br_site: insts[k + 1],
                            then_edge: lower_edge(
                                func, &mut slots, &block_pc, &mut edges, bb, *then_bb,
                            ),
                            else_edge: lower_edge(
                                func, &mut slots, &block_pc, &mut edges, bb, *else_bb,
                            ),
                        }
                    } else {
                        CInst::Fcmp {
                            pred: *pred,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                        }
                    }
                }
                Inst::Cast { op, arg, .. } => {
                    let arg = slots.opnd(*arg);
                    match op {
                        CastOp::Sitofp => CInst::CastSitofp { arg, dst, site: id },
                        CastOp::Fptosi => CInst::CastFptosi { arg, dst, site: id },
                        CastOp::Trunc => CInst::CastTrunc { arg, dst, site: id },
                        CastOp::Zext | CastOp::Bitcast | CastOp::Ptrtoint | CastOp::Inttoptr => {
                            CInst::CastId { arg, dst, site: id }
                        }
                    }
                }
                Inst::Select {
                    cond,
                    then_value,
                    else_value,
                    ..
                } => CInst::Select {
                    cond: slots.opnd(*cond),
                    then_v: slots.opnd(*then_value),
                    else_v: slots.opnd(*else_value),
                    dst,
                    site: id,
                    width: inst.result_type().bit_width().max(1),
                },
                Inst::Alloca { count, .. } => CInst::Alloca {
                    bytes: (*count as i64) * 8,
                    dst,
                },
                Inst::Load { ty, addr } => CInst::Load {
                    addr: slots.opnd(*addr),
                    dst,
                    site: id,
                    mask: if *ty == Type::Bool { 1 } else { u64::MAX },
                },
                Inst::Store { value, addr, .. } => CInst::Store {
                    value: slots.opnd(*value),
                    addr: slots.opnd(*addr),
                    site: id,
                },
                Inst::Gep { base, index, .. } => {
                    let base = slots.opnd(*base);
                    let fused_next = (k + 1 < insts.len() && fuses_with_prev(func, insts, k + 1))
                        .then(|| func.inst(insts[k + 1]));
                    // Only fold constant indices whose byte offset is
                    // exact; an overflowing `index * 8` takes the
                    // generic path and poisons the address at run time.
                    let const_off = match index {
                        Value::Const(Constant::I64(i)) => i.checked_mul(8),
                        _ => None,
                    };
                    match (const_off, fused_next) {
                        (Some(offset), None) => CInst::GepConst {
                            base,
                            offset,
                            dst,
                            site: id,
                        },
                        (None, None) => CInst::Gep {
                            base,
                            index: slots.opnd(*index),
                            dst,
                            site: id,
                        },
                        (Some(offset), Some(Inst::Load { ty, .. })) => CInst::GepConstLoad {
                            base,
                            offset,
                            gep_dst: dst,
                            site: id,
                            load_site: insts[k + 1],
                            load_dst: slot_of[insts[k + 1].index()],
                            mask: if *ty == Type::Bool { 1 } else { u64::MAX },
                        },
                        (None, Some(Inst::Load { ty, .. })) => CInst::GepLoad {
                            base,
                            index: slots.opnd(*index),
                            gep_dst: dst,
                            site: id,
                            load_site: insts[k + 1],
                            load_dst: slot_of[insts[k + 1].index()],
                            mask: if *ty == Type::Bool { 1 } else { u64::MAX },
                        },
                        (Some(offset), Some(Inst::Store { value, .. })) => CInst::GepConstStore {
                            base,
                            offset,
                            gep_dst: dst,
                            site: id,
                            store_site: insts[k + 1],
                            value: slots.opnd(*value),
                        },
                        (None, Some(Inst::Store { value, .. })) => CInst::GepStore {
                            base,
                            index: slots.opnd(*index),
                            gep_dst: dst,
                            site: id,
                            store_site: insts[k + 1],
                            value: slots.opnd(*value),
                        },
                        (_, Some(_)) => unreachable!("gep only fuses with load/store"),
                    }
                }
                Inst::Call { callee, args, .. } => {
                    debug_assert_eq!(dst != NO_SLOT, is_fault_site(inst));
                    CInst::Call {
                        callee: match callee {
                            Callee::Func(f) => CCallee::Func(*f),
                            Callee::Intrinsic(i) => {
                                debug_assert!(
                                    args.len() <= INTRINSIC_MAX_ARGS,
                                    "intrinsic arity grew past the argument buffer"
                                );
                                CCallee::Intrinsic(*i)
                            }
                        },
                        args: args.iter().map(|a| slots.opnd(*a)).collect(),
                        dst,
                        site: id,
                        width: inst.result_type().bit_width().max(1),
                    }
                }
                Inst::Br { target } => CInst::Br {
                    edge: lower_edge(func, &mut slots, &block_pc, &mut edges, bb, *target),
                },
                Inst::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => CInst::CondBr {
                    cond: slots.opnd(*cond),
                    site: id,
                    then_edge: lower_edge(func, &mut slots, &block_pc, &mut edges, bb, *then_bb),
                    else_edge: lower_edge(func, &mut slots, &block_pc, &mut edges, bb, *else_bb),
                },
                Inst::Ret { value } => CInst::Ret {
                    value: value.map(|v| slots.opnd(v)),
                },
            };
            code.push(cinst);
        }
    }

    CompiledFunction {
        fid,
        params: func.params().to_vec(),
        ret_ty: func.return_type(),
        frame_slots: next_slot + slots.pool.len() as u32,
        consts: slots.pool,
        code,
        edges,
    }
}

/// Largest intrinsic arity (checked at compile time); lets the hot loop
/// gather intrinsic arguments into a stack buffer instead of a `Vec`.
const INTRINSIC_MAX_ARGS: usize = 4;

/// One frame of the compiled engine's call chain, mirrored beside the
/// Rust recursion of [`CompiledMachine::run_chain`] so that a
/// [`Checkpoint`] can record — and a resume rebuild — the whole chain.
#[derive(Copy, Clone, Debug)]
struct Frame {
    fid: FuncId,
    /// First stack slot of the frame's window.
    base: usize,
    /// Where the frame continues: for a frame suspended in a call, the
    /// index of that [`CInst::Call`] (its `dst`, `site` and `width`
    /// finish the call when the callee returns); for the innermost frame
    /// of a checkpoint, the block entry it was captured at.
    pc: u32,
    /// Length of the alloca list when the frame was entered; the frame
    /// frees the suffix on exit.
    alloca_mark: usize,
}

/// One rung of a [`Ladder`]: the complete resumable state of a
/// fault-free run at a CFG edge — value stack, alloca list, frame chain,
/// memory, output streams and every dynamic counter.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    stack: Vec<u64>,
    allocas: Vec<u64>,
    frames: Vec<Frame>,
    memory: Memory,
    outputs: OutputStream,
    console: Vec<String>,
    dynamic_insts: u64,
    eligible_results: u64,
    loads: u64,
    stores: u64,
    cond_branches: u64,
}

impl Checkpoint {
    /// Dynamic instructions the run had executed at this rung.
    pub fn dynamic_insts(&self) -> u64 {
        self.dynamic_insts
    }

    /// Events of `class` the run had executed at this rung: a plan
    /// targeting event `n` of that class may start here iff this is at
    /// most `n`.
    pub fn events(&self, class: SiteClass) -> u64 {
        match class {
            SiteClass::Value => self.eligible_results,
            SiteClass::Load => self.loads,
            SiteClass::Store => self.stores,
            SiteClass::Branch => self.cond_branches,
        }
    }

    /// Depth of the call chain at this rung (1 = in the entry function).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Approximate heap bytes the rung holds (what
    /// [`Ladder::MAX_BYTES`] caps).
    pub fn bytes(&self) -> usize {
        (self.stack.len() + self.allocas.len()) * 8
            + self.frames.len() * std::mem::size_of::<Frame>()
            + self.memory.bytes()
            + self.outputs.len() * 16
            + self.console.iter().map(String::len).sum::<usize>()
    }
}

/// Golden-run checkpoints: snapshots of one fault-free compiled run,
/// taken at the first CFG edge past every multiple of a fixed spacing.
///
/// An injection run whose target lies after a rung executes exactly
/// the golden run's instructions up to that rung, so
/// [`CompiledMachine::run_from`] restores the rung and executes only the
/// rest — with the same records, counters and outputs as a run from the
/// entry. Campaigns capture one ladder per workload
/// ([`Ladder::RUNGS`] rungs over the golden run, at most
/// [`Ladder::MAX_BYTES`] in total) and share it across their workers.
#[derive(Clone, Debug, Default)]
pub struct Ladder {
    /// [`CompiledProgram`] id the rungs belong to (`None` for an empty
    /// ladder).
    program: Option<u64>,
    entry: String,
    args: Vec<RtVal>,
    rungs: Vec<Checkpoint>,
}

impl Ladder {
    /// Rungs a campaign's ladder spreads over its golden run.
    pub const RUNGS: u64 = 32;

    /// Cap on the bytes a ladder holds. A capture that would exceed it
    /// drops every second rung and doubles the spacing, so large-memory
    /// programs get fewer, still evenly spaced rungs.
    pub const MAX_BYTES: usize = 64 << 20;

    /// The spacing that spreads [`Ladder::RUNGS`] rungs over a golden
    /// run of `nominal_insts` dynamic instructions.
    pub fn spacing_for(nominal_insts: u64) -> u64 {
        (nominal_insts / Self::RUNGS).max(1)
    }

    /// Runs `config`'s entry fault-free on a fresh machine, capturing a
    /// rung at the first CFG edge at or past every multiple of `spacing`
    /// dynamic instructions. The injection, profiling, tracing and
    /// watchdog fields of `config` are ignored. Returns the ladder and
    /// the golden run's output.
    ///
    /// # Errors
    ///
    /// The same [`RunError`]s as [`CompiledMachine::run`].
    pub fn capture(
        program: &CompiledProgram,
        config: &RunConfig,
        spacing: u64,
    ) -> Result<(Ladder, RunOutput), RunError> {
        let golden = RunConfig {
            entry: config.entry.clone(),
            args: config.args.clone(),
            max_insts: config.max_insts,
            ..RunConfig::default()
        };
        let mut machine = CompiledMachine::new(program);
        machine.capture = Some(Capture {
            spacing: spacing.max(1),
            rungs: Vec::new(),
            bytes: 0,
        });
        machine.capture_at = spacing.max(1);
        let output = machine.run(&golden)?;
        let rungs = machine.capture.take().map_or_else(Vec::new, |c| c.rungs);
        let ladder = Ladder {
            program: Some(program.id),
            entry: golden.entry,
            args: golden.args,
            rungs,
        };
        Ok((ladder, output))
    }

    /// The rungs, in execution order.
    pub fn rungs(&self) -> &[Checkpoint] {
        &self.rungs
    }

    /// The last rung a run of `config` may start from, or `None` when it
    /// must start at the entry.
    ///
    /// A rung qualifies when the run is this ladder's fault-free run up
    /// to it: same entry and arguments, the plan's target event of its
    /// class not yet executed (class counter ≤ target), and the budget
    /// not yet exceeded (dynamic count ≤ `max_insts`). Site-restricted
    /// plans, site profiling and eligible tracing count per-site state a
    /// rung does not hold, so they always start at the entry. So do runs
    /// under a wall-clock watchdog: the fresh run polls its deadline
    /// during the prefix too (an expired deadline stops it at the first
    /// poll), and a resumed run would skip those polls.
    pub fn rung_for(&self, config: &RunConfig) -> Option<&Checkpoint> {
        let plan = config.injection?;
        if plan.site.is_some()
            || config.profile_sites
            || config.trace_eligible
            || config.wall_limit.is_some()
            || config.entry != self.entry
            || config.args != self.args
        {
            return None;
        }
        let class = plan.model.site_class();
        // Every counter is non-decreasing along the ladder.
        let n = self.rungs.partition_point(|r| {
            r.events(class) <= plan.target && r.dynamic_insts <= config.max_insts
        });
        n.checked_sub(1).map(|k| &self.rungs[k])
    }
}

/// A ladder under construction (see [`Ladder::capture`]).
#[derive(Debug)]
struct Capture {
    spacing: u64,
    rungs: Vec<Checkpoint>,
    bytes: usize,
}

/// A resettable executor for one [`CompiledProgram`].
///
/// The machine keeps its value stack, alloca list, phi scratch buffer,
/// and [`Memory`] between runs: [`CompiledMachine::run`] resets them
/// without releasing their allocations, so campaign loops stop paying
/// per-run setup. One machine per worker thread is the intended
/// campaign topology (the program itself is shared).
#[derive(Debug)]
pub struct CompiledMachine<'p> {
    prog: &'p CompiledProgram,
    /// One contiguous stack of 64-bit register images; each call owns
    /// the window `[frame_base, frame_base + frame_slots)`.
    stack: Vec<u64>,
    /// Alloca base addresses of all live frames; each frame records a
    /// watermark and frees its suffix on exit.
    allocas: Vec<u64>,
    /// The live call chain, innermost last.
    frames: Vec<Frame>,
    /// Parallel-copy staging for phi edges.
    scratch: Vec<u64>,
    /// Recycled across runs via [`Memory::reset`].
    memory: Memory,
    /// Dynamic count at which the next CFG edge captures a rung
    /// (`u64::MAX` unless [`Ladder::capture`] is running).
    capture_at: u64,
    capture: Option<Capture>,
}

impl<'p> CompiledMachine<'p> {
    /// Creates a machine executing `program`.
    pub fn new(program: &'p CompiledProgram) -> Self {
        CompiledMachine {
            prog: program,
            stack: Vec::new(),
            allocas: Vec::new(),
            frames: Vec::new(),
            scratch: Vec::new(),
            memory: Memory::new(),
            capture_at: u64::MAX,
            capture: None,
        }
    }

    /// Runs under the serial environment. Same contract as
    /// [`crate::Machine::run`]; the machine is reset first, so a
    /// previous panicking or aborted run cannot leak state.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] when the entry function does not exist or
    /// the argument count/types mismatch, with the same messages as the
    /// reference engine.
    pub fn run(&mut self, config: &RunConfig) -> Result<RunOutput, RunError> {
        self.run_from(config, None)
    }

    /// Like [`CompiledMachine::run`], but starts from the last rung of
    /// `ladder` the run may start from ([`Ladder::rung_for`]), or from
    /// the entry when there is none or the ladder was captured on
    /// another [`CompiledProgram`]. The output is identical either way.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledMachine::run`].
    pub fn run_from(
        &mut self,
        config: &RunConfig,
        ladder: Option<&Ladder>,
    ) -> Result<RunOutput, RunError> {
        let mut env = SerialEnv;
        let ladder = ladder.filter(|l| l.program == Some(self.prog.id));
        let rung = ladder.and_then(|l| l.rung_for(config));
        self.execute(config, &mut env, rung)
    }

    /// Runs under a caller-provided environment, from the entry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledMachine::run`].
    pub fn run_with_env(
        &mut self,
        config: &RunConfig,
        env: &mut dyn Env,
    ) -> Result<RunOutput, RunError> {
        self.execute(config, env, None)
    }

    /// The one run path: load the starting state — `rung`, or the fresh
    /// entry frame (rung 0) — into the machine and run the call chain to
    /// completion.
    fn execute(
        &mut self,
        config: &RunConfig,
        env: &mut dyn Env,
        rung: Option<&Checkpoint>,
    ) -> Result<RunOutput, RunError> {
        let entry = *self
            .prog
            .by_name
            .get(&config.entry)
            .ok_or_else(|| no_such_function(&config.entry))?;
        let f = &self.prog.funcs[entry.index()];
        validate_entry(&config.entry, &f.params, config)?;
        let ret_ty = f.ret_ty;

        // Reset without releasing capacity.
        self.scratch.clear();
        let mut memory = std::mem::take(&mut self.memory);
        let mut state = match rung {
            None => {
                memory.reset();
                self.stack.clear();
                self.allocas.clear();
                self.frames.clear();
                let frame_slots = f.frame_slots as usize;
                self.stack.resize(frame_slots, 0);
                for (k, a) in config.args.iter().enumerate() {
                    self.stack[k] = a.bits();
                }
                self.stack[frame_slots - f.consts.len()..].copy_from_slice(&f.consts);
                self.frames.push(Frame {
                    fid: entry,
                    base: 0,
                    pc: 0,
                    alloca_mark: 0,
                });
                RunState::start(memory, config, env)
            }
            Some(rung) => {
                memory.clone_from(&rung.memory);
                self.stack.clone_from(&rung.stack);
                self.allocas.clone_from(&rung.allocas);
                self.frames.clone_from(&rung.frames);
                let mut state = RunState::start(memory, config, env);
                state.outputs.clone_from(&rung.outputs);
                state.console.clone_from(&rung.console);
                state.dynamic_insts = rung.dynamic_insts;
                state.eligible_results = rung.eligible_results;
                state.loads = rung.loads;
                state.stores = rung.stores;
                state.cond_branches = rung.cond_branches;
                state.next_stop = next_stop(rung.dynamic_insts, config.max_insts);
                state
            }
        };
        let result = self
            .run_chain(&mut state, 0)
            .map(|ret| ret.map(|bits| RtVal::from_bits(ret_ty, bits)));
        let status = state.finish(result);
        let (output, memory) = state.into_output(status);
        self.memory = memory;
        Ok(output)
    }

    /// Executes a callee frame (already pushed on the value stack at
    /// `base`) to completion.
    fn exec_func(
        &mut self,
        state: &mut RunState<'_>,
        fid: FuncId,
        base: usize,
        depth: usize,
    ) -> Result<Option<u64>, Stop> {
        if depth >= MAX_CALL_DEPTH {
            return Err(Stop::Trap(Trap::StackOverflow));
        }
        self.frames.push(Frame {
            fid,
            base,
            pc: 0,
            alloca_mark: self.allocas.len(),
        });
        self.run_chain(state, depth)
    }

    /// Runs frame `k` of the call chain, and every frame inside it, to
    /// completion. A frame with a callee below it in the chain is
    /// suspended in that call: the callee finishes first and the frame
    /// resumes at the call with its return value. The innermost frame
    /// runs from its `pc`. Frees the frame's allocas on every exit path
    /// like the reference engine, and pops it from the chain.
    fn run_chain(&mut self, state: &mut RunState<'_>, k: usize) -> Result<Option<u64>, Stop> {
        let Frame {
            fid,
            base,
            pc,
            alloca_mark,
        } = self.frames[k];
        let result = match self.frames.get(k + 1) {
            Some(callee) => {
                let callee_base = callee.base;
                let r = self.run_chain(state, k + 1);
                self.stack.truncate(callee_base);
                match r {
                    Ok(ret) => self.run_frame(state, fid, base, k, pc, Some(ret.unwrap_or(0))),
                    Err(stop) => Err(stop),
                }
            }
            None => self.run_frame(state, fid, base, k, pc, None),
        };
        for i in alloca_mark..self.allocas.len() {
            // Frame regions are always valid bases; ignore double-free
            // that can only arise from user `free` of an alloca pointer.
            let _ = state.memory.free(self.allocas[i]);
        }
        self.allocas.truncate(alloca_mark);
        self.frames.truncate(k);
        result
    }

    #[inline]
    fn read(&self, base: usize, slot: u32) -> u64 {
        self.stack[base + slot as usize]
    }

    #[inline]
    fn write(&mut self, base: usize, dst: u32, bits: u64) {
        self.stack[base + dst as usize] = bits;
    }

    /// Takes a CFG edge: charges its phi moves against `dynamic_insts`
    /// (no budget/poll check — block-entry phi copies are exempt in the
    /// reference too) and performs the parallel copy. While a ladder is
    /// being captured, an edge that reaches the next mark captures a
    /// rung at the target block's entry.
    #[inline]
    fn take_edge(
        &mut self,
        state: &mut RunState<'_>,
        hot: &mut HotCounters,
        edges: &[Edge],
        base: usize,
        edge: u32,
    ) -> usize {
        let e = &edges[edge as usize];
        hot.dynamic_insts += e.moves.len() as u64;
        match *e.moves {
            [] => {}
            [(dst, src)] => {
                let v = self.read(base, src);
                self.write(base, dst, v);
            }
            [(d0, s0), (d1, s1)] => {
                // Parallel copy: read every source before any write.
                let v0 = self.read(base, s0);
                let v1 = self.read(base, s1);
                self.write(base, d0, v0);
                self.write(base, d1, v1);
            }
            _ => {
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.clear();
                scratch.extend(e.moves.iter().map(|&(_, src)| self.read(base, src)));
                for (k, &(dst, _)) in e.moves.iter().enumerate() {
                    self.write(base, dst, scratch[k]);
                }
                self.scratch = scratch;
            }
        }
        if hot.dynamic_insts >= self.capture_at {
            self.capture_rung(state, hot, e.target);
        }
        e.target as usize
    }

    /// Snapshots the whole machine as a rung resuming the innermost
    /// frame at `pc`, then advances [`CompiledMachine::capture_at`] to
    /// the next multiple of the spacing, thinning the ladder when it
    /// outgrows [`Ladder::MAX_BYTES`].
    #[cold]
    #[inline(never)]
    fn capture_rung(&mut self, state: &mut RunState<'_>, hot: &HotCounters, pc: u32) {
        hot.flush(state);
        let mut capture = (self.capture.take()).expect("capture_at is only armed while capturing");
        let mut frames = self.frames.clone();
        frames.last_mut().expect("a frame is running").pc = pc;
        let rung = Checkpoint {
            stack: self.stack.clone(),
            allocas: self.allocas.clone(),
            frames,
            memory: state.memory.clone(),
            outputs: state.outputs.clone(),
            console: state.console.clone(),
            dynamic_insts: state.dynamic_insts,
            eligible_results: state.eligible_results,
            loads: state.loads,
            stores: state.stores,
            cond_branches: state.cond_branches,
        };
        let bytes = rung.bytes();
        if bytes > Ladder::MAX_BYTES {
            // Not even one rung fits: keep what there is and stop.
            self.capture = Some(capture);
            self.capture_at = u64::MAX;
            return;
        }
        capture.bytes += bytes;
        capture.rungs.push(rung);
        while capture.bytes > Ladder::MAX_BYTES {
            // Keep the rungs nearest the even multiples of the spacing.
            let mut keep = false;
            capture.rungs.retain(|_| {
                keep = !keep;
                !keep
            });
            capture.spacing = capture.spacing.saturating_mul(2);
            capture.bytes = capture.rungs.iter().map(Checkpoint::bytes).sum();
        }
        self.capture_at = (state.dynamic_insts / capture.spacing)
            .saturating_add(1)
            .saturating_mul(capture.spacing);
        self.capture = Some(capture);
    }

    /// Runs one frame from `pc`. With `ret` set, the frame is suspended
    /// in the call at `pc`, and `ret` is its callee's return value.
    fn run_frame(
        &mut self,
        state: &mut RunState<'_>,
        fid: FuncId,
        base: usize,
        depth: usize,
        pc: u32,
        ret: Option<u64>,
    ) -> Result<Option<u64>, Stop> {
        // The counters live in registers for the duration of the frame;
        // every exit edge below flushes them back (idempotently).
        let mut hot = HotCounters::load(state);
        let result = self.frame_loop(state, &mut hot, fid, base, depth, pc, ret);
        hot.flush(state);
        result
    }

    /// Finishes a [`CInst::Call`] with its callee's return value `v`:
    /// a non-void result is an eligible site and lands in `dst`.
    #[inline]
    fn call_result(
        &mut self,
        state: &mut RunState<'_>,
        hot: &mut HotCounters,
        fid: FuncId,
        base: usize,
        (dst, site, width): (u32, InstId, u32),
        v: u64,
    ) {
        if dst != NO_SLOT {
            let bits = hot.inject(state, fid, site, width, v);
            self.write(base, dst, bits);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn frame_loop(
        &mut self,
        state: &mut RunState<'_>,
        hot: &mut HotCounters,
        fid: FuncId,
        base: usize,
        depth: usize,
        pc: u32,
        ret: Option<u64>,
    ) -> Result<Option<u64>, Stop> {
        // `prog` outlives `self`'s borrow, so the code array can be held
        // across stack mutations.
        let prog = self.prog;
        let f = &prog.funcs[fid.index()];
        let mut pc = pc as usize;
        if let Some(v) = ret {
            // Resuming in a call whose callee has returned.
            let CInst::Call {
                dst, site, width, ..
            } = &f.code[pc]
            else {
                unreachable!("a suspended frame waits in a call")
            };
            self.call_result(state, hot, f.fid, base, (*dst, *site, *width), v);
            pc += 1;
        }
        loop {
            let inst = &f.code[pc];
            pc += 1;
            hot.tick(state)?;
            match inst {
                CInst::IBin {
                    op,
                    lhs,
                    rhs,
                    dst,
                    site,
                } => {
                    let a = self.read(base, *lhs) as i64;
                    let b = self.read(base, *rhs) as i64;
                    use BinOp::*;
                    let v = match op {
                        Add => a.wrapping_add(b),
                        Sub => a.wrapping_sub(b),
                        Mul => a.wrapping_mul(b),
                        And => a & b,
                        Or => a | b,
                        Xor => a ^ b,
                        Shl => a.wrapping_shl((b & 63) as u32),
                        Lshr => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
                        Ashr => a.wrapping_shr((b & 63) as u32),
                        _ => unreachable!("lowering routes div/rem/float/bool elsewhere"),
                    };
                    let bits = hot.inject(state, f.fid, *site, W64, v as u64);
                    self.write(base, *dst, bits);
                }
                CInst::IBinBr {
                    op,
                    lhs,
                    rhs,
                    dst,
                    site,
                    edge,
                } => {
                    let a = self.read(base, *lhs) as i64;
                    let b = self.read(base, *rhs) as i64;
                    use BinOp::*;
                    let v = match op {
                        Add => a.wrapping_add(b),
                        Sub => a.wrapping_sub(b),
                        Mul => a.wrapping_mul(b),
                        And => a & b,
                        Or => a | b,
                        Xor => a ^ b,
                        Shl => a.wrapping_shl((b & 63) as u32),
                        Lshr => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
                        Ashr => a.wrapping_shr((b & 63) as u32),
                        _ => unreachable!("lowering routes div/rem/float/bool elsewhere"),
                    };
                    let bits = hot.inject(state, f.fid, *site, W64, v as u64);
                    self.write(base, *dst, bits);
                    // The folded br is still its own instruction.
                    hot.tick(state)?;
                    pc = self.take_edge(state, hot, &f.edges, base, *edge);
                }
                CInst::IDiv {
                    rem,
                    lhs,
                    rhs,
                    dst,
                    site,
                } => {
                    let a = self.read(base, *lhs) as i64;
                    let b = self.read(base, *rhs) as i64;
                    if b == 0 {
                        return Err(Stop::Trap(Trap::DivByZero));
                    }
                    if a == i64::MIN && b == -1 {
                        return Err(Stop::Trap(Trap::DivOverflow));
                    }
                    let v = if *rem { a % b } else { a / b };
                    let bits = hot.inject(state, f.fid, *site, W64, v as u64);
                    self.write(base, *dst, bits);
                }
                CInst::FBin {
                    op,
                    lhs,
                    rhs,
                    dst,
                    site,
                } => {
                    let a = f64::from_bits(self.read(base, *lhs));
                    let b = f64::from_bits(self.read(base, *rhs));
                    use BinOp::*;
                    let v = match op {
                        Fadd => a + b,
                        Fsub => a - b,
                        Fmul => a * b,
                        Fdiv => a / b,
                        Frem => a % b,
                        _ => unreachable!("lowering routes integer ops elsewhere"),
                    };
                    let bits = hot.inject(state, f.fid, *site, W64, v.to_bits());
                    self.write(base, *dst, bits);
                }
                CInst::FBinStore {
                    op,
                    lhs,
                    rhs,
                    dst,
                    site,
                    store_site,
                    addr,
                } => {
                    let a = f64::from_bits(self.read(base, *lhs));
                    let b = f64::from_bits(self.read(base, *rhs));
                    use BinOp::*;
                    let v = match op {
                        Fadd => a + b,
                        Fsub => a - b,
                        Fmul => a * b,
                        Fdiv => a / b,
                        Frem => a % b,
                        _ => unreachable!("lowering routes integer ops elsewhere"),
                    };
                    let bits = hot.inject(state, f.fid, *site, W64, v.to_bits());
                    self.write(base, *dst, bits);
                    // The folded store is still its own instruction; it
                    // writes the possibly-flipped image just produced.
                    hot.tick(state)?;
                    let a = self.read(base, *addr);
                    let stored = hot.store_bits(state, f.fid, *store_site, bits);
                    state.memory.store(a, stored).map_err(Stop::Trap)?;
                }
                CInst::BBin {
                    op,
                    lhs,
                    rhs,
                    dst,
                    site,
                } => {
                    let a = self.read(base, *lhs);
                    let b = self.read(base, *rhs);
                    let v = match op {
                        BinOp::And => a & b,
                        BinOp::Or => a | b,
                        BinOp::Xor => a ^ b,
                        _ => unreachable!("verifier restricts bool binaries to bitwise"),
                    };
                    let bits = hot.inject(state, f.fid, *site, W1, v);
                    self.write(base, *dst, bits);
                }
                CInst::Icmp {
                    pred,
                    lhs,
                    rhs,
                    dst,
                    site,
                } => {
                    let a = self.read(base, *lhs) as i64;
                    let b = self.read(base, *rhs) as i64;
                    let v = pred.eval(a, b) as u64;
                    let bits = hot.inject(state, f.fid, *site, W1, v);
                    self.write(base, *dst, bits);
                }
                CInst::Fcmp {
                    pred,
                    lhs,
                    rhs,
                    dst,
                    site,
                } => {
                    let a = f64::from_bits(self.read(base, *lhs));
                    let b = f64::from_bits(self.read(base, *rhs));
                    let v = pred.eval(a, b) as u64;
                    let bits = hot.inject(state, f.fid, *site, W1, v);
                    self.write(base, *dst, bits);
                }
                CInst::IcmpBr {
                    pred,
                    lhs,
                    rhs,
                    dst,
                    site,
                    br_site,
                    then_edge,
                    else_edge,
                } => {
                    let a = self.read(base, *lhs) as i64;
                    let b = self.read(base, *rhs) as i64;
                    let v = pred.eval(a, b) as u64;
                    let bits = hot.inject(state, f.fid, *site, W1, v);
                    self.write(base, *dst, bits);
                    // The folded condbr is still its own instruction.
                    hot.tick(state)?;
                    let taken = hot.branch_edge(state, f.fid, *br_site, bits != 0);
                    let edge = if taken { *then_edge } else { *else_edge };
                    pc = self.take_edge(state, hot, &f.edges, base, edge);
                }
                CInst::FcmpBr {
                    pred,
                    lhs,
                    rhs,
                    dst,
                    site,
                    br_site,
                    then_edge,
                    else_edge,
                } => {
                    let a = f64::from_bits(self.read(base, *lhs));
                    let b = f64::from_bits(self.read(base, *rhs));
                    let v = pred.eval(a, b) as u64;
                    let bits = hot.inject(state, f.fid, *site, W1, v);
                    self.write(base, *dst, bits);
                    hot.tick(state)?;
                    let taken = hot.branch_edge(state, f.fid, *br_site, bits != 0);
                    let edge = if taken { *then_edge } else { *else_edge };
                    pc = self.take_edge(state, hot, &f.edges, base, edge);
                }
                CInst::CastSitofp { arg, dst, site } => {
                    let v = ((self.read(base, *arg) as i64) as f64).to_bits();
                    let bits = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *dst, bits);
                }
                CInst::CastFptosi { arg, dst, site } => {
                    let v = saturating_f64_to_i64(f64::from_bits(self.read(base, *arg))) as u64;
                    let bits = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *dst, bits);
                }
                CInst::CastTrunc { arg, dst, site } => {
                    let v = self.read(base, *arg) & 1;
                    let bits = hot.inject(state, f.fid, *site, W1, v);
                    self.write(base, *dst, bits);
                }
                CInst::CastId { arg, dst, site } => {
                    let v = self.read(base, *arg);
                    let bits = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *dst, bits);
                }
                CInst::Select {
                    cond,
                    then_v,
                    else_v,
                    dst,
                    site,
                    width,
                } => {
                    let c = self.read(base, *cond) != 0;
                    let v = self.read(base, if c { *then_v } else { *else_v });
                    let bits = hot.inject(state, f.fid, *site, *width, v);
                    self.write(base, *dst, bits);
                }
                CInst::Alloca { bytes, dst } => {
                    let p = state.memory.alloc(*bytes).map_err(Stop::Trap)?;
                    self.allocas.push(p);
                    self.write(base, *dst, p);
                }
                CInst::Load {
                    addr,
                    dst,
                    site,
                    mask,
                } => {
                    let a = self.read(base, *addr);
                    let bits = state.memory.load(a).map_err(Stop::Trap)?;
                    let bits = hot.load_bits(state, f.fid, *site, bits);
                    self.write(base, *dst, bits & mask);
                }
                CInst::Store { value, addr, site } => {
                    let v = self.read(base, *value);
                    let v = hot.store_bits(state, f.fid, *site, v);
                    let a = self.read(base, *addr);
                    state.memory.store(a, v).map_err(Stop::Trap)?;
                }
                CInst::Gep {
                    base: b,
                    index,
                    dst,
                    site,
                } => {
                    let p = self.read(base, *b);
                    let i = self.read(base, *index);
                    let v = gep_addr(p, i as i64);
                    let bits = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *dst, bits);
                }
                CInst::GepConst {
                    base: b,
                    offset,
                    dst,
                    site,
                } => {
                    let v = gep_const_addr(self.read(base, *b), *offset);
                    let bits = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *dst, bits);
                }
                CInst::GepLoad {
                    base: b,
                    index,
                    gep_dst,
                    site,
                    load_site,
                    load_dst,
                    mask,
                } => {
                    let p = self.read(base, *b);
                    let i = self.read(base, *index);
                    let v = gep_addr(p, i as i64);
                    let addr = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *gep_dst, addr);
                    // The folded load is still its own instruction.
                    hot.tick(state)?;
                    let bits = state.memory.load(addr).map_err(Stop::Trap)?;
                    let bits = hot.load_bits(state, f.fid, *load_site, bits);
                    self.write(base, *load_dst, bits & mask);
                }
                CInst::GepConstLoad {
                    base: b,
                    offset,
                    gep_dst,
                    site,
                    load_site,
                    load_dst,
                    mask,
                } => {
                    let v = gep_const_addr(self.read(base, *b), *offset);
                    let addr = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *gep_dst, addr);
                    hot.tick(state)?;
                    let bits = state.memory.load(addr).map_err(Stop::Trap)?;
                    let bits = hot.load_bits(state, f.fid, *load_site, bits);
                    self.write(base, *load_dst, bits & mask);
                }
                CInst::GepStore {
                    base: b,
                    index,
                    gep_dst,
                    site,
                    store_site,
                    value,
                } => {
                    let p = self.read(base, *b);
                    let i = self.read(base, *index);
                    let v = gep_addr(p, i as i64);
                    let addr = hot.inject(state, f.fid, *site, W64, v);
                    // Address lands in its slot before the value is
                    // read: the stored value may be the address itself.
                    self.write(base, *gep_dst, addr);
                    hot.tick(state)?;
                    let val = self.read(base, *value);
                    let val = hot.store_bits(state, f.fid, *store_site, val);
                    state.memory.store(addr, val).map_err(Stop::Trap)?;
                }
                CInst::GepConstStore {
                    base: b,
                    offset,
                    gep_dst,
                    site,
                    store_site,
                    value,
                } => {
                    let v = gep_const_addr(self.read(base, *b), *offset);
                    let addr = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *gep_dst, addr);
                    hot.tick(state)?;
                    let val = self.read(base, *value);
                    let val = hot.store_bits(state, f.fid, *store_site, val);
                    state.memory.store(addr, val).map_err(Stop::Trap)?;
                }
                CInst::Call {
                    callee,
                    args,
                    dst,
                    site,
                    width,
                } => {
                    let v = match callee {
                        CCallee::Func(callee_fid) => {
                            // Push the callee frame, writing evaluated
                            // arguments and the callee's constant pool
                            // straight into its slots.
                            let callee_f = &prog.funcs[callee_fid.index()];
                            let callee_slots = callee_f.frame_slots as usize;
                            let callee_base = self.stack.len();
                            self.stack.resize(callee_base + callee_slots, 0);
                            for (k, a) in args.iter().enumerate() {
                                let v = self.read(base, *a);
                                self.stack[callee_base + k] = v;
                            }
                            self.stack[callee_base + callee_slots - callee_f.consts.len()..]
                                .copy_from_slice(&callee_f.consts);
                            // The callee frame runs on its own counter
                            // image; hand ours over and take theirs back.
                            // A rung captured inside the callee resumes
                            // this frame at this call.
                            self.frames[depth].pc = (pc - 1) as u32;
                            hot.flush(state);
                            let r = self.exec_func(state, *callee_fid, callee_base, depth + 1);
                            *hot = HotCounters::load(state);
                            self.stack.truncate(callee_base);
                            r?.unwrap_or(0)
                        }
                        CCallee::Intrinsic(intr) => {
                            // Intrinsics are the shared typed implementation:
                            // rebuild RtVal arguments from their static
                            // parameter types (canonical images make this
                            // exact).
                            let ptys = intr.param_types();
                            let mut vals = [RtVal::Unit; INTRINSIC_MAX_ARGS];
                            for (k, a) in args.iter().enumerate() {
                                vals[k] = RtVal::from_bits(ptys[k], self.read(base, *a));
                            }
                            exec_intrinsic(state, *intr, &vals[..args.len()])?.bits()
                        }
                    };
                    self.call_result(state, hot, f.fid, base, (*dst, *site, *width), v);
                }
                CInst::Br { edge } => {
                    pc = self.take_edge(state, hot, &f.edges, base, *edge);
                }
                CInst::CondBr {
                    cond,
                    site,
                    then_edge,
                    else_edge,
                } => {
                    let c = self.read(base, *cond) != 0;
                    let c = hot.branch_edge(state, f.fid, *site, c);
                    let edge = if c { *then_edge } else { *else_edge };
                    pc = self.take_edge(state, hot, &f.edges, base, edge);
                }
                CInst::Ret { value } => {
                    return Ok(value.map(|v| self.read(base, v)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{maybe_inject, FaultModel, Injection, Machine, RunStatus, SiteClass};
    use ipas_ir::parser::parse_module;
    use std::time::Duration;

    fn both(src: &str, config: &RunConfig) -> (RunOutput, RunOutput) {
        let module = parse_module(src).unwrap();
        ipas_ir::verify::verify_module(&module).unwrap();
        let reference = Machine::new(&module).run(config).unwrap();
        let prog = CompiledProgram::compile(&module);
        let compiled = CompiledMachine::new(&prog).run(config).unwrap();
        (reference, compiled)
    }

    fn assert_identical(a: &RunOutput, b: &RunOutput) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.dynamic_insts, b.dynamic_insts);
        assert_eq!(a.eligible_results, b.eligible_results);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.stores, b.stores);
        assert_eq!(a.cond_branches, b.cond_branches);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.console, b.console);
        assert_eq!(a.injected_site, b.injected_site);
        assert_eq!(a.injected_at_inst, b.injected_at_inst);
    }

    const LOOP_SRC: &str = r#"
fn @main() -> i64 {
bb0:
  br bb1
bb1:
  %v0 = phi i64 [bb0: 0, bb2: %v3]
  %v1 = phi i64 [bb0: 0, bb2: %v4]
  %v2 = icmp slt %v0, 10
  condbr %v2, bb2, bb3
bb2:
  %v4 = add i64 %v1, %v0
  %v3 = add i64 %v0, 1
  br bb1
bb3:
  %v5 = call output_i64(%v1) -> void
  ret %v1
}
"#;

    #[test]
    fn loop_with_phis_matches_reference() {
        let (a, b) = both(LOOP_SRC, &RunConfig::default());
        assert_eq!(b.status, RunStatus::Completed(Some(RtVal::I64(45))));
        assert_identical(&a, &b);
    }

    #[test]
    fn injection_sweep_matches_reference() {
        let clean = {
            let module = parse_module(LOOP_SRC).unwrap();
            Machine::new(&module).run(&RunConfig::default()).unwrap()
        };
        for target in 0..clean.eligible_results {
            for bit in [0u32, 3, 17, 62] {
                let config = RunConfig {
                    injection: Some(Injection::at_global_index(target, bit)),
                    ..RunConfig::default()
                };
                let (a, b) = both(LOOP_SRC, &config);
                assert_identical(&a, &b);
            }
        }
    }

    /// Pins [`HotCounters::inject`] to [`maybe_inject`]: for every value
    /// type and a spread of requested bits, the two produce the same
    /// flipped image and the same eligible/site bookkeeping.
    #[test]
    fn injection_bits_twin_agrees() {
        let module = parse_module(LOOP_SRC).unwrap();
        let (fid, func) = module.functions().next().unwrap();
        let id = func.block(func.entry()).insts()[0];
        for value in [
            RtVal::I64(-7),
            RtVal::F64(3.25),
            RtVal::Bool(true),
            RtVal::Ptr(0xdead_beef),
        ] {
            for bit in [0u32, 1, 17, 63] {
                let config = RunConfig {
                    injection: Some(Injection::at_global_index(0, bit)),
                    ..RunConfig::default()
                };
                let width = value.ty().bit_width().max(1);
                let mut env = SerialEnv;
                let mut s1 = RunState::start(Memory::new(), &config, &mut env);
                let flipped = maybe_inject(&mut s1, fid, id, value);
                let mut env2 = SerialEnv;
                let mut s2 = RunState::start(Memory::new(), &config, &mut env2);
                let mut hot = HotCounters::load(&s2);
                let flipped_bits = hot.inject(&mut s2, fid, id, width, value.bits());
                hot.flush(&mut s2);
                assert_eq!(flipped.bits(), flipped_bits, "{value:?} bit {bit}");
                assert_eq!(flipped, RtVal::from_bits(value.ty(), flipped_bits));
                assert_eq!(s1.eligible_results, s2.eligible_results);
                assert_eq!(s1.injected_site, s2.injected_site);
            }
        }
    }

    /// Every fault model must preserve the bit-identity contract: for
    /// each model, sweep a spread of targets and bits over a workload
    /// that exercises loads, stores, and conditional branches, and
    /// assert the reference and pre-decoded engines produce the same
    /// corrupted execution (including the per-class dynamic counters).
    #[test]
    fn fault_model_sweep_matches_reference() {
        let src = r#"
fn @main() -> i64 {
bb0:
  %v0 = call malloc(64) -> ptr
  br bb1
bb1:
  %v1 = phi i64 [bb0: 0, bb2: %v6]
  %v2 = icmp slt %v1, 8
  condbr %v2, bb2, bb3
bb2:
  %v3 = gep i64 %v0, %v1
  %v4 = mul i64 %v1, 3
  store i64 %v4, %v3
  %v5 = load i64, %v3
  %v6 = add i64 %v1, 1
  br bb1
bb3:
  br bb4
bb4:
  %v7 = phi i64 [bb3: 0, bb5: %v11]
  %v8 = phi i64 [bb3: 0, bb5: %v12]
  %v9 = icmp slt %v7, 8
  condbr %v9, bb5, bb6
bb5:
  %v10 = gep i64 %v0, %v7
  %v13 = load i64, %v10
  %v12 = add i64 %v8, %v13
  %v11 = add i64 %v7, 1
  br bb4
bb6:
  %v14 = call free(%v0) -> void
  %v15 = call output_i64(%v8) -> void
  ret %v8
}
"#;
        let clean = {
            let module = parse_module(src).unwrap();
            Machine::new(&module).run(&RunConfig::default()).unwrap()
        };
        assert!(clean.loads > 0, "workload must execute loads");
        assert!(clean.stores > 0, "workload must execute stores");
        assert!(clean.cond_branches > 0, "workload must branch");
        for model in FaultModel::ALL {
            let space = match model.site_class() {
                SiteClass::Value => clean.eligible_results,
                SiteClass::Load => clean.loads,
                SiteClass::Store => clean.stores,
                SiteClass::Branch => clean.cond_branches,
            };
            assert!(space > 0, "{model}: no eligible sites");
            for target in [0, space / 3, space / 2, space - 1] {
                for bit in [0u32, 5, 33, 63, 97] {
                    let bit = bit % model.bit_domain();
                    let config = RunConfig {
                        injection: Some(Injection::for_model(model, target, bit)),
                        ..RunConfig::default()
                    };
                    let (a, b) = both(src, &config);
                    assert_identical(&a, &b);
                    assert!(
                        a.injected_site.is_some(),
                        "{model}: target {target} never fired"
                    );
                }
            }
        }
    }

    #[test]
    fn calls_memory_and_traps_match_reference() {
        let src = r#"
fn @main() -> f64 {
bb0:
  %v0 = call malloc(32) -> ptr
  %v1 = gep f64 %v0, 2
  store f64 2.25, %v1
  %v2 = load f64, %v1
  %v3 = call @twice(%v2) -> f64
  %v4 = call free(%v0) -> void
  %v5 = call output_f64(%v3) -> void
  ret %v3
}
fn @twice(f64) -> f64 {
bb0:
  %v0 = alloca f64, 1
  store f64 %arg0, %v0
  %v1 = load f64, %v0
  %v2 = fadd f64 %v1, %v1
  ret %v2
}
"#;
        let (a, b) = both(src, &RunConfig::default());
        assert_eq!(b.status, RunStatus::Completed(Some(RtVal::F64(4.5))));
        assert_identical(&a, &b);
        // Sweep every eligible result: pointer corruptions trap the
        // same way in both engines.
        for target in 0..a.eligible_results {
            let config = RunConfig {
                injection: Some(Injection::at_global_index(target, 33)),
                ..RunConfig::default()
            };
            let (a, b) = both(src, &config);
            assert_identical(&a, &b);
        }
    }

    #[test]
    fn machine_reuse_is_stateless() {
        let module = parse_module(LOOP_SRC).unwrap();
        let prog = CompiledProgram::compile(&module);
        let mut m = CompiledMachine::new(&prog);
        let first = m.run(&RunConfig::default()).unwrap();
        // Interleave a corrupted run, then verify the clean run replays
        // bit-identically on the same machine.
        let _ = m
            .run(&RunConfig {
                injection: Some(Injection::at_global_index(2, 61)),
                ..RunConfig::default()
            })
            .unwrap();
        let again = m.run(&RunConfig::default()).unwrap();
        assert_identical(&first, &again);
    }

    #[test]
    fn budget_and_deadline_match_reference() {
        let src = "fn @main() {\nbb0:\n  br bb0\n}\n";
        let config = RunConfig {
            max_insts: 10_000,
            ..RunConfig::default()
        };
        let (a, b) = both(src, &config);
        assert_eq!(b.status, RunStatus::Hang);
        assert_identical(&a, &b);

        let module = parse_module(src).unwrap();
        let prog = CompiledProgram::compile(&module);
        let out = CompiledMachine::new(&prog)
            .run(&RunConfig {
                wall_limit: Some(Duration::from_millis(20)),
                ..RunConfig::default()
            })
            .unwrap();
        assert_eq!(out.status, RunStatus::Hang);
    }

    /// The budget must stop the compiled engine at the exact same
    /// instruction count as the reference for a spread of budgets around
    /// the poll interval (the watermark tick folds both conditions into
    /// one compare — an off-by-one here would shift every hang record).
    #[test]
    fn budget_watermark_is_exact() {
        let src = "fn @main() {\nbb0:\n  br bb0\n}\n";
        for max_insts in [1u64, 7, 4095, 4096, 4097, 8192, 10_000] {
            let config = RunConfig {
                max_insts,
                ..RunConfig::default()
            };
            let (a, b) = both(src, &config);
            assert_eq!(a.status, RunStatus::Hang);
            assert_identical(&a, &b);
        }
    }

    #[test]
    fn deep_recursion_traps_like_reference() {
        let src = r#"
fn @main() -> i64 {
bb0:
  %v0 = call @rec(0) -> i64
  ret %v0
}
fn @rec(i64) -> i64 {
bb0:
  %v0 = add i64 %arg0, 1
  %v1 = call @rec(%v0) -> i64
  ret %v1
}
"#;
        let (a, b) = both(src, &RunConfig::default());
        assert_eq!(b.status, RunStatus::Trapped(Trap::StackOverflow));
        assert_identical(&a, &b);
    }

    #[test]
    fn detection_matches_reference() {
        let src = r#"
fn @main() {
bb0:
  %v0 = add i64 1, 2
  %v1 = call __ipas_check_i(%v0, 4) -> void
  ret
}
"#;
        let (a, b) = both(src, &RunConfig::default());
        assert_eq!(b.status, RunStatus::Detected);
        assert_identical(&a, &b);
    }

    #[test]
    fn site_profile_matches_reference() {
        let config = RunConfig {
            profile_sites: true,
            ..RunConfig::default()
        };
        let (a, b) = both(LOOP_SRC, &config);
        assert_eq!(a.site_profile, b.site_profile);
    }

    #[test]
    fn eligible_trace_matches_reference() {
        let config = RunConfig {
            trace_eligible: true,
            ..RunConfig::default()
        };
        let (a, b) = both(LOOP_SRC, &config);
        assert_identical(&a, &b);
        let trace = a.eligible_trace.expect("trace requested");
        assert_eq!(trace, b.eligible_trace.expect("trace requested"));
        // The RLE runs cover the eligible sequence exactly, and the
        // encoding is maximal (no two adjacent runs share a site).
        assert_eq!(
            trace.iter().map(|&(_, _, n)| n).sum::<u64>(),
            a.eligible_results
        );
        for w in trace.windows(2) {
            assert_ne!((w[0].0, w[0].1), (w[1].0, w[1].1), "non-maximal run");
        }
        // Without the flag, no trace is produced.
        let (c, _) = both(LOOP_SRC, &RunConfig::default());
        assert!(c.eligible_trace.is_none());
    }

    #[test]
    fn entry_errors_match_reference() {
        let module = parse_module("fn @foo(i64) {\nbb0:\n  ret\n}\n").unwrap();
        let prog = CompiledProgram::compile(&module);
        let mut m = CompiledMachine::new(&prog);
        let missing = m.run(&RunConfig::default()).unwrap_err();
        assert_eq!(
            missing,
            Machine::new(&module)
                .run(&RunConfig::default())
                .unwrap_err()
        );
        let config = RunConfig {
            entry: "foo".into(),
            ..RunConfig::default()
        };
        let bad_arity = m.run(&config).unwrap_err();
        assert_eq!(bad_arity, Machine::new(&module).run(&config).unwrap_err());
    }

    #[test]
    fn engine_parses_from_str() {
        assert_eq!("reference".parse::<Engine>().unwrap(), Engine::Reference);
        assert_eq!("ref".parse::<Engine>().unwrap(), Engine::Reference);
        assert_eq!("compiled".parse::<Engine>().unwrap(), Engine::Compiled);
        assert!("jit".parse::<Engine>().is_err());
        assert_eq!(Engine::default(), Engine::Compiled);
    }
}
