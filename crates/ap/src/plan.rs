//! Compiled pass plans: instruction-specialized execution of [`ApProgram`]s.
//!
//! [`ApEngine::run`] interprets a program pass by pass: every invocation
//! re-derives the key/pattern list of each instruction, allocates search keys
//! and tag registers, and branches on [`ApInstruction`]/[`Operand`] shape
//! inside the hot loop. [`PlanCompiler`] removes that interpreter tax by
//! lowering a program **once** into a [`PassPlan`]:
//!
//! * every (column, domain) pair is pre-resolved to an absolute bit-plane
//!   base address,
//! * every bit of every instruction becomes one *fused group* executed by a
//!   kernel monomorphized per (LUT kind × operand addressing pattern) — the
//!   full search/write pass sequence of that bit runs as straight-line word
//!   operations with the LUT baked into the code,
//! * each fused sweep books its data-dependent written bits once, from the
//!   union of its pass masks (no row matches two passes of one table),
//! * adjacent all-rows zero writes (carry resets, destination clears) that
//!   share the same all-set key are merged into a single combined sweep by
//!   the fusion pass, and
//! * the per-column align walks and all data-independent [`cam::CamStats`]
//!   charges are folded into closed-form summaries booked in one call.
//!
//! The plan path is pinned bit-identical to the interpreter — same column
//! dumps, same tag vectors, same counters, same error messages. Programs
//! whose execution could fail (operand conflicts, out-of-range addresses,
//! duplicate destination columns) are compiled to a *fallback* plan that
//! simply reruns the interpreter, reproducing its exact error and
//! partial-application semantics.

use crate::{ApEngine, ApError, ApInstruction, ApProgram, CarrySlot, LutKind, Operand, Result};
use cam::{BitPlaneArray, PlaneAccess};
use serde::{Deserialize, Serialize};

/// The array geometry a [`PassPlan`] is lowered for. Plans pre-resolve
/// absolute plane addresses, so a plan only runs on arrays of this exact
/// shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanGeometry {
    /// Number of SIMD rows.
    pub rows: usize,
    /// Number of operand columns.
    pub cols: usize,
    /// Domains (storable bits) per cell.
    pub domains: usize,
}

impl PlanGeometry {
    /// The geometry of an existing array.
    pub fn of(array: &BitPlaneArray) -> Self {
        PlanGeometry {
            rows: array.rows(),
            cols: array.cols(),
            domains: array.domains(),
        }
    }
}

/// Lowering statistics of one compiled plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Search/write passes the interpreter would issue for this program.
    pub passes_before_fusion: u64,
    /// Fused kernel sweeps the compiled plan issues instead.
    pub passes_after_fusion: u64,
    /// Whether the plan fell back to the reference interpreter (programs
    /// whose execution could fail are not specialized).
    pub fallback: bool,
}

/// Match contribution of one key bit: the plane word for a `1` key, its
/// complement for a `0` key.
macro_rules! key_word {
    ($reg:expr, 1) => {
        $reg
    };
    ($reg:expr, 0) => {
        !$reg
    };
}

/// Applies one write bit to the matched rows `$m` of register `$reg`.
macro_rules! write_word {
    ($reg:ident, $m:expr, 1) => {
        $reg |= $m
    };
    ($reg:ident, $m:expr, 0) => {
        $reg &= !$m
    };
}

/// Most passes any fused sweep issues (the out-of-place `ab` tables).
const MAX_PASSES: usize = 5;

/// What one fused sweep reports for its data-dependent written bits.
///
/// Every kernel table's passes are mutually exclusive: a row one pass
/// rewrites matches no later pass of the same table, and a row no pass has
/// touched matches at most one (pinned exhaustively by
/// `kernel_passes_are_mutually_exclusive`). The sweep's written bits
/// `Σₚ pattern_bits · popcount(mₚ)` therefore equal `pattern_bits ·
/// popcount(∪ₚ mₚ)`, so one booking of the union replaces one per pass.
struct SweepTags<'a> {
    /// Per row word, the union of the sweep's pass match masks.
    union: &'a mut [u64],
    /// Per pass, its tagged-row population for the pass log; filled only by
    /// the `LOG` kernel instances and never booked into the counters.
    populations: [u64; MAX_PASSES],
}

/// Monomorphizes one in-place LUT kernel from its filtered pass table
/// (`key_carry, key_acc [, key_a] => write_carry, write_acc`). One call
/// sweeps every pass of one accumulator bit over all rows, updating the
/// carry/accumulator registers between passes exactly like the interpreter's
/// sequential search/write pairs, and stores the union of the pass match
/// masks (plus, when `LOG`, each pass's population) into `tags`.
macro_rules! in_place_kernel {
    ($name:ident, with_a, $(($kc:tt, $kb:tt, $ka:tt => $wc:tt, $wb:tt)),+ $(,)?) => {
        fn $name<const LOG: bool>(
            access: &mut PlaneAccess<'_>,
            carry: usize,
            acc: usize,
            a: usize,
            tags: &mut SweepTags<'_>,
        ) -> usize {
            let words = access.words();
            for w in 0..words {
                let valid = access.valid_mask(w);
                let mut cr = access.word(carry, w);
                let mut br = access.word(acc, w);
                let ar = access.word(a, w);
                let mut any = 0u64;
                let mut pass = 0usize;
                $(
                    let m = valid
                        & key_word!(cr, $kc)
                        & key_word!(br, $kb)
                        & key_word!(ar, $ka);
                    any |= m;
                    if LOG {
                        tags.populations[pass] += u64::from(m.count_ones());
                    }
                    write_word!(cr, m, $wc);
                    write_word!(br, m, $wb);
                    pass += 1;
                )+
                let _ = pass;
                tags.union[w] = any;
                access.set_word(carry, w, cr);
                access.set_word(acc, w, br);
            }
            [$(($kc)),+].len()
        }
    };
    ($name:ident, no_a, $(($kc:tt, $kb:tt => $wc:tt, $wb:tt)),+ $(,)?) => {
        fn $name<const LOG: bool>(
            access: &mut PlaneAccess<'_>,
            carry: usize,
            acc: usize,
            tags: &mut SweepTags<'_>,
        ) -> usize {
            let words = access.words();
            for w in 0..words {
                let valid = access.valid_mask(w);
                let mut cr = access.word(carry, w);
                let mut br = access.word(acc, w);
                let mut any = 0u64;
                let mut pass = 0usize;
                $(
                    let m = valid & key_word!(cr, $kc) & key_word!(br, $kb);
                    any |= m;
                    if LOG {
                        tags.populations[pass] += u64::from(m.count_ones());
                    }
                    write_word!(cr, m, $wc);
                    write_word!(br, m, $wb);
                    pass += 1;
                )+
                let _ = pass;
                tags.union[w] = any;
                access.set_word(carry, w, cr);
                access.set_word(acc, w, br);
            }
            [$(($kc)),+].len()
        }
    };
}

/// Monomorphizes one out-of-place LUT kernel from its filtered pass table
/// (`key_carry [, key_b] [, key_a] => write_carry, write_result`), one
/// variant per operand-presence regime (zero/sign extension drops absent
/// operand bits from the keys). The carry register is updated between
/// passes; the sources are read-only and the result bit is written to every
/// destination plane. Match masks are reported through `tags` as in
/// [`in_place_kernel!`].
macro_rules! out_of_place_kernel {
    ($name:ident, ab, $(($kc:tt, $kb:tt, $ka:tt => $wc:tt, $wr:tt)),+ $(,)?) => {
        fn $name<const LOG: bool>(
            access: &mut PlaneAccess<'_>,
            carry: usize,
            b: usize,
            a: usize,
            dests: &[usize],
            tags: &mut SweepTags<'_>,
        ) -> usize {
            let words = access.words();
            for w in 0..words {
                let valid = access.valid_mask(w);
                let mut cr = access.word(carry, w);
                let br = access.word(b, w);
                let ar = access.word(a, w);
                let mut any = 0u64;
                let mut pass = 0usize;
                $(
                    let m = valid
                        & key_word!(cr, $kc)
                        & key_word!(br, $kb)
                        & key_word!(ar, $ka);
                    any |= m;
                    if LOG {
                        tags.populations[pass] += u64::from(m.count_ones());
                    }
                    write_word!(cr, m, $wc);
                    for &dest in dests {
                        let cur = access.word(dest, w);
                        let mut updated = cur;
                        write_word!(updated, m, $wr);
                        access.set_word(dest, w, updated);
                    }
                    pass += 1;
                )+
                let _ = pass;
                tags.union[w] = any;
                access.set_word(carry, w, cr);
            }
            [$(($kc)),+].len()
        }
    };
    ($name:ident, a_only, $(($kc:tt, $ka:tt => $wc:tt, $wr:tt)),+ $(,)?) => {
        fn $name<const LOG: bool>(
            access: &mut PlaneAccess<'_>,
            carry: usize,
            a: usize,
            dests: &[usize],
            tags: &mut SweepTags<'_>,
        ) -> usize {
            let words = access.words();
            for w in 0..words {
                let valid = access.valid_mask(w);
                let mut cr = access.word(carry, w);
                let ar = access.word(a, w);
                let mut any = 0u64;
                let mut pass = 0usize;
                $(
                    let m = valid & key_word!(cr, $kc) & key_word!(ar, $ka);
                    any |= m;
                    if LOG {
                        tags.populations[pass] += u64::from(m.count_ones());
                    }
                    write_word!(cr, m, $wc);
                    for &dest in dests {
                        let cur = access.word(dest, w);
                        let mut updated = cur;
                        write_word!(updated, m, $wr);
                        access.set_word(dest, w, updated);
                    }
                    pass += 1;
                )+
                let _ = pass;
                tags.union[w] = any;
                access.set_word(carry, w, cr);
            }
            [$(($kc)),+].len()
        }
    };
    ($name:ident, b_only, $(($kc:tt, $kb:tt => $wc:tt, $wr:tt)),+ $(,)?) => {
        fn $name<const LOG: bool>(
            access: &mut PlaneAccess<'_>,
            carry: usize,
            b: usize,
            dests: &[usize],
            tags: &mut SweepTags<'_>,
        ) -> usize {
            let words = access.words();
            for w in 0..words {
                let valid = access.valid_mask(w);
                let mut cr = access.word(carry, w);
                let br = access.word(b, w);
                let mut any = 0u64;
                let mut pass = 0usize;
                $(
                    let m = valid & key_word!(cr, $kc) & key_word!(br, $kb);
                    any |= m;
                    if LOG {
                        tags.populations[pass] += u64::from(m.count_ones());
                    }
                    write_word!(cr, m, $wc);
                    for &dest in dests {
                        let cur = access.word(dest, w);
                        let mut updated = cur;
                        write_word!(updated, m, $wr);
                        access.set_word(dest, w, updated);
                    }
                    pass += 1;
                )+
                let _ = pass;
                tags.union[w] = any;
                access.set_word(carry, w, cr);
            }
            [$(($kc)),+].len()
        }
    };
    ($name:ident, neither, $(($kc:tt => $wc:tt, $wr:tt)),+ $(,)?) => {
        fn $name<const LOG: bool>(
            access: &mut PlaneAccess<'_>,
            carry: usize,
            dests: &[usize],
            tags: &mut SweepTags<'_>,
        ) -> usize {
            let words = access.words();
            for w in 0..words {
                let valid = access.valid_mask(w);
                let mut cr = access.word(carry, w);
                let mut any = 0u64;
                let mut pass = 0usize;
                $(
                    let m = valid & key_word!(cr, $kc);
                    any |= m;
                    if LOG {
                        tags.populations[pass] += u64::from(m.count_ones());
                    }
                    write_word!(cr, m, $wc);
                    for &dest in dests {
                        let cur = access.word(dest, w);
                        let mut updated = cur;
                        write_word!(updated, m, $wr);
                        access.set_word(dest, w, updated);
                    }
                    pass += 1;
                )+
                let _ = pass;
                tags.union[w] = any;
                access.set_word(carry, w, cr);
            }
            [$(($kc)),+].len()
        }
    };
}

// The filtered pass tables below are the Table I LUTs of `crate::lut`
// specialized per operand-presence regime, rows kept in table order exactly
// as the interpreter's key filters produce them.
in_place_kernel!(add_in_place_full, with_a,
    (0, 1, 1 => 1, 0),
    (0, 0, 1 => 0, 1),
    (1, 0, 0 => 0, 1),
    (1, 1, 0 => 1, 0),
);
in_place_kernel!(add_in_place_zero_a, no_a,
    (1, 0 => 0, 1),
    (1, 1 => 1, 0),
);
in_place_kernel!(sub_in_place_full, with_a,
    (0, 0, 1 => 1, 1),
    (0, 1, 1 => 0, 0),
    (1, 1, 0 => 0, 0),
    (1, 0, 0 => 1, 1),
);
in_place_kernel!(sub_in_place_zero_a, no_a,
    (1, 1 => 0, 0),
    (1, 0 => 1, 1),
);
out_of_place_kernel!(add_oop_ab, ab,
    (0, 0, 1 => 0, 1),
    (0, 1, 0 => 0, 1),
    (1, 0, 0 => 0, 1),
    (1, 1, 1 => 1, 1),
    (0, 1, 1 => 1, 0),
);
out_of_place_kernel!(add_oop_a, a_only, (0, 1 => 0, 1), (1, 0 => 0, 1));
out_of_place_kernel!(add_oop_b, b_only, (0, 1 => 0, 1), (1, 0 => 0, 1));
out_of_place_kernel!(add_oop_neither, neither, (1 => 0, 1));
out_of_place_kernel!(sub_oop_ab, ab,
    (0, 0, 1 => 1, 1),
    (0, 1, 0 => 0, 1),
    (1, 0, 0 => 1, 1),
    (1, 1, 0 => 0, 0),
    (1, 1, 1 => 1, 1),
);
out_of_place_kernel!(sub_oop_a, a_only, (0, 1 => 1, 1), (1, 0 => 1, 1));
out_of_place_kernel!(sub_oop_b, b_only, (0, 1 => 0, 1), (1, 0 => 1, 1), (1, 1 => 0, 0));
out_of_place_kernel!(sub_oop_neither, neither, (1 => 1, 1));

/// Fused copy sweep: both passes of one copied bit (`src == 0` → write 0,
/// `src == 1` → write 1) in one walk over the words. The two passes tag
/// every row between them, so the sweep's written bits are the
/// data-independent `dests × rows` booked at lowering time; only the `LOG`
/// instance reports the per-pass populations.
fn copy_kernel<const LOG: bool>(
    access: &mut PlaneAccess<'_>,
    src: usize,
    dests: &[usize],
    populations: &mut [u64; MAX_PASSES],
) -> usize {
    for w in 0..access.words() {
        let valid = access.valid_mask(w);
        let s = access.word(src, w);
        let m_zero = valid & !s;
        let m_one = valid & s;
        if LOG {
            populations[0] += u64::from(m_zero.count_ones());
            populations[1] += u64::from(m_one.count_ones());
        }
        for &dest in dests {
            let cur = access.word(dest, w);
            access.set_word(dest, w, (cur & !m_zero) | m_one);
        }
    }
    2
}

/// One monomorphized kernel per (LUT kind × operand addressing pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelId {
    AddInPlaceFull,
    AddInPlaceZeroA,
    SubInPlaceFull,
    SubInPlaceZeroA,
    AddOopAb,
    AddOopA,
    AddOopB,
    AddOopNeither,
    SubOopAb,
    SubOopA,
    SubOopB,
    SubOopNeither,
}

/// One fused LUT sweep: every pass of one processed bit of a binary
/// instruction, with all operands pre-resolved to absolute plane bases.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LutGroup {
    kernel: KernelId,
    /// Carry/borrow plane base.
    carry: usize,
    /// Accumulator (in place) or `b` source (out of place) plane base.
    b: usize,
    /// `a` source plane base (unused by the `ZeroA`/`B`/`Neither` kernels).
    a: usize,
    /// Destination plane bases (empty for in-place kernels).
    dests: Vec<usize>,
    /// Write-pattern bits per pass (2 in place, 1 + destinations out of
    /// place) — the per-pass multiplier of the data-dependent written bits.
    pattern_bits: u64,
}

impl LutGroup {
    /// Runs this group's monomorphized kernel over all rows, returning the
    /// number of passes swept.
    fn sweep<const LOG: bool>(
        &self,
        access: &mut PlaneAccess<'_>,
        tags: &mut SweepTags<'_>,
    ) -> usize {
        let (carry, b, a, dests) = (self.carry, self.b, self.a, &self.dests);
        match self.kernel {
            KernelId::AddInPlaceFull => add_in_place_full::<LOG>(access, carry, b, a, tags),
            KernelId::AddInPlaceZeroA => add_in_place_zero_a::<LOG>(access, carry, b, tags),
            KernelId::SubInPlaceFull => sub_in_place_full::<LOG>(access, carry, b, a, tags),
            KernelId::SubInPlaceZeroA => sub_in_place_zero_a::<LOG>(access, carry, b, tags),
            KernelId::AddOopAb => add_oop_ab::<LOG>(access, carry, b, a, dests, tags),
            KernelId::AddOopA => add_oop_a::<LOG>(access, carry, a, dests, tags),
            KernelId::AddOopB => add_oop_b::<LOG>(access, carry, b, dests, tags),
            KernelId::AddOopNeither => add_oop_neither::<LOG>(access, carry, dests, tags),
            KernelId::SubOopAb => sub_oop_ab::<LOG>(access, carry, b, a, dests, tags),
            KernelId::SubOopA => sub_oop_a::<LOG>(access, carry, a, dests, tags),
            KernelId::SubOopB => sub_oop_b::<LOG>(access, carry, b, dests, tags),
            KernelId::SubOopNeither => sub_oop_neither::<LOG>(access, carry, dests, tags),
        }
    }
}

/// One pre-resolved plan operation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PlanOp {
    /// Fused LUT sweep of one bit.
    Lut(LutGroup),
    /// Fused copy sweep of one bit.
    Copy { src: usize, dests: Vec<usize> },
    /// All-rows zero write into whole planes (clears, carry resets and
    /// zero-extension bits). Adjacent zero writes are merged by the fusion
    /// pass, sharing one combined sweep.
    Zero { planes: Vec<usize> },
}

/// Closed-form summary of one column's align subsequence: the interpreter
/// aligns the column at `first` first, pays `intra` more shifts walking the
/// program, and leaves the port at `last`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColumnAlign {
    col: usize,
    first: usize,
    intra: u64,
    last: usize,
}

/// The specialized execution form: pre-resolved ops plus the closed-form
/// accounting aggregates of the whole program.
#[derive(Debug, Clone, PartialEq)]
struct FastPlan {
    aligns: Vec<ColumnAlign>,
    ops: Vec<PlanOp>,
    /// Data-independent accounting: search cycles, searched key bits per
    /// row, write cycles, and the pattern bits written to every row (clears,
    /// carry resets and the two passes of each copied bit together).
    search_cycles: u64,
    key_bits: u64,
    write_cycles: u64,
    allset_pattern_bits: u64,
    words: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum PlanMode {
    Fast(FastPlan),
    Fallback(ApProgram),
}

/// A compiled execution plan for one [`ApProgram`] on one array geometry.
///
/// Built by [`PlanCompiler::compile`] (or [`ApEngine::compile_plan`]) and
/// executed by [`ApEngine::run_plan`]; bit-identical to [`ApEngine::run`] in
/// data, [`cam::CamStats`] and errors.
#[derive(Debug, Clone, PartialEq)]
pub struct PassPlan {
    geometry: PlanGeometry,
    stats: PlanStats,
    mode: PlanMode,
}

impl PassPlan {
    /// The geometry the plan was lowered for.
    pub fn geometry(&self) -> PlanGeometry {
        self.geometry
    }

    /// Lowering statistics (passes before/after fusion, fallback flag).
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Whether the plan executes through the reference interpreter instead
    /// of specialized kernels (programs whose execution could fail).
    pub fn is_fallback(&self) -> bool {
        self.stats.fallback
    }
}

/// Lowers [`ApProgram`]s into [`PassPlan`]s for one array geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCompiler {
    geometry: PlanGeometry,
}

impl PlanCompiler {
    /// Creates a compiler targeting `geometry`.
    pub fn new(geometry: PlanGeometry) -> Self {
        PlanCompiler { geometry }
    }

    /// Creates a compiler targeting the geometry of `array`.
    pub fn for_array(array: &BitPlaneArray) -> Self {
        Self::new(PlanGeometry::of(array))
    }

    /// Lowers `program` into a plan. Programs that validate cleanly against
    /// the target geometry become specialized fast plans; any program whose
    /// execution could fail (or that uses duplicate destination columns,
    /// whose deduplicated write patterns the kernels do not model) becomes a
    /// fallback plan that reruns the interpreter verbatim.
    pub fn compile(&self, program: &ApProgram) -> PassPlan {
        let mut lowering = Lowering::new(self.geometry);
        match lowering.lower(program) {
            Some(()) => {
                let before = lowering.passes_before;
                let ops = fuse(std::mem::take(&mut lowering.ops));
                PassPlan {
                    geometry: self.geometry,
                    stats: PlanStats {
                        passes_before_fusion: before,
                        passes_after_fusion: ops.len() as u64,
                        fallback: false,
                    },
                    mode: PlanMode::Fast(FastPlan {
                        aligns: lowering.aligns(),
                        ops,
                        search_cycles: lowering.search_cycles,
                        key_bits: lowering.key_bits,
                        write_cycles: lowering.write_cycles,
                        allset_pattern_bits: lowering.allset_pattern_bits,
                        words: BitPlaneArray::words_for_rows(self.geometry.rows),
                    }),
                }
            }
            None => PassPlan {
                geometry: self.geometry,
                stats: PlanStats {
                    passes_before_fusion: 0,
                    passes_after_fusion: 0,
                    fallback: true,
                },
                mode: PlanMode::Fallback(program.clone()),
            },
        }
    }
}

/// Merges adjacent ops sharing the same key into single combined sweeps:
/// consecutive all-rows zero writes (carry reset followed by destination
/// clears, clear followed by clear, zero-extension runs) collapse into one
/// multi-plane sweep. Event accounting is unaffected — the merged write
/// cycles were already booked at lowering time.
fn fuse(ops: Vec<PlanOp>) -> Vec<PlanOp> {
    let mut fused: Vec<PlanOp> = Vec::with_capacity(ops.len());
    for op in ops {
        if let PlanOp::Zero { planes } = &op {
            if let Some(PlanOp::Zero { planes: prev }) = fused.last_mut() {
                prev.extend_from_slice(planes);
                continue;
            }
        }
        fused.push(op);
    }
    fused
}

/// Per-column align-walk summary being accumulated during lowering.
#[derive(Debug, Clone, Copy)]
struct AlignSummary {
    first: usize,
    intra: u64,
    last: usize,
}

/// Minimal circular distance between two domains on a `domains`-deep track
/// (mirrors the shift accounting of the CAM model).
fn circular_distance(from: usize, to: usize, domains: usize) -> u64 {
    let folded = from.abs_diff(to) % domains;
    folded.min(domains - folded) as u64
}

/// One lowering walk over a program. Every method returns `None` as soon as
/// the program could fail at execution time, aborting to the fallback plan.
struct Lowering {
    geometry: PlanGeometry,
    words: usize,
    align_state: Vec<Option<AlignSummary>>,
    ops: Vec<PlanOp>,
    search_cycles: u64,
    key_bits: u64,
    write_cycles: u64,
    allset_pattern_bits: u64,
    passes_before: u64,
}

impl Lowering {
    fn new(geometry: PlanGeometry) -> Self {
        Lowering {
            geometry,
            words: BitPlaneArray::words_for_rows(geometry.rows),
            align_state: vec![None; geometry.cols],
            ops: Vec::new(),
            search_cycles: 0,
            key_bits: 0,
            write_cycles: 0,
            allset_pattern_bits: 0,
            passes_before: 0,
        }
    }

    fn aligns(&self) -> Vec<ColumnAlign> {
        self.align_state
            .iter()
            .enumerate()
            .filter_map(|(col, state)| {
                state.map(|s| ColumnAlign {
                    col,
                    first: s.first,
                    intra: s.intra,
                    last: s.last,
                })
            })
            .collect()
    }

    /// Replays one `align_column` call into the column's summary.
    fn align(&mut self, col: usize, domain: usize) -> Option<()> {
        if col >= self.geometry.cols || domain >= self.geometry.domains {
            return None;
        }
        match &mut self.align_state[col] {
            Some(state) => {
                state.intra += circular_distance(state.last, domain, self.geometry.domains);
                state.last = domain;
            }
            state @ None => {
                *state = Some(AlignSummary {
                    first: domain,
                    intra: 0,
                    last: domain,
                });
            }
        }
        Some(())
    }

    fn plane(&self, col: usize, domain: usize) -> usize {
        (col * self.geometry.domains + domain) * self.words
    }

    fn validate_operand(op: &Operand) -> Option<()> {
        (op.width >= 1 && op.width <= 63).then_some(())
    }

    /// Books one all-rows zero write (one write cycle, one pattern bit per
    /// plane — the interpreter issues one single-column write per plane).
    fn zero(&mut self, planes: Vec<usize>) {
        self.write_cycles += planes.len() as u64;
        self.allset_pattern_bits += planes.len() as u64;
        self.passes_before += planes.len() as u64;
        self.ops.push(PlanOp::Zero { planes });
    }

    /// Books one fused LUT group: the passes of `kind` that key only on
    /// supplied operands ([`LutKind::passes_keyed`]), each keying the carry
    /// plus every supplied operand bit and writing `group.pattern_bits`
    /// pattern bits.
    fn lut(&mut self, group: LutGroup, kind: LutKind, a_known: bool, b_known: bool) {
        let passes = kind.passes_keyed(a_known, b_known);
        self.search_cycles += passes;
        self.key_bits += passes * (1 + u64::from(a_known) + u64::from(b_known));
        self.write_cycles += passes;
        self.passes_before += passes;
        self.ops.push(PlanOp::Lut(group));
    }

    fn clear_carry(&mut self, carry: CarrySlot) -> Option<()> {
        self.align(carry.col, carry.domain)?;
        let plane = self.plane(carry.col, carry.domain);
        self.zero(vec![plane]);
        Some(())
    }

    fn clear(&mut self, dst: &Operand) -> Option<()> {
        Self::validate_operand(dst)?;
        for bit in 0..dst.width as usize {
            self.align(dst.col, dst.base + bit)?;
            let plane = self.plane(dst.col, dst.base + bit);
            self.zero(vec![plane]);
        }
        Some(())
    }

    fn lower(&mut self, program: &ApProgram) -> Option<()> {
        for instruction in program.iter() {
            match instruction {
                ApInstruction::AddInPlace { a, acc, carry } => {
                    self.lower_in_place(a, acc, *carry, true)?;
                }
                ApInstruction::SubInPlace { a, acc, carry } => {
                    self.lower_in_place(a, acc, *carry, false)?;
                }
                ApInstruction::AddOutOfPlace { a, b, dests, carry } => {
                    self.lower_out_of_place(a, b, dests, *carry, true)?;
                }
                ApInstruction::SubOutOfPlace { a, b, dests, carry } => {
                    self.lower_out_of_place(a, b, dests, *carry, false)?;
                }
                ApInstruction::Copy { src, dests } => self.lower_copy(src, dests)?,
                ApInstruction::Clear { dst } => self.clear(dst)?,
            }
        }
        Some(())
    }

    fn lower_in_place(
        &mut self,
        a: &Operand,
        acc: &Operand,
        carry: CarrySlot,
        is_add: bool,
    ) -> Option<()> {
        Self::validate_operand(a)?;
        Self::validate_operand(acc)?;
        if a.col == acc.col || carry.col == a.col || carry.col == acc.col {
            return None;
        }
        self.clear_carry(carry)?;
        let carry_plane = self.plane(carry.col, carry.domain);
        for bit in 0..acc.width as usize {
            self.align(acc.col, acc.base + bit)?;
            let a_domain = a.domain_for_bit(bit);
            if let Some(domain) = a_domain {
                self.align(a.col, domain)?;
            }
            self.align(carry.col, carry.domain)?;
            let (kernel, kind) = match (is_add, a_domain.is_some()) {
                (true, true) => (KernelId::AddInPlaceFull, LutKind::AddInPlace),
                (true, false) => (KernelId::AddInPlaceZeroA, LutKind::AddInPlace),
                (false, true) => (KernelId::SubInPlaceFull, LutKind::SubInPlace),
                (false, false) => (KernelId::SubInPlaceZeroA, LutKind::SubInPlace),
            };
            let a_plane = a_domain.map_or(0, |domain| self.plane(a.col, domain));
            self.lut(
                LutGroup {
                    kernel,
                    carry: carry_plane,
                    b: self.plane(acc.col, acc.base + bit),
                    a: a_plane,
                    dests: Vec::new(),
                    pattern_bits: 2,
                },
                kind,
                a_domain.is_some(),
                true,
            );
        }
        Some(())
    }

    fn lower_out_of_place(
        &mut self,
        a: &Operand,
        b: &Operand,
        dests: &[Operand],
        carry: CarrySlot,
        is_add: bool,
    ) -> Option<()> {
        Self::validate_operand(a)?;
        Self::validate_operand(b)?;
        let first = dests.first()?;
        for (index, dest) in dests.iter().enumerate() {
            Self::validate_operand(dest)?;
            if dest.width != first.width
                || dest.col == a.col
                || dest.col == b.col
                || dest.col == carry.col
            {
                return None;
            }
            // Duplicate destination columns make the interpreter dedupe the
            // write pattern (only the last-aligned plane is written); the
            // kernels model distinct planes only, so fall back.
            if dests[..index].iter().any(|other| other.col == dest.col) {
                return None;
            }
        }
        if a.col == b.col || carry.col == a.col || carry.col == b.col {
            return None;
        }
        self.clear_carry(carry)?;
        for dest in dests {
            self.clear(dest)?;
        }
        let carry_plane = self.plane(carry.col, carry.domain);
        let width = first.width as usize;
        for bit in 0..width {
            let a_domain = a.domain_for_bit(bit);
            let b_domain = b.domain_for_bit(bit);
            if let Some(domain) = a_domain {
                self.align(a.col, domain)?;
            }
            if let Some(domain) = b_domain {
                self.align(b.col, domain)?;
            }
            self.align(carry.col, carry.domain)?;
            for dest in dests {
                self.align(dest.col, dest.base + bit)?;
            }
            let kernel = match (is_add, a_domain.is_some(), b_domain.is_some()) {
                (true, true, true) => KernelId::AddOopAb,
                (true, true, false) => KernelId::AddOopA,
                (true, false, true) => KernelId::AddOopB,
                (true, false, false) => KernelId::AddOopNeither,
                (false, true, true) => KernelId::SubOopAb,
                (false, true, false) => KernelId::SubOopA,
                (false, false, true) => KernelId::SubOopB,
                (false, false, false) => KernelId::SubOopNeither,
            };
            let kind = if is_add {
                LutKind::AddOutOfPlace
            } else {
                LutKind::SubOutOfPlace
            };
            let a_plane = a_domain.map_or(0, |domain| self.plane(a.col, domain));
            let b_plane = b_domain.map_or(0, |domain| self.plane(b.col, domain));
            let dest_planes: Vec<usize> = dests
                .iter()
                .map(|dest| self.plane(dest.col, dest.base + bit))
                .collect();
            self.lut(
                LutGroup {
                    kernel,
                    carry: carry_plane,
                    b: b_plane,
                    a: a_plane,
                    dests: dest_planes,
                    pattern_bits: 1 + dests.len() as u64,
                },
                kind,
                a_domain.is_some(),
                b_domain.is_some(),
            );
        }
        Some(())
    }

    fn lower_copy(&mut self, src: &Operand, dests: &[Operand]) -> Option<()> {
        Self::validate_operand(src)?;
        let first = dests.first()?;
        for (index, dest) in dests.iter().enumerate() {
            Self::validate_operand(dest)?;
            if dest.width != first.width || dest.col == src.col {
                return None;
            }
            if dests[..index].iter().any(|other| other.col == dest.col) {
                return None;
            }
        }
        let width = first.width as usize;
        for bit in 0..width {
            for dest in dests {
                self.align(dest.col, dest.base + bit)?;
            }
            let dest_planes: Vec<usize> = dests
                .iter()
                .map(|dest| self.plane(dest.col, dest.base + bit))
                .collect();
            match src.domain_for_bit(bit) {
                Some(domain) => {
                    self.align(src.col, domain)?;
                    // Two single-key passes (src == 0, src == 1), fused into
                    // one sweep. Between them they tag every row once, so
                    // each destination plane is written in every row.
                    self.search_cycles += 2;
                    self.key_bits += 2;
                    self.write_cycles += 2;
                    self.allset_pattern_bits += dests.len() as u64;
                    self.passes_before += 2;
                    self.ops.push(PlanOp::Copy {
                        src: self.plane(src.col, domain),
                        dests: dest_planes,
                    });
                }
                None => self.zero(dest_planes),
            }
        }
        Some(())
    }
}

impl PassPlan {
    /// Executes a fast plan over `array` (geometry already checked), with
    /// `union` (one word per row word) holding each sweep's union mask.
    /// `LOG` instances also feed the array's pass log, which must be
    /// enabled exactly when `LOG` is set.
    fn run_fast<const LOG: bool>(
        fast: &FastPlan,
        array: &mut BitPlaneArray,
        union: &mut [u64],
    ) -> Result<()> {
        for align in &fast.aligns {
            array.bulk_align(align.col, align.first, align.intra, align.last)?;
        }
        array.bulk_pass_events(
            fast.search_cycles,
            fast.key_bits,
            fast.write_cycles,
            fast.allset_pattern_bits,
        );
        let mut tags = SweepTags {
            union,
            populations: [0; MAX_PASSES],
        };
        for op in &fast.ops {
            if LOG {
                tags.populations = [0; MAX_PASSES];
            }
            let passes = match op {
                PlanOp::Zero { planes } => {
                    let mut access = array.plane_access();
                    for &plane in planes {
                        for w in 0..fast.words {
                            let cleared = access.word(plane, w) & !access.valid_mask(w);
                            access.set_word(plane, w, cleared);
                        }
                    }
                    // Costs were booked in bulk up front; the trace recorder's
                    // pass log still needs the interpreter's per-plane all-set
                    // write entries (no-op unless logging is enabled).
                    array.log_allset_writes(planes.len() as u64);
                    continue;
                }
                PlanOp::Copy { src, dests } => copy_kernel::<LOG>(
                    &mut array.plane_access(),
                    *src,
                    dests,
                    &mut tags.populations,
                ),
                PlanOp::Lut(group) => {
                    let passes = group.sweep::<LOG>(&mut array.plane_access(), &mut tags);
                    array.bulk_tagged_bits(tags.union, group.pattern_bits);
                    passes
                }
            };
            if LOG {
                array.log_tagged_writes(&tags.populations[..passes]);
            }
        }
        Ok(())
    }
}

impl ApEngine {
    /// Lowers `program` into a [`PassPlan`] specialized for this engine's
    /// array geometry. The plan can be cached and re-executed any number of
    /// times via [`run_plan`](Self::run_plan), paying the interpreter's
    /// per-run lowering cost exactly once.
    pub fn compile_plan(&self, program: &ApProgram) -> PassPlan {
        PlanCompiler::for_array(self.array()).compile(program)
    }

    /// Executes a compiled plan — bit-identical to [`run`](Self::run) of the
    /// program the plan was lowered from: same data, same
    /// [`cam::CamStats`] (aggregate and per-segment), same errors.
    ///
    /// When [`telemetry`] recording is on, each run books the plan's
    /// kernel-dispatch and pass-fusion counters (`ap.plan.runs`,
    /// `ap.kernel.dispatches`, `ap.fusion.passes_saved`,
    /// `ap.plan.fallback_runs`) — aggregated deltas once per run, never per
    /// pass, so the enabled cost stays off the inner loop. With recording
    /// off the only cost over [`run_plan_raw`](Self::run_plan_raw) is one
    /// relaxed atomic load (pinned < 3% by `benches/telemetry.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`ApError::PlanMismatch`] when the plan was compiled for a
    /// different array geometry; fallback plans return exactly the
    /// interpreter's errors.
    pub fn run_plan(&mut self, plan: &PassPlan) -> Result<()> {
        if telemetry::enabled() {
            let stats = plan.stats();
            telemetry::count("ap.plan.runs", 1);
            telemetry::count("ap.plan.fallback_runs", u64::from(stats.fallback));
            telemetry::count("ap.kernel.dispatches", stats.passes_after_fusion);
            telemetry::count(
                "ap.fusion.passes_saved",
                stats
                    .passes_before_fusion
                    .saturating_sub(stats.passes_after_fusion),
            );
        }
        self.run_plan_raw(plan)
    }

    /// [`run_plan`](Self::run_plan) without the telemetry hook — the
    /// uninstrumented twin the overhead bench (`benches/telemetry.rs`)
    /// measures the instrumented entry point against.
    ///
    /// # Errors
    ///
    /// Exactly those of [`run_plan`](Self::run_plan).
    pub fn run_plan_raw(&mut self, plan: &PassPlan) -> Result<()> {
        let geometry = plan.geometry();
        let array = self.array();
        if geometry.rows != array.rows()
            || geometry.cols != array.cols()
            || geometry.domains != array.domains()
        {
            return Err(ApError::PlanMismatch {
                plan_rows: geometry.rows,
                plan_cols: geometry.cols,
                plan_domains: geometry.domains,
                rows: array.rows(),
                cols: array.cols(),
                domains: array.domains(),
            });
        }
        match &plan.mode {
            PlanMode::Fallback(program) => self.run(program),
            PlanMode::Fast(fast) => {
                // Sized once per engine: a warm plan run allocates nothing.
                self.sweep_union.resize(fast.words, 0);
                if self.array.pass_log_enabled() {
                    PassPlan::run_fast::<true>(fast, &mut self.array, &mut self.sweep_union)
                } else {
                    PassPlan::run_fast::<false>(fast, &mut self.array, &mut self.sweep_union)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam::CamTechnology;

    fn engine(rows: usize, cols: usize, domains: usize) -> ApEngine {
        ApEngine::new(
            BitPlaneArray::new(rows, cols, domains, CamTechnology::default()).expect("geometry"),
        )
    }

    fn sample_program() -> ApProgram {
        let a = Operand::new(0, 0, 4, false);
        let b = Operand::new(1, 0, 4, true);
        let acc = Operand::new(2, 0, 8, true);
        let tmp = Operand::new(3, 0, 6, true);
        ApProgram::from_instructions(vec![
            ApInstruction::AddOutOfPlace {
                a,
                b,
                dests: vec![tmp],
                carry: CarrySlot::new(5, 0),
            },
            ApInstruction::AddInPlace {
                a: tmp,
                acc,
                carry: CarrySlot::new(5, 0),
            },
            ApInstruction::SubInPlace {
                a: b,
                acc,
                carry: CarrySlot::new(5, 1),
            },
            ApInstruction::Copy {
                src: acc,
                dests: vec![Operand::new(4, 0, 8, true)],
            },
            ApInstruction::Clear { dst: tmp },
        ])
    }

    fn staged_pair(rows: usize) -> (ApEngine, ApEngine) {
        let mut reference = engine(rows, 6, 16);
        let a_vals: Vec<i64> = (0..rows as i64).map(|i| i % 16).collect();
        let b_vals: Vec<i64> = (0..rows as i64).map(|i| (i * 3) % 16 - 8).collect();
        let acc_vals: Vec<i64> = (0..rows as i64).map(|i| (i * 7) % 200 - 100).collect();
        reference
            .load_column(&Operand::new(0, 0, 4, false), &a_vals)
            .expect("load");
        reference
            .load_column(&Operand::new(1, 0, 4, true), &b_vals)
            .expect("load");
        reference
            .load_column(&Operand::new(2, 0, 8, true), &acc_vals)
            .expect("load");
        let planned = reference.clone();
        (reference, planned)
    }

    #[test]
    fn fast_plan_matches_interpreter_data_and_stats() {
        for rows in [1usize, 63, 64, 65, 130] {
            let (mut reference, mut planned) = staged_pair(rows);
            let program = sample_program();
            let plan = planned.compile_plan(&program);
            assert!(!plan.is_fallback(), "sample program must specialize");
            reference.run(&program).expect("interpreter");
            planned.run_plan(&plan).expect("plan");
            assert_eq!(planned.stats(), reference.stats(), "{rows} rows");
            for col in 0..6 {
                let expected = reference
                    .array_mut()
                    .read_column_values(col, 0, 16, false)
                    .expect("read");
                let actual = planned
                    .array_mut()
                    .read_column_values(col, 0, 16, false)
                    .expect("read");
                assert_eq!(actual, expected, "column {col} diverged at {rows} rows");
            }
        }
    }

    #[test]
    fn segment_tracking_matches_interpreter() {
        let rows = 96;
        let (mut reference, mut planned) = staged_pair(rows);
        reference.array_mut().track_segments(32).expect("segments");
        planned.array_mut().track_segments(32).expect("segments");
        let program = sample_program();
        let plan = planned.compile_plan(&program);
        reference.run(&program).expect("interpreter");
        planned.run_plan(&plan).expect("plan");
        assert_eq!(
            planned.array().segment_stats(),
            reference.array().segment_stats()
        );
    }

    /// Runs one sweep on a one-row array whose planes 0, 1 and 2 (carry,
    /// `b`/accumulator or copy source, `a`) hold the three bits of `state`,
    /// returning the per-pass populations and the union word.
    fn sweep_state(
        state: u64,
        sweep: impl FnOnce(&mut PlaneAccess<'_>, &mut SweepTags<'_>) -> usize,
    ) -> (Vec<u64>, u64) {
        let mut array = BitPlaneArray::new(1, 4, 1, CamTechnology::default()).expect("geometry");
        let mut access = array.plane_access();
        for plane in 0..3 {
            access.set_word(plane, 0, (state >> plane) & 1);
        }
        let mut union = [0u64];
        let mut tags = SweepTags {
            union: &mut union,
            populations: [0; MAX_PASSES],
        };
        let passes = sweep(&mut access, &mut tags);
        (tags.populations[..passes].to_vec(), union[0])
    }

    #[test]
    fn kernel_passes_are_mutually_exclusive() {
        // Booking one union mask per sweep is exact only if no row is tagged
        // by two passes of one table: push every key state through each
        // table in pass order and count the passes it matches.
        let kernels = [
            KernelId::AddInPlaceFull,
            KernelId::AddInPlaceZeroA,
            KernelId::SubInPlaceFull,
            KernelId::SubInPlaceZeroA,
            KernelId::AddOopAb,
            KernelId::AddOopA,
            KernelId::AddOopB,
            KernelId::AddOopNeither,
            KernelId::SubOopAb,
            KernelId::SubOopA,
            KernelId::SubOopB,
            KernelId::SubOopNeither,
        ];
        for kernel in kernels {
            let group = LutGroup {
                kernel,
                carry: 0,
                b: 1,
                a: 2,
                dests: vec![3],
                pattern_bits: 2,
            };
            for state in 0..8 {
                let (populations, union) =
                    sweep_state(state, |access, tags| group.sweep::<true>(access, tags));
                let matched: u64 = populations.iter().sum();
                assert!(
                    matched <= 1,
                    "{kernel:?}: state {state:03b} matched {matched} passes {populations:?}"
                );
                assert_eq!(matched, u64::from(union.count_ones()), "{kernel:?}");
            }
        }
        for state in 0..8 {
            let (populations, _) = sweep_state(state, |access, tags| {
                copy_kernel::<true>(access, 1, &[3], &mut tags.populations)
            });
            assert_eq!(
                populations.iter().sum::<u64>(),
                1,
                "copy: state {state:03b}"
            );
        }
    }

    #[test]
    fn fusion_merges_adjacent_zero_sweeps() {
        let program = ApProgram::from_instructions(vec![
            ApInstruction::Clear {
                dst: Operand::new(0, 0, 4, false),
            },
            ApInstruction::Clear {
                dst: Operand::new(1, 0, 4, false),
            },
        ]);
        let compiler = PlanCompiler::new(PlanGeometry {
            rows: 64,
            cols: 4,
            domains: 8,
        });
        let plan = compiler.compile(&program);
        let stats = plan.stats();
        assert_eq!(stats.passes_before_fusion, 8);
        assert_eq!(stats.passes_after_fusion, 1, "all clears fuse to one sweep");
    }

    #[test]
    fn invalid_programs_fall_back_with_identical_errors() {
        let conflicting = ApProgram::from_instructions(vec![ApInstruction::AddInPlace {
            a: Operand::new(0, 0, 4, false),
            acc: Operand::new(0, 4, 4, true),
            carry: CarrySlot::new(1, 0),
        }]);
        let out_of_range = ApProgram::from_instructions(vec![ApInstruction::Clear {
            dst: Operand::new(0, 14, 4, false),
        }]);
        let duplicate_dests = ApProgram::from_instructions(vec![ApInstruction::Copy {
            src: Operand::new(0, 0, 4, false),
            dests: vec![Operand::new(1, 0, 4, false), Operand::new(1, 4, 4, false)],
        }]);
        for program in [&conflicting, &out_of_range, &duplicate_dests] {
            let mut reference = engine(8, 4, 16);
            let mut planned = engine(8, 4, 16);
            let plan = planned.compile_plan(program);
            assert!(plan.is_fallback());
            let expected = reference.run(program);
            let actual = planned.run_plan(&plan);
            match (expected, actual) {
                (Ok(()), Ok(())) => {}
                (Err(e), Err(a)) => assert_eq!(format!("{a}"), format!("{e}")),
                other => panic!("divergent outcomes: {other:?}"),
            }
            assert_eq!(planned.stats(), reference.stats());
        }
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let planned = engine(8, 4, 16);
        let plan = planned.compile_plan(&sample_program());
        let mut other = engine(16, 4, 16);
        let err = other.run_plan(&plan).expect_err("mismatch must fail");
        assert!(matches!(err, ApError::PlanMismatch { .. }));
    }
}
