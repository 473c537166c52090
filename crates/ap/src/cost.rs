use crate::{ApInstruction, Lut, LutKind, Operand};
use cam::{CamStats, CamTechnology};
use serde::{Deserialize, Serialize};

/// Closed-form cost of one instruction, expressed as the CAM event counters it
/// generates plus the derived latency and energy.
///
/// The functional executor ([`ApController`](crate::ApController)) produces exact
/// counters; this analytical model is used by the accelerator-level simulator where
/// executing every bit of a full ImageNet network would be prohibitively slow. Both
/// paths share the [`Lut`] pass counts so cycle counts agree; the analytical model
/// estimates the data-dependent *written bits* by assuming half of the rows are
/// rewritten per processed bit, which is the expectation for uniformly distributed
/// operands.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstructionCost {
    /// Estimated CAM event counters.
    pub stats: CamStats,
    /// Latency in nanoseconds (serial execution of the instruction).
    pub latency_ns: f64,
    /// Dynamic energy in femtojoules.
    pub energy_fj: f64,
}

/// Analytical cycle/energy model for AP instructions.
///
/// # Example
///
/// ```
/// use ap::{ApInstruction, CarrySlot, CostModel, Operand};
/// use cam::CamTechnology;
///
/// let model = CostModel::new(CamTechnology::default(), 256);
/// let add = ApInstruction::AddInPlace {
///     a: Operand::new(0, 0, 4, false),
///     acc: Operand::new(1, 0, 8, true),
///     carry: CarrySlot::new(2, 0),
/// };
/// let cost = model.instruction_cost(&add);
/// assert!(cost.latency_ns > 0.0);
/// assert!(cost.energy_fj > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    tech: CamTechnology,
    rows: usize,
}

impl CostModel {
    /// Creates a cost model for an AP with `rows` active SIMD rows.
    pub fn new(tech: CamTechnology, rows: usize) -> Self {
        CostModel { tech, rows }
    }

    /// The technology point used by the model.
    pub fn technology(&self) -> &CamTechnology {
        &self.tech
    }

    /// Number of active rows assumed by the model.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Cycles per bit of the given operation kind (search + write cycles).
    pub fn cycles_per_bit(kind: LutKind) -> u64 {
        Lut::of(kind).cycles_per_bit()
    }

    /// Estimated cost of a single instruction.
    pub fn instruction_cost(&self, instruction: &ApInstruction) -> InstructionCost {
        let stats = self.instruction_stats(instruction);
        InstructionCost {
            stats,
            latency_ns: stats.latency_ns(&self.tech),
            energy_fj: stats.energy_fj(&self.tech),
        }
    }

    /// The estimated CAM event counters of a single instruction: the `stats` of
    /// [`CostModel::instruction_cost`] without the derived latency and energy.
    ///
    /// It dispatches to the per-operation formulas below, which a code generator
    /// can also call directly while it emits instructions, without building them.
    pub fn instruction_stats(&self, instruction: &ApInstruction) -> CamStats {
        let width = |dests: &[Operand]| dests.first().map_or(0, |d| d.width);
        match instruction {
            ApInstruction::AddInPlace { a, acc, .. } => {
                self.in_place_stats(LutKind::AddInPlace, a, acc.width)
            }
            ApInstruction::SubInPlace { a, acc, .. } => {
                self.in_place_stats(LutKind::SubInPlace, a, acc.width)
            }
            ApInstruction::AddOutOfPlace { a, b, dests, .. } => {
                self.out_of_place_stats(LutKind::AddOutOfPlace, a, b, width(dests), dests.len())
            }
            ApInstruction::SubOutOfPlace { a, b, dests, .. } => {
                self.out_of_place_stats(LutKind::SubOutOfPlace, a, b, width(dests), dests.len())
            }
            ApInstruction::Copy { src, dests } => self.copy_stats(src, width(dests), dests.len()),
            ApInstruction::Clear { dst } => self.clear_stats(dst.width),
        }
    }

    /// Counters of an in-place `kind` instruction (`AddInPlace` or `SubInPlace`)
    /// that adds `a` into an accumulator of `width` bits.
    ///
    /// Every accumulator bit runs all passes of the table while `a` still has a
    /// domain for it (a bit of `a`, or its sign), and only the passes that do not
    /// key on `a` once `a` is zero-extended.
    pub fn in_place_stats(&self, kind: LutKind, a: &Operand, width: u8) -> CamStats {
        debug_assert!(kind.is_in_place(), "{kind:?} is not an in-place table");
        let rows = self.rows as u64;
        let width = u64::from(width);
        let known = known_bits(a, width);
        let all_passes = kind.passes_keyed(true, true);
        let constant_a_passes = kind.passes_keyed(false, true);
        let passes = known * all_passes + (width - known) * constant_a_passes;
        CamStats {
            search_cycles: passes,
            searched_bits: (known * all_passes * 3 + (width - known) * constant_a_passes * 2)
                * rows,
            // Carry clear, then one write per pass.
            write_cycles: 1 + passes,
            // Expected: about half the rows rewritten (2 bits each) per result bit.
            written_bits: rows + width * rows,
            shifts: 3 * width,
            ..CamStats::new()
        }
    }

    /// Counters of an out-of-place `kind` instruction (`AddOutOfPlace` or
    /// `SubOutOfPlace`) of operands `a` and `b` into `dests` destinations of
    /// `width` bits.
    ///
    /// A result bit runs the passes of the table whose key bits the operands can
    /// supply ([`LutKind`] passes that key on a zero-extended operand are skipped).
    pub fn out_of_place_stats(
        &self,
        kind: LutKind,
        a: &Operand,
        b: &Operand,
        width: u8,
        dests: usize,
    ) -> CamStats {
        debug_assert!(!kind.is_in_place(), "{kind:?} is not an out-of-place table");
        let rows = self.rows as u64;
        let width = u64::from(width);
        let n_dests = dests.max(1) as u64;
        // Bits `0..known` of an operand have a domain, so the bits split into four
        // classes by which operands they know.
        let (a_known, b_known) = (known_bits(a, width), known_bits(b, width));
        let both = a_known.min(b_known);
        let mut stats = CamStats {
            // Carry clear plus destination clears.
            write_cycles: 1 + width,
            written_bits: rows + width * rows * n_dests * 2,
            shifts: width * (2 + n_dests),
            ..CamStats::new()
        };
        for (bits, a_known, b_known) in [
            (both, true, true),
            (a_known - both, true, false),
            (b_known - both, false, true),
            (width - a_known.max(b_known), false, false),
        ] {
            let passes = kind.passes_keyed(a_known, b_known);
            let key_bits = 1 + u64::from(a_known) + u64::from(b_known);
            stats.search_cycles += bits * passes;
            stats.searched_bits += bits * passes * key_bits * rows;
            stats.write_cycles += bits * passes;
        }
        stats
    }

    /// Counters of a copy of `src` into `dests` destinations of `width` bits: a
    /// bit of `src` is searched and written twice, a zero-extended bit written
    /// once.
    pub fn copy_stats(&self, src: &Operand, width: u8, dests: usize) -> CamStats {
        let rows = self.rows as u64;
        let width = u64::from(width);
        let n_dests = dests.max(1) as u64;
        let known = known_bits(src, width);
        CamStats {
            search_cycles: 2 * known,
            searched_bits: 2 * known * rows,
            write_cycles: 2 * known + (width - known),
            written_bits: width * rows * n_dests,
            shifts: width * (1 + n_dests),
            ..CamStats::new()
        }
    }

    /// Counters of clearing `width` bits of one column.
    pub fn clear_stats(&self, width: u8) -> CamStats {
        let width = u64::from(width);
        CamStats {
            write_cycles: width,
            written_bits: width * self.rows as u64,
            shifts: width,
            ..CamStats::new()
        }
    }

    /// Total cost of a sequence of instructions.
    pub fn program_cost<'a, I>(&self, instructions: I) -> InstructionCost
    where
        I: IntoIterator<Item = &'a ApInstruction>,
    {
        let mut stats = CamStats::new();
        for instruction in instructions {
            stats += self.instruction_stats(instruction);
        }
        InstructionCost {
            stats,
            latency_ns: stats.latency_ns(&self.tech),
            energy_fj: stats.energy_fj(&self.tech),
        }
    }
}

/// How many of the bits `0..width` of an operand `op` supplies a domain for:
/// all of them when it is signed (the sign extends), else its own width.
fn known_bits(op: &Operand, width: u64) -> u64 {
    if op.signed {
        width
    } else {
        u64::from(op.width).min(width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CarrySlot;

    fn model() -> CostModel {
        CostModel::new(CamTechnology::default(), 256)
    }

    /// The per-bit costing loop the closed-form formulas replaced, kept as their
    /// oracle.
    fn instruction_stats_per_bit(model: &CostModel, instruction: &ApInstruction) -> CamStats {
        let rows = model.rows as u64;
        let mut stats = CamStats::new();
        match instruction {
            ApInstruction::AddInPlace { a, acc, .. } | ApInstruction::SubInPlace { a, acc, .. } => {
                let kind = if matches!(instruction, ApInstruction::AddInPlace { .. }) {
                    LutKind::AddInPlace
                } else {
                    LutKind::SubInPlace
                };
                let lut = kind.passes();
                let all_passes = lut.len() as u64;
                let constant_a_passes = lut.iter().filter(|p| !p.key_a).count() as u64;
                stats.write_cycles += 1;
                stats.written_bits += rows;
                for bit in 0..acc.width as usize {
                    let (passes, key_bits) = if a.domain_for_bit(bit).is_some() {
                        (all_passes, 3)
                    } else {
                        (constant_a_passes, 2)
                    };
                    stats.search_cycles += passes;
                    stats.searched_bits += passes * key_bits * rows;
                    stats.write_cycles += passes;
                    stats.written_bits += rows;
                    stats.shifts += 3;
                }
            }
            ApInstruction::AddOutOfPlace { a, b, dests, .. }
            | ApInstruction::SubOutOfPlace { a, b, dests, .. } => {
                let kind = if matches!(instruction, ApInstruction::AddOutOfPlace { .. }) {
                    LutKind::AddOutOfPlace
                } else {
                    LutKind::SubOutOfPlace
                };
                let lut = kind.passes();
                let width = dests.first().map(|d| d.width).unwrap_or(0) as usize;
                let n_dests = dests.len().max(1) as u64;
                stats.write_cycles += 1 + width as u64;
                stats.written_bits += rows + width as u64 * rows * n_dests;
                for bit in 0..width {
                    let a_known = a.domain_for_bit(bit).is_some();
                    let b_known = b.domain_for_bit(bit).is_some();
                    let passes = lut
                        .iter()
                        .filter(|p| (a_known || !p.key_a) && (b_known || !p.key_b))
                        .count() as u64;
                    let key_bits = 1 + u64::from(a_known) + u64::from(b_known);
                    stats.search_cycles += passes;
                    stats.searched_bits += passes * key_bits * rows;
                    stats.write_cycles += passes;
                    stats.written_bits += rows * n_dests;
                    stats.shifts += 2 + n_dests;
                }
            }
            ApInstruction::Copy { src, dests } => {
                let width = dests.first().map(|d| d.width).unwrap_or(0) as usize;
                let n_dests = dests.len().max(1) as u64;
                for bit in 0..width {
                    if src.domain_for_bit(bit).is_some() {
                        stats.search_cycles += 2;
                        stats.searched_bits += 2 * rows;
                        stats.write_cycles += 2;
                        stats.written_bits += rows * n_dests;
                    } else {
                        stats.write_cycles += 1;
                        stats.written_bits += rows * n_dests;
                    }
                    stats.shifts += 1 + n_dests;
                }
            }
            ApInstruction::Clear { dst } => {
                stats.write_cycles += dst.width as u64;
                stats.written_bits += dst.width as u64 * rows;
                stats.shifts += dst.width as u64;
            }
        }
        stats
    }

    #[test]
    fn closed_form_formulas_match_the_per_bit_loop() {
        let carry = CarrySlot::new(9, 0);
        let operands =
            |width: u8| [false, true].map(move |signed| Operand::new(1, 2, width, signed));
        for rows in [1, 256] {
            let model = CostModel::new(CamTechnology::default(), rows);
            for a_width in 0..=10u8 {
                for b_width in [0u8, 3, 5, 9] {
                    for dest_width in 0..=14u8 {
                        let dest = Operand::new(4, 0, dest_width, true);
                        for a in operands(a_width) {
                            let mut instructions = vec![
                                ApInstruction::AddInPlace {
                                    a,
                                    acc: dest,
                                    carry,
                                },
                                ApInstruction::SubInPlace {
                                    a,
                                    acc: dest,
                                    carry,
                                },
                                ApInstruction::Clear { dst: dest },
                            ];
                            for dests in [vec![], vec![dest], vec![dest; 3]] {
                                instructions.push(ApInstruction::Copy {
                                    src: a,
                                    dests: dests.clone(),
                                });
                                for b in operands(b_width) {
                                    instructions.push(ApInstruction::AddOutOfPlace {
                                        a,
                                        b,
                                        dests: dests.clone(),
                                        carry,
                                    });
                                    instructions.push(ApInstruction::SubOutOfPlace {
                                        a,
                                        b,
                                        dests: dests.clone(),
                                        carry,
                                    });
                                }
                            }
                            for instruction in &instructions {
                                assert_eq!(
                                    model.instruction_stats(instruction),
                                    instruction_stats_per_bit(&model, instruction),
                                    "{instruction:?} on {rows} rows"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn in_place_add_is_eight_cycles_per_full_bit() {
        let m = model();
        let add = ApInstruction::AddInPlace {
            a: Operand::new(0, 0, 8, false),
            acc: Operand::new(1, 0, 8, true),
            carry: CarrySlot::new(2, 0),
        };
        let cost = m.instruction_cost(&add);
        // 8 bits x 8 cycles + 1 carry-clear cycle.
        assert_eq!(cost.stats.compute_cycles(), 8 * 8 + 1);
    }

    #[test]
    fn out_of_place_add_is_ten_cycles_per_full_bit_plus_clears() {
        let m = model();
        let add = ApInstruction::AddOutOfPlace {
            a: Operand::new(0, 0, 8, false),
            b: Operand::new(1, 0, 8, false),
            dests: vec![Operand::new(2, 0, 8, true)],
            carry: CarrySlot::new(3, 0),
        };
        let cost = m.instruction_cost(&add);
        // 8 bits x 10 cycles + 1 carry clear + 8 destination clears.
        assert_eq!(cost.stats.compute_cycles(), 8 * 10 + 1 + 8);
    }

    #[test]
    fn in_place_is_cheaper_than_out_of_place() {
        let m = model();
        let a = Operand::new(0, 0, 8, false);
        let in_place = ApInstruction::AddInPlace {
            a,
            acc: Operand::new(1, 0, 8, true),
            carry: CarrySlot::new(2, 0),
        };
        let out_of_place = ApInstruction::AddOutOfPlace {
            a,
            b: Operand::new(1, 0, 8, false),
            dests: vec![Operand::new(2, 0, 8, true)],
            carry: CarrySlot::new(3, 0),
        };
        assert!(
            m.instruction_cost(&in_place).latency_ns < m.instruction_cost(&out_of_place).latency_ns
        );
        assert!(
            m.instruction_cost(&in_place).energy_fj < m.instruction_cost(&out_of_place).energy_fj
        );
    }

    #[test]
    fn zero_extension_reduces_cost() {
        let m = model();
        let narrow = ApInstruction::AddInPlace {
            a: Operand::new(0, 0, 4, false),
            acc: Operand::new(1, 0, 12, true),
            carry: CarrySlot::new(2, 0),
        };
        let wide = ApInstruction::AddInPlace {
            a: Operand::new(0, 0, 12, true),
            acc: Operand::new(1, 0, 12, true),
            carry: CarrySlot::new(2, 0),
        };
        assert!(
            m.instruction_cost(&narrow).stats.compute_cycles()
                < m.instruction_cost(&wide).stats.compute_cycles()
        );
    }

    #[test]
    fn multi_destination_write_costs_the_same_cycles() {
        let m = model();
        let single = ApInstruction::AddOutOfPlace {
            a: Operand::new(0, 0, 8, false),
            b: Operand::new(1, 0, 8, false),
            dests: vec![Operand::new(2, 0, 8, true)],
            carry: CarrySlot::new(4, 0),
        };
        let double = ApInstruction::AddOutOfPlace {
            a: Operand::new(0, 0, 8, false),
            b: Operand::new(1, 0, 8, false),
            dests: vec![Operand::new(2, 0, 8, true), Operand::new(3, 0, 8, true)],
            carry: CarrySlot::new(4, 0),
        };
        let c1 = m.instruction_cost(&single);
        let c2 = m.instruction_cost(&double);
        assert_eq!(c1.stats.compute_cycles(), c2.stats.compute_cycles());
        assert!(c2.stats.written_bits > c1.stats.written_bits);
    }

    #[test]
    fn program_cost_accumulates() {
        let m = model();
        let add = ApInstruction::AddInPlace {
            a: Operand::new(0, 0, 4, false),
            acc: Operand::new(1, 0, 8, true),
            carry: CarrySlot::new(2, 0),
        };
        let single = m.instruction_cost(&add);
        let program = m.program_cost([&add, &add, &add]);
        assert_eq!(
            program.stats.compute_cycles(),
            3 * single.stats.compute_cycles()
        );
        assert!((program.latency_ns - 3.0 * single.latency_ns).abs() < 1e-9);
    }
}
