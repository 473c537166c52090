use crate::{ApInstruction, LutKind, Operand};
use cam::CamStats;

/// Analytical model of the CAM event counters of AP instructions.
///
/// The functional executors produce exact counters; this closed-form model is
/// used by the compiler, where executing every bit of a full ImageNet network
/// would be prohibitively slow. Both paths share the [`Lut`](crate::Lut) pass counts so
/// cycle counts agree; the model estimates the data-dependent *written bits*
/// by assuming half of the rows are rewritten per processed bit, which is the
/// expectation for uniformly distributed operands. The counters are priced by
/// [`CamStats::priced`].
///
/// # Example
///
/// ```
/// use ap::{ApInstruction, CarrySlot, CostModel, Operand};
///
/// let model = CostModel::new(256);
/// let add = ApInstruction::AddInPlace {
///     a: Operand::new(0, 0, 4, false),
///     acc: Operand::new(1, 0, 8, true),
///     carry: CarrySlot::new(2, 0),
/// };
/// let stats = model.instruction_stats(&add);
/// assert!(stats.compute_cycles() > 0);
/// assert!(stats.searched_bits > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    rows: usize,
}

impl CostModel {
    /// Creates a cost model for an AP with `rows` active SIMD rows.
    pub fn new(rows: usize) -> Self {
        CostModel { rows }
    }

    /// The estimated CAM event counters of a single instruction.
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
    use cam::CamTechnology;

    fn model() -> CostModel {
        CostModel::new(256)
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
            let model = CostModel::new(rows);
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
        // 8 bits x 8 cycles + 1 carry-clear cycle.
        assert_eq!(m.instruction_stats(&add).compute_cycles(), 8 * 8 + 1);
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
        // 8 bits x 10 cycles + 1 carry clear + 8 destination clears.
        assert_eq!(m.instruction_stats(&add).compute_cycles(), 8 * 10 + 1 + 8);
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
        let tech = CamTechnology::default();
        let (in_place, out_of_place) = (
            m.instruction_stats(&in_place),
            m.instruction_stats(&out_of_place),
        );
        assert!(in_place.latency_ns(&tech) < out_of_place.latency_ns(&tech));
        assert!(in_place.energy_fj(&tech) < out_of_place.energy_fj(&tech));
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
            m.instruction_stats(&narrow).compute_cycles()
                < m.instruction_stats(&wide).compute_cycles()
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
        let c1 = m.instruction_stats(&single);
        let c2 = m.instruction_stats(&double);
        assert_eq!(c1.compute_cycles(), c2.compute_cycles());
        assert!(c2.written_bits > c1.written_bits);
    }
}
