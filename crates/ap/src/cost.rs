use crate::{ApInstruction, Lut, LutKind};
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
    pub fn instruction_stats(&self, instruction: &ApInstruction) -> CamStats {
        let rows = self.rows as u64;
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
                // Carry clear.
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
                    // Expected: about half the rows rewritten (2 bits each) per result bit.
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
                // Carry clear plus destination clears.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CarrySlot, Operand};

    fn model() -> CostModel {
        CostModel::new(CamTechnology::default(), 256)
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
