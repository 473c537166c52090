use crate::Operand;
use serde::{Deserialize, Serialize};

/// Location of the single-bit carry/borrow cell used by an arithmetic instruction.
///
/// The carry is updated in place on every pass and propagates across the bit-serial
/// iterations of one instruction; it is cleared when the instruction starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CarrySlot {
    /// Column holding the carry/borrow bit.
    pub col: usize,
    /// Domain inside that column holding the carry/borrow bit.
    pub domain: usize,
}

impl CarrySlot {
    /// Creates a carry slot description.
    pub fn new(col: usize, domain: usize) -> Self {
        CarrySlot { col, domain }
    }
}

/// One associative-processor instruction.
///
/// Instructions operate on whole columns at once: every row of the CAM performs the
/// same operation on its own data (SIMD). Arithmetic instructions are executed
/// bit-serially with the lookup tables of [`Lut`](crate::Lut); staging instructions
/// move data in and out of the array and are charged as I/O rather than compute.
///
/// # Example
///
/// ```
/// use ap::{ApInstruction, CarrySlot, Operand};
///
/// let a = Operand::new(0, 0, 4, false);
/// let acc = Operand::new(1, 0, 6, true);
/// let add = ApInstruction::AddInPlace { a, acc, carry: CarrySlot::new(7, 0) };
/// assert!(add.is_arithmetic());
/// assert_eq!(add.result_width(), Some(6));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ApInstruction {
    /// `acc ← acc + a`, destroying the previous accumulator value (8 cycles/bit).
    AddInPlace {
        /// Source operand (read only).
        a: Operand,
        /// Accumulator operand (read and overwritten).
        acc: Operand,
        /// Carry bit location.
        carry: CarrySlot,
    },
    /// `acc ← acc − a`, destroying the previous accumulator value (8 cycles/bit).
    SubInPlace {
        /// Source operand (read only, the subtrahend).
        a: Operand,
        /// Accumulator operand (read and overwritten, the minuend).
        acc: Operand,
        /// Borrow bit location.
        carry: CarrySlot,
    },
    /// `dest ← b + a` for every destination in `dests` (10 cycles/bit). Writing to
    /// several destinations at once costs the same number of cycles because the
    /// parallel write covers multiple columns; this is how the compiler materialises
    /// the copies needed to keep later operations in place (§IV-C).
    AddOutOfPlace {
        /// First source operand (read only).
        a: Operand,
        /// Second source operand (read only).
        b: Operand,
        /// Destination operands; all receive the same result.
        dests: Vec<Operand>,
        /// Carry bit location.
        carry: CarrySlot,
    },
    /// `dest ← b − a` for every destination in `dests` (10 cycles/bit).
    SubOutOfPlace {
        /// Subtrahend operand (read only).
        a: Operand,
        /// Minuend operand (read only).
        b: Operand,
        /// Destination operands; all receive the same result.
        dests: Vec<Operand>,
        /// Borrow bit location.
        carry: CarrySlot,
    },
    /// `dest ← src` for every destination (4 cycles/bit: one 0-pass and one 1-pass).
    Copy {
        /// Source operand.
        src: Operand,
        /// Destination operands.
        dests: Vec<Operand>,
    },
    /// Clears (zeroes) the destination operand in every row (2 cycles/bit).
    Clear {
        /// Operand region to clear.
        dst: Operand,
    },
}

impl ApInstruction {
    /// Returns `true` for add/sub instructions (the ones counted in the paper's
    /// `#Adds/Subs` column of Table II).
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self,
            ApInstruction::AddInPlace { .. }
                | ApInstruction::SubInPlace { .. }
                | ApInstruction::AddOutOfPlace { .. }
                | ApInstruction::SubOutOfPlace { .. }
        )
    }

    /// Returns `true` for instructions that keep their sources intact and write to a
    /// fresh destination.
    pub fn is_out_of_place(&self) -> bool {
        matches!(
            self,
            ApInstruction::AddOutOfPlace { .. } | ApInstruction::SubOutOfPlace { .. }
        )
    }

    /// Width in bits of the produced result, if the instruction produces one.
    pub fn result_width(&self) -> Option<u8> {
        match self {
            ApInstruction::AddInPlace { acc, .. } | ApInstruction::SubInPlace { acc, .. } => {
                Some(acc.width)
            }
            ApInstruction::AddOutOfPlace { dests, .. }
            | ApInstruction::SubOutOfPlace { dests, .. }
            | ApInstruction::Copy { dests, .. } => dests.first().map(|d| d.width),
            ApInstruction::Clear { dst } => Some(dst.width),
        }
    }

    /// The operands written by this instruction.
    pub fn destinations(&self) -> &[Operand] {
        match self {
            ApInstruction::AddInPlace { acc, .. } | ApInstruction::SubInPlace { acc, .. } => {
                std::slice::from_ref(acc)
            }
            ApInstruction::AddOutOfPlace { dests, .. }
            | ApInstruction::SubOutOfPlace { dests, .. }
            | ApInstruction::Copy { dests, .. } => dests,
            ApInstruction::Clear { dst } => std::slice::from_ref(dst),
        }
    }

    /// The operands read by this instruction.
    pub fn sources(&self) -> Vec<Operand> {
        match self {
            ApInstruction::AddInPlace { a, acc, .. } | ApInstruction::SubInPlace { a, acc, .. } => {
                vec![*a, *acc]
            }
            ApInstruction::AddOutOfPlace { a, b, .. }
            | ApInstruction::SubOutOfPlace { a, b, .. } => {
                vec![*a, *b]
            }
            ApInstruction::Copy { src, .. } => vec![*src],
            ApInstruction::Clear { .. } => vec![],
        }
    }

    /// Stable one-byte opcode used by the execution-trace encoding
    /// (`camdnn::trace`). New variants must extend — never renumber — this
    /// table, or recorded traces stop comparing across versions.
    pub fn kind_code(&self) -> u8 {
        match self {
            ApInstruction::AddInPlace { .. } => 1,
            ApInstruction::SubInPlace { .. } => 2,
            ApInstruction::AddOutOfPlace { .. } => 3,
            ApInstruction::SubOutOfPlace { .. } => 4,
            ApInstruction::Copy { .. } => 5,
            ApInstruction::Clear { .. } => 6,
        }
    }

    /// Human-readable mnemonic for diagnostics and trace divergence reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ApInstruction::AddInPlace { .. } => "add-in-place",
            ApInstruction::SubInPlace { .. } => "sub-in-place",
            ApInstruction::AddOutOfPlace { .. } => "add-out-of-place",
            ApInstruction::SubOutOfPlace { .. } => "sub-out-of-place",
            ApInstruction::Copy { .. } => "copy",
            ApInstruction::Clear { .. } => "clear",
        }
    }

    /// Every `(column, first domain, width)` region this instruction writes,
    /// including the carry slot of arithmetic instructions, sorted by column
    /// then domain — the regions the execution-trace recorder digests after
    /// executing the instruction.
    pub fn written_regions(&self) -> Vec<(usize, usize, u8)> {
        let mut regions: Vec<(usize, usize, u8)> = self
            .destinations()
            .iter()
            .map(|dest| (dest.col, dest.base, dest.width))
            .collect();
        match self {
            ApInstruction::AddInPlace { carry, .. }
            | ApInstruction::SubInPlace { carry, .. }
            | ApInstruction::AddOutOfPlace { carry, .. }
            | ApInstruction::SubOutOfPlace { carry, .. } => {
                regions.push((carry.col, carry.domain, 1));
            }
            ApInstruction::Copy { .. } | ApInstruction::Clear { .. } => {}
        }
        regions.sort_unstable();
        regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_add() -> ApInstruction {
        ApInstruction::AddOutOfPlace {
            a: Operand::new(0, 0, 4, false),
            b: Operand::new(1, 0, 4, false),
            dests: vec![Operand::new(2, 0, 5, true), Operand::new(3, 0, 5, true)],
            carry: CarrySlot::new(7, 0),
        }
    }

    #[test]
    fn classification() {
        let add = sample_add();
        assert!(add.is_arithmetic());
        assert!(add.is_out_of_place());
        let clear = ApInstruction::Clear {
            dst: Operand::new(0, 0, 4, false),
        };
        assert!(!clear.is_arithmetic());
        assert!(!clear.is_out_of_place());
    }

    #[test]
    fn sources_and_destinations() {
        let add = sample_add();
        assert_eq!(add.sources().len(), 2);
        assert_eq!(add.destinations().len(), 2);
        assert_eq!(add.result_width(), Some(5));

        let in_place = ApInstruction::SubInPlace {
            a: Operand::new(0, 0, 4, false),
            acc: Operand::new(1, 0, 6, true),
            carry: CarrySlot::new(7, 0),
        };
        assert_eq!(in_place.result_width(), Some(6));
        assert_eq!(in_place.destinations(), vec![Operand::new(1, 0, 6, true)]);
    }
}
