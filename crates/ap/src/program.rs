use crate::ApInstruction;
use serde::{Deserialize, Serialize};

/// An ordered sequence of associative-processor instructions, typically the output
/// of compiling one convolution slice (one input channel of one layer).
///
/// # Example
///
/// ```
/// use ap::{ApInstruction, ApProgram, CarrySlot, Operand};
///
/// let mut program = ApProgram::new();
/// program.push(ApInstruction::AddInPlace {
///     a: Operand::new(0, 0, 4, false),
///     acc: Operand::new(1, 0, 8, true),
///     carry: CarrySlot::new(2, 0),
/// });
/// assert_eq!(program.arithmetic_count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ApProgram {
    instructions: Vec<ApInstruction>,
}

impl ApProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a program from a list of instructions.
    pub fn from_instructions(instructions: Vec<ApInstruction>) -> Self {
        ApProgram { instructions }
    }

    /// Appends an instruction.
    pub fn push(&mut self, instruction: ApInstruction) {
        self.instructions.push(instruction);
    }

    /// Appends all instructions from another program.
    pub fn append(&mut self, other: &mut ApProgram) {
        self.instructions.append(&mut other.instructions);
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` when the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Iterates over the instructions in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, ApInstruction> {
        self.instructions.iter()
    }

    /// Borrowed view of the instruction list.
    pub fn instructions(&self) -> &[ApInstruction] {
        &self.instructions
    }

    /// Number of add/sub instructions (the paper's `#Adds/Subs` metric).
    pub fn arithmetic_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.is_arithmetic())
            .count()
    }

    /// Number of arithmetic instructions executed in place (8 cycles/bit).
    pub fn in_place_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.is_arithmetic() && !i.is_out_of_place())
            .count()
    }

    /// Number of arithmetic instructions executed out of place (10 cycles/bit).
    pub fn out_of_place_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.is_out_of_place())
            .count()
    }

    /// Largest column index referenced by the program, if any. Used to validate that
    /// a program fits in a CAM of a given width.
    pub fn max_column(&self) -> Option<usize> {
        self.instructions
            .iter()
            .flat_map(|i| {
                let mut cols: Vec<usize> = i.sources().iter().map(|o| o.col).collect();
                cols.extend(i.destinations().iter().map(|o| o.col));
                if let ApInstruction::AddInPlace { carry, .. }
                | ApInstruction::SubInPlace { carry, .. }
                | ApInstruction::AddOutOfPlace { carry, .. }
                | ApInstruction::SubOutOfPlace { carry, .. } = i
                {
                    cols.push(carry.col);
                }
                cols
            })
            .max()
    }
}

impl FromIterator<ApInstruction> for ApProgram {
    fn from_iter<I: IntoIterator<Item = ApInstruction>>(iter: I) -> Self {
        ApProgram {
            instructions: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a ApProgram {
    type Item = &'a ApInstruction;
    type IntoIter = std::slice::Iter<'a, ApInstruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

impl IntoIterator for ApProgram {
    type Item = ApInstruction;
    type IntoIter = std::vec::IntoIter<ApInstruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CarrySlot, Operand};

    fn sample_program() -> ApProgram {
        let a = Operand::new(0, 0, 4, false);
        let b = Operand::new(1, 0, 4, false);
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
            ApInstruction::Clear { dst: tmp },
        ])
    }

    #[test]
    fn counts_classify_instructions() {
        let program = sample_program();
        assert_eq!(program.len(), 3);
        assert_eq!(program.arithmetic_count(), 2);
        assert_eq!(program.in_place_count(), 1);
        assert_eq!(program.out_of_place_count(), 1);
        assert!(!program.is_empty());
    }

    #[test]
    fn max_column_covers_carry_and_operands() {
        let program = sample_program();
        assert_eq!(program.max_column(), Some(5));
        assert_eq!(ApProgram::new().max_column(), None);
    }

    #[test]
    fn collects_from_iterator_and_iterates() {
        let program: ApProgram = sample_program().into_iter().collect();
        assert_eq!(program.len(), 3);
        assert_eq!((&program).into_iter().count(), 3);
    }
}
