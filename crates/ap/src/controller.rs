use crate::{ApError, ApInstruction, ApProgram, CarrySlot, Lut, LutKind, Operand, Result};
use cam::{AssociativeArray, CamStats, SearchKey};

/// A functional, bit-accurate associative-processor controller over either
/// array model.
///
/// The controller owns an [`AssociativeArray`] and executes
/// [`ApInstruction`]s against it by issuing the masked-search /
/// parallel-write passes of the corresponding [`Lut`]. Every row of the array
/// computes independently, so one instruction performs the operation for all
/// SIMD lanes (output feature-map positions) at once.
///
/// Over the per-cell [`cam::CamArray`] it is the structural ground truth; over
/// the word-parallel [`cam::BitPlaneArray`] it is [`ApEngine`](crate::ApEngine),
/// what the fast `functional` inference backend runs. The pass sequence is the
/// same code for both, so the two arrays see the identical align, search and
/// write calls, and the `engine_equivalence` suite pins their column reads,
/// tag vectors and [`CamStats`] bit-identical. The matching
/// [`CostModel`](crate::CostModel) prices the same counters in closed form.
///
/// # Example
///
/// ```
/// use ap::{ApController, ApInstruction, CarrySlot, Operand};
/// use cam::{CamArray, CamTechnology};
///
/// # fn main() -> Result<(), ap::ApError> {
/// let array = CamArray::new(2, 4, 16, CamTechnology::default())?;
/// let mut ap = ApController::new(array);
/// let a = Operand::new(0, 0, 4, false);
/// let acc = Operand::new(1, 0, 6, true);
/// ap.load_column(&a, &[3, 4])?;
/// ap.load_column(&acc, &[0, 0])?;
/// ap.execute(&ApInstruction::SubInPlace { a, acc, carry: CarrySlot::new(2, 0) })?;
/// assert_eq!(ap.read_column(&acc)?, vec![-3, -4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ApController<A> {
    pub(crate) array: A,
    /// Union-mask buffer of compiled plan sweeps, one word per row word,
    /// reused across [`ApEngine::run_plan`](crate::ApEngine::run_plan) calls
    /// (empty over any other array).
    pub(crate) sweep_union: Vec<u64>,
}

impl<A: AssociativeArray> ApController<A> {
    /// Creates a controller driving `array`.
    pub fn new(array: A) -> Self {
        ApController {
            array,
            sweep_union: Vec::new(),
        }
    }

    /// Number of SIMD rows of the underlying array.
    pub fn rows(&self) -> usize {
        self.array.rows()
    }

    /// Shared access to the underlying array.
    pub fn array(&self) -> &A {
        &self.array
    }

    /// Mutable access to the underlying array.
    pub fn array_mut(&mut self) -> &mut A {
        &mut self.array
    }

    /// Consumes the controller and returns the underlying array.
    pub fn into_inner(self) -> A {
        self.array
    }

    /// Event counters accumulated by the underlying array.
    pub fn stats(&self) -> CamStats {
        self.array.stats()
    }

    /// Resets the event counters.
    pub fn reset_stats(&mut self) {
        self.array.reset_stats();
    }

    /// Stages one value per row into the operand's column (I/O, not compute).
    ///
    /// # Errors
    ///
    /// Returns [`ApError::WrongValueCount`] if `values` does not hold one value per
    /// row, [`ApError::InvalidOperand`] for negative values in an unsigned operand,
    /// or a wrapped CAM error.
    pub fn load_column(&mut self, operand: &Operand, values: &[i64]) -> Result<()> {
        if values.len() != self.array.rows() {
            return Err(ApError::WrongValueCount {
                expected: self.array.rows(),
                found: values.len(),
            });
        }
        // The OR of the values is negative exactly when some value is.
        if !operand.signed && values.iter().fold(0, |any, &v| any | v) < 0 {
            let bad = values
                .iter()
                .find(|&&v| v < 0)
                .expect("some value is negative");
            return Err(ApError::InvalidOperand {
                reason: format!("negative value {bad} loaded into unsigned operand"),
            });
        }
        self.array
            .write_column_values(operand.col, operand.base, operand.width, values)?;
        Ok(())
    }

    /// Reads one value per row from the operand's column.
    ///
    /// # Errors
    ///
    /// Returns a wrapped CAM error when the operand is out of range.
    pub fn read_column(&mut self, operand: &Operand) -> Result<Vec<i64>> {
        let mut values = Vec::with_capacity(self.array.rows());
        self.read_column_into(operand, &mut values)?;
        Ok(values)
    }

    /// [`read_column`](Self::read_column), appending the row values to `out`
    /// (so one buffer can collect many columns).
    ///
    /// # Errors
    ///
    /// Returns a wrapped CAM error when the operand is out of range; `out`
    /// may then hold a prefix of the column.
    pub fn read_column_into(&mut self, operand: &Operand, out: &mut Vec<i64>) -> Result<()> {
        Ok(self.array.read_column_values_into(
            operand.col,
            operand.base,
            operand.width,
            operand.signed,
            out,
        )?)
    }

    /// Executes a whole program in order.
    ///
    /// When [`telemetry`] recording is on, books `ap.interpreter.runs` and
    /// `ap.interpreter.instructions` once per program (never per
    /// instruction); with recording off the cost is a single relaxed load.
    ///
    /// # Errors
    ///
    /// Returns the first error encountered; earlier instructions remain applied.
    pub fn run(&mut self, program: &ApProgram) -> Result<()> {
        if telemetry::enabled() {
            telemetry::count("ap.interpreter.runs", 1);
            telemetry::count("ap.interpreter.instructions", program.len() as u64);
        }
        for instruction in program.iter() {
            self.execute(instruction)?;
        }
        Ok(())
    }

    /// Executes a single instruction.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::OperandConflict`] or [`ApError::InvalidOperand`] for
    /// malformed instructions, or a wrapped CAM error for out-of-range accesses.
    pub fn execute(&mut self, instruction: &ApInstruction) -> Result<()> {
        match instruction {
            ApInstruction::AddInPlace { a, acc, carry } => {
                self.binary_in_place(a, acc, *carry, LutKind::AddInPlace)
            }
            ApInstruction::SubInPlace { a, acc, carry } => {
                self.binary_in_place(a, acc, *carry, LutKind::SubInPlace)
            }
            ApInstruction::AddOutOfPlace { a, b, dests, carry } => {
                self.binary_out_of_place(a, b, dests, *carry, LutKind::AddOutOfPlace)
            }
            ApInstruction::SubOutOfPlace { a, b, dests, carry } => {
                self.binary_out_of_place(a, b, dests, *carry, LutKind::SubOutOfPlace)
            }
            ApInstruction::Copy { src, dests } => self.copy(src, dests),
            ApInstruction::Clear { dst } => self.clear(dst),
        }
    }

    fn validate_operand(op: &Operand) -> Result<()> {
        if op.width == 0 || op.width > 63 {
            return Err(ApError::InvalidOperand {
                reason: format!("operand width {} must be in 1..=63", op.width),
            });
        }
        Ok(())
    }

    fn clear_carry(&mut self, carry: CarrySlot) -> Result<()> {
        self.array.align_column(carry.col, carry.domain)?;
        let tags = self.array.all_tags();
        self.array
            .write_tagged(&tags, &SearchKey::new().with(carry.col, false))?;
        Ok(())
    }

    fn binary_in_place(
        &mut self,
        a: &Operand,
        acc: &Operand,
        carry: CarrySlot,
        kind: LutKind,
    ) -> Result<()> {
        Self::validate_operand(a)?;
        Self::validate_operand(acc)?;
        if a.col == acc.col {
            return Err(ApError::OperandConflict {
                reason: "source and accumulator must live in different columns".to_string(),
            });
        }
        if carry.col == a.col || carry.col == acc.col {
            return Err(ApError::OperandConflict {
                reason: "carry column must differ from both operand columns".to_string(),
            });
        }
        self.clear_carry(carry)?;
        let lut = Lut::of(kind);
        // The search keys and write patterns of each pass are fixed for the whole
        // instruction (only the aligned domains change per bit), so they are built
        // once here instead of per pass inside the bit loop.
        let keyed_passes = |with_a: bool| -> Vec<(SearchKey, SearchKey)> {
            let passes = if with_a {
                lut.passes().to_vec()
            } else {
                lut.passes_with_constant_a(false)
            };
            passes
                .iter()
                .map(|pass| {
                    let mut key = SearchKey::new()
                        .with(carry.col, pass.key_carry)
                        .with(acc.col, pass.key_b);
                    if with_a {
                        key.set(a.col, pass.key_a);
                    }
                    let pattern = SearchKey::new()
                        .with(carry.col, pass.write_carry)
                        .with(acc.col, pass.write_result);
                    (key, pattern)
                })
                .collect()
        };
        let with_a_passes = keyed_passes(true);
        let constant_a_passes = keyed_passes(false);
        for bit in 0..acc.width as usize {
            self.array.align_column(acc.col, acc.base + bit)?;
            let a_domain = a.domain_for_bit(bit);
            if let Some(domain) = a_domain {
                self.array.align_column(a.col, domain)?;
            }
            self.array.align_column(carry.col, carry.domain)?;
            let passes = match a_domain {
                Some(_) => &with_a_passes,
                None => &constant_a_passes,
            };
            for (key, pattern) in passes {
                let tags = self.array.search(key)?;
                self.array.write_tagged(&tags, pattern)?;
            }
        }
        Ok(())
    }

    fn binary_out_of_place(
        &mut self,
        a: &Operand,
        b: &Operand,
        dests: &[Operand],
        carry: CarrySlot,
        kind: LutKind,
    ) -> Result<()> {
        Self::validate_operand(a)?;
        Self::validate_operand(b)?;
        let first = dests.first().ok_or_else(|| ApError::InvalidOperand {
            reason: "out-of-place operation needs at least one destination".to_string(),
        })?;
        for dest in dests {
            Self::validate_operand(dest)?;
            if dest.width != first.width {
                return Err(ApError::InvalidOperand {
                    reason: "all destinations must share the same width".to_string(),
                });
            }
            if dest.col == a.col || dest.col == b.col || dest.col == carry.col {
                return Err(ApError::OperandConflict {
                    reason: "destination columns must differ from sources and carry".to_string(),
                });
            }
        }
        if a.col == b.col {
            return Err(ApError::OperandConflict {
                reason: "the two source operands must live in different columns".to_string(),
            });
        }
        if carry.col == a.col || carry.col == b.col {
            return Err(ApError::OperandConflict {
                reason: "carry column must differ from both source columns".to_string(),
            });
        }
        self.clear_carry(carry)?;
        // Destinations must start from zero for the out-of-place tables to be valid.
        for dest in dests {
            self.clear(dest)?;
        }
        let lut = Lut::of(kind);
        let width = first.width as usize;
        // The applicable passes and their key/pattern pairs depend only on
        // whether the a/b bits are physically present (they flip once at each
        // operand's width boundary), so all four regimes are built up front
        // instead of per pass inside the bit loop.
        let keyed_passes = |a_present: bool, b_present: bool| -> Vec<(SearchKey, SearchKey)> {
            lut.passes()
                .iter()
                .filter(|pass| (a_present || !pass.key_a) && (b_present || !pass.key_b))
                .map(|pass| {
                    let mut key = SearchKey::new().with(carry.col, pass.key_carry);
                    if b_present {
                        key.set(b.col, pass.key_b);
                    }
                    if a_present {
                        key.set(a.col, pass.key_a);
                    }
                    let mut pattern = SearchKey::new().with(carry.col, pass.write_carry);
                    for dest in dests {
                        pattern.set(dest.col, pass.write_result);
                    }
                    (key, pattern)
                })
                .collect()
        };
        let regimes = [
            [keyed_passes(false, false), keyed_passes(false, true)],
            [keyed_passes(true, false), keyed_passes(true, true)],
        ];
        for bit in 0..width {
            let a_domain = a.domain_for_bit(bit);
            let b_domain = b.domain_for_bit(bit);
            if let Some(domain) = a_domain {
                self.array.align_column(a.col, domain)?;
            }
            if let Some(domain) = b_domain {
                self.array.align_column(b.col, domain)?;
            }
            self.array.align_column(carry.col, carry.domain)?;
            for dest in dests {
                self.array.align_column(dest.col, dest.base + bit)?;
            }
            let passes = &regimes[usize::from(a_domain.is_some())][usize::from(b_domain.is_some())];
            for (key, pattern) in passes {
                let tags = self.array.search(key)?;
                self.array.write_tagged(&tags, pattern)?;
            }
        }
        Ok(())
    }

    fn copy(&mut self, src: &Operand, dests: &[Operand]) -> Result<()> {
        Self::validate_operand(src)?;
        let first = dests.first().ok_or_else(|| ApError::InvalidOperand {
            reason: "copy needs at least one destination".to_string(),
        })?;
        for dest in dests {
            Self::validate_operand(dest)?;
            if dest.width != first.width {
                return Err(ApError::InvalidOperand {
                    reason: "all copy destinations must share the same width".to_string(),
                });
            }
            if dest.col == src.col {
                return Err(ApError::OperandConflict {
                    reason: "copy destination must differ from the source column".to_string(),
                });
            }
        }
        let width = first.width as usize;
        // Keys and patterns are fixed for the whole instruction.
        let pattern_for = |bit_value: bool| {
            let mut pattern = SearchKey::new();
            for dest in dests {
                pattern.set(dest.col, bit_value);
            }
            pattern
        };
        let keyed = [false, true].map(|bit_value| {
            (
                SearchKey::new().with(src.col, bit_value),
                pattern_for(bit_value),
            )
        });
        for bit in 0..width {
            for dest in dests {
                self.array.align_column(dest.col, dest.base + bit)?;
            }
            match src.domain_for_bit(bit) {
                Some(domain) => {
                    self.array.align_column(src.col, domain)?;
                    for (key, pattern) in &keyed {
                        let tags = self.array.search(key)?;
                        self.array.write_tagged(&tags, pattern)?;
                    }
                }
                None => {
                    let tags = self.array.all_tags();
                    self.array.write_tagged(&tags, &keyed[0].1)?;
                }
            }
        }
        Ok(())
    }

    fn clear(&mut self, dst: &Operand) -> Result<()> {
        Self::validate_operand(dst)?;
        for bit in 0..dst.width as usize {
            self.array.align_column(dst.col, dst.base + bit)?;
            let tags = self.array.all_tags();
            self.array
                .write_tagged(&tags, &SearchKey::new().with(dst.col, false))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApEngine;
    use cam::{BitPlaneArray, CamArray, CamTechnology};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    // Each case is a function generic over the array, run once on a
    // controller over each model of the same geometry.

    fn scalar(rows: usize, cols: usize, domains: usize) -> ApController<CamArray> {
        ApController::new(
            CamArray::new(rows, cols, domains, CamTechnology::default()).expect("geometry"),
        )
    }

    fn packed(rows: usize, cols: usize, domains: usize) -> ApEngine {
        ApEngine::new(
            BitPlaneArray::new(rows, cols, domains, CamTechnology::default()).expect("geometry"),
        )
    }

    #[test]
    fn add_in_place_matches_integer_addition() {
        fn case<A: AssociativeArray>(mut ap: ApController<A>) {
            let a = Operand::new(0, 0, 4, false);
            let acc = Operand::new(1, 0, 8, true);
            ap.load_column(&a, &[1, 7, 15, 0]).expect("load");
            ap.load_column(&acc, &[5, -3, 100, -128]).expect("load");
            ap.execute(&ApInstruction::AddInPlace {
                a,
                acc,
                carry: CarrySlot::new(2, 0),
            })
            .expect("exec");
            assert_eq!(ap.read_column(&acc).expect("read"), vec![6, 4, 115, -128]);
        }
        case(scalar(4, 4, 16));
        case(packed(4, 4, 16));
    }

    #[test]
    fn word_parallel_add_covers_rows_beyond_one_word() {
        // 130 rows exercise two full tag words plus a partial one.
        fn case<A: AssociativeArray>(mut ap: ApController<A>) {
            let rows = ap.rows() as i64;
            let a = Operand::new(0, 0, 5, false);
            let acc = Operand::new(1, 0, 9, true);
            let a_vals: Vec<i64> = (0..rows).map(|i| i % 32).collect();
            let acc_vals: Vec<i64> = (0..rows).map(|i| (i * 3) % 100 - 50).collect();
            ap.load_column(&a, &a_vals).expect("load");
            ap.load_column(&acc, &acc_vals).expect("load");
            ap.execute(&ApInstruction::AddInPlace {
                a,
                acc,
                carry: CarrySlot::new(2, 0),
            })
            .expect("exec");
            let expected: Vec<i64> = a_vals.iter().zip(&acc_vals).map(|(x, y)| x + y).collect();
            assert_eq!(ap.read_column(&acc).expect("read"), expected);
        }
        case(scalar(130, 4, 16));
        case(packed(130, 4, 16));
    }

    #[test]
    fn sub_in_place_matches_integer_subtraction() {
        fn case<A: AssociativeArray>(mut ap: ApController<A>) {
            let a = Operand::new(0, 0, 5, true);
            let acc = Operand::new(1, 0, 8, true);
            ap.load_column(&a, &[3, -7, 15]).expect("load");
            ap.load_column(&acc, &[10, 10, -20]).expect("load");
            ap.execute(&ApInstruction::SubInPlace {
                a,
                acc,
                carry: CarrySlot::new(2, 0),
            })
            .expect("exec");
            assert_eq!(ap.read_column(&acc).expect("read"), vec![7, 17, -35]);
        }
        case(scalar(3, 4, 16));
        case(packed(3, 4, 16));
    }

    #[test]
    fn add_out_of_place_preserves_sources_and_fills_all_destinations() {
        fn case<A: AssociativeArray>(mut ap: ApController<A>) {
            let a = Operand::new(0, 0, 4, false);
            let b = Operand::new(1, 0, 4, false);
            let d0 = Operand::new(2, 0, 6, true);
            let d1 = Operand::new(3, 0, 6, true);
            ap.load_column(&a, &[9, 2]).expect("load");
            ap.load_column(&b, &[4, 11]).expect("load");
            // Destinations hold garbage that must be cleared by the instruction.
            ap.load_column(&d0, &[31, 17]).expect("load");
            ap.execute(&ApInstruction::AddOutOfPlace {
                a,
                b,
                dests: vec![d0, d1],
                carry: CarrySlot::new(5, 0),
            })
            .expect("exec");
            assert_eq!(ap.read_column(&d0).expect("read"), vec![13, 13]);
            assert_eq!(ap.read_column(&d1).expect("read"), vec![13, 13]);
            assert_eq!(ap.read_column(&a).expect("read"), vec![9, 2]);
            assert_eq!(ap.read_column(&b).expect("read"), vec![4, 11]);
        }
        case(scalar(2, 6, 16));
        case(packed(2, 6, 16));
    }

    #[test]
    fn sub_out_of_place_computes_b_minus_a() {
        fn case<A: AssociativeArray>(mut ap: ApController<A>) {
            let a = Operand::new(0, 0, 4, false);
            let b = Operand::new(1, 0, 4, false);
            let d = Operand::new(2, 0, 6, true);
            let c = Operand::new(3, 0, 6, true);
            ap.load_column(&a, &[5, 0, 15]).expect("load");
            ap.load_column(&b, &[3, 9, 15]).expect("load");
            ap.execute(&ApInstruction::SubOutOfPlace {
                a,
                b,
                dests: vec![d],
                carry: CarrySlot::new(4, 0),
            })
            .expect("exec");
            assert_eq!(ap.read_column(&d).expect("read"), vec![-2, 9, 0]);
            // The difference copies and clears like any other column.
            ap.execute(&ApInstruction::Copy {
                src: d,
                dests: vec![c],
            })
            .expect("exec");
            assert_eq!(ap.read_column(&c).expect("read"), vec![-2, 9, 0]);
            ap.execute(&ApInstruction::Clear { dst: c }).expect("exec");
            assert_eq!(ap.read_column(&c).expect("read"), vec![0, 0, 0]);
        }
        case(scalar(3, 5, 16));
        case(packed(3, 5, 16));
    }

    #[test]
    fn copy_replicates_the_source() {
        fn case<A: AssociativeArray>(mut ap: ApController<A>) {
            let src = Operand::new(0, 0, 5, true);
            let d0 = Operand::new(1, 0, 5, true);
            let d1 = Operand::new(2, 4, 5, true);
            ap.load_column(&src, &[-7, 3, 15]).expect("load");
            ap.execute(&ApInstruction::Copy {
                src,
                dests: vec![d0, d1],
            })
            .expect("exec");
            assert_eq!(ap.read_column(&d0).expect("read"), vec![-7, 3, 15]);
            assert_eq!(ap.read_column(&d1).expect("read"), vec![-7, 3, 15]);
        }
        case(scalar(3, 4, 16));
        case(packed(3, 4, 16));
    }

    #[test]
    fn clear_zeroes_every_row() {
        fn case<A: AssociativeArray>(mut ap: ApController<A>) {
            let dst = Operand::new(0, 0, 6, true);
            ap.load_column(&dst, &[19, -11]).expect("load");
            ap.execute(&ApInstruction::Clear { dst }).expect("exec");
            assert_eq!(ap.read_column(&dst).expect("read"), vec![0, 0]);
        }
        case(scalar(2, 2, 8));
        case(packed(2, 2, 8));
    }

    #[test]
    fn operand_conflicts_are_rejected() {
        fn case<A: AssociativeArray>(mut ap: ApController<A>) {
            let err = ap
                .execute(&ApInstruction::AddInPlace {
                    a: Operand::new(0, 0, 4, false),
                    acc: Operand::new(0, 4, 4, true),
                    carry: CarrySlot::new(1, 0),
                })
                .expect_err("same column must be rejected");
            assert!(matches!(err, ApError::OperandConflict { .. }));

            let err = ap
                .execute(&ApInstruction::AddInPlace {
                    a: Operand::new(0, 0, 4, false),
                    acc: Operand::new(1, 0, 4, true),
                    carry: CarrySlot::new(1, 7),
                })
                .expect_err("carry sharing the accumulator column must be rejected");
            assert!(matches!(err, ApError::OperandConflict { .. }));
        }
        case(scalar(2, 4, 8));
        case(packed(2, 4, 8));
    }

    #[test]
    fn wrong_value_count_is_rejected() {
        fn case<A: AssociativeArray>(mut ap: ApController<A>) {
            let a = Operand::new(0, 0, 4, false);
            assert!(matches!(
                ap.load_column(&a, &[1, 2]),
                Err(ApError::WrongValueCount {
                    expected: 4,
                    found: 2
                })
            ));
        }
        case(scalar(4, 2, 8));
        case(packed(4, 2, 8));
    }

    #[test]
    fn unsigned_operand_rejects_negative_values() {
        fn case<A: AssociativeArray>(mut ap: ApController<A>) {
            // The first negative value is named, and nothing is staged.
            let a = Operand::new(0, 0, 4, false);
            let err = ap.load_column(&a, &[3, -2, 5, -7]).expect_err("negative");
            assert_eq!(
                err,
                ApError::InvalidOperand {
                    reason: "negative value -2 loaded into unsigned operand".to_string()
                }
            );
            assert_eq!(ap.stats(), CamStats::new());
            let signed = Operand::new(0, 0, 4, true);
            ap.load_column(&signed, &[3, -2, 5, -7]).expect("signed");
        }
        case(scalar(4, 2, 8));
        case(packed(4, 2, 8));
    }

    #[test]
    fn accumulation_chain_matches_reference() {
        // Emulates the accumulation phase: acc starts at 0 and sums four columns.
        fn case<A: AssociativeArray>(mut ap: ApController<A>) {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut reference = vec![0i64; 8];
            let acc = Operand::new(6, 0, 12, true);
            ap.execute(&ApInstruction::Clear { dst: acc })
                .expect("clear");
            for col in 0..4 {
                let values: Vec<i64> = (0..8).map(|_| rng.gen_range(0..256)).collect();
                let op = Operand::new(col, 0, 8, false);
                ap.load_column(&op, &values).expect("load");
                for (r, v) in reference.iter_mut().zip(&values) {
                    *r += v;
                }
                ap.execute(&ApInstruction::AddInPlace {
                    a: op,
                    acc,
                    carry: CarrySlot::new(7, 0),
                })
                .expect("exec");
            }
            assert_eq!(ap.read_column(&acc).expect("read"), reference);
        }
        case(scalar(8, 8, 24));
        case(packed(8, 8, 24));
    }

    /// `acc + a` over the given rows, as the controller computes it.
    fn add_in_place<A: AssociativeArray>(
        mut ap: ApController<A>,
        a_vals: &[i64],
        acc_vals: &[i64],
    ) -> Vec<i64> {
        let a = Operand::new(0, 0, 4, false);
        let acc = Operand::new(1, 0, 9, true);
        ap.load_column(&a, a_vals).expect("load");
        ap.load_column(&acc, acc_vals).expect("load");
        ap.execute(&ApInstruction::AddInPlace {
            a,
            acc,
            carry: CarrySlot::new(2, 0),
        })
        .expect("exec");
        ap.read_column(&acc).expect("read")
    }

    /// `b - a` into a fresh column, as the controller computes it.
    fn sub_out_of_place<A: AssociativeArray>(
        mut ap: ApController<A>,
        a_vals: &[i64],
        b_vals: &[i64],
    ) -> Vec<i64> {
        let a = Operand::new(0, 0, 7, false);
        let b = Operand::new(1, 0, 7, false);
        let d = Operand::new(2, 0, 9, true);
        ap.load_column(&a, a_vals).expect("load");
        ap.load_column(&b, b_vals).expect("load");
        ap.execute(&ApInstruction::SubOutOfPlace {
            a,
            b,
            dests: vec![d],
            carry: CarrySlot::new(5, 0),
        })
        .expect("exec");
        ap.read_column(&d).expect("read")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Row counts on both sides of the 64-row tag word.
        #[test]
        fn prop_add_in_place_matches_i64(rows in 1usize..131, seed in 0i64..1000) {
            let a_vals: Vec<i64> = (0..rows as i64).map(|i| (i * 7 + seed) % 16).collect();
            let acc_vals: Vec<i64> = (0..rows as i64).map(|i| (i * 13 + seed) % 200 - 100).collect();
            let expected: Vec<i64> = a_vals.iter().zip(&acc_vals).map(|(x, y)| x + y).collect();
            prop_assert_eq!(add_in_place(scalar(rows, 4, 16), &a_vals, &acc_vals), expected.clone());
            prop_assert_eq!(add_in_place(packed(rows, 4, 16), &a_vals, &acc_vals), expected);
        }

        #[test]
        fn prop_sub_out_of_place_matches_i64(
            a_vals in proptest::collection::vec(0i64..128, 4),
            b_vals in proptest::collection::vec(0i64..128, 4),
        ) {
            let expected: Vec<i64> = a_vals.iter().zip(&b_vals).map(|(x, y)| y - x).collect();
            prop_assert_eq!(sub_out_of_place(scalar(4, 6, 16), &a_vals, &b_vals), expected.clone());
            prop_assert_eq!(sub_out_of_place(packed(4, 6, 16), &a_vals, &b_vals), expected);
        }
    }
}
