use crate::{ApError, ApInstruction, ApProgram, CarrySlot, Lut, LutKind, Operand, Result};
use cam::{BitPlaneArray, CamStats, PackedTags, SearchKey};

/// The word-parallel associative-processor execution engine.
///
/// `ApEngine` executes the same [`ApInstruction`]/[`ApProgram`] surface as the
/// scalar [`ApController`](crate::ApController), but over a
/// [`cam::BitPlaneArray`]: each masked-search / parallel-write LUT pass runs as
/// a handful of bitwise operations over `ceil(rows / 64)` packed words instead
/// of a per-row, per-cell loop, so functional simulation reaches hardware-model
/// speed on full-height arrays.
///
/// The engine issues *exactly* the same align/search/write sequence as the
/// controller, so its column reads, tag vectors and [`CamStats`] counters are
/// bit-identical to the scalar ground truth — pinned by the
/// `engine_equivalence` differential test suite. The controller remains the
/// reference; the engine is what the fast `functional` inference backend runs.
///
/// # Example
///
/// ```
/// use ap::{ApEngine, ApInstruction, CarrySlot, Operand};
/// use cam::{BitPlaneArray, CamTechnology};
///
/// # fn main() -> Result<(), ap::ApError> {
/// let array = BitPlaneArray::new(100, 4, 16, CamTechnology::default())?;
/// let mut ap = ApEngine::new(array);
/// let a = Operand::new(0, 0, 4, false);
/// let acc = Operand::new(1, 0, 6, true);
/// ap.load_column(&a, &vec![3; 100])?;
/// ap.load_column(&acc, &vec![10; 100])?;
/// ap.execute(&ApInstruction::SubInPlace { a, acc, carry: CarrySlot::new(2, 0) })?;
/// assert_eq!(ap.read_column(&acc)?, vec![7; 100]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ApEngine {
    pub(crate) array: BitPlaneArray,
    /// Union-mask buffer of compiled plan sweeps, one word per row word,
    /// reused across [`run_plan`](Self::run_plan) calls.
    pub(crate) sweep_union: Vec<u64>,
}

impl ApEngine {
    /// Creates an engine driving `array`.
    pub fn new(array: BitPlaneArray) -> Self {
        ApEngine {
            array,
            sweep_union: Vec::new(),
        }
    }

    /// Number of SIMD rows of the underlying array.
    pub fn rows(&self) -> usize {
        self.array.rows()
    }

    /// Shared access to the underlying bit-plane array.
    pub fn array(&self) -> &BitPlaneArray {
        &self.array
    }

    /// Mutable access to the underlying bit-plane array.
    pub fn array_mut(&mut self) -> &mut BitPlaneArray {
        &mut self.array
    }

    /// Consumes the engine and returns the underlying array.
    pub fn into_inner(self) -> BitPlaneArray {
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
        let tags = PackedTags::all_set(self.array.rows());
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
                    let tags = PackedTags::all_set(self.array.rows());
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
            let tags = PackedTags::all_set(self.array.rows());
            self.array
                .write_tagged(&tags, &SearchKey::new().with(dst.col, false))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam::CamTechnology;
    use proptest::prelude::*;

    fn engine(rows: usize, cols: usize, domains: usize) -> ApEngine {
        ApEngine::new(
            BitPlaneArray::new(rows, cols, domains, CamTechnology::default()).expect("geometry"),
        )
    }

    #[test]
    fn add_in_place_matches_integer_addition() {
        let mut ap = engine(4, 4, 16);
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

    #[test]
    fn word_parallel_add_covers_rows_beyond_one_word() {
        // 130 rows exercise two full tag words plus a partial one.
        let rows = 130;
        let mut ap = engine(rows, 4, 16);
        let a = Operand::new(0, 0, 5, false);
        let acc = Operand::new(1, 0, 9, true);
        let a_vals: Vec<i64> = (0..rows as i64).map(|i| i % 32).collect();
        let acc_vals: Vec<i64> = (0..rows as i64).map(|i| (i * 3) % 100 - 50).collect();
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

    #[test]
    fn out_of_place_sub_and_copy_behave() {
        let mut ap = engine(3, 6, 16);
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
            carry: CarrySlot::new(5, 0),
        })
        .expect("exec");
        assert_eq!(ap.read_column(&d).expect("read"), vec![-2, 9, 0]);
        ap.execute(&ApInstruction::Copy {
            src: d,
            dests: vec![c],
        })
        .expect("exec");
        assert_eq!(ap.read_column(&c).expect("read"), vec![-2, 9, 0]);
        ap.execute(&ApInstruction::Clear { dst: c }).expect("exec");
        assert_eq!(ap.read_column(&c).expect("read"), vec![0, 0, 0]);
    }

    #[test]
    fn operand_conflicts_are_rejected() {
        let mut ap = engine(2, 4, 8);
        let err = ap
            .execute(&ApInstruction::AddInPlace {
                a: Operand::new(0, 0, 4, false),
                acc: Operand::new(0, 4, 4, true),
                carry: CarrySlot::new(1, 0),
            })
            .expect_err("same column must be rejected");
        assert!(matches!(err, ApError::OperandConflict { .. }));
    }

    #[test]
    fn wrong_value_count_is_rejected() {
        let mut ap = engine(4, 2, 8);
        let a = Operand::new(0, 0, 4, false);
        assert!(matches!(
            ap.load_column(&a, &[1, 2]),
            Err(ApError::WrongValueCount {
                expected: 4,
                found: 2
            })
        ));
        // The first negative value is named, and nothing is staged.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_add_in_place_matches_i64_on_odd_row_counts(
            rows in 1usize..131,
            seed in 0u64..1000,
        ) {
            let mut ap = engine(rows, 4, 16);
            let a = Operand::new(0, 0, 4, false);
            let acc = Operand::new(1, 0, 9, true);
            let a_vals: Vec<i64> = (0..rows as i64).map(|i| (i * 7 + seed as i64) % 16).collect();
            let acc_vals: Vec<i64> = (0..rows as i64).map(|i| (i * 13 + seed as i64) % 200 - 100).collect();
            ap.load_column(&a, &a_vals).expect("load");
            ap.load_column(&acc, &acc_vals).expect("load");
            ap.execute(&ApInstruction::AddInPlace { a, acc, carry: CarrySlot::new(2, 0) }).expect("exec");
            let expected: Vec<i64> = a_vals.iter().zip(&acc_vals).map(|(x, y)| x + y).collect();
            prop_assert_eq!(ap.read_column(&acc).expect("read"), expected);
        }
    }
}
