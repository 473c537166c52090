use crate::ApController;
use cam::BitPlaneArray;

/// The word-parallel associative-processor execution engine: the
/// [`ApController`] over a [`cam::BitPlaneArray`].
///
/// Each masked-search / parallel-write LUT pass runs as a handful of bitwise
/// operations over `ceil(rows / 64)` packed words instead of a per-row,
/// per-cell loop, so functional simulation reaches hardware-model speed on
/// full-height arrays. Beyond the interpreter it shares with every
/// controller, the engine lowers programs into compiled
/// [`PassPlan`](crate::PassPlan)s ([`compile_plan`](ApController::compile_plan),
/// [`run_plan`](ApController::run_plan)). The controller over the per-cell
/// [`cam::CamArray`] stays the structural reference the bit-plane array is
/// checked against; the engine is what the fast `functional` inference backend
/// runs.
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
pub type ApEngine = ApController<BitPlaneArray>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApError, ApInstruction, CarrySlot, Operand};
    use cam::{CamStats, CamTechnology};
    use proptest::prelude::*;

    // The controller's own module runs its cases on both arrays; these pin
    // the engine alias and the packed array it wraps directly.

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
