use serde::{Deserialize, Serialize};

/// Which arithmetic lookup table is being described.
///
/// The in-place variants overwrite one input operand with the result and need four
/// search/write passes per bit (8 cycles); the out-of-place variants write the result
/// into a fresh column and need five passes per bit (10 cycles), matching Table I of
/// the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LutKind {
    /// `B ← B + A` with carry column `Cr` updated in place.
    AddInPlace,
    /// `R ← B + A` with `R` a fresh (zero-initialised) column and `Cr` updated in place.
    AddOutOfPlace,
    /// `B ← B − A` with borrow column `Br` updated in place.
    SubInPlace,
    /// `R ← B − A` with `R` a fresh (zero-initialised) column and `Br` updated in place.
    SubOutOfPlace,
}

impl LutKind {
    /// Whether this table overwrites the `B` operand (`true`) or writes into a fresh
    /// result column (`false`).
    pub fn is_in_place(self) -> bool {
        matches!(self, LutKind::AddInPlace | LutKind::SubInPlace)
    }

    /// Whether this table performs subtraction.
    pub fn is_subtraction(self) -> bool {
        matches!(self, LutKind::SubInPlace | LutKind::SubOutOfPlace)
    }

    /// How many passes run for one result bit, given whether the `A` and `B`
    /// operands supply a key bit: a pass that keys on a missing (zero-extended)
    /// operand is skipped.
    pub(crate) fn passes_keyed(self, a_known: bool, b_known: bool) -> u64 {
        PASSES_KEYED[self as usize][usize::from(a_known) | usize::from(b_known) << 1]
    }

    /// The ordered, non-NC passes of this table (what [`Lut::of`] copies).
    pub(crate) const fn passes(self) -> &'static [LutEntry] {
        match self {
            LutKind::AddInPlace => &ADD_IN_PLACE,
            LutKind::AddOutOfPlace => &ADD_OUT_OF_PLACE,
            LutKind::SubInPlace => &SUB_IN_PLACE,
            LutKind::SubOutOfPlace => &SUB_OUT_OF_PLACE,
        }
    }
}

/// [`LutKind::passes_keyed`] by kind and operand case (bit 0: `A` supplies a
/// key bit, bit 1: `B` does), counted once at compile time.
const PASSES_KEYED: [[u64; 4]; 4] = {
    let kinds = [
        LutKind::AddInPlace,
        LutKind::AddOutOfPlace,
        LutKind::SubInPlace,
        LutKind::SubOutOfPlace,
    ];
    let mut table = [[0; 4]; 4];
    let mut k = 0;
    while k < kinds.len() {
        let lut = kinds[k].passes();
        let mut case = 0;
        while case < 4 {
            let (a_known, b_known) = (case & 1 == 1, case & 2 == 2);
            let mut i = 0;
            while i < lut.len() {
                if (a_known || !lut[i].key_a) && (b_known || !lut[i].key_b) {
                    table[kinds[k] as usize][case] += 1;
                }
                i += 1;
            }
            case += 1;
        }
        k += 1;
    }
    table
};

/// One pass of a lookup table: the masked search key over the carry/borrow column,
/// the `B` operand and the `A` operand, and the values written into the tagged rows.
///
/// For in-place tables the write targets are `(carry, B)`; for out-of-place tables
/// they are `(carry, R)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LutEntry {
    /// Search key bit for the carry/borrow column.
    pub key_carry: bool,
    /// Search key bit for the `B` operand column.
    pub key_b: bool,
    /// Search key bit for the `A` operand column.
    pub key_a: bool,
    /// Value written into the carry/borrow column of tagged rows.
    pub write_carry: bool,
    /// Value written into the second write column of tagged rows
    /// (`B` for in-place tables, the result column `R` for out-of-place tables).
    pub write_result: bool,
}

impl LutEntry {
    const fn new(key_carry: u8, key_b: u8, key_a: u8, write_carry: u8, write_result: u8) -> Self {
        LutEntry {
            key_carry: key_carry != 0,
            key_b: key_b != 0,
            key_a: key_a != 0,
            write_carry: write_carry != 0,
            write_result: write_result != 0,
        }
    }
}

/// A complete lookup table: the ordered list of non-"NC" passes for one 1-bit
/// operation (Table I of the paper).
///
/// Entries marked *NC* (no change) in the paper are omitted because they require no
/// search or write. The pass order matters for correctness: a pass that rewrites the
/// carry/borrow or `B` column must not turn a row into a pattern that a *later* pass
/// would falsely match. The orders encoded here follow the paper's run order, except
/// for [`LutKind::AddOutOfPlace`] where the published table marks the `Cr,B,A = 0,1,1`
/// row as *NC* even though its carry changes; we use the functionally correct
/// five-pass variant (keys `001, 010, 100, 111, 011`) at the same 10-cycle cost.
///
/// # Example
///
/// ```
/// use ap::{Lut, LutKind};
///
/// let lut = Lut::of(LutKind::AddInPlace);
/// assert_eq!(lut.passes().len(), 4);
/// assert_eq!(lut.cycles_per_bit(), 8);
/// assert_eq!(Lut::of(LutKind::SubOutOfPlace).cycles_per_bit(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lut {
    kind: LutKind,
    passes: Vec<LutEntry>,
}

/// In-place adder, Table I (left), rows in run order 1st..4th.
const ADD_IN_PLACE: [LutEntry; 4] = [
    LutEntry::new(0, 1, 1, 1, 0), // 1st: Cr,B,A = 011 -> Cr,B = 10
    LutEntry::new(0, 0, 1, 0, 1), // 2nd: 001 -> 01
    LutEntry::new(1, 0, 0, 0, 1), // 3rd: 100 -> 01
    LutEntry::new(1, 1, 0, 1, 0), // 4th: 110 -> 10
];

/// Out-of-place adder: five passes writing (Cr, R). See the [`Lut`] docs for the
/// deviation from the published table (erratum fix on row 011/110).
const ADD_OUT_OF_PLACE: [LutEntry; 5] = [
    LutEntry::new(0, 0, 1, 0, 1), // 001 -> Cr,R = 01
    LutEntry::new(0, 1, 0, 0, 1), // 010 -> 01
    LutEntry::new(1, 0, 0, 0, 1), // 100 -> 01
    LutEntry::new(1, 1, 1, 1, 1), // 111 -> 11 (must precede 011: that pass sets Cr)
    LutEntry::new(0, 1, 1, 1, 0), // 011 -> 10
];

/// In-place subtractor (`B ← B − A`), Table I (right), rows in run order 1st..4th.
const SUB_IN_PLACE: [LutEntry; 4] = [
    LutEntry::new(0, 0, 1, 1, 1), // 1st: Br,B,A = 001 -> Br,B = 11
    LutEntry::new(0, 1, 1, 0, 0), // 2nd: 011 -> 00
    LutEntry::new(1, 1, 0, 0, 0), // 3rd: 110 -> 00
    LutEntry::new(1, 0, 0, 1, 1), // 4th: 100 -> 11
];

/// Out-of-place subtractor (`R ← B − A`), Table I (right), rows in run order 1st..5th.
const SUB_OUT_OF_PLACE: [LutEntry; 5] = [
    LutEntry::new(0, 0, 1, 1, 1), // 1st: 001 -> Br,R = 11
    LutEntry::new(0, 1, 0, 0, 1), // 2nd: 010 -> 01
    LutEntry::new(1, 0, 0, 1, 1), // 3rd: 100 -> 11
    LutEntry::new(1, 1, 0, 0, 0), // 4th: 110 -> 00
    LutEntry::new(1, 1, 1, 1, 1), // 5th: 111 -> 11
];

impl Lut {
    /// Returns the lookup table for `kind`.
    pub fn of(kind: LutKind) -> Self {
        Lut {
            kind,
            passes: kind.passes().to_vec(),
        }
    }

    /// The operation this table implements.
    pub fn kind(&self) -> LutKind {
        self.kind
    }

    /// The ordered, non-NC passes of the table.
    pub fn passes(&self) -> &[LutEntry] {
        &self.passes
    }

    /// Number of AP cycles per processed bit: each pass is one search cycle plus one
    /// write cycle.
    pub fn cycles_per_bit(&self) -> u64 {
        self.passes.len() as u64 * 2
    }

    /// Passes that remain applicable when the `A` operand bit is known to be the
    /// constant `a_bit` (used for zero- or sign-extension beyond the operand width).
    /// The `A` column is then removed from the search key by the executor.
    pub fn passes_with_constant_a(&self, a_bit: bool) -> Vec<LutEntry> {
        self.passes
            .iter()
            .copied()
            .filter(|p| p.key_a == a_bit)
            .collect()
    }
}

/// Reference 1-bit full-adder used to validate the tables: returns `(sum, carry_out)`.
#[cfg(test)]
pub(crate) fn full_add(a: bool, b: bool, carry: bool) -> (bool, bool) {
    let sum = a ^ b ^ carry;
    let carry_out = (a & b) | (a & carry) | (b & carry);
    (sum, carry_out)
}

/// Reference 1-bit full-subtractor (`b - a - borrow`): returns `(difference, borrow_out)`.
#[cfg(test)]
pub(crate) fn full_sub(a: bool, b: bool, borrow: bool) -> (bool, bool) {
    let diff = b ^ a ^ borrow;
    let borrow_out = (!b & a) | (!b & borrow) | (a & borrow);
    (diff, borrow_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates the sequential application of a LUT's passes to a single row and
    /// returns the final (carry, result) pair, mirroring what the CAM does.
    fn apply(kind: LutKind, carry_in: bool, b_in: bool, a_in: bool) -> (bool, bool) {
        let lut = Lut::of(kind);
        let in_place = kind.is_in_place();
        // Row state: carry column, B column, A column, R column (out-of-place only).
        let mut carry = carry_in;
        let mut b = b_in;
        let a = a_in;
        let mut r = false;
        for pass in lut.passes() {
            if pass.key_carry == carry && pass.key_b == b && pass.key_a == a {
                carry = pass.write_carry;
                if in_place {
                    b = pass.write_result;
                } else {
                    r = pass.write_result;
                }
            }
        }
        if in_place {
            (carry, b)
        } else {
            (carry, r)
        }
    }

    #[test]
    fn pass_counts_match_paper_cycle_counts() {
        assert_eq!(Lut::of(LutKind::AddInPlace).cycles_per_bit(), 8);
        assert_eq!(Lut::of(LutKind::SubInPlace).cycles_per_bit(), 8);
        assert_eq!(Lut::of(LutKind::AddOutOfPlace).cycles_per_bit(), 10);
        assert_eq!(Lut::of(LutKind::SubOutOfPlace).cycles_per_bit(), 10);
    }

    #[test]
    fn in_place_adder_matches_full_adder_for_all_inputs() {
        for carry in [false, true] {
            for b in [false, true] {
                for a in [false, true] {
                    let (sum, cout) = full_add(a, b, carry);
                    let (got_carry, got_sum) = apply(LutKind::AddInPlace, carry, b, a);
                    assert_eq!((got_sum, got_carry), (sum, cout), "a={a} b={b} cin={carry}");
                }
            }
        }
    }

    #[test]
    fn out_of_place_adder_matches_full_adder_for_all_inputs() {
        for carry in [false, true] {
            for b in [false, true] {
                for a in [false, true] {
                    let (sum, cout) = full_add(a, b, carry);
                    let (got_carry, got_sum) = apply(LutKind::AddOutOfPlace, carry, b, a);
                    assert_eq!((got_sum, got_carry), (sum, cout), "a={a} b={b} cin={carry}");
                }
            }
        }
    }

    #[test]
    fn in_place_subtractor_matches_full_subtractor_for_all_inputs() {
        for borrow in [false, true] {
            for b in [false, true] {
                for a in [false, true] {
                    let (diff, bout) = full_sub(a, b, borrow);
                    let (got_borrow, got_diff) = apply(LutKind::SubInPlace, borrow, b, a);
                    assert_eq!(
                        (got_diff, got_borrow),
                        (diff, bout),
                        "a={a} b={b} bin={borrow}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_place_subtractor_matches_full_subtractor_for_all_inputs() {
        for borrow in [false, true] {
            for b in [false, true] {
                for a in [false, true] {
                    let (diff, bout) = full_sub(a, b, borrow);
                    let (got_borrow, got_diff) = apply(LutKind::SubOutOfPlace, borrow, b, a);
                    assert_eq!(
                        (got_diff, got_borrow),
                        (diff, bout),
                        "a={a} b={b} bin={borrow}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_a_filter_keeps_only_matching_passes() {
        let lut = Lut::of(LutKind::AddInPlace);
        let zero_passes = lut.passes_with_constant_a(false);
        assert!(zero_passes.iter().all(|p| !p.key_a));
        assert_eq!(zero_passes.len(), 2);
        let one_passes = lut.passes_with_constant_a(true);
        assert!(one_passes.iter().all(|p| p.key_a));
        assert_eq!(one_passes.len(), 2);
    }

    #[test]
    fn kind_predicates() {
        assert!(LutKind::AddInPlace.is_in_place());
        assert!(!LutKind::AddOutOfPlace.is_in_place());
        assert!(LutKind::SubOutOfPlace.is_subtraction());
        assert!(!LutKind::AddInPlace.is_subtraction());
    }
}
