//! Linear-expression machinery shared by DFG generation and CSE.
//!
//! After constant weight folding, every output channel of one input-channel slice is
//! a *signed sum of patch inputs*: `y_o = Σ ±x_k`. CSE introduces new *signals* that
//! stand for shared two-term subexpressions. Both inputs and derived signals live in
//! a [`SignalTable`]; outputs are [`LinearExpr`]s over signal ids.

use crate::{ApcError, Result};
use serde::{Deserialize, Serialize};

/// Identifier of a signal in a [`SignalTable`].
pub type SignalId = usize;

/// Definition of one signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SignalDef {
    /// A patch input `x_k` (the activation at patch offset `k` of the current input
    /// channel).
    Input {
        /// Patch offset (`kh * fw + kw`).
        patch_index: usize,
    },
    /// A derived signal `±lhs ± rhs` introduced by CSE.
    Combine {
        /// Left operand.
        lhs: SignalId,
        /// Whether the left operand enters negated.
        lhs_negated: bool,
        /// Right operand.
        rhs: SignalId,
        /// Whether the right operand enters negated.
        rhs_negated: bool,
    },
}

/// The table of all signals of one compilation unit (inputs first, derived signals
/// appended by CSE in creation order).
///
/// # Example
///
/// ```
/// use apc::expr::{SignalTable, SignalDef};
///
/// let mut table = SignalTable::with_inputs(3);
/// let s = table.push_combine(0, false, 2, true).expect("combine"); // x0 - x2
/// assert_eq!(table.len(), 4);
/// let values = table.evaluate(&[10, 20, 3]).expect("evaluate");
/// assert_eq!(values[s], 7);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalTable {
    defs: Vec<SignalDef>,
    inputs: usize,
}

impl SignalTable {
    /// Creates a table containing `inputs` patch-input signals (ids `0..inputs`).
    pub fn with_inputs(inputs: usize) -> Self {
        let mut table = SignalTable::default();
        table.reset(inputs);
        table
    }

    /// Empties the table down to `inputs` patch-input signals, keeping its
    /// storage.
    pub(crate) fn reset(&mut self, inputs: usize) {
        self.defs.clear();
        self.defs
            .extend((0..inputs).map(|patch_index| SignalDef::Input { patch_index }));
        self.inputs = inputs;
    }

    /// Number of signals (inputs plus derived).
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Returns `true` when the table holds no signals.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Number of patch-input signals.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of derived (CSE) signals.
    pub fn derived(&self) -> usize {
        self.defs.len() - self.inputs
    }

    /// The definition of signal `id`, or `None` when out of range.
    pub fn def(&self, id: SignalId) -> Option<&SignalDef> {
        self.defs.get(id)
    }

    /// Iterates over `(id, def)` pairs in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (SignalId, &SignalDef)> {
        self.defs.iter().enumerate()
    }

    /// Appends a derived signal `±lhs ± rhs` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::Internal`] when an operand id does not exist.
    pub fn push_combine(
        &mut self,
        lhs: SignalId,
        lhs_negated: bool,
        rhs: SignalId,
        rhs_negated: bool,
    ) -> Result<SignalId> {
        if lhs >= self.defs.len() || rhs >= self.defs.len() {
            return Err(ApcError::Internal {
                reason: format!(
                    "combine references unknown signals {lhs}/{rhs} (table has {})",
                    self.defs.len()
                ),
            });
        }
        self.defs.push(SignalDef::Combine {
            lhs,
            lhs_negated,
            rhs,
            rhs_negated,
        });
        Ok(self.defs.len() - 1)
    }

    /// Evaluates every signal for a concrete patch-input vector (reference
    /// semantics used by tests and the functional simulator).
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::InvalidArgument`] when `patch_inputs` does not provide one
    /// value per input signal.
    pub fn evaluate(&self, patch_inputs: &[i64]) -> Result<Vec<i64>> {
        if patch_inputs.len() != self.inputs {
            return Err(ApcError::InvalidArgument {
                reason: format!(
                    "expected {} patch inputs, got {}",
                    self.inputs,
                    patch_inputs.len()
                ),
            });
        }
        let mut values: Vec<i64> = Vec::with_capacity(self.defs.len());
        for def in &self.defs {
            let value = match def {
                SignalDef::Input { patch_index } => patch_inputs[*patch_index],
                SignalDef::Combine {
                    lhs,
                    lhs_negated,
                    rhs,
                    rhs_negated,
                } => {
                    let l = values[*lhs];
                    let r = values[*rhs];
                    (if *lhs_negated { -l } else { l }) + (if *rhs_negated { -r } else { r })
                }
            };
            values.push(value);
        }
        Ok(values)
    }
}

/// A signed sum of signals: the value of one output channel for one input channel.
///
/// Coefficients are restricted to ±1 (a ternary weight slice can never produce a
/// larger coefficient, and CSE replaces pairs rather than scaling terms). The terms
/// are kept as a list sorted by signal id, one entry per signal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinearExpr {
    terms: Vec<(SignalId, i8)>,
}

impl LinearExpr {
    /// Creates an empty (zero) expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty expression with room for `terms` terms.
    pub(crate) fn with_capacity(terms: usize) -> Self {
        LinearExpr {
            terms: Vec::with_capacity(terms),
        }
    }

    /// Builds the expression of one output channel directly from a ternary weight
    /// row: weight `+1` at patch offset `k` contributes `+x_k`, `-1` contributes
    /// `-x_k`, `0` contributes nothing. This is the constant-folding step of the
    /// compilation flow.
    pub fn from_weight_row(row: &[i8]) -> Self {
        let mut expr = LinearExpr::new();
        expr.refill_from_weight_row(row);
        expr
    }

    /// Replaces the terms with those of [`LinearExpr::from_weight_row`], keeping
    /// the storage.
    pub(crate) fn refill_from_weight_row(&mut self, row: &[i8]) {
        // Branch-free compaction: every offset is written at the current end and
        // kept only if its weight is ±1. The end never passes the offset, so the
        // write stays inside the row-sized buffer.
        self.terms.resize(row.len(), (0, 0));
        let mut len = 0;
        for (k, &w) in row.iter().enumerate() {
            self.terms[len] = (k, w);
            len += usize::from(w == 1 || w == -1);
        }
        self.terms.truncate(len);
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when the expression is identically zero.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The `(signal, sign)` terms in ascending signal order.
    pub(crate) fn terms(&self) -> &[(SignalId, i8)] {
        &self.terms
    }

    fn position(&self, signal: SignalId) -> std::result::Result<usize, usize> {
        self.terms.binary_search_by_key(&signal, |&(s, _)| s)
    }

    /// The sign of `signal` in this expression (`None` when absent).
    pub fn sign(&self, signal: SignalId) -> Option<i8> {
        self.position(signal).ok().map(|i| self.terms[i].1)
    }

    /// Inserts or replaces a term. A sign of `0` removes the term.
    pub fn insert(&mut self, signal: SignalId, sign: i8) {
        if sign == 0 {
            self.remove(signal);
            return;
        }
        match self.position(signal) {
            Ok(i) => self.terms[i].1 = sign.signum(),
            Err(i) => self.terms.insert(i, (signal, sign.signum())),
        }
    }

    /// Removes a term, returning its sign if it was present.
    pub fn remove(&mut self, signal: SignalId) -> Option<i8> {
        let i = self.position(signal).ok()?;
        Some(self.terms.remove(i).1)
    }

    /// Replaces the terms of `a` and `b` by `sign·signal`, where `signal` is newer
    /// (larger) than every signal of the expression: one CSE substitution.
    pub(crate) fn replace_pair(&mut self, a: SignalId, b: SignalId, signal: SignalId, sign: i8) {
        debug_assert!(self.terms.last().is_none_or(|&(last, _)| last < signal));
        self.terms.retain(|&(s, _)| s != a && s != b);
        self.terms.push((signal, sign));
    }

    /// Iterates over `(signal, sign)` pairs in ascending signal order.
    pub fn iter(&self) -> impl Iterator<Item = (SignalId, i8)> + '_ {
        self.terms.iter().copied()
    }

    /// Evaluates the expression given the value of every signal.
    pub fn evaluate(&self, signal_values: &[i64]) -> i64 {
        self.iter()
            .map(|(s, sign)| sign as i64 * signal_values[s])
            .sum()
    }
}

impl FromIterator<(SignalId, i8)> for LinearExpr {
    fn from_iter<I: IntoIterator<Item = (SignalId, i8)>>(iter: I) -> Self {
        let mut expr = LinearExpr::new();
        for (signal, sign) in iter {
            expr.insert(signal, sign);
        }
        expr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_tracks_inputs_and_derived_signals() {
        let mut table = SignalTable::with_inputs(4);
        assert_eq!(table.inputs(), 4);
        assert_eq!(table.derived(), 0);
        let s = table.push_combine(1, false, 3, false).expect("combine");
        assert_eq!(s, 4);
        assert_eq!(table.derived(), 1);
        assert!(table.push_combine(0, false, 99, false).is_err());
    }

    #[test]
    fn evaluation_follows_definitions() {
        let mut table = SignalTable::with_inputs(3);
        let a = table.push_combine(0, false, 1, true).expect("x0 - x1");
        let b = table.push_combine(a, true, 2, false).expect("-a + x2");
        let values = table.evaluate(&[10, 4, 1]).expect("evaluate");
        assert_eq!(values[a], 6);
        assert_eq!(values[b], -5);
        assert!(table.evaluate(&[1, 2]).is_err());
    }

    #[test]
    fn expression_from_weight_row_folds_constants() {
        let expr = LinearExpr::from_weight_row(&[1, -1, 0, 1, 0, -1]);
        assert_eq!(expr.len(), 4);
        assert_eq!(expr.sign(0), Some(1));
        assert_eq!(expr.sign(1), Some(-1));
        assert_eq!(expr.sign(2), None);
        let values = [5i64, 3, 100, 2, 100, 1];
        assert_eq!(expr.evaluate(&values), 5 - 3 + 2 - 1);
    }

    #[test]
    fn insert_normalises_and_removes() {
        let mut expr = LinearExpr::new();
        expr.insert(3, 5);
        assert_eq!(expr.sign(3), Some(1));
        expr.insert(3, 0);
        assert!(expr.is_empty());
        expr.insert(2, -7);
        assert_eq!(expr.sign(2), Some(-1));
        assert_eq!(expr.remove(2), Some(-1));
        assert_eq!(expr.remove(2), None);
    }

    #[test]
    fn collects_from_iterator() {
        let expr: LinearExpr = [(0, 1i8), (5, -1i8)].into_iter().collect();
        assert_eq!(expr.len(), 2);
        assert_eq!(expr.iter().collect::<Vec<_>>(), vec![(0, 1), (5, -1)]);
    }
}
