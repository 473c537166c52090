//! Common subexpression elimination over ternary-weight slices (§IV-A).
//!
//! CSE operates on the set of output expressions of one input-channel slice
//! (`Cout × Fh·Fw` ternary weights convolved on the same input patch): the signed
//! pair of signals that occurs in the most expressions is replaced by a new signal,
//! and the process repeats until no pair occurs at least twice. The paper reports an
//! average 31 % reduction in additions from this pass. On the matrix of the paper's
//! Eq. 1 the greedy pass introduces three shared signals and goes from 14 to 7
//! add/sub operations, counting `terms − 1` per output plus one per shared signal
//! ([`Dfg::op_count`](crate::dfg::Dfg::op_count)); the paper reaches the same 7.
//!
//! The pass is incremental. Pair counts are taken once; a substitution then
//! decrements only the pairs of the expressions it rewrites and counts the pairs of
//! the new signal, and a per-signal occurrence list finds those expressions without
//! visiting the others. One greedy step costs a scan of the live pair counts plus
//! work proportional to the terms of the rewritten expressions.

use crate::expr::{LinearExpr, SignalId, SignalTable};
use crate::{ApcError, Result};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Statistics of one CSE run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CseOutcome {
    /// Number of new signals (shared subexpressions) introduced.
    pub new_signals: usize,
    /// Number of term occurrences removed from the output expressions (each new
    /// signal removes two terms per expression it is substituted into and adds one).
    pub terms_eliminated: usize,
}

/// A signed pair pattern packed into one `u64`: signals `(a, b)` with `a < b` and the
/// *relative* sign of `b` with respect to `a` (+1 when both appear with the same
/// sign, −1 otherwise) in the lowest bit. A pattern and its global negation are the
/// same subexpression, because negation is free on the associative processor
/// (operand swap / sign folding).
///
/// The packing preserves the order of `(a, b, relative_sign)`, so the smallest key
/// is the smallest pattern.
type PatternKey = u64;

fn pattern_key(a: SignalId, b: SignalId, relative_sign: i8) -> PatternKey {
    debug_assert!(a < b && b < 1 << 31);
    ((a as u64) << 32) | ((b as u64) << 1) | u64::from(relative_sign > 0)
}

fn unpack(key: PatternKey) -> (SignalId, SignalId, i8) {
    let relative_sign = if key & 1 == 1 { 1 } else { -1 };
    (
        (key >> 32) as SignalId,
        ((key >> 1) & 0x7fff_ffff) as SignalId,
        relative_sign,
    )
}

/// Multiplicative hash for pattern keys. The keys are internal signal ids, never
/// outside input, so a keyed hash buys nothing here.
#[derive(Default)]
struct PatternHasher(u64);

impl Hasher for PatternHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = (self.0 ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = product ^ (product >> 29);
    }
}

/// Live pair counts; a pattern whose count drops to zero is removed.
#[derive(Default)]
struct PairCounts(HashMap<PatternKey, u32, BuildHasherDefault<PatternHasher>>);

impl PairCounts {
    fn increment(&mut self, key: PatternKey) {
        *self.0.entry(key).or_insert(0) += 1;
    }

    fn decrement(&mut self, key: PatternKey) {
        if let Some(count) = self.0.get_mut(&key) {
            *count -= 1;
            if *count == 0 {
                self.0.remove(&key);
            }
        }
    }

    /// The pattern with the highest count, ties broken towards the smallest pattern
    /// so compilation is stable; `None` once no pattern occurs twice.
    fn best(&self) -> Option<PatternKey> {
        let mut best: Option<(u32, PatternKey)> = None;
        for (&key, &count) in &self.0 {
            let better = match best {
                None => count >= 2,
                Some((best_count, best_key)) => {
                    count > best_count || (count == best_count && key < best_key)
                }
            };
            if better {
                best = Some((count, key));
            }
        }
        best.map(|(_, key)| key)
    }
}

/// The pattern of the pair `(x, sx)`, `(y, sy)` of one expression.
fn pair_key((x, sx): (SignalId, i8), (y, sy): (SignalId, i8)) -> PatternKey {
    if x < y {
        pattern_key(x, y, sx * sy)
    } else {
        pattern_key(y, x, sx * sy)
    }
}

/// Runs greedy pairwise CSE over `outputs`, appending new signals to `table`.
///
/// Substitution preserves the value of every expression: if `u = a + s·b` then every
/// expression containing `e·a + e·s·b` is rewritten to `e·u`.
///
/// # Errors
///
/// Returns an internal error when an expression references a signal that `table`
/// does not hold (a compiler bug, not a user error).
///
/// # Example
///
/// ```
/// use apc::cse::eliminate;
/// use apc::expr::{LinearExpr, SignalTable};
///
/// let mut table = SignalTable::with_inputs(3);
/// let mut outputs = vec![
///     LinearExpr::from_weight_row(&[1, 1, 0]),
///     LinearExpr::from_weight_row(&[1, 1, 1]),
///     LinearExpr::from_weight_row(&[-1, -1, 1]),
/// ];
/// let outcome = eliminate(&mut table, &mut outputs).expect("cse");
/// // x0 + x1 occurs three times (twice positively, once negated) and becomes one signal.
/// assert_eq!(outcome.new_signals, 1);
/// assert_eq!(outputs[0].len(), 1);
/// ```
pub fn eliminate(table: &mut SignalTable, outputs: &mut [LinearExpr]) -> Result<CseOutcome> {
    // `occurrences[s]` lists the outputs of at least two terms that contained signal
    // `s` when it was last looked at; entries whose output has since lost `s` are
    // dropped lazily. Expressions never grow, so a shorter one never matters.
    let mut occurrences: Vec<Vec<usize>> = vec![Vec::new(); table.len()];
    let mut counts = PairCounts::default();
    for (index, expr) in outputs.iter().enumerate() {
        let terms = expr.terms();
        if let Some(&(last, _)) = terms.last() {
            if last >= table.len() {
                return Err(ApcError::Internal {
                    reason: format!(
                        "expression references unknown signal {last} (table has {})",
                        table.len()
                    ),
                });
            }
        }
        if terms.len() < 2 {
            continue;
        }
        for (i, &(a, sa)) in terms.iter().enumerate() {
            occurrences[a].push(index);
            for &(b, sb) in &terms[i + 1..] {
                counts.increment(pattern_key(a, b, sa * sb));
            }
        }
    }

    let mut outcome = CseOutcome::default();
    while let Some(key) = counts.best() {
        let (a, b, relative_sign) = unpack(key);
        let new_signal = table.push_combine(a, false, b, relative_sign < 0)?;
        debug_assert_eq!(new_signal, occurrences.len());
        outcome.new_signals += 1;
        let mut rewritten = Vec::new();
        let mut outputs_with_a = std::mem::take(&mut occurrences[a]);
        outputs_with_a.retain(|&index| {
            let expr = &mut outputs[index];
            let Some(sa) = expr.sign(a) else {
                return false;
            };
            match expr.sign(b) {
                Some(sb) if sa * sb == relative_sign => {
                    substitute(expr, &mut counts, (a, sa), (b, sb), new_signal);
                    rewritten.push(index);
                    false
                }
                _ => true,
            }
        });
        occurrences[a] = outputs_with_a;
        outcome.terms_eliminated += rewritten.len();
        occurrences.push(rewritten);
    }
    Ok(outcome)
}

/// Rewrites `e·a + e·s·b` in `expr` to `e·new_signal`, keeping `counts` exact: the
/// pairs that involve `a` or `b` are retired and the pairs with the new signal are
/// counted.
fn substitute(
    expr: &mut LinearExpr,
    counts: &mut PairCounts,
    (a, sa): (SignalId, i8),
    (b, sb): (SignalId, i8),
    new_signal: SignalId,
) {
    for &term in expr.terms() {
        if term.0 != a {
            counts.decrement(pair_key((a, sa), term));
            if term.0 != b {
                counts.decrement(pair_key((b, sb), term));
                counts.increment(pattern_key(term.0, new_signal, term.1 * sa));
            }
        }
    }
    expr.replace_pair(a, b, new_signal, sa);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The original pass, kept as the oracle of the incremental one: it recounts
    /// every pair of every expression on each greedy step.
    fn eliminate_reference(
        table: &mut SignalTable,
        outputs: &mut [LinearExpr],
    ) -> Result<CseOutcome> {
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        struct Pattern {
            a: SignalId,
            b: SignalId,
            relative_sign: i8,
        }
        fn count_patterns(outputs: &[LinearExpr]) -> HashMap<Pattern, usize> {
            let mut counts = HashMap::new();
            for expr in outputs {
                let terms: Vec<(SignalId, i8)> = expr.iter().collect();
                for i in 0..terms.len() {
                    for j in (i + 1)..terms.len() {
                        let (a, sa) = terms[i];
                        let (b, sb) = terms[j];
                        let pattern = Pattern {
                            a,
                            b,
                            relative_sign: sa * sb,
                        };
                        *counts.entry(pattern).or_insert(0) += 1;
                    }
                }
            }
            counts
        }

        let mut outcome = CseOutcome::default();
        loop {
            let counts = count_patterns(outputs);
            let best = counts.into_iter().max_by_key(|&(pattern, count)| {
                (
                    count,
                    std::cmp::Reverse((pattern.a, pattern.b, pattern.relative_sign)),
                )
            });
            let Some((pattern, count)) = best else { break };
            if count < 2 {
                break;
            }
            let new_signal =
                table.push_combine(pattern.a, false, pattern.b, pattern.relative_sign < 0)?;
            outcome.new_signals += 1;
            for expr in outputs.iter_mut() {
                let (Some(sa), Some(sb)) = (expr.sign(pattern.a), expr.sign(pattern.b)) else {
                    continue;
                };
                if sa * sb != pattern.relative_sign {
                    continue;
                }
                expr.remove(pattern.a);
                expr.remove(pattern.b);
                expr.insert(new_signal, sa);
                outcome.terms_eliminated += 1;
            }
        }
        Ok(outcome)
    }

    /// The ternary matrix of Equation 1 of the paper.
    pub(crate) fn equation1_rows() -> Vec<Vec<i8>> {
        vec![
            vec![1, -1, 0, 1, 0, -1],
            vec![0, 0, -1, 1, 0, -1],
            vec![0, 0, 0, -1, 0, 1],
            vec![0, -1, 0, -1, 0, 1],
            vec![1, -1, 0, -1, 0, 0],
            vec![1, -1, -1, 1, 0, -1],
        ]
    }

    fn value_construction_ops(table: &SignalTable, outputs: &[LinearExpr]) -> usize {
        table.derived()
            + outputs
                .iter()
                .map(|o| o.len().saturating_sub(1))
                .sum::<usize>()
    }

    #[test]
    fn equation1_reduces_to_seven_ops() {
        let rows = equation1_rows();
        let mut table = SignalTable::with_inputs(6);
        let mut outputs: Vec<LinearExpr> = rows
            .iter()
            .map(|r| LinearExpr::from_weight_row(r))
            .collect();
        let before = value_construction_ops(&table, &outputs);
        assert_eq!(before, 20 - 6); // 20 non-zero weights across 6 outputs
        let outcome = eliminate(&mut table, &mut outputs).expect("cse");
        // Three shared signals take the count from 14 to the paper's 7.
        assert_eq!(outcome.new_signals, 3);
        assert_eq!(table.derived(), 3);
        assert_eq!(value_construction_ops(&table, &outputs), 7);
    }

    #[test]
    fn cse_preserves_expression_values() {
        let rows = equation1_rows();
        let inputs: Vec<i64> = vec![7, -3, 12, 5, 100, -8];
        let mut table = SignalTable::with_inputs(6);
        let mut outputs: Vec<LinearExpr> = rows
            .iter()
            .map(|r| LinearExpr::from_weight_row(r))
            .collect();
        let reference: Vec<i64> = {
            let values = table.evaluate(&inputs).expect("evaluate");
            outputs.iter().map(|o| o.evaluate(&values)).collect()
        };
        eliminate(&mut table, &mut outputs).expect("cse");
        let values = table.evaluate(&inputs).expect("evaluate");
        let after: Vec<i64> = outputs.iter().map(|o| o.evaluate(&values)).collect();
        assert_eq!(reference, after);
    }

    #[test]
    fn no_sharing_means_no_new_signals() {
        let mut table = SignalTable::with_inputs(4);
        let mut outputs = vec![
            LinearExpr::from_weight_row(&[1, 0, 0, 0]),
            LinearExpr::from_weight_row(&[0, -1, 0, 0]),
            LinearExpr::from_weight_row(&[0, 0, 1, 0]),
        ];
        let outcome = eliminate(&mut table, &mut outputs).expect("cse");
        assert_eq!(outcome.new_signals, 0);
        assert_eq!(table.derived(), 0);
    }

    #[test]
    fn negated_occurrences_share_the_same_signal() {
        let mut table = SignalTable::with_inputs(2);
        let mut outputs = vec![
            LinearExpr::from_weight_row(&[1, -1]),
            LinearExpr::from_weight_row(&[-1, 1]),
        ];
        let outcome = eliminate(&mut table, &mut outputs).expect("cse");
        assert_eq!(outcome.new_signals, 1);
        assert_eq!(outputs[0].len(), 1);
        assert_eq!(outputs[1].len(), 1);
        // The two outputs reference the same signal with opposite signs.
        let s = outputs[0].iter().next().expect("term").0;
        assert_eq!(outputs[0].sign(s), Some(1));
        assert_eq!(outputs[1].sign(s), Some(-1));
    }

    #[test]
    fn cse_is_deterministic() {
        let rows = equation1_rows();
        let run = || {
            let mut table = SignalTable::with_inputs(6);
            let mut outputs: Vec<LinearExpr> = rows
                .iter()
                .map(|r| LinearExpr::from_weight_row(r))
                .collect();
            eliminate(&mut table, &mut outputs).expect("cse");
            (table, outputs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dense_random_slice_gets_a_meaningful_reduction() {
        // 64 outputs over a 3x3 patch at 50% density: plenty of shared pairs.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let rows: Vec<Vec<i8>> = (0..64)
            .map(|_| (0..9).map(|_| [0i8, 1, -1][rng.gen_range(0..3)]).collect())
            .collect();
        let mut table = SignalTable::with_inputs(9);
        let mut outputs: Vec<LinearExpr> = rows
            .iter()
            .map(|r| LinearExpr::from_weight_row(r))
            .collect();
        let before = value_construction_ops(&table, &outputs);
        eliminate(&mut table, &mut outputs).expect("cse");
        let after = value_construction_ops(&table, &outputs);
        assert!(after < before, "no reduction: {before} -> {after}");
        assert!(
            (after as f64) < 0.9 * before as f64,
            "weak reduction: {before} -> {after}"
        );
    }

    /// Runs the incremental pass and the reference on the same rows and asserts the
    /// same signal table, outputs and outcome.
    fn assert_matches_reference(rows: &[Vec<i8>]) {
        let patch = rows.first().map_or(0, Vec::len);
        let build = || -> (SignalTable, Vec<LinearExpr>) {
            let outputs = rows
                .iter()
                .map(|r| LinearExpr::from_weight_row(r))
                .collect();
            (SignalTable::with_inputs(patch), outputs)
        };
        let (mut table, mut outputs) = build();
        let outcome = eliminate(&mut table, &mut outputs).expect("cse");
        let (mut ref_table, mut ref_outputs) = build();
        let ref_outcome = eliminate_reference(&mut ref_table, &mut ref_outputs).expect("reference");
        assert_eq!(table, ref_table);
        assert_eq!(outputs, ref_outputs);
        assert_eq!(outcome, ref_outcome);
    }

    /// `outputs` rows of `patch` ternary weights, each zero with probability
    /// `sparsity` and otherwise ±1.
    fn sparse_rows(seed: u64, outputs: usize, patch: usize, sparsity: f64) -> Vec<Vec<i8>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..outputs)
            .map(|_| {
                (0..patch)
                    .map(|_| {
                        if rng.gen_bool(sparsity) {
                            0
                        } else if rng.gen_bool(0.5) {
                            1
                        } else {
                            -1
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn incremental_pass_matches_the_reference_on_equation1_and_a_real_layer() {
        assert_matches_reference(&equation1_rows());
        let model = tnn::model::vgg9(0.85, 1);
        let layer = &model.conv_like_layers()[1];
        for channel in 0..8 {
            let slice = crate::dfg::WeightSlice::from_layer_channel(layer, channel, 0..layer.cout)
                .expect("slice");
            assert_matches_reference(slice.rows());
        }
    }

    #[test]
    fn unknown_signals_are_an_internal_error() {
        let mut table = SignalTable::with_inputs(2);
        let mut outputs = vec![[(0, 1), (5, 1)].into_iter().collect::<LinearExpr>()];
        assert!(matches!(
            eliminate(&mut table, &mut outputs),
            Err(ApcError::Internal { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_cse_preserves_semantics(
            seed in any::<u64>(),
            outputs_n in 2usize..12,
            patch in 2usize..10,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let rows: Vec<Vec<i8>> = (0..outputs_n)
                .map(|_| (0..patch).map(|_| [0i8, 0, 1, -1][rng.gen_range(0..4)]).collect())
                .collect();
            let inputs: Vec<i64> = (0..patch).map(|_| rng.gen_range(-50i64..50)).collect();
            let mut table = SignalTable::with_inputs(patch);
            let mut outputs: Vec<LinearExpr> = rows.iter().map(|r| LinearExpr::from_weight_row(r)).collect();
            let before: Vec<i64> = {
                let values = table.evaluate(&inputs).expect("evaluate");
                outputs.iter().map(|o| o.evaluate(&values)).collect()
            };
            eliminate(&mut table, &mut outputs).expect("cse");
            let values = table.evaluate(&inputs).expect("evaluate");
            let after: Vec<i64> = outputs.iter().map(|o| o.evaluate(&values)).collect();
            prop_assert_eq!(before, after);
        }

        #[test]
        fn prop_incremental_cse_matches_reference(
            seed in any::<u64>(),
            outputs_n in 1usize..=256,
            patch in 1usize..=49,
            sparsity in 0.5f64..0.9,
        ) {
            assert_matches_reference(&sparse_rows(seed, outputs_n, patch, sparsity));
        }
    }
}
