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
//! the new signal. Per-signal membership bitsets, one bit per output and one set per
//! sign, give exactly the expressions a substitution rewrites: those that hold `a`
//! and `b` with the pattern's relative sign. The counts live in a dense table
//! indexed by the pair's signal ids, and a max-heap of `(count, pattern)` entries,
//! checked lazily against the table, yields the best pattern without scanning every
//! live one. One greedy step costs work proportional to the terms of the rewritten
//! expressions, plus a logarithmic heap operation per changed count.
//!
//! A [`Workspace`] holds all of that state. The compiler's slice walk keeps one
//! across slices, so after the first few slices a CSE run allocates nothing.

use crate::expr::{LinearExpr, SignalId, SignalTable};
use crate::{ApcError, Result};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

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

/// The slot of a pattern in the dense count table: pairs are laid out by their
/// larger signal, so the slots of a new signal's pairs follow every existing slot.
fn slot(key: PatternKey) -> usize {
    let (a, b, _) = unpack(key);
    (b * (b - 1) / 2 + a) * 2 + (key & 1) as usize
}

/// Slots needed for every pattern over `signals` signals.
fn slots_for(signals: usize) -> usize {
    signals * signals.saturating_sub(1)
}

/// The pattern of the pair `(x, sx)`, `(y, sy)` of one expression.
fn pair_key((x, sx): (SignalId, i8), (y, sy): (SignalId, i8)) -> PatternKey {
    if x < y {
        pattern_key(x, y, sx * sy)
    } else {
        pattern_key(y, x, sx * sy)
    }
}

/// The buffers of one CSE run, kept between runs: the dense pair counts, the
/// selection heap and the signal membership bitsets. Every run leaves the counts
/// zeroed and the heap empty, and keeps the capacity of all of them.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Live count of each pattern, by [`slot`]; zero outside a run.
    counts: Vec<u32>,
    /// Every pattern whose count has left zero during the current run, so the
    /// run can zero them again without clearing the whole table.
    touched: Vec<PatternKey>,
    /// `(count, pattern)` entries. Every pattern that occurs at least twice has
    /// an entry whose count is at least its live count; an entry whose count is
    /// no longer live is stale and is dropped (or refreshed) when it surfaces.
    heap: BinaryHeap<(u32, Reverse<PatternKey>)>,
    /// Words of one membership bitset: one bit per output.
    words: usize,
    /// Per signal, two bitsets of `words` words: the outputs that hold the signal
    /// positively, then those that hold it negatively.
    members: Vec<u64>,
}

impl Workspace {
    /// Runs [`eliminate`] on these buffers.
    pub(crate) fn eliminate(
        &mut self,
        table: &mut SignalTable,
        outputs: &mut [LinearExpr],
    ) -> Result<CseOutcome> {
        let outcome = self.run(table, outputs);
        for &key in &self.touched {
            self.counts[slot(key)] = 0;
        }
        self.touched.clear();
        self.heap.clear();
        outcome
    }

    fn run(&mut self, table: &mut SignalTable, outputs: &mut [LinearExpr]) -> Result<CseOutcome> {
        let signals = table.len();
        if self.counts.len() < slots_for(signals) {
            self.counts.resize(slots_for(signals), 0);
        }
        self.words = outputs.len().div_ceil(64);
        self.members.clear();
        self.members.resize(signals * 2 * self.words, 0);
        for (index, expr) in outputs.iter().enumerate() {
            let terms = expr.terms();
            if let Some(&(last, _)) = terms.last() {
                if last >= signals {
                    return Err(ApcError::Internal {
                        reason: format!(
                            "expression references unknown signal {last} (table has {signals})"
                        ),
                    });
                }
            }
            for (i, &(a, sa)) in terms.iter().enumerate() {
                self.flip_member(a, sa, index);
                for &(b, sb) in &terms[i + 1..] {
                    self.increment(pattern_key(a, b, sa * sb));
                }
            }
        }
        self.push_repeated(0);

        let mut outcome = CseOutcome::default();
        while let Some(key) = self.best() {
            let (a, b, relative_sign) = unpack(key);
            let new_signal = table.push_combine(a, false, b, relative_sign < 0)?;
            outcome.new_signals += 1;
            if self.counts.len() < slots_for(new_signal + 1) {
                self.counts.resize(slots_for(new_signal + 1), 0);
            }
            self.members.resize((new_signal + 1) * 2 * self.words, 0);
            let fresh = self.touched.len();
            for word in 0..self.words {
                let [a_pos, a_neg, b_pos, b_neg] = [(a, 1), (a, -1), (b, 1), (b, -1)]
                    .map(|(signal, sign)| self.members[self.member_word(signal, sign, word)]);
                let mut rewritten = if relative_sign > 0 {
                    (a_pos & b_pos) | (a_neg & b_neg)
                } else {
                    (a_pos & b_neg) | (a_neg & b_pos)
                };
                while rewritten != 0 {
                    let bit = rewritten.trailing_zeros();
                    rewritten &= rewritten - 1;
                    let index = word * 64 + bit as usize;
                    let sa = if a_pos >> bit & 1 == 1 { 1 } else { -1 };
                    let sb = sa * relative_sign;
                    self.substitute(&mut outputs[index], (a, sa), (b, sb), new_signal);
                    self.flip_member(a, sa, index);
                    self.flip_member(b, sb, index);
                    self.flip_member(new_signal, sa, index);
                    outcome.terms_eliminated += 1;
                }
            }
            // Each rewrite retires one occurrence of the pattern. One left over
            // would be selected again, and the pass would never end.
            let left = self.counts[slot(key)];
            if left != 0 {
                return Err(ApcError::Internal {
                    reason: format!(
                        "pattern {:?} still occurs {left} times after its substitution",
                        unpack(key)
                    ),
                });
            }
            // The patterns of the new signal are the only ones whose counts grew.
            self.push_repeated(fresh);
        }
        Ok(outcome)
    }

    /// The index in `members` of word `word` of the bitset of outputs holding
    /// `signal` with `sign`.
    fn member_word(&self, signal: SignalId, sign: i8, word: usize) -> usize {
        (2 * signal + usize::from(sign < 0)) * self.words + word
    }

    /// Toggles whether output `index` holds `signal` with `sign`.
    fn flip_member(&mut self, signal: SignalId, sign: i8, index: usize) {
        let word = self.member_word(signal, sign, index / 64);
        self.members[word] ^= 1 << (index % 64);
    }

    fn increment(&mut self, key: PatternKey) {
        let count = &mut self.counts[slot(key)];
        if *count == 0 {
            self.touched.push(key);
        }
        *count += 1;
    }

    fn decrement(&mut self, key: PatternKey) {
        let count = &mut self.counts[slot(key)];
        debug_assert!(*count > 0, "pattern {:?} is not live", unpack(key));
        *count = count.saturating_sub(1);
    }

    /// Pushes a heap entry for every pattern touched since `touched[from]` that
    /// occurs at least twice.
    fn push_repeated(&mut self, from: usize) {
        for &key in &self.touched[from..] {
            let count = self.counts[slot(key)];
            if count >= 2 {
                self.heap.push((count, Reverse(key)));
            }
        }
    }

    /// The pattern with the highest count, ties broken towards the smallest pattern
    /// so compilation is stable; `None` once no pattern occurs twice.
    ///
    /// The top entry is live exactly when its count is the pattern's live count;
    /// no other pattern can then beat it, because every pattern's live count is
    /// bounded by one of its entries. A stale top entry is refreshed with the live
    /// count (if still repeated) and the search goes on.
    fn best(&mut self) -> Option<PatternKey> {
        while let Some(mut top) = self.heap.peek_mut() {
            let (count, Reverse(key)) = *top;
            let live = self.counts[slot(key)];
            if live == count {
                return Some(key);
            }
            if live >= 2 {
                *top = (live, Reverse(key));
            } else {
                PeekMut::pop(top);
            }
        }
        None
    }

    /// Rewrites `e·a + e·s·b` in `expr` to `e·new_signal`, keeping the counts
    /// exact: the pairs that involve `a` or `b` are retired and the pairs with the
    /// new signal are counted.
    fn substitute(
        &mut self,
        expr: &mut LinearExpr,
        (a, sa): (SignalId, i8),
        (b, sb): (SignalId, i8),
        new_signal: SignalId,
    ) {
        for &term in expr.terms() {
            if term.0 != a {
                self.decrement(pair_key((a, sa), term));
                if term.0 != b {
                    self.decrement(pair_key((b, sb), term));
                    self.increment(pattern_key(term.0, new_signal, term.1 * sa));
                }
            }
        }
        expr.replace_pair(a, b, new_signal, sa);
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
    Workspace::default().eliminate(table, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

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
        assert_matches_reference_in(&mut Workspace::default(), rows);
    }

    /// [`assert_matches_reference`] with the incremental pass running on the
    /// buffers of `workspace`, as the slice walk runs it.
    fn assert_matches_reference_in(workspace: &mut Workspace, rows: &[Vec<i8>]) {
        let patch = rows.first().map_or(0, Vec::len);
        let build = || -> (SignalTable, Vec<LinearExpr>) {
            let outputs = rows
                .iter()
                .map(|r| LinearExpr::from_weight_row(r))
                .collect();
            (SignalTable::with_inputs(patch), outputs)
        };
        let (mut table, mut outputs) = build();
        let outcome = workspace.eliminate(&mut table, &mut outputs).expect("cse");
        let (mut ref_table, mut ref_outputs) = build();
        let ref_outcome = eliminate_reference(&mut ref_table, &mut ref_outputs).expect("reference");
        assert_eq!(table, ref_table);
        assert_eq!(outputs, ref_outputs);
        assert_eq!(outcome, ref_outcome);
    }

    /// Rows that tie many patterns at the same count, by `shape`: 0 repeats
    /// one row; 1 duplicates a few distinct rows; 2 mixes a few rows with their
    /// negations; 3 is 256 rows drawn from four dense patterns and their
    /// negations.
    fn tied_rows(seed: u64, shape: usize, outputs: usize, patch: usize) -> Vec<Vec<i8>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let distinct = match shape {
            0 => 1,
            1 | 2 => rng.gen_range(2..5),
            _ => 4,
        };
        let sparsity = if shape == 3 { 0.2 } else { 0.5 };
        let patterns = sparse_rows(seed ^ 0x5eed, distinct, patch, sparsity);
        let outputs = if shape == 3 { 256 } else { outputs };
        (0..outputs)
            .map(|_| {
                let row = &patterns[rng.gen_range(0..distinct)];
                if shape >= 2 && rng.gen_bool(0.5) {
                    row.iter().map(|&w| -w).collect()
                } else {
                    row.clone()
                }
            })
            .collect()
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
        fn prop_heap_selection_breaks_ties_like_the_reference(
            seed in any::<u64>(),
            shape in 0usize..4,
            outputs in 1usize..=256,
            patch in 2usize..=12,
        ) {
            // One workspace across three runs, as the slice walk reuses it: a
            // tied slice, a sparse one, then the tied one again.
            let mut workspace = Workspace::default();
            let tied = tied_rows(seed, shape, outputs, patch);
            assert_matches_reference_in(&mut workspace, &tied);
            assert_matches_reference_in(&mut workspace, &sparse_rows(seed, outputs, patch, 0.7));
            assert_matches_reference_in(&mut workspace, &tied);
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
