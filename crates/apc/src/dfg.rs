//! Data-flow-graph generation from ternary weight slices (§IV-A, Fig. 3e).
//!
//! A *weight slice* is the `Cout × (Fh·Fw)` sub-tensor of one input channel: the
//! weights convolved on the same input patch, which is where the greatest reuse
//! potential lives. Constant folding turns the slice into signed sums of patch
//! inputs; CSE then extracts shared subexpressions.

use crate::cse::{self, CseOutcome};
use crate::expr::{LinearExpr, SignalId, SignalTable};
use crate::{ApcError, Result};
use tnn::model::ConvLayerInfo;

/// The ternary weights of one input channel of one layer, flattened to
/// `Cout` rows of `Fh·Fw` weights — an owned copy for tests, benches and
/// hand-written slices. [`LayerCompiler`](crate::LayerCompiler) builds its
/// DFGs straight from the layer's weight tensor ([`Dfg::from_rows`]) instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightSlice {
    rows: Vec<Vec<i8>>,
    patch_size: usize,
}

impl WeightSlice {
    /// Builds a slice from explicit rows.
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::InvalidArgument`] when rows have inconsistent lengths or
    /// contain values outside `{-1, 0, 1}`.
    pub fn from_rows(rows: Vec<Vec<i8>>) -> Result<Self> {
        let patch_size = rows.first().map(Vec::len).unwrap_or(0);
        for row in &rows {
            if row.len() != patch_size {
                return Err(ApcError::InvalidArgument {
                    reason: "all weight-slice rows must have the same length".to_string(),
                });
            }
            if row.iter().any(|w| !(-1..=1).contains(w)) {
                return Err(ApcError::InvalidArgument {
                    reason: "weight-slice entries must be ternary".to_string(),
                });
            }
        }
        Ok(WeightSlice { rows, patch_size })
    }

    /// Extracts the slice of input channel `channel` for output channels
    /// `cout_range` of a layer.
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::InvalidArgument`] when the channel or range is out of
    /// bounds, or when the weights are not shaped `[cout, cin, fh, fw]`.
    pub fn from_layer_channel(
        layer: &ConvLayerInfo,
        channel: usize,
        cout_range: std::ops::Range<usize>,
    ) -> Result<Self> {
        if channel >= layer.cin {
            return Err(ApcError::InvalidArgument {
                reason: format!("input channel {channel} out of range for cin {}", layer.cin),
            });
        }
        if cout_range.end > layer.cout {
            return Err(ApcError::InvalidArgument {
                reason: format!(
                    "output range {cout_range:?} out of range for cout {}",
                    layer.cout
                ),
            });
        }
        let weights = LayerWeights::of(layer)?;
        let rows = weights
            .slice_rows(channel, cout_range)
            .map(<[i8]>::to_vec)
            .collect();
        Ok(WeightSlice {
            rows,
            patch_size: weights.patch_size(),
        })
    }

    /// Number of output channels covered by the slice.
    pub fn outputs(&self) -> usize {
        self.rows.len()
    }

    /// Patch size (`Fh·Fw`).
    pub fn patch_size(&self) -> usize {
        self.patch_size
    }

    /// Number of non-zero weights in the slice.
    pub fn nonzeros(&self) -> usize {
        self.rows.iter().flatten().filter(|&&w| w != 0).count()
    }

    /// The ternary rows of the slice.
    pub fn rows(&self) -> &[Vec<i8>] {
        &self.rows
    }
}

/// A layer's ternary weight tensor, shape-checked once: row-major
/// `[cout, cin, fh, fw]`, so the `fh·fw` weights of one (output, input
/// channel) pair are one contiguous run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LayerWeights<'a> {
    weights: &'a [i8],
    cin: usize,
    patch_size: usize,
}

impl<'a> LayerWeights<'a> {
    /// Borrows the weights of `layer`.
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::InvalidArgument`] when the weights are not shaped
    /// `[cout, cin, fh, fw]`.
    pub(crate) fn of(layer: &'a ConvLayerInfo) -> Result<Self> {
        let (fh, fw) = layer.kernel;
        if layer.weights.shape() != [layer.cout, layer.cin, fh, fw] {
            return Err(ApcError::InvalidArgument {
                reason: format!(
                    "weights of shape {:?} do not match {}x{}x{fh}x{fw}",
                    layer.weights.shape(),
                    layer.cout,
                    layer.cin
                ),
            });
        }
        Ok(LayerWeights {
            weights: layer.weights.as_slice(),
            cin: layer.cin,
            patch_size: fh * fw,
        })
    }

    /// Patch size (`Fh·Fw`).
    pub(crate) fn patch_size(&self) -> usize {
        self.patch_size
    }

    /// The rows of the slice of input channel `channel` for output channels
    /// `outputs` (both within the checked shape).
    pub(crate) fn slice_rows(
        self,
        channel: usize,
        outputs: std::ops::Range<usize>,
    ) -> impl Iterator<Item = &'a [i8]> + Clone {
        outputs.map(move |ofm| {
            let start = (ofm * self.cin + channel) * self.patch_size;
            &self.weights[start..start + self.patch_size]
        })
    }
}

/// Operation counts of a DFG, following the counting convention of the paper's
/// Eq. 1 example: constructing the value of each output costs `terms − 1`
/// additions/subtractions, and every shared signal costs one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Operations spent building shared (CSE) signals.
    pub signal_ops: usize,
    /// Operations spent combining terms into output values.
    pub output_ops: usize,
    /// Outputs that are identically zero (all weights of the row are zero).
    pub zero_outputs: usize,
}

impl OpCount {
    /// Total add/sub operations to construct all output values.
    pub fn total(&self) -> usize {
        self.signal_ops + self.output_ops
    }
}

/// The data-flow graph of one weight slice: a signal table plus one linear
/// expression per output channel.
///
/// # Example
///
/// ```
/// use apc::dfg::{Dfg, WeightSlice};
///
/// let slice = WeightSlice::from_rows(vec![vec![1, -1, 0], vec![1, -1, 1]]).expect("slice");
/// let mut dfg = Dfg::from_slice(&slice);
/// let before = dfg.op_count().total();
/// dfg.apply_cse().expect("cse");
/// assert!(dfg.op_count().total() <= before);
/// assert_eq!(dfg.evaluate(&[10, 3, 1]).expect("eval"), vec![7, 8]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dfg {
    /// All signals: patch inputs followed by CSE-derived subexpressions.
    pub signals: SignalTable,
    /// One expression per output channel of the slice.
    pub outputs: Vec<LinearExpr>,
    /// Patch size of the slice the DFG was built from.
    pub patch_size: usize,
    /// Expressions a refill left over, kept for their storage.
    spare: Vec<LinearExpr>,
}

/// Two DFGs are equal when their signals, outputs and patch size are.
impl PartialEq for Dfg {
    fn eq(&self, other: &Self) -> bool {
        (&self.signals, &self.outputs, self.patch_size)
            == (&other.signals, &other.outputs, other.patch_size)
    }
}

impl Eq for Dfg {}

impl Dfg {
    /// Builds the DFG of a weight slice by constant folding (multiplications by
    /// ternary weights become signed terms; zeros disappear).
    pub fn from_slice(slice: &WeightSlice) -> Self {
        Dfg::from_rows(slice.patch_size(), slice.rows().iter().map(Vec::as_slice))
    }

    /// Builds the DFG of `patch_size`-wide ternary weight rows, one output per
    /// row, by constant folding — straight from borrowed rows such as the
    /// contiguous runs of a layer's weight tensor, with no [`WeightSlice`] copy.
    pub fn from_rows<'a>(patch_size: usize, rows: impl IntoIterator<Item = &'a [i8]>) -> Self {
        let mut dfg = Dfg::default();
        dfg.refill(patch_size, rows);
        dfg
    }

    /// Rebuilds this DFG as [`Dfg::from_rows`] would, reusing its signal table
    /// and the storage of its output expressions: once the expressions have
    /// grown to a slice's shape, refilling them allocates nothing.
    pub(crate) fn refill<'a>(
        &mut self,
        patch_size: usize,
        rows: impl IntoIterator<Item = &'a [i8]>,
    ) {
        self.refill_where(patch_size, rows, |_, _| true);
    }

    /// [`Dfg::refill`] with only the rows for which `keep` holds, in order:
    /// `keep` sees every row's folded terms and its weights. Expressions
    /// beyond the kept rows are set aside, not dropped, so refills that keep
    /// a varying number of rows allocate nothing either.
    pub(crate) fn refill_where<'a>(
        &mut self,
        patch_size: usize,
        rows: impl IntoIterator<Item = &'a [i8]>,
        mut keep: impl FnMut(&[(SignalId, i8)], &'a [i8]) -> bool,
    ) {
        self.signals.reset(patch_size);
        self.patch_size = patch_size;
        let mut outputs = 0;
        for row in rows {
            if outputs == self.outputs.len() {
                // An expression never holds more terms than the patch has inputs.
                let expr = self.spare.pop();
                self.outputs
                    .push(expr.unwrap_or_else(|| LinearExpr::with_capacity(patch_size)));
            }
            let output = &mut self.outputs[outputs];
            output.refill_from_weight_row(row);
            if keep(output.terms(), row) {
                outputs += 1;
            }
        }
        self.spare.extend(self.outputs.drain(outputs..));
    }

    /// Builds the DFG of the matrix-vector example of Eq. 1 in the paper (used by
    /// tests and the Fig. 3 benchmark).
    pub fn equation1() -> Self {
        let slice = WeightSlice::from_rows(vec![
            vec![1, -1, 0, 1, 0, -1],
            vec![0, 0, -1, 1, 0, -1],
            vec![0, 0, 0, -1, 0, 1],
            vec![0, -1, 0, -1, 0, 1],
            vec![1, -1, 0, -1, 0, 0],
            vec![1, -1, -1, 1, 0, -1],
        ])
        .expect("the Eq. 1 matrix is a valid ternary slice");
        Dfg::from_slice(&slice)
    }

    /// Runs common subexpression elimination in place.
    ///
    /// # Errors
    ///
    /// Propagates internal errors from the CSE pass.
    pub fn apply_cse(&mut self) -> Result<CseOutcome> {
        self.apply_cse_with(&mut cse::Workspace::default())
    }

    /// [`Dfg::apply_cse`] on the buffers of `workspace`.
    pub(crate) fn apply_cse_with(&mut self, workspace: &mut cse::Workspace) -> Result<CseOutcome> {
        workspace.eliminate(&mut self.signals, &mut self.outputs)
    }

    /// Operation counts under the paper's counting convention.
    pub fn op_count(&self) -> OpCount {
        OpCount {
            signal_ops: self.signals.derived(),
            output_ops: self.outputs.iter().map(|o| o.len().saturating_sub(1)).sum(),
            zero_outputs: self.outputs.iter().filter(|o| o.is_empty()).count(),
        }
    }

    /// Add/sub *instruction* count under the code-generation convention: building the
    /// value of an output with `k ≥ 2` terms costs `k − 1` instructions (its final
    /// accumulation into the persistent output column is reported separately), while
    /// a single-term output is accumulated directly and therefore costs one
    /// instruction. Shared signals cost one instruction each. This is the quantity
    /// reported in the `#Adds/Subs` columns.
    pub fn instruction_ops(&self) -> usize {
        self.signals.derived()
            + self
                .outputs
                .iter()
                .map(|o| match o.len() {
                    0 => 0,
                    1 => 1,
                    n => n - 1,
                })
                .sum::<usize>()
    }

    /// Maximum number of terms that feed any single output (used for bitwidth
    /// annotation of the per-output chain accumulator).
    pub fn max_output_terms(&self) -> usize {
        self.outputs.iter().map(LinearExpr::len).max().unwrap_or(0)
    }

    /// Evaluates every output for a concrete patch-input vector (reference
    /// semantics).
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::InvalidArgument`] when the number of inputs is wrong.
    pub fn evaluate(&self, patch_inputs: &[i64]) -> Result<Vec<i64>> {
        let values = self.signals.evaluate(patch_inputs)?;
        Ok(self.outputs.iter().map(|o| o.evaluate(&values)).collect())
    }

    /// Evaluates the *original* slice semantics directly from a weight slice, as a
    /// cross-check that is independent of the DFG (used in tests).
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::InvalidArgument`] when the number of inputs is wrong.
    pub fn evaluate_slice(slice: &WeightSlice, patch_inputs: &[i64]) -> Result<Vec<i64>> {
        if patch_inputs.len() != slice.patch_size() {
            return Err(ApcError::InvalidArgument {
                reason: format!(
                    "expected {} patch inputs, got {}",
                    slice.patch_size(),
                    patch_inputs.len()
                ),
            });
        }
        Ok(slice
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .zip(patch_inputs)
                    .map(|(&w, &x)| w as i64 * x)
                    .sum()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use tnn::model::vgg9;

    #[test]
    fn slice_validation() {
        assert!(WeightSlice::from_rows(vec![vec![1, 0], vec![1]]).is_err());
        assert!(WeightSlice::from_rows(vec![vec![2, 0]]).is_err());
        let slice = WeightSlice::from_rows(vec![vec![1, 0, -1]]).expect("valid");
        assert_eq!(slice.nonzeros(), 2);
        assert_eq!(slice.patch_size(), 3);
        assert_eq!(slice.outputs(), 1);
    }

    #[test]
    fn slice_extraction_from_a_real_layer() {
        let model = vgg9(0.85, 5);
        let layer = &model.conv_like_layers()[1];
        let slice = WeightSlice::from_layer_channel(layer, 3, 0..layer.cout).expect("slice");
        assert_eq!(slice.outputs(), layer.cout);
        assert_eq!(slice.patch_size(), 9);
        assert!(WeightSlice::from_layer_channel(layer, layer.cin, 0..4).is_err());
        assert!(WeightSlice::from_layer_channel(layer, 0, 0..layer.cout + 1).is_err());
        let mut transposed = layer.clone();
        transposed.kernel = (1, 9);
        assert!(WeightSlice::from_layer_channel(&transposed, 0, 0..4).is_err());
    }

    #[test]
    fn dfg_counts_follow_paper_convention() {
        let dfg = Dfg::equation1();
        let count = dfg.op_count();
        assert_eq!(count.signal_ops, 0);
        // 20 non-zeros over 6 outputs, none of them empty.
        assert_eq!(count.output_ops, 14);
        assert_eq!(count.zero_outputs, 0);
        assert_eq!(dfg.max_output_terms(), 5);
    }

    #[test]
    fn cse_on_equation1_reaches_paper_count() {
        let mut dfg = Dfg::equation1();
        dfg.apply_cse().expect("cse");
        // 14 operations before CSE, 7 after: three shared signals plus four
        // remaining output combinations, the paper's count.
        let count = dfg.op_count();
        assert_eq!(count.total(), 7);
        assert_eq!(count.signal_ops, 3);
        assert_eq!(dfg.signals.derived(), 3);
    }

    #[test]
    fn dfg_evaluation_matches_direct_slice_evaluation() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let rows: Vec<Vec<i8>> = (0..32)
            .map(|_| {
                (0..9)
                    .map(|_| [0i8, 0, 0, 1, -1][rng.gen_range(0..5)])
                    .collect()
            })
            .collect();
        let slice = WeightSlice::from_rows(rows).expect("slice");
        let inputs: Vec<i64> = (0..9).map(|_| rng.gen_range(0..256)).collect();
        let reference = Dfg::evaluate_slice(&slice, &inputs).expect("direct");
        let mut dfg = Dfg::from_slice(&slice);
        assert_eq!(dfg.evaluate(&inputs).expect("dfg"), reference);
        dfg.apply_cse().expect("cse");
        assert_eq!(dfg.evaluate(&inputs).expect("dfg after cse"), reference);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_cse_never_increases_ops(seed in any::<u64>(), outputs_n in 1usize..32, patch in 1usize..12) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let rows: Vec<Vec<i8>> = (0..outputs_n)
                .map(|_| (0..patch).map(|_| [0i8, 0, 1, -1][rng.gen_range(0..4)]).collect())
                .collect();
            let slice = WeightSlice::from_rows(rows).expect("slice");
            let mut dfg = Dfg::from_slice(&slice);
            let before = dfg.op_count().total();
            dfg.apply_cse().expect("cse");
            prop_assert!(dfg.op_count().total() <= before);
        }
    }
}
