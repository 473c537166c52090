//! Bit-exactness verification: the mechanism behind the paper's "retains software
//! accuracy" claim.
//!
//! The associative processor computes exact integer arithmetic, so the accelerator's
//! outputs must be *identical* to the reference quantized inference. This module
//! runs one layer through the production functional path
//! ([`FunctionalBackend::run_batch`]) and compares every output value against the
//! reference integer convolution.

use crate::functional::FunctionalBackend;
use accel::ArchConfig;
use apc::{CompileCache, CompilerOptions};
use tnn::layer::{Conv2d, LayerOp};
use tnn::model::{ConvLayerInfo, ModelGraph};
use tnn::{Tensor, TernaryTensor};

/// Outcome of a functional verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationReport {
    /// Output positions (CAM rows) checked.
    pub positions_checked: usize,
    /// Output channels checked.
    pub outputs_checked: usize,
    /// Number of mismatching values (0 for a bit-exact implementation).
    pub mismatches: usize,
}

impl VerificationReport {
    /// Returns `true` when every checked value matched the reference exactly.
    pub fn is_bit_exact(&self) -> bool {
        self.mismatches == 0 && self.positions_checked > 0 && self.outputs_checked > 0
    }
}

/// Executes `layer` on `input` through [`FunctionalBackend::run_batch`] — the
/// same per-unit execution and channel-group merge that serve requests — and
/// compares every output value against the reference integer convolution.
///
/// Every output tile, row group and channel group of the layer is executed on
/// the default architecture's arrays (1×1 tile grid), so the report covers all
/// `output_positions() × cout` values.
///
/// # Errors
///
/// Returns an error when compilation fails, the functional execution fails, or the
/// layer/input shapes are inconsistent.
///
/// # Example
///
/// ```
/// use camdnn::verify::verify_layer;
/// use tnn::model::ConvLayerInfo;
/// use tnn::{Tensor, TernaryTensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let weights = TernaryTensor::random(vec![4, 2, 3, 3], 0.6, 1);
/// let layer = ConvLayerInfo {
///     node_id: 0,
///     name: "demo".into(),
///     cin: 2,
///     cout: 4,
///     kernel: (3, 3),
///     stride: 1,
///     padding: 1,
///     input_hw: (6, 6),
///     output_hw: (6, 6),
///     weights,
/// };
/// let input = Tensor::from_vec(vec![2, 6, 6], (0..72).map(|v| v % 16).collect())?;
/// let report = verify_layer(&layer, &input, 4)?;
/// assert!(report.is_bit_exact());
/// # Ok(())
/// # }
/// ```
pub fn verify_layer(
    layer: &ConvLayerInfo,
    input: &Tensor<i64>,
    act_bits: u8,
) -> Result<VerificationReport, Box<dyn std::error::Error>> {
    let conv = Conv2d::new(
        layer.name.clone(),
        layer.weights.clone(),
        layer.stride,
        layer.padding,
    )?;
    let mut model = ModelGraph::new(
        layer.name.clone(),
        (layer.cin, layer.input_hw.0, layer.input_hw.1),
    );
    model.chain(LayerOp::Conv2d(conv), None)?;
    let backend = FunctionalBackend::new(
        ArchConfig::default(),
        CompilerOptions::default().with_act_bits(act_bits),
    );
    let batch = backend.run_batch(&model, std::slice::from_ref(input), &CompileCache::new())?;
    let sample = &batch.samples[0];
    Ok(VerificationReport {
        positions_checked: sample.checked_values as usize / layer.cout.max(1),
        outputs_checked: layer.cout,
        mismatches: sample.mismatched_values as usize,
    })
}

/// Convenience: builds a small random layer plus input and verifies it.
///
/// # Errors
///
/// Propagates errors from [`verify_layer`].
pub fn verify_random_layer(
    cin: usize,
    cout: usize,
    kernel: usize,
    hw: usize,
    act_bits: u8,
    sparsity: f64,
    seed: u64,
) -> Result<VerificationReport, Box<dyn std::error::Error>> {
    let layer = random_layer(cin, cout, kernel, hw, sparsity, seed);
    let max_activation = (1i64 << act_bits) - 1;
    let data: Vec<i64> = (0..cin * hw * hw)
        .map(|i| (i as i64 * 7 + seed as i64) % (max_activation + 1))
        .collect();
    let input = Tensor::from_vec(vec![cin, hw, hw], data)?;
    verify_layer(&layer, &input, act_bits)
}

/// A stride-1, same-padded `cin → cout` layer of random ternary weights over
/// a `hw × hw` input.
fn random_layer(
    cin: usize,
    cout: usize,
    kernel: usize,
    hw: usize,
    sparsity: f64,
    seed: u64,
) -> ConvLayerInfo {
    ConvLayerInfo {
        node_id: 0,
        name: format!("random_{cin}x{cout}x{kernel}"),
        cin,
        cout,
        kernel: (kernel, kernel),
        stride: 1,
        padding: kernel / 2,
        input_hw: (hw, hw),
        output_hw: (hw, hw),
        weights: TernaryTensor::random(vec![cout, cin, kernel, kernel], sparsity, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_conv_layer_is_bit_exact() {
        let report = verify_random_layer(3, 8, 3, 6, 4, 0.7, 11).expect("verify");
        assert!(report.is_bit_exact(), "{report:?}");
        assert_eq!(report.positions_checked, 36);
        assert_eq!(report.outputs_checked, 8);
    }

    #[test]
    fn one_by_one_convolutions_are_bit_exact() {
        let report = verify_random_layer(4, 6, 1, 5, 4, 0.5, 3).expect("verify");
        assert!(report.is_bit_exact(), "{report:?}");
    }

    #[test]
    fn eight_bit_activations_are_bit_exact() {
        let report = verify_random_layer(2, 4, 3, 4, 8, 0.6, 9).expect("verify");
        assert!(report.is_bit_exact(), "{report:?}");
    }

    fn layout_of(layer: &ConvLayerInfo) -> apc::layout::LayerLayout {
        apc::LayerCompiler::new(CompilerOptions::default())
            .compile(layer)
            .expect("compile")
            .layout
    }

    #[test]
    fn every_row_group_output_tile_and_channel_group_is_checked() {
        let tall = layout_of(&random_layer(32, 16, 3, 20, 0.8, 5));
        assert!(tall.row_groups >= 2 && tall.channel_groups >= 2, "{tall:?}");
        let wide = layout_of(&random_layer(64, 300, 3, 4, 0.8, 5));
        assert!(
            wide.output_tiles >= 2 && wide.channel_groups >= 2,
            "{wide:?}"
        );
        for (cin, cout, hw) in [(32, 16, 20), (64, 300, 4)] {
            let report = verify_random_layer(cin, cout, 3, hw, 4, 0.8, 5).expect("verify");
            assert!(report.is_bit_exact(), "{cin}->{cout}: {report:?}");
            assert_eq!(report.positions_checked, hw * hw);
            assert_eq!(report.outputs_checked, cout);
        }
    }

    /// A one-layer reproduction of the README "Known defects" wrap: every
    /// channel group of a unit accumulates into one column sized for a single
    /// group (`acc_bits` 9 here, against `final_acc_bits` 14), so a large
    /// enough output-0 sum wraps at 2^9. The input drives 15 into every
    /// channel whose output-0 tap is +1, and 0 elsewhere.
    ///
    /// ROADMAP item 1's fix (accumulators wide enough for the whole fan-in)
    /// flips this assertion to `is_bit_exact()`.
    #[test]
    fn nine_bit_accumulator_wraps_across_channel_groups() {
        let (cin, hw) = (512, 2);
        let layer = random_layer(cin, 64, 1, hw, 0.8, 7);
        let layout = layout_of(&layer);
        assert_eq!(layout.channel_groups, 32);
        assert_eq!((layout.acc_bits, layout.final_acc_bits), (9, 14));
        let data: Vec<i64> = (0..cin)
            .flat_map(|c| {
                let tap = layer.weights.get(&[0, c, 0, 0]).expect("weight");
                std::iter::repeat_n(if tap == 1 { 15 } else { 0 }, hw * hw)
            })
            .collect();
        let input = Tensor::from_vec(vec![cin, hw, hw], data).expect("shape");
        let report = verify_layer(&layer, &input, 4).expect("verify");
        assert_eq!(report.mismatches, 4, "{report:?}");
    }
}
