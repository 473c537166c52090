//! Reference integer inference engine.
//!
//! This is the software ground truth of the stack: the associative processor must
//! produce *bit-identical* partial sums, which is how the paper's "retains software
//! accuracy" claim is verified in this reproduction (see README "Baselines and the
//! accuracy substitute"). The engine
//! executes the model graph on `i64` activations with ternary weights, so every
//! multiply is a `+x`, `-x` or nothing.

use crate::layer::{Conv2d, LayerOp, Linear};
use crate::model::{ModelGraph, Source};
use crate::{Result, Tensor, TnnError};

/// Direct ternary convolution of a `(C, H, W)` integer tensor.
///
/// # Errors
///
/// Returns [`TnnError::IncompatibleShapes`] if the input is not 3-D or its channel
/// count does not match the layer.
///
/// # Example
///
/// ```
/// use tnn::infer::conv2d;
/// use tnn::layer::Conv2d;
/// use tnn::{Tensor, TernaryTensor};
///
/// # fn main() -> Result<(), tnn::TnnError> {
/// let weights = TernaryTensor::from_vec(vec![1, 1, 2, 2], vec![1, -1, 0, 1])?;
/// let conv = Conv2d::new("toy", weights, 1, 0)?;
/// let input = Tensor::from_vec(vec![1, 2, 2], vec![5, 3, 2, 7])?;
/// let output = conv2d(&input, &conv)?;
/// assert_eq!(output.as_slice(), &[5 - 3 + 7]);
/// # Ok(())
/// # }
/// ```
pub fn conv2d(input: &Tensor<i64>, layer: &Conv2d) -> Result<Tensor<i64>> {
    if input.ndim() != 3 {
        return Err(TnnError::IncompatibleShapes {
            reason: format!(
                "convolution expects a (C, H, W) tensor, got {:?}",
                input.shape()
            ),
        });
    }
    let (cin, height, width) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    if cin != layer.cin() {
        return Err(TnnError::IncompatibleShapes {
            reason: format!(
                "layer '{}' expects {} channels, input has {cin}",
                layer.name,
                layer.cin()
            ),
        });
    }
    let (fh, fw) = layer.kernel();
    let (hout, wout) = layer.output_hw((height, width));
    let (stride, padding) = (layer.stride, layer.padding);
    let mut output = Tensor::zeros(vec![layer.cout(), hout, wout]);
    let activations = input.as_slice();
    let weights = layer.weights.as_slice();
    let out_data = output.as_mut_slice();
    // Each non-zero tap adds (or subtracts) a strided run of one input row
    // to a run of one output row. Clipping the runs to the in-bounds outputs
    // once per (tap, row) replaces the per-position padding test, and
    // integer addition makes the result independent of the sweep order.
    for (ofm, out_plane) in out_data.chunks_exact_mut(hout * wout).enumerate() {
        for ifm in 0..cin {
            let in_plane = &activations[ifm * height * width..][..height * width];
            for kh in 0..fh {
                let rows = valid_outputs(height, hout, kh, stride, padding);
                for kw in 0..fw {
                    let weight = weights[((ofm * cin + ifm) * fh + kh) * fw + kw];
                    if weight == 0 {
                        continue;
                    }
                    let cols = valid_outputs(width, wout, kw, stride, padding);
                    if cols.is_empty() {
                        continue;
                    }
                    let first_col = cols.start * stride + kw - padding;
                    for oh in rows.clone() {
                        let ih = oh * stride + kh - padding;
                        let outs = &mut out_plane[oh * wout..][cols.clone()];
                        let row = &in_plane[ih * width + first_col..(ih + 1) * width];
                        if stride == 1 {
                            sweep(outs, row.iter(), weight > 0);
                        } else {
                            sweep(outs, row.iter().step_by(stride), weight > 0);
                        }
                    }
                }
            }
        }
    }
    Ok(output)
}

/// Adds (or subtracts) one tap's input run into a run of outputs.
fn sweep<'a>(outs: &mut [i64], taps: impl Iterator<Item = &'a i64>, positive: bool) {
    if positive {
        outs.iter_mut().zip(taps).for_each(|(acc, &x)| *acc += x);
    } else {
        outs.iter_mut().zip(taps).for_each(|(acc, &x)| *acc -= x);
    }
}

/// The outputs `o < outputs` along one axis whose input coordinate
/// `o·stride + offset − padding` lies inside `0..extent`.
fn valid_outputs(
    extent: usize,
    outputs: usize,
    offset: usize,
    stride: usize,
    padding: usize,
) -> std::ops::Range<usize> {
    let start = padding.saturating_sub(offset).div_ceil(stride);
    let end = match (extent + padding).checked_sub(offset + 1) {
        Some(last) => (last / stride + 1).min(outputs),
        None => 0,
    };
    start..end.max(start)
}

/// Ternary fully connected layer applied to the flattened input.
///
/// # Errors
///
/// Returns [`TnnError::IncompatibleShapes`] if the flattened input length does not
/// match the layer's input features.
pub fn linear(input: &Tensor<i64>, layer: &Linear) -> Result<Tensor<i64>> {
    let flat = input.as_slice();
    if flat.len() != layer.in_features() {
        return Err(TnnError::IncompatibleShapes {
            reason: format!(
                "layer '{}' expects {} features, input has {}",
                layer.name,
                layer.in_features(),
                flat.len()
            ),
        });
    }
    let mut output = Tensor::zeros(vec![layer.out_features(), 1, 1]);
    let weights = layer.weights.as_slice();
    let out_data = output.as_mut_slice();
    let in_features = layer.in_features();
    for (out_idx, out) in out_data.iter_mut().enumerate() {
        let row = &weights[out_idx * in_features..(out_idx + 1) * in_features];
        let mut acc = 0i64;
        for (&x, &weight) in flat.iter().zip(row) {
            match weight {
                1 => acc += x,
                -1 => acc -= x,
                _ => {}
            }
        }
        *out = acc;
    }
    Ok(output)
}

/// Max pooling with a square window.
///
/// # Errors
///
/// Returns [`TnnError::IncompatibleShapes`] if the input is not 3-D.
pub fn max_pool2d(input: &Tensor<i64>, kernel: usize, stride: usize) -> Result<Tensor<i64>> {
    if input.ndim() != 3 {
        return Err(TnnError::IncompatibleShapes {
            reason: format!(
                "pooling expects a (C, H, W) tensor, got {:?}",
                input.shape()
            ),
        });
    }
    let (channels, height, width) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let hout = (height.saturating_sub(kernel)) / stride + 1;
    let wout = (width.saturating_sub(kernel)) / stride + 1;
    if channels > 0 && (height < kernel || width < kernel) {
        // The single window overhangs the input: report the first element
        // it reads out of range.
        for kh in 0..kernel {
            for kw in 0..kernel {
                input.get(&[0, kh, kw])?;
            }
        }
    }
    let plane = height * width;
    let mut output = Tensor::full(vec![channels, hout, wout], i64::MIN);
    for (c, out_plane) in output
        .as_mut_slice()
        .chunks_exact_mut(hout * wout)
        .enumerate()
    {
        let in_plane = &input.as_slice()[c * plane..][..plane];
        for (oh, out_row) in out_plane.chunks_exact_mut(wout).enumerate() {
            for kh in 0..kernel {
                let row = &in_plane[(oh * stride + kh) * width..][..width];
                for (ow, best) in out_row.iter_mut().enumerate() {
                    let window = &row[ow * stride..][..kernel];
                    *best = window.iter().fold(*best, |best, &v| best.max(v));
                }
            }
        }
    }
    Ok(output)
}

/// Global average pooling (integer mean, rounded toward zero).
///
/// # Errors
///
/// Returns [`TnnError::IncompatibleShapes`] if the input is not 3-D.
pub fn global_avg_pool(input: &Tensor<i64>) -> Result<Tensor<i64>> {
    if input.ndim() != 3 {
        return Err(TnnError::IncompatibleShapes {
            reason: format!(
                "pooling expects a (C, H, W) tensor, got {:?}",
                input.shape()
            ),
        });
    }
    let (channels, height, width) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let plane = height * width;
    let means = (0..channels)
        .map(|c| match plane {
            0 => 0,
            _ => input.as_slice()[c * plane..][..plane].iter().sum::<i64>() / plane as i64,
        })
        .collect();
    Tensor::from_vec(vec![channels, 1, 1], means)
}

/// Rectified linear unit.
pub fn relu(input: &Tensor<i64>) -> Tensor<i64> {
    input.map(|&v| v.max(0))
}

/// Dynamic requantization: shifts the tensor right just enough for its maximum
/// absolute value to fit into `bits` unsigned bits, returning the shifted tensor and
/// the shift amount that was applied.
pub fn requantize(input: &Tensor<i64>, bits: u8) -> (Tensor<i64>, u32) {
    let max = input.max_abs();
    let limit = (1i64 << bits) - 1;
    let mut shift = 0u32;
    while (max >> shift) > limit {
        shift += 1;
    }
    (input.map(|&v| (v >> shift).clamp(0, limit)), shift)
}

/// Element-wise addition of two tensors of identical shape.
///
/// # Errors
///
/// Returns [`TnnError::IncompatibleShapes`] when the shapes differ.
pub fn add(a: &Tensor<i64>, b: &Tensor<i64>) -> Result<Tensor<i64>> {
    if a.shape() != b.shape() {
        return Err(TnnError::IncompatibleShapes {
            reason: format!(
                "cannot add tensors of shapes {:?} and {:?}",
                a.shape(),
                b.shape()
            ),
        });
    }
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x + y)
        .collect();
    Tensor::from_vec(a.shape().to_vec(), data)
}

/// The result of running the reference engine over a model graph.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceTrace {
    /// Output tensor of every node, in graph order.
    pub node_outputs: Vec<Tensor<i64>>,
}

impl InferenceTrace {
    /// The final node's output (the model output / logits).
    pub fn output(&self) -> Option<&Tensor<i64>> {
        self.node_outputs.last()
    }

    /// Index of the largest logit of the final output (the predicted class).
    pub fn predicted_class(&self) -> Option<usize> {
        self.output().and_then(|logits| {
            logits
                .as_slice()
                .iter()
                .enumerate()
                .max_by_key(|(_, &v)| v)
                .map(|(i, _)| i)
        })
    }
}

/// Runs the reference integer inference over the whole model graph.
///
/// The activation precision of `Requantize` nodes is taken from the graph; callers
/// who want to evaluate a different precision can pass `act_bits_override`.
///
/// # Errors
///
/// Returns an error when a layer's shape expectations are violated.
pub fn run(
    model: &ModelGraph,
    input: &Tensor<i64>,
    act_bits_override: Option<u8>,
) -> Result<InferenceTrace> {
    let mut outputs: Vec<Tensor<i64>> = Vec::with_capacity(model.nodes().len());
    for node in model.nodes() {
        let fetch = |source: &Source| -> &Tensor<i64> {
            match source {
                Source::Input => input,
                Source::Node(i) => &outputs[*i],
            }
        };
        let first = node
            .inputs
            .first()
            .map(fetch)
            .ok_or_else(|| TnnError::MalformedGraph {
                reason: "node without inputs".to_string(),
            })?;
        let result = match &node.op {
            LayerOp::Conv2d(conv) => conv2d(first, conv)?,
            LayerOp::Linear(fc) => linear(first, fc)?,
            LayerOp::MaxPool2d { kernel, stride } => max_pool2d(first, *kernel, *stride)?,
            LayerOp::GlobalAvgPool => global_avg_pool(first)?,
            LayerOp::Relu => relu(first),
            LayerOp::Requantize { bits } => requantize(first, act_bits_override.unwrap_or(*bits)).0,
            LayerOp::Add => {
                let second =
                    node.inputs
                        .get(1)
                        .map(fetch)
                        .ok_or_else(|| TnnError::MalformedGraph {
                            reason: "add node needs two inputs".to_string(),
                        })?;
                add(first, second)?
            }
        };
        outputs.push(result);
    }
    Ok(InferenceTrace {
        node_outputs: outputs,
    })
}

/// Runs the reference integer inference over a batch of independent inputs.
///
/// This is the *semantic definition* of batching in this stack: a batch is a
/// set of independent samples, so every batched execution backend must produce
/// outputs value-identical to mapping [`run`] over the samples — which is
/// exactly what this function does. The batched AP backends
/// (`camdnn::functional`) are pinned against it by the batch-equivalence test
/// suite.
///
/// # Errors
///
/// Returns the first failing sample's error, in batch order.
///
/// # Example
///
/// ```
/// use tnn::infer::{run, run_batch};
/// use tnn::model::micro_cnn;
/// use tnn::Tensor;
///
/// let model = micro_cnn("micro", 4, 0.8, 1);
/// let inputs = [Tensor::full(vec![3, 8, 8], 2i64), Tensor::full(vec![3, 8, 8], 5i64)];
/// let traces = run_batch(&model, &inputs, Some(4)).expect("batch");
/// assert_eq!(traces.len(), 2);
/// assert_eq!(traces[0], run(&model, &inputs[0], Some(4)).expect("single"));
/// ```
pub fn run_batch(
    model: &ModelGraph,
    inputs: &[Tensor<i64>],
    act_bits_override: Option<u8>,
) -> Result<Vec<InferenceTrace>> {
    inputs
        .iter()
        .map(|input| run(model, input, act_bits_override))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::vgg9;
    use crate::TernaryTensor;
    use proptest::prelude::*;

    /// The direct-loop convolution the tap sweep replaced: a bounds test per
    /// tap per output position. Kept as the differential oracle.
    fn direct_conv2d(input: &Tensor<i64>, layer: &Conv2d) -> Result<Tensor<i64>> {
        if input.ndim() != 3 {
            return Err(TnnError::IncompatibleShapes {
                reason: format!(
                    "convolution expects a (C, H, W) tensor, got {:?}",
                    input.shape()
                ),
            });
        }
        let (cin, height, width) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        if cin != layer.cin() {
            return Err(TnnError::IncompatibleShapes {
                reason: format!(
                    "layer '{}' expects {} channels, input has {cin}",
                    layer.name,
                    layer.cin()
                ),
            });
        }
        let (fh, fw) = layer.kernel();
        let (hout, wout) = layer.output_hw((height, width));
        let mut output = Tensor::zeros(vec![layer.cout(), hout, wout]);
        for ofm in 0..layer.cout() {
            for oh in 0..hout {
                for ow in 0..wout {
                    let mut acc = 0i64;
                    for ifm in 0..cin {
                        for kh in 0..fh {
                            for kw in 0..fw {
                                let weight = layer.weights.as_slice()
                                    [((ofm * cin + ifm) * fh + kh) * fw + kw];
                                let ih = (oh * layer.stride + kh) as isize - layer.padding as isize;
                                let iw = (ow * layer.stride + kw) as isize - layer.padding as isize;
                                if ih < 0 || iw < 0 || ih as usize >= height || iw as usize >= width
                                {
                                    continue;
                                }
                                let x = *input.get(&[ifm, ih as usize, iw as usize])?;
                                acc += i64::from(weight) * x;
                            }
                        }
                    }
                    *output.get_mut(&[ofm, oh, ow])? = acc;
                }
            }
        }
        Ok(output)
    }

    /// Per-element max pooling, the oracle of [`max_pool2d`].
    fn direct_max_pool2d(input: &Tensor<i64>, kernel: usize, stride: usize) -> Result<Tensor<i64>> {
        if input.ndim() != 3 {
            return Err(TnnError::IncompatibleShapes {
                reason: format!(
                    "pooling expects a (C, H, W) tensor, got {:?}",
                    input.shape()
                ),
            });
        }
        let (channels, height, width) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let hout = (height.saturating_sub(kernel)) / stride + 1;
        let wout = (width.saturating_sub(kernel)) / stride + 1;
        let mut output = Tensor::zeros(vec![channels, hout, wout]);
        for c in 0..channels {
            for oh in 0..hout {
                for ow in 0..wout {
                    let mut best = i64::MIN;
                    for kh in 0..kernel {
                        for kw in 0..kernel {
                            let value = *input.get(&[c, oh * stride + kh, ow * stride + kw])?;
                            best = best.max(value);
                        }
                    }
                    *output.get_mut(&[c, oh, ow])? = best;
                }
            }
        }
        Ok(output)
    }

    /// Per-element global average pooling, the oracle of [`global_avg_pool`].
    fn direct_global_avg_pool(input: &Tensor<i64>) -> Result<Tensor<i64>> {
        if input.ndim() != 3 {
            return Err(TnnError::IncompatibleShapes {
                reason: format!(
                    "pooling expects a (C, H, W) tensor, got {:?}",
                    input.shape()
                ),
            });
        }
        let (channels, height, width) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let count = (height * width) as i64;
        let mut output = Tensor::zeros(vec![channels, 1, 1]);
        for c in 0..channels {
            let mut sum = 0i64;
            for h in 0..height {
                for w in 0..width {
                    sum += *input.get(&[c, h, w])?;
                }
            }
            *output.get_mut(&[c, 0, 0])? = if count == 0 { 0 } else { sum / count };
        }
        Ok(output)
    }

    /// A `shape` tensor of deterministic signed activations.
    fn activations(shape: Vec<usize>, seed: u64) -> Tensor<i64> {
        let len = shape.iter().product::<usize>();
        let mut state = seed | 1;
        let data = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 511) as i64 - 255
            })
            .collect();
        Tensor::from_vec(shape, data).expect("activations")
    }

    #[test]
    fn conv_matches_hand_computation() {
        let weights = TernaryTensor::from_vec(vec![2, 1, 2, 2], vec![1, 0, 0, -1, 1, 1, 1, 1])
            .expect("weights");
        let conv = Conv2d::new("toy", weights, 1, 0).expect("conv");
        let input = Tensor::from_vec(vec![1, 3, 3], (1..=9).collect::<Vec<i64>>()).expect("input");
        let out = conv2d(&input, &conv).expect("conv");
        assert_eq!(out.shape(), &[2, 2, 2]);
        // Filter 0 computes x[0][0] - x[1][1] for each patch.
        assert_eq!(*out.get(&[0, 0, 0]).expect("get"), 1 - 5);
        assert_eq!(*out.get(&[0, 1, 1]).expect("get"), 5 - 9);
        // Filter 1 sums the whole patch.
        assert_eq!(*out.get(&[1, 0, 0]).expect("get"), 1 + 2 + 4 + 5);
    }

    #[test]
    fn conv_rejects_channel_mismatch() {
        let weights = TernaryTensor::random(vec![2, 3, 3, 3], 0.5, 0);
        let conv = Conv2d::new("bad", weights, 1, 1).expect("conv");
        let input = Tensor::zeros(vec![1, 4, 4]);
        assert!(conv2d(&input, &conv).is_err());
    }

    #[test]
    fn linear_matches_matrix_vector_product() {
        let weights =
            TernaryTensor::from_vec(vec![2, 3], vec![1, -1, 0, 0, 1, 1]).expect("weights");
        let fc = Linear::new("fc", weights).expect("linear");
        let input = Tensor::from_vec(vec![3, 1, 1], vec![10, 3, 7]).expect("input");
        let out = linear(&input, &fc).expect("linear");
        assert_eq!(out.as_slice(), &[7, 10]);
    }

    #[test]
    fn pooling_and_relu_behave() {
        let input = Tensor::from_vec(vec![1, 2, 2], vec![-5, 2, 7, 1]).expect("input");
        let pooled = max_pool2d(&input, 2, 2).expect("pool");
        assert_eq!(pooled.as_slice(), &[7]);
        assert_eq!(relu(&input).as_slice(), &[0, 2, 7, 1]);
        let avg = global_avg_pool(&input).expect("avg");
        assert_eq!(avg.as_slice(), &[1]); // (-5 + 2 + 7 + 1) / 4
    }

    #[test]
    fn requantize_fits_target_bits() {
        let input = Tensor::from_vec(vec![4], vec![0, 100, 260, 1023]).expect("input");
        let (q, shift) = requantize(&input, 8);
        assert!(shift >= 2);
        assert!(q.as_slice().iter().all(|&v| (0..=255).contains(&v)));
        let (q4, _) = requantize(&input, 4);
        assert!(q4.as_slice().iter().all(|&v| (0..=15).contains(&v)));
    }

    #[test]
    fn add_requires_matching_shapes() {
        let a = Tensor::from_vec(vec![2], vec![1i64, 2]).expect("a");
        let b = Tensor::from_vec(vec![2], vec![10i64, 20]).expect("b");
        assert_eq!(add(&a, &b).expect("add").as_slice(), &[11, 22]);
        let c = Tensor::from_vec(vec![3], vec![0i64; 3]).expect("c");
        assert!(add(&a, &c).is_err());
    }

    #[test]
    fn full_graph_runs_on_a_small_model() {
        // Shrink VGG-9 spatially by feeding the CIFAR input directly; this exercises
        // conv, relu, requantize, pooling and the fully connected classifier.
        let model = vgg9(0.95, 9);
        let input = Tensor::full(vec![3, 32, 32], 3i64);
        let trace = run(&model, &input, Some(4)).expect("run");
        assert_eq!(trace.node_outputs.len(), model.nodes().len());
        let logits = trace.output().expect("output");
        assert_eq!(logits.as_slice().len(), 10);
        assert!(trace.predicted_class().is_some());
    }

    #[test]
    fn batch_inference_is_samplewise_and_order_preserving() {
        let model = crate::model::micro_cnn("micro", 4, 0.8, 3);
        let inputs: Vec<Tensor<i64>> = (0..3)
            .map(|i| Tensor::full(vec![3, 8, 8], i as i64 + 1))
            .collect();
        let traces = run_batch(&model, &inputs, Some(4)).expect("batch");
        assert_eq!(traces.len(), 3);
        for (input, trace) in inputs.iter().zip(&traces) {
            assert_eq!(trace, &run(&model, input, Some(4)).expect("single"));
        }
        assert!(run_batch(&model, &[], Some(4)).expect("empty").is_empty());
        // A failing sample reports its own error.
        let bad = Tensor::zeros(vec![1, 8, 8]);
        assert!(run_batch(&model, &[inputs[0].clone(), bad], Some(4)).is_err());
    }

    #[test]
    fn kernels_reject_malformed_inputs_like_the_oracles() {
        let weights = TernaryTensor::random(vec![2, 3, 3, 2], 0.3, 5);
        let conv = Conv2d::new("bad", weights, 1, 1).expect("conv");
        for input in [
            Tensor::zeros(vec![3, 4]),
            Tensor::zeros(vec![1, 3, 4, 4]),
            Tensor::zeros(vec![2, 4, 4]),
        ] {
            let error = conv2d(&input, &conv).expect_err("malformed");
            assert_eq!(Err(error), direct_conv2d(&input, &conv));
            assert_eq!(max_pool2d(&input, 2, 1), direct_max_pool2d(&input, 2, 1));
            assert_eq!(global_avg_pool(&input), direct_global_avg_pool(&input));
        }
        // A window larger than the plane overhangs it on either axis.
        for shape in [vec![2, 5, 2], vec![2, 2, 5], vec![1, 0, 4], vec![1, 4, 0]] {
            let input = activations(shape, 3);
            let error = max_pool2d(&input, 3, 2).expect_err("overhang");
            assert_eq!(Err(error), direct_max_pool2d(&input, 3, 2));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_tap_sweep_conv_matches_the_direct_loop(
            cin in 1usize..=3,
            cout in 1usize..=3,
            fh in 1usize..=5,
            fw in 1usize..=5,
            stride in 1usize..=3,
            padding in 0usize..=2,
            height in 1usize..=9,
            width in 1usize..=9,
            sparsity_pct in 0u32..=100,
            seed in any::<u64>(),
        ) {
            let weights = TernaryTensor::random(
                vec![cout, cin, fh, fw],
                f64::from(sparsity_pct) / 100.0,
                seed,
            );
            let conv = Conv2d::new("prop", weights, stride, padding).expect("conv");
            let input = activations(vec![cin, height, width], seed);
            prop_assert_eq!(conv2d(&input, &conv), direct_conv2d(&input, &conv));
        }

        #[test]
        fn prop_plane_slice_pools_match_the_per_element_loops(
            channels in 0usize..=3,
            height in 0usize..=9,
            width in 0usize..=9,
            kernel in 0usize..=4,
            stride in 1usize..=3,
            seed in any::<u64>(),
        ) {
            let input = activations(vec![channels, height, width], seed);
            prop_assert_eq!(
                max_pool2d(&input, kernel, stride),
                direct_max_pool2d(&input, kernel, stride)
            );
            prop_assert_eq!(global_avg_pool(&input), direct_global_avg_pool(&input));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_conv_linearity_in_input(scale in 1i64..4) {
            // Ternary convolution is linear: conv(k * x) = k * conv(x).
            let weights = TernaryTensor::random(vec![2, 2, 3, 3], 0.5, 11);
            let conv = Conv2d::new("lin", weights, 1, 1).expect("conv");
            let base = Tensor::from_vec(vec![2, 5, 5], (0..50i64).collect()).expect("input");
            let scaled = base.map(|&v| v * scale);
            let out_base = conv2d(&base, &conv).expect("conv");
            let out_scaled = conv2d(&scaled, &conv).expect("conv");
            for (a, b) in out_base.as_slice().iter().zip(out_scaled.as_slice()) {
                prop_assert_eq!(a * scale, *b);
            }
        }
    }
}
