//! Model graphs and builders for the evaluated networks.
//!
//! The model is a small DAG of [`LayerOp`] nodes. Each node lists the nodes it reads
//! from (or the graph input). Builders are provided for the three networks of the
//! paper's evaluation — VGG-9 and VGG-11 on CIFAR-10 and ResNet-18 on ImageNet —
//! with synthetic ternary weights at the sparsity levels reported in Table II.

use crate::layer::{Conv2d, LayerOp, Linear};
use crate::{Result, TernaryTensor, TnnError};
use serde::{Deserialize, Serialize};

/// Where a node reads its data from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Source {
    /// The graph input (the image).
    Input,
    /// The output of a previous node.
    Node(usize),
}

/// One node of the model graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The operation performed by this node.
    pub op: LayerOp,
    /// The inputs of the node, in operand order.
    pub inputs: Vec<Source>,
}

/// Static description of one weighted (convolution or fully connected) layer,
/// including the tensor shapes it sees at inference time.
///
/// This is the unit the compiler consumes: one [`ConvLayerInfo`] per layer of
/// Table II / Fig. 4 of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvLayerInfo {
    /// Index of the node in the graph.
    pub node_id: usize,
    /// Layer name.
    pub name: String,
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Kernel size `(fh, fw)`; `(1, 1)` for fully connected layers.
    pub kernel: (usize, usize),
    /// Stride (1 for fully connected layers).
    pub stride: usize,
    /// Padding (0 for fully connected layers).
    pub padding: usize,
    /// Input spatial size `(h, w)`; `(1, 1)` for fully connected layers.
    pub input_hw: (usize, usize),
    /// Output spatial size `(h, w)`; `(1, 1)` for fully connected layers.
    pub output_hw: (usize, usize),
    /// The layer's ternary weights, reshaped to `[cout, cin, fh, fw]`.
    pub weights: TernaryTensor,
}

impl ConvLayerInfo {
    /// Number of multiply-accumulate operations of this layer.
    pub fn macs(&self) -> u64 {
        (self.cout * self.cin * self.kernel.0 * self.kernel.1 * self.output_hw.0 * self.output_hw.1)
            as u64
    }

    /// Number of output positions (`Hout * Wout`), the SIMD dimension of the AP.
    pub fn output_positions(&self) -> usize {
        self.output_hw.0 * self.output_hw.1
    }

    /// Fraction of zero weights in this layer.
    pub fn sparsity(&self) -> f64 {
        self.weights.sparsity()
    }
}

/// A neural-network model: a DAG of layer operations plus the input shape.
///
/// # Example
///
/// ```
/// use tnn::model::{vgg9, resnet18};
///
/// let vgg = vgg9(0.85, 1);
/// assert_eq!(vgg.input_shape(), (3, 32, 32));
/// let resnet = resnet18(0.8, 1);
/// assert!(resnet.total_weights() > 10_000_000);
/// assert!((resnet.overall_sparsity() - 0.8).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelGraph {
    name: String,
    input_shape: (usize, usize, usize),
    nodes: Vec<Node>,
}

impl ModelGraph {
    /// Creates an empty model with the given `(channels, height, width)` input shape.
    pub fn new(name: impl Into<String>, input_shape: (usize, usize, usize)) -> Self {
        ModelGraph {
            name: name.into(),
            input_shape,
            nodes: Vec::new(),
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `(channels, height, width)` shape of the input image.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        self.input_shape
    }

    /// The nodes of the graph in topological (insertion) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Appends a node and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`TnnError::MalformedGraph`] if an input references a node that does
    /// not exist yet (the graph must be built in topological order).
    pub fn add(&mut self, op: LayerOp, inputs: Vec<Source>) -> Result<usize> {
        for input in &inputs {
            if let Source::Node(id) = input {
                if *id >= self.nodes.len() {
                    return Err(TnnError::MalformedGraph {
                        reason: format!("node input {id} does not exist yet"),
                    });
                }
            }
        }
        self.nodes.push(Node { op, inputs });
        Ok(self.nodes.len() - 1)
    }

    /// Convenience for the common chain case: appends a node reading from `from`
    /// (or the graph input when `from` is `None`).
    ///
    /// # Errors
    ///
    /// Returns [`TnnError::MalformedGraph`] for a dangling reference.
    pub fn chain(&mut self, op: LayerOp, from: Option<usize>) -> Result<usize> {
        let source = match from {
            Some(id) => Source::Node(id),
            None => Source::Input,
        };
        self.add(op, vec![source])
    }

    /// Computes the `(channels, height, width)` output shape of every node.
    ///
    /// # Errors
    ///
    /// Returns [`TnnError::IncompatibleShapes`] if a layer's expectations are not met
    /// (for example a convolution whose `cin` differs from its input's channels).
    pub fn node_shapes(&self) -> Result<Vec<(usize, usize, usize)>> {
        let mut shapes = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let input_shape = |source: &Source| -> (usize, usize, usize) {
                match source {
                    Source::Input => self.input_shape,
                    Source::Node(i) => shapes[*i],
                }
            };
            let first =
                node.inputs
                    .first()
                    .map(input_shape)
                    .ok_or_else(|| TnnError::MalformedGraph {
                        reason: format!("node {id} has no inputs"),
                    })?;
            let shape = match &node.op {
                LayerOp::Conv2d(conv) => {
                    if conv.cin() != first.0 {
                        return Err(TnnError::IncompatibleShapes {
                            reason: format!(
                                "layer '{}' expects {} input channels but receives {}",
                                conv.name,
                                conv.cin(),
                                first.0
                            ),
                        });
                    }
                    let (h, w) = conv.output_hw((first.1, first.2));
                    (conv.cout(), h, w)
                }
                LayerOp::Linear(linear) => {
                    let in_features = first.0 * first.1 * first.2;
                    if linear.in_features() != in_features {
                        return Err(TnnError::IncompatibleShapes {
                            reason: format!(
                                "layer '{}' expects {} input features but receives {}",
                                linear.name,
                                linear.in_features(),
                                in_features
                            ),
                        });
                    }
                    (linear.out_features(), 1, 1)
                }
                LayerOp::MaxPool2d { kernel, stride } => {
                    let h = (first.1.saturating_sub(*kernel)) / stride + 1;
                    let w = (first.2.saturating_sub(*kernel)) / stride + 1;
                    (first.0, h, w)
                }
                LayerOp::GlobalAvgPool => (first.0, 1, 1),
                LayerOp::Relu | LayerOp::Requantize { .. } => first,
                LayerOp::Add => {
                    let second = node.inputs.get(1).map(input_shape).ok_or_else(|| {
                        TnnError::MalformedGraph {
                            reason: format!("add node {id} needs two inputs"),
                        }
                    })?;
                    if first != second {
                        return Err(TnnError::IncompatibleShapes {
                            reason: format!(
                                "add node {id} combines shapes {first:?} and {second:?}"
                            ),
                        });
                    }
                    first
                }
            };
            shapes.push(shape);
        }
        Ok(shapes)
    }

    /// Static per-layer information for every weighted layer (convolutions and fully
    /// connected layers), in graph order. The layers share their weights with the
    /// model; none is copied.
    pub fn conv_like_layers(&self) -> Vec<ConvLayerInfo> {
        let shapes = match self.node_shapes() {
            Ok(shapes) => shapes,
            Err(_) => return Vec::new(),
        };
        let input_of = |node: &Node| -> (usize, usize, usize) {
            match node.inputs.first() {
                Some(Source::Input) | None => self.input_shape,
                Some(Source::Node(i)) => shapes[*i],
            }
        };
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(id, node)| {
                let input = input_of(node);
                match &node.op {
                    LayerOp::Conv2d(conv) => Some(ConvLayerInfo {
                        node_id: id,
                        name: conv.name.clone(),
                        cin: conv.cin(),
                        cout: conv.cout(),
                        kernel: conv.kernel(),
                        stride: conv.stride,
                        padding: conv.padding,
                        input_hw: (input.1, input.2),
                        output_hw: (shapes[id].1, shapes[id].2),
                        weights: conv.weights.clone(),
                    }),
                    LayerOp::Linear(linear) => {
                        let reshaped = linear
                            .weights
                            .reshaped(vec![linear.out_features(), linear.in_features(), 1, 1])
                            .expect("a linear layer holds out × in weights");
                        Some(ConvLayerInfo {
                            node_id: id,
                            name: linear.name.clone(),
                            cin: linear.in_features(),
                            cout: linear.out_features(),
                            kernel: (1, 1),
                            stride: 1,
                            padding: 0,
                            input_hw: (1, 1),
                            output_hw: (1, 1),
                            weights: reshaped,
                        })
                    }
                    _ => None,
                }
            })
            .collect()
    }

    /// Total number of ternary weights in the model.
    pub fn total_weights(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                LayerOp::Conv2d(conv) => conv.weights.len() as u64,
                LayerOp::Linear(linear) => linear.weights.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Total number of multiply-accumulate operations per inference.
    pub fn total_macs(&self) -> u64 {
        self.conv_like_layers()
            .iter()
            .map(ConvLayerInfo::macs)
            .sum()
    }

    /// Overall fraction of zero weights across all weighted layers.
    pub fn overall_sparsity(&self) -> f64 {
        let (zeros, total) = self
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                LayerOp::Conv2d(conv) => Some(&conv.weights),
                LayerOp::Linear(linear) => Some(&linear.weights),
                _ => None,
            })
            .fold((0u64, 0u64), |(z, t), w| {
                (z + (w.len() - w.nonzeros()) as u64, t + w.len() as u64)
            });
        if total == 0 {
            0.0
        } else {
            zeros as f64 / total as f64
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn conv(
    name: &str,
    cout: usize,
    cin: usize,
    k: usize,
    stride: usize,
    padding: usize,
    sparsity: f64,
    seed: u64,
) -> LayerOp {
    let weights = TernaryTensor::random(vec![cout, cin, k, k], sparsity, seed);
    LayerOp::Conv2d(
        Conv2d::new(name, weights, stride, padding).expect("static layer definitions are valid"),
    )
}

fn linear(
    name: &str,
    out_features: usize,
    in_features: usize,
    sparsity: f64,
    seed: u64,
) -> LayerOp {
    let weights = TernaryTensor::random(vec![out_features, in_features], sparsity, seed);
    LayerOp::Linear(Linear::new(name, weights).expect("static layer definitions are valid"))
}

/// Appends the post-convolution activation pipeline (ReLU + requantization) and
/// returns the id of the last node.
fn act(model: &mut ModelGraph, from: usize, bits: u8) -> usize {
    let relu = model.chain(LayerOp::Relu, Some(from)).expect("chain");
    model
        .chain(LayerOp::Requantize { bits }, Some(relu))
        .expect("chain")
}

/// Default activation precision used by the model builders. The experiments override
/// the precision at the pipeline level; the graph only needs a placeholder.
const DEFAULT_ACT_BITS: u8 = 8;

/// Builds a miniature convnet — two ternary convolutions and one fully
/// connected layer on an 8×8 input — for tests, doctests and sweep demos
/// where compiling a full CIFAR/ImageNet network would dominate the runtime.
///
/// `channels` sets the width of both convolutions (4–16 keeps every layer
/// well inside the default CAM geometry).
///
/// # Example
///
/// ```
/// use tnn::model::micro_cnn;
///
/// let model = micro_cnn("micro-a", 8, 0.8, 1);
/// assert_eq!(model.name(), "micro-a");
/// assert_eq!(model.conv_like_layers().len(), 3);
/// ```
pub fn micro_cnn(name: impl Into<String>, channels: usize, sparsity: f64, seed: u64) -> ModelGraph {
    let mut model = ModelGraph::new(name, (3, 8, 8));
    let bits = DEFAULT_ACT_BITS;
    let id = model
        .chain(conv("conv1", channels, 3, 3, 1, 1, sparsity, seed), None)
        .expect("chain");
    let id = act(&mut model, id, bits);
    let id = model
        .chain(
            conv("conv2", channels, channels, 3, 1, 1, sparsity, seed + 1),
            Some(id),
        )
        .expect("chain");
    let id = act(&mut model, id, bits);
    let id = model
        .chain(
            LayerOp::MaxPool2d {
                kernel: 2,
                stride: 2,
            },
            Some(id),
        )
        .expect("chain");
    model
        .chain(
            linear("fc", 10, channels * 4 * 4, sparsity, seed + 2),
            Some(id),
        )
        .expect("chain");
    model
}

/// Builds a depthwise ternary convolution as a standard [`Conv2d`]: a
/// `[channels, channels, k, k]` kernel whose off-diagonal channel pairs are
/// all zero, so output channel `c` convolves input channel `c` only. The
/// diagonal taps come from a random `[channels, 1, k, k]` ternary tensor;
/// expressing the layer as a full (extremely sparse) convolution keeps it
/// inside the compiler's existing conv lowering — no new operator.
fn depthwise_conv(
    name: &str,
    channels: usize,
    k: usize,
    stride: usize,
    padding: usize,
    sparsity: f64,
    seed: u64,
) -> LayerOp {
    let diagonal = TernaryTensor::random(vec![channels, 1, k, k], sparsity, seed);
    let taps = diagonal.as_slice();
    let mut data = vec![0i8; channels * channels * k * k];
    for c in 0..channels {
        let dst = (c * channels + c) * k * k;
        data[dst..dst + k * k].copy_from_slice(&taps[c * k * k..(c + 1) * k * k]);
    }
    let weights = TernaryTensor::from_vec(vec![channels, channels, k, k], data)
        .expect("static layer definitions are valid");
    LayerOp::Conv2d(
        Conv2d::new(name, weights, stride, padding).expect("static layer definitions are valid"),
    )
}

/// Builds a depthwise-separable convnet on an 8×8 input: a standard stem
/// convolution followed by a depthwise (diagonal-kernel) 3×3 + pointwise 1×1
/// pair — the factorization behind MobileNet-style networks — and a small
/// classifier head. Exercises the compiler and the functional engines on
/// extremely sparse per-channel kernels and on 1×1 convolutions.
///
/// # Example
///
/// ```
/// use tnn::model::dw_sep_cnn;
///
/// let model = dw_sep_cnn("dw", 8, 0.8, 1);
/// assert_eq!(model.conv_like_layers().len(), 4);
/// assert!(model.node_shapes().is_ok());
/// ```
pub fn dw_sep_cnn(
    name: impl Into<String>,
    channels: usize,
    sparsity: f64,
    seed: u64,
) -> ModelGraph {
    let mut model = ModelGraph::new(name, (3, 8, 8));
    let bits = DEFAULT_ACT_BITS;
    let id = model
        .chain(conv("stem", channels, 3, 3, 1, 1, sparsity, seed), None)
        .expect("chain");
    let id = act(&mut model, id, bits);
    let id = model
        .chain(
            depthwise_conv("dw1", channels, 3, 1, 1, sparsity, seed + 1),
            Some(id),
        )
        .expect("chain");
    let id = act(&mut model, id, bits);
    let id = model
        .chain(
            conv("pw1", channels, channels, 1, 1, 0, sparsity, seed + 2),
            Some(id),
        )
        .expect("chain");
    let id = act(&mut model, id, bits);
    let id = model
        .chain(
            LayerOp::MaxPool2d {
                kernel: 2,
                stride: 2,
            },
            Some(id),
        )
        .expect("chain");
    model
        .chain(
            linear("fc", 10, channels * 4 * 4, sparsity, seed + 3),
            Some(id),
        )
        .expect("chain");
    model
}

/// Builds an MLP-mixer-style block on an 8×8 input: a patch-embedding
/// convolution (2×2, stride 2 → a 4×4 token grid), a token-mixing depthwise
/// convolution with a residual connection, and a channel-mixing 1×1
/// expand/project pair with a second residual — the `Requantize + Add`
/// idiom of the ResNet builder keeps both branch inputs in the activation
/// range. Exercises residual merges over both spatial and channel mixing.
///
/// # Example
///
/// ```
/// use tnn::model::micro_mixer;
///
/// let model = micro_mixer("mixer", 8, 0.8, 1);
/// assert_eq!(model.conv_like_layers().len(), 5);
/// assert!(model.node_shapes().is_ok());
/// ```
pub fn micro_mixer(
    name: impl Into<String>,
    channels: usize,
    sparsity: f64,
    seed: u64,
) -> ModelGraph {
    let mut model = ModelGraph::new(name, (3, 8, 8));
    let bits = DEFAULT_ACT_BITS;
    let embed = model
        .chain(
            conv("patch_embed", channels, 3, 2, 2, 0, sparsity, seed),
            None,
        )
        .expect("chain");
    let embed = model
        .chain(LayerOp::Requantize { bits }, Some(embed))
        .expect("chain");
    // Token mixing: per-channel spatial taps, merged back residually.
    let id = model
        .chain(
            depthwise_conv("token_mix", channels, 3, 1, 1, sparsity, seed + 1),
            Some(embed),
        )
        .expect("chain");
    let id = model
        .chain(LayerOp::Requantize { bits }, Some(id))
        .expect("chain");
    let tokens = model
        .add(LayerOp::Add, vec![Source::Node(id), Source::Node(embed)])
        .expect("add");
    // Residual sums can exceed the activation range; requantize before the
    // next weighted layer (the ResNet builder's post-Add idiom).
    let tokens = act(&mut model, tokens, bits);
    // Channel mixing: 1×1 expand, activation, 1×1 project, second residual.
    let id = model
        .chain(
            conv(
                "channel_expand",
                channels * 2,
                channels,
                1,
                1,
                0,
                sparsity,
                seed + 2,
            ),
            Some(tokens),
        )
        .expect("chain");
    let id = act(&mut model, id, bits);
    let id = model
        .chain(
            conv(
                "channel_project",
                channels,
                channels * 2,
                1,
                1,
                0,
                sparsity,
                seed + 3,
            ),
            Some(id),
        )
        .expect("chain");
    let id = model
        .chain(LayerOp::Requantize { bits }, Some(id))
        .expect("chain");
    let id = model
        .add(LayerOp::Add, vec![Source::Node(id), Source::Node(tokens)])
        .expect("add");
    let id = act(&mut model, id, bits);
    let id = model
        .chain(LayerOp::GlobalAvgPool, Some(id))
        .expect("chain");
    model
        .chain(linear("head", 10, channels, sparsity, seed + 4), Some(id))
        .expect("chain");
    model
}

/// Builds the VGG-9 CIFAR-10 model of the paper (6 ternary convolutions and
/// 3 fully connected layers) with synthetic weights at the given sparsity.
pub fn vgg9(sparsity: f64, seed: u64) -> ModelGraph {
    let mut model = ModelGraph::new("vgg9", (3, 32, 32));
    let bits = DEFAULT_ACT_BITS;
    let channels = [(64, 64), (128, 128), (256, 256)];
    let mut previous: Option<usize> = None;
    let mut cin = 3;
    let mut layer_seed = seed;
    for (block, &(c1, c2)) in channels.iter().enumerate() {
        let id = model
            .chain(
                conv(
                    &format!("conv{}_1", block + 1),
                    c1,
                    cin,
                    3,
                    1,
                    1,
                    sparsity,
                    layer_seed,
                ),
                previous,
            )
            .expect("chain");
        let id = act(&mut model, id, bits);
        layer_seed += 1;
        let id = model
            .chain(
                conv(
                    &format!("conv{}_2", block + 1),
                    c2,
                    c1,
                    3,
                    1,
                    1,
                    sparsity,
                    layer_seed,
                ),
                Some(id),
            )
            .expect("chain");
        let id = act(&mut model, id, bits);
        layer_seed += 1;
        let id = model
            .chain(
                LayerOp::MaxPool2d {
                    kernel: 2,
                    stride: 2,
                },
                Some(id),
            )
            .expect("chain");
        previous = Some(id);
        cin = c2;
    }
    // 256 channels at 4x4 after three poolings.
    let id = model
        .chain(
            linear("fc1", 512, 256 * 4 * 4, sparsity, seed + 100),
            previous,
        )
        .expect("chain");
    let id = act(&mut model, id, bits);
    let id = model
        .chain(linear("fc2", 512, 512, sparsity, seed + 101), Some(id))
        .expect("chain");
    let id = act(&mut model, id, bits);
    model
        .chain(linear("fc3", 10, 512, sparsity, seed + 102), Some(id))
        .expect("chain");
    model
}

/// Builds the VGG-11 CIFAR-10 model (8 ternary convolutions and 3 fully connected
/// layers) with synthetic weights at the given sparsity.
pub fn vgg11(sparsity: f64, seed: u64) -> ModelGraph {
    let mut model = ModelGraph::new("vgg11", (3, 32, 32));
    let bits = DEFAULT_ACT_BITS;
    // (channels, pool-after-layer)
    let plan = [
        (64, true),
        (128, true),
        (256, false),
        (256, true),
        (512, false),
        (512, true),
        (512, false),
        (512, true),
    ];
    let mut previous: Option<usize> = None;
    let mut cin = 3;
    for (i, &(cout, pool)) in plan.iter().enumerate() {
        let id = model
            .chain(
                conv(
                    &format!("conv{}", i + 1),
                    cout,
                    cin,
                    3,
                    1,
                    1,
                    sparsity,
                    seed + i as u64,
                ),
                previous,
            )
            .expect("chain");
        let mut id = act(&mut model, id, bits);
        if pool {
            id = model
                .chain(
                    LayerOp::MaxPool2d {
                        kernel: 2,
                        stride: 2,
                    },
                    Some(id),
                )
                .expect("chain");
        }
        previous = Some(id);
        cin = cout;
    }
    // 512 channels at 1x1 after five poolings of a 32x32 input.
    let id = model
        .chain(linear("fc1", 512, 512, sparsity, seed + 100), previous)
        .expect("chain");
    let id = act(&mut model, id, bits);
    let id = model
        .chain(linear("fc2", 512, 512, sparsity, seed + 101), Some(id))
        .expect("chain");
    let id = act(&mut model, id, bits);
    model
        .chain(linear("fc3", 10, 512, sparsity, seed + 102), Some(id))
        .expect("chain");
    model
}

/// Builds the ResNet-18 ImageNet model (17 ternary convolutions in the residual
/// trunk, 3 downsample convolutions and the final fully connected layer) with
/// synthetic weights at the given sparsity.
pub fn resnet18(sparsity: f64, seed: u64) -> ModelGraph {
    resnet18_at(224, sparsity, seed)
}

/// [`resnet18`] at a reduced input resolution (`side × side` instead of
/// 224×224): the identical layer graph, channel counts and weight seeds, just
/// smaller feature maps — so end-to-end functional execution stays affordable
/// in tests and CI smokes. `side` must survive the stem's stride-2 conv, the
/// stride-2 max-pool and the three stride-2 stages, so keep it ≥ 32 (224
/// reproduces the paper model exactly, and that is what [`resnet18`] uses).
pub fn resnet18_at(side: usize, sparsity: f64, seed: u64) -> ModelGraph {
    let name = if side == 224 {
        "resnet18".to_string()
    } else {
        format!("resnet18-{side}")
    };
    let mut model = ModelGraph::new(name, (3, side, side));
    let bits = DEFAULT_ACT_BITS;
    let id = model
        .chain(conv("conv1", 64, 3, 7, 2, 3, sparsity, seed), None)
        .expect("chain");
    let id = act(&mut model, id, bits);
    let mut previous = model
        .chain(
            LayerOp::MaxPool2d {
                kernel: 2,
                stride: 2,
            },
            Some(id),
        )
        .expect("chain");

    let stages: [(usize, usize); 4] = [(64, 1), (128, 2), (256, 2), (512, 2)];
    let mut cin = 64;
    let mut layer_seed = seed + 10;
    for (stage, &(cout, first_stride)) in stages.iter().enumerate() {
        for block in 0..2 {
            let stride = if block == 0 { first_stride } else { 1 };
            let needs_downsample = stride != 1 || cin != cout;
            let shortcut = if needs_downsample {
                let ds = model
                    .chain(
                        conv(
                            &format!("layer{}_{}_downsample", stage + 1, block),
                            cout,
                            cin,
                            1,
                            stride,
                            0,
                            sparsity,
                            layer_seed,
                        ),
                        Some(previous),
                    )
                    .expect("chain");
                layer_seed += 1;
                model
                    .chain(LayerOp::Requantize { bits }, Some(ds))
                    .expect("chain")
            } else {
                previous
            };
            let id = model
                .chain(
                    conv(
                        &format!("layer{}_{}_conv1", stage + 1, block),
                        cout,
                        cin,
                        3,
                        stride,
                        1,
                        sparsity,
                        layer_seed,
                    ),
                    Some(previous),
                )
                .expect("chain");
            layer_seed += 1;
            let id = act(&mut model, id, bits);
            let id = model
                .chain(
                    conv(
                        &format!("layer{}_{}_conv2", stage + 1, block),
                        cout,
                        cout,
                        3,
                        1,
                        1,
                        sparsity,
                        layer_seed,
                    ),
                    Some(id),
                )
                .expect("chain");
            layer_seed += 1;
            let id = model
                .chain(LayerOp::Requantize { bits }, Some(id))
                .expect("chain");
            let id = model
                .add(LayerOp::Add, vec![Source::Node(id), Source::Node(shortcut)])
                .expect("add");
            previous = act(&mut model, id, bits);
            cin = cout;
        }
    }
    let id = model
        .chain(LayerOp::GlobalAvgPool, Some(previous))
        .expect("chain");
    model
        .chain(linear("fc", 1000, 512, sparsity, seed + 200), Some(id))
        .expect("chain");
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_rejects_dangling_references() {
        let mut model = ModelGraph::new("tiny", (1, 4, 4));
        assert!(model.add(LayerOp::Relu, vec![Source::Node(3)]).is_err());
        let id = model.chain(LayerOp::Relu, None).expect("chain");
        assert_eq!(id, 0);
    }

    #[test]
    fn shape_propagation_detects_channel_mismatch() {
        let mut model = ModelGraph::new("tiny", (3, 8, 8));
        let bad = conv("bad", 8, 4, 3, 1, 1, 0.5, 0);
        model.chain(bad, None).expect("chain");
        assert!(model.node_shapes().is_err());
    }

    #[test]
    fn vgg9_has_expected_structure() {
        let model = vgg9(0.85, 1);
        let layers = model.conv_like_layers();
        // 6 convolutions + 3 fully connected layers.
        assert_eq!(layers.len(), 9);
        assert_eq!(layers[0].kernel, (3, 3));
        assert_eq!(layers[0].output_hw, (32, 32));
        assert_eq!(layers.last().map(|l| l.cout), Some(10));
        assert!((model.overall_sparsity() - 0.85).abs() < 0.01);
        assert!(model.node_shapes().is_ok());
    }

    #[test]
    fn vgg11_has_expected_structure() {
        let model = vgg11(0.9, 2);
        let layers = model.conv_like_layers();
        // 8 convolutions + 3 fully connected layers.
        assert_eq!(layers.len(), 11);
        assert_eq!(layers[7].cout, 512);
        assert!((model.overall_sparsity() - 0.9).abs() < 0.01);
        assert!(model.node_shapes().is_ok());
    }

    #[test]
    fn resnet18_has_expected_structure() {
        let model = resnet18(0.8, 3);
        assert!(model.node_shapes().is_ok());
        let layers = model.conv_like_layers();
        // 1 stem + 16 block convs + 3 downsample convs + 1 fc.
        assert_eq!(layers.len(), 21);
        assert_eq!(layers[0].kernel, (7, 7));
        assert_eq!(layers[0].output_hw, (112, 112));
        // Final classifier over 512 features.
        let fc = layers.last().expect("fc layer");
        assert_eq!(fc.cout, 1000);
        assert_eq!(fc.cin, 512);
        // Parameter count close to the canonical 11.7M ResNet-18.
        let total = model.total_weights();
        assert!(total > 10_500_000 && total < 12_500_000, "weights {total}");
        // About 1.8 GMACs for a 224x224 input.
        let macs = model.total_macs();
        assert!(macs > 1_500_000_000 && macs < 2_200_000_000, "macs {macs}");
    }

    #[test]
    fn reduced_resnet18_keeps_the_layer_graph() {
        let full = resnet18(0.8, 3);
        let small = resnet18_at(64, 0.8, 3);
        assert_eq!(small.name(), "resnet18-64");
        assert!(small.node_shapes().is_ok());
        let full_layers = full.conv_like_layers();
        let small_layers = small.conv_like_layers();
        assert_eq!(full_layers.len(), small_layers.len());
        for (f, s) in full_layers.iter().zip(&small_layers) {
            // Same layers and weights, smaller feature maps.
            assert_eq!(f.name, s.name);
            assert_eq!((f.cin, f.cout, f.kernel), (s.cin, s.cout, s.kernel));
            assert_eq!(f.weights.as_slice(), s.weights.as_slice());
            assert!(s.output_positions() <= f.output_positions());
        }
        // The stem halves 64 → 32, the pool 32 → 16, the stages 16 → 2.
        assert_eq!(small_layers[0].output_hw, (32, 32));
        // 224 reproduces the paper model under the canonical name.
        assert_eq!(resnet18_at(224, 0.8, 3).name(), "resnet18");
    }

    #[test]
    fn depthwise_separable_model_has_the_expected_structure() {
        let model = dw_sep_cnn("dw", 8, 0.8, 3);
        assert!(model.node_shapes().is_ok());
        let layers = model.conv_like_layers();
        // stem + depthwise + pointwise + fc.
        assert_eq!(layers.len(), 4);
        let dw = &layers[1];
        assert_eq!((dw.cin, dw.cout, dw.kernel), (8, 8, (3, 3)));
        // The depthwise kernel is diagonal: output channel c reads input
        // channel c only, every cross-channel tap is zero.
        let taps = dw.weights.as_slice();
        let k2 = 3 * 3;
        for cout in 0..8 {
            for cin in 0..8 {
                let block = &taps[(cout * 8 + cin) * k2..][..k2];
                if cout != cin {
                    assert!(
                        block.iter().all(|&w| w == 0),
                        "off-diagonal taps must be zero"
                    );
                }
            }
        }
        // A diagonal [C, C, k, k] kernel is at least (C-1)/C sparse on top of
        // the diagonal's own sparsity.
        assert!(dw.sparsity() > 7.0 / 8.0);
        // The pointwise layer is a plain 1×1 convolution.
        assert_eq!(layers[2].kernel, (1, 1));
        assert_eq!(layers[2].output_hw, (8, 8));
        // MACs count the dense kernel (the compiler sees the zero taps as
        // sparsity, not as a smaller layer).
        assert!(model.total_macs() > 0 && model.total_weights() > 0);
    }

    #[test]
    fn micro_mixer_has_the_expected_structure() {
        let model = micro_mixer("mixer", 8, 0.8, 3);
        assert!(model.node_shapes().is_ok());
        let layers = model.conv_like_layers();
        // patch embed + token mix + expand + project + head.
        assert_eq!(layers.len(), 5);
        // The 2×2/stride-2 patch embedding yields a 4×4 token grid.
        assert_eq!(layers[0].kernel, (2, 2));
        assert_eq!(layers[0].output_hw, (4, 4));
        // Token mixing is depthwise over the token grid.
        assert_eq!((layers[1].cin, layers[1].cout), (8, 8));
        assert!(layers[1].sparsity() > 7.0 / 8.0);
        // Channel mixing expands ×2 and projects back.
        assert_eq!((layers[2].cin, layers[2].cout), (8, 16));
        assert_eq!((layers[3].cin, layers[3].cout), (16, 8));
        assert_eq!(layers[4].cout, 10);
        // Two residual merges ride on the graph.
        let adds = model
            .nodes()
            .iter()
            .filter(|node| matches!(node.op, LayerOp::Add))
            .count();
        assert_eq!(adds, 2);
    }

    #[test]
    fn conv_like_layers_reports_output_positions() {
        let model = vgg9(0.85, 1);
        let layers = model.conv_like_layers();
        assert_eq!(layers[0].output_positions(), 32 * 32);
        assert!(layers[0].macs() > 0);
        assert!((layers[0].sparsity() - 0.85).abs() < 0.05);
    }
}
