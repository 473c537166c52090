//! Synthetic datasets used for the accuracy experiments.
//!
//! The paper evaluates accuracy on CIFAR-10 and ImageNet with models trained by
//! BIPROP; neither the datasets nor the trained checkpoints are available offline, so
//! the accuracy experiments of this reproduction run on a synthetic, offline-trainable
//! classification task instead (README "Baselines and the accuracy substitute" gives
//! the substitution argument). Images
//! are small gray-scale patterns whose class determines the position and orientation
//! of a bright blob, plus Gaussian noise.

use crate::{Quantizer, Result, Tensor};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One labelled sample: a `(channels, size, size)` floating-point image (one
/// channel unless [`SyntheticBlobs::with_channels`] says otherwise) and its
/// class index.
pub type Sample = (Tensor<f32>, usize);

/// A borrowed batch of labelled samples — the unit of batched evaluation.
///
/// `Batch` is the dataset-side view the batched inference entry points
/// consume: it groups [`Sample`]s without copying them and stages their
/// images as the integer activation tensors that
/// [`tnn::infer::run_batch`](crate::infer::run_batch) (and the batched AP
/// backends downstream) execute.
///
/// # Example
///
/// ```
/// use tnn::dataset::{Batch, SyntheticBlobs};
/// use tnn::Quantizer;
///
/// # fn main() -> Result<(), tnn::TnnError> {
/// let samples = SyntheticBlobs::new(8, 3, 0.1).generate(16, 7);
/// let batch = Batch::new(&samples);
/// assert_eq!(batch.len(), 16);
/// let quantizer = Quantizer::calibrate(4, &batch.pixels())?;
/// let inputs = batch.quantized_inputs(&quantizer)?;
/// assert!(inputs.iter().all(|t| t.shape() == [1, 8, 8]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Batch<'a> {
    samples: &'a [Sample],
}

impl<'a> Batch<'a> {
    /// Wraps `samples` as one batch.
    pub fn new(samples: &'a [Sample]) -> Self {
        Batch { samples }
    }

    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The underlying samples.
    pub fn samples(&self) -> &'a [Sample] {
        self.samples
    }

    /// The class label of every sample, in batch order.
    pub fn labels(&self) -> Vec<usize> {
        self.samples.iter().map(|(_, label)| *label).collect()
    }

    /// Every pixel of every image, flattened in batch order — the calibration
    /// set for an input [`Quantizer`].
    pub fn pixels(&self) -> Vec<f32> {
        self.samples
            .iter()
            .flat_map(|(image, _)| image.as_slice().iter().copied())
            .collect()
    }

    /// Quantizes every image into the integer activation tensor the inference
    /// engines execute, preserving each image's shape.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (cannot happen for images produced by
    /// [`SyntheticBlobs`]).
    pub fn quantized_inputs(&self, quantizer: &Quantizer) -> Result<Vec<Tensor<i64>>> {
        self.samples
            .iter()
            .map(|(image, _)| {
                Tensor::from_vec(
                    image.shape().to_vec(),
                    quantizer.quantize_all(image.as_slice()),
                )
            })
            .collect()
    }
}

/// Generator for the synthetic blob-classification task.
///
/// # Example
///
/// ```
/// use tnn::dataset::SyntheticBlobs;
///
/// let dataset = SyntheticBlobs::new(8, 3, 0.15);
/// let samples = dataset.generate(32, 7);
/// assert_eq!(samples.len(), 32);
/// assert!(samples.iter().all(|(image, label)| image.shape() == [1, 8, 8] && *label < 3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticBlobs {
    size: usize,
    classes: usize,
    noise: f32,
    channels: usize,
}

impl SyntheticBlobs {
    /// Creates a generator for `classes` classes of single-channel
    /// `size × size` images with additive Gaussian-ish noise of standard
    /// deviation `noise`.
    pub fn new(size: usize, classes: usize, noise: f32) -> Self {
        SyntheticBlobs {
            size,
            classes,
            noise,
            channels: 1,
        }
    }

    /// Returns a copy generating `channels`-channel images: every channel
    /// carries the class blob at a fading per-channel gain with its own noise
    /// draws, so multi-channel models (request payloads for conv stacks with
    /// RGB-shaped inputs) get dataset-backed tensors of the right shape. One
    /// channel reproduces the classic generator exactly.
    #[must_use]
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels.max(1);
        self
    }

    /// Image side length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of image channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of input features per image (`channels * size * size`).
    pub fn features(&self) -> usize {
        self.channels * self.size * self.size
    }

    /// Generates `count` labelled samples deterministically from `seed`.
    pub fn generate(&self, count: usize, seed: u64) -> Vec<Sample> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..count)
            .map(|i| {
                let label = i % self.classes;
                (self.sample_for_class(label, &mut rng), label)
            })
            .collect()
    }

    fn sample_for_class(&self, label: usize, rng: &mut ChaCha8Rng) -> Tensor<f32> {
        let plane = self.size * self.size;
        let mut data = vec![0.0f32; self.channels * plane];
        // Each class places its blob at a distinct angle around the image centre.
        let angle = (label as f32 / self.classes as f32) * std::f32::consts::TAU;
        let centre = (self.size as f32 - 1.0) / 2.0;
        let radius = self.size as f32 / 4.0;
        let cy = centre + radius * angle.sin();
        let cx = centre + radius * angle.cos();
        for channel in 0..self.channels {
            // Later channels see the same blob at a fading gain, so channels
            // stay correlated (like colour planes) without being copies.
            let gain = 1.0 / (1.0 + channel as f32 * 0.5);
            for y in 0..self.size {
                for x in 0..self.size {
                    let dy = y as f32 - cy;
                    let dx = x as f32 - cx;
                    let value = (-(dy * dy + dx * dx) / 4.0).exp() * gain;
                    // Box-Muller-free noise: sum of uniforms is close enough to Gaussian here.
                    let noise: f32 =
                        (0..4).map(|_| rng.gen_range(-0.5f32..0.5)).sum::<f32>() * self.noise;
                    data[channel * plane + y * self.size + x] = (value + noise).max(0.0);
                }
            }
        }
        Tensor::from_vec(vec![self.channels, self.size, self.size], data)
            .expect("generated data matches shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_balanced() {
        let dataset = SyntheticBlobs::new(8, 4, 0.1);
        let a = dataset.generate(40, 3);
        let b = dataset.generate(40, 3);
        assert_eq!(a.len(), b.len());
        for ((img_a, label_a), (img_b, label_b)) in a.iter().zip(&b) {
            assert_eq!(label_a, label_b);
            assert_eq!(img_a.as_slice(), img_b.as_slice());
        }
        for class in 0..4 {
            assert_eq!(a.iter().filter(|(_, l)| *l == class).count(), 10);
        }
    }

    #[test]
    fn classes_are_visually_distinct() {
        // The mean images of two classes must differ substantially more than the
        // noise level, otherwise the accuracy experiment is meaningless.
        let dataset = SyntheticBlobs::new(8, 3, 0.1);
        let samples = dataset.generate(90, 5);
        let mean_image = |class: usize| -> Vec<f32> {
            let imgs: Vec<_> = samples.iter().filter(|(_, l)| *l == class).collect();
            let mut mean = vec![0.0f32; 64];
            for (img, _) in &imgs {
                for (m, v) in mean.iter_mut().zip(img.as_slice()) {
                    *m += v / imgs.len() as f32;
                }
            }
            mean
        };
        let a = mean_image(0);
        let b = mean_image(1);
        let distance: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(distance > 1.0, "class means too close: {distance}");
    }

    #[test]
    fn batch_view_stages_quantized_inputs_in_order() {
        let dataset = SyntheticBlobs::new(6, 3, 0.05);
        let samples = dataset.generate(9, 4);
        let batch = Batch::new(&samples);
        assert_eq!(batch.len(), 9);
        assert!(!batch.is_empty());
        assert_eq!(batch.labels(), vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
        assert_eq!(batch.pixels().len(), 9 * 36);
        let quantizer = crate::Quantizer::calibrate(4, &batch.pixels()).expect("calibrate");
        let inputs = batch.quantized_inputs(&quantizer).expect("quantize");
        assert_eq!(inputs.len(), 9);
        for ((image, _), input) in samples.iter().zip(&inputs) {
            assert_eq!(input.shape(), image.shape());
            // Element-wise the batch staging is exactly the scalar quantizer.
            for (&level, &pixel) in input.as_slice().iter().zip(image.as_slice()) {
                assert_eq!(level, quantizer.quantize(pixel));
            }
        }
        assert!(Batch::new(&[]).is_empty());
    }

    #[test]
    fn accessors_report_geometry() {
        let dataset = SyntheticBlobs::new(10, 5, 0.0);
        assert_eq!(dataset.size(), 10);
        assert_eq!(dataset.classes(), 5);
        assert_eq!(dataset.channels(), 1);
        assert_eq!(dataset.features(), 100);
        assert_eq!(dataset.with_channels(3).features(), 300);
    }

    #[test]
    fn multi_channel_images_extend_the_classic_generator() {
        // The single-channel path is byte-identical to the pre-channels
        // generator (`with_channels(1)` is a no-op), and the first image of a
        // multi-channel stream starts from the same draws, so its channel 0
        // equals the classic first image exactly.
        let mono = SyntheticBlobs::new(6, 3, 0.1).generate(6, 9);
        let still_mono = SyntheticBlobs::new(6, 3, 0.1)
            .with_channels(1)
            .generate(6, 9);
        assert_eq!(mono, still_mono);
        let rgb = SyntheticBlobs::new(6, 3, 0.1)
            .with_channels(3)
            .generate(6, 9);
        assert_eq!(
            rgb,
            SyntheticBlobs::new(6, 3, 0.1)
                .with_channels(3)
                .generate(6, 9)
        );
        assert_eq!(mono[0].0.as_slice(), &rgb[0].0.as_slice()[..36]);
        for ((_, mono_label), (rgb_img, rgb_label)) in mono.iter().zip(&rgb) {
            assert_eq!(mono_label, rgb_label);
            assert_eq!(rgb_img.shape(), &[3, 6, 6]);
            // Later channels are correlated but not copies.
            assert_ne!(&rgb_img.as_slice()[..36], &rgb_img.as_slice()[36..72]);
        }
    }
}
