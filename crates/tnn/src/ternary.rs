use crate::{Result, TnnError};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A tensor of ternary weights, each element in `{-1, 0, 1}`.
///
/// Ternary weight networks replace every multiplication of the convolution kernel by
/// an addition, a subtraction or nothing at all, which is what makes the bulk-bitwise
/// associative-processor execution of the paper possible. The *sparsity* of the
/// tensor (fraction of zero weights) directly controls the number of add/sub
/// operations the compiler emits.
///
/// The weights are immutable and shared: cloning a tensor, or reshaping it with
/// [`TernaryTensor::reshaped`], copies no weight.
///
/// # Example
///
/// ```
/// use tnn::TernaryTensor;
///
/// let w = TernaryTensor::random(vec![64, 16, 3, 3], 0.8, 42);
/// assert!((w.sparsity() - 0.8).abs() < 0.02);
/// assert!(w.iter().all(|v| (-1..=1).contains(&v)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TernaryTensor {
    shape: Vec<usize>,
    data: Arc<Vec<i8>>,
}

impl TernaryTensor {
    /// Wraps existing ternary data.
    ///
    /// # Errors
    ///
    /// Returns [`TnnError::ShapeMismatch`] if the shape does not match the data
    /// length, or [`TnnError::InvalidArgument`] if any element is outside `{-1,0,1}`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<i8>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TnnError::ShapeMismatch {
                shape,
                data_len: data.len(),
            });
        }
        if let Some(&bad) = data.iter().find(|&&v| !(-1..=1).contains(&v)) {
            return Err(TnnError::InvalidArgument {
                reason: format!("ternary weight {bad} outside {{-1, 0, 1}}"),
            });
        }
        Ok(TernaryTensor {
            shape,
            data: Arc::new(data),
        })
    }

    /// The same weights under `shape`, sharing their storage.
    ///
    /// # Errors
    ///
    /// Returns [`TnnError::ShapeMismatch`] if `shape` does not hold exactly
    /// [`len`](Self::len) weights.
    pub fn reshaped(&self, shape: Vec<usize>) -> Result<Self> {
        if shape.iter().product::<usize>() != self.data.len() {
            return Err(TnnError::ShapeMismatch {
                shape,
                data_len: self.data.len(),
            });
        }
        Ok(TernaryTensor {
            shape,
            data: Arc::clone(&self.data),
        })
    }

    /// Generates a random ternary tensor with (approximately) the given fraction of
    /// zeros, deterministically from `seed`. Non-zero weights are ±1 with equal
    /// probability.
    ///
    /// This is the synthetic stand-in for the BIPROP-trained models of the paper: the
    /// accelerator cost model depends only on the layer geometry and sparsity, not on
    /// the trained values (see README "Baselines and the accuracy substitute").
    pub fn random(shape: Vec<usize>, sparsity: f64, seed: u64) -> Self {
        let len: usize = shape.iter().product();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = (0..len)
            .map(|_| {
                if rng.gen_bool(sparsity.clamp(0.0, 1.0)) {
                    0
                } else if rng.gen_bool(0.5) {
                    1
                } else {
                    -1
                }
            })
            .collect();
        TernaryTensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// Ternarizes floating-point weights with the symmetric-threshold rule of ternary
    /// weight networks: weights with `|w| <= delta` become 0, the rest become ±1,
    /// where `delta = threshold_factor * mean(|w|)`.
    pub fn from_float(shape: Vec<usize>, weights: &[f32], threshold_factor: f32) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != weights.len() {
            return Err(TnnError::ShapeMismatch {
                shape,
                data_len: weights.len(),
            });
        }
        let mean_abs = if weights.is_empty() {
            0.0
        } else {
            weights.iter().map(|w| w.abs()).sum::<f32>() / weights.len() as f32
        };
        let delta = threshold_factor * mean_abs;
        let data = weights
            .iter()
            .map(|&w| {
                if w > delta {
                    1
                } else if w < -delta {
                    -1
                } else {
                    0
                }
            })
            .collect();
        Ok(TernaryTensor {
            shape,
            data: Arc::new(data),
        })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of weights.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no weights.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrowed view of the weights (row-major).
    pub fn as_slice(&self) -> &[i8] {
        &self.data
    }

    /// Iterates over the weights in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = i8> + '_ {
        self.data.iter().copied()
    }

    /// Element access by multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TnnError::IncompatibleShapes`] for an out-of-range index.
    pub fn get(&self, index: &[usize]) -> Result<i8> {
        if index.len() != self.shape.len() {
            return Err(TnnError::IncompatibleShapes {
                reason: format!(
                    "index rank {} does not match tensor rank {}",
                    index.len(),
                    self.shape.len()
                ),
            });
        }
        let mut offset = 0;
        for (dim, (&i, &extent)) in index.iter().zip(&self.shape).enumerate() {
            if i >= extent {
                return Err(TnnError::IncompatibleShapes {
                    reason: format!(
                        "index {i} out of range for dimension {dim} of extent {extent}"
                    ),
                });
            }
            offset = offset * extent + i;
        }
        Ok(self.data[offset])
    }

    /// Fraction of zero weights.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|&&v| v == 0).count() as f64 / self.data.len() as f64
    }

    /// Number of non-zero weights.
    pub fn nonzeros(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_values_and_shape() {
        assert!(TernaryTensor::from_vec(vec![2], vec![0, 2]).is_err());
        assert!(TernaryTensor::from_vec(vec![3], vec![0, 1]).is_err());
        let t = TernaryTensor::from_vec(vec![2, 2], vec![1, -1, 0, 0]).expect("valid");
        assert_eq!(t.nonzeros(), 2);
        assert!((t.sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn random_hits_target_sparsity() {
        for &target in &[0.8, 0.85, 0.9] {
            let t = TernaryTensor::random(vec![128, 64, 3, 3], target, 1);
            assert!(
                (t.sparsity() - target).abs() < 0.01,
                "target {target} got {}",
                t.sparsity()
            );
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = TernaryTensor::random(vec![100], 0.5, 7);
        let b = TernaryTensor::random(vec![100], 0.5, 7);
        let c = TernaryTensor::random(vec![100], 0.5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn from_float_thresholds_small_weights_to_zero() {
        let weights = vec![0.9, -0.8, 0.01, -0.02, 0.5, -0.6];
        let t = TernaryTensor::from_float(vec![6], &weights, 0.7).expect("shape");
        assert_eq!(t.as_slice(), &[1, -1, 0, 0, 1, -1]);
    }

    #[test]
    fn get_uses_row_major_indexing() {
        let t = TernaryTensor::from_vec(vec![2, 3], vec![1, 0, -1, 0, 1, -1]).expect("valid");
        assert_eq!(t.get(&[0, 2]).expect("get"), -1);
        assert_eq!(t.get(&[1, 1]).expect("get"), 1);
        assert!(t.get(&[1, 3]).is_err());
    }

    #[test]
    fn clones_and_reshapes_share_the_weights_and_serialize_as_an_array() {
        let t = TernaryTensor::from_vec(vec![2, 3], vec![1, 0, -1, 0, 1, -1]).expect("valid");
        let clone = t.clone();
        let column = t.reshaped(vec![6, 1]).expect("same length");
        assert!(std::ptr::eq(clone.as_slice(), t.as_slice()));
        assert!(std::ptr::eq(column.as_slice(), t.as_slice()));
        assert_eq!(column.shape(), &[6, 1]);
        assert!(t.reshaped(vec![4]).is_err());
        let value = t.to_value();
        assert_eq!(
            value.field("data").expect("data"),
            &t.as_slice().to_vec().to_value()
        );
        assert_eq!(TernaryTensor::from_value(&value).expect("deserialize"), t);
    }
}
