use crate::{Result, TnnError};
use serde::{Deserialize, Serialize};

/// A minimal dense n-dimensional tensor in row-major (C) order.
///
/// The inference stack only needs a handful of tensor operations, so this type stays
/// deliberately small: shape bookkeeping, element access by multi-dimensional index
/// and a few bulk constructors. Activations are stored as `i64` during integer
/// inference and `f32` during the floating-point training used for the accuracy
/// experiments.
///
/// # Example
///
/// ```
/// use tnn::Tensor;
///
/// # fn main() -> Result<(), tnn::TnnError> {
/// let mut t = Tensor::zeros(vec![2, 3]);
/// *t.get_mut(&[1, 2])? = 7i64;
/// assert_eq!(*t.get(&[1, 2])?, 7);
/// assert_eq!(t.len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor<T> {
    shape: Vec<usize>,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor<T> {
    /// Creates a tensor filled with `T::default()`.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape,
            data: vec![T::default(); len],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: T) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }
}

impl<T> Tensor<T> {
    /// Wraps existing data in a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TnnError::ShapeMismatch`] if the element count of `shape` does not
    /// equal `data.len()`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<T>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TnnError::ShapeMismatch {
                shape,
                data_len: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrowed view of the underlying storage (row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Computes the linear offset of a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TnnError::IncompatibleShapes`] if the index rank or any coordinate is
    /// out of range.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
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
        Ok(offset)
    }

    /// Element access by multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TnnError::IncompatibleShapes`] for an out-of-range index.
    pub fn get(&self, index: &[usize]) -> Result<&T> {
        let offset = self.offset(index)?;
        Ok(&self.data[offset])
    }

    /// Mutable element access by multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TnnError::IncompatibleShapes`] for an out-of-range index.
    pub fn get_mut(&mut self, index: &[usize]) -> Result<&mut T> {
        let offset = self.offset(index)?;
        Ok(&mut self.data[offset])
    }

    /// Reinterprets the tensor with a new shape of identical element count.
    ///
    /// # Errors
    ///
    /// Returns [`TnnError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(self, shape: Vec<usize>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TnnError::ShapeMismatch {
                shape,
                data_len: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data,
        })
    }

    /// Applies a function to every element, producing a new tensor of the same shape.
    pub fn map<U, F: FnMut(&T) -> U>(&self, f: F) -> Tensor<U> {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl Tensor<i64> {
    /// Largest absolute value in the tensor (0 for an empty tensor).
    pub fn max_abs(&self) -> i64 {
        self.data.iter().map(|v| v.abs()).max().unwrap_or(0)
    }
}

impl Tensor<f32> {
    /// Largest absolute value in the tensor (0.0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |acc, v| acc.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z: Tensor<i64> = Tensor::zeros(vec![2, 2]);
        assert_eq!(z.as_slice(), &[0, 0, 0, 0]);
        let f = Tensor::full(vec![3], 7i64);
        assert_eq!(f.as_slice(), &[7, 7, 7]);
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1, 2, 3]).is_err());
        let t = Tensor::from_vec(vec![2, 2], vec![1, 2, 3, 4]).expect("shape");
        assert_eq!(t.ndim(), 2);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec(vec![2, 3], (0..6i64).collect()).expect("shape");
        assert_eq!(*t.get(&[0, 0]).expect("get"), 0);
        assert_eq!(*t.get(&[0, 2]).expect("get"), 2);
        assert_eq!(*t.get(&[1, 0]).expect("get"), 3);
        assert_eq!(*t.get(&[1, 2]).expect("get"), 5);
        assert!(t.get(&[2, 0]).is_err());
        assert!(t.get(&[0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], (0..6i64).collect()).expect("shape");
        let r = t.reshape(vec![3, 2]).expect("reshape");
        assert_eq!(*r.get(&[2, 1]).expect("get"), 5);
        assert!(r.reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn map_and_max_abs() {
        let t = Tensor::from_vec(vec![3], vec![-5i64, 2, 4]).expect("shape");
        assert_eq!(t.max_abs(), 5);
        let doubled = t.map(|v| v * 2);
        assert_eq!(doubled.as_slice(), &[-10, 4, 8]);
        let f = Tensor::from_vec(vec![2], vec![-1.5f32, 0.5]).expect("shape");
        assert!((f.max_abs() - 1.5).abs() < 1e-6);
    }
}
