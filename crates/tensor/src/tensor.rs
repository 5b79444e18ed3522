//! Row-major owned `f32` tensor.
//!
//! The tensor is intentionally simple: owned storage in a `Vec<f32>`, a shape
//! of up to three dimensions, and cheap row/slice views.  All transformer
//! kernels in [`crate::ops`] operate on these tensors or on raw slices
//! obtained from them.

use crate::{Result, TensorError};
use rand::Rng;

/// A dense, row-major, owned `f32` tensor with a dynamic shape.
///
/// Shapes are stored as a `Vec<usize>`; only ranks 1–3 are used by the
/// transformer code, but the type itself is rank-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the data length does not
    /// equal the product of the shape dimensions.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Creates a zero-filled tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Self {
            data: vec![0.0; n],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Self {
            data: vec![value; n],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor with elements drawn uniformly from `[-scale, scale]`.
    ///
    /// Used for synthetic model initialisation; the caller provides the RNG so
    /// that model construction is fully deterministic under a fixed seed.
    pub fn rand_uniform<R: Rng>(rng: &mut R, shape: &[usize], scale: f32) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.gen_range(-scale..=scale)).collect();
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Number of rows when the tensor is interpreted as a 2-D matrix.
    ///
    /// Rank-1 tensors are treated as a single row.
    pub fn rows(&self) -> usize {
        match self.shape.len() {
            0 | 1 => 1,
            _ => self.shape[..self.shape.len() - 1].iter().product(),
        }
    }

    /// Number of columns when the tensor is interpreted as a 2-D matrix.
    pub fn cols(&self) -> usize {
        *self.shape.last().unwrap_or(&0)
    }

    /// Returns row `r` of the matrix view as a slice.
    pub fn row(&self, r: usize) -> Result<&[f32]> {
        let cols = self.cols();
        if r >= self.rows() {
            return Err(TensorError::OutOfBounds(format!(
                "row {r} out of {} rows",
                self.rows()
            )));
        }
        Ok(&self.data[r * cols..(r + 1) * cols])
    }

    /// Returns row `r` of the matrix view as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> Result<&mut [f32]> {
        let cols = self.cols();
        if r >= self.rows() {
            return Err(TensorError::OutOfBounds(format!(
                "row {r} out of {} rows",
                self.rows()
            )));
        }
        Ok(&mut self.data[r * cols..(r + 1) * cols])
    }

    /// Mutable element access for 2-D tensors (row, col).
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        let cols = self.cols();
        self.data[r * cols + c] = v;
    }

    /// Index of the maximum element (argmax) of a rank-1 tensor or of the
    /// flattened storage.  Ties resolve to the lowest index, which mirrors the
    /// greedy-sampling determinism requirement of the paper's evaluation.
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        let mut best_val = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_val {
                best_val = v;
                best = i;
            }
        }
        best
    }

    /// Returns the approximate heap size of the tensor in bytes.
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_checks_shape() {
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[2, 2]).is_err());
    }

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[4], 2.5);
        assert!(f.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn rows_cols_and_row_access() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.row(1).unwrap(), &[4.0, 5.0, 6.0, 7.0]);
        assert!(t.row(3).is_err());
    }

    #[test]
    fn rank3_rows_flatten_leading_dims() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.rows(), 6);
        assert_eq!(t.cols(), 4);
    }

    #[test]
    fn argmax_ties_resolve_to_lowest_index() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 5.0, 2.0], &[4]).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn rand_uniform_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let ta = Tensor::rand_uniform(&mut a, &[8, 8], 0.1);
        let tb = Tensor::rand_uniform(&mut b, &[8, 8], 0.1);
        assert_eq!(ta, tb);
        assert!(ta.data().iter().all(|x| x.abs() <= 0.1));
    }

    #[test]
    fn set2_writes_row_major() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set2(1, 0, 3.5);
        assert_eq!(t.data(), [0.0, 0.0, 3.5, 0.0]);
    }
}
