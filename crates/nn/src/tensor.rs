//! A compact dense `f32` tensor.
//!
//! The NeuSpin training stack only needs a small, predictable subset of
//! tensor functionality: contiguous row-major storage, elementwise math,
//! 2-D matrix products, and shape bookkeeping for the conv/pool layers.
//! This module provides exactly that, with shape checks that panic early
//! and loudly (shape errors are programming errors, not runtime inputs).

use crate::gemm::{gemm, Lhs, Rhs};
use std::fmt;
use std::ops::{Add, Div, Index, IndexMut, Mul, Neg, Sub};

/// A dense row-major `f32` tensor.
///
/// # Examples
///
/// ```
/// use neuspin_nn::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::ones(&[2, 2]);
/// let c = &a + &b;
/// assert_eq!(c.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
/// let d = a.matmul(&b);
/// assert_eq!(d.as_slice(), &[3.0, 3.0, 7.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a flat vector and shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "data length {} does not match shape {:?} (= {})",
            data.len(),
            shape,
            expected
        );
        Self { shape: shape.to_vec(), data }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// A tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![value; n] }
    }

    /// Builds a tensor by calling `f(flat_index)` for each element.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n: usize = shape.iter().product();
        Self { shape: shape.to_vec(), data: (0..n).map(&mut f).collect() }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Elements the backing storage can hold without reallocating
    /// (scratch-arena accounting).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Borrow the flat data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the flat data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a reshaped view copy with the same data.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        Self::from_vec(self.data.clone(), shape)
    }

    /// Reshapes in place (no data movement, and no allocation while the
    /// shape vector's capacity covers the new rank).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        let expected: usize = shape.iter().product();
        assert_eq!(self.data.len(), expected, "cannot reshape {:?} to {:?}", self.shape, shape);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Resizes to `shape`, reusing the existing data and shape
    /// allocations when their capacity allows. Element values are
    /// unspecified afterwards (callers overwrite them); repeated calls
    /// at an already-seen size are allocation-free.
    pub fn resize_to(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        self.data.resize(n, 0.0);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Makes `self` an element-for-element copy of `other`, reusing
    /// `self`'s allocations when capacity allows.
    pub fn copy_from(&mut self, other: &Self) {
        self.resize_to(&other.shape);
        self.data.copy_from_slice(&other.data);
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Mutable element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let i = self.flat_index(idx);
        &mut self.data[i]
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank {} vs tensor rank {}", idx.len(), self.shape.len());
        let mut flat = 0;
        for (d, (&i, &s)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(i < s, "index {i} out of range {s} in dim {d}");
            flat = flat * s + i;
        }
        flat
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` elementwise in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combination of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other);
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    fn assert_same_shape(&self, other: &Self) {
        assert_eq!(self.shape, other.shape, "shape mismatch: {:?} vs {:?}", self.shape, other.shape);
    }

    /// `self += alpha * other` (same shapes).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Mean of absolute values (the binarization scale α).
    pub fn abs_mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().map(|x| x.abs()).sum::<f32>() / self.data.len() as f32
        }
    }

    /// 2-D matrix product: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Each output element sums its terms over `k` in ascending order
    /// from `+0.0`, skipping terms whose left factor is zero — at any
    /// instruction level the kernel runs at (see DESIGN.md §3).
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with matching inner dimension.
    pub fn matmul(&self, other: &Self) -> Self {
        let mut out = Self::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Self::matmul`] into a caller-provided output tensor: `out` is
    /// resized and zeroed in place, with no allocation once its
    /// capacity covers `m × n`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with matching inner dimension.
    pub fn matmul_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D, got {:?}", self.shape);
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D, got {:?}", other.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims differ: {:?} × {:?}", self.shape, other.shape);
        out.resize_to(&[m, n]);
        out.data.fill(0.0);
        gemm(Lhs::Rows { data: &self.data, ld: k }, m, k, &Rhs::new(&other.data, n), &mut out.data);
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn transpose(&self) -> Self {
        let mut out = Self::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Self::transpose`] into `out`, resized in place; reads a band
    /// of rows at a time so both sides stay in cache.
    pub(crate) fn transpose_into(&self, out: &mut Self) {
        assert_eq!(self.ndim(), 2, "transpose needs a 2-D tensor, got {:?}", self.shape);
        let (m, n) = (self.shape[0], self.shape[1]);
        out.resize_to(&[n, m]);
        if m == 0 || n == 0 {
            return;
        }
        const BAND: usize = 16;
        for i0 in (0..m).step_by(BAND) {
            let band = &self.data[i0 * n..(i0 + BAND).min(m) * n];
            for (j, dst) in out.data.chunks_exact_mut(m).enumerate() {
                for (d, row) in dst[i0..].iter_mut().zip(band.chunks_exact(n)) {
                    *d = row[j];
                }
            }
        }
    }

    /// Row `i` of a 2-D tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D and `i` is in range.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() needs a 2-D tensor");
        let n = self.shape[1];
        &self.data[i * n..(i + 1) * n]
    }

    /// Index of the maximum element of each row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2, "argmax_rows needs a 2-D tensor");
        (0..self.shape[0])
            .map(|i| {
                let row = self.row(i);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<usize> for Tensor {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Tensor {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip(rhs, |a, b| a $op b)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|a| a $op rhs)
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|a| -a)
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects into a 1-D tensor.
    fn from_iter<T: IntoIterator<Item = f32>>(iter: T) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        let n = data.len();
        Self { shape: vec![n], data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.ndim(), 3);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_length() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn multi_dim_indexing() {
        let t = Tensor::from_fn(&[2, 3], |i| i as f32);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[0, 2]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indexing_out_of_range_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[2, 0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(a.matmul(&eye), a);
        assert_eq!(eye.matmul(&a), a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_matches_matmul_bitwise_and_reuses_capacity() {
        let a = Tensor::from_fn(&[3, 5], |i| ((i * 7) % 11) as f32 / 3.0 - 1.0);
        let b = Tensor::from_fn(&[5, 4], |i| ((i * 13) % 9) as f32 / 4.0 - 1.0);
        let expect = a.matmul(&b);
        // Start from a dirty, larger buffer: matmul_into must zero it.
        let mut out = Tensor::full(&[6, 6], 7.0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.shape(), expect.shape());
        assert!(out
            .as_slice()
            .iter()
            .zip(expect.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        // Second call at the same size must not need new capacity.
        let cap = out.data.capacity();
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data.capacity(), cap);
    }

    #[test]
    fn resize_to_and_copy_from_reuse_storage() {
        let mut t = Tensor::zeros(&[4, 4]);
        let cap = t.data.capacity();
        t.resize_to(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.data.capacity(), cap, "shrinking must keep capacity");
        let src = Tensor::from_fn(&[2, 2], |i| i as f32);
        t.copy_from(&src);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.as_slice(), src.as_slice());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_fn(&[3, 5], |i| i as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at(&[4, 2]), a.at(&[2, 4]));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * &b).as_slice(), &[3.0, 10.0]);
        assert_eq!((&b / &a).as_slice(), &[3.0, 2.5]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[4]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.abs_mean(), 2.5);
        assert_eq!(t.norm_sq(), 30.0);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32);
        let r = t.reshape(&[3, 4]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape(), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn bad_reshape_panics() {
        let mut t = Tensor::zeros(&[4]);
        t.reshape_in_place(&[5]);
    }

    #[test]
    fn finite_check() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.all_finite());
        t[0] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn collect_into_tensor() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.shape(), &[4]);
    }

    #[test]
    fn display_small_tensor() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let s = t.to_string();
        assert!(s.contains("[2]"));
        assert!(s.contains("1.0"));
    }
}
