//! [`NdArray`]: a dense, row-major, `f32` n-dimensional array.
//!
//! This is the storage/value type underneath [`crate::Tensor`]. It carries no
//! autodiff state; all operations here are eager and allocate their result.

use crate::error::{Result, TensorError};
use crate::shape;
use std::fmt;
use std::sync::Arc;

/// Dense row-major `f32` n-dimensional array.
///
/// The empty shape `[]` denotes a scalar holding exactly one element.
/// Cloning is cheap: clones share their buffer until one of them is
/// written to.
///
/// # Examples
///
/// ```
/// use neurfill_tensor::NdArray;
/// let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = NdArray::full(&[2, 2], 10.0);
/// let c = a.add(&b)?;
/// assert_eq!(c.as_slice(), &[11.0, 12.0, 13.0, 14.0]);
/// # Ok::<(), neurfill_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct NdArray {
    shape: Vec<usize>,
    /// Shared, copy-on-write storage: `clone` and `reshape` hand out another
    /// handle to the same buffer; the first write through a handle that is
    /// not the only one copies it (see [`NdArray::as_mut_slice`]).
    data: Arc<Vec<f32>>,
}

impl fmt::Display for NdArray {
    /// Pretty-prints scalars, vectors and matrices; higher-rank arrays
    /// print their shape and element count.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rank() {
            0 => write!(f, "{}", self.data[0]),
            1 => {
                write!(f, "[")?;
                for (i, v) in self.data.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:.4}")?;
                }
                write!(f, "]")
            }
            2 => {
                let (r, c) = (self.shape[0], self.shape[1]);
                for i in 0..r {
                    write!(f, "[")?;
                    for j in 0..c {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{:.4}", self.data[i * c + j])?;
                    }
                    writeln!(f, "]")?;
                }
                Ok(())
            }
            _ => write!(f, "NdArray{:?} ({} elements)", self.shape, self.numel()),
        }
    }
}

impl fmt::Debug for NdArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NdArray(shape={:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{} elements])", self.data.len())
        }
    }
}

impl NdArray {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    fn owned(shape: Vec<usize>, data: Vec<f32>) -> Self {
        Self { shape, data: Arc::new(data) }
    }

    /// Creates an array of zeros with the given shape.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        Self::owned(shape.to_vec(), vec![0.0; shape::numel(shape)])
    }

    /// Creates an array of ones with the given shape.
    #[must_use]
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates an array filled with `value`.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self::owned(shape.to_vec(), vec![value; shape::numel(shape)])
    }

    /// Creates a scalar (rank-0) array.
    #[must_use]
    pub fn scalar(value: f32) -> Self {
        Self::owned(vec![], vec![value])
    }

    /// Creates an array from a flat vector and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` does not
    /// equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        if data.len() != shape::numel(shape) {
            return Err(TensorError::LengthMismatch {
                expected: shape::numel(shape),
                actual: data.len(),
            });
        }
        Ok(Self::owned(shape.to_vec(), data))
    }

    /// Creates a 1-D array from a slice.
    #[must_use]
    pub fn from_slice(data: &[f32]) -> Self {
        Self::owned(vec![data.len()], data.to_vec())
    }

    /// Creates an array by evaluating `f` at each flat offset.
    #[must_use]
    pub fn from_fn(shape: &[usize], f: impl FnMut(usize) -> f32) -> Self {
        let n = shape::numel(shape);
        Self::owned(shape.to_vec(), (0..n).map(f).collect())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Shape of the array.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of axes).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat view of the underlying data (row-major).
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the underlying data (row-major).
    ///
    /// Storage is shared between clones: a handle that is not the only one
    /// copies the buffer here, once, before handing out the view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the array and returns the flat data vector.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds or has the wrong rank.
    #[must_use]
    pub fn at(&self, idx: &[usize]) -> f32 {
        assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        self.data[shape::ravel(idx, &self.shape)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds or has the wrong rank.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let off = shape::ravel(idx, &self.shape);
        self.as_mut_slice()[off] = value;
    }

    /// The single element of a scalar or one-element array.
    ///
    /// # Panics
    ///
    /// Panics when the array holds more than one element.
    #[must_use]
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires exactly one element");
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns the same data viewed under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when element counts differ.
    pub fn reshape(&self, new_shape: &[usize]) -> Result<Self> {
        if shape::numel(new_shape) != self.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape::numel(new_shape),
                actual: self.numel(),
            });
        }
        Ok(Self { shape: new_shape.to_vec(), data: Arc::clone(&self.data) })
    }

    /// Transposes a rank-2 array.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose2d(&self) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose2d",
            });
        }
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; c * r];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(Self::owned(vec![c, r], out))
    }

    /// Materializes this array broadcast to `target`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when not broadcastable.
    pub fn broadcast_to(&self, target: &[usize]) -> Result<Self> {
        if !shape::broadcastable_to(&self.shape, target) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: target.to_vec(),
                op: "broadcast_to",
            });
        }
        if self.shape == target {
            return Ok(self.clone());
        }
        let bstr = shape::broadcast_strides(&self.shape, target);
        let tstr = shape::strides(target);
        let n = shape::numel(target);
        let mut data = vec![0.0; n];
        for (off, slot) in data.iter_mut().enumerate() {
            let mut rem = off;
            let mut src = 0;
            for (ts, bs) in tstr.iter().zip(&bstr) {
                let i = rem / ts;
                rem %= ts;
                src += i * bs;
            }
            *slot = self.data[src];
        }
        Ok(Self::owned(target.to_vec(), data))
    }

    /// Concatenates arrays along `axis`.
    ///
    /// # Errors
    ///
    /// Returns an error when `parts` is empty, the axis is invalid, or the
    /// non-concatenated extents differ.
    pub fn concat(parts: &[&Self], axis: usize) -> Result<Self> {
        let first =
            parts.first().ok_or_else(|| TensorError::InvalidArgument("concat of zero arrays".into()))?;
        let rank = first.rank();
        if axis >= rank {
            return Err(TensorError::InvalidAxis { axis, rank });
        }
        let mut total = 0;
        for p in parts {
            if p.rank() != rank {
                return Err(TensorError::RankMismatch {
                    expected: rank,
                    actual: p.rank(),
                    op: "concat",
                });
            }
            for (ax, (&a, &b)) in first.shape.iter().zip(&p.shape).enumerate() {
                if ax != axis && a != b {
                    return Err(TensorError::ShapeMismatch {
                        lhs: first.shape.clone(),
                        rhs: p.shape.clone(),
                        op: "concat",
                    });
                }
            }
            total += p.shape[axis];
        }
        let mut out_shape = first.shape.clone();
        out_shape[axis] = total;
        let outer: usize = first.shape[..axis].iter().product();
        let inner: usize = first.shape[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(shape::numel(&out_shape));
        for o in 0..outer {
            for p in parts {
                let ext = p.shape[axis];
                let start = o * ext * inner;
                data.extend_from_slice(&p.data[start..start + ext * inner]);
            }
        }
        Ok(Self::owned(out_shape, data))
    }

    /// Splits the array along `axis` into chunks of the given extents.
    ///
    /// # Errors
    ///
    /// Returns an error when the extents do not sum to the axis length or the
    /// axis is invalid.
    pub fn split(&self, axis: usize, extents: &[usize]) -> Result<Vec<Self>> {
        if axis >= self.rank() {
            return Err(TensorError::InvalidAxis { axis, rank: self.rank() });
        }
        if extents.iter().sum::<usize>() != self.shape[axis] {
            return Err(TensorError::InvalidArgument(format!(
                "split extents {:?} do not sum to axis length {}",
                extents, self.shape[axis]
            )));
        }
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let axis_len = self.shape[axis];
        let mut offsets = Vec::with_capacity(extents.len());
        let mut acc = 0;
        for &e in extents {
            offsets.push(acc);
            acc += e;
        }
        let mut out = Vec::with_capacity(extents.len());
        for (&ext, &off) in extents.iter().zip(&offsets) {
            let mut shp = self.shape.clone();
            shp[axis] = ext;
            let mut data = Vec::with_capacity(outer * ext * inner);
            for o in 0..outer {
                let start = (o * axis_len + off) * inner;
                data.extend_from_slice(&self.data[start..start + ext * inner]);
            }
            out.push(Self::owned(shp, data));
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Elementwise
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new array.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self::owned(self.shape.clone(), self.data.iter().map(|&x| f(x)).collect())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.as_mut_slice() {
            *x = f(*x);
        }
    }

    /// Combines two arrays elementwise with NumPy-style broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes do not
    /// broadcast together.
    pub fn zip_with(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape == other.shape {
            let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
            return Ok(Self::owned(self.shape.clone(), data));
        }
        let out_shape = shape::broadcast_shape(&self.shape, &other.shape)?;
        let astr = shape::broadcast_strides(&self.shape, &out_shape);
        let bstr = shape::broadcast_strides(&other.shape, &out_shape);
        let n = shape::numel(&out_shape);
        let mut data = vec![0.0; n];
        if n == 0 {
            return Ok(Self::owned(out_shape, data));
        }
        // Odometer iteration: the multi-index advances incrementally, so
        // per-element cost is O(1) instead of O(rank) divisions. The
        // innermost axis runs as a tight loop specialized on its two
        // stride patterns (dense/dense, dense/broadcast, ...), which is
        // what batch-norm-style `[N,C,H,W] ⊙ [1,C,1,1]` operands hit.
        let rank = out_shape.len();
        let w = out_shape[rank - 1];
        let (aw, bw) = (astr[rank - 1], bstr[rank - 1]);
        let mut idx = vec![0usize; rank.saturating_sub(1)];
        let (mut ai, mut bi) = (0usize, 0usize);
        for row in data.chunks_mut(w) {
            match (aw, bw) {
                (1, 1) => {
                    for ((slot, &a), &b) in
                        row.iter_mut().zip(&self.data[ai..ai + w]).zip(&other.data[bi..bi + w])
                    {
                        *slot = f(a, b);
                    }
                }
                (1, 0) => {
                    let b = other.data[bi];
                    for (slot, &a) in row.iter_mut().zip(&self.data[ai..ai + w]) {
                        *slot = f(a, b);
                    }
                }
                (0, 1) => {
                    let a = self.data[ai];
                    for (slot, &b) in row.iter_mut().zip(&other.data[bi..bi + w]) {
                        *slot = f(a, b);
                    }
                }
                _ => {
                    let (mut aj, mut bj) = (ai, bi);
                    for slot in row.iter_mut() {
                        *slot = f(self.data[aj], other.data[bj]);
                        aj += aw;
                        bj += bw;
                    }
                }
            }
            // Advance the outer dims (all but the innermost).
            for d in (0..rank - 1).rev() {
                idx[d] += 1;
                ai += astr[d];
                bi += bstr[d];
                if idx[d] < out_shape[d] {
                    break;
                }
                idx[d] = 0;
                ai -= astr[d] * out_shape[d];
                bi -= bstr[d] * out_shape[d];
            }
        }
        Ok(Self::owned(out_shape, data))
    }

    /// Elementwise sum (broadcasting).
    ///
    /// # Errors
    ///
    /// See [`NdArray::zip_with`].
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference (broadcasting).
    ///
    /// # Errors
    ///
    /// See [`NdArray::zip_with`].
    pub fn sub(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise product (broadcasting).
    ///
    /// # Errors
    ///
    /// See [`NdArray::zip_with`].
    pub fn mul(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise quotient (broadcasting).
    ///
    /// # Errors
    ///
    /// See [`NdArray::zip_with`].
    pub fn div(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a / b)
    }

    /// Adds a scalar to every element.
    #[must_use]
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    #[must_use]
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// In-place accumulate: `self += other` (shapes must match exactly).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Self) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op: "add_assign",
            });
        }
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics when the array is empty.
    #[must_use]
    pub fn mean(&self) -> f32 {
        assert!(!self.data.is_empty(), "mean of empty array");
        self.sum() / self.data.len() as f32
    }

    /// Population variance of all elements.
    ///
    /// # Panics
    ///
    /// Panics when the array is empty.
    #[must_use]
    pub fn var(&self) -> f32 {
        let m = self.mean();
        self.data.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / self.data.len() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics when the array is empty.
    #[must_use]
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics when the array is empty.
    #[must_use]
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sums over one axis.
    ///
    /// With `keepdim` the reduced axis is kept with extent 1 (useful for
    /// broadcasting the result back).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] for an out-of-range axis.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Result<Self> {
        if axis >= self.rank() {
            return Err(TensorError::InvalidAxis { axis, rank: self.rank() });
        }
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut data = vec![0.0; outer * inner];
        for o in 0..outer {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                for i in 0..inner {
                    data[o * inner + i] += self.data[base + i];
                }
            }
        }
        let mut shp: Vec<usize> = self.shape.clone();
        if keepdim {
            shp[axis] = 1;
        } else {
            shp.remove(axis);
        }
        Ok(Self::owned(shp, data))
    }

    /// Means over one axis (see [`NdArray::sum_axis`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] for an out-of-range axis.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Result<Self> {
        let n = self.shape.get(axis).copied().unwrap_or(0).max(1) as f32;
        Ok(self.sum_axis(axis, keepdim)?.scale(1.0 / n))
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product of two rank-2 arrays.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] for incompatible inner extents.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.rank(), op: "matmul" });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: other.rank(), op: "matmul" });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op: "matmul",
            });
        }
        let mut out = vec![0.0f32; m * n];
        crate::kernels::gemm(&self.data, &other.data, &mut out, m, k, n);
        Ok(Self::owned(vec![m, n], out))
    }

    /// Reduces a gradient computed at a broadcast shape back to `target` by
    /// summing over the broadcast axes. This is the adjoint of broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `target` is not
    /// broadcastable to this array's shape.
    pub fn reduce_to_shape(&self, target: &[usize]) -> Result<Self> {
        if self.shape == target {
            return Ok(self.clone());
        }
        if !shape::broadcastable_to(target, &self.shape) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: target.to_vec(),
                op: "reduce_to_shape",
            });
        }
        let mut cur = self.clone();
        // Collapse leading extra axes.
        while cur.rank() > target.len() {
            cur = cur.sum_axis(0, false)?;
        }
        // Sum over axes where target has extent 1.
        #[allow(clippy::needless_range_loop)] // ax indexes both target and cur.shape
        for ax in 0..target.len() {
            if target[ax] == 1 && cur.shape[ax] != 1 {
                cur = cur.sum_axis(ax, true)?;
            }
        }
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let z = NdArray::zeros(&[2, 3]);
        assert_eq!(z.shape(), &[2, 3]);
        assert_eq!(z.numel(), 6);
        assert_eq!(z.sum(), 0.0);

        let o = NdArray::ones(&[4]);
        assert_eq!(o.sum(), 4.0);

        let s = NdArray::scalar(7.5);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.item(), 7.5);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(NdArray::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(NdArray::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn indexing_roundtrip() {
        let mut a = NdArray::zeros(&[2, 3]);
        a.set(&[1, 2], 9.0);
        assert_eq!(a.at(&[1, 2]), 9.0);
        assert_eq!(a.as_slice()[5], 9.0);
    }

    #[test]
    fn elementwise_broadcasting() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = NdArray::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap();
        let c = a.add(&b).unwrap();
        assert_eq!(c.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);

        let col = NdArray::from_vec(vec![100.0, 200.0], &[2, 1]).unwrap();
        let d = a.add(&col).unwrap();
        assert_eq!(d.as_slice(), &[101.0, 102.0, 103.0, 204.0, 205.0, 206.0]);
    }

    #[test]
    fn reductions() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.var() - 1.25).abs() < 1e-6);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
    }

    #[test]
    fn display_formats_by_rank() {
        assert_eq!(format!("{}", NdArray::scalar(2.5)), "2.5");
        let v = NdArray::from_slice(&[1.0, 2.0]);
        assert_eq!(format!("{v}"), "[1.0000, 2.0000]");
        let m = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let text = format!("{m}");
        assert!(text.contains("[1.0000, 2.0000]"));
        assert!(text.contains("[3.0000, 4.0000]"));
        let t = NdArray::zeros(&[2, 2, 2]);
        assert!(format!("{t}").contains("8 elements"));
    }

    #[test]
    fn sum_axis_and_keepdim() {
        let a = NdArray::from_vec((1..=6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let s0 = a.sum_axis(0, false).unwrap();
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.as_slice(), &[5.0, 7.0, 9.0]);
        let s1 = a.sum_axis(1, true).unwrap();
        assert_eq!(s1.shape(), &[2, 1]);
        assert_eq!(s1.as_slice(), &[6.0, 15.0]);
        assert!(a.sum_axis(2, false).is_err());
    }

    #[test]
    fn mean_axis_matches_manual() {
        let a = NdArray::from_vec((1..=6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let m = a.mean_axis(1, false).unwrap();
        assert_eq!(m.as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn clones_share_storage_until_written() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let mut b = a.clone();
        let c = a.reshape(&[4]).unwrap();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        assert_eq!(a.as_slice().as_ptr(), c.as_slice().as_ptr());
        // The first write through a shared handle copies; nobody else sees it.
        b.as_mut_slice()[0] = 9.0;
        b.set(&[1, 1], 8.0);
        assert_eq!(b.as_slice(), &[9.0, 2.0, 3.0, 8.0]);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        // `x += x` reads the old values while writing the new ones.
        let mut d = a.clone();
        d.add_assign(&a).unwrap();
        assert_eq!(d.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        // A shared handle still yields its own vector.
        assert_eq!(c.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matmul_small() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = NdArray::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
        assert!(a.matmul(&NdArray::ones(&[3, 2])).is_err());
    }

    #[test]
    fn transpose2d_works() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose2d().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn concat_and_split_roundtrip() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = NdArray::from_vec(vec![5.0, 6.0], &[2, 1]).unwrap();
        let c = NdArray::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
        let parts = c.split(1, &[2, 1]).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn concat_rejects_bad_shapes() {
        let a = NdArray::zeros(&[2, 2]);
        let b = NdArray::zeros(&[3, 2]);
        assert!(NdArray::concat(&[&a, &b], 1).is_err());
        assert!(NdArray::concat(&[], 0).is_err());
    }

    #[test]
    fn broadcast_to_materializes() {
        let b = NdArray::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        let full = b.broadcast_to(&[2, 3]).unwrap();
        assert_eq!(full.as_slice(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        assert!(b.broadcast_to(&[3, 3]).is_err());
    }

    #[test]
    fn reduce_to_shape_is_broadcast_adjoint() {
        let g = NdArray::ones(&[2, 3]);
        let r = g.reduce_to_shape(&[3]).unwrap();
        assert_eq!(r.as_slice(), &[2.0, 2.0, 2.0]);
        let r2 = g.reduce_to_shape(&[2, 1]).unwrap();
        assert_eq!(r2.as_slice(), &[3.0, 3.0]);
        let r3 = g.reduce_to_shape(&[]).unwrap();
        assert_eq!(r3.item(), 6.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = NdArray::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let b = a.reshape(&[3, 2]).unwrap();
        assert_eq!(b.as_slice(), a.as_slice());
        assert!(a.reshape(&[4]).is_err());
    }
}
