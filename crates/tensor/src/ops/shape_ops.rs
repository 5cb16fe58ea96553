//! Differentiable shape manipulation: reshape, concat and nearest-neighbour
//! upsampling (needed for the UNet decoder and skip connections).

use crate::array::NdArray;
use crate::error::{Result, TensorError};
use crate::tensor::{GradFn, Tensor};

struct ReshapeGrad {
    in_shape: Vec<usize>,
}

impl GradFn for ReshapeGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        vec![grad.reshape(&self.in_shape).ok()]
    }
    fn name(&self) -> &'static str {
        "reshape"
    }
}

struct ConcatGrad {
    axis: usize,
    extents: Vec<usize>,
}

impl GradFn for ConcatGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        match grad.split(self.axis, &self.extents) {
            Ok(parts) => parts.into_iter().map(Some).collect(),
            Err(_) => vec![None; self.extents.len()],
        }
    }
    fn name(&self) -> &'static str {
        "concat"
    }
}

struct SliceAxisGrad {
    in_shape: Vec<usize>,
    axis: usize,
    start: usize,
}

impl GradFn for SliceAxisGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        // Scatter the slice gradient back into a zero tensor.
        let mut out = NdArray::zeros(&self.in_shape);
        let outer: usize = self.in_shape[..self.axis].iter().product();
        let inner: usize = self.in_shape[self.axis + 1..].iter().product();
        let axis_len = self.in_shape[self.axis];
        let slice_len = grad.shape()[self.axis];
        let g = grad.as_slice();
        let o = out.as_mut_slice();
        for outer_i in 0..outer {
            for k in 0..slice_len {
                let src = (outer_i * slice_len + k) * inner;
                let dst = (outer_i * axis_len + self.start + k) * inner;
                o[dst..dst + inner].copy_from_slice(&g[src..src + inner]);
            }
        }
        vec![Some(out)]
    }
    fn name(&self) -> &'static str {
        "slice_axis"
    }
}

struct TransposeGrad;

impl GradFn for TransposeGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        vec![grad.transpose2d().ok()]
    }
    fn name(&self) -> &'static str {
        "transpose2d"
    }
}

struct Pad2dGrad {
    in_shape: Vec<usize>,
    pad: usize,
}

impl GradFn for Pad2dGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        // Crop the interior back out.
        let (n, c, h, w) = (self.in_shape[0], self.in_shape[1], self.in_shape[2], self.in_shape[3]);
        let p = self.pad;
        let (hp, wp) = (h + 2 * p, w + 2 * p);
        let g = grad.as_slice();
        let mut out = NdArray::zeros(&self.in_shape);
        let o = out.as_mut_slice();
        for nc in 0..n * c {
            for y in 0..h {
                let src = nc * hp * wp + (y + p) * wp + p;
                let dst = nc * h * w + y * w;
                o[dst..dst + w].copy_from_slice(&g[src..src + w]);
            }
        }
        vec![Some(out)]
    }
    fn name(&self) -> &'static str {
        "pad2d"
    }
}

struct UpsampleGrad {
    in_shape: Vec<usize>,
    scale: usize,
}

impl GradFn for UpsampleGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        // Each input pixel fans out to a scale×scale block: sum the block.
        let (n, c, h, w) = (self.in_shape[0], self.in_shape[1], self.in_shape[2], self.in_shape[3]);
        let s = self.scale;
        let (ho, wo) = (h * s, w * s);
        let g = grad.as_slice();
        let mut out = NdArray::zeros(&self.in_shape);
        let o = out.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let in_base = (ni * c + ci) * h * w;
                let out_base = (ni * c + ci) * ho * wo;
                for yi in 0..h {
                    for xi in 0..w {
                        let mut acc = 0.0;
                        for dy in 0..s {
                            let row = out_base + (yi * s + dy) * wo + xi * s;
                            for dx in 0..s {
                                acc += g[row + dx];
                            }
                        }
                        o[in_base + yi * w + xi] += acc;
                    }
                }
            }
        }
        vec![Some(out)]
    }
    fn name(&self) -> &'static str {
        "upsample_nearest2d"
    }
}

/// Raw nearest-neighbour upsampling kernel on [`NdArray`] (NCHW).
///
/// # Errors
///
/// Returns an error when `input` is not rank 4 or `scale` is zero.
pub fn upsample_nearest2d_forward(input: &NdArray, scale: usize) -> Result<NdArray> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
            op: "upsample_nearest2d",
        });
    }
    if scale == 0 {
        return Err(TensorError::InvalidArgument("upsample scale must be >= 1".into()));
    }
    let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
    let (ho, wo) = (h * scale, w * scale);
    let x = input.as_slice();
    let mut out = NdArray::zeros(&[n, c, ho, wo]);
    let o = out.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            let in_base = (ni * c + ci) * h * w;
            let out_base = (ni * c + ci) * ho * wo;
            for yo in 0..ho {
                let yi = yo / scale;
                let in_row = in_base + yi * w;
                let out_row = out_base + yo * wo;
                for xo in 0..wo {
                    o[out_row + xo] = x[in_row + xo / scale];
                }
            }
        }
    }
    Ok(out)
}

impl Tensor {
    /// Views the tensor under a new shape.
    ///
    /// # Errors
    ///
    /// Returns an error when element counts differ.
    pub fn reshape(&self, new_shape: &[usize]) -> Result<Tensor> {
        let out = self.data().reshape(new_shape)?;
        Ok(Tensor::from_op(out, vec![self.clone()], Box::new(ReshapeGrad { in_shape: self.shape() })))
    }

    /// Concatenates tensors along `axis` (e.g. UNet skip connections along
    /// the channel axis).
    ///
    /// # Errors
    ///
    /// Returns an error when `parts` is empty or shapes are incompatible.
    pub fn concat(parts: &[Tensor], axis: usize) -> Result<Tensor> {
        let arrays: Vec<NdArray> = parts.iter().map(Tensor::value).collect();
        let refs: Vec<&NdArray> = arrays.iter().collect();
        let out = NdArray::concat(&refs, axis)?;
        let extents = arrays.iter().map(|a| a.shape()[axis]).collect();
        Ok(Tensor::from_op(out, parts.to_vec(), Box::new(ConcatGrad { axis, extents })))
    }

    /// Differentiable slice of `len` entries starting at `start` along
    /// `axis`.
    ///
    /// # Errors
    ///
    /// Returns an error when the axis or range is out of bounds.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Result<Tensor> {
        let shape = self.shape();
        if axis >= shape.len() {
            return Err(TensorError::InvalidAxis { axis, rank: shape.len() });
        }
        if start + len > shape[axis] || len == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "slice [{start}, {}) out of range for axis extent {}",
                start + len,
                shape[axis]
            )));
        }
        // Reuse split: [start, len, rest].
        let mut extents = Vec::new();
        if start > 0 {
            extents.push(start);
        }
        extents.push(len);
        if start + len < shape[axis] {
            extents.push(shape[axis] - start - len);
        }
        let parts = self.data().split(axis, &extents)?;
        let picked = if start > 0 { parts[1].clone() } else { parts[0].clone() };
        Ok(Tensor::from_op(
            picked,
            vec![self.clone()],
            Box::new(SliceAxisGrad { in_shape: shape, axis, start }),
        ))
    }

    /// Differentiable matrix transpose.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices.
    pub fn transpose2d(&self) -> Result<Tensor> {
        let out = self.data().transpose2d()?;
        Ok(Tensor::from_op(out, vec![self.clone()], Box::new(TransposeGrad)))
    }

    /// Zero-pads the spatial dims of an NCHW tensor by `pad` on each side.
    ///
    /// # Errors
    ///
    /// Returns an error when the tensor is not rank 4.
    pub fn pad2d(&self, pad: usize) -> Result<Tensor> {
        let shape = self.shape();
        if shape.len() != 4 {
            return Err(TensorError::RankMismatch { expected: 4, actual: shape.len(), op: "pad2d" });
        }
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let x = self.value();
        let xs = x.as_slice();
        let mut out = NdArray::zeros(&[n, c, hp, wp]);
        let o = out.as_mut_slice();
        for nc in 0..n * c {
            for y in 0..h {
                let src = nc * h * w + y * w;
                let dst = nc * hp * wp + (y + pad) * wp + pad;
                o[dst..dst + w].copy_from_slice(&xs[src..src + w]);
            }
        }
        Ok(Tensor::from_op(out, vec![self.clone()], Box::new(Pad2dGrad { in_shape: shape, pad })))
    }

    /// Nearest-neighbour upsampling of an NCHW tensor by an integer factor.
    ///
    /// # Errors
    ///
    /// Returns an error when the tensor is not rank 4 or `scale` is zero.
    pub fn upsample_nearest2d(&self, scale: usize) -> Result<Tensor> {
        let out = upsample_nearest2d_forward(&self.data(), scale)?;
        Ok(Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(UpsampleGrad { in_shape: self.shape(), scale }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_grad_reshapes_back() {
        let x = Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let y = x.reshape(&[4]).unwrap();
        y.sum().backward().unwrap();
        assert_eq!(x.grad().unwrap().shape(), &[2, 2]);
    }

    #[test]
    fn concat_splits_grad() {
        let a = Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap());
        let b = Tensor::parameter(NdArray::from_vec(vec![3.0], &[1, 1]).unwrap());
        let c = Tensor::concat(&[a.clone(), b.clone()], 1).unwrap();
        assert_eq!(c.shape(), vec![1, 3]);
        // Weight each output column differently to verify the split.
        let w = Tensor::constant(NdArray::from_vec(vec![1.0, 10.0, 100.0], &[1, 3]).unwrap());
        c.mul(&w).unwrap().sum().backward().unwrap();
        assert_eq!(a.grad().unwrap().as_slice(), &[1.0, 10.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[100.0]);
    }

    #[test]
    fn upsample_forward_values() {
        let x = Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap());
        let y = x.upsample_nearest2d(2).unwrap();
        assert_eq!(y.shape(), vec![1, 1, 4, 4]);
        let v = y.value();
        assert_eq!(v.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(v.at(&[0, 0, 0, 1]), 1.0);
        assert_eq!(v.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(v.at(&[0, 0, 3, 3]), 4.0);
    }

    #[test]
    fn upsample_grad_sums_blocks() {
        let x = Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap());
        let y = x.upsample_nearest2d(2).unwrap();
        y.sum().backward().unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn upsample_rejects_bad_rank() {
        let x = Tensor::constant(NdArray::zeros(&[2, 2]));
        assert!(x.upsample_nearest2d(2).is_err());
    }

    #[test]
    fn slice_axis_forward_and_grad() {
        let x =
            Tensor::parameter(NdArray::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap());
        let s = x.slice_axis(1, 1, 2).unwrap();
        assert_eq!(s.shape(), vec![3, 2]);
        assert_eq!(s.value().as_slice(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
        s.sum().backward().unwrap();
        let g = x.grad().unwrap();
        assert_eq!(g.as_slice(), &[0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn slice_axis_bounds_checks() {
        let x = Tensor::constant(NdArray::zeros(&[2, 3]));
        assert!(x.slice_axis(2, 0, 1).is_err());
        assert!(x.slice_axis(1, 2, 2).is_err());
        assert!(x.slice_axis(0, 0, 0).is_err());
        // Full-extent slice is fine.
        assert!(x.slice_axis(1, 0, 3).is_ok());
    }

    #[test]
    fn transpose_forward_and_grad() {
        let x =
            Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap());
        let t = x.transpose2d().unwrap();
        assert_eq!(t.shape(), vec![3, 2]);
        // Weight output elements distinctly so the gradient transposes back.
        let w = Tensor::constant(NdArray::from_fn(&[3, 2], |i| (i + 1) as f32));
        t.mul(&w).unwrap().sum().backward().unwrap();
        let g = x.grad().unwrap();
        // w (3x2 row-major) transposed into x's layout (2x3).
        assert_eq!(g.as_slice(), &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn pad2d_forward_places_interior() {
        let x = Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap());
        let p = x.pad2d(1).unwrap();
        assert_eq!(p.shape(), vec![1, 1, 4, 4]);
        let v = p.value();
        assert_eq!(v.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(v.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(v.at(&[0, 0, 2, 2]), 4.0);
        assert_eq!(v.sum(), 10.0);
    }

    #[test]
    fn pad2d_grad_crops_interior() {
        let x = Tensor::parameter(NdArray::ones(&[1, 1, 2, 2]));
        let p = x.pad2d(2).unwrap();
        p.sum().backward().unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0; 4]);
    }

    #[test]
    fn pad2d_rejects_bad_rank() {
        let x = Tensor::constant(NdArray::zeros(&[3, 3]));
        assert!(x.pad2d(1).is_err());
    }
}
