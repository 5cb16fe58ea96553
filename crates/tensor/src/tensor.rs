//! [`Tensor`]: a reference-counted handle into a dynamically built
//! reverse-mode autodiff graph.
//!
//! A tensor wraps an [`NdArray`] value plus optional gradient state. Graphs
//! are built eagerly by the operations in [`crate::ops`]; calling
//! [`Tensor::backward`] on a scalar result propagates gradients to every
//! reachable leaf created with `requires_grad = true`.
//!
//! Tensors are deliberately *not* `Send`/`Sync` (they share graph nodes via
//! `Rc<RefCell<..>>`); cross-thread work should exchange plain [`NdArray`]s.

use crate::array::NdArray;
use crate::error::Result;
use std::cell::{Cell, Ref, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Backward function of one graph node.
///
/// Implementations capture whatever forward values they need and map the
/// gradient flowing into the node onto gradients for each parent (aligned
/// with the `parents` vector; `None` marks a parent that gets no gradient).
pub(crate) trait GradFn {
    /// Computes parent gradients given the node's output gradient.
    ///
    /// `needs[i]` is parent `i`'s `requires_grad`: a gradient returned for
    /// a parent with `needs[i] == false` is dropped by the engine, so an
    /// operation whose per-parent gradients cost separate work (a GEMM, a
    /// broadcast reduction) returns `None` there without computing it.
    fn backward(&self, grad: &NdArray, needs: &[bool]) -> Vec<Option<NdArray>>;
    /// Operation name for diagnostics.
    fn name(&self) -> &'static str;
}

/// The gradient `compute` yields when its parent needs one (an error
/// becomes `None`, as everywhere in [`GradFn::backward`]); not called
/// otherwise.
pub(crate) fn grad_if(need: bool, compute: impl FnOnce() -> Result<NdArray>) -> Option<NdArray> {
    if need {
        compute().ok()
    } else {
        None
    }
}

pub(crate) struct Inner {
    id: u64,
    data: RefCell<NdArray>,
    grad: RefCell<Option<NdArray>>,
    parents: Vec<Tensor>,
    grad_fn: Option<Box<dyn GradFn>>,
    requires_grad: Cell<bool>,
}

/// A node in the autodiff graph holding an [`NdArray`] value.
///
/// Cloning a `Tensor` is cheap: it clones the handle, not the data.
///
/// # Examples
///
/// ```
/// use neurfill_tensor::{NdArray, Tensor};
/// let x = Tensor::parameter(NdArray::from_slice(&[2.0, 3.0]));
/// let y = x.mul(&x)?.sum(); // y = Σ x²
/// y.backward()?;
/// assert_eq!(x.grad().unwrap().as_slice(), &[4.0, 6.0]); // dy/dx = 2x
/// # Ok::<(), neurfill_tensor::TensorError>(())
/// ```
#[derive(Clone)]
pub struct Tensor(pub(crate) Rc<Inner>);

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor(id={}, shape={:?}, requires_grad={}, op={})",
            self.0.id,
            self.shape(),
            self.requires_grad(),
            self.0.grad_fn.as_ref().map_or("leaf", |g| g.name()),
        )
    }
}

impl Tensor {
    /// Creates a constant leaf tensor (no gradient will be tracked).
    #[must_use]
    pub fn constant(data: NdArray) -> Self {
        Self::leaf(data, false)
    }

    /// Creates a trainable leaf tensor (`requires_grad = true`).
    #[must_use]
    pub fn parameter(data: NdArray) -> Self {
        Self::leaf(data, true)
    }

    /// Creates a scalar constant.
    #[must_use]
    pub fn scalar(value: f32) -> Self {
        Self::constant(NdArray::scalar(value))
    }

    fn leaf(data: NdArray, requires_grad: bool) -> Self {
        Tensor(Rc::new(Inner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            data: RefCell::new(data),
            grad: RefCell::new(None),
            parents: Vec::new(),
            grad_fn: None,
            requires_grad: Cell::new(requires_grad),
        }))
    }

    /// Creates an interior node produced by an operation.
    pub(crate) fn from_op(data: NdArray, parents: Vec<Tensor>, grad_fn: Box<dyn GradFn>) -> Self {
        let requires_grad = parents.iter().any(Tensor::requires_grad);
        if !requires_grad {
            // Dead branch of the graph: keep it a constant so backward skips it.
            return Self::leaf(data, false);
        }
        Tensor(Rc::new(Inner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            data: RefCell::new(data),
            grad: RefCell::new(None),
            parents,
            grad_fn: Some(grad_fn),
            requires_grad: Cell::new(true),
        }))
    }

    /// Unique node id (diagnostics only).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Whether gradients flow into this tensor.
    #[must_use]
    pub fn requires_grad(&self) -> bool {
        self.0.requires_grad.get()
    }

    /// Freezes (`false`) or thaws (`true`) a leaf. A frozen leaf is a
    /// constant to every graph built or differentiated afterwards: no
    /// gradient is computed for it or accumulated into it. Thawing does
    /// not reach into graphs built while the leaf was frozen.
    ///
    /// # Panics
    ///
    /// Panics when called on the result of a differentiable operation.
    pub fn set_requires_grad(&self, requires_grad: bool) {
        assert!(self.0.grad_fn.is_none(), "set_requires_grad on a non-leaf tensor");
        self.0.requires_grad.set(requires_grad);
    }

    /// Borrows the value.
    ///
    /// # Panics
    ///
    /// Panics if the value is currently mutably borrowed (e.g. mid-update).
    #[must_use]
    pub fn data(&self) -> Ref<'_, NdArray> {
        self.0.data.borrow()
    }

    /// The value as an array of its own: a handle to the node's buffer
    /// (storage is shared, copy-on-write), not a copy of it.
    #[must_use]
    pub fn value(&self) -> NdArray {
        self.0.data.borrow().clone()
    }

    /// Shape of the value.
    #[must_use]
    pub fn shape(&self) -> Vec<usize> {
        self.0.data.borrow().shape().to_vec()
    }

    /// Number of elements of the value.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.0.data.borrow().numel()
    }

    /// The single element of a scalar tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor holds more than one element.
    #[must_use]
    pub fn item(&self) -> f32 {
        self.0.data.borrow().item()
    }

    /// Clones the accumulated gradient, if any.
    #[must_use]
    pub fn grad(&self) -> Option<NdArray> {
        self.0.grad.borrow().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.0.grad.borrow_mut() = None;
    }

    /// Replaces the accumulated gradient (used by gradient-clipping and
    /// similar optimizer-side utilities).
    pub fn set_grad(&self, grad: NdArray) {
        *self.0.grad.borrow_mut() = Some(grad);
    }

    /// Replaces the value in place (used by optimizers; does not touch the
    /// graph).
    pub fn set_data(&self, data: NdArray) {
        *self.0.data.borrow_mut() = data;
    }

    /// Applies `f` to the value in place (used by optimizers).
    pub fn update_data(&self, f: impl FnOnce(&mut NdArray)) {
        f(&mut self.0.data.borrow_mut());
    }

    /// Returns a new constant leaf holding a copy of this tensor's value,
    /// cut off from the graph.
    #[must_use]
    pub fn detach(&self) -> Tensor {
        Tensor::constant(self.value())
    }

    /// Runs reverse-mode differentiation seeded with `∂out/∂out = 1`.
    ///
    /// # Errors
    ///
    /// Returns an error when the tensor is not a scalar; use
    /// [`Tensor::backward_with`] to seed non-scalar outputs.
    pub fn backward(&self) -> Result<()> {
        if self.numel() != 1 {
            return Err(crate::error::TensorError::InvalidArgument(format!(
                "backward() requires a scalar output, got shape {:?}; use backward_with",
                self.shape()
            )));
        }
        let seed = NdArray::full(&self.shape(), 1.0);
        self.backward_with(seed)
    }

    /// Runs reverse-mode differentiation with an explicit output gradient.
    ///
    /// # Errors
    ///
    /// Returns an error when `seed`'s shape differs from the output shape.
    pub fn backward_with(&self, seed: NdArray) -> Result<()> {
        if seed.shape() != self.shape().as_slice() {
            return Err(crate::error::TensorError::ShapeMismatch {
                lhs: seed.shape().to_vec(),
                rhs: self.shape(),
                op: "backward_with",
            });
        }
        let order = self.topo_order();
        accumulate_grad(self, seed)?;
        for node in order.iter().rev() {
            let Some(grad_fn) = node.0.grad_fn.as_ref() else {
                continue;
            };
            // Borrowed, not copied: a node is never its own parent, so the
            // parents' gradient slots written below are other cells.
            let grad = node.0.grad.borrow();
            let Some(grad) = grad.as_ref() else { continue };
            let needs: Vec<bool> = node.0.parents.iter().map(Tensor::requires_grad).collect();
            let parent_grads = grad_fn.backward(grad, &needs);
            debug_assert_eq!(parent_grads.len(), node.0.parents.len(), "{}", grad_fn.name());
            for ((parent, pg), need) in node.0.parents.iter().zip(parent_grads).zip(needs) {
                if let Some(pg) = pg {
                    if need {
                        accumulate_grad(parent, pg)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Post-order (parents before children) list of the reachable subgraph
    /// that requires gradients.
    fn topo_order(&self) -> Vec<Tensor> {
        let mut order = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // Iterative DFS to survive deep graphs (e.g. many simulator steps).
        enum Frame {
            Enter(Tensor),
            Exit(Tensor),
        }
        let mut stack = vec![Frame::Enter(self.clone())];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(t) => {
                    if !t.requires_grad() || !visited.insert(t.0.id) {
                        continue;
                    }
                    stack.push(Frame::Exit(t.clone()));
                    for p in &t.0.parents {
                        stack.push(Frame::Enter(p.clone()));
                    }
                }
                Frame::Exit(t) => order.push(t),
            }
        }
        order
    }
}

fn accumulate_grad(t: &Tensor, g: NdArray) -> Result<()> {
    let mut slot = t.0.grad.borrow_mut();
    match slot.as_mut() {
        Some(acc) => acc.add_assign(&g)?,
        None => *slot = Some(g),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_tracks_no_grad() {
        let c = Tensor::constant(NdArray::from_slice(&[1.0, 2.0]));
        assert!(!c.requires_grad());
        let s = c.sum();
        assert!(!s.requires_grad());
    }

    #[test]
    fn parameter_receives_gradient() {
        let x = Tensor::parameter(NdArray::from_slice(&[1.0, 2.0, 3.0]));
        let y = x.sum();
        y.backward().unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn backward_requires_scalar() {
        let x = Tensor::parameter(NdArray::from_slice(&[1.0, 2.0]));
        assert!(x.backward().is_err());
        x.backward_with(NdArray::from_slice(&[1.0, 0.0])).unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0, 0.0]);
    }

    #[test]
    fn gradients_accumulate_across_uses() {
        let x = Tensor::parameter(NdArray::from_slice(&[2.0]));
        // y = x + x ⇒ dy/dx = 2
        let y = x.add(&x).unwrap().sum();
        y.backward().unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn zero_grad_resets() {
        let x = Tensor::parameter(NdArray::from_slice(&[2.0]));
        x.sum().backward().unwrap();
        assert!(x.grad().is_some());
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn detach_cuts_graph() {
        let x = Tensor::parameter(NdArray::from_slice(&[3.0]));
        let d = x.mul(&x).unwrap().detach();
        let y = d.sum();
        assert!(!y.requires_grad());
        y.backward_with(NdArray::scalar(1.0)).ok();
        assert!(x.grad().is_none());
    }

    #[test]
    fn diamond_graph_accumulates_once_per_path() {
        // z = (x*x) + (x*x) built from the *same* intermediate: dz/dx = 4x.
        let x = Tensor::parameter(NdArray::from_slice(&[3.0]));
        let sq = x.mul(&x).unwrap();
        let z = sq.add(&sq).unwrap().sum();
        z.backward().unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[12.0]);
    }

    #[test]
    fn set_data_updates_value() {
        let x = Tensor::parameter(NdArray::from_slice(&[1.0]));
        x.set_data(NdArray::from_slice(&[5.0]));
        assert_eq!(x.value().as_slice(), &[5.0]);
    }
}
