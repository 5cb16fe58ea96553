//! The [`Module`] abstraction shared by all layers and networks.

use neurfill_tensor::{NdArray, Result, Tensor};
use std::cell::RefCell;
use std::rc::Rc;

/// A shared handle to non-trainable module state (e.g. batch-norm running
/// statistics) that must survive serialization round-trips.
pub type Buffer = Rc<RefCell<NdArray>>;

/// A differentiable component: maps one tensor to another and exposes its
/// trainable parameters.
///
/// Modules take `&self` in [`Module::forward`]; stateful layers (e.g.
/// batch-norm running statistics) use interior mutability so that networks
/// compose without threading `&mut` everywhere.
pub trait Module {
    /// Applies the module to an input tensor.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the
    /// module's configuration.
    fn forward(&self, input: &Tensor) -> Result<Tensor>;

    /// Applies the module to a raw array: [`Module::forward`] on a
    /// constant tensor, value taken — there is no second definition of
    /// any layer.
    ///
    /// On a frozen module (every parameter `set_requires_grad(false)`)
    /// nothing is taped: a node none of whose parents needs a gradient is
    /// a leaf. On a trainable one the nodes are built and dropped with the
    /// result.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the
    /// module's configuration.
    fn infer(&self, input: &NdArray) -> Result<NdArray> {
        self.forward(&Tensor::constant(input.clone())).map(|t| t.value())
    }

    /// All trainable parameters, in a stable order.
    ///
    /// The order is part of the serialization contract: weights saved by
    /// [`crate::serialize::save_parameters`] are restored positionally.
    fn parameters(&self) -> Vec<Tensor>;

    /// Non-trainable state carried by the module (running statistics),
    /// in a stable order. Serialized alongside parameters.
    fn buffers(&self) -> Vec<Buffer> {
        Vec::new()
    }

    /// Switches between training and evaluation behaviour.
    ///
    /// The default implementation does nothing; layers with mode-dependent
    /// behaviour (batch-norm) override it.
    fn set_training(&self, _training: bool) {}

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(Tensor::numel).sum()
    }

    /// Clears the gradients of every parameter.
    fn zero_grad(&self) {
        for p in self.parameters() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_tensor::NdArray;

    struct Doubler;

    impl Module for Doubler {
        fn forward(&self, input: &Tensor) -> Result<Tensor> {
            Ok(input.scale(2.0))
        }
        fn parameters(&self) -> Vec<Tensor> {
            Vec::new()
        }
    }

    #[test]
    fn default_num_parameters_is_zero_for_stateless() {
        let m = Doubler;
        assert_eq!(m.num_parameters(), 0);
        let y = m.forward(&Tensor::constant(NdArray::from_slice(&[1.0]))).unwrap();
        assert_eq!(y.value().as_slice(), &[2.0]);
    }
}
