//! The Adam optimizer for network training.

use neurfill_tensor::{NdArray, Tensor};
use std::collections::HashMap;

/// A positional snapshot of an [`Adam`] optimizer's internal state.
///
/// Moments are stored in the order of the optimizer's parameter list (the
/// same order as `Module::parameters`), with `None` for parameters that
/// have not received a gradient yet — tensor ids are process-local, so
/// persistence must go through positions, not ids.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Number of steps taken (the bias-correction clock).
    pub t: u32,
    /// First-moment estimate per parameter, positionally.
    pub m: Vec<Option<NdArray>>,
    /// Second-moment estimate per parameter, positionally.
    pub v: Vec<Option<NdArray>>,
}

/// Adam optimizer (Kingma & Ba), the default for UNet pre-training.
#[derive(Debug)]
pub struct Adam {
    params: Vec<Tensor>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: HashMap<u64, NdArray>,
    v: HashMap<u64, NdArray>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard β/ε defaults.
    #[must_use]
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        Self {
            params,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// Current learning rate.
    #[must_use]
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Snapshots the optimizer state (step count and moments) positionally.
    #[must_use]
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.params.iter().map(|p| self.m.get(&p.id()).cloned()).collect(),
            v: self.params.iter().map(|p| self.v.get(&p.id()).cloned()).collect(),
        }
    }

    /// Restores a snapshot taken by [`Adam::export_state`].
    ///
    /// After this call the optimizer continues exactly where the snapshot
    /// was taken: the next [`Adam::step`] is bit-identical to the one
    /// an uninterrupted run would have made.
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot's parameter count or any moment
    /// shape disagrees with this optimizer's parameters.
    pub fn load_state(&mut self, state: AdamState) -> std::result::Result<(), String> {
        if state.m.len() != self.params.len() || state.v.len() != self.params.len() {
            return Err(format!(
                "adam state holds {} parameters but optimizer has {}",
                state.m.len(),
                self.params.len()
            ));
        }
        for moments in [&state.m, &state.v] {
            for (p, moment) in self.params.iter().zip(moments) {
                if let Some(arr) = moment {
                    if arr.shape() != p.shape() {
                        return Err(format!(
                            "adam moment shape {:?} != parameter shape {:?}",
                            arr.shape(),
                            p.shape()
                        ));
                    }
                }
            }
        }
        self.t = state.t;
        self.m.clear();
        self.v.clear();
        for (p, m) in self.params.iter().zip(state.m) {
            if let Some(arr) = m {
                self.m.insert(p.id(), arr);
            }
        }
        for (p, v) in self.params.iter().zip(state.v) {
            if let Some(arr) = v {
                self.v.insert(p.id(), arr);
            }
        }
        Ok(())
    }

    /// Applies one update step using the gradients currently stored on the
    /// parameters, then leaves the gradients in place (call
    /// [`Adam::zero_grad`] or `Module::zero_grad` before the next backward
    /// pass).
    // Moment buffers are created with their gradient's shape, so these
    // combines cannot mismatch — the expects assert an internal invariant.
    #[allow(clippy::expect_used)]
    pub fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in &self.params {
            let Some(g) = p.grad() else { continue };
            let m = self.m.entry(p.id()).or_insert_with(|| NdArray::zeros(g.shape()));
            let v = self.v.entry(p.id()).or_insert_with(|| NdArray::zeros(g.shape()));
            *m = m.scale(self.beta1).add(&g.scale(1.0 - self.beta1)).expect("shapes");
            *v = v.scale(self.beta2).add(&g.map(|x| x * x).scale(1.0 - self.beta2)).expect("shapes");
            let m_hat = m.scale(1.0 / bc1);
            let v_hat = v.scale(1.0 / bc2);
            let eps = self.eps;
            let lr = self.lr;
            let update = m_hat.zip_with(&v_hat, |mh, vh| lr * mh / (vh.sqrt() + eps)).expect("shapes");
            p.update_data(|d| {
                *d = d.sub(&update).expect("shapes");
            });
        }
    }

    /// Clears the gradients of all managed parameters.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(w) = (w - 3)² with Adam at `lr` and returns `w`.
    fn quadratic_descent(lr: f32, steps: usize) -> f32 {
        let w = Tensor::parameter(NdArray::from_slice(&[0.0]));
        let mut opt = Adam::new(vec![w.clone()], lr);
        for _ in 0..steps {
            opt.zero_grad();
            let loss = w.add_scalar(-3.0).square().sum();
            loss.backward().unwrap();
            opt.step();
        }
        w.value().as_slice()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = quadratic_descent(0.2, 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_state_roundtrip_resumes_bit_exactly() {
        // Two optimizers over identical parameter values: run A for 5 steps,
        // snapshot at step 3 into B, and check steps 4–5 agree bit-exactly.
        let run = |resume_at: Option<usize>| -> Vec<f32> {
            let w = Tensor::parameter(NdArray::from_slice(&[0.0, 1.0, -2.0]));
            let mut opt = Adam::new(vec![w.clone()], 0.1);
            let mut snapshot = None;
            for step in 0..5 {
                if Some(step) == resume_at {
                    let state = snapshot.take().expect("snapshot taken earlier");
                    let mut fresh = Adam::new(vec![w.clone()], 0.1);
                    fresh.load_state(state).unwrap();
                    opt = fresh;
                }
                opt.zero_grad();
                let loss = w.add_scalar(-3.0).square().sum();
                loss.backward().unwrap();
                opt.step();
                if step == 2 {
                    snapshot = Some(opt.export_state());
                }
            }
            w.value().as_slice().to_vec()
        };
        assert_eq!(run(None), run(Some(3)));
    }

    #[test]
    fn adam_load_state_rejects_mismatches() {
        let w = Tensor::parameter(NdArray::from_slice(&[0.0]));
        let mut opt = Adam::new(vec![w], 0.1);
        let bad_count = AdamState { t: 1, m: vec![], v: vec![] };
        assert!(opt.load_state(bad_count).is_err());
        let bad_shape =
            AdamState { t: 1, m: vec![Some(NdArray::zeros(&[2]))], v: vec![Some(NdArray::zeros(&[2]))] };
        assert!(opt.load_state(bad_shape).is_err());
    }

    #[test]
    fn step_without_grad_is_noop() {
        let w = Tensor::parameter(NdArray::from_slice(&[1.0]));
        let mut opt = Adam::new(vec![w.clone()], 0.1);
        opt.step();
        assert_eq!(w.value().as_slice(), &[1.0]);
    }
}
