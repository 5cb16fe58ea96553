//! Finite-difference gradients of black-box objectives — the conventional
//! gradient path of model-based filling (paper §III) whose cost NeurFill's
//! backward propagation eliminates.
//!
//! A forward difference needs `dim + 1` objective evaluations, each of
//! which invokes the full-chip simulator; this is exactly the bottleneck
//! quantified in the paper's Table I.

use crossbeam::thread;

/// Finite-difference gradient estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiniteDifference {
    /// Perturbation size.
    pub epsilon: f64,
    /// Worker threads (1 = sequential; the paper's baseline used 64 cores).
    pub threads: usize,
}

impl Default for FiniteDifference {
    fn default() -> Self {
        Self { epsilon: 1e-3, threads: 1 }
    }
}

impl FiniteDifference {
    /// Creates an estimator with the given perturbation and thread count.
    ///
    /// # Panics
    ///
    /// Panics when `epsilon` is not positive or `threads` is zero.
    #[must_use]
    pub fn new(epsilon: f64, threads: usize) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert!(threads > 0, "need at least one thread");
        Self { epsilon, threads }
    }

    /// Number of objective evaluations a forward-difference gradient of the
    /// given dimension costs (the Table I accounting).
    #[must_use]
    pub fn forward_evaluations(dim: usize) -> usize {
        dim + 1
    }

    /// Forward-difference gradient `(f(x + ε·e_i) − f(x)) / ε`.
    ///
    /// `f` is evaluated `dim + 1` times; with `threads > 1` the per-element
    /// evaluations run on a crossbeam scoped thread pool.
    #[must_use]
    pub fn gradient(&self, x: &[f64], f: &(dyn Fn(&[f64]) -> f64 + Sync)) -> Vec<f64> {
        let f0 = f(x);
        self.map_indices(x.len(), &|i| {
            let mut xp = x.to_vec();
            xp[i] += self.epsilon;
            (f(&xp) - f0) / self.epsilon
        })
    }

    /// Central-difference gradient `(f(x+ε·e_i) − f(x−ε·e_i)) / 2ε`
    /// (2·dim evaluations; more accurate, used for verification), on the
    /// caller's thread for objectives that are not `Sync` (e.g.
    /// graph-building neural-network evaluations).
    #[must_use]
    pub fn gradient_central_seq(&self, x: &[f64], mut f: impl FnMut(&[f64]) -> f64) -> Vec<f64> {
        (0..x.len())
            .map(|i| {
                let mut xp = x.to_vec();
                let mut xm = x.to_vec();
                xp[i] += self.epsilon;
                xm[i] -= self.epsilon;
                (f(&xp) - f(&xm)) / (2.0 * self.epsilon)
            })
            .collect()
    }

    #[allow(clippy::expect_used)] // a panicked worker is unrecoverable; propagate the panic
    fn map_indices(&self, n: usize, work: &(dyn Fn(usize) -> f64 + Sync)) -> Vec<f64> {
        if self.threads <= 1 || n < 2 {
            return (0..n).map(work).collect();
        }
        let threads = self.threads.min(n);
        let chunk = n.div_ceil(threads);
        let mut out = vec![0.0; n];
        thread::scope(|s| {
            for (t, slot) in out.chunks_mut(chunk).enumerate() {
                let start = t * chunk;
                s.spawn(move |_| {
                    for (k, v) in slot.iter_mut().enumerate() {
                        *v = work(start + k);
                    }
                });
            }
        })
        .expect("worker panicked");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic(x: &[f64]) -> f64 {
        x.iter().enumerate().map(|(i, v)| (i + 1) as f64 * v * v).sum()
    }

    #[test]
    fn forward_gradient_of_quadratic() {
        let fd = FiniteDifference::new(1e-5, 1);
        let x = [1.0, 2.0, -1.0];
        let g = fd.gradient(&x, &quadratic);
        // ∇ = [2x₁, 4x₂, 6x₃]
        assert!((g[0] - 2.0).abs() < 1e-3);
        assert!((g[1] - 8.0).abs() < 1e-3);
        assert!((g[2] + 6.0).abs() < 1e-3);
    }

    #[test]
    fn central_gradient_is_more_accurate() {
        let fd = FiniteDifference::new(1e-3, 1);
        let x = [0.7];
        let f = |x: &[f64]| x[0].powi(3);
        let fwd = fd.gradient(&x, &f)[0];
        let ctr = fd.gradient_central_seq(&x, f)[0];
        let exact = 3.0 * 0.7f64 * 0.7;
        assert!((ctr - exact).abs() < (fwd - exact).abs());
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = FiniteDifference::new(1e-5, 1);
        let par = FiniteDifference::new(1e-5, 4);
        let x: Vec<f64> = (0..37).map(|i| (i as f64) * 0.1 - 1.5).collect();
        let gs = seq.gradient(&x, &quadratic);
        let gp = par.gradient(&x, &quadratic);
        for (a, b) in gs.iter().zip(&gp) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn evaluation_count_accounting() {
        assert_eq!(FiniteDifference::forward_evaluations(10_000), 10_001);
    }

    #[test]
    fn empty_input_gives_empty_gradient() {
        let fd = FiniteDifference::default();
        assert!(fd.gradient(&[], &quadratic).is_empty());
    }
}
