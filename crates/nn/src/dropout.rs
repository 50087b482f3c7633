//! Inverted dropout.
//!
//! The Kipf–Welling GCN recipe applies dropout 0.5 between layers; no model
//! in the workspace does (the GCN baseline trains without it). Inverted
//! scaling (`1/(1−p)` at train time) keeps the inference path an identity.

use gcon_linalg::Mat;
use rand::Rng;

/// An inverted-dropout layer with drop probability `p`.
#[derive(Clone, Copy, Debug)]
pub struct Dropout {
    /// Probability of zeroing each activation at train time.
    pub p: f64,
}

/// The retain mask produced by a training-time forward pass; reuse it in the
/// backward pass so gradients flow only through kept units.
#[derive(Clone, Debug)]
pub struct DropoutMask {
    scale: f64,
    keep: Vec<bool>,
}

impl Dropout {
    /// Creates the layer.
    ///
    /// # Panics
    /// Panics unless `p ∈ [0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "Dropout: p must lie in [0, 1)");
        Self { p }
    }

    /// Training-time forward: zeroes units with probability `p` and scales
    /// survivors by `1/(1−p)`. Returns the mask for the backward pass.
    pub fn forward_train<R: Rng + ?Sized>(&self, x: &mut Mat, rng: &mut R) -> DropoutMask {
        let scale = 1.0 / (1.0 - self.p);
        let mut keep = Vec::with_capacity(x.as_slice().len());
        for v in x.as_mut_slice() {
            let k = rng.gen::<f64>() >= self.p;
            keep.push(k);
            *v = if k { *v * scale } else { 0.0 };
        }
        DropoutMask { scale, keep }
    }

    /// Inference-time forward is the identity (inverted dropout).
    pub fn forward_eval(&self, _x: &Mat) {}
}

impl DropoutMask {
    /// Applies the stored mask to the upstream gradient.
    pub fn backward(&self, grad: &mut Mat) {
        assert_eq!(grad.as_slice().len(), self.keep.len(), "DropoutMask: shape mismatch");
        for (g, &k) in grad.as_mut_slice().iter_mut().zip(&self.keep) {
            *g = if k { *g * self.scale } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn p_zero_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut x = Mat::from_fn(4, 4, |i, j| (i + j) as f64);
        let orig = x.clone();
        let layer = Dropout::new(0.0);
        let _ = layer.forward_train(&mut x, &mut rng);
        assert_eq!(x, orig);
    }

    #[test]
    fn expected_value_preserved() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Dropout::new(0.3);
        let mut sum = 0.0;
        let trials = 4000;
        for _ in 0..trials {
            let mut x = Mat::full(1, 10, 1.0);
            let _ = layer.forward_train(&mut x, &mut rng);
            sum += x.as_slice().iter().sum::<f64>();
        }
        let mean = sum / (trials as f64 * 10.0);
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn backward_masks_exactly_the_dropped_units() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Dropout::new(0.5);
        let mut x = Mat::full(2, 6, 1.0);
        let mask = layer.forward_train(&mut x, &mut rng);
        let mut grad = Mat::full(2, 6, 1.0);
        mask.backward(&mut grad);
        for (xv, gv) in x.as_slice().iter().zip(grad.as_slice()) {
            if *xv == 0.0 {
                assert_eq!(*gv, 0.0);
            } else {
                assert_eq!(*gv, 2.0); // scale = 1/(1-0.5)
            }
        }
    }

    #[test]
    #[should_panic(expected = "p must lie in [0, 1)")]
    fn rejects_p_one() {
        let _ = Dropout::new(1.0);
    }
}
