//! Element-wise activation functions with derivatives expressed in terms of
//! the *output* value, so the backward pass only needs the cached forward
//! activations.

use gcon_linalg::{parallel_zip, Mat};

/// Activation functions supported by the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent — the paper's `H_mlp` choice for the encoder output
    /// keeps embeddings bounded before L2 row-normalization.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (linear mapping `H(u) = u`, as in SGC).
    Identity,
}

impl Activation {
    /// Applies the activation element-wise.
    #[inline]
    pub fn apply_scalar(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative dσ/dx expressed as a function of the output `y = σ(x)`.
    ///
    /// ReLU uses the convention σ'(0) = 0.
    #[inline]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }

    /// Applies the activation to a matrix in place, on the worker pool when
    /// the matrix is large (each element gets the same expression on any
    /// thread, so the result is the serial map's, bitwise).
    pub fn apply(self, m: &mut Mat) {
        if self == Activation::Identity {
            return;
        }
        let work = m.as_slice().len() * self.ops_per_element();
        parallel_zip([m.as_mut_slice()], work, |[chunk], _| {
            for v in chunk {
                *v = self.apply_scalar(*v);
            }
        });
    }

    /// Cost of one [`Activation::apply_scalar`] in multiply-adds of the
    /// dense kernels, measured: a ReLU moves memory, a tanh or sigmoid
    /// calls into libm for about 20 ns against 0.15 ns a multiply-add.
    pub(crate) fn ops_per_element(self) -> usize {
        match self {
            Activation::Relu | Activation::Identity => 4,
            Activation::Tanh | Activation::Sigmoid => 128,
        }
    }

    /// Multiplies `grad` in place by σ'(x) computed from the cached output.
    pub fn backprop_inplace(self, output: &Mat, grad: &mut Mat) {
        if self == Activation::Identity {
            return;
        }
        assert_eq!(output.shape(), grad.shape(), "backprop_inplace: shape mismatch");
        for (g, &y) in grad.as_mut_slice().iter_mut().zip(output.as_slice()) {
            *g *= self.derivative_from_output(y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_values() {
        assert_eq!(Activation::Relu.apply_scalar(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply_scalar(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(3.0), 1.0);
    }

    #[test]
    fn sigmoid_range_and_derivative() {
        let y = Activation::Sigmoid.apply_scalar(0.0);
        assert!((y - 0.5).abs() < 1e-12);
        assert!((Activation::Sigmoid.derivative_from_output(0.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::Identity] {
            for &x in &[-2.0, -0.5, 0.3, 1.7] {
                let y = act.apply_scalar(x);
                let fd = (act.apply_scalar(x + h) - act.apply_scalar(x - h)) / (2.0 * h);
                let analytic = act.derivative_from_output(y);
                assert!(
                    (fd - analytic).abs() < 1e-5,
                    "{act:?} at {x}: fd {fd} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn matrix_apply_and_backprop() {
        let mut m = Mat::from_rows(&[&[-1.0, 2.0]]);
        Activation::Relu.apply(&mut m);
        assert_eq!(m.row(0), &[0.0, 2.0]);
        let mut grad = Mat::from_rows(&[&[5.0, 5.0]]);
        Activation::Relu.backprop_inplace(&m, &mut grad);
        assert_eq!(grad.row(0), &[0.0, 5.0]);
    }

    /// `apply` on a matrix large enough for the pool is bitwise the serial
    /// map of `apply_scalar`, for every activation.
    #[test]
    fn pooled_apply_is_bitwise_the_serial_map() {
        let (rows, cols) = (301, 251);
        let m = Mat::from_fn(rows, cols, |i, j| ((i * cols + j) as f64 * 0.013).sin() * 4.0);
        for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::Identity] {
            let work = rows * cols * act.ops_per_element();
            assert!(work >= gcon_linalg::PAR_THRESHOLD, "{act:?} pooled");
            let want = m.map(|v| act.apply_scalar(v));
            let mut got = m.clone();
            act.apply(&mut got);
            let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{act:?}");
        }
    }

    #[test]
    fn identity_is_noop() {
        let mut m = Mat::from_rows(&[&[-3.0, 4.0]]);
        let orig = m.clone();
        Activation::Identity.apply(&mut m);
        assert_eq!(m, orig);
    }
}
