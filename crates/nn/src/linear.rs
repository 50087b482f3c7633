//! The fully-connected layer with hand-derived gradients.

use gcon_linalg::{ops, Mat};
use rand::Rng;

/// A dense affine layer `Y = X·W + b` with `W : d_in × d_out`, `b : d_out`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight matrix, `d_in × d_out`.
    pub w: Mat,
    /// Bias vector, length `d_out`.
    pub b: Vec<f64>,
}

/// Gradients of a [`Linear`] layer produced by [`Linear::backward`].
#[derive(Clone, Debug)]
pub struct LinearGrads {
    /// `∂L/∂W = Xᵀ·δ`.
    pub dw: Mat,
    /// `∂L/∂b = Σ_rows δ`.
    pub db: Vec<f64>,
}

impl LinearGrads {
    /// Zero-valued gradients shaped for a `d_in × d_out` layer — the
    /// starting state of a reusable gradient buffer.
    pub fn zeros(d_in: usize, d_out: usize) -> Self {
        Self { dw: Mat::zeros(d_in, d_out), db: vec![0.0; d_out] }
    }
}

impl Linear {
    /// Glorot/Xavier-uniform initialization: `U(±√(6/(d_in+d_out)))`.
    pub fn xavier<R: Rng + ?Sized>(d_in: usize, d_out: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (d_in + d_out) as f64).sqrt();
        Self { w: Mat::uniform(d_in, d_out, bound, rng), b: vec![0.0; d_out] }
    }

    /// Kaiming/He initialization (good defaults ahead of ReLU).
    pub fn kaiming<R: Rng + ?Sized>(d_in: usize, d_out: usize, rng: &mut R) -> Self {
        let std = (2.0 / d_in as f64).sqrt();
        Self { w: Mat::gaussian(d_in, d_out, std, rng), b: vec![0.0; d_out] }
    }

    /// Input dimension.
    pub fn d_in(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn d_out(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass `Y = X·W + b`.
    pub fn forward(&self, x: &Mat) -> Mat {
        let mut y = Mat::default();
        self.forward_into(x, &mut y);
        y
    }

    /// Forward pass written into `y` (reshaped, backing buffer reused).
    pub fn forward_into(&self, x: &Mat, y: &mut Mat) {
        ops::matmul_into(x, &self.w, y);
        self.add_bias(y);
    }

    /// Adds `b` to every row of the product `y = X·W`.
    pub(crate) fn add_bias(&self, y: &mut Mat) {
        for i in 0..y.rows() {
            let row = y.row_mut(i);
            for (v, &bv) in row.iter_mut().zip(&self.b) {
                *v += bv;
            }
        }
    }

    /// Backward pass. Given the layer input `x` and the upstream gradient
    /// `dy = ∂L/∂Y`, returns `(∂L/∂X, gradients)`.
    pub fn backward(&self, x: &Mat, dy: &Mat) -> (Mat, LinearGrads) {
        let mut dx = Mat::default();
        let mut grads = LinearGrads::zeros(0, 0);
        self.backward_into(x, dy, &mut dx, &mut grads);
        (dx, grads)
    }

    /// Backward pass into caller-owned buffers: `dx` receives `∂L/∂X` and
    /// `grads` receives the weight/bias gradients. All three backing buffers
    /// are reused across calls (the epoch loop's steady state performs no
    /// gradient allocation).
    pub fn backward_into(&self, x: &Mat, dy: &Mat, dx: &mut Mat, grads: &mut LinearGrads) {
        self.backward_weights_into(x, dy, grads);
        ops::matmul_bt_into(dy, &self.w, dx);
    }

    /// Weight/bias gradients only — skips the `∂L/∂X = δ·Wᵀ` product. Use
    /// for the first layer of a network whose input gradient nobody reads
    /// (it is a full `n × d_in` GEMM that would be discarded).
    pub fn backward_weights_into(&self, x: &Mat, dy: &Mat, grads: &mut LinearGrads) {
        assert_eq!(x.rows(), dy.rows(), "backward: batch mismatch");
        self.backward_weights_with(dy, grads, |dy, dw| ops::t_matmul_into(x, dy, dw));
    }

    /// [`Linear::backward_weights_into`] with `∂L/∂W = Xᵀ·δ` written by
    /// `xt_product(δ, dW)` (reshaping `dW`), for a caller that holds the
    /// input `X` in another form (a sparse `Xᵀ`).
    pub fn backward_weights_with(
        &self,
        dy: &Mat,
        grads: &mut LinearGrads,
        xt_product: impl FnOnce(&Mat, &mut Mat),
    ) {
        assert_eq!(dy.cols(), self.d_out(), "backward: output dim mismatch");
        xt_product(dy, &mut grads.dw);
        assert_eq!(grads.dw.shape(), self.w.shape(), "backward: weight gradient shape mismatch");
        gcon_linalg::reduce::col_sums_into(dy, &mut grads.db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes_and_bias() {
        let layer = Linear { w: Mat::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]), b: vec![10.0, 20.0] };
        let x = Mat::from_rows(&[&[1.0, 1.0]]);
        let y = layer.forward(&x);
        assert_eq!(y.row(0), &[11.0, 22.0]);
    }

    /// Central finite-difference check of all three gradients.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let layer = Linear::xavier(4, 3, &mut rng);
        let x = Mat::uniform(5, 4, 1.0, &mut rng);
        // Scalar loss L = Σ_ij c_ij * Y_ij with random coefficients c.
        let c = Mat::uniform(5, 3, 1.0, &mut rng);
        let loss = |l: &Linear, xx: &Mat| ops::frobenius_inner(&l.forward(xx), &c);

        let (dx, grads) = layer.backward(&x, &c);
        let h = 1e-6;

        // dW
        for i in 0..4 {
            for j in 0..3 {
                let mut lp = layer.clone();
                lp.w.add_at(i, j, h);
                let mut lm = layer.clone();
                lm.w.add_at(i, j, -h);
                let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
                assert!((fd - grads.dw.get(i, j)).abs() < 1e-5, "dW[{i}][{j}]");
            }
        }
        // db
        for j in 0..3 {
            let mut lp = layer.clone();
            lp.b[j] += h;
            let mut lm = layer.clone();
            lm.b[j] -= h;
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            assert!((fd - grads.db[j]).abs() < 1e-5, "db[{j}]");
        }
        // dX
        for i in 0..5 {
            for j in 0..4 {
                let mut xp = x.clone();
                xp.add_at(i, j, h);
                let mut xm = x.clone();
                xm.add_at(i, j, -h);
                let fd = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * h);
                assert!((fd - dx.get(i, j)).abs() < 1e-5, "dX[{i}][{j}]");
            }
        }
    }

    #[test]
    fn xavier_bound_respected() {
        let mut rng = StdRng::seed_from_u64(12);
        let layer = Linear::xavier(100, 50, &mut rng);
        let bound = (6.0 / 150.0_f64).sqrt();
        assert!(layer.w.max_abs() <= bound);
        assert!(layer.b.iter().all(|&v| v == 0.0));
    }
}
