//! The strongly-convex per-coordinate losses of Sec. IV-C4 / Appendix F.
//!
//! GCON decomposes the training loss as
//! `L(Θ; z_i, y_i) = Σ_{j=1}^{c} ℓ(z_iᵀ θ_j ; y_ij)` (Eq. 12), where `ℓ(x; y)`
//! is a scalar convex function with bounded first/second/third derivatives.
//! The suprema `c₁ = sup|ℓ'|`, `c₂ = sup|ℓ''|`, `c₃ = sup|ℓ'''|` (Eq. 19)
//! feed directly into the Theorem 1 calibration, so each loss here carries
//! its closed-form bounds (Appendix F), and the tests verify both the
//! derivatives (finite differences) and the suprema (sampled domination).

/// Supremum bounds of the loss derivatives (Eq. 19 of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossBounds {
    /// `c₁ = sup |ℓ'|`.
    pub c1: f64,
    /// `c₂ = sup |ℓ''|`.
    pub c2: f64,
    /// `c₃ = sup |ℓ'''|` (a Lipschitz constant for `ℓ''`).
    pub c3: f64,
}

/// Which convex loss to use (both appear in the paper's experiments).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossKind {
    /// MultiLabel Soft Margin (Eq. 27): per-coordinate logistic loss scaled
    /// by `1/c`.
    MultiLabelSoftMargin,
    /// Pseudo-Huber (Eq. 28) with weight `δ_l`.
    PseudoHuber {
        /// The Huber transition width `δ_l` (paper tunes in {0.1, 0.2, 0.5}).
        delta: f64,
    },
}

/// A concrete convex loss bound to a class count `c` (the `1/c` factor in
/// Eq. 27/28 depends on it).
#[derive(Clone, Copy, Debug)]
pub struct ConvexLoss {
    kind: LossKind,
    c: f64,
}

impl ConvexLoss {
    /// Creates the loss for a `c`-class problem.
    pub fn new(kind: LossKind, num_classes: usize) -> Self {
        assert!(num_classes >= 2, "ConvexLoss: need at least 2 classes");
        if let LossKind::PseudoHuber { delta } = kind {
            assert!(
                delta > 0.0 && delta.is_finite(),
                "ConvexLoss: pseudo-Huber δ_l must be positive and finite"
            );
        }
        Self { kind, c: num_classes as f64 }
    }

    /// The loss kind.
    pub fn kind(&self) -> LossKind {
        self.kind
    }

    /// `ℓ(x; y)` for `y ∈ {0, 1}`.
    ///
    /// The MultiLabel Soft Margin loss `−(1/c)[y·log σ(x) + (1−y)·log σ(−x)]`
    /// evaluates only the softplus its label selects: at `y = 1` or `y = 0`
    /// the other term adds an exact `−0` for every finite `x`, so the value
    /// has the bits of the two-term formula (at `x = ±∞` that formula reads
    /// `0·∞ = NaN`; the selected term alone is the limit). Any other `y`
    /// takes both terms.
    pub fn value(&self, x: f64, y: f64) -> f64 {
        match self.kind {
            LossKind::MultiLabelSoftMargin if y == 1.0 => softplus(-x) / self.c,
            LossKind::MultiLabelSoftMargin if y == 0.0 => softplus(x) / self.c,
            LossKind::MultiLabelSoftMargin => {
                // -(1/c) [ y·log σ(x) + (1−y)·log σ(−x) ],  stable form.
                let log_sig = -softplus(-x); // log σ(x)
                let log_one_minus = -softplus(x); // log(1 − σ(x))
                -(y * log_sig + (1.0 - y) * log_one_minus) / self.c
            }
            LossKind::PseudoHuber { delta } => {
                let t = (x - y) / delta;
                delta * delta / self.c * ((1.0 + t * t).sqrt() - 1.0)
            }
        }
    }

    /// First derivative `ℓ'(x; y)` w.r.t. `x`.
    pub fn d1(&self, x: f64, y: f64) -> f64 {
        match self.kind {
            LossKind::MultiLabelSoftMargin => (sigmoid(x) - y) / self.c,
            LossKind::PseudoHuber { delta } => {
                let t = (x - y) / delta;
                (x - y) / (self.c * (1.0 + t * t).sqrt())
            }
        }
    }

    /// Second derivative `ℓ''(x; y)` w.r.t. `x` (always positive: convexity).
    pub fn d2(&self, x: f64, y: f64) -> f64 {
        match self.kind {
            LossKind::MultiLabelSoftMargin => {
                let s = sigmoid(x);
                s * (1.0 - s) / self.c
            }
            LossKind::PseudoHuber { delta } => {
                let t = (x - y) / delta;
                1.0 / (self.c * (1.0 + t * t).powf(1.5))
            }
        }
    }

    /// Third derivative `ℓ'''(x; y)` w.r.t. `x`.
    pub fn d3(&self, x: f64, y: f64) -> f64 {
        match self.kind {
            LossKind::MultiLabelSoftMargin => {
                let s = sigmoid(x);
                s * (1.0 - s) * (1.0 - 2.0 * s) / self.c
            }
            LossKind::PseudoHuber { delta } => {
                let t = (x - y) / delta;
                -3.0 * (x - y) / (self.c * delta * delta * (1.0 + t * t).powf(2.5))
            }
        }
    }

    /// The closed-form suprema of Appendix F.
    pub fn bounds(&self) -> LossBounds {
        match self.kind {
            LossKind::MultiLabelSoftMargin => LossBounds {
                c1: 1.0 / self.c,
                c2: 1.0 / (4.0 * self.c),
                c3: 1.0 / (6.0 * 3.0_f64.sqrt() * self.c),
            },
            LossKind::PseudoHuber { delta } => LossBounds {
                c1: delta / self.c,
                c2: 1.0 / self.c,
                c3: 48.0 * 5.0_f64.sqrt() / (125.0 * self.c * delta),
            },
        }
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Numerically stable `log(1 + e^x)`.
#[inline]
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn losses() -> Vec<ConvexLoss> {
        vec![
            ConvexLoss::new(LossKind::MultiLabelSoftMargin, 7),
            ConvexLoss::new(LossKind::PseudoHuber { delta: 0.2 }, 7),
            ConvexLoss::new(LossKind::PseudoHuber { delta: 0.5 }, 3),
        ]
    }

    fn sample_points() -> Vec<(f64, f64)> {
        let mut pts = Vec::new();
        for &y in &[0.0, 1.0] {
            let mut x = -6.0;
            while x <= 6.0 {
                pts.push((x, y));
                x += 0.173;
            }
            // The pseudo-Huber extrema sit at x = y (for ℓ'') and
            // x = y ± δ/2 (for ℓ'''); include a fine grid around the target.
            let mut t = -0.5;
            while t <= 0.5 {
                pts.push((y + t, y));
                t += 0.005;
            }
        }
        pts
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-5;
        for loss in losses() {
            for &(x, y) in &sample_points() {
                let d1_fd = (loss.value(x + h, y) - loss.value(x - h, y)) / (2.0 * h);
                assert!((d1_fd - loss.d1(x, y)).abs() < 1e-7, "{:?} d1 at ({x},{y})", loss.kind());
                let d2_fd = (loss.d1(x + h, y) - loss.d1(x - h, y)) / (2.0 * h);
                assert!((d2_fd - loss.d2(x, y)).abs() < 1e-7, "{:?} d2 at ({x},{y})", loss.kind());
                let d3_fd = (loss.d2(x + h, y) - loss.d2(x - h, y)) / (2.0 * h);
                assert!((d3_fd - loss.d3(x, y)).abs() < 1e-6, "{:?} d3 at ({x},{y})", loss.kind());
            }
        }
    }

    #[test]
    fn suprema_dominate_sampled_derivatives() {
        for loss in losses() {
            let b = loss.bounds();
            for &(x, y) in &sample_points() {
                assert!(loss.d1(x, y).abs() <= b.c1 + 1e-12, "{:?} c1", loss.kind());
                assert!(loss.d2(x, y).abs() <= b.c2 + 1e-12, "{:?} c2", loss.kind());
                assert!(loss.d3(x, y).abs() <= b.c3 + 1e-12, "{:?} c3", loss.kind());
            }
        }
    }

    #[test]
    fn suprema_are_tight() {
        // The sampled maxima should come within 5% of the closed forms
        // (they are attained in the sampled range).
        for loss in losses() {
            let b = loss.bounds();
            let pts = sample_points();
            let max_d2 = pts.iter().map(|&(x, y)| loss.d2(x, y).abs()).fold(0.0_f64, f64::max);
            let max_d3 = pts.iter().map(|&(x, y)| loss.d3(x, y).abs()).fold(0.0_f64, f64::max);
            assert!(max_d2 > 0.95 * b.c2, "{:?}: max d2 {max_d2} vs c2 {}", loss.kind(), b.c2);
            assert!(max_d3 > 0.90 * b.c3, "{:?}: max d3 {max_d3} vs c3 {}", loss.kind(), b.c3);
        }
    }

    #[test]
    fn convexity_positive_second_derivative() {
        for loss in losses() {
            for &(x, y) in &sample_points() {
                assert!(loss.d2(x, y) > 0.0, "{:?} at ({x},{y})", loss.kind());
            }
        }
    }

    #[test]
    fn msm_loss_values_sane() {
        let loss = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 2);
        // Confident correct prediction → small loss.
        assert!(loss.value(8.0, 1.0) < 0.001);
        assert!(loss.value(-8.0, 0.0) < 0.001);
        // Confident wrong prediction → large loss.
        assert!(loss.value(-8.0, 1.0) > 3.0);
        // At x=0 the loss is log(2)/c regardless of y.
        assert!((loss.value(0.0, 1.0) - 2.0_f64.ln() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn pseudo_huber_is_zero_at_target() {
        let loss = ConvexLoss::new(LossKind::PseudoHuber { delta: 0.3 }, 4);
        assert_eq!(loss.value(1.0, 1.0), 0.0);
        assert_eq!(loss.d1(1.0, 1.0), 0.0);
        assert!(loss.value(2.0, 1.0) > 0.0);
    }

    /// The one-term value for a 0/1 label is bitwise the two-term formula
    /// on 1.6 M scores spread over [−800, 800) and on the edges of
    /// `softplus`'s branches and of `exp`'s range, signed zeros included.
    #[test]
    fn msm_value_is_bitwise_the_two_softplus_formula() {
        let two_terms = |loss: &ConvexLoss, x: f64, y: f64| {
            let (log_sig, log_one_minus) = (-softplus(-x), -softplus(x));
            -(y * log_sig + (1.0 - y) * log_one_minus) / loss.c
        };
        let edges = [
            0.0,
            30.0,
            30.000000000000004,
            29.999999999999996,
            745.0,
            745.2,
            709.8,
            1e-300,
            5e-324,
            f64::MIN_POSITIVE,
            1e300,
            f64::MAX,
        ];
        let grid = (0..1_600_000).map(|k| -800.0 + k as f64 * 0.001);
        let scores: Vec<f64> = grid.chain(edges.iter().flat_map(|&e| [e, -e])).collect();
        let loss = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3);
        for &y in &[0.0, 1.0] {
            let mismatches = scores
                .iter()
                .filter(|&&x| loss.value(x, y).to_bits() != two_terms(&loss, x, y).to_bits())
                .count();
            assert_eq!(mismatches, 0, "y = {y}");
        }
        // A label outside {0, 1} still takes both terms.
        assert_eq!(loss.value(0.7, 0.25).to_bits(), two_terms(&loss, 0.7, 0.25).to_bits());
    }

    #[test]
    fn msm_numerically_stable_at_extremes() {
        let loss = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3);
        for &x in &[-500.0, 500.0] {
            for &y in &[0.0, 1.0] {
                assert!(loss.value(x, y).is_finite());
                assert!(loss.d1(x, y).is_finite());
            }
        }
    }
}
