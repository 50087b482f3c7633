//! The first-order optimizer, Adam.
//!
//! It operates on flat `&mut [f64]` parameter slices identified by a stable
//! index, so any model (the encoder, the MLP and GCN baselines) can drive it
//! without a parameter-registry abstraction. Per Theorem 1 of the paper,
//! GCON's privacy guarantee is *independent* of the optimizer — this is
//! pure utility.

/// Adam (Kingma & Ba, 2015) with bias correction — the optimizer the paper
/// uses for both the encoder and the perturbed-objective minimization (here
/// it trains the encoder; `gcon-core` minimizes the objective by Newton).
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical-stability constant.
    pub eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Adam with the standard (0.9, 0.999, 1e-8) moment configuration.
    pub fn new(lr: f64) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    fn slots(&mut self, idx: usize, len: usize) -> (&mut Vec<f64>, &mut Vec<f64>) {
        while self.m.len() <= idx {
            self.m.push(Vec::new());
            self.v.push(Vec::new());
        }
        if self.m[idx].len() != len {
            self.m[idx] = vec![0.0; len];
            self.v[idx] = vec![0.0; len];
        }
        (&mut self.m[idx], &mut self.v[idx])
    }

    /// Advances the step counter: call once per optimization step, before
    /// that step's [`Adam::update`] calls.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Applies the update rule to parameter tensor `idx`, one call per
    /// tensor per step.
    pub fn update(&mut self, idx: usize, param: &mut [f64], grad: &[f64]) {
        assert_eq!(param.len(), grad.len());
        assert!(self.t > 0, "Adam::update before begin_step");
        let (lr, b1, b2, eps, t) = (self.lr, self.beta1, self.beta2, self.eps, self.t);
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        let work = param.len() * ADAM_OPS_PER_PARAM;
        let (m, v) = self.slots(idx, param.len());
        // One zipped pass per chunk: no indexing, so no bounds checks stand
        // in the way of vectorization. Every step is an exactly rounded IEEE
        // operation in a fixed order, so the result is the same bits as a
        // scalar loop, whichever thread runs an element.
        gcon_linalg::parallel_zip([param, m, v], work, |[param, m, v], start| {
            let grad = &grad[start..start + param.len()];
            for (((p, &g), m), v) in param.iter_mut().zip(grad).zip(m.iter_mut()).zip(v.iter_mut())
            {
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *p -= lr * mhat / (vhat.sqrt() + eps);
            }
        });
    }
}

/// Cost of one parameter's Adam step (a square root and three divisions)
/// in multiply-adds of the dense kernels, measured: about 4 ns a parameter
/// against 0.15 ns a multiply-add.
const ADAM_OPS_PER_PARAM: usize = 24;

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x-3)² and check convergence.
    fn minimize(opt: &mut Adam, steps: usize) -> f64 {
        let mut x = [0.0_f64];
        for _ in 0..steps {
            opt.begin_step();
            let grad = [2.0 * (x[0] - 3.0)];
            opt.update(0, &mut x, &grad);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let x = minimize(&mut opt, 500);
        assert!((x - 3.0).abs() < 1e-4, "x = {x}");
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction the very first Adam step ≈ lr * sign(grad).
        let mut opt = Adam::new(0.01);
        let mut x = [0.0_f64];
        opt.begin_step();
        opt.update(0, &mut x, &[42.0]);
        assert!((x[0] + 0.01).abs() < 1e-6, "x = {}", x[0]);
    }

    /// The zipped update is bitwise the textbook indexed loop: lengths 0,
    /// 1, 7 (off any lane multiple) and 1000, which run inline, and an odd
    /// length and the encoder's 32,000-parameter `W₀`, which run on the
    /// pool; 300 steps of gradients that vary in sign and magnitude,
    /// parameters compared after every step.
    #[test]
    fn adam_update_is_bitwise_the_indexed_reference() {
        const POOLED: [usize; 2] = [12_347, 32_000];
        const _: () = assert!(POOLED[0] * ADAM_OPS_PER_PARAM >= gcon_linalg::PAR_THRESHOLD);
        struct IndexedAdam {
            t: i32,
            m: Vec<f64>,
            v: Vec<f64>,
        }
        impl IndexedAdam {
            fn update(&mut self, opt: &Adam, param: &mut [f64], grad: &[f64]) {
                self.t += 1;
                let (b1, b2) = (opt.beta1, opt.beta2);
                let bc1 = 1.0 - b1.powi(self.t);
                let bc2 = 1.0 - b2.powi(self.t);
                for i in 0..param.len() {
                    self.m[i] = b1 * self.m[i] + (1.0 - b1) * grad[i];
                    self.v[i] = b2 * self.v[i] + (1.0 - b2) * grad[i] * grad[i];
                    let mhat = self.m[i] / bc1;
                    let vhat = self.v[i] / bc2;
                    param[i] -= opt.lr * mhat / (vhat.sqrt() + opt.eps);
                }
            }
        }
        for len in [0usize, 1, 7, 1000, POOLED[0], POOLED[1]] {
            let mut opt = Adam::new(0.01);
            let mut reference = IndexedAdam { t: 0, m: vec![0.0; len], v: vec![0.0; len] };
            let init: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
            let (mut fast, mut slow) = (init.clone(), init);
            for step in 0..300 {
                let grad: Vec<f64> = (0..len)
                    .map(|i| {
                        let s = (step * 31 + i * 17) as f64;
                        (s * 0.013).cos() * 10f64.powi((i % 9) as i32 - 4) + fast[i] * 1e-3
                    })
                    .collect();
                opt.begin_step();
                opt.update(0, &mut fast, &grad);
                reference.update(&opt, &mut slow, &grad);
                for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "len {len} step {step} param {i}");
                }
            }
        }
    }

    #[test]
    fn adam_handles_multiple_params_independently() {
        let mut opt = Adam::new(0.1);
        let mut a = [0.0_f64; 2];
        let mut b = [0.0_f64; 3];
        for _ in 0..300 {
            opt.begin_step();
            let ga = [2.0 * (a[0] - 1.0), 2.0 * (a[1] + 1.0)];
            let gb = [b[0] - 5.0, b[1], b[2] + 2.0];
            opt.update(0, &mut a, &ga);
            opt.update(1, &mut b, &gb);
        }
        assert!((a[0] - 1.0).abs() < 1e-3);
        assert!((a[1] + 1.0).abs() < 1e-3);
        assert!((b[0] - 5.0).abs() < 1e-2);
        assert!((b[2] + 2.0).abs() < 1e-3);
    }
}
