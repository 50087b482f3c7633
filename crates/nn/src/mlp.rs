//! Multi-layer perceptron built from [`Linear`] layers.
//!
//! Used directly as the MLP baseline (edge-free → trivially edge-DP) and as
//! the building block of GCON's feature encoder and the GAP/ProGAP/LPGNet
//! heads. Exposes the cached forward / explicit backward pair so composite
//! models (encoder + classification head, GCN) can backpropagate through it.

use crate::activations::Activation;
use crate::linear::{Linear, LinearGrads};
use crate::loss::softmax_cross_entropy_into;
use crate::optim::Adam;
use gcon_linalg::{ops, Mat, Scalar};
use rand::Rng;

/// Reusable buffers for one network's forward/backward sweep.
///
/// A training loop owns one workspace per network and threads it through
/// [`Mlp::forward_cached_ws`] / [`Mlp::backward_ws_weights_only`] (or the
/// `_with` pair for an input the caller multiplies itself); after the first
/// epoch every buffer has reached its steady-state capacity and no
/// per-iteration matrix allocation happens. A fresh (empty) workspace is valid for any
/// network — buffers are shaped on first use.
#[derive(Clone, Debug, Default)]
pub struct MlpWorkspace {
    /// Post-activation cache `[x, a₁, …, a_L]` (`x` empty after
    /// [`Mlp::forward_cached_ws_with`]).
    cache: Vec<Mat>,
    /// Upstream-gradient ping-pong pair for the backward sweep.
    delta: Mat,
    delta_next: Mat,
    /// One gradient slot per layer (front to back).
    grads: Vec<LinearGrads>,
}

impl MlpWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The network output of the last [`Mlp::forward_cached_ws`] call.
    ///
    /// # Panics
    /// Panics if no forward pass has been run through this workspace.
    pub fn output(&self) -> &Mat {
        self.cache.last().expect("MlpWorkspace::output: no forward pass recorded")
    }

    /// Per-layer gradients from the last backward pass through this
    /// workspace.
    pub fn grads(&self) -> &[LinearGrads] {
        &self.grads
    }
}

/// Architecture description for an [`Mlp`].
#[derive(Clone, Debug)]
pub struct MlpConfig {
    /// Layer widths, `[d_in, h1, …, d_out]`; must have ≥ 2 entries.
    pub dims: Vec<usize>,
    /// Activation after every hidden layer.
    pub hidden_activation: Activation,
    /// Activation after the final layer (Identity for logits).
    pub output_activation: Activation,
}

impl MlpConfig {
    /// ReLU hidden layers and raw-logit output.
    pub fn relu_classifier(dims: Vec<usize>) -> Self {
        Self { dims, hidden_activation: Activation::Relu, output_activation: Activation::Identity }
    }
}

/// A feed-forward network with per-layer activations.
#[derive(Clone, Debug)]
pub struct Mlp {
    /// The affine layers.
    pub layers: Vec<Linear>,
    hidden_act: Activation,
    out_act: Activation,
}

impl Mlp {
    /// Initializes the network (Kaiming for ReLU hidden stacks, Xavier
    /// otherwise).
    pub fn new<R: Rng + ?Sized>(cfg: &MlpConfig, rng: &mut R) -> Self {
        assert!(cfg.dims.len() >= 2, "MlpConfig: need at least input and output dims");
        let layers = cfg
            .dims
            .windows(2)
            .map(|w| {
                if cfg.hidden_activation == Activation::Relu {
                    Linear::kaiming(w[0], w[1], rng)
                } else {
                    Linear::xavier(w[0], w[1], rng)
                }
            })
            .collect();
        Self { layers, hidden_act: cfg.hidden_activation, out_act: cfg.output_activation }
    }

    /// Rebuilds a network from its constituent parts (deserialization path).
    pub fn from_parts(layers: Vec<Linear>, hidden_act: Activation, out_act: Activation) -> Self {
        assert!(!layers.is_empty(), "Mlp::from_parts: need at least one layer");
        for w in layers.windows(2) {
            assert_eq!(
                w[0].d_out(),
                w[1].d_in(),
                "Mlp::from_parts: consecutive layer dims must chain"
            );
        }
        Self { layers, hidden_act, out_act }
    }

    /// The `(hidden, output)` activation pair (serialization path).
    pub fn activations(&self) -> (Activation, Activation) {
        (self.hidden_act, self.out_act)
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Activation used after layer `l`.
    fn activation_at(&self, l: usize) -> Activation {
        if l + 1 == self.layers.len() {
            self.out_act
        } else {
            self.hidden_act
        }
    }

    /// Forward pass returning only the output.
    pub fn forward(&self, x: &Mat) -> Mat {
        self.forward_from_product(ops::matmul(x, &self.layers[0].w))
    }

    /// Forward pass from the first layer's product `xw0 = X·W₀` (bias not
    /// yet added), which the caller computed: adds `b₀`, applies layer 0's
    /// activation and runs layers ≥ 1. A caller whose input is sparse
    /// passes a sparse product here; [`Mlp::forward`] passes the dense one.
    pub fn forward_from_product(&self, xw0: Mat) -> Mat {
        let mut a = xw0;
        self.layers[0].add_bias(&mut a);
        self.activation_at(0).apply(&mut a);
        for (l, layer) in self.layers.iter().enumerate().skip(1) {
            a = layer.forward(&a);
            self.activation_at(l).apply(&mut a);
        }
        a
    }

    /// The forward pass of one row block from its first-layer product, in
    /// place and on the calling thread: `xw0` holds the block's `X·W₀`
    /// (`rows × h₁`, bias not yet added) and is overwritten with layer 0's
    /// activations, and `out` (`rows × d_out`) receives the network output.
    ///
    /// Each element gets the expression of [`Mlp::forward_from_product`],
    /// `σ(v + b)` per layer with each layer's product by the `matmul`
    /// kernel ([`ops::matmul_rows_into`]), so a row has the same bits in
    /// any block. Nothing goes to the worker pool: this is the per-block
    /// stage of a pass that has already split the rows among threads. The
    /// outputs of layers between the second and the last live in
    /// thread-local scratch.
    ///
    /// # Panics
    /// Panics if `xw0` or `out` is not a whole number of rows of the
    /// first layer's and the last layer's width.
    pub fn forward_block(&self, xw0: &mut [f64], out: &mut [f64]) {
        let depth = self.layers.len();
        let h1 = self.layers[0].d_out();
        let rows = xw0.len().checked_div(h1).unwrap_or(0);
        assert_eq!(xw0.len(), rows * h1, "forward_block: xw0 is not rows × h₁");
        assert_eq!(out.len(), rows * self.layers[depth - 1].d_out(), "forward_block: out shape");
        bias_activate(&self.layers[0], self.activation_at(0), xw0);
        if depth == 1 {
            out.copy_from_slice(xw0);
            return;
        }
        let mid = self.layers[1..depth - 1].iter().map(Linear::d_out).max().unwrap_or(0);
        f64::with_scratch(2 * rows * mid, |scratch| {
            let (mut prev, mut next) = scratch.split_at_mut(rows * mid);
            for (l, layer) in self.layers.iter().enumerate().skip(1) {
                let input: &[f64] =
                    if l == 1 { xw0 } else { &prev[..rows * self.layers[l - 1].d_out()] };
                let dst =
                    if l + 1 == depth { &mut *out } else { &mut next[..rows * layer.d_out()] };
                ops::matmul_rows_into(input, rows, &layer.w, dst);
                bias_activate(layer, self.activation_at(l), dst);
                std::mem::swap(&mut prev, &mut next);
            }
        });
    }

    /// The cost of [`Mlp::forward_block`] per row, in multiply-adds of the
    /// dense kernels: the products of layers ≥ 1 and every activation.
    pub fn forward_block_work(&self) -> usize {
        let products: usize = self.layers[1..].iter().map(|l| l.d_in() * l.d_out()).sum();
        let activations: usize = (self.layers.iter().enumerate())
            .map(|(l, layer)| layer.d_out() * self.activation_at(l).ops_per_element())
            .sum();
        products + activations
    }

    /// Forward pass returning every post-activation, `[x, a1, …, a_L]`.
    pub fn forward_cached(&self, x: &Mat) -> Vec<Mat> {
        let mut cache = Vec::with_capacity(self.layers.len() + 1);
        cache.push(x.clone());
        for (l, layer) in self.layers.iter().enumerate() {
            let mut a = layer.forward(cache.last().unwrap());
            self.activation_at(l).apply(&mut a);
            cache.push(a);
        }
        cache
    }

    /// Forward pass with caches written into `ws` (buffer-reusing twin of
    /// [`Mlp::forward_cached`]); the output is `ws.output()`.
    pub fn forward_cached_ws(&self, x: &Mat, ws: &mut MlpWorkspace) {
        self.forward_cached_ws_with(ws, |w0, out| ops::matmul_into(x, w0, out));
        ws.cache[0].copy_from(x);
    }

    /// [`Mlp::forward_cached_ws`] for an input the caller keeps: the first
    /// layer's product `X·W₀` is written by `first_product(W₀, out)`
    /// (reshaping `out`), so a sparse input can take a sparse product. `X`
    /// is not cached, so the backward pass is
    /// [`Mlp::backward_ws_weights_only_with`], whose caller forms the
    /// layer-0 weight gradient from its own copy.
    pub fn forward_cached_ws_with(
        &self,
        ws: &mut MlpWorkspace,
        first_product: impl FnOnce(&Mat, &mut Mat),
    ) {
        ws.cache.resize_with(self.layers.len() + 1, || Mat::zeros(0, 0));
        ws.cache[0].reset_to_zeros(0, 0);
        first_product(&self.layers[0].w, &mut ws.cache[1]);
        self.layers[0].add_bias(&mut ws.cache[1]);
        self.activation_at(0).apply(&mut ws.cache[1]);
        for (l, layer) in self.layers.iter().enumerate().skip(1) {
            let (before, after) = ws.cache.split_at_mut(l + 1);
            layer.forward_into(&before[l], &mut after[0]);
            self.activation_at(l).apply(&mut after[0]);
        }
    }

    /// Backward pass from `dout = ∂L/∂output`, the buffer-reusing twin of
    /// [`Mlp::backward`] without its input gradient. Per-layer gradients
    /// land in `ws.grads()`.
    ///
    /// Training loops that own the network's raw input (every epoch loop in
    /// the workspace) never read `∂L/∂input`, yet computing it is a full
    /// `n × d_in` GEMM per step — this form skips it.
    pub fn backward_ws_weights_only(&self, ws: &mut MlpWorkspace, dout: &Mat) {
        self.backward_to_first_layer(ws, dout);
        self.layers[0].backward_weights_into(&ws.cache[0], &ws.delta, &mut ws.grads[0]);
    }

    /// [`Mlp::backward_ws_weights_only`] after
    /// [`Mlp::forward_cached_ws_with`]: `first_grad(δ, dW₀)` writes the
    /// layer-0 weight gradient `Xᵀ·δ` (reshaping `dW₀`) from the caller's
    /// copy of the input.
    pub fn backward_ws_weights_only_with(
        &self,
        ws: &mut MlpWorkspace,
        dout: &Mat,
        first_grad: impl FnOnce(&Mat, &mut Mat),
    ) {
        self.backward_to_first_layer(ws, dout);
        self.layers[0].backward_weights_with(&ws.delta, &mut ws.grads[0], first_grad);
    }

    /// Backpropagates `dout` through layers `L−1, …, 1` (their gradients
    /// land in `ws.grads`) and through layer 0's activation, leaving
    /// `∂L/∂(X·W₀ + b₀)` in `ws.delta`.
    fn backward_to_first_layer(&self, ws: &mut MlpWorkspace, dout: &Mat) {
        assert_eq!(
            ws.cache.len(),
            self.layers.len() + 1,
            "backward_ws_weights_only: run forward_cached_ws first"
        );
        // Match the slot count to *this* network (truncating too, so one
        // workspace can be reused across networks of different depth).
        ws.grads.resize_with(self.layers.len(), || LinearGrads::zeros(0, 0));
        ws.delta.copy_from(dout);
        for l in (1..self.layers.len()).rev() {
            self.activation_at(l).backprop_inplace(&ws.cache[l + 1], &mut ws.delta);
            self.layers[l].backward_into(
                &ws.cache[l],
                &ws.delta,
                &mut ws.delta_next,
                &mut ws.grads[l],
            );
            std::mem::swap(&mut ws.delta, &mut ws.delta_next);
        }
        self.activation_at(0).backprop_inplace(&ws.cache[1], &mut ws.delta);
    }

    /// Backward pass from the gradient w.r.t. the network *output*
    /// (post-activation). Returns the gradient w.r.t. the input and one
    /// [`LinearGrads`] per layer (front to back).
    pub fn backward(&self, cache: &[Mat], dout: Mat) -> (Mat, Vec<LinearGrads>) {
        assert_eq!(cache.len(), self.layers.len() + 1, "backward: cache/layer mismatch");
        let mut grads: Vec<Option<LinearGrads>> = (0..self.layers.len()).map(|_| None).collect();
        let mut delta = dout;
        for l in (0..self.layers.len()).rev() {
            self.activation_at(l).backprop_inplace(&cache[l + 1], &mut delta);
            let (dx, g) = self.layers[l].backward(&cache[l], &delta);
            grads[l] = Some(g);
            delta = dx;
        }
        (delta, grads.into_iter().map(|g| g.unwrap()).collect())
    }

    /// Applies gradients with the given optimizer; `weight_decay` adds
    /// `wd · W` to each weight gradient **in place** (biases are not
    /// decayed — gradients are per-step scratch, so no defensive copy is
    /// made). Parameter tensors are registered with the optimizer starting
    /// at `base_idx` (2 slots per layer), so several networks can share one
    /// optimizer.
    pub fn apply_grads(
        &mut self,
        grads: &mut [LinearGrads],
        opt: &mut Adam,
        weight_decay: f64,
        base_idx: usize,
    ) {
        assert_eq!(grads.len(), self.layers.len());
        for (l, (layer, g)) in self.layers.iter_mut().zip(grads).enumerate() {
            if weight_decay > 0.0 {
                ops::add_scaled_assign(&mut g.dw, weight_decay, &layer.w);
            }
            opt.update(base_idx + 2 * l, layer.w.as_mut_slice(), g.dw.as_slice());
            opt.update(base_idx + 2 * l + 1, &mut layer.b, &g.db);
        }
    }

    /// [`Mlp::apply_grads`] over the gradients held in `ws`.
    pub fn apply_grads_ws(
        &mut self,
        ws: &mut MlpWorkspace,
        opt: &mut Adam,
        weight_decay: f64,
        base_idx: usize,
    ) {
        self.apply_grads(&mut ws.grads, opt, weight_decay, base_idx);
    }

    /// Full-batch Adam training with softmax cross-entropy. Returns the loss
    /// trajectory. The output activation should be `Identity` (logits).
    pub fn train_cross_entropy(
        &mut self,
        x: &Mat,
        labels: &[usize],
        epochs: usize,
        lr: f64,
        weight_decay: f64,
    ) -> Vec<f64> {
        let mut opt = Adam::new(lr);
        let mut losses = Vec::with_capacity(epochs);
        let mut ws = MlpWorkspace::new();
        let mut dlogits = Mat::zeros(0, 0);
        for _ in 0..epochs {
            self.forward_cached_ws(x, &mut ws);
            let loss = softmax_cross_entropy_into(ws.output(), labels, &mut dlogits);
            self.backward_ws_weights_only(&mut ws, &dlogits);
            opt.begin_step();
            self.apply_grads_ws(&mut ws, &mut opt, weight_decay, 0);
            losses.push(loss);
        }
        losses
    }

    /// Hard class predictions (row-wise argmax of the output).
    pub fn predict(&self, x: &Mat) -> Vec<usize> {
        gcon_linalg::reduce::row_argmax(&self.forward(x))
    }
}

/// `a ← σ(a + b)` over the rows of `a`, one row of `layer`'s bias each:
/// [`Linear::add_bias`] and then [`Activation::apply`], in one pass.
fn bias_activate(layer: &Linear, act: Activation, a: &mut [f64]) {
    if layer.d_out() == 0 {
        return;
    }
    for row in a.chunks_exact_mut(layer.d_out()) {
        for (v, &b) in row.iter_mut().zip(&layer.b) {
            *v = act.apply_scalar(*v + b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use gcon_linalg::ops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(21);
        let mlp = Mlp::new(&MlpConfig::relu_classifier(vec![10, 16, 4]), &mut rng);
        let x = Mat::uniform(7, 10, 1.0, &mut rng);
        assert_eq!(mlp.forward(&x).shape(), (7, 4));
        assert_eq!(mlp.depth(), 2);
    }

    /// End-to-end gradient check through two layers + ReLU.
    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(22);
        let mlp = Mlp::new(
            &MlpConfig {
                dims: vec![5, 8, 3],
                hidden_activation: Activation::Tanh, // smooth, so FD is reliable
                output_activation: Activation::Identity,
            },
            &mut rng,
        );
        let x = Mat::uniform(6, 5, 1.0, &mut rng);
        let c = Mat::uniform(6, 3, 1.0, &mut rng);
        let loss = |m: &Mlp| ops::frobenius_inner(&m.forward(&x), &c);

        let cache = mlp.forward_cached(&x);
        let (_, grads) = mlp.backward(&cache, c.clone());
        let h = 1e-6;
        for (l, g) in grads.iter().enumerate() {
            for i in 0..mlp.layers[l].w.rows() {
                for j in 0..mlp.layers[l].w.cols() {
                    let mut mp = mlp.clone();
                    mp.layers[l].w.add_at(i, j, h);
                    let mut mm = mlp.clone();
                    mm.layers[l].w.add_at(i, j, -h);
                    let fd = (loss(&mp) - loss(&mm)) / (2.0 * h);
                    assert!(
                        (fd - g.dw.get(i, j)).abs() < 1e-4,
                        "layer {l} dW[{i}][{j}]: fd {fd} vs {}",
                        g.dw.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(23);
        let x = Mat::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let labels = [0usize, 1, 1, 0];
        let mut mlp = Mlp::new(&MlpConfig::relu_classifier(vec![2, 16, 2]), &mut rng);
        let losses = mlp.train_cross_entropy(&x, &labels, 400, 0.05, 0.0);
        assert!(losses.last().unwrap() < &0.05, "final loss {}", losses.last().unwrap());
        assert_eq!(mlp.predict(&x), labels.to_vec());
    }

    #[test]
    fn loss_decreases_on_separable_data() {
        let mut rng = StdRng::seed_from_u64(24);
        let n = 60;
        let x = Mat::from_fn(n, 3, |i, j| {
            let class = (i % 2) as f64;
            class * 2.0 - 1.0 + 0.1 * ((i * 3 + j) % 7) as f64
        });
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let mut mlp = Mlp::new(&MlpConfig::relu_classifier(vec![3, 8, 2]), &mut rng);
        let losses = mlp.train_cross_entropy(&x, &labels, 100, 0.02, 1e-4);
        assert!(losses.last().unwrap() < &losses[0]);
    }

    /// One workspace reused across networks of different depth (and the
    /// workspace path must reproduce the allocating path bit-for-bit).
    #[test]
    fn workspace_reuse_across_depths_matches_allocating_path() {
        let mut rng = StdRng::seed_from_u64(27);
        let deep = Mlp::new(&MlpConfig::relu_classifier(vec![4, 8, 6, 2]), &mut rng);
        let shallow = Mlp::new(&MlpConfig::relu_classifier(vec![4, 5, 2]), &mut rng);
        let x = Mat::uniform(6, 4, 1.0, &mut rng);
        let dout = Mat::uniform(6, 2, 1.0, &mut rng);
        let mut ws = MlpWorkspace::new();
        // Deep first so the workspace holds 3 grad slots, then shallow: the
        // slot count must shrink to 2, not panic in apply_grads.
        for net in [&deep, &shallow] {
            net.forward_cached_ws(&x, &mut ws);
            let cache = net.forward_cached(&x);
            assert_eq!(ws.output().as_slice(), cache.last().unwrap().as_slice());
            assert_eq!(net.forward(&x).as_slice(), cache.last().unwrap().as_slice());
            net.backward_ws_weights_only(&mut ws, &dout);
            let (_, grads) = net.backward(&cache, dout.clone());
            assert_eq!(ws.grads().len(), net.depth());
            for (a, b) in ws.grads().iter().zip(&grads) {
                assert_eq!(a.dw.as_slice(), b.dw.as_slice());
                assert_eq!(a.db, b.db);
            }
            // The `_with` pair, with the caller supplying the dense first-layer
            // products, gives the same output and weight gradients.
            let mut ws_with = MlpWorkspace::new();
            net.forward_cached_ws_with(&mut ws_with, |w0, out| ops::matmul_into(&x, w0, out));
            assert_eq!(ws_with.output().as_slice(), cache.last().unwrap().as_slice());
            net.backward_ws_weights_only_with(&mut ws_with, &dout, |d, dw| {
                ops::t_matmul_into(&x, d, dw)
            });
            for (a, b) in ws_with.grads().iter().zip(&grads) {
                assert_eq!(a.dw.as_slice(), b.dw.as_slice());
                assert_eq!(a.db, b.db);
            }
        }
        let mut net = shallow.clone();
        let mut opt = Adam::new(0.01);
        opt.begin_step();
        net.apply_grads_ws(&mut ws, &mut opt, 0.1, 0);
        assert!(net.layers[0].w.is_finite());
    }

    /// `forward_block` on any run of rows is bitwise those rows of the
    /// layer-by-layer `forward_from_product` (the reference), at depths 1–4
    /// with nonzero biases and every activation pair.
    #[test]
    fn forward_block_is_bitwise_the_layer_by_layer_forward() {
        let mut rng = StdRng::seed_from_u64(28);
        let x = Mat::uniform(45, 7, 1.0, &mut rng);
        let acts = [
            (Activation::Relu, Activation::Tanh),
            (Activation::Tanh, Activation::Identity),
            (Activation::Sigmoid, Activation::Relu),
        ];
        for depth in 1..=4 {
            for (hidden, out_act) in acts {
                let dims = [7, 11, 9, 13, 5];
                let layers = (0..depth)
                    .map(|l| {
                        let (d_in, d_out) = (dims[l], if l + 1 == depth { 5 } else { dims[l + 1] });
                        let mut layer = Linear::xavier(d_in, d_out, &mut rng);
                        layer.b = (0..d_out).map(|k| 0.1 * k as f64 - 0.25).collect();
                        layer
                    })
                    .collect();
                let net = Mlp::from_parts(layers, hidden, out_act);
                let xw0 = ops::matmul(&x, &net.layers[0].w);
                let want = net.forward_from_product(xw0.clone());
                let h1 = xw0.cols();
                for (start, end) in [(0, 45), (0, 1), (7, 20), (44, 45)] {
                    let mut block = xw0.as_slice()[start * h1..end * h1].to_vec();
                    let mut out = vec![f64::NAN; (end - start) * 5];
                    net.forward_block(&mut block, &mut out);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let want = &want.as_slice()[start * 5..end * 5];
                    assert_eq!(
                        bits(&out),
                        bits(want),
                        "depth {depth} {hidden:?} rows {start}..{end}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_optimizer_base_idx_does_not_collide() {
        // Two MLPs sharing one Adam must keep disjoint state slots.
        let mut rng = StdRng::seed_from_u64(25);
        let cfg = MlpConfig::relu_classifier(vec![2, 3, 2]);
        let mut a = Mlp::new(&cfg, &mut rng);
        let mut b = Mlp::new(&cfg, &mut rng);
        let x = Mat::uniform(4, 2, 1.0, &mut rng);
        let mut opt = Adam::new(0.01);
        for _ in 0..3 {
            let ca = a.forward_cached(&x);
            let (_, la) = softmax_cross_entropy(ca.last().unwrap(), &[0, 1, 0, 1]);
            let (_, mut ga) = a.backward(&ca, la);
            let cb = b.forward_cached(&x);
            let (_, lb) = softmax_cross_entropy(cb.last().unwrap(), &[1, 0, 1, 0]);
            let (_, mut gb) = b.backward(&cb, lb);
            opt.begin_step();
            let slots_a = 2 * a.depth();
            a.apply_grads(&mut ga, &mut opt, 0.0, 0);
            b.apply_grads(&mut gb, &mut opt, 0.0, slots_a);
        }
        // Nothing blew up and weights stayed finite.
        assert!(a.layers[0].w.is_finite());
        assert!(b.layers[0].w.is_finite());
    }
}
