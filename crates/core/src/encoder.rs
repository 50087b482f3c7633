//! The MLP feature encoder (Algorithm 3, Sec. IV-C1).
//!
//! The encoder compresses raw node features `X ∈ ℝ^{n×d₀}` to `X̄ ∈ ℝ^{n×d₁}`
//! using *only* node features and labels, which are public in the paper's
//! problem setting (Sec. III) — so it preserves edge privacy automatically
//! and consumes no budget. Architecturally it is an embedding MLP
//! (`d₀ → hidden → d₁`, ReLU hidden, tanh output = `H_mlp`) trained jointly
//! with a linear classification head (`d₁ → c`, the `W₂` of the paper) under
//! softmax cross-entropy.
//!
//! Raw features are sparse bag-of-words and arrive as a [`Csr`], so the
//! first layer's product `X·W₀` is a sparse product in every forward: each
//! epoch of [`FeatureEncoder::train`], and
//! [`FeatureEncoder::encode`]/[`FeatureEncoder::predict`] for any input,
//! where it runs one row block at a time with the rest of the network.
//! There is one path, with no density gate, so a row's embedding never
//! depends on which rows are encoded with it (`gcon-serve` splices the
//! encodings of onboarded rows into a full-graph encoding). Training forms
//! the first layer's weight gradient `Xᵀ·δ` from the transpose of the
//! labeled rows, built once, with [`Csr::spmm_sequential_into`]: samples
//! summed in ascending order, the order of the dense `t_matmul`'s zero-skip
//! path, which every block of bag-of-words rows takes. Layers ≥ 1 are dense.

use gcon_graph::Csr;
use gcon_linalg::Mat;
use gcon_nn::loss::softmax_cross_entropy_into;
use gcon_nn::{Activation, Adam, Linear, LinearGrads, Mlp, MlpConfig, MlpWorkspace};
use rand::Rng;

/// Hyperparameters for the encoder.
#[derive(Clone, Debug)]
pub struct EncoderConfig {
    /// Hidden width of the embedding MLP (paper tunes {8, 16, 64}).
    pub hidden: usize,
    /// Output embedding dimension `d₁`.
    pub d1: usize,
    /// Full-batch Adam epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Weight decay on all weight matrices.
    pub weight_decay: f64,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self { hidden: 64, d1: 16, epochs: 200, lr: 0.01, weight_decay: 1e-5 }
    }
}

/// The trained encoder: embedding network `W₁` plus classification head `W₂`.
#[derive(Clone, Debug)]
pub struct FeatureEncoder {
    pub(crate) net: Mlp,
    pub(crate) head: Linear,
}

impl FeatureEncoder {
    /// Trains the encoder on the labeled nodes (Algorithm 3, lines 1–4).
    ///
    /// `x_labeled` is `n₁ × d₀`, `labels` holds class indices in `0..c`.
    pub fn train<R: Rng + ?Sized>(
        cfg: &EncoderConfig,
        x_labeled: &Csr,
        labels: &[usize],
        num_classes: usize,
        rng: &mut R,
    ) -> Self {
        assert_eq!(x_labeled.rows(), labels.len(), "encoder: label count mismatch");
        assert!(num_classes >= 2);
        let d0 = x_labeled.cols();
        let mut net = Mlp::new(
            &MlpConfig {
                dims: vec![d0, cfg.hidden, cfg.d1],
                hidden_activation: Activation::Relu,
                output_activation: Activation::Tanh,
            },
            rng,
        );
        let mut head = Linear::xavier(cfg.d1, num_classes, rng);
        let mut opt = Adam::new(cfg.lr);
        let net_slots = 2 * net.depth();
        // All epoch-loop buffers live outside the loop: steady-state epochs
        // perform no matrix allocation (gcon-runtime `_into` discipline).
        let mut ws = MlpWorkspace::new();
        let mut logits = Mat::zeros(0, 0);
        let mut dlogits = Mat::zeros(0, 0);
        let mut demb = Mat::zeros(0, 0);
        let mut head_grads = LinearGrads::zeros(0, 0);
        // The labeled rows are the same every epoch: one transpose for the
        // layer-0 weight gradient `Xᵀ·δ`.
        let x_t = x_labeled.transpose();
        for _ in 0..cfg.epochs {
            net.forward_cached_ws_with(&mut ws, |w0, out| x_labeled.spmm_into(w0, out));
            head.forward_into(ws.output(), &mut logits);
            let _ = softmax_cross_entropy_into(&logits, labels, &mut dlogits);
            head.backward_into(ws.output(), &dlogits, &mut demb, &mut head_grads);
            net.backward_ws_weights_only_with(&mut ws, &demb, |delta, dw| {
                x_t.spmm_sequential_into(delta, dw)
            });
            opt.begin_step();
            net.apply_grads_ws(&mut ws, &mut opt, cfg.weight_decay, 0);
            gcon_linalg::ops::add_scaled_assign(&mut head_grads.dw, cfg.weight_decay, &head.w);
            opt.update(net_slots, head.w.as_mut_slice(), head_grads.dw.as_slice());
            opt.update(net_slots + 1, &mut head.b, &head_grads.db);
        }
        Self { net, head }
    }

    /// Encodes features into the `d₁`-dimensional space (Algorithm 3 line 5).
    ///
    /// One pass over row blocks ([`Csr::spmm_row_blocks`]): each block's
    /// first-layer product `X·W₀` goes through the rest of the network
    /// ([`Mlp::forward_block`]) while it is in cache, so only the `n × d₁`
    /// output is allocated. Each element has the bits of the layer-by-layer
    /// forward `net.forward_from_product(x.spmm(W₀))`.
    pub fn encode(&self, x: &Csr) -> Mat {
        let net = &self.net;
        let d1 = net.layers[net.depth() - 1].d_out();
        let mut out = Mat::zeros(x.rows(), d1);
        let work = x.rows() * net.forward_block_work();
        x.spmm_row_blocks(&net.layers[0].w, out.as_mut_slice(), d1, work, |xw0, rows, _| {
            net.forward_block(xw0, rows)
        });
        out
    }

    /// Class predictions from the encoder head alone (used as pseudo-labels
    /// when the training set is expanded to all nodes, per Appendix Q).
    pub fn predict(&self, x: &Csr) -> Vec<usize> {
        self.head_argmax(&self.encode(x))
    }

    /// The head's class predictions on an embedding from
    /// [`FeatureEncoder::encode`] (before row normalization), so
    /// `head_argmax(&encode(x))` is `predict(x)`.
    pub(crate) fn head_argmax(&self, emb: &Mat) -> Vec<usize> {
        gcon_linalg::reduce::row_argmax(&self.head.forward(emb))
    }

    /// Input dimension d₀: the raw feature width it was trained on.
    pub fn d0(&self) -> usize {
        self.net.layers[0].d_in()
    }

    /// Output dimension d₁.
    pub fn d1(&self) -> usize {
        self.head.d_in()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Linearly separable blobs in d₀ = 10.
    fn blobs(n: usize, c: usize, rng: &mut StdRng) -> (Csr, Vec<usize>) {
        let labels: Vec<usize> = (0..n).map(|i| i % c).collect();
        let x = Mat::from_fn(n, 10, |i, j| {
            let class = labels[i] as f64;
            let center = if j % c == labels[i] { 2.0 } else { -0.5 };
            center + 0.3 * (((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5) + 0.01 * class
        });
        let _ = rng;
        (Csr::from_dense(&x), labels)
    }

    #[test]
    fn encoder_learns_separable_classes() {
        let mut rng = StdRng::seed_from_u64(71);
        let (x, labels) = blobs(120, 3, &mut rng);
        let cfg = EncoderConfig { epochs: 150, ..Default::default() };
        let enc = FeatureEncoder::train(&cfg, &x, &labels, 3, &mut rng);
        let pred = enc.predict(&x);
        let acc =
            pred.iter().zip(&labels).filter(|(a, b)| a == b).count() as f64 / labels.len() as f64;
        assert!(acc > 0.9, "encoder train accuracy {acc}");
    }

    #[test]
    fn encode_shape_and_tanh_range() {
        let mut rng = StdRng::seed_from_u64(72);
        let (x, labels) = blobs(60, 2, &mut rng);
        let cfg = EncoderConfig { d1: 8, epochs: 30, ..Default::default() };
        let enc = FeatureEncoder::train(&cfg, &x, &labels, 2, &mut rng);
        let emb = enc.encode(&x);
        assert_eq!(emb.shape(), (60, 8));
        assert_eq!(enc.d1(), 8);
        // tanh output stays in (−1, 1)
        assert!(emb.max_abs() <= 1.0);
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// An encoder of `depth` layers over `d0` inputs, built with
    /// `Mlp::from_parts` as a decoded artifact is, with nonzero biases.
    fn encoder_of_depth(depth: usize, d0: usize, rng: &mut StdRng) -> FeatureEncoder {
        let widths = [9, 6, 4];
        let dims: Vec<usize> =
            std::iter::once(d0).chain(widths[3 - depth..].iter().copied()).collect();
        let layers = dims
            .windows(2)
            .map(|w| {
                let mut layer = Linear::xavier(w[0], w[1], rng);
                layer.b = (0..w[1]).map(|k| 0.1 * k as f64 - 0.2).collect();
                layer
            })
            .collect();
        let net = Mlp::from_parts(layers, Activation::Relu, Activation::Tanh);
        FeatureEncoder { net, head: Linear::xavier(4, 3, rng) }
    }

    /// Bag-of-words-like input: a `density` share of the entries drawn by
    /// `value`, the rest zero; row 3 is all zero.
    fn sparse_input(
        n: usize,
        d0: usize,
        density: f64,
        rng: &mut StdRng,
        mut value: impl FnMut(&mut StdRng) -> f64,
    ) -> Mat {
        Mat::from_fn(
            n,
            d0,
            |i, _| if i != 3 && rng.gen::<f64>() < density { value(rng) } else { 0.0 },
        )
    }

    /// The sparse first layer agrees with the dense forward of the same
    /// network (the test reference) to rounding, at every depth a decoded
    /// artifact may carry, on dense, sparse 0/1, signed and `-0.0` inputs.
    #[test]
    fn encode_matches_the_dense_forward_at_every_depth() {
        let mut rng = StdRng::seed_from_u64(74);
        let (n, d0) = (50, 37);
        let dense = Mat::uniform(n, d0, 1.0, &mut rng);
        let binary = sparse_input(n, d0, 0.04, &mut rng, |_| 1.0);
        let signed = sparse_input(n, d0, 0.1, &mut rng, |r| r.gen_range(-3.0..-0.5));
        let mut negzero = binary.clone();
        negzero.map_inplace(|v| if v == 0.0 { -0.0 } else { v });
        for depth in 1..=3 {
            let enc = encoder_of_depth(depth, d0, &mut rng);
            for (name, x) in
                [("dense", &dense), ("binary", &binary), ("signed", &signed), ("-0", &negzero)]
            {
                let sparse = Csr::from_dense(x);
                let (got, want) = (enc.encode(&sparse), enc.net.forward(x));
                assert_eq!(got.shape(), (n, 4));
                for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                    assert!((a - b).abs() <= 1e-12, "depth {depth} {name}: {a} vs {b}");
                }
                assert_eq!(enc.predict(&sparse), enc.head_argmax(&got), "depth {depth} {name}");
            }
            // `-0.0` entries are dropped: the same bits as `+0.0`.
            let (negzero, binary) = (Csr::from_dense(&negzero), Csr::from_dense(&binary));
            assert_eq!(bits(&enc.encode(&negzero)), bits(&enc.encode(&binary)), "depth {depth}");
        }
    }

    /// A row's embedding does not depend on the rows encoded with it: the
    /// encoding of selected rows (an all-zero row, a repeat, reversed order)
    /// is bitwise the selection of the full encoding, whose first-layer
    /// product is large enough to run on the worker pool. Every 50th row is
    /// fully dense, row 11 is 3.5 % nonzero and the rest about 5 %, so the
    /// selections range from 0 % to 100 % nonzero against the full
    /// matrix's 7 %: a path chosen by density would differ for some
    /// selection.
    #[test]
    fn encode_is_bitwise_independent_of_row_position() {
        let mut rng = StdRng::seed_from_u64(75);
        let (n, d0) = (6000, 200);
        let x = Mat::from_fn(n, d0, |i, j| {
            if i % 50 == 7 {
                rng.gen_range(-1.0..1.0)
            } else if i == 11 {
                if j % 30 == 1 {
                    rng.gen_range(0.5..2.0)
                } else {
                    0.0
                }
            } else if i != 3 && rng.gen::<f64>() < 0.05 {
                rng.gen_range(0.5..2.0)
            } else {
                0.0
            }
        });
        assert!(x.row(3).iter().all(|&v| v == 0.0));
        let x = Csr::from_dense(&x);
        let mut mixed = vec![3, 17, 17, n - 1];
        mixed.extend((0..40).rev());
        for depth in 1..=3 {
            let enc = encoder_of_depth(depth, d0, &mut rng);
            let work = x.nnz() * enc.net.layers[0].w.cols();
            assert!(work >= gcon_linalg::PAR_THRESHOLD, "depth {depth}: product runs on the pool");
            let full = enc.encode(&x);
            for idx in [vec![3], vec![11], vec![1907, 7, 57, 57], mixed.clone()] {
                let part = enc.encode(&x.select_rows(&idx));
                assert_eq!(bits(&part), bits(&full.select_rows(&idx)), "depth {depth} {idx:?}");
            }
        }
    }

    /// The fused row-block encode is bitwise the layer-by-layer forward
    /// `forward_from_product(X·W₀)` kept here as the reference, at depths
    /// 1–3 with nonzero biases, on row counts that are multiples of neither
    /// [`ROW_BLOCK`] nor pool width 2 or 4 (an all-zero row among them), with
    /// inputs large enough that the pass runs on the pool; and on inputs
    /// of fewer rows than one block, down to none.
    #[test]
    fn encode_is_bitwise_the_layer_by_layer_forward() {
        use gcon_graph::csr::ROW_BLOCK;
        let mut rng = StdRng::seed_from_u64(78);
        let d0 = 300;
        let reference = |enc: &FeatureEncoder, x: &Csr| {
            enc.net.forward_from_product(x.spmm(&enc.net.layers[0].w))
        };
        for n in [16 * ROW_BLOCK + 45, 3 * ROW_BLOCK + 7, ROW_BLOCK - 1, 5, 1, 0] {
            assert!(n % ROW_BLOCK != 0 || n == 0);
            let x =
                Csr::from_dense(&sparse_input(n, d0, 0.05, &mut rng, |r| r.gen_range(0.5..2.0)));
            for depth in 1..=3 {
                let widths = [64, 24, 16];
                let dims: Vec<usize> =
                    std::iter::once(d0).chain(widths[3 - depth..].iter().copied()).collect();
                let layers = dims
                    .windows(2)
                    .map(|w| {
                        let mut layer = Linear::xavier(w[0], w[1], &mut rng);
                        layer.b = (0..w[1]).map(|k| 0.05 * k as f64 - 0.3).collect();
                        layer
                    })
                    .collect();
                let net = Mlp::from_parts(layers, Activation::Relu, Activation::Tanh);
                let enc = FeatureEncoder { net, head: Linear::xavier(16, 3, &mut rng) };
                if n > 1000 {
                    assert!(n % 2 == 1, "n = {n} is a multiple of pool width 2 or 4");
                    let work = x.nnz() * enc.net.layers[0].w.cols();
                    assert!(work >= gcon_linalg::PAR_THRESHOLD, "n = {n} depth {depth}: pooled");
                }
                let got = enc.encode(&x);
                assert_eq!(got.shape(), (n, 16));
                assert_eq!(bits(&got), bits(&reference(&enc, &x)), "n = {n} depth {depth}");
            }
        }
    }

    #[test]
    fn encoder_never_touches_edges() {
        // API-level check: the encoder's inputs are features and labels only;
        // training twice with identical features/labels but different
        // "graphs" (irrelevant here) gives identical results for a fixed rng.
        let mut r1 = StdRng::seed_from_u64(73);
        let mut r2 = StdRng::seed_from_u64(73);
        let (x, labels) = blobs(40, 2, &mut r1);
        let (x2, labels2) = blobs(40, 2, &mut r2);
        let cfg = EncoderConfig { epochs: 20, ..Default::default() };
        let e1 = FeatureEncoder::train(&cfg, &x, &labels, 2, &mut r1);
        let e2 = FeatureEncoder::train(&cfg, &x2, &labels2, 2, &mut r2);
        assert_eq!(e1.encode(&x).as_slice(), e2.encode(&x2).as_slice());
    }

    /// Training on bag-of-words rows (more than `TM_IB` of them) gives
    /// bitwise the weights of the reference loop kept here, whose layer-0
    /// weight gradient is the dense `t_matmul` over the same rows.
    #[test]
    fn train_matches_the_dense_gradient_reference_bitwise() {
        use gcon_linalg::ops::{t_matmul_into, TM_IB};
        use gcon_nn::MlpConfig;
        let mut rng = StdRng::seed_from_u64(76);
        let (n, d0, c) = (2 * TM_IB + 45, 120, 3);
        let labels: Vec<usize> = (0..n).map(|i| (i * 7 + i / 5) % c).collect();
        let dense = sparse_input(n, d0, 0.03, &mut rng, |_| 1.0);
        let x = Csr::from_dense(&dense);
        let cfg = EncoderConfig { epochs: 25, ..Default::default() };
        let got = FeatureEncoder::train(&cfg, &x, &labels, c, &mut StdRng::seed_from_u64(77));

        let mut rng = StdRng::seed_from_u64(77);
        let dims = vec![d0, cfg.hidden, cfg.d1];
        let mut net = Mlp::new(
            &MlpConfig {
                dims,
                hidden_activation: Activation::Relu,
                output_activation: Activation::Tanh,
            },
            &mut rng,
        );
        let mut head = Linear::xavier(cfg.d1, c, &mut rng);
        let mut opt = Adam::new(cfg.lr);
        let mut ws = MlpWorkspace::new();
        let (mut logits, mut dlogits, mut demb) = (Mat::default(), Mat::default(), Mat::default());
        let mut head_grads = LinearGrads::zeros(0, 0);
        let slots = 2 * net.depth();
        for _ in 0..cfg.epochs {
            net.forward_cached_ws_with(&mut ws, |w0, out| x.spmm_into(w0, out));
            head.forward_into(ws.output(), &mut logits);
            let _ = softmax_cross_entropy_into(&logits, &labels, &mut dlogits);
            head.backward_into(ws.output(), &dlogits, &mut demb, &mut head_grads);
            net.backward_ws_weights_only_with(&mut ws, &demb, |delta, dw| {
                t_matmul_into(&dense, delta, dw)
            });
            opt.begin_step();
            net.apply_grads_ws(&mut ws, &mut opt, cfg.weight_decay, 0);
            gcon_linalg::ops::add_scaled_assign(&mut head_grads.dw, cfg.weight_decay, &head.w);
            opt.update(slots, head.w.as_mut_slice(), head_grads.dw.as_slice());
            opt.update(slots + 1, &mut head.b, &head_grads.db);
        }
        let vbits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (l, (a, b)) in got.net.layers.iter().zip(&net.layers).enumerate() {
            assert_eq!(bits(&a.w), bits(&b.w), "layer {l} weights");
            assert_eq!(vbits(&a.b), vbits(&b.b), "layer {l} bias");
        }
        assert_eq!(bits(&got.head.w), bits(&head.w));
        assert_eq!(vbits(&got.head.b), vbits(&head.b));
    }
}
