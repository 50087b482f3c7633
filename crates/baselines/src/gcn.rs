//! The non-private 2-layer GCN of Kipf & Welling — the utility upper bound
//! ("GCN (non-DP)") in Figure 1, and the network DPGCN trains on its
//! perturbed graph.
//!
//! Model: `logits = Â · ReLU(Â X W₁ + b₁) · W₂ + b₂` with the symmetric
//! normalization `Â = D^{-1/2}(A+I)D^{-1/2}`. Gradients are hand-derived;
//! the key identity is that for symmetric `Â`, `∂(Â M)/∂M` backpropagates as
//! another multiplication by `Â`.

use gcon_graph::normalize::symmetric;
use gcon_graph::{Csr, Graph};
use gcon_linalg::{reduce, Mat};
use gcon_nn::{Activation, Adam, Linear};
use rand::Rng;

/// Hyperparameters for the GCN baseline.
#[derive(Clone, Debug)]
pub struct GcnConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Full-batch Adam epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Weight decay on both weight matrices.
    pub weight_decay: f64,
}

impl Default for GcnConfig {
    fn default() -> Self {
        Self { hidden: 32, epochs: 150, lr: 0.01, weight_decay: 5e-4 }
    }
}

/// A trained 2-layer GCN.
#[derive(Clone, Debug)]
pub struct Gcn {
    w1: Linear,
    w2: Linear,
}

impl Gcn {
    /// Forward pass on a given normalized adjacency.
    pub fn forward(&self, a_hat: &Csr, x: &Mat) -> Mat {
        let ax = a_hat.spmm(x);
        let mut h1 = self.w1.forward(&ax);
        Activation::Relu.apply(&mut h1);
        let ah = a_hat.spmm(&h1);
        self.w2.forward(&ah)
    }

    /// Hard predictions for all nodes.
    pub fn predict(&self, a_hat: &Csr, x: &Mat) -> Vec<usize> {
        reduce::row_argmax(&self.forward(a_hat, x))
    }
}

/// Cross-entropy restricted to `idx` rows, returning the gradient scattered
/// back to the full logit matrix (zero rows elsewhere). Reference form of
/// [`masked_cross_entropy_into`], kept for the unit tests.
#[cfg(test)]
fn masked_cross_entropy(logits: &Mat, labels: &[usize], idx: &[usize]) -> (f64, Mat) {
    let sel_labels: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
    let mut scratch = MaskedCeScratch::default();
    let mut grad = Mat::default();
    let loss = masked_cross_entropy_into(logits, &sel_labels, idx, &mut scratch, &mut grad);
    (loss, grad)
}

/// Reusable buffers for [`masked_cross_entropy_into`].
#[derive(Default)]
struct MaskedCeScratch {
    sel: Mat,
    grad_sel: Mat,
}

/// [`masked_cross_entropy`] with pre-gathered labels and caller-owned
/// buffers — the epoch-loop form (no per-iteration allocation).
fn masked_cross_entropy_into(
    logits: &Mat,
    sel_labels: &[usize],
    idx: &[usize],
    scratch: &mut MaskedCeScratch,
    grad: &mut Mat,
) -> f64 {
    logits.select_rows_into(idx, &mut scratch.sel);
    let loss =
        gcon_nn::loss::softmax_cross_entropy_into(&scratch.sel, sel_labels, &mut scratch.grad_sel);
    grad.reset_to_zeros(logits.rows(), logits.cols());
    for (r, &i) in idx.iter().enumerate() {
        grad.row_mut(i).copy_from_slice(scratch.grad_sel.row(r));
    }
    loss
}

/// Trains the GCN with full-batch Adam on the labeled nodes.
pub fn train_gcn<R: Rng + ?Sized>(
    cfg: &GcnConfig,
    graph: &Graph,
    x: &Mat,
    labels: &[usize],
    train_idx: &[usize],
    num_classes: usize,
    rng: &mut R,
) -> Gcn {
    let a_hat = symmetric(graph);
    train_gcn_on_adjacency(cfg, &a_hat, x, labels, train_idx, num_classes, rng)
}

/// Trains on an explicit (possibly perturbed) normalized adjacency — the
/// entry point DPGCN uses after its DP graph perturbation.
pub fn train_gcn_on_adjacency<R: Rng + ?Sized>(
    cfg: &GcnConfig,
    a_hat: &Csr,
    x: &Mat,
    labels: &[usize],
    train_idx: &[usize],
    num_classes: usize,
    rng: &mut R,
) -> Gcn {
    assert!(!train_idx.is_empty(), "train_gcn: empty training set");
    let d0 = x.cols();
    let mut model = Gcn {
        w1: Linear::kaiming(d0, cfg.hidden, rng),
        w2: Linear::xavier(cfg.hidden, num_classes, rng),
    };
    let mut opt = Adam::new(cfg.lr);
    // Â X and the gathered labels are constant across epochs — hoist them,
    // and keep every forward/backward buffer outside the loop so the
    // steady-state epoch performs no matrix allocation.
    let ax = a_hat.spmm(x);
    let sel_labels: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
    let mut h1 = Mat::default();
    let mut ah = Mat::default();
    let mut logits = Mat::default();
    let mut ce_scratch = MaskedCeScratch::default();
    let mut dlogits = Mat::default();
    let mut d_ah = Mat::default();
    let mut dh1 = Mat::default();
    let mut g1 = gcon_nn::LinearGrads::zeros(0, 0);
    let mut g2 = gcon_nn::LinearGrads::zeros(0, 0);
    for _ in 0..cfg.epochs {
        // Forward with caches.
        model.w1.forward_into(&ax, &mut h1);
        Activation::Relu.apply(&mut h1);
        a_hat.spmm_into(&h1, &mut ah);
        model.w2.forward_into(&ah, &mut logits);
        let _ = masked_cross_entropy_into(
            &logits,
            &sel_labels,
            train_idx,
            &mut ce_scratch,
            &mut dlogits,
        );
        // Backward.
        model.w2.backward_into(&ah, &dlogits, &mut d_ah, &mut g2);
        a_hat.spmm_into(&d_ah, &mut dh1); // Âᵀ = Â (symmetric normalization)
        Activation::Relu.backprop_inplace(&h1, &mut dh1);
        // Layer-0 input gradient is never read (ax is the fixed input):
        // weights-only backward skips that n × d_in GEMM.
        model.w1.backward_weights_into(&ax, &dh1, &mut g1);
        // Update with weight decay on W only (gradients are scratch, decay
        // is added in place).
        opt.begin_step();
        gcon_linalg::ops::add_scaled_assign(&mut g1.dw, cfg.weight_decay, &model.w1.w);
        opt.update(0, model.w1.w.as_mut_slice(), g1.dw.as_slice());
        opt.update(1, &mut model.w1.b, &g1.db);
        gcon_linalg::ops::add_scaled_assign(&mut g2.dw, cfg.weight_decay, &model.w2.w);
        opt.update(2, model.w2.w.as_mut_slice(), g2.dw.as_slice());
        opt.update(3, &mut model.w2.b, &g2.db);
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcon_datasets::metrics::micro_f1;
    use gcon_datasets::two_moons_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gcn_learns_homophilous_toy_dataset() {
        let d = two_moons_graph(11);
        let mut rng = StdRng::seed_from_u64(12);
        let cfg = GcnConfig { hidden: 16, epochs: 120, ..Default::default() };
        let model = train_gcn(
            &cfg,
            &d.graph,
            &d.features.to_dense(),
            &d.labels,
            &d.split.train,
            d.num_classes,
            &mut rng,
        );
        let a_hat = symmetric(&d.graph);
        let pred = model.predict(&a_hat, &d.features.to_dense());
        let test_pred: Vec<usize> = d.split.test.iter().map(|&i| pred[i]).collect();
        let f1 = micro_f1(&test_pred, &d.test_labels());
        assert!(f1 > 0.8, "GCN test micro-F1 {f1}");
    }

    #[test]
    fn masked_ce_only_grads_selected_rows() {
        let logits = Mat::from_rows(&[&[1.0, -1.0], &[0.3, 0.4], &[2.0, 0.0]]);
        let (_, grad) = masked_cross_entropy(&logits, &[0, 1, 1], &[0, 2]);
        assert_eq!(grad.row(1), &[0.0, 0.0]);
        assert!(grad.row(0).iter().any(|&v| v != 0.0));
        assert!(grad.row(2).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn forward_shapes() {
        let d = two_moons_graph(13);
        let mut rng = StdRng::seed_from_u64(14);
        let model = Gcn {
            w1: Linear::kaiming(d.features.cols(), 8, &mut rng),
            w2: Linear::xavier(8, 2, &mut rng),
        };
        let a_hat = symmetric(&d.graph);
        let out = model.forward(&a_hat, &d.features.to_dense());
        assert_eq!(out.shape(), (d.num_nodes(), 2));
        assert!(out.is_finite());
    }
}
