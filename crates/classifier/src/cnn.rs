//! The 2-conv-layer CNN and its training loop.

use orco_datasets::{Dataset, DatasetKind};
use orco_nn::{metrics, Activation, Conv2d, Dense, Loss, MaxPool2d, Optimizer, Sequential};
use orco_tensor::{Matrix, OrcoRng};

/// Training hyperparameters for the classifier.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 10, batch_size: 32, learning_rate: 1e-3 }
    }
}

/// One point of the Figure-5 training curve.
#[derive(Debug, Clone, Copy)]
pub struct EpochPoint {
    /// Epoch number, starting at 1.
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Accuracy on the held-out test set.
    pub test_accuracy: f32,
    /// Cross-entropy loss on the held-out test set.
    pub test_loss: f32,
}

/// The paper's follow-up classifier: conv→pool→conv→pool→dense.
///
/// Architecture per dataset kind:
/// * MNIST-like: `1×28×28 → conv8 → pool2 → conv16 → pool2 → dense(10)`
/// * GTSRB-like: `3×32×32 → conv8 → pool2 → conv16 → pool2 → dense(43)`
#[derive(Debug)]
pub struct Cnn {
    model: Sequential,
    kind: DatasetKind,
}

impl Cnn {
    /// Builds the classifier for a dataset kind.
    #[must_use]
    pub fn new(kind: DatasetKind, rng: &mut OrcoRng) -> Self {
        let c = kind.channels();
        let side = kind.height();
        let mut model = Sequential::new();
        model.push(Conv2d::new(c, side, side, 8, 3, 1, 1, Activation::Relu, rng));
        model.push(MaxPool2d::new(8, side, side, 2));
        let half = side / 2;
        model.push(Conv2d::new(8, half, half, 16, 3, 1, 1, Activation::Relu, rng));
        model.push(MaxPool2d::new(16, half, half, 2));
        let quarter = half / 2;
        model.push(Dense::new(16 * quarter * quarter, kind.classes(), Activation::Identity, rng));
        Self { model, kind }
    }

    /// Logits for a batch (inference mode).
    pub(crate) fn predict(&mut self, x: &Matrix) -> Matrix {
        self.model.forward(x, false)
    }

    /// Accuracy on a dataset.
    pub(crate) fn accuracy(&mut self, data: &Dataset) -> f32 {
        let logits = self.predict(data.x());
        metrics::accuracy(&logits, data.labels())
    }

    /// Cross-entropy loss on a dataset.
    pub(crate) fn loss(&mut self, data: &Dataset) -> f32 {
        let logits = self.predict(data.x());
        let targets = metrics::one_hot(data.labels(), self.kind.classes());
        Loss::SoftmaxCrossEntropy.value(&logits, &targets)
    }

    /// Trains for `config.epochs`, recording the test curve after every
    /// epoch (the series plotted in the paper's Figure 5).
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or kinds mismatch.
    pub fn train_epochs(
        &mut self,
        train: &Dataset,
        test: &Dataset,
        config: &TrainConfig,
        rng: &mut OrcoRng,
    ) -> Vec<EpochPoint> {
        assert!(!train.is_empty(), "train_epochs: empty training set");
        assert_eq!(train.kind(), self.kind, "train_epochs: dataset kind mismatch");
        assert_eq!(test.kind(), self.kind, "train_epochs: test kind mismatch");
        let loss = Loss::SoftmaxCrossEntropy;
        let mut opt = Optimizer::adam(config.learning_rate).with_grad_clip(5.0);
        let targets = metrics::one_hot(train.labels(), self.kind.classes());
        let n = train.len();
        let bs = config.batch_size.min(n).max(1);
        let mut order: Vec<usize> = (0..n).collect();
        let mut curve = Vec::with_capacity(config.epochs);
        for epoch in 1..=config.epochs {
            rng.shuffle(&mut order);
            let mut total = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(bs) {
                let xb = train.x().select_rows(chunk);
                let yb = targets.select_rows(chunk);
                total += f64::from(self.model.train_batch(&xb, &yb, &loss, &mut opt));
                batches += 1;
            }
            curve.push(EpochPoint {
                epoch,
                train_loss: (total / batches as f64) as f32,
                test_accuracy: self.accuracy(test),
                test_loss: self.loss(test),
            });
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orco_datasets::mnist_like;

    #[test]
    fn architecture_shapes() {
        let mut rng = OrcoRng::from_label("cnn-shape", 0);
        let mut cnn = Cnn::new(DatasetKind::MnistLike, &mut rng);
        let logits = cnn.predict(&Matrix::zeros(2, 784));
        assert_eq!(logits.shape(), (2, 10));
        let mut g = Cnn::new(DatasetKind::GtsrbLike, &mut rng);
        let logits = g.predict(&Matrix::zeros(1, 3072));
        assert_eq!(logits.shape(), (1, 43));
    }

    #[test]
    fn learns_digits_above_chance() {
        let mut rng = OrcoRng::from_label("cnn-learn", 0);
        let train = mnist_like::generate(120, 0);
        let test = mnist_like::generate(40, 99);
        let mut cnn = Cnn::new(DatasetKind::MnistLike, &mut rng);
        let curve = cnn.train_epochs(
            &train,
            &test,
            &TrainConfig { epochs: 6, batch_size: 16, learning_rate: 2e-3 },
            &mut rng,
        );
        let final_acc = curve.last().unwrap().test_accuracy;
        assert!(final_acc > 0.3, "accuracy {final_acc} should beat 10% chance clearly");
        // Training loss decreases.
        assert!(curve.last().unwrap().train_loss < curve[0].train_loss);
    }

    #[test]
    fn curve_has_one_point_per_epoch() {
        let mut rng = OrcoRng::from_label("cnn-curve", 0);
        let train = mnist_like::generate(20, 0);
        let test = mnist_like::generate(10, 1);
        let mut cnn = Cnn::new(DatasetKind::MnistLike, &mut rng);
        let curve = cnn.train_epochs(
            &train,
            &test,
            &TrainConfig { epochs: 3, batch_size: 8, learning_rate: 1e-3 },
            &mut rng,
        );
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].epoch, 1);
        assert_eq!(curve[2].epoch, 3);
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn rejects_wrong_dataset_kind() {
        let mut rng = OrcoRng::from_label("cnn-bad", 0);
        let mut cnn = Cnn::new(DatasetKind::GtsrbLike, &mut rng);
        let ds = mnist_like::generate(4, 0);
        let _ = cnn.train_epochs(&ds, &ds, &TrainConfig::default(), &mut rng);
    }
}
