//! Linear SVM trained with Pegasos SGD.
//!
//! The Cyclone detector (paper Sec. V-D) feeds cyclic-interference features
//! to an SVM classifier. Offline ML crates are unavailable, so this module
//! implements a linear soft-margin SVM trained by the Pegasos
//! (primal sub-gradient) algorithm, plus the k-fold cross-validation used to
//! report the paper's 98.8% validation accuracy.

use rand::seq::SliceRandom;
use rand::Rng;

/// A linear SVM `f(x) = w·x + b`, classifying `f(x) >= 0` as positive
/// (attack) and `f(x) < 0` as negative (benign).
#[derive(Clone, Debug, PartialEq)]
pub struct LinearSvm {
    /// Weight vector.
    pub w: Vec<f32>,
    /// Bias term.
    pub b: f32,
}

/// Training hyper-parameters for [`LinearSvm::train`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SvmTrainConfig {
    /// Regularization strength (Pegasos λ).
    pub lambda: f32,
    /// Number of SGD epochs over the training set.
    pub epochs: usize,
}

impl Default for SvmTrainConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-3,
            epochs: 60,
        }
    }
}

impl LinearSvm {
    /// Trains a linear SVM on `(x, y)` pairs with `y ∈ {-1, +1}`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, feature dimensions are inconsistent,
    /// or any label is not ±1.
    pub fn train(data: &[(Vec<f32>, i8)], config: &SvmTrainConfig, rng: &mut impl Rng) -> Self {
        assert!(!data.is_empty(), "empty training set");
        let dim = data[0].0.len();
        for (x, y) in data {
            assert_eq!(x.len(), dim, "inconsistent feature dimensions");
            assert!(*y == 1 || *y == -1, "labels must be +1/-1");
        }
        // Bias is folded into an augmented (regularized) coordinate so the
        // decaying Pegasos step cannot blow it up on the first samples; the
        // schedule is offset by the dataset size for the same reason.
        let mut w = vec![0.0f32; dim + 1];
        let mut order: Vec<usize> = (0..data.len()).collect();
        let t0 = data.len() as u64;
        let mut t = 0u64;
        for _ in 0..config.epochs {
            order.shuffle(rng);
            for &i in &order {
                t += 1;
                let eta = 1.0 / (config.lambda * (t0 + t) as f32);
                let (x, y) = &data[i];
                let y = *y as f32;
                let margin = y * (dot(&w[..dim], x) + w[dim]);
                // Regularization shrink.
                let shrink = 1.0 - eta * config.lambda;
                for wi in &mut w {
                    *wi *= shrink;
                }
                if margin < 1.0 {
                    for (wi, xi) in w[..dim].iter_mut().zip(x.iter()) {
                        *wi += eta * y * xi;
                    }
                    w[dim] += eta * y;
                }
            }
        }
        let b = w.pop().expect("augmented bias present");
        Self { w, b }
    }

    /// Decision value `w·x + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn decision(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.w.len(), "feature dimension mismatch");
        dot(&self.w, x) + self.b
    }

    /// Predicts the class label (+1 = attack, -1 = benign).
    pub fn predict(&self, x: &[f32]) -> i8 {
        if self.decision(x) >= 0.0 {
            1
        } else {
            -1
        }
    }

    /// Accuracy on a labelled dataset.
    pub fn accuracy(&self, data: &[(Vec<f32>, i8)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data.iter().filter(|(x, y)| self.predict(x) == *y).count();
        correct as f64 / data.len() as f64
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// k-fold cross-validation accuracy (the paper reports 5-fold, 98.8%).
///
/// # Panics
///
/// Panics if `k < 2` or the dataset has fewer than `k` samples.
pub fn cross_validate(
    data: &[(Vec<f32>, i8)],
    k: usize,
    config: &SvmTrainConfig,
    rng: &mut impl Rng,
) -> f64 {
    assert!(k >= 2, "k must be at least 2");
    assert!(data.len() >= k, "need at least k samples");
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(rng);
    let fold_size = data.len() / k;
    let mut total_acc = 0.0;
    for fold in 0..k {
        let lo = fold * fold_size;
        let hi = if fold + 1 == k {
            data.len()
        } else {
            lo + fold_size
        };
        let test: Vec<_> = order[lo..hi].iter().map(|&i| data[i].clone()).collect();
        let train: Vec<_> = order[..lo]
            .iter()
            .chain(order[hi..].iter())
            .map(|&i| data[i].clone())
            .collect();
        let svm = LinearSvm::train(&train, config, rng);
        total_acc += svm.accuracy(&test);
    }
    total_acc / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(17)
    }

    fn separable_dataset(n: usize) -> Vec<(Vec<f32>, i8)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut data = Vec::new();
        for _ in 0..n {
            // Positive class near (2, 2), negative near (-2, -2).
            let mut jitter = || rng.gen_range(-0.5f32..0.5);
            data.push((vec![2.0 + jitter(), 2.0 + jitter()], 1));
            data.push((vec![-2.0 + jitter(), -2.0 + jitter()], -1));
        }
        data
    }

    #[test]
    fn learns_separable_data() {
        let data = separable_dataset(50);
        let svm = LinearSvm::train(&data, &SvmTrainConfig::default(), &mut rng());
        assert!(
            svm.accuracy(&data) > 0.98,
            "accuracy {}",
            svm.accuracy(&data)
        );
    }

    #[test]
    fn decision_sign_matches_predict() {
        let data = separable_dataset(20);
        let svm = LinearSvm::train(&data, &SvmTrainConfig::default(), &mut rng());
        let x = vec![2.0, 2.0];
        assert_eq!(
            svm.predict(&x),
            if svm.decision(&x) >= 0.0 { 1 } else { -1 }
        );
        assert_eq!(svm.predict(&x), 1);
        assert_eq!(svm.predict(&[-2.0, -2.0]), -1);
    }

    #[test]
    fn cross_validation_high_on_separable() {
        let data = separable_dataset(40);
        let acc = cross_validate(&data, 5, &SvmTrainConfig::default(), &mut rng());
        assert!(acc > 0.95, "cv accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "labels must be")]
    fn invalid_label_panics() {
        let data = vec![(vec![1.0], 0i8)];
        let _ = LinearSvm::train(&data, &SvmTrainConfig::default(), &mut rng());
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_data_panics() {
        let _ = LinearSvm::train(&[], &SvmTrainConfig::default(), &mut rng());
    }

    #[test]
    fn skewed_scales_still_learn() {
        // One informative dimension among noise.
        let mut r = rand::rngs::StdRng::seed_from_u64(8);
        let mut data = Vec::new();
        for i in 0..200 {
            let y: i8 = if i % 2 == 0 { 1 } else { -1 };
            let mut x: Vec<f32> = (0..8).map(|_| r.gen_range(-1.0..1.0)).collect();
            x[3] = y as f32 * 3.0 + r.gen_range(-0.5f32..0.5);
            data.push((x, y));
        }
        let svm = LinearSvm::train(&data, &SvmTrainConfig::default(), &mut rng());
        assert!(svm.accuracy(&data) > 0.95);
    }
}
