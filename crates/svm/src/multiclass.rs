//! One-vs-one multi-class SVM.
//!
//! RE classifies variation-window samples into `k + 1` labels
//! (`w0` = entered office, `w1..wk` = left workstation i). The standard
//! way to lift a binary SVM to multi-class — and what LIBSVM, and hence
//! the sklearn setup the paper most plausibly used, does — is
//! one-vs-one voting over all class pairs.

use crate::kernel::Kernel;
use crate::scaler::StandardScaler;
use crate::smo::{BinarySvm, SmoParams, TrainError};
use fadewich_stats::rng::Rng;

/// One prediction with its per-class evidence, aligned with
/// [`MultiClassSvm::classes`]: `votes[i]` / `margins[i]` belong to
/// `classes()[i]` (margins are summed absolute decision values of the
/// pairwise machines that voted for that class).
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The winning class label.
    pub label: usize,
    /// Pairwise votes per class, in `classes()` order.
    pub votes: Vec<usize>,
    /// Summed absolute margins per class, in `classes()` order.
    pub margins: Vec<f64>,
}

/// Reusable buffers for [`MultiClassSvm::predict_into`].
///
/// One scratch serves any number of predictions against any ensemble;
/// after the first call its buffers reach steady-state capacity and
/// subsequent predictions touch the allocator not at all — the
/// property the controller's per-tick Rule-1 classification relies on.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    row: Vec<f64>,
    votes: Vec<usize>,
    margin: Vec<f64>,
}

impl PredictScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A trained multi-class SVM with integrated feature standardization.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClassSvm {
    classes: Vec<usize>,
    /// One binary machine per unordered class pair `(classes[i], classes[j])`, i < j.
    machines: Vec<(usize, usize, BinarySvm)>,
    scaler: StandardScaler,
}

impl MultiClassSvm {
    /// Trains a one-vs-one ensemble.
    ///
    /// Labels may be any `usize` values; the set of distinct labels
    /// found becomes the class list. Features are standardized
    /// internally (the scaler is fitted on `xs` and applied at
    /// prediction time too).
    ///
    /// # Errors
    ///
    /// [`TrainError::Empty`] when `xs` is empty, [`TrainError::BadLabels`]
    /// when fewer than two classes are present or `ys` is misaligned,
    /// [`TrainError::RaggedRows`] on inconsistent feature dimensions.
    pub fn train<R: AsRef<[f64]>>(
        xs: &[R],
        ys: &[usize],
        kernel: Kernel,
        params: SmoParams,
        rng: &mut Rng,
    ) -> Result<MultiClassSvm, TrainError> {
        if xs.is_empty() {
            return Err(TrainError::Empty);
        }
        if ys.len() != xs.len() {
            return Err(TrainError::BadLabels);
        }
        let scaler = StandardScaler::fit(xs).map_err(|e| match e {
            crate::scaler::FitScalerError::Empty => TrainError::Empty,
            crate::scaler::FitScalerError::RaggedRows => TrainError::RaggedRows,
            crate::scaler::FitScalerError::InvalidParts(why) => TrainError::InvalidModel(why),
        })?;
        let xs = scaler.transform(xs);

        let mut classes: Vec<usize> = ys.to_vec();
        classes.sort_unstable();
        classes.dedup();
        if classes.len() < 2 {
            return Err(TrainError::BadLabels);
        }

        let mut machines = Vec::new();
        for i in 0..classes.len() {
            for j in (i + 1)..classes.len() {
                let (ca, cb) = (classes[i], classes[j]);
                let mut pair_xs = Vec::new();
                let mut pair_ys = Vec::new();
                for (x, &y) in xs.iter().zip(ys) {
                    if y == ca {
                        pair_xs.push(x.clone());
                        pair_ys.push(1.0);
                    } else if y == cb {
                        pair_xs.push(x.clone());
                        pair_ys.push(-1.0);
                    }
                }
                let svm = BinarySvm::train(&pair_xs, &pair_ys, kernel, params, rng)?;
                machines.push((ca, cb, svm));
            }
        }
        Ok(MultiClassSvm { classes, machines, scaler })
    }

    /// The distinct class labels seen at training time, ascending.
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }

    /// The per-pair binary machines as `(class_a, class_b, machine)`,
    /// in canonical order: pairs `(classes[i], classes[j])` for all
    /// `i < j`, lexicographic by `(i, j)`.
    pub fn machines(&self) -> &[(usize, usize, BinarySvm)] {
        &self.machines
    }

    /// The integrated feature scaler.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// Reassembles an ensemble from previously exported parts (the
    /// model-artifact load path). Round-tripping through
    /// export/import preserves [`MultiClassSvm::predict`] bit-exactly.
    ///
    /// # Errors
    ///
    /// [`TrainError::InvalidModel`] when the parts are inconsistent:
    /// fewer than two classes, classes not strictly ascending,
    /// machines not in canonical pair order (or wrong count), or a
    /// support-vector dimension that disagrees with the scaler.
    pub fn from_parts(
        classes: Vec<usize>,
        machines: Vec<(usize, usize, BinarySvm)>,
        scaler: StandardScaler,
    ) -> Result<MultiClassSvm, TrainError> {
        if classes.len() < 2 {
            return Err(TrainError::InvalidModel("fewer than two classes"));
        }
        if classes.windows(2).any(|w| w[0] >= w[1]) {
            return Err(TrainError::InvalidModel("classes not strictly ascending"));
        }
        let k = classes.len();
        if machines.len() != k * (k - 1) / 2 {
            return Err(TrainError::InvalidModel("wrong number of pair machines"));
        }
        let mut expected = classes
            .iter()
            .enumerate()
            .flat_map(|(i, &ca)| classes[i + 1..].iter().map(move |&cb| (ca, cb)));
        for (ca, cb, svm) in &machines {
            if expected.next() != Some((*ca, *cb)) {
                return Err(TrainError::InvalidModel("pair machines not in canonical order"));
            }
            if svm.support_vectors()[0].len() != scaler.n_features() {
                return Err(TrainError::InvalidModel(
                    "support vector dimension disagrees with scaler",
                ));
            }
        }
        Ok(MultiClassSvm { classes, machines, scaler })
    }

    /// Predicts the class of one sample by pairwise voting; ties are
    /// broken by the summed absolute decision margins.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.predict_with_margins(x).label
    }

    /// Predicts one sample and exposes the full vote/margin tally —
    /// the per-class evidence behind the label, for audit trails. The
    /// returned label is bit-identical to [`predict`](Self::predict)
    /// (which delegates here).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn predict_with_margins(&self, x: &[f64]) -> Prediction {
        let mut row = x.to_vec();
        self.scaler.transform_row(&mut row);
        let max_class = *self.classes.last().expect("at least two classes") + 1;
        let mut votes = vec![0usize; max_class];
        let mut margin = vec![0.0f64; max_class];
        for (ca, cb, svm) in &self.machines {
            let d = svm.decision(&row);
            if d >= 0.0 {
                votes[*ca] += 1;
                margin[*ca] += d;
            } else {
                votes[*cb] += 1;
                margin[*cb] += -d;
            }
        }
        let label = Self::winner(&self.classes, &votes, &margin);
        Prediction {
            label,
            votes: self.classes.iter().map(|&c| votes[c]).collect(),
            margins: self.classes.iter().map(|&c| margin[c]).collect(),
        }
    }

    /// The OvO winner: maximal vote count, ties broken by summed
    /// absolute margins. `votes`/`margin` are indexed by raw class
    /// label (the `max_class`-wide tallies the voting loops fill in).
    fn winner(classes: &[usize], votes: &[usize], margin: &[f64]) -> usize {
        *classes
            .iter()
            .max_by(|&&a, &&b| {
                votes[a]
                    .cmp(&votes[b])
                    .then_with(|| margin[a].partial_cmp(&margin[b]).expect("finite margins"))
            })
            .expect("at least two classes")
    }

    /// Allocation-free prediction of one sample into caller-owned
    /// scratch buffers. Returns the same label as
    /// [`predict`](Self::predict) — bit-identical voting arithmetic,
    /// just without building a [`Prediction`] or cloning the row.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn predict_into(&self, x: &[f64], scratch: &mut PredictScratch) -> usize {
        scratch.row.clear();
        scratch.row.extend_from_slice(x);
        self.scaler.transform_row(&mut scratch.row);
        let max_class = *self.classes.last().expect("at least two classes") + 1;
        scratch.votes.clear();
        scratch.votes.resize(max_class, 0);
        scratch.margin.clear();
        scratch.margin.resize(max_class, 0.0);
        for (ca, cb, svm) in &self.machines {
            let d = svm.decision(&scratch.row);
            if d >= 0.0 {
                scratch.votes[*ca] += 1;
                scratch.margin[*ca] += d;
            } else {
                scratch.votes[*cb] += 1;
                scratch.margin[*cb] += -d;
            }
        }
        Self::winner(&self.classes, &scratch.votes, &scratch.margin)
    }

    /// Accuracy against ground-truth labels.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or `xs` is empty.
    pub fn accuracy<R: AsRef<[f64]>>(&self, xs: &[R], ys: &[usize]) -> f64 {
        assert_eq!(xs.len(), ys.len(), "samples and labels must align");
        assert!(!xs.is_empty(), "accuracy of an empty set");
        let correct = xs
            .iter()
            .zip(ys)
            .filter(|(x, &y)| self.predict(x.as_ref()) == y)
            .count();
        correct as f64 / xs.len() as f64
    }
}

/// A nearest-centroid baseline classifier (the paper does not name a
/// baseline; this gives the classifier-ablation bench a reference
/// point).
#[derive(Debug, Clone, PartialEq)]
pub struct NearestCentroid {
    classes: Vec<usize>,
    centroids: Vec<Vec<f64>>,
    scaler: StandardScaler,
}

impl NearestCentroid {
    /// Fits per-class centroids on standardized features.
    ///
    /// # Errors
    ///
    /// Mirrors [`MultiClassSvm::train`] error conditions.
    pub fn train(xs: &[Vec<f64>], ys: &[usize]) -> Result<NearestCentroid, TrainError> {
        if xs.is_empty() {
            return Err(TrainError::Empty);
        }
        if ys.len() != xs.len() {
            return Err(TrainError::BadLabels);
        }
        let scaler = StandardScaler::fit(xs).map_err(|e| match e {
            crate::scaler::FitScalerError::Empty => TrainError::Empty,
            crate::scaler::FitScalerError::RaggedRows => TrainError::RaggedRows,
            crate::scaler::FitScalerError::InvalidParts(why) => TrainError::InvalidModel(why),
        })?;
        let xs = scaler.transform(xs);
        let mut classes: Vec<usize> = ys.to_vec();
        classes.sort_unstable();
        classes.dedup();
        if classes.len() < 2 {
            return Err(TrainError::BadLabels);
        }
        let d = xs[0].len();
        let mut centroids = vec![vec![0.0; d]; classes.len()];
        let mut counts = vec![0usize; classes.len()];
        for (x, &y) in xs.iter().zip(ys) {
            let ci = classes.binary_search(&y).expect("label seen during dedup");
            for (c, &v) in centroids[ci].iter_mut().zip(x) {
                *c += v;
            }
            counts[ci] += 1;
        }
        for (c, &n) in centroids.iter_mut().zip(&counts) {
            for v in c {
                *v /= n as f64;
            }
        }
        Ok(NearestCentroid { classes, centroids, scaler })
    }

    /// Predicts the class whose centroid is nearest in Euclidean
    /// distance.
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut row = x.to_vec();
        self.scaler.transform_row(&mut row);
        let (best, _) = self
            .centroids
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let d: f64 = c.iter().zip(&row).map(|(a, b)| (a - b) * (a - b)).sum();
                (i, d)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .expect("at least two classes");
        self.classes[best]
    }

    /// Accuracy against ground-truth labels.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or `xs` is empty.
    pub fn accuracy(&self, xs: &[Vec<f64>], ys: &[usize]) -> f64 {
        assert_eq!(xs.len(), ys.len(), "samples and labels must align");
        assert!(!xs.is_empty(), "accuracy of an empty set");
        let correct = xs
            .iter()
            .zip(ys)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated Gaussian blobs.
    fn blobs(n_per: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(seed);
        let centers = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                xs.push(vec![cx + rng.normal() * 0.5, cy + rng.normal() * 0.5]);
                ys.push(label);
            }
        }
        (xs, ys)
    }

    #[test]
    fn three_blobs_classified() {
        let (xs, ys) = blobs(20, 41);
        let mut rng = Rng::seed_from_u64(3);
        let svm =
            MultiClassSvm::train(&xs, &ys, Kernel::Rbf { gamma: 0.5 }, SmoParams::default(), &mut rng)
                .unwrap();
        assert_eq!(svm.classes(), &[0, 1, 2]);
        assert!(svm.accuracy(&xs, &ys) > 0.95);
        // Obvious fresh points.
        assert_eq!(svm.predict(&[0.1, -0.2]), 0);
        assert_eq!(svm.predict(&[5.2, 0.3]), 1);
        assert_eq!(svm.predict(&[-0.3, 5.1]), 2);
    }

    #[test]
    fn margins_align_with_classes_and_agree_with_predict() {
        let (xs, ys) = blobs(20, 42);
        let mut rng = Rng::seed_from_u64(8);
        let svm =
            MultiClassSvm::train(&xs, &ys, Kernel::Rbf { gamma: 0.5 }, SmoParams::default(), &mut rng)
                .unwrap();
        let k = svm.classes().len();
        for x in &xs {
            let p = svm.predict_with_margins(x);
            assert_eq!(p.label, svm.predict(x));
            assert_eq!(p.votes.len(), k);
            assert_eq!(p.margins.len(), k);
            // Every pairwise machine casts exactly one vote.
            assert_eq!(p.votes.iter().sum::<usize>(), k * (k - 1) / 2);
            assert!(p.margins.iter().all(|m| *m >= 0.0 && m.is_finite()));
            // The winner holds a maximal vote count.
            let win = svm.classes().iter().position(|&c| c == p.label).unwrap();
            assert_eq!(p.votes[win], *p.votes.iter().max().unwrap());
        }
    }

    #[test]
    fn sparse_labels_supported() {
        // Labels 0 and 7 with a gap (like w0 vs w3 without w1/w2).
        let (xs, mut ys) = blobs(15, 43);
        for y in &mut ys {
            *y = match *y {
                0 => 0,
                1 => 7,
                _ => 3,
            };
        }
        let mut rng = Rng::seed_from_u64(4);
        let svm =
            MultiClassSvm::train(&xs, &ys, Kernel::Rbf { gamma: 0.5 }, SmoParams::default(), &mut rng)
                .unwrap();
        assert_eq!(svm.classes(), &[0, 3, 7]);
        assert!(svm.accuracy(&xs, &ys) > 0.9);
    }

    #[test]
    fn generalizes_to_test_set() {
        let (train_xs, train_ys) = blobs(30, 45);
        let (test_xs, test_ys) = blobs(10, 46);
        let mut rng = Rng::seed_from_u64(5);
        let svm = MultiClassSvm::train(
            &train_xs,
            &train_ys,
            Kernel::Rbf { gamma: 0.5 },
            SmoParams::default(),
            &mut rng,
        )
        .unwrap();
        assert!(svm.accuracy(&test_xs, &test_ys) > 0.9);
    }

    #[test]
    fn scale_invariance_via_internal_scaler() {
        // Multiply one feature by 1000: the internal scaler must absorb it.
        let (xs, ys) = blobs(20, 47);
        let scaled: Vec<Vec<f64>> = xs.iter().map(|r| vec![r[0] * 1000.0, r[1]]).collect();
        let mut rng = Rng::seed_from_u64(6);
        let svm = MultiClassSvm::train(
            &scaled,
            &ys,
            Kernel::Rbf { gamma: 0.5 },
            SmoParams::default(),
            &mut rng,
        )
        .unwrap();
        assert!(svm.accuracy(&scaled, &ys) > 0.9);
    }

    #[test]
    fn single_class_rejected() {
        let xs = vec![vec![1.0], vec![2.0]];
        let ys = vec![3, 3];
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(
            MultiClassSvm::train(&xs, &ys, Kernel::Linear, SmoParams::default(), &mut rng)
                .unwrap_err(),
            TrainError::BadLabels
        );
    }

    #[test]
    fn trains_from_borrowed_rows() {
        // The zero-copy training path: &[&[f64]] views instead of owned rows.
        let (xs, ys) = blobs(15, 51);
        let views: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        let mut r1 = Rng::seed_from_u64(9);
        let mut r2 = Rng::seed_from_u64(9);
        let owned =
            MultiClassSvm::train(&xs, &ys, Kernel::Rbf { gamma: 0.5 }, SmoParams::default(), &mut r1)
                .unwrap();
        let borrowed = MultiClassSvm::train(
            &views,
            &ys,
            Kernel::Rbf { gamma: 0.5 },
            SmoParams::default(),
            &mut r2,
        )
        .unwrap();
        for (x, v) in xs.iter().zip(&views) {
            assert_eq!(owned.predict(v), borrowed.predict(x));
        }
    }

    #[test]
    fn parts_round_trip_preserves_predictions() {
        let (xs, ys) = blobs(15, 53);
        let mut rng = Rng::seed_from_u64(7);
        let svm =
            MultiClassSvm::train(&xs, &ys, Kernel::Rbf { gamma: 0.5 }, SmoParams::default(), &mut rng)
                .unwrap();
        let back = MultiClassSvm::from_parts(
            svm.classes().to_vec(),
            svm.machines().to_vec(),
            svm.scaler().clone(),
        )
        .unwrap();
        for x in &xs {
            assert_eq!(back.predict(x), svm.predict(x));
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_models() {
        let (xs, ys) = blobs(10, 55);
        let mut rng = Rng::seed_from_u64(7);
        let svm =
            MultiClassSvm::train(&xs, &ys, Kernel::Linear, SmoParams::default(), &mut rng).unwrap();
        let scaler = svm.scaler().clone();
        assert_eq!(
            MultiClassSvm::from_parts(vec![0], vec![], scaler.clone()).unwrap_err(),
            TrainError::InvalidModel("fewer than two classes")
        );
        assert_eq!(
            MultiClassSvm::from_parts(vec![1, 1, 2], svm.machines().to_vec(), scaler.clone())
                .unwrap_err(),
            TrainError::InvalidModel("classes not strictly ascending")
        );
        assert_eq!(
            MultiClassSvm::from_parts(vec![0, 1, 2], svm.machines()[..1].to_vec(), scaler.clone())
                .unwrap_err(),
            TrainError::InvalidModel("wrong number of pair machines")
        );
        let mut swapped = svm.machines().to_vec();
        swapped.swap(0, 1);
        assert_eq!(
            MultiClassSvm::from_parts(vec![0, 1, 2], swapped, scaler.clone()).unwrap_err(),
            TrainError::InvalidModel("pair machines not in canonical order")
        );
        let bad_scaler = StandardScaler::fit(&[vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(
            MultiClassSvm::from_parts(vec![0, 1, 2], svm.machines().to_vec(), bad_scaler)
                .unwrap_err(),
            TrainError::InvalidModel("support vector dimension disagrees with scaler")
        );
    }

    #[test]
    fn predict_into_matches_predict() {
        let (xs, ys) = blobs(20, 59);
        let mut rng = Rng::seed_from_u64(11);
        let svm =
            MultiClassSvm::train(&xs, &ys, Kernel::Rbf { gamma: 0.5 }, SmoParams::default(), &mut rng)
                .unwrap();
        let mut scratch = PredictScratch::new();
        for x in &xs {
            assert_eq!(svm.predict_into(x, &mut scratch), svm.predict(x));
        }
    }

    #[test]
    fn nearest_centroid_baseline() {
        let (xs, ys) = blobs(20, 49);
        let nc = NearestCentroid::train(&xs, &ys).unwrap();
        assert!(nc.accuracy(&xs, &ys) > 0.95);
        assert_eq!(nc.predict(&[5.0, 0.0]), 1);
    }

    #[test]
    fn nearest_centroid_errors() {
        assert_eq!(NearestCentroid::train(&[], &[]).unwrap_err(), TrainError::Empty);
        assert_eq!(
            NearestCentroid::train(&[vec![1.0]], &[0]).unwrap_err(),
            TrainError::BadLabels
        );
    }
}
