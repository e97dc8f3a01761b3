//! Property-based tests of the SVM substrate.

use fadewich_stats::rng::Rng;
use fadewich_svm::{cv, Kernel, MultiClassSvm, SmoParams, StandardScaler};
use fadewich_testkit::prop::{f64s, u64s, usizes, vecs};

fadewich_testkit::property! {
    #[cases(32)]
    fn kernels_are_symmetric_and_rbf_bounded(
        x in vecs(f64s(-10.0..10.0), 1..8),
        y in vecs(f64s(-10.0..10.0), 1..8),
        gamma in f64s(0.01..5.0),
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let k = Kernel::Rbf { gamma };
        assert!((k.eval(x, y) - k.eval(y, x)).abs() < 1e-12);
        let v = k.eval(x, y);
        assert!((0.0..=1.0 + 1e-12).contains(&v));
        assert!((k.eval(x, x) - 1.0).abs() < 1e-12);
        assert!((Kernel::Linear.eval(x, y) - Kernel::Linear.eval(y, x)).abs() < 1e-9);
    }

    #[cases(32)]
    fn scaler_output_is_standardized(
        rows in vecs(vecs(f64s(-100.0..100.0), 3..4), 2..30),
    ) {
        let scaler = StandardScaler::fit(&rows).unwrap();
        let t = scaler.transform(&rows);
        for j in 0..3 {
            let col: Vec<f64> = t.iter().map(|r| r[j]).collect();
            let mean = fadewich_stats::descriptive::mean(&col);
            let sd = fadewich_stats::descriptive::std_dev(&col);
            assert!(mean.abs() < 1e-6, "mean = {mean}");
            // Either unit variance or a constant column mapped to 0.
            assert!((sd - 1.0).abs() < 1e-6 || sd < 1e-9, "sd = {sd}");
        }
    }

    #[cases(32)]
    fn separable_blobs_are_classified(seed in u64s(0..500), sep in f64s(3.0..10.0)) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..24 {
            let label = i % 2;
            xs.push(vec![
                label as f64 * sep + rng.normal() * 0.3,
                rng.normal() * 0.3,
            ]);
            ys.push(label);
        }
        let svm = MultiClassSvm::train(&xs, &ys, Kernel::Linear, SmoParams::default(), &mut rng)
            .unwrap();
        assert!(svm.accuracy(&xs, &ys) >= 0.95);
    }

    #[cases(32)]
    fn kfold_is_a_partition(n in usizes(4..100), k in usizes(2..4), seed in u64s(0..100)) {
        fadewich_testkit::assume!(n >= k);
        let mut rng = Rng::seed_from_u64(seed);
        let folds = cv::k_fold(n, k, &mut rng);
        let mut seen = vec![false; n];
        for f in &folds {
            for &i in &f.test {
                assert!(!seen[i], "index {i} in two test folds");
                seen[i] = true;
            }
            for &i in &f.train {
                assert!(!f.test.contains(&i));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[cases(32)]
    fn stratified_folds_cover_all_and_balance(
        labels in vecs(usizes(0..3), 6..60),
        seed in u64s(0..100),
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let folds = cv::stratified_k_fold(&labels, 3, &mut rng);
        let mut count = 0usize;
        for f in &folds {
            count += f.test.len();
        }
        assert_eq!(count, labels.len());
        for class in 0..3 {
            let per_fold: Vec<usize> = folds
                .iter()
                .map(|f| f.test.iter().filter(|&&i| labels[i] == class).count())
                .collect();
            let max = per_fold.iter().max().unwrap();
            let min = per_fold.iter().min().unwrap();
            assert!(max - min <= 1, "class {class}: {per_fold:?}");
        }
    }
}

// The Rule 1 prediction paths: for any trained ensemble and any
// (finite) feature rows, the scratch-reusing `predict_into` and the
// audited `predict_with_margins` must agree with the plain `predict`
// on every row — same labels from the same bit-exact decision values,
// under both kernels. Shrinking reduces a counterexample to the
// smallest diverging set of rows.
fadewich_testkit::property! {
    #[cases(24)]
    fn predict_paths_agree_with_predict(
        seed in u64s(0..1 << 32),
        n_classes in usizes(2..5),
        dim in usizes(2..5),
        n_rows in usizes(0..40),
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let rbf = rng.below(2);
        let spread = 0.1 + rng.f64() * 5.0;
        // Loosely clustered training data — including overlapping
        // clusters, where OvO vote ties make the margin tiebreak
        // decisive and any decision-value drift would flip labels.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n_classes * 8 {
            let label = i % n_classes;
            let row: Vec<f64> = (0..dim)
                .map(|d| {
                    let center = if d == label % dim { 3.0 } else { -1.0 };
                    center + rng.normal() * spread
                })
                .collect();
            xs.push(row);
            ys.push(label);
        }
        let kernel = if rbf == 1 { Kernel::Rbf { gamma: 0.5 } } else { Kernel::Linear };
        let refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        let svm = MultiClassSvm::train(&refs, &ys, kernel, SmoParams::default(), &mut rng)
            .expect("training data spans n_classes classes");

        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| (0..dim).map(|_| rng.normal() * 4.0).collect())
            .collect();
        let mut scratch = fadewich_svm::PredictScratch::new();
        for row in &rows {
            let label = svm.predict(row);
            assert_eq!(
                svm.predict_into(row, &mut scratch),
                label,
                "predict_into diverged on {row:?}"
            );
            // The full vote/margin tally agrees with the scalar path
            // too (label equality alone could mask a tie handled
            // differently).
            let p = svm.predict_with_margins(row);
            assert_eq!(p.label, label);
        }
    }
}
