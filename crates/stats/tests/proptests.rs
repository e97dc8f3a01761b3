//! Property-based tests of the statistics substrate.

use fadewich_stats::checksum::crc32;
use fadewich_stats::descriptive;
use fadewich_stats::histogram::Histogram;
use fadewich_stats::kde::GaussianKde;
use fadewich_stats::metrics::DetectionCounts;
use fadewich_stats::rmi::relative_mutual_information;
use fadewich_stats::rng::Rng;
use fadewich_stats::rolling::{HistoryBuffer, RollingStd};
use fadewich_testkit::prop::{f64s, u32s, u64s, usizes, vecs, F64Range, VecStrategy};

fn finite_vec(max_len: usize) -> VecStrategy<F64Range> {
    vecs(f64s(-1e4..1e4), 1..max_len)
}

/// Standard normal CDF through the same Abramowitz–Stegun 7.1.26 `erf`
/// as `kde.rs`, kept here so the references below share no code with
/// the windowed implementation.
fn reference_phi(z: f64) -> f64 {
    let x = (z / std::f64::consts::SQRT_2).abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    0.5 * (1.0 + if z < 0.0 { -y } else { y })
}

/// The mixture CDF summed over every sample, in input order.
fn full_sum_cdf(xs: &[f64], h: f64, x: f64) -> f64 {
    xs.iter().map(|&xi| reference_phi((x - xi) / h)).sum::<f64>() / xs.len() as f64
}

/// All 80 bisection steps over `full_sum_cdf`.
fn bisect_80(xs: &[f64], h: f64, q: f64) -> f64 {
    let mut lo = descriptive::min(xs).unwrap() - 10.0 * h;
    let mut hi = descriptive::max(xs).unwrap() + 10.0 * h;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if full_sum_cdf(xs, h, mid) < q {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Byte-at-a-time IEEE CRC-32, bit by bit from the reflected
/// polynomial: no table, so it shares nothing with the sliced
/// implementation under test.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    !c
}

#[test]
fn crc32_reference_matches_the_check_vector() {
    assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

fadewich_testkit::property! {
    // Slicing-by-8 folds whole 8-byte blocks and finishes the tail a
    // byte at a time, so every prefix length in `len-7..=len` is
    // checked: each case covers all eight remainders mod 8.
    #[cases(256)]
    fn crc32_matches_byte_at_a_time_reference(seed in u64s(0..1 << 48), len in usizes(0..301)) {
        let mut rng = Rng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        for l in len.saturating_sub(7)..=len {
            assert_eq!(crc32(&bytes[..l]), reference_crc32(&bytes[..l]), "length {l}");
        }
    }

    fn rolling_std_matches_batch(xs in finite_vec(200), cap in usizes(2..40)) {
        let mut w = RollingStd::new(cap);
        for &x in &xs {
            w.push(x);
        }
        let tail: Vec<f64> = xs.iter().rev().take(cap).rev().copied().collect();
        let batch = descriptive::std_dev(&tail);
        assert!((w.std_dev() - batch).abs() < 1e-6,
            "rolling {} vs batch {}", w.std_dev(), batch);
    }

    fn rolling_mean_matches_batch(xs in finite_vec(200), cap in usizes(2..40)) {
        let mut w = RollingStd::new(cap);
        for &x in &xs {
            w.push(x);
        }
        let tail: Vec<f64> = xs.iter().rev().take(cap).rev().copied().collect();
        assert!((w.mean() - descriptive::mean(&tail)).abs() < 1e-6);
    }

    fn percentile_is_monotone_and_bounded(
        xs in finite_vec(100),
        p1 in f64s(0.0..100.0),
        p2 in f64s(0.0..100.0),
    ) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let a = descriptive::percentile(&xs, lo);
        let b = descriptive::percentile(&xs, hi);
        assert!(a <= b + 1e-12);
        assert!(a >= descriptive::min(&xs).unwrap() - 1e-12);
        assert!(b <= descriptive::max(&xs).unwrap() + 1e-12);
    }

    fn variance_is_non_negative_and_shift_invariant(
        xs in finite_vec(100),
        shift in f64s(-1e3..1e3),
    ) {
        let v = descriptive::variance(&xs);
        assert!(v >= 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        assert!((descriptive::variance(&shifted) - v).abs() < 1e-4 * (1.0 + v));
    }

    fn entropy_bounded_by_log2_bins(xs in finite_vec(200), bins in usizes(1..64)) {
        let h = Histogram::of_data(&xs, bins).entropy_bits();
        assert!(h >= 0.0);
        assert!(h <= (bins as f64).log2() + 1e-9, "H = {h} bins = {bins}");
    }

    fn kde_cdf_monotone_in_x(
        xs in finite_vec(50),
        a in f64s(-1e4..1e4),
        b in f64s(-1e4..1e4),
    ) {
        let kde = GaussianKde::fit(&xs).unwrap();
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(kde.cdf(lo) <= kde.cdf(hi) + 1e-12);
        let c = kde.cdf(a);
        assert!((0.0..=1.0).contains(&c));
    }

    fn kde_quantile_round_trip(xs in finite_vec(50), q in f64s(0.01..0.99)) {
        let kde = GaussianKde::fit(&xs).unwrap();
        let x = kde.quantile(q);
        assert!((kde.cdf(x) - q).abs() < 1e-6);
    }

    // The windowed `cdf` over sorted samples and the early-exit
    // bisection against the textbook full mixture sum and all 80
    // bisection steps: equal up to summation order.
    #[cases(48)]
    fn kde_window_matches_full_sum(
        len in usizes(1..1501),
        shape in usizes(0..4),
        seed in u64s(0..1 << 32),
        q in f64s(0.01..0.99),
    ) {
        let mut rng = fadewich_stats::rng::Rng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..len)
            .map(|_| match shape {
                0 => rng.normal_with(40.0, 6.0),
                1 => rng.normal() / (rng.f64() + 1e-3), // heavy tails
                2 => rng.below(6) as f64 * 2.5,         // duplicates
                _ => 7.25,                              // constant
            })
            .collect();
        let kde = GaussianKde::fit(&xs).unwrap();
        let h = kde.bandwidth();
        let (min, max) = (descriptive::min(&xs).unwrap(), descriptive::max(&xs).unwrap());
        let probes = (0..64)
            .map(|_| rng.range_f64(min - 10.0 * h, max + 10.0 * h))
            .chain(xs.iter().take(32).flat_map(|&xi| [xi, xi - 9.0 * h, xi + 9.0 * h]));
        for x in probes {
            let (fast, full) = (kde.cdf(x), full_sum_cdf(&xs, h, x));
            assert!((fast - full).abs() <= 1e-12, "cdf({x}): {fast} vs {full}");
        }
        for q in [q, 0.99] {
            let (fast, full) = (kde.quantile(q), bisect_80(&xs, h, q));
            let tol = 1e-9 * (max - min + h);
            assert!((fast - full).abs() <= tol, "quantile({q}): {fast} vs {full}");
        }
    }

    fn rmi_in_unit_interval(
        xs in finite_vec(150),
        labels in vecs(usizes(0..4), 1..150),
    ) {
        let n = xs.len().min(labels.len());
        let rmi = relative_mutual_information(&xs[..n], &labels[..n], 32);
        assert!((0.0..=1.0).contains(&rmi));
    }

    fn f_measure_bounded(
        tp in usizes(0..1000),
        fp in usizes(0..1000),
        fn_ in usizes(0..1000),
    ) {
        let c = DetectionCounts::new(tp, fp, fn_);
        let f = c.f_measure();
        assert!((0.0..=1.0).contains(&f));
        // The harmonic mean never exceeds either component.
        assert!(f <= c.precision().max(c.recall()) + 1e-12);
        assert!(f <= 2.0 * c.precision().min(c.recall()) + 1e-12);
    }

    fn history_buffer_range_returns_pushed_values(
        xs in vecs(f64s(-100.0..100.0), 1..100),
        cap in usizes(1..50),
    ) {
        let mut h = HistoryBuffer::new(cap);
        for &x in &xs {
            h.push(x);
        }
        let total = xs.len() as u64;
        let retained = cap.min(xs.len()) as u64;
        let start = total - retained;
        let got = h.range(start, total).expect("retained range");
        assert_eq!(got, xs[start as usize..].to_vec());
        // Anything older is unavailable.
        if start > 0 {
            assert!(h.range(start - 1, total).is_none());
        }
    }

    fn shuffle_preserves_elements(xs in vecs(u32s(0..1000), 0..100), seed in u64s(0..1000)) {
        let mut rng = fadewich_stats::rng::Rng::seed_from_u64(seed);
        let mut shuffled = xs.clone();
        rng.shuffle(&mut shuffled);
        let mut a = xs;
        let mut b = shuffled;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}

fadewich_testkit::property! {
    // `range_into` is the allocation-free twin of `range`: identical
    // samples, identical availability verdicts, across arbitrary
    // eviction depths.
    #[cases(96)]
    fn history_range_into_matches_range(
        xs in vecs(f64s(-1e4..1e4), 1..200),
        cap in usizes(1..50),
        start in usizes(0..220),
        span in usizes(0..60),
    ) {
        let mut h = HistoryBuffer::new(cap);
        for &x in &xs {
            h.push(x);
        }
        let (start, end) = (start as u64, (start + span) as u64);
        let mut out = vec![f64::NAN; 7]; // stale garbage must be cleared
        let ok = h.range_into(start, end, &mut out);
        match h.range(start, end) {
            Some(window) => {
                assert!(ok);
                assert_eq!(out.len(), window.len());
                for (a, b) in out.iter().zip(&window) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            None => {
                assert!(!ok);
                assert!(out.is_empty());
            }
        }
    }
}
