//! Streaming (rolling-window) statistics.
//!
//! MD computes, at every tick, the standard deviation of the last `d`
//! seconds of every RSSI stream. With 72 streams at 5 Hz that is far
//! too hot a loop for recomputing from scratch, so [`RollingStd`]
//! maintains running first and second moments over a ring buffer in
//! O(1) per sample.
//!
//! Floating-point drift is kept in check by recomputing the running
//! sums from the buffer every `RECOMPUTE_EVERY` updates; a property
//! test asserts agreement with the batch formula.

/// How many pushes between full recomputations of the running sums.
const RECOMPUTE_EVERY: u64 = 4096;

/// The complete runtime state of a [`RollingStd`], exportable for
/// crash-safe checkpointing and re-importable bit-exactly.
///
/// The accumulators (`offset`, `sum`, `sum_sq`) are carried verbatim —
/// not recomputed from the samples — because a restored window must
/// produce the **same bit pattern** from `std_dev` as the original
/// would have, including any accumulated rounding. `pushes` preserves
/// the periodic-recompute phase for the same reason.
#[derive(Debug, Clone, PartialEq)]
pub struct RollingStdState {
    /// Window capacity the state was captured from.
    pub capacity: usize,
    /// Retained samples, oldest first (`≤ capacity` of them).
    pub samples: Vec<f64>,
    /// Centering offset at capture time.
    pub offset: f64,
    /// Running first moment (offset-centered) at capture time.
    pub sum: f64,
    /// Running second moment (offset-centered) at capture time.
    pub sum_sq: f64,
    /// Total samples ever pushed (drives the recompute cadence).
    pub pushes: u64,
    /// Cumulative non-finite samples replaced by hold-last-value.
    pub non_finite: u64,
}

/// Fixed-capacity rolling window maintaining mean/variance/std in O(1).
///
/// Until the window has been filled, statistics are computed over the
/// samples seen so far ([`RollingStd::is_full`] tells which regime
/// applies).
///
/// # Examples
///
/// ```
/// use fadewich_stats::rolling::RollingStd;
///
/// let mut w = RollingStd::new(3);
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// // Window now holds [2, 3, 4]; population std of that is sqrt(2/3).
/// assert!((w.std_dev() - (2.0f64 / 3.0).sqrt()).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RollingStd {
    buf: Vec<f64>,
    capacity: usize,
    head: usize,
    len: usize,
    /// Offset subtracted from samples before accumulating, refreshed at
    /// every recompute. Keeping the accumulated values near zero avoids
    /// the catastrophic cancellation of `E[x²] − E[x]²` for streams with
    /// a large DC component (RSSI sits around −50 dBm; synthetic tests
    /// go much further).
    offset: f64,
    sum: f64,
    sum_sq: f64,
    pushes: u64,
    non_finite: u64,
}

impl RollingStd {
    /// Creates a window of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "rolling window capacity must be positive");
        RollingStd {
            buf: vec![0.0; capacity],
            capacity,
            head: 0,
            len: 0,
            offset: 0.0,
            sum: 0.0,
            sum_sq: 0.0,
            pushes: 0,
            non_finite: 0,
        }
    }

    /// Pushes a sample, evicting the oldest when full.
    ///
    /// Non-finite samples (NaN, ±∞) are replaced by the most recent
    /// finite sample (or `0.0` on an empty window) and counted in
    /// [`RollingStd::non_finite_count`]. A NaN fed into the running
    /// sums would otherwise poison `sum`/`sum_sq` — and therefore every
    /// `std_dev` — until the next periodic recompute evicted it.
    pub fn push(&mut self, x: f64) {
        let x = if x.is_finite() {
            x
        } else {
            self.non_finite += 1;
            if self.len == 0 {
                0.0
            } else {
                // Hold the last value: the newest retained sample.
                self.buf[(self.head + self.capacity - 1) % self.capacity]
            }
        };
        if self.len == 0 {
            self.offset = x;
        }
        if self.len == self.capacity {
            let old = self.buf[self.head] - self.offset;
            self.sum -= old;
            self.sum_sq -= old * old;
        } else {
            self.len += 1;
        }
        self.buf[self.head] = x;
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        let d = x - self.offset;
        self.sum += d;
        self.sum_sq += d * d;
        self.pushes += 1;
        if self.pushes % RECOMPUTE_EVERY == 0 {
            self.recompute();
        }
    }

    fn recompute(&mut self) {
        // Re-center on the current mean, then rebuild the sums exactly.
        self.offset += if self.len > 0 { self.sum / self.len as f64 } else { 0.0 };
        self.sum = 0.0;
        self.sum_sq = 0.0;
        for i in 0..self.len {
            let d = self.buf[(self.head + self.capacity - 1 - i) % self.capacity] - self.offset;
            self.sum += d;
            self.sum_sq += d * d;
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no samples yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the window has reached its capacity.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Mean of the samples in the window (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.offset + self.sum / self.len as f64
        }
    }

    /// Population variance of the window (`0.0` when empty).
    ///
    /// Clamped at zero: catastrophic cancellation can otherwise yield
    /// tiny negative values for near-constant inputs.
    pub fn variance(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let n = self.len as f64;
        let m = self.sum / n;
        (self.sum_sq / n - m * m).max(0.0)
    }

    /// Population standard deviation of the window.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Copies the window contents, oldest first.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            out.push(self.buf[(self.head + self.capacity - self.len + i) % self.capacity]);
        }
        out
    }

    /// Number of non-finite samples ever pushed (each was replaced by
    /// the held value; see [`RollingStd::push`]).
    pub fn non_finite_count(&self) -> u64 {
        self.non_finite
    }

    /// Clears the window without deallocating. The non-finite counter
    /// is cumulative and survives the clear.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.offset = 0.0;
        self.sum = 0.0;
        self.sum_sq = 0.0;
    }

    /// Exports the full runtime state for checkpointing.
    pub fn state(&self) -> RollingStdState {
        RollingStdState {
            capacity: self.capacity,
            samples: self.to_vec(),
            offset: self.offset,
            sum: self.sum,
            sum_sq: self.sum_sq,
            pushes: self.pushes,
            non_finite: self.non_finite,
        }
    }

    /// Rebuilds a window from an exported state. The ring layout is
    /// canonicalized (samples at indices `0..len`, head after them) —
    /// a rotation the arithmetic cannot observe — while every
    /// accumulator is restored bit-exactly, so subsequent pushes
    /// produce the same `std_dev` bits as the uninterrupted window.
    ///
    /// # Errors
    ///
    /// Returns a description when the state is internally inconsistent
    /// (zero capacity, more samples than capacity, fewer pushes than
    /// retained samples, or a non-finite sample/accumulator).
    pub fn from_state(state: &RollingStdState) -> Result<RollingStd, String> {
        if state.capacity == 0 {
            return Err("rolling window capacity must be positive".to_string());
        }
        if state.samples.len() > state.capacity {
            return Err(format!(
                "rolling window holds {} samples but capacity is {}",
                state.samples.len(),
                state.capacity
            ));
        }
        if state.pushes < state.samples.len() as u64 {
            return Err(format!(
                "rolling window claims {} pushes but retains {} samples",
                state.pushes,
                state.samples.len()
            ));
        }
        if state.samples.iter().any(|v| !v.is_finite()) {
            return Err("rolling window state contains a non-finite sample".to_string());
        }
        if !(state.offset.is_finite() && state.sum.is_finite() && state.sum_sq.is_finite()) {
            return Err("rolling window state has a non-finite accumulator".to_string());
        }
        let mut w = RollingStd::new(state.capacity);
        w.buf[..state.samples.len()].copy_from_slice(&state.samples);
        w.len = state.samples.len();
        w.head = state.samples.len() % state.capacity;
        w.offset = state.offset;
        w.sum = state.sum;
        w.sum_sq = state.sum_sq;
        w.pushes = state.pushes;
        w.non_finite = state.non_finite;
        Ok(w)
    }
}

/// The complete runtime state of a [`HistoryBuffer`], exportable for
/// crash-safe checkpointing. `total` anchors the absolute indexing of
/// [`HistoryBuffer::range`], so a restored buffer answers exactly the
/// queries the original would.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryState {
    /// Buffer capacity the state was captured from.
    pub capacity: usize,
    /// Retained samples, oldest first (`≤ capacity` of them).
    pub samples: Vec<f64>,
    /// Total samples ever pushed.
    pub total: u64,
}

/// A ring buffer that keeps the most recent `capacity` samples and can
/// hand out arbitrary recent slices by age.
///
/// RE needs, when a variation window is confirmed, the RSSI samples of
/// `[t1, t1 + t∆]` — i.e. a slice *into the past* of each stream. The
/// online pipeline keeps one `HistoryBuffer` per stream instead of the
/// whole trace.
#[derive(Debug, Clone)]
pub struct HistoryBuffer {
    buf: Vec<f64>,
    capacity: usize,
    head: usize,
    len: usize,
    /// Total number of samples ever pushed; the index of the next push.
    total: u64,
}

impl HistoryBuffer {
    /// Creates a buffer remembering the last `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        HistoryBuffer { buf: vec![0.0; capacity], capacity, head: 0, len: 0, total: 0 }
    }

    /// Appends a sample.
    pub fn push(&mut self, x: f64) {
        self.buf[self.head] = x;
        self.head = (self.head + 1) % self.capacity;
        self.len = (self.len + 1).min(self.capacity);
        self.total += 1;
    }

    /// Total number of samples ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// The fixed capacity this buffer was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns samples with absolute indices `[start, end)` (indices
    /// count from the first push ever), or `None` when the range has
    /// already been evicted or not yet been produced.
    pub fn range(&self, start: u64, end: u64) -> Option<Vec<f64>> {
        if start >= end || end > self.total {
            return None;
        }
        let oldest = self.total - self.len as u64;
        if start < oldest {
            return None;
        }
        let mut out = Vec::with_capacity((end - start) as usize);
        for abs in start..end {
            let age = (self.total - 1 - abs) as usize; // 0 = newest
            let idx = (self.head + self.capacity - 1 - age) % self.capacity;
            out.push(self.buf[idx]);
        }
        Some(out)
    }

    /// Allocation-free variant of [`HistoryBuffer::range`]: clears
    /// `out` and fills it with the samples at absolute indices
    /// `[start, end)`. Returns `false` (leaving `out` empty) when the
    /// range is unavailable. Beyond `out`'s first growth to the window
    /// length, repeated calls do not touch the allocator.
    pub fn range_into(&self, start: u64, end: u64, out: &mut Vec<f64>) -> bool {
        out.clear();
        if start >= end || end > self.total {
            return false;
        }
        let oldest = self.total - self.len as u64;
        if start < oldest {
            return false;
        }
        for abs in start..end {
            let age = (self.total - 1 - abs) as usize; // 0 = newest
            let idx = (self.head + self.capacity - 1 - age) % self.capacity;
            out.push(self.buf[idx]);
        }
        true
    }

    /// Copies the retained samples, oldest first.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            out.push(self.buf[(self.head + self.capacity - self.len + i) % self.capacity]);
        }
        out
    }

    /// Exports the full runtime state for checkpointing.
    pub fn state(&self) -> HistoryState {
        HistoryState { capacity: self.capacity, samples: self.to_vec(), total: self.total }
    }

    /// Rebuilds a buffer from an exported state (canonicalized ring
    /// layout; identical [`HistoryBuffer::range`] answers).
    ///
    /// # Errors
    ///
    /// Returns a description when the state is inconsistent: zero
    /// capacity, more samples than capacity, a `total` smaller than the
    /// sample count, or a partially-filled buffer claiming evictions
    /// (`total > len` is only possible once the buffer is full).
    pub fn from_state(state: &HistoryState) -> Result<HistoryBuffer, String> {
        if state.capacity == 0 {
            return Err("history capacity must be positive".to_string());
        }
        if state.samples.len() > state.capacity {
            return Err(format!(
                "history holds {} samples but capacity is {}",
                state.samples.len(),
                state.capacity
            ));
        }
        if state.total < state.samples.len() as u64 {
            return Err(format!(
                "history claims {} total pushes but retains {} samples",
                state.total,
                state.samples.len()
            ));
        }
        if state.total > state.samples.len() as u64 && state.samples.len() < state.capacity {
            return Err("history claims evictions before filling its capacity".to_string());
        }
        let mut h = HistoryBuffer::new(state.capacity);
        h.buf[..state.samples.len()].copy_from_slice(&state.samples);
        h.len = state.samples.len();
        h.head = state.samples.len() % state.capacity;
        h.total = state.total;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;
    use crate::rng::Rng;

    #[test]
    fn matches_batch_std() {
        let mut rng = Rng::seed_from_u64(1);
        let mut w = RollingStd::new(20);
        let mut all = Vec::new();
        for _ in 0..500 {
            let x = rng.normal_with(-48.0, 2.5);
            w.push(x);
            all.push(x);
            let tail: Vec<f64> = all.iter().rev().take(20).rev().copied().collect();
            assert!(
                (w.std_dev() - descriptive::std_dev(&tail)).abs() < 1e-9,
                "rolling and batch std diverged"
            );
        }
    }

    #[test]
    fn partial_window() {
        let mut w = RollingStd::new(10);
        w.push(1.0);
        w.push(3.0);
        assert_eq!(w.len(), 2);
        assert!(!w.is_full());
        assert_eq!(w.mean(), 2.0);
        assert!((w.std_dev() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_stream_zero_std() {
        let mut w = RollingStd::new(8);
        for _ in 0..100 {
            w.push(-55.5);
        }
        assert_eq!(w.std_dev(), 0.0);
    }

    #[test]
    fn to_vec_preserves_order() {
        let mut w = RollingStd::new(3);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        assert_eq!(w.to_vec(), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn clear_resets() {
        let mut w = RollingStd::new(4);
        w.push(9.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn long_run_numerical_stability() {
        // Large offset + long run exercises the periodic recompute.
        let mut rng = Rng::seed_from_u64(2);
        let mut w = RollingStd::new(64);
        for _ in 0..20_000 {
            w.push(1.0e6 + rng.normal());
        }
        let batch = descriptive::std_dev(&w.to_vec());
        assert!((w.std_dev() - batch).abs() < 1e-6, "{} vs {batch}", w.std_dev());
    }

    #[test]
    fn nan_is_held_not_accumulated() {
        let mut w = RollingStd::new(4);
        w.push(1.0);
        w.push(3.0);
        w.push(f64::NAN);
        // NaN must act as hold-last-value: window is now [1, 3, 3].
        assert_eq!(w.non_finite_count(), 1);
        assert_eq!(w.to_vec(), vec![1.0, 3.0, 3.0]);
        assert!(w.std_dev().is_finite());
        let batch = descriptive::std_dev(&[1.0, 3.0, 3.0]);
        assert!((w.std_dev() - batch).abs() < 1e-12);
        // Before the guard, the poisoned sums stayed NaN until the next
        // RECOMPUTE_EVERY boundary; the very next push must be clean.
        w.push(5.0);
        assert!(w.std_dev().is_finite());
    }

    #[test]
    fn non_finite_first_sample_becomes_zero() {
        let mut w = RollingStd::new(3);
        w.push(f64::INFINITY);
        assert_eq!(w.non_finite_count(), 1);
        assert_eq!(w.to_vec(), vec![0.0]);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
    }

    #[test]
    fn infinities_and_nans_mixed_stay_finite() {
        let mut rng = Rng::seed_from_u64(3);
        let mut w = RollingStd::new(16);
        for i in 0..5000 {
            if i % 7 == 3 {
                w.push(if i % 2 == 0 { f64::NAN } else { f64::NEG_INFINITY });
            } else {
                w.push(rng.normal_with(-50.0, 2.0));
            }
            assert!(w.std_dev().is_finite(), "std went non-finite at push {i}");
        }
        // i ≡ 3 (mod 7) for i in 0..5000 → 714 non-finite pushes.
        assert_eq!(w.non_finite_count(), 714);
        let batch = descriptive::std_dev(&w.to_vec());
        assert!((w.std_dev() - batch).abs() < 1e-6);
    }

    #[test]
    fn history_range_basic() {
        let mut h = HistoryBuffer::new(5);
        for i in 0..10 {
            h.push(i as f64);
        }
        // Retains samples 5..10.
        assert_eq!(h.range(5, 8), Some(vec![5.0, 6.0, 7.0]));
        assert_eq!(h.range(9, 10), Some(vec![9.0]));
        // Evicted.
        assert_eq!(h.range(4, 6), None);
        // Not yet produced.
        assert_eq!(h.range(9, 11), None);
        // Degenerate.
        assert_eq!(h.range(7, 7), None);
    }

    #[test]
    fn rolling_state_round_trip_is_bit_identical_under_continued_pushes() {
        // Checkpoint mid-stream, keep pushing into both copies: every
        // std_dev must agree to the last bit, across a recompute
        // boundary too (pushes phase is part of the state).
        let mut rng = Rng::seed_from_u64(17);
        let mut w = RollingStd::new(10);
        for _ in 0..4090 {
            w.push(1.0e5 + rng.normal_with(-48.0, 2.5));
        }
        let mut restored = RollingStd::from_state(&w.state()).unwrap();
        assert_eq!(restored.state(), w.state());
        for _ in 0..50 {
            let x = rng.normal_with(-48.0, 2.5);
            w.push(x);
            restored.push(x);
            assert_eq!(w.std_dev().to_bits(), restored.std_dev().to_bits());
            assert_eq!(w.mean().to_bits(), restored.mean().to_bits());
        }
        assert_eq!(restored.state(), w.state());
    }

    #[test]
    fn rolling_state_rejects_inconsistencies() {
        let good = RollingStd::new(4).state();
        let bad = RollingStdState { capacity: 0, ..good.clone() };
        assert!(RollingStd::from_state(&bad).is_err());
        let bad = RollingStdState { samples: vec![0.0; 5], pushes: 5, ..good.clone() };
        assert!(RollingStd::from_state(&bad).is_err());
        let bad = RollingStdState { samples: vec![1.0, 2.0], pushes: 1, ..good.clone() };
        assert!(RollingStd::from_state(&bad).is_err());
        let bad = RollingStdState { samples: vec![f64::NAN], pushes: 1, ..good.clone() };
        assert!(RollingStd::from_state(&bad).is_err());
        let bad = RollingStdState { sum: f64::INFINITY, ..good };
        assert!(RollingStd::from_state(&bad).is_err());
    }

    #[test]
    fn history_state_round_trip_preserves_absolute_ranges() {
        let mut h = HistoryBuffer::new(5);
        for i in 0..13 {
            h.push(i as f64);
        }
        let restored = HistoryBuffer::from_state(&h.state()).unwrap();
        assert_eq!(restored.total_pushed(), 13);
        assert_eq!(restored.range(8, 13), h.range(8, 13));
        assert_eq!(restored.range(7, 9), None);
        let mut h2 = restored;
        let mut h1 = h;
        for i in 13..20 {
            h1.push(i as f64);
            h2.push(i as f64);
            assert_eq!(h1.range(15.min(i as u64), i as u64 + 1), h2.range(15.min(i as u64), i as u64 + 1));
        }
    }

    #[test]
    fn history_state_rejects_inconsistencies() {
        assert!(HistoryBuffer::from_state(&HistoryState {
            capacity: 0,
            samples: vec![],
            total: 0
        })
        .is_err());
        assert!(HistoryBuffer::from_state(&HistoryState {
            capacity: 2,
            samples: vec![1.0, 2.0, 3.0],
            total: 3
        })
        .is_err());
        assert!(HistoryBuffer::from_state(&HistoryState {
            capacity: 4,
            samples: vec![1.0, 2.0],
            total: 1
        })
        .is_err());
        // total > len with a partially filled buffer: impossible state.
        assert!(HistoryBuffer::from_state(&HistoryState {
            capacity: 4,
            samples: vec![1.0, 2.0],
            total: 9
        })
        .is_err());
    }

    #[test]
    fn range_into_matches_range() {
        let mut h = HistoryBuffer::new(5);
        for i in 0..10 {
            h.push(i as f64);
        }
        let mut out = Vec::new();
        for (start, end) in [(5, 8), (9, 10), (4, 6), (9, 11), (7, 7), (0, 1)] {
            let ok = h.range_into(start, end, &mut out);
            match h.range(start, end) {
                Some(v) => {
                    assert!(ok);
                    assert_eq!(out, v);
                }
                None => {
                    assert!(!ok);
                    assert!(out.is_empty());
                }
            }
        }
    }

    #[test]
    fn history_exact_capacity() {
        let mut h = HistoryBuffer::new(3);
        h.push(1.0);
        h.push(2.0);
        h.push(3.0);
        assert_eq!(h.range(0, 3), Some(vec![1.0, 2.0, 3.0]));
    }
}
