//! Deterministic parallel map on `std::thread::scope`.
//!
//! [`par_map`] fans a slice of independent tasks out over `threads`
//! workers. There is no standing pool: each call spawns `threads − 1`
//! scoped threads and the calling thread works as the last one, so a
//! call costs one spawn/join per extra thread. Workers claim tasks
//! through a shared atomic cursor (work *sharing* with one queue,
//! which suits the coarse per-fold / per-scenario tasks this
//! workspace runs), collect `(index, result)` pairs locally, and the
//! results are merged back **in task-index order**. Combined with
//! per-task RNG streams ([`fadewich_stats::rng::Rng::task_stream`]),
//! output is bit-identical regardless of thread count or scheduling.
//!
//! Thread-count resolution, highest priority first:
//!
//! 1. a [`with_threads`] override (used by determinism tests);
//! 2. the `FADEWICH_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! The [`timing`] submodule accumulates per-stage wall-clock counters
//! so binaries like `reproduce` can report where time went and what
//! parallelism bought.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Thread-count override installed by [`with_threads`]; 0 = none.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Resolves the worker count: override > `FADEWICH_THREADS` >
/// available parallelism, clamped to at least 1.
pub fn thread_count() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("FADEWICH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` with the worker count pinned to `n` threads.
///
/// Serializes against other `with_threads` callers (the override is
/// process-global, like the environment) and restores the previous
/// value even if `f` panics. Intended for tests that compare serial
/// and parallel runs of the same computation.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    static LOCK: Mutex<()> = Mutex::new(());
    let _serialize = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::SeqCst);
        }
    }
    let _restore = Restore(OVERRIDE.swap(n, Ordering::SeqCst));
    f()
}

/// Maps `f` over `0..n` on [`thread_count`] workers, the caller being
/// one of them, returning results in index order.
///
/// `f` must be pure per index (draw randomness from
/// `Rng::task_stream`, not shared state) for the output to be
/// deterministic. A panic in `f`, on any worker, is propagated to the
/// caller once every worker has stopped.
pub fn par_map_indices<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = thread_count().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }
        local
    };
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|_| s.spawn(claim)).collect();
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(claim));
        for r in std::iter::once(own).chain(handles.into_iter().map(|h| h.join())) {
            match r {
                Ok(local) => buckets.push(local),
                Err(p) => panic = Some(p),
            }
        }
    });
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index in 0..n is claimed exactly once"))
        .collect()
}

/// Maps `f` over a slice on [`thread_count`] workers, returning
/// results in input order. See [`par_map_indices`] for the
/// determinism contract.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indices(items.len(), |i| f(i, &items[i]))
}

/// Per-stage wall-clock counters for pipeline observability.
///
/// Counters are process-global and additive: timing the same stage
/// name twice accumulates duration and invocation count. `reproduce`
/// prints [`report`] to stderr so stdout stays byte-stable across
/// thread counts.
pub mod timing {
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    use std::time::Duration;

    use fadewich_telemetry::{Clock, WallClock};

    static STAGES: Mutex<BTreeMap<String, (Duration, usize)>> = Mutex::new(BTreeMap::new());

    fn lock() -> std::sync::MutexGuard<'static, BTreeMap<String, (Duration, usize)>> {
        STAGES.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f`, charging its wall-clock time to `name` (read through
    /// the telemetry [`Clock`], the workspace's single wall-time seam).
    pub fn time_stage<R>(name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = WallClock.now_ns();
        let r = f();
        record(name, Duration::from_nanos(WallClock.now_ns().saturating_sub(t0)));
        r
    }

    /// Adds an externally measured duration to `name`.
    pub fn record(name: &str, elapsed: Duration) {
        let mut stages = lock();
        let entry = stages.entry(name.to_string()).or_insert((Duration::ZERO, 0));
        entry.0 += elapsed;
        entry.1 += 1;
    }

    /// Clears all counters (start of a fresh measured run).
    pub fn reset() {
        lock().clear();
    }

    /// Returns `(stage, total duration, invocations)` sorted by stage
    /// name.
    pub fn snapshot() -> Vec<(String, Duration, usize)> {
        lock().iter().map(|(k, &(d, n))| (k.clone(), d, n)).collect()
    }

    /// Renders the counters as an aligned text table.
    pub fn report() -> String {
        let snap = snapshot();
        if snap.is_empty() {
            return "no stages timed".to_string();
        }
        let width = snap.iter().map(|(k, _, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, total, calls) in &snap {
            out.push_str(&format!(
                "{name:<width$}  {:>10.3} s  ({calls} call{})\n",
                total.as_secs_f64(),
                if *calls == 1 { "" } else { "s" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadewich_stats::rng::Rng;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 8] {
            let out = with_threads(threads, || par_map(&items, |i, &x| (i, x * 2)));
            assert_eq!(out.len(), items.len());
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!((*idx, *doubled), (i, i * 2));
            }
        }
    }

    #[test]
    fn par_map_matches_serial_with_task_streams() {
        let draw = |i: usize| {
            let mut rng = Rng::task_stream(0xABCD, i as u64);
            (0..50).map(|_| rng.f64()).sum::<f64>()
        };
        let serial: Vec<f64> = (0..40).map(draw).collect();
        let parallel = with_threads(8, || par_map_indices(40, draw));
        assert_eq!(serial, parallel, "bit-identical across thread counts");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[5u8], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn nested_par_map_completes() {
        let out = with_threads(4, || {
            par_map_indices(6, |i| par_map_indices(6, move |j| i * 10 + j))
        });
        for (i, row) in out.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, i * 10 + j);
            }
        }
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn worker_panics_propagate() {
        with_threads(4, || {
            par_map_indices(8, |i| {
                assert!(i != 3, "task {i} exploded");
                i
            })
        });
    }

    #[test]
    fn caller_share_panics_propagate() {
        // A worker stops at its first panic, so with two panicking
        // tasks on two threads the calling thread runs one of them.
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(|| {
                with_threads(2, || {
                    par_map_indices(2, |i| -> usize { panic!("task {i} exploded") })
                })
            });
            let message = r.err().and_then(|p| p.downcast_ref::<String>().cloned());
            tx.send(message).expect("receiver outlives the call");
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("par_map_indices returned instead of hanging");
        caller.join().expect("the caller thread caught the panic");
        assert!(
            message.is_some_and(|m| m.ends_with("exploded")),
            "a task's own panic reached the caller"
        );
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = thread_count();
        let inner = with_threads(3, thread_count);
        assert_eq!(inner, 3);
        assert_eq!(thread_count(), outer);
    }

    #[test]
    fn timing_counters_accumulate() {
        timing::time_stage("par::test_stage", || std::thread::sleep(
            std::time::Duration::from_millis(2),
        ));
        timing::time_stage("par::test_stage", || ());
        let snap = timing::snapshot();
        let (_, total, calls) = snap
            .iter()
            .find(|(name, _, _)| name == "par::test_stage")
            .expect("stage recorded");
        assert_eq!(*calls, 2);
        assert!(*total >= std::time::Duration::from_millis(2));
        assert!(timing::report().contains("par::test_stage"));
    }
}
