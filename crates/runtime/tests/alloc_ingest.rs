//! Allocation pin for the streaming engine's wire ingest path.
//!
//! This file is its own test binary on purpose: it registers the
//! testkit counting allocator process-wide and holds exactly one
//! test, so no sibling test thread can pollute the per-tick deltas.
//!
//! The claim under test: once warmed up, feeding a quiet in-order
//! stream of encoded frames through [`StreamingEngine::ingest_bytes`]
//! allocates **nothing** per frame. Decode borrows the caller's bytes,
//! the payload lands in a recycled reorder slot, and each closed tick
//! is drained and handed back without building a bundle list. The only
//! allowed heap traffic is the controller's Algorithm-1 batch flush
//! every `batch_size` ticks (pinned on its own by
//! `crates/core/tests/alloc_hotpath.rs`).

use fadewich_core::config::FadewichParams;
use fadewich_core::features::{extract_features, TrainingSample};
use fadewich_core::kma::Kma;
use fadewich_core::re::RadioEnvironment;
use fadewich_officesim::{DayTrace, InputTrace};
use fadewich_runtime::engine::{EngineConfig, StreamingEngine};
use fadewich_runtime::wire::Frame;
use fadewich_stats::rng::Rng;
use fadewich_testkit::bench::{alloc_counts, black_box, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const N_STREAMS: usize = 4;
const TICK_HZ: f64 = 5.0;

/// A tiny real classifier, trained the same way the runtime fixtures
/// train theirs: seeded quiet/burst windows through the feature layer.
fn trained_re(rng: &mut Rng) -> RadioEnvironment {
    let params = FadewichParams::default();
    let mut samples = Vec::new();
    for i in 0..24 {
        let sd = if i % 2 == 1 { 4.0 } else { 0.6 };
        let mut day = DayTrace::with_capacity(N_STREAMS, 30);
        for _ in 0..30 {
            let row: Vec<f64> = (0..N_STREAMS).map(|_| -50.0 + rng.normal() * sd).collect();
            day.push_row(&row);
        }
        let streams: Vec<usize> = (0..N_STREAMS).collect();
        let features = extract_features(&day, &streams, 0, TICK_HZ, &params);
        samples.push(TrainingSample { features, label: i % 2 });
    }
    RadioEnvironment::train(&samples, None, rng).expect("seeded training set is valid")
}

#[test]
fn quiet_in_order_wire_ingest_does_not_allocate_at_steady_state() {
    // Sanity: the counting allocator really is registered here.
    let probe = alloc_counts();
    black_box(Box::new(0x5EEDu64));
    assert!(
        alloc_counts().since(probe).calls > 0,
        "counting allocator is not registered in this test binary"
    );

    let mut rng = Rng::seed_from_u64(0x1A6E57);
    let re = trained_re(&mut rng);
    let params = FadewichParams { profile_init_s: 30.0, ..Default::default() };
    let batch_size = params.batch_size;
    let busy: Vec<f64> = (0..2_000).step_by(3).map(|s| s as f64).collect();
    let inputs = InputTrace::from_times(vec![busy.clone(), busy]);
    // Two sensors × two streams, both delivering every tick in order.
    let groups = vec![(0u16, vec![0, 1]), (1u16, vec![2, 3])];
    let cfg = EngineConfig::new(TICK_HZ, params);
    let mut engine = StreamingEngine::new(cfg, groups.clone(), &re, Kma::new(&inputs)).unwrap();

    // Encode the whole stream up front: one delivery per tick carrying
    // both sensors' frames back to back.
    let warm = 600usize;
    let measured = 300usize;
    let deliveries: Vec<Vec<u8>> = (0..(warm + measured) as u64)
        .map(|tick| {
            let mut bytes = Vec::new();
            for (sensor, positions) in &groups {
                let values: Vec<f32> =
                    positions.iter().map(|_| -50.0 + rng.normal() as f32 * 0.6).collect();
                Frame::rssi(*sensor, tick as u32, tick, values).encode_into(&mut bytes);
            }
            bytes
        })
        .collect();
    for delivery in &deliveries[..warm] {
        engine.ingest_bytes(delivery);
    }
    assert_eq!(engine.counters().ticks_processed, warm as u64, "ticks must close in order");

    let mut zero_ticks = 0usize;
    let mut dirty = Vec::new();
    let before = alloc_counts();
    for (tick, delivery) in deliveries.iter().enumerate().skip(warm) {
        let t0 = alloc_counts();
        engine.ingest_bytes(delivery);
        let delta = alloc_counts().since(t0);
        if delta.calls == 0 {
            zero_ticks += 1;
        } else {
            dirty.push((tick, delta.calls));
        }
    }
    let total = alloc_counts().since(before);
    assert_eq!(engine.counters().ticks_processed, (warm + measured) as u64);
    assert_eq!(engine.counters().frames_in, 2 * (warm + measured) as u64);

    // Every allocating delivery must be one whose tick runs an
    // Algorithm-1 flush: at most measured/batch_size of them, spaced
    // exactly one batch apart (the phase depends on when profile init
    // finished, so only the spacing is pinned).
    let flushes = measured / batch_size;
    assert!(
        zero_ticks >= measured - flushes,
        "{} of {measured} quiet deliveries allocated (expected at most {flushes} flush \
         ticks): {dirty:?}",
        measured - zero_ticks
    );
    for pair in dirty.windows(2) {
        assert_eq!(
            pair[1].0 - pair[0].0,
            batch_size,
            "allocating deliveries are not spaced one batch apart: {dirty:?}"
        );
    }
    assert!(
        total.calls <= (flushes as u64) * 16,
        "flush ticks allocated more than expected: {} calls, {} bytes",
        total.calls,
        total.bytes
    );
}
