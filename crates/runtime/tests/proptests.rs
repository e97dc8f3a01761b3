//! Property tests for the wire codec and the reorder buffer.

use std::collections::BTreeMap;

use fadewich_core::stream::ChannelKind;
use fadewich_runtime::reorder::{
    PushOutcome, ReorderBuffer, ReorderConfig, ReorderState, SenderEvent, TickBundle,
};
use fadewich_runtime::wire::Frame;
use fadewich_stats::rng::Rng;
use fadewich_testkit::prop::{u64s, usizes};

/// A pseudo-random frame drawn from a seed. Half the draws are RSSI
/// with office 0 (v1 on the wire), a quarter RSSI with a nonzero
/// office (v2), and the rest ambient-light (v3), so every property
/// below covers all three header versions.
fn frame_from(rng: &mut Rng, max_payload: usize) -> Frame {
    let len = rng.below(max_payload + 1);
    let channel =
        if rng.bernoulli(0.75) { ChannelKind::Rssi } else { ChannelKind::AmbientLight };
    let office = if rng.bernoulli(0.5) { 0 } else { rng.below(1 << 16) as u16 };
    Frame {
        office,
        channel,
        sensor: rng.below(1 << 16) as u16,
        seq: rng.below(1 << 31) as u32,
        tick: rng.below(1 << 40) as u64,
        values: (0..len).map(|_| (-80.0 + 60.0 * rng.f64()) as f32).collect(),
    }
}

/// The watermark rules of `reorder.rs`'s module docs, restated as
/// plainly as possible: every poll rescans all senders for the global
/// frontier, sweeps quarantine and checks closure sender by sender.
/// No cached frontier, no skipped sweep, no recycled storage.
struct ReferenceReorder {
    cfg: ReorderConfig,
    thresholds: Vec<u64>,
    anti_replay: bool,
    s: ReorderState,
    events: Vec<SenderEvent>,
}

impl ReferenceReorder {
    fn new(cfg: ReorderConfig, anti_replay: bool) -> ReferenceReorder {
        let n = cfg.n_senders;
        ReferenceReorder {
            cfg,
            thresholds: vec![cfg.quarantine_after_ticks; n],
            anti_replay,
            s: ReorderState {
                next_emit: 0,
                frontier: vec![None; n],
                max_seq: vec![None; n],
                quarantined: vec![false; n],
                duplicates: 0,
                late: 0,
                reordered: 0,
                replayed: 0,
                replay_seen: vec![0; n],
                max_lag: 0,
                pending: Vec::new(),
            },
            events: Vec::new(),
        }
    }

    fn push(&mut self, sender: usize, seq: u32, tick: u64, values: &[f32]) -> PushOutcome {
        let s = &mut self.s;
        if self.anti_replay {
            let (max, bits) = (s.max_seq[sender], &mut s.replay_seen[sender]);
            let replay = match max {
                None => {
                    *bits = 1;
                    false
                }
                Some(m) if seq > m => {
                    *bits = bits.checked_shl(seq - m).unwrap_or(0) | 1;
                    false
                }
                Some(m) => {
                    let seen = m - seq >= 64 || *bits & (1 << (m - seq)) != 0;
                    if !seen {
                        *bits |= 1 << (m - seq);
                    }
                    seen
                }
            };
            if replay {
                s.replayed += 1;
                return PushOutcome::Replayed;
            }
        }
        match s.max_seq[sender] {
            Some(m) if seq < m => s.reordered += 1,
            m => s.max_seq[sender] = Some(m.map_or(seq, |m| m.max(seq))),
        }
        s.frontier[sender] = Some(s.frontier[sender].map_or(tick, |f| f.max(tick)));
        if s.quarantined[sender] {
            s.quarantined[sender] = false;
            self.events.push(SenderEvent::Recovered { sender, at_tick: tick });
        }
        if tick < s.next_emit {
            s.late += 1;
            return PushOutcome::Late;
        }
        let n = self.cfg.n_senders;
        let mut pending: BTreeMap<u64, Vec<Option<Vec<f32>>>> = s.pending.drain(..).collect();
        let slot = &mut pending.entry(tick).or_insert_with(|| vec![None; n])[sender];
        let outcome = if slot.is_some() {
            s.duplicates += 1;
            PushOutcome::Duplicate
        } else {
            *slot = Some(values.to_vec());
            PushOutcome::Buffered
        };
        s.pending = pending.into_iter().collect();
        outcome
    }

    fn poll(&mut self) -> Vec<TickBundle> {
        let s = &mut self.s;
        let Some(global) = s.frontier.iter().flatten().copied().max() else {
            return Vec::new();
        };
        for sender in 0..self.cfg.n_senders {
            let lag = s.frontier[sender].map_or(global.saturating_add(1), |f| global - f);
            if !s.quarantined[sender] && lag > self.thresholds[sender] {
                s.quarantined[sender] = true;
                self.events.push(SenderEvent::Quarantined { sender, at_tick: global });
            }
        }
        s.max_lag = s.max_lag.max((global + 1).saturating_sub(s.next_emit));
        let mut out = Vec::new();
        while s.next_emit <= global {
            let tick = s.next_emit;
            let row = s.pending.first().filter(|(t, _)| *t == tick).map(|(_, r)| r.clone());
            let closed = (0..self.cfg.n_senders).all(|k| {
                s.quarantined[k]
                    || row.as_ref().is_some_and(|r| r[k].is_some())
                    || s.frontier[k].is_some_and(|f| f >= tick + self.cfg.jitter_ticks)
            });
            if !closed {
                break;
            }
            if row.is_some() {
                s.pending.remove(0);
            }
            out.push(TickBundle {
                tick,
                reports: row.unwrap_or_else(|| vec![None; self.cfg.n_senders]),
            });
            s.next_emit += 1;
        }
        out
    }
}

fadewich_testkit::property! {
    #[cases(256)]
    fn wire_codec_round_trips(seed in u64s(0..1 << 48)) {
        let mut rng = Rng::seed_from_u64(seed);
        let f = frame_from(&mut rng, 16);
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let (back, used) = Frame::decode(&bytes).expect("clean frame must decode");
        assert_eq!(back, f);
        assert_eq!(used, bytes.len());
    }

    // Version negotiation: the v2 header (explicit office field) must
    // round-trip for every office id, and decode_borrowed must agree
    // with the owned decode sample-for-sample on both versions.
    #[cases(256)]
    fn wire_codec_v2_round_trips_and_views_agree(seed in u64s(0..1 << 48)) {
        let mut rng = Rng::seed_from_u64(seed);
        // The v2 header has no channel field, so this property only
        // draws RSSI frames; v3 round-trips are covered above and in
        // the wire unit suite.
        let f = Frame { channel: ChannelKind::Rssi, ..frame_from(&mut rng, 16) };
        let mut v2 = Vec::new();
        f.encode_v2_into(&mut v2);
        let (back, used) = Frame::decode(&v2).expect("v2 frame must decode");
        assert_eq!(back, f);
        assert_eq!(used, v2.len());
        let (view, vused) = Frame::decode_borrowed(&v2).expect("v2 view must decode");
        assert_eq!(vused, used);
        assert_eq!(view.to_frame(), f);
        let default = f.encode();
        let (dview, _) = Frame::decode_borrowed(&default).expect("default encoding");
        assert_eq!(dview.office, f.office);
        assert_eq!(dview.to_frame(), f);
    }

    #[cases(256)]
    fn wire_codec_rejects_any_corrupted_byte(seed in u64s(0..1 << 48)) {
        let mut rng = Rng::seed_from_u64(seed);
        let f = frame_from(&mut rng, 16);
        let clean = f.encode();
        let byte = rng.below(clean.len());
        let bit = rng.below(8);
        let mut dirty = clean.clone();
        dirty[byte] ^= 1 << bit;
        assert!(
            Frame::decode(&dirty).is_err(),
            "flip of byte {byte} bit {bit} slipped through"
        );
    }

    // Any delivery permutation within the jitter bound must come out
    // as the exact in-order, fully-populated tick sequence.
    #[cases(128)]
    fn reorder_buffer_restores_any_jittered_permutation(
        seed in u64s(0..1 << 48),
        n_senders in usizes(1..4),
        n_ticks in usizes(1..30),
        jitter in usizes(0..5),
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        // Send order: tick-major, sender-minor; each frame's payload
        // encodes (sender, tick) so emissions can be verified.
        let mut sched: Vec<(u64, usize, usize, u64)> = Vec::new(); // (arrival, idx, sender, tick)
        let mut idx = 0;
        for tick in 0..n_ticks as u64 {
            for sender in 0..n_senders {
                let delay = if jitter == 0 { 0 } else { rng.below(jitter + 1) as u64 };
                sched.push((tick + delay, idx, sender, tick));
                idx += 1;
            }
        }
        sched.sort_by_key(|&(arrival, idx, _, _)| (arrival, idx));

        let mut rb = ReorderBuffer::new(ReorderConfig {
            n_senders,
            jitter_ticks: jitter as u64,
            quarantine_after_ticks: u64::MAX,
        });
        let mut emitted = Vec::new();
        for &(_, i, sender, tick) in &sched {
            rb.push(sender, i as u32, tick, vec![sender as f32, tick as f32]);
            emitted.extend(rb.poll());
        }
        emitted.extend(rb.flush());

        assert_eq!(emitted.len(), n_ticks, "tick count mismatch");
        for (expect, bundle) in emitted.iter().enumerate() {
            assert_eq!(bundle.tick, expect as u64, "out-of-order emission");
            for (sender, slot) in bundle.reports.iter().enumerate() {
                let payload = slot.as_ref().expect("no frame was dropped");
                assert_eq!(payload, &vec![sender as f32, expect as f32]);
            }
        }
    }

    // Lossy delivery — drops, outages long enough to quarantine,
    // duplicates, frames past the jitter bound, reordering, replays
    // and a mid-stream deadline change — through three buffers: one
    // drained the way the engine drains it (refresh, events, then
    // `pop_closed` with every row recycled), one through `poll()`, and
    // the plain reference model above. Bundles, events, outcomes and
    // the checkpointable state must agree after every frame.
    #[cases(128)]
    fn recycled_drain_matches_poll_and_the_reference(
        seed in u64s(0..1 << 48),
        n_senders in usizes(1..5),
        n_ticks in usizes(1..80),
        jitter in usizes(1..5),
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let anti_replay = rng.bernoulli(0.5);
        let quarantine = 2 + rng.below(12);
        let cfg = ReorderConfig {
            n_senders,
            jitter_ticks: jitter as u64,
            quarantine_after_ticks: quarantine.max(jitter + 1) as u64,
        };
        // (arrival, index, sender, seq, tick, payload length)
        let mut sched: Vec<(u64, usize, usize, u32, u64, usize)> = Vec::new();
        let outage: Vec<(u64, u64)> = (0..n_senders)
            .map(|_| {
                let start = rng.below(n_ticks + 1) as u64;
                (start, start + rng.below(3 * quarantine + 1) as u64)
            })
            .collect();
        for tick in 0..n_ticks as u64 {
            for sender in 0..n_senders {
                if (outage[sender].0..outage[sender].1).contains(&tick) || rng.bernoulli(0.1) {
                    continue;
                }
                let len = 1 + rng.below(4);
                let copies = if rng.bernoulli(0.1) { 2 } else { 1 };
                for _ in 0..copies {
                    // Mostly inside the jitter bound, sometimes past it.
                    let spread = if rng.bernoulli(0.1) { jitter + 4 } else { jitter + 1 };
                    let delay = rng.below(spread) as u64;
                    let arrival = if rng.bernoulli(0.05) {
                        tick + 2 * jitter as u64 + 5
                    } else {
                        tick + delay
                    };
                    sched.push((arrival, sched.len(), sender, tick as u32, tick, len));
                }
            }
        }
        sched.sort_by_key(|&(arrival, i, ..)| (arrival, i));
        let retune = rng.below(sched.len() + 1);

        let mut drained = ReorderBuffer::new(cfg);
        let mut polled = ReorderBuffer::new(cfg);
        drained.set_anti_replay(anti_replay);
        polled.set_anti_replay(anti_replay);
        let mut reference = ReferenceReorder::new(cfg, anti_replay);
        for (step, &(_, _, sender, seq, tick, len)) in sched.iter().enumerate() {
            if step == retune {
                let ticks = rng.below(2 * quarantine) as u64 + 1;
                drained.set_sender_quarantine(sender, ticks);
                polled.set_sender_quarantine(sender, ticks);
                reference.thresholds[sender] = ticks;
            }
            let values: Vec<f32> = (0..len).map(|i| (tick * 10 + i as u64) as f32).collect();
            let outcome = drained.push(sender, seq, tick, &values);
            assert_eq!(polled.push(sender, seq, tick, values.clone()), outcome, "step {step}");
            assert_eq!(reference.push(sender, seq, tick, &values), outcome, "step {step}");

            drained.refresh();
            let events = drained.take_events();
            let mut bundles = Vec::new();
            while let Some((tick, reports)) = drained.pop_closed() {
                bundles.push(TickBundle { tick, reports: reports.clone() });
                drained.recycle(reports);
            }
            assert_eq!(polled.poll(), bundles, "step {step}");
            assert_eq!(reference.poll(), bundles, "step {step}");
            assert_eq!(polled.take_events(), events, "step {step}");
            assert_eq!(std::mem::take(&mut reference.events), events, "step {step}");
            let state = drained.state();
            assert_eq!(polled.state(), state, "step {step}");
            assert_eq!(reference.s, state, "step {step}");
        }
        assert_eq!(drained.flush(), polled.flush());
        assert_eq!(drained.state(), polled.state());
    }
}
