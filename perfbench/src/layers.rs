//! The traced run's engine: the streaming engine's data path rebuilt
//! from the layers' public entry points, in the order
//! `StreamingEngine::ingest_bytes` calls them, with a span around each
//! call. Wire decode and MAC verification, reorder push/poll, the
//! engine's own gap-fill and batching, then `Controller::step_batch`
//! (or `step_masked` on degraded ticks).
//!
//! MD and RE run inside the controller, where the benchmark cannot
//! open spans, so their share is measured *alongside*: a second
//! `MovementDetector` steps over exactly the rows the controller
//! received, and at each Rule 1 point (the controller's FSM, mirrored
//! from the detector's window readings) the features are extracted and
//! classified once more. The controller's self time is its step time
//! minus those two shares.
//!
//! The controller's decisions must equal the real engine's on the same
//! deliveries; the workloads check that, which is what makes the
//! per-layer numbers a decomposition of the untraced run.

use fadewich_core::auth::KeyTable;
use fadewich_core::controller::{Action, Controller};
use fadewich_core::features::extract_features_from_histories_into;
use fadewich_core::kma::Kma;
use fadewich_core::md::MovementDetector;
use fadewich_core::re::RadioEnvironment;
use fadewich_core::stream::ChannelKind;
use fadewich_runtime::engine::EngineConfig;
use fadewich_runtime::reorder::{ReorderBuffer, ReorderConfig};
use fadewich_runtime::wire::Frame;
use fadewich_stats::rolling::HistoryBuffer;
use fadewich_svm::PredictScratch;

use crate::tracer::{SpanCost, Tracer};

/// Span names. `ENGINE` wraps one delivery; the alongside spans nest
/// inside it but are not part of the engine's own work.
pub const ENGINE: &str = "engine.ingest";
pub const DECODE: &str = "wire.decode";
pub const TO_FRAME: &str = "wire.to_frame";
pub const MAC: &str = "wire.mac_verify";
pub const PUSH: &str = "reorder.push";
pub const POLL: &str = "reorder.poll";
pub const CONTROLLER: &str = "controller.step";
pub const MD: &str = "md.alongside";
pub const RE: &str = "re.alongside";

/// Same bound the engine puts on one batched controller advance.
const MAX_BATCH_TICKS: usize = 1024;

/// Counts recorded at the layer boundaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerCounts {
    pub frames: u64,
    pub mac_rejected: u64,
    pub ticks: u64,
    pub refits: u64,
    pub refit_ns: u64,
    pub windows: u64,
    pub rule1: u64,
}

impl LayerCounts {
    pub fn add(&mut self, o: &LayerCounts) {
        self.frames += o.frames;
        self.mac_rejected += o.mac_rejected;
        self.ticks += o.ticks;
        self.refits += o.refits;
        self.refit_ns += o.refit_ns;
        self.windows += o.windows;
        self.rule1 += o.rule1;
    }

    /// The counts alone, without the refit time, for the determinism
    /// guard.
    pub fn timeless(&self) -> LayerCounts {
        LayerCounts {
            refit_ns: 0,
            ..self.clone()
        }
    }
}

pub struct LayerEngine<'a> {
    cfg: EngineConfig,
    groups: Vec<(u16, Vec<usize>)>,
    n: usize,
    keys: Option<&'a KeyTable>,
    reorder: ReorderBuffer,
    controller: Controller<'a>,
    md: MovementDetector,
    histories: Vec<HistoryBuffer>,
    re: &'a RadioEnvironment,
    scratch: PredictScratch,
    win_buf: Vec<f64>,
    feat_buf: Vec<f64>,
    noisy: bool,
    row: Vec<f64>,
    mask: Vec<bool>,
    last_value: Vec<f64>,
    last_seen: Vec<Option<u64>>,
    batch_rows: Vec<f64>,
    batch_start: u64,
    batch_counts: Vec<usize>,
    pub counts: LayerCounts,
}

impl<'a> LayerEngine<'a> {
    /// Mirrors `StreamingEngine::new` (+ `set_auth` when `keys` is
    /// given) for an all-RSSI layout.
    ///
    /// # Errors
    ///
    /// Controller or detector construction errors.
    pub fn new(
        cfg: EngineConfig,
        groups: Vec<(u16, Vec<usize>)>,
        re: &'a RadioEnvironment,
        kma: Kma<'a>,
        keys: Option<&'a KeyTable>,
    ) -> Result<LayerEngine<'a>, String> {
        let n: usize = groups.iter().map(|(_, p)| p.len()).sum();
        let mut reorder = ReorderBuffer::new(ReorderConfig {
            n_senders: groups.len(),
            jitter_ticks: cfg.jitter_ticks,
            quarantine_after_ticks: cfg.quarantine_after_ticks,
        });
        for sender in 0..groups.len() {
            reorder
                .set_sender_quarantine(sender, cfg.quarantine_after_ticks_for(ChannelKind::Rssi));
        }
        reorder.set_anti_replay(keys.is_some());
        let params = cfg.params;
        let history_len =
            ((params.t_delta_s + params.window_hangover_s + 4.0) * cfg.tick_hz) as usize;
        Ok(LayerEngine {
            controller: Controller::new(n, cfg.tick_hz, params, re, kma)?,
            md: MovementDetector::new(n, cfg.tick_hz, params)?,
            histories: vec![HistoryBuffer::new(history_len.max(8)); n],
            cfg,
            groups,
            n,
            keys,
            reorder,
            re,
            scratch: PredictScratch::new(),
            win_buf: Vec::new(),
            feat_buf: Vec::new(),
            noisy: false,
            row: vec![0.0; n],
            mask: vec![false; n],
            last_value: vec![0.0; n],
            last_seen: vec![None; n],
            batch_rows: Vec::new(),
            batch_start: 0,
            batch_counts: Vec::new(),
            counts: LayerCounts::default(),
        })
    }

    pub fn actions(&self) -> &[Action] {
        self.controller.actions()
    }

    /// Reorder counters: [duplicates, late, reordered, max watermark lag].
    pub fn reorder_counts(&self) -> [u64; 4] {
        let (d, l, r) = self.reorder.counters();
        [d, l, r, self.reorder.max_watermark_lag()]
    }

    /// One delivery, as `StreamingEngine::ingest_bytes` handles it.
    pub fn ingest(&mut self, t: &mut Tracer<'_>, mut bytes: &[u8]) {
        t.enter(ENGINE);
        while !bytes.is_empty() {
            t.enter(DECODE);
            let decoded = Frame::decode_borrowed(bytes);
            t.exit();
            let Ok((view, used)) = decoded else { break };
            bytes = &bytes[used..];
            let authentic = match self.keys {
                None => !view.is_authenticated(),
                Some(keys) => match (view.is_authenticated(), keys.get(view.sensor)) {
                    (true, Some(key)) => {
                        t.enter(MAC);
                        let ok = view.verify_mac(key);
                        t.exit();
                        ok
                    }
                    _ => false,
                },
            };
            if !authentic {
                self.counts.mac_rejected += 1;
                continue;
            }
            t.enter(TO_FRAME);
            let frame = view.to_frame();
            t.exit();
            let Some(sender) = self
                .groups
                .iter()
                .position(|(s, _)| *s == frame.sensor && frame.channel == ChannelKind::Rssi)
            else {
                continue;
            };
            if frame.values.len() != self.groups[sender].1.len() {
                continue;
            }
            self.counts.frames += 1;
            t.enter(PUSH);
            self.reorder
                .push(sender, frame.seq, frame.tick, frame.values);
            t.exit();
            t.enter(POLL);
            let bundles = self.reorder.poll();
            t.exit();
            for b in bundles {
                self.process_tick(t, b.tick, &b.reports);
            }
        }
        self.flush(t);
        t.exit();
    }

    /// End of day, as `StreamingEngine::finish`.
    pub fn finish(&mut self, t: &mut Tracer<'_>, expected_ticks: u64) {
        t.enter(ENGINE);
        t.enter(POLL);
        let bundles = self.reorder.flush();
        t.exit();
        for b in bundles {
            self.process_tick(t, b.tick, &b.reports);
        }
        let empty: Vec<Option<Vec<f32>>> = vec![None; self.groups.len()];
        while self.ticks_ingested() < expected_ticks {
            let tick = self.ticks_ingested();
            self.process_tick(t, tick, &empty);
        }
        self.flush(t);
        t.exit();
    }

    fn ticks_ingested(&self) -> u64 {
        self.counts.ticks + (self.batch_rows.len() / self.n) as u64
    }

    fn process_tick(&mut self, t: &mut Tracer<'_>, tick: u64, reports: &[Option<Vec<f32>>]) {
        let mut any_masked = false;
        let cap = self.cfg.staleness_cap_ticks_for(ChannelKind::Rssi);
        for (sender, (_, positions)) in self.groups.iter().enumerate() {
            match &reports[sender] {
                Some(values) => {
                    for (&pos, &v) in positions.iter().zip(values) {
                        self.row[pos] = f64::from(v);
                        self.mask[pos] = false;
                        self.last_value[pos] = f64::from(v);
                        self.last_seen[pos] = Some(tick);
                    }
                }
                None => {
                    for &pos in positions {
                        let fresh = self.last_seen[pos]
                            .is_some_and(|seen| tick.saturating_sub(seen) <= cap);
                        self.row[pos] = self.last_value[pos];
                        self.mask[pos] = !fresh;
                        any_masked |= !fresh;
                    }
                }
            }
        }
        if !any_masked {
            if !self.batch_rows.is_empty()
                && tick != self.batch_start + (self.batch_rows.len() / self.n) as u64
            {
                self.flush(t);
            }
            if self.batch_rows.is_empty() {
                self.batch_start = tick;
            }
            self.batch_rows.extend_from_slice(&self.row);
            if self.batch_rows.len() / self.n >= MAX_BATCH_TICKS {
                self.flush(t);
            }
            return;
        }
        self.flush(t);
        t.enter(CONTROLLER);
        self.controller
            .step_masked(tick as usize, &self.row, &self.mask);
        t.exit();
        self.counts.ticks += 1;
        let (row, mask) = (
            std::mem::take(&mut self.row),
            std::mem::take(&mut self.mask),
        );
        self.alongside(t, tick as usize, &row, Some(&mask));
        (self.row, self.mask) = (row, mask);
    }

    fn flush(&mut self, t: &mut Tracer<'_>) {
        if self.batch_rows.is_empty() {
            return;
        }
        let rows = std::mem::take(&mut self.batch_rows);
        self.batch_counts.clear();
        t.enter(CONTROLLER);
        self.controller
            .step_batch(self.batch_start as usize, &rows, &mut self.batch_counts);
        t.exit();
        let n_ticks = rows.len() / self.n;
        self.counts.ticks += n_ticks as u64;
        for (i, row) in rows.chunks_exact(self.n).enumerate() {
            self.alongside(t, self.batch_start as usize + i, row, None);
        }
        self.batch_rows = rows;
        self.batch_rows.clear();
    }

    /// MD and RE over the tick the controller just consumed.
    fn alongside(&mut self, t: &mut Tracer<'_>, tick: usize, row: &[f64], mask: Option<&[bool]>) {
        for (h, &x) in self.histories.iter_mut().zip(row) {
            h.push(x);
        }
        let before = self.md.threshold();
        t.enter(MD);
        let verdict = match mask {
            None => self.md.step(tick, row),
            Some(m) => self.md.step_masked(tick, row, m),
        };
        let dur = t.exit();
        if self.md.threshold() != before {
            self.counts.refits += 1;
            self.counts.refit_ns += dur;
        }
        self.counts.windows += u64::from(verdict.closed_window.is_some());
        let dwt = self.md.open_duration_ticks(tick);
        let params = &self.cfg.params;
        if !self.noisy && dwt >= params.t_delta_ticks(self.cfg.tick_hz) {
            // The controller's Rule 1 point: classify the window's
            // first t∆ seconds from the stream histories.
            let start = self
                .md
                .open_window_start()
                .unwrap_or((tick + 1).saturating_sub(dwt.max(1)));
            t.enter(RE);
            if extract_features_from_histories_into(
                &self.histories,
                start as u64,
                self.cfg.tick_hz,
                params,
                &mut self.win_buf,
                &mut self.feat_buf,
            ) {
                self.re.classify_into(&self.feat_buf, &mut self.scratch);
            }
            t.exit();
            self.counts.rule1 += 1;
            self.noisy = true;
        } else if self.noisy && dwt == 0 {
            self.noisy = false;
        }
    }
}

/// Per-layer busy times of a traced run, in nanoseconds. `engine` is
/// the engine's own work: the delivery spans without the alongside
/// shares and the spans' own bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub engine: u64,
    pub glue: u64,
    pub decode: u64,
    pub mac: u64,
    pub reorder_push: u64,
    pub reorder_poll: u64,
    pub controller_self: u64,
    pub md: u64,
    pub refit: u64,
    pub re: u64,
}

impl LayerTimes {
    /// Reads a tracer that only [`LayerEngine`] wrote to, taking the
    /// spans' own bookkeeping (`cost`) out: each layer span loses what
    /// lies inside it, and the delivery span's self time what every
    /// nested span left outside itself (they are all its direct
    /// children).
    pub fn from_tracer(t: &Tracer<'_>, refit_ns: u64, cost: SpanCost) -> LayerTimes {
        let own = |name: &str| {
            t.total_ns(name)
                .saturating_sub((t.count(name) as f64 * cost.inner_ns) as u64)
        };
        let outside = t.span_counts().1 as f64 * (cost.pair_ns - cost.inner_ns);
        let glue = t.self_ns(ENGINE).saturating_sub(outside as u64);
        let decode = own(DECODE) + own(TO_FRAME);
        let mac = own(MAC);
        let reorder_push = own(PUSH);
        let reorder_poll = own(POLL);
        let controller = own(CONTROLLER);
        let md = own(MD);
        let re = own(RE);
        // MD and RE run twice in the traced run (inside the controller
        // and alongside it); the controller's self time takes both out.
        LayerTimes {
            engine: glue + decode + mac + reorder_push + reorder_poll + controller,
            glue,
            decode,
            mac,
            reorder_push,
            reorder_poll,
            controller_self: controller.saturating_sub(md + re),
            md,
            refit: refit_ns,
            re,
        }
    }

    /// The layers of the engine's own work, named, with busy times
    /// that sum to `engine` (the MD share split into refit and the
    /// rest).
    pub fn breakdown(&self) -> [(&'static str, u64); 9] {
        [
            ("engine glue", self.glue),
            ("wire decode", self.decode),
            ("wire MAC verify", self.mac),
            ("reorder push", self.reorder_push),
            ("reorder poll", self.reorder_poll),
            ("controller self", self.controller_self),
            ("md step", self.md.saturating_sub(self.refit)),
            ("md refit", self.refit),
            ("re classify", self.re),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadewich_telemetry::ManualClock;

    #[test]
    fn layer_times_take_the_span_bookkeeping_out_exactly() {
        let clock = ManualClock::new();
        let mut t = Tracer::new(&clock);
        t.enter(ENGINE);
        clock.advance_ns(3);
        t.span(DECODE, || clock.advance_ns(5));
        clock.advance_ns(1);
        t.span(CONTROLLER, || clock.advance_ns(10));
        t.span(MD, || clock.advance_ns(4));
        clock.advance_ns(2);
        t.exit();
        let cost = SpanCost {
            pair_ns: 2.0,
            inner_ns: 1.0,
        };
        let lt = LayerTimes::from_tracer(&t, 0, cost);
        // Each layer span loses its inner 1 ns; the delivery's self time
        // (25 − 19 = 6) loses the 1 ns each of its 3 children left
        // outside themselves.
        assert_eq!((lt.decode, lt.md, lt.glue), (4, 3, 3));
        assert_eq!(lt.controller_self, 9 - 3);
        assert_eq!(lt.engine, 3 + 4 + 9);
        assert_eq!(
            lt.breakdown().iter().map(|&(_, ns)| ns).sum::<u64>(),
            lt.engine
        );
    }
}
