//! `fleet_hostile`: 8 authenticated offices behind one `FleetRuntime`
//! on 2 shards, over a lossy link, half of them under a deauth storm.
//!
//! Every office shares one 2-day `fadewichd` scenario and one model
//! (trained on day 0); day 1 is served. Offices come in twins: office
//! `2k+1` receives exactly office `2k`'s genuine deliveries — the same
//! v4-signed frames (office id aside) through the same seeded lossy
//! link, the repository's `streaming::stress_link` (2% drop, 1% dup,
//! 0.5% corrupt, 3-tick jitter) — plus a `DeauthStorm` flood spliced in
//! after the link, in the burst shape of a deauth tool (a burst of
//! back-to-back frames, then a pause). Authentication must contain the
//! flood, so each attacked office must emit exactly its clean twin's
//! actions.
//!
//! The loop mirrors `fleet::day::run_fleet_day`: round `r` hands
//! each office its `r`-th delivery, every 64 rounds the fleet advances
//! its shards in parallel, and a serial control phase renders fresh
//! events and checkpoints each office once per simulated minute
//! through `EngineSnapshot` and `CheckpointStore::save`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use fadewich_core::auth::KeyTable;
use fadewich_core::controller::Action;
use fadewich_core::kma::Kma;
use fadewich_core::re::RadioEnvironment;
use fadewich_experiments::par;
use fadewich_experiments::streaming::stress_link;
use fadewich_fleet::day::{event_line, office_dir, DEFAULT_ADVANCE_EVERY};
use fadewich_fleet::{shard_of, FleetRuntime};
use fadewich_runtime::attack::{AttackKind, AttackModel};
use fadewich_runtime::checkpoint::{CheckpointStore, Checkpointer};
use fadewich_runtime::counters::RuntimeCounters;
use fadewich_runtime::engine::{EngineAuth, EngineConfig, StreamingEngine};
use fadewich_runtime::replay;
use fadewich_runtime::wire::Frame;
use fadewich_stats::rng::Rng;
use fadewich_telemetry::WallClock;

use crate::deploy::{self, median, sub_seed, Office, Quality};
use crate::layers::{LayerCounts, LayerEngine, LayerTimes};
use crate::office::{
    add_reorder, check_reconciled, note_breakdown, reconcile, report_engine, report_reorder,
    report_setup,
};
use crate::tracer::{span_cost, SpanCost, Tracer};
use crate::{note_block_quantile, per, Args, EndToEnd, LayerReport, Outcome};

pub const OFFICES: usize = 8;
pub const SHARDS: usize = 2;
const DAY: usize = 1;
/// Flood bursts: `BURST_TICKS` ticks of `BURST_FRAMES_PER_TICK` forged
/// frames every `BURST_PERIOD_TICKS` ticks, each burst claiming the
/// next sensor identity. Rate and burst length are the deauth-storm
/// window of `attacks::containment_study`; one burst every 4 simulated
/// minutes is this benchmark's choice.
const BURST_TICKS: u64 = 240;
const BURST_FRAMES_PER_TICK: u32 = 6;
const BURST_PERIOD_TICKS: u64 = 1200;
/// Cycles per latency block: about a tenth of a fleet day, and enough
/// for each block's cycle p99 to have ten samples beyond it.
const BLOCK_CYCLES: usize = 1000;

struct Inputs {
    office: Office,
    groups: Vec<(u16, Vec<usize>)>,
    keys: KeyTable,
    /// Per office, the delivery sequence the fleet front receives.
    feeds: Vec<Vec<Vec<u8>>>,
    /// Per office, how many flood frames were spliced in.
    flood: Vec<u64>,
}

/// Splices `flood` (send tick, bytes) into an arrival stream after the
/// link: each flood frame goes on the air once the genuine traffic
/// has reached its tick.
fn splice(deliveries: Vec<Vec<u8>>, flood: Vec<(u64, Vec<u8>)>) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(deliveries.len() + flood.len());
    let mut flood = flood.into_iter().peekable();
    let mut clock = 0u64;
    for d in deliveries {
        if let Ok((view, _)) = Frame::decode_borrowed(&d) {
            clock = clock.max(view.tick);
        }
        out.push(d);
        while let Some((_, bytes)) = flood.next_if(|(tick, _)| *tick <= clock) {
            out.push(bytes);
        }
    }
    out.extend(flood.map(|(_, b)| b));
    out
}

fn generate(seed: u64) -> Result<Inputs, String> {
    let office = Office::generate(Office::fadewichd_config(sub_seed(seed, 2), 2))?;
    let groups = office.trace.receiver_groups(&office.streams);
    let max_id = groups.iter().map(|(s, _)| *s).max().unwrap_or(0);
    let keys = KeyTable::derive(sub_seed(seed, 3), max_id + 1);
    let n_ticks = office.n_ticks(DAY);
    let mut feeds = Vec::with_capacity(OFFICES);
    let mut flood = Vec::with_capacity(OFFICES);
    for pair in 0..OFFICES / 2 {
        let link_seed = sub_seed(seed, 100 + pair as u64);
        let mut twins = Vec::with_capacity(2);
        for office_id in [2 * pair, 2 * pair + 1] {
            let frames = replay::signed_day_frames(
                &office.trace,
                &office.streams,
                &groups,
                DAY,
                office_id as u16,
                &keys,
            )?;
            twins
                .push(stress_link().deliver(&frames, &mut Rng::task_stream(link_seed, DAY as u64)));
        }
        if twins[0].len() != twins[1].len() {
            return Err("twin offices received different delivery counts".to_string());
        }
        let attacked = twins.pop().expect("two twins");
        let clean = twins.pop().expect("two twins");
        let mut rng = Rng::task_stream(sub_seed(seed, 200 + pair as u64), 0);
        let mut forged = Vec::new();
        let mut from = BURST_PERIOD_TICKS / 2;
        let mut burst = pair;
        while from + BURST_TICKS <= n_ticks {
            let (sensor, positions) = &groups[burst % groups.len()];
            let storm = AttackModel {
                kind: AttackKind::DeauthStorm {
                    frames_per_tick: BURST_FRAMES_PER_TICK,
                },
                sensor: *sensor,
                payload_width: positions.len(),
                from_tick: from,
                to_tick: from + BURST_TICKS,
                target_office: Some((2 * pair + 1) as u16),
            };
            forged.extend(storm.injected(&[], &mut rng));
            from += BURST_PERIOD_TICKS;
            burst += 1;
        }
        flood.push(0);
        flood.push(forged.len() as u64);
        feeds.push(clean);
        feeds.push(splice(attacked, forged));
    }
    Ok(Inputs {
        office,
        groups,
        keys,
        feeds,
        flood,
    })
}

fn build_fleet<'a>(
    inp: &'a Inputs,
    re: &'a RadioEnvironment,
    cfg: EngineConfig,
) -> Result<FleetRuntime<'a>, String> {
    let mut engines = Vec::with_capacity(OFFICES);
    for _ in 0..OFFICES {
        let mut engine = StreamingEngine::new(
            cfg,
            inp.groups.clone(),
            re,
            Kma::new(&inp.office.inputs[DAY]),
        )?;
        engine.set_auth(EngineAuth::new(inp.keys.clone()));
        engines.push(engine);
    }
    FleetRuntime::new(SHARDS, engines)
}

/// A fresh checkpoint namespace per office under `root`.
fn open_stores(root: &Path) -> Result<Vec<CheckpointStore>, String> {
    if root.exists() {
        std::fs::remove_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
    }
    (0..OFFICES)
        .map(|o| {
            CheckpointStore::open(&office_dir(root, o as u16))
                .map_err(|e| format!("checkpoint store: {e}"))
        })
        .collect()
}

struct Pass {
    wall_s: f64,
    office_ticks: u64,
    /// Cycle latencies in ms, one block per `BLOCK_CYCLES` cycles.
    blocks: Vec<Vec<f64>>,
    actions: Vec<Vec<Action>>,
    counters: Vec<RuntimeCounters>,
    frames_corrupt: u64,
    state_bytes: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
}

/// One fleet day. With a tracer, spans wrap every fleet and
/// checkpoint call, and each snapshot is also encoded on its own to
/// time the codec apart from the file write.
fn fleet_pass(
    inp: &Inputs,
    re: &RadioEnvironment,
    cfg: EngineConfig,
    root: &Path,
    mut tracer: Option<&mut Tracer<'_>>,
) -> Result<Pass, String> {
    macro_rules! span {
        ($name:expr, $body:expr) => {{
            if let Some(t) = tracer.as_deref_mut() {
                t.enter($name);
            }
            let out = $body;
            if let Some(t) = tracer.as_deref_mut() {
                t.exit();
            }
            out
        }};
    }
    let mut fleet = build_fleet(inp, re, cfg)?;
    let mut stores = open_stores(root)?;
    let mut checkpointers: Vec<Checkpointer> = (0..OFFICES)
        .map(|_| Checkpointer::new(cfg.checkpoint_every_ticks))
        .collect();
    let mut printed = [0usize; OFFICES];
    let mut pass = Pass {
        wall_s: 0.0,
        office_ticks: 0,
        blocks: Vec::new(),
        actions: Vec::new(),
        counters: Vec::new(),
        frames_corrupt: 0,
        state_bytes: Vec::new(),
        checkpoint_bytes: Vec::new(),
    };
    let rounds = inp.feeds.iter().map(Vec::len).max().unwrap_or(0);
    let every = DEFAULT_ADVANCE_EVERY as usize;
    let start = Instant::now();
    let mut round = 0;
    while round < rounds {
        if pass.blocks.last().is_none_or(|b| b.len() == BLOCK_CYCLES) {
            pass.blocks.push(Vec::with_capacity(BLOCK_CYCLES));
        }
        let c0 = Instant::now();
        let stop = (round + every).min(rounds);
        for r in round..stop {
            for feed in &inp.feeds {
                if let Some(d) = feed.get(r) {
                    span!("fleet.ingest", fleet.ingest(d));
                }
            }
        }
        span!("fleet.advance", fleet.advance());
        round = stop;
        span!("fleet.control", {
            for o in 0..OFFICES {
                let office = o as u16;
                let Some(engine) = fleet.office_mut(office) else {
                    continue;
                };
                for ev in &engine.events()[printed[o]..] {
                    black_box(event_line(ev));
                }
                printed[o] = engine.events().len();
                let now = engine.counters().ticks_processed;
                if checkpointers[o].due(now) {
                    let snap = span!(
                        "checkpoint.snapshot",
                        engine.snapshot(DAY as u32, round as u64, 0)
                    );
                    if tracer.is_some() {
                        let bytes = span!("checkpoint.encode", snap.encode(now));
                        pass.checkpoint_bytes.push(bytes.len() as f64);
                    }
                    span!("checkpoint.save", stores[o].save(now, &snap))
                        .map_err(|e| format!("office {o}: checkpoint save failed: {e}"))?;
                    checkpointers[o].advance(now);
                }
            }
        });
        let block = pass.blocks.last_mut().expect("a block is open");
        block.push(c0.elapsed().as_secs_f64() * 1e3);
    }
    span!("fleet.finish", fleet.finish_day(inp.office.n_ticks(DAY)));
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.frames_corrupt = fleet.counters().corrupt_crc + fleet.counters().corrupt_framing;
    for o in 0..OFFICES {
        let engine = fleet.office_mut(o as u16).expect("hosted office");
        pass.office_ticks += engine.counters().ticks_processed;
        pass.actions.push(engine.actions().to_vec());
        pass.counters.push(engine.counters().clone());
        let len = inp.feeds[o].len() as u64;
        pass.state_bytes
            .push(engine.snapshot(DAY as u32, len, 0).encode(0).len() as f64);
    }
    Ok(pass)
}

/// The deterministic part of every office's counters (the latency
/// histograms inside `RuntimeCounters` are wall-clock readings).
fn summaries(pass: &Pass) -> Vec<String> {
    pass.counters
        .iter()
        .map(RuntimeCounters::deterministic_summary)
        .collect()
}

/// The containment invariant and the authentication accounting.
fn check_pass(inp: &Inputs, pass: &Pass, out: &mut Outcome) {
    for o in 0..OFFICES {
        out.attempted += 1;
        let twin = o & !1;
        let c = &pass.counters[o];
        let mut ok = true;
        if pass.actions[o] != pass.actions[twin] {
            ok = false;
            out.check(false, || {
                format!("office {o} actions differ from its clean twin {twin}")
            });
        }
        if c.frames_unauthenticated != inp.flood[o] {
            ok = false;
            out.check(false, || {
                format!(
                    "office {o} rejected {} frames but {} were forged",
                    c.frames_unauthenticated, inp.flood[o]
                )
            });
        }
        out.failed += u64::from(!ok);
    }
}

/// Decision quality pooled over every office's served day.
fn decision(inp: &Inputs, actions: &[Vec<Action>]) -> deploy::Decision {
    let mut quality = Quality::default();
    for a in actions {
        quality.score_day(&inp.office.scenario, DAY, a);
    }
    quality.decision()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t_gen = Instant::now();
    let inp = generate(args.seed)?;
    out.note("generator_s", t_gen.elapsed().as_secs_f64(), "s");
    out.note(
        "flood_frames",
        inp.flood.iter().sum::<u64>() as f64,
        "count",
    );
    let office = &inp.office;
    let cfg = EngineConfig::new(office.trace.tick_hz(), office.params);
    let root = PathBuf::from(crate::WORK_DIR).join(format!("fleet-{}", std::process::id()));

    let (bundle, setups) = deploy::set_up(office, |model| {
        black_box(build_fleet(&inp, &model.re, cfg)?);
        Ok(())
    })?;
    let re = &bundle.re;

    let t_run = Instant::now();
    let result = if args.trace {
        traced(args, &inp, re, cfg, &root, &setups, t_run, &mut out)
    } else {
        untraced(args, &inp, re, cfg, &root, &setups, t_run, &mut out)
    };
    let _ = std::fs::remove_dir_all(&root);
    // Removes the shared scratch directory only once it is empty.
    let _ = std::fs::remove_dir(crate::WORK_DIR);
    result.map(|()| out)
}

#[allow(clippy::too_many_arguments)]
fn untraced(
    args: &Args,
    inp: &Inputs,
    re: &RadioEnvironment,
    cfg: EngineConfig,
    root: &Path,
    setups: &[deploy::SetupTimes],
    t_run: Instant,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || t_run.elapsed().as_secs_f64() < args.seconds {
        let pass = fleet_pass(inp, re, cfg, root, None)?;
        check_pass(inp, &pass, out);
        if let Some(first) = passes.first() {
            out.check(
                first.actions == pass.actions && summaries(first) == summaries(&pass),
                || "fleet decisions or counters differ between passes".into(),
            );
        }
        passes.push(pass);
    }
    out.note("passes", passes.len() as f64, "count");
    decision(inp, &passes[0].actions).note(out);
    out.note("frames_corrupt", passes[0].frames_corrupt as f64, "count");
    out.note(
        "state_bytes_per_office",
        median(&passes[0].state_bytes),
        "bytes",
    );
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.office_ticks as f64 / p.wall_s)
        .collect();
    // A short last block would put a thin tail next to full ones.
    let blocks: Vec<Vec<f64>> = passes
        .into_iter()
        .flat_map(|p| p.blocks)
        .filter(|b| b.len() == BLOCK_CYCLES)
        .collect();
    note_block_quantile(out, "cycle_latency_p50_ms", "ms", &blocks, 0.5);
    note_block_quantile(out, "cycle_latency_p99_ms", "ms", &blocks, 0.99);
    EndToEnd {
        setup_s: median(&setups.iter().map(|s| s.total_s()).collect::<Vec<_>>()),
        office_ticks_per_s: median(&rates),
    }
    .into_metrics(out);
    Ok(())
}

/// One shard of the replayed fleet: its tracer and its offices'
/// decomposed engines.
struct ReplayShard<'a, 'c> {
    tracer: Tracer<'c>,
    offices: Vec<(usize, LayerEngine<'a>)>,
}

/// The fleet's engines replayed through [`LayerEngine`] on the fleet's
/// own schedule: every `DEFAULT_ADVANCE_EVERY` rounds each shard's
/// offices take that cycle's deliveries on a pool thread of their own,
/// as inside `advance`, and a last parallel call ends the day, as
/// `finish_day`.
struct FleetReplay<'c> {
    tracer: Tracer<'c>,
    /// Per shard, the engines' own busy time (bookkeeping taken out).
    shard_busy_ns: [u64; SHARDS],
    /// Summed over the parallel calls, the busier shard's busy time:
    /// the decomposition of the fleet's parallel wall time.
    parallel_ns: u64,
    counts: LayerCounts,
    reorder: [u64; 4],
    actions: Vec<Vec<Action>>,
}

fn replay_fleet<'c>(
    inp: &Inputs,
    re: &RadioEnvironment,
    cfg: EngineConfig,
    clock: &'c WallClock,
    cost: SpanCost,
) -> Result<FleetReplay<'c>, String> {
    let mut shards: Vec<Mutex<ReplayShard<'_, 'c>>> = (0..SHARDS)
        .map(|_| {
            Mutex::new(ReplayShard {
                tracer: Tracer::new(clock),
                offices: Vec::new(),
            })
        })
        .collect();
    for o in 0..OFFICES {
        let kma = Kma::new(&inp.office.inputs[DAY]);
        let engine = LayerEngine::new(cfg, inp.groups.clone(), re, kma, Some(&inp.keys))?;
        let shard = shards[shard_of(o as u16, SHARDS)]
            .get_mut()
            .map_err(|e| e.to_string())?;
        shard.offices.push((o, engine));
    }
    let rounds = inp.feeds.iter().map(Vec::len).max().unwrap_or(0);
    let every = DEFAULT_ADVANCE_EVERY as usize;
    let n_ticks = inp.office.n_ticks(DAY);
    let mut shard_busy_ns = [0u64; SHARDS];
    let mut parallel_ns = 0;
    let mut round = 0;
    while round <= rounds {
        let stop = (round + every).min(rounds);
        let finishing = round == rounds;
        let busy = par::par_map_indices(SHARDS, |k| {
            let mut shard = shards[k].lock().unwrap_or_else(PoisonError::into_inner);
            let ReplayShard { tracer, offices } = &mut *shard;
            let before = LayerTimes::from_tracer(tracer, 0, cost).engine;
            for (o, engine) in offices.iter_mut() {
                for d in inp.feeds[*o].get(round..stop).unwrap_or_default() {
                    engine.ingest(tracer, d);
                }
                if finishing {
                    engine.finish(tracer, n_ticks);
                }
            }
            LayerTimes::from_tracer(tracer, 0, cost)
                .engine
                .saturating_sub(before)
        });
        parallel_ns += busy.iter().max().copied().unwrap_or(0);
        for (total, b) in shard_busy_ns.iter_mut().zip(busy) {
            *total += b;
        }
        round = if finishing { rounds + 1 } else { stop };
    }
    let mut replay = FleetReplay {
        tracer: Tracer::new(clock),
        shard_busy_ns,
        parallel_ns,
        counts: LayerCounts::default(),
        reorder: [0; 4],
        actions: vec![Vec::new(); OFFICES],
    };
    for shard in shards {
        let shard = shard.into_inner().unwrap_or_else(PoisonError::into_inner);
        replay.tracer.absorb(&shard.tracer);
        for (o, engine) in shard.offices {
            replay.counts.add(&engine.counts);
            add_reorder(&mut replay.reorder, engine.reorder_counts());
            replay.actions[o] = engine.actions().to_vec();
        }
    }
    Ok(replay)
}

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    inp: &Inputs,
    re: &RadioEnvironment,
    cfg: EngineConfig,
    root: &Path,
    setups: &[deploy::SetupTimes],
    t_run: Instant,
    out: &mut Outcome,
) -> Result<(), String> {
    let clock = WallClock;
    let cost = span_cost(&clock);
    let mut fleet_t = Tracer::new(&clock);
    let mut engine_t = Tracer::new(&clock);
    let mut counts = LayerCounts::default();
    let mut first = None;
    let (mut untraced_s, mut passes) = (0.0, 0u64);
    let mut shard_busy = [0u64; SHARDS];
    let mut parallel_ns = 0u64;
    let mut checkpoint_bytes = Vec::new();
    let mut first_plain = None;
    while passes == 0 || t_run.elapsed().as_secs_f64() < args.seconds {
        let plain = fleet_pass(inp, re, cfg, root, None)?;
        untraced_s += plain.wall_s;
        check_pass(inp, &plain, out);
        let pass = fleet_pass(inp, re, cfg, root, Some(&mut fleet_t))?;
        checkpoint_bytes.extend(pass.checkpoint_bytes.iter().copied());
        // The engines' layers, on the fleet's own parallel schedule.
        let replay = replay_fleet(inp, re, cfg, &clock, cost)?;
        engine_t.absorb(&replay.tracer);
        parallel_ns += replay.parallel_ns;
        for (total, b) in shard_busy.iter_mut().zip(replay.shard_busy_ns) {
            *total += b;
        }
        for (o, actions) in replay.actions.iter().enumerate() {
            out.attempted += 1;
            if *actions != plain.actions[o] {
                out.failed += 1;
                out.check(false, || {
                    format!("office {o}: traced decomposition diverged from the fleet")
                });
            }
        }
        let (pass_counts, reorder) = (replay.counts, replay.reorder);
        let actions: usize = plain.actions.iter().map(Vec::len).sum();
        let this = (
            pass_counts.timeless(),
            reorder,
            summaries(&plain),
            plain.frames_corrupt,
            actions,
        );
        match &first {
            None => {
                first = Some(this);
                first_plain = Some(plain);
            }
            Some(f) => out.check(*f == this, || {
                "per-layer counts differ between passes".into()
            }),
        }
        counts.add(&pass_counts);
        passes += 1;
    }
    let p = passes as f64;
    let (_, reorder, _, frames_corrupt, actions) = first.expect("at least one pass");
    let plain = first_plain.expect("at least one pass");
    let counters = &plain.counters;
    let decision = decision(inp, &plain.actions);
    decision.note(out);
    let mut report = LayerReport::new();
    decision.report(&mut report);
    let lt = LayerTimes::from_tracer(&engine_t, counts.refit_ns, cost);
    report_engine(&mut report, &engine_t, &lt, &counts, p);
    report_setup(&mut report, setups);
    report_reorder(&mut report, reorder);
    let sum = |f: fn(&RuntimeCounters) -> u64| counters.iter().map(f).sum::<u64>() as f64;
    report.set("engine.gap_fills", sum(|c| c.gap_fills));
    report.set("engine.masked_stream_ticks", sum(|c| c.masked_stream_ticks));
    report.set(
        "engine.auth_rejects",
        sum(|c| c.frames_unauthenticated + c.frames_replayed),
    );
    report.set("engine.rate_limited", sum(|c| c.frames_rate_limited));
    report.set("controller.actions", actions as f64);
    let saves = fleet_t.count("checkpoint.save");
    report.set("checkpoint.saves", saves as f64 / p);
    report.set("checkpoint.bytes_per_save", median(&checkpoint_bytes));
    report.set(
        "checkpoint.encode_us",
        per(fleet_t.total_ns("checkpoint.encode"), saves, 1e3),
    );
    report.set(
        "checkpoint.save_ms",
        per(fleet_t.total_ns("checkpoint.save"), saves, 1e6),
    );
    let secs = |name: &str| fleet_t.total_ns(name) as f64 / 1e9;
    let demux_s = secs("fleet.ingest");
    report.set(
        "fleet.demux_ns_per_frame",
        per(
            fleet_t.total_ns("fleet.ingest"),
            fleet_t.count("fleet.ingest"),
            1.0,
        ),
    );
    report.set("fleet.serial_share", demux_s / untraced_s);
    // The shards' wall time: `advance` and `finish_day` both run every
    // shard's engines in parallel.
    let parallel_s = secs("fleet.advance") + secs("fleet.finish");
    report.set("fleet.advance_busy_s", parallel_s / p);
    let mean = shard_busy.iter().sum::<u64>() as f64 / SHARDS as f64;
    report.set(
        "fleet.shard_busy_skew",
        *shard_busy.iter().max().unwrap_or(&0) as f64 / mean.max(1.0),
    );
    report.set("fleet.frames_corrupt", frames_corrupt as f64);
    // Call by call, the busier shard's engine layers must account for
    // the shards' wall time, and with the serial demux and control
    // phase (the checkpoint spans' bookkeeping taken out) for the whole
    // fleet day.
    let shard_max_s = parallel_ns as f64 / 1e9;
    check_reconciled(out, "advance", shard_max_s / parallel_s);
    let control_s = secs("fleet.control") - fleet_t.span_counts().1 as f64 * cost.pair_ns / 1e9;
    reconcile(
        out,
        &mut report,
        demux_s + control_s + shard_max_s,
        untraced_s,
        fleet_t.span_counts().0 + engine_t.span_counts().0,
        cost,
        p,
    );
    note_breakdown(out, &lt);
    out.note("passes", p, "count");
    report.into_metrics(out);
    eprint!("{}{}", fleet_t.collapsed(), engine_t.collapsed());
    Ok(())
}
