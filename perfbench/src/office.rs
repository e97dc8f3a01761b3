//! `office_day`: the paper deployment on one engine and one thread.
//!
//! A 4-day `fadewichd` scenario (2-h days, 5 Hz, 9 sensors / 72
//! streams): the model is trained on day 0, then days 1–3 stream
//! losslessly, one delivery per `ingest_bytes` call, into a
//! `StreamingEngine` (one per day, as `fadewichd serve` runs them).
//! Closed loop: the next delivery goes in as soon as the engine
//! returns. Every 32 deliveries the benchmark runs the control phase
//! (render the fresh decision events), which closes one cycle. Each
//! streamed day is one block of the run's latency summaries.

use std::hint::black_box;
use std::time::Instant;

use fadewich_core::controller::Action;
use fadewich_core::kma::Kma;
use fadewich_fleet::day::event_line;
use fadewich_runtime::engine::{EngineConfig, StreamingEngine};
use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay;
use fadewich_telemetry::WallClock;

use crate::deploy::{self, median, sub_seed, Office, Quality};
use crate::layers::{LayerCounts, LayerEngine, LayerTimes};
use crate::tracer::{span_cost, SpanCost, Tracer};
use crate::{note_block_quantile, per, Args, EndToEnd, LayerReport, Outcome};

const SERVED_DAYS: [usize; 3] = [1, 2, 3];
/// Deliveries per cycle: half of `fleet::day`'s advance cadence, so
/// that one streamed day holds over 1000 cycles and its p99 has at
/// least ten samples beyond it.
const CYCLE_DELIVERIES: usize = 32;

struct Inputs {
    office: Office,
    groups: Vec<(u16, Vec<usize>)>,
    /// Per served day, the lossless delivery sequence.
    deliveries: Vec<Vec<Vec<u8>>>,
}

fn generate(seed: u64) -> Result<Inputs, String> {
    let office = Office::generate(Office::fadewichd_config(sub_seed(seed, 1), 4))?;
    let groups = office.trace.receiver_groups(&office.streams);
    let deliveries = SERVED_DAYS
        .iter()
        .map(|&day| {
            replay::day_deliveries(
                &office.trace,
                &office.streams,
                &groups,
                day,
                &LinkModel::lossless(),
                0,
            )
        })
        .collect::<Result<_, _>>()?;
    Ok(Inputs {
        office,
        groups,
        deliveries,
    })
}

/// One streamed day: its latency samples and its ticks per second.
struct DayStats {
    tick_latency_us: Vec<f64>,
    cycle_latency_ms: Vec<f64>,
    ticks_per_s: f64,
}

/// One untraced pass over the served days.
struct Pass {
    wall_s: f64,
    actions: Vec<Vec<Action>>,
    state_bytes: Vec<f64>,
    days: Vec<DayStats>,
}

fn stream_pass(
    inp: &Inputs,
    re: &fadewich_core::re::RadioEnvironment,
    cfg: EngineConfig,
) -> Result<Pass, String> {
    let mut pass = Pass {
        wall_s: 0.0,
        actions: Vec::new(),
        state_bytes: Vec::new(),
        days: Vec::new(),
    };
    for (&day, deliveries) in SERVED_DAYS.iter().zip(&inp.deliveries) {
        let kma = Kma::new(&inp.office.inputs[day]);
        let mut engine = StreamingEngine::new(cfg, inp.groups.clone(), re, kma)?;
        let mut stats = DayStats {
            tick_latency_us: Vec::new(),
            cycle_latency_ms: Vec::new(),
            ticks_per_s: 0.0,
        };
        let mut printed = 0;
        let day_start = Instant::now();
        for cycle in deliveries.chunks(CYCLE_DELIVERIES) {
            let c0 = Instant::now();
            for d in cycle {
                let before = engine.counters().ticks_processed;
                let t0 = Instant::now();
                engine.ingest_bytes(d);
                let dt = t0.elapsed();
                if engine.counters().ticks_processed > before {
                    stats.tick_latency_us.push(dt.as_secs_f64() * 1e6);
                }
            }
            for ev in &engine.events()[printed..] {
                black_box(event_line(ev));
            }
            printed = engine.events().len();
            stats
                .cycle_latency_ms
                .push(c0.elapsed().as_secs_f64() * 1e3);
        }
        engine.finish(inp.office.n_ticks(day));
        let day_wall = day_start.elapsed().as_secs_f64();
        pass.wall_s += day_wall;
        stats.ticks_per_s = engine.counters().ticks_processed as f64 / day_wall;
        pass.days.push(stats);
        let snap = engine.snapshot(day as u32, deliveries.len() as u64, 0);
        pass.state_bytes.push(snap.encode(0).len() as f64);
        pass.actions.push(engine.actions().to_vec());
    }
    Ok(pass)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t_gen = Instant::now();
    let inp = generate(args.seed)?;
    out.note("generator_s", t_gen.elapsed().as_secs_f64(), "s");
    let office = &inp.office;
    let cfg = EngineConfig::new(office.trace.tick_hz(), office.params);

    let (bundle, setups) = deploy::set_up(office, |model| {
        black_box(StreamingEngine::new(
            cfg,
            inp.groups.clone(),
            &model.re,
            Kma::new(&office.inputs[1]),
        )?);
        Ok(())
    })?;
    let re = &bundle.re;

    // The batch reference the streamed decisions must equal.
    let reference: Vec<Vec<Action>> = SERVED_DAYS
        .iter()
        .map(|&day| {
            replay::batch_day_actions(
                &office.scenario,
                &office.trace,
                &office.streams,
                re,
                day,
                &office.params,
            )
        })
        .collect::<Result<_, _>>()?;
    let mut quality = Quality::default();
    for (&day, actions) in SERVED_DAYS.iter().zip(&reference) {
        quality.score_day(&office.scenario, day, actions);
    }
    let decision = quality.decision();
    decision.note(&mut out);

    let t_run = Instant::now();
    if args.trace {
        let mut report = LayerReport::new();
        decision.report(&mut report);
        traced(
            args, &inp, re, cfg, &reference, &setups, t_run, report, &mut out,
        )?;
        return Ok(out);
    }
    let mut passes = Vec::new();
    while passes.is_empty() || t_run.elapsed().as_secs_f64() < args.seconds {
        let pass = stream_pass(&inp, re, cfg)?;
        for (i, (got, want)) in pass.actions.iter().zip(&reference).enumerate() {
            out.attempted += 1;
            if got != want {
                out.failed += 1;
                out.check(false, || {
                    format!(
                        "day {} streamed actions differ from the batch reference",
                        SERVED_DAYS[i]
                    )
                });
            }
        }
        passes.push(pass);
    }
    out.note("passes", passes.len() as f64, "count");
    out.note(
        "state_bytes_per_office",
        median(&passes[0].state_bytes),
        "bytes",
    );
    // Each streamed day is one block of the latency summaries. The
    // cycle view (32 deliveries + control phase) is this workload's
    // refit tail at a coarser grain than the tick latency.
    let days: Vec<DayStats> = passes.into_iter().flat_map(|p| p.days).collect();
    let ticks: Vec<Vec<f64>> = days.iter().map(|d| d.tick_latency_us.clone()).collect();
    let cycles: Vec<Vec<f64>> = days.iter().map(|d| d.cycle_latency_ms.clone()).collect();
    note_block_quantile(&mut out, "tick_latency_p50_us", "us", &ticks, 0.5);
    note_block_quantile(&mut out, "tick_latency_p999_us", "us", &ticks, 0.999);
    note_block_quantile(&mut out, "cycle_latency_p50_ms", "ms", &cycles, 0.5);
    note_block_quantile(&mut out, "cycle_latency_p99_ms", "ms", &cycles, 0.99);
    EndToEnd {
        setup_s: median(&setups.iter().map(|s| s.total_s()).collect::<Vec<_>>()),
        office_ticks_per_s: median(&days.iter().map(|d| d.ticks_per_s).collect::<Vec<_>>()),
    }
    .into_metrics(&mut out);
    Ok(out)
}

/// Set-up layers, shared by the serving workloads' traced runs.
pub fn report_setup(report: &mut LayerReport, setups: &[deploy::SetupTimes]) {
    let pick =
        |f: fn(&deploy::SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.set("setup.train_s", pick(|s| s.train_s));
    report.set("artifact.roundtrip_ms", pick(|s| s.roundtrip_s) * 1e3);
    report.set("setup.engine_build_ms", pick(|s| s.build_s) * 1e3);
}

/// Reports the engine layers of a decomposed run, per pass.
pub fn report_engine(
    report: &mut LayerReport,
    t: &Tracer<'_>,
    lt: &LayerTimes,
    counts: &LayerCounts,
    passes: f64,
) {
    let p = passes;
    report.set("wire.frames", counts.frames as f64 / p);
    report.set(
        "wire.decode_ns_per_frame",
        per(lt.decode, t.count(crate::layers::DECODE), 1.0),
    );
    report.set(
        "wire.mac_verify_ns_per_frame",
        per(lt.mac, t.count(crate::layers::MAC), 1.0),
    );
    let judged = counts.frames + counts.mac_rejected;
    report.set(
        "wire.mac_reject_ratio",
        if judged == 0 {
            0.0
        } else {
            counts.mac_rejected as f64 / judged as f64
        },
    );
    report.set(
        "reorder.push_ns_per_frame",
        per(lt.reorder_push, t.count(crate::layers::PUSH), 1.0),
    );
    report.set("engine.ingest_busy_s", lt.engine as f64 / 1e9 / p);
    report.set(
        "md.step_ns_per_tick",
        per(lt.md - lt.refit, counts.ticks - counts.refits, 1.0),
    );
    report.set("md.refits", counts.refits as f64 / p);
    report.set("md.refit_us", per(lt.refit, counts.refits, 1e3));
    report.set(
        "md.refit_share",
        if lt.md == 0 {
            0.0
        } else {
            lt.refit as f64 / lt.md as f64
        },
    );
    report.set("md.windows", counts.windows as f64 / p);
    report.set("re.classifications", counts.rule1 as f64 / p);
    report.set("re.classify_us", per(lt.re, counts.rule1, 1e3));
    report.set(
        "controller.step_ns_per_tick",
        per(lt.controller_self, counts.ticks, 1.0),
    );
    report.set("controller.rule1_evals", counts.rule1 as f64 / p);
}

/// The engine's own layers, largest first, as `name share` lines.
pub fn note_breakdown(out: &mut Outcome, lt: &LayerTimes) {
    let mut parts = lt.breakdown().to_vec();
    parts.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    for (name, ns) in parts {
        out.note(
            format!("layer_share[{name}]"),
            ns as f64 / lt.engine.max(1) as f64,
            "ratio",
        );
    }
}

/// Reorder counts summed over offices or days (the lag is a maximum).
pub fn add_reorder(total: &mut [u64; 4], c: [u64; 4]) {
    for i in 0..3 {
        total[i] += c[i];
    }
    total[3] = total[3].max(c[3]);
}

pub fn report_reorder(report: &mut LayerReport, c: [u64; 4]) {
    report.set("reorder.duplicates", c[0] as f64);
    report.set("reorder.late", c[1] as f64);
    report.set("reorder.reordered", c[2] as f64);
    report.set("reorder.watermark_lag_max_ticks", c[3] as f64);
}

/// Fails the run unless the traced busy time of some work is within
/// `RECONCILE_SLACK` of its untraced wall time (`ratio` = busy ÷ wall).
pub fn check_reconciled(out: &mut Outcome, what: &str, ratio: f64) {
    let slack = crate::spec::RECONCILE_SLACK;
    out.note(format!("reconcile[{what}]"), ratio, "ratio");
    out.check((ratio - 1.0).abs() <= slack, || {
        format!("{what}: traced busy time is {ratio:.3} x the untraced wall time (slack {slack})")
    });
}

/// Checks the traced run against the untraced one: the layer busy
/// times, with the spans' own bookkeeping taken out, must sum to the
/// untraced wall time of the same work. `spans` is how many spans the
/// traced passes closed; at `cost` each they are the tracing overhead.
pub fn reconcile(
    out: &mut Outcome,
    report: &mut LayerReport,
    busy_s: f64,
    untraced_s: f64,
    spans: u64,
    cost: SpanCost,
    passes: f64,
) {
    let ratio = busy_s / untraced_s;
    report.set(
        "trace.overhead_s",
        spans as f64 * cost.pair_ns / 1e9 / passes,
    );
    report.set("trace.layer_sum_ratio", ratio);
    out.note("untraced_wall_s", untraced_s / passes, "s");
    out.note("span_cost_ns", cost.pair_ns, "ns");
    check_reconciled(out, "layers", ratio);
}

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    inp: &Inputs,
    re: &fadewich_core::re::RadioEnvironment,
    cfg: EngineConfig,
    reference: &[Vec<Action>],
    setups: &[deploy::SetupTimes],
    t_run: Instant,
    mut report: LayerReport,
    out: &mut Outcome,
) -> Result<(), String> {
    let clock = WallClock;
    let cost = span_cost(&clock);
    let mut t = Tracer::new(&clock);
    let mut counts = LayerCounts::default();
    let mut first = None;
    let (mut untraced_s, mut passes) = (0.0, 0u64);
    while passes == 0 || t_run.elapsed().as_secs_f64() < args.seconds {
        untraced_s += stream_pass(inp, re, cfg)?.wall_s;
        let mut pass = LayerCounts::default();
        let mut reorder = [0u64; 4];
        let mut actions = 0u64;
        for ((&day, deliveries), want) in SERVED_DAYS.iter().zip(&inp.deliveries).zip(reference) {
            let kma = Kma::new(&inp.office.inputs[day]);
            let mut engine = LayerEngine::new(cfg, inp.groups.clone(), re, kma, None)?;
            for d in deliveries {
                engine.ingest(&mut t, d);
            }
            engine.finish(&mut t, inp.office.n_ticks(day));
            out.attempted += 1;
            if engine.actions() != want.as_slice() {
                out.failed += 1;
                out.check(false, || {
                    format!("day {day}: traced decomposition diverged from the engine")
                });
            }
            actions += engine.actions().len() as u64;
            pass.add(&engine.counts);
            add_reorder(&mut reorder, engine.reorder_counts());
        }
        let this = (pass.timeless(), reorder, actions);
        match &first {
            None => first = Some(this),
            Some(f) => out.check(*f == this, || {
                "per-layer counts differ between passes".into()
            }),
        }
        counts.add(&pass);
        passes += 1;
    }
    let p = passes as f64;
    let (_, reorder, actions) = first.expect("at least one pass");
    let lt = LayerTimes::from_tracer(&t, counts.refit_ns, cost);
    report_engine(&mut report, &t, &lt, &counts, p);
    report_setup(&mut report, setups);
    report_reorder(&mut report, reorder);
    report.set("controller.actions", actions as f64);
    reconcile(
        out,
        &mut report,
        lt.engine as f64 / 1e9,
        untraced_s,
        t.span_counts().0,
        cost,
        p,
    );
    let largest = lt
        .breakdown()
        .into_iter()
        .max_by_key(|&(_, ns)| ns)
        .map_or("", |(n, _)| n);
    out.check(largest == "md refit", || {
        format!("largest engine layer is {largest}, not md refit")
    });
    note_breakdown(out, &lt);
    out.note("passes", p, "count");
    report.into_metrics(out);
    eprint!("{}", t.collapsed());
    Ok(())
}
