//! `paper_sweep`: the paper's batch evaluation (Table III, Figs. 8–9).
//!
//! A 2-day `ScenarioConfig::small`-style scenario; one pass is the
//! sensor-count sweep: `Experiment::run_for_sensors` for every count in
//! `SENSOR_COUNTS` with 10-fold CV. `Experiment::sweep` runs the counts
//! as tasks of the `par` pool, and each run's stages fan out on the pool
//! again, so on a 2-thread pool it would run up to 4 threads. The
//! benchmark runs the counts one after another instead, with the same
//! results (each run's CV seed depends only on its count), so only the
//! stages' 2-thread pool computes, as in the traced pass.

use std::hint::black_box;
use std::time::Instant;

use fadewich_core::kma::Kma;
use fadewich_core::md::MovementDetector;
use fadewich_core::security::deauth_outcomes;
use fadewich_experiments::pipeline::{build_samples, cross_validated_predictions, run_md_stage};
use fadewich_experiments::{Experiment, SensorRun, SENSOR_COUNTS};
use fadewich_officesim::ScenarioConfig;
use fadewich_runtime::engine::{EngineConfig, StreamingEngine};
use fadewich_telemetry::WallClock;

use crate::deploy::{self, median, sub_seed, Office};
use crate::layers::MD;
use crate::office::{reconcile, report_setup};
use crate::tracer::{span_cost, Tracer};
use crate::{per, Args, EndToEnd, LayerReport, Outcome};

const DAYS: usize = 2;
const CV_FOLDS: usize = 10;

/// The CV seed `Experiment::run_for_subset` uses for `n` sensors.
fn cv_seed(n: usize) -> u64 {
    0xC0FFEE ^ n as u64
}

struct Pass {
    wall_s: f64,
    runs: Vec<SensorRun>,
}

fn sweep_pass(exp: &Experiment) -> Result<Pass, String> {
    let t0 = Instant::now();
    let runs = SENSOR_COUNTS
        .iter()
        .map(|&n| exp.run_for_sensors(n, CV_FOLDS))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        runs,
    })
}

/// What must repeat exactly from pass to pass.
fn fingerprint(pass: &Pass) -> Vec<(f64, Vec<Option<usize>>)> {
    pass.runs
        .iter()
        .map(|r| (r.accuracy, r.predictions.clone()))
        .collect()
}

/// The 9-sensor run's decisions through the paper's Fig. 5 decision
/// tree (`security::deauth_outcomes`), and its CV accuracy.
fn decision(office: &Office, pass: &Pass) -> deploy::Decision {
    let nine = pass.runs.last().expect("9-sensor run");
    let hz = office.trace.tick_hz();
    let events = office.scenario.events();
    let outcomes = deauth_outcomes(
        &nine.stage.detection,
        &nine.predictions,
        events,
        &office.params,
        hz,
    );
    let elapsed: Vec<f64> = outcomes.iter().map(|o| o.elapsed).collect();
    let within =
        |s: f64| elapsed.iter().filter(|&&e| e <= s).count() as f64 / elapsed.len().max(1) as f64;
    deploy::Decision {
        departures: elapsed.len() as u64,
        latency_p50_s: None,
        within_4s: within(deploy::FAST_S),
        failed_ratio: 1.0 - within(deploy::SLOW_S),
        false_deauths: None,
        re_accuracy: Some(nine.accuracy),
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t_gen = Instant::now();
    let office = Office::generate(ScenarioConfig {
        seed: sub_seed(args.seed, 4),
        days: DAYS,
        ..ScenarioConfig::small()
    })?;
    let exp = Experiment {
        scenario: office.scenario.clone(),
        trace: office.trace.clone(),
        params: office.params,
    };
    out.note("generator_s", t_gen.elapsed().as_secs_f64(), "s");
    // `setup_s` is the set-up of this office's 9-sensor deployment:
    // the sweep itself has none, and the benchmark reports `setup_s`
    // on every workload.
    let cfg = EngineConfig::new(office.trace.tick_hz(), office.params);
    let groups = office.trace.receiver_groups(&office.streams);
    let (_, setups) = deploy::set_up(&office, |model| {
        black_box(StreamingEngine::new(
            cfg,
            groups.clone(),
            &model.re,
            Kma::new(&office.inputs[DAYS - 1]),
        )?);
        Ok(())
    })?;

    let t_run = Instant::now();
    if args.trace {
        return traced(args, &exp, &office, &setups, t_run, out);
    }
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || t_run.elapsed().as_secs_f64() < args.seconds {
        let pass = sweep_pass(&exp)?;
        out.attempted += pass.runs.len() as u64;
        if let Some(first) = passes.first() {
            let same = fingerprint(first) == fingerprint(&pass);
            out.failed += if same { 0 } else { pass.runs.len() as u64 };
            out.check(same, || "sweep results differ between passes".into());
        }
        passes.push(pass);
    }
    out.note("passes", passes.len() as f64, "count");
    decision(&office, &passes[0]).note(&mut out);
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    out.note("sweep_s", median(&walls), "s");
    // The sweep evaluates every day of the trace once per sensor count.
    let day_ticks: u64 = (0..DAYS).map(|d| office.n_ticks(d)).sum();
    let office_ticks = (SENSOR_COUNTS.len() as u64 * day_ticks) as f64;
    EndToEnd {
        setup_s: median(&setups.iter().map(|s| s.total_s()).collect::<Vec<_>>()),
        office_ticks_per_s: median(&walls.iter().map(|w| office_ticks / w).collect::<Vec<_>>()),
    }
    .into_metrics(&mut out);
    Ok(out)
}

fn traced(
    args: &Args,
    exp: &Experiment,
    office: &Office,
    setups: &[deploy::SetupTimes],
    t_run: Instant,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let clock = WallClock;
    let cost = span_cost(&clock);
    let mut t = Tracer::new(&clock);
    let mut md_t = Tracer::new(&clock);
    let mut report = LayerReport::new();
    let (mut untraced_s, mut passes) = (0.0, 0u64);
    let (mut trainings, mut refits, mut refit_ns, mut windows, mut ticks) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let events = exp.scenario.events();
    let mut first = None;
    while passes == 0 || t_run.elapsed().as_secs_f64() < args.seconds {
        let plain = sweep_pass(exp)?;
        untraced_s += plain.wall_s;
        if passes == 0 {
            let decision = decision(office, &plain);
            decision.note(&mut out);
            decision.report(&mut report);
        }
        for (n, want) in SENSOR_COUNTS.iter().zip(&plain.runs) {
            let streams = exp
                .trace
                .stream_indices_for_subset(&exp.scenario.layout().sensor_subset(*n));
            let stage = t.span("pipeline.md", || {
                run_md_stage(&exp.trace, &streams, events, &exp.params)
            })?;
            let samples = t.span("pipeline.features", || {
                build_samples(&exp.trace, &stage, events, &streams, &exp.params)
            });
            let matched = samples.per_event.iter().flatten().count();
            let accuracy = if matched >= CV_FOLDS {
                trainings += CV_FOLDS as u64;
                t.span("pipeline.cv", || {
                    cross_validated_predictions(&samples, CV_FOLDS, None, cv_seed(*n))
                })
                .1
            } else {
                0.0
            };
            out.attempted += 1;
            if accuracy != want.accuracy {
                out.failed += 1;
                out.check(false, || {
                    format!("{n} sensors: traced pipeline diverged from the sweep")
                });
            }
        }
        // MD's refit share on the batch path: a detector stepped over
        // the 9-sensor streams of every day, as `run_md_over_day` does.
        let counted = (refits, windows);
        for day in exp.trace.days() {
            let streams = &office.streams;
            let mut md = MovementDetector::new(streams.len(), exp.trace.tick_hz(), exp.params)?;
            let mut row = vec![0.0; streams.len()];
            for tick in 0..day.n_ticks() {
                let full = day.row(tick);
                for (dst, &s) in row.iter_mut().zip(streams) {
                    *dst = f64::from(full[s]);
                }
                let before = md.threshold();
                md_t.enter(MD);
                let verdict = md.step(tick, &row);
                let dur = md_t.exit();
                if md.threshold() != before {
                    refits += 1;
                    refit_ns += dur;
                }
                windows += u64::from(verdict.closed_window.is_some());
                ticks += 1;
            }
        }
        let this = (refits - counted.0, windows - counted.1);
        match first {
            None => first = Some(this),
            Some(f) => out.check(f == this, || {
                "per-layer counts differ between passes".into()
            }),
        }
        passes += 1;
    }
    let p = passes as f64;
    report_setup(&mut report, setups);
    report.set("pipeline.md_s", t.total_ns("pipeline.md") as f64 / 1e9 / p);
    report.set(
        "pipeline.features_s",
        t.total_ns("pipeline.features") as f64 / 1e9 / p,
    );
    report.set("pipeline.cv_s", t.total_ns("pipeline.cv") as f64 / 1e9 / p);
    report.set("pipeline.svm_trainings", trainings as f64 / p);
    let md_ns = md_t.total_ns(MD);
    report.set(
        "md.step_ns_per_tick",
        per(md_ns - refit_ns, ticks - refits, 1.0),
    );
    report.set("md.refits", refits as f64 / p);
    report.set("md.refit_us", per(refit_ns, refits, 1e3));
    report.set("md.refit_share", refit_ns as f64 / md_ns.max(1) as f64);
    report.set("md.windows", windows as f64 / p);
    reconcile(
        &mut out,
        &mut report,
        t.busy_ns() as f64 / 1e9,
        untraced_s,
        t.span_counts().0,
        cost,
        p,
    );
    out.note("passes", p, "count");
    report.into_metrics(&mut out);
    eprint!("{}", t.collapsed());
    Ok(out)
}
