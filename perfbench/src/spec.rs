//! The benchmark's metric contract: every metric it may print, with its
//! unit, the prediction of which end-to-end metric each per-layer
//! metric should move on which workload, and the result-line renderer
//! that refuses anything outside the contract.

/// The workloads, each with the one-line reason it exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "office_day",
        "paper deployment, 9 sensors / 72 streams at 5 Hz, one engine on one thread: the \
         single-threaded baseline whose cost and tick-latency tail are the MD threshold refit",
    ),
    (
        "fleet_hostile",
        "8 signed offices on 2 shards over a lossy link with deauth-storm twins and per-minute \
         checkpoints: demux, MAC, reorder, gap-fill and checkpoint costs dilute the MD refit",
    ),
    (
        "paper_sweep",
        "Experiment sweep over 3..9 sensors with 10-fold CV on the par pool: the batch MD, \
         feature and SVM path behind Table III and Figs. 8-9",
    ),
];

/// The gated end-to-end metrics: `(name, unit)`, in the result line of
/// every workload with `--trace 0`. Only these two are defined on all
/// three workloads (see `PRINTED`), so only they are gated.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("office_ticks_per_s", "ticks/s")];

const ALL: &[&str] = &["office_day", "fleet_hostile", "paper_sweep"];
const SERVING: &[&str] = &["office_day", "fleet_hostile"];

/// Every end-to-end metric, with its unit and the workloads it is
/// printed on (as a `workload name value unit` line) with `--trace 0`.
/// A run fails when a line is missing, carries another unit, or
/// appears on a workload it does not apply to.
pub const PRINTED: &[(&str, &str, &[&str])] = &[
    ("setup_s", "s", ALL),
    ("office_ticks_per_s", "ticks/s", ALL),
    ("tick_latency_p50_us", "us", &["office_day"]),
    ("tick_latency_p999_us", "us", &["office_day"]),
    ("cycle_latency_p50_ms", "ms", SERVING),
    ("cycle_latency_p99_ms", "ms", SERVING),
    ("sweep_s", "s", &["paper_sweep"]),
    ("deauth_latency_p50_s", "s", SERVING),
    ("deauth_within_4s_ratio", "ratio", ALL),
    ("failed_ratio", "ratio", ALL),
    ("false_deauths", "count", SERVING),
    ("re_accuracy", "ratio", &["paper_sweep"]),
    ("state_bytes_per_office", "bytes", SERVING),
];

/// Per-layer metrics: `(name, unit, end-to-end metric it should move,
/// workload where it should move it)`. Printed on every workload with
/// `--trace 1`; a layer a workload never calls reports 0. `GUARD` rows
/// should move no end-to-end metric: the decision-quality guards
/// (deterministic for a seed), the counts that pin the decisions, and
/// the trace's own bookkeeping.
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    (
        "wire.frames",
        "count",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "wire.decode_ns_per_frame",
        "ns",
        "cycle_latency_p50_ms",
        "fleet_hostile",
    ),
    (
        "wire.mac_verify_ns_per_frame",
        "ns",
        "cycle_latency_p50_ms",
        "fleet_hostile",
    ),
    (
        "wire.mac_reject_ratio",
        "ratio",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "reorder.push_ns_per_frame",
        "ns",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "reorder.duplicates",
        "count",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "reorder.late",
        "count",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "reorder.reordered",
        "count",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "reorder.watermark_lag_max_ticks",
        "ticks",
        "cycle_latency_p99_ms",
        "fleet_hostile",
    ),
    (
        "engine.ingest_busy_s",
        "s",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "engine.gap_fills",
        "count",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "engine.masked_stream_ticks",
        "count",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "engine.auth_rejects",
        "count",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "engine.rate_limited",
        "count",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "md.step_ns_per_tick",
        "ns",
        "tick_latency_p50_us",
        "office_day",
    ),
    ("md.refits", "count", "tick_latency_p999_us", "office_day"),
    ("md.refit_us", "us", "tick_latency_p999_us", "office_day"),
    (
        "md.refit_share",
        "ratio",
        "office_ticks_per_s",
        "office_day",
    ),
    ("md.windows", "count", GUARD, "paper_sweep"),
    ("re.classifications", "count", GUARD, "office_day"),
    ("re.classify_us", "us", GUARD, "office_day"),
    (
        "controller.step_ns_per_tick",
        "ns",
        "tick_latency_p50_us",
        "office_day",
    ),
    ("controller.rule1_evals", "count", GUARD, "office_day"),
    ("controller.actions", "count", GUARD, "office_day"),
    (
        "checkpoint.saves",
        "count",
        "cycle_latency_p99_ms",
        "fleet_hostile",
    ),
    (
        "checkpoint.bytes_per_save",
        "bytes",
        "state_bytes_per_office",
        "fleet_hostile",
    ),
    (
        "checkpoint.encode_us",
        "us",
        "cycle_latency_p99_ms",
        "fleet_hostile",
    ),
    (
        "checkpoint.save_ms",
        "ms",
        "cycle_latency_p99_ms",
        "fleet_hostile",
    ),
    (
        "fleet.demux_ns_per_frame",
        "ns",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "fleet.serial_share",
        "ratio",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "fleet.advance_busy_s",
        "s",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    (
        "fleet.shard_busy_skew",
        "ratio",
        "cycle_latency_p99_ms",
        "fleet_hostile",
    ),
    (
        "fleet.frames_corrupt",
        "count",
        "office_ticks_per_s",
        "fleet_hostile",
    ),
    ("setup.train_s", "s", "setup_s", "office_day"),
    ("artifact.roundtrip_ms", "ms", "setup_s", "office_day"),
    ("setup.engine_build_ms", "ms", "setup_s", "fleet_hostile"),
    ("pipeline.md_s", "s", "sweep_s", "paper_sweep"),
    ("pipeline.features_s", "s", "sweep_s", "paper_sweep"),
    ("pipeline.cv_s", "s", "sweep_s", "paper_sweep"),
    ("pipeline.svm_trainings", "count", "sweep_s", "paper_sweep"),
    ("trace.overhead_s", "s", GUARD, "office_day"),
    ("trace.layer_sum_ratio", "ratio", GUARD, "office_day"),
    ("decision.deauth_latency_p50_s", "s", GUARD, "office_day"),
    (
        "decision.deauth_within_4s_ratio",
        "ratio",
        GUARD,
        "office_day",
    ),
    ("decision.failed_ratio", "ratio", GUARD, "office_day"),
    ("decision.false_deauths", "count", GUARD, "fleet_hostile"),
    ("decision.re_accuracy", "ratio", GUARD, "paper_sweep"),
];

/// The prediction of a guard metric: no end-to-end metric moves.
pub const GUARD: &str = "-";

/// Traced layer busy time, with the spans' own bookkeeping taken out,
/// must lie within this share of the untraced wall time of the same
/// work. It covers the machine's speed drifting between the untraced
/// pass and the traced pass that follows it: over 15 traced runs
/// (5 seeds × 3 workloads) on a shared 2-vCPU VM the ratios lay in
/// 0.87–1.11, and 0.79 in a run with a compile beside it.
pub const RECONCILE_SLACK: f64 = 0.25;

/// Metric names use only `[A-Za-z0-9_.-]`, start with a letter or
/// digit, and are at most 64 bytes long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Checks a `--trace 0` run's printed `(name, unit)` lines against
/// `PRINTED`: every end-to-end metric of `workload` appears once with
/// its unit, and none of another workload appears. Returns the
/// problems found.
pub fn check_printed(workload: &str, lines: &[(&str, &str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for &(name, unit, workloads) in PRINTED {
        let hits: Vec<&str> = lines
            .iter()
            .filter(|&&(n, _)| n == name)
            .map(|&(_, u)| u)
            .collect();
        let applies = workloads.contains(&workload);
        match (applies, hits.as_slice()) {
            (true, [u]) if *u == unit => {}
            (true, []) => problems.push(format!("{name} was not printed")),
            (true, [u]) => problems.push(format!("{name} was printed in {u}, not {unit}")),
            (true, _) => problems.push(format!("{name} was printed more than once")),
            (false, []) => {}
            (false, _) => problems.push(format!("{name} does not apply to {workload}")),
        }
    }
    problems
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// Which declared metric set a run prints.
pub fn declared(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|&(n, u, _, _)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    }
}

/// Renders the result line. Every declared metric of the mode must be
/// present exactly once with a finite value, and nothing else may be.
///
/// # Errors
///
/// Names the first missing, duplicated, undeclared or non-finite
/// metric.
pub fn render_result(
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let decl = declared(trace);
    for m in metrics {
        if !valid_name(m.name) {
            return Err(format!("metric name {:?} is not [A-Za-z0-9_.-]", m.name));
        }
        if !decl.iter().any(|&(n, _)| n == m.name) {
            return Err(format!("metric {} is not declared for this mode", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
    let mut body = Vec::with_capacity(decl.len());
    for (name, unit) in decl {
        let mut hits = metrics.iter().filter(|m| m.name == name);
        let m = hits
            .next()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if hits.next().is_some() {
            return Err(format!("metric {name} was measured twice"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadewich_telemetry::json::{parse, Json};

    fn all(trace: bool) -> Vec<Metric> {
        declared(trace)
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| Metric {
                name,
                value: i as f64 + 0.5,
            })
            .collect()
    }

    #[test]
    fn every_name_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|&(n, _)| n)
            .chain(PER_LAYER.iter().map(|&(n, ..)| n))
            .chain(WORKLOADS.iter().map(|&(n, _)| n))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(valid_name(n), "{n}");
            assert!(!names[..i].contains(n), "{n} declared twice");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn predictions_cite_printed_metrics_and_workloads() {
        for &(name, _, e2e, workload) in PER_LAYER {
            assert!(
                WORKLOADS.iter().any(|&(w, _)| w == workload),
                "{name} names unknown {workload}"
            );
            if e2e != GUARD {
                let (_, _, on) = PRINTED
                    .iter()
                    .find(|&&(n, ..)| n == e2e)
                    .unwrap_or_else(|| panic!("{name} predicts unknown {e2e}"));
                assert!(on.contains(&workload), "{e2e} is not printed on {workload}");
            }
        }
    }

    #[test]
    fn gated_metrics_are_printed_on_every_workload() {
        assert_eq!(PRINTED.len(), 13);
        for &(name, unit) in END_TO_END {
            assert!(
                PRINTED.contains(&(name, unit, ALL)),
                "{name} must be printed on every workload"
            );
        }
        for &(_, _, on) in PRINTED {
            assert!(on.iter().all(|w| WORKLOADS.iter().any(|&(n, _)| n == *w)));
        }
    }

    #[test]
    fn printed_lines_are_checked_per_workload() {
        let sweep: Vec<(&str, &str)> = PRINTED
            .iter()
            .filter(|(.., on)| on.contains(&"paper_sweep"))
            .map(|&(n, u, _)| (n, u))
            .collect();
        assert!(check_printed("paper_sweep", &sweep).is_empty());
        let mut missing = sweep.clone();
        missing.retain(|&(n, _)| n != "sweep_s");
        assert_eq!(
            check_printed("paper_sweep", &missing),
            ["sweep_s was not printed"]
        );
        let mut foreign = sweep.clone();
        foreign.push(("state_bytes_per_office", "bytes"));
        assert_eq!(
            check_printed("paper_sweep", &foreign),
            ["state_bytes_per_office does not apply to paper_sweep"]
        );
        let mut unit = sweep;
        unit.retain(|&(n, _)| n != "sweep_s");
        unit.push(("sweep_s", "ms"));
        assert_eq!(
            check_printed("paper_sweep", &unit),
            ["sweep_s was printed in ms, not s"]
        );
    }

    #[test]
    fn every_declared_metric_is_printed_with_its_unit() {
        for trace in [false, true] {
            let line = render_result(trace, true, 3, 0, &all(trace)).unwrap();
            let top = parse(&line).unwrap();
            let keys: Vec<&str> = top
                .members()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = top.get("metrics").and_then(Json::members).unwrap();
            let decl = declared(trace);
            assert_eq!(metrics.len(), decl.len());
            for ((name, unit), (key, value)) in decl.iter().zip(metrics) {
                assert_eq!(name, key);
                assert_eq!(value.get("unit"), Some(&Json::Str(unit.to_string())));
                assert!(value.get("value").and_then(Json::as_num).is_some());
            }
        }
    }

    #[test]
    fn incomplete_or_foreign_metric_sets_are_refused() {
        let mut m = all(false);
        m.pop();
        assert!(render_result(false, true, 1, 0, &m)
            .unwrap_err()
            .contains("not measured"));
        let mut m = all(false);
        m.push(m[0].clone());
        assert!(render_result(false, true, 1, 0, &m)
            .unwrap_err()
            .contains("twice"));
        let m = all(true);
        assert!(render_result(false, true, 1, 0, &m)
            .unwrap_err()
            .contains("not declared"));
        let mut m = all(false);
        m[0].value = f64::NAN;
        assert!(render_result(false, true, 1, 0, &m)
            .unwrap_err()
            .contains("finite"));
    }

    #[test]
    fn benchmark_json_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let top = parse(&text).unwrap();
        let entries = |key: &str| -> Vec<Json> {
            match top.get(key) {
                Some(Json::Arr(items)) => items.clone(),
                _ => panic!("{key} missing"),
            }
        };
        let text_of = |item: &Json, key: &str| match item.get(key) {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("{key} missing"),
        };
        let named = |key: &str| -> Vec<(String, String)> {
            entries(key)
                .iter()
                .map(|m| (text_of(m, "name"), text_of(m, "unit")))
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(named("end_to_end"), e2e);
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, ..)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(named("per_layer"), layer);
        let workloads: Vec<(String, String)> = entries("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let declared: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|&(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, declared);
    }
}
