//! Workload inputs and the shared deployment steps: scenario
//! generation, model set-up, and decision-quality scoring against the
//! simulator's ground truth.

use std::time::Instant;

use fadewich_core::artifact::ModelBundle;
use fadewich_core::config::FadewichParams;
use fadewich_core::controller::Action;
use fadewich_experiments::fusion::MATCH_WINDOW_S;
use fadewich_officesim::{InputTrace, Scenario, ScenarioConfig, ScheduleParams, Trace};
use fadewich_runtime::replay;

/// The paper's deployment: all 9 sensors (72 streams).
pub const SENSORS: usize = 9;

/// Departures count as served in time within these budgets (the
/// paper's claim: all within 6 s, 90% within 4 s).
pub const FAST_S: f64 = 4.0;
pub const SLOW_S: f64 = 6.0;

/// Splitmix64: independent sub-seeds from the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generated office: scenario, recorded trace, monitored streams and
/// each day's keyboard/mouse input (the KMA source).
pub struct Office {
    pub scenario: Scenario,
    pub trace: Trace,
    pub streams: Vec<usize>,
    pub params: FadewichParams,
    pub inputs: Vec<InputTrace>,
}

impl Office {
    /// Builds a scenario from `config` and monitors all 9 sensors.
    ///
    /// # Errors
    ///
    /// Scenario generation or simulation failures.
    pub fn generate(config: ScenarioConfig) -> Result<Office, String> {
        let scenario = Scenario::generate(config).map_err(|e| format!("scenario: {e:?}"))?;
        let trace = scenario
            .simulate()
            .map_err(|e| format!("simulation: {e:?}"))?;
        let streams = trace.stream_indices_for_subset(&scenario.layout().sensor_subset(SENSORS));
        let inputs = (0..trace.days().len())
            .map(|d| scenario.input_trace(d, 0))
            .collect();
        Ok(Office {
            scenario,
            trace,
            streams,
            params: FadewichParams::default(),
            inputs,
        })
    }

    /// The `fadewichd` deployment scenario: 2-h days at 5 Hz.
    pub fn fadewichd_config(seed: u64, days: usize) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            days,
            schedule: ScheduleParams {
                day_seconds: 2.0 * 3600.0,
                departures_choices: [3, 3, 4, 4],
                min_seated_s: 400.0,
                absence_bounds_s: (90.0, 300.0),
                ..ScheduleParams::default()
            },
            ..ScenarioConfig::default()
        }
    }

    pub fn n_ticks(&self, day: usize) -> u64 {
        self.trace.days()[day].n_ticks() as u64
    }
}

/// Wall times of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub train_s: f64,
    pub roundtrip_s: f64,
    pub build_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.train_s + self.roundtrip_s + self.build_s
    }
}

/// Trains the served model on day 0 (`replay::train_model`), then
/// passes it through the artifact codec and schema validation exactly
/// as `fadewichd serve` loads it. Returns the decoded bundle, its
/// encoding, and the train / round-trip times.
///
/// # Errors
///
/// Training, decode and schema-validation failures.
pub fn train_and_load(office: &Office) -> Result<(ModelBundle, Vec<u8>, SetupTimes), String> {
    let t0 = Instant::now();
    let bundle = replay::train_model(
        &office.scenario,
        &office.trace,
        &office.streams,
        1,
        &office.params,
    )?;
    let t1 = Instant::now();
    let bytes = bundle.encode();
    let loaded = ModelBundle::decode(&bytes).map_err(|e| format!("artifact: {e}"))?;
    replay::validate_schema(&loaded, &office.trace, &office.streams)?;
    let t2 = Instant::now();
    let times = SetupTimes {
        train_s: (t1 - t0).as_secs_f64(),
        roundtrip_s: (t2 - t1).as_secs_f64(),
        build_s: 0.0,
    };
    Ok((loaded, bytes, times))
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Sets the deployment up `SETUP_REPEATS` times: [`train_and_load`],
/// then `build` (engine or fleet construction from the loaded model,
/// timed). Every set-up must produce a byte-identical artifact.
///
/// # Errors
///
/// Set-up failures, and a set-up that is not deterministic.
pub fn set_up(
    office: &Office,
    build: impl Fn(&ModelBundle) -> Result<(), String>,
) -> Result<(ModelBundle, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut first: Option<(ModelBundle, Vec<u8>)> = None;
    for _ in 0..SETUP_REPEATS {
        let (loaded, bytes, mut t) = train_and_load(office)?;
        let t0 = Instant::now();
        build(&loaded)?;
        t.build_s = t0.elapsed().as_secs_f64();
        times.push(t);
        match &first {
            Some((_, b)) if *b != bytes => {
                return Err("set-up is not deterministic: the trained artifacts differ".to_string());
            }
            Some(_) => {}
            None => first = Some((loaded, bytes)),
        }
    }
    Ok((first.expect("SETUP_REPEATS is positive").0, times))
}

/// Decision quality of served days, scored against ground truth the
/// way `experiments::fusion` scores them: each departure takes the
/// earliest unclaimed deauthentication of its workstation inside
/// `[t_start, t_end + MATCH_WINDOW_S]`, and its latency is measured
/// from `t_proximity`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    pub departures: u64,
    pub deauths: u64,
    /// Latency of every matched departure, in seconds.
    pub latencies: Vec<f64>,
}

impl Quality {
    pub fn score_day(&mut self, scenario: &Scenario, day: usize, actions: &[Action]) {
        let deauths: Vec<&Action> = actions.iter().filter(|a| a.kind.is_deauth()).collect();
        let mut used = vec![false; deauths.len()];
        for e in scenario
            .events()
            .events_on_day(day)
            .filter(|e| e.is_leave())
        {
            self.departures += 1;
            let ws = e.label() - 1;
            let hit = deauths.iter().enumerate().find(|(i, a)| {
                !used[*i]
                    && a.kind.workstation() == ws
                    && a.t >= e.t_start
                    && a.t <= e.t_end + MATCH_WINDOW_S
            });
            if let Some((i, a)) = hit {
                used[i] = true;
                self.latencies.push(a.t - e.t_proximity);
            }
        }
        self.deauths += deauths.len() as u64;
    }

    /// The served decisions' quality.
    pub fn decision(&self) -> Decision {
        let within =
            |budget_s: f64| self.latencies.iter().filter(|&&l| l <= budget_s).count() as f64;
        let departures = self.departures.max(1) as f64;
        Decision {
            departures: self.departures,
            latency_p50_s: Some(median(&self.latencies)),
            within_4s: within(FAST_S) / departures,
            failed_ratio: 1.0 - within(SLOW_S) / departures,
            false_deauths: Some(self.deauths - self.latencies.len() as u64),
            re_accuracy: None,
        }
    }
}

/// Decision quality of a run: deterministic for a seed, so a guard
/// that a change kept the decisions, not a speed. A metric that does
/// not apply to the workload is `None`: latency and false
/// deauthentications are scored on served decisions only, and RE
/// accuracy on the sweep's cross-validation only.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    pub departures: u64,
    pub latency_p50_s: Option<f64>,
    pub within_4s: f64,
    /// Departures not deauthenticated within 6 s ÷ departures.
    pub failed_ratio: f64,
    pub false_deauths: Option<u64>,
    pub re_accuracy: Option<f64>,
}

impl Decision {
    pub fn note(&self, out: &mut crate::Outcome) {
        out.note("departures", self.departures as f64, "count");
        if let Some(v) = self.latency_p50_s {
            out.note("deauth_latency_p50_s", v, "s");
        }
        out.note("deauth_within_4s_ratio", self.within_4s, "ratio");
        out.note("failed_ratio", self.failed_ratio, "ratio");
        if let Some(v) = self.false_deauths {
            out.note("false_deauths", v as f64, "count");
        }
        if let Some(v) = self.re_accuracy {
            out.note("re_accuracy", v, "ratio");
        }
    }

    /// The decision guards of a traced run; a metric that does not
    /// apply keeps its 0.
    pub fn report(&self, report: &mut crate::LayerReport) {
        if let Some(v) = self.latency_p50_s {
            report.set("decision.deauth_latency_p50_s", v);
        }
        report.set("decision.deauth_within_4s_ratio", self.within_4s);
        report.set("decision.failed_ratio", self.failed_ratio);
        if let Some(v) = self.false_deauths {
            report.set("decision.false_deauths", v as f64);
        }
        if let Some(v) = self.re_accuracy {
            report.set("decision.re_accuracy", v);
        }
    }
}

/// Linear-interpolated quantile of an unsorted sample (`q` in 0..=1).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn sub_seeds_differ_per_stream() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }
}
