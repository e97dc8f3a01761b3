//! The repository benchmark: one command that generates a workload's
//! inputs from a seed, drives the system through its public API,
//! checks the decisions, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload office_day --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on untraced runs;
//! `--trace 1` makes a separate traced run and prints the per-layer
//! metrics (see `spec.rs` for both lists and README.md for their
//! definitions). Human-readable lines go first; the last line of
//! standard output is the JSON result. The process exits 0 only when
//! every correctness check held.

mod deploy;
mod fleet;
mod layers;
mod office;
mod spec;
mod sweep;
mod tracer;

use std::collections::BTreeMap;
use std::time::Instant;

use spec::{Metric, END_TO_END, PER_LAYER};

/// Worker threads for every workload: the benchmark is sized for a
/// 2-core machine.
pub const THREADS: usize = 2;

/// Scratch directory (relative to the checkout) for checkpoint files;
/// each run removes what it wrote.
pub const WORK_DIR: &str = ".perfbench_work";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS.iter().any(|&(w, _)| w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(20);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds as f64,
        trace,
    })
}

/// What a workload run hands back for printing.
#[derive(Default)]
pub struct Outcome {
    pub checks_failed: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (`name value unit`).
    pub notes: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.checks_failed.push(what());
        }
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }
}

/// The gated end-to-end metrics of one untraced run. The workloads
/// print their other end-to-end metrics as notes, each only where it
/// applies.
pub struct EndToEnd {
    pub setup_s: f64,
    pub office_ticks_per_s: f64,
}

impl EndToEnd {
    pub fn into_metrics(self, out: &mut Outcome) {
        let values = [self.setup_s, self.office_ticks_per_s];
        debug_assert_eq!(values.len(), END_TO_END.len());
        for (&(name, _), value) in END_TO_END.iter().zip(values) {
            out.metrics.push(Metric { name, value });
        }
    }
}

/// Notes a latency percentile summarised per block of about a thousand
/// samples, then across blocks: the median over blocks of each block's
/// `q`-quantile. Also notes the smallest block's sample count under
/// `samples_name`, so a reader can see how many samples lie beyond the
/// percentile.
pub fn note_block_quantile(
    out: &mut Outcome,
    name: &str,
    unit: &'static str,
    blocks: &[Vec<f64>],
    q: f64,
) {
    let per_block: Vec<f64> = blocks.iter().map(|b| deploy::quantile(b, q)).collect();
    out.note(name, deploy::median(&per_block), unit);
    let fewest = blocks.iter().map(Vec::len).min().unwrap_or(0);
    out.note(format!("{name}.samples_per_block"), fewest as f64, "count");
}

/// Per-layer values, every declared metric defaulting to 0 (a layer
/// the workload never calls did no work).
pub struct LayerReport(BTreeMap<&'static str, f64>);

impl Default for LayerReport {
    fn default() -> LayerReport {
        LayerReport::new()
    }
}

impl LayerReport {
    pub fn new() -> LayerReport {
        LayerReport(PER_LAYER.iter().map(|&(n, ..)| (n, 0.0)).collect())
    }

    /// # Panics
    ///
    /// On a name outside the declared per-layer set (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        *slot = value;
    }

    pub fn into_metrics(self, out: &mut Outcome) {
        out.metrics.extend(
            self.0
                .into_iter()
                .map(|(name, value)| Metric { name, value }),
        );
    }
}

/// Per-call mean in the unit `scale` divides nanoseconds into.
pub fn per(total_ns: u64, count: u64, scale: f64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns as f64 / count as f64 / scale
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    fadewich_experiments::par::with_threads(THREADS, || match args.workload.as_str() {
        "office_day" => office::run(args),
        "fleet_hostile" => fleet::run(args),
        "paper_sweep" => sweep::run(args),
        w => Err(format!("unknown workload {w}")),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for (name, value, unit) in &outcome.notes {
        println!("{} {name} {value} {unit}", args.workload);
    }
    for m in &outcome.metrics {
        let unit = spec::declared(args.trace)
            .iter()
            .find(|&&(n, _)| n == m.name)
            .map_or("", |&(_, u)| u);
        println!("{} {} {} {unit}", args.workload, m.name, m.value);
    }
    let mut checks_failed = outcome.checks_failed.clone();
    if !args.trace {
        let mut lines: Vec<(&str, &str)> = outcome
            .notes
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .collect();
        lines.extend(
            outcome
                .metrics
                .iter()
                .filter_map(|m| END_TO_END.iter().find(|&&(n, _)| n == m.name).copied()),
        );
        checks_failed.extend(spec::check_printed(&args.workload, &lines));
    }
    for failure in &checks_failed {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    eprintln!(
        "perfbench: {} finished in {:.1} s",
        args.workload,
        t0.elapsed().as_secs_f64()
    );
    let correct = checks_failed.is_empty();
    match spec::render_result(
        args.trace,
        correct,
        outcome.attempted.max(1),
        outcome.failed,
        &outcome.metrics,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload fleet_hostile --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_hostile", 7, 12.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload office_day --trace 2")).is_err());
        assert!(parse_args(&argv("--workload office_day --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload office_day --seed")).is_err());
    }

    #[test]
    fn layer_report_covers_every_declared_metric() {
        let mut out = Outcome::default();
        LayerReport::new().into_metrics(&mut out);
        assert!(spec::render_result(true, true, 1, 0, &out.metrics).is_ok());
    }
}
