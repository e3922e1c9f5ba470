//! `perfbench`: the end-to-end and per-layer benchmark of the buckwild
//! train-and-serve stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload;
//! with `--trace 1` it makes the separate traced run that times each
//! layer from outside and prints the ledger. Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `perfbench/README.md` describes the workloads and the
//! layer-to-metric map.

mod layers;
mod serve;
mod stats;
mod trace;
mod train;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use buckwild_prng::split_seed;

use crate::workload::{Inputs, Workload, WORKERS};

const USAGE: &str = "usage: perfbench --workload <train-dense-shared|train-sparse-sharded|\
serve-hotswap> --seed <u64> --seconds <s> --trace <0|1>";

/// Input generations per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Fewest training runs a run makes, whatever its time budget.
const MIN_TRAIN_RUNS: usize = 3;

/// Shortest serving phase, in seconds.
const MIN_SERVE_SECONDS: f64 = 1.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} is not 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line.
pub(crate) struct Report {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Generates the inputs `SETUP_REPEATS` times, keeping the last set and
/// the median generation time.
fn setup(workload: &Workload, seed: u64) -> (Inputs, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous set first, so peak memory holds one set.
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(workload.generate(seed));
        times.push(start.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one setup");
    (inputs.expect("at least one setup"), median)
}

/// The seed of training run `k`: runs differ in rounding randomness, never
/// in data.
pub(crate) fn run_seed(seed: u64, k: usize) -> u64 {
    split_seed(seed, k as u64 + 1)
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Prints the configuration a result depends on, ahead of the result.
fn print_context(workload: &Workload, seed: u64, trace: bool) {
    println!(
        "context workload={} seed={seed} trace={} isa={} backend={} signature={} workers={WORKERS} nproc={}",
        workload.name,
        u8::from(trace),
        buckwild::kernel_isa::active().name(),
        workload.backend,
        workload.signature,
        buckwild_affinity::core_count(),
    );
}

/// The untraced run: every end-to-end metric of one workload.
fn run_end_to_end(workload: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let (inputs, setup_s) = setup(workload, seed);

    let train_budget = seconds * workload.train_share;
    let train_start = Instant::now();
    let mut runs: Vec<train::TrainRun> = Vec::new();
    loop {
        let elapsed = train_start.elapsed().as_secs_f64();
        let mean = elapsed / runs.len().max(1) as f64;
        if runs.len() >= MIN_TRAIN_RUNS && elapsed + mean > train_budget {
            break;
        }
        let run = train::train_once(workload, &inputs.data, run_seed(seed, runs.len()), None)?;
        if let Some(why) = &run.failure {
            eprintln!("training run {} failed its check: {why}", runs.len());
        }
        runs.push(run);
    }
    let serve_seconds = (seconds - train_start.elapsed().as_secs_f64()).max(MIN_SERVE_SECONDS);
    let last = runs.last().expect("at least one training run");
    let served = serve::serve_phase(
        &last.snapshots,
        &inputs.requests,
        workload.features(),
        serve_seconds,
        None,
    )
    .map_err(|e| format!("serving failed: {e}"))?;

    let epochs: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.epoch_s.iter().copied())
        .collect();
    let train_s: Vec<f64> = runs.iter().map(|r| r.train_s).collect();
    let losses: Vec<f64> = runs.iter().map(|r| r.loss).collect();
    let train_ok = runs.iter().filter(|r| r.failure.is_none()).count() as u64;
    let attempted = runs.len() as u64 + served.attempted;
    let ok = train_ok + served.ok;
    println!(
        "context train_runs={} epochs_timed={} requests={} serve_seconds={:.3}",
        runs.len(),
        epochs.len(),
        served.attempted,
        served.loop_s
    );
    let median = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    Ok(Report {
        attempted,
        failed: attempted - ok,
        metrics: vec![
            ("setup_s", setup_s + served.prep_s, "s"),
            ("train_s", median(&train_s), "s"),
            (
                "train_gnps",
                workload.numbers_per_epoch() as f64 / median(&epochs) / 1e9,
                "Gnum/s",
            ),
            ("train_loss", median(&losses), "nats"),
            ("serve_p50_us", served.p50_us(), "us"),
            ("peak_rss_mb", peak_rss_mb()?, "MiB"),
            ("ok_frac", ok as f64 / attempted as f64, "frac"),
        ],
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    print_context(args.workload, args.seed, args.trace);
    let report = if args.trace {
        layers::run_traced(args.workload, args.seed, args.seconds)
    } else {
        run_end_to_end(args.workload, args.seed, args.seconds)
    };
    match report.and_then(|r| r.to_json()) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
