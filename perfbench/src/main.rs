//! End-to-end and per-layer benchmark of the TRAPP query service.
//!
//! ```text
//! perfbench --workload <tpch_100k|zipf_serve|churn_open> --seed <n> --seconds <s> --trace <0|1>
//! perfbench report <spans.tsv>
//! ```
//!
//! A run generates its workload from the seed, builds the service, serves
//! the workload through the public `trapp-server` API, checks every
//! answer, and prints a human-readable report on stderr and one JSON
//! object as the last line of stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced replay with
//! `--trace 1`. It exits non-zero on any wrong or unsatisfied answer.
//! `report` prints the self-time breakdown of a span file a traced run
//! wrote. See `README.md` beside this package.

mod drive;
mod inputs;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use drive::{build_service, serve, Checker};
use inputs::{Inputs, Kind};
use stats::{median, peak_rss_mb, windowed, Sample, WINDOWS};

/// Service builds timed per run, at least this many and for at least
/// `SETUP_BUDGET`; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// The open-loop generator may run this late (p99) before the run is
/// invalid: past it, latencies measure the generator, not the service.
const LAG_LIMIT_MS: f64 = 20.0;

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <tpch_100k|zipf_serve|churn_open> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench report <spans.tsv>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Prints the metrics on stderr and the result object as the last line
/// of stdout; returns the exit code.
pub fn finish(attempted: u64, failed: u64, metrics: &[Metric]) -> ExitCode {
    let correct = failed == 0;
    eprintln!("--");
    for m in metrics {
        eprintln!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "attempted {attempted}, failed {failed} (failed_fraction {:.6})",
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("wrong or unsatisfied answers: exiting non-zero");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("report") {
        return match argv.get(1) {
            Some(path) => trace::report_file(path),
            None => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let generated = Instant::now();
    let inputs = Inputs::generate(args.kind, args.seed, args.seconds);
    eprintln!(
        "workload {} seed {}: {} rows, {} queries, {} ops; fingerprint {:016x}, stream {:016x} \
         (generated in {:.2} s)",
        args.kind.name(),
        args.seed,
        inputs.rows.len(),
        inputs.queries.len(),
        inputs.ops.len(),
        inputs.fingerprint,
        inputs.ops_hash,
        generated.elapsed().as_secs_f64(),
    );
    if args.trace {
        return trace::run(&inputs, &args);
    }

    let mut setups = Vec::new();
    let mut service = None;
    let setup_started = Instant::now();
    while setups.len() < SETUP_REPEATS || setup_started.elapsed() < SETUP_BUDGET {
        drop(service.take());
        let t0 = Instant::now();
        let built = build_service(&inputs);
        setups.push(t0.elapsed().as_secs_f64());
        service = Some(built);
    }
    let service = service.expect("at least one set-up");
    eprintln!(
        "setup_s: {} builds, {:.4}..{:.4} s",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max)
    );

    let checker = Checker::new(&inputs);
    let out = serve(
        &service,
        &inputs,
        &checker,
        Duration::from_secs(args.seconds),
    );
    service.shutdown();

    let timed_latency: Vec<(Instant, f64)> =
        out.latencies_ms.iter().map(|&(t, _, l)| (t, l)).collect();
    let latency = Sample::new(timed_latency.iter().map(|&(_, l)| l).collect());
    let updates = Sample::new(out.updates_ms.iter().map(|&(_, l)| l).collect());
    let mut classes: Vec<&str> = out.latencies_ms.iter().map(|&(_, c, _)| c).collect();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let sample = Sample::new(
            out.latencies_ms
                .iter()
                .filter(|&&(_, c, _)| c == class)
                .map(|&(_, _, l)| l)
                .collect(),
        );
        eprintln!(
            "  {class:<14} n={:<6} p50={:.3} ms max={:.3} ms",
            sample.len(),
            sample.pct(0.5),
            sample.pct(1.0)
        );
    }
    let lag = Sample::new(out.lag_ms.clone());
    eprintln!("query latency ms: {}", latency.describe());
    eprintln!("update latency ms: {}", updates.describe());
    eprintln!("generator lag ms: {}", lag.describe());
    eprintln!(
        "served {} queries in {:.3} s; stats {:?}",
        out.answered, out.wall_s, out.stats
    );
    if args.kind.clients().is_none() && lag.pct(0.99) > LAG_LIMIT_MS {
        eprintln!(
            "invalid run: generator lag p99 {:.3} ms exceeds {LAG_LIMIT_MS} ms",
            lag.pct(0.99)
        );
        return ExitCode::from(3);
    }
    let (query_window, update_window) = inputs
        .period
        .unwrap_or((latency.len() / WINDOWS, updates.len() / WINDOWS));
    let queries = out.stats.queries.max(1) as f64;
    let metrics = [
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("qps", out.answered as f64 / out.wall_s, "1/s"),
        Metric::new(
            "latency_p50_ms",
            windowed(&timed_latency, 0.5, query_window),
            "ms",
        ),
        Metric::new(
            "latency_p90_ms",
            windowed(&timed_latency, 0.9, query_window),
            "ms",
        ),
        Metric::new(
            "latency_p99_ms",
            windowed(&timed_latency, 0.99, query_window),
            "ms",
        ),
        Metric::new(
            "update_p50_ms",
            windowed(&out.updates_ms, 0.5, update_window),
            "ms",
        ),
        Metric::new(
            "refreshes_per_query",
            out.stats.refreshes_forwarded as f64 / queries,
            "count",
        ),
        Metric::new(
            "round_trips_per_query",
            out.stats.round_trips as f64 / queries,
            "count",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    finish(out.attempted, out.failed, &metrics)
}
