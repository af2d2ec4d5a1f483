//! `groupbench`: the end-to-end and per-layer benchmark of the Amoeba
//! group stack (workloads, metrics and the layer map: README.md).
//!
//! ```text
//! groupbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! ```
//!
//! `--workload all` runs the four workloads one after another and
//! prints each one's report (`--spans` then takes its default per
//! workload).
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end
//! metrics. `--trace 1` runs it untraced and then traced, and prints
//! the per-layer metrics plus the tracing overhead (traced minus
//! untraced end-to-end figures); spans go to `--spans` (default
//! `groupbench/out/spans-<workload>.jsonl`). Human-readable lines come
//! first; the last line of standard output is one JSON object. A
//! failed correctness check prints no figures and exits 1.

mod group;
mod os;
mod report;
mod shard;
mod stats;
mod wire;

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Metric, Report};
use wire::{OpTimes, Tracer};

/// How often the timed phase of a live-runtime workload forms (and
/// drops) a throwaway group to time; `setup_s` is the median over
/// these and the load group's own formation. (`shard_sim` forms a
/// cluster per episode and times each.)
pub const FORMATION_EVERY: Duration = Duration::from_millis(500);
/// Traffic before the timed phase (connections warm, caches filled,
/// lazy allocation done); its ops are checked and counted as attempted
/// but not timed.
pub const WARMUP: Duration = Duration::from_millis(500);

/// The fixed workload names (README.md says why each exists).
pub const WORKLOADS: [&str; 4] = ["blocking_udp", "blocking_live", "bulk_udp", "shard_sim"];

/// What one phase of a workload measured.
pub struct Phase {
    /// Ops issued, warm-up included.
    pub attempted: u64,
    /// Ops that returned an error or were not delivered in time.
    pub failed: u64,
    /// Ops issued in the timed phase that completed.
    pub completed: u64,
    /// Completed ops per second of the timed phase (per simulated
    /// second for `shard_sim`).
    pub throughput_ops_s: f64,
    /// Per-op latency of the timed phase, µs (simulated time for
    /// `shard_sim`; a failed op counts with the time until its failure
    /// was known).
    pub lat_us: stats::Dist,
    /// CPU seconds of each formation (see README.md, `setup_s`).
    pub setup_s: Vec<f64>,
    /// Wall seconds of each formation.
    pub setup_wall_s: Vec<f64>,
    /// OS and process counters over the timed phase.
    pub os: os::Delta,
    /// Every op's times (live-runtime workloads; for the wire trace).
    pub ops: Vec<OpTimes>,
    /// The client's member id (live-runtime workloads).
    pub issuer: u32,
    /// Per-layer figures the workload measures itself.
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines for the report (inputs used, anomalies).
    pub notes: Vec<String>,
}

/// The end-to-end figures of one phase.
#[derive(Debug, Clone, Copy)]
struct Summary {
    throughput_ops_s: f64,
    latency_p50_us: f64,
    tail: stats::Tail,
    setup_s: f64,
}

fn summarize(phase: &Phase) -> Result<Summary, String> {
    let tail = phase.lat_us.tail().ok_or_else(|| {
        format!(
            "only {} timed ops: too few for a tail percentile",
            phase.lat_us.len()
        )
    })?;
    Ok(Summary {
        throughput_ops_s: phase.throughput_ops_s,
        latency_p50_us: phase.lat_us.median(),
        tail,
        setup_s: stats::Dist::from_values(phase.setup_s.clone()).median(),
    })
}

#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if args.workload == "all" && args.spans.is_some() {
        return Err("--spans names one file: give it with a single workload".into());
    }
    Ok(args)
}

/// Runs one phase of `workload` for `seconds`; `tracer`/`spans` make
/// it the traced one.
fn run_phase(
    args: &Args,
    seconds: f64,
    epoch: Instant,
    tracer: Option<&std::sync::Arc<Tracer>>,
    spans: Option<&mut dyn Write>,
) -> Result<Phase, String> {
    match group_spec(&args.workload) {
        Some(spec) => group::run(&spec, args.seed, seconds, epoch, tracer),
        None => shard::run(args.seed, seconds, spans),
    }
}

fn group_spec(workload: &str) -> Option<group::Spec> {
    match workload {
        "blocking_udp" => Some(group::Spec::blocking(group::Net::Udp)),
        "blocking_live" => Some(group::Spec::blocking(group::Net::Live)),
        "bulk_udp" => Some(group::Spec::bulk()),
        _ => None,
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut report = Report::new(&args.workload, args.seed, args.seconds);
    // A traced invocation splits its time between the untraced phase
    // (the baseline for the overhead) and the traced one.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut untraced = run_phase(args, seconds, epoch, None, None)?;
    let base = summarize(&untraced)?;
    report.attempted = untraced.attempted;
    report.failed = untraced.failed;
    report.notes.append(&mut untraced.notes);
    report.end_to_end = vec![
        Metric::new("throughput_ops_s", base.throughput_ops_s),
        Metric::new("latency_p50_us", base.latency_p50_us),
        Metric::new("latency_tail_us", base.tail.value),
        Metric::new("setup_s", base.setup_s),
        Metric::new("peak_rss_mb", os::peak_rss_mb()),
    ];
    report.tail = Some(base.tail);
    if !args.trace {
        return Ok(report);
    }

    let path = args
        .spans
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("groupbench/out/spans-{}.jsonl", args.workload)));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut spans = BufWriter::new(file);
    let spec = group_spec(&args.workload);
    let tracer = spec.as_ref().map(|s| Tracer::new(epoch, s.fabric()));
    let mut traced = run_phase(args, seconds, epoch, tracer.as_ref(), Some(&mut spans))?;
    let with = summarize(&traced)?;
    report.attempted += traced.attempted;
    report.failed += traced.failed;

    let mut layers = std::mem::take(&mut traced.layers);
    if let Some(t) = &tracer {
        let a = t
            .analyse(traced.issuer, &traced.ops, &mut spans)
            .map_err(|e| format!("writing spans: {e}"))?;
        if a.undecodable > 0 {
            return Err(format!(
                "{} traced frame(s) failed to decode",
                a.undecodable
            ));
        }
        report.notes.push(format!(
            "wire trace: {} of {} ops matched to their request frame",
            a.matched_ops,
            traced.ops.len()
        ));
        layers.extend(a.metrics);
    }
    spans.flush().map_err(|e| format!("writing spans: {e}"))?;
    let os = &traced.os;
    layers.insert("os.udp_rcvbuf_errors", os.udp_rcvbuf_errors as f64);
    layers.insert("os.udp_in_errors", os.udp_in_errors as f64);
    layers.insert("os.cpu_util", os.cpu_util());
    layers.insert("os.cpu_sys_s", os.cpu_sys_s);
    layers.insert(
        "os.ctx_switches_per_op",
        os.ctx_switches as f64 / traced.completed.max(1) as f64,
    );
    layers.insert(
        "setup.formation_wall_us",
        stats::Dist::from_values(traced.setup_wall_s.clone()).median() * 1e6,
    );
    layers.insert(
        "trace.overhead_throughput_ops_s",
        with.throughput_ops_s - base.throughput_ops_s,
    );
    layers.insert(
        "trace.overhead_latency_p50_us",
        with.latency_p50_us - base.latency_p50_us,
    );
    layers.insert(
        "trace.overhead_latency_tail_us",
        with.tail.value - base.tail.value,
    );
    report.per_layer = report::PER_LAYER
        .iter()
        .map(|&(name, _)| Metric::new(name, layers.get(name).copied().unwrap_or(0.0)))
        .collect();
    report
        .notes
        .push(format!("spans written to {}", path.display()));
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("groupbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names = match args.workload.as_str() {
        "all" => WORKLOADS.map(String::from).to_vec(),
        one => vec![one.to_string()],
    };
    // Every report is held until all workloads passed their checks: a
    // failed check prints no figures at all.
    let mut reports = Vec::new();
    for workload in names {
        let one = Args {
            workload,
            ..args.clone()
        };
        match run(&one) {
            Ok(report) => reports.push(report),
            Err(e) => {
                eprintln!("groupbench: {} failed: {e}", one.workload);
                return ExitCode::FAILURE;
            }
        }
    }
    let mut out = std::io::stdout().lock();
    for report in &reports {
        if let Err(e) = report.write(&mut out, args.trace) {
            eprintln!("groupbench: writing the report: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Args, String> {
        parse_args(args.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload shard_sim --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("shard_sim", 7, 20.0, true)
        );
        assert!(parse("--workload all").is_ok());
        assert!(parse("--workload all --spans x.jsonl").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload bulk_udp --trace 2").is_err());
        assert!(parse("--workload bulk_udp --seconds 0").is_err());
        assert!(parse("--workload bulk_udp --seed").is_err());
        assert!(parse("--workload bulk_udp --verbose").is_err());
    }
}
