//! The output: human-readable lines, then one JSON object as the last
//! line of standard output:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": F, "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
//! ```
//!
//! Untraced runs report [`END_TO_END`], traced runs [`PER_LAYER`];
//! `BENCHMARK.json` at the repository root lists the same names and
//! units (a test keeps them in step).

use std::io::{self, Write};

use crate::stats::Tail;

/// End-to-end metrics of the untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, grouped by layer (crate).
/// A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("runtime.submit_to_req_us", "us"),
    ("runtime.bcast_to_return_us", "us"),
    ("runtime.slow_sends", "per_1000"),
    ("core.req_to_bcast_us", "us"),
    ("core.frames_per_op", "count"),
    ("core.send_retries", "count"),
    ("core.retrans_reqs", "count"),
    ("core.sync_rounds", "count"),
    ("core.batch_items_per_frame", "count"),
    ("codec.decode_ns", "ns"),
    ("codec.encode_ns", "ns"),
    ("codec.bytes_per_op", "B"),
    ("net.datagrams_per_op", "count"),
    ("net.bytes_per_op", "B"),
    ("net.send_call_ns", "ns"),
    ("flip.fragmented_frames", "count"),
    ("os.udp_rcvbuf_errors", "count"),
    ("os.udp_in_errors", "count"),
    ("os.cpu_util", "cores"),
    ("os.cpu_sys_s", "s"),
    ("os.ctx_switches_per_op", "count"),
    ("sim.events_per_op", "count"),
    ("sim.events_per_cpu_s", "1/s"),
    ("sim.ops_per_cpu_s", "1/s"),
    ("kernel.advance_share", "ratio"),
    ("kernel.medium_utilization", "ratio"),
    ("shard.router_call_ns", "ns"),
    ("shard.retries", "count"),
    ("shard.wrong_shard", "count"),
    ("shard.map_refreshes", "count"),
    ("setup.formation_wall_us", "us"),
    ("trace.overhead_throughput_ops_s", "1/s"),
    ("trace.overhead_latency_p50_us", "us"),
    ("trace.overhead_latency_tail_us", "us"),
];

/// A value for the human-readable lines: three decimals, or nine for
/// small ones (a set-up time in seconds) so that they do not read 0.
fn readable(value: f64) -> String {
    if value != 0.0 && value.abs() < 0.01 {
        format!("{value:.9}")
    } else {
        format!("{value:.3}")
    }
}

/// One named measurement; its unit comes from the tables above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric by its table name.
    pub fn new(name: &'static str, value: f64) -> Self {
        Metric { name, value }
    }

    fn unit(&self) -> &'static str {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == self.name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {} is in no table", self.name))
    }
}

/// Everything one invocation prints.
#[derive(Debug, Default)]
pub struct Report {
    workload: String,
    seed: u64,
    seconds: f64,
    /// Ops attempted across the phases run.
    pub attempted: u64,
    /// Ops failed across the phases run.
    pub failed: u64,
    /// End-to-end figures of the untraced phase.
    pub end_to_end: Vec<Metric>,
    /// The tail percentile reported as `latency_tail_us`.
    pub tail: Option<Tail>,
    /// Per-layer figures of the traced phase (empty when untraced).
    pub per_layer: Vec<Metric>,
    /// Free-form lines: inputs used, anomalies, where spans went.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report for one invocation.
    pub fn new(workload: &str, seed: u64, seconds: f64) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            seconds,
            ..Report::default()
        }
    }

    /// Writes the human lines and the JSON line. The JSON carries the
    /// per-layer metrics when `traced`, the end-to-end ones otherwise.
    /// Refuses (before writing anything) a value that is not a finite
    /// number.
    pub fn write(&self, out: &mut dyn Write, traced: bool) -> io::Result<()> {
        let json_metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let all = self.end_to_end.iter().chain(&self.per_layer);
        if let Some(bad) = all.clone().find(|m| !m.value.is_finite()) {
            return Err(io::Error::other(format!(
                "{} is not a finite number",
                bad.name
            )));
        }
        writeln!(
            out,
            "workload {}  seed {}  seconds {}",
            self.workload, self.seed, self.seconds
        )?;
        for note in &self.notes {
            writeln!(out, "  {note}")?;
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        writeln!(
            out,
            "  ops attempted {}  failed {}  error_rate {error_rate}",
            self.attempted, self.failed
        )?;
        writeln!(out, "end-to-end (untraced run):")?;
        for m in &self.end_to_end {
            writeln!(
                out,
                "  {:<32} {:>14} {}",
                m.name,
                readable(m.value),
                m.unit()
            )?;
        }
        if let Some(t) = self.tail {
            writeln!(
                out,
                "  latency_tail_us is p{} of n = {} timed ops ({}+ samples beyond it)",
                t.pct,
                t.n,
                crate::stats::TAIL_BEYOND
            )?;
        }
        if traced {
            writeln!(
                out,
                "per-layer (traced run; 0 = layer not exercised by this workload):"
            )?;
            for m in &self.per_layer {
                writeln!(
                    out,
                    "  {:<32} {:>14} {}",
                    m.name,
                    readable(m.value),
                    m.unit()
                )?;
            }
            writeln!(
                out,
                "  amoeba-flip fragmentation is not exercised: UDP datagrams carry up to \
                 60000 B and simulated payloads fit one frame (flip.fragmented_frames counts \
                 any frame that did fragment)"
            )?;
            writeln!(
                out,
                "  os.udp_* are machine-wide /proc/net/snmp deltas over the timed phase"
            )?;
        }
        writeln!(out, "{}", self.json(json_metrics))
    }

    fn json(&self, metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    m.value,
                    m.unit()
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut r = Report::new("blocking_udp", 3, 10.0);
        r.attempted = 1000;
        r.failed = 0;
        r.end_to_end = END_TO_END
            .iter()
            .map(|&(n, _)| Metric::new(n, 1.25))
            .collect();
        r.per_layer = PER_LAYER
            .iter()
            .map(|&(n, _)| Metric::new(n, 0.5))
            .collect();
        r
    }

    fn last_line(r: &Report, traced: bool) -> String {
        let mut out = Vec::new();
        r.write(&mut out, traced).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .last()
            .unwrap()
            .to_string()
    }

    #[test]
    fn untraced_json_line_has_exactly_the_end_to_end_metrics() {
        let line = last_line(&sample_report(), false);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"throughput_ops_s\": {\"value\": 1.25, \"unit\": \"1/s\"}, \
             \"latency_p50_us\": {\"value\": 1.25, \"unit\": \"us\"}, \
             \"latency_tail_us\": {\"value\": 1.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 1.25, \"unit\": \"MB\"}}}"
        );
    }

    #[test]
    fn traced_json_line_has_exactly_the_per_layer_metrics() {
        let line = last_line(&sample_report(), true);
        assert_eq!(line.matches("{\"value\": ").count(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 0.5, \"unit\": \"{unit}\"}}"
            )));
        }
        assert!(!line.contains("throughput_ops_s\": {\"value\": 1.25"));
    }

    #[test]
    fn values_keep_all_their_digits() {
        let mut r = sample_report();
        r.end_to_end[0].value = 2093.123456789012;
        assert!(last_line(&r, false).contains("{\"value\": 2093.123456789012,"));
    }

    #[test]
    fn a_non_finite_value_prints_nothing() {
        let mut r = sample_report();
        r.end_to_end[1].value = f64::NAN;
        let mut out = Vec::new();
        assert!(r.write(&mut out, false).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn names_and_units_fit_the_benchmark_format() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(n) && ok_unit(u), "{n} / {u}");
            names.push(n);
        }
        names.extend(crate::WORKLOADS);
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
    }

    /// `BENCHMARK.json` must list every workload and metric this
    /// program prints, with the same units, and no others.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = include_str!("../../BENCHMARK.json");
        for w in crate::WORKLOADS {
            assert!(
                doc.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "workload {w}"
            );
        }
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                doc.contains(&format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", ")),
                "metric {n}"
            );
        }
        let listed = doc.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            crate::WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
