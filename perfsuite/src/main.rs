//! `perfsuite` — end-to-end and per-layer benchmark of the Saba
//! pipeline.
//!
//! ```text
//! perfsuite --workload <fabric_churn|service_churn|corun_testbed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. Each workload drives one
//! layer of the pipeline through its public API, checks its outputs
//! (any failed check exits non-zero without printing a result), and
//! prints its metrics one per line followed, as the last line, by a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the JSON carries the end-to-end metrics; with
//! `--trace 1` a separate traced pass times every layer boundary from
//! outside and the JSON carries the per-layer metrics.

mod corun;
mod fabric;
mod host;
mod parts;
mod service;
mod stats;
mod trace;

use saba_sim::routing::Routes;
use saba_sim::topology::Topology;
use stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use trace::NameStats;

/// End-to-end metrics every workload reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
];

/// Per-layer metrics of the traced pass: `(name, unit)`. A workload
/// that never enters a layer reports it as 0 with `n=0`.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("core.profiler.profile_s", "s"),
    ("sim.routing.compute_s", "s"),
    ("core.controller.preload_s", "s"),
    ("service.runtime.start_s", "s"),
    ("core.controller.cold.solve_s", "s"),
    ("core.controller.cold.residue_s", "s"),
    ("core.controller.eq2.port_us", "us"),
    ("core.controller.eq2.ports", "count"),
    ("core.controller.conn_create_us", "us"),
    ("core.controller.conn_destroy_us", "us"),
    ("core.controller.dist.conn_create_us", "us"),
    ("core.controller.updates_per_event", "count"),
    ("core.controller.ports_dirty_per_event", "count"),
    ("core.controller.solve_hit_ratio", "ratio"),
    ("core.rpc.encode_us", "us"),
    ("core.rpc.decode_us", "us"),
    ("service.shard.handle_us", "us"),
    ("service.wal.append_us", "us"),
    ("service.wal.sync_us", "us"),
    ("service.wal.ops_per_fsync", "ratio"),
    ("service.runtime.wait_us", "us"),
    ("sim.sharing.saba.allocate_s", "s"),
    ("sim.sharing.saba.flows_per_call", "count"),
    ("baselines.fecn.allocate_s", "s"),
    ("core.controller.corun_event_us", "us"),
    ("core.fabric.apply_us", "us"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.allocations", "count"),
    ("bench.trace.overhead_frac", "ratio"),
    ("bench.trace.unaccounted_frac", "ratio"),
];

/// Set-up is repeated at least this many times per process, and until
/// [`SETUP_MIN_S`] has been spent; `setup_s` is the median.
pub const SETUP_MIN_REPS: usize = 2;

/// Minimum wall time spent on repeated set-ups per process.
pub const SETUP_MIN_S: f64 = 0.25;

/// Upper bound on set-up repetitions.
pub const SETUP_MAX_REPS: usize = 50;

/// Runs `build` repeatedly (see [`SETUP_MIN_REPS`]), handing every
/// result but the last to `discard` before the next build starts.
/// Returns the last result and the median build time.
pub fn repeat_setup<W>(
    mut build: impl FnMut() -> Result<W, String>,
    mut discard: impl FnMut(W),
) -> Result<(W, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        if let Some(w) = last.take() {
            discard(w);
        }
        let t = std::time::Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = require_median(&times, "set-up")?;
    Ok((last.expect("at least one set-up"), median))
}

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Test-sized inputs (unit tests only).
    pub tiny: bool,
}

/// A workload's own end-to-end metric, printed by name.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, e.g. `cold_epoch_s`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// One per-layer reading: the reported value (the median for
/// timings), its sample count, and a printable distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// A name from [`PER_LAYER`].
    pub name: &'static str,
    /// Reported value.
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
    /// Median, tail percentile and count, or how it was derived.
    pub detail: String,
}

impl Layer {
    /// A timing layer from raw samples in seconds, reported in the
    /// layer's unit (`scale` = 1 for s, 1e6 for µs).
    pub fn timing(name: &'static str, samples: &[f64], scale: f64) -> Self {
        match Summary::of(samples) {
            Some(s) => Self {
                name,
                value: s.p50 * scale,
                n: s.n,
                detail: s.describe(scale),
            },
            None => Self::derived(name, 0.0, 0, "no samples"),
        }
    }

    /// A count, ratio, or difference of other readings.
    pub fn derived(name: &'static str, value: f64, n: usize, how: &str) -> Self {
        Self {
            name,
            value,
            n,
            detail: how.to_string(),
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    /// Median set-up time (seconds).
    pub setup_s: f64,
    /// Peak resident set size of the measuring process (MiB).
    pub peak_rss_mb: f64,
    /// The workload's unit operations per second.
    pub ops_per_s: f64,
    /// Median wall time of one unit operation (µs).
    pub op_p50_us: f64,
    /// The workload's own end-to-end metrics.
    pub named: Vec<Metric>,
    /// Per-layer readings (traced runs only).
    pub layers: Vec<Layer>,
    /// The traced pass's spans aggregated by name (traced runs only).
    pub spans: BTreeMap<&'static str, NameStats>,
    /// Host facts line ([`host::facts`] of the workload's scratch dir).
    pub host: String,
}

impl Outcome {
    /// Adds a workload-specific metric.
    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }
}

/// `bench.trace.overhead_frac`: traced ÷ untraced − 1 on the
/// workload's unit-operation median.
pub fn overhead_layer(untraced_p50: f64, traced_p50: f64, n: usize) -> Layer {
    Layer::derived(
        "bench.trace.overhead_frac",
        traced_p50 / untraced_p50 - 1.0,
        n,
        &format!("traced p50 {traced_p50:.9} s / untraced p50 {untraced_p50:.9} s - 1"),
    )
}

/// Routing from outside: `topo`'s forwarding tables and the path of
/// every server pair.
pub fn routing_probe(topo: &Topology) {
    let routes = Routes::compute(topo);
    for &a in topo.servers() {
        for &b in topo.servers() {
            if a != b {
                std::hint::black_box(routes.path(topo, a, b, 0));
            }
        }
    }
}

/// Median of `samples`, or an error naming what was missing.
pub fn require_median(samples: &[f64], what: &str) -> Result<f64, String> {
    stats::median(samples).ok_or_else(|| format!("no samples for {what}"))
}

fn usage() -> ! {
    eprintln!(
        "usage: perfsuite --workload <fabric_churn|service_churn|corun_testbed> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args() -> (String, Params, Option<usize>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut params = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut part = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--part" => match value.parse() {
                Ok(k) if k < parts::PARTS => part = Some(k),
                _ => usage(),
            },
            "--seed" => params.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                params.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(params.seconds > 0.0 && params.seconds <= 3600.0) {
                    usage()
                }
            }
            "--trace" => {
                params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    (workload.unwrap_or_else(|| usage()), params, part)
}

/// Runs one workload by name.
pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    match workload {
        "fabric_churn" => fabric::run(p),
        "service_churn" => service::run(p),
        "corun_testbed" => corun::run(p),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The metrics object of the result line: every end-to-end metric, or
/// every per-layer metric for a traced run (missing layers as 0).
pub fn result_metrics(out: &Outcome, trace: bool) -> Vec<Metric> {
    if trace {
        return PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: out
                    .layers
                    .iter()
                    .find(|l| l.name == name)
                    .map_or(0.0, |l| l.value),
                unit: unit.to_string(),
            })
            .collect();
    }
    let values = [out.setup_s, out.peak_rss_mb, out.ops_per_s, out.op_p50_us];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        })
        .collect()
}

/// The JSON result line.
pub fn result_line(out: &Outcome, metrics: &[Metric]) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        out.attempted.max(1),
        out.failed
    ))
}

fn main() {
    let (workload, mut params, part) = parse_args();
    let result = match part {
        // Traced runs are one process; untraced runs median their parts.
        None if !params.trace => parts::run(&workload, &params),
        _ => {
            if let Some(k) = part {
                params = parts::part_params(&params, k);
            }
            run(&workload, &params).map(|mut out| {
                out.peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
                out
            })
        }
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfsuite: {workload}: FAILED: {e}");
            std::process::exit(1);
        }
    };
    let metrics = result_metrics(&out, params.trace);
    let line = match result_line(&out, &metrics) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfsuite: {workload}: FAILED: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", out.host);
    println!(
        "workload {workload} seed={} seconds={} trace={}",
        params.seed, params.seconds, params.trace as u8
    );
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("metric {workload}.failed_frac {failed_frac} ratio");
    for m in &out.named {
        println!("metric {workload}.{} {} {}", m.name, m.value, m.unit);
    }
    for (name, s) in &out.spans {
        println!(
            "span {name} count={} total_s={:.6} self_s={:.6}",
            s.count, s.total_s, s.self_s
        );
    }
    for l in &out.layers {
        println!("layer {} {} n={} [{}]", l.name, l.value, l.n, l.detail);
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = compact.matches("\"unit\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_shape() {
        let out = Outcome {
            attempted: 10,
            failed: 1,
            setup_s: 0.5,
            peak_rss_mb: 64.0,
            ops_per_s: 100.0,
            op_p50_us: 12.25,
            ..Outcome::default()
        };
        let line = result_line(&out, &result_metrics(&out, false)).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 64, \"unit\": \"MB\"}, \
             \"ops_per_s\": {\"value\": 100, \"unit\": \"1/s\"}, \
             \"op_p50_us\": {\"value\": 12.25, \"unit\": \"us\"}}}"
        );
        let traced = result_metrics(&out, true);
        assert_eq!(traced.len(), PER_LAYER.len());
        let bad = Outcome {
            setup_s: f64::NAN,
            ..out
        };
        assert!(result_line(&bad, &result_metrics(&bad, false)).is_err());
    }

    #[test]
    fn timing_layer_reports_median_and_count() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-6).collect();
        let l = Layer::timing("core.rpc.encode_us", &samples, 1e6);
        assert!((l.value - 50.0).abs() < 1e-9);
        assert_eq!(l.n, 100);
        assert!(
            l.detail.contains("p90=") && l.detail.ends_with("n=100"),
            "{}",
            l.detail
        );
        assert_eq!(Layer::timing("x", &[], 1.0).n, 0);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let p = Params {
            seed: 1,
            seconds: 1.0,
            trace: false,
            tiny: true,
        };
        assert!(run("nope", &p).is_err());
    }
}
