//! Untraced runs are split into [`PARTS`] child processes, run one
//! after another. Part `k` measures `seconds / PARTS` of work on inputs
//! generated from [`part_seed`]`(seed, k)`; the run reports the median
//! of the parts' metrics. Medians over independent processes damp the
//! per-process speed differences (memory layout, hash seeds) that one
//! long process would carry into every sample.

use crate::{Metric, Outcome, Params};
use std::process::Command;

/// Child processes per untraced run.
pub const PARTS: usize = 4;

/// The input seed of part `k` of a run with seed `seed`.
pub fn part_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(PARTS as u64).wrapping_add(k as u64)
}

/// The parameters part `k` runs with.
pub fn part_params(p: &Params, k: usize) -> Params {
    Params {
        seed: part_seed(p.seed, k),
        seconds: p.seconds / PARTS as f64,
        ..*p
    }
}

/// Runs every part of `workload` as a child process of this
/// executable and aggregates their results.
pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut parts = Vec::with_capacity(PARTS);
    for k in 0..PARTS {
        let out = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &p.seed.to_string()])
            .args(["--seconds", &p.seconds.to_string()])
            .args(["--trace", "0", "--part", &k.to_string()])
            .output()
            .map_err(|e| format!("part {k}: spawn: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "part {k} exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        parts.push(parse(&stdout).map_err(|e| format!("part {k}: {e}"))?);
    }
    aggregate(parts)
}

/// Reads a part's stdout back into an [`Outcome`].
pub fn parse(stdout: &str) -> Result<Outcome, String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let mut out = Outcome {
        attempted: json_number(last, "attempted")? as u64,
        failed: json_number(last, "failed")? as u64,
        setup_s: json_value(last, "setup_s")?,
        peak_rss_mb: json_value(last, "peak_rss_mb")?,
        ops_per_s: json_value(last, "ops_per_s")?,
        op_p50_us: json_value(last, "op_p50_us")?,
        ..Outcome::default()
    };
    for line in stdout.lines() {
        if line.starts_with("host ") {
            out.host = line.to_string();
        }
        let Some(rest) = line.strip_prefix("metric ") else {
            continue;
        };
        let fields: Vec<&str> = rest.split(' ').collect();
        let [name, value, unit] = fields[..] else {
            return Err(format!("bad metric line {line:?}"));
        };
        let name = name.split_once('.').map_or(name, |(_, n)| n);
        if name == "failed_frac" {
            continue;
        }
        let value = value
            .parse()
            .map_err(|_| format!("bad metric value in {line:?}"))?;
        out.named.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }
    Ok(out)
}

/// The value after `"key": ` on a result line.
fn json_number(line: &str, key: &str) -> Result<f64, String> {
    let pat = format!("\"{key}\": ");
    let start = line
        .find(&pat)
        .ok_or_else(|| format!("no {key} in result"))?
        + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end]
        .trim()
        .parse()
        .map_err(|_| format!("bad {key} in result"))
}

/// The value of metric `name` on a result line.
fn json_value(line: &str, name: &str) -> Result<f64, String> {
    let pat = format!("\"{name}\": {{");
    let start = line
        .find(&pat)
        .ok_or_else(|| format!("no {name} in result"))?
        + pat.len()
        - 1;
    json_number(&line[start..], "value")
}

/// Median, averaging the middle pair of an even count.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Sums the counts and takes the median of every metric over parts.
pub fn aggregate(parts: Vec<Outcome>) -> Result<Outcome, String> {
    let first = parts.first().ok_or("no parts")?;
    let of = |f: fn(&Outcome) -> f64| median(parts.iter().map(f).collect());
    let mut out = Outcome {
        attempted: parts.iter().map(|o| o.attempted).sum(),
        failed: parts.iter().map(|o| o.failed).sum(),
        setup_s: of(|o| o.setup_s),
        peak_rss_mb: of(|o| o.peak_rss_mb),
        ops_per_s: of(|o| o.ops_per_s),
        op_p50_us: of(|o| o.op_p50_us),
        host: first.host.clone(),
        ..Outcome::default()
    };
    for m in &first.named {
        let values = parts
            .iter()
            .map(|o| {
                o.named
                    .iter()
                    .find(|n| n.name == m.name)
                    .map(|n| n.value)
                    .ok_or_else(|| format!("a part lacks metric {}", m.name))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        out.named.push(Metric {
            name: m.name.clone(),
            value: median(values),
            unit: m.unit.clone(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(ops: f64, cold: f64) -> String {
        format!(
            "host nproc=2\nworkload fabric_churn seed=4 seconds=5 trace=0\n\
             metric fabric_churn.failed_frac 0 ratio\n\
             metric fabric_churn.cold_epoch_s {cold} s\n\
             {{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {{\
             \"setup_s\": {{\"value\": 0.5, \"unit\": \"s\"}}, \
             \"peak_rss_mb\": {{\"value\": 70, \"unit\": \"MB\"}}, \
             \"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}, \
             \"op_p50_us\": {{\"value\": 250.5, \"unit\": \"us\"}}}}}}"
        )
    }

    #[test]
    fn parses_a_part() {
        let o = parse(&part(1999.5, 0.6)).unwrap();
        assert_eq!((o.attempted, o.failed), (10, 0));
        assert_eq!(
            (o.setup_s, o.peak_rss_mb, o.ops_per_s, o.op_p50_us),
            (0.5, 70.0, 1999.5, 250.5)
        );
        assert_eq!(o.host, "host nproc=2");
        assert_eq!(o.named.len(), 1);
        assert_eq!(
            (o.named[0].name.as_str(), o.named[0].value),
            ("cold_epoch_s", 0.6)
        );
        assert!(parse("").is_err());
        assert!(parse("{\"attempted\": 1}").is_err());
    }

    #[test]
    fn aggregates_medians_and_sums() {
        let parts = [(1000.0, 0.5), (3000.0, 0.9), (2000.0, 0.7)]
            .iter()
            .map(|&(ops, cold)| parse(&part(ops, cold)).unwrap())
            .collect();
        let o = aggregate(parts).unwrap();
        assert_eq!(o.attempted, 30);
        assert_eq!(o.ops_per_s, 2000.0);
        assert_eq!(o.named[0].value, 0.7);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn part_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..50 {
            for k in 0..PARTS {
                assert!(seen.insert(part_seed(seed, k)));
            }
        }
        let p = Params {
            seed: 3,
            seconds: 20.0,
            trace: false,
            tiny: false,
        };
        assert_eq!(part_params(&p, 1).seconds, 5.0);
        assert_eq!(part_params(&p, 1).seed, 13);
    }
}
