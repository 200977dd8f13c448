//! Result bookkeeping: latency samples, the correctness tally, the metric
//! table, and the one-line JSON the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample; 0 when
/// empty. Same rule as `aic_ckpt::service::percentile`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    aic_ckpt::service::percentile(samples, q)
}

/// Median of an unsorted sample (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Client-observed latencies of one run, milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    /// `cut()` calls.
    pub cut_ms: Vec<f64>,
    /// `crash()` + `recover()`: how long the tenant is down.
    pub recover_ms: Vec<f64>,
    /// `join()` (over the socket: connect + join reply).
    pub join_ms: Vec<f64>,
}

impl Latencies {
    pub fn extend(&mut self, other: Latencies) {
        self.cut_ms.extend(other.cut_ms);
        self.recover_ms.extend(other.recover_ms);
        self.join_ms.extend(other.join_ms);
    }
}

/// The correctness gate's ledger: operations attempted, operations that
/// failed or broke an invariant, and the first few reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Count one failure with its reason (only the first few are kept).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why.into());
        }
    }

    /// Record a check: a failure unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(p);
            }
        }
    }
}

/// Named metrics with units, in insertion-independent (sorted) order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), (v, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// Take over every metric of `other`.
    pub fn absorb(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// JSON string literal with the escapes the benchmark's text can need.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit Rust's shortest round-trip form gives.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// A flat JSON object from `(key, already-encoded JSON value)` pairs.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Peak resident set (VmHWM) of a process, in MB; 0 when unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.25, "ms");
        m.set("count", 3.0, "count");
        let line = result_line(true, &Tally::default(), &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"count\": {\"value\": 3, \"unit\": \"count\"}, \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(median(&[]), 0.0);
    }
}
