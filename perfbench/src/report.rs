//! Sample statistics, process probes and the JSON result line.
//!
//! The result is written by hand (the workspace has no serde): one
//! metadata line, then the driver-facing result object as the last line
//! of standard output.

use std::fmt::Write as _;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest order statistic with at least ten samples above it, and
/// the percentile it sits at. `None` below eleven samples, where no such
/// statistic exists.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len() - 11;
    Some((v[rank], 100.0 * rank as f64 / (v.len() - 1) as f64))
}

/// A field of `/proc/self/status` in MiB (`VmHWM`, `VmRSS`), or 0 where
/// the file does not exist.
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1-minute load average, or -1 where it cannot be read.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Metrics in emission order.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }
}

/// Operation accounting: one operation is one sweep or one service job.
#[derive(Default, Debug, Clone, Copy)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// JSON number: Rust's shortest round-trip form (all measured digits);
/// non-finite values are not JSON and become `null`.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run metadata line: every `(key, value)` pair plus the per-metric
/// sample counts.
pub fn meta_line(fields: &[(&str, String)], metrics: &Metrics) -> String {
    let mut s = String::from("{\"meta\": {");
    for (i, (k, v)) in fields.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            string(k),
            string(v)
        );
    }
    s.push_str(", \"samples\": {");
    for (i, m) in metrics.0.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            string(&m.name),
            m.samples
        );
    }
    s.push_str("}}}");
    s
}

/// The result object the driver reads from the last stdout line.
pub fn result_line(outcome: Outcome, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            string(&m.name),
            num(m.value),
            string(m.unit)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(tail(&[1.0; 10]).is_none());
        let xs: Vec<f64> = (0..21).map(f64::from).collect();
        // 10 samples (11..=20) lie above the 11th-from-top value
        assert_eq!(tail(&xs), Some((10.0, 50.0)));
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.push("a.b", 0.125, "s", 3);
        let line = result_line(
            Outcome {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
    }
}
