//! Metrics, correctness bookkeeping and the two output forms: a
//! readable table (every metric with its unit and sample count) and the
//! final one-line JSON object.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// How many samples the value reduces.
    pub samples: usize,
}

/// Whether a metric must be a strictly positive timing or may be any
/// finite number (counts, ratios, overhead deltas).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A timing or rate: zero, negative or non-finite is a failed
    /// measurement.
    Timing,
    /// A count or ratio: any finite value.
    Count,
}

/// Correctness bookkeeping for one run: operations attempted, the ones
/// that failed (wrong output, refused request, zero timing), and why.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations attempted (reports, sweep phases, requests, checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per distinct failure (capped).
    pub failures: Vec<String>,
    /// Informational lines (drift that is within tolerance, etc.).
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one attempted operation that succeeded when `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records `n` attempted operations, none failed.
    pub fn pass(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Adds an informational line (once, however often it is raised).
    pub fn note(&mut self, line: String) {
        if !self.notes.contains(&line) {
            self.notes.push(line);
        }
    }
}

/// The metrics a run prints, in order, with their validation kind.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    items: Vec<(Metric, Kind)>,
}

impl Metrics {
    /// Adds a timing/rate metric.
    pub fn timing(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, Kind::Timing);
    }

    /// Adds a count/ratio metric.
    pub fn count(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, Kind::Count);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize, kind: Kind) {
        self.items.retain(|(m, _)| m.name != name);
        self.items.push((
            Metric {
                name: name.to_string(),
                value,
                unit,
                samples,
            },
            kind,
        ));
    }

    /// Adds every metric of `other`, replacing same-named ones.
    pub fn merge(&mut self, other: &Metrics) {
        for (m, kind) in &other.items {
            self.push(&m.name, m.value, m.unit, m.samples, *kind);
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.items.iter().map(|(m, _)| m).find(|m| m.name == name)
    }

    /// Checks every metric is a number that makes sense (positive,
    /// finite timings; finite counts) and that `required` are all
    /// present. Each violation is a failed operation.
    pub fn validate(&self, required: &[&str], checks: &mut Checks) {
        for (m, kind) in &self.items {
            let ok = match kind {
                Kind::Timing => m.value.is_finite() && m.value > 0.0 && m.samples > 0,
                Kind::Count => m.value.is_finite(),
            };
            checks.check(ok, || {
                format!(
                    "metric {} is {} {} over {} samples",
                    m.name, m.value, m.unit, m.samples
                )
            });
        }
        for name in required {
            checks.check(self.get(name).is_some(), || {
                format!("metric {name} was not measured")
            });
        }
    }

    /// The readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (m, _) in &self.items {
            let _ = writeln!(
                out,
                "  {:<34} {:>16} {:<9} (n={})",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            );
        }
        out
    }

    /// The JSON `metrics` object restricted to `names`, in that order.
    pub fn json(&self, names: &[&str]) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for name in names {
            if let Some(m) = self.get(name) {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                // A non-finite value already failed validation; keep the
                // line parseable JSON anyway.
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                let _ = write!(
                    out,
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                );
            }
        }
        out.push('}');
        out
    }
}

fn format_value(v: f64) -> String {
    if v.abs() >= 1000.0 || v == v.trunc() {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// 64-bit FNV-1a, for output digests.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in, followed by a separator so concatenations of
    /// different splits differ.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_timings_are_failures_but_zero_counts_are_not() {
        let mut m = Metrics::default();
        m.timing("a_ms", 0.0, "ms", 3);
        m.count("b", 0.0, "count", 1);
        m.timing("c_ms", 1.5, "ms", 3);
        let mut checks = Checks::default();
        m.validate(&["c_ms", "missing"], &mut checks);
        assert_eq!(checks.failed, 2);
        assert_eq!(checks.attempted, 5);
    }

    #[test]
    fn json_lists_requested_metrics_with_all_digits() {
        let mut m = Metrics::default();
        m.timing("x_s", 0.123456789, "s", 1);
        m.timing("y_s", 2.0, "s", 1);
        assert_eq!(
            m.json(&["x_s"]),
            "{\"x_s\": {\"value\": 0.123456789, \"unit\": \"s\"}}"
        );
    }

    #[test]
    fn digest_separates_splits() {
        let mut a = Digest::default();
        a.add(b"ab");
        a.add(b"c");
        let mut b = Digest::default();
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a.value(), b.value());
    }
}
