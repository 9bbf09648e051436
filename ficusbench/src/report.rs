//! Percentiles, ratios with their bases, and the result line.

use std::fmt::Write as _;

/// Nearest rank of the `permille`-th per-mille among `n` samples (1-based).
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000)
}

/// Nearest-rank percentile, in per-mille, of ascending `sorted`.
fn percentile(sorted: &[f64], permille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), permille).clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (any order).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 500)
}

/// A tail latency and how it was chosen.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// The percentile used, e.g. `p99`.
    pub label: String,
    /// Its value.
    pub value: f64,
    /// Samples in the run.
    pub samples: usize,
    /// Samples above the chosen rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest of p99.9, p99 and p90 that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With fewer than 100 samples none
/// does, and the rank that leaves exactly that many is used instead; with
/// no more than that many samples, the maximum.
#[must_use]
pub fn tail(samples: &[f64]) -> Tail {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    for (permille, label) in [(999, "p99.9"), (990, "p99"), (900, "p90")] {
        let r = rank(n, permille);
        if n - r >= TAIL_MIN_BEYOND {
            return Tail {
                label: label.into(),
                value: s[r - 1],
                samples: n,
                beyond: n - r,
            };
        }
    }
    if n > TAIL_MIN_BEYOND {
        let r = n - TAIL_MIN_BEYOND;
        let label = format!("p{:.1}", 100.0 * r as f64 / n as f64);
        return Tail {
            label,
            value: s[r - 1],
            samples: n,
            beyond: TAIL_MIN_BEYOND,
        };
    }
    Tail {
        label: "max".into(),
        value: s.last().copied().unwrap_or(0.0),
        samples: n,
        beyond: 0,
    }
}

/// A ratio kept with its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator.
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    #[must_use]
    pub fn new(num: impl Into<f64>, den: impl Into<f64>) -> Self {
        Ratio {
            num: num.into(),
            den: den.into(),
        }
    }

    /// The value, or `None` when the denominator is zero.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        (self.den != 0.0).then(|| self.num / self.den)
    }

    /// `value (num/den)`, or `n/a (num/0)` for a zero denominator.
    #[must_use]
    pub fn render(&self) -> String {
        match self.value() {
            Some(v) => format!(
                "{} ({}/{})",
                fmt_num(v),
                fmt_num(self.num),
                fmt_num(self.den)
            ),
            None => format!("n/a ({}/0)", fmt_num(self.num)),
        }
    }
}

/// Compact human formatting: integers without decimals, others to four
/// significant places.
#[must_use]
pub fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A named metric. Ratios keep their base for the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value, with its base when it is a ratio.
    pub value: Value,
    /// Whether the metric goes on the result line (the others are printed
    /// in the report only).
    pub on_result_line: bool,
    /// How it was measured, for the report.
    pub note: String,
}

/// A metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A plain number.
    Num(f64),
    /// A ratio with its base.
    Ratio(Ratio),
}

impl Value {
    /// The number, `None` for a ratio over zero.
    #[must_use]
    pub fn number(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            Value::Ratio(r) => r.value(),
        }
    }

    /// Human rendering (ratios with their base, `n/a` over zero).
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Value::Num(v) => fmt_num(*v),
            Value::Ratio(r) => r.render(),
        }
    }
}

/// The last line of the output: `correct`, `attempted`, `failed` and every
/// result-line metric that has a value.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut first = true;
    for m in metrics.iter().filter(|m| m.on_result_line) {
        let Some(v) = m.value.number().filter(|v| v.is_finite()) else {
            continue;
        };
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let t = tail(&ramp(10_000));
        assert_eq!((t.label.as_str(), t.value, t.beyond), ("p99.9", 9990.0, 10));
        let t = tail(&ramp(9_999));
        assert_eq!((t.label.as_str(), t.value, t.beyond), ("p99", 9900.0, 99));
        let t = tail(&ramp(1_000));
        assert_eq!((t.label.as_str(), t.value, t.beyond), ("p99", 990.0, 10));
        let t = tail(&ramp(100));
        assert_eq!((t.label.as_str(), t.value, t.beyond), ("p90", 90.0, 10));
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn tail_with_few_samples_keeps_ten_beyond_or_falls_back_to_max() {
        let t = tail(&ramp(50));
        assert_eq!((t.label.as_str(), t.value, t.beyond), ("p80.0", 40.0, 10));
        let t = tail(&ramp(10));
        assert_eq!((t.label.as_str(), t.value, t.beyond), ("max", 10.0, 0));
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(tail(&v), tail(&ramp(200)));
        assert_eq!(median(&v), 100.0);
    }

    #[test]
    fn zero_denominator_renders_as_na_not_zero() {
        let r = Ratio::new(0u32, 0u32);
        assert_eq!(r.value(), None);
        assert_eq!(r.render(), "n/a (0/0)");
        assert_eq!(Ratio::new(5u32, 0u32).render(), "n/a (5/0)");
        assert_eq!(Ratio::new(1u32, 4u32).render(), "0.2500 (1/4)");
        assert_eq!(Ratio::new(0u32, 4u32).render(), "0 (0/4)");
    }

    #[test]
    fn result_line_omits_undefined_and_report_only_metrics() {
        let m = |name, value, on_result_line| Metric {
            name,
            unit: "ratio",
            value,
            on_result_line,
            note: String::new(),
        };
        let line = result_line(
            true,
            3,
            0,
            &[
                m("a", Value::Num(1.5), true),
                m("b", Value::Ratio(Ratio::new(1u32, 0u32)), true),
                m("c", Value::Num(2.0), false),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ratio\"}}}"
        );
    }
}
