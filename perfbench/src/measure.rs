//! Measurement plumbing shared by every stage: outside-in call timing with
//! `bench.<layer>.<fn>` spans, order statistics, registry deltas, output
//! digests and the run report.

use mcsm_num::json::JsonValue;
use mcsm_spice::waveform::Waveform;
use std::collections::BTreeMap;
use std::time::Instant;

/// Runs `f` inside a `bench.<layer>.<fn>` span and returns its result with
/// the wall-clock seconds it took. The span is inert unless tracing is armed;
/// the timing is always taken.
pub fn timed<R>(span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = mcsm_obs::span(span);
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Median of a sample (NaN for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The quiet-host figure of a set of repeated timings: their 10th
/// percentile. Interference from other tenants of a shared host only ever
/// slows a repeat down, so the fast tail moves far less from run to run than
/// the median does.
pub fn quiet(values: &[f64]) -> f64 {
    percentile(values, 10.0)
}

/// Linear-interpolated percentile `p` (0–100) of a sample (NaN when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where procfs is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    mcsm_bench::peak_rss_bytes().map(|bytes| bytes as f64 / (1024.0 * 1024.0))
}

/// Counter growth and trace-clock bounds of a stage's units, summed over the
/// units alone, so stages that take turns keep their own attribution.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    counters: BTreeMap<String, u64>,
    /// `(start_ns, end_ns)` of every unit, in order.
    pub spans: Vec<(u64, u64)>,
}

impl Meter {
    /// Runs one unit of work under the meter.
    pub fn unit<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = mcsm_obs::metrics_enabled().then(|| mcsm_obs::global().snapshot());
        let start = mcsm_obs::now_ns();
        let result = f();
        let end = mcsm_obs::now_ns();
        if let Some(before) = before {
            for (name, grown) in mcsm_obs::global().snapshot().counter_deltas(&before) {
                *self.counters.entry(name).or_default() += grown;
            }
        }
        self.spans.push((start, end));
        result
    }

    /// Growth of a registry counter over the metered units.
    pub fn delta(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Wall-clock seconds spent in the metered units.
    pub fn seconds(&self) -> f64 {
        self.spans
            .iter()
            .map(|(a, b)| b.saturating_sub(*a))
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Whether the trace-clock instant `t_ns` falls inside a metered unit.
    pub fn covers(&self, t_ns: f64) -> bool {
        let i = self
            .spans
            .partition_point(|&(start, _)| (start as f64) <= t_ns);
        i > 0 && t_ns <= self.spans[i - 1].1 as f64
    }
}

/// `hits / (hits + misses)`, 0 when there were no lookups at all.
pub fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// FNV-1a over the exact bits of a sequence of waveforms (a missing waveform
/// hashes as a marker): equal digests mean bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn of<'a>(waveforms: impl IntoIterator<Item = Option<&'a Waveform>>) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for waveform in waveforms {
            match waveform {
                None => eat(u64::MAX),
                Some(w) => {
                    eat(w.len() as u64);
                    for (&t, &v) in w.times().iter().zip(w.values()) {
                        eat(t.to_bits());
                        eat(v.to_bits());
                    }
                }
            }
        }
        Digest(hash)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics, operation/check counts and failure messages of one run (or one
/// stage of it).
#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Sample counts behind the figures, by name.
    pub samples: Vec<(&'static str, usize)>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Counts `n` operations that completed.
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Counts one output check, recording `what` when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts one operation that errored.
    pub fn error(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(what);
    }

    /// Folds a stage report into this one. Layer metrics already present
    /// keep their first value, so the primary stage (merged first) wins for
    /// the cross-cutting layers every stage exercises.
    pub fn merge(&mut self, other: Report) {
        for metric in other.end_to_end {
            if !self.end_to_end.iter().any(|m| m.name == metric.name) {
                self.end_to_end.push(metric);
            }
        }
        for metric in other.layers {
            if !self.layers.iter().any(|m| m.name == metric.name) {
                self.layers.push(metric);
            }
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.samples.extend(other.samples);
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for a metric list.
pub fn metrics_json(metrics: &[Metric]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    JsonValue::Object(vec![
                        ("value".into(), JsonValue::Number(m.value)),
                        ("unit".into(), JsonValue::String(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 100.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = Waveform::new(vec![0.0, 1.0], vec![0.5, 0.25]).unwrap();
        let b = Waveform::new(
            vec![0.0, 1.0],
            vec![0.5, f64::from_bits(0.25f64.to_bits() + 1)],
        )
        .unwrap();
        assert_eq!(Digest::of([Some(&a)]), Digest::of([Some(&a)]));
        assert_ne!(Digest::of([Some(&a)]), Digest::of([Some(&b)]));
        assert_ne!(Digest::of([Some(&a)]), Digest::of([None]));
    }

    #[test]
    fn meter_covers_its_units_only() {
        let mut meter = Meter {
            spans: vec![(10, 20), (40, 50)],
            ..Meter::default()
        };
        assert!(meter.covers(10.0) && meter.covers(15.0) && meter.covers(50.0));
        assert!(!meter.covers(5.0) && !meter.covers(30.0) && !meter.covers(51.0));
        assert!((meter.seconds() - 20e-9).abs() < 1e-18);
        let value = meter.unit(|| 7);
        assert_eq!((value, meter.spans.len()), (7, 3));
    }

    #[test]
    fn merge_keeps_the_first_layer_value() {
        let mut primary = Report::default();
        primary.layer("par.jobs", 10.0, "count");
        primary.check(true, String::new);
        let mut compact = Report::default();
        compact.layer("par.jobs", 3.0, "count");
        compact.layer("seq.sta_endpoints", 7.0, "count");
        compact.check(false, || "mismatch".into());
        primary.merge(compact);
        assert_eq!(primary.layers.len(), 2);
        assert_eq!(primary.layers[0].value, 10.0);
        assert_eq!((primary.attempted, primary.failed), (2, 1));
        assert_eq!(primary.failed_frac(), 0.5);
    }
}
