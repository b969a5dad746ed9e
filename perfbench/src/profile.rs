//! Reduces `mcsm_obs::trace::chrome_trace()` to a per-span-name profile:
//! count, inclusive time, self time and share of the traced wall time, plus
//! how much of the main thread's wall time the named spans cover.

use crate::measure::Meter;
use mcsm_num::json::JsonValue;
use std::collections::BTreeMap;

/// One complete span of the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub name: String,
    pub tid: u64,
    pub start_ns: f64,
    pub dur_ns: f64,
}

impl Event {
    fn end_ns(&self) -> f64 {
        self.start_ns + self.dur_ns
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStat {
    pub count: u64,
    pub inclusive_ns: f64,
    pub self_ns: f64,
}

/// The reduced trace.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub events: Vec<Event>,
    pub stats: BTreeMap<String, SpanStat>,
    /// Traced wall time (ns).
    pub wall_ns: f64,
    /// Share of the main thread's wall time inside a named span.
    pub coverage: f64,
    /// Spans lost to ring-buffer overflow.
    pub dropped: f64,
}

/// `par.queue` spans time a job's wait, not work on the recording thread:
/// with several jobs per worker a later job's queue span encloses earlier
/// jobs' execution. They are counted but take no part in self-time nesting.
const WAIT_SPANS: [&str; 1] = ["par.queue"];

/// Parses the complete (`"ph": "X"`) events of a Chrome trace document.
fn events(trace: &JsonValue) -> Vec<Event> {
    let Some(list) = trace.get("traceEvents").and_then(JsonValue::as_array) else {
        return Vec::new();
    };
    list.iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .filter_map(|e| {
            Some(Event {
                name: e.get("name")?.as_str()?.to_string(),
                tid: e.get("tid")?.as_f64()? as u64,
                start_ns: e.get("ts")?.as_f64()? * 1e3,
                dur_ns: e.get("dur")?.as_f64()? * 1e3,
            })
        })
        .collect()
}

/// Reduces a trace recorded over `wall_ns` of wall time. The main thread is
/// the one that recorded the first `bench.*` span: the benchmark makes every
/// call into a layer from it.
pub fn reduce(trace: &JsonValue, wall_ns: f64) -> Profile {
    let events = events(trace);
    let main_tid = events
        .iter()
        .find(|e| e.name.starts_with("bench."))
        .map(|e| e.tid);
    let mut stats: BTreeMap<String, SpanStat> = BTreeMap::new();
    let mut by_thread: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let stat = stats.entry(event.name.clone()).or_default();
        stat.count += 1;
        stat.inclusive_ns += event.dur_ns;
        if !WAIT_SPANS.contains(&event.name.as_str()) {
            stat.self_ns += event.dur_ns;
            by_thread.entry(event.tid).or_default().push(i);
        }
    }

    // Per thread, a span's direct children are the outermost spans it
    // contains; their time is not its own.
    let mut covered_ns = 0.0;
    for (tid, mut indices) in by_thread {
        indices.sort_by(|&a, &b| {
            let (a, b) = (&events[a], &events[b]);
            a.start_ns
                .total_cmp(&b.start_ns)
                .then(b.dur_ns.total_cmp(&a.dur_ns))
        });
        let mut open: Vec<usize> = Vec::new();
        for i in indices {
            let event = &events[i];
            while open
                .last()
                .is_some_and(|&p| events[p].end_ns() <= event.start_ns)
            {
                open.pop();
            }
            match open.last() {
                Some(&parent) => {
                    if let Some(stat) = stats.get_mut(&events[parent].name) {
                        stat.self_ns -= event.dur_ns.min(events[parent].end_ns() - event.start_ns);
                    }
                }
                None if Some(tid) == main_tid => covered_ns += event.dur_ns,
                None => {}
            }
            open.push(i);
        }
    }
    let dropped = trace
        .get("otherData")
        .and_then(|d| d.get("dropped_spans"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    Profile {
        events,
        stats,
        wall_ns,
        coverage: covered_ns / wall_ns.max(1.0),
        dropped,
    }
}

impl Profile {
    /// Durations (µs) of the spans named `name` that started inside one of
    /// the meter's units.
    pub fn durations_us(&self, name: &str, meter: &Meter) -> Vec<f64> {
        self.events
            .iter()
            .filter(|e| e.name == name && meter.covers(e.start_ns))
            .map(|e| e.dur_ns * 1e-3)
            .collect()
    }

    /// The profile as JSON, heaviest self time first.
    pub fn to_json(&self) -> JsonValue {
        let mut rows: Vec<(&String, &SpanStat)> = self.stats.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.total_cmp(&a.1.self_ns));
        let num = JsonValue::Number;
        JsonValue::Object(vec![
            ("wall_ms".into(), num(self.wall_ns * 1e-6)),
            ("main_thread_coverage".into(), num(self.coverage)),
            ("dropped_spans".into(), num(self.dropped)),
            (
                "spans".into(),
                JsonValue::Array(
                    rows.into_iter()
                        .map(|(name, s)| {
                            JsonValue::Object(vec![
                                ("name".into(), JsonValue::String(name.clone())),
                                ("count".into(), num(s.count as f64)),
                                ("inclusive_ms".into(), num(s.inclusive_ns * 1e-6)),
                                ("self_ms".into(), num(s.self_ns * 1e-6)),
                                ("self_share".into(), num(s.self_ns / self.wall_ns.max(1.0))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, tid: u64, ts_us: f64, dur_us: f64) -> JsonValue {
        JsonValue::Object(vec![
            ("name".into(), JsonValue::String(name.into())),
            ("ph".into(), JsonValue::String("X".into())),
            ("tid".into(), JsonValue::Number(tid as f64)),
            ("ts".into(), JsonValue::Number(ts_us)),
            ("dur".into(), JsonValue::Number(dur_us)),
        ])
    }

    #[test]
    fn self_time_subtracts_direct_children_per_thread() {
        let trace = JsonValue::Object(vec![(
            "traceEvents".into(),
            JsonValue::Array(vec![
                event("bench.outer", 1, 0.0, 10.0),
                event("inner", 1, 2.0, 3.0),
                event("leaf", 1, 2.5, 1.0),
                event("inner", 1, 6.0, 2.0),
                // Another thread: a root there is not main-thread coverage.
                event("worker", 2, 1.0, 4.0),
                // Waits neither nest nor get nested.
                event("par.queue", 1, 0.0, 9.0),
            ]),
        )]);
        let profile = reduce(&trace, 20_000.0);
        let stat = |name: &str| profile.stats[name].clone();
        assert_eq!(stat("bench.outer").self_ns, 5_000.0);
        assert_eq!(stat("inner").count, 2);
        assert_eq!(stat("inner").inclusive_ns, 5_000.0);
        assert_eq!(stat("inner").self_ns, 4_000.0);
        assert_eq!(stat("leaf").self_ns, 1_000.0);
        assert_eq!(stat("worker").self_ns, 4_000.0);
        assert_eq!(stat("par.queue").self_ns, 0.0);
        assert_eq!(profile.coverage, 0.5);
        let mut meter = Meter::default();
        meter.spans = vec![(0, 5_000)];
        assert_eq!(profile.durations_us("inner", &meter), vec![3.0]);
        let json = profile.to_json();
        let spans = json.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("bench.outer"));
    }
}
