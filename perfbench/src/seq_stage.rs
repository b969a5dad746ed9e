//! The clocked stage behind `seq_cycles`: episodes of many shallow epochs
//! through the public `step_cycle` with shared `SimCaches` (most gate
//! evaluations are waveform-memo hits), taking turns with
//! `analyze_sequential`.

use crate::measure::{median, quiet, timed, Meter, Report};
use crate::schedule::Stage;
use crate::setup::{calculator, Plan, Size, PO_LOAD};
use mcsm_bench::seq_results_identical;
use mcsm_net::{pipelined_dag, Netlist};
use mcsm_netsim::{NetsimOptions, SimCaches};
use mcsm_num::json::JsonValue;
use mcsm_num::testrand::TestRng;
use mcsm_seq::{
    analyze_sequential, initial_seq_state, step_cycle, CycleInputs, SeqError, SeqNetlist,
    SeqOptions, SeqResult, SeqStats, SeqTimingOptions,
};
use mcsm_sta::delaycalc::{DelayCache, WaveformCache};
use mcsm_sta::models::ModelLibrary;
use mcsm_sta::{ClockSpec, TimingOptions};

/// Generator seed of the pipeline topology; `--seed` picks the input vectors.
const TOPOLOGY_SEED: u64 = 7;
/// Clock period (s).
const PERIOD: f64 = 2e-9;
/// Simulation window of one epoch (s).
const EPOCH_WINDOW: f64 = 4e-9;
/// `analyze_sequential` runs per episode. A run is short and its wall time
/// follows the host's drift closely (the same 72 solves took 107–208 ms in
/// different processes), so `slack_ms` needs many samples for a quiet
/// figure.
const STA_PER_EPISODE: usize = 3;

/// The built pipeline and its per-cycle input vectors.
pub struct Circuit {
    netlist: Netlist,
    seq: SeqNetlist,
    clock: ClockSpec,
    cycles: Vec<CycleInputs>,
    size: Size,
}

impl Circuit {
    /// Builds and partitions the pipeline (timed as `net.build`), levelizes
    /// it (`net.levelize`) and draws one seeded Boolean per data input and
    /// cycle.
    pub fn build(plan: &Plan) -> Result<(Self, f64, f64), String> {
        let (stages, width, cycles, seed) = match plan.size {
            Size::Scaled => (6, 32, 48, plan.seed),
            Size::Compact => (3, 12, 16, Plan::FIXED_SEED),
            Size::Smallest => (2, 6, 6, Plan::FIXED_SEED),
        };
        let ((netlist, seq), build_s) = timed("bench.net.pipelined_dag", || {
            let netlist = pipelined_dag(stages, width, TOPOLOGY_SEED);
            let seq = SeqNetlist::partition(&netlist);
            (netlist, seq)
        });
        let seq = seq.map_err(|e| format!("partition failed: {e}"))?;
        let (_, levelize_s) = timed("bench.net.levels", || netlist.levels());
        let clock_net = seq.clock_net();
        let data: Vec<_> = netlist
            .primary_inputs()
            .iter()
            .copied()
            .filter(|&pi| pi != clock_net)
            .collect();
        let mut rng = TestRng::new(seed);
        let cycles = (0..cycles)
            .map(|_| {
                CycleInputs::from_pairs(data.iter().map(|&pi| (pi, rng.flip())).collect::<Vec<_>>())
            })
            .collect();
        let clock = ClockSpec::new(netlist.net_name(clock_net), PERIOD);
        let circuit = Circuit {
            netlist,
            seq,
            clock,
            cycles,
            size: plan.size,
        };
        Ok((circuit, build_s, levelize_s))
    }

    pub fn describe(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("size".into(), self.size.json()),
            (
                "circuit".into(),
                JsonValue::String(self.netlist.name().into()),
            ),
            (
                "gates".into(),
                JsonValue::Number(self.netlist.gate_count() as f64),
            ),
            (
                "registers".into(),
                JsonValue::Number(self.seq.registers().len() as f64),
            ),
            (
                "cycles_per_episode".into(),
                JsonValue::Number(self.cycles.len() as f64),
            ),
            ("clock_period_s".into(), JsonValue::Number(PERIOD)),
            ("window_s".into(), JsonValue::Number(EPOCH_WINDOW)),
        ])
    }
}

/// One episode: fresh caches and initial state, every cycle through
/// `step_cycle`. Returns the assembled result and each cycle's seconds.
fn episode(
    circuit: &Circuit,
    library: &ModelLibrary,
    options: &SeqOptions,
) -> Result<(SeqResult, Vec<f64>), SeqError> {
    let delay = DelayCache::new();
    let waveforms = WaveformCache::new();
    let caches = SimCaches {
        delay: &delay,
        waveforms: Some(&waveforms),
    };
    let mut state = initial_seq_state(&circuit.seq, options)?;
    let mut result = SeqResult {
        register_names: Vec::new(),
        states: Vec::new(),
        po_names: Vec::new(),
        po_values: Vec::new(),
        epochs: Vec::new(),
        stats: SeqStats::default(),
    };
    let mut times = Vec::with_capacity(circuit.cycles.len());
    for inputs in &circuit.cycles {
        let (outcome, secs) = timed("bench.seq.step_cycle", || {
            step_cycle(
                &circuit.seq,
                library,
                &circuit.clock,
                inputs,
                &mut state,
                options,
                caches,
            )
        });
        let outcome = outcome?;
        times.push(secs);
        result.states.push(outcome.states);
        result.po_values.push(outcome.po_values);
        result.stats.cycles += 1;
    }
    Ok((result, times))
}

/// The stage as a sequence of units: an episode, then [`STA_PER_EPISODE`]
/// `analyze_sequential` runs, and again.
pub struct Runner<'a> {
    circuit: &'a Circuit,
    library: &'a ModelLibrary,
    options: SeqOptions,
    timing: SeqTimingOptions,
    threads: usize,
    first: Option<SeqResult>,
    episode_secs: Vec<f64>,
    cycle_secs: Vec<f64>,
    sta_secs: Vec<f64>,
    endpoints: Option<usize>,
    failed: bool,
    /// Meters the episodes only: the STA's own engine calls would blur the
    /// memo figures.
    pub meter: Meter,
    report: Report,
}

impl<'a> Runner<'a> {
    pub fn new(circuit: &'a Circuit, library: &'a ModelLibrary, plan: &Plan) -> Self {
        let calc = calculator(library.vdd(), EPOCH_WINDOW);
        let netsim = NetsimOptions::new(calc.clone(), PO_LOAD).with_threads(plan.threads);
        Runner {
            circuit,
            library,
            options: SeqOptions::new(netsim),
            timing: SeqTimingOptions::new(
                TimingOptions::new(calc, PO_LOAD).with_threads(plan.threads),
            ),
            threads: plan.threads,
            first: None,
            episode_secs: Vec::new(),
            cycle_secs: Vec::new(),
            sta_secs: Vec::new(),
            endpoints: None,
            failed: false,
            meter: Meter::default(),
            report: Report::default(),
        }
    }

    fn run_episode(&mut self) {
        let (circuit, library, options) = (self.circuit, self.library, &self.options);
        match self.meter.unit(|| episode(circuit, library, options)) {
            Ok((result, times)) => {
                self.report.ops(times.len());
                self.episode_secs.push(times.iter().sum::<f64>());
                self.cycle_secs.extend(times);
                match &self.first {
                    None => self.first = Some(result),
                    Some(first) => self
                        .report
                        .check(seq_results_identical(first, &result), || {
                            "seq: an episode differs from the first".into()
                        }),
                }
            }
            Err(e) => {
                self.failed = true;
                self.report.error(format!("step_cycle failed: {e}"));
            }
        }
    }

    fn run_sta(&mut self) {
        let circuit = self.circuit;
        let (slack, secs) = timed("bench.seq.analyze_sequential", || {
            analyze_sequential(&circuit.netlist, self.library, &circuit.clock, &self.timing)
        });
        match slack {
            Ok(slack) => {
                self.report.ops(1);
                self.sta_secs.push(secs);
                let count = slack.endpoints.len();
                let expected = self.endpoints;
                self.report
                    .check(count > 0 && expected.is_none_or(|n| n == count), || {
                        format!("analyze_sequential: {count} endpoints, expected {expected:?}")
                    });
                self.endpoints = Some(count);
            }
            Err(e) => {
                self.failed = true;
                self.report.error(format!("analyze_sequential failed: {e}"));
            }
        }
    }

    /// Checks a 1-thread episode and reports the stage's metrics.
    pub fn finish(mut self) -> (Report, Meter) {
        let single = SeqOptions::new(self.options.netsim.clone().with_threads(1));
        if let Some(first) = &self.first {
            match episode(self.circuit, self.library, &single) {
                Ok((result, _)) => self
                    .report
                    .check(seq_results_identical(first, &result), || {
                        format!(
                            "seq: 1-thread episode differs from the {}-thread one",
                            self.threads
                        )
                    }),
                Err(e) => self
                    .report
                    .error(format!("1-thread step_cycle failed: {e}")),
            }
        }
        let report = &mut self.report;
        report
            .samples
            .push(("seq.episodes", self.episode_secs.len()));
        report.samples.push(("seq.sta_runs", self.sta_secs.len()));
        let cycles = self.circuit.cycles.len() as f64;
        report.e2e(
            "cycles_per_s",
            cycles / quiet(&self.episode_secs),
            "cycles/s",
        );
        // A per-layer figure: its run-to-run spread passed the 0.25 bound
        // the benchmark gives its end-to-end metrics.
        report.layer("slack_ms", quiet(&self.sta_secs) * 1e3, "ms");
        report.layer("seq.cycle_ms_p50", median(&self.cycle_secs) * 1e3, "ms");
        report.layer(
            "seq.sta_endpoints",
            self.endpoints.unwrap_or(0) as f64,
            "count",
        );
        (self.report, self.meter)
    }
}

impl Stage for Runner<'_> {
    fn units(&self) -> usize {
        self.episode_secs.len() + self.sta_secs.len()
    }

    fn target(&self) -> usize {
        match self.circuit.size {
            Size::Scaled => 3 * (1 + STA_PER_EPISODE),
            Size::Compact => 8 * (1 + STA_PER_EPISODE),
            Size::Smallest => 1 + STA_PER_EPISODE,
        }
    }

    fn timed(&self) -> bool {
        self.circuit.size == Size::Scaled
    }

    fn failed(&self) -> bool {
        self.failed
    }

    fn step(&mut self) {
        if self.sta_secs.len() < STA_PER_EPISODE * self.episode_secs.len() {
            self.run_sta();
        } else {
            self.run_episode();
        }
    }
}
