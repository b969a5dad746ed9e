//! The batch-timing stage behind `netsim_cold`: repeated fresh
//! `simulate_netlist` runs (no waveform memo) on a hub-dominated
//! `scale_free_dag`, half of whose primary inputs switch with staggered
//! skews.

use crate::measure::{median, quiet, timed, Digest, Meter, Report};
use crate::profile::Profile;
use crate::schedule::Stage;
use crate::setup::{calculator, Plan, Size, PO_LOAD};
use mcsm_core::sim::DriveWaveform;
use mcsm_net::{scale_free_dag, NetRef, Netlist, ScaleFreeConfig};
use mcsm_netsim::{simulate_netlist, NetsimOptions};
use mcsm_num::json::JsonValue;
use mcsm_num::testrand::TestRng;
use mcsm_sta::models::ModelLibrary;
use std::collections::HashMap;

/// Generator seed of the timed topology. The circuit is part of the workload
/// definition; `--seed` picks the stimuli.
const TOPOLOGY_SEED: u64 = 11;

/// Stimulus vectors of the scaled stage. Which inputs switch moves a run's
/// engine work by about a fifth; averaging over six vectors keeps that
/// seed-to-seed variation well under the metric's bound.
const VECTORS: usize = 6;

type Drives = HashMap<NetRef, DriveWaveform>;

/// The built circuit and its stimulus vectors.
pub struct Circuit {
    netlist: Netlist,
    levels: usize,
    window: f64,
    vectors: Vec<Drives>,
    size: Size,
}

/// One primary input's stimulus in a generated vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stimulus {
    /// An 80 ps falling ramp starting at `t_start` (s).
    Fall { t_start: f64 },
    /// A constant level (V).
    Dc { level: f64 },
}

/// Transition time of every generated ramp (s).
pub const RAMP: f64 = 80e-12;

/// Half of the primary inputs (a seeded choice) fall at 1 ns plus a seeded
/// skew of up to 80 ps, so hub gates see real multiple-input switching; the
/// rest sit at a seeded rail.
pub fn half_switching(netlist: &Netlist, vdd: f64, rng: &mut TestRng) -> Vec<(NetRef, Stimulus)> {
    let mut order: Vec<NetRef> = netlist.primary_inputs().to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.index(i + 1));
    }
    let switching = order.len().div_ceil(2);
    order
        .iter()
        .enumerate()
        .map(|(rank, &pi)| {
            let stimulus = if rank < switching {
                Stimulus::Fall {
                    t_start: 1e-9 + rng.in_range(0.0, 80e-12),
                }
            } else {
                Stimulus::Dc {
                    level: if rng.flip() { vdd } else { 0.0 },
                }
            };
            (pi, stimulus)
        })
        .collect()
}

fn drives(stimuli: Vec<(NetRef, Stimulus)>, vdd: f64) -> Drives {
    stimuli
        .into_iter()
        .map(|(pi, stimulus)| {
            let drive = match stimulus {
                Stimulus::Fall { t_start } => DriveWaveform::falling_ramp(vdd, t_start, RAMP),
                Stimulus::Dc { level } => DriveWaveform::dc(level),
            };
            (pi, drive)
        })
        .collect()
}

impl Circuit {
    /// Builds the topology (timed as `net.build`), levelizes it (timed as
    /// `net.levelize`) and draws the stimulus vectors. Returns the circuit
    /// with both timings in seconds.
    pub fn build(plan: &Plan, vdd: f64) -> (Self, f64, f64) {
        let config = match plan.size {
            Size::Scaled => ScaleFreeConfig::with_gate_budget(300, TOPOLOGY_SEED),
            Size::Compact => ScaleFreeConfig {
                gates: 100,
                inputs: 32,
                seed: TOPOLOGY_SEED,
            },
            Size::Smallest => ScaleFreeConfig {
                gates: 40,
                inputs: 16,
                seed: TOPOLOGY_SEED,
            },
        };
        let (netlist, build_s) = timed("bench.net.scale_free_dag", || scale_free_dag(&config));
        let (schedule, levelize_s) = timed("bench.net.levels", || netlist.levels());
        let levels = schedule.level_count();
        let (count, seed) = match plan.size {
            Size::Scaled => (VECTORS, plan.seed),
            _ => (1, Plan::FIXED_SEED),
        };
        let mut rng = TestRng::new(seed);
        let vectors = (0..count)
            .map(|_| drives(half_switching(&netlist, vdd, &mut rng), vdd))
            .collect();
        let circuit = Circuit {
            window: 2e-9 + 0.1e-9 * levels as f64,
            netlist,
            levels,
            vectors,
            size: plan.size,
        };
        (circuit, build_s, levelize_s)
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
                "nets".into(),
                JsonValue::Number(self.netlist.net_count() as f64),
            ),
            ("levels".into(), JsonValue::Number(self.levels as f64)),
            ("window_s".into(), JsonValue::Number(self.window)),
            (
                "stimulus_vectors".into(),
                JsonValue::Number(self.vectors.len() as f64),
            ),
        ])
    }

    /// Simulation window of the timed runs (s).
    pub fn window(&self) -> f64 {
        self.window
    }

    fn digest(&self, result: &mcsm_netsim::NetsimResult) -> Digest {
        Digest::of(self.netlist.net_refs().map(|net| result.waveform(net)))
    }
}

/// The stage as a sequence of units: one fresh `simulate_netlist` run of
/// the next stimulus vector each.
pub struct Runner<'a> {
    circuit: &'a Circuit,
    library: &'a ModelLibrary,
    options: NetsimOptions,
    threads: usize,
    /// Run seconds per stimulus vector.
    times: Vec<Vec<f64>>,
    /// Output digest of each vector's first run.
    digests: Vec<Option<Digest>>,
    failed: bool,
    pub meter: Meter,
    report: Report,
}

impl<'a> Runner<'a> {
    pub fn new(circuit: &'a Circuit, library: &'a ModelLibrary, plan: &Plan) -> Self {
        let options = NetsimOptions::new(calculator(library.vdd(), circuit.window), PO_LOAD)
            .with_threads(plan.threads);
        Runner {
            circuit,
            library,
            options,
            threads: plan.threads,
            times: vec![Vec::new(); circuit.vectors.len()],
            digests: vec![None; circuit.vectors.len()],
            failed: false,
            meter: Meter::default(),
            report: Report::default(),
        }
    }

    /// Checks the 1-thread result and reports the stage's metrics.
    pub fn finish(mut self) -> (Report, Meter) {
        let report = &mut self.report;
        if let Some(first) = self.digests[0] {
            let single = self.options.clone().with_threads(1);
            match simulate_netlist(
                &self.circuit.netlist,
                self.library,
                &self.circuit.vectors[0],
                &single,
            ) {
                Ok(result) => report.check(self.circuit.digest(&result) == first, || {
                    format!(
                        "netsim: 1-thread result differs from the {}-thread result",
                        self.threads
                    )
                }),
                Err(e) => report.error(format!("1-thread simulate_netlist failed: {e}")),
            }
        }

        let gates = self.circuit.netlist.gate_count() as f64;
        let per_vector: Vec<f64> = self.times.iter().map(|t| quiet(t)).collect();
        report.e2e(
            "gates_per_s",
            gates * per_vector.len() as f64 / per_vector.iter().sum::<f64>(),
            "gates/s",
        );
        let all: Vec<f64> = self.times.iter().flatten().copied().collect();
        report.samples.push(("netsim.runs", all.len()));
        let runs = all.len().max(1) as f64;
        let meter = &self.meter;
        report.layer("netsim.run_s", median(&all), "s");
        for name in [
            "netsim.gates_simulated",
            "netsim.gates_skipped",
            "netsim.events",
            "netsim.recoveries",
            "core.sim.calls",
            "core.sim.steps",
            "core.sim.lut_evals",
        ] {
            report.layer(name, meter.delta(name) / runs, "count");
        }
        let steps = meter.delta("core.sim.steps");
        report.layer(
            "core.sim.steps_per_solve",
            steps / meter.delta("core.sim.calls").max(1.0),
            "steps",
        );
        let steps_per_s = steps / all.iter().sum::<f64>();
        report.layer("core.sim.steps_per_s", steps_per_s, "steps/s");
        report.layer(
            "core.sim.steps_per_s.per_thread",
            steps_per_s / self.threads as f64,
            "steps/s",
        );
        (self.report, self.meter)
    }
}

/// Reports `core.sim.steps_per_s.in_gate`: the stage's engine steps over the
/// time its `netsim.gate` spans took, summed over the pool's threads. Like
/// the stepper probe's rates it counts one thread's solve time, so the
/// probe's `.pwl`, this rate and `.per_thread` line up: `.pwl` to `.in_gate`
/// is what a gate solve inside netsim costs beyond an isolated one, and
/// `.in_gate` to `.per_thread` is the pool time spent outside gate solves.
pub fn in_gate_rate(report: &mut Report, meter: &Meter, profile: &Profile) {
    let gate_s = profile
        .durations_us("netsim.gate", meter)
        .iter()
        .sum::<f64>()
        * 1e-6;
    report.layer(
        "core.sim.steps_per_s.in_gate",
        meter.delta("core.sim.steps") / gate_s,
        "steps/s",
    );
}

impl Stage for Runner<'_> {
    fn units(&self) -> usize {
        self.times.iter().map(Vec::len).sum()
    }

    fn target(&self) -> usize {
        match self.circuit.size {
            Size::Scaled => 2 * VECTORS,
            Size::Compact => 8,
            Size::Smallest => 1,
        }
    }

    fn timed(&self) -> bool {
        self.circuit.size == Size::Scaled
    }

    fn failed(&self) -> bool {
        self.failed
    }

    fn step(&mut self) {
        let k = self.units() % self.circuit.vectors.len();
        let (circuit, library, options) = (self.circuit, self.library, &self.options);
        let (run, secs) = self.meter.unit(|| {
            timed("bench.netsim.simulate_netlist", || {
                simulate_netlist(&circuit.netlist, library, &circuit.vectors[k], options)
            })
        });
        let result = match run {
            Ok(result) => result,
            Err(e) => {
                self.failed = true;
                self.report.error(format!("simulate_netlist failed: {e}"));
                return;
            }
        };
        self.report.ops(1);
        self.times[k].push(secs);
        let digest = circuit.digest(&result);
        match self.digests[k] {
            None => self.digests[k] = Some(digest),
            Some(first) => self.report.check(first == digest, || {
                format!("netsim vector {k}: a repeat differs from the first run")
            }),
        }
    }
}
