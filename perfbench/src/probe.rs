//! The isolated stepper probe: `DelayCalculator::gate_output` per cell, on
//! one thread, once on analytic ramps and once on the same ramps handed over
//! as sampled waveforms at the netsim window and `dt`. Set against netsim's
//! per-thread rates (`core.sim.steps_per_s.in_gate` and `.per_thread`), it
//! splits a gate solve's cost into the stepper itself, the sampled-input
//! interpolation, the rest of a solve in context, and the pool time spent
//! outside solves.

use crate::measure::{timed, Meter, Report};
use crate::setup::{calculator, COMB_CELLS, DT};
use mcsm_core::sim::DriveWaveform;
use mcsm_spice::waveform::Waveform;
use mcsm_sta::models::ModelLibrary;

/// Solves per cell and input form.
const REPEATS: usize = 8;
/// Output load of every probed solve (F).
const LOAD: f64 = 4e-15;

fn sampled(drive: &DriveWaveform, window: f64) -> DriveWaveform {
    let n = (window / DT).round() as usize;
    let times: Vec<f64> = (0..=n).map(|i| i as f64 * DT).collect();
    let values = times.iter().map(|&t| drive.eval(t)).collect();
    let wave = Waveform::new(times, values).expect("a uniform grid is strictly increasing");
    DriveWaveform::from_waveform(wave)
}

/// Reports `core.sim.steps_per_s.analytic` and `core.sim.steps_per_s.pwl`
/// (engine steps per second of `gate_output`); needs metrics armed for the
/// step counter.
pub fn run(library: &ModelLibrary, window: f64) -> Report {
    let mut report = Report::default();
    let vdd = library.vdd();
    let calc = calculator(vdd, window);
    for (label, pwl) in [("analytic", false), ("pwl", true)] {
        let mut seconds = 0.0;
        let mut meter = Meter::default();
        meter.unit(|| {
            for kind in COMB_CELLS {
                let store = match library.store(kind) {
                    Ok(store) => store,
                    Err(e) => {
                        report.error(format!("probe: {e}"));
                        continue;
                    }
                };
                let inputs: Vec<DriveWaveform> = (0..kind.input_count())
                    .map(|pin| {
                        let ramp =
                            DriveWaveform::falling_ramp(vdd, 1e-9 + 20e-12 * pin as f64, 80e-12);
                        if pwl {
                            sampled(&ramp, window)
                        } else {
                            ramp
                        }
                    })
                    .collect();
                for _ in 0..REPEATS {
                    let (out, secs) = timed("bench.sta.gate_output", || {
                        calc.gate_output(store, kind, &inputs, LOAD)
                    });
                    match out {
                        Ok(_) => report.ops(1),
                        Err(e) => report.error(format!("probe {} ({label}): {e}", kind.name())),
                    }
                    seconds += secs;
                }
            }
        });
        report.layer(
            &format!("core.sim.steps_per_s.{label}"),
            meter.delta("core.sim.steps") / seconds,
            "steps/s",
        );
    }
    report
}
