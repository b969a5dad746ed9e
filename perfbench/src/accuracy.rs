//! The SPICE oracle: netsim with the timed library, backend and `dt` against
//! a transistor-level transient of the same circuit, on c17 plus four
//! 12-gate `random_dag`s (generator seeds 1–4), each under five stimulus
//! vectors whose primary inputs all fall with `--seed`-drawn skews.
//! Deterministic for a given seed.
//!
//! The worst error is an extreme over input alignments: over one random DAG
//! and one vector it swung ninefold with the skews, and over five circuits
//! and one vector each it still moved by a third from seed to seed; with
//! three vectors, by up to a fifth. Five vectors per circuit find the worst
//! alignments on almost every seed.

use crate::measure::{timed, Report};
use crate::setup::{calculator, DT};
use mcsm_cells::tech::Technology;
use mcsm_core::sim::DriveWaveform;
use mcsm_net::{c17, random_dag, DagConfig, Netlist};
use mcsm_netsim::{simulate_netlist, NetsimOptions};
use mcsm_num::testrand::TestRng;
use mcsm_spice::analysis::{transient, TranOptions};
use mcsm_spice::source::SourceWaveform;
use mcsm_sta::models::ModelLibrary;

/// Accuracy bound on the worst gate-output NRMSE (share of Vdd); the same
/// bound the c17 netsim-vs-SPICE integration test pins.
pub const NRMSE_BOUND: f64 = 0.15;
/// Accuracy bound on the worst 50 %-crossing error (s), as in that test.
pub const ARRIVAL_BOUND: f64 = 60e-12;
/// Simulation window of both sides (s).
const WINDOW: f64 = 3.5e-9;
/// Random DAGs checked next to c17.
const DAGS: u64 = 4;
/// Stimulus vectors per circuit.
const VECTORS: usize = 5;

/// Worst NRMSE and worst crossing error of one circuit, or a description of
/// the first failure.
fn compare(
    netlist: &Netlist,
    library: &ModelLibrary,
    threads: usize,
    rng: &mut TestRng,
) -> Result<(f64, f64), String> {
    let vdd = library.vdd();
    let starts: Vec<f64> = netlist
        .primary_inputs()
        .iter()
        .map(|_| 1e-9 + rng.in_range(0.0, 80e-12))
        .collect();
    let drives = netlist
        .primary_inputs()
        .iter()
        .zip(&starts)
        .map(|(&pi, &t)| (pi, DriveWaveform::falling_ramp(vdd, t, 80e-12)))
        .collect();
    // No primary-output load: the SPICE lowering's outputs see only their
    // own devices.
    let options = NetsimOptions::new(calculator(vdd, WINDOW), 0.0).with_threads(threads);
    let (result, _) = timed("bench.netsim.simulate_netlist", || {
        simulate_netlist(netlist, library, &drives, &options)
    });
    let result = result.map_err(|e| format!("{}: netsim failed: {e}", netlist.name()))?;

    let technology = Technology::cmos_130nm();
    let mut lowered = netlist
        .to_spice_circuit(&technology)
        .map_err(|e| format!("{}: lowering failed: {e}", netlist.name()))?;
    for (&(_, source), &t) in lowered.input_sources.clone().iter().zip(&starts) {
        lowered
            .circuit
            .set_vsource_waveform(source, SourceWaveform::falling_ramp(vdd, t, 80e-12))
            .map_err(|e| e.to_string())?;
    }
    let (spice, _) = timed("bench.spice.transient", || {
        transient(&lowered.circuit, &TranOptions::new(WINDOW, DT))
    });
    let spice = spice.map_err(|e| format!("{}: SPICE failed: {e}", netlist.name()))?;

    let (mut nrmse_max, mut arrival_max) = (0.0f64, 0.0f64);
    for net in netlist.net_refs() {
        if netlist.driver_of(net).is_none() {
            continue;
        }
        let name = netlist.net_name(net);
        let mine = result
            .waveform(net)
            .ok_or_else(|| format!("{name}: no netsim waveform"))?;
        let theirs = spice.node(name).map_err(|e| e.to_string())?;
        let grid = mine.merge_time_grids(theirs);
        let nrmse = mine
            .resample_onto(&grid)
            .and_then(|m| m.normalized_rmse_against(&theirs.resample_onto(&grid)?, vdd))
            .map_err(|e| e.to_string())?;
        nrmse_max = nrmse_max.max(nrmse);
        // Arrivals are compared on full transitions (SPICE ends on the other
        // side of mid-rail); a glitch that only one side pushes past 50 %
        // has no arrival, and its shape error is in the NRMSE.
        let half = 0.5 * vdd;
        let level = |w: &mcsm_spice::waveform::Waveform, i: usize| w.values()[i] > half;
        let (last_mine, last_spice) = (mine.len() - 1, theirs.len() - 1);
        if level(mine, last_mine) != level(theirs, last_spice) {
            return Err(format!(
                "{name}: settles at a different logic level than SPICE"
            ));
        }
        if level(theirs, 0) != level(theirs, last_spice) {
            let rising = level(theirs, last_spice);
            let t_spice = theirs.crossing(half, rising);
            let t_mine = mine.crossing(half, rising);
            match (t_mine, t_spice) {
                (Some(a), Some(b)) => arrival_max = arrival_max.max((a - b).abs()),
                _ => return Err(format!("{name}: no 50 % crossing to compare")),
            }
        }
    }
    Ok((nrmse_max, arrival_max))
}

/// Runs both comparisons and reports `spice_nrmse_max` and
/// `spice_arrival_err_ps`, each checked against its bound.
pub fn run(library: &ModelLibrary, seed: u64, threads: usize) -> Report {
    let mut report = Report::default();
    let mut rng = TestRng::new(seed);
    let circuits = std::iter::once(c17())
        .chain((1..=DAGS).map(|dag| random_dag(&DagConfig::with_gate_budget(12, dag))));
    let (mut nrmse, mut arrival) = (0.0f64, 0.0f64);
    for netlist in circuits {
        for _ in 0..VECTORS {
            match compare(&netlist, library, threads, &mut rng) {
                Ok((n, a)) => {
                    report.ops(1);
                    nrmse = nrmse.max(n);
                    arrival = arrival.max(a);
                }
                Err(e) => report.error(e),
            }
        }
    }
    report.check(nrmse <= NRMSE_BOUND, || {
        format!("SPICE NRMSE {nrmse:.4} exceeds the {NRMSE_BOUND} bound")
    });
    report.check(arrival <= ARRIVAL_BOUND, || {
        format!(
            "SPICE arrival error {:.2} ps exceeds the {:.0} ps bound",
            arrival * 1e12,
            ARRIVAL_BOUND * 1e12
        )
    });
    report.e2e("spice_nrmse_max", nrmse, "ratio");
    report.e2e("spice_arrival_err_ps", arrival * 1e12, "ps");
    report
}
