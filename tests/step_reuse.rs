//! One model evaluation per time step must not move a single bit.
//!
//! * Grouped table lookups (one locate, one set of corner weights, one
//!   corner sum per member) equal each member's own `LutNd::eval` for the
//!   2-, 3- and 4-D model shapes, at random points, exact grid nodes and
//!   clamped out-of-range points.
//! * `simulate` — with probe reuse and the fixed-point hold — equals an
//!   in-test copy of the engine loop that runs every probe and every
//!   sub-step through `EvalMode::Reference`, for the SIS, baseline MIS and
//!   MCSM families, both integrators, and inputs chosen to hit every branch
//!   of the reuse rules. The step count equals the copy's.
//! * Every solved gate of a netsim run equals that copy re-run on the
//!   gate's recorded input waveforms and load.

use std::collections::HashMap;

use mcsm::cells::cell::CellKind;
use mcsm::cells::tech::Technology;
use mcsm::core::config::CharacterizationConfig;
use mcsm::core::eval::{EvalMode, EvalState};
use mcsm::core::model::{CellModel, McsmModel, MisBaselineModel, SisModel};
use mcsm::core::sim::{CsmIntegration, CsmSimOptions, DriveWaveform, SimResult, Simulation};
use mcsm::core::table::{
    voltage_axis, Table1, Table2, Table2Group, Table3, Table3Group, Table4, Table4Group,
};
use mcsm::net::{scale_free_dag, NetRef, Netlist, ScaleFreeConfig};
use mcsm::netsim::{effective_load, simulate_netlist, NetsimOptions};
use mcsm::num::grid::Axis;
use mcsm::num::testrand::TestRng;
use mcsm::spice::waveform::Waveform;
use mcsm::sta::delaycalc::{DelayBackend, DelayCache, DelayCalculator};
use mcsm::sta::models::ModelLibrary;

// ---------------------------------------------------------------------------
// Grouped lookups
// ---------------------------------------------------------------------------

/// A random axis: uniform or strictly increasing with random gaps.
fn random_axis(rng: &mut TestRng) -> Axis {
    let count = 2 + rng.index(6);
    if rng.index(2) == 0 {
        let start = rng.in_range(-0.3, 0.0);
        Axis::uniform(start, start + rng.in_range(0.8, 1.6), count).unwrap()
    } else {
        let mut p = rng.in_range(-0.3, 0.0);
        let points = (0..count)
            .map(|_| {
                p += rng.in_range(0.02, 0.5);
                p
            })
            .collect();
        Axis::new(points).unwrap()
    }
}

/// One coordinate per axis: an exact grid node, a clamped out-of-range point
/// or a random interior point.
fn random_point(rng: &mut TestRng, axes: &[Axis]) -> Vec<f64> {
    axes.iter()
        .map(|axis| match rng.index(4) {
            0 => axis.points()[rng.index(axis.len())],
            1 => axis.min() - rng.in_range(0.0, 1.0),
            2 => axis.max() + rng.in_range(0.0, 1.0),
            _ => rng.in_range(axis.min(), axis.max()),
        })
        .collect()
}

/// Random table contents: a random affine trend plus per-sample noise.
fn random_values(rng: &mut TestRng) -> impl FnMut(&[f64]) -> f64 {
    let scale = rng.in_range(-1e-4, 1e-4);
    let offset = rng.in_range(-1e-15, 1e-15);
    let mut noise = TestRng::new(rng.index(1 << 30) as u64);
    move |v: &[f64]| offset + scale * v.iter().sum::<f64>() + noise.in_range(-1e-5, 1e-5)
}

fn assert_group_matches<const N: usize>(
    members: [&mcsm::num::LutNd; N],
    grouped: [f64; N],
    q: &[f64],
) {
    for (i, member) in members.iter().enumerate() {
        let want = member.eval(q).unwrap();
        assert_eq!(
            want.to_bits(),
            grouped[i].to_bits(),
            "member {i} of {N} at {q:?}"
        );
    }
}

#[test]
fn grouped_lookups_equal_per_table_eval_bit_for_bit() {
    let mut rng = TestRng::new(0x6A0C);
    for _ in 0..12 {
        // 4-D: the MCSM capacitance group.
        let axes: Vec<Axis> = (0..4).map(|_| random_axis(&mut rng)).collect();
        let arr = |axes: &[Axis]| [0, 1, 2, 3].map(|k| axes[k].clone());
        let tables: [Table4; 4] = std::array::from_fn(|_| {
            let f = random_values(&mut rng);
            Table4::from_fn(arr(&axes), f).unwrap()
        });
        let group = Table4Group::new(tables.clone()).unwrap();
        let mut st = EvalState::fast(1);
        for _ in 0..60 {
            let q = random_point(&mut rng, &axes);
            let got = group.eval_with(&mut st, 0, q[0], q[1], q[2], q[3]);
            assert_group_matches(tables.each_ref().map(Table4::lut), got, &q);
        }

        // 3-D: the baseline MIS capacitance group.
        let axes: Vec<Axis> = (0..3).map(|_| random_axis(&mut rng)).collect();
        let tables: [Table3; 3] = std::array::from_fn(|_| {
            let f = random_values(&mut rng);
            Table3::from_fn([0, 1, 2].map(|k| axes[k].clone()), f).unwrap()
        });
        let group = Table3Group::new(tables.clone()).unwrap();
        let mut st = EvalState::fast(1);
        for _ in 0..60 {
            let q = random_point(&mut rng, &axes);
            let got = group.eval_with(&mut st, 0, q[0], q[1], q[2]);
            assert_group_matches(tables.each_ref().map(Table3::lut), got, &q);
        }

        // 2-D: the SIS capacitance group.
        let axes: Vec<Axis> = (0..2).map(|_| random_axis(&mut rng)).collect();
        let tables: [Table2; 2] = std::array::from_fn(|_| {
            let f = random_values(&mut rng);
            Table2::from_fn([0, 1].map(|k| axes[k].clone()), f).unwrap()
        });
        let group = Table2Group::new(tables.clone()).unwrap();
        let mut st = EvalState::fast(1);
        for _ in 0..60 {
            let q = random_point(&mut rng, &axes);
            let got = group.eval_with(&mut st, 0, q[0], q[1]);
            assert_group_matches(tables.each_ref().map(Table2::lut), got, &q);
        }
    }
}

// ---------------------------------------------------------------------------
// The engine oracle: the loop without reuse
// ---------------------------------------------------------------------------

/// What the oracle loop produced.
struct Oracle {
    times: Vec<f64>,
    output: Vec<f64>,
    states: Vec<Vec<f64>>,
    steps: u64,
    lookups: u64,
}

fn clamp_voltage(v: f64, vdd: f64) -> f64 {
    v.clamp(-0.3, vdd + 0.3)
}

fn substeps_for(deltas: &[f64]) -> usize {
    let worst = deltas.iter().fold(0.0_f64, |acc, d| acc.max(d.abs()));
    ((worst / 0.02).ceil() as usize).clamp(1, 64)
}

/// One explicit (optionally predictor–corrected) update of the engine over
/// `h`, through the public `CellModel` surface. Returns the unclamped next
/// output and fills the unclamped next state.
#[allow(clippy::too_many_arguments)]
fn advance(
    model: &dyn CellModel,
    eval: &mut EvalState,
    load: f64,
    corrector: bool,
    p0: &[f64],
    p1: &[f64],
    state: &[f64],
    v_out: f64,
    h: f64,
    next_state: &mut [f64],
) -> f64 {
    let vdd = model.vdd();
    let n_state = model.num_state_nodes();
    let mut miller = vec![0.0; model.num_pins()];
    let mut state_caps = vec![0.0; n_state];
    let mut currents = vec![0.0; 1 + n_state];
    let c_o = model.capacitances(eval, p0, state, v_out, &mut miller, &mut state_caps);
    model.currents(eval, p0, state, v_out, &mut currents);
    let mut denom = load + c_o;
    let mut kick = 0.0;
    for (i, &cm) in miller.iter().enumerate() {
        denom += cm;
        kick += cm * (p1[i] - p0[i]);
    }
    let denom = denom.max(1e-21);
    let io_prev = currents[0];
    let mut v_next = v_out + (kick - io_prev * h) / denom;
    for j in 0..n_state {
        next_state[j] = state[j] - currents[1 + j] * h / state_caps[j].max(1e-21);
    }
    if corrector {
        let pred: Vec<f64> = next_state.iter().map(|&v| clamp_voltage(v, vdd)).collect();
        let mut pred_currents = vec![0.0; 1 + n_state];
        model.currents(
            eval,
            p1,
            &pred,
            clamp_voltage(v_next, vdd),
            &mut pred_currents,
        );
        v_next = v_out + (kick - 0.5 * (io_prev + pred_currents[0]) * h) / denom;
        for j in 0..n_state {
            next_state[j] = state[j]
                - 0.5 * (currents[1 + j] + pred_currents[1 + j]) * h / state_caps[j].max(1e-21);
        }
    }
    v_next
}

/// The engine loop with nothing reused: every time step probes the full
/// step and then runs each of its sub-steps, every pin value is evaluated
/// afresh, and every lookup takes the reference path.
fn oracle(
    model: &dyn CellModel,
    inputs: &[DriveWaveform],
    load: f64,
    v_out_initial: f64,
    initial_state: Option<&[f64]>,
    options: &CsmSimOptions,
) -> Oracle {
    let vdd = model.vdd();
    let n_state = model.num_state_nodes();
    let pins = |t: f64| inputs.iter().map(|w| w.eval(t)).collect::<Vec<f64>>();
    let steps = (options.t_stop / options.dt).ceil() as usize;
    let dt = options.t_stop / steps as f64;
    let corrector = options.integration == CsmIntegration::PredictorCorrector;
    let mut eval = model.make_eval_state();
    eval.set_mode(EvalMode::Reference);
    let mut state = match initial_state {
        Some(s) => s.to_vec(),
        None => {
            let mut s = vec![0.0; n_state];
            model.equilibrium_state(&pins(0.0), v_out_initial, &mut s);
            s
        }
    };
    let mut v_out = v_out_initial;
    let mut out = Oracle {
        times: vec![0.0],
        output: vec![v_out],
        states: state.iter().map(|&v| vec![v]).collect(),
        steps: 0,
        lookups: 0,
    };
    let mut probe_state = vec![0.0; n_state];
    let mut next_state = vec![0.0; n_state];
    for k in 0..steps {
        let t_prev = k as f64 * dt;
        let t_next = (k + 1) as f64 * dt;
        let probe_out = advance(
            model,
            &mut eval,
            load,
            corrector,
            &pins(t_prev),
            &pins(t_next),
            &state,
            v_out,
            dt,
            &mut probe_state,
        );
        let mut deltas = vec![probe_out - v_out];
        deltas.extend(probe_state.iter().zip(&state).map(|(p, s)| p - s));
        let n_sub = substeps_for(&deltas);
        out.steps += 1 + n_sub as u64;
        let h = dt / n_sub as f64;
        for s in 0..n_sub {
            let t0 = t_prev + s as f64 * h;
            let next_out = advance(
                model,
                &mut eval,
                load,
                corrector,
                &pins(t0),
                &pins(t0 + h),
                &state,
                v_out,
                h,
                &mut next_state,
            );
            v_out = clamp_voltage(next_out, vdd);
            for j in 0..n_state {
                state[j] = clamp_voltage(next_state[j], vdd);
            }
        }
        out.times.push(t_next);
        out.output.push(v_out);
        for (trace, &v) in out.states.iter_mut().zip(&state) {
            trace.push(v);
        }
    }
    out.lookups = eval.lookups();
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_matches_oracle(result: &SimResult, oracle: &Oracle, what: &str) {
    assert_eq!(
        bits(result.output.times()),
        bits(&oracle.times),
        "{what}: times"
    );
    assert_eq!(
        bits(result.output.values()),
        bits(&oracle.output),
        "{what}: output"
    );
    assert_eq!(
        result.state_traces.len(),
        oracle.states.len(),
        "{what}: traces"
    );
    for (trace, want) in result.state_traces.iter().zip(&oracle.states) {
        assert_eq!(bits(trace.values()), bits(want), "{what}: state trace");
    }
    assert_eq!(result.steps, oracle.steps, "{what}: logical step count");
}

// ---------------------------------------------------------------------------
// Synthetic models (analytic tables; the equality under test is exact, so
// the tables only need realistic shapes)
// ---------------------------------------------------------------------------

const VDD: f64 = 1.2;

fn axis() -> Axis {
    voltage_axis(VDD, 0.1, 6).unwrap()
}

fn cin(value: f64) -> Table1 {
    Table1::from_fn([voltage_axis(VDD, 0.1, 3).unwrap()], move |_| value).unwrap()
}

/// A NOR2-like MCSM whose pull-up strength depends on the stack node.
fn mcsm_model() -> McsmModel {
    let axes = || [axis(), axis(), axis(), axis()];
    let io = Table4::from_fn(axes(), |v| {
        let (va, vb, vn, vo) = (v[0], v[1], v[2], v[3]);
        let stack = 0.25 + 0.75 * (vn / VDD).clamp(0.0, 1.0);
        1e-4 * ((va / VDD).max(0.0) + (vb / VDD).max(0.0)) * (vo / VDD)
            - 1e-4
                * (1.0 - va / VDD).max(0.0)
                * (1.0 - vb / VDD).max(0.0)
                * ((VDD - vo) / VDD)
                * stack
    })
    .unwrap();
    let i_n = Table4::from_fn(axes(), |v| {
        let (va, vb, vn, vo) = (v[0], v[1], v[2], v[3]);
        (1.0 - vb / VDD).max(0.0) * (vn - VDD) * 1e-4 / VDD
            + (1.0 - va / VDD).max(0.0) * (vn - vo) * 1e-4 / VDD
    })
    .unwrap();
    let cap = |c: f64, slope: f64| {
        Table4::from_fn(axes(), move |v| c * (1.0 + slope * (v[3] - 0.6))).unwrap()
    };
    McsmModel {
        cell_name: "NOR2".into(),
        vdd: VDD,
        currents: Table4Group::new([io, i_n]).unwrap(),
        caps: Table4Group::new([
            cap(0.5e-15, 0.1),
            cap(0.4e-15, -0.1),
            cap(2e-15, 0.2),
            cap(0.6e-15, 0.0),
        ])
        .unwrap(),
        c_in_a: cin(1.5e-15),
        c_in_b: cin(1.4e-15),
    }
}

fn mis_model() -> MisBaselineModel {
    let axes = || [axis(), axis(), axis()];
    let io = Table3::from_fn(axes(), |v| {
        let (va, vb, vo) = (v[0], v[1], v[2]);
        1e-4 * ((va + vb) / VDD) * (vo / VDD)
            - 1e-4 * ((VDD - va) / VDD) * ((VDD - vb) / VDD) * ((VDD - vo) / VDD)
    })
    .unwrap();
    let cap = |c: f64| Table3::from_fn(axes(), move |v| c * (1.0 + 0.1 * v[2])).unwrap();
    MisBaselineModel {
        cell_name: "NOR2".into(),
        vdd: VDD,
        currents: Table3Group::new([io]).unwrap(),
        caps: Table3Group::new([cap(0.5e-15), cap(0.4e-15), cap(2e-15)]).unwrap(),
        c_in_a: cin(1.5e-15),
        c_in_b: cin(1.4e-15),
    }
}

fn sis_model() -> SisModel {
    let axes = || [axis(), axis()];
    let io = Table2::from_fn(axes(), |v| {
        let (vin, vo) = (v[0], v[1]);
        1e-4 * (vin / VDD) * (vo / VDD) - 1e-4 * ((VDD - vin) / VDD) * ((VDD - vo) / VDD)
    })
    .unwrap();
    let cap = |c: f64| Table2::from_fn(axes(), move |v| c * (1.0 - 0.1 * v[1])).unwrap();
    SisModel {
        cell_name: "INV".into(),
        vdd: VDD,
        switching_pin: 0,
        other_inputs_high: false,
        currents: Table2Group::new([io]).unwrap(),
        caps: Table2Group::new([cap(0.5e-15), cap(2e-15)]).unwrap(),
        c_in: cin(1.5e-15),
    }
}

/// A sampled copy of a falling ramp on a grid misaligned with every engine
/// step used below, so samples fall strictly inside steps.
fn sampled_ramp(t_start: f64, grid: f64) -> DriveWaveform {
    let analytic = DriveWaveform::falling_ramp(VDD, t_start, 60e-12);
    let times: Vec<f64> = (0..)
        .map(|i| 0.13e-12 + i as f64 * grid)
        .take_while(|&t| t < 1.6e-9)
        .collect();
    let values = times.iter().map(|&t| analytic.eval(t)).collect();
    DriveWaveform::from_waveform(Waveform::new(times, values).unwrap())
}

/// A flat input that steps once, by a sampled edge whose only interior
/// sample sits strictly inside one engine step: the end-point pins of that
/// step must be evaluated, and they differ from the step's `t_next` value.
fn sampled_step_inside(t_edge: f64) -> DriveWaveform {
    let times = vec![0.0, t_edge, t_edge + 1e-15, 1.6e-9];
    let values = vec![VDD, VDD, 0.0, 0.0];
    DriveWaveform::from_waveform(Waveform::new(times, values).unwrap())
}

/// Input cases for a model with `pins` pins, with the output voltage each
/// starts from: analytic ramps, sampled ramps, DC-then-ramp (a settled
/// stretch, then an edge), and a sampled edge inside one step.
fn input_cases(pins: usize) -> Vec<(&'static str, Vec<DriveWaveform>, f64)> {
    let pick = |all: [DriveWaveform; 2]| all[..pins].to_vec();
    vec![
        (
            "analytic ramps",
            pick([
                DriveWaveform::falling_ramp(VDD, 0.2e-9, 50e-12),
                DriveWaveform::falling_ramp(VDD, 0.23e-9, 70e-12),
            ]),
            0.0,
        ),
        (
            "sampled ramps",
            pick([
                sampled_ramp(0.2e-9, 0.7e-12),
                sampled_ramp(0.21e-9, 3.1e-12),
            ]),
            0.0,
        ),
        (
            "DC then ramp",
            pick([
                DriveWaveform::rising_ramp(VDD, 0.9e-9, 50e-12),
                DriveWaveform::dc(0.0),
            ]),
            VDD,
        ),
        (
            "sampled edge inside a step",
            pick([
                sampled_step_inside(0.40037e-9),
                DriveWaveform::falling_ramp(VDD, 0.3e-9, 40e-12),
            ]),
            0.0,
        ),
    ]
}

#[test]
fn simulate_equals_the_loop_without_reuse_for_every_family_and_integrator() {
    let mcsm = mcsm_model();
    let mis = mis_model();
    let sis = sis_model();
    let models: [&dyn CellModel; 3] = [&mcsm, &mis, &sis];
    for model in models {
        for (name, inputs, v0) in input_cases(model.num_pins()) {
            for integration in [CsmIntegration::Explicit, CsmIntegration::PredictorCorrector] {
                for dt in [1e-12, 0.7e-12] {
                    let mut options = CsmSimOptions::new(1.5e-9, dt);
                    options.integration = integration;
                    let want = oracle(model, &inputs, 2e-15, v0, None, &options);
                    for mode in [EvalMode::Fast, EvalMode::Reference] {
                        let got = Simulation::of(model)
                            .inputs(&inputs)
                            .load(2e-15)
                            .initial_output(v0)
                            .options(options.clone().with_eval(mode))
                            .run()
                            .unwrap();
                        let what = format!(
                            "{} / {name} / {integration:?} / dt {dt:e} / {mode:?}",
                            model.cell_name()
                        );
                        assert_matches_oracle(&got, &want, &what);
                        assert!(
                            got.lut_evals < want.lookups,
                            "{what}: reuse saved no lookups ({} vs {})",
                            got.lut_evals,
                            want.lookups
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_settled_gate_costs_no_lookups_until_an_input_moves() {
    // Inputs low and the output high: every family settles to a bit-exact
    // fixed point, where the hold answers each step with no probe and no
    // sub-step. Probe reuse alone still pays one update per step — half the
    // oracle's lookups — so fewer than half shows the hold engaged. A late
    // edge on pin A must then break the hold and switch the output.
    let mcsm = mcsm_model();
    let mis = mis_model();
    let sis = sis_model();
    let models: [&dyn CellModel; 3] = [&mcsm, &mis, &sis];
    for model in models {
        let inputs = [
            DriveWaveform::rising_ramp(VDD, 6e-9, 50e-12),
            DriveWaveform::dc(0.0),
        ][..model.num_pins()]
            .to_vec();
        for integration in [CsmIntegration::Explicit, CsmIntegration::PredictorCorrector] {
            let mut options = CsmSimOptions::new(8e-9, 1e-12);
            options.integration = integration;
            let want = oracle(model, &inputs, 2e-15, VDD, None, &options);
            let got = Simulation::of(model)
                .inputs(&inputs)
                .load(2e-15)
                .initial_output(VDD)
                .options(options)
                .run()
                .unwrap();
            let what = format!("{} / {integration:?}", model.cell_name());
            assert_matches_oracle(&got, &want, &what);
            assert!(
                got.lut_evals * 2 < want.lookups,
                "{what}: the hold did not engage ({} of {} lookups)",
                got.lut_evals,
                want.lookups
            );
            assert!(
                got.output.final_value() < 0.2,
                "{what}: the output did not switch after the edge"
            );
        }
    }
}

#[test]
fn stiff_steps_that_need_sub_steps_are_run_not_reused() {
    // The stack node starts far from its equilibrium and its capacitance is
    // small, so early probes move it by far more than the per-sub-step limit
    // and the engine must split those steps (`n_sub > 1`).
    let mcsm = mcsm_model();
    let inputs = [
        DriveWaveform::falling_ramp(VDD, 0.3e-9, 50e-12),
        DriveWaveform::dc(0.0),
    ];
    for integration in [CsmIntegration::Explicit, CsmIntegration::PredictorCorrector] {
        for dt in [2e-12, 5e-12] {
            let mut options = CsmSimOptions::new(1.5e-9, dt);
            options.integration = integration;
            let want = oracle(&mcsm, &inputs, 1e-15, 0.0, Some(&[0.0]), &options);
            let time_steps = (want.times.len() - 1) as u64;
            assert!(
                want.steps > 2 * time_steps,
                "the case must force sub-stepping ({} logical steps over {time_steps})",
                want.steps
            );
            let got = Simulation::of(&mcsm)
                .inputs(&inputs)
                .load(1e-15)
                .initial_state(&[0.0])
                .options(options)
                .run()
                .unwrap();
            assert_matches_oracle(&got, &want, &format!("stiff / {integration:?} / dt {dt:e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Netsim: every solved gate against the oracle
// ---------------------------------------------------------------------------

fn library() -> ModelLibrary {
    ModelLibrary::characterize(
        &Technology::cmos_130nm(),
        &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
        &CharacterizationConfig::coarse(),
    )
    .unwrap()
}

/// Half the primary inputs switch (staggered ramps, both directions); the
/// rest hold DC.
fn drives(netlist: &Netlist, vdd: f64, rng: &mut TestRng) -> HashMap<NetRef, DriveWaveform> {
    netlist
        .primary_inputs()
        .iter()
        .map(|&pi| {
            let high = rng.index(2) == 0;
            let drive = if rng.index(2) == 0 {
                let t = 0.3e-9 + rng.in_range(0.0, 80e-12);
                if high {
                    DriveWaveform::falling_ramp(vdd, t, 60e-12)
                } else {
                    DriveWaveform::rising_ramp(vdd, t, 60e-12)
                }
            } else {
                DriveWaveform::dc(if high { vdd } else { 0.0 })
            };
            (pi, drive)
        })
        .collect()
}

#[test]
fn every_solved_netsim_gate_equals_the_oracle_on_its_recorded_inputs() {
    let library = library();
    let vdd = library.vdd();
    let netlist = scale_free_dag(&ScaleFreeConfig {
        gates: 150,
        inputs: 24,
        seed: 5,
    });
    let levels = netlist.levels().level_count();
    let window = 1.5e-9 + 0.1e-9 * levels as f64;
    let po_load = 2e-15;
    let sim = CsmSimOptions::new(window, 2e-12);
    let calculator = DelayCalculator::new(DelayBackend::CompleteMcsm, sim.clone(), vdd);
    let input_drives = drives(&netlist, vdd, &mut TestRng::new(0x5EED));
    // A zero event threshold solves every gate and hands each fanout the
    // solved waveform itself, so a gate's recorded inputs are exactly the
    // waveforms of its input nets.
    let result = simulate_netlist(
        &netlist,
        &library,
        &input_drives,
        &NetsimOptions::new(calculator, po_load).with_event_threshold(0.0),
    )
    .unwrap();
    assert_eq!(result.stats().gates_simulated, netlist.gate_count());

    let cache = DelayCache::new();
    let mut sub_stepped = 0;
    // (performed, oracle) lookups of the 1- and 2-input gates.
    let mut lookups = [(0u64, 0u64); 2];
    for gate in netlist.gate_refs() {
        let kind = netlist.gate_kind(gate);
        let inputs: Vec<DriveWaveform> = netlist
            .inputs_of(gate)
            .iter()
            .map(|net| match input_drives.get(net) {
                Some(drive) => drive.clone(),
                None => DriveWaveform::from_waveform(result.waveform(*net).unwrap().clone()),
            })
            .collect();
        let output = netlist.output_of(gate);
        let load = effective_load(&netlist, &library, &cache, output, po_load).unwrap();
        let logic: Vec<bool> = inputs
            .iter()
            .map(|d| d.initial_value() > 0.5 * vdd)
            .collect();
        let v_out_initial = if kind.evaluate(&logic) { vdd } else { 0.0 };
        let store = library.store(kind).unwrap();
        let model: &dyn CellModel = if kind.input_count() == 1 {
            store.sis_for_pin(0).unwrap()
        } else {
            store.mcsm.as_ref().unwrap()
        };
        let want = oracle(model, &inputs, load, v_out_initial, None, &sim);
        // The netsim result keeps only waveforms; a re-run of the engine on
        // the same inputs reports the step and lookup counts.
        let rerun = Simulation::of(model)
            .inputs(&inputs)
            .load(load)
            .initial_output(v_out_initial)
            .options(sim.clone())
            .run()
            .unwrap();
        assert_eq!(rerun.steps, want.steps);
        let slot = &mut lookups[kind.input_count() - 1];
        slot.0 += rerun.lut_evals;
        slot.1 += want.lookups;
        if want.steps > 2 * (want.times.len() as u64 - 1) {
            sub_stepped += 1;
        }
        let got = result.waveform(output).unwrap();
        let name = netlist.net_name(output);
        assert_eq!(bits(got.times()), bits(&want.times), "{name}: times");
        assert_eq!(bits(got.values()), bits(&want.output), "{name}: output");
    }
    assert!(sub_stepped > 0, "no gate needed sub-steps");
    for (performed, oracle) in lookups {
        assert!(
            performed * 10 < oracle * 6,
            "reuse saved too little: {performed} of {oracle} lookups"
        );
    }
}
