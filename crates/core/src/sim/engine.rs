//! Output-waveform computation from a characterized model.
//!
//! This is the run-time half of the paper: given the pre-characterized tables,
//! the input waveforms and a load, integrate the KCL equations (paper
//! Eqs. (1)–(2)) forward in time. The integration loop lives in exactly one
//! place — [`simulate`] — and is generic over [`CellModel`], so the SIS model
//! (1 pin, no state), the baseline MIS model (2 pins, no state), the complete
//! MCSM (2 pins, 1 internal node) and any future N-input model all share the
//! same sub-stepping, clamping and predictor–corrector logic. Which family runs
//! is data, not code.
//!
//! Two integration schemes are provided:
//!
//! * [`CsmIntegration::Explicit`] — the paper's update (Eqs. (4)–(5)): evaluate
//!   all tables at the previous time point and step forward;
//! * [`CsmIntegration::PredictorCorrector`] — an inexpensive refinement that
//!   re-evaluates the currents at the predicted end point and averages
//!   (trapezoidal in the current), which tolerates larger time steps.
//!
//! # One model evaluation per time step
//!
//! Each time step first *probes* the whole step (one update over `dt`) to
//! choose how many sub-steps it needs, then runs them. The update is a pure
//! function of `(pins0, pins1, state, v_out, h)`: the lookup cursors inside
//! the [`EvalState`] change how fast a table cell is found, never which one,
//! and every scratch buffer is overwritten before it is read. Two rules use
//! that to skip updates whose result is already known, with bit-identical
//! output:
//!
//! * **Probe reuse.** When the probe asks for one sub-step, that sub-step
//!   runs from `t_prev + 0.0 * h` (which is `t_prev`, so its start pins are
//!   `pins_prev`) over `h = dt / 1.0 = dt`. If its end pins also equal
//!   `pins_next` to the bit — because `t_prev + h` lands on `t_next` exactly,
//!   or because the pins evaluated at `t_prev + h` come out the same — it has
//!   exactly the probe's arguments, and the probe's clamped result is the
//!   step's result.
//! * **Fixed-point hold.** The engine keeps a one-entry memo of the last
//!   probe that asked for one sub-step: its `(pins_prev, pins_next, state,
//!   v_out)` bits and its clamped result. A later step with bit-equal
//!   arguments would probe to the same bits, so it skips the probe, and if it
//!   also passes the end-pin check above it takes the memo's result. Flat
//!   inputs at a bit-exact fixed point — a settled gate waiting for its next
//!   input event — cost no table work at all.
//!
//! [`SimResult::steps`] still counts *logical* sub-steps (the probe plus
//! every sub-step of every time step, whether run or reused), so it does not
//! depend on these rules; [`SimResult::lut_evals`] counts the lookups that
//! were actually performed.
//!
//! The entry point for callers is the [`Simulation`] builder:
//!
//! ```no_run
//! # use mcsm_core::model::McsmModel;
//! # use mcsm_core::sim::{CsmSimOptions, DriveWaveform, Simulation};
//! # fn demo(model: &McsmModel) -> Result<(), mcsm_core::CsmError> {
//! let waves = [
//!     DriveWaveform::falling_ramp(1.2, 0.2e-9, 50e-12),
//!     DriveWaveform::falling_ramp(1.2, 0.2e-9, 50e-12),
//! ];
//! let result = Simulation::of(model)
//!     .inputs(&waves)
//!     .load(4e-15)
//!     .initial_output(0.0)
//!     .options(CsmSimOptions::new(2e-9, 0.5e-12))
//!     .run()?;
//! println!("50% crossing: {:?}", result.output.crossing(0.6, true));
//! # Ok(())
//! # }
//! ```

use super::drive::DriveWaveform;
use crate::error::CsmError;
use crate::eval::{EvalMode, EvalState};
use crate::model::{CellModel, McsmModel, MisBaselineModel, SisModel};
use mcsm_num::interp::SegmentCursor;
use mcsm_spice::waveform::Waveform;
use std::sync::Arc;

/// Integration scheme for the CSM state equations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CsmIntegration {
    /// The paper's explicit update (Eq. 4 / Eq. 5).
    #[default]
    Explicit,
    /// Explicit predictor followed by one trapezoidal corrector pass.
    PredictorCorrector,
}

/// Options for a model simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CsmSimOptions {
    /// Time step (seconds). The explicit scheme needs `dt` small compared to the
    /// smallest `C / (dI/dV)` time constant; 0.5 ps is a safe default for the
    /// synthetic 130 nm library.
    pub dt: f64,
    /// Stop time (seconds); simulation starts at `t = 0`.
    pub t_stop: f64,
    /// Integration scheme.
    pub integration: CsmIntegration,
    /// Which lookup-table evaluation path the model hot loop uses. The default
    /// [`EvalMode::Fast`] runs the cursor-accelerated, allocation-free lookups;
    /// [`EvalMode::Reference`] retains the historical allocating `LutNd::eval`
    /// path, bit-identical by construction — benchmarks gate the speedup and
    /// tests pin the equality.
    pub eval: EvalMode,
}

impl CsmSimOptions {
    /// Creates options with the default explicit integration.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        CsmSimOptions {
            dt,
            t_stop,
            integration: CsmIntegration::Explicit,
            eval: EvalMode::Fast,
        }
    }

    /// The same options with the given table-evaluation mode.
    pub fn with_eval(mut self, eval: EvalMode) -> Self {
        self.eval = eval;
        self
    }

    fn validate(&self) -> Result<(), CsmError> {
        if !(self.dt > 0.0) || !(self.t_stop > 0.0) || self.t_stop < self.dt {
            return Err(CsmError::InvalidParameter(format!(
                "simulation needs 0 < dt <= t_stop (got dt = {}, t_stop = {})",
                self.dt, self.t_stop
            )));
        }
        Ok(())
    }
}

impl Default for CsmSimOptions {
    /// A 2 ns window at the 0.5 ps step used throughout the paper experiments.
    fn default() -> Self {
        CsmSimOptions::new(2e-9, 0.5e-12)
    }
}

/// Result of a generic model simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Output voltage waveform.
    pub output: Waveform,
    /// One waveform per internal state node the model tracked, in model order
    /// (empty for stateless models). Every trace shares one time vector with
    /// `output` — an N-state model does not clone the time axis N+1 times.
    pub state_traces: Vec<Waveform>,
    /// Logical engine sub-steps: the probe plus every sub-step of every time
    /// step, counted whether the update ran or its result was reused (see
    /// the module docs) — the unit the `sim_hotpath` benchmark reports as
    /// steps/sec. Independent of the reuse rules and of the eval mode.
    pub steps: u64,
    /// Component-table lookups the model actually performed during the run
    /// (a grouped lookup of `N` tables counts `N`); updates skipped by the
    /// reuse rules perform none.
    pub lut_evals: u64,
}

impl SimResult {
    /// The first internal-node waveform, if the model had one.
    pub fn internal(&self) -> Option<&Waveform> {
        self.state_traces.first()
    }
}

/// Result of an MCSM simulation: the output waveform and the internal-node
/// waveform the model tracked alongside it. Kept for the deprecated
/// [`simulate_mcsm`] wrapper; new code receives [`SimResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct McsmSimResult {
    /// Output voltage waveform.
    pub output: Waveform,
    /// Internal (stack) node voltage waveform.
    pub internal: Waveform,
}

/// Clamp helper: keeps the state inside the characterized voltage range plus a
/// little headroom so a coarse step cannot launch the explicit integration into
/// the flat extrapolation region and stall there.
fn clamp_voltage(v: f64, vdd: f64) -> f64 {
    v.clamp(-0.3, vdd + 0.3)
}

/// Largest per-(sub)step voltage change the explicit update is allowed to take.
/// The internal-node capacitance is only a couple of femtofarads, so its time
/// constant can be shorter than a comfortable output time step; sub-stepping
/// keeps the update accurate without forcing the caller to shrink `dt` globally.
const MAX_STEP_VOLTAGE: f64 = 0.02;

/// Maximum number of sub-steps one time step may be split into.
const MAX_SUBSTEPS: usize = 64;

/// Number of sub-steps needed so no state variable moves more than
/// [`MAX_STEP_VOLTAGE`] per sub-step.
fn substeps_for(deltas: &[f64]) -> usize {
    let worst = deltas.iter().fold(0.0_f64, |acc, d| acc.max(d.abs()));
    ((worst / MAX_STEP_VOLTAGE).ceil() as usize).clamp(1, MAX_SUBSTEPS)
}

/// Scratch buffers and the per-substep update shared by every model family.
///
/// One `advance` call applies the paper's explicit update (Eq. 4 for the output
/// node, Eq. 5 for each internal state node) over `h` seconds, optionally
/// refined by one trapezoidal corrector pass.
///
/// The stepper owns the model's [`EvalState`] — one lookup cursor per table
/// group — so every table query across the whole run goes through cursors
/// that follow the trajectory cell to cell (the allocation-free fast path).
struct Stepper<'m> {
    model: &'m dyn CellModel,
    load: f64,
    vdd: f64,
    corrector: bool,
    eval: EvalState,
    miller: Vec<f64>,
    state_caps: Vec<f64>,
    currents: Vec<f64>,
    pred_state: Vec<f64>,
    pred_currents: Vec<f64>,
}

impl<'m> Stepper<'m> {
    fn new(model: &'m dyn CellModel, load: f64, corrector: bool, mode: EvalMode) -> Self {
        let n_pins = model.num_pins();
        let n_state = model.num_state_nodes();
        let mut eval = model.make_eval_state();
        eval.set_mode(mode);
        Stepper {
            model,
            load,
            vdd: model.vdd(),
            corrector,
            eval,
            miller: vec![0.0; n_pins],
            state_caps: vec![0.0; n_state],
            currents: vec![0.0; 1 + n_state],
            pred_state: vec![0.0; n_state],
            pred_currents: vec![0.0; 1 + n_state],
        }
    }

    /// Advances the state from (`state`, `v_out`) over `h` seconds while the pin
    /// voltages move from `pins0` to `pins1`. Writes the (unclamped) next state
    /// into `next_state` and returns the (unclamped) next output voltage.
    fn advance(
        &mut self,
        pins0: &[f64],
        pins1: &[f64],
        state: &[f64],
        v_out: f64,
        h: f64,
        next_state: &mut [f64],
    ) -> f64 {
        let c_o = self.model.capacitances(
            &mut self.eval,
            pins0,
            state,
            v_out,
            &mut self.miller,
            &mut self.state_caps,
        );
        self.model
            .currents(&mut self.eval, pins0, state, v_out, &mut self.currents);

        let mut denom = self.load + c_o;
        let mut miller_kick = 0.0;
        for (i, &cm) in self.miller.iter().enumerate() {
            denom += cm;
            miller_kick += cm * (pins1[i] - pins0[i]);
        }
        let denom = denom.max(1e-21);

        let io_prev = self.currents[0];
        let mut v_out_next = v_out + (miller_kick - io_prev * h) / denom;
        for (j, next) in next_state.iter_mut().enumerate() {
            *next = state[j] - self.currents[1 + j] * h / self.state_caps[j].max(1e-21);
        }

        if self.corrector {
            for (j, pred) in self.pred_state.iter_mut().enumerate() {
                *pred = clamp_voltage(next_state[j], self.vdd);
            }
            let v_out_pred = clamp_voltage(v_out_next, self.vdd);
            self.model.currents(
                &mut self.eval,
                pins1,
                &self.pred_state,
                v_out_pred,
                &mut self.pred_currents,
            );
            v_out_next =
                v_out + (miller_kick - 0.5 * (io_prev + self.pred_currents[0]) * h) / denom;
            for (j, next) in next_state.iter_mut().enumerate() {
                *next = state[j]
                    - 0.5 * (self.currents[1 + j] + self.pred_currents[1 + j]) * h
                        / self.state_caps[j].max(1e-21);
            }
        }
        v_out_next
    }
}

/// Bitwise equality of two voltage vectors (so `-0.0 != 0.0` and a NaN equals
/// only its own bits: the test the reuse rules need, not numeric equality).
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The last full-step probe that needed a single sub-step: its arguments and
/// its clamped result. See the module docs ("One model evaluation per time
/// step") for why reusing it is exact.
struct ProbeMemo {
    valid: bool,
    pins_prev: Vec<f64>,
    pins_next: Vec<f64>,
    state_in: Vec<f64>,
    out_in: f64,
    /// Clamped output voltage the probe stepped to.
    out: f64,
    /// Clamped state voltages the probe stepped to.
    state: Vec<f64>,
}

impl ProbeMemo {
    fn new(n_pins: usize, n_state: usize) -> Self {
        ProbeMemo {
            valid: false,
            pins_prev: vec![0.0; n_pins],
            pins_next: vec![0.0; n_pins],
            state_in: vec![0.0; n_state],
            out_in: 0.0,
            out: 0.0,
            state: vec![0.0; n_state],
        }
    }

    /// Whether a step with these arguments is the memoized one, to the bit.
    fn matches(&self, pins_prev: &[f64], pins_next: &[f64], state: &[f64], v_out: f64) -> bool {
        self.valid
            && v_out.to_bits() == self.out_in.to_bits()
            && same_bits(state, &self.state_in)
            && same_bits(pins_prev, &self.pins_prev)
            && same_bits(pins_next, &self.pins_next)
    }

    fn store(
        &mut self,
        pins_prev: &[f64],
        pins_next: &[f64],
        state: &[f64],
        v_out: f64,
        out: f64,
        next_state: impl Iterator<Item = f64>,
    ) {
        self.valid = true;
        self.pins_prev.copy_from_slice(pins_prev);
        self.pins_next.copy_from_slice(pins_next);
        self.state_in.copy_from_slice(state);
        self.out_in = v_out;
        self.out = out;
        for (slot, v) in self.state.iter_mut().zip(next_state) {
            *slot = v;
        }
    }
}

/// Integrates any [`CellModel`] forward in time — the single engine behind
/// every model family.
///
/// * `inputs` — one drive waveform per model pin, in pin order;
/// * `load_capacitance` — the lumped load `C_L` at the output (farads);
/// * `v_out_initial` — output voltage at `t = 0`;
/// * `initial_state` — internal-state voltages at `t = 0`, or `None` to use the
///   DC equilibrium implied by the initial input/output voltages.
///
/// Prefer the [`Simulation`] builder over calling this directly.
///
/// # Errors
///
/// Returns [`CsmError::InvalidParameter`] for invalid options, a non-finite or
/// negative load, non-finite initial conditions, or input/state dimensions
/// that do not match the model.
///
/// # Panics
///
/// Panics if a drive waveform evaluates to NaN (only possible when one was
/// constructed from NaN parameters): the table layer rejects NaN coordinates
/// rather than silently clamping them.
pub fn simulate(
    model: &dyn CellModel,
    inputs: &[DriveWaveform],
    load_capacitance: f64,
    v_out_initial: f64,
    initial_state: Option<&[f64]>,
    options: &CsmSimOptions,
) -> Result<SimResult, CsmError> {
    options.validate()?;
    // Finiteness is validated up front: the table fast paths reject NaN
    // coordinates with a panic (they cannot occur from finite inputs — every
    // stored sample is finite and all updates are guarded), so a NaN smuggled
    // in through the load or initial conditions must be reported here as an
    // error, not 500 sub-steps later as an abort.
    if !(load_capacitance >= 0.0) || !load_capacitance.is_finite() {
        return Err(CsmError::InvalidParameter(format!(
            "load capacitance must be finite and non-negative, got {load_capacitance}"
        )));
    }
    if !v_out_initial.is_finite() {
        return Err(CsmError::InvalidParameter(format!(
            "initial output voltage must be finite, got {v_out_initial}"
        )));
    }
    let n_pins = model.num_pins();
    if inputs.len() != n_pins {
        return Err(CsmError::InvalidParameter(format!(
            "model `{}` has {n_pins} pins, got {} input waveforms",
            model.cell_name(),
            inputs.len()
        )));
    }
    let n_state = model.num_state_nodes();

    let vdd = model.vdd();
    let steps = (options.t_stop / options.dt).ceil() as usize;
    let dt = options.t_stop / steps as f64;

    // One segment cursor per pin: sampled drives cost O(1) amortized per
    // query, because successive queries move only a few samples forward (the
    // next time point) or back (the sub-steps restart at `t_prev`). Cursor
    // and search pick the same segment, so the values are bit-identical to
    // `DriveWaveform::eval`.
    let mut cursors = vec![SegmentCursor::new(); n_pins];
    let mut eval_pins = |t: f64, out: &mut [f64]| {
        for ((slot, drive), cursor) in out.iter_mut().zip(inputs).zip(&mut cursors) {
            *slot = drive.eval_with(cursor, t);
        }
    };

    // Pin voltages at the step's end points and at the current sub-step's.
    // `pins_next` (at `t_next`) becomes the next step's `pins_prev`: both
    // times are `k as f64 * dt` for the same `k`, so the values are the same
    // bits and need not be evaluated twice.
    let mut pins_prev = vec![0.0; n_pins];
    let mut pins_next = vec![0.0; n_pins];
    let mut pins0 = vec![0.0; n_pins];
    let mut pins1 = vec![0.0; n_pins];
    eval_pins(0.0, &mut pins_next);

    let mut v_out = v_out_initial;
    let mut state = match initial_state {
        Some(s) => {
            if s.len() != n_state {
                return Err(CsmError::InvalidParameter(format!(
                    "model `{}` has {n_state} state nodes, got {} initial values",
                    model.cell_name(),
                    s.len()
                )));
            }
            if let Some(bad) = s.iter().find(|v| !v.is_finite()) {
                return Err(CsmError::InvalidParameter(format!(
                    "initial state voltages must be finite, got {bad}"
                )));
            }
            s.to_vec()
        }
        None => {
            let mut s = vec![0.0; n_state];
            model.equilibrium_state(&pins_next, v_out_initial, &mut s);
            s
        }
    };

    let mut times = Vec::with_capacity(steps + 1);
    let mut out_values = Vec::with_capacity(steps + 1);
    let mut state_values: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); n_state];
    times.push(0.0);
    out_values.push(v_out);
    for (j, trace) in state_values.iter_mut().enumerate() {
        trace.push(state[j]);
    }

    let corrector = options.integration == CsmIntegration::PredictorCorrector;
    let mut stepper = Stepper::new(model, load_capacitance, corrector, options.eval);
    let mut probe_state = vec![0.0; n_state];
    let mut next_state = vec![0.0; n_state];
    let mut deltas = vec![0.0; 1 + n_state];
    let mut memo = ProbeMemo::new(n_pins, n_state);
    let mut substeps: u64 = 0;

    for k in 0..steps {
        let t_prev = k as f64 * dt;
        let t_next = (k + 1) as f64 * dt;
        std::mem::swap(&mut pins_prev, &mut pins_next);
        eval_pins(t_next, &mut pins_next);

        // Probe the full step to decide how finely to subdivide it: an
        // internal-node time constant can be much shorter than `dt`. A step
        // whose arguments equal the memo's to the bit is the memo's step
        // (fixed-point hold): its probe would return the same bits, and
        // only single-sub-step probes are memoized.
        let n_sub = if memo.matches(&pins_prev, &pins_next, &state, v_out) {
            1
        } else {
            let probe_out =
                stepper.advance(&pins_prev, &pins_next, &state, v_out, dt, &mut probe_state);
            deltas[0] = probe_out - v_out;
            for j in 0..n_state {
                deltas[1 + j] = probe_state[j] - state[j];
            }
            let n_sub = substeps_for(&deltas);
            if n_sub == 1 {
                memo.store(
                    &pins_prev,
                    &pins_next,
                    &state,
                    v_out,
                    clamp_voltage(probe_out, vdd),
                    probe_state.iter().map(|&v| clamp_voltage(v, vdd)),
                );
            }
            n_sub
        };
        substeps += 1 + n_sub as u64;
        let h = dt / n_sub as f64;
        for s in 0..n_sub {
            let t0 = t_prev + s as f64 * h;
            let t1 = t0 + h;
            // Sub-step 0 starts at `t_prev + 0.0 * h`, which is `t_prev` to
            // the bit; an end point that lands on `t_next` to the bit reuses
            // the probe's values too. Every other time is evaluated afresh.
            let p0: &[f64] = if s == 0 {
                &pins_prev
            } else {
                eval_pins(t0, &mut pins0);
                &pins0
            };
            let p1: &[f64] = if t1.to_bits() == t_next.to_bits() {
                &pins_next
            } else {
                eval_pins(t1, &mut pins1);
                &pins1
            };
            // Probe reuse: a lone sub-step (`h == dt`) from `pins_prev` to
            // end pins equal to `pins_next` has the probe's exact arguments,
            // so its result is the probe's (held in the memo).
            if n_sub == 1 && same_bits(p1, &pins_next) {
                v_out = memo.out;
                state.copy_from_slice(&memo.state);
                continue;
            }
            let next_out = stepper.advance(p0, p1, &state, v_out, h, &mut next_state);
            v_out = clamp_voltage(next_out, vdd);
            for j in 0..n_state {
                state[j] = clamp_voltage(next_state[j], vdd);
            }
        }

        // Divergence check: `clamp_voltage` bounds finite values but passes
        // NaN through unchanged (IEEE-754 `clamp` of NaN is NaN), so a
        // runaway explicit step must be caught here — as a descriptive error
        // the degraded-mode retry chains upstream can act on — rather than
        // leak poisoned samples into a committed waveform.
        if !v_out.is_finite() || state.iter().any(|v| !v.is_finite()) {
            return Err(CsmError::Diverged(format!(
                "cell `{}`: non-finite state at t = {:.3e} s (dt = {:.3e} s); \
                 retry with a smaller step or degraded settings",
                model.cell_name(),
                t_next,
                dt
            )));
        }

        times.push(t_next);
        out_values.push(v_out);
        for (j, trace) in state_values.iter_mut().enumerate() {
            trace.push(state[j]);
        }
    }

    let lut_evals = stepper.eval.lookups();
    mcsm_obs::counters(&[
        ("core.sim.calls", 1),
        ("core.sim.steps", substeps),
        ("core.sim.lut_evals", lut_evals),
    ]);

    // One shared time vector for the output and every state trace: an N-state
    // model must not clone the time axis N+1 times.
    let times = Arc::new(times);
    Ok(SimResult {
        output: Waveform::with_shared_times(Arc::clone(&times), out_values)?,
        state_traces: state_values
            .into_iter()
            .map(|values| Waveform::with_shared_times(Arc::clone(&times), values))
            .collect::<Result<_, _>>()?,
        steps: substeps,
        lut_evals,
    })
}

/// Builder for one model simulation — the front door of the runtime API.
///
/// Collects the inputs, load, initial conditions and stepping options, then
/// [`run`](Simulation::run)s the generic engine. Works with any [`CellModel`]
/// (concrete model structs, [`crate::selective::SelectiveModel`], or a
/// `&dyn CellModel` resolved from a [`crate::store::ModelStore`]).
#[derive(Clone)]
pub struct Simulation<'a> {
    model: &'a dyn CellModel,
    inputs: Vec<DriveWaveform>,
    load_capacitance: f64,
    v_out_initial: f64,
    initial_state: Option<Vec<f64>>,
    options: CsmSimOptions,
}

impl<'a> Simulation<'a> {
    /// Starts a simulation of `model` with no inputs, zero load, a grounded
    /// initial output, equilibrium initial state and default options.
    pub fn of(model: &'a dyn CellModel) -> Self {
        Simulation {
            model,
            inputs: Vec::new(),
            load_capacitance: 0.0,
            v_out_initial: 0.0,
            initial_state: None,
            options: CsmSimOptions::default(),
        }
    }

    /// Sets all input drive waveforms at once, in pin order.
    pub fn inputs(mut self, waves: &[DriveWaveform]) -> Self {
        self.inputs = waves.to_vec();
        self
    }

    /// Appends one input drive waveform (next pin in order).
    pub fn input(mut self, wave: impl Into<DriveWaveform>) -> Self {
        self.inputs.push(wave.into());
        self
    }

    /// Sets the lumped load capacitance at the output (farads).
    pub fn load(mut self, farads: f64) -> Self {
        self.load_capacitance = farads;
        self
    }

    /// Sets the output voltage at `t = 0`.
    pub fn initial_output(mut self, volts: f64) -> Self {
        self.v_out_initial = volts;
        self
    }

    /// Sets the internal-state voltages at `t = 0` (one per state node). When
    /// not called, the engine uses the model's DC equilibrium for the initial
    /// inputs — call this to inject input *history*, the effect the paper
    /// studies.
    pub fn initial_state(mut self, state: &[f64]) -> Self {
        self.initial_state = Some(state.to_vec());
        self
    }

    /// Sets the time stepping and integration scheme.
    pub fn options(mut self, options: CsmSimOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the generic engine.
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::InvalidParameter`] for invalid options, a negative
    /// load, or input/state dimensions that do not match the model.
    pub fn run(self) -> Result<SimResult, CsmError> {
        simulate(
            self.model,
            &self.inputs,
            self.load_capacitance,
            self.v_out_initial,
            self.initial_state.as_deref(),
            &self.options,
        )
    }
}

/// Simulates the complete MCSM (paper Eqs. (4)–(5)).
///
/// # Errors
///
/// Returns [`CsmError::InvalidParameter`] for invalid options or a negative load.
#[deprecated(
    since = "0.1.0",
    note = "use `Simulation::of(&model).inputs(..).load(..).run()` — this wrapper delegates to it"
)]
pub fn simulate_mcsm(
    model: &McsmModel,
    a: &DriveWaveform,
    b: &DriveWaveform,
    load_capacitance: f64,
    v_out_initial: f64,
    v_internal_initial: Option<f64>,
    options: &CsmSimOptions,
) -> Result<McsmSimResult, CsmError> {
    let inputs = [a.clone(), b.clone()];
    let mut sim = Simulation::of(model)
        .inputs(&inputs)
        .load(load_capacitance)
        .initial_output(v_out_initial)
        .options(options.clone());
    if let Some(v_n) = v_internal_initial {
        sim = sim.initial_state(&[v_n]);
    }
    let result = sim.run()?;
    let internal = result
        .state_traces
        .into_iter()
        .next()
        .expect("the MCSM has one internal node");
    Ok(McsmSimResult {
        output: result.output,
        internal,
    })
}

/// Simulates the baseline MIS model (no internal node, Section 3.1).
///
/// # Errors
///
/// Returns [`CsmError::InvalidParameter`] for invalid options or a negative load.
#[deprecated(
    since = "0.1.0",
    note = "use `Simulation::of(&model).inputs(..).load(..).run()` — this wrapper delegates to it"
)]
pub fn simulate_mis_baseline(
    model: &MisBaselineModel,
    a: &DriveWaveform,
    b: &DriveWaveform,
    load_capacitance: f64,
    v_out_initial: f64,
    options: &CsmSimOptions,
) -> Result<Waveform, CsmError> {
    let inputs = [a.clone(), b.clone()];
    Ok(Simulation::of(model)
        .inputs(&inputs)
        .load(load_capacitance)
        .initial_output(v_out_initial)
        .options(options.clone())
        .run()?
        .output)
}

/// Simulates the single-input-switching model (Section 2.1): only `input` drives
/// the cell; all other inputs are assumed static at their non-controlling value
/// (that assumption is baked into the SIS tables).
///
/// # Errors
///
/// Returns [`CsmError::InvalidParameter`] for invalid options or a negative load.
#[deprecated(
    since = "0.1.0",
    note = "use `Simulation::of(&model).input(..).load(..).run()` — this wrapper delegates to it"
)]
pub fn simulate_sis(
    model: &SisModel,
    input: &DriveWaveform,
    load_capacitance: f64,
    v_out_initial: f64,
    options: &CsmSimOptions,
) -> Result<Waveform, CsmError> {
    Ok(Simulation::of(model)
        .input(input.clone())
        .load(load_capacitance)
        .initial_output(v_out_initial)
        .options(options.clone())
        .run()?
        .output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::mcsm::synthetic_model;
    use crate::model::mis_baseline::synthetic_baseline;
    use crate::model::sis::synthetic_sis;

    fn mcsm_sim<'a>(
        model: &'a McsmModel,
        inputs: &[DriveWaveform],
        load: f64,
        options: &CsmSimOptions,
    ) -> Simulation<'a> {
        Simulation::of(model)
            .inputs(inputs)
            .load(load)
            .initial_output(0.0)
            .options(options.clone())
    }

    fn falling_pair() -> [DriveWaveform; 2] {
        [
            DriveWaveform::falling_ramp(1.2, 0.2e-9, 50e-12),
            DriveWaveform::falling_ramp(1.2, 0.2e-9, 50e-12),
        ]
    }

    #[test]
    fn options_validation() {
        let m = synthetic_model();
        let inputs = [DriveWaveform::dc(0.0), DriveWaveform::dc(0.0)];
        let bad = CsmSimOptions::new(0.0, 1e-12);
        assert!(mcsm_sim(&m, &inputs, 1e-15, &bad).run().is_err());
        let good = CsmSimOptions::new(1e-9, 1e-12);
        // Negative load.
        assert!(mcsm_sim(&m, &inputs, -1.0, &good).run().is_err());
        // Wrong input arity.
        assert!(Simulation::of(&m)
            .input(DriveWaveform::dc(0.0))
            .options(good.clone())
            .run()
            .is_err());
        // Wrong state dimension.
        assert!(mcsm_sim(&m, &inputs, 1e-15, &good)
            .initial_state(&[0.0, 0.0])
            .run()
            .is_err());
        // Non-finite inputs are errors, not downstream panics in the table
        // layer (regression for the NaN-rejecting locate).
        assert!(mcsm_sim(&m, &inputs, f64::NAN, &good).run().is_err());
        assert!(mcsm_sim(&m, &inputs, f64::INFINITY, &good).run().is_err());
        assert!(mcsm_sim(&m, &inputs, 1e-15, &good)
            .initial_output(f64::NAN)
            .run()
            .is_err());
        assert!(mcsm_sim(&m, &inputs, 1e-15, &good)
            .initial_state(&[f64::NAN])
            .run()
            .is_err());
    }

    #[test]
    fn mcsm_output_rises_when_inputs_fall() {
        let m = synthetic_model();
        // NOR2-like synthetic model: both inputs falling → output should rise.
        let inputs = falling_pair();
        let opts = CsmSimOptions::new(3e-9, 0.5e-12);
        let result = mcsm_sim(&m, &inputs, 2e-15, &opts).run().unwrap();
        assert!(result.output.value_at(0.0) < 0.1);
        assert!(
            result.output.final_value() > 1.0,
            "final = {}",
            result.output.final_value()
        );
        // The internal node also ends near the rail.
        assert_eq!(result.state_traces.len(), 1);
        assert!(result.internal().unwrap().final_value() > 0.8);
    }

    #[test]
    fn mcsm_initial_internal_state_matters() {
        let m = synthetic_model();
        let inputs = falling_pair();
        let opts = CsmSimOptions::new(2e-9, 0.5e-12);
        let cl = 1e-15;
        let fast = mcsm_sim(&m, &inputs, cl, &opts)
            .initial_state(&[1.2])
            .run()
            .unwrap();
        let slow = mcsm_sim(&m, &inputs, cl, &opts)
            .initial_state(&[0.2])
            .run()
            .unwrap();
        let t_fast = fast.output.crossing(0.6, true).unwrap();
        let t_slow = slow.output.crossing(0.6, true).unwrap();
        assert!(
            t_slow > t_fast,
            "discharged internal node must slow the transition ({t_slow} !> {t_fast})"
        );
    }

    #[test]
    fn fast_and_reference_eval_modes_are_bit_identical() {
        // The cursor fast path must reproduce the retained allocating
        // `LutNd::eval` path to the bit — waveforms, state traces, step count
        // and lookup count — for every model family and both integrators.
        let mcsm = synthetic_model();
        let baseline = synthetic_baseline();
        let sis = synthetic_sis();
        let models: [&dyn crate::model::CellModel; 3] = [&mcsm, &baseline, &sis];
        for model in models {
            let inputs: Vec<DriveWaveform> = (0..model.num_pins())
                .map(|_| DriveWaveform::falling_ramp(1.2, 0.2e-9, 50e-12))
                .collect();
            for integration in [CsmIntegration::Explicit, CsmIntegration::PredictorCorrector] {
                let mut opts = CsmSimOptions::new(2e-9, 1e-12);
                opts.integration = integration;
                let fast = Simulation::of(model)
                    .inputs(&inputs)
                    .load(2e-15)
                    .options(opts.clone().with_eval(EvalMode::Fast))
                    .run()
                    .unwrap();
                let reference = Simulation::of(model)
                    .inputs(&inputs)
                    .load(2e-15)
                    .options(opts.with_eval(EvalMode::Reference))
                    .run()
                    .unwrap();
                assert_eq!(
                    fast,
                    reference,
                    "{} with {integration:?}",
                    model.cell_name()
                );
                assert!(fast.steps > 0);
                assert!(fast.lut_evals > 0);
            }
        }
    }

    /// The engine loop as it reads without cursors or reuse: every pin
    /// evaluated afresh through `DriveWaveform::eval` at every end point.
    /// Returns the output samples.
    fn simulate_uncached_pins(
        model: &dyn CellModel,
        inputs: &[DriveWaveform],
        load: f64,
        v_out_initial: f64,
        options: &CsmSimOptions,
    ) -> Vec<f64> {
        let eval_pins = |t: f64| inputs.iter().map(|w| w.eval(t)).collect::<Vec<f64>>();
        let vdd = model.vdd();
        let steps = (options.t_stop / options.dt).ceil() as usize;
        let dt = options.t_stop / steps as f64;
        let n_state = model.num_state_nodes();
        let mut state = vec![0.0; n_state];
        model.equilibrium_state(&eval_pins(0.0), v_out_initial, &mut state);
        let corrector = options.integration == CsmIntegration::PredictorCorrector;
        let mut stepper = Stepper::new(model, load, corrector, options.eval);
        let (mut probe_state, mut next_state) = (vec![0.0; n_state], vec![0.0; n_state]);
        let mut deltas = vec![0.0; 1 + n_state];
        let mut v_out = v_out_initial;
        let mut out = vec![v_out];
        for k in 0..steps {
            let t_prev = k as f64 * dt;
            let t_next = (k + 1) as f64 * dt;
            let (p0, p1) = (eval_pins(t_prev), eval_pins(t_next));
            let probe_out = stepper.advance(&p0, &p1, &state, v_out, dt, &mut probe_state);
            deltas[0] = probe_out - v_out;
            for j in 0..n_state {
                deltas[1 + j] = probe_state[j] - state[j];
            }
            let n_sub = substeps_for(&deltas);
            let h = dt / n_sub as f64;
            for s in 0..n_sub {
                let t0 = t_prev + s as f64 * h;
                let (p0, p1) = (eval_pins(t0), eval_pins(t0 + h));
                let next_out = stepper.advance(&p0, &p1, &state, v_out, h, &mut next_state);
                v_out = clamp_voltage(next_out, vdd);
                for j in 0..n_state {
                    state[j] = clamp_voltage(next_state[j], vdd);
                }
            }
            out.push(v_out);
        }
        out
    }

    #[test]
    fn pin_cursors_and_reuse_match_fresh_pin_evaluation_bit_for_bit() {
        // Sampled inputs on grids finer than, equal to, coarser than and
        // misaligned with the engine step, plus analytic ones, through both
        // integrators: the per-pin cursors and the reuse of `t_prev` /
        // `t_next` values must not move a single output bit.
        let mcsm = synthetic_model();
        let sampled = |t_start: f64, grid: f64| {
            let analytic = DriveWaveform::falling_ramp(1.2, t_start, 60e-12);
            let times: Vec<f64> = (0..)
                .map(|i| 0.13e-12 + i as f64 * grid)
                .take_while(|&t| t < 1.6e-9)
                .collect();
            let values = times.iter().map(|&t| analytic.eval(t)).collect();
            DriveWaveform::from_waveform(Waveform::new(times, values).unwrap())
        };
        let cases = [
            [sampled(0.2e-9, 0.3e-12), sampled(0.21e-9, 0.7e-12)],
            [sampled(0.2e-9, 1e-12), sampled(0.25e-9, 1e-12)],
            [
                sampled(0.2e-9, 3.1e-12),
                DriveWaveform::falling_ramp(1.2, 0.2e-9, 40e-12),
            ],
            falling_pair(),
        ];
        for inputs in &cases {
            for integration in [CsmIntegration::Explicit, CsmIntegration::PredictorCorrector] {
                for dt in [1e-12, 0.7e-12] {
                    let mut opts = CsmSimOptions::new(1.5e-9, dt);
                    opts.integration = integration;
                    let engine = mcsm_sim(&mcsm, inputs, 2e-15, &opts).run().unwrap();
                    let fresh = simulate_uncached_pins(&mcsm, inputs, 2e-15, 0.0, &opts);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(engine.output.values()),
                        bits(&fresh),
                        "{integration:?}, dt {dt:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn state_traces_share_the_output_time_vector() {
        let m = synthetic_model();
        let inputs = falling_pair();
        let result = mcsm_sim(&m, &inputs, 2e-15, &CsmSimOptions::new(1e-9, 1e-12))
            .run()
            .unwrap();
        let internal = result.internal().unwrap();
        assert_eq!(result.output.times(), internal.times());
        // Same allocation, not merely equal contents.
        assert_eq!(result.output.times().as_ptr(), internal.times().as_ptr());
    }

    #[test]
    fn predictor_corrector_matches_explicit_at_small_steps() {
        let m = synthetic_model();
        let inputs = falling_pair();
        let fine = CsmSimOptions::new(2e-9, 0.2e-12);
        let mut pc = fine.clone();
        pc.integration = CsmIntegration::PredictorCorrector;
        let explicit = mcsm_sim(&m, &inputs, 2e-15, &fine).run().unwrap();
        let corrected = mcsm_sim(&m, &inputs, 2e-15, &pc).run().unwrap();
        let nrmse = corrected
            .output
            .normalized_rmse_against(&explicit.output, 1.2)
            .unwrap();
        assert!(nrmse < 0.02, "schemes diverge: nrmse = {nrmse}");
    }

    #[test]
    fn baseline_output_rises_when_inputs_fall() {
        let m = synthetic_baseline();
        let inputs = falling_pair();
        let opts = CsmSimOptions::new(3e-9, 0.5e-12);
        let result = Simulation::of(&m)
            .inputs(&inputs)
            .load(2e-15)
            .initial_output(0.0)
            .options(opts)
            .run()
            .unwrap();
        assert!(result.output.final_value() > 1.0);
        // Stateless model: no internal traces.
        assert!(result.state_traces.is_empty());
        assert!(result.internal().is_none());
    }

    #[test]
    fn sis_inverter_like_response() {
        let m = synthetic_sis();
        let opts = CsmSimOptions::new(3e-9, 0.5e-12);
        let out = Simulation::of(&m)
            .input(DriveWaveform::rising_ramp(1.2, 0.2e-9, 50e-12))
            .load(2e-15)
            .initial_output(1.2)
            .options(opts)
            .run()
            .unwrap()
            .output;
        assert!(out.value_at(0.0) > 1.1);
        assert!(out.final_value() < 0.2);
    }

    #[test]
    fn heavier_load_slows_the_transition() {
        let m = synthetic_model();
        let inputs = falling_pair();
        let opts = CsmSimOptions::new(4e-9, 0.5e-12);
        let light = mcsm_sim(&m, &inputs, 1e-15, &opts).run().unwrap();
        let heavy = mcsm_sim(&m, &inputs, 8e-15, &opts).run().unwrap();
        let t_light = light.output.crossing(0.6, true).unwrap();
        let t_heavy = heavy.output.crossing(0.6, true).unwrap();
        assert!(t_heavy > t_light);
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_wrappers_match_the_builder_bit_for_bit() {
        // The wrappers delegate to the same engine; the waveforms must be
        // identical to the last bit, not merely close.
        let mcsm = synthetic_model();
        let baseline = synthetic_baseline();
        let sis = synthetic_sis();
        let [a, b] = falling_pair();
        let opts = CsmSimOptions::new(2e-9, 0.5e-12);

        let wrapper = simulate_mcsm(&mcsm, &a, &b, 2e-15, 0.0, Some(0.4), &opts).unwrap();
        let built = mcsm_sim(&mcsm, &[a.clone(), b.clone()], 2e-15, &opts)
            .initial_state(&[0.4])
            .run()
            .unwrap();
        assert_eq!(wrapper.output, built.output);
        assert_eq!(&wrapper.internal, built.internal().unwrap());

        let wrapper = simulate_mis_baseline(&baseline, &a, &b, 2e-15, 0.0, &opts).unwrap();
        let built = Simulation::of(&baseline)
            .inputs(&[a.clone(), b.clone()])
            .load(2e-15)
            .initial_output(0.0)
            .options(opts.clone())
            .run()
            .unwrap();
        assert_eq!(wrapper, built.output);

        let rise = DriveWaveform::rising_ramp(1.2, 0.2e-9, 50e-12);
        let wrapper = simulate_sis(&sis, &rise, 2e-15, 1.2, &opts).unwrap();
        let built = Simulation::of(&sis)
            .input(rise)
            .load(2e-15)
            .initial_output(1.2)
            .options(opts)
            .run()
            .unwrap();
        assert_eq!(wrapper, built.output);
    }
}
