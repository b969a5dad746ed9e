//! The single-input-switching (SIS) current-source model of Section 2.1
//! (the model of reference \[5\] in the paper).
//!
//! One input is the switching input; every other input is assumed to sit at its
//! non-controlling value. All components depend only on `(V_in, V_o)`. The paper
//! uses this model as the second comparison point (Fig. 11): when a real MIS
//! event occurs, the SIS model is significantly wrong.

use crate::error::CsmError;
use crate::eval::EvalState;
use crate::model::CellModel;
use crate::table::{Table1, Table2, Table2Group};
use mcsm_num::json::{FromJson, JsonError, JsonValue, ToJson};

/// [`EvalState`] slot of the current group `[I_o]`.
const SLOT_CURRENTS: usize = 0;
/// [`EvalState`] slot of the capacitance group `[C_m, C_o]`.
const SLOT_CAPS: usize = 1;
/// Table groups a SIS model queries from the hot loop.
const SLOTS: usize = 2;
/// Stored names of the current group's members, in group order.
const CURRENT_NAMES: [&str; 1] = ["io"];
/// Stored names of the capacitance group's members, in group order.
const CAP_NAMES: [&str; 2] = ["cm", "c_o"];

/// A single-input-switching current-source model.
///
/// The 2-D components are held in one group per characterization grid (see
/// [`crate::table`]); the accessors ([`SisModel::io`] …) name the members.
#[derive(Debug, Clone, PartialEq)]
pub struct SisModel {
    /// Name of the characterized cell.
    pub cell_name: String,
    /// Supply voltage the model was characterized at (volts).
    pub vdd: f64,
    /// Index of the switching input pin this model was characterized for.
    pub switching_pin: usize,
    /// Logic value the non-switching inputs were held at during characterization.
    pub other_inputs_high: bool,
    /// `[I_o]`: the output current source over `(V_in, V_o)` (amps, into the
    /// cell), on the current grid.
    pub currents: Table2Group<1>,
    /// `[C_m, C_o]`: the Miller capacitance between the switching input and
    /// the output, and the output parasitic capacitance (farads), on the
    /// capacitance grid.
    pub caps: Table2Group<2>,
    /// Input pin capacitance of the switching input (farads).
    pub c_in: Table1,
}

impl SisModel {
    /// Output current source `I_o` table.
    pub fn io(&self) -> &Table2 {
        &self.currents.tables()[0]
    }

    /// Miller capacitance table between the switching input and the output.
    pub fn cm(&self) -> &Table2 {
        &self.caps.tables()[0]
    }

    /// Output parasitic capacitance table.
    pub fn c_o(&self) -> &Table2 {
        &self.caps.tables()[1]
    }

    /// Output current source (amps, into the cell).
    pub fn output_current(&self, v_in: f64, v_o: f64) -> f64 {
        self.io().eval(v_in, v_o)
    }

    /// The capacitances `(C_m, C_o)` at the given voltages.
    pub fn capacitances(&self, v_in: f64, v_o: f64) -> (f64, f64) {
        (self.cm().eval(v_in, v_o), self.c_o().eval(v_in, v_o))
    }

    /// Input pin capacitance of the switching input.
    pub fn input_capacitance(&self, v_in: f64) -> f64 {
        self.c_in.eval(v_in)
    }
}

impl CellModel for SisModel {
    fn cell_name(&self) -> &str {
        &self.cell_name
    }

    fn vdd(&self) -> f64 {
        self.vdd
    }

    fn num_pins(&self) -> usize {
        1
    }

    fn num_state_nodes(&self) -> usize {
        0
    }

    fn make_eval_state(&self) -> EvalState {
        EvalState::fast(SLOTS)
    }

    fn currents(
        &self,
        eval: &mut EvalState,
        pins: &[f64],
        _state: &[f64],
        v_out: f64,
        buf: &mut [f64],
    ) {
        [buf[0]] = self.currents.eval_with(eval, SLOT_CURRENTS, pins[0], v_out);
    }

    fn capacitances(
        &self,
        eval: &mut EvalState,
        pins: &[f64],
        _state: &[f64],
        v_out: f64,
        miller: &mut [f64],
        _state_caps: &mut [f64],
    ) -> f64 {
        let [cm, c_o] = self.caps.eval_with(eval, SLOT_CAPS, pins[0], v_out);
        miller[0] = cm;
        c_o
    }

    fn equilibrium_state(&self, _pins: &[f64], _v_out: f64, _state: &mut [f64]) {}

    fn input_capacitance(&self, pin: usize, v_in: f64) -> Result<f64, CsmError> {
        if pin != 0 {
            return Err(CsmError::InvalidParameter(format!(
                "a SIS model drives one pin; pin {pin} does not exist"
            )));
        }
        Ok(SisModel::input_capacitance(self, v_in))
    }
}

impl ToJson for SisModel {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            (
                "cell_name".into(),
                JsonValue::String(self.cell_name.clone()),
            ),
            ("vdd".into(), JsonValue::Number(self.vdd)),
            (
                "switching_pin".into(),
                JsonValue::Number(self.switching_pin as f64),
            ),
            (
                "other_inputs_high".into(),
                JsonValue::Bool(self.other_inputs_high),
            ),
        ];
        self.currents.write_json(CURRENT_NAMES, &mut fields);
        self.caps.write_json(CAP_NAMES, &mut fields);
        fields.push(("c_in".into(), self.c_in.to_json()));
        JsonValue::Object(fields)
    }
}

impl FromJson for SisModel {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(SisModel {
            cell_name: value
                .require("cell_name")?
                .as_str()
                .ok_or_else(|| JsonError("`cell_name` must be a string".into()))?
                .to_string(),
            vdd: value
                .require("vdd")?
                .as_f64()
                .ok_or_else(|| JsonError("`vdd` must be a number".into()))?,
            switching_pin: value
                .require("switching_pin")?
                .as_usize()
                .ok_or_else(|| JsonError("`switching_pin` must be an index".into()))?,
            other_inputs_high: value
                .require("other_inputs_high")?
                .as_bool()
                .ok_or_else(|| JsonError("`other_inputs_high` must be a bool".into()))?,
            currents: Table2Group::read_json(value, CURRENT_NAMES)?,
            caps: Table2Group::read_json(value, CAP_NAMES)?,
            c_in: Table1::from_json(value.require("c_in")?)?,
        })
    }
}

#[cfg(test)]
pub(crate) use tests::synthetic_sis;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::voltage_axis;

    pub(crate) fn synthetic_sis() -> SisModel {
        let vdd = 1.2;
        let axes = || {
            [
                voltage_axis(vdd, 0.1, 5).unwrap(),
                voltage_axis(vdd, 0.1, 5).unwrap(),
            ]
        };
        // Inverter-like: input high pulls output down.
        let io = Table2::from_fn(axes(), |v| {
            let (vin, vo) = (v[0], v[1]);
            1e-4 * (vin / vdd) * (vo / vdd) - 1e-4 * ((vdd - vin) / vdd) * ((vdd - vo) / vdd)
        })
        .unwrap();
        let cap = |value: f64| Table2::from_fn(axes(), move |_| value).unwrap();
        SisModel {
            cell_name: "NOR2".into(),
            vdd,
            switching_pin: 0,
            other_inputs_high: false,
            currents: Table2Group::new([io]).unwrap(),
            caps: Table2Group::new([cap(0.5e-15), cap(2e-15)]).unwrap(),
            c_in: Table1::from_fn([voltage_axis(vdd, 0.1, 3).unwrap()], |_| 1.5e-15).unwrap(),
        }
    }

    #[test]
    fn evaluation() {
        let m = synthetic_sis();
        assert!(m.output_current(1.2, 1.2) > 0.0);
        assert!(m.output_current(0.0, 0.0) < 0.0);
        let (cm, co) = m.capacitances(0.6, 0.6);
        assert!(cm > 0.0 && co > cm);
        assert!((m.input_capacitance(0.6) - 1.5e-15).abs() < 1e-20);
        assert_eq!(m.switching_pin, 0);
    }

    #[test]
    fn json_round_trip() {
        let m = synthetic_sis();
        let text = m.to_json().to_string_pretty();
        let back = SisModel::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn cell_model_trait_shape() {
        let m = synthetic_sis();
        let model: &dyn CellModel = &m;
        assert_eq!(model.num_pins(), 1);
        assert_eq!(model.num_state_nodes(), 0);
        let mut eval = model.make_eval_state();
        assert_eq!(eval.slots(), 2);
        let mut buf = [0.0];
        model.currents(&mut eval, &[1.2], &[], 1.2, &mut buf);
        assert_eq!(buf[0], m.output_current(1.2, 1.2));
        let mut miller = [0.0];
        let c_o = model.capacitances(&mut eval, &[0.6], &[], 0.6, &mut miller, &mut []);
        let (cm_direct, c_o_direct) = m.capacitances(0.6, 0.6);
        assert_eq!((miller[0], c_o), (cm_direct, c_o_direct));
        assert!(model.input_capacitance(0, 0.6).is_ok());
        assert!(model.input_capacitance(1, 0.6).is_err());
        assert!(model.representative_output_capacitance() > 0.0);
    }
}
