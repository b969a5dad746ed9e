//! Voltage-indexed lookup tables used by the current-source models.
//!
//! All model components are stored as [`LutNd`] tables over voltage axes. The
//! wrappers here fix the axis order per model family and give the query sites
//! readable names:
//!
//! * [`Table4`] — `(V_A, V_B, V_N, V_o)`, the paper's 4-dimensional MCSM tables;
//! * [`Table3`] — `(V_A, V_B, V_o)`, the baseline MIS model that ignores the
//!   internal node (Section 3.1);
//! * [`Table2`] — `(V_in, V_o)`, the single-input-switching model (Section 2.1);
//! * [`Table1`] — `(V_in)`, input pin capacitances (Eq. 3).
//!
//! # Grouped tables
//!
//! A model's hot loop reads several components at the same operating point,
//! and characterization samples them on shared grids: the current sources on
//! the current grid, the capacitances on the capacitance grid. [`Table4Group`],
//! [`Table3Group`] and [`Table2Group`] hold such a set — `N` tables over **one
//! axis set** — and [`eval_with`](Table4Group::eval_with) evaluates all of
//! them with one grid locate and one set of corner weights
//! ([`LutGroup`]), bit-identical to evaluating each table on its own. This is
//! the only table lookup the simulation hot loop performs; each group uses
//! one [`EvalState`] cursor slot. The shared-axes requirement is checked when
//! the group is built ([`Table4Group::new`]) and therefore when a model is
//! built or loaded: tables whose axes differ are rejected with an error
//! rather than silently interpolated on the wrong grid. Groups serialize as
//! their separate member tables, so stored models keep one JSON entry per
//! component.

use crate::eval::{EvalMode, EvalState};
use mcsm_num::grid::Axis;
use mcsm_num::json::{FromJson, JsonError, JsonValue, ToJson};
use mcsm_num::lut::{LutGroup, LutNd};
use mcsm_num::NumError;

macro_rules! voltage_table {
    ($(#[$doc:meta])* $name:ident, $dims:expr, [$($arg:ident),+]) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            lut: LutNd,
        }

        impl $name {
            /// Wraps a lookup table, checking its dimensionality.
            ///
            /// # Errors
            ///
            /// Returns [`NumError::InvalidQuery`] if the table does not have the
            /// expected number of axes.
            pub fn new(lut: LutNd) -> Result<Self, NumError> {
                if lut.dimensions() != $dims {
                    return Err(NumError::InvalidQuery(format!(
                        concat!(stringify!($name), " needs {} axes, got {}"),
                        $dims,
                        lut.dimensions()
                    )));
                }
                Ok(Self { lut })
            }

            /// Builds a table by sampling `f` on the given axes.
            ///
            /// # Errors
            ///
            /// Propagates grid-construction errors.
            pub fn from_fn<F: FnMut(&[f64]) -> f64>(
                axes: [Axis; $dims],
                f: F,
            ) -> Result<Self, NumError> {
                Self::new(LutNd::from_fn(axes.to_vec(), f)?)
            }

            /// Evaluates the table by multilinear interpolation
            /// (allocation-free fixed-arity fast path).
            ///
            /// # Panics
            ///
            /// Panics if any coordinate is NaN.
            pub fn eval(&self, $($arg: f64),+) -> f64 {
                self.lut
                    .eval_fixed(&[$($arg),+])
                    .expect("constructor guarantees the axis count; coordinates must be finite")
            }

            /// The underlying lookup table.
            pub fn lut(&self) -> &LutNd {
                &self.lut
            }

            /// Partial derivative along the given axis index.
            ///
            /// # Errors
            ///
            /// Returns [`NumError::InvalidQuery`] for an out-of-range axis.
            pub fn partial(&self, coords: &[f64; $dims], axis: usize) -> Result<f64, NumError> {
                self.lut.eval_partial(coords, axis)
            }
        }

        impl AsRef<LutNd> for $name {
            fn as_ref(&self) -> &LutNd {
                &self.lut
            }
        }

        impl ToJson for $name {
            fn to_json(&self) -> JsonValue {
                self.lut.to_json()
            }
        }

        impl FromJson for $name {
            fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
                let lut = LutNd::from_json(value)?;
                $name::new(lut).map_err(|e| JsonError(format!("invalid table: {e}")))
            }
        }
    };
}

macro_rules! voltage_table_group {
    ($(#[$doc:meta])* $name:ident, $table:ident, [$($arg:ident),+]) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name<const N: usize> {
            group: LutGroup<$table, N>,
        }

        impl<const N: usize> $name<N> {
            /// Groups tables that share one axis set.
            ///
            /// # Errors
            ///
            /// Returns [`NumError::InvalidGrid`] if the group is empty or any
            /// table's axes differ from the first table's.
            pub fn new(tables: [$table; N]) -> Result<Self, NumError> {
                Ok(Self {
                    group: LutGroup::new(tables)?,
                })
            }

            /// The member tables, in group order.
            pub fn tables(&self) -> &[$table; N] {
                self.group.members()
            }

            /// Evaluates every member at one point through one [`EvalState`]
            /// cursor slot: one hinted grid locate, O(1) amortized on the
            /// temporally coherent queries of a simulation run, then one
            /// corner sum per member. Counts `N` lookups. In
            /// [`EvalMode::Reference`] each member runs the allocating
            /// `LutNd::eval` instead (the oracle and benchmark baseline);
            /// both modes return the same bits.
            ///
            /// # Panics
            ///
            /// Panics if any coordinate is NaN or `slot` is out of range for
            /// the state.
            pub fn eval_with(&self, st: &mut EvalState, slot: usize, $($arg: f64),+) -> [f64; N] {
                st.count_lookups(N as u64);
                let coords = [$($arg),+];
                match st.mode() {
                    EvalMode::Fast => self.group.eval_with_cursor(st.cursor(slot), &coords),
                    EvalMode::Reference => self.group.eval_reference(&coords),
                }
                .expect("constructor guarantees the axis count; coordinates must be finite")
            }

            /// Appends one `(name, table)` JSON entry per member — the
            /// per-component layout stored models use.
            pub fn write_json(&self, names: [&str; N], out: &mut Vec<(String, JsonValue)>) {
                for (name, table) in names.iter().zip(self.tables()) {
                    out.push(((*name).to_string(), table.to_json()));
                }
            }

            /// Reads the members stored under `names` in `value` and groups
            /// them.
            ///
            /// # Errors
            ///
            /// Returns a [`JsonError`] if a member is missing or malformed, or
            /// if the members do not share one axis set.
            pub fn read_json(value: &JsonValue, names: [&str; N]) -> Result<Self, JsonError> {
                let mut tables = Vec::with_capacity(N);
                for name in names {
                    tables.push($table::from_json(value.require(name)?)?);
                }
                let tables: [$table; N] = tables
                    .try_into()
                    .expect("one table was read per name");
                Self::new(tables).map_err(|e| {
                    JsonError(format!("tables {} cannot be grouped: {e}", names.join(", ")))
                })
            }
        }
    };
}

voltage_table!(
    /// A 4-D table over `(V_A, V_B, V_N, V_o)` — the complete MCSM component shape.
    Table4,
    4,
    [v_a, v_b, v_n, v_o]
);

voltage_table!(
    /// A 3-D table over `(V_A, V_B, V_o)` — baseline MIS components (no internal node).
    Table3,
    3,
    [v_a, v_b, v_o]
);

voltage_table!(
    /// A 2-D table over `(V_in, V_o)` — single-input-switching components.
    Table2,
    2,
    [v_in, v_o]
);

voltage_table!(
    /// A 1-D table over `(V_in)` — input pin capacitances.
    Table1,
    1,
    [v_in]
);

voltage_table_group!(
    /// Components over `(V_A, V_B, V_N, V_o)` sharing one axis set — the MCSM's
    /// `[I_o, I_N]` and `[C_mA, C_mB, C_o, C_N]`.
    Table4Group,
    Table4,
    [v_a, v_b, v_n, v_o]
);

voltage_table_group!(
    /// Components over `(V_A, V_B, V_o)` sharing one axis set — the baseline
    /// MIS model's `[I_o]` and `[C_mA, C_mB, C_o]`.
    Table3Group,
    Table3,
    [v_a, v_b, v_o]
);

voltage_table_group!(
    /// Components over `(V_in, V_o)` sharing one axis set — the SIS model's
    /// `[I_o]` and `[C_m, C_o]`.
    Table2Group,
    Table2,
    [v_in, v_o]
);

/// Builds the voltage axis used by every table: `[-margin, vdd + margin]` with
/// `points` samples.
///
/// # Errors
///
/// Propagates axis-construction errors.
pub fn voltage_axis(vdd: f64, margin: f64, points: usize) -> Result<Axis, NumError> {
    Axis::voltage_with_margin(vdd, margin, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis(n: usize) -> Axis {
        Axis::uniform(0.0, 1.2, n).unwrap()
    }

    #[test]
    fn table4_round_trip() {
        let t = Table4::from_fn([axis(3), axis(3), axis(3), axis(3)], |v| {
            v[0] + 2.0 * v[1] + 3.0 * v[2] + 4.0 * v[3]
        })
        .unwrap();
        let v = t.eval(0.3, 0.6, 0.9, 1.2);
        assert!((v - (0.3 + 1.2 + 2.7 + 4.8)).abs() < 1e-12);
        assert_eq!(t.lut().dimensions(), 4);
        let d = t.partial(&[0.3, 0.6, 0.9, 1.2], 3).unwrap();
        assert!((d - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let lut2 = LutNd::from_fn(vec![axis(3), axis(3)], |v| v[0]).unwrap();
        assert!(Table4::new(lut2.clone()).is_err());
        assert!(Table3::new(lut2.clone()).is_err());
        assert!(Table2::new(lut2).is_ok());
    }

    #[test]
    fn table1_and_table2() {
        let t1 = Table1::from_fn([axis(5)], |v| 2.0 * v[0]).unwrap();
        assert!((t1.eval(0.6) - 1.2).abs() < 1e-12);
        let t2 = Table2::from_fn([axis(3), axis(3)], |v| v[0] - v[1]).unwrap();
        assert!((t2.eval(1.0, 0.25) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn voltage_axis_covers_margin() {
        let a = voltage_axis(1.2, 0.1, 5).unwrap();
        assert!((a.min() + 0.1).abs() < 1e-12);
        assert!((a.max() - 1.3).abs() < 1e-12);
        assert!(voltage_axis(1.2, 0.1, 1).is_err());
    }

    #[test]
    fn table3_partial_out_of_range() {
        let t = Table3::from_fn([axis(3), axis(3), axis(3)], |v| v[0]).unwrap();
        assert!(t.partial(&[0.1, 0.2, 0.3], 3).is_err());
    }

    #[test]
    fn grouped_eval_with_matches_eval_in_both_modes() {
        let axes = || [axis(3), axis(4), axis(3), axis(5)];
        let a = Table4::from_fn(axes(), |v| (v[0] - 0.3) * v[1] + v[2] * v[3]).unwrap();
        let b = Table4::from_fn(axes(), |v| v[0] * v[0] - v[3]).unwrap();
        let group = Table4Group::new([a.clone(), b.clone()]).unwrap();
        let mut fast = EvalState::fast(1);
        let mut reference = EvalState::fast(1);
        reference.set_mode(EvalMode::Reference);
        let mut q = [0.0, 1.2, 0.6, 0.9];
        for step in 0..50 {
            q[0] = 0.02 * step as f64;
            q[3] = 1.2 - 0.02 * step as f64;
            let want = [
                a.eval(q[0], q[1], q[2], q[3]),
                b.eval(q[0], q[1], q[2], q[3]),
            ];
            let got_fast = group.eval_with(&mut fast, 0, q[0], q[1], q[2], q[3]);
            let got_ref = group.eval_with(&mut reference, 0, q[0], q[1], q[2], q[3]);
            for i in 0..2 {
                assert_eq!(want[i].to_bits(), got_fast[i].to_bits(), "fast at {q:?}");
                assert_eq!(
                    want[i].to_bits(),
                    got_ref[i].to_bits(),
                    "reference at {q:?}"
                );
            }
        }
        assert_eq!(fast.lookups(), 100);
        assert_eq!(reference.lookups(), 100);
    }

    #[test]
    fn groups_reject_tables_on_different_axes() {
        let a = Table2::from_fn([axis(3), axis(3)], |v| v[0]).unwrap();
        let b = Table2::from_fn([axis(3), axis(4)], |v| v[1]).unwrap();
        let err = Table2Group::new([a.clone(), b.clone()]).unwrap_err();
        assert!(err.to_string().contains("member 1"), "{err}");
        assert!(Table2Group::new([a.clone(), a.clone()]).is_ok());

        // The per-component JSON layout round-trips, and a document whose
        // components disagree on their axes is rejected on load.
        let mut fields = Vec::new();
        Table2Group::new([a.clone(), a.clone()])
            .unwrap()
            .write_json(["x", "y"], &mut fields);
        let doc = JsonValue::Object(fields);
        let back = Table2Group::<2>::read_json(&doc, ["x", "y"]).unwrap();
        assert_eq!(back.tables(), &[a.clone(), a.clone()]);
        let bad = JsonValue::Object(vec![("x".into(), a.to_json()), ("y".into(), b.to_json())]);
        let err = Table2Group::<2>::read_json(&bad, ["x", "y"]).unwrap_err();
        assert!(err.to_string().contains("x, y"), "{err}");
    }

    #[test]
    fn json_round_trip() {
        let t = Table2::from_fn([axis(3), axis(3)], |v| v[0] * v[1]).unwrap();
        let text = t.to_json().to_string_pretty();
        let back = Table2::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(t, back);
        // A 2-axis document does not deserialize as a 4-D table.
        assert!(Table4::from_json(&JsonValue::parse(&text).unwrap()).is_err());
    }
}
