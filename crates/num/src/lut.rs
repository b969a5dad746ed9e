//! N-dimensional lookup tables with multilinear interpolation.
//!
//! The heart of a current-source model is a set of pre-characterized tables:
//! the paper stores `I_o`, `I_N`, `C_mA`, `C_mB`, `C_o` and `C_N` as
//! **4-dimensional** tables over `(V_A, V_B, V_N, V_o)` and evaluates them by
//! interpolation at simulation time (Section 3.3). [`LutNd`] is that container,
//! generic over the number of axes so the same type also serves the 2-D tables
//! of the single-input-switching model and the 1-D input-capacitance tables.
//!
//! # The allocation-free fast path
//!
//! [`LutNd::eval`] is the *reference* evaluator: it heap-allocates its locate
//! buffers and binary-searches every axis on every call. Table evaluation sits
//! under every explicit/predictor–corrector sub-step of the simulation engine
//! (paper Eqs. (4)–(5)), so hot code uses the allocation-free family instead,
//! all of which are **bit-identical** to `eval` (same containing cells, same
//! corner order, same arithmetic):
//!
//! * [`LutNd::eval_with_cursor`] — the cursor fast path (below), what the
//!   simulation engine's per-run scratch rides on;
//! * [`LutNd::eval_fixed`] — fixed-arity, stack-only evaluation with
//!   precomputed axis strides; the typed voltage tables in `mcsm-core`
//!   evaluate through it. [`LutNd::eval1`] … [`LutNd::eval4`] are arity-named
//!   conveniences over it;
//! * [`LutNd::eval_into`] — generic arity with small fixed buffers, for
//!   callers whose dimensionality is only known at run time.
//!
//! # Lookup cursors and the coherence assumption
//!
//! A [`LutCursor`] remembers the last containing cell per axis. Consecutive
//! simulation sub-steps move node voltages by at most a fraction of a grid
//! cell, so the next query almost always lands in the **same or an adjacent
//! cell**: the cursor re-locates by a bounded neighbor walk (O(1) amortized)
//! and only falls back to a full locate — analytic for uniform axes, binary
//! search otherwise — when the query jumps more than two cells at once (e.g.
//! a fresh transition re-starting from a rail, or one cursor shared between
//! unrelated query streams). The fallback is the only cost of a cold or
//! wrongly-hinted cursor; results never depend on the hint.
//!
//! # Grouped tables
//!
//! A cell model reads several components at one operating point — the MCSM's
//! two current sources on the current grid, its four capacitances on the
//! capacitance grid. Locating the point and forming the corner weights depend
//! only on the axes, so a [`LutGroup`] of tables sharing one axis set does
//! both once per query and then takes one corner sum per member. Every member
//! value is bit-identical to that member's own [`LutNd::eval`].

use crate::error::NumError;
use crate::grid::Axis;
use crate::json::{FromJson, JsonError, JsonValue, ToJson};

/// Largest dimensionality served by the stack-only fast paths; higher-arity
/// tables transparently fall back to the allocating reference evaluator.
pub const MAX_FAST_DIMS: usize = 8;

/// A per-table lookup cursor: the last containing cell on every axis.
///
/// Feed it to [`LutNd::eval_with_cursor`] to make repeated, temporally
/// coherent queries O(1) amortized instead of O(log n) per axis. A cursor
/// holds no reference to its table — it is a plain hint, cheap to create and
/// `Copy` — and a stale or wrong hint only costs a fallback locate, never a
/// wrong result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LutCursor {
    cells: [usize; MAX_FAST_DIMS],
}

impl LutCursor {
    /// A cold cursor (hints at the first cell of every axis).
    pub fn new() -> Self {
        LutCursor::default()
    }
}

/// An N-dimensional lookup table evaluated by multilinear interpolation.
///
/// Data is stored in row-major order over the axes: the index of the sample at
/// grid coordinates `(i_0, i_1, …, i_{d-1})` is
/// `((i_0 * n_1 + i_1) * n_2 + i_2) * … + i_{d-1}`.
///
/// Queries outside the grid range are clamped to the boundary (flat
/// extrapolation), which is the conservative behaviour expected from
/// characterized device tables: beyond the characterized voltage range the
/// table holds its boundary value rather than extrapolating a slope that was
/// never measured.
///
/// # Example
///
/// ```
/// use mcsm_num::{grid::Axis, lut::LutNd};
///
/// # fn main() -> Result<(), mcsm_num::NumError> {
/// let axes = vec![
///     Axis::uniform(0.0, 1.0, 5)?,
///     Axis::uniform(0.0, 2.0, 5)?,
/// ];
/// // f(x, y) = 3 x - y is affine, so multilinear interpolation is exact.
/// let lut = LutNd::from_fn(axes, |v| 3.0 * v[0] - v[1])?;
/// assert!((lut.eval(&[0.3, 1.1])? - (0.9 - 1.1)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LutNd {
    axes: Vec<Axis>,
    values: Vec<f64>,
    /// Row-major strides per axis, precomputed at construction for the
    /// allocation-free evaluators (`strides[k]` = product of the axis lengths
    /// after `k`). Deterministic from `axes`, so derived equality is unaffected.
    strides: Vec<usize>,
}

fn compute_strides(axes: &[Axis]) -> Vec<usize> {
    let mut strides = vec![1usize; axes.len()];
    for k in (0..axes.len().saturating_sub(1)).rev() {
        strides[k] = strides[k + 1] * axes[k + 1].len();
    }
    strides
}

fn nan_query_error(axis: usize) -> NumError {
    NumError::InvalidQuery(format!("lut query coordinate for axis {axis} is NaN"))
}

impl LutNd {
    /// Wraps already-validated parts, computing the cached strides.
    fn from_parts(axes: Vec<Axis>, values: Vec<f64>) -> Self {
        let strides = compute_strides(&axes);
        LutNd {
            axes,
            values,
            strides,
        }
    }

    fn check_arity(&self, got: usize) -> Result<(), NumError> {
        if got != self.axes.len() {
            return Err(NumError::InvalidQuery(format!(
                "expected {} coordinates, got {got}",
                self.axes.len()
            )));
        }
        Ok(())
    }

    /// Sum over the `2^d` corners of the located cell, `base`/`frac` holding
    /// the containing cell and in-cell offset per axis. Same corner order,
    /// weight-product order and skip rule as the reference [`LutNd::eval`]
    /// loop, so every caller is bit-identical to it.
    fn corner_sum(&self, base: &[usize], frac: &[f64]) -> f64 {
        let d = base.len();
        let corners = 1usize << d;
        let mut acc = 0.0;
        for corner in 0..corners {
            let mut weight = 1.0;
            let mut flat = 0usize;
            for k in 0..d {
                let high = (corner >> k) & 1 == 1;
                weight *= if high { frac[k] } else { 1.0 - frac[k] };
                flat += (base[k] + usize::from(high)) * self.strides[k];
            }
            if weight != 0.0 {
                acc += weight * self.values[flat];
            }
        }
        acc
    }

    /// [`LutNd::corner_sum`] specialized on a compile-time dimensionality so
    /// the corner loop fully unrolls with stack-array indexing (no slice
    /// bounds checks in the inner loop). Bit-identical to the generic loop:
    /// the per-axis weight factors are the same values (`1 - t` computed once
    /// instead of per corner), multiplied in the same ascending-axis order,
    /// and the corners accumulate in the same order under the same skip rule.
    fn corner_sum_fixed<const D: usize>(&self, base: &[usize; D], frac: &[f64; D]) -> f64 {
        let mut strides = [0usize; D];
        strides.copy_from_slice(&self.strides);
        let mut w = [[0.0f64; 2]; D];
        for k in 0..D {
            w[k] = [1.0 - frac[k], frac[k]];
        }
        let corners = 1usize << D;
        let mut acc = 0.0;
        for corner in 0..corners {
            let mut weight = 1.0;
            let mut flat = 0usize;
            for k in 0..D {
                let high = (corner >> k) & 1;
                weight *= w[k][high];
                flat += (base[k] + high) * strides[k];
            }
            if weight != 0.0 {
                acc += weight * self.values[flat];
            }
        }
        acc
    }

    /// Cursor-hinted locate plus specialized corner sum for a compile-time
    /// dimensionality — the monomorphized core behind [`LutNd::eval_with_cursor`].
    fn eval_hinted_fixed<const D: usize>(
        &self,
        cursor: &mut LutCursor,
        coords: &[f64],
    ) -> Result<f64, NumError> {
        let mut base = [0usize; D];
        let mut frac = [0.0; D];
        for k in 0..D {
            let (i, t) = self.axes[k]
                .try_locate_hinted(coords[k], cursor.cells[k])
                .map_err(|_| nan_query_error(k))?;
            cursor.cells[k] = i;
            base[k] = i;
            frac[k] = t;
        }
        Ok(self.corner_sum_fixed(&base, &frac))
    }
    /// Creates a table from axes and a flat row-major value vector.
    ///
    /// # Errors
    ///
    /// * [`NumError::InvalidGrid`] if no axes are given.
    /// * [`NumError::DimensionMismatch`] if `values.len()` does not equal the
    ///   product of axis lengths.
    pub fn new(axes: Vec<Axis>, values: Vec<f64>) -> Result<Self, NumError> {
        if axes.is_empty() {
            return Err(NumError::InvalidGrid("lut needs at least one axis".into()));
        }
        let expected: usize = axes.iter().map(Axis::len).product();
        if values.len() != expected {
            return Err(NumError::DimensionMismatch {
                got: values.len(),
                expected,
                context: "LutNd::new values length",
            });
        }
        if let Some(bad) = values.iter().position(|v| !v.is_finite()) {
            return Err(NumError::InvalidGrid(format!(
                "lut sample {bad} is not finite ({})",
                values[bad]
            )));
        }
        Ok(LutNd::from_parts(axes, values))
    }

    /// Creates a table by evaluating `f` at every grid point.
    ///
    /// The closure receives the coordinates of the grid point, one per axis.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidGrid`] if no axes are given.
    pub fn from_fn<F>(axes: Vec<Axis>, mut f: F) -> Result<Self, NumError>
    where
        F: FnMut(&[f64]) -> f64,
    {
        if axes.is_empty() {
            return Err(NumError::InvalidGrid("lut needs at least one axis".into()));
        }
        let total: usize = axes.iter().map(Axis::len).product();
        let dims: Vec<usize> = axes.iter().map(Axis::len).collect();
        let mut values = Vec::with_capacity(total);
        let mut coord = vec![0.0; axes.len()];
        let mut idx = vec![0usize; axes.len()];
        for flat in 0..total {
            // Decode the flat index into per-axis indices (row-major).
            let mut rem = flat;
            for d in (0..dims.len()).rev() {
                idx[d] = rem % dims[d];
                rem /= dims[d];
            }
            for d in 0..dims.len() {
                coord[d] = axes[d].points()[idx[d]];
            }
            values.push(f(&coord));
        }
        LutNd::new(axes, values)
    }

    /// Creates a fallible variant of [`LutNd::from_fn`], aborting on the first error.
    ///
    /// This is used by characterization, where each grid point requires a SPICE
    /// analysis that can fail.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by `f`, or [`NumError::InvalidGrid`]
    /// if no axes are given.
    pub fn try_from_fn<F, E>(axes: Vec<Axis>, mut f: F) -> Result<Result<Self, E>, NumError>
    where
        F: FnMut(&[f64]) -> Result<f64, E>,
    {
        if axes.is_empty() {
            return Err(NumError::InvalidGrid("lut needs at least one axis".into()));
        }
        let total: usize = axes.iter().map(Axis::len).product();
        let dims: Vec<usize> = axes.iter().map(Axis::len).collect();
        let mut values = Vec::with_capacity(total);
        let mut coord = vec![0.0; axes.len()];
        let mut idx = vec![0usize; axes.len()];
        for flat in 0..total {
            let mut rem = flat;
            for d in (0..dims.len()).rev() {
                idx[d] = rem % dims[d];
                rem /= dims[d];
            }
            for d in 0..dims.len() {
                coord[d] = axes[d].points()[idx[d]];
            }
            match f(&coord) {
                Ok(v) => values.push(v),
                Err(e) => return Ok(Err(e)),
            }
        }
        Ok(Ok(LutNd::new(axes, values)?))
    }

    /// Number of dimensions (axes).
    pub fn dimensions(&self) -> usize {
        self.axes.len()
    }

    /// The sampling axes.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// The raw sample values in row-major order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Total number of stored samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table holds no samples (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns the stored sample at the given per-axis indices.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidQuery`] if the number of indices is wrong or
    /// any index is out of bounds.
    pub fn at(&self, indices: &[usize]) -> Result<f64, NumError> {
        if indices.len() != self.axes.len() {
            return Err(NumError::InvalidQuery(format!(
                "expected {} indices, got {}",
                self.axes.len(),
                indices.len()
            )));
        }
        let mut flat = 0usize;
        for (d, (&i, axis)) in indices.iter().zip(&self.axes).enumerate() {
            if i >= axis.len() {
                return Err(NumError::InvalidQuery(format!(
                    "index {i} out of bounds for axis {d} of length {}",
                    axis.len()
                )));
            }
            flat = flat * axis.len() + i;
        }
        Ok(self.values[flat])
    }

    /// Evaluates the table at `coords` by multilinear interpolation.
    ///
    /// This is the **reference path**: it allocates its locate buffers and
    /// binary-searches every axis on every call. Hot loops should prefer the
    /// bit-identical allocation-free family ([`LutNd::eval1`]…[`LutNd::eval4`],
    /// [`LutNd::eval_into`], [`LutNd::eval_with_cursor`]); this entry point is
    /// retained as the cold-path evaluator and as the baseline the `sim_hotpath`
    /// benchmark gates the fast paths against.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidQuery`] if the number of coordinates differs
    /// from the number of axes or any coordinate is NaN.
    pub fn eval(&self, coords: &[f64]) -> Result<f64, NumError> {
        self.check_arity(coords.len())?;
        let d = self.axes.len();
        // Locate every coordinate on its axis.
        let mut base = vec![0usize; d];
        let mut frac = vec![0.0; d];
        for k in 0..d {
            if coords[k].is_nan() {
                return Err(nan_query_error(k));
            }
            let (i, t) = self.axes[k].locate(coords[k]);
            base[k] = i;
            frac[k] = t;
        }
        // Sum over the 2^d corners of the containing cell.
        let corners = 1usize << d;
        let mut acc = 0.0;
        for corner in 0..corners {
            let mut weight = 1.0;
            let mut flat = 0usize;
            for k in 0..d {
                let high = (corner >> k) & 1 == 1;
                let idx = base[k] + usize::from(high);
                weight *= if high { frac[k] } else { 1.0 - frac[k] };
                flat = flat * self.axes[k].len() + idx;
            }
            if weight != 0.0 {
                acc += weight * self.values[flat];
            }
        }
        Ok(acc)
    }

    /// Fixed-arity, stack-only evaluation — bit-identical to [`LutNd::eval`]
    /// with zero heap allocations (the arity is a compile-time constant, so the
    /// locate buffers live on the stack).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidQuery`] if `D` differs from the table
    /// dimensionality or any coordinate is NaN.
    pub fn eval_fixed<const D: usize>(&self, coords: &[f64; D]) -> Result<f64, NumError> {
        self.check_arity(D)?;
        let mut base = [0usize; D];
        let mut frac = [0.0; D];
        for k in 0..D {
            let (i, t) = self.axes[k]
                .try_locate(coords[k])
                .map_err(|_| nan_query_error(k))?;
            base[k] = i;
            frac[k] = t;
        }
        Ok(self.corner_sum_fixed(&base, &frac))
    }

    /// Stack-only evaluation of a 1-D table (see [`LutNd::eval_fixed`]).
    ///
    /// # Errors
    ///
    /// As for [`LutNd::eval_fixed`].
    pub fn eval1(&self, x: f64) -> Result<f64, NumError> {
        self.eval_fixed(&[x])
    }

    /// Stack-only evaluation of a 2-D table (see [`LutNd::eval_fixed`]).
    ///
    /// # Errors
    ///
    /// As for [`LutNd::eval_fixed`].
    pub fn eval2(&self, x: f64, y: f64) -> Result<f64, NumError> {
        self.eval_fixed(&[x, y])
    }

    /// Stack-only evaluation of a 3-D table (see [`LutNd::eval_fixed`]).
    ///
    /// # Errors
    ///
    /// As for [`LutNd::eval_fixed`].
    pub fn eval3(&self, x: f64, y: f64, z: f64) -> Result<f64, NumError> {
        self.eval_fixed(&[x, y, z])
    }

    /// Stack-only evaluation of a 4-D table — the paper's
    /// `(V_A, V_B, V_N, V_o)` shape (see [`LutNd::eval_fixed`]).
    ///
    /// # Errors
    ///
    /// As for [`LutNd::eval_fixed`].
    pub fn eval4(&self, x: f64, y: f64, z: f64, w: f64) -> Result<f64, NumError> {
        self.eval_fixed(&[x, y, z, w])
    }

    /// Generic-arity, allocation-free evaluation into `out` using small fixed
    /// buffers and the precomputed strides; bit-identical to [`LutNd::eval`].
    /// Tables wider than [`MAX_FAST_DIMS`] fall back to the allocating path.
    ///
    /// # Errors
    ///
    /// As for [`LutNd::eval`].
    pub fn eval_into(&self, coords: &[f64], out: &mut f64) -> Result<(), NumError> {
        self.check_arity(coords.len())?;
        let d = coords.len();
        // Common arities dispatch to the fully unrolled fixed-arity path.
        match d {
            1 => *out = self.eval_fixed::<1>(coords.try_into().expect("arity checked"))?,
            2 => *out = self.eval_fixed::<2>(coords.try_into().expect("arity checked"))?,
            3 => *out = self.eval_fixed::<3>(coords.try_into().expect("arity checked"))?,
            4 => *out = self.eval_fixed::<4>(coords.try_into().expect("arity checked"))?,
            d if d <= MAX_FAST_DIMS => {
                let mut base = [0usize; MAX_FAST_DIMS];
                let mut frac = [0.0; MAX_FAST_DIMS];
                for k in 0..d {
                    let (i, t) = self.axes[k]
                        .try_locate(coords[k])
                        .map_err(|_| nan_query_error(k))?;
                    base[k] = i;
                    frac[k] = t;
                }
                *out = self.corner_sum(&base[..d], &frac[..d]);
            }
            _ => *out = self.eval(coords)?,
        }
        Ok(())
    }

    /// Cursor-accelerated evaluation: re-locates each axis from the cursor's
    /// remembered cell by a bounded neighbor walk (O(1) amortized on
    /// temporally coherent query streams) and updates the cursor. Bit-identical
    /// to [`LutNd::eval`] for every query — the cursor only changes how fast
    /// the containing cell is found, never which cell it is. Tables wider than
    /// [`MAX_FAST_DIMS`] fall back to the allocating path (cursor unused).
    ///
    /// # Errors
    ///
    /// As for [`LutNd::eval`].
    pub fn eval_with_cursor(
        &self,
        cursor: &mut LutCursor,
        coords: &[f64],
    ) -> Result<f64, NumError> {
        self.check_arity(coords.len())?;
        // The table shapes in this workspace (1-D input caps through the 4-D
        // MCSM components) dispatch to fully unrolled monomorphizations.
        match coords.len() {
            1 => self.eval_hinted_fixed::<1>(cursor, coords),
            2 => self.eval_hinted_fixed::<2>(cursor, coords),
            3 => self.eval_hinted_fixed::<3>(cursor, coords),
            4 => self.eval_hinted_fixed::<4>(cursor, coords),
            d if d <= MAX_FAST_DIMS => {
                let mut base = [0usize; MAX_FAST_DIMS];
                let mut frac = [0.0; MAX_FAST_DIMS];
                for k in 0..d {
                    let (i, t) = self.axes[k]
                        .try_locate_hinted(coords[k], cursor.cells[k])
                        .map_err(|_| nan_query_error(k))?;
                    cursor.cells[k] = i;
                    base[k] = i;
                    frac[k] = t;
                }
                Ok(self.corner_sum(&base[..d], &frac[..d]))
            }
            _ => self.eval(coords),
        }
    }

    /// Evaluates the partial derivative of the interpolant along `axis` at `coords`
    /// using the slope of the containing cell.
    ///
    /// The CSM simulation engine uses these derivatives when running its implicit
    /// (Newton) integrator, where `dI_o/dV_o` acts as a conductance.
    ///
    /// Computed analytically from the located cell's corner values — one locate
    /// per axis, zero allocations — and bit-identical to the historical
    /// formulation that evaluated the full table twice at the cell's `axis`
    /// endpoints (the endpoint evaluations reduce to the same corner sums with
    /// an exact weight factor of one).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidQuery`] if `axis` is out of range, the number
    /// of coordinates differs from the number of axes, or any coordinate is NaN.
    pub fn eval_partial(&self, coords: &[f64], axis: usize) -> Result<f64, NumError> {
        if axis >= self.axes.len() {
            return Err(NumError::InvalidQuery(format!(
                "axis {axis} out of range for a {}-dimensional table",
                self.axes.len()
            )));
        }
        self.check_arity(coords.len())?;
        let d = coords.len();
        if d > MAX_FAST_DIMS {
            // Allocating fallback: the historical two-eval formulation.
            let pts = self.axes[axis].points();
            let (cell, _) = self.axes[axis]
                .try_locate(coords[axis])
                .map_err(|_| nan_query_error(axis))?;
            let h = pts[cell + 1] - pts[cell];
            let mut lo = coords.to_vec();
            let mut hi = coords.to_vec();
            lo[axis] = pts[cell];
            hi[axis] = pts[cell + 1];
            let f_lo = self.eval(&lo)?;
            let f_hi = self.eval(&hi)?;
            return Ok((f_hi - f_lo) / h);
        }
        let mut base = [0usize; MAX_FAST_DIMS];
        let mut frac = [0.0; MAX_FAST_DIMS];
        for k in 0..d {
            let (i, t) = self.axes[k]
                .try_locate(coords[k])
                .map_err(|_| nan_query_error(k))?;
            base[k] = i;
            frac[k] = t;
        }
        let pts = self.axes[axis].points();
        let cell = base[axis];
        let h = pts[cell + 1] - pts[cell];
        // The slope of the cell's interpolant: the difference of the corner
        // sums on the cell's two `axis` faces over the cell width.
        frac[axis] = 0.0;
        let f_lo = self.corner_sum(&base[..d], &frac[..d]);
        frac[axis] = 1.0;
        let f_hi = self.corner_sum(&base[..d], &frac[..d]);
        Ok((f_hi - f_lo) / h)
    }

    /// Applies a function to every stored value, returning a new table with the
    /// same axes (used e.g. to average capacitance tables over several slews).
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> LutNd {
        LutNd::from_parts(
            self.axes.clone(),
            self.values.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Combines two tables sample-by-sample (they must share identical axes).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidQuery`] if the axes differ.
    pub fn zip_with<F: FnMut(f64, f64) -> f64>(
        &self,
        other: &LutNd,
        mut f: F,
    ) -> Result<LutNd, NumError> {
        if self.axes != other.axes {
            return Err(NumError::InvalidQuery(
                "zip_with requires identical axes".into(),
            ));
        }
        Ok(LutNd::from_parts(
            self.axes.clone(),
            self.values
                .iter()
                .zip(&other.values)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        ))
    }

    /// Minimum stored sample value.
    pub fn min_value(&self) -> f64 {
        self.values.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Maximum stored sample value.
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl AsRef<LutNd> for LutNd {
    fn as_ref(&self) -> &LutNd {
        self
    }
}

/// Largest dimensionality the grouped fast path serves with one shared
/// locate; wider groups evaluate member by member through one cursor.
const MAX_GROUP_DIMS: usize = 4;

/// `N` tables over one axis set, evaluated together at one point.
///
/// [`LutGroup::eval_with_cursor`] locates the point once (cursor-hinted),
/// forms the `2^d` corner weights once, and then takes one corner sum per
/// member. It keeps the per-table corner order, the same left-to-right weight
/// products and the same skip of zero-weight corners, so each member value is
/// bit-identical to the member's own [`LutNd::eval`] —
/// [`LutGroup::eval_reference`] runs exactly that, per member, as the oracle.
///
/// The members must have identical axes; [`LutGroup::new`] rejects any that
/// differ. `T` is any wrapper that exposes a [`LutNd`] (the typed voltage
/// tables of `mcsm-core`, or `LutNd` itself).
#[derive(Debug, Clone, PartialEq)]
pub struct LutGroup<T, const N: usize> {
    members: [T; N],
}

impl<T: AsRef<LutNd>, const N: usize> LutGroup<T, N> {
    /// Groups tables that share one axis set.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidGrid`] for an empty group or when a member's
    /// axes differ from the first member's.
    pub fn new(members: [T; N]) -> Result<Self, NumError> {
        let Some(lead) = members.first() else {
            return Err(NumError::InvalidGrid(
                "a table group needs at least one member".into(),
            ));
        };
        let lead = lead.as_ref();
        if let Some(bad) = members.iter().position(|m| m.as_ref().axes != lead.axes) {
            return Err(NumError::InvalidGrid(format!(
                "table group member {bad} does not share the axes of member 0: grouped \
                 tables are located once per query, so all {N} must use one axis set"
            )));
        }
        Ok(LutGroup { members })
    }

    /// The member tables, in group order.
    pub fn members(&self) -> &[T; N] {
        &self.members
    }

    fn lead(&self) -> &LutNd {
        self.members[0].as_ref()
    }

    /// Evaluates every member at `coords` with one cursor-hinted locate and
    /// one set of corner weights; bit-identical to [`LutGroup::eval_reference`].
    ///
    /// # Errors
    ///
    /// As for [`LutNd::eval`].
    pub fn eval_with_cursor(
        &self,
        cursor: &mut LutCursor,
        coords: &[f64],
    ) -> Result<[f64; N], NumError> {
        self.lead().check_arity(coords.len())?;
        match coords.len() {
            1 => self.eval_hinted_fixed::<1>(cursor, coords),
            2 => self.eval_hinted_fixed::<2>(cursor, coords),
            3 => self.eval_hinted_fixed::<3>(cursor, coords),
            4 => self.eval_hinted_fixed::<4>(cursor, coords),
            _ => {
                let mut out = [0.0; N];
                for (slot, member) in out.iter_mut().zip(&self.members) {
                    *slot = member.as_ref().eval_with_cursor(cursor, coords)?;
                }
                Ok(out)
            }
        }
    }

    /// The oracle: every member through its own allocating [`LutNd::eval`].
    ///
    /// # Errors
    ///
    /// As for [`LutNd::eval`].
    pub fn eval_reference(&self, coords: &[f64]) -> Result<[f64; N], NumError> {
        let mut out = [0.0; N];
        for (slot, member) in out.iter_mut().zip(&self.members) {
            *slot = member.as_ref().eval(coords)?;
        }
        Ok(out)
    }

    fn eval_hinted_fixed<const D: usize>(
        &self,
        cursor: &mut LutCursor,
        coords: &[f64],
    ) -> Result<[f64; N], NumError> {
        let lead = self.lead();
        // Corner `c` has bit `k` set when it takes the high node on axis `k`.
        // The weights grow one axis at a time in ascending order, so each is
        // the product `((1 * w_0) * w_1) * …` that `corner_sum_fixed`
        // multiplies, and the flat indices are the same integer sums.
        let mut weight = [0.0f64; 1 << MAX_GROUP_DIMS];
        let mut flat = [0usize; 1 << MAX_GROUP_DIMS];
        weight[0] = 1.0;
        let mut corners = 1;
        for (k, &x) in coords.iter().enumerate().take(D) {
            let (i, t) = lead.axes[k]
                .try_locate_hinted(x, cursor.cells[k])
                .map_err(|_| nan_query_error(k))?;
            cursor.cells[k] = i;
            let stride = lead.strides[k];
            for c in 0..corners {
                weight[c + corners] = weight[c] * t;
                flat[c + corners] = flat[c] + (i + 1) * stride;
                weight[c] *= 1.0 - t;
                flat[c] += i * stride;
            }
            corners *= 2;
        }
        // Keep only the corners every member sums (the per-table skip rule),
        // in corner order.
        let mut live = 0;
        for c in 0..corners {
            if weight[c] != 0.0 {
                weight[live] = weight[c];
                flat[live] = flat[c];
                live += 1;
            }
        }
        let mut out = [0.0; N];
        for (slot, member) in out.iter_mut().zip(&self.members) {
            let values = &member.as_ref().values;
            let mut acc = 0.0;
            for c in 0..live {
                acc += weight[c] * values[flat[c]];
            }
            *slot = acc;
        }
        Ok(out)
    }
}

impl ToJson for LutNd {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "axes".into(),
                JsonValue::Array(self.axes.iter().map(ToJson::to_json).collect()),
            ),
            ("values".into(), JsonValue::from_f64_slice(&self.values)),
        ])
    }
}

impl FromJson for LutNd {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let axes = value
            .require("axes")?
            .as_array()
            .ok_or_else(|| JsonError("lut `axes` must be an array".into()))?
            .iter()
            .map(Axis::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let values = value.require("values")?.to_f64_vec()?;
        LutNd::new(axes, values).map_err(|e| JsonError(format!("invalid lut: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis(n: usize) -> Axis {
        Axis::uniform(0.0, 1.0, n).unwrap()
    }

    #[test]
    fn one_dimensional_table_matches_interp() {
        let lut = LutNd::from_fn(vec![axis(5)], |v| v[0] * v[0]).unwrap();
        // At grid points the value is exact.
        assert!((lut.eval(&[0.5]).unwrap() - 0.25).abs() < 1e-12);
        // Between grid points it is the chord of x^2.
        let v = lut.eval(&[0.375]).unwrap();
        let expected = 0.5 * (0.0625 + 0.25);
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn affine_functions_are_exact_in_4d() {
        let axes = vec![axis(3), axis(4), axis(5), axis(3)];
        let f = |v: &[f64]| 1.0 + 2.0 * v[0] - 3.0 * v[1] + 0.5 * v[2] + 4.0 * v[3];
        let lut = LutNd::from_fn(axes, f).unwrap();
        let q = [0.21, 0.68, 0.43, 0.9];
        assert!((lut.eval(&q).unwrap() - f(&q)).abs() < 1e-12);
    }

    #[test]
    fn clamped_extrapolation_beyond_range() {
        let lut = LutNd::from_fn(vec![axis(3)], |v| v[0]).unwrap();
        assert!((lut.eval(&[-5.0]).unwrap() - 0.0).abs() < 1e-12);
        assert!((lut.eval(&[5.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn at_retrieves_exact_samples() {
        let lut = LutNd::from_fn(vec![axis(3), axis(3)], |v| v[0] + 10.0 * v[1]).unwrap();
        assert!((lut.at(&[1, 2]).unwrap() - (0.5 + 10.0)).abs() < 1e-12);
        assert!(lut.at(&[3, 0]).is_err());
        assert!(lut.at(&[0]).is_err());
    }

    #[test]
    fn eval_rejects_wrong_arity() {
        let lut = LutNd::from_fn(vec![axis(3), axis(3)], |v| v[0]).unwrap();
        assert!(lut.eval(&[0.5]).is_err());
        assert!(lut.eval(&[0.5, 0.5, 0.5]).is_err());
    }

    #[test]
    fn new_validates_value_count() {
        let err = LutNd::new(vec![axis(3), axis(3)], vec![0.0; 8]);
        assert!(matches!(err, Err(NumError::DimensionMismatch { .. })));
    }

    #[test]
    fn non_finite_samples_rejected() {
        let err = LutNd::new(vec![axis(3)], vec![0.0, f64::NAN, 1.0]);
        assert!(matches!(err, Err(NumError::InvalidGrid(_))));
        let err = LutNd::new(vec![axis(3)], vec![0.0, f64::INFINITY, 1.0]);
        assert!(matches!(err, Err(NumError::InvalidGrid(_))));
    }

    #[test]
    fn empty_axes_rejected() {
        assert!(LutNd::new(vec![], vec![]).is_err());
        assert!(LutNd::from_fn(vec![], |_| 0.0).is_err());
    }

    #[test]
    fn partial_derivative_of_affine_function() {
        let axes = vec![axis(4), axis(4)];
        let lut = LutNd::from_fn(axes, |v| 2.0 * v[0] - 7.0 * v[1]).unwrap();
        assert!((lut.eval_partial(&[0.4, 0.6], 0).unwrap() - 2.0).abs() < 1e-10);
        assert!((lut.eval_partial(&[0.4, 0.6], 1).unwrap() + 7.0).abs() < 1e-10);
        assert!(lut.eval_partial(&[0.4, 0.6], 2).is_err());
        assert!(lut.eval_partial(&[0.4], 0).is_err());
    }

    #[test]
    fn nan_queries_are_rejected_with_a_descriptive_error() {
        // Regression for the NaN-unsafe locate fallback: every evaluator must
        // report the NaN instead of silently interpolating in cell 0.
        let lut = LutNd::from_fn(vec![axis(3), axis(3)], |v| v[0] + v[1]).unwrap();
        let is_nan_err = |r: Result<f64, NumError>| matches!(r, Err(NumError::InvalidQuery(msg)) if msg.contains("NaN"));
        assert!(is_nan_err(lut.eval(&[0.5, f64::NAN])));
        assert!(is_nan_err(lut.eval2(f64::NAN, 0.5)));
        assert!(is_nan_err(lut.eval_fixed(&[0.5, f64::NAN])));
        assert!(is_nan_err(
            lut.eval_with_cursor(&mut LutCursor::new(), &[f64::NAN, 0.5])
        ));
        assert!(is_nan_err(lut.eval_partial(&[f64::NAN, 0.5], 0)));
        let mut out = 0.0;
        assert!(matches!(
            lut.eval_into(&[0.5, f64::NAN], &mut out),
            Err(NumError::InvalidQuery(msg)) if msg.contains("NaN")
        ));
    }

    #[test]
    fn fast_paths_reject_wrong_arity_like_eval() {
        let lut = LutNd::from_fn(vec![axis(3), axis(3)], |v| v[0]).unwrap();
        assert!(lut.eval1(0.5).is_err());
        assert!(lut.eval3(0.5, 0.5, 0.5).is_err());
        assert!(lut.eval4(0.5, 0.5, 0.5, 0.5).is_err());
        let mut out = 0.0;
        assert!(lut.eval_into(&[0.5], &mut out).is_err());
        assert!(lut
            .eval_with_cursor(&mut LutCursor::new(), &[0.5, 0.5, 0.5])
            .is_err());
    }

    #[test]
    fn map_and_zip_with() {
        let a = LutNd::from_fn(vec![axis(3)], |v| v[0]).unwrap();
        let b = a.map(|v| 2.0 * v);
        assert!((b.eval(&[1.0]).unwrap() - 2.0).abs() < 1e-12);
        let c = a.zip_with(&b, |x, y| x + y).unwrap();
        assert!((c.eval(&[1.0]).unwrap() - 3.0).abs() < 1e-12);
        let other_axes = LutNd::from_fn(vec![axis(4)], |v| v[0]).unwrap();
        assert!(a.zip_with(&other_axes, |x, _| x).is_err());
    }

    #[test]
    fn try_from_fn_propagates_errors() {
        let result: Result<Result<LutNd, &str>, NumError> =
            LutNd::try_from_fn(vec![axis(3)], |v| {
                if v[0] > 0.6 {
                    Err("boom")
                } else {
                    Ok(v[0])
                }
            });
        assert_eq!(result.unwrap().unwrap_err(), "boom");
    }

    #[test]
    fn min_max_values() {
        let lut = LutNd::from_fn(vec![axis(5)], |v| v[0] - 0.5).unwrap();
        assert!((lut.min_value() + 0.5).abs() < 1e-12);
        assert!((lut.max_value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip() {
        let lut = LutNd::from_fn(vec![axis(3), axis(3)], |v| v[0] * v[1]).unwrap();
        let doc = lut.to_json();
        let back = LutNd::from_json(&JsonValue::parse(&doc.to_string_pretty()).unwrap()).unwrap();
        assert_eq!(lut, back);
        // A corrupt document (wrong value count) is rejected.
        let bad = JsonValue::Object(vec![
            ("axes".into(), JsonValue::Array(vec![axis(3).to_json()])),
            ("values".into(), JsonValue::from_f64_slice(&[1.0, 2.0])),
        ]);
        assert!(LutNd::from_json(&bad).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testrand::TestRng;

    #[test]
    fn interpolation_stays_within_sample_bounds() {
        let mut rng = TestRng::new(0x1a2b3c);
        for _ in 0..200 {
            let values: Vec<f64> = (0..16).map(|_| rng.in_range(-10.0, 10.0)).collect();
            let qx = rng.in_range(-0.5, 1.5);
            let qy = rng.in_range(-0.5, 1.5);
            let axes = vec![
                Axis::uniform(0.0, 1.0, 4).unwrap(),
                Axis::uniform(0.0, 1.0, 4).unwrap(),
            ];
            let lut = LutNd::new(axes, values.clone()).unwrap();
            let v = lut.eval(&[qx, qy]).unwrap();
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(v >= min - 1e-9 && v <= max + 1e-9);
        }
    }

    /// Builds a random table of `dims` axes: uniform or explicitly non-uniform
    /// (random strictly increasing points), random lengths, random samples.
    fn random_table(rng: &mut TestRng, dims: usize) -> LutNd {
        let axes: Vec<Axis> = (0..dims)
            .map(|_| {
                let count = 2 + rng.index(5);
                if rng.index(2) == 0 {
                    let start = rng.in_range(-2.0, 0.0);
                    Axis::uniform(start, start + rng.in_range(0.5, 3.0), count).unwrap()
                } else {
                    let mut p = rng.in_range(-2.0, 0.0);
                    let points = (0..count)
                        .map(|_| {
                            p += rng.in_range(0.05, 1.0);
                            p
                        })
                        .collect();
                    Axis::new(points).unwrap()
                }
            })
            .collect();
        let total: usize = axes.iter().map(Axis::len).product();
        let values: Vec<f64> = (0..total).map(|_| rng.in_range(-10.0, 10.0)).collect();
        LutNd::new(axes, values).unwrap()
    }

    /// One query per axis, randomly interior, at-a-grid-point, or out of range.
    fn random_query(rng: &mut TestRng, lut: &LutNd) -> Vec<f64> {
        lut.axes()
            .iter()
            .map(|axis| match rng.index(4) {
                0 => axis.points()[rng.index(axis.len())],
                1 => axis.min() - rng.in_range(0.0, 1.0),
                2 => axis.max() + rng.in_range(0.0, 1.0),
                _ => rng.in_range(axis.min(), axis.max()),
            })
            .collect()
    }

    fn assert_all_paths_match(lut: &LutNd, cursor: &mut LutCursor, q: &[f64]) {
        let reference = lut.eval(q).unwrap();
        let fixed = match q.len() {
            1 => lut.eval1(q[0]),
            2 => lut.eval2(q[0], q[1]),
            3 => lut.eval3(q[0], q[1], q[2]),
            4 => lut.eval4(q[0], q[1], q[2], q[3]),
            _ => unreachable!("random tables are 1-4 dimensional"),
        }
        .unwrap();
        let mut into = 0.0;
        lut.eval_into(q, &mut into).unwrap();
        let cursored = lut.eval_with_cursor(cursor, q).unwrap();
        assert_eq!(reference.to_bits(), fixed.to_bits(), "eval1-4 at {q:?}");
        assert_eq!(reference.to_bits(), into.to_bits(), "eval_into at {q:?}");
        assert_eq!(reference.to_bits(), cursored.to_bits(), "cursor at {q:?}");
    }

    #[test]
    fn all_fast_paths_are_bit_identical_to_eval_on_random_sequences() {
        // The satellite property test: `eval` == `eval1/2/3(/4)` == `eval_into`
        // == cursor-based eval, bit for bit, over random tables and random
        // query sequences including axis edges and out-of-range coordinates.
        // The cursor persists across the whole sequence, so stale hints from
        // arbitrary jumps are exercised too.
        let mut rng = TestRng::new(0xFA57);
        for _ in 0..60 {
            let dims = 1 + rng.index(4);
            let lut = random_table(&mut rng, dims);
            let mut cursor = LutCursor::new();
            for _ in 0..40 {
                let q = random_query(&mut rng, &lut);
                assert_all_paths_match(&lut, &mut cursor, &q);
            }
        }
    }

    #[test]
    fn all_fast_paths_are_bit_identical_to_eval_on_monotone_sweeps() {
        // Monotone ramps are the coherent access pattern the cursor is built
        // for: every step lands in the same or an adjacent cell.
        let mut rng = TestRng::new(0x510);
        for _ in 0..30 {
            let dims = 1 + rng.index(4);
            let lut = random_table(&mut rng, dims);
            let mut cursor = LutCursor::new();
            let spans: Vec<(f64, f64)> = lut
                .axes()
                .iter()
                .map(|a| {
                    let lo = a.min() - 0.2;
                    (lo, a.max() + 0.2 - lo)
                })
                .collect();
            let steps = 64;
            for s in 0..=steps {
                let f = s as f64 / steps as f64;
                let rising: Vec<f64> = spans.iter().map(|&(lo, w)| lo + w * f).collect();
                assert_all_paths_match(&lut, &mut cursor, &rising);
            }
            for s in (0..=steps).rev() {
                let f = s as f64 / steps as f64;
                let falling: Vec<f64> = spans.iter().map(|&(lo, w)| lo + w * f).collect();
                assert_all_paths_match(&lut, &mut cursor, &falling);
            }
        }
    }

    #[test]
    fn grouped_eval_matches_each_member_bit_for_bit() {
        // One locate and one set of corner weights for the whole group must
        // give every member exactly its own `eval`, for 1-6 dimensions (5
        // and 6 take the member-by-member fallback) and a cursor persisting
        // across arbitrary jumps.
        let mut rng = TestRng::new(0x6E0);
        for _ in 0..40 {
            let dims = 1 + rng.index(6);
            let lead = random_table(&mut rng, dims);
            let other = |rng: &mut TestRng| {
                let values = (0..lead.len()).map(|_| rng.in_range(-5.0, 5.0)).collect();
                LutNd::new(lead.axes().to_vec(), values).unwrap()
            };
            let group = LutGroup::new([lead.clone(), other(&mut rng), other(&mut rng)]).unwrap();
            let mut cursor = LutCursor::new();
            for _ in 0..30 {
                let q = random_query(&mut rng, &lead);
                let fast = group.eval_with_cursor(&mut cursor, &q).unwrap();
                let reference = group.eval_reference(&q).unwrap();
                for (i, member) in group.members().iter().enumerate() {
                    let want = member.eval(&q).unwrap().to_bits();
                    assert_eq!(want, fast[i].to_bits(), "member {i} at {q:?}");
                    assert_eq!(want, reference[i].to_bits(), "member {i} at {q:?}");
                }
            }
        }
    }

    #[test]
    fn groups_need_one_shared_axis_set() {
        let a = LutNd::from_fn(vec![Axis::uniform(0.0, 1.0, 3).unwrap()], |v| v[0]).unwrap();
        let b = LutNd::from_fn(vec![Axis::uniform(0.0, 1.0, 4).unwrap()], |v| v[0]).unwrap();
        let err = LutGroup::new([a.clone(), a.clone(), b]).unwrap_err();
        assert!(matches!(err, NumError::InvalidGrid(ref msg) if msg.contains("member 2")));
        assert!(LutGroup::<LutNd, 0>::new([]).is_err());
        let group = LutGroup::new([a]).unwrap();
        assert!(group
            .eval_with_cursor(&mut LutCursor::new(), &[0.5, 0.5])
            .is_err());
        assert!(group
            .eval_with_cursor(&mut LutCursor::new(), &[f64::NAN])
            .is_err());
    }

    #[test]
    fn analytic_eval_partial_matches_the_two_eval_formula_exactly() {
        // Pin the analytic derivative against the historical formulation:
        // evaluate the full table at the containing cell's two endpoints along
        // the requested axis. The corner sums reduce to the same terms, so the
        // match is to the bit.
        let mut rng = TestRng::new(0x9A27);
        for _ in 0..60 {
            let dims = 1 + rng.index(4);
            let lut = random_table(&mut rng, dims);
            for _ in 0..20 {
                let q = random_query(&mut rng, &lut);
                let axis = rng.index(dims);
                let analytic = lut.eval_partial(&q, axis).unwrap();
                let pts = lut.axes()[axis].points();
                let (cell, _) = lut.axes()[axis].locate(q[axis]);
                let h = pts[cell + 1] - pts[cell];
                let mut lo = q.clone();
                let mut hi = q.clone();
                lo[axis] = pts[cell];
                hi[axis] = pts[cell + 1];
                let two_eval = (lut.eval(&hi).unwrap() - lut.eval(&lo).unwrap()) / h;
                assert_eq!(
                    analytic.to_bits(),
                    two_eval.to_bits(),
                    "axis {axis} at {q:?}"
                );
            }
        }
    }

    #[test]
    fn grid_points_are_reproduced_exactly() {
        let mut rng = TestRng::new(0x7fe1);
        for _ in 0..200 {
            let values: Vec<f64> = (0..27).map(|_| rng.in_range(-10.0, 10.0)).collect();
            let (ix, iy, iz) = (rng.index(3), rng.index(3), rng.index(3));
            let axes = vec![
                Axis::uniform(0.0, 1.0, 3).unwrap(),
                Axis::uniform(-1.0, 1.0, 3).unwrap(),
                Axis::uniform(0.0, 2.0, 3).unwrap(),
            ];
            let lut = LutNd::new(axes.clone(), values).unwrap();
            let q = [
                axes[0].points()[ix],
                axes[1].points()[iy],
                axes[2].points()[iz],
            ];
            let direct = lut.at(&[ix, iy, iz]).unwrap();
            let interp = lut.eval(&q).unwrap();
            assert!((direct - interp).abs() < 1e-9);
        }
    }
}
