//! One-dimensional interpolation helpers.
//!
//! These are used for waveform resampling (comparing an MCSM waveform against a
//! SPICE reference requires evaluating both on a common time base) and for the
//! per-axis steps of multilinear table evaluation.

use crate::error::NumError;

/// Linear interpolation between two samples: `a + t (b - a)`.
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + t * (b - a)
}

/// Checks that `(xs, ys)` is a valid piecewise-linear grid: matching
/// lengths, at least one sample, strictly increasing abscissae. O(n).
fn validate_grid(xs: &[f64], ys: &[f64], context: &'static str) -> Result<(), NumError> {
    if xs.len() != ys.len() {
        return Err(NumError::DimensionMismatch {
            got: ys.len(),
            expected: xs.len(),
            context,
        });
    }
    if xs.is_empty() {
        return Err(NumError::InvalidGrid(format!(
            "{context} needs at least one sample"
        )));
    }
    for w in xs.windows(2) {
        if w[1] <= w[0] {
            return Err(NumError::InvalidGrid(format!(
                "{context} abscissae must be strictly increasing"
            )));
        }
    }
    Ok(())
}

/// The value on segment `lo` (`xs[lo] <= x < xs[lo + 1]`): the one
/// interpolation formula every entry point shares, so the validating,
/// unchecked and cursor paths agree to the bit once they pick the same
/// segment.
#[inline]
fn segment_value(xs: &[f64], ys: &[f64], lo: usize, x: f64) -> f64 {
    let t = (x - xs[lo]) / (xs[lo + 1] - xs[lo]);
    lerp(ys[lo], ys[lo + 1], t)
}

/// Evaluates a piecewise-linear function defined by `(xs, ys)` at `x`.
///
/// Queries outside the sampled range are clamped to the end values (flat
/// extrapolation), matching the behaviour of the table lookups.
///
/// This entry point re-validates the whole grid on every call, which costs
/// O(n) — use it for one-off evaluations of unchecked data only. Grids that
/// are already known to be valid (a constructed `Waveform`) go through
/// [`interp1_unchecked`], and repeated queries that move along the grid
/// through a [`SegmentCursor`]; both return bit-identical results.
///
/// # Errors
///
/// * [`NumError::DimensionMismatch`] if `xs` and `ys` have different lengths.
/// * [`NumError::InvalidGrid`] if fewer than one sample is provided or `xs` is
///   not strictly increasing.
pub fn interp1(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, NumError> {
    validate_grid(xs, ys, "interp1")?;
    Ok(interp1_unchecked(xs, ys, x))
}

/// The interpolation kernel of [`interp1`] without the O(n) grid check:
/// clamping plus an O(log n) binary search for the containing segment.
///
/// The caller guarantees what [`interp1`] would check — `xs.len() ==
/// ys.len() >= 1` and `xs` strictly increasing. Violating that stays memory
/// safe (indexing panics rather than reading out of bounds), but the value
/// is then meaningless.
#[inline]
pub fn interp1_unchecked(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    debug_assert_eq!(xs.len(), ys.len(), "interp1_unchecked length mismatch");
    let last = xs.len() - 1;
    if last == 0 || x <= xs[0] {
        return ys[0];
    }
    if x >= xs[last] {
        return ys[last];
    }
    // Binary search for the containing interval: `xs[lo] <= x < xs[hi]`.
    let mut lo = 0usize;
    let mut hi = last;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if xs[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    segment_value(xs, ys, lo, x)
}

/// A remembered segment index for repeated piecewise-linear queries on one
/// valid grid: O(1) amortized per query when successive queries move a
/// bounded number of segments, as a time-stepping loop's do.
///
/// [`SegmentCursor::eval`] walks forward or back from the last segment used
/// to the unique segment with `xs[lo] <= x < xs[lo + 1]` — the one the
/// binary search of [`interp1_unchecked`] finds — and evaluates it with the
/// same formula, so the result is bit-identical to [`interp1`] for every
/// query order (a NaN query walks to segment 0, exactly where the binary
/// search ends, and yields NaN). Sorted queries make a sweep over `m` points
/// one O(m + n) merge walk over both grids.
///
/// A cursor carries no reference to its grid; using one cursor on two
/// different grids is harmless (the index is clamped and re-walked) but
/// forfeits the amortization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentCursor {
    seg: usize,
}

impl SegmentCursor {
    /// A cursor at the first segment.
    pub fn new() -> Self {
        SegmentCursor::default()
    }

    /// Evaluates the valid grid `(xs, ys)` at `x`, under the preconditions
    /// of [`interp1_unchecked`].
    #[inline]
    pub fn eval(&mut self, xs: &[f64], ys: &[f64], x: f64) -> f64 {
        debug_assert_eq!(xs.len(), ys.len(), "SegmentCursor length mismatch");
        let last = xs.len() - 1;
        if last == 0 || x <= xs[0] {
            return ys[0];
        }
        if x >= xs[last] {
            return ys[last];
        }
        // From here `xs[0] < x < xs[last]` (or x is NaN), so both walks stop
        // inside the grid.
        let mut seg = self.seg.min(last - 1);
        while seg > 0 && !(xs[seg] <= x) {
            seg -= 1;
        }
        while xs[seg + 1] <= x {
            seg += 1;
        }
        self.seg = seg;
        segment_value(xs, ys, seg, x)
    }
}

/// Resamples a piecewise-linear signal `(xs, ys)` onto the abscissae `new_xs`.
///
/// The source grid is validated once (not per point), then swept with one
/// [`SegmentCursor`], so sorted `new_xs` cost one O(m + n) merge walk over
/// both grids. The values are bit-identical to mapping [`interp1`] over
/// `new_xs`, in any order. An empty `new_xs` yields an empty vector without
/// looking at the source, as that mapping would.
///
/// # Errors
///
/// Propagates the validation errors of [`interp1`].
pub fn resample(xs: &[f64], ys: &[f64], new_xs: &[f64]) -> Result<Vec<f64>, NumError> {
    if new_xs.is_empty() {
        return Ok(Vec::new());
    }
    validate_grid(xs, ys, "interp1")?;
    let mut cursor = SegmentCursor::new();
    Ok(new_xs.iter().map(|&x| cursor.eval(xs, ys, x)).collect())
}

/// Finds the first time at which a piecewise-linear signal crosses `level`,
/// searching from the beginning, with the requested direction.
///
/// Returns `None` if the signal never crosses the level in that direction.
///
/// # Errors
///
/// * [`NumError::DimensionMismatch`] if the slices differ in length.
pub fn first_crossing(
    xs: &[f64],
    ys: &[f64],
    level: f64,
    rising: bool,
) -> Result<Option<f64>, NumError> {
    if xs.len() != ys.len() {
        return Err(NumError::DimensionMismatch {
            got: ys.len(),
            expected: xs.len(),
            context: "first_crossing",
        });
    }
    for i in 1..xs.len() {
        let (y0, y1) = (ys[i - 1], ys[i]);
        let crosses = if rising {
            y0 < level && y1 >= level
        } else {
            y0 > level && y1 <= level
        };
        if crosses {
            if (y1 - y0).abs() < f64::EPSILON {
                return Ok(Some(xs[i]));
            }
            let t = (level - y0) / (y1 - y0);
            return Ok(Some(lerp(xs[i - 1], xs[i], t)));
        }
    }
    Ok(None)
}

/// Finds the last time at which a piecewise-linear signal crosses `level` in the
/// requested direction.
///
/// # Errors
///
/// * [`NumError::DimensionMismatch`] if the slices differ in length.
pub fn last_crossing(
    xs: &[f64],
    ys: &[f64],
    level: f64,
    rising: bool,
) -> Result<Option<f64>, NumError> {
    if xs.len() != ys.len() {
        return Err(NumError::DimensionMismatch {
            got: ys.len(),
            expected: xs.len(),
            context: "last_crossing",
        });
    }
    let mut found = None;
    for i in 1..xs.len() {
        let (y0, y1) = (ys[i - 1], ys[i]);
        let crosses = if rising {
            y0 < level && y1 >= level
        } else {
            y0 > level && y1 <= level
        };
        if crosses {
            let t = if (y1 - y0).abs() < f64::EPSILON {
                1.0
            } else {
                (level - y0) / (y1 - y0)
            };
            found = Some(lerp(xs[i - 1], xs[i], t));
        }
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints_and_midpoint() {
        assert_eq!(lerp(1.0, 3.0, 0.0), 1.0);
        assert_eq!(lerp(1.0, 3.0, 1.0), 3.0);
        assert_eq!(lerp(1.0, 3.0, 0.5), 2.0);
    }

    #[test]
    fn interp1_reproduces_samples() {
        let xs = [0.0, 1.0, 2.0, 4.0];
        let ys = [0.0, 2.0, 1.0, 5.0];
        for (x, y) in xs.iter().zip(&ys) {
            assert!((interp1(&xs, &ys, *x).unwrap() - y).abs() < 1e-14);
        }
    }

    #[test]
    fn interp1_interpolates_between_samples() {
        let xs = [0.0, 1.0, 3.0];
        let ys = [0.0, 10.0, 30.0];
        assert!((interp1(&xs, &ys, 0.5).unwrap() - 5.0).abs() < 1e-12);
        assert!((interp1(&xs, &ys, 2.0).unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn interp1_clamps_outside_range() {
        let xs = [0.0, 1.0];
        let ys = [2.0, 4.0];
        assert_eq!(interp1(&xs, &ys, -10.0).unwrap(), 2.0);
        assert_eq!(interp1(&xs, &ys, 10.0).unwrap(), 4.0);
    }

    #[test]
    fn interp1_single_sample_is_constant() {
        assert_eq!(interp1(&[1.0], &[7.0], 100.0).unwrap(), 7.0);
    }

    #[test]
    fn interp1_validates_inputs() {
        assert!(interp1(&[0.0, 1.0], &[0.0], 0.5).is_err());
        assert!(interp1(&[1.0, 0.5], &[0.0, 1.0], 0.7).is_err());
        assert!(interp1(&[], &[], 0.0).is_err());
    }

    #[test]
    fn resample_onto_denser_grid() {
        let xs = [0.0, 2.0];
        let ys = [0.0, 4.0];
        let out = resample(&xs, &ys, &[0.0, 0.5, 1.0, 1.5, 2.0]).unwrap();
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn first_crossing_rising_edge() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 0.4, 0.8, 1.2];
        let t = first_crossing(&xs, &ys, 0.6, true).unwrap().unwrap();
        assert!((t - 1.5).abs() < 1e-12);
    }

    #[test]
    fn first_crossing_falling_edge() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [1.2, 0.6, 0.0];
        let t = first_crossing(&xs, &ys, 0.6, false).unwrap().unwrap();
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crossing_absent_returns_none() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 0.2];
        assert!(first_crossing(&xs, &ys, 0.6, true).unwrap().is_none());
        assert!(first_crossing(&xs, &ys, 0.6, false).unwrap().is_none());
    }

    #[test]
    fn last_crossing_of_glitch() {
        // A pulse that rises above and falls back below 0.5: two falling crossings? No —
        // one rising (index 1) and one falling (index 3); last falling is the tail.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.0, 1.0, 1.0, 0.0, 0.0];
        let rising = last_crossing(&xs, &ys, 0.5, true).unwrap().unwrap();
        let falling = last_crossing(&xs, &ys, 0.5, false).unwrap().unwrap();
        assert!((rising - 0.5).abs() < 1e-12);
        assert!((falling - 2.5).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testrand::TestRng;

    #[test]
    fn interp1_is_bounded_by_neighbour_samples() {
        let mut rng = TestRng::new(0x5eed);
        for _ in 0..300 {
            let n = 2 + rng.index(10);
            let ys: Vec<f64> = (0..n).map(|_| rng.in_range(-5.0, 5.0)).collect();
            let q = rng.unit();
            let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
            let v = interp1(&xs, &ys, q).unwrap();
            let min = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(v >= min - 1e-12 && v <= max + 1e-12);
        }
    }
}
