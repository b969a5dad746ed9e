//! Input drive waveforms for model simulation.
//!
//! A current-source model is load- and waveform-independent: its inputs can be
//! driven by analytic stimuli (saturated ramps, the characterization default) or
//! by arbitrary sampled waveforms (for example a noisy victim-line waveform
//! produced by a coupled-interconnect SPICE simulation, as in the paper's
//! Fig. 12 experiment). [`DriveWaveform`] abstracts over both.

use mcsm_num::interp::SegmentCursor;
use mcsm_spice::source::SourceWaveform;
use mcsm_spice::waveform::Waveform;
use std::sync::Arc;

/// A time-domain input drive: analytic or sampled.
#[derive(Debug, Clone, PartialEq)]
pub enum DriveWaveform {
    /// An analytic waveform (ramp, pulse, PWL, DC).
    Analytic(SourceWaveform),
    /// A sampled waveform, linearly interpolated between samples and clamped
    /// outside its time range.
    Sampled(Waveform),
    /// A shared piecewise-linear waveform: evaluation is bit-identical to
    /// [`DriveWaveform::Sampled`] of the same samples (both go through
    /// [`Waveform::value_at`] / [`Waveform::value_at_with`]), but the samples
    /// live behind an [`Arc`], so cloning is O(1). This is the
    /// netlist-simulation handoff form — one driver's output waveform fans
    /// out to all of its receiving gates without copying the sample vectors
    /// per fanout pin.
    Pwl(Arc<Waveform>),
}

impl DriveWaveform {
    /// A constant drive.
    pub fn dc(level: f64) -> Self {
        DriveWaveform::Analytic(SourceWaveform::dc(level))
    }

    /// A rising saturated ramp.
    pub fn rising_ramp(vdd: f64, t_start: f64, transition: f64) -> Self {
        DriveWaveform::Analytic(SourceWaveform::rising_ramp(vdd, t_start, transition))
    }

    /// A falling saturated ramp.
    pub fn falling_ramp(vdd: f64, t_start: f64, transition: f64) -> Self {
        DriveWaveform::Analytic(SourceWaveform::falling_ramp(vdd, t_start, transition))
    }

    /// Wraps a simulated waveform as a shareable piecewise-linear drive
    /// ([`DriveWaveform::Pwl`]): evaluation is bit-identical to
    /// [`DriveWaveform::Sampled`] of the same waveform (both evaluate through
    /// the waveform's own [`Waveform::value_at`], which trusts the time
    /// vector its constructor validated), but every clone shares the samples
    /// instead of copying them — the form a netlist simulator hands a
    /// driver's output to its fanout gates in.
    pub fn from_waveform(waveform: Waveform) -> Self {
        DriveWaveform::Pwl(Arc::new(waveform))
    }

    /// Evaluates the drive at time `t` (seconds). Sampled drives cost an
    /// O(log n) search; loops that sweep time use [`DriveWaveform::eval_with`].
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            DriveWaveform::Analytic(w) => w.eval(t),
            DriveWaveform::Sampled(w) => w.value_at(t),
            DriveWaveform::Pwl(w) => w.value_at(t),
        }
    }

    /// [`DriveWaveform::eval`] through a caller-held segment cursor, one per
    /// drive: O(1) amortized for sampled drives whose successive queries
    /// move a bounded number of samples, bit-identical to `eval` for any
    /// query order. Analytic drives ignore the cursor.
    #[inline]
    pub fn eval_with(&self, cursor: &mut SegmentCursor, t: f64) -> f64 {
        match self {
            DriveWaveform::Analytic(w) => w.eval(t),
            DriveWaveform::Sampled(w) => w.value_at_with(cursor, t),
            DriveWaveform::Pwl(w) => w.value_at_with(cursor, t),
        }
    }

    /// The value at `t = 0`, used to derive consistent initial conditions.
    pub fn initial_value(&self) -> f64 {
        self.eval(0.0)
    }

    /// Canonical content hash of the drive, the input-waveform component of a
    /// waveform-memoization key. [`DriveWaveform::Sampled`] and
    /// [`DriveWaveform::Pwl`] of the same samples hash **equal** — they
    /// evaluate bit-identically, so a memoized solve may be shared between
    /// them. Analytic drives hash by shape + exact parameter bits; an
    /// analytic ramp and its sampled rendering hash differently (a harmless
    /// cache miss — hash equality must imply bit-identical evaluation, not
    /// the converse).
    pub fn canonical_hash(&self) -> u64 {
        let mut hasher = mcsm_num::hash::ByteHasher::new();
        match self {
            DriveWaveform::Analytic(src) => {
                hasher.write_u8(0);
                hasher.write_u64(src.canonical_hash());
            }
            DriveWaveform::Sampled(w) => {
                hasher.write_u8(1);
                hasher.write_u64(w.canonical_hash());
            }
            DriveWaveform::Pwl(w) => {
                hasher.write_u8(1);
                hasher.write_u64(w.canonical_hash());
            }
        }
        hasher.finish()
    }
}

impl From<SourceWaveform> for DriveWaveform {
    fn from(w: SourceWaveform) -> Self {
        DriveWaveform::Analytic(w)
    }
}

impl From<Waveform> for DriveWaveform {
    fn from(w: Waveform) -> Self {
        DriveWaveform::Sampled(w)
    }
}

impl From<Arc<Waveform>> for DriveWaveform {
    fn from(w: Arc<Waveform>) -> Self {
        DriveWaveform::Pwl(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_and_sampled_agree_on_a_ramp() {
        let analytic = DriveWaveform::rising_ramp(1.2, 1e-9, 100e-12);
        let times: Vec<f64> = (0..=300).map(|i| i as f64 * 0.01e-9).collect();
        let values: Vec<f64> = times.iter().map(|&t| analytic.eval(t)).collect();
        let sampled = DriveWaveform::Sampled(Waveform::new(times, values).unwrap());
        for t in [0.0, 0.5e-9, 1.05e-9, 1.5e-9, 2.99e-9] {
            assert!((analytic.eval(t) - sampled.eval(t)).abs() < 1e-9);
        }
    }

    #[test]
    fn constructors_and_conversions() {
        let d = DriveWaveform::dc(0.6);
        assert_eq!(d.eval(1.0), 0.6);
        assert_eq!(d.initial_value(), 0.6);
        let f = DriveWaveform::falling_ramp(1.2, 0.0, 1e-10);
        assert_eq!(f.initial_value(), 1.2);
        let from_src: DriveWaveform = SourceWaveform::dc(1.0).into();
        assert_eq!(from_src.eval(5.0), 1.0);
        let wf = Waveform::new(vec![0.0, 1.0], vec![0.0, 2.0]).unwrap();
        let from_wave: DriveWaveform = wf.into();
        assert_eq!(from_wave.eval(0.5), 1.0);
    }

    #[test]
    fn canonical_hash_tracks_evaluation_identity() {
        let wf = Waveform::new(vec![0.0, 1e-9, 2e-9], vec![0.0, 1.2, 0.6]).unwrap();
        let sampled = DriveWaveform::Sampled(wf.clone());
        let pwl = DriveWaveform::from_waveform(wf.clone());
        // Sampled and Pwl of the same samples evaluate bit-identically, so
        // they must share a memoization key.
        assert_eq!(sampled.canonical_hash(), pwl.canonical_hash());
        // Different samples, different analytic shapes, and analytic-vs-PWL
        // all get distinct keys.
        let other = DriveWaveform::Sampled(Waveform::new(vec![0.0, 1e-9], vec![0.0, 1.2]).unwrap());
        assert_ne!(sampled.canonical_hash(), other.canonical_hash());
        let rise = DriveWaveform::rising_ramp(1.2, 1e-9, 80e-12);
        let fall = DriveWaveform::falling_ramp(1.2, 1e-9, 80e-12);
        assert_ne!(rise.canonical_hash(), fall.canonical_hash());
        assert_eq!(
            rise.canonical_hash(),
            DriveWaveform::rising_ramp(1.2, 1e-9, 80e-12).canonical_hash()
        );
        assert_ne!(rise.canonical_hash(), pwl.canonical_hash());
    }

    #[test]
    fn pwl_variant_matches_sampled_bit_for_bit_and_shares_samples() {
        let times: Vec<f64> = (0..=200).map(|i| i as f64 * 0.015e-9).collect();
        let values: Vec<f64> = times.iter().map(|&t| (t * 1e9).sin()).collect();
        let wf = Waveform::new(times, values).unwrap();
        let sampled = DriveWaveform::Sampled(wf.clone());
        let pwl = DriveWaveform::from_waveform(wf);
        for i in 0..400 {
            let t = -0.2e-9 + i as f64 * 0.009e-9; // covers out-of-range too
            assert_eq!(sampled.eval(t).to_bits(), pwl.eval(t).to_bits(), "t={t}");
        }
        // Clones share the Arc'd samples instead of copying them.
        let clone = pwl.clone();
        match (&pwl, &clone) {
            (DriveWaveform::Pwl(a), DriveWaveform::Pwl(b)) => {
                assert!(Arc::ptr_eq(a, b));
            }
            _ => unreachable!("clone of Pwl is Pwl"),
        }
        // The Arc conversion is equivalent to `from_waveform`.
        let via_arc: DriveWaveform =
            Arc::new(Waveform::new(vec![0.0, 1.0], vec![0.5, 0.5]).unwrap()).into();
        assert_eq!(via_arc.eval(0.3), 0.5);
        assert_eq!(via_arc.initial_value(), 0.5);
    }
}
