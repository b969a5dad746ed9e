//! Bit-identity pins for sampled-input evaluation.
//!
//! A sampled waveform is evaluated three ways: the validating `interp1`
//! (O(n) per call, for one-off queries), the unchecked kernel
//! `interp1_unchecked` (O(log n), for grids already known to be valid) and a
//! `SegmentCursor` (O(1) amortized along a sweep — what the engine uses per
//! pin). All three must return the same bits for every query, in every query
//! order the engine produces, or the simulator's results would depend on
//! which path evaluated its inputs. The same holds for `DriveWaveform`'s
//! `Sampled` and `Pwl` forms and for the merge-walk resampler.

use mcsm_core::sim::DriveWaveform;
use mcsm_num::interp::{interp1, interp1_unchecked, resample, SegmentCursor};
use mcsm_num::testrand::TestRng;
use mcsm_spice::waveform::Waveform;

/// A seeded strictly increasing grid of `n` samples with random gaps
/// (including near-ulp ones) and random values.
fn random_grid(rng: &mut TestRng, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut xs = Vec::with_capacity(n);
    let mut x = rng.in_range(1e-15, 1e-9);
    for _ in 0..n {
        xs.push(x);
        let gap = match rng.index(4) {
            // Zero to two ulps: neighbours as close as floats allow.
            0 => x * rng.in_range(0.0, 4e-16),
            1 => rng.in_range(1e-13, 1e-12),
            _ => rng.in_range(1e-12, 50e-12),
        };
        let next = x + gap;
        // Guarantee strict increase even where the gap rounds away (for a
        // positive `x` the next bit pattern is the next float up).
        x = if next > x {
            next
        } else {
            f64::from_bits(x.to_bits() + 1)
        };
    }
    let ys = (0..n).map(|_| rng.in_range(-0.3, 1.5)).collect();
    (xs, ys)
}

/// Query sequences the engine and the resampler produce, plus edge cases.
fn query_sequences(rng: &mut TestRng, xs: &[f64]) -> Vec<Vec<f64>> {
    let (lo, hi) = (xs[0], xs[xs.len() - 1]);
    let span = (hi - lo).max(1e-12);
    let mut sequences = Vec::new();

    // Monotone queries across and beyond the range.
    let mut monotone: Vec<f64> = (0..80)
        .map(|_| rng.in_range(lo - 0.2 * span, hi + 0.2 * span))
        .collect();
    monotone.sort_by(f64::total_cmp);
    sequences.push(monotone);

    // The engine's pattern: per step, t_prev and t_next, then sub-steps that
    // restart at t_prev (a step back) and walk to t_next.
    let steps = 20 + rng.index(40);
    let dt = span / steps as f64 * rng.in_range(0.5, 1.5);
    let mut engine = Vec::new();
    for k in 0..steps {
        let t_prev = lo + k as f64 * dt;
        let t_next = lo + (k + 1) as f64 * dt;
        engine.push(t_prev);
        engine.push(t_next);
        let n_sub = 1 + rng.index(8);
        let h = dt / n_sub as f64;
        for s in 0..n_sub {
            let t0 = t_prev + s as f64 * h;
            engine.push(t0);
            engine.push(t0 + h);
        }
    }
    sequences.push(engine);

    // Exact sample times, in order, reversed and shuffled.
    sequences.push(xs.to_vec());
    sequences.push(xs.iter().rev().copied().collect());
    let mut shuffled = xs.to_vec();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.index(i + 1));
    }
    sequences.push(shuffled);

    // Out-of-range and non-finite times, interleaved with in-range ones.
    sequences.push(vec![
        lo - span,
        f64::NEG_INFINITY,
        0.5 * (lo + hi),
        hi + span,
        f64::INFINITY,
        lo,
        hi,
        -0.0,
        0.0,
        f64::NAN,
        0.25 * (lo + hi),
    ]);
    sequences
}

fn assert_same_bits(a: f64, b: f64, what: &str, x: f64) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{what} at x = {x:e}: {a:e} vs {b:e}"
    );
}

#[test]
fn kernel_and_cursor_match_interp1_bit_for_bit_on_random_grids() {
    let mut rng = TestRng::new(0x1e7f_5eed);
    for case in 0..300 {
        let n = 1 + rng.index(if case % 10 == 0 { 400 } else { 40 });
        let (xs, ys) = random_grid(&mut rng, n);
        for queries in query_sequences(&mut rng, &xs) {
            // One cursor per sequence, carried across every query of it.
            let mut cursor = SegmentCursor::new();
            for &x in &queries {
                let reference = interp1(&xs, &ys, x).unwrap();
                assert_same_bits(interp1_unchecked(&xs, &ys, x), reference, "kernel", x);
                assert_same_bits(cursor.eval(&xs, &ys, x), reference, "cursor", x);
            }
        }
    }
}

#[test]
fn drive_waveforms_agree_with_interp1_on_the_same_samples() {
    let mut rng = TestRng::new(0xd21e);
    for case in 0..100 {
        let n = 1 + rng.index(if case % 10 == 0 { 300 } else { 30 });
        let (xs, ys) = random_grid(&mut rng, n);
        let wf = Waveform::new(xs.clone(), ys.clone()).unwrap();
        let sampled = DriveWaveform::Sampled(wf.clone());
        let pwl = DriveWaveform::from_waveform(wf.clone());
        for queries in query_sequences(&mut rng, &xs) {
            let (mut c_sampled, mut c_pwl, mut c_wave) = (
                SegmentCursor::new(),
                SegmentCursor::new(),
                SegmentCursor::new(),
            );
            for &x in &queries {
                let reference = interp1(&xs, &ys, x).unwrap();
                assert_same_bits(wf.value_at(x), reference, "Waveform::value_at", x);
                assert_same_bits(
                    wf.value_at_with(&mut c_wave, x),
                    reference,
                    "Waveform::value_at_with",
                    x,
                );
                assert_same_bits(sampled.eval(x), reference, "Sampled::eval", x);
                assert_same_bits(pwl.eval(x), reference, "Pwl::eval", x);
                assert_same_bits(
                    sampled.eval_with(&mut c_sampled, x),
                    reference,
                    "Sampled::eval_with",
                    x,
                );
                assert_same_bits(pwl.eval_with(&mut c_pwl, x), reference, "Pwl::eval_with", x);
            }
        }
    }
}

#[test]
fn resampling_is_one_walk_bit_identical_to_mapping_interp1() {
    let mut rng = TestRng::new(0x4e5a);
    for _ in 0..100 {
        let n = 1 + rng.index(60);
        let (xs, ys) = random_grid(&mut rng, n);
        let m = 1 + rng.index(60);
        let (targets, _) = random_grid(&mut rng, m);
        let mapped: Vec<u64> = targets
            .iter()
            .map(|&x| interp1(&xs, &ys, x).unwrap().to_bits())
            .collect();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();

        assert_eq!(bits(resample(&xs, &ys, &targets).unwrap()), mapped);
        // Unsorted targets still match the per-point mapping.
        let reversed: Vec<f64> = targets.iter().rev().copied().collect();
        let mut mapped_reversed = mapped.clone();
        mapped_reversed.reverse();
        assert_eq!(
            bits(resample(&xs, &ys, &reversed).unwrap()),
            mapped_reversed
        );

        let wf = Waveform::new(xs.clone(), ys.clone()).unwrap();
        let onto = wf.resample_onto(&targets).unwrap();
        assert_eq!(bits(onto.values().to_vec()), mapped);
    }
    // Validation still happens once, and an empty target needs none.
    assert!(resample(&[1.0, 0.0], &[0.0, 1.0], &[0.5]).is_err());
    assert!(resample(&[0.0, 1.0], &[0.0], &[0.5]).is_err());
    assert_eq!(
        resample(&[1.0, 0.0], &[0.0, 1.0], &[]).unwrap(),
        Vec::<f64>::new()
    );
}
