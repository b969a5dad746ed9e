//! Takes turns between the stages of a run. The host's speed drifts by tens
//! of percent over seconds, so a stage measured in one contiguous block
//! inherits whatever stretch it landed in; interleaving spreads every
//! stage's units over the whole measured period instead.

use std::time::Instant;

/// A stage that runs in units.
pub trait Stage {
    /// Units run so far.
    fn units(&self) -> usize;
    /// Units the stage must run; a timed stage's floor.
    fn target(&self) -> usize;
    /// Whether the stage keeps running until the time budget is spent.
    fn timed(&self) -> bool;
    /// Whether an operation failed, which ends the stage early.
    fn failed(&self) -> bool;
    /// Runs one unit.
    fn step(&mut self);
}

/// Runs the stages until each has met its target and the timed ones have
/// spent `seconds`. Untimed stages spread their units evenly over the budget
/// while a timed stage runs, and finish back to back otherwise.
pub fn run(stages: &mut [&mut dyn Stage], seconds: f64) {
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let done = |s: &dyn Stage| {
            s.failed() || (s.units() >= s.target() && (!s.timed() || elapsed >= seconds))
        };
        if stages.iter().all(|s| done(&**s)) {
            return;
        }
        let timed_running = stages.iter().any(|s| s.timed() && !done(&**s));
        for stage in stages.iter_mut() {
            if done(&**stage) {
                continue;
            }
            let due = if stage.timed() || !timed_running {
                usize::MAX
            } else {
                (elapsed / seconds * stage.target() as f64).ceil() as usize
            };
            if stage.units() < due {
                stage.step();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        units: usize,
        target: usize,
        timed: bool,
    }

    impl Stage for Counter {
        fn units(&self) -> usize {
            self.units
        }
        fn target(&self) -> usize {
            self.target
        }
        fn timed(&self) -> bool {
            self.timed
        }
        fn failed(&self) -> bool {
            false
        }
        fn step(&mut self) {
            self.units += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    #[test]
    fn untimed_stages_meet_their_targets_and_timed_ones_spend_the_budget() {
        let mut timed = Counter {
            units: 0,
            target: 2,
            timed: true,
        };
        let mut fixed = Counter {
            units: 0,
            target: 5,
            timed: false,
        };
        let start = Instant::now();
        run(&mut [&mut timed, &mut fixed], 0.05);
        assert!(start.elapsed().as_secs_f64() >= 0.05);
        assert_eq!(fixed.units, 5);
        assert!(timed.units > fixed.units);

        let mut alone = Counter {
            units: 0,
            target: 3,
            timed: false,
        };
        run(&mut [&mut alone], 10.0);
        assert_eq!(alone.units, 3);
    }
}
