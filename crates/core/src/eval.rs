//! Per-run evaluation scratch threaded through the model hot loops.
//!
//! Every explicit/predictor–corrector sub-step of the simulation engine (paper
//! Eqs. (4)–(5)) queries the model's current and capacitance tables. Tables a
//! model reads at the same point on a shared grid form one group
//! ([`crate::table::Table4Group`] and its 3-D/2-D twins), located once per
//! query. An [`EvalState`] carries one [`LutCursor`] per group so those
//! queries are allocation-free and O(1) amortized (consecutive sub-steps land
//! in the same or an adjacent grid cell — see `mcsm_num::lut`), plus a lookup
//! counter the benchmarks report as "LUT evals": one per component table
//! interpolated.
//!
//! The state is created by [`crate::model::CellModel::make_eval_state`] — each
//! model family knows how many tables it queries — and threaded by the engine
//! through [`crate::model::CellModel::currents`] and
//! [`crate::model::CellModel::capacitances`]. [`EvalMode::Reference`] retains
//! the historical allocating `LutNd::eval` path (bit-identical by
//! construction); the `sim_hotpath` benchmark gates the fast path's speedup
//! against it.

use mcsm_num::lut::LutCursor;

/// Which lookup-table evaluation path the hot loops use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalMode {
    /// Cursor-accelerated, allocation-free table lookups (the default).
    #[default]
    Fast,
    /// The retained reference path: allocating `LutNd::eval` with a binary
    /// search per axis on every call. Bit-identical to [`EvalMode::Fast`];
    /// kept as the benchmark baseline and as a cross-check in tests.
    Reference,
}

/// Scratch state for one simulation run: a lookup cursor per model table group
/// and a lookup counter.
///
/// Cursors are keyed by *slot* — a small per-model group index (e.g. the MCSM
/// assigns its current tables slot 0 and its capacitance tables slot 1). Reusing one state across many
/// sub-steps is what makes lookups O(1) amortized; reusing it across unrelated
/// runs is harmless (a stale cursor only costs a fallback locate).
#[derive(Debug, Clone)]
pub struct EvalState {
    mode: EvalMode,
    cursors: Vec<LutCursor>,
    lookups: u64,
}

impl EvalState {
    /// Creates a fast-mode state with `slots` table-group cursors.
    pub fn fast(slots: usize) -> Self {
        EvalState {
            mode: EvalMode::Fast,
            cursors: vec![LutCursor::new(); slots],
            lookups: 0,
        }
    }

    /// Switches the state's evaluation mode (cursors are kept; they are
    /// ignored in [`EvalMode::Reference`]).
    pub fn set_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
    }

    /// The active evaluation mode.
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Number of table-group slots.
    pub fn slots(&self) -> usize {
        self.cursors.len()
    }

    /// The cursor of one table-group slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for the model that built this state.
    pub fn cursor(&mut self, slot: usize) -> &mut LutCursor {
        &mut self.cursors[slot]
    }

    /// Records `n` component-table lookups (called by the table evaluation
    /// helpers: a grouped lookup interpolates each of its `n` members).
    pub fn count_lookups(&mut self, n: u64) {
        self.lookups += n;
    }

    /// Total component-table lookups recorded so far.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_tracks_slots_mode_and_lookups() {
        let mut st = EvalState::fast(3);
        assert_eq!(st.slots(), 3);
        assert_eq!(st.mode(), EvalMode::Fast);
        assert_eq!(st.lookups(), 0);
        st.count_lookups(1);
        st.count_lookups(4);
        assert_eq!(st.lookups(), 5);
        st.set_mode(EvalMode::Reference);
        assert_eq!(st.mode(), EvalMode::Reference);
        // Cursors are reachable for every slot.
        let _ = st.cursor(2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_slot_panics() {
        let mut st = EvalState::fast(1);
        let _ = st.cursor(1);
    }
}
