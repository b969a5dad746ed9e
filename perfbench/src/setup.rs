//! The fixed configuration every workload shares and the timed set-up phase:
//! characterization, circuit builds and the served session's first
//! evaluation.

use crate::measure::{timed, Report};
use crate::{netsim_stage, seq_stage, serve_stage};
use mcsm_cells::cell::CellKind;
use mcsm_cells::tech::Technology;
use mcsm_core::characterize::RegisterCharacterizationConfig;
use mcsm_core::config::CharacterizationConfig;
use mcsm_core::sim::CsmSimOptions;
use mcsm_num::json::JsonValue;
use mcsm_sta::delaycalc::{DelayBackend, DelayCalculator};
use mcsm_sta::models::ModelLibrary;

/// Engine time step of every gate solve and of the SPICE reference (s).
pub const DT: f64 = 2e-12;
/// Extra lumped load on every primary output of the timed circuits (F).
pub const PO_LOAD: f64 = 2e-15;
/// Model backend of every timed gate solve.
pub const BACKEND: DelayBackend = DelayBackend::CompleteMcsm;
/// Label of [`BACKEND`] in the recorded configuration.
pub const BACKEND_NAME: &str = "complete_mcsm";
/// The combinational cells the generators instantiate.
pub const COMB_CELLS: [CellKind; 3] = [CellKind::Inverter, CellKind::Nand2, CellKind::Nor2];
/// Set-up repetitions per untraced run; `setup_s` is their quiet figure.
pub const SETUP_REPEATS: usize = 3;

/// How much work a stage does. The workload's own stage runs `Scaled`: for
/// the measured seconds, on seeded inputs. The other stages run a fixed
/// number of `Compact` units on fixed inputs, spread over the same seconds.
/// `Smallest` is the self-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Scaled,
    Compact,
    Smallest,
}

/// What one stage is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub size: Size,
    /// Seed of the stage's generated inputs.
    pub seed: u64,
    /// Worker threads of the `par` pool.
    pub threads: usize,
}

impl Size {
    /// The size's name in the recorded configuration.
    pub fn json(self) -> JsonValue {
        JsonValue::String(format!("{self:?}").to_lowercase())
    }
}

impl Plan {
    /// Seed of the fixed inputs of `Compact`/`Smallest` passes: they must not
    /// move with `--seed`, so their figures only carry timing noise.
    pub const FIXED_SEED: u64 = 1;
}

/// The delay calculator of every timed solve for a simulation window.
pub fn calculator(vdd: f64, window: f64) -> DelayCalculator {
    DelayCalculator::new(BACKEND, CsmSimOptions::new(window, DT), vdd)
}

/// Everything a run's stages consume, built by one set-up pass.
pub struct Context {
    pub library: ModelLibrary,
    pub netsim: netsim_stage::Circuit,
    pub seq: seq_stage::Circuit,
    pub serve: serve_stage::Session,
}

/// Wall-clock split of one set-up pass (seconds).
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    comb: f64,
    regs: f64,
    build: f64,
    levelize: f64,
    serve_open: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.comb + self.regs + self.build + self.levelize + self.serve_open
    }
}

fn setup_once(plans: &[Plan; 3], threads: usize) -> Result<(Context, SetupTimes), String> {
    let technology = Technology::cmos_130nm();
    let mut times = SetupTimes::default();
    let (library, secs) = timed("bench.characterize.characterize_parallel", || {
        ModelLibrary::characterize_parallel(
            &technology,
            &COMB_CELLS,
            &CharacterizationConfig::standard(),
            threads,
        )
    });
    let mut library = library.map_err(|e| format!("characterization failed: {e}"))?;
    times.comb = secs;
    let (regs, secs) = timed("bench.characterize.characterize_registers", || {
        library.characterize_registers(
            &technology,
            &[CellKind::Dff],
            &RegisterCharacterizationConfig::standard(),
        )
    });
    regs.map_err(|e| format!("register characterization failed: {e}"))?;
    times.regs = secs;

    let [netsim_plan, seq_plan, serve_plan] = plans;
    let vdd = library.vdd();
    let (netsim, b, l) = netsim_stage::Circuit::build(netsim_plan, vdd);
    times.build += b;
    times.levelize += l;
    let (seq, b, l) = seq_stage::Circuit::build(seq_plan)?;
    times.build += b;
    times.levelize += l;
    let (serve_circuit, b, l) = serve_stage::Circuit::build(serve_plan, vdd);
    times.build += b;
    times.levelize += l;
    let (serve, secs) = serve_stage::Session::open(serve_circuit, &library, serve_plan)?;
    times.serve_open = secs;
    Ok((
        Context {
            library,
            netsim,
            seq,
            serve,
        },
        times,
    ))
}

/// Runs the set-up `repeats` times, keeps the last context and reports
/// `setup_s` plus the per-layer set-up split, each as the quiet figure of
/// the repeats. Each repeat drops the previous context first, so only one
/// library, one set of circuits and one session are ever alive and
/// `peak_rss_mib` does not grow with the number of repeats.
pub fn run_setup(
    plans: &[Plan; 3],
    threads: usize,
    repeats: usize,
    report: &mut Report,
) -> Result<Context, String> {
    let mut all = Vec::with_capacity(repeats);
    let mut context = None;
    for _ in 0..repeats.max(1) {
        drop(context.take());
        let (ctx, times) = setup_once(plans, threads)?;
        all.push(times);
        context = Some(ctx);
    }
    let quiet =
        |f: fn(&SetupTimes) -> f64| crate::measure::quiet(&all.iter().map(f).collect::<Vec<_>>());
    report.e2e("setup_s", quiet(SetupTimes::total), "s");
    report.layer("characterize.comb_s", quiet(|t| t.comb), "s");
    report.layer("characterize.regs_s", quiet(|t| t.regs), "s");
    report.layer("net.build_s", quiet(|t| t.build), "s");
    report.layer("net.levelize_s", quiet(|t| t.levelize), "s");
    context.ok_or_else(|| "set-up never ran".to_string())
}

/// The configuration block recorded with every result, so figures from
/// different machines or settings are never mixed up.
pub fn config_json(threads: usize, nproc: usize, ctx: &Context) -> JsonValue {
    let grid = CharacterizationConfig::standard();
    JsonValue::Object(vec![
        ("nproc".into(), JsonValue::Number(nproc as f64)),
        ("pool_threads".into(), JsonValue::Number(threads as f64)),
        (
            "characterization_grid".into(),
            JsonValue::Object(vec![
                ("name".into(), JsonValue::String("standard".into())),
                (
                    "current_grid_points".into(),
                    JsonValue::Number(grid.current_grid_points as f64),
                ),
                (
                    "capacitance_grid_points".into(),
                    JsonValue::Number(grid.capacitance_grid_points as f64),
                ),
                ("registers".into(), JsonValue::String("standard".into())),
            ]),
        ),
        ("backend".into(), JsonValue::String(BACKEND_NAME.into())),
        ("dt_s".into(), JsonValue::Number(DT)),
        ("primary_output_load_f".into(), JsonValue::Number(PO_LOAD)),
        ("netsim".into(), ctx.netsim.describe()),
        ("seq".into(), ctx.seq.describe()),
        ("serve".into(), ctx.serve.describe()),
    ])
}
