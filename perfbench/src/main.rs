//! End-to-end and per-layer benchmark of the MCSM pipeline.
//!
//! ```text
//! mcsm-perfbench --workload <netsim_cold|seq_cycles|serve_whatif> --seed <n>
//!                --seconds <s> --trace <0|1> [--size smallest]
//! ```
//!
//! Every run characterizes the standard library, builds its circuits and
//! runs all three stages (batch netsim, clocked epochs + sequential STA,
//! served what-if requests) plus the SPICE oracle. The workload's own stage
//! runs at scale on `--seed`-generated inputs for `--seconds`; the others run
//! a compact fixed pass, so every run reports every metric. The last stdout
//! line is `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`);
//! the line before it records the configuration, `failed_frac`, any failure
//! messages and, when traced, the span profile. The exit code is non-zero
//! when any operation or output check failed. See `README.md`.

mod accuracy;
mod measure;
mod netsim_stage;
mod probe;
mod profile;
mod schedule;
mod seq_stage;
mod serve_stage;
mod setup;

use mcsm_num::json::JsonValue;
use measure::{metrics_json, percentile, Meter, Report};
use schedule::Stage;
use setup::{Context, Plan, Size, SETUP_REPEATS};
use std::process::ExitCode;

/// The workloads, in stage order: each names the stage it scales.
const WORKLOADS: [&str; 3] = ["netsim_cold", "seq_cycles", "serve_whatif"];

#[derive(Debug, Clone)]
struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    smallest: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smallest) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| *w == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--size" => match value()?.as_str() {
                "smallest" => smallest = true,
                other => return Err(format!("--size takes `smallest`, got `{other}`")),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smallest,
    })
}

fn plans(args: &Args, threads: usize) -> [Plan; 3] {
    std::array::from_fn(|stage| Plan {
        size: match (args.smallest, stage == args.workload) {
            (true, _) => Size::Smallest,
            (false, true) => Size::Scaled,
            (false, false) => Size::Compact,
        },
        seed: args.seed,
        threads,
    })
}

/// Runs the stages of `which` (stage indices) taking turns for `seconds`;
/// returns each stage's report and meter, in the order given.
fn measure(
    ctx: &mut Context,
    plans: &[Plan; 3],
    which: &[usize],
    seconds: f64,
) -> Vec<(Report, Meter)> {
    let Context {
        library,
        netsim,
        seq,
        serve,
    } = ctx;
    let mut netsim = netsim_stage::Runner::new(netsim, library, &plans[0]);
    let mut seq = seq_stage::Runner::new(seq, library, &plans[1]);
    let mut serve = serve_stage::Runner::new(serve, library);
    {
        let mut all: [Option<&mut dyn Stage>; 3] =
            [Some(&mut netsim), Some(&mut seq), Some(&mut serve)];
        let mut stages: Vec<&mut dyn Stage> = which
            .iter()
            .map(|&stage| all[stage].take().expect("each stage listed once"))
            .collect();
        schedule::run(&mut stages, seconds);
    }
    let (mut netsim, mut seq, mut serve) = (Some(netsim), Some(seq), Some(serve));
    which
        .iter()
        .map(|&stage| match stage {
            0 => netsim.take().map(netsim_stage::Runner::finish),
            1 => seq.take().map(seq_stage::Runner::finish),
            _ => serve.take().map(serve_stage::Runner::finish),
        })
        .map(|finished| finished.expect("each stage is measured once"))
        .collect()
}

/// The end-to-end rate each workload's trace overhead is judged by.
const HEADLINE: [&str; 3] = ["gates_per_s", "cycles_per_s", "requests_per_s"];

fn headline(report: &Report, stage: usize) -> f64 {
    report
        .end_to_end
        .iter()
        .find(|m| m.name == HEADLINE[stage])
        .map_or(f64::NAN, |m| m.value)
}

/// Layers every stage exercises, attributed to the workload's own stage.
fn cross_cutting(report: &mut Report, meter: &Meter, profile: &profile::Profile, threads: usize) {
    report.layer(
        "sta.delay_cache.hit_ratio",
        measure::ratio(
            meter.delta("netsim.cache_hits"),
            meter.delta("netsim.cache_misses"),
        ),
        "ratio",
    );
    let (hits, misses) = (
        meter.delta("netsim.waveform_hits"),
        meter.delta("netsim.waveform_misses"),
    );
    report.layer("sta.memo.hit_ratio", measure::ratio(hits, misses), "ratio");
    // Engine calls beyond one per memo miss (and per recovery retry) are
    // concurrent fills of one key; without the memo there is nothing to
    // duplicate. Counts are per unit of the stage.
    let units = meter.spans.len().max(1) as f64;
    let duplicates = if hits + misses > 0.0 {
        (meter.delta("core.sim.calls") - misses - meter.delta("netsim.recoveries")).max(0.0)
    } else {
        0.0
    };
    report.layer("sta.memo.duplicate_solves", duplicates / units, "count");
    let queue = profile.durations_us("par.queue", meter);
    let exec = profile.durations_us("par.exec", meter);
    report.layer("par.jobs", meter.delta("par.jobs") / units, "count");
    report.layer("par.queue_us_p50", percentile(&queue, 50.0), "us");
    report.layer("par.queue_us_p90", percentile(&queue, 90.0), "us");
    report.layer("par.exec_us_p50", percentile(&exec, 50.0), "us");
    report.layer(
        "par.busy_frac",
        exec.iter().sum::<f64>() * 1e-6 / (threads as f64 * meter.seconds()),
        "ratio",
    );
}

/// What a finished run prints.
struct Outcome {
    report: Report,
    info: Vec<(String, JsonValue)>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc;
    let plans = plans(args, threads);
    let primary = args.workload;

    let arm = |on: bool| {
        mcsm_obs::set_trace(on);
        mcsm_obs::set_metrics(on);
    };
    arm(args.trace);
    mcsm_obs::span::clear();
    mcsm_obs::global().reset();
    let traced_from = mcsm_obs::now_ns();

    let mut report = Report::default();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut ctx = setup::run_setup(&plans, threads, repeats, &mut report)?;
    // Opening the served session armed metrics for the whole process; the
    // batch stages run as a batch user runs them, disarmed unless traced.
    arm(args.trace);

    // Untraced, the stages take turns for the whole period. Traced, the
    // workload's stage runs alone twice for half the period each, first
    // disarmed and then armed (the ratio of the two is the trace overhead),
    // and the compact passes follow, armed.
    let order: Vec<usize> = std::iter::once(primary)
        .chain((0..3).filter(|&s| s != primary))
        .collect();
    let mut untraced_ns = 0;
    let mut overhead = f64::NAN;
    let measured = if args.trace {
        arm(false);
        let from = mcsm_obs::now_ns();
        let (untraced, _) = measure(&mut ctx, &plans, &[primary], args.seconds / 2.0)
            .pop()
            .expect("one stage measured");
        if primary == 2 {
            ctx.serve = ctx.serve.reopen(&ctx.library, &plans[2])?;
        }
        untraced_ns = mcsm_obs::now_ns() - from;
        arm(true);
        let mut traced = measure(&mut ctx, &plans, &[primary], args.seconds / 2.0);
        overhead = headline(&untraced, primary) / headline(&traced[0].0, primary) - 1.0;
        report.attempted += untraced.attempted;
        report.failed += untraced.failed;
        report.failures.extend(untraced.failures);
        traced.extend(measure(&mut ctx, &plans, &order[1..], args.seconds / 2.0));
        traced
    } else {
        measure(&mut ctx, &plans, &order, args.seconds)
    };
    // The workload's stage first, so its layer figures win the merge.
    let mut meters: [Meter; 3] = Default::default();
    for (&stage, (stage_report, meter)) in order.iter().zip(measured) {
        report.merge(stage_report);
        meters[stage] = meter;
    }
    report.merge(accuracy::run(&ctx.library, args.seed, threads));
    let config = setup::config_json(threads, nproc, &ctx);

    let mut info = vec![
        (
            "workload".into(),
            JsonValue::String(WORKLOADS[primary].into()),
        ),
        ("seed".into(), JsonValue::Number(args.seed as f64)),
        ("seconds".into(), JsonValue::Number(args.seconds)),
        ("trace".into(), JsonValue::Bool(args.trace)),
        ("config".into(), config),
        (
            "samples".into(),
            JsonValue::Object(
                report
                    .samples
                    .iter()
                    .map(|(name, n)| (name.to_string(), JsonValue::Number(*n as f64)))
                    .collect(),
            ),
        ),
    ];
    if args.trace {
        report.merge(probe::run(&ctx.library, ctx.netsim.window()));
        let wall_ns = (mcsm_obs::now_ns() - traced_from - untraced_ns) as f64;
        let trace = mcsm_obs::trace::chrome_trace();
        arm(false);
        let profile = profile::reduce(&trace, wall_ns);
        drop(trace);
        cross_cutting(&mut report, &meters[primary], &profile, threads);
        netsim_stage::in_gate_rate(&mut report, &meters[0], &profile);
        report.layer("obs.trace_overhead_frac", overhead, "ratio");
        report.layer("obs.span_coverage_frac", profile.coverage, "ratio");
        info.push(("profile".into(), profile.to_json()));
    }
    if let Some(mib) = measure::peak_rss_mib() {
        report.e2e("peak_rss_mib", mib, "MiB");
    }
    Ok(Outcome { report, info })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: mcsm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--size smallest]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.trace {
        // Room for every span of the traced pass: the default per-thread
        // ring would drop the oldest spans of a long request stream. Set
        // before the first instrumentation site reads the environment.
        std::env::set_var("MCSM_TRACE_BUF", "2000000");
    }
    let Outcome {
        mut report,
        mut info,
    } = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &report.failures {
        eprintln!("check failed: {failure}");
    }
    report.layer("failed_frac", report.failed_frac(), "ratio");
    info.push((
        "failed_frac".into(),
        JsonValue::Object(vec![
            ("value".into(), JsonValue::Number(report.failed_frac())),
            ("unit".into(), JsonValue::String("ratio".into())),
        ]),
    ));
    info.push((
        "failures".into(),
        JsonValue::Array(
            report
                .failures
                .iter()
                .cloned()
                .map(JsonValue::String)
                .collect(),
        ),
    ));
    println!("{}", JsonValue::Object(info).to_string_compact());
    // Written by hand so the counts print as JSON integers.
    let metrics = if args.trace {
        &report.layers
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_json(metrics).to_string_compact()
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = parse("--workload seq_cycles --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!((args.workload, args.seed, args.seconds), (1, 7, 2.5));
        assert!(args.trace && !args.smallest);
        assert!(
            parse("--workload seq_cycles --seed 7 --seconds 2 --trace 0 --size smallest")
                .unwrap()
                .smallest
        );
        assert!(parse("--workload nope --seed 7 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload seq_cycles --seed 7 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload seq_cycles --seed 7 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload seq_cycles --seconds 2 --trace 0").is_err());
    }

    #[test]
    fn only_the_workload_stage_scales() {
        let args = parse("--workload serve_whatif --seed 3 --seconds 4 --trace 0").unwrap();
        let sizes = plans(&args, 2).map(|p| p.size);
        assert_eq!(sizes, [Size::Compact, Size::Compact, Size::Scaled]);
    }
}
