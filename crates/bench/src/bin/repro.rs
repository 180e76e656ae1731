//! `repro` — regenerate the paper's tables and figures (13 experiments),
//! plus the deterministic `disruptions` XDT guard. Performance is measured
//! by `benchmark/`, not here.
//!
//! ```text
//! repro list                               # show the 14 experiments
//! repro all [--quick]                      # run the whole suite
//! repro fig6cde [--seed 3]                 # run one experiment
//! repro all --seed 1,2,3 --ledger-out REPRO.json          # every row of every seed, as JSON
//! repro disruptions --telemetry-out telemetry.json        # metrics + Chrome trace export
//! ```
//!
//! Every experiment returns rows; `repro` prints each experiment's rows as
//! one table per seed. `--seed` takes one seed or a comma list.
//! `--ledger-out PATH` writes the rows of every experiment and seed of the
//! run to `PATH` (see [`foodmatch_bench::ledger::to_json`]); a non-finite
//! value fails the run.
//!
//! `--telemetry-out PATH` installs a global [`foodmatch_telemetry`] recorder
//! before the first experiment runs, then writes the aggregated metric
//! snapshot to `PATH` as JSON and the ring-buffered span trace to
//! `PATH` with a `.trace.json` suffix (Chrome trace-event format, loadable
//! in `chrome://tracing` or Perfetto).

use foodmatch_bench::ledger::{self, Row};
use foodmatch_bench::{experiments, ExperimentContext};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }

    let mut ctx = ExperimentContext::default();
    let mut seeds: Vec<u64> = vec![ctx.seed];
    let mut ledger_out: Option<std::path::PathBuf> = None;
    let mut telemetry_out: Option<std::path::PathBuf> = None;
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => ctx.quick = true,
            "--seed" => match iter.next().and_then(|s| parse_seeds(&s)) {
                Some(list) => seeds = list,
                None => {
                    eprintln!("--seed requires an integer or a comma list of integers");
                    return ExitCode::FAILURE;
                }
            },
            "--ledger-out" => match iter.next() {
                Some(path) => ledger_out = Some(path.into()),
                None => {
                    eprintln!("--ledger-out requires a file path argument");
                    return ExitCode::FAILURE;
                }
            },
            "--telemetry-out" => match iter.next() {
                Some(path) => telemetry_out = Some(path.into()),
                None => {
                    eprintln!("--telemetry-out requires a file path argument");
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => names.push(other.to_string()),
        }
    }

    if names.iter().any(|n| n == "list") {
        println!("Available experiments:");
        for experiment in experiments::ALL {
            println!("  {:<10} {}", experiment.name, experiment.description);
        }
        return ExitCode::SUCCESS;
    }

    let to_run: Vec<&experiments::Experiment> = if names.iter().any(|n| n == "all") {
        experiments::ALL.iter().collect()
    } else {
        let mut selected = Vec::new();
        for name in &names {
            match experiments::find(name) {
                Some(experiment) => selected.push(experiment),
                None => {
                    eprintln!("unknown experiment '{name}' (try `repro list`)");
                    return ExitCode::FAILURE;
                }
            }
        }
        selected
    };

    if to_run.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }

    println!(
        "# FoodMatch reproduction harness — seeds {seeds:?}, {} mode",
        if ctx.quick { "quick" } else { "full" }
    );
    let recorder = telemetry_out.as_ref().map(|_| {
        let recorder = foodmatch_telemetry::Recorder::new();
        foodmatch_telemetry::install(recorder.clone());
        recorder
    });
    let mut ledger: Vec<(u64, Row)> = Vec::new();
    for experiment in to_run {
        for &seed in &seeds {
            ctx.seed = seed;
            #[expect(clippy::disallowed_methods, reason = "each experiment's printed wall time")]
            let started = std::time::Instant::now();
            let rows = experiment.rows(&ctx);
            ledger::print(&format!("{} (seed {seed})", experiment.description), &rows);
            println!("\n[{} finished in {:.1}s]", experiment.name, started.elapsed().as_secs_f64());
            ledger.extend(rows.into_iter().map(|row| (seed, row)));
        }
    }
    if let (Some(path), Some(recorder)) = (&telemetry_out, recorder) {
        foodmatch_telemetry::uninstall();
        if let Err(error) = write_telemetry(path, &recorder) {
            eprintln!("failed to write telemetry to {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &ledger_out {
        let written = ledger::to_json(&seeds, ctx.quick, &ledger)
            .and_then(|json| std::fs::write(path, json).map_err(|error| error.to_string()));
        match written {
            Ok(()) => println!("\nledger of {} rows written to {}", ledger.len(), path.display()),
            Err(error) => {
                eprintln!("failed to write the ledger to {}: {error}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Writes the metric snapshot to `path` and the span trace to a sibling
/// `<stem>.trace.json` in Chrome trace-event format.
fn write_telemetry(
    path: &std::path::Path,
    recorder: &foodmatch_telemetry::Recorder,
) -> std::io::Result<()> {
    let snapshot = recorder.telemetry.snapshot();
    std::fs::write(path, snapshot.to_json())?;
    println!("\ntelemetry snapshot written to {}", path.display());
    let trace_path = path.with_extension("trace.json");
    std::fs::write(&trace_path, recorder.trace.chrome_trace_json())?;
    println!("span trace written to {} ({} spans)", trace_path.display(), recorder.trace.len());
    Ok(())
}

/// Parses `--seed`'s argument: one seed or a comma list, none of them empty.
fn parse_seeds(arg: &str) -> Option<Vec<u64>> {
    arg.split(',').map(|seed| seed.trim().parse().ok()).collect()
}

fn usage() {
    eprintln!(
        "usage: repro <experiment|all|list> [--quick] [--seed N[,N...]] [--ledger-out FILE] \
         [--telemetry-out FILE]"
    );
    eprintln!("run `repro list` to see the available experiments");
}
