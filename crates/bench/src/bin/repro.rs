//! `repro` — regenerate the paper's tables and figures (13 experiments),
//! plus the deterministic `disruptions` XDT guard. Performance is measured
//! by `benchmark/`, not here.
//!
//! ```text
//! repro list                               # show the 14 experiments
//! repro all [--quick]                      # run the whole suite
//! repro fig6cde [--seed 3]                 # run one experiment
//! repro disruptions --bench-out BENCH_disruptions.json   # machine-readable XDT per run
//! repro disruptions --telemetry-out telemetry.json       # metrics + Chrome trace export
//! ```
//!
//! `--telemetry-out PATH` installs a global [`foodmatch_telemetry`] recorder
//! before the first experiment runs, then writes the aggregated metric
//! snapshot to `PATH` as JSON and the ring-buffered span trace to
//! `PATH` with a `.trace.json` suffix (Chrome trace-event format, loadable
//! in `chrome://tracing` or Perfetto).

use foodmatch_bench::experiments;
use foodmatch_bench::ExperimentContext;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }

    let mut ctx = ExperimentContext::default();
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => ctx.quick = true,
            "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(seed) => ctx.seed = seed,
                None => {
                    eprintln!("--seed requires an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--bench-out" => match iter.next() {
                Some(path) => ctx.bench_out = Some(path.into()),
                None => {
                    eprintln!("--bench-out requires a file path argument");
                    return ExitCode::FAILURE;
                }
            },
            "--telemetry-out" => match iter.next() {
                Some(path) => ctx.telemetry_out = Some(path.into()),
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
        "# FoodMatch reproduction harness — seed {}, {} mode",
        ctx.seed,
        if ctx.quick { "quick" } else { "full" }
    );
    let recorder = ctx.telemetry_out.as_ref().map(|_| {
        let recorder = foodmatch_telemetry::Recorder::new();
        foodmatch_telemetry::install(recorder.clone());
        recorder
    });
    for experiment in to_run {
        let started = std::time::Instant::now();
        (experiment.run)(&ctx);
        println!("\n[{} finished in {:.1}s]", experiment.name, started.elapsed().as_secs_f64());
    }
    if let (Some(path), Some(recorder)) = (&ctx.telemetry_out, recorder) {
        foodmatch_telemetry::uninstall();
        if let Err(error) = write_telemetry(path, &recorder) {
            eprintln!("failed to write telemetry to {}: {error}", path.display());
            return ExitCode::FAILURE;
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

fn usage() {
    eprintln!(
        "usage: repro <experiment|all|list> [--quick] [--seed N] [--bench-out FILE] \
         [--telemetry-out FILE]"
    );
    eprintln!("run `repro list` to see the available experiments");
}
