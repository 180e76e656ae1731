//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! foodmatch-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! foodmatch-benchmark all    [--seed N] [--seconds S] [--smoke]          every workload, both passes
//! foodmatch-benchmark repeat COUNT [--seed N] [--seconds S] [--vary-seed]
//! ```

mod drive;
mod json;
mod layers;
mod metrics;
mod spans;
mod staged;
mod stats;
mod verify;
mod workloads;

use crate::drive::{build, drive, Drive};
use crate::json::Json;
use crate::layers::{probe, Layers};
use crate::metrics::{metrics_json, Measured, END_TO_END};
use crate::spans::{adopt, chrome_trace, Span, Tracer};
use crate::staged::{StageLog, StagedFoodMatch};
use crate::stats::{has_ten_beyond, median, percentile, process_peak_rss_mib, sorted, spread};
use crate::verify::{conservation, digest, Tally};
use crate::workloads::{Workload, World};
use foodmatch_core::FoodMatchPolicy;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`; what `all` and `repeat` run for.
const DEFAULT_SECONDS: f64 = 25.0;

/// Errors are messages: they end the run and are printed once.
type Fallible<T> = Result<T, String>;

#[derive(Clone, Debug)]
struct Options {
    seed: u64,
    seconds: f64,
    smoke: bool,
    vary_seed: bool,
    out: PathBuf,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Fallible<ExitCode> {
    let mut positional = Vec::new();
    let mut workload = None;
    let mut trace = None;
    let mut options = Options {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        smoke: false,
        vary_seed: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => options.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--out" => options.out = PathBuf::from(value()?),
            "--smoke" => options.smoke = true,
            "--vary-seed" => options.vary_seed = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(arg.as_str()),
        }
    }
    match (positional.as_slice(), workload, trace) {
        ([], Some(workload), Some(traced)) => run(workload, traced, &options),
        (["all"], None, None) => all(&options),
        (["repeat", count], None, None) => {
            let count: usize = count.parse().map_err(|_| "repeat takes a count")?;
            if count < 2 {
                return Err("repeat needs at least 2 runs to show a spread".to_string());
            }
            repeat(count, &options)
        }
        _ => Err("usage: --workload NAME --seed N --seconds S --trace 0|1 | all | repeat COUNT"
            .to_string()),
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Pooled results of the untraced pass of every instance of a run.
#[derive(Debug, Default)]
struct EndToEnd {
    setup_s: Vec<f64>,
    /// Latency of every active tick (see [`Drive::active`]).
    tick_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    tally: Tally,
    refused: usize,
}

impl EndToEnd {
    fn add(&mut self, setup_s: f64, drive: &Drive, tally: Tally) {
        self.setup_s.push(setup_s);
        let active = drive.tick_ms.iter().zip(&drive.active).filter(|(_, &active)| active);
        self.tick_ms.extend(active.map(|(ms, _)| ms));
        self.wall_s += drive.wall_s;
        self.cpu_s += drive.cpu_s;
        self.refused += drive.refused;
        self.tally.add(&tally);
    }

    fn finish(&self) -> Vec<Measured> {
        let ticks = sorted(&self.tick_ms);
        let t = &self.tally;
        let value = |name| -> (f64, usize) {
            match name {
                "setup_s" => (median(&self.setup_s), self.setup_s.len()),
                "orders_per_sec" => (t.offered as f64 / self.wall_s, t.offered),
                "cpu_ms_per_order" => (self.cpu_s * 1e3 / t.offered as f64, t.offered),
                "tick_ms_p50" => (percentile(&ticks, 50.0), ticks.len()),
                "tick_ms_p90" => (percentile(&ticks, 90.0), ticks.len()),
                "xdt_min_per_order" => (t.xdt_mins / t.delivered as f64, t.delivered),
                // Cancellations are input, not failures.
                "delivered_share" => {
                    (t.delivered as f64 / (t.offered - t.cancelled) as f64, t.offered - t.cancelled)
                }
                "peak_rss_mb" => (process_peak_rss_mib(), 1),
                other => unreachable!("end-to-end metric {other} has no formula"),
            }
        };
        END_TO_END
            .iter()
            .map(|def| {
                let (value, samples) = value(def.name);
                Measured { name: def.name, unit: def.unit, value, samples }
            })
            .collect()
    }
}

/// One run: every instance of one workload, in this process. Prints the
/// digests and metrics as text and the result object as the last line.
fn run(workload: Workload, traced: bool, options: &Options) -> Fallible<ExitCode> {
    let instances = if options.smoke { 1 } else { workload.instances(options.seconds, traced) };
    let scratch = Scratch(options.out.join(format!("tmp-{}", std::process::id())));
    println!(
        "run {} seed {} trace {} instances {instances} threads {}{}",
        workload.name(),
        options.seed,
        u8::from(traced),
        workload.threads(),
        if options.smoke { " smoke" } else { "" },
    );

    let mut end_to_end = EndToEnd::default();
    let mut layers = Layers::default();
    let mut failures: Vec<String> = Vec::new();
    for index in 0..instances {
        let setup = Instant::now();
        let world = workload.generate(options.seed, index, options.smoke);
        let dispatcher = build(&world, &scratch.0.join(format!("{index}-untraced")), true, |_| {
            FoodMatchPolicy::new()
        })?;
        let setup_s = setup.elapsed().as_secs_f64();
        let untraced = drive(dispatcher, &world, None)?;
        let untraced_digest = digest(&untraced.outputs);
        println!("digest {index} {untraced_digest:08x}");
        match conservation(&untraced.offered, &untraced.outputs, &untraced.report) {
            Ok(tally) => end_to_end.add(setup_s, &untraced, tally),
            Err(why) => failures.push(format!("instance {index}: conservation: {why}")),
        }
        if !traced {
            continue;
        }
        let trace_file =
            (index == 0).then(|| options.out.join(format!("{}.trace.json", workload.name())));
        let traced_dir = scratch.0.join(format!("{index}-traced"));
        failures.extend(
            traced_pass(&world, &traced_dir, &untraced, &mut layers, trace_file.as_deref())?
                .into_iter()
                .map(|why| format!("instance {index}: {why}")),
        );
    }
    drop(scratch);

    let metrics = if traced { layers.finish() } else { end_to_end.finish() };
    for m in &metrics {
        println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    // The tick floor: p90 is only reported with ten samples beyond it.
    let ticks = end_to_end.tick_ms.len();
    if !traced && !options.smoke && !has_ten_beyond(ticks, 90.0) {
        failures
            .push(format!("{ticks} active ticks leave tick_ms_p90 under ten samples beyond it"));
    }
    for why in &failures {
        println!("failure {why}");
    }
    let tally = end_to_end.tally;
    let failed = tally.rejected + tally.undelivered + end_to_end.refused;
    let result = Json::obj([
        ("correct", Json::Bool(failures.is_empty())),
        ("attempted", Json::Int(tally.offered.max(1) as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{result}");
    Ok(if failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The traced pass of one instance: a recorder for the counters the
/// program exports, the benchmark's tracer for everything else. Adds the
/// instance to `layers`, writes its Chrome trace to `trace_file` if given,
/// and returns the checks that failed.
fn traced_pass(
    world: &World,
    scratch: &Path,
    untraced: &Drive,
    layers: &mut Layers,
    trace_file: Option<&Path>,
) -> Fallible<Vec<String>> {
    let recorder = foodmatch_telemetry::Recorder::new();
    foodmatch_telemetry::install(recorder.clone());
    let tracer = Arc::new(Tracer::new());
    // One span on both clocks, to map the program's trace epoch onto ours.
    let epoch_probe = recorder.trace.span("bench", "epoch");
    let epoch_ns = tracer.now_ns() as i64;
    drop(epoch_probe);
    let stage_log = Arc::new(StageLog::default());
    let dispatcher = build(world, scratch, false, |zone| {
        StagedFoodMatch::new(Arc::clone(&tracer), Arc::clone(&stage_log), zone)
    });
    let result = dispatcher.and_then(|d| drive(d, world, Some(&tracer)));
    foodmatch_telemetry::uninstall();
    let traced = result?;

    let mut failures = Vec::new();
    if let Err(why) = conservation(&traced.offered, &traced.outputs, &traced.report) {
        failures.push(format!("traced conservation: {why}"));
    }
    if let Some(why) = stage_log.invalid.lock().expect("stage log poisoned").take() {
        failures.push(format!("invalid assignment: {why}"));
    }
    let (traced_digest, untraced_digest) = (digest(&traced.outputs), digest(&untraced.outputs));
    if traced_digest != untraced_digest {
        failures
            .push(format!("traced digest {traced_digest:08x} != untraced {untraced_digest:08x}"));
    }

    let program_spans = recorder.trace.events();
    let epoch_us = program_spans
        .iter()
        .find(|e| e.cat == "bench")
        .map(|e| e.start_us as i64)
        .ok_or("the epoch probe span was evicted from the recorder's ring")?;
    tracer.import(&program_spans, epoch_ns - epoch_us * 1_000);
    let mut spans = tracer.take();
    let zone = |s: &Span| s.name.starts_with("zone");
    adopt(&mut spans, zone, |s| s.name == "advance");
    adopt(&mut spans, |s| s.name == "policy.assign" || s.name == "validate", zone);
    let windows = std::mem::take(&mut *stage_log.windows.lock().expect("stage log poisoned"));
    let snapshot = recorder.telemetry.snapshot();
    layers.add_instance(world, &spans, windows, &snapshot, untraced, &traced);
    if let Some(path) = trace_file {
        layers.set_probes(probe(world));
        write_file(path, &chrome_trace(&spans).to_string())?;
    }
    Ok(failures)
}

fn write_file(path: &Path, text: &str) -> Fallible<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What a child run printed.
#[derive(Clone, Debug, Default, PartialEq)]
struct ChildReport {
    workload: &'static str,
    traced: bool,
    exit_ok: bool,
    digests: Vec<u32>,
    /// `(name, value, unit, samples)`.
    metrics: Vec<(String, f64, String, usize)>,
    failures: Vec<String>,
}

fn parse_child(workload: &'static str, traced: bool, exit_ok: bool, stdout: &str) -> ChildReport {
    let mut report = ChildReport { workload, traced, exit_ok, ..Default::default() };
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_ascii_whitespace().collect();
        match words.as_slice() {
            ["digest", _, hex] => report.digests.extend(u32::from_str_radix(hex, 16)),
            ["metric", name, value, unit, samples] => {
                let samples = samples.trim_start_matches("n=").parse().unwrap_or(0);
                if let Ok(value) = value.parse() {
                    report.metrics.push((name.to_string(), value, unit.to_string(), samples));
                }
            }
            ["failure", ..] => report.failures.push(line["failure ".len()..].to_string()),
            _ => {}
        }
    }
    report
}

/// Runs one child process — one (workload, pass) — and waits for it. Its
/// stderr passes through; its stdout is echoed indented.
fn child(workload: Workload, traced: bool, seed: u64, options: &Options) -> Fallible<ChildReport> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name(), "--trace", if traced { "1" } else { "0" }])
        .args(["--seed", &seed.to_string(), "--seconds", &options.seconds.to_string()])
        .arg("--out")
        .arg(&options.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawning the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("  {line}");
    }
    Ok(parse_child(workload.name(), traced, output.status.success(), &stdout))
}

/// Everything that makes an `all` run fail: a child that failed, and check
/// 3 across the two passes of a workload — instance for instance, the
/// untraced and the traced child must have digested the same stream.
fn failures_of(reports: &[ChildReport]) -> Vec<String> {
    let mut failures = Vec::new();
    for report in reports {
        let pass = if report.traced { "traced" } else { "untraced" };
        if !report.exit_ok {
            failures.push(format!("{} {pass}: the run failed", report.workload));
        }
        failures.extend(report.failures.iter().map(|f| format!("{} {pass}: {f}", report.workload)));
        if report.digests.is_empty() {
            failures.push(format!("{} {pass}: no digest reported", report.workload));
        }
    }
    for untraced in reports.iter().filter(|r| !r.traced) {
        for traced in reports.iter().filter(|r| r.traced && r.workload == untraced.workload) {
            for (i, (a, b)) in untraced.digests.iter().zip(&traced.digests).enumerate() {
                if a != b {
                    failures.push(format!(
                        "{} instance {i}: untraced digest {a:08x} != traced {b:08x}",
                        untraced.workload
                    ));
                }
            }
        }
    }
    failures
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Every workload, untraced then traced, one child at a time.
fn all(options: &Options) -> Fallible<ExitCode> {
    let mut reports = Vec::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            println!("== {} {} ==", workload.name(), if traced { "traced" } else { "untraced" });
            reports.push(child(workload, traced, options.seed, options)?);
        }
    }
    let failures = failures_of(&reports);

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let results = Json::obj([
        (
            "env",
            Json::obj([
                ("nproc", Json::Int(cores as i64)),
                ("rustc", Json::str(rustc_version())),
                ("seed", Json::Int(options.seed as i64)),
                ("seconds", Json::Num(options.seconds)),
                ("smoke", Json::Bool(options.smoke)),
                (
                    "threads",
                    Json::obj(Workload::ALL.map(|w| (w.name(), Json::Int(w.threads() as i64)))),
                ),
            ]),
        ),
        ("correct", Json::Bool(failures.is_empty())),
        ("failures", Json::Arr(failures.iter().map(Json::str).collect())),
        (
            "runs",
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("workload", Json::str(r.workload)),
                            ("trace", Json::Bool(r.traced)),
                            (
                                "digests",
                                Json::Arr(
                                    r.digests
                                        .iter()
                                        .map(|d| Json::str(format!("{d:08x}")))
                                        .collect(),
                                ),
                            ),
                            (
                                "metrics",
                                Json::obj(r.metrics.iter().map(|(name, value, unit, samples)| {
                                    (
                                        name.as_str(),
                                        Json::obj([
                                            ("value", Json::Num(*value)),
                                            ("unit", Json::str(unit.as_str())),
                                            ("samples", Json::Int(*samples as i64)),
                                        ]),
                                    )
                                })),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = options.out.join("results.json");
    write_file(&path, &format!("{results}\n"))?;
    println!("wrote {}", path.display());
    if failures.is_empty() {
        println!("all checks passed: conservation, window validation, digests");
        return Ok(ExitCode::SUCCESS);
    }
    for why in &failures {
        println!("FAILED {why}");
    }
    Ok(ExitCode::FAILURE)
}

/// Runs the untraced pass of every workload `count` times — on one seed,
/// or with `--vary-seed` on `seed, seed + 1, …` as the accepting driver
/// does — and prints per workload × end-to-end metric the minimum, median
/// and maximum, and the quartile spread as a share of the metric's bound.
fn repeat(count: usize, options: &Options) -> Fallible<ExitCode> {
    let mut worst: f64 = 0.0;
    let mut ok = true;
    for workload in Workload::ALL {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..count {
            let seed = options.seed + if options.vary_seed { i as u64 } else { 0 };
            println!("== {} run {} of {count}, seed {seed} ==", workload.name(), i + 1);
            let report = child(workload, false, seed, options)?;
            ok &= report.exit_ok;
            for (slot, def) in values.iter_mut().zip(END_TO_END) {
                slot.extend(report.metrics.iter().filter(|m| m.0 == def.name).map(|m| m.1));
            }
        }
        println!(
            "{:<22} {:<18} {:>12} {:>12} {:>12} {:>8} {:>6} {:>13}",
            "workload", "metric", "min", "median", "max", "spread", "bound", "spread/bound"
        );
        for (slot, def) in values.iter().zip(END_TO_END) {
            if slot.len() != count {
                return Err(format!(
                    "{}: {} was not reported by every run",
                    workload.name(),
                    def.name
                ));
            }
            let v = sorted(slot);
            let spread = spread(&v);
            let ratio = spread / def.bound;
            if def.name != "setup_s" {
                worst = worst.max(ratio);
            }
            println!(
                "{:<22} {:<18} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>6.2} {:>13.2}",
                workload.name(),
                def.name,
                v[0],
                median(&v),
                v[count - 1],
                spread,
                def.bound,
                ratio
            );
        }
    }
    println!("worst spread/bound outside setup_s: {worst:.2} (accepted below 1, aimed below 0.33)");
    Ok(if ok && worst <= 1.0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &'static str, traced: bool, digests: &[u32]) -> ChildReport {
        ChildReport {
            workload,
            traced,
            exit_ok: true,
            digests: digests.to_vec(),
            ..Default::default()
        }
    }

    #[test]
    fn a_digest_mismatch_between_passes_fails_all() {
        let agree = [report("city_peak", false, &[1, 2, 3]), report("city_peak", true, &[1, 2])];
        assert!(failures_of(&agree).is_empty());
        let differ = [report("city_peak", false, &[1, 2, 3]), report("city_peak", true, &[1, 9])];
        let failures = failures_of(&differ);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("instance 1"), "{failures:?}");
        // Another workload's digests are never compared with these.
        let apart = [report("city_peak", false, &[1]), report("metro_single", true, &[2])];
        assert!(failures_of(&apart).is_empty());
    }

    #[test]
    fn a_failed_or_silent_child_fails_all() {
        let mut failed = report("metro_single", true, &[5]);
        failed.exit_ok = false;
        assert_eq!(failures_of(&[failed]).len(), 1);
        assert_eq!(failures_of(&[report("metro_single", false, &[])]).len(), 1);
    }

    #[test]
    fn child_output_is_parsed_line_by_line() {
        let stdout = "run city_peak seed 1 trace 0 instances 2 threads 1\n\
                      digest 0 00ab12cd\ndigest 1 ffffffff\n\
                      metric tick_ms_p50 12.5 ms n=240\n\
                      failure instance 1: conservation: order 3 has no single fate\n\
                      {\"correct\":false}\n";
        let parsed = parse_child("city_peak", false, false, stdout);
        assert_eq!(parsed.digests, [0x00ab_12cd, 0xffff_ffff]);
        assert_eq!(parsed.metrics, [("tick_ms_p50".to_string(), 12.5, "ms".to_string(), 240)]);
        assert_eq!(parsed.failures, ["instance 1: conservation: order 3 has no single fate"]);
        assert_eq!(failures_of(&[parsed]).len(), 2);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(dispatch(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(dispatch(&args("--workload city_peak --seed x --seconds 1 --trace 0")).is_err());
        assert!(dispatch(&args("--workload city_peak --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(dispatch(&args("--workload city_peak --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(dispatch(&args("--workload city_peak --seed 1")).is_err());
        assert!(dispatch(&args("repeat 1")).is_err());
        assert!(dispatch(&args("everything")).is_err());
    }
}
