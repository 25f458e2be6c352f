//! The repo benchmark. One command generates the load from a seed, runs
//! the workloads, checks every output against a reference, and prints
//! every metric by name with its unit, and as JSON on the last line.
//!
//! ```text
//! ldp-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--smoke] [--data-dir DIR]
//! ldp-benchmark aa  [--seed N] [--seconds S] [--smoke] [--data-dir DIR]
//! ```
//!
//! `run --workload W` measures one workload in this process: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without `--workload`, `run` does the same for every
//! workload, one child process each (so peak RSS is the workload's
//! own). `aa` measures the same build twice and fails when the two sets
//! disagree by more than a metric's bound.

mod host;
mod inputs;
mod ladder;
mod spec;
mod stats;
mod trace;
mod workloads;

use inputs::ReportPool;
use ldp_fo::FoKind;
use serde_json::Value;
use spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use trace::Tracer;
use workloads::{Ctx, RunResult};

const USAGE: &str = "usage: ldp-benchmark <run|aa> [--workload W] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--data-dir DIR]";

/// Runs per set of the A/A check.
const AA_REPEATS: usize = 3;

/// Two `setup_s` medians closer than this agree, whatever their ratio:
/// the floor issue 11 puts under the metric's relative bound.
const SETUP_FLOOR_S: f64 = 0.2;

struct Args {
    aa: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    data_dir: PathBuf,
    inject_gate_failure: bool,
}

fn parse_args(argv: &[String], spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        aa: match argv.first().map(String::as_str) {
            Some("run") => false,
            Some("aa") => true,
            _ => return Err("expected `run` or `aa`".into()),
        },
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        smoke: false,
        data_dir: PathBuf::from(".bench_data"),
        inject_gate_failure: false,
    };
    let mut seconds = None;
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec.has_workload(name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name.to_string());
            }
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(v));
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--data-dir" => args.data_dir = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            // Testing hook: trips the workload's correctness gate.
            "--inject-gate-failure" => args.inject_gate_failure = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let default = if args.smoke {
        0.2
    } else {
        spec.run_seconds as f64
    };
    args.seconds = seconds.unwrap_or(default);
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Spec::load().and_then(|spec| {
        let args = parse_args(&argv, &spec).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        });
        match (&args.workload, args.aa) {
            (_, true) => aa(&args, &spec),
            (Some(name), false) => run_workload(&args, &spec, name),
            (None, false) => run_all(&args, &spec),
        }
    });
    // Every scratch directory has been dropped by the time we get here.
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// one workload, in this process

fn describe_host(data_dir: &Path) {
    let meta = ldp_bench::HostMeta::capture(None);
    println!(
        "{}; data dir {} on {}; loopback TCP; load generator in-process",
        meta.render(),
        data_dir.display(),
        host::fs_kind(data_dir)
    );
}

/// The pool the ladder walks: the workload's own kind of report.
fn ladder_pool(workload: &str, ctx: &Ctx<'_>) -> ReportPool {
    let n = ctx.size(65_536, 4_096);
    match workload {
        // OLH d=1024 costs microseconds per report: a smaller pool keeps
        // the ladder within seconds.
        spec::MEMORY => ReportPool::generate(
            FoKind::Olh,
            workloads::memory::DOMAIN,
            ctx.size(16_384, 4_096),
            ctx.seed,
        ),
        spec::STREAM_LBA | spec::STREAM_LPA => ReportPool::generate(FoKind::Grr, 5, n, ctx.seed),
        _ => ReportPool::generate(FoKind::Oue, workloads::wire::DOMAIN, n, ctx.seed),
    }
}

/// One printed metric: `None` where this workload does not measure it.
type Row<'a> = (&'a str, &'a str, Option<f64>);

fn run_workload(args: &Args, spec: &Spec, name: &str) -> Result<(), String> {
    std::fs::create_dir_all(&args.data_dir)
        .map_err(|e| format!("create {}: {e}", args.data_dir.display()))?;
    println!(
        "workload {name}: seed {}, {} s, trace {}{}",
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.smoke { ", smoke size" } else { "" }
    );
    describe_host(&args.data_dir);
    let ctx = |tracer, seconds, measure_setup| Ctx {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        data_dir: &args.data_dir,
        tracer,
        measure_setup,
        inject_gate_failure: args.inject_gate_failure,
    };
    let off = Tracer::new(false);

    if !args.trace {
        let result = workloads::run(name, &ctx(&off, args.seconds, true))?;
        println!("round_close_ms: {}", result.round_close_ms.describe("ms"));
        let values = BTreeMap::from([
            ("ingest_reports_per_s", result.ingest_reports_per_s),
            ("round_close_p50_ms", result.round_close_ms.median()),
            ("peak_rss_mb", host::peak_rss_mib()),
            ("setup_s", result.setup_s),
        ]);
        if values.len() != spec.end_to_end.len() {
            return Err("BENCHMARK.json does not declare the end-to-end metrics measured".into());
        }
        let mut metrics: Vec<Row> = Vec::new();
        for m in &spec.end_to_end {
            let value = values.get(m.name.as_str()).ok_or_else(|| {
                format!("BENCHMARK.json declares {}, which is not measured", m.name)
            })?;
            metrics.push((&m.name, &m.unit, Some(*value)));
        }
        // What else the untraced run measured, for the reader and for
        // `aa`; the result line holds the end-to-end metrics only.
        let mut own: BTreeMap<&str, f64> = result.layer.iter().copied().collect();
        own.insert("failed_ops_share", result.failed_ops_share());
        return report(&result, &metrics, &per_layer_rows(spec, name, &own, false)?);
    }

    // Traced run: the workload untraced, the workload with spans, then
    // the ladder. End-to-end numbers never come from here.
    let share = args.seconds * 0.3;
    let plain = workloads::run(name, &ctx(&off, share, false))?;
    let on = Tracer::new(true);
    let traced = workloads::run(name, &ctx(&on, share, false))?;
    let ladder_ctx = ctx(&off, share, false);
    let rungs = ladder::run(&ladder_ctx, &ladder_pool(name, &ladder_ctx))?;

    let mut values: BTreeMap<&str, f64> = rungs.into_iter().collect();
    // Where the running workload measures what the ladder also does
    // (fsyncs per record, close time), the workload's figure stands.
    values.extend(traced.layer.iter().copied());
    values.insert("failed_ops_share", traced.failed_ops_share());
    values.insert(
        "bench.trace_overhead_share",
        1.0 - traced.ingest_reports_per_s / plain.ingest_reports_per_s,
    );
    let rows = per_layer_rows(spec, name, &values, true)?;
    let spans = args.data_dir.join(format!("spans-{name}.json"));
    on.dump_json(&spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    println!(
        "spans: {} (self time = total minus child spans)",
        spans.display()
    );
    for (span, t) in on.totals() {
        println!(
            "  span {span}: n={} total {:.3} ms self {:.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    report(&traced, &rows, &[])
}

/// `values` as rows in declared order. Fails on a value whose name
/// `BENCHMARK.json` does not declare or `spec::OWN` does not place on
/// this workload, and — when `all` metrics are expected — on a declared
/// metric of this workload that is missing.
fn per_layer_rows<'a>(
    spec: &'a Spec,
    workload: &str,
    values: &BTreeMap<&str, f64>,
    all: bool,
) -> Result<Vec<Row<'a>>, String> {
    if let Some(stray) = values
        .keys()
        .find(|name| !spec.per_layer.iter().any(|m| m.name == **name))
    {
        return Err(format!(
            "{stray} was measured but BENCHMARK.json does not declare it"
        ));
    }
    let mut rows = Vec::new();
    for m in &spec.per_layer {
        let value = values.get(m.name.as_str()).copied();
        match (spec::measured_on(&m.name, workload), value) {
            (false, Some(_)) => {
                return Err(format!(
                    "{} was measured on {workload}, where spec::OWN does not list it",
                    m.name
                ))
            }
            (true, None) if all => {
                return Err(format!(
                    "{} is declared for {workload} but was not measured",
                    m.name
                ))
            }
            (_, None) if !all => {}
            _ => rows.push((m.name.as_str(), m.unit.as_str(), value)),
        }
    }
    Ok(rows)
}

/// Print every metric by name with its unit, then the result as one
/// JSON object on the last line, which holds `metrics` (a metric the
/// workload does not measure as 0: the line must name every one) and
/// none of `also`.
fn report(result: &RunResult, metrics: &[Row], also: &[Row]) -> Result<(), String> {
    let not_finite = |row: &&Row| row.2.is_some_and(|v| !v.is_finite());
    if let Some((name, ..)) = metrics.iter().chain(also).find(not_finite) {
        return Err(format!("{name} is not finite"));
    }
    for (name, unit, value) in metrics.iter().chain(also) {
        match value {
            Some(v) => println!("{name} = {v} {unit}"),
            None => println!("{name}: not measured on this workload"),
        }
    }
    println!(
        "attempted {} calls, failed {}",
        result.attempted, result.failed
    );
    let object = metrics
        .iter()
        .map(|(name, unit, value)| {
            let entry = vec![
                ("value".into(), Value::F64(value.unwrap_or(0.0))),
                ("unit".into(), Value::Str(unit.to_string())),
            ];
            (name.to_string(), Value::Object(entry))
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(true)),
        ("attempted".into(), Value::U64(result.attempted.max(1))),
        ("failed".into(), Value::U64(result.failed)),
        ("metrics".into(), Value::Object(object)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(())
}

// ---------------------------------------------------------------------
// every workload, one child process each

/// Run one workload in a child process, pass its output on, and return
/// the metrics it printed as `name = value unit` lines.
fn child(args: &Args, workload: &str) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--data-dir")
        .arg(&args.data_dir);
    if args.smoke {
        command.arg("--smoke");
    }
    // stderr is inherited: a failing gate explains itself there.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    println!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload} failed"));
    }
    Ok(stdout
        .lines()
        .filter_map(|line| {
            let (name, rest) = line.split_once(" = ")?;
            let value = rest.split(' ').next()?.parse().ok()?;
            (!name.contains(' ')).then(|| (name.to_string(), value))
        })
        .collect())
}

fn run_all(args: &Args, spec: &Spec) -> Result<(), String> {
    let mut all = Vec::new();
    for workload in &spec.workloads {
        all.push((&workload.name, child(args, &workload.name)?));
    }
    if args.trace {
        return Ok(());
    }
    let names: Vec<_> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
    println!("{:<22} {}", "workload", names.join("  "));
    for (name, values) in &all {
        let row: Vec<String> = spec
            .end_to_end
            .iter()
            .map(|m| format!("{:.4} {}", values[&m.name], m.unit))
            .collect();
        println!("{name:<22} {}", row.join("  "));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// A/A: the same build measured twice

fn aa(args: &Args, spec: &Spec) -> Result<(), String> {
    // Set A runs the workloads in declared order, set B in reverse;
    // the sets take turns, so drift on the host hits both alike.
    let forward: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    let backward: Vec<&str> = forward.iter().rev().copied().collect();
    let mut samples: BTreeMap<(usize, &str, String), Vec<f64>> = BTreeMap::new();
    for _ in 0..AA_REPEATS {
        for (set, order) in [&forward, &backward].into_iter().enumerate() {
            for &workload in order {
                for (name, value) in child(args, workload)? {
                    samples
                        .entry((set, workload, name))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    println!(
        "A/A over {AA_REPEATS} runs per set: workload, metric, median A, median B, gap, bound"
    );
    let mut misses = 0;
    for &workload in &forward {
        // The declared end-to-end metrics, then the ones issue 11 gives
        // this workload alone.
        let declared = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.better.as_str(), m.bound));
        let own = spec::OWN
            .iter()
            .filter(|o| o.on.contains(&workload))
            .filter_map(|o| o.aa.map(|(better, bound)| (o.metric, better, bound)));
        // Bound 0 is absolute: the share itself must be 0 in both sets.
        let rows = declared
            .chain(own)
            .chain([("failed_ops_share", "lower", 0.0)]);
        for (metric, better, bound) in rows {
            let set = |s| {
                samples
                    .get(&(s, workload, metric.to_string()))
                    .map(|v| stats::median(v))
                    .ok_or_else(|| format!("{workload} did not print {metric}"))
            };
            let (a, b) = (set(0)?, set(1)?);
            let gap = if bound == 0.0 {
                a.max(b)
            } else {
                spec::worsening(better, a, b).abs()
            };
            let under_floor = metric == "setup_s" && (a - b).abs() <= SETUP_FLOOR_S;
            let verdict = match (gap <= bound, under_floor) {
                (true, _) => "ok",
                (false, true) => "ok (within the 0.2 s floor)",
                (false, false) => "MISS",
            };
            misses += (verdict == "MISS") as u32;
            println!(
                "{workload:<20} {metric:<24} {a:>14.4} {b:>14.4} {:>7.2}% {:>5.0}% {verdict}",
                gap * 100.0,
                bound * 100.0
            );
        }
    }
    if misses > 0 {
        return Err(format!(
            "{misses} metric(s) differ between two sets of the same build by more than their bound"
        ));
    }
    Ok(())
}
