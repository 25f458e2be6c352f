//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <fig4|fig5|fig6|fig7|fig8|table2|ablations|datasets|analysis|throughput|net-throughput|chaos|recovery|all> [options]
//!
//! options:
//!   --quick          shrunk populations / truncated streams (same grids)
//!   --seeds N        average over N seeds (default: 3 paper, 2 quick)
//!   --json DIR       also write each figure as JSON under DIR
//!   --threads N      worker threads (default: all cores)
//!   --stamp ISO      ISO-8601 timestamp recorded in benchmark artifacts
//!   --fo NAME        throughput only: sweep a single oracle (grr|oue|olh)
//!   --domain N       throughput only: sweep a single domain size
//!   --parent-replay COMMIT:RATE
//!                    recovery only: the parent build's replay rate
//!                    (reports/s, same host), recorded beside this one's
//! ```

use ldp_bench::experiments::recovery::ParentReplay;
use ldp_bench::experiments::{self, ExperimentCtx};
use ldp_bench::hostmeta::HostMeta;
use ldp_bench::output::Figure;
use ldp_bench::scale::RunScale;
use ldp_fo::FoKind;
use std::path::PathBuf;
use std::time::Instant;

struct Cli {
    targets: Vec<String>,
    scale: RunScale,
    seeds: Option<usize>,
    json_dir: Option<PathBuf>,
    threads: Option<usize>,
    stamp: Option<String>,
    fo: Option<FoKind>,
    domain: Option<usize>,
    parent_replay: Option<ParentReplay>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        targets: Vec::new(),
        scale: RunScale::Paper,
        seeds: None,
        json_dir: None,
        threads: None,
        stamp: None,
        fo: None,
        domain: None,
        parent_replay: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cli.scale = RunScale::Quick,
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad seed count `{v}`"))?;
                if n == 0 {
                    return Err("--seeds must be at least 1".into());
                }
                cli.seeds = Some(n);
            }
            "--json" => {
                let v = args.next().ok_or("--json needs a directory")?;
                cli.json_dir = Some(PathBuf::from(v));
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                cli.threads = Some(v.parse().map_err(|_| format!("bad thread count `{v}`"))?);
            }
            "--stamp" => {
                let v = args.next().ok_or("--stamp needs an ISO-8601 timestamp")?;
                cli.stamp = Some(v);
            }
            "--fo" => {
                let v = args
                    .next()
                    .ok_or("--fo needs an oracle name (grr|oue|olh)")?;
                cli.fo = Some(v.parse()?);
            }
            "--domain" => {
                let v = args.next().ok_or("--domain needs a value")?;
                let d: usize = v.parse().map_err(|_| format!("bad domain size `{v}`"))?;
                if d < 2 {
                    return Err("--domain must be at least 2".into());
                }
                cli.domain = Some(d);
            }
            "--parent-replay" => {
                let v = args
                    .next()
                    .ok_or("--parent-replay needs COMMIT:REPORTS_PER_SEC")?;
                cli.parent_replay = Some(v.parse()?);
            }
            "--help" | "-h" => {
                println!("{}", USAGE);
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            target => cli.targets.push(target.to_string()),
        }
    }
    if cli.targets.is_empty() {
        return Err("no target given".into());
    }
    Ok(cli)
}

const USAGE: &str = "usage: repro \
<fig4|fig5|fig6|fig7|fig8|table2|ablations|datasets|analysis|throughput|net-throughput|chaos|recovery|all> \
[--quick] [--seeds N] [--json DIR] [--threads N] [--stamp ISO] [--fo grr|oue|olh] [--domain N] \
[--parent-replay COMMIT:REPORTS_PER_SEC]\n\
note: `chaos` needs a build with `--features chaos`";

/// Write a benchmark artifact to the repo root and, when `--json` names
/// a directory, next to the figure JSONs too.
fn write_artifact(
    name: &str,
    json_dir: Option<&std::path::Path>,
    write: impl Fn(&std::path::Path) -> std::io::Result<PathBuf>,
) {
    let mut outputs = vec![PathBuf::from(name)];
    if let Some(dir) = json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("# failed to create {}: {e}", dir.display());
        } else {
            outputs.push(dir.join(name));
        }
    }
    for path in outputs {
        match write(&path) {
            Ok(path) => eprintln!("# wrote {}", path.display()),
            Err(e) => eprintln!("# failed to write {}: {e}", path.display()),
        }
    }
}

fn main() {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let mut ctx = ExperimentCtx::new(cli.scale);
    if let Some(n) = cli.seeds {
        // Deterministic seed schedule: the first n of a fixed sequence.
        let seeds: Vec<u64> = (0..n as u64).map(|i| 11 + 12 * i).collect();
        ctx = ctx.with_seeds(seeds);
    }
    if let Some(t) = cli.threads {
        ctx.threads = t.max(1);
    }

    eprintln!(
        "# scale={:?} seeds={:?} threads={}",
        cli.scale, ctx.seeds, ctx.threads
    );

    for target in &cli.targets {
        let t0 = Instant::now();
        let figures: Vec<Figure> = match target.as_str() {
            "fig4" => vec![experiments::fig4::run(&ctx)],
            "fig5" => vec![experiments::fig5::run(&ctx)],
            "fig6" => vec![experiments::fig6::run(&ctx)],
            "fig7" => vec![experiments::fig7::run(&ctx)],
            "fig8" => vec![experiments::fig8::run(&ctx)],
            "table2" => vec![experiments::table2::run(&ctx)],
            "throughput" => {
                let host = HostMeta::capture(cli.stamp.clone());
                let report = experiments::throughput::run(cli.scale, host, cli.fo, cli.domain);
                println!("{}", report.render());
                write_artifact("BENCH_throughput.json", cli.json_dir.as_deref(), |path| {
                    report.write_json(path)
                });
                eprintln!("# {target} done in {:.1}s", t0.elapsed().as_secs_f64());
                continue;
            }
            "net-throughput" => {
                let host = HostMeta::capture(cli.stamp.clone());
                let report = experiments::net::run(cli.scale, host);
                println!("{}", report.render());
                write_artifact("BENCH_net.json", cli.json_dir.as_deref(), |path| {
                    report.write_json(path)
                });
                eprintln!("# {target} done in {:.1}s", t0.elapsed().as_secs_f64());
                continue;
            }
            // Runs the FlakyTransport chaos matrix + overload scenario
            // and merges the counter block into an existing
            // BENCH_net.json (or a fresh throughput sweep if none
            // exists), preserving the throughput runs already recorded.
            #[cfg(feature = "chaos")]
            "chaos" => {
                let host = HostMeta::capture(cli.stamp.clone());
                let base = std::fs::read_to_string("BENCH_net.json")
                    .ok()
                    .and_then(|json| {
                        serde_json::from_str::<experiments::net::NetBenchReport>(&json).ok()
                    });
                let mut report = match base {
                    Some(report) => {
                        eprintln!("# merging chaos block into existing BENCH_net.json");
                        report
                    }
                    None => {
                        eprintln!("# no BENCH_net.json; running the throughput sweep first");
                        experiments::net::run(cli.scale, host)
                    }
                };
                report.chaos = Some(experiments::net::run_chaos(cli.scale));
                println!("{}", report.render());
                write_artifact("BENCH_net.json", cli.json_dir.as_deref(), |path| {
                    report.write_json(path)
                });
                eprintln!("# {target} done in {:.1}s", t0.elapsed().as_secs_f64());
                continue;
            }
            #[cfg(not(feature = "chaos"))]
            "chaos" => {
                eprintln!(
                    "error: the `chaos` target needs a chaos-enabled build:\n  \
                     cargo run -p ldp_bench --features chaos --bin repro -- chaos --quick"
                );
                std::process::exit(2);
            }
            "recovery" => {
                let host = HostMeta::capture(cli.stamp.clone());
                let report = experiments::recovery::run(cli.scale, host, cli.parent_replay.clone());
                println!("{}", report.render());
                write_artifact("BENCH_recovery.json", cli.json_dir.as_deref(), |path| {
                    report.write_json(path)
                });
                eprintln!("# {target} done in {:.1}s", t0.elapsed().as_secs_f64());
                continue;
            }
            "ablations" => experiments::ablations::run(&ctx),
            "datasets" => vec![experiments::inspect::datasets(&ctx)],
            "analysis" => vec![experiments::inspect::analysis_tables()],
            "all" => experiments::run_all(&ctx),
            other => {
                eprintln!("error: unknown target `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        };
        for figure in &figures {
            println!("{}", figure.render());
            if let Some(dir) = &cli.json_dir {
                match figure.write_json(dir) {
                    Ok(path) => eprintln!("# wrote {}", path.display()),
                    Err(e) => eprintln!("# failed to write JSON for {}: {e}", figure.id),
                }
            }
        }
        eprintln!("# {target} done in {:.1}s", t0.elapsed().as_secs_f64());
    }
}
