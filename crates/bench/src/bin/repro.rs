//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <fig4|fig5|fig6|fig7|fig8|table2|ablations|datasets|analysis|all> [options]
//!
//! options:
//!   --quick          shrunk populations / truncated streams (same grids)
//!   --seeds N        average over N seeds (default: 3 paper, 2 quick)
//!   --json DIR       also write each figure as JSON under DIR
//!   --threads N      worker threads (default: all cores)
//! ```
//!
//! Performance is measured by the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`), not here.

use ldp_bench::experiments::{self, ExperimentCtx};
use ldp_bench::output::Figure;
use ldp_bench::scale::RunScale;
use std::path::PathBuf;
use std::time::Instant;

type Run = fn(&ExperimentCtx) -> Vec<Figure>;

const TARGETS: [(&str, Run); 10] = [
    ("fig4", |ctx| vec![experiments::fig4::run(ctx)]),
    ("fig5", |ctx| vec![experiments::fig5::run(ctx)]),
    ("fig6", |ctx| vec![experiments::fig6::run(ctx)]),
    ("fig7", |ctx| vec![experiments::fig7::run(ctx)]),
    ("fig8", |ctx| vec![experiments::fig8::run(ctx)]),
    ("table2", |ctx| vec![experiments::table2::run(ctx)]),
    ("ablations", experiments::ablations::run),
    ("datasets", |ctx| vec![experiments::inspect::datasets(ctx)]),
    (
        "analysis",
        |_| vec![experiments::inspect::analysis_tables()],
    ),
    ("all", experiments::run_all),
];

/// The perf targets this binary used to have, each with the benchmark
/// workload that answers the same question now.
const RETIRED: [(&str, &str); 4] = [
    ("throughput", "memory-olh1024"),
    ("recovery", "restart-oue128"),
    ("net-throughput", "wire-sat-oue128"),
    ("chaos", "wire-sat-oue128"),
];

const USAGE: &str = "usage: repro \
<fig4|fig5|fig6|fig7|fig8|table2|ablations|datasets|analysis|all> \
[--quick] [--seeds N] [--json DIR] [--threads N]";

struct Cli {
    targets: Vec<(&'static str, Run)>,
    scale: RunScale,
    seeds: Option<usize>,
    json_dir: Option<PathBuf>,
    threads: Option<usize>,
}

fn find_target(target: &str) -> Result<(&'static str, Run), String> {
    if let Some(found) = TARGETS.iter().find(|(name, _)| *name == target) {
        return Ok(*found);
    }
    match RETIRED.iter().find(|(name, _)| *name == target) {
        Some((_, workload)) => Err(format!(
            "`{target}` moved to the repo benchmark\n\
             try: cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
             run --workload {workload} --trace 1"
        )),
        None => Err(format!("unknown target `{target}`")),
    }
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        targets: Vec::new(),
        scale: RunScale::Paper,
        seeds: None,
        json_dir: None,
        threads: None,
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
            "--help" | "-h" => {
                println!("{}", USAGE);
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            target => cli.targets.push(find_target(target)?),
        }
    }
    if cli.targets.is_empty() {
        return Err("no target given".into());
    }
    Ok(cli)
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

    for (target, run) in &cli.targets {
        let t0 = Instant::now();
        let figures = run(&ctx);
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
