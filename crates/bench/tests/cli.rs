//! `repro`'s argument handling: what `--help` offers, and that every
//! bad or retired spelling is a usage error (exit 2), never a panic.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Exit 2 with `error:` first and the usage after it; returns stderr.
fn assert_usage_error(args: &[&str]) -> String {
    let out = repro(args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.starts_with("error: "), "{args:?}: {err}");
    assert!(err.contains("usage: repro"), "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?} printed a figure");
    err
}

#[test]
fn help_names_exactly_the_figure_targets_and_their_options() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let usage = String::from_utf8(out.stdout).unwrap();

    let (open, close) = (usage.find('<').unwrap(), usage.find('>').unwrap());
    let targets: Vec<&str> = usage[open + 1..close].split('|').collect();
    assert_eq!(
        targets,
        [
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "table2",
            "ablations",
            "datasets",
            "analysis",
            "all"
        ]
    );
    let options: Vec<&str> = usage[close..]
        .split_whitespace()
        .filter_map(|word| word.strip_prefix("[--"))
        .map(|name| name.trim_end_matches(']'))
        .collect();
    assert_eq!(options, ["quick", "seeds", "json", "threads"]);
}

#[test]
fn bad_input_is_a_usage_error() {
    for args in [
        &[][..],
        &["fig9"],
        &["fig4", "nope"],
        &["fig4", "--seeds", "0"],
        &["fig4", "--seeds"],
        &["fig4", "--threads", "abc"],
    ] {
        assert_usage_error(args);
    }
}

#[test]
fn retired_options_are_unknown() {
    for option in ["--fo", "--stamp", "--domain", "--parent-replay"] {
        let err = assert_usage_error(&["fig4", option, "x"]);
        assert!(err.contains(&format!("unknown option `{option}`")), "{err}");
    }
}

#[test]
fn retired_targets_point_at_the_benchmark() {
    for target in ["throughput", "recovery", "net-throughput", "chaos"] {
        let err = assert_usage_error(&[target, "--quick"]);
        let pointer: Vec<&str> = err
            .lines()
            .filter(|line| line.contains("--manifest-path benchmark/Cargo.toml"))
            .collect();
        assert_eq!(pointer.len(), 1, "{err}");
        assert!(
            pointer[0].contains("cargo run --release --offline")
                && pointer[0].contains("-- run --workload ")
                && pointer[0].ends_with("--trace 1"),
            "{err}"
        );
    }
}
