//! Drives the built binary through the smoke pass and checks that what
//! it prints and what `BENCHMARK.json` declares are the same thing,
//! with no drift either way, and that every per-layer metric is
//! measured on the workloads issue 11 lists it against.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Mutex;

const EXE: &str = env!("CARGO_BIN_EXE_ldp-benchmark");

/// The runs are timing-sensitive (the paced workload refuses to report
/// when it cannot keep its schedule), so tests take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|entries| entries.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no `{key}` in {value:?}"))
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match *value {
        Value::F64(x) => x,
        Value::U64(x) => x as f64,
        Value::I64(x) => x as f64,
        ref other => panic!("expected a number, got {other:?}"),
    }
}

/// `name → unit` of one of the declared lists (`""` for workloads).
fn declared(list: &str) -> BTreeMap<String, String> {
    let json = benchmark_json();
    field(&json, list)
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let unit = if list == "workloads" {
                ""
            } else {
                text(field(m, "unit"))
            };
            (text(field(m, "name")).to_string(), unit.to_string())
        })
        .collect()
}

fn data_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench(args: &[&str], data_dir: &Path) -> Output {
    Command::new(EXE)
        .args(args)
        .arg("--data-dir")
        .arg(data_dir)
        .output()
        .expect("run the benchmark binary")
}

fn leftovers(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .map(|e| {
                    e.expect("dir entry")
                        .file_name()
                        .to_string_lossy()
                        .into_owned()
                })
                .collect()
        })
        .unwrap_or_default()
}

/// What one workload printed.
struct Section {
    workload: String,
    /// `name = value unit` lines.
    measured: BTreeMap<String, (f64, String)>,
    /// `name: not measured on this workload` lines.
    unmeasured: BTreeSet<String>,
    /// The result line.
    result: Value,
}

/// Run every workload at smoke size and cut the output into sections.
fn smoke_pass(trace: &str, dir: &Path) -> Vec<Section> {
    let out = bench(&["run", "--smoke", "--trace", trace], dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke pass failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut sections: Vec<Section> = Vec::new();
    for line in stdout.lines() {
        let header = line
            .strip_prefix("workload ")
            .and_then(|rest| rest.split_once(": seed "));
        if let Some((name, _)) = header {
            sections.push(Section {
                workload: name.to_string(),
                measured: BTreeMap::new(),
                unmeasured: BTreeSet::new(),
                result: Value::Null,
            });
            continue;
        }
        let Some(section) = sections.last_mut() else {
            continue;
        };
        if line.starts_with('{') {
            section.result = serde_json::from_str(line).expect("result line is JSON");
        } else if let Some(name) = line.strip_suffix(": not measured on this workload") {
            section.unmeasured.insert(name.to_string());
        } else if let Some((name, rest)) = line.split_once(" = ").filter(|(n, _)| !n.contains(' '))
        {
            let (value, unit) = rest.split_once(' ').expect("value and unit");
            let value = value.parse().expect("a number");
            section
                .measured
                .insert(name.to_string(), (value, unit.to_string()));
        }
    }
    let printed: BTreeSet<&str> = sections.iter().map(|s| s.workload.as_str()).collect();
    let workloads = declared("workloads");
    assert_eq!(printed, workloads.keys().map(String::as_str).collect());
    assert_eq!(sections.len(), workloads.len(), "a workload ran twice");
    sections
}

/// The result line of `section` is sound and names exactly the metrics
/// of `list`, with their units; returns `name → value`.
fn result_metrics(section: &Section, list: &str) -> BTreeMap<String, f64> {
    let (workload, line) = (&section.workload, &section.result);
    assert_eq!(field(line, "correct"), &Value::Bool(true), "{workload}");
    assert_eq!(field(line, "failed"), &Value::U64(0), "{workload}");
    assert!(matches!(field(line, "attempted"), Value::U64(n) if *n >= 1));
    let metrics = field(line, "metrics").as_object().expect("object");
    let mut units = BTreeMap::new();
    let mut values = BTreeMap::new();
    for (name, metric) in metrics {
        let value = number(field(metric, "value"));
        assert!(value.is_finite(), "{workload} {name} is not finite");
        units.insert(name.clone(), text(field(metric, "unit")).to_string());
        values.insert(name.clone(), value);
    }
    assert_eq!(units, declared(list), "{workload} {list}");
    values
}

const PACED: &str = "wire-paced-oue128";
const WIRE: &[&str] = &["wire-sat-oue128", PACED];
const LBA: &str = "stream-taxi-lba";
const LPA: &str = "stream-taxi-lpa";

/// The workloads issue 11 lists a per-layer metric against, when it
/// takes a running workload to measure it; `None` for the ladder's and
/// the harness's metrics, which every workload prints.
fn listed_against(metric: &str) -> Option<&'static [&'static str]> {
    match metric {
        "net.client.retries_total" | "net.admission.shed_total" => Some(WIRE),
        "net.client.late_share" => Some(&[PACED]),
        m if m.contains("submit_ack_") => Some(&[PACED]),
        "recovery_reports_per_s" => Some(&["restart-oue128"]),
        "stream.materialize_s" => Some(&[LBA, LPA]),
        m if m.starts_with("lba_") || m.ends_with(".lba") => Some(&[LBA]),
        m if m.starts_with("lpa_") || m.ends_with(".lpa") => Some(&[LPA]),
        _ => None,
    }
}

/// Counts and shares that are 0 (or below) on a healthy run.
fn may_be_zero(metric: &str) -> bool {
    metric.starts_with("bench.")
        || [
            "failed_ops_share",
            "net.client.late_share",
            "net.client.retries_total",
            "net.admission.shed_total",
            "service.wal.fsyncs_per_record",
        ]
        .contains(&metric)
}

#[test]
fn benchmark_json_keeps_the_contract_limits() {
    let json = benchmark_json();
    let keys: Vec<&str> = json
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let mut names = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for entry in field(&json, list).as_array().expect("a list") {
            let name = text(field(entry, "name"));
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(name.len() <= 64 && name.chars().all(ok), "`{name}`");
            assert!(names.insert(name.to_string()), "`{name}` is used twice");
            if list == "workloads" {
                let why = text(field(entry, "why"));
                assert!(why.chars().count() <= 200 && !why.contains('\n'), "{name}");
            }
            if list == "end_to_end" {
                let bound = number(field(entry, "bound"));
                assert!(bound > 0.0 && bound <= 0.25, "{name}");
            }
        }
    }
    assert_eq!(declared("end_to_end")["setup_s"], "s");
}

#[test]
fn smoke_pass_prints_exactly_the_declared_names() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());

    let dir = data_dir("smoke");
    for section in smoke_pass("0", &dir) {
        let workload = &section.workload;
        for (name, value) in result_metrics(&section, "end_to_end") {
            assert!(value > 0.0, "{workload} {name} must never be 0");
            assert_eq!(section.measured[&name].0, value, "{workload} {name}");
        }
    }
    // Every WAL and tenant directory is gone.
    assert_eq!(leftovers(&dir), Vec::<String>::new());

    let per_layer = declared("per_layer");
    let sections = smoke_pass("1", &dir);
    for section in &sections {
        let workload = section.workload.as_str();
        let values = result_metrics(section, "per_layer");
        let mut printed: BTreeSet<&String> = section.measured.keys().collect();
        printed.extend(&section.unmeasured);
        assert_eq!(
            printed,
            per_layer.keys().collect::<BTreeSet<_>>(),
            "{workload}"
        );
        for (name, unit) in &per_layer {
            let listed = listed_against(name).is_none_or(|on| on.contains(&workload));
            match section.measured.get(name) {
                Some((value, printed_unit)) => {
                    assert!(listed, "{workload} measured {name}");
                    assert_eq!(printed_unit, unit, "{workload} {name}");
                    assert_eq!(values[name], *value, "{workload} {name}");
                    assert!(
                        *value > 0.0 || may_be_zero(name),
                        "{workload} {name} is {value}"
                    );
                }
                None => {
                    assert!(!listed, "{workload} did not measure {name}");
                    assert_eq!(values[name], 0.0, "{workload} {name}");
                }
            }
        }
    }
    // Only the span dumps stay behind.
    let left = leftovers(&dir);
    assert_eq!(left.len(), sections.len(), "{left:?}");
    assert!(
        left.iter()
            .all(|f| f.starts_with("spans-") && f.ends_with(".json")),
        "{left:?}"
    );
}

#[test]
fn a_tripped_gate_exits_nonzero_prints_no_metrics_and_cleans_up() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = data_dir("gate");
    for workload in declared("workloads").keys() {
        let out = bench(
            &[
                "run",
                "--smoke",
                "--inject-gate-failure",
                "--workload",
                workload,
            ],
            &dir,
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{workload}:\n{stdout}");
        assert!(
            !stdout
                .lines()
                .any(|l| l.starts_with('{') || l.contains(" = ")),
            "{workload} printed metrics past a failed gate:\n{stdout}"
        );
        assert_eq!(leftovers(&dir), Vec::<String>::new(), "{workload}");
    }
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        &["run", "--workload", "no-such-workload"][..],
        &["run", "--seconds", "0"],
        &["run", "--trace", "2"],
        &["run", "--traced"],
        &["aa", "--repeats", "2"],
        &["spec"],
    ] {
        let out = Command::new(EXE).args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
