//! What the benchmark declares. `BENCHMARK.json` at the repo root is
//! the one declaration of workloads, metrics, units and bounds; it is
//! compiled in and read here. What that file cannot say — which
//! workload measures which per-layer metric, and the bounds of the
//! metrics only one workload has — is in [`OWN`].

use serde::Deserialize;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x1d9_5eed;

#[derive(Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
}

/// An end-to-end metric. `bound` is the relative worsening that counts
/// as a regression, and what two sets of runs of one build must agree
/// within.
#[derive(Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Deserialize)]
pub struct PerLayer {
    pub name: String,
    pub unit: String,
}

#[derive(Deserialize)]
pub struct Spec {
    /// Measured seconds per run when `--seconds` is not given.
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|w| w.name == name)
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub const WIRE_SAT: &str = "wire-sat-oue128";
pub const WIRE_PACED: &str = "wire-paced-oue128";
pub const MEMORY: &str = "memory-olh1024";
pub const RESTART: &str = "restart-oue128";
pub const STREAM_LBA: &str = "stream-taxi-lba";
pub const STREAM_LPA: &str = "stream-taxi-lpa";

/// A per-layer metric that only some running workloads can give. Every
/// per-layer metric not listed in [`OWN`] comes from the ladder or the
/// harness and is measured on every workload.
pub struct Own {
    pub metric: &'static str,
    /// The workloads that measure it; the others print it as 0.
    pub on: &'static [&'static str],
    /// Issue 11 lists it as an end-to-end metric with this bound. One
    /// workload has it, so `BENCHMARK.json` (every end-to-end metric
    /// on every workload, never 0) cannot carry it; `aa` checks it.
    pub aa: Option<(&'static str, f64)>,
}

const fn own(metric: &'static str, on: &'static [&'static str]) -> Own {
    Own {
        metric,
        on,
        aa: None,
    }
}

const fn bounded(
    metric: &'static str,
    on: &'static [&'static str],
    better: &'static str,
    bound: f64,
) -> Own {
    Own {
        metric,
        on,
        aa: Some((better, bound)),
    }
}

const WIRE: &[&str] = &[WIRE_SAT, WIRE_PACED];
const STREAM: &[&str] = &[STREAM_LBA, STREAM_LPA];

pub const OWN: &[Own] = &[
    bounded("submit_ack_p50_ms", &[WIRE_PACED], "lower", 0.10),
    bounded("recovery_reports_per_s", &[RESTART], "higher", 0.10),
    bounded("lba_timestamps_per_s", &[STREAM_LBA], "higher", 0.10),
    bounded("lpa_timestamps_per_s", &[STREAM_LPA], "higher", 0.10),
    // Issue 11 bounds the p90 at 0.15; two sets of one build read 7 % and
    // 26 % apart in two A/A passes (the host's fsync tail drifts), so it
    // is demoted as the issue prescribes: printed, not bounded.
    own("submit_ack_p90_ms", &[WIRE_PACED]),
    own("net.client.submit_ack_p99_ms", &[WIRE_PACED]),
    own("net.client.submit_ack_max_ms", &[WIRE_PACED]),
    own("net.client.late_share", &[WIRE_PACED]),
    own("net.client.retries_total", WIRE),
    own("net.admission.shed_total", WIRE),
    own("ids.step_ms_per_timestamp.lba", &[STREAM_LBA]),
    own("ids.reports_per_timestamp.lba", &[STREAM_LBA]),
    own("ids.cfpu.lba", &[STREAM_LBA]),
    own("ids.publications.lba", &[STREAM_LBA]),
    own("ids.release_mre.lba", &[STREAM_LBA]),
    own("ids.step_ms_per_timestamp.lpa", &[STREAM_LPA]),
    own("ids.reports_per_timestamp.lpa", &[STREAM_LPA]),
    own("ids.cfpu.lpa", &[STREAM_LPA]),
    own("ids.publications.lpa", &[STREAM_LPA]),
    own("ids.release_mre.lpa", &[STREAM_LPA]),
    own("stream.materialize_s", STREAM),
];

/// Whether `workload` measures the per-layer metric `metric`.
pub fn measured_on(metric: &str, workload: &str) -> bool {
    OWN.iter()
        .find(|o| o.metric == metric)
        .is_none_or(|o| o.on.contains(&workload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_metrics_and_their_workloads_are_declared() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        for o in OWN {
            assert!(
                spec.per_layer.iter().any(|m| m.name == o.metric),
                "{} is not a per-layer metric of BENCHMARK.json",
                o.metric
            );
            for workload in o.on {
                assert!(spec.has_workload(workload), "{workload}");
            }
        }
        for m in &spec.end_to_end {
            assert!(m.better == "higher" || m.better == "lower", "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(worsening("higher", 100.0, 90.0), 0.1);
        assert_eq!(worsening("lower", 100.0, 90.0), -0.1);
    }
}
