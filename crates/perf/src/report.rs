//! The canonical `BENCH_perf.json` document and its CI gate semantics.

use std::collections::BTreeMap;

use serde::Serialize;

/// Version stamp of the perf-report schema; bump when the JSON layout
/// changes so baselines fail loudly instead of mysteriously.
pub const PERF_SCHEMA_VERSION: u32 = 1;

/// Result of one pinned perf workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WorkloadPerf {
    /// Workload name (pinned; order in the report is pinned too).
    pub name: String,
    /// Exact deterministic counters (simulated events). Gated by CI.
    pub counters: BTreeMap<String, u64>,
    /// Host wall-clock duration of the workload. Reported, never gated.
    pub wall_ns: u64,
}

impl WorkloadPerf {
    /// Creates a workload entry.
    pub fn new(name: &str, counters: BTreeMap<String, u64>, wall_ns: u64) -> Self {
        Self {
            name: name.to_string(),
            counters,
            wall_ns,
        }
    }
}

/// The complete perf report (`BENCH_perf.json`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PerfReport {
    /// Schema version of this report.
    pub schema_version: u32,
    /// One entry per pinned workload, in pinned order.
    pub workloads: Vec<WorkloadPerf>,
}

impl PerfReport {
    /// Creates a report from workload entries.
    pub fn new(workloads: Vec<WorkloadPerf>) -> Self {
        Self {
            schema_version: PERF_SCHEMA_VERSION,
            workloads,
        }
    }

    /// The workload names in report order (what `perf_report --list`
    /// enumerates).
    pub fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|w| w.name.clone()).collect()
    }

    /// Renders the report as canonical pretty JSON (stable field order,
    /// alphabetically sorted counters, `\n` line endings, trailing newline).
    pub fn to_canonical_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("perf report serializes");
        json.push('\n');
        json
    }

    /// The gated view of a canonical perf-report JSON text: every line whose
    /// key is `wall_ns` is dropped, leaving only the deterministic counters
    /// and structure. Two reports from the same simulator behavior have
    /// byte-identical gated views regardless of host speed.
    pub fn gated_view(json: &str) -> String {
        json.lines()
            .filter(|line| !line.trim_start().starts_with("\"wall_ns\""))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Compares this report against a committed baseline JSON text, ignoring
    /// wall time. Returns the first diverging line on mismatch.
    pub fn check_against(&self, committed: &str) -> Result<(), String> {
        let ours = Self::gated_view(&self.to_canonical_json());
        let theirs = Self::gated_view(committed);
        if ours == theirs {
            return Ok(());
        }
        for (i, (a, b)) in theirs.lines().zip(ours.lines()).enumerate() {
            if a != b {
                return Err(format!(
                    "perf counters deviate from the committed baseline at gated line {}: \
                     baseline `{a}` vs current `{b}`",
                    i + 1
                ));
            }
        }
        Err(format!(
            "perf counters deviate from the committed baseline: gated views share a prefix \
             but differ in length ({} vs {} bytes)",
            theirs.len(),
            ours.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(wall: u64, walks: u64) -> PerfReport {
        let mut counters = BTreeMap::new();
        counters.insert("walks".to_string(), walks);
        counters.insert("accesses".to_string(), 10 * walks);
        PerfReport::new(vec![WorkloadPerf::new("w", counters, wall)])
    }

    #[test]
    fn canonical_json_is_stable_and_newline_terminated() {
        let a = report(1, 2).to_canonical_json();
        let b = report(1, 2).to_canonical_json();
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.contains("\"schema_version\": 1"));
        assert!(a.contains("\"wall_ns\": 1"));
    }

    #[test]
    fn wall_time_is_not_gated() {
        let fast = report(1, 2);
        let slow = report(999_999, 2).to_canonical_json();
        assert!(fast.check_against(&slow).is_ok());
    }

    #[test]
    fn counter_drift_is_gated() {
        let ours = report(1, 2);
        let committed = report(1, 3).to_canonical_json();
        let err = ours.check_against(&committed).unwrap_err();
        assert!(err.contains("deviate"), "{err}");
        assert!(err.contains("walks") || err.contains('3'), "{err}");
    }

    #[test]
    fn gated_view_strips_only_wall_lines() {
        let json = report(42, 2).to_canonical_json();
        let gated = PerfReport::gated_view(&json);
        assert!(!gated.contains("wall_ns"));
        assert!(gated.contains("\"walks\": 2"));
        assert!(gated.contains("\"schema_version\": 1"));
    }
}
