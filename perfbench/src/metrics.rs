//! The metric catalogue, the result line, and the run metadata stamp.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! benchmark's tests keep the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::median;

/// How a metric is folded across the iterations of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// A host measurement: the median across iterations.
    Median,
    /// A simulated count or ratio: every iteration must repeat it
    /// exactly, or the run is incorrect.
    Exact,
}

/// One metric: name, unit, and how iterations combine.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Iteration folding.
    pub agg: Agg,
}

const fn m(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit, agg: Agg::Median }
}

const fn x(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit, agg: Agg::Exact }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    m("mpps", "Mpkt/s"),
    m("mcycles_per_s", "Mcycles/s"),
    x("delivery_ratio", "ratio"),
    x("latency_p50_cycles", "cycles"),
    x("latency_p999_cycles", "cycles"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Metrics of a traced run (`--trace 1`). A layer the workload bypasses
/// reports 0 for all of its metrics.
pub const PER_LAYER: &[Spec] = &[
    m("ingress.wait_s", "s"),
    m("ingress.parks", "count"),
    x("ingress.tail_drops", "count"),
    m("flow_table.busy_s", "s"),
    x("flow_table.lookups", "count"),
    m("flow_table.ns_per_lookup", "ns"),
    x("flow_table.batched_ratio", "ratio"),
    m("serve.self_s", "s"),
    x("serve.epochs", "count"),
    m("serve.epoch_us_p50", "us"),
    m("serve.epoch_us_p99", "us"),
    m("packet_buffer.busy_s", "s"),
    m("packet_buffer.self_s", "s"),
    x("packet_buffer.events", "count"),
    x("packet_buffer.dense_ratio", "ratio"),
    x("packet_buffer.dense_epochs", "count"),
    x("packet_buffer.sparse_epochs", "count"),
    m("fabric.busy_s", "s"),
    m("fabric.self_s", "s"),
    m("fabric.overlap", "ratio"),
    x("fabric.requests", "count"),
    m("controller.busy_s", "s"),
    m("controller.path_s", "s"),
    x("controller.calls", "count"),
    x("controller.requests", "count"),
    x("controller.accepted", "count"),
    m("controller.ns_per_request", "ns"),
    x("controller.reads_merged", "count"),
    x("controller.cycles_skipped", "count"),
    x("controller.cycles_skipped_ratio", "ratio"),
    x("controller.stalls", "count"),
    x("controller.queue_depth_max", "count"),
    x("controller.dsb_occupancy_max", "count"),
    x("controller.outstanding_hwm", "count"),
    m("hash.ns_per_addr", "ns"),
    x("dram.reads", "count"),
    x("dram.writes", "count"),
    x("dram.bus_efficiency", "ratio"),
    x("dram.conflict_rate", "ratio"),
    m("workloads.gen_s", "s"),
    m("campaign.shard_s_p50", "s"),
    m("campaign.shard_s_max", "s"),
    m("campaign.imbalance", "ratio"),
    m("trace.overhead", "ratio"),
    m("trace.path_s", "s"),
    m("trace.accounted_ratio", "ratio"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Folds per-iteration values into one value per metric of `specs`:
/// medians for measurements, and for exact metrics the repeated value —
/// an error names the first one that differed between iterations.
/// Metrics absent from every iteration (a bypassed layer) read 0.
pub fn fold(specs: &[Spec], iterations: &[Values]) -> Result<Values, String> {
    let mut out = Values::new();
    for spec in specs {
        let seen: Vec<f64> =
            iterations.iter().map(|v| v.get(spec.name).copied().unwrap_or(0.0)).collect();
        let value = match spec.agg {
            _ if seen.is_empty() => 0.0,
            Agg::Median => median(&seen),
            Agg::Exact => {
                if let Some(other) = seen.iter().find(|&&v| v.to_bits() != seen[0].to_bits()) {
                    return Err(format!(
                        "{} is not repeatable: {} in one iteration, {other} in another",
                        spec.name, seen[0]
                    ));
                }
                seen[0]
            }
        };
        out.insert(spec.name, value);
    }
    Ok(out)
}

/// The final stdout line: `correct`, `attempted`, `failed`, and every
/// metric of `specs` with its unit. Values print with all their digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &Values,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, spec) in specs.iter().enumerate() {
        let v = values.get(spec.name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(s, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", spec.name, spec.unit);
    }
    s.push_str("}}");
    s
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Output of a command-line tool, trimmed; `"unknown"` when it cannot run.
fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The repository's git revision, or `"unknown"` when the benchmark was
/// built from a tree that is not a git checkout (git would otherwise
/// report whichever repository encloses it).
fn git_rev() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    if !std::path::Path::new(root).join(".git").exists() {
        return "unknown".into();
    }
    tool_output("git", &["-C", root, "rev-parse", "--short=12", "HEAD"])
}

/// One JSON line describing the host, toolchain, build and workload a
/// result came from.
pub fn metadata(workload: &str, seed: u64, seconds: u64, trace: bool, params: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    format!(
        "{{\"meta\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"params\": {params}, \"nproc\": {nproc}, \"rustc\": \"{}\", \
         \"features\": [\"vpnm-hash/simd\"], \"avx2\": {avx2}, \"profile\": \"{}\", \
         \"git_rev\": \"{}\"}}}}",
        tool_output("rustc", &["-V"]),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_rev(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(pairs: &[(&'static str, f64)]) -> Values {
        pairs.iter().copied().collect()
    }

    #[test]
    fn fold_takes_medians_and_demands_exact_repeats() {
        let specs = [m("t", "s"), x("c", "count")];
        let it = [
            values(&[("t", 3.0), ("c", 7.0)]),
            values(&[("t", 1.0), ("c", 7.0)]),
            values(&[("t", 2.0), ("c", 7.0)]),
        ];
        let out = fold(&specs, &it).unwrap();
        assert_eq!(out["t"], 2.0);
        assert_eq!(out["c"], 7.0);
        let bad = [values(&[("c", 7.0)]), values(&[("c", 8.0)])];
        assert!(fold(&specs, &bad).unwrap_err().contains("c is not repeatable"));
        // A metric nobody reported (a bypassed layer) reads 0.
        assert_eq!(fold(&specs, &[Values::new()]).unwrap()["t"], 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 5, 0, &[m("a", "s"), x("b", "count")], &values(&[("a", 0.5)]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\
             \"a\": {\"value\": 0.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
