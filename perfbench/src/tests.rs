//! The benchmark's own tests: the metric catalogue against
//! `BENCHMARK.json`, seed handling, and the digest contracts.

use std::time::Duration;

use vpnm_apps::serve::{EpochPlan, IngressRig};

use super::*;

/// Small enough for a test, large enough that every layer does work.
const CYCLES: u64 = 200_000;
const MTS_TEST_CYCLES: u64 = 400_000;

/// The `[...]` array following `"key":` in `json`.
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let start =
        json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let open = start + json[start..].find('[').expect("array opens");
    let mut depth = 0;
    for (i, c) in json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &json[open..open + i];
                }
            }
            _ => {}
        }
    }
    panic!("{key} array never closes")
}

/// Every string value of `field` in `array`, in order.
fn strings(array: &str, field: &str) -> Vec<String> {
    let pat = format!("\"{field}\":");
    array
        .match_indices(&pat)
        .map(|(i, _)| {
            let rest = array[i + pat.len()..].trim_start().strip_prefix('"').expect("string value");
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let json = benchmark_json();
    for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let a = array(&json, key);
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        let units: Vec<&str> = specs.iter().map(|s| s.unit).collect();
        assert_eq!(strings(a, "name"), names, "{key} names");
        assert_eq!(strings(a, "unit"), units, "{key} units");
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(strings(array(&json, "workloads"), "name"), names);
}

/// The names in a printed result line, in order.
fn printed_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .match_indices(": {\"value\"")
        .map(|(i, _)| {
            let head = &metrics[..i - 1];
            head[head.rfind('"').expect("name opens") + 1..].to_string()
        })
        .collect()
}

fn assert_prints_every_metric(outcome: &Outcome, specs: &[metrics::Spec]) {
    let line = result_line(true, outcome.attempted, outcome.failed, specs, &outcome.values);
    let expected: Vec<&str> = specs.iter().map(|s| s.name).collect();
    assert_eq!(printed_names(&line), expected);
    // Nothing measured outside the catalogue.
    for name in outcome.values.keys() {
        assert!(expected.contains(name), "{name} is not in the catalogue");
    }
}

#[test]
fn a_different_seed_changes_the_inputs_but_not_the_metric_set() {
    let arrivals = |seed| {
        let cfg = serve::config(seed, 8192);
        let plan = EpochPlan { cycles: cfg.cycles, epoch_len: cfg.epoch_len };
        let mut rig = IngressRig::spawn(cfg.producers, &cfg.source, plan, seed);
        let got: Vec<_> = (0..plan.epochs()).flat_map(|_| rig.next_epoch().to_vec()).collect();
        rig.join();
        got
    };
    assert_eq!(arrivals(1), arrivals(1), "a seed fixes the inputs");
    assert_ne!(arrivals(1), arrivals(2), "another seed changes them");

    let a = serve_untraced(1, Duration::ZERO, CYCLES).unwrap();
    let b = serve_untraced(2, Duration::ZERO, CYCLES).unwrap();
    assert_ne!(a.digest, b.digest);
    assert_eq!(a.values.keys().collect::<Vec<_>>(), b.values.keys().collect::<Vec<_>>());
    assert_prints_every_metric(&a, END_TO_END);
    assert_prints_every_metric(&b, END_TO_END);
}

#[test]
fn serve_fabric_overload_digest_is_the_same_at_one_and_two_workers() {
    let digest_at = |workers| {
        let mut cfg = serve::config(42, CYCLES);
        cfg.engine.workers = workers;
        let run = serve::Untraced::run(&cfg).unwrap();
        serve::check(&run.report).unwrap();
        serve::canonical_digest(run.report.snapshot.as_ref().unwrap())
    };
    let one = digest_at(1);
    assert_eq!(one, digest_at(2));

    let plain = serve_untraced(42, Duration::ZERO, CYCLES).unwrap();
    let traced = serve_traced(42, Duration::ZERO, CYCLES, "test-fabric").unwrap();
    assert_eq!(one, plain.digest);
    assert_eq!(one, traced.digest);
    assert_prints_every_metric(&traced, PER_LAYER);
    let v = &traced.values;
    assert!(v["ingress.tail_drops"] > 0.0, "load 0.6 overloads the loop");
    assert!(v["packet_buffer.dense_ratio"] > 0.9, "saturated epochs take the dense door");
    assert!(v["fabric.overlap"] >= 1.0);
    assert!(v["controller.busy_s"] >= v["controller.path_s"]);
    assert_eq!(v["campaign.shard_s_p50"], 0.0, "no campaign in serving");
    let accounted = v["trace.accounted_ratio"];
    assert!((0.95..=1.0).contains(&accounted), "self times account for {accounted} of the loop");
}

#[test]
fn mts_traced_reproduces_the_campaign() {
    let plain = mts_untraced(3, Duration::ZERO, MTS_TEST_CYCLES).unwrap();
    let traced = mts_traced(3, Duration::ZERO, MTS_TEST_CYCLES, "test-mts").unwrap();
    assert_eq!(plain.digest, traced.digest);
    assert_eq!(
        plain.values["latency_p50_cycles"], plain.values["latency_p999_cycles"],
        "every read takes D"
    );
    assert_prints_every_metric(&plain, END_TO_END);
    assert_prints_every_metric(&traced, PER_LAYER);
    let v = &traced.values;
    assert_eq!(v["serve.epochs"], 0.0, "no serve layer in a campaign");
    assert_eq!(v["controller.requests"], MTS_TEST_CYCLES as f64);
    assert!(v["workloads.gen_s"] > 0.0 && v["campaign.imbalance"] >= 1.0);
}

#[test]
fn arguments_parse_and_refuse_garbage() {
    let args = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let a = args("--workload mts-linerate --seed 9 --seconds 3 --trace 1").unwrap();
    assert_eq!((a.name, a.seed, a.seconds, a.trace), ("mts-linerate", 9, 3, true));
    assert_eq!(a.workload, Workload::MtsLineRate);
    assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
    assert!(args("--workload mts-linerate --seed 1 --seconds 0 --trace 0").is_err());
    assert!(args("--workload mts-linerate --seed 1 --seconds 1 --trace 2").is_err());
    assert!(args("--workload mts-linerate --seed 1 --seconds 1").is_err());
    assert!(args("--workload mts-linerate --seed x --seconds 1 --trace 0").is_err());
}
