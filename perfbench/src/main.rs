//! The repository's benchmark: one named workload from a seed, every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) as the last stdout line, with the outputs checked.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-fabric-overload --seed 42 --seconds 55 --trace 0
//! ```
//!
//! Each run repeats its workload for `--seconds` and reports medians
//! over the repetitions. Every repetition must reproduce the same
//! simulated output (its digest is printed); a traced run alternates
//! untraced and traced repetitions and fails unless their digests agree.

mod metrics;
mod mts;
mod serve;
mod timed;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use metrics::{fold, metadata, peak_rss_mb, result_line, Values, END_TO_END, PER_LAYER};
use trace::{hist_percentile, median, percentile, render_spans};

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeFabricOverload,
    MtsLineRate,
}

const WORKLOADS: &[(&str, Workload)] = &[
    ("serve-fabric-overload", Workload::ServeFabricOverload),
    ("mts-linerate", Workload::MtsLineRate),
];

/// Offered interface cycles per serving repetition.
const SERVE_CYCLES: u64 = 4_000_000;
/// Interface cycles per campaign repetition.
const MTS_CYCLES: u64 = 20_000_000;
/// Shard threads of the campaign.
const SHARD_THREADS: &str = "2";

#[derive(Debug)]
struct Args {
    name: &'static str,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(n, _)| n == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value.parse().map_err(|_| format!("--seed needs a number, got '{value}'"))?,
                )
            }
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("--seconds needs a number, got '{value}'"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let &(name, workload) = workload.ok_or("--workload is required")?;
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run measured and checked.
struct Outcome {
    attempted: u64,
    failed: u64,
    values: Values,
    digest: String,
    notes: Vec<String>,
}

/// Where span files and campaign checkpoints go.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Repeats `body` (at least `min` times) while another repetition of
/// average length is expected to end within `budget`, so a run lasts
/// about `budget` whatever one repetition costs.
fn repeat(
    budget: Duration,
    min: u32,
    mut body: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let t = Instant::now();
    let mut n = 0u32;
    while n < min.max(1) || t.elapsed() + t.elapsed() / (2 * n) < budget {
        body()?;
        n += 1;
    }
    Ok(())
}

/// Fails unless `digest` equals the first one `seen`.
fn same_output(seen: &mut Option<String>, digest: String, what: &str) -> Result<(), String> {
    match seen {
        Some(first) if *first != digest => {
            Err(format!("{what} produced simulated output {digest}, expected {first}"))
        }
        Some(_) => Ok(()),
        None => {
            *seen = Some(digest);
            Ok(())
        }
    }
}

fn serve_untraced(seed: u64, budget: Duration, cycles: u64) -> Result<Outcome, String> {
    let cfg = serve::config(seed, cycles);
    let (mut mpps, mut mcps, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digest = None;
    let mut first = None;
    repeat(budget, 1, || {
        let run = serve::Untraced::run(&cfg)?;
        serve::check(&run.report)?;
        let snap = run.report.snapshot.as_ref().expect("checked");
        same_output(&mut digest, serve::canonical_digest(snap), "a repetition")?;
        let s = &run.report.serving;
        mpps.push(s.transmitted as f64 / s.wall_nanos as f64 * 1e3);
        mcps.push(run.cycles() as f64 / s.wall_nanos as f64 * 1e3);
        setup.push(run.setup_s());
        attempted += s.admitted;
        failed += s.stall_drops;
        first.get_or_insert(run.report);
        Ok(())
    })?;
    let first = first.expect("at least one repetition");
    let s = &first.serving;
    let p999 = hist_percentile(&s.latency, 0.999)?;
    let mut values = Values::new();
    values.insert("mpps", median(&mpps));
    values.insert("mcycles_per_s", median(&mcps));
    values.insert("delivery_ratio", s.transmitted as f64 / s.offered as f64);
    values.insert("latency_p50_cycles", hist_percentile(&s.latency, 0.5)?);
    values.insert("latency_p999_cycles", p999);
    values.insert("setup_s", median(&setup));
    values.insert("peak_rss_mb", peak_rss_mb()?);
    let notes = vec![
        format!("repetitions {}, mpps each: {:?}", mpps.len(), mpps),
        format!(
            "offered {} admitted {} transmitted {} ingress_drops {} flows {}",
            s.offered, s.admitted, s.transmitted, s.ingress_drops, s.flows
        ),
        format!("latency_p999_cycles {p999} (samples {})", s.latency.total()),
    ];
    Ok(Outcome { attempted, failed, values, digest: digest.expect("set"), notes })
}

fn serve_traced(seed: u64, budget: Duration, cycles: u64, name: &str) -> Result<Outcome, String> {
    let cfg = serve::config(seed, cycles);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut iterations: Vec<Values> = Vec::new();
    let mut epoch_us: Vec<f64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digest = None;
    let mut last = None;
    repeat(budget, 2, || {
        let run = serve::Untraced::run(&cfg)?;
        serve::check(&run.report)?;
        same_output(
            &mut digest,
            serve::canonical_digest(run.report.snapshot.as_ref().expect("checked")),
            "an untraced repetition",
        )?;
        let s = &run.report.serving;
        plain.push(s.transmitted as f64 / s.wall_nanos as f64 * 1e3);

        let t = serve::traced(&cfg)?;
        serve::check(&t.report)?;
        same_output(
            &mut digest,
            serve::canonical_digest(t.report.snapshot.as_ref().expect("checked")),
            "the traced run",
        )?;
        let s = &t.report.serving;
        traced.push(s.transmitted as f64 / s.wall_nanos as f64 * 1e3);
        attempted += s.admitted;
        failed += s.stall_drops;
        iterations.push(t.values.clone());
        epoch_us.extend_from_slice(&t.epoch_us);
        last = Some(t);
        Ok(())
    })?;
    let mut values = fold(PER_LAYER, &iterations)?;
    let mut notes = vec![format!(
        "repetitions {} (each untraced + traced), mpps untraced {plain:?} traced {traced:?}",
        iterations.len()
    )];
    for (metric, q) in [("serve.epoch_us_p50", 0.5), ("serve.epoch_us_p99", 0.99)] {
        match percentile(&epoch_us, q) {
            Some(v) => values.insert(metric, v),
            None => {
                notes.push(format!(
                    "{metric}: {} epochs leave fewer than 10 beyond; reported as 0",
                    epoch_us.len()
                ));
                values.insert(metric, 0.0)
            }
        };
    }
    values.insert("trace.overhead", median(&traced) / median(&plain));
    let last = last.expect("at least one repetition");
    write_spans(name, seed, &last.spans, &last.folded, &mut notes)?;
    Ok(Outcome { attempted, failed, values, digest: digest.expect("set"), notes })
}

fn write_spans(
    name: &str,
    seed: u64,
    spans: &[trace::Span],
    folded: &[trace::Folded],
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let path = out_dir()?.join(format!("{name}.spans.tsv"));
    std::fs::write(&path, render_spans(spans, folded))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    notes.push(format!("spans of the last traced repetition (seed {seed}): {}", path.display()));
    Ok(())
}

fn mts_untraced(seed: u64, budget: Duration, cycles: u64) -> Result<Outcome, String> {
    let p = mts::params(seed, cycles);
    let ckpt = mts::checkpoint_path(&out_dir()?, seed);
    let config = vpnm_core::VpnmConfig::paper_optimal();
    let (mut mcps, mut mpps, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digest = None;
    let mut first = None;
    repeat(budget, 1, || {
        for i in 0..3 {
            let t = Instant::now();
            let ctrl = vpnm_core::VpnmController::new(config.clone(), seed.wrapping_add(i))?;
            setup.push(t.elapsed().as_secs_f64());
            std::hint::black_box(ctrl);
        }
        let run = mts::run_untraced(&p, &ckpt)?;
        mts::check(&p, &run.report)?;
        same_output(&mut digest, mts::report_digest(&run.report), "a repetition")?;
        let r = &run.report;
        mcps.push(r.cycles as f64 / run.wall_s / 1e6);
        mpps.push(r.responses as f64 / run.wall_s / 1e6);
        attempted += r.accepted + r.stalled;
        failed += r.stalled + (r.accepted - r.responses);
        first.get_or_insert(run);
        Ok(())
    })?;
    let first = first.expect("at least one repetition");
    // Shard 0 again through the trait path: it must equal the campaign's
    // checkpointed shard, and every read must come back after exactly D.
    let probe = mts::run_shard(&p, 0, 0, true)?;
    if probe.result != first.shard0 {
        return Err("shard 0 through PipelinedMemory::run_epoch differs from the campaign's".into());
    }
    let (p50, p999) = mts::latency_check(&probe)?;
    let r = &first.report;
    let mut values = Values::new();
    values.insert("mpps", median(&mpps));
    values.insert("mcycles_per_s", median(&mcps));
    values.insert("delivery_ratio", r.accepted as f64 / (r.accepted + r.stalled) as f64);
    values.insert("latency_p50_cycles", p50);
    values.insert("latency_p999_cycles", p999);
    values.insert("setup_s", median(&setup));
    values.insert("peak_rss_mb", peak_rss_mb()?);
    let notes = vec![
        format!("repetitions {}, mcycles_per_s each: {:?}", mcps.len(), mcps),
        format!(
            "cycles {} accepted {} stalled {} responses {}",
            r.cycles, r.accepted, r.stalled, r.responses
        ),
        format!("latency_p999_cycles {p999} (samples {}, shard 0)", probe.latency.total()),
    ];
    Ok(Outcome { attempted, failed, values, digest: digest.expect("set"), notes })
}

fn mts_traced(seed: u64, budget: Duration, cycles: u64, name: &str) -> Result<Outcome, String> {
    let p = mts::params(seed, cycles);
    let ckpt = mts::checkpoint_path(&out_dir()?, seed);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut iterations = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digest = None;
    let mut last = None;
    repeat(budget, 2, || {
        let run = mts::run_untraced(&p, &ckpt)?;
        mts::check(&p, &run.report)?;
        same_output(&mut digest, mts::report_digest(&run.report), "an untraced repetition")?;
        plain.push(run.report.cycles as f64 / run.wall_s / 1e6);

        let t = mts::traced(&p)?;
        mts::check(&p, &t.report)?;
        same_output(&mut digest, mts::report_digest(&t.report), "the traced run")?;
        let r = &t.report;
        traced.push(r.cycles as f64 / t.values["trace.path_s"] / 1e6);
        attempted += r.accepted + r.stalled;
        failed += r.stalled + (r.accepted - r.responses);
        iterations.push(t.values.clone());
        last = Some(t);
        Ok(())
    })?;
    let mut values = fold(PER_LAYER, &iterations)?;
    values.insert("trace.overhead", median(&traced) / median(&plain));
    let mut notes = vec![format!(
        "repetitions {} (each untraced + traced), Mcycles/s untraced {plain:?} traced {traced:?}",
        iterations.len()
    )];
    let last = last.expect("at least one repetition");
    write_spans(name, seed, &last.spans, &[], &mut notes)?;
    Ok(Outcome { attempted, failed, values, digest: digest.expect("set"), notes })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    match (args.workload, args.trace) {
        (Workload::ServeFabricOverload, false) => serve_untraced(args.seed, budget, SERVE_CYCLES),
        (Workload::ServeFabricOverload, true) => {
            serve_traced(args.seed, budget, SERVE_CYCLES, args.name)
        }
        (Workload::MtsLineRate, false) => mts_untraced(args.seed, budget, MTS_CYCLES),
        (Workload::MtsLineRate, true) => mts_traced(args.seed, budget, MTS_CYCLES, args.name),
    }
}

fn params_json(args: &Args) -> String {
    match args.workload {
        Workload::ServeFabricOverload => serve::describe(&serve::config(args.seed, SERVE_CYCLES)),
        Workload::MtsLineRate => mts::describe(&mts::params(args.seed, MTS_CYCLES)),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: vpnm-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join("|")
            );
            std::process::exit(2);
        }
    };
    // The campaign spreads its shards over a fixed number of threads on
    // every host; set before any thread starts.
    std::env::set_var("VPNM_WORKERS", SHARD_THREADS);
    println!("{}", metadata(args.name, args.seed, args.seconds, args.trace, &params_json(&args)));
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    match run(&args) {
        Ok(o) => {
            for note in &o.notes {
                println!("{note}");
            }
            println!("digest {}", o.digest);
            // Packets or reads lost to a memory stall are counted outcomes
            // of a correct run (the stall accounting is part of what is
            // checked), so they show in `failed`, not in `correct`.
            println!("{}", result_line(true, o.attempted, o.failed, specs, &o.values));
        }
        Err(e) => {
            eprintln!("error: {e}");
            println!("{}", result_line(false, 1, 1, specs, &Values::new()));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests;
