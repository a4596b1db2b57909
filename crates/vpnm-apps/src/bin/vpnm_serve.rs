//! `vpnm-serve`: the live serving front-end over a VPNM engine/fabric.
//!
//! Drives the fabric-backed packet buffer from N concurrent producers
//! through bounded ingress queues, optionally paced against the wall
//! clock, and prints the engine's metrics snapshot — with the serving
//! section attached — as JSON on stdout (human summary on stderr).
//!
//! ```text
//! vpnm-serve [engine flags] [serving flags]
//!
//!   engine:  --engine fast|reference  --channels N
//!            --select low-bits|high-bits|universal-hash  --workers N
//!   qos:     --tenants N        tenants sharing the fabric (1)
//!            --regulator off|global|per-bank   ingress token buckets (off)
//!            --tenant-rate N/D  per-tenant budget, requests/cycle (1/4)
//!            --tenant-burst N   bucket depth in requests (16)
//!   serving: --producers N      concurrent producer threads (4)
//!            --cycles N         offered interface cycles (2000000)
//!            --epoch N          cycles per epoch batch (4096)
//!            --load F           offered packets/cycle (0.45; stable <= 0.5)
//!            --mix uniform|heavy-tail|multi-tenant
//!                               flow-ID distribution (heavy-tail;
//!                               multi-tenant blends --tenants - 1
//!                               heavy-tailed tenants with one stride
//!                               adversary)
//!            --adversary-pct P  multi-tenant: adversary's share (25)
//!            --skew F           heavy-tail exponent (1.0)
//!            --flows N          flow-ID space (2097152)
//!            --queue-depth N    ingress bound in packets (512)
//!            --cells-per-queue N  per-flow ring depth (16)
//!            --cell-bytes N     payload bytes per cell (64)
//!            --rate N           pace: interface cycles per wall second
//!                               (0 = unpaced, as fast as possible)
//!            --trace PATH       replay a vpnm-loadgen trace instead of
//!                               synthesizing (overrides --load/--mix/...)
//!            --seed N           root seed (42)
//!            --no-verify        skip payload verification
//! ```
//!
//! For a fixed seed and config the JSON is byte-identical at any
//! `--workers` count and `--rate`, once the measurement-domain fields
//! (`wall_nanos`, `mpps`, `producer_parks`, and `paced_rate`) are set
//! aside — see `ServingMetrics::canonical`.

use std::sync::Arc;

use vpnm_apps::serve::{read_trace, run_serve, Arrival, ArrivalSource, FlowMix, ServeConfig};
use vpnm_apps::EngineOpts;
use vpnm_core::VpnmConfig;

const USAGE: &str = "usage: vpnm-serve [engine flags] [qos flags] [--producers N] [--cycles N]
[--epoch N] [--load F] [--mix uniform|heavy-tail|multi-tenant]
[--adversary-pct P] [--skew F] [--flows N]
[--queue-depth N] [--cells-per-queue N] [--cell-bytes N] [--rate N]
[--trace PATH] [--seed N] [--no-verify]";

fn usage_exit(error: &str) -> ! {
    eprintln!("error: {error}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let (engine, rest) = match EngineOpts::parse(std::env::args().skip(1)) {
        Ok(v) => v,
        Err(e) => usage_exit(&e),
    };

    let mut cfg = ServeConfig {
        engine,
        cycles: 2_000_000,
        source: ArrivalSource::Synthetic {
            load: 0.45,
            mix: FlowMix::HeavyTail { space: 1 << 21, skew: 1.0 },
        },
        ..ServeConfig::demo()
    };
    let mut load = 0.45f64;
    let mut mix_name = "heavy-tail".to_string();
    let mut skew = 1.0f64;
    let mut flows: u64 = 1 << 21;
    let mut adversary_pct: u32 = 25;
    let mut trace_path: Option<String> = None;

    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
        };
        let parse_u64 = |flag: &str, v: String| {
            v.parse::<u64>().unwrap_or_else(|_| usage_exit(&format!("{flag} needs a number")))
        };
        match arg.as_str() {
            "--producers" => cfg.producers = parse_u64("--producers", value("--producers")) as u32,
            "--cycles" => cfg.cycles = parse_u64("--cycles", value("--cycles")),
            "--epoch" => cfg.epoch_len = parse_u64("--epoch", value("--epoch")),
            "--load" => {
                load =
                    value("--load").parse().unwrap_or_else(|_| usage_exit("--load needs a number"));
            }
            "--mix" => mix_name = value("--mix"),
            "--skew" => {
                skew =
                    value("--skew").parse().unwrap_or_else(|_| usage_exit("--skew needs a number"));
            }
            "--flows" => flows = parse_u64("--flows", value("--flows")),
            "--adversary-pct" => {
                adversary_pct = parse_u64("--adversary-pct", value("--adversary-pct")) as u32;
            }
            "--queue-depth" => {
                cfg.queue_depth = parse_u64("--queue-depth", value("--queue-depth")) as usize;
            }
            "--cells-per-queue" => {
                cfg.cells_per_queue = parse_u64("--cells-per-queue", value("--cells-per-queue"));
            }
            "--cell-bytes" => {
                cfg.cell_bytes = parse_u64("--cell-bytes", value("--cell-bytes")) as usize;
            }
            "--rate" => {
                cfg.pace = match parse_u64("--rate", value("--rate")) {
                    0 => None,
                    r => Some(r),
                };
            }
            "--trace" => trace_path = Some(value("--trace")),
            "--seed" => cfg.seed = parse_u64("--seed", value("--seed")),
            "--no-verify" => cfg.verify = false,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_exit(&format!("unrecognized argument '{other}'")),
        }
    }

    cfg.source = match trace_path {
        Some(path) => {
            let (cycles, arrivals): (u64, Vec<Arrival>) =
                read_trace(&path).unwrap_or_else(|e| usage_exit(&e));
            eprintln!(
                "vpnm-serve: replaying {} arrivals over {cycles} cycles from {path}",
                arrivals.len()
            );
            cfg.cycles = cycles;
            ArrivalSource::Trace(Arc::new(arrivals))
        }
        None => {
            let mix = match mix_name.as_str() {
                "uniform" => FlowMix::Uniform { space: flows },
                "heavy-tail" => FlowMix::HeavyTail { space: flows, skew },
                "multi-tenant" => FlowMix::MultiTenant {
                    space: flows,
                    tenants: cfg.engine.tenants,
                    adversary_pct,
                    banks: u64::from(cfg.engine.channels)
                        * u64::from(VpnmConfig::paper_optimal().banks),
                },
                other => usage_exit(&format!("unknown mix '{other}'")),
            };
            ArrivalSource::Synthetic { load, mix }
        }
    };
    cfg.base = VpnmConfig::paper_optimal();

    eprintln!(
        "vpnm-serve: engine {} | {} producers, {} cycles (epoch {}), queue bound {}, {}",
        cfg.engine.describe(),
        cfg.producers,
        cfg.cycles,
        cfg.epoch_len,
        cfg.queue_depth,
        match cfg.pace {
            Some(r) => format!("paced at {r} cycles/s"),
            None => "unpaced".to_string(),
        }
    );

    let report = run_serve(&cfg).unwrap_or_else(|e| {
        eprintln!("vpnm-serve: {e}");
        std::process::exit(1)
    });
    let s = &report.serving;
    eprintln!(
        "vpnm-serve: offered {} | admitted {} | transmitted {} | {} distinct flows",
        s.offered, s.admitted, s.transmitted, s.flows
    );
    eprintln!(
        "vpnm-serve: drops: ingress {} flow-queue {} flow-table {} stall {} | parks {}",
        s.ingress_drops, s.flow_queue_drops, s.flow_table_drops, s.stall_drops, s.producer_parks
    );
    eprintln!(
        "vpnm-serve: latency p50 {} p99 {} p999 {} max {} cycles | {:.3} Mpps over {:.3} s",
        s.latency.quantile(0.50).unwrap_or(0),
        s.latency.quantile(0.99).unwrap_or(0),
        s.latency.quantile(0.999).unwrap_or(0),
        s.latency.max().unwrap_or(0),
        s.mpps,
        s.wall_nanos as f64 / 1e9
    );
    if report.residual > 0 {
        eprintln!("vpnm-serve: WARNING {} packets unaccounted after drain", report.residual);
    }
    if let Some(section) = report.snapshot.as_ref().and_then(|s| s.tenants.as_ref()) {
        for (i, t) in section.per_tenant.iter().enumerate() {
            eprintln!(
                "vpnm-serve: t{i}: issued {} deferred {} dropped {} transmitted {} p99 {}",
                t.issued,
                t.deferred,
                t.dropped,
                t.transmitted,
                t.latency.quantile(0.99).unwrap_or(0),
            );
        }
    }
    match report.snapshot {
        Some(snap) => print!("{}", snap.to_json()),
        None => eprintln!("vpnm-serve: engine exposes no metrics snapshot"),
    }
}
