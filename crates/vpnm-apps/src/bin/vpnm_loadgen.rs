//! `vpnm-loadgen`: generate arrival traces for `vpnm-serve --trace`.
//!
//! Synthesizes an offered-traffic trace — one optional arrival per
//! interface cycle — from the `vpnm-workloads` pattern families and
//! writes it in the binary `VPNMTRC1` format `vpnm-serve` replays.
//! Splitting generation from serving makes a traffic mix a reproducible
//! artifact: generate once, replay against any engine topology, worker
//! count, or pacing rate.
//!
//! ```text
//! vpnm-loadgen --out PATH [flags]
//!
//!   --out PATH      trace file to write (required)
//!   --cycles N      offered interface cycles (2000000)
//!   --load F        offered packets/cycle (0.45)
//!   --mix uniform|heavy-tail|stride|multi-tenant
//!                   flow-ID distribution (heavy-tail)
//!                   (`stride` is the bank-conflict adversary of paper
//!                   Section 3.4, mapped onto flow IDs; `multi-tenant`
//!                   blends N-1 heavy-tailed tenants with one stride
//!                   adversary, writing a tenant-tagged VPNMTRC2 trace)
//!   --skew F        heavy-tail exponent (1.0)
//!   --flows N       flow-ID space (2097152)
//!   --tenants N     multi-tenant: total tenant count (4)
//!   --adversary-pct P  multi-tenant: adversary's packet share (25)
//!   --banks N       multi-tenant: bank count the adversary strides (32)
//!   --burst ON:OFF  on/off burst shaping in cycles (none; e.g. 512:1536
//!                   offers `load` during ON windows and nothing in OFF,
//!                   quartering the average rate but keeping the peak)
//!   --seed N        root seed (42)
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpnm_apps::serve::{write_trace, Arrival};
use vpnm_workloads::burst::BurstShaper;
use vpnm_workloads::{
    HeavyTailFlows, MultiTenantMix, StrideAdversary, Tagged, TenantFlowGen, UniformAddresses,
};

const USAGE: &str = "usage: vpnm-loadgen --out PATH [--cycles N] [--load F]
[--mix uniform|heavy-tail|stride|multi-tenant] [--skew F] [--flows N]
[--tenants N] [--adversary-pct P] [--banks N]
[--burst ON:OFF] [--seed N]";

fn usage_exit(error: &str) -> ! {
    eprintln!("error: {error}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut out: Option<String> = None;
    let mut cycles: u64 = 2_000_000;
    let mut load = 0.45f64;
    let mut mix = "heavy-tail".to_string();
    let mut skew = 1.0f64;
    let mut flows: u64 = 1 << 21;
    let mut burst: Option<(u64, u64)> = None;
    let mut seed: u64 = 42;
    let mut tenants: u16 = 4;
    let mut adversary_pct: u32 = 25;
    let mut banks: u64 = 32;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")),
            "--cycles" => {
                cycles = value("--cycles")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--cycles needs a number"));
            }
            "--load" => {
                load =
                    value("--load").parse().unwrap_or_else(|_| usage_exit("--load needs a number"));
            }
            "--mix" => mix = value("--mix"),
            "--skew" => {
                skew =
                    value("--skew").parse().unwrap_or_else(|_| usage_exit("--skew needs a number"));
            }
            "--flows" => {
                flows = value("--flows")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--flows needs a number"));
            }
            "--burst" => {
                let v = value("--burst");
                let (on, off) =
                    v.split_once(':').unwrap_or_else(|| usage_exit("--burst needs ON:OFF cycles"));
                burst = Some((
                    on.parse().unwrap_or_else(|_| usage_exit("--burst ON must be a number")),
                    off.parse().unwrap_or_else(|_| usage_exit("--burst OFF must be a number")),
                ));
            }
            "--seed" => {
                seed =
                    value("--seed").parse().unwrap_or_else(|_| usage_exit("--seed needs a number"));
            }
            "--tenants" => {
                tenants = value("--tenants")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--tenants needs a number"));
            }
            "--adversary-pct" => {
                adversary_pct = value("--adversary-pct")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--adversary-pct needs a number"));
            }
            "--banks" => {
                banks = value("--banks")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--banks needs a number"));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_exit(&format!("unrecognized argument '{other}'")),
        }
    }
    let out = out.unwrap_or_else(|| usage_exit("--out is required"));
    if !(0.0..=1.0).contains(&load) {
        usage_exit("--load must be in [0, 1]");
    }

    let mut gen: Box<dyn TenantFlowGen> = match mix.as_str() {
        "uniform" => Box::new(Tagged::new(0, UniformAddresses::new(flows, seed ^ 0x10AD))),
        "heavy-tail" => Box::new(Tagged::new(0, HeavyTailFlows::new(flows, skew, seed ^ 0x10AD))),
        // The paper's stride attacker walks bank-conflicting addresses;
        // as flow IDs it concentrates all traffic on B colliding flows.
        "stride" => Box::new(Tagged::new(0, StrideAdversary::new(32, flows))),
        "multi-tenant" => {
            Box::new(MultiTenantMix::new(tenants, flows, banks, adversary_pct, seed ^ 0x10AD))
        }
        other => usage_exit(&format!("unknown mix '{other}'")),
    };
    let mut shaper = burst.map(|(on, off)| BurstShaper::new(on, off));
    let mut rng = StdRng::seed_from_u64(seed);

    let mut arrivals: Vec<Arrival> = Vec::new();
    let mut distinct = std::collections::HashSet::new();
    for cycle in 0..cycles {
        let on = shaper.as_mut().is_none_or(|s| s.tick());
        // Consume the coin flip every cycle so --burst changes *when*
        // packets land, not which flows they belong to.
        let fire = rng.gen::<f64>() < load;
        if on && fire {
            let (tenant, flow) = gen.next_tagged();
            distinct.insert(flow);
            arrivals.push(Arrival { cycle, flow, tenant });
        }
    }

    write_trace(&out, cycles, &arrivals).unwrap_or_else(|e| {
        eprintln!("vpnm-loadgen: {e}");
        std::process::exit(1)
    });
    let duty = burst.map_or(1.0, |(on, off)| on as f64 / (on + off) as f64);
    eprintln!(
        "vpnm-loadgen: wrote {} arrivals over {} cycles to {} \
         ({} distinct flows, mix {}, load {:.3}, duty {:.3})",
        arrivals.len(),
        cycles,
        out,
        distinct.len(),
        mix,
        load,
        duty
    );
}
