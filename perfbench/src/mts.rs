//! The MTS campaign workload: `vpnm_bench::campaign` untraced, and the
//! same shards driven through `PipelinedMemory::run_epoch` with spans.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use vpnm_bench::campaign::{
    parse_shard_line, preset_config, run_campaign, shard_line, CampaignParams, CampaignReport,
    ShardResult,
};
use vpnm_bench::parallel::worker_count;
use vpnm_core::{ControllerMetrics, LineAddr, PipelinedMemory, Request, VpnmController};
use vpnm_dram::DramStats;
use vpnm_sim::rng::splitmix64;
use vpnm_sim::{FineHistogram, Histogram};
use vpnm_workloads::generators::AddressGenerator;
use vpnm_workloads::UniformAddresses;

use crate::metrics::{digest, Values};
use crate::serve::{controller_counters, dram_counters, hash_ns_per_addr};
use crate::trace::{hist_percentile, layer_times, median, now_ns, Layer, Span};

/// Interface cycles per `run_epoch` call, as the campaign's shards batch.
const BATCH_CYCLES: usize = 8192;

/// The workload's campaign: `paper_optimal`, one uniform read per cycle,
/// `cycles` split into four shards.
pub fn params(seed: u64, cycles: u64) -> CampaignParams {
    CampaignParams {
        preset: "paper_optimal".into(),
        cycles,
        shard_cycles: cycles.div_ceil(4),
        seed,
        channels: 1,
    }
}

/// The parameters as a JSON object, for the metadata stamp.
pub fn describe(p: &CampaignParams) -> String {
    format!(
        "{{\"preset\": \"{}\", \"cycles\": {}, \"shard_cycles\": {}, \"channels\": {}, \"shard_threads\": {}}}",
        p.preset,
        p.cycles,
        p.shard_cycles,
        p.channels,
        worker_count(p.shards() as usize)
    )
}

/// Digest of the merged campaign report, rendered in the checkpoint's
/// own exact line grammar (the shard field carries the shard count).
pub fn report_digest(r: &CampaignReport) -> String {
    let merged = ShardResult {
        shard: r.completed,
        cycles: r.cycles,
        cycles_skipped: r.cycles_skipped,
        accepted: r.accepted,
        stalled: r.stalled,
        responses: r.responses,
        first_stall_at: None,
        queue_depth: r.queue_depth.clone(),
        storage_occupancy: r.storage_occupancy.clone(),
    };
    digest(shard_line(&merged).as_bytes())
}

/// One untraced campaign and the shard-0 result its checkpoint recorded.
pub struct Untraced {
    /// The merged report.
    pub report: CampaignReport,
    /// Host seconds for the whole campaign.
    pub wall_s: f64,
    /// Shard 0 as checkpointed.
    pub shard0: ShardResult,
}

/// Runs the campaign once, checkpointing to `checkpoint` (removed after).
pub fn run_untraced(p: &CampaignParams, checkpoint: &Path) -> Result<Untraced, String> {
    let _ = std::fs::remove_file(checkpoint);
    let t = Instant::now();
    let report = run_campaign(p, checkpoint, 1, |_, _| {})?;
    let wall_s = t.elapsed().as_secs_f64();
    let text =
        std::fs::read_to_string(checkpoint).map_err(|e| format!("cannot read checkpoint: {e}"))?;
    let _ = std::fs::remove_file(checkpoint);
    let shard0 = text
        .lines()
        .filter_map(parse_shard_line)
        .find(|s| s.shard == 0)
        .ok_or("checkpoint has no shard 0")?;
    Ok(Untraced { report, wall_s, shard0 })
}

/// Correctness of a campaign: every accepted read answered after the
/// drain, and every shard accounted.
pub fn check(p: &CampaignParams, r: &CampaignReport) -> Result<(), String> {
    if r.responses != r.accepted {
        return Err(format!("{} responses for {} accepted reads", r.responses, r.accepted));
    }
    if r.completed != p.shards() {
        return Err(format!("{} of {} shards completed", r.completed, p.shards()));
    }
    Ok(())
}

/// One shard driven through the trait, with what the trace needs.
pub struct Shard {
    /// The shard's result, comparable with the campaign's.
    pub result: ShardResult,
    /// Read latency (`completed_at - issued_at`) of every response.
    pub latency: FineHistogram,
    /// Spans: the shard, each address fill, each controller call.
    pub spans: Vec<Span>,
    /// The controller after the drain.
    pub ctrl: VpnmController,
    /// The last batch of addresses, for the hash replay.
    pub addrs: Vec<u64>,
}

/// Runs shard `shard` of `p` on worker lane `lane` through
/// `PipelinedMemory::run_epoch`, seeded exactly as the campaign seeds it;
/// `latencies` records every read's latency (untimed work the campaign
/// does not do, so the traced run leaves it off).
pub fn run_shard(
    p: &CampaignParams,
    shard: u64,
    lane: u32,
    latencies: bool,
) -> Result<Shard, String> {
    let config = preset_config(&p.preset).ok_or("unknown preset")?;
    let id = shard as u32;
    let mut spans = Vec::new();
    let t0 = now_ns();
    let ctrl_seed = splitmix64(p.seed.wrapping_add(shard));
    let wl_seed = splitmix64(ctrl_seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut ctrl = VpnmController::new(config.clone(), ctrl_seed)?;
    let mut gen = UniformAddresses::new(1u64 << config.addr_bits, wl_seed);
    let mut addrs = vec![0u64; BATCH_CYCLES];
    let mut batch: Vec<Option<Request>> = Vec::with_capacity(BATCH_CYCLES);
    let mut latency = FineHistogram::new();
    let (mut accepted, mut stalled, mut responses) = (0u64, 0u64, 0u64);
    let mut remaining = p.cycles_of_shard(shard);
    let parent = Some(Layer::Campaign);
    while remaining > 0 {
        let n = remaining.min(BATCH_CYCLES as u64) as usize;
        Span::time(&mut spans, Layer::Workloads, parent, id, lane, || {
            gen.fill_addrs(&mut addrs[..n])
        });
        batch.clear();
        batch.extend(addrs[..n].iter().map(|&a| Some(Request::read(LineAddr(a)))));
        let report = Span::time(&mut spans, Layer::Controller, parent, id, lane, || {
            PipelinedMemory::run_epoch(&mut ctrl, &batch)
        });
        accepted += report.accepted;
        stalled += report.stalled;
        responses += report.responses.len() as u64;
        if latencies {
            for r in &report.responses {
                latency.record(r.latency());
            }
        }
        remaining -= n as u64;
    }
    let drained = Span::time(&mut spans, Layer::Controller, parent, id, lane, || {
        PipelinedMemory::drain(&mut ctrl)
    });
    responses += drained.len() as u64;
    if latencies {
        for r in &drained {
            latency.record(r.latency());
        }
    }
    let m = ctrl.metrics();
    let result = ShardResult {
        shard,
        cycles: ctrl.now().as_u64(),
        cycles_skipped: ctrl.cycles_skipped(),
        accepted,
        stalled,
        responses,
        first_stall_at: m.first_stall_at.map(|c| c.as_u64()),
        queue_depth: m.queue_depth_hist.clone(),
        storage_occupancy: m.storage_occupancy_hist.clone(),
    };
    spans.push(Span { layer: Layer::Campaign, parent: None, id, lane, start: t0, end: now_ns() });
    Ok(Shard { result, latency, spans, ctrl, addrs })
}

/// Latency percentiles of a shard's reads and the deterministic-latency
/// check: every read must return exactly `D` cycles after it was issued.
pub fn latency_check(shard: &Shard) -> Result<(f64, f64), String> {
    let d = shard.ctrl.delay();
    let h = &shard.latency;
    if h.min() != Some(d) || h.max() != Some(d) {
        return Err(format!(
            "read latency spans {:?}..={:?}, not exactly D = {d}",
            h.min(),
            h.max()
        ));
    }
    Ok((hist_percentile(h, 0.5)?, hist_percentile(h, 0.999)?))
}

/// A traced campaign: every shard through [`run_shard`] on
/// `worker_count` threads claiming shards in order, merged like the
/// campaign merges its checkpoint.
pub struct Traced {
    /// The merged report.
    pub report: CampaignReport,
    /// Per-layer values.
    pub values: Values,
    /// Every span.
    pub spans: Vec<Span>,
}

/// Runs the traced campaign once.
pub fn traced(p: &CampaignParams) -> Result<Traced, String> {
    let n = p.shards() as usize;
    let workers = worker_count(n);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<Shard, String>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (cursor, slots) = (&cursor, &slots);
            scope.spawn(move || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(k) else { break };
                let shard = run_shard(p, k as u64, w as u32, false);
                *slot.lock().expect("no shard thread panics holding a slot") = Some(shard);
            });
        }
    });
    let wall_ns = t.elapsed().as_nanos() as u64;
    let shards: Vec<Shard> = slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("every shard ran"))
        .collect::<Result<_, _>>()?;

    let mut report = CampaignReport {
        params: p.clone(),
        completed: n as u64,
        resumed: 0,
        cycles: 0,
        cycles_skipped: 0,
        accepted: 0,
        stalled: 0,
        responses: 0,
        queue_depth: Histogram::new(),
        storage_occupancy: Histogram::new(),
    };
    let mut spans = Vec::new();
    let mut dram = DramStats::default();
    for s in &shards {
        let r = &s.result;
        report.cycles += r.cycles;
        report.cycles_skipped += r.cycles_skipped;
        report.accepted += r.accepted;
        report.stalled += r.stalled;
        report.responses += r.responses;
        report.queue_depth.merge(&r.queue_depth);
        report.storage_occupancy.merge(&r.storage_occupancy);
        spans.extend_from_slice(&s.spans);
        dram.merge_from(s.ctrl.dram_stats());
    }

    let mut v = Values::new();
    let times = layer_times(&spans, &[]);
    let t = |l: Layer| times.get(&l).cloned().unwrap_or_default();
    let (gen, ctl) = (t(Layer::Workloads), t(Layer::Controller));
    let secs = |ns: u64| ns as f64 / 1e9;
    v.insert("workloads.gen_s", secs(gen.busy));
    v.insert("controller.busy_s", secs(ctl.busy));
    v.insert("controller.path_s", secs(ctl.path));
    v.insert("controller.calls", ctl.calls as f64);
    let requests = report.accepted + report.stalled;
    v.insert("controller.requests", requests as f64);
    v.insert("controller.ns_per_request", ctl.busy as f64 / requests.max(1) as f64);
    // Shards run one after another on each lane, so per-lane busy time is
    // the sum of that lane's shard spans.
    let shard_spans: Vec<&Span> = spans.iter().filter(|s| s.layer == Layer::Campaign).collect();
    let shard_s: Vec<f64> = shard_spans.iter().map(|s| secs(s.dur())).collect();
    let mut lane_ns = vec![0u64; workers];
    for s in &shard_spans {
        lane_ns[s.lane as usize] += s.dur();
    }
    let slowest = lane_ns.iter().copied().max().unwrap_or(0);
    let mean = lane_ns.iter().sum::<u64>() as f64 / workers as f64;
    v.insert("campaign.shard_s_p50", median(&shard_s));
    v.insert("campaign.shard_s_max", shard_s.iter().copied().fold(0.0, f64::max));
    v.insert("campaign.imbalance", slowest as f64 / mean.max(1.0));
    // The blocking path is the slowest lane: its shards' campaign self,
    // address generation and controller time against the campaign wall.
    let slow_lane = lane_ns.iter().position(|&x| x == slowest).unwrap_or(0) as u32;
    let lane_only: Vec<Span> = spans.iter().copied().filter(|s| s.lane == slow_lane).collect();
    let lt = layer_times(&lane_only, &[]);
    let on_path: u64 = lt.values().map(|t| t.self_time).sum();
    v.insert("trace.path_s", secs(wall_ns));
    v.insert("trace.accounted_ratio", on_path as f64 / wall_ns as f64);

    let parts: Vec<&ControllerMetrics> = shards.iter().map(|s| s.ctrl.metrics()).collect();
    controller_counters(&mut v, &parts, report.cycles_skipped, report.cycles);
    let bus_ratio = preset_config(&p.preset).map_or(1.0, |c| c.bus_ratio);
    dram_counters(&mut v, &dram, report.cycles, bus_ratio);
    let last = shards.last().expect("at least one shard");
    v.insert("hash.ns_per_addr", hash_ns_per_addr(&last.ctrl, &last.addrs));
    Ok(Traced { report, values: v, spans })
}

/// The checkpoint path for a run, inside the benchmark's output directory.
pub fn checkpoint_path(out: &Path, seed: u64) -> PathBuf {
    out.join(format!("mts-{seed}-{}.ckpt", std::process::id()))
}
