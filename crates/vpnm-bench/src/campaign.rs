//! Long-horizon MTS campaign driver: sharded, checkpointed, resumable.
//!
//! The paper's headline guarantee is probabilistic — a stall once per
//! ~10¹³ accesses — so demonstrating it by simulation means horizons of
//! 10¹⁰⁺ interface cycles, far beyond a single `cargo test` run. This
//! module splits such a horizon into fixed-size **shards**, each an
//! independent controller instance whose seeds derive only from the
//! campaign seed and the shard index. Shards run across all cores via
//! [`crate::parallel::run_trials_chunked`], driving the batched
//! [`PipelinedMemory`] methods (`issue_batch` on a single channel,
//! `run_epoch` on a fabric), and every
//! completed shard is appended as one JSON line to a checkpoint file —
//! kill the process at any point and a rerun resumes from the last
//! completed shard instead of restarting the campaign.
//!
//! Determinism is the load-bearing property: shard `i` produces the same
//! [`ShardResult`] regardless of core count, scheduling, or how many
//! times the campaign was interrupted, so the merged report (counters
//! summed, occupancy histograms combined via [`Histogram::merge`]) is
//! identical to an uninterrupted single-threaded run.
//!
//! The JSON is hand-rolled and hand-parsed (the workspace carries no
//! serde); the checkpoint grammar is one header line plus one flat object
//! per shard, with histograms serialized *exactly* (bucket counts plus
//! the integer sum/min/max sidecar) so reloaded shards are bit-identical
//! to freshly computed ones.

use crate::parallel::run_trials_chunked;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use vpnm_core::{
    ChannelSelect, FabricConfig, LineAddr, PipelinedMemory, Request, VpnmConfig, VpnmController,
    VpnmFabric,
};
use vpnm_sim::rng::splitmix64;
use vpnm_sim::Histogram;
use vpnm_workloads::generators::AddressGenerator;
use vpnm_workloads::UniformAddresses;

/// Bumped when the checkpoint grammar changes; resuming across versions
/// is refused.
///
/// Version history: 1 — initial grammar; 2 — header gained `channels`
/// (multi-channel fabric campaigns); 3 — fabric shards switched from the
/// per-tick loop to the epoch-batched `run_epoch` path, which changes the
/// recorded `cycles_skipped` (per-channel idle spans are now skipped), so
/// v2 fabric shard lines no longer match fresh ones.
///
/// The worker count is deliberately **not** part of the grammar: epoch
/// results are byte-identical for every worker count, so a campaign
/// checkpointed sequentially resumes under `--workers N` (and vice versa)
/// without divergence.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Interface cycles simulated per batch call inside a shard — large
/// enough to amortize batch setup, small enough to keep buffers in cache.
const BATCH_CYCLES: usize = 8192;

/// Everything that determines a campaign's results. Two campaigns with
/// equal parameters produce bit-identical shard results and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignParams {
    /// Configuration preset name (see [`preset_config`]).
    pub preset: String,
    /// Total horizon in interface cycles (across all shards).
    pub cycles: u64,
    /// Interface cycles per shard (the final shard takes the remainder).
    pub shard_cycles: u64,
    /// Campaign master seed; per-shard seeds derive from it and the shard
    /// index only.
    pub seed: u64,
    /// Memory channels per shard: 1 drives a bare controller through the
    /// batched front door; more stripes each shard's stream over a
    /// universal-hash-selected [`VpnmFabric`].
    pub channels: u32,
}

impl CampaignParams {
    /// Number of shards the horizon splits into.
    pub fn shards(&self) -> u64 {
        self.cycles.div_ceil(self.shard_cycles)
    }

    /// Interface cycles assigned to `shard` (the last shard may be short).
    pub fn cycles_of_shard(&self, shard: u64) -> u64 {
        let start = shard * self.shard_cycles;
        self.shard_cycles.min(self.cycles - start)
    }

    /// Validates the parameters, resolving the preset.
    ///
    /// # Errors
    ///
    /// Returns a message for a zero horizon/shard size or unknown preset.
    pub fn validate(&self) -> Result<VpnmConfig, String> {
        if self.cycles == 0 {
            return Err("campaign horizon must be non-zero".into());
        }
        if self.shard_cycles == 0 {
            return Err("shard size must be non-zero".into());
        }
        let config = preset_config(&self.preset)
            .ok_or_else(|| format!("unknown config preset '{}'", self.preset))?;
        if self.channels > 1 {
            self.fabric_config(config.clone()).validate()?;
        }
        Ok(config)
    }

    /// The fabric geometry a multi-channel campaign stripes over.
    pub fn fabric_config(&self, base: VpnmConfig) -> FabricConfig {
        FabricConfig {
            channels: self.channels,
            select: ChannelSelect::UniversalHash,
            base,
            qos: None,
        }
    }
}

/// Resolves a preset name to its [`VpnmConfig`].
pub fn preset_config(name: &str) -> Option<VpnmConfig> {
    match name {
        "paper_optimal" => Some(VpnmConfig::paper_optimal()),
        "paper_compact" => Some(VpnmConfig::paper_compact()),
        "small_test" => Some(VpnmConfig::small_test()),
        "test_roomy" => Some(VpnmConfig::test_roomy()),
        _ => None,
    }
}

/// The measured outcome of one shard — everything the merged report
/// needs, in exactly reconstructible form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardResult {
    /// Shard index within the campaign.
    pub shard: u64,
    /// Interface cycles this shard's controller actually ran (assigned
    /// cycles plus the trailing drain).
    pub cycles: u64,
    /// Interface cycles covered by event-horizon skips.
    pub cycles_skipped: u64,
    /// Requests accepted.
    pub accepted: u64,
    /// Retryable stalls — the campaign's numerator-of-interest.
    pub stalled: u64,
    /// Responses returned (equals `accepted` after the drain).
    pub responses: u64,
    /// Shard-local interface cycle of the first stall, if any.
    pub first_stall_at: Option<u64>,
    /// Per-cycle max bank-queue-depth distribution.
    pub queue_depth: Histogram,
    /// Per-cycle total storage-occupancy distribution.
    pub storage_occupancy: Histogram,
}

/// Runs one shard to completion on the caller's thread — shorthand for
/// [`run_shard_with_workers`] with one worker.
pub fn run_shard(params: &CampaignParams, shard: u64) -> ShardResult {
    run_shard_with_workers(params, shard, 1)
}

/// Runs one shard to completion: a fresh controller (or fabric, for
/// `channels > 1`) and a fresh uniform read stream, both seeded
/// deterministically from `(params.seed, shard)`, driven through
/// [`PipelinedMemory::issue_batch`] in `BATCH_CYCLES`-sized dense
/// batches (the single-channel path; every cycle carries a read, so no
/// cycle is skipped) or through the fabric's epoch-batched `run_epoch` in
/// the same batch size, and drained at the end.
///
/// `workers` only affects how a multi-channel shard's epochs execute
/// (on-thread for 1, a per-shard [`vpnm_core::WorkerPool`] otherwise) —
/// the result is byte-identical for every value, so the checkpoint
/// grammar ignores it.
pub fn run_shard_with_workers(params: &CampaignParams, shard: u64, workers: usize) -> ShardResult {
    let config = params.validate().expect("validated before sharding");
    let ctrl_seed = splitmix64(params.seed.wrapping_add(shard));
    let wl_seed = splitmix64(ctrl_seed ^ 0x9E37_79B9_7F4A_7C15);
    if params.channels > 1 {
        return run_shard_fabric(params, shard, config, ctrl_seed, wl_seed, workers);
    }
    let mut mem = VpnmController::new(config.clone(), ctrl_seed).expect("preset validates");
    let mut gen = UniformAddresses::new(1u64 << config.addr_bits, wl_seed);

    let mut addrs = vec![0u64; BATCH_CYCLES];
    let mut batch: Vec<Request> = Vec::with_capacity(BATCH_CYCLES);
    let mut remaining = params.cycles_of_shard(shard);
    let mut accepted = 0u64;
    let mut stalled = 0u64;
    let mut responses = 0u64;
    while remaining > 0 {
        let n = remaining.min(BATCH_CYCLES as u64) as usize;
        gen.fill_addrs(&mut addrs[..n]);
        batch.clear();
        batch.extend(addrs[..n].iter().map(|&a| Request::read(LineAddr(a))));
        let report = mem.issue_batch(&batch);
        accepted += report.accepted;
        stalled += report.stalled;
        responses += report.responses.len() as u64;
        remaining -= n as u64;
    }
    responses += mem.drain().len() as u64;

    let m = mem.metrics();
    ShardResult {
        shard,
        cycles: mem.now().as_u64(),
        cycles_skipped: mem.cycles_skipped(),
        accepted,
        stalled,
        responses,
        first_stall_at: m.first_stall_at.map(|c| c.as_u64()),
        queue_depth: m.queue_depth_hist.clone(),
        storage_occupancy: m.storage_occupancy_hist.clone(),
    }
}

/// The multi-channel shard body: the same deterministic stream, striped
/// over a fabric and driven through the epoch-batched `run_epoch` path —
/// each channel advances through a whole [`BATCH_CYCLES`] epoch at a time
/// (per-channel batched hashing and idle-span skipping apply, since every
/// channel sees only `~1/C` of the stream), optionally across `workers`
/// pool threads. Histograms carry one sample per channel per cycle,
/// merged across channels.
fn run_shard_fabric(
    params: &CampaignParams,
    shard: u64,
    config: VpnmConfig,
    ctrl_seed: u64,
    wl_seed: u64,
    workers: usize,
) -> ShardResult {
    let addr_bits = config.addr_bits;
    let mut mem =
        VpnmFabric::new(params.fabric_config(config), ctrl_seed).expect("params validate");
    mem.set_workers(workers);
    let mut gen = UniformAddresses::new(1u64 << addr_bits, wl_seed);

    let mut addrs = vec![0u64; BATCH_CYCLES];
    let mut batch: Vec<Option<Request>> = Vec::with_capacity(BATCH_CYCLES);
    let mut remaining = params.cycles_of_shard(shard);
    let mut accepted = 0u64;
    let mut stalled = 0u64;
    let mut responses = 0u64;
    while remaining > 0 {
        let n = remaining.min(BATCH_CYCLES as u64) as usize;
        gen.fill_addrs(&mut addrs[..n]);
        batch.clear();
        batch.extend(addrs[..n].iter().map(|&a| Some(Request::read(LineAddr(a)))));
        let report = mem.run_epoch(&batch);
        accepted += report.accepted;
        stalled += report.stalled;
        responses += report.responses.len() as u64;
        remaining -= n as u64;
    }
    responses += PipelinedMemory::drain(&mut mem).len() as u64;

    let snap = mem.merged_snapshot().expect("controllers keep metrics");
    ShardResult {
        shard,
        cycles: mem.now().as_u64(),
        cycles_skipped: snap.cycles_skipped,
        accepted,
        stalled,
        responses,
        first_stall_at: snap.metrics.first_stall_at.map(|c| c.as_u64()),
        queue_depth: snap.metrics.queue_depth_hist.clone(),
        storage_occupancy: snap.metrics.storage_occupancy_hist.clone(),
    }
}

/// The merged outcome of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The parameters the campaign ran under.
    pub params: CampaignParams,
    /// Shards completed (always all of them on a successful return).
    pub completed: u64,
    /// Shards loaded from the checkpoint instead of recomputed.
    pub resumed: u64,
    /// Total interface cycles simulated across shards (incl. drains).
    pub cycles: u64,
    /// Total interface cycles covered by event-horizon skips.
    pub cycles_skipped: u64,
    /// Total requests accepted.
    pub accepted: u64,
    /// Total retryable stalls.
    pub stalled: u64,
    /// Total responses returned.
    pub responses: u64,
    /// Merged per-cycle queue-depth distribution.
    pub queue_depth: Histogram,
    /// Merged per-cycle storage-occupancy distribution.
    pub storage_occupancy: Histogram,
}

impl CampaignReport {
    /// Mean interface cycles between stalls — `None` when the campaign
    /// observed no stall at all (the horizon is then a lower bound on the
    /// MTS, which is the expected outcome for paper-scale configs).
    pub fn mts_estimate(&self) -> Option<f64> {
        (self.stalled > 0).then(|| self.cycles as f64 / self.stalled as f64)
    }

    /// Renders the human-readable summary.
    pub fn render(&self) -> String {
        let mut t = crate::Table::new(vec!["metric", "value"]);
        t.row(vec!["preset".into(), self.params.preset.clone()]);
        t.row(vec!["channels".into(), self.params.channels.to_string()]);
        t.row(vec!["shards".into(), format!("{} ({} resumed)", self.completed, self.resumed)]);
        t.row(vec!["cycles".into(), self.cycles.to_string()]);
        t.row(vec!["cycles skipped".into(), self.cycles_skipped.to_string()]);
        t.row(vec!["accepted".into(), self.accepted.to_string()]);
        t.row(vec!["responses".into(), self.responses.to_string()]);
        t.row(vec!["stalls".into(), self.stalled.to_string()]);
        t.row(vec![
            "MTS".into(),
            match self.mts_estimate() {
                Some(mts) => crate::fmt_mts(mts),
                None => format!("no stall observed; MTS >= {:.2e} cycles", self.cycles as f64),
            },
        ]);
        t.row(vec!["mean queue depth".into(), format!("{:.4}", self.queue_depth.mean())]);
        t.row(vec![
            "peak storage occupancy".into(),
            self.storage_occupancy.max().unwrap_or(0).to_string(),
        ]);
        t.render()
    }
}

/// Runs (or resumes) a campaign, appending one checkpoint line per
/// completed shard to `checkpoint`. `progress(done, pending)` fires after
/// each freshly computed shard (resumed shards are not re-reported).
///
/// `workers` is the per-shard fabric worker count (see
/// [`run_shard_with_workers`]); it changes wall-clock time only, never
/// results, so checkpoints resume freely across worker counts.
///
/// # Errors
///
/// Returns a message when the checkpoint belongs to different parameters,
/// cannot be read/written, or the parameters fail validation.
pub fn run_campaign<P>(
    params: &CampaignParams,
    checkpoint: &Path,
    workers: usize,
    progress: P,
) -> Result<CampaignReport, String>
where
    P: Fn(usize, usize) + Sync,
{
    params.validate()?;
    let shards = params.shards();
    let mut done = load_checkpoint(checkpoint, params)?;
    if !checkpoint.exists() {
        std::fs::write(checkpoint, header_line(params))
            .map_err(|e| format!("cannot create checkpoint {}: {e}", checkpoint.display()))?;
    }
    let resumed = done.len() as u64;
    let pending: Vec<u64> = (0..shards).filter(|s| !done.contains_key(s)).collect();
    let file = Mutex::new(
        std::fs::OpenOptions::new()
            .append(true)
            .open(checkpoint)
            .map_err(|e| format!("cannot append to checkpoint {}: {e}", checkpoint.display()))?,
    );
    let fresh = run_trials_chunked(
        pending.len(),
        1,
        |k| {
            let result = run_shard_with_workers(params, pending[k], workers);
            let line = shard_line(&result);
            let mut f = file.lock().expect("checkpoint file lock");
            // An append failure must not silently drop the shard from the
            // checkpoint — better to die loudly and resume later.
            f.write_all(line.as_bytes()).expect("checkpoint append");
            f.flush().expect("checkpoint flush");
            result
        },
        progress,
    );
    for r in fresh {
        done.insert(r.shard, r);
    }

    let mut report = CampaignReport {
        params: params.clone(),
        completed: done.len() as u64,
        resumed,
        cycles: 0,
        cycles_skipped: 0,
        accepted: 0,
        stalled: 0,
        responses: 0,
        queue_depth: Histogram::new(),
        storage_occupancy: Histogram::new(),
    };
    // BTreeMap iteration gives ascending shard order, so the merge order
    // is fixed regardless of which shards were resumed vs recomputed.
    for r in done.values() {
        report.cycles += r.cycles;
        report.cycles_skipped += r.cycles_skipped;
        report.accepted += r.accepted;
        report.stalled += r.stalled;
        report.responses += r.responses;
        report.queue_depth.merge(&r.queue_depth);
        report.storage_occupancy.merge(&r.storage_occupancy);
    }
    Ok(report)
}

// --- checkpoint serialization -------------------------------------------

fn header_line(params: &CampaignParams) -> String {
    format!(
        "{{\"campaign\":\"mts_uniform_reads\",\"version\":{CHECKPOINT_VERSION},\
         \"preset\":\"{}\",\"cycles\":{},\"shard_cycles\":{},\"seed\":{},\"channels\":{}}}\n",
        params.preset, params.cycles, params.shard_cycles, params.seed, params.channels
    )
}

fn hist_fields(prefix: &str, h: &Histogram) -> String {
    let buckets: Vec<String> = (0..64)
        .filter(|&i| h.bucket_count(i) > 0)
        .map(|i| format!("[{},{}]", i, h.bucket_count(i)))
        .collect();
    format!(
        "\"{prefix}_b\":[{}],\"{prefix}_sum\":{},\"{prefix}_min\":{},\"{prefix}_max\":{}",
        buckets.join(","),
        h.sum(),
        h.min().map_or("null".into(), |v| v.to_string()),
        h.max().map_or("null".into(), |v| v.to_string()),
    )
}

/// One shard as a single JSON checkpoint line (newline-terminated).
pub fn shard_line(r: &ShardResult) -> String {
    format!(
        "{{\"shard\":{},\"cycles\":{},\"skipped\":{},\"accepted\":{},\"stalled\":{},\
         \"responses\":{},\"first_stall\":{},{},{}}}\n",
        r.shard,
        r.cycles,
        r.cycles_skipped,
        r.accepted,
        r.stalled,
        r.responses,
        r.first_stall_at.map_or("null".into(), |v| v.to_string()),
        hist_fields("qh", &r.queue_depth),
        hist_fields("oh", &r.storage_occupancy),
    )
}

/// Locates the raw value following `"key":` in a flat JSON line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    Some(line[start..].trim_start())
}

fn parse_u64_field(line: &str, key: &str) -> Option<u64> {
    let rest = field(line, key)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn parse_opt_u64_field(line: &str, key: &str) -> Option<Option<u64>> {
    let rest = field(line, key)?;
    if rest.starts_with("null") {
        Some(None)
    } else {
        parse_u64_field(line, key).map(Some)
    }
}

fn parse_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = field(line, key)?.strip_prefix('"')?;
    rest.split('"').next()
}

/// Parses `[[i,c],[i,c],…]` (possibly `[]`) following `"key":`.
fn parse_pairs_field(line: &str, key: &str) -> Option<Vec<(usize, u64)>> {
    let rest = field(line, key)?.strip_prefix('[')?;
    // Matching close bracket of the outer array, by depth scan.
    let mut end = None;
    let mut depth = 1usize;
    for (i, c) in rest.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &rest[..end?];
    let mut out = Vec::new();
    for pair in body.split("],") {
        let pair = pair.trim_start_matches('[').trim_end_matches(']');
        if pair.is_empty() {
            continue;
        }
        let (i, c) = pair.split_once(',')?;
        out.push((i.trim().parse().ok()?, c.trim().parse().ok()?));
    }
    Some(out)
}

fn parse_hist(line: &str, prefix: &str) -> Option<Histogram> {
    let pairs = parse_pairs_field(line, &format!("{prefix}_b"))?;
    if pairs.iter().any(|&(i, _)| i >= 64) {
        return None;
    }
    let sum = parse_u64_field(line, &format!("{prefix}_sum"))?;
    let min = parse_opt_u64_field(line, &format!("{prefix}_min"))?;
    let max = parse_opt_u64_field(line, &format!("{prefix}_max"))?;
    Some(Histogram::from_parts(&pairs, sum, min, max))
}

/// Parses one shard checkpoint line; `None` for malformed/truncated lines.
pub fn parse_shard_line(line: &str) -> Option<ShardResult> {
    // A truncated line (killed mid-append) fails one of these lookups and
    // is treated as "shard not completed".
    if !line.trim_end().ends_with('}') {
        return None;
    }
    Some(ShardResult {
        shard: parse_u64_field(line, "shard")?,
        cycles: parse_u64_field(line, "cycles")?,
        cycles_skipped: parse_u64_field(line, "skipped")?,
        accepted: parse_u64_field(line, "accepted")?,
        stalled: parse_u64_field(line, "stalled")?,
        responses: parse_u64_field(line, "responses")?,
        first_stall_at: parse_opt_u64_field(line, "first_stall")?,
        queue_depth: parse_hist(line, "qh")?,
        storage_occupancy: parse_hist(line, "oh")?,
    })
}

/// Loads completed shards from `checkpoint`. A missing file yields an
/// empty map (fresh campaign); an existing file must carry a header that
/// matches `params` exactly. Malformed or truncated shard lines are
/// skipped — their shards simply rerun.
///
/// # Errors
///
/// Returns a message when the file exists but is unreadable, has no
/// parseable header, or records different campaign parameters.
pub fn load_checkpoint(
    checkpoint: &Path,
    params: &CampaignParams,
) -> Result<BTreeMap<u64, ShardResult>, String> {
    let text = match std::fs::read_to_string(checkpoint) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(format!("cannot read checkpoint {}: {e}", checkpoint.display())),
    };
    let mut lines = text.lines();
    let header = lines.next().ok_or("checkpoint file is empty")?;
    let version = parse_u64_field(header, "version").ok_or("checkpoint header is unparseable")?;
    if version != u64::from(CHECKPOINT_VERSION) {
        return Err(format!("checkpoint version {version} != {CHECKPOINT_VERSION}"));
    }
    let recorded = CampaignParams {
        preset: parse_str_field(header, "preset").ok_or("header missing preset")?.to_string(),
        cycles: parse_u64_field(header, "cycles").ok_or("header missing cycles")?,
        shard_cycles: parse_u64_field(header, "shard_cycles")
            .ok_or("header missing shard_cycles")?,
        seed: parse_u64_field(header, "seed").ok_or("header missing seed")?,
        channels: parse_u64_field(header, "channels").ok_or("header missing channels")? as u32,
    };
    if &recorded != params {
        return Err(format!(
            "checkpoint {} belongs to a different campaign ({recorded:?} != {params:?}); \
             delete it or match its parameters",
            checkpoint.display()
        ));
    }
    let shards = params.shards();
    let mut done = BTreeMap::new();
    for line in lines {
        if let Some(r) = parse_shard_line(line) {
            if r.shard < shards {
                done.insert(r.shard, r);
            }
        }
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_checkpoint(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("vpnm_campaign_{tag}_{}_{n}.jsonl", std::process::id()))
    }

    fn small_params() -> CampaignParams {
        CampaignParams {
            preset: "small_test".into(),
            cycles: 20_000,
            shard_cycles: 4_000,
            seed: 42,
            channels: 1,
        }
    }

    #[test]
    fn shards_are_deterministic() {
        let p = small_params();
        assert_eq!(run_shard(&p, 2), run_shard(&p, 2));
        assert_ne!(run_shard(&p, 2), run_shard(&p, 3), "shards must differ");
    }

    #[test]
    fn fabric_shards_are_deterministic_and_answer_everything() {
        let p = CampaignParams { channels: 4, cycles: 8_000, ..small_params() };
        let a = run_shard(&p, 1);
        assert_eq!(a, run_shard(&p, 1));
        assert_eq!(a.accepted, a.responses, "drained shards answer everything");
        assert_eq!(a.accepted + a.stalled, p.cycles_of_shard(1));
        assert_ne!(a, run_shard(&small_params(), 1), "channel count changes the run");

        // Bad channel geometry is caught at validation.
        let bad = CampaignParams { channels: 3, ..small_params() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn shard_line_round_trips_exactly() {
        let p = small_params();
        for shard in [0u64, 4] {
            let r = run_shard(&p, shard);
            let parsed = parse_shard_line(&shard_line(&r)).expect("own lines parse");
            assert_eq!(parsed, r, "bit-exact round trip incl. histograms");
        }
        // Empty-histogram sentinels survive the trip too.
        let empty = ShardResult {
            shard: 9,
            cycles: 0,
            cycles_skipped: 0,
            accepted: 0,
            stalled: 0,
            responses: 0,
            first_stall_at: None,
            queue_depth: Histogram::new(),
            storage_occupancy: Histogram::new(),
        };
        assert_eq!(parse_shard_line(&shard_line(&empty)), Some(empty));
    }

    #[test]
    fn campaign_merge_equals_single_threaded_run() {
        let p = small_params();
        let path = temp_checkpoint("merge");
        let report = run_campaign(&p, &path, 1, |_, _| {}).expect("campaign runs");
        assert_eq!(report.completed, p.shards());
        assert_eq!(report.resumed, 0);

        // Sequential reference: same shard decomposition, one thread, no
        // checkpoint involved.
        let mut cycles = 0u64;
        let mut stalled = 0u64;
        let mut accepted = 0u64;
        let mut qd = Histogram::new();
        let mut occ = Histogram::new();
        for s in 0..p.shards() {
            let r = run_shard(&p, s);
            cycles += r.cycles;
            stalled += r.stalled;
            accepted += r.accepted;
            qd.merge(&r.queue_depth);
            occ.merge(&r.storage_occupancy);
        }
        assert_eq!(report.cycles, cycles);
        assert_eq!(report.stalled, stalled);
        assert_eq!(report.accepted, accepted);
        assert_eq!(report.queue_depth, qd, "merged histograms must be identical");
        assert_eq!(report.storage_occupancy, occ);
        assert_eq!(report.responses, report.accepted, "drained shards answer everything");
        // small_test under full-rate uniform load does stall, so the MTS
        // estimate is finite here.
        assert!(report.mts_estimate().is_some());
        assert!(!report.render().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn killed_campaign_resumes_from_checkpoint() {
        let p = small_params();
        let path = temp_checkpoint("resume");
        let full = run_campaign(&p, &path, 1, |_, _| {}).expect("first run");

        // Simulate a mid-run kill: drop the last two completed shard
        // lines and leave a truncated partial line behind.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.truncate(lines.len() - 2);
        let mut truncated = lines.join("\n");
        truncated.push_str("\n{\"shard\":4,\"cycles\":123,\"acce");
        std::fs::write(&path, truncated).unwrap();

        let recomputed = Mutex::new(0usize);
        let resumed = run_campaign(&p, &path, 1, |_, _| {
            *recomputed.lock().unwrap() += 1;
        })
        .expect("resume run");
        assert_eq!(
            resumed.resumed,
            p.shards() - 2,
            "three lines were lost/truncated… minus header"
        );
        assert_eq!(*recomputed.lock().unwrap(), 2, "only the missing shards rerun");
        // The resumed report is identical to the uninterrupted one.
        let mut full_cmp = full.clone();
        full_cmp.resumed = resumed.resumed;
        assert_eq!(resumed, full_cmp);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fabric_shards_are_worker_count_invariant() {
        let p = CampaignParams { channels: 4, cycles: 8_000, ..small_params() };
        let base = run_shard_with_workers(&p, 0, 1);
        for workers in [2, 4, 8] {
            assert_eq!(
                run_shard_with_workers(&p, 0, workers),
                base,
                "{workers} workers must be byte-identical to sequential"
            );
        }
        // Single-channel shards ignore the worker count entirely.
        assert_eq!(run_shard_with_workers(&small_params(), 0, 8), run_shard(&small_params(), 0));
    }

    #[test]
    fn checkpoints_resume_across_worker_counts() {
        // A campaign checkpointed sequentially resumes under a parallel
        // worker count (and the reverse) with an identical merged report:
        // the worker count is not part of the checkpoint grammar.
        let p = CampaignParams { channels: 4, cycles: 12_000, ..small_params() };
        for (first, second) in [(1usize, 4usize), (4, 1)] {
            let path = temp_checkpoint("xworkers");
            let full = run_campaign(&p, &path, first, |_, _| {}).expect("first run");

            // Drop the last completed shard line to force a partial resume.
            let text = std::fs::read_to_string(&path).unwrap();
            let mut lines: Vec<&str> = text.lines().collect();
            lines.truncate(lines.len() - 1);
            std::fs::write(&path, lines.join("\n") + "\n").unwrap();

            let resumed =
                run_campaign(&p, &path, second, |_, _| {}).expect("resume under other workers");
            assert_eq!(resumed.resumed, p.shards() - 1);
            let mut full_cmp = full.clone();
            full_cmp.resumed = resumed.resumed;
            assert_eq!(resumed, full_cmp, "workers {first} -> {second} must not diverge");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn mismatched_checkpoint_is_refused() {
        let p = small_params();
        let path = temp_checkpoint("mismatch");
        run_campaign(&p, &path, 1, |_, _| {}).expect("first run");
        let mut other = p.clone();
        other.seed = 43;
        let err = run_campaign(&other, &path, 1, |_, _| {}).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = small_params();
        p.preset = "nope".into();
        assert!(p.validate().is_err());
        p = small_params();
        p.cycles = 0;
        assert!(p.validate().is_err());
        p = small_params();
        p.shard_cycles = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn shard_cycle_split_covers_horizon() {
        let p = CampaignParams {
            preset: "small_test".into(),
            cycles: 10_500,
            shard_cycles: 4_000,
            seed: 1,
            channels: 1,
        };
        assert_eq!(p.shards(), 3);
        assert_eq!(p.cycles_of_shard(0), 4_000);
        assert_eq!(p.cycles_of_shard(2), 2_500);
    }
}
