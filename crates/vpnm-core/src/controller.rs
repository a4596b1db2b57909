//! The top-level VPNM memory controller (paper Figure 2): universal hash
//! unit → per-bank controllers → round-robin bus scheduler → DRAM.
//!
//! # Performance engineering
//!
//! This is the hot path of every experiment in the workspace, so the
//! implementation avoids any per-cycle work proportional to the bank count
//! `B` or allocation proportional to traffic. The algorithm is *exactly*
//! the original one — [`ReferenceController`](crate::ReferenceController)
//! keeps the O(B)-per-cycle formulation alive as a differential oracle —
//! but the bookkeeping is incremental:
//!
//! * **Ready-bank index** ([`ReadySet`]): one bit per bank, set exactly
//!   when the bank's access queue is non-empty. Grant picking iterates set
//!   bits in rotated round-robin order instead of scanning all `B` banks
//!   every memory cycle.
//! * **Idle fast-forward**: when the ready set is empty every bus grant is
//!   a no-op, so the memory-clock loop is skipped entirely via
//!   [`DualClock::advance_to_interface`] (`rr_next` still rotates by the
//!   skipped cycle count, keeping grant order bit-identical).
//! * **Shared delay wheel**: because at most one request enters the
//!   controller per interface cycle, at most one playback falls due per
//!   cycle, so one ring of `(bank, row)` slots replaces `B` per-bank
//!   delay lines all spinning in lockstep.
//! * **Incremental occupancy sampling**: the per-cycle metrics (max queue
//!   depth, total storage occupancy) are maintained with a bank-depth
//!   histogram and a live-row counter, updated only at the few points a
//!   depth can change, instead of O(B) scans per interface cycle.
//! * **Zero-allocation data path**: payloads are [`bytes::Bytes`] —
//!   refcounted views handed from DRAM storage through delay storage to
//!   [`Response`] without copying; deadline misses reuse one cached zero
//!   cell.
//!
//! Debug builds re-derive all incremental state from first principles
//! every tick (`debug_assert`s), so the whole test suite doubles as an
//! equivalence check.

use crate::bank_controller::{Accepted, BankController, BankEvent};
use crate::config::{SchedulerKind, VpnmConfig};
use crate::delay_storage::RowId;
use crate::forensics::{ForensicKind, ForensicRing};
use crate::hash_engine::HashEngine;
use crate::metrics::ControllerMetrics;
use crate::ready_set::ReadySet;
use crate::request::{LineAddr, Request, Response, StallKind, TenantId, TickOutput};
use crate::snapshot::MetricsSnapshot;
use bytes::Bytes;
use vpnm_dram::{DramConfig, DramDevice, DramStats};
use vpnm_hash::BankHasher;
use vpnm_sim::trace::TraceKind;
use vpnm_sim::{Cycle, DualClock, TraceRecorder};

/// Minimum interface cycles a busy-horizon skip must cover to be worth
/// taking: the horizon computation (ready-bank rotor scan, due-playback
/// distance, two exact clock divisions, bulk occupancy sampling) costs
/// about as much as stepping one or two idle cycles, so proving a
/// 1–3-cycle span skippable is a net loss. Tuned on the full-rate
/// 8-channel fabric workload, where grant events land every couple of
/// memory ticks and every candidate skip is short.
const SKIP_BUSY_MIN: u64 = 4;

/// How many idle cycles [`VpnmController`] waits before re-attempting a
/// busy-horizon skip after an unprofitable one (dense-event regimes pay
/// one decrement per idle cycle instead of one horizon scan).
const SKIP_BUSY_BACKOFF: u32 = 63;

/// Summary of a batch drive call ([`PipelinedMemory::run_epoch`],
/// `run_epoch_sparse` or `issue_batch`).
///
/// [`PipelinedMemory::run_epoch`]: crate::PipelinedMemory::run_epoch
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Every response that became due during the run, in order.
    pub responses: Vec<Response>,
    /// Requests accepted (including merged reads).
    pub accepted: u64,
    /// Requests that stalled on a full buffer (retryable).
    pub stalled: u64,
    /// Malformed requests rejected outright (not retryable; see
    /// [`StallKind::is_rejection`]).
    pub rejected: u64,
}

/// Run-length accumulator for the two per-cycle occupancy samples
/// ([`ControllerMetrics::sample_cycle`]'s inputs). At steady state
/// consecutive cycles sample identical values — a full-rate read stream
/// allocates and frees one storage row per cycle, holding `storage_live`
/// flat — so the batch drive loops count the run and flush it through
/// [`ControllerMetrics::sample_cycles`] in O(1) instead of updating two
/// histograms every cycle. Histogram updates commute, so the deferred
/// flush leaves the final metrics byte-identical to per-cycle recording,
/// even interleaved with the skip paths' own bulk samples.
#[derive(Default)]
struct SampleRun {
    depth: u64,
    live: u64,
    n: u64,
}

impl SampleRun {
    #[inline]
    fn push(&mut self, metrics: &mut ControllerMetrics, depth: u64, live: u64) {
        if self.n != 0 && depth == self.depth && live == self.live {
            self.n += 1;
        } else {
            self.flush(metrics);
            self.depth = depth;
            self.live = live;
            self.n = 1;
        }
    }

    #[inline]
    fn flush(&mut self, metrics: &mut ControllerMetrics) {
        if self.n != 0 {
            metrics.sample_cycles(self.depth, self.live, self.n);
            self.n = 0;
        }
    }
}

/// Index of the first set bit in `bits` at a position in `from..to`, if
/// any — the word-at-a-time scan behind the delay ring's next-due search.
fn first_set_bit(bits: &[u64], from: usize, to: usize) -> Option<usize> {
    if from >= to {
        return None;
    }
    let last_w = (to - 1) / 64;
    let mut w = from / 64;
    let mut word = bits[w] & (!0u64 << (from % 64));
    loop {
        if word != 0 {
            let p = w * 64 + word.trailing_zeros() as usize;
            return (p < to).then_some(p);
        }
        if w == last_w {
            return None;
        }
        w += 1;
        word = bits[w];
    }
}

/// The virtually pipelined memory controller.
///
/// Presents banked DRAM as a flat pipeline: every accepted read is answered
/// after exactly `D` interface cycles regardless of the access pattern.
/// Drive it one interface cycle at a time with [`VpnmController::tick`], or
/// in batches through the [`PipelinedMemory`](crate::PipelinedMemory)
/// batch methods.
///
/// ```
/// use vpnm_core::{Request, LineAddr, VpnmConfig, VpnmController};
///
/// let mut mem = VpnmController::new(VpnmConfig::small_test(), 42).unwrap();
/// let d = mem.delay();
///
/// // Write, then read the same cell.
/// mem.tick(Some(Request::write(LineAddr(7), vec![1, 2, 3])));
/// mem.tick(Some(Request::read(LineAddr(7))));
/// // The response arrives exactly D cycles after the read was accepted.
/// let mut response = None;
/// for _ in 0..d {
///     if let Some(r) = mem.tick(None).response {
///         response = Some(r);
///     }
/// }
/// let r = response.expect("due within D cycles");
/// assert_eq!(&r.data[..3], &[1, 2, 3]);
/// assert_eq!(r.latency(), d);
/// ```
#[derive(Debug)]
pub struct VpnmController {
    config: VpnmConfig,
    delay: u64,
    hash: HashEngine,
    clock: DualClock,
    dram: DramDevice,
    banks: Vec<BankController>,
    rr_next: u32,
    metrics: ControllerMetrics,
    outstanding: usize,
    trace: TraceRecorder,
    next_request_id: u64,
    /// Banks with a non-empty access queue (the only banks a bus grant
    /// can do anything for).
    ready: ReadySet,
    /// Struct-of-arrays mirror of each bank's `in_service_until`, as a
    /// dense `u64` lane (`0` = idle; a real completion cycle is always
    /// positive, since DRAM latencies are at least one memory cycle).
    /// The grant picker and the busy-horizon skip scan scheduling state
    /// for many banks per decision; reading a packed lane touches one
    /// cache line per eight banks instead of one [`BankController`]
    /// (queue + CAM + write buffer) per bank.
    bank_busy_until: Vec<u64>,
    /// Struct-of-arrays mirror of each bank's access-queue depth — the
    /// other half of the scheduling state, packed for the same linear
    /// scans.
    bank_queue_depth: Vec<u32>,
    /// Cached `max(bank_queue_depth)` (see [`VpnmController::max_queue_depth`]).
    max_depth_lane: u32,
    /// The shared playback wheel: slot `ring_pos` holds the `(bank, row,
    /// tenant)` scheduled `D` interface cycles ago, falling due this
    /// cycle. Carrying the tenant in the wheel slot is what lets the
    /// response echo the issuing tenant without threading tenancy through
    /// any bank structure.
    ring: Vec<Option<(u32, RowId, TenantId)>>,
    ring_pos: usize,
    /// Occupancy bitset over `ring` (bit `i` set ⇔ `ring[i].is_some()`),
    /// letting the event-horizon skip find the next due playback by
    /// scanning words instead of walking `Option` slots one by one.
    ring_occ: Vec<u64>,
    /// Total live delay-storage rows across banks.
    storage_live: u64,
    /// Interface cycles covered by event-horizon skips in
    /// the batch drive loop (drive-mode accounting; not part of
    /// [`ControllerMetrics`] so metrics equality across engines and drive
    /// modes is unaffected).
    cycles_skipped: u64,
    /// Idle cycles left before the next busy-horizon skip attempt (see
    /// [`SKIP_BUSY_MIN`]): when grant events are so dense that a skip
    /// cannot pay for its own horizon computation, attempts pause for
    /// [`SKIP_BUSY_BACKOFF`] idle cycles at a time. Pure drive-mode
    /// pacing state — it never affects simulation semantics, only which
    /// cycles are stepped versus proven skippable.
    skip_backoff: u32,
    /// Cached zero cell served on deadline misses.
    zero_cell: Bytes,
    /// Forensic event ring (see [`crate::forensics`]); inert unless
    /// [`VpnmConfig::forensics_capacity`] is non-zero and the `forensics`
    /// feature is compiled in.
    forensics: ForensicRing,
}

impl VpnmController {
    /// Builds a controller from `config`, keying the universal hash from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns the validation failure message for an inconsistent config.
    pub fn new(config: VpnmConfig, seed: u64) -> Result<Self, String> {
        config.validate()?;
        let delay = config.effective_delay();
        let hash = HashEngine::from_seed(config.hash, config.addr_bits, config.bank_bits(), seed);
        let cells_per_row = 64u64;
        let total_cells = 1u64 << config.addr_bits;
        let dram_config = DramConfig {
            num_banks: config.banks,
            rows_per_bank: total_cells.div_ceil(cells_per_row),
            cells_per_row,
            cell_bytes: config.cell_bytes,
            timing: vpnm_dram::timing::TimingModel::simple(config.bank_latency),
        };
        let dram = DramDevice::new(dram_config);
        let wb = config.write_buffer_capacity();
        let banks = (0..config.banks)
            .map(|b| {
                BankController::new(b, config.storage_rows, config.queue_entries, wb)
                    .with_merging(config.merging)
            })
            .collect();
        let trace = if config.trace_capacity > 0 {
            TraceRecorder::with_capacity(config.trace_capacity)
        } else {
            TraceRecorder::disabled()
        };
        Ok(VpnmController {
            clock: DualClock::new(config.bus_ratio),
            delay,
            hash,
            dram,
            banks,
            rr_next: 0,
            metrics: ControllerMetrics::with_banks(config.banks as usize),
            outstanding: 0,
            trace,
            next_request_id: 0,
            ready: ReadySet::new(config.banks),
            bank_busy_until: vec![0; config.banks as usize],
            bank_queue_depth: vec![0; config.banks as usize],
            max_depth_lane: 0,
            ring: vec![None; delay as usize],
            ring_pos: 0,
            ring_occ: vec![0u64; (delay as usize).div_ceil(64)],
            storage_live: 0,
            cycles_skipped: 0,
            skip_backoff: 0,
            zero_cell: Bytes::from(vec![0u8; config.cell_bytes]),
            forensics: ForensicRing::new(config.forensics_capacity),
            config,
        })
    }

    /// The deterministic latency `D` in interface cycles.
    pub fn delay(&self) -> u64 {
        self.delay
    }

    /// The configuration this controller was built from.
    pub fn config(&self) -> &VpnmConfig {
        &self.config
    }

    /// The current interface cycle (number of completed [`VpnmController::tick`] calls).
    pub fn now(&self) -> Cycle {
        self.clock.interface_now()
    }

    /// Accumulated controller metrics.
    pub fn metrics(&self) -> &ControllerMetrics {
        &self.metrics
    }

    /// Statistics of the underlying DRAM device.
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Reads still in flight (accepted but not yet answered).
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// The keyed hash engine (exposed for adversary experiments that model
    /// an attacker with full knowledge of the mapping).
    pub fn hash(&self) -> &HashEngine {
        &self.hash
    }

    /// The bank `addr` maps to under the keyed universal hash (the
    /// fabric's per-bank regulator keys its buckets off this).
    pub fn bank_of(&self, addr: LineAddr) -> u32 {
        self.hash.bank_of(addr.0)
    }

    /// The lifecycle trace, when enabled via
    /// [`VpnmConfig::trace_capacity`].
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// The forensic event ring, when enabled via
    /// [`VpnmConfig::forensics_capacity`] (and the `forensics` feature).
    pub fn forensics(&self) -> &ForensicRing {
        &self.forensics
    }

    /// Interface cycles covered by event-horizon skips rather than
    /// individual ticks by the batch drive loop.
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    /// Freezes the current aggregate metrics into a serializable
    /// [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::capture(
            &self.config,
            self.delay,
            self.now(),
            self.cycles_skipped,
            &self.metrics,
        )
    }

    /// Advances exactly one interface cycle, optionally presenting one
    /// request, and reports the response due this cycle plus any stall.
    ///
    /// Malformed requests (address outside `addr_bits`, write data larger
    /// than the cell size) are rejected gracefully: the output carries
    /// [`StallKind::AddressRange`] / [`StallKind::OversizedWrite`], the
    /// rejection is counted in
    /// [`ControllerMetrics::malformed_rejections`], and the controller
    /// keeps running. Debug builds additionally `debug_assert!` so tests
    /// catch the caller bug at its source.
    pub fn tick(&mut self, request: Option<Request>) -> TickOutput {
        // The bank hash is total over u64 (always in range), so it can be
        // computed up front; `step` only consults it after validation.
        let bank = match &request {
            Some(req) => self.hash.bank_of(req.addr().0) as usize,
            None => 0,
        };
        let mut response = None;
        let stall = self.step(request, bank, &mut |r| response = Some(r));
        let depth = self.max_queue_depth();
        self.metrics.sample_cycle(depth, self.storage_live);
        TickOutput { response, stall }
    }

    /// One interface cycle with the bank mapping already computed —
    /// [`VpnmController::tick`] with the hash hoisted out so
    /// the batch drive loop can amortize hashing over a whole
    /// batch. `bank` is only read for a `Some` request that passes
    /// validation. Inlined into each drive loop so the request stays in
    /// registers instead of crossing a call boundary every simulated
    /// cycle, and a due response is handed to `emit` in place rather
    /// than moved out through a return value.
    #[inline]
    fn step(
        &mut self,
        request: Option<Request>,
        bank: usize,
        emit: &mut impl FnMut(Response),
    ) -> Option<StallKind> {
        // --- memory-clock domain: run memory cycles (with one bus grant
        // each) until the next interface edge falls. When no bank has
        // queued work a grant cannot do anything (an in-service access
        // keeps its queue slot, so empty queues imply idle banks), and the
        // whole remaining window is skipped in one step.
        loop {
            if self.ready.is_empty() {
                let skipped = self.clock.advance_to_interface();
                self.rr_next =
                    ((u64::from(self.rr_next) + skipped) & u64::from(self.config.banks - 1)) as u32;
                break;
            }
            let mt = self.clock.tick_memory();
            if let Some(bank) = self.pick_grant(mt.memory_cycle) {
                // A grant to a bank whose in-service access has not yet
                // completed is a guaranteed no-op (`on_bus_grant` bails
                // before touching anything) — the packed busy lane answers
                // that from one hot cache line, so the wasted slot never
                // dereferences the BankController at all.
                let busy = self.bank_busy_until[bank];
                if busy != 0 && mt.memory_cycle.as_u64() < busy {
                    if mt.interface_tick {
                        break;
                    }
                    continue;
                }
                let g = self.banks[bank].on_bus_grant(&mut self.dram, mt.memory_cycle);
                // A grant can issue without retiring (busy-until changes,
                // depth does not), so the busy lane resyncs on every
                // grant; the depth lane only when a retire freed a slot
                // (the one queue movement a grant can cause).
                self.bank_busy_until[bank] = g.busy_until;
                if g.retired {
                    let after = g.depth as usize;
                    self.bank_queue_depth[bank] = g.depth;
                    if g.depth + 1 == self.max_depth_lane {
                        self.rescan_max_depth();
                    }
                    if after == 0 {
                        self.ready.remove(bank as u32);
                    }
                    if self.forensics.is_enabled() {
                        self.forensics.record(
                            self.clock.interface_now(),
                            bank as u32,
                            ForensicKind::QueueExit { queue_depth: g.depth },
                        );
                    }
                }
            }
            if mt.interface_tick {
                break;
            }
        }
        let now = self.clock.interface_now();

        // --- interface-clock domain: accept at most one request …
        let mut stall = None;
        let mut read_row: Option<(u32, RowId, TenantId)> = None;
        // Bank that allocated a storage row this tick, for end-of-tick
        // high-water-mark sampling (occupancy can only set a new maximum
        // on a tick that allocated).
        let mut alloc_bank: Option<usize> = None;
        if let Some(req) = request {
            let id = self.next_request_id;
            self.next_request_id += 1;
            if let Some(kind) = self.validate(&req) {
                stall = Some(kind);
                self.metrics.record_stall(kind, now);
                self.trace.record(now, id, TraceKind::Stalled);
            } else {
                let addr = req.addr();
                let tenant = req.tenant();
                let event = match req {
                    Request::Read { addr, .. } => BankEvent::Read { addr },
                    Request::Write { addr, data, .. } => BankEvent::Write { addr, data },
                };
                match self.banks[bank].submit(event) {
                    Ok(Accepted::ReadQueued(row)) => {
                        self.metrics.reads_accepted += 1;
                        self.outstanding += 1;
                        self.metrics.note_outstanding(self.outstanding as u64);
                        read_row = Some((bank as u32, row, tenant));
                        self.trace.record(now, id, TraceKind::Accepted);
                        self.storage_live += 1;
                        alloc_bank = Some(bank);
                        let after = self.banks[bank].queue_depth();
                        self.bank_queue_depth[bank] = after as u32;
                        self.max_depth_lane = self.max_depth_lane.max(after as u32);
                        self.metrics.note_bank_queue_depth(bank, after as u32);
                        // `after > 1` means the bank was already queued
                        // (and so already in the ready set).
                        if after == 1 {
                            self.ready.insert(bank as u32);
                        }
                        if self.forensics.is_enabled() {
                            self.forensics.record(
                                now,
                                bank as u32,
                                ForensicKind::Accepted { addr, row, queue_depth: after as u32 },
                            );
                        }
                    }
                    Ok(Accepted::ReadMerged(row)) => {
                        self.metrics.reads_accepted += 1;
                        self.metrics.reads_merged += 1;
                        self.outstanding += 1;
                        self.metrics.note_outstanding(self.outstanding as u64);
                        read_row = Some((bank as u32, row, tenant));
                        self.trace.record(now, id, TraceKind::Merged);
                        self.forensics.record(now, bank as u32, ForensicKind::Merged { addr, row });
                    }
                    Ok(Accepted::WriteBuffered) => {
                        self.metrics.writes_accepted += 1;
                        self.trace.record(now, id, TraceKind::Accepted);
                        let after = self.banks[bank].queue_depth();
                        self.bank_queue_depth[bank] = after as u32;
                        self.max_depth_lane = self.max_depth_lane.max(after as u32);
                        self.metrics.note_bank_queue_depth(bank, after as u32);
                        self.metrics.note_bank_write_depth(
                            bank,
                            self.banks[bank].write_buffer_depth() as u32,
                        );
                        if after == 1 {
                            self.ready.insert(bank as u32);
                        }
                        if self.forensics.is_enabled() {
                            self.forensics.record(
                                now,
                                bank as u32,
                                ForensicKind::WriteAccepted { addr, queue_depth: after as u32 },
                            );
                        }
                    }
                    Err(kind) => {
                        stall = Some(kind);
                        self.metrics.record_stall(kind, now);
                        self.trace.record(now, id, TraceKind::Stalled);
                        if self.forensics.is_enabled() {
                            let bc = &self.banks[bank];
                            let context = ForensicKind::Stalled {
                                kind,
                                addr,
                                storage_live: bc.storage_occupancy() as u32,
                                queue_depth: bc.queue_depth() as u32,
                                write_depth: bc.write_buffer_depth() as u32,
                            };
                            self.forensics.record(now, bank as u32, context);
                        }
                    }
                }
            }
        }

        // … and advance the shared playback wheel. At most one request
        // enters per interface cycle, so at most one playback falls due.
        let due = {
            let slot = &mut self.ring[self.ring_pos];
            let due = slot.take();
            *slot = read_row;
            // The occupancy bit already equals `due.is_some()`, so at full
            // rate (due read out, new read in) the bitmap needs no write.
            if due.is_some() != read_row.is_some() {
                let bit = 1u64 << (self.ring_pos % 64);
                let word = &mut self.ring_occ[self.ring_pos / 64];
                if read_row.is_some() {
                    *word |= bit;
                } else {
                    *word &= !bit;
                }
            }
            // Branch instead of `%`: the ring length is not a power of
            // two, and this wrap runs every interface cycle.
            let next = self.ring_pos + 1;
            self.ring_pos = if next == self.ring.len() { 0 } else { next };
            due
        };
        // The playback wheel knows every future deadline, so the row
        // falling due a few cycles from now can start its cache-line fill
        // today — by its deadline the row was last touched a whole bank
        // access ago and has long left the cache. (Ring slots themselves
        // stay resident: the wheel is walked sequentially every cycle.)
        const PLAYBACK_LEAD: usize = 8;
        if self.ring.len() > PLAYBACK_LEAD {
            let mut i = self.ring_pos + PLAYBACK_LEAD;
            if i >= self.ring.len() {
                i -= self.ring.len();
            }
            if let Some((bank, row, _)) = self.ring[i] {
                self.banks[bank as usize].prefetch_row(row);
            }
        }
        if let Some((bank, row, tenant)) = due {
            let bc = &mut self.banks[bank as usize];
            let live_before = bc.storage_occupancy();
            let pb = bc.playback(row);
            self.storage_live -= (live_before - bc.storage_occupancy()) as u64;
            let miss = pb.data.is_none();
            let data = match pb.data {
                Some(d) => d,
                None => {
                    self.metrics.deadline_misses += 1;
                    self.zero_cell.clone()
                }
            };
            self.outstanding -= 1;
            self.metrics.responses += 1;
            if self.forensics.is_enabled() {
                self.forensics.record(
                    now,
                    bank,
                    ForensicKind::Returned { addr: pb.addr, row, miss },
                );
            }
            emit(Response {
                addr: pb.addr,
                data,
                issued_at: Cycle::new(now.as_u64() - self.delay),
                completed_at: now,
                tenant,
            });
        }

        // occupancy sampling for the occupancy distributions — O(1) from
        // the incrementally maintained histogram and live-row counter.
        // The per-bank storage high-water mark is sampled at the tick
        // boundary (matching the reference engine's end-of-tick scan) and
        // only for the bank that allocated a row this tick — the only
        // bank whose boundary occupancy can have risen.
        if let Some(bank) = alloc_bank {
            self.metrics.note_bank_storage(bank, self.banks[bank].storage_occupancy() as u32);
        }
        // NOTE: the per-cycle occupancy sample (`sample_cycle`) is the
        // caller's duty — `tick` records it immediately, the batch drive
        // loops run-length-batch it (see `SampleRun`). Histogram updates
        // commute, so the final metrics are identical either way.

        #[cfg(debug_assertions)]
        self.check_incremental_invariants();

        stall
    }

    /// Checks a request against the configured address space and cell
    /// size. Returns the rejection kind for malformed requests.
    fn validate(&self, req: &Request) -> Option<StallKind> {
        let addr = req.addr();
        debug_assert!(
            addr.0 < (1u64 << self.config.addr_bits),
            "address {addr} outside the configured {}-bit space",
            self.config.addr_bits
        );
        if addr.0 >= (1u64 << self.config.addr_bits) {
            return Some(StallKind::AddressRange);
        }
        if let Request::Write { data, .. } = req {
            debug_assert!(
                data.len() <= self.config.cell_bytes,
                "write of {} bytes exceeds cell size {}",
                data.len(),
                self.config.cell_bytes
            );
            if data.len() > self.config.cell_bytes {
                return Some(StallKind::OversizedWrite);
            }
        }
        None
    }

    /// Current maximum bank queue depth. Cached: accepts can only raise
    /// it (one compare), and a retire can only lower it when the retiring
    /// bank sat at the cached maximum — only that case rescans the packed
    /// depth lane (a handful of vector instructions at paper bank counts).
    #[inline]
    fn max_queue_depth(&self) -> u64 {
        u64::from(self.max_depth_lane)
    }

    /// Rescans the depth lane after a retire dethroned the cached max.
    #[inline]
    fn rescan_max_depth(&mut self) {
        self.max_depth_lane = self.bank_queue_depth.iter().copied().max().unwrap_or(0);
    }

    /// Selects this memory cycle's bus grant per the configured policy.
    ///
    /// Semantically identical to granting the round-robin owner (or, for
    /// the work-conserving policy, the deepest ready queue when the owner
    /// would waste the slot) — but `None` short-circuits grants the
    /// original formulation issued to banks with empty queues, where
    /// `on_bus_grant` is a guaranteed no-op.
    #[inline]
    fn pick_grant(&mut self, now_mem: Cycle) -> Option<usize> {
        let rr = self.rr_next;
        // `banks` is validated to be a power of two, so the round-robin
        // wrap is a mask — this runs every memory cycle, where a `div`
        // would be the single most expensive instruction in the loop.
        self.rr_next = (self.rr_next + 1) & (self.config.banks - 1);
        match self.config.scheduler {
            SchedulerKind::RoundRobin => self.ready.contains(rr).then_some(rr as usize),
            SchedulerKind::WorkConserving => {
                // The round-robin owner keeps its slot whenever it has
                // useful work (preserving the per-bank service guarantee
                // that `recommended_delay` relies on); a slot the owner
                // would waste is reclaimed by the deepest ready queue —
                // the "idle slots … can be eliminated" optimization of
                // paper Section 4. Ties break to the last candidate in
                // rotated order, matching `Iterator::max_by_key` over the
                // original scan. The candidate filter reads the packed
                // busy/depth lanes — one cache line per eight banks —
                // instead of dereferencing every ready `BankController`.
                let now = now_mem.as_u64();
                if self.lane_wants_grant(rr as usize, now) {
                    return Some(rr as usize);
                }
                let mut best: Option<(usize, u32)> = None;
                for bank in self.ready.iter_from(rr) {
                    let bank = bank as usize;
                    if !self.lane_wants_grant(bank, now) {
                        continue;
                    }
                    let depth = self.bank_queue_depth[bank];
                    match best {
                        Some((_, best_depth)) if depth < best_depth => {}
                        _ => best = Some((bank, depth)),
                    }
                }
                // The fallback grant to the owner still matters when the
                // owner's in-service access completed and can retire.
                best.map(|(bank, _)| bank)
                    .or_else(|| self.ready.contains(rr).then_some(rr as usize))
            }
        }
    }

    /// [`BankController::wants_grant`] evaluated from the packed
    /// scheduling lanes: the bank holds queued work and either sits idle
    /// or has a completed in-service access plus a successor to issue.
    /// Must stay bit-equivalent to the bank's own answer — the invariant
    /// checker and the grant property tests pin the two together.
    #[inline]
    fn lane_wants_grant(&self, bank: usize, now_mem: u64) -> bool {
        let depth = self.bank_queue_depth[bank];
        if depth == 0 {
            return false;
        }
        let busy = self.bank_busy_until[bank];
        busy == 0 || (now_mem >= busy && depth > 1)
    }

    /// Rebuilds the scheduling lanes from the per-bank ground truth.
    /// Only the tests need this: they hand-build bank states by calling
    /// [`BankController::submit`] directly, bypassing the accept path
    /// that normally keeps the lanes current.
    #[cfg(test)]
    fn resync_lanes(&mut self) {
        for (i, bc) in self.banks.iter().enumerate() {
            self.bank_queue_depth[i] = bc.queue_depth() as u32;
            self.bank_busy_until[i] = bc.in_service_until().map_or(0, |u| u.as_u64());
        }
        self.rescan_max_depth();
    }

    /// Re-derives the incremental indices from first principles — compiled
    /// only into debug builds, where every test doubles as an equivalence
    /// check between the O(1) bookkeeping and the O(B) ground truth.
    #[cfg(debug_assertions)]
    fn check_incremental_invariants(&self) {
        let max = self.banks.iter().map(BankController::queue_depth).max().unwrap_or(0);
        debug_assert_eq!(max as u64, self.max_queue_depth(), "depth lane out of sync");
        let live: usize = self.banks.iter().map(BankController::storage_occupancy).sum();
        debug_assert_eq!(live as u64, self.storage_live, "live-row counter out of sync");
        for (i, bc) in self.banks.iter().enumerate() {
            debug_assert_eq!(
                self.ready.contains(i as u32),
                bc.queue_depth() > 0,
                "ready bit out of sync for bank {i}"
            );
            debug_assert_eq!(
                self.bank_queue_depth[i] as usize,
                bc.queue_depth(),
                "queue-depth lane out of sync for bank {i}"
            );
            debug_assert_eq!(
                self.bank_busy_until[i],
                bc.in_service_until().map_or(0, |u| u.as_u64()),
                "busy-until lane out of sync for bank {i}"
            );
        }
        for (i, slot) in self.ring.iter().enumerate() {
            debug_assert_eq!(
                self.ring_occ[i / 64] >> (i % 64) & 1 == 1,
                slot.is_some(),
                "ring occupancy bit out of sync at slot {i}"
            );
        }
    }

    /// The one batch drive loop behind every [`PipelinedMemory`] batch
    /// method (`run_epoch`, `run_epoch_sparse`, `issue_batch`): advances
    /// `len` interface cycles, presenting each lane item's request on
    /// cycle `offset` (offsets strictly increasing, `< len`); every other
    /// cycle is idle. Responses, acceptance counts, clock, and metrics are
    /// exactly those of the equivalent [`VpnmController::tick`] sequence
    /// (the differential proptest pins this against
    /// [`crate::ReferenceController`]); only the `cycles_skipped`
    /// drive-mode counter differs. Generic over the lane so each adapter
    /// gets its own monomorphised copy. Two costs of the per-tick path are
    /// amortized:
    ///
    /// * **Batched hashing**: bank mappings are computed in cache-sized
    ///   chunks through [`HashEngine::hash_batch`] (SIMD where
    ///   available). The hash is total over u64, so malformed addresses
    ///   hash harmlessly — `step` validates before reading the bank.
    /// * **Event-horizon skipping**: the gaps between lane items are known
    ///   from the offsets, so [`VpnmController::idle_until`] jumps the
    ///   clock straight to the next observable event instead of stepping
    ///   each idle cycle. A dense lane pays one offset compare per request
    ///   and never enters the skip code.
    ///
    /// [`PipelinedMemory`]: crate::PipelinedMemory
    pub(crate) fn drive<'r, L>(&mut self, len: u64, lane: L) -> RunReport
    where
        L: Iterator<Item = (u64, &'r Request)> + Clone,
    {
        const CHUNK: usize = 1024;
        debug_assert!(
            {
                let mut prev = None;
                lane.clone().all(|(o, _)| {
                    let ok = o < len && prev.is_none_or(|p| p < o);
                    prev = Some(o);
                    ok
                })
            },
            "offsets must be strictly increasing and < len"
        );
        let mut report = RunReport::default();
        report.responses.reserve(lane.size_hint().0);
        let mut samples = SampleRun::default();
        let mut addrs = [0u64; CHUNK];
        let mut banks = [0u32; CHUNK];
        let mut lane = lane;
        let mut i = 0u64;
        loop {
            let mut n = 0;
            for ((_, req), a) in lane.clone().zip(addrs.iter_mut()) {
                *a = req.addr().0;
                n += 1;
            }
            if n == 0 {
                break;
            }
            self.hash.hash_batch(&addrs[..n], &mut banks[..n]);
            for ((offset, req), &bank) in lane.by_ref().take(n).zip(&banks[..n]) {
                if i < offset {
                    self.idle_until(i, offset, &mut samples, &mut report.responses);
                    i = offset;
                }
                let stall =
                    self.step(Some(req.clone()), bank as usize, &mut |r| report.responses.push(r));
                let depth = self.max_queue_depth();
                samples.push(&mut self.metrics, depth, self.storage_live);
                match stall {
                    None => report.accepted += 1,
                    Some(kind) if kind.is_rejection() => report.rejected += 1,
                    Some(_) => report.stalled += 1,
                }
                i += 1;
            }
        }
        self.idle_until(i, len, &mut samples, &mut report.responses);
        samples.flush(&mut self.metrics);
        report
    }

    /// Advances the request-free interface cycles `from..to`, jumping
    /// every span [`VpnmController::skip_idle`] / `skip_busy` prove
    /// skippable and stepping the rest (a playback falling due, or a bus
    /// grant doing real work). Skipped spans are counted in
    /// [`VpnmController::cycles_skipped`] and recorded as
    /// [`ForensicKind::FastForward`] events when forensics are enabled.
    fn idle_until(
        &mut self,
        mut from: u64,
        to: u64,
        samples: &mut SampleRun,
        responses: &mut Vec<Response>,
    ) {
        while from < to {
            let n = if self.ready.is_empty() {
                self.skip_idle(to - from)
            } else {
                self.skip_busy(to - from)
            };
            if n > 0 {
                from += n;
                continue;
            }
            self.step(None, 0, &mut |r| responses.push(r));
            let depth = self.max_queue_depth();
            samples.push(&mut self.metrics, depth, self.storage_live);
            from += 1;
        }
    }

    /// Fast-forwards through up to `gap` interface cycles that are known
    /// to present no request, with no bank holding queued work (`ready`
    /// empty). Returns the cycles actually skipped: the distance to the
    /// next due playback caps the jump, and 0 means a playback falls due
    /// on the current cycle, which needs a normal step.
    ///
    /// Every controller field changes exactly as that many `tick(None)`
    /// calls would have changed it — no grant fires (ready set empty), no
    /// playback falls due (ring span empty), and queue depths / storage
    /// occupancy are frozen, so the occupancy samples are identical by
    /// bulk-recording.
    fn skip_idle(&mut self, gap: u64) -> u64 {
        debug_assert!(self.ready.is_empty());
        // Occupied ring slots equal `outstanding` reads, so an empty
        // controller skips the whole gap without scanning.
        let n = if self.outstanding == 0 { gap } else { gap.min(self.next_due_distance()) };
        if n > 0 {
            let m = self.clock.advance_interfaces(n);
            self.rr_next =
                ((u64::from(self.rr_next) + m) & u64::from(self.config.banks - 1)) as u32;
            self.ring_pos = ((self.ring_pos as u64 + n) % self.ring.len() as u64) as usize;
            let depth = self.max_queue_depth();
            self.metrics.sample_cycles(depth, self.storage_live, n);
            self.cycles_skipped += n;
            if self.forensics.is_enabled() {
                self.forensics.record(
                    self.clock.interface_now(),
                    0,
                    ForensicKind::FastForward { interface_cycles: n },
                );
            }
        }
        n
    }

    /// The busy-bank generalization of [`VpnmController::skip_idle`]:
    /// fast-forwards through up to `gap` request-free interface cycles
    /// even while banks hold in-service accesses, by proving every bus
    /// grant in the skipped span is wasted. Under the round-robin policy
    /// the `j`-th upcoming memory tick grants bank
    /// `(rr_next + j - 1) & mask`, and a grant changes state only when it
    /// lands on a *ready* bank whose in-service access (if any) has
    /// completed — retirement, and possibly the next issue, happen on
    /// exactly that tick. Both the rotor and the completion times are
    /// known, so the earliest state-changing tick is a closed-form
    /// minimum over the ready banks; the skip covers the interface cycles
    /// that end strictly before it (and never crosses a due playback),
    /// and the following normal step replays the event exactly as the
    /// per-cycle loop would. Wasted grants have no side effects at all —
    /// `pick_grant` either returns `None` (rotor on a non-ready bank) or
    /// `on_bus_grant` bails before mutating (bank mid-service), and
    /// device stats are only touched by issued accesses — so every
    /// controller field evolves exactly as the stepped path evolves it.
    ///
    /// Returns the interface cycles skipped; 0 means the current cycle
    /// must be stepped normally. The work-conserving ablation scans all
    /// ready banks every memory tick, so its useful-grant horizon is not
    /// a rotor-landing computation — it always steps (returns 0).
    fn skip_busy(&mut self, gap: u64) -> u64 {
        debug_assert!(!self.ready.is_empty());
        if self.skip_backoff > 0 {
            self.skip_backoff -= 1;
            return 0;
        }
        if self.config.scheduler != SchedulerKind::RoundRobin {
            return 0;
        }
        let cap = if self.outstanding == 0 { gap } else { gap.min(self.next_due_distance()) };
        if cap == 0 {
            return 0;
        }
        let mem_now = self.clock.memory_now().as_u64();
        let banks = u64::from(self.config.banks);
        let mask = self.config.banks - 1;
        let mut event = u64::MAX;
        for b in self.ready.iter_from(self.rr_next) {
            // First rotor landing on `b` is tick `first`; if the bank is
            // still serving until then, the first *useful* landing is the
            // next one at or after its completion.
            let first = u64::from(b.wrapping_sub(self.rr_next) & mask) + 1;
            // Busy lane read: a dense u64 per bank instead of a pointer
            // chase into the bank controller for each ready bank.
            let free_in = self.bank_busy_until[b as usize].saturating_sub(mem_now);
            let j = if first >= free_in {
                first
            } else {
                first + (free_in - first).div_ceil(banks) * banks
            };
            event = event.min(j);
            if event == 1 {
                return 0; // the very next memory tick does useful work
            }
        }
        let n = self.clock.interfaces_within_memory(event - 1).min(cap);
        if n < SKIP_BUSY_MIN {
            // Too short to pay for this very computation: grants are
            // landing on ready banks every few memory ticks (e.g. a
            // full-rate stream keeping two banks busy), and stepping a
            // handful of idle cycles is cheaper than proving them
            // skippable. Remember that for a while so the dense regime
            // pays one branch per idle cycle, not one horizon scan.
            self.skip_backoff = SKIP_BUSY_BACKOFF;
            return 0;
        }
        let m = self.clock.advance_interfaces(n);
        debug_assert!(m < event, "skip must stop short of the state-changing tick");
        self.rr_next = ((u64::from(self.rr_next) + m) & u64::from(mask)) as u32;
        self.ring_pos = ((self.ring_pos as u64 + n) % self.ring.len() as u64) as usize;
        let depth = self.max_queue_depth();
        self.metrics.sample_cycles(depth, self.storage_live, n);
        self.cycles_skipped += n;
        if self.forensics.is_enabled() {
            self.forensics.record(
                self.clock.interface_now(),
                0,
                ForensicKind::FastForward { interface_cycles: n },
            );
        }
        n
    }

    /// Interface cycles from now until the next occupied delay-ring slot
    /// falls due (0 when `ring[ring_pos]` itself is occupied), found by
    /// scanning the occupancy bitset a word at a time.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the ring is empty; callers guard on
    /// `outstanding > 0`.
    fn next_due_distance(&self) -> u64 {
        let len = self.ring.len();
        let pos = self.ring_pos;
        match first_set_bit(&self.ring_occ, pos, len) {
            Some(p) => (p - pos) as u64,
            None => {
                let p = first_set_bit(&self.ring_occ, 0, pos)
                    .expect("outstanding > 0 implies an occupied ring slot");
                (len - pos + p) as u64
            }
        }
    }

    /// Ticks with no request until all outstanding reads have been
    /// answered, returning the collected responses.
    ///
    /// # Panics
    ///
    /// Panics if draining takes more than `outstanding × D + D` cycles,
    /// which would indicate a broken deterministic-latency invariant.
    pub fn drain(&mut self) -> Vec<Response> {
        let budget = (self.outstanding as u64 + 1) * self.delay + self.delay;
        let mut out = Vec::with_capacity(self.outstanding);
        let mut spent = 0u64;
        while self.outstanding > 0 {
            assert!(spent <= budget, "drain exceeded {budget} cycles");
            if let Some(r) = self.tick(None).response {
                out.push(r);
            }
            spent += 1;
        }
        out
    }

    /// Re-keys the universal mapping and migrates the stored data — the
    /// paper's response to repeated stalls (Section 4: "change the
    /// universal mapping function and reordering the data on the
    /// occurrence of multiple stalls (an expensive operation, but
    /// certainly possible with frequency on the order of once a day)").
    ///
    /// Outstanding reads are drained first (the returned responses are
    /// handed back), then every populated line moves to its new bank.
    /// Returns `(drained_responses, lines_migrated)`.
    ///
    /// # Panics
    ///
    /// Panics if draining exceeds its budget, which would indicate a
    /// broken deterministic-latency invariant.
    pub fn rekey(&mut self, new_seed: u64) -> (Vec<Response>, u64) {
        let drained = self.drain();
        // Also flush buffered writes so the migration sees final contents.
        let mut guard = 0u64;
        while self.banks.iter().any(|b| b.queue_depth() > 0 || b.write_buffer_depth() > 0) {
            self.tick(None);
            guard += 1;
            assert!(guard <= 4 * self.delay * u64::from(self.config.banks), "write flush stuck");
        }
        let new_hash = HashEngine::from_seed(
            self.config.hash,
            self.config.addr_bits,
            self.config.bank_bits(),
            new_seed,
        );
        // Walk the populated cells: offset == line address in our layout,
        // so a line moves when its bank assignment changes.
        let mut moved = 0u64;
        for (bank, offset) in self.dram.populated() {
            let new_bank = new_hash.bank_of(offset);
            if new_bank != bank {
                let data = self.dram.take(bank, offset).expect("listed as populated");
                self.dram.poke(new_bank, offset, data);
                moved += 1;
            }
        }
        self.hash = new_hash;
        (drained, moved)
    }
}

/// Convenience constructors for the two request kinds.
impl VpnmController {
    /// Shorthand for ticking with a read request.
    pub fn tick_read(&mut self, addr: impl Into<LineAddr>) -> TickOutput {
        self.tick(Some(Request::read(addr.into())))
    }

    /// Shorthand for ticking with a write request.
    pub fn tick_write(&mut self, addr: impl Into<LineAddr>, data: impl Into<Bytes>) -> TickOutput {
        self.tick(Some(Request::write(addr.into(), data)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive_program;
    use crate::hash_engine::HashKind;
    use crate::memory::PipelinedMemory;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small() -> VpnmController {
        VpnmController::new(VpnmConfig::small_test(), 1).unwrap()
    }

    #[test]
    fn every_read_latency_is_exactly_d() {
        let mut mem = small();
        let d = mem.delay();
        let mut rng = StdRng::seed_from_u64(7);
        let mut issued = 0u64;
        let mut completed = 0u64;
        for _ in 0..2000 {
            let addr = rng.gen_range(0..1u64 << 16);
            let out = mem.tick_read(addr);
            if out.accepted() {
                issued += 1;
            }
            if let Some(r) = out.response {
                assert_eq!(r.latency(), d, "latency must be deterministic");
                completed += 1;
            }
        }
        completed += mem.drain().len() as u64;
        assert_eq!(issued, completed);
        assert_eq!(mem.metrics().deadline_misses, 0);
    }

    #[test]
    fn read_your_writes() {
        let mut mem = small();
        for a in 0..32u64 {
            let out = mem.tick_write(a, vec![a as u8 + 1]);
            assert!(out.accepted());
        }
        let mut got = Vec::new();
        for a in 0..32u64 {
            let out = mem.tick_read(a);
            assert!(out.accepted());
            got.extend(out.response);
        }
        got.extend(mem.drain());
        assert_eq!(got.len(), 32);
        for r in got {
            assert_eq!(r.data[0], r.addr.0 as u8 + 1, "addr {}", r.addr);
        }
    }

    #[test]
    fn redundant_stream_merges_and_answers() {
        // "A,A,A,A,…" must be absorbed by the merging queue (paper
        // Section 3.4) without bank-access-queue pressure.
        let mut mem = small();
        mem.tick_write(5, vec![0x55]);
        let mut responses = 0;
        for _ in 0..500 {
            let out = mem.tick_read(5);
            assert!(out.accepted(), "merging must prevent stalls on A,A,A,…");
            responses += out.response.iter().len();
        }
        responses += mem.drain().len();
        assert_eq!(responses, 500);
        assert!(mem.metrics().reads_merged >= 490);
        assert_eq!(mem.metrics().total_stalls(), 0);
    }

    #[test]
    fn a_b_pattern_merges_too() {
        let mut mem = small();
        mem.tick_write(1, vec![0xA1]);
        mem.tick_write(2, vec![0xB2]);
        let mut responses: Vec<Response> = Vec::new();
        for i in 0..400 {
            let addr = if i % 2 == 0 { 1 } else { 2 };
            let out = mem.tick_read(addr);
            assert!(out.accepted());
            responses.extend(out.response);
        }
        responses.extend(mem.drain());
        assert_eq!(responses.len(), 400);
        for r in &responses {
            let want = if r.addr.0 == 1 { 0xA1 } else { 0xB2 };
            assert_eq!(r.data[0], want);
        }
        assert_eq!(mem.metrics().total_stalls(), 0);
    }

    #[test]
    fn adversarial_single_bank_stream_stalls_lowbits() {
        // With the non-universal low-bits mapping an adversary strides by
        // B and swamps one bank — the design the paper's randomization
        // fixes.
        let cfg = VpnmConfig::small_test().with_hash(HashKind::LowBits);
        let mut mem = VpnmController::new(cfg, 0).unwrap();
        let mut stalls = 0;
        for i in 0..200u64 {
            let out = mem.tick_read(i * 4); // all hit bank 0
            stalls += u64::from(!out.accepted());
        }
        assert!(stalls > 50, "expected heavy stalling, saw {stalls}");
        // And the same stream under H3 sails through (different banks).
        let cfg = VpnmConfig::small_test().with_hash(HashKind::H3);
        let mut mem = VpnmController::new(cfg, 3).unwrap();
        let mut h3_stalls = 0;
        for i in 0..200u64 {
            let out = mem.tick_read(i * 4);
            h3_stalls += u64::from(!out.accepted());
        }
        assert!(h3_stalls < stalls / 4, "h3 {h3_stalls} vs lowbits {stalls}");
    }

    #[test]
    fn first_stall_time_recorded() {
        let cfg = VpnmConfig::small_test().with_hash(HashKind::LowBits);
        let mut mem = VpnmController::new(cfg, 0).unwrap();
        for i in 0..100u64 {
            mem.tick_read(i * 4);
        }
        let m = mem.metrics();
        assert!(m.total_stalls() > 0);
        assert!(m.first_stall_at.is_some());
    }

    #[test]
    fn mixed_random_workload_differentially_checked() {
        // Golden-model check against a plain map: every read result must
        // equal the last write accepted before the read was accepted.
        use std::collections::HashMap;
        let mut mem = small();
        let mut rng = StdRng::seed_from_u64(99);
        let mut golden: HashMap<u64, u8> = HashMap::new();
        let mut expected: HashMap<u64, Vec<u8>> = HashMap::new(); // keyed by issue cycle
        let mut all: Vec<Response> = Vec::new();
        for _ in 0..3000 {
            let addr = rng.gen_range(0..64u64);
            let out = if rng.gen_bool(0.3) {
                let v = rng.gen::<u8>();
                let out = mem.tick_write(addr, vec![v]);
                if out.accepted() {
                    golden.insert(addr, v);
                }
                out
            } else {
                let out = mem.tick_read(addr);
                if out.accepted() {
                    let snapshot = vec![golden.get(&addr).copied().unwrap_or(0)];
                    expected.insert(mem.now().as_u64(), snapshot);
                }
                out
            };
            all.extend(out.response);
        }
        all.extend(mem.drain());
        assert_eq!(mem.metrics().deadline_misses, 0);
        for r in all {
            let want = expected
                .remove(&r.issued_at.as_u64())
                .unwrap_or_else(|| panic!("unexpected response issued at {}", r.issued_at));
            assert_eq!(r.data[0], want[0], "addr {}", r.addr);
        }
        assert!(expected.is_empty(), "responses missing for {} reads", expected.len());
    }

    #[test]
    fn throughput_near_line_rate_under_uniform_load() {
        // Paper Section 3.2: "the memory bandwidth delivered by the entire
        // scheme is almost equal to the case where there are no bank
        // conflicts."
        let mut mem = VpnmController::new(VpnmConfig::test_roomy(), 5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let total = 20_000u64;
        let mut accepted = 0u64;
        for _ in 0..total {
            let out = mem.tick_read(rng.gen_range(0..1u64 << 16));
            accepted += u64::from(out.accepted());
        }
        let rate = accepted as f64 / total as f64;
        assert!(rate > 0.999, "acceptance rate {rate}");
    }

    #[test]
    fn trace_records_lifecycle() {
        let cfg = VpnmConfig::small_test().with_trace_capacity(64);
        let mut mem = VpnmController::new(cfg, 1).unwrap();
        mem.tick_read(1);
        mem.tick_read(1);
        assert!(mem.trace().len() >= 2);
    }

    #[test]
    fn rekey_preserves_data_and_changes_mapping() {
        use vpnm_hash::BankHasher;
        let mut mem = VpnmController::new(VpnmConfig::test_roomy(), 50).unwrap();
        for a in 0..64u64 {
            assert!(mem.tick_write(a, vec![a as u8]).accepted());
        }
        // put a read in flight to exercise the drain path
        mem.tick_read(7);
        let old_map: Vec<u32> = (0..64u64).map(|a| mem.hash().bank_of(a)).collect();
        let (drained, moved) = mem.rekey(51);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].data[0], 7);
        let new_map: Vec<u32> = (0..64u64).map(|a| mem.hash().bank_of(a)).collect();
        assert_ne!(old_map, new_map, "re-keying must reshuffle banks");
        assert!(moved > 0, "some populated lines must have migrated");
        // every line still reads back correctly through the new mapping
        for a in 0..64u64 {
            assert!(mem.tick_read(a).accepted());
        }
        let responses = mem.drain();
        assert_eq!(responses.len(), 64);
        for r in responses {
            assert_eq!(r.data[0], r.addr.0 as u8, "post-rekey data intact at {}", r.addr);
        }
    }

    #[test]
    fn work_conserving_scheduler_upholds_invariants() {
        let cfg = VpnmConfig {
            scheduler: crate::config::SchedulerKind::WorkConserving,
            ..VpnmConfig::small_test()
        };
        let mut mem = VpnmController::new(cfg, 9).unwrap();
        let d = mem.delay();
        let mut rng = StdRng::seed_from_u64(31);
        let mut issued = 0u64;
        let mut done = 0u64;
        for _ in 0..5000 {
            let out = mem.tick_read(rng.gen_range(0..1u64 << 16));
            issued += u64::from(out.accepted());
            if let Some(r) = out.response {
                assert_eq!(r.latency(), d);
                done += 1;
            }
        }
        done += mem.drain().len() as u64;
        assert_eq!(issued, done);
        assert_eq!(mem.metrics().deadline_misses, 0);
    }

    #[test]
    fn work_conserving_never_stalls_more_than_round_robin() {
        // The reclaimed slots can only help: compare stall counts on the
        // same saturating stream.
        let run = |scheduler| {
            let cfg = VpnmConfig { scheduler, ..VpnmConfig::small_test() };
            let mut mem = VpnmController::new(cfg, 77).unwrap();
            let mut rng = StdRng::seed_from_u64(13);
            for _ in 0..30_000 {
                mem.tick_read(rng.gen_range(0..1u64 << 16));
            }
            mem.metrics().total_stalls()
        };
        let rr = run(crate::config::SchedulerKind::RoundRobin);
        let wc = run(crate::config::SchedulerKind::WorkConserving);
        assert!(wc <= rr, "work-conserving ({wc}) must not exceed round-robin ({rr})");
    }

    #[test]
    fn merging_disabled_stalls_on_redundant_flood() {
        let cfg = VpnmConfig { merging: false, ..VpnmConfig::small_test() };
        let mut mem = VpnmController::new(cfg, 5).unwrap();
        let mut stalls = 0u64;
        for _ in 0..500 {
            stalls += u64::from(!mem.tick_read(42).accepted());
        }
        assert!(stalls > 300, "A,A,A flood must devastate the no-merge ablation: {stalls}");
    }

    #[test]
    fn out_of_range_address_rejected() {
        let mut mem = small();
        if cfg!(debug_assertions) {
            // Debug builds still assert at the source of the caller bug.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                mem.tick_read(1u64 << 20);
            }));
            assert!(result.is_err(), "debug builds must assert on malformed addresses");
        } else {
            // Release builds reject gracefully and keep running.
            let out = mem.tick_read(1u64 << 20);
            assert_eq!(out.stall, Some(StallKind::AddressRange));
            assert!(!out.accepted());
            assert_eq!(mem.metrics().malformed_rejections, 1);
            assert_eq!(mem.metrics().total_stalls(), 0, "rejections are not stalls");
            assert!(mem.metrics().first_stall_at.is_none());
            assert!(mem.tick_read(1).accepted(), "controller must keep working");
        }
    }

    #[test]
    fn oversized_write_rejected() {
        let mut mem = small();
        let too_big = vec![0u8; mem.config().cell_bytes + 1];
        if cfg!(debug_assertions) {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                mem.tick_write(1, too_big.clone());
            }));
            assert!(result.is_err(), "debug builds must assert on oversized writes");
        } else {
            let out = mem.tick_write(1, too_big);
            assert_eq!(out.stall, Some(StallKind::OversizedWrite));
            assert_eq!(mem.metrics().malformed_rejections, 1);
            assert_eq!(mem.metrics().total_stalls(), 0);
            assert!(mem.tick_write(1, vec![1]).accepted(), "controller must keep working");
        }
    }

    #[test]
    fn invalid_config_reports_error() {
        let cfg = VpnmConfig::small_test().with_banks(3);
        assert!(VpnmController::new(cfg, 0).is_err());
    }

    #[test]
    fn run_epoch_matches_manual_ticks_and_skips() {
        // A bursty trace with long idle gaps: the drive loop must take
        // event-horizon skips (cycles_skipped > 0) and still be
        // observationally identical to the tick-by-tick run.
        let mk = || VpnmController::new(VpnmConfig::small_test(), 11).unwrap();
        let mut reqs: Vec<Option<Request>> = Vec::new();
        for burst in 0..20u64 {
            for i in 0..12u64 {
                let a = (burst * 977 + i * 37) % 5000;
                reqs.push(Some(if i % 5 == 4 {
                    Request::write(LineAddr(a % 64), vec![i as u8])
                } else {
                    Request::read(LineAddr(a))
                }));
            }
            reqs.extend(std::iter::repeat_n(None, 60 + burst as usize));
        }
        reqs.extend(std::iter::repeat_n(None, 200));

        let mut manual = mk();
        let mut manual_report = RunReport::default();
        for r in &reqs {
            let out = manual.tick(r.clone());
            manual_report.responses.extend(out.response);
            match out.stall {
                None => manual_report.accepted += u64::from(r.is_some()),
                Some(k) if k.is_rejection() => manual_report.rejected += 1,
                Some(_) => manual_report.stalled += 1,
            }
        }

        let mut batched = mk();
        let report = PipelinedMemory::run_epoch(&mut batched, &reqs);
        assert_eq!(report, manual_report);
        assert_eq!(batched.now(), manual.now());
        assert_eq!(batched.metrics(), manual.metrics());
        assert!(batched.cycles_skipped() > 0, "gaps must be skipped");
        assert_eq!(manual.cycles_skipped(), 0);
        // Snapshots agree byte-for-byte modulo the drive-mode counter.
        let mut snap = batched.snapshot();
        snap.cycles_skipped = 0;
        assert_eq!(snap, manual.snapshot());
    }

    #[test]
    fn idle_epoch_skip_lands_exactly_on_retire_cycle() {
        // One read in flight, then a pure-idle epoch: the event-horizon
        // jump must stop exactly at the ring slot where the playback falls
        // due, answer it with latency D, then skip the rest of the epoch.
        for ratio in [1.0, 1.3, 2.0] {
            let cfg = VpnmConfig::small_test().with_bus_ratio(ratio);
            let mut mem = VpnmController::new(cfg, 21).unwrap();
            let d = mem.delay();
            mem.tick_write(9, vec![0x5A]);
            assert!(mem.tick_read(9).accepted());
            let before = mem.now().as_u64();
            let report = mem.run_epoch_sparse(5 * d, &[]);
            assert_eq!(report.responses.len(), 1, "ratio {ratio}");
            let r = &report.responses[0];
            assert_eq!(r.latency(), d, "ratio {ratio}");
            assert_eq!(r.data[0], 0x5A, "ratio {ratio}");
            assert_eq!(mem.outstanding(), 0);
            assert_eq!(mem.now().as_u64(), before + 5 * d, "epoch fully consumed");
            assert!(mem.cycles_skipped() > 0, "idle spans must be skipped");
            assert_eq!(mem.metrics().deadline_misses, 0);
        }
    }

    proptest! {
        /// The controller's one batch drive loop, reached through every
        /// batch method in a random program interleaved with `tick`, is
        /// observationally identical to [`ReferenceController`] driven
        /// one `tick` per cycle: same responses and accept/stall/reject
        /// counts per call, same clock, same drain, and the same snapshot
        /// bytes modulo the `cycles_skipped` drive-mode counter.
        #[test]
        fn drive_paths_match_reference(
            program in drive_program::program(),
            ratio_idx in 0usize..3,
        ) {
            let cfg = VpnmConfig::small_test().with_bus_ratio([1.0, 1.3, 1.7][ratio_idx]);
            let mut fast = VpnmController::new(cfg.clone(), 7).unwrap();
            let mut reference = crate::ReferenceController::new(cfg, 7).unwrap();
            for (k, call) in program.iter().enumerate() {
                let got = drive_program::apply(&mut fast, call);
                let want = drive_program::apply_ticks(&mut reference, call);
                prop_assert_eq!(got, want, "call {}", k);
                prop_assert_eq!(fast.now(), reference.now(), "call {}", k);
            }
            prop_assert_eq!(fast.drain(), reference.drain());
            let mut snap = fast.snapshot();
            snap.cycles_skipped = 0;
            prop_assert_eq!(snap.to_json(), reference.snapshot().to_json());
        }
    }

    #[test]
    fn idle_gaps_preserve_deterministic_latency() {
        // The idle fast-forward must not disturb response timing, even at
        // a fractional memory/interface clock ratio where the skipped
        // window length varies cycle to cycle.
        for ratio in [1.0, 1.3, 2.0] {
            let cfg = VpnmConfig::small_test().with_bus_ratio(ratio);
            let mut mem = VpnmController::new(cfg, 21).unwrap();
            let d = mem.delay();
            mem.tick_write(9, vec![0x77]);
            // long idle stretch — fast-forwarded internally
            let idle = mem.run_epoch_sparse(10 * d, &[]);
            assert!(idle.responses.is_empty());
            let out = mem.tick_read(9);
            assert!(out.accepted());
            let responses = mem.drain();
            assert_eq!(responses.len(), 1, "ratio {ratio}");
            assert_eq!(responses[0].latency(), d, "ratio {ratio}");
            assert_eq!(responses[0].data[0], 0x77, "ratio {ratio}");
            assert_eq!(mem.metrics().deadline_misses, 0);
        }
    }

    #[test]
    fn response_payload_is_shared_not_copied() {
        // Zero-allocation data path: the response hands back the very
        // cell stored in DRAM, by refcount.
        let mut mem = small();
        let cell = mem.config().cell_bytes;
        mem.tick_write(3, vec![0xAB; cell]);
        mem.tick_read(3);
        let first = mem.drain();
        mem.tick_read(3);
        let second = mem.drain();
        assert_eq!(first[0].data, second[0].data);
        assert_eq!(
            first[0].data.as_slice().as_ptr(),
            second[0].data.as_slice().as_ptr(),
            "same backing DRAM cell across independent reads"
        );
    }

    /// The original O(B) grant scan, kept inline as the specification the
    /// indexed `pick_grant` is checked against.
    fn grant_spec(mem: &VpnmController, rr: usize, now_mem: Cycle) -> usize {
        match mem.config.scheduler {
            SchedulerKind::RoundRobin => rr,
            SchedulerKind::WorkConserving => {
                if mem.banks[rr].wants_grant(now_mem) {
                    return rr;
                }
                let b = mem.config.banks as usize;
                (0..b)
                    .map(|i| (rr + i) % b)
                    .filter(|&i| mem.banks[i].wants_grant(now_mem))
                    .max_by_key(|&i| mem.banks[i].queue_depth())
                    .unwrap_or(rr)
            }
        }
    }

    /// Probes `pick_grant` at a given round-robin position without
    /// perturbing scheduler state. Tests build bank states by hand
    /// (direct `submit` calls bypass the accept path), so the packed
    /// scheduling lanes are rebuilt before asking the picker.
    fn probe_grant(mem: &mut VpnmController, rr: u32, now_mem: Cycle) -> Option<usize> {
        mem.resync_lanes();
        let saved = mem.rr_next;
        mem.rr_next = rr;
        let picked = mem.pick_grant(now_mem);
        mem.rr_next = saved;
        picked
    }

    #[test]
    fn work_conserving_grant_order_pinned() {
        // Regression pin for the scan → ready-index rewrite: a hand-built
        // queue state with a depth tie must grant exactly as the original
        // rotated `max_by_key` scan did (last maximal candidate wins).
        let cfg =
            VpnmConfig { scheduler: SchedulerKind::WorkConserving, ..VpnmConfig::small_test() };
        let mut mem = VpnmController::new(cfg, 1).unwrap();
        let banks = mem.config.banks as usize;
        assert!(banks >= 4);
        // depths: bank0 = 2, bank2 = 3, bank3 = 3, rest empty
        for (bank, depth) in [(0usize, 2usize), (2, 3), (3, 3)] {
            for i in 0..depth {
                let addr = LineAddr((bank * 1000 + i) as u64);
                mem.banks[bank].submit(BankEvent::Read { addr }).unwrap();
            }
            mem.ready.insert(bank as u32);
        }
        let t = Cycle::ZERO;
        // owners with work keep their slot
        assert_eq!(probe_grant(&mut mem, 0, t), Some(0));
        assert_eq!(probe_grant(&mut mem, 2, t), Some(2));
        assert_eq!(probe_grant(&mut mem, 3, t), Some(3));
        // idle owners: deepest queue wins, ties to the later candidate in
        // rotated order — from bank 1 the order is 2, 3, 0, so bank 3
        assert_eq!(probe_grant(&mut mem, 1, t), Some(3));
        // from the last bank the order wraps: 0, 2, 3 → still bank 3
        assert_eq!(probe_grant(&mut mem, banks as u32 - 1, t), Some(3));
        // spec agreement on every start position
        for rr in 0..banks {
            let fast = probe_grant(&mut mem, rr as u32, t);
            let spec = grant_spec(&mem, rr, t);
            match fast {
                Some(g) => assert_eq!(g, spec, "rr={rr}"),
                None => assert_eq!(mem.banks[spec].queue_depth(), 0, "rr={rr}"),
            }
        }
    }

    #[test]
    fn round_robin_grant_skips_only_empty_banks() {
        let mut mem = small();
        let t = Cycle::ZERO;
        assert_eq!(probe_grant(&mut mem, 0, t), None, "no work anywhere");
        mem.banks[2].submit(BankEvent::Read { addr: LineAddr(1) }).unwrap();
        mem.ready.insert(2);
        assert_eq!(probe_grant(&mut mem, 2, t), Some(2));
        assert_eq!(probe_grant(&mut mem, 1, t), None, "strict round-robin never reassigns");
    }

    proptest! {
        /// Work-conserving fairness: the round-robin owner is never
        /// displaced while it wants the grant, and the indexed picker
        /// agrees with the original O(B) scan in every reachable state.
        #[test]
        fn work_conserving_owner_never_displaced(
            addrs in proptest::collection::vec(0u64..(1 << 16), 1..300),
        ) {
            let cfg = VpnmConfig {
                scheduler: SchedulerKind::WorkConserving,
                ..VpnmConfig::small_test()
            };
            let mut mem = VpnmController::new(cfg, 5).unwrap();
            let banks = mem.config.banks;
            for (i, &addr) in addrs.iter().enumerate() {
                if i % 5 == 4 {
                    mem.tick_write(addr, vec![i as u8]);
                } else {
                    mem.tick_read(addr);
                }
                // Probe the scheduler from every round-robin position in
                // the state this tick left behind.
                let now_mem = mem.clock.memory_now();
                for rr in 0..banks {
                    let fast = probe_grant(&mut mem, rr, now_mem);
                    if mem.banks[rr as usize].wants_grant(now_mem) {
                        prop_assert_eq!(
                            fast, Some(rr as usize),
                            "owner {} displaced", rr
                        );
                    }
                    let spec = grant_spec(&mem, rr as usize, now_mem);
                    match fast {
                        Some(g) => prop_assert_eq!(g, spec, "rr={}", rr),
                        // None elides a grant the spec wasted on an
                        // empty-queue bank.
                        None => prop_assert_eq!(
                            mem.banks[spec].queue_depth(), 0, "rr={}", rr
                        ),
                    }
                }
            }
        }
    }
}
