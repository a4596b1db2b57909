//! Packet buffering on VPNM (paper Section 5.4.1).
//!
//! Routers buffer roughly `2·R·T` of traffic (line rate × round-trip
//! time) — 4 GB at 160 Gbps — which only DRAM can hold. Prior schemes
//! fight bank conflicts with per-queue SRAM cell caches and bank-aware
//! scheduling; on VPNM the problem disappears: "Instead of keeping large
//! head and tail SRAMs to store packets, we just need to store the head
//! and tail pointers of each queue in SRAM." Every cell write goes to the
//! queue's tail address, every read to its head address, and the
//! controller's universal hash spreads those addresses over banks
//! regardless of the queue access pattern.

use bytes::Bytes;
use std::collections::VecDeque;
use std::fmt;
use vpnm_core::{
    FabricConfig, LineAddr, PipelinedMemory, Request, StallKind, TenantId, VpnmConfig,
    VpnmController, VpnmFabric,
};

/// One interface event presented to a packet buffer per cell slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufferEvent {
    /// Append a cell to a queue.
    Enqueue {
        /// Queue (interface) index.
        queue: u32,
        /// Cell payload.
        cell: Vec<u8>,
    },
    /// Remove the oldest cell of a queue (data arrives `D` cycles later).
    Dequeue {
        /// Queue (interface) index.
        queue: u32,
    },
}

/// One scheduled event in an arena-backed epoch lane (see
/// [`VpnmPacketBuffer::run_epoch_arena`]): 16 bytes, `Copy`, with
/// enqueue payloads carried as byte spans into the epoch's shared
/// arena instead of owned `Vec`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneEvent {
    /// Append `arena[start..end]` as a cell on `queue`.
    Enqueue {
        /// Queue (interface) index.
        queue: u32,
        /// Payload start offset into the epoch arena.
        start: u32,
        /// Payload end offset into the epoch arena.
        end: u32,
        /// Tenant the write is issued as (0 = single-tenant host).
        tenant: u16,
    },
    /// Remove the oldest cell of a queue (data arrives `D` cycles later).
    Dequeue {
        /// Queue (interface) index.
        queue: u32,
        /// Tenant the read is issued as (0 = single-tenant host).
        tenant: u16,
    },
}

/// A dequeued cell delivered at its deterministic deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DequeuedCell {
    /// The queue it came from.
    pub queue: u32,
    /// The cell payload (refcounted; cloning does not copy).
    pub data: bytes::Bytes,
}

/// Why a buffer event was rejected this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferError {
    /// The target queue has no room for another cell.
    QueueFull,
    /// The target queue has no cells to dequeue.
    QueueEmpty,
    /// The memory controller stalled (retry next cycle).
    MemoryStall(StallKind),
    /// The scheme's internal scheduling structures are saturated (reorder
    /// window, pending pool, cell caches, or transfer channel) — used by
    /// the baseline models; VPNM itself reports
    /// [`BufferError::MemoryStall`] instead.
    Backpressure,
    /// The requested cell is still in DRAM and not yet staged for reading
    /// (baseline models with SRAM cell caches); retry shortly.
    NotReady,
    /// Queue index out of range.
    BadQueue,
}

impl fmt::Display for BufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::QueueFull => f.write_str("queue full"),
            BufferError::QueueEmpty => f.write_str("queue empty"),
            BufferError::MemoryStall(k) => write!(f, "memory stall: {k}"),
            BufferError::Backpressure => f.write_str("scheduling backpressure"),
            BufferError::NotReady => f.write_str("cell not staged yet"),
            BufferError::BadQueue => f.write_str("queue index out of range"),
        }
    }
}

impl std::error::Error for BufferError {}

/// Accounting for a packet buffer run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketBufferStats {
    /// Cells enqueued.
    pub enqueued: u64,
    /// Dequeue operations accepted.
    pub dequeued: u64,
    /// Cells delivered.
    pub delivered: u64,
    /// Events rejected by a memory stall.
    pub memory_stalls: u64,
    /// Events rejected because a queue was full/empty.
    pub queue_rejections: u64,
    /// Dequeues that never produced a response because their read stalled
    /// inside an epoch-batched run ([`VpnmPacketBuffer::run_epoch`]
    /// pre-commits pointer movement, so a stalled read becomes a lost
    /// cell, not a retry). Always 0 on the per-tick path, and
    /// astronomically rare on the epoch path at line rate — the paper
    /// sizes the pipeline so the memory never pushes back.
    pub lost_reads: u64,
}

/// One delivered cell from an epoch-batched run, tagged with the
/// interface cycle it came due (for latency-to-deterministic-return
/// accounting at the serving layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochDelivery {
    /// The delivered cell.
    pub cell: DequeuedCell,
    /// Absolute interface cycle the response was delivered.
    pub completed_at: u64,
}

/// What happened during one [`VpnmPacketBuffer::run_epoch`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferEpochReport {
    /// Per-event outcome, aligned with the input slice: `Ok` means the
    /// event was issued to memory (its pointer movement is committed),
    /// `Err` carries the same rejection the per-tick path would have
    /// returned (the cycle ran idle instead).
    pub outcomes: Vec<Result<(), BufferError>>,
    /// Cells that came due during the epoch, in delivery order.
    pub delivered: Vec<EpochDelivery>,
    /// Memory stalls inside the epoch (each is a lost event under the
    /// epoch path's no-retry semantics).
    pub stalled: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct QueuePointers {
    /// Monotone head counter (cells consumed).
    head: u64,
    /// Monotone tail counter (cells produced).
    tail: u64,
}

/// A multi-queue packet buffer backed by any [`PipelinedMemory`] engine
/// (a bare [`VpnmController`] by default, or a multi-channel
/// [`VpnmFabric`] via [`VpnmPacketBuffer::new_fabric`]).
///
/// Queue `q` owns the address region `[q·C, (q+1)·C)` (C =
/// `cells_per_queue`) used as a ring; only the two pointer counters per
/// queue live "in SRAM".
///
/// ```
/// use vpnm_apps::packet_buffer::{BufferEvent, VpnmPacketBuffer};
/// use vpnm_core::VpnmConfig;
///
/// let mut buf = VpnmPacketBuffer::new(VpnmConfig::test_roomy(), 16, 64, 7).unwrap();
/// buf.tick(Some(BufferEvent::Enqueue { queue: 3, cell: b"abc".to_vec() })).unwrap();
/// buf.tick(Some(BufferEvent::Dequeue { queue: 3 })).unwrap();
/// let mut out = None;
/// for _ in 0..buf.delay() {
///     out = out.or(buf.tick(None).unwrap());
/// }
/// assert_eq!(&out.unwrap().data[..3], b"abc");
/// ```
#[derive(Debug)]
pub struct VpnmPacketBuffer<M: PipelinedMemory = VpnmController> {
    mem: M,
    queues: Vec<QueuePointers>,
    cells_per_queue: u64,
    /// Queue index for each in-flight dequeue, FIFO by response order
    /// (responses arrive in issue order because latency is constant).
    in_flight: VecDeque<u32>,
    /// Cells whose response arrived on a cycle that could not return them
    /// (a rejected event); handed out on the next successful tick.
    pending: VecDeque<DequeuedCell>,
    stats: PacketBufferStats,
}

/// Checks that the queue regions fit an `addr_bits`-wide address space.
fn check_region(num_queues: u32, cells_per_queue: u64, addr_bits: u32) -> Result<(), String> {
    if num_queues == 0 || cells_per_queue == 0 {
        return Err("need at least one queue and one cell per queue".into());
    }
    let needed =
        u64::from(num_queues).checked_mul(cells_per_queue).ok_or("queue region overflow")?;
    let space = 1u64 << addr_bits;
    if needed > space {
        return Err(format!(
            "{num_queues} queues × {cells_per_queue} cells needs {needed} addresses, \
             but the controller has only {space}"
        ));
    }
    Ok(())
}

impl VpnmPacketBuffer {
    /// Creates a buffer with `num_queues` queues of `cells_per_queue`
    /// cells each on a VPNM controller built from `config`.
    ///
    /// # Errors
    ///
    /// Returns an error if the config is invalid or the queue regions do
    /// not fit the controller's address space.
    pub fn new(
        config: VpnmConfig,
        num_queues: u32,
        cells_per_queue: u64,
        seed: u64,
    ) -> Result<Self, String> {
        check_region(num_queues, cells_per_queue, config.addr_bits)?;
        Self::with_memory(VpnmController::new(config, seed)?, num_queues, cells_per_queue)
    }
}

impl VpnmPacketBuffer<VpnmFabric> {
    /// Creates a buffer striped over a multi-channel [`VpnmFabric`]
    /// built from `fabric_config`.
    ///
    /// # Errors
    ///
    /// Returns an error if the fabric config is invalid or the queue
    /// regions do not fit the fabric's (pre-split) address space.
    pub fn new_fabric(
        fabric_config: FabricConfig,
        num_queues: u32,
        cells_per_queue: u64,
        seed: u64,
    ) -> Result<Self, String> {
        check_region(num_queues, cells_per_queue, fabric_config.base.addr_bits)?;
        Self::with_memory(VpnmFabric::new(fabric_config, seed)?, num_queues, cells_per_queue)
    }
}

impl<M: PipelinedMemory> VpnmPacketBuffer<M> {
    /// Wraps an already-built memory engine. The caller is responsible
    /// for sizing: addresses up to `num_queues · cells_per_queue` must be
    /// valid in `mem`, or enqueues will surface
    /// [`BufferError::MemoryStall`] rejections.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_queues` or `cells_per_queue` is zero, or
    /// their product overflows.
    pub fn with_memory(mem: M, num_queues: u32, cells_per_queue: u64) -> Result<Self, String> {
        if num_queues == 0 || cells_per_queue == 0 {
            return Err("need at least one queue and one cell per queue".into());
        }
        u64::from(num_queues).checked_mul(cells_per_queue).ok_or("queue region overflow")?;
        Ok(VpnmPacketBuffer {
            mem,
            queues: vec![QueuePointers::default(); num_queues as usize],
            cells_per_queue,
            in_flight: VecDeque::new(),
            pending: VecDeque::new(),
            stats: PacketBufferStats::default(),
        })
    }

    /// The deterministic dequeue latency `D` in cycles.
    pub fn delay(&self) -> u64 {
        self.mem.delay()
    }

    /// Number of queues.
    pub fn num_queues(&self) -> u32 {
        self.queues.len() as u32
    }

    /// Cells currently held by `queue`.
    ///
    /// # Panics
    ///
    /// Panics if `queue` is out of range.
    pub fn occupancy(&self, queue: u32) -> u64 {
        let q = &self.queues[queue as usize];
        q.tail - q.head
    }

    /// Run statistics.
    pub fn stats(&self) -> &PacketBufferStats {
        &self.stats
    }

    /// The underlying memory engine (for stall/merge metrics).
    pub fn memory(&self) -> &M {
        &self.mem
    }

    /// Pointer SRAM requirement in bytes: two counters of
    /// `ceil(log2 C)+1` bits per queue (one wrap bit), as in the paper's
    /// "4096 \[queues\] with an SRAM size of 32 KB" sizing.
    pub fn pointer_sram_bytes(&self) -> u64 {
        let ptr_bits = u64::from(64 - (self.cells_per_queue.max(2) - 1).leading_zeros()) + 1;
        (self.queues.len() as u64 * 2 * ptr_bits).div_ceil(8)
    }

    fn cell_addr(&self, queue: u32, counter: u64) -> LineAddr {
        LineAddr(u64::from(queue) * self.cells_per_queue + counter % self.cells_per_queue)
    }

    /// Advances one cell slot: optionally applies an event and returns a
    /// delivered cell if one is due.
    ///
    /// # Errors
    ///
    /// Rejection reasons leave all pointers unchanged; the caller may
    /// retry the same event next cycle (the clock still advanced, and any
    /// cell that came due during the rejected cycle is returned by the
    /// next accepted tick).
    pub fn tick(
        &mut self,
        event: Option<BufferEvent>,
    ) -> Result<Option<DequeuedCell>, BufferError> {
        let (request, action) = match event {
            None => (None, Action::None),
            Some(BufferEvent::Enqueue { queue, cell }) => {
                let q = *self.queues.get(queue as usize).ok_or(BufferError::BadQueue)?;
                if q.tail - q.head >= self.cells_per_queue {
                    self.stats.queue_rejections += 1;
                    // still burn the cycle so time advances uniformly
                    self.pump(None);
                    return Err(BufferError::QueueFull);
                }
                let addr = self.cell_addr(queue, q.tail);
                (Some(Request::write(addr, cell)), Action::Enqueue(queue))
            }
            Some(BufferEvent::Dequeue { queue }) => {
                let q = *self.queues.get(queue as usize).ok_or(BufferError::BadQueue)?;
                if q.tail == q.head {
                    self.stats.queue_rejections += 1;
                    self.pump(None);
                    return Err(BufferError::QueueEmpty);
                }
                let addr = self.cell_addr(queue, q.head);
                (Some(Request::read(addr)), Action::Dequeue(queue))
            }
        };
        match self.pump(request) {
            Some(kind) => {
                self.stats.memory_stalls += 1;
                Err(BufferError::MemoryStall(kind))
            }
            None => {
                match action {
                    Action::Enqueue(queue) => {
                        self.queues[queue as usize].tail += 1;
                        self.stats.enqueued += 1;
                    }
                    Action::Dequeue(queue) => {
                        self.queues[queue as usize].head += 1;
                        self.in_flight.push_back(queue);
                        self.stats.dequeued += 1;
                    }
                    Action::None => {}
                }
                Ok(self.pending.pop_front())
            }
        }
    }

    /// Pairs one memory response with its in-flight dequeue entry,
    /// skipping (and counting as lost) orphan entries left by reads that
    /// stalled inside an epoch-batched run. On the pure per-tick path the
    /// front entry always matches and the loop runs once.
    fn pair_response_queue(&mut self, addr: u64) -> u32 {
        let rq = (addr / self.cells_per_queue) as u32;
        loop {
            let front =
                self.in_flight.pop_front().expect("a response implies an in-flight dequeue");
            if front == rq {
                return rq;
            }
            self.stats.lost_reads += 1;
        }
    }

    /// Runs one memory cycle, banking any due response into the pending
    /// delivery queue; returns the stall, if the submission was rejected.
    fn pump(&mut self, request: Option<Request>) -> Option<StallKind> {
        let out = self.mem.tick(request);
        if let Some(r) = out.response {
            let queue = self.pair_response_queue(r.addr.0);
            self.stats.delivered += 1;
            self.pending.push_back(DequeuedCell { queue, data: r.data });
        }
        out.stall
    }

    /// Runs `len` interface cycles in one epoch-batched call, applying at
    /// most one event per cycle. This and its arena twin
    /// ([`VpnmPacketBuffer::run_epoch_arena`], which the serving loop
    /// drives) are the packet-buffer drive modes that reach a fabric's
    /// parallel worker pool.
    ///
    /// `events` holds `(cycle_offset, event)` pairs with offsets strictly
    /// increasing and `< len`; offsets with no entry run idle. Admission
    /// checks (queue bounds, range) are applied at schedule time against
    /// the same pointer state the per-tick path would see, so the
    /// per-event outcomes are exact. Accepted events *pre-commit* their
    /// pointer movement; in exchange, a memory stall inside the epoch is
    /// a lost event rather than a retry (a stalled read surfaces in
    /// [`PacketBufferStats::lost_reads`] when its orphan in-flight entry
    /// is skipped, a stalled write as a cell that reads back empty).
    /// Stall-free epochs — the designed-for regime at line rate — are
    /// byte-equivalent to driving [`VpnmPacketBuffer::tick`] cycle by
    /// cycle.
    ///
    /// Deliveries are returned directly (with their due cycle) rather
    /// than through the per-tick pending queue.
    ///
    /// # Panics
    ///
    /// Panics if offsets are not strictly increasing or reach `len`.
    pub fn run_epoch(&mut self, len: u64, events: &[(u64, BufferEvent)]) -> BufferEpochReport {
        let mut report = BufferEpochReport {
            outcomes: Vec::with_capacity(events.len()),
            ..BufferEpochReport::default()
        };
        let mut sparse: Vec<(u64, Request)> = Vec::with_capacity(events.len());
        let mut prev: Option<u64> = None;
        for (offset, event) in events {
            Self::check_offset(*offset, len, &mut prev);
            let outcome = match event {
                BufferEvent::Enqueue { queue, cell } => self.admit_enqueue(*queue).map(|addr| {
                    sparse.push((*offset, Request::write(addr, cell.clone())));
                }),
                BufferEvent::Dequeue { queue } => self.admit_dequeue(*queue).map(|addr| {
                    sparse.push((*offset, Request::read(addr)));
                }),
            };
            if outcome.is_err() {
                self.stats.queue_rejections += 1;
            }
            report.outcomes.push(outcome);
        }
        self.finish_epoch(len, sparse, &mut report, &mut || {});
        report
    }

    /// Arena-backed variant of [`VpnmPacketBuffer::run_epoch`]: event
    /// payloads are `(start, end)` byte spans into one shared `arena`
    /// buffer instead of per-event `Vec`s, so a whole epoch of enqueues
    /// costs one allocation (the arena) rather than one per cell — each
    /// span becomes a zero-copy [`Bytes::slice`] reference. Semantics
    /// (admission checks, outcomes, stall accounting, deliveries) are
    /// byte-identical to `run_epoch` with the equivalent expanded
    /// events, pinned by the `arena_epoch_matches_event_epoch` proptest.
    ///
    /// # Panics
    ///
    /// Panics if offsets are not strictly increasing or reach `len`, or
    /// if an enqueue span falls outside `arena`.
    pub fn run_epoch_arena(
        &mut self,
        len: u64,
        events: &[(u64, LaneEvent)],
        arena: &Bytes,
    ) -> BufferEpochReport {
        self.run_epoch_arena_overlapped(len, events, arena, &mut || {})
    }

    /// [`VpnmPacketBuffer::run_epoch_arena`] with a caller hook that runs
    /// exactly once while the memory executes the epoch (see
    /// [`PipelinedMemory::issue_batch_overlapped`]). Admission against the
    /// shadow pointers is finished before the hook runs, and the report
    /// is exactly `run_epoch_arena`'s. The serving loop plans its next
    /// epoch and retires its previous one in the hook.
    ///
    /// # Panics
    ///
    /// As [`VpnmPacketBuffer::run_epoch_arena`].
    pub fn run_epoch_arena_overlapped(
        &mut self,
        len: u64,
        events: &[(u64, LaneEvent)],
        arena: &Bytes,
        overlap: &mut dyn FnMut(),
    ) -> BufferEpochReport {
        let mut report = BufferEpochReport {
            outcomes: Vec::with_capacity(events.len()),
            ..BufferEpochReport::default()
        };
        let mut sparse: Vec<(u64, Request)> = Vec::with_capacity(events.len());
        let mut prev: Option<u64> = None;
        for &(offset, event) in events {
            Self::check_offset(offset, len, &mut prev);
            let outcome = match event {
                LaneEvent::Enqueue { queue, start, end, tenant } => {
                    self.admit_enqueue(queue).map(|addr| {
                        let data = arena.slice(start as usize..end as usize);
                        sparse.push((offset, Request::write_as(TenantId(tenant), addr, data)));
                    })
                }
                LaneEvent::Dequeue { queue, tenant } => self.admit_dequeue(queue).map(|addr| {
                    sparse.push((offset, Request::read_as(TenantId(tenant), addr)));
                }),
            };
            if outcome.is_err() {
                self.stats.queue_rejections += 1;
            }
            report.outcomes.push(outcome);
        }
        self.finish_epoch(len, sparse, &mut report, overlap);
        report
    }

    #[inline]
    fn check_offset(offset: u64, len: u64, prev: &mut Option<u64>) {
        assert!(offset < len, "event offset {offset} outside epoch of {len}");
        assert!(prev.is_none_or(|p| p < offset), "event offsets must strictly increase");
        *prev = Some(offset);
    }

    /// Admission-checks an enqueue at schedule time against the shadow
    /// pointers, committing the tail move; returns the cell address.
    #[inline]
    fn admit_enqueue(&mut self, queue: u32) -> Result<LineAddr, BufferError> {
        match self.queues.get(queue as usize).copied() {
            None => Err(BufferError::BadQueue),
            Some(q) if q.tail - q.head >= self.cells_per_queue => Err(BufferError::QueueFull),
            Some(q) => {
                let addr = self.cell_addr(queue, q.tail);
                self.queues[queue as usize].tail += 1;
                self.stats.enqueued += 1;
                Ok(addr)
            }
        }
    }

    /// Admission-checks a dequeue at schedule time, committing the head
    /// move and the in-flight entry; returns the cell address.
    #[inline]
    fn admit_dequeue(&mut self, queue: u32) -> Result<LineAddr, BufferError> {
        match self.queues.get(queue as usize).copied() {
            None => Err(BufferError::BadQueue),
            Some(q) if q.tail == q.head => Err(BufferError::QueueEmpty),
            Some(q) => {
                let addr = self.cell_addr(queue, q.head);
                self.queues[queue as usize].head += 1;
                self.in_flight.push_back(queue);
                self.stats.dequeued += 1;
                Ok(addr)
            }
        }
    }

    /// Runs the admitted request lane through the memory (calling
    /// `overlap` once while it executes) and pairs the epoch's responses
    /// into the report.
    fn finish_epoch(
        &mut self,
        len: u64,
        sparse: Vec<(u64, Request)>,
        report: &mut BufferEpochReport,
        overlap: &mut dyn FnMut(),
    ) {
        // A full epoch — one accepted event on every cycle, which is the
        // steady state at line rate — needs no sparse gap-jumping at all:
        // strictly increasing offsets below `len` that number `len` are
        // exactly `0..len`, so the span goes through the dense
        // batch-issue door (batched hashing/routing, no skip machinery).
        let run = if sparse.len() as u64 == len {
            let dense: Vec<Request> = sparse.into_iter().map(|(_, req)| req).collect();
            self.mem.issue_batch_overlapped(&dense, overlap)
        } else {
            self.mem.run_epoch_sparse_overlapped(len, &sparse, overlap)
        };
        report.stalled = run.stalled;
        self.stats.memory_stalls += run.stalled;
        report.delivered.reserve(run.responses.len());
        for r in run.responses {
            let queue = self.pair_response_queue(r.addr.0);
            self.stats.delivered += 1;
            report.delivered.push(EpochDelivery {
                cell: DequeuedCell { queue, data: r.data },
                completed_at: r.completed_at.as_u64(),
            });
        }
    }

    /// In-flight dequeues awaiting a response.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// After the memory is fully drained (`outstanding() == 0`), any
    /// entries still in the in-flight FIFO are orphans of stalled
    /// epoch-path reads; this pops and counts them as
    /// [`PacketBufferStats::lost_reads`], returning how many there were.
    pub fn reconcile_lost(&mut self) -> u64 {
        debug_assert_eq!(self.mem.outstanding(), 0, "reconcile before drain");
        let lost = self.in_flight.len() as u64;
        self.stats.lost_reads += lost;
        self.in_flight.clear();
        lost
    }

    /// Ticks with no events until every in-flight dequeue has been
    /// delivered.
    pub fn drain(&mut self) -> Vec<DequeuedCell> {
        let mut out = Vec::new();
        let budget = (self.in_flight.len() as u64 + 2) * self.delay();
        for _ in 0..budget {
            if self.in_flight.is_empty() && self.pending.is_empty() {
                break;
            }
            if let Ok(Some(cell)) = self.tick(None) {
                out.push(cell);
            }
        }
        out.extend(self.pending.drain(..));
        out
    }
}

#[derive(Debug, Clone, Copy)]
enum Action {
    None,
    Enqueue(u32),
    Dequeue(u32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpnm_workloads::packets::payload_bytes;

    fn buffer() -> VpnmPacketBuffer {
        VpnmPacketBuffer::new(VpnmConfig::test_roomy(), 8, 32, 5).unwrap()
    }

    #[test]
    fn fifo_order_per_queue() {
        let mut buf = buffer();
        for seq in 0..10u64 {
            buf.tick(Some(BufferEvent::Enqueue { queue: 2, cell: payload_bytes(2, seq, 8) }))
                .unwrap();
        }
        assert_eq!(buf.occupancy(2), 10);
        let mut got = Vec::new();
        for _ in 0..10 {
            got.extend(buf.tick(Some(BufferEvent::Dequeue { queue: 2 })).unwrap());
        }
        got.extend(buf.drain());
        assert_eq!(got.len(), 10);
        for (seq, cell) in got.iter().enumerate() {
            assert_eq!(cell.queue, 2);
            assert_eq!(cell.data, payload_bytes(2, seq as u64, 8));
        }
        assert_eq!(buf.occupancy(2), 0);
    }

    #[test]
    fn queues_are_independent() {
        let mut buf = buffer();
        buf.tick(Some(BufferEvent::Enqueue { queue: 0, cell: vec![0xA] })).unwrap();
        buf.tick(Some(BufferEvent::Enqueue { queue: 1, cell: vec![0xB] })).unwrap();
        buf.tick(Some(BufferEvent::Dequeue { queue: 1 })).unwrap();
        buf.tick(Some(BufferEvent::Dequeue { queue: 0 })).unwrap();
        let cells = buf.drain();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].queue, 1);
        assert_eq!(cells[0].data[0], 0xB);
        assert_eq!(cells[1].queue, 0);
        assert_eq!(cells[1].data[0], 0xA);
    }

    #[test]
    fn empty_and_full_rejections() {
        let mut buf = VpnmPacketBuffer::new(VpnmConfig::test_roomy(), 2, 2, 1).unwrap();
        assert_eq!(
            buf.tick(Some(BufferEvent::Dequeue { queue: 0 })).unwrap_err(),
            BufferError::QueueEmpty
        );
        buf.tick(Some(BufferEvent::Enqueue { queue: 0, cell: vec![1] })).unwrap();
        buf.tick(Some(BufferEvent::Enqueue { queue: 0, cell: vec![2] })).unwrap();
        assert_eq!(
            buf.tick(Some(BufferEvent::Enqueue { queue: 0, cell: vec![3] })).unwrap_err(),
            BufferError::QueueFull
        );
        assert_eq!(buf.stats().queue_rejections, 2);
    }

    #[test]
    fn bad_queue_rejected() {
        let mut buf = buffer();
        assert_eq!(
            buf.tick(Some(BufferEvent::Dequeue { queue: 99 })).unwrap_err(),
            BufferError::BadQueue
        );
    }

    #[test]
    fn ring_reuse_wraps_cleanly() {
        let mut buf = VpnmPacketBuffer::new(VpnmConfig::test_roomy(), 1, 4, 2).unwrap();
        // push/pop 20 cells through a 4-cell ring
        let mut delivered = Vec::new();
        for seq in 0..20u64 {
            buf.tick(Some(BufferEvent::Enqueue { queue: 0, cell: payload_bytes(0, seq, 8) }))
                .unwrap();
            delivered.extend(buf.tick(Some(BufferEvent::Dequeue { queue: 0 })).unwrap());
        }
        delivered.extend(buf.drain());
        assert_eq!(delivered.len(), 20);
        for (seq, cell) in delivered.iter().enumerate() {
            assert_eq!(cell.data, payload_bytes(0, seq as u64, 8), "cell {seq}");
        }
    }

    #[test]
    fn pointer_sram_matches_paper_sizing() {
        // Paper: 4096 queues fit in ~32 KB of pointer SRAM.
        let buf = VpnmPacketBuffer::new(
            VpnmConfig { addr_bits: 32, ..VpnmConfig::paper_optimal() },
            4096,
            1 << 20,
            0,
        )
        .unwrap();
        let kb = buf.pointer_sram_bytes() as f64 / 1024.0;
        assert!((16.0..=48.0).contains(&kb), "pointer SRAM {kb} KB should be ~32 KB");
    }

    #[test]
    fn region_overflow_rejected() {
        let err = VpnmPacketBuffer::new(VpnmConfig::test_roomy(), 1 << 16, 1 << 16, 0).unwrap_err();
        assert!(err.contains("addresses"));
    }

    #[test]
    fn fabric_backed_buffer_preserves_fifo_and_latency() {
        use vpnm_core::fabric::ChannelSelect;

        let config = FabricConfig {
            channels: 4,
            select: ChannelSelect::UniversalHash,
            base: VpnmConfig::test_roomy(),
            qos: None,
        };
        let mut buf = VpnmPacketBuffer::new_fabric(config, 8, 32, 5).unwrap();
        assert_eq!(buf.memory().num_channels(), 4);
        for seq in 0..10u64 {
            buf.tick(Some(BufferEvent::Enqueue { queue: 2, cell: payload_bytes(2, seq, 8) }))
                .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..10 {
            got.extend(buf.tick(Some(BufferEvent::Dequeue { queue: 2 })).unwrap());
        }
        got.extend(buf.drain());
        assert_eq!(got.len(), 10);
        for (seq, cell) in got.iter().enumerate() {
            assert_eq!(cell.queue, 2);
            assert_eq!(cell.data, payload_bytes(2, seq as u64, 8));
        }
        // The merged snapshot spans all four channels and records every
        // memory operation the buffer issued (10 writes + 10 reads).
        let snap = buf.memory().merged_snapshot().expect("fabric keeps metrics");
        assert_eq!(snap.channels, 4);
        assert_eq!(snap.metrics.reads_accepted, 10);
        assert_eq!(snap.metrics.writes_accepted, 10);
    }

    #[test]
    fn single_channel_fabric_buffer_matches_bare_buffer() {
        let mut bare = buffer();
        let mut fab =
            VpnmPacketBuffer::new_fabric(FabricConfig::single(VpnmConfig::test_roomy()), 8, 32, 5)
                .unwrap();
        for seq in 0..6u64 {
            let ev = BufferEvent::Enqueue { queue: 1, cell: payload_bytes(1, seq, 8) };
            assert_eq!(bare.tick(Some(ev.clone())).unwrap(), fab.tick(Some(ev)).unwrap());
        }
        for _ in 0..6 {
            let ev = BufferEvent::Dequeue { queue: 1 };
            assert_eq!(bare.tick(Some(ev.clone())).unwrap(), fab.tick(Some(ev)).unwrap());
        }
        assert_eq!(bare.drain(), fab.drain());
        assert_eq!(bare.stats(), fab.stats());
    }

    #[test]
    fn epoch_path_matches_tick_path() {
        let mut tick_buf = buffer();
        let mut epoch_buf = buffer();

        // 40 cycles: enqueue on even cycles, dequeue on cycles ≡ 1 (mod 4),
        // idle otherwise; includes a premature dequeue rejection at cycle 1.
        let mut events = Vec::new();
        let mut seq = 0u64;
        for offset in 0..40u64 {
            if offset % 2 == 0 {
                events.push((
                    offset,
                    BufferEvent::Enqueue { queue: 3, cell: payload_bytes(3, seq, 8) },
                ));
                seq += 1;
            } else if offset % 4 == 1 {
                events.push((offset, BufferEvent::Dequeue { queue: 3 }));
            }
        }

        let mut tick_outcomes = Vec::new();
        let mut tick_cells = Vec::new();
        let mut it = events.iter().peekable();
        for offset in 0..40u64 {
            let ev = match it.peek() {
                Some((o, ev)) if *o == offset => {
                    it.next();
                    Some(ev.clone())
                }
                _ => None,
            };
            let is_event = ev.is_some();
            match tick_buf.tick(ev) {
                Ok(cell) => {
                    if is_event {
                        tick_outcomes.push(Ok(()));
                    }
                    tick_cells.extend(cell);
                }
                Err(e) => tick_outcomes.push(Err(e)),
            }
        }
        tick_cells.extend(tick_buf.drain());

        let report = epoch_buf.run_epoch(40, &events);
        assert_eq!(report.stalled, 0);
        assert_eq!(report.outcomes, tick_outcomes);
        // Deliveries due within the epoch carry the deterministic
        // completion cycle: issue cycle + delay.
        for d in &report.delivered {
            assert!(d.completed_at < 40 + epoch_buf.delay());
        }
        let mut epoch_cells: Vec<DequeuedCell> =
            report.delivered.into_iter().map(|d| d.cell).collect();
        epoch_cells.extend(epoch_buf.drain());
        assert_eq!(epoch_cells, tick_cells);
        assert_eq!(epoch_buf.stats(), tick_buf.stats());
        assert_eq!(epoch_buf.stats().lost_reads, 0);
        assert_eq!(epoch_buf.in_flight(), 0);
        assert_eq!(epoch_buf.reconcile_lost(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn epoch_rejects_unsorted_offsets() {
        let mut buf = buffer();
        buf.run_epoch(
            8,
            &[
                (3, BufferEvent::Enqueue { queue: 0, cell: vec![1] }),
                (3, BufferEvent::Enqueue { queue: 0, cell: vec![2] }),
            ],
        );
    }

    #[test]
    fn epoch_path_drives_fabric_parallel_runner() {
        use vpnm_core::fabric::ChannelSelect;

        let config = FabricConfig {
            channels: 4,
            select: ChannelSelect::UniversalHash,
            base: VpnmConfig::test_roomy(),
            qos: None,
        };
        let mut buf = VpnmPacketBuffer::new_fabric(config, 8, 32, 5).unwrap();
        let mut events = Vec::new();
        for seq in 0..16u64 {
            events.push((seq, BufferEvent::Enqueue { queue: 5, cell: payload_bytes(5, seq, 8) }));
        }
        for seq in 0..16u64 {
            events.push((16 + seq, BufferEvent::Dequeue { queue: 5 }));
        }
        let report = buf.run_epoch(64, &events);
        assert!(report.outcomes.iter().all(Result::is_ok));
        assert_eq!(report.stalled, 0);
        let mut got: Vec<DequeuedCell> = report.delivered.into_iter().map(|d| d.cell).collect();
        got.extend(buf.drain());
        assert_eq!(got.len(), 16);
        for (seq, cell) in got.iter().enumerate() {
            assert_eq!(cell.queue, 5);
            assert_eq!(cell.data, payload_bytes(5, seq as u64, 8));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use vpnm_core::VpnmConfig;
    use vpnm_workloads::packets::payload_bytes;

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Enq(u8),
        Deq(u8),
        Idle,
    }

    fn ev() -> impl Strategy<Value = Ev> {
        prop_oneof![
            3 => (0u8..4).prop_map(Ev::Enq),
            2 => (0u8..4).prop_map(Ev::Deq),
            1 => Just(Ev::Idle),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// FIFO-per-queue holds for arbitrary event interleavings: every
        /// delivered cell carries exactly the payload written at its
        /// position, and cell counts conserve.
        #[test]
        fn fifo_conservation(events in proptest::collection::vec(ev(), 1..250)) {
            let mut buf = VpnmPacketBuffer::new(VpnmConfig::test_roomy(), 4, 16, 9).unwrap();
            let mut seqs = [0u64; 4];
            let mut expect = [0u64; 4];
            let mut accepted_deqs = 0u64;
            let mut delivered = 0u64;
            for e in &events {
                let event = match e {
                    Ev::Enq(q) => Some(BufferEvent::Enqueue {
                        queue: u32::from(*q),
                        cell: payload_bytes(u32::from(*q), seqs[*q as usize], 8),
                    }),
                    Ev::Deq(q) => Some(BufferEvent::Dequeue { queue: u32::from(*q) }),
                    Ev::Idle => None,
                };
                match buf.tick(event) {
                    Ok(cell) => {
                        match e {
                            Ev::Enq(q) => seqs[*q as usize] += 1,
                            Ev::Deq(_) => accepted_deqs += 1,
                            Ev::Idle => {}
                        }
                        if let Some(c) = cell {
                            let q = c.queue as usize;
                            prop_assert_eq!(&c.data, &payload_bytes(c.queue, expect[q], 8));
                            expect[q] += 1;
                            delivered += 1;
                        }
                    }
                    Err(BufferError::QueueEmpty | BufferError::QueueFull) => {}
                    Err(other) => prop_assert!(false, "unexpected rejection {other:?}"),
                }
            }
            for c in buf.drain() {
                let q = c.queue as usize;
                prop_assert_eq!(&c.data, &payload_bytes(c.queue, expect[q], 8));
                expect[q] += 1;
                delivered += 1;
            }
            prop_assert_eq!(delivered, accepted_deqs);
            for q in 0..4usize {
                prop_assert_eq!(buf.occupancy(q as u32), seqs[q] - expect[q]);
            }
        }

        /// The epoch-batched drive path is observationally equivalent to
        /// the per-tick path for arbitrary stall-free event interleavings:
        /// identical per-event outcomes, identical delivered-cell sequence,
        /// identical stats.
        #[test]
        fn epoch_matches_tick(events in proptest::collection::vec(ev(), 1..250)) {
            let mut tick_buf = VpnmPacketBuffer::new(VpnmConfig::test_roomy(), 4, 16, 9).unwrap();
            let mut epoch_buf = VpnmPacketBuffer::new(VpnmConfig::test_roomy(), 4, 16, 9).unwrap();
            let len = events.len() as u64;

            // Payloads keyed by cycle offset (not per-queue seq) so both
            // paths submit byte-identical requests regardless of
            // acceptance history.
            let mut batch = Vec::new();
            for (offset, e) in events.iter().enumerate() {
                let event = match e {
                    Ev::Enq(q) => BufferEvent::Enqueue {
                        queue: u32::from(*q),
                        cell: payload_bytes(u32::from(*q), offset as u64, 8),
                    },
                    Ev::Deq(q) => BufferEvent::Dequeue { queue: u32::from(*q) },
                    Ev::Idle => continue,
                };
                batch.push((offset as u64, event));
            }

            let mut tick_outcomes = Vec::new();
            let mut tick_cells = Vec::new();
            let mut it = batch.iter().peekable();
            for offset in 0..len {
                let ev = match it.peek() {
                    Some((o, ev)) if *o == offset => {
                        it.next();
                        Some(ev.clone())
                    }
                    _ => None,
                };
                let is_event = ev.is_some();
                match tick_buf.tick(ev) {
                    Ok(cell) => {
                        if is_event {
                            tick_outcomes.push(Ok(()));
                        }
                        tick_cells.extend(cell);
                    }
                    Err(e) => tick_outcomes.push(Err(e)),
                }
            }
            tick_cells.extend(tick_buf.drain());

            let report = epoch_buf.run_epoch(len, &batch);
            prop_assert_eq!(report.stalled, 0);
            prop_assert_eq!(&report.outcomes, &tick_outcomes);
            let mut epoch_cells: Vec<DequeuedCell> =
                report.delivered.into_iter().map(|d| d.cell).collect();
            epoch_cells.extend(epoch_buf.drain());
            prop_assert_eq!(epoch_cells, tick_cells);
            prop_assert_eq!(epoch_buf.stats(), tick_buf.stats());
        }

        /// The arena-backed epoch path is byte-identical to the owned
        /// `BufferEvent` epoch path for arbitrary interleavings: same
        /// outcomes, same delivered cells, same stats — only the payload
        /// carrier (span into shared arena vs per-event `Vec`) differs.
        #[test]
        fn arena_epoch_matches_event_epoch(events in proptest::collection::vec(ev(), 1..250)) {
            let mut ev_buf = VpnmPacketBuffer::new(VpnmConfig::test_roomy(), 4, 16, 9).unwrap();
            let mut ar_buf = VpnmPacketBuffer::new(VpnmConfig::test_roomy(), 4, 16, 9).unwrap();
            let len = events.len() as u64;

            let mut arena = Vec::new();
            let mut batch = Vec::new();
            let mut lane = Vec::new();
            for (offset, e) in events.iter().enumerate() {
                match e {
                    Ev::Enq(q) => {
                        let cell = payload_bytes(u32::from(*q), offset as u64, 8);
                        let start = arena.len() as u32;
                        arena.extend_from_slice(&cell);
                        batch.push((
                            offset as u64,
                            BufferEvent::Enqueue { queue: u32::from(*q), cell },
                        ));
                        lane.push((offset as u64, LaneEvent::Enqueue {
                            queue: u32::from(*q),
                            start,
                            end: arena.len() as u32,
                            tenant: 0,
                        }));
                    }
                    Ev::Deq(q) => {
                        batch.push((offset as u64, BufferEvent::Dequeue { queue: u32::from(*q) }));
                        lane.push((
                            offset as u64,
                            LaneEvent::Dequeue { queue: u32::from(*q), tenant: 0 },
                        ));
                    }
                    Ev::Idle => {}
                }
            }

            let ev_report = ev_buf.run_epoch(len, &batch);
            let ar_report = ar_buf.run_epoch_arena(len, &lane, &Bytes::from(arena));
            prop_assert_eq!(ev_report, ar_report);
            let ev_drained = ev_buf.drain();
            prop_assert_eq!(ev_drained, ar_buf.drain());
            prop_assert_eq!(ev_buf.stats(), ar_buf.stats());
        }
    }
}
