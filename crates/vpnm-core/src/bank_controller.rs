//! The per-bank controller — the state machine of paper Figure 3,
//! assembled from the delay storage buffer, bank access queue, and write
//! buffer.
//!
//! Each bank controller independently upholds the invariant that a read
//! accepted at interface cycle `t` is answered at exactly `t + D` (paper
//! Section 3.3: "each bank controller is in charge of ensuring that for
//! every access at time t, it returns the result at time t + D"). Because
//! at most one request enters the whole controller per interface cycle, at
//! most one bank controller can have a playback due on any cycle, so no
//! coordination between banks is needed — and for the same reason the
//! playback *timing* wheel lives in the owning controller as one shared
//! [`CircularDelayBuffer`](crate::delay_line::CircularDelayBuffer) keyed
//! by `(bank, row)`, instead of `B` per-bank wheels all spinning in
//! lockstep. The bank controller exposes [`BankController::playback`] for
//! the owner to call when a scheduled row falls due.

use crate::access_queue::{AccessEntry, BankAccessQueue};
use crate::delay_storage::{DelayStorageBuffer, Playback, RowId};
use crate::request::{LineAddr, StallKind};
use crate::write_buffer::WriteBuffer;
use bytes::Bytes;
use vpnm_dram::DramDevice;
use vpnm_sim::Cycle;

/// One request as seen by a bank controller (after the hash stage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BankEvent {
    /// A read of `addr`.
    Read {
        /// Cell address.
        addr: LineAddr,
    },
    /// A write of `data` to `addr`.
    Write {
        /// Cell address.
        addr: LineAddr,
        /// Cell contents (refcounted; cloning does not copy).
        data: Bytes,
    },
}

/// Post-grant facts from one [`BankController::on_bus_grant`], packed
/// into the single return value so the controller's dense scheduling
/// lanes (busy-until, queue depth) resync without further method calls
/// on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantOutcome {
    /// Whether the grant retired a completed access (freed a queue slot).
    pub retired: bool,
    /// Whether the grant issued a new access to the DRAM.
    pub issued: bool,
    /// The bank's in-service horizon after the grant, `0` when idle —
    /// the dense-lane encoding of [`BankController::in_service_until`].
    pub busy_until: u64,
    /// Access-queue depth after the grant.
    pub depth: u32,
}

/// What the accepted event scheduled, reported back to the top-level
/// controller for metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accepted {
    /// A fresh read was queued for the bank (row allocated).
    ReadQueued(RowId),
    /// A redundant read was merged into an existing row.
    ReadMerged(RowId),
    /// A write was buffered.
    WriteBuffered,
}

/// The controller for one memory bank — the paper's per-bank state
/// machine of Figure 3, composing the delay storage buffer (DSB), the
/// bank access queue, and the write buffer. (The circular delay buffer is
/// shared across banks and lives in the owning [`crate::VpnmController`].)
#[derive(Debug, Clone)]
pub struct BankController {
    bank: u32,
    storage: DelayStorageBuffer,
    queue: BankAccessQueue,
    writes: WriteBuffer,
    /// Completion time of the access currently using the bank. The front
    /// queue entry stays in the queue until this passes, so `Q` bounds the
    /// number of *overlapping* accesses (queued + in service) — the
    /// paper's definition (`Q = D/L` in Figure 1).
    in_service_until: Option<Cycle>,
    /// Whether redundant reads merge into live rows (ablation knob).
    merging: bool,
}

impl BankController {
    /// Creates a controller for `bank` with capacities `k` (storage rows),
    /// `q` (access queue) and `wb` (write buffer).
    pub fn new(bank: u32, k: usize, q: usize, wb: usize) -> Self {
        BankController {
            bank,
            storage: DelayStorageBuffer::new(k),
            queue: BankAccessQueue::new(q),
            writes: WriteBuffer::new(wb),
            in_service_until: None,
            merging: true,
        }
    }

    /// Disables (or re-enables) redundant-request merging — the ablation
    /// that shows why the paper's merging queue is necessary.
    pub fn with_merging(mut self, enabled: bool) -> Self {
        self.merging = enabled;
        self
    }

    /// The bank index this controller owns.
    pub fn bank(&self) -> u32 {
        self.bank
    }

    /// Attempts to accept an event this interface cycle.
    ///
    /// On success, a read returns the delay-storage row that the caller
    /// must schedule for playback exactly `D` interface cycles later.
    ///
    /// # Errors
    ///
    /// The stall kind when a buffer is exhausted; the event is **not**
    /// partially applied.
    #[inline]
    pub fn submit(&mut self, event: BankEvent) -> Result<Accepted, StallKind> {
        match event {
            BankEvent::Read { addr } => {
                // One CAM probe serves both the merge lookup and (on a
                // miss) the insert position for the fresh allocation.
                let hint = if self.merging {
                    match self.storage.lookup_hinted(addr) {
                        Ok(row) => {
                            // Redundant access: merge, no bank access
                            // needed (paper Figure 1, middle graph).
                            self.storage.merge(row);
                            return Ok(Accepted::ReadMerged(row));
                        }
                        Err(hint) => Some(hint),
                    }
                } else {
                    None
                };
                // Check queue space before allocating so no rollback is
                // ever needed.
                if self.queue.is_full() {
                    return Err(StallKind::AccessQueue);
                }
                let row = match hint {
                    Some(hint) => self.storage.allocate_hinted(addr, hint),
                    None => self.storage.allocate(addr),
                };
                let Some(row) = row else {
                    return Err(StallKind::DelayStorage);
                };
                self.queue.push(AccessEntry::Read { row }).expect("checked for space above");
                Ok(Accepted::ReadQueued(row))
            }
            BankEvent::Write { addr, data } => {
                if self.writes.is_full() {
                    return Err(StallKind::WriteBuffer);
                }
                if self.queue.is_full() {
                    return Err(StallKind::AccessQueue);
                }
                self.writes.push(addr, data).expect("checked for space above");
                self.queue.push(AccessEntry::Write).expect("checked for space above");
                // New readers must re-fetch from the bank; in-flight
                // readers keep the pre-write data (paper Section 4.2).
                self.storage.invalidate(addr);
                Ok(Accepted::WriteBuffered)
            }
        }
    }

    /// Plays back a row whose deadline arrived: the owning controller's
    /// delay wheel decides *when*; this consumes one counter tick and
    /// returns the served address + data (`None` data = deadline miss).
    #[inline]
    pub fn playback(&mut self, row: RowId) -> Playback {
        self.storage.playback(row)
    }

    /// Called when the round-robin bus scheduler grants this bank a memory
    /// cycle: retires the in-service access if it completed, then issues
    /// the oldest queued access to the DRAM if the bank is free. Returns
    /// the post-grant scheduling facts in one [`GrantOutcome`] so the
    /// controller's dense lanes need no follow-up accessor calls.
    ///
    /// # Panics
    ///
    /// Panics if the DRAM rejects an access for a reason other than a busy
    /// bank (range errors indicate controller/device misconfiguration).
    #[inline]
    pub fn on_bus_grant(&mut self, dram: &mut DramDevice, now_mem: Cycle) -> GrantOutcome {
        // Retire a completed access: its queue slot frees only now, so
        // Q bounds overlapping accesses including the one in service.
        let mut retired = false;
        if let Some(until) = self.in_service_until {
            if now_mem < until {
                // bank busy — the grant is wasted
                return GrantOutcome {
                    retired: false,
                    issued: false,
                    busy_until: until.as_u64(),
                    depth: self.queue.len() as u32,
                };
            }
            self.queue.pop();
            self.in_service_until = None;
            retired = true;
        }
        // A grant to a busy bank is simply wasted (paper Section 4: "some
        // of the round-robin slots are not used when … the memory bank is
        // busy") and must not count as a conflict in device stats — the
        // `try_issue` variants fold that readiness peek into the issue
        // itself, so the busy window is tested once, not twice.
        let busy_until = match self.queue.front().copied() {
            None => 0,
            Some(AccessEntry::Read { row }) => {
                let addr = self.storage.row_addr(row);
                match dram
                    .try_issue_read(self.bank, addr.0, now_mem)
                    .unwrap_or_else(|e| panic!("unexpected DRAM error: {e}"))
                {
                    Some(grant) => {
                        self.storage.fill(row, grant.data);
                        self.in_service_until = Some(grant.data_ready_at);
                        grant.data_ready_at.as_u64()
                    }
                    None => 0,
                }
            }
            Some(AccessEntry::Write) => {
                let w = self.writes.front().expect("Write queue entry implies buffered write");
                match dram
                    .try_issue_write(self.bank, w.addr.0, w.data.clone(), now_mem)
                    .unwrap_or_else(|e| panic!("unexpected DRAM error: {e}"))
                {
                    Some(done) => {
                        self.writes.pop().expect("front checked above");
                        self.in_service_until = Some(done);
                        done.as_u64()
                    }
                    None => 0,
                }
            }
        };
        GrantOutcome {
            retired,
            issued: busy_until != 0,
            busy_until,
            depth: self.queue.len() as u32,
        }
    }

    /// Warms the delay-storage row an upcoming playback will touch (see
    /// [`DelayStorageBuffer::prefetch_row`]). Semantically a no-op.
    #[inline]
    pub fn prefetch_row(&self, row: RowId) {
        self.storage.prefetch_row(row);
    }

    /// Rows currently live in the delay storage buffer.
    pub fn storage_occupancy(&self) -> usize {
        self.storage.live_rows()
    }

    /// Entries currently in the bank access queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Entries currently in the write buffer.
    pub fn write_buffer_depth(&self) -> usize {
        self.writes.len()
    }

    /// The memory cycle the in-service access completes at, if one is in
    /// service. Until it passes, every bus grant to this bank is wasted —
    /// the busy-horizon skip uses this to prove whole grant windows
    /// state-free.
    pub fn in_service_until(&self) -> Option<Cycle> {
        self.in_service_until
    }

    /// True when a bus grant at `now` would do useful work: there is
    /// queued work and the bank is (or will just have become) free. Used
    /// by the work-conserving scheduler ablation.
    pub fn wants_grant(&self, now: Cycle) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        match self.in_service_until {
            Some(until) => now >= until && self.queue.len() > 1,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay_line::CircularDelayBuffer;
    use vpnm_dram::DramConfig;

    fn dram() -> DramDevice {
        // 4 banks, L = 3, 8-byte cells, 64 cells/bank
        DramDevice::new(DramConfig::tiny_test())
    }

    const D: u64 = 10;

    fn controller() -> BankController {
        BankController::new(1, 4, 4, 2)
    }

    /// Test harness pairing one bank controller with its own delay wheel,
    /// as the pre-refactor BankController embedded (the production
    /// controller shares one wheel across banks; with a single bank the
    /// two are identical).
    struct Harness {
        bc: BankController,
        wheel: CircularDelayBuffer,
    }

    impl Harness {
        fn new(bc: BankController, d: u64) -> Self {
            Harness { bc, wheel: CircularDelayBuffer::new(d as usize) }
        }

        fn advance(&mut self, incoming: Option<RowId>) -> Option<Playback> {
            let due = self.wheel.tick(incoming)?;
            Some(self.bc.playback(due))
        }

        fn advance_until_due(&mut self) -> Playback {
            for _ in 0..2 * self.wheel.delay() {
                if let Some(pb) = self.advance(None) {
                    return pb;
                }
            }
            panic!("no playback within 2D cycles");
        }
    }

    #[test]
    fn read_lifecycle_end_to_end() {
        let mut h = Harness::new(controller(), D);
        let mut d = dram();
        d.poke(1, 5, vec![0xAB]);

        let acc = h.bc.submit(BankEvent::Read { addr: LineAddr(5) }).unwrap();
        let Accepted::ReadQueued(row) = acc else { panic!("expected fresh read") };

        // schedule into delay line at t0; grant the bank before the
        // deadline
        assert!(h.advance(Some(row)).is_none());
        assert!(h.bc.on_bus_grant(&mut d, Cycle::new(1)).issued);
        // ticks 1..9: nothing due
        for _ in 1..10 {
            assert!(h.advance(None).is_none());
        }
        // tick 10 (= D): playback
        let pb = h.advance(None).expect("due at D");
        assert_eq!(pb.addr, LineAddr(5));
        assert_eq!(pb.data.as_deref().map(|d| d[0]), Some(0xAB));
        assert_eq!(h.bc.storage_occupancy(), 0, "row freed after playback");
    }

    #[test]
    fn merged_read_plays_twice_with_one_bank_access() {
        let mut h = Harness::new(controller(), D);
        let mut d = dram();
        d.poke(1, 7, vec![0x11]);

        let Accepted::ReadQueued(row) = h.bc.submit(BankEvent::Read { addr: LineAddr(7) }).unwrap()
        else {
            panic!()
        };
        h.advance(Some(row));
        let Accepted::ReadMerged(row2) =
            h.bc.submit(BankEvent::Read { addr: LineAddr(7) }).unwrap()
        else {
            panic!("second read of same addr must merge")
        };
        assert_eq!(row, row2);
        h.advance(Some(row2));
        h.bc.on_bus_grant(&mut d, Cycle::new(1));
        assert_eq!(d.stats().reads, 1, "exactly one bank access for two reads");

        for _ in 2..10 {
            assert!(h.advance(None).is_none());
        }
        let pb1 = h.advance(None).unwrap();
        let pb2 = h.advance(None).unwrap();
        assert_eq!(pb1.data.as_deref(), Some(&[0x11, 0, 0, 0, 0, 0, 0, 0][..]));
        assert_eq!(pb1.data, pb2.data);
    }

    #[test]
    fn queue_stall_when_q_exhausted() {
        let mut bc = BankController::new(0, 8, 2, 2);
        bc.submit(BankEvent::Read { addr: LineAddr(1) }).unwrap();
        bc.submit(BankEvent::Read { addr: LineAddr(2) }).unwrap();
        let err = bc.submit(BankEvent::Read { addr: LineAddr(3) }).unwrap_err();
        assert_eq!(err, StallKind::AccessQueue);
        // but a merge of an in-flight address still works
        assert!(matches!(
            bc.submit(BankEvent::Read { addr: LineAddr(1) }),
            Ok(Accepted::ReadMerged(_))
        ));
    }

    #[test]
    fn storage_stall_when_k_exhausted() {
        // K = 2, Q = 8: storage fills first
        let mut bc = BankController::new(0, 2, 8, 2);
        bc.submit(BankEvent::Read { addr: LineAddr(1) }).unwrap();
        bc.submit(BankEvent::Read { addr: LineAddr(2) }).unwrap();
        let err = bc.submit(BankEvent::Read { addr: LineAddr(3) }).unwrap_err();
        assert_eq!(err, StallKind::DelayStorage);
    }

    #[test]
    fn write_buffer_stall() {
        let mut bc = BankController::new(0, 4, 8, 1);
        bc.submit(BankEvent::Write { addr: LineAddr(1), data: Bytes::new() }).unwrap();
        let err =
            bc.submit(BankEvent::Write { addr: LineAddr(2), data: Bytes::new() }).unwrap_err();
        assert_eq!(err, StallKind::WriteBuffer);
    }

    #[test]
    fn write_then_read_returns_new_data() {
        let mut h = Harness::new(controller(), D);
        let mut d = dram();
        d.poke(1, 3, vec![0x01]);

        h.bc.submit(BankEvent::Write { addr: LineAddr(3), data: vec![0x02].into() }).unwrap();
        h.advance(None);
        let Accepted::ReadQueued(row) = h.bc.submit(BankEvent::Read { addr: LineAddr(3) }).unwrap()
        else {
            panic!("read after write must not merge with stale data")
        };
        h.advance(Some(row));

        // grants: write first (FIFO), then read
        let mut now = Cycle::new(2);
        while h.bc.queue_depth() > 0 {
            if h.bc.on_bus_grant(&mut d, now).issued {
                now += 3; // wait out the bank
            } else {
                now += 1;
            }
        }
        let pb = h.advance_until_due();
        assert_eq!(pb.data.as_deref().map(|d| d[0]), Some(0x02));
    }

    #[test]
    fn read_before_write_keeps_old_data() {
        let mut h = Harness::new(controller(), D);
        let mut d = dram();
        d.poke(1, 9, vec![0xAA]);

        let Accepted::ReadQueued(row) = h.bc.submit(BankEvent::Read { addr: LineAddr(9) }).unwrap()
        else {
            panic!()
        };
        h.advance(Some(row));
        h.bc.submit(BankEvent::Write { addr: LineAddr(9), data: vec![0xBB].into() }).unwrap();
        h.advance(None);

        let mut now = Cycle::new(1);
        while h.bc.queue_depth() > 0 {
            if h.bc.on_bus_grant(&mut d, now).issued {
                now += 3;
            } else {
                now += 1;
            }
        }
        let pb = h.advance_until_due();
        // The read was issued before the write in bank FIFO order.
        assert_eq!(pb.data.as_deref().map(|d| d[0]), Some(0xAA));
        // And the write landed afterwards.
        assert_eq!(d.peek(1, 9)[0], 0xBB);
    }

    #[test]
    fn busy_bank_defers_grant_and_slots_free_on_completion() {
        let mut bc = controller();
        let mut d = dram();
        bc.submit(BankEvent::Read { addr: LineAddr(1) }).unwrap();
        bc.submit(BankEvent::Read { addr: LineAddr(2) }).unwrap();
        assert!(bc.on_bus_grant(&mut d, Cycle::new(0)).issued);
        // bank busy until cycle 3 (L = 3); the in-service access keeps its
        // queue slot so Q bounds *overlapping* accesses
        assert!(!bc.on_bus_grant(&mut d, Cycle::new(1)).issued);
        assert_eq!(bc.queue_depth(), 2);
        // completion grant retires the first access and issues the second
        assert!(bc.on_bus_grant(&mut d, Cycle::new(3)).issued);
        assert_eq!(bc.queue_depth(), 1);
        assert!(!bc.on_bus_grant(&mut d, Cycle::new(4)).issued);
        assert!(!bc.on_bus_grant(&mut d, Cycle::new(6)).issued); // retires, nothing left
        assert_eq!(bc.queue_depth(), 0);
    }

    #[test]
    fn deadline_miss_reports_none_data() {
        let mut h = Harness::new(BankController::new(0, 2, 2, 1), 2); // absurdly small D
        let Accepted::ReadQueued(row) = h.bc.submit(BankEvent::Read { addr: LineAddr(1) }).unwrap()
        else {
            panic!()
        };
        h.advance(Some(row));
        h.advance(None);
        // D = 2 elapses without any bus grant
        let pb = h.advance(None).unwrap();
        assert_eq!(pb.data, None, "unfilled row at deadline is a miss");
    }

    #[test]
    fn merging_disabled_queues_every_read() {
        let mut bc = BankController::new(0, 8, 2, 1).with_merging(false);
        assert!(matches!(
            bc.submit(BankEvent::Read { addr: LineAddr(1) }),
            Ok(Accepted::ReadQueued(_))
        ));
        assert!(
            matches!(bc.submit(BankEvent::Read { addr: LineAddr(1) }), Ok(Accepted::ReadQueued(_)),),
            "same address must NOT merge when disabled"
        );
        // Q = 2 exhausted by the duplicate
        assert_eq!(
            bc.submit(BankEvent::Read { addr: LineAddr(1) }).unwrap_err(),
            StallKind::AccessQueue
        );
    }

    #[test]
    fn wants_grant_reflects_state() {
        let mut bc = controller();
        let mut d = dram();
        assert!(!bc.wants_grant(Cycle::ZERO), "empty queue wants nothing");
        bc.submit(BankEvent::Read { addr: LineAddr(1) }).unwrap();
        assert!(bc.wants_grant(Cycle::ZERO));
        bc.on_bus_grant(&mut d, Cycle::ZERO);
        // in service, nothing else queued: no useful grant until more work
        assert!(!bc.wants_grant(Cycle::new(1)));
        bc.submit(BankEvent::Read { addr: LineAddr(2) }).unwrap();
        assert!(!bc.wants_grant(Cycle::new(1)), "bank still busy");
        assert!(bc.wants_grant(Cycle::new(3)), "completion frees the bank");
    }

    #[test]
    fn occupancy_queries() {
        let mut bc = controller();
        bc.submit(BankEvent::Read { addr: LineAddr(1) }).unwrap();
        bc.submit(BankEvent::Write { addr: LineAddr(2), data: Bytes::new() }).unwrap();
        assert_eq!(bc.storage_occupancy(), 1);
        assert_eq!(bc.queue_depth(), 2);
        assert_eq!(bc.write_buffer_depth(), 1);
        assert_eq!(bc.bank(), 1);
    }
}
