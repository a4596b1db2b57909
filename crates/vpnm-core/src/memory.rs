//! The [`PipelinedMemory`] abstraction and the ideal reference
//! implementation.
//!
//! The whole point of VPNM is that algorithm designers can program against
//! "a flat deeply pipelined memory with fully deterministic latency"
//! (paper Section 1). [`PipelinedMemory`] is that programming model as a
//! trait; [`IdealMemory`] realizes it with a perfect (bank-free, stall-free)
//! memory, serving as the differential-testing oracle: whenever a
//! [`crate::VpnmController`] accepts the same request stream without
//! stalls, its responses must be byte-identical to `IdealMemory`'s.

use crate::controller::RunReport;
use crate::metrics::ControllerMetrics;
use crate::request::{LineAddr, Request, Response, TickOutput};
use crate::snapshot::MetricsSnapshot;
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use vpnm_sim::Cycle;

/// A memory with the VPNM timing abstraction: one request per interface
/// cycle in, read responses exactly `delay()` cycles later.
///
/// The first four methods are the required core; the rest is the widened
/// request-lifecycle surface (issue helpers, drain, metrics/snapshot/stall
/// observability) with object-safe defaults, so simple models like
/// [`IdealMemory`] implement only the core while both real engines
/// ([`crate::VpnmController`], [`crate::ReferenceController`]) and the
/// multi-channel [`crate::VpnmFabric`] override the full surface.
/// Differential harnesses, bins and apps can therefore drive any engine —
/// or a fabric of engines — through one generic interface.
pub trait PipelinedMemory {
    /// The deterministic read latency `D` in interface cycles.
    fn delay(&self) -> u64;

    /// Advances one interface cycle, optionally presenting a request.
    fn tick(&mut self, request: Option<Request>) -> TickOutput;

    /// Reads accepted but not yet answered.
    fn outstanding(&self) -> usize;

    /// Current interface cycle.
    fn now(&self) -> Cycle;

    /// Issues a host-tenant read this cycle:
    /// `tick(Some(Request::read(addr)))`.
    fn issue_read(&mut self, addr: LineAddr) -> TickOutput {
        self.tick(Some(Request::read(addr)))
    }

    /// Issues a host-tenant write this cycle:
    /// `tick(Some(Request::write(addr, data)))`.
    fn issue_write(&mut self, addr: LineAddr, data: Bytes) -> TickOutput {
        self.tick(Some(Request::write(addr, data)))
    }

    /// The bank `addr` maps to under this memory's (hashed) bank mapping,
    /// when the model has banks at all. The fabric's per-bank regulator
    /// keys its token buckets off this; models without banks
    /// ([`IdealMemory`]) return `None` and per-bank regulation degrades
    /// to a single bucket per tenant.
    fn bank_of(&self, addr: LineAddr) -> Option<u32> {
        let _ = addr;
        None
    }

    /// Ticks with no new requests until every outstanding read has been
    /// answered, returning the responses in delivery order.
    ///
    /// The default drives [`PipelinedMemory::tick`] under the same budget
    /// the engines use inherently (`(outstanding + 1) * D + D` cycles — a
    /// correct implementation answers everything within `D`; the slack
    /// guards against a broken one looping forever). Engines with a faster
    /// inherent drain (idle fast-forward) override this.
    fn drain(&mut self) -> Vec<Response> {
        let mut out = Vec::new();
        let budget = (self.outstanding() as u64 + 1) * self.delay() + self.delay();
        for _ in 0..budget {
            if self.outstanding() == 0 {
                break;
            }
            out.extend(self.tick(None).response);
        }
        out
    }

    /// Advances `requests.len()` interface cycles as one **epoch**,
    /// presenting `requests[i]` on cycle `i`, and returns the collected
    /// responses (in delivery order) plus acceptance counts.
    ///
    /// This is the batched front door the epoch-synchronized
    /// [`crate::VpnmFabric`] workers drive: one call hands an engine a
    /// whole span of cycles, so implementations can amortize per-cycle
    /// costs across the span. The contract is observational equivalence
    /// with the per-tick path: responses, stall accounting, clock, and
    /// metrics must be exactly what the equivalent
    /// [`PipelinedMemory::tick`] sequence produces. The one sanctioned
    /// exception is the `cycles_skipped` drive-mode counter — engines
    /// with event-horizon skipping ([`crate::VpnmController`], whose one
    /// batch drive loop serves this method, `run_epoch_sparse` and
    /// `issue_batch` alike) account skipped idle spans there, while the
    /// per-tick path grinds through them.
    fn run_epoch(&mut self, requests: &[Option<Request>]) -> RunReport {
        let mut report = RunReport::default();
        for req in requests {
            let presented = req.is_some();
            let out = self.tick(req.clone());
            if let Some(r) = out.response {
                report.responses.push(r);
            }
            match out.stall {
                None => report.accepted += u64::from(presented),
                Some(kind) if kind.is_rejection() => report.rejected += 1,
                Some(_) => report.stalled += 1,
            }
        }
        report
    }

    /// [`PipelinedMemory::run_epoch`] over a **sparse** epoch: advances
    /// `len` interface cycles presenting `requests[k].1` on cycle
    /// `requests[k].0` (offsets strictly increasing, `< len`); all other
    /// cycles are idle.
    ///
    /// Same observational-equivalence contract as `run_epoch` (it *is*
    /// the same epoch, just encoded sparsely). The default densifies and
    /// delegates, which is correct for every engine; engines with
    /// event-horizon skipping override it to jump the gaps directly —
    /// [`crate::VpnmController`]'s drive loop takes the lane as is, making
    /// the cost proportional to the requests and responses in the span
    /// rather than to `len`, and [`crate::VpnmFabric`] routes the lane
    /// without densifying it. The fabric epoch path feeds each channel
    /// through this method: a channel of a `C`-channel fabric only ever
    /// sees its own `1/C` slice of the stream.
    fn run_epoch_sparse(&mut self, len: u64, requests: &[(u64, Request)]) -> RunReport {
        let mut dense: Vec<Option<Request>> = vec![None; len as usize];
        for (offset, req) in requests {
            dense[*offset as usize] = Some(req.clone());
        }
        self.run_epoch(&dense)
    }

    /// Dense batch issue: advances exactly `requests.len()` interface
    /// cycles presenting `requests[i]` on cycle `i` — the saturated-load
    /// special case of [`PipelinedMemory::run_epoch`] where every slot
    /// carries a request, so implementations can drop the per-cycle
    /// `Option` handling and idle-gap machinery entirely and batch the
    /// address hashing / routing across the whole span.
    ///
    /// Same observational-equivalence contract as `run_epoch` over the
    /// `Some`-wrapped slice. The default ticks; [`crate::VpnmController`]
    /// hands the span to its drive loop as a dense lane, and
    /// [`crate::VpnmFabric`] to its batch-routed epoch path.
    fn issue_batch(&mut self, requests: &[Request]) -> RunReport {
        let mut report = RunReport::default();
        for req in requests {
            let out = self.tick(Some(req.clone()));
            if let Some(r) = out.response {
                report.responses.push(r);
            }
            match out.stall {
                None => report.accepted += 1,
                Some(kind) if kind.is_rejection() => report.rejected += 1,
                Some(_) => report.stalled += 1,
            }
        }
        report
    }

    /// [`PipelinedMemory::issue_batch`] with a caller hook: runs the same
    /// epoch and calls `overlap` exactly once while it executes, so the
    /// caller can do independent work (plan the next epoch, retire the
    /// previous one) instead of waiting.
    ///
    /// The hook must not depend on this epoch's outcome; where it runs
    /// is the implementation's choice. The default runs the epoch, then
    /// the hook. [`crate::VpnmFabric`] with a worker pool runs it on the
    /// caller's thread while the channels execute on the workers. The
    /// report is exactly the plain method's.
    fn issue_batch_overlapped(
        &mut self,
        requests: &[Request],
        overlap: &mut dyn FnMut(),
    ) -> RunReport {
        let report = self.issue_batch(requests);
        overlap();
        report
    }

    /// [`PipelinedMemory::run_epoch_sparse`] with a caller hook, under the
    /// same contract as [`PipelinedMemory::issue_batch_overlapped`]: the
    /// hook runs exactly once, and the report is the plain method's.
    fn run_epoch_sparse_overlapped(
        &mut self,
        len: u64,
        requests: &[(u64, Request)],
        overlap: &mut dyn FnMut(),
    ) -> RunReport {
        let report = self.run_epoch_sparse(len, requests);
        overlap();
        report
    }

    /// The aggregate metrics, for engines that keep them. `None` for
    /// models without an accounting layer ([`IdealMemory`]) and for
    /// composites whose metrics only exist in merged snapshot form
    /// ([`crate::VpnmFabric`]).
    fn metrics(&self) -> Option<&ControllerMetrics> {
        None
    }

    /// A point-in-time [`MetricsSnapshot`], for engines that keep
    /// metrics; composites return their merged fabric-level snapshot.
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }

    /// Total stalls recorded so far — the flat stall surface used by
    /// MTS-style harnesses. Zero for models that cannot stall.
    fn total_stalls(&self) -> u64 {
        self.snapshot().map_or(0, |s| s.metrics.total_stalls())
    }
}

/// Boxed engines forward everything, so `Box<dyn PipelinedMemory>` (and
/// boxed concrete engines) slot into generic harnesses unchanged.
impl<M: PipelinedMemory + ?Sized> PipelinedMemory for Box<M> {
    fn delay(&self) -> u64 {
        (**self).delay()
    }
    fn tick(&mut self, request: Option<Request>) -> TickOutput {
        (**self).tick(request)
    }
    fn outstanding(&self) -> usize {
        (**self).outstanding()
    }
    fn now(&self) -> Cycle {
        (**self).now()
    }
    fn issue_read(&mut self, addr: LineAddr) -> TickOutput {
        (**self).issue_read(addr)
    }
    fn issue_write(&mut self, addr: LineAddr, data: Bytes) -> TickOutput {
        (**self).issue_write(addr, data)
    }
    fn bank_of(&self, addr: LineAddr) -> Option<u32> {
        (**self).bank_of(addr)
    }
    fn drain(&mut self) -> Vec<Response> {
        (**self).drain()
    }
    fn run_epoch(&mut self, requests: &[Option<Request>]) -> RunReport {
        (**self).run_epoch(requests)
    }
    fn run_epoch_sparse(&mut self, len: u64, requests: &[(u64, Request)]) -> RunReport {
        (**self).run_epoch_sparse(len, requests)
    }
    fn issue_batch(&mut self, requests: &[Request]) -> RunReport {
        (**self).issue_batch(requests)
    }
    fn issue_batch_overlapped(
        &mut self,
        requests: &[Request],
        overlap: &mut dyn FnMut(),
    ) -> RunReport {
        (**self).issue_batch_overlapped(requests, overlap)
    }
    fn run_epoch_sparse_overlapped(
        &mut self,
        len: u64,
        requests: &[(u64, Request)],
        overlap: &mut dyn FnMut(),
    ) -> RunReport {
        (**self).run_epoch_sparse_overlapped(len, requests, overlap)
    }
    fn metrics(&self) -> Option<&ControllerMetrics> {
        (**self).metrics()
    }
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        (**self).snapshot()
    }
    fn total_stalls(&self) -> u64 {
        (**self).total_stalls()
    }
}

impl PipelinedMemory for crate::VpnmController {
    fn delay(&self) -> u64 {
        // Explicit paths: the inherent methods share these names.
        crate::VpnmController::delay(self)
    }

    fn tick(&mut self, request: Option<Request>) -> TickOutput {
        crate::VpnmController::tick(self, request)
    }

    fn outstanding(&self) -> usize {
        crate::VpnmController::outstanding(self)
    }

    fn now(&self) -> Cycle {
        crate::VpnmController::now(self)
    }

    fn drain(&mut self) -> Vec<Response> {
        // The inherent drain takes the idle fast-forward path.
        crate::VpnmController::drain(self)
    }

    // The three batch methods are adapters over the controller's one
    // drive loop, each handing it the span as a sparse lane of
    // `(offset, &Request)` items.
    fn run_epoch(&mut self, requests: &[Option<Request>]) -> RunReport {
        let lane = (0..).zip(requests).filter_map(|(i, r)| Some((i, r.as_ref()?)));
        self.drive(requests.len() as u64, lane)
    }

    fn run_epoch_sparse(&mut self, len: u64, requests: &[(u64, Request)]) -> RunReport {
        self.drive(len, requests.iter().map(|(offset, req)| (*offset, req)))
    }

    fn issue_batch(&mut self, requests: &[Request]) -> RunReport {
        self.drive(requests.len() as u64, (0..).zip(requests))
    }

    fn bank_of(&self, addr: LineAddr) -> Option<u32> {
        Some(crate::VpnmController::bank_of(self, addr))
    }

    fn metrics(&self) -> Option<&ControllerMetrics> {
        Some(crate::VpnmController::metrics(self))
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        Some(crate::VpnmController::snapshot(self))
    }

    fn total_stalls(&self) -> u64 {
        crate::VpnmController::metrics(self).total_stalls()
    }
}

impl PipelinedMemory for crate::ReferenceController {
    fn delay(&self) -> u64 {
        crate::ReferenceController::delay(self)
    }

    fn tick(&mut self, request: Option<Request>) -> TickOutput {
        crate::ReferenceController::tick(self, request)
    }

    fn outstanding(&self) -> usize {
        crate::ReferenceController::outstanding(self)
    }

    fn now(&self) -> Cycle {
        crate::ReferenceController::now(self)
    }

    fn drain(&mut self) -> Vec<Response> {
        crate::ReferenceController::drain(self)
    }

    fn bank_of(&self, addr: LineAddr) -> Option<u32> {
        Some(crate::ReferenceController::bank_of(self, addr))
    }

    fn metrics(&self) -> Option<&ControllerMetrics> {
        Some(crate::ReferenceController::metrics(self))
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        Some(crate::ReferenceController::snapshot(self))
    }

    fn total_stalls(&self) -> u64 {
        crate::ReferenceController::metrics(self).total_stalls()
    }
}

/// A perfect pipelined memory: flat storage, never stalls, exact `D`-cycle
/// latency. Used as the golden model in differential tests and as a
/// drop-in for application development.
///
/// ```
/// use vpnm_core::memory::{IdealMemory, PipelinedMemory};
/// use vpnm_core::{LineAddr, Request};
///
/// let mut mem = IdealMemory::new(4, 8);
/// mem.tick(Some(Request::write(LineAddr(1), vec![9])));
/// mem.tick(Some(Request::read(LineAddr(1))));
/// let mut got = None;
/// for _ in 0..4 {
///     got = got.or(mem.tick(None).response);
/// }
/// assert_eq!(got.unwrap().data[0], 9);
/// ```
#[derive(Debug, Clone)]
pub struct IdealMemory {
    delay: u64,
    cell_bytes: usize,
    store: HashMap<LineAddr, Bytes>,
    in_flight: VecDeque<PendingRead>,
    now: Cycle,
    /// Shared zero cell for reads of never-written addresses.
    zero: Bytes,
}

#[derive(Debug, Clone)]
struct PendingRead {
    addr: LineAddr,
    data: Bytes,
    issued_at: Cycle,
    due_at: Cycle,
    tenant: crate::request::TenantId,
}

impl IdealMemory {
    /// Creates an ideal memory with latency `delay` and `cell_bytes`-byte
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics if `delay == 0` or `cell_bytes == 0`.
    pub fn new(delay: u64, cell_bytes: usize) -> Self {
        assert!(delay > 0, "delay must be positive");
        assert!(cell_bytes > 0, "cell_bytes must be positive");
        IdealMemory {
            delay,
            cell_bytes,
            store: HashMap::new(),
            in_flight: VecDeque::new(),
            now: Cycle::ZERO,
            zero: Bytes::from(vec![0u8; cell_bytes]),
        }
    }

    /// Zero-time backdoor read (oracle access). Returns a refcounted view
    /// of the stored cell — no copy.
    pub fn peek(&self, addr: LineAddr) -> Bytes {
        self.store.get(&addr).cloned().unwrap_or_else(|| self.zero.clone())
    }
}

impl PipelinedMemory for IdealMemory {
    fn delay(&self) -> u64 {
        self.delay
    }

    fn tick(&mut self, request: Option<Request>) -> TickOutput {
        self.now += 1;
        if let Some(req) = request {
            match req {
                Request::Read { addr, tenant } => {
                    // Data is snapshotted at accept time: in-flight reads
                    // are not affected by later writes, matching the
                    // VPNM row-invalidation semantics.
                    let data = self.peek(addr);
                    self.in_flight.push_back(PendingRead {
                        addr,
                        data,
                        issued_at: self.now,
                        due_at: self.now + self.delay,
                        tenant,
                    });
                }
                Request::Write { addr, data, .. } => {
                    assert!(
                        data.len() <= self.cell_bytes,
                        "write of {} bytes exceeds cell size {}",
                        data.len(),
                        self.cell_bytes
                    );
                    // Pad only short writes (the single copy on this path).
                    let cell = if data.len() == self.cell_bytes {
                        data
                    } else {
                        let mut padded = data.to_vec();
                        padded.resize(self.cell_bytes, 0);
                        Bytes::from(padded)
                    };
                    self.store.insert(addr, cell);
                }
            }
        }
        let response = match self.in_flight.front() {
            Some(p) if p.due_at == self.now => {
                let p = self.in_flight.pop_front().expect("front checked");
                Some(Response {
                    addr: p.addr,
                    data: p.data,
                    issued_at: p.issued_at,
                    completed_at: p.due_at,
                    tenant: p.tenant,
                })
            }
            _ => None,
        };
        TickOutput { response, stall: None }
    }

    fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    fn now(&self) -> Cycle {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VpnmConfig, VpnmController};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ideal_memory_latency_exact() {
        let mut m = IdealMemory::new(5, 4);
        m.tick(Some(Request::read(LineAddr(0))));
        for i in 0..5u64 {
            let out = m.tick(None);
            if i < 4 {
                assert!(out.response.is_none());
            } else {
                let r = out.response.expect("due at D");
                assert_eq!(r.latency(), 5);
            }
        }
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn ideal_memory_snapshot_semantics() {
        let mut m = IdealMemory::new(3, 1);
        m.tick(Some(Request::write(LineAddr(1), vec![1])));
        m.tick(Some(Request::read(LineAddr(1))));
        // write lands while the read is in flight — read keeps snapshot
        m.tick(Some(Request::write(LineAddr(1), vec![2])));
        let mut responses = Vec::new();
        for _ in 0..4 {
            responses.extend(m.tick(None).response);
        }
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].data[0], 1);
        assert_eq!(m.peek(LineAddr(1))[0], 2);
    }

    /// The core abstraction claim of the paper, checked differentially:
    /// on any request stream VPNM accepts without stalling, its responses
    /// are identical (address, data, timing offset) to a perfect pipeline
    /// of the same depth.
    #[test]
    fn vpnm_equals_ideal_on_stall_free_streams() {
        let mut vpnm = VpnmController::new(VpnmConfig::test_roomy(), 11).unwrap();
        let mut ideal = IdealMemory::new(vpnm.delay(), 8);
        let mut rng = StdRng::seed_from_u64(21);
        let mut vpnm_rs = Vec::new();
        let mut ideal_rs = Vec::new();
        for _ in 0..5000 {
            let addr = rng.gen_range(0..256u64);
            let req = if rng.gen_bool(0.25) {
                Request::write(LineAddr(addr), vec![rng.gen::<u8>()])
            } else {
                Request::read(LineAddr(addr))
            };
            let out_v = vpnm.tick(Some(req.clone()));
            assert!(out_v.accepted(), "stall would invalidate the comparison");
            let out_i = ideal.tick(Some(req));
            vpnm_rs.extend(out_v.response);
            ideal_rs.extend(out_i.response);
        }
        // drain both
        while vpnm.outstanding() > 0 || ideal.outstanding() > 0 {
            vpnm_rs.extend(vpnm.tick(None).response);
            ideal_rs.extend(ideal.tick(None).response);
        }
        assert_eq!(vpnm_rs.len(), ideal_rs.len());
        for (v, i) in vpnm_rs.iter().zip(&ideal_rs) {
            assert_eq!(v.addr, i.addr);
            assert_eq!(v.issued_at, i.issued_at);
            assert_eq!(v.completed_at, i.completed_at);
            assert_eq!(v.data[0], i.data[0], "data mismatch at {}", v.addr);
        }
    }

    #[test]
    fn trait_object_usable() {
        let mut mems: Vec<Box<dyn PipelinedMemory>> = vec![
            Box::new(IdealMemory::new(4, 8)),
            Box::new(VpnmController::new(VpnmConfig::small_test(), 0).unwrap()),
        ];
        for m in &mut mems {
            m.tick(Some(Request::read(LineAddr(3))));
            assert_eq!(m.outstanding(), 1);
            assert!(m.delay() > 0);
        }
    }
}
