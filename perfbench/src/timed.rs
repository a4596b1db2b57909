//! A [`PipelinedMemory`] wrapper that times every call the layer above
//! makes into the memory it wraps.
//!
//! Every trait method forwards to the same method of the wrapped engine,
//! so the wrapper changes no simulated behaviour: a run through it must
//! produce the same snapshot, byte for byte, as the untraced run. The
//! four calls that move simulated time in bulk (`run_epoch`,
//! `run_epoch_sparse`, `issue_batch`, `drain`) each record one span,
//! numbered by the wrapper's own call count — the serving loop and the
//! fabric call each memory exactly once per epoch, so that count is the
//! epoch id.

use bytes::Bytes;
use vpnm_core::{
    ControllerMetrics, LineAddr, MetricsSnapshot, PipelinedMemory, Request, RunReport, TickOutput,
};
use vpnm_sim::Cycle;

use crate::trace::{Layer, Span};

/// Request addresses kept per wrapper for the hash replay.
pub const ADDR_SAMPLE: usize = 1 << 16;

/// Counters and spans a [`Timed`] wrapper recorded.
#[derive(Debug, Clone, Default)]
pub struct CallLog {
    /// One span per bulk call.
    pub spans: Vec<Span>,
    /// Bulk calls made (epochs).
    pub calls: u64,
    /// Requests presented across all calls.
    pub requests: u64,
    /// Calls through the dense `issue_batch` door.
    pub dense: u64,
    /// Calls through the sparse `run_epoch_sparse` door.
    pub sparse: u64,
    /// The first [`ADDR_SAMPLE`] request addresses, in issue order.
    pub addrs: Vec<u64>,
}

/// `inner`, with every bulk call timed as a span of `layer`.
#[derive(Debug)]
pub struct Timed<M> {
    inner: M,
    layer: Layer,
    parent: Layer,
    lane: u32,
    log: CallLog,
}

impl<M: PipelinedMemory> Timed<M> {
    /// Wraps `inner`; its spans are children of `parent` and carry `lane`.
    pub fn new(inner: M, layer: Layer, parent: Layer, lane: u32) -> Self {
        Timed { inner, layer, parent, lane, log: CallLog::default() }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// What the wrapper recorded so far.
    pub fn log(&self) -> &CallLog {
        &self.log
    }

    fn sample<'a>(&mut self, addrs: impl Iterator<Item = &'a Request>) {
        let room = ADDR_SAMPLE - self.log.addrs.len();
        self.log.addrs.extend(addrs.take(room).map(|r| r.addr().0));
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut M) -> T) -> T {
        let id = self.log.calls as u32;
        self.log.calls += 1;
        let (layer, parent, lane) = (self.layer, self.parent, self.lane);
        let inner = &mut self.inner;
        Span::time(&mut self.log.spans, layer, Some(parent), id, lane, || f(inner))
    }
}

impl<M: PipelinedMemory> PipelinedMemory for Timed<M> {
    fn delay(&self) -> u64 {
        self.inner.delay()
    }

    fn tick(&mut self, request: Option<Request>) -> TickOutput {
        self.inner.tick(request)
    }

    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }

    fn now(&self) -> Cycle {
        self.inner.now()
    }

    fn issue_read(&mut self, addr: LineAddr) -> TickOutput {
        self.inner.issue_read(addr)
    }

    fn issue_write(&mut self, addr: LineAddr, data: Bytes) -> TickOutput {
        self.inner.issue_write(addr, data)
    }

    fn bank_of(&self, addr: LineAddr) -> Option<u32> {
        self.inner.bank_of(addr)
    }

    fn drain(&mut self) -> Vec<vpnm_core::Response> {
        self.timed(|m| m.drain())
    }

    fn run_epoch(&mut self, requests: &[Option<Request>]) -> RunReport {
        self.log.requests += requests.iter().flatten().count() as u64;
        self.sample(requests.iter().flatten());
        self.timed(|m| m.run_epoch(requests))
    }

    fn run_epoch_sparse(&mut self, len: u64, requests: &[(u64, Request)]) -> RunReport {
        self.log.requests += requests.len() as u64;
        self.log.sparse += 1;
        self.sample(requests.iter().map(|(_, r)| r));
        self.timed(|m| m.run_epoch_sparse(len, requests))
    }

    fn issue_batch(&mut self, requests: &[Request]) -> RunReport {
        self.log.requests += requests.len() as u64;
        self.log.dense += 1;
        self.sample(requests.iter());
        self.timed(|m| m.issue_batch(requests))
    }

    fn metrics(&self) -> Option<&ControllerMetrics> {
        self.inner.metrics()
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.snapshot()
    }

    fn total_stalls(&self) -> u64 {
        self.inner.total_stalls()
    }
}
