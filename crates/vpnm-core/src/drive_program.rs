//! Random drive programs for the per-layer differential proptests.
//!
//! A program is a sequence of [`PipelinedMemory`] calls — `tick`,
//! `issue_batch`, `run_epoch` with idle gaps, `run_epoch_sparse`, and the
//! two overlapped doors with a hook that must run exactly once — over a
//! mix of reads, writes and (in release builds) malformed
//! requests. Each layer's test applies the program through the named
//! methods and compares every call against a twin driven one `tick` per
//! cycle: responses, accept/stall/reject counts and the clock must agree
//! call by call.

use crate::controller::RunReport;
use crate::memory::PipelinedMemory;
use crate::request::{LineAddr, Request};
use proptest::prelude::*;

/// Address width of `VpnmConfig::small_test`, which both layers' tests
/// build on.
const ADDR_BITS: u32 = 16;
/// Cell size of `VpnmConfig::small_test`.
const CELL_BYTES: usize = 8;

/// One call of a drive program.
#[derive(Debug, Clone)]
pub enum Call {
    /// `tick` with an optional request.
    Tick(Option<Request>),
    /// `issue_batch` over a dense span.
    IssueBatch(Vec<Request>),
    /// `run_epoch` over a span with idle (`None`) cycles.
    RunEpoch(Vec<Option<Request>>),
    /// The span's `(offset, request)` encoding through
    /// `run_epoch_sparse`, with the span length as the epoch length.
    RunEpochSparse(Vec<Option<Request>>),
    /// `issue_batch_overlapped` over a dense span.
    IssueBatchOverlapped(Vec<Request>),
    /// `run_epoch_sparse_overlapped`, encoded as [`Call::RunEpochSparse`].
    RunEpochSparseOverlapped(Vec<Option<Request>>),
}

impl Call {
    /// The cycles the call covers, one slot per cycle.
    fn span(&self) -> Vec<Option<Request>> {
        match self {
            Call::Tick(req) => vec![req.clone()],
            Call::IssueBatch(reqs) | Call::IssueBatchOverlapped(reqs) => {
                reqs.iter().cloned().map(Some).collect()
            }
            Call::RunEpoch(span)
            | Call::RunEpochSparse(span)
            | Call::RunEpochSparseOverlapped(span) => span.clone(),
        }
    }
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        4 => (0u64..1 << ADDR_BITS).prop_map(|a| Request::read(LineAddr(a))),
        1 => (0u64..64, any::<u8>()).prop_map(|(a, v)| Request::write(LineAddr(a), vec![v])),
        // A few hot lines: merges, and queue pressure on their banks.
        1 => (0u64..4).prop_map(|a| Request::read(LineAddr(a * 64))),
        // Debug builds assert on malformed requests at their source, so
        // only release builds draw them.
        u32::from(!cfg!(debug_assertions)) => prop_oneof![
            Just(Request::read(LineAddr(1 << ADDR_BITS))),
            Just(Request::write(LineAddr(0), vec![0; CELL_BYTES + 1])),
        ],
    ]
}

/// Bursts of requests between idle runs, some longer than `D`.
fn span() -> impl Strategy<Value = Vec<Option<Request>>> {
    proptest::collection::vec(
        prop_oneof![
            3 => request().prop_map(|r| vec![Some(r)]),
            2 => (1usize..100).prop_map(|n| vec![None; n]),
        ],
        0..30,
    )
    .prop_map(|chunks| chunks.concat())
}

/// A random program of up to a dozen calls.
pub fn program() -> impl Strategy<Value = Vec<Call>> {
    proptest::collection::vec(
        prop_oneof![
            3 => proptest::option::of(request()).prop_map(Call::Tick),
            1 => proptest::collection::vec(request(), 0..200).prop_map(Call::IssueBatch),
            1 => span().prop_map(Call::RunEpoch),
            1 => span().prop_map(Call::RunEpochSparse),
            1 => proptest::collection::vec(request(), 0..200).prop_map(Call::IssueBatchOverlapped),
            1 => span().prop_map(Call::RunEpochSparseOverlapped),
        ],
        1..12,
    )
}

/// Applies `call` through the method it names.
pub fn apply<M: PipelinedMemory>(mem: &mut M, call: &Call) -> RunReport {
    match call {
        Call::Tick(_) => apply_ticks(mem, call),
        Call::IssueBatch(reqs) => mem.issue_batch(reqs),
        Call::RunEpoch(span) => mem.run_epoch(span),
        Call::RunEpochSparse(span) => mem.run_epoch_sparse(span.len() as u64, &sparse(span)),
        Call::IssueBatchOverlapped(reqs) => {
            hooked_once(|hook| mem.issue_batch_overlapped(reqs, hook))
        }
        Call::RunEpochSparseOverlapped(span) => hooked_once(|hook| {
            mem.run_epoch_sparse_overlapped(span.len() as u64, &sparse(span), hook)
        }),
    }
}

/// A span's `(offset, request)` encoding.
fn sparse(span: &[Option<Request>]) -> Vec<(u64, Request)> {
    (0..).zip(span).filter_map(|(i, r)| Some((i, r.clone()?))).collect()
}

/// Runs an overlapped door with a counting hook; the hook must run
/// exactly once per call, whatever path the call takes.
fn hooked_once(door: impl FnOnce(&mut dyn FnMut()) -> RunReport) -> RunReport {
    let mut calls = 0u32;
    let report = door(&mut || calls += 1);
    assert_eq!(calls, 1, "the overlap hook runs exactly once per call");
    report
}

/// Applies `call` one `tick` per cycle — the twin's only drive path.
pub fn apply_ticks<M: PipelinedMemory>(mem: &mut M, call: &Call) -> RunReport {
    let mut report = RunReport::default();
    for req in call.span() {
        let presented = req.is_some();
        let out = mem.tick(req);
        report.responses.extend(out.response);
        match out.stall {
            None => report.accepted += u64::from(presented),
            Some(kind) if kind.is_rejection() => report.rejected += 1,
            Some(_) => report.stalled += 1,
        }
    }
    report
}
