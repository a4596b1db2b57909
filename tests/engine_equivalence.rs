//! Differential equivalence suite for the hot-path engine rework.
//!
//! `VpnmController` (ready-bank index, shared delay ring, idle
//! fast-forward, incremental metrics) must be **cycle-for-cycle and
//! byte-for-byte identical** to `ReferenceController`, the faithful
//! retention of the original O(B)-per-cycle formulation. Every tick's
//! `TickOutput` (response bytes, timing, stall kind), the final metrics
//! (including the per-cycle occupancy distributions), the DRAM statistics
//! and the drain behaviour are compared on:
//!
//! * property-based request streams (reads/writes/idle, narrow and wide
//!   address ranges),
//! * both scheduler kinds, merging on and off,
//! * integral and fractional memory/interface clock ratios,
//! * an adversarial single-bank flood under the degenerate low-bits hash
//!   (heavy stalling), and a bursty stream with long idle gaps (the idle
//!   fast-forward path).

//!
//! The same harness, generic over [`PipelinedMemory`], also checks the
//! multi-channel [`VpnmFabric`]: at `channels = 1` the fabric is
//! byte-identical to the bare controller (including the serialized
//! snapshot), and at `channels = 4` a fast-engine fabric matches a
//! reference-engine fabric under every channel-select policy.

use proptest::prelude::*;
use vpnm::core::fabric::{ChannelSelect, FabricConfig};
use vpnm::core::{
    LineAddr, PipelinedMemory, ReferenceController, Request, SchedulerKind, VpnmConfig,
    VpnmController, VpnmFabric,
};

#[derive(Debug, Clone)]
enum Op {
    Read(u16),
    Write(u16, u8),
    Idle,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<u16>().prop_map(Op::Read),
        2 => (any::<u16>(), any::<u8>()).prop_map(|(a, v)| Op::Write(a, v)),
        1 => Just(Op::Idle),
    ]
}

fn to_request(op: &Op, addr_mask: u64) -> Option<Request> {
    match op {
        Op::Read(a) => Some(Request::read(LineAddr(u64::from(*a) & addr_mask))),
        Op::Write(a, v) => Some(Request::write(LineAddr(u64::from(*a) & addr_mask), vec![*v])),
        Op::Idle => None,
    }
}

/// Drives two [`PipelinedMemory`] engines through the same stream and
/// asserts every externally observable trait signal is identical, every
/// cycle — including the serialized metrics snapshot, when both engines
/// keep one.
fn assert_engines_equivalent<A: PipelinedMemory, B: PipelinedMemory>(
    fast: &mut A,
    reference: &mut B,
    stream: &[Option<Request>],
) {
    for (i, req) in stream.iter().enumerate() {
        let out_fast = fast.tick(req.clone());
        let out_ref = reference.tick(req.clone());
        assert_eq!(out_fast, out_ref, "tick {i} diverged (request {req:?})");
        assert_eq!(fast.now(), reference.now(), "interface clocks diverged at tick {i}");
        assert_eq!(
            fast.outstanding(),
            reference.outstanding(),
            "outstanding counts diverged at tick {i}"
        );
    }
    let drained_fast = fast.drain();
    let drained_ref = reference.drain();
    assert_eq!(drained_fast, drained_ref, "drain responses diverged");
    assert_eq!(fast.now(), reference.now(), "drain lengths diverged");
    // The observability layer rides on the same metrics: both engines
    // must serialize byte-identical snapshots.
    assert_eq!(
        fast.snapshot().map(|s| s.to_json()),
        reference.snapshot().map(|s| s.to_json()),
        "metrics snapshots diverged"
    );
}

/// Drives both bare engines through the same stream and asserts every
/// externally observable signal is identical, every cycle.
fn assert_equivalent(cfg: VpnmConfig, seed: u64, stream: &[Option<Request>]) {
    let mut fast = VpnmController::new(cfg.clone(), seed).expect("valid config");
    let mut reference = ReferenceController::new(cfg, seed).expect("valid config");
    assert_engines_equivalent(&mut fast, &mut reference, stream);
    assert_eq!(fast.metrics(), reference.metrics(), "metrics diverged");
    assert_eq!(fast.dram_stats(), reference.dram_stats(), "DRAM stats diverged");
}

fn configs_under_test() -> Vec<VpnmConfig> {
    let mut cfgs = Vec::new();
    for scheduler in [SchedulerKind::RoundRobin, SchedulerKind::WorkConserving] {
        for merging in [true, false] {
            cfgs.push(VpnmConfig { scheduler, merging, ..VpnmConfig::small_test() });
        }
    }
    // fractional clock ratio: the idle fast-forward must respect the
    // Bresenham accumulator mid-window
    cfgs.push(VpnmConfig::small_test().with_bus_ratio(1.3));
    cfgs.push(VpnmConfig {
        scheduler: SchedulerKind::WorkConserving,
        ..VpnmConfig::small_test().with_bus_ratio(1.7)
    });
    cfgs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary streams over a wide address range, all config corners.
    #[test]
    fn engines_agree_on_arbitrary_streams(
        ops in proptest::collection::vec(op_strategy(), 1..600),
        seed in 0u64..1000,
    ) {
        let stream: Vec<Option<Request>> =
            ops.iter().map(|op| to_request(op, (1 << 16) - 1)).collect();
        for cfg in configs_under_test() {
            assert_equivalent(cfg, seed, &stream);
        }
    }

    /// Narrow address range: exercises merging, write invalidation and
    /// delay-storage duplicate rows (merging off) far more densely.
    #[test]
    fn engines_agree_on_hot_address_sets(
        ops in proptest::collection::vec(op_strategy(), 1..600),
        seed in 0u64..1000,
    ) {
        let stream: Vec<Option<Request>> =
            ops.iter().map(|op| to_request(op, 0xF)).collect();
        for cfg in configs_under_test() {
            assert_equivalent(cfg, seed, &stream);
        }
    }
}

#[test]
fn engines_agree_under_adversarial_single_bank_flood() {
    // Degenerate low-bits mapping + stride-B addresses: every request
    // lands in one bank, stalling heavily. Stall streams must match too.
    use vpnm::core::HashKind;
    for scheduler in [SchedulerKind::RoundRobin, SchedulerKind::WorkConserving] {
        let cfg = VpnmConfig { scheduler, ..VpnmConfig::small_test() }.with_hash(HashKind::LowBits);
        let stream: Vec<Option<Request>> =
            (0..2000u64).map(|i| Some(Request::read(LineAddr(i * 4 % (1 << 16))))).collect();
        assert_equivalent(cfg, 0, &stream);
    }
}

#[test]
fn engines_agree_across_long_idle_gaps() {
    // Bursts separated by idle stretches much longer than D: the fast
    // engine takes the fast-forward path almost every cycle; the
    // reference grinds through every memory cycle. Outputs must match
    // exactly, including the per-cycle occupancy samples.
    for ratio in [1.0, 1.3, 2.0] {
        let cfg = VpnmConfig::small_test().with_bus_ratio(ratio);
        let mut stream: Vec<Option<Request>> = Vec::new();
        for burst in 0..5u64 {
            for i in 0..20 {
                let addr = LineAddr((burst * 977 + i * 13) % (1 << 16));
                stream.push(Some(if i % 4 == 0 {
                    Request::write(addr, vec![i as u8])
                } else {
                    Request::read(addr)
                }));
            }
            stream.extend(std::iter::repeat_with(|| None).take(500));
        }
        assert_equivalent(cfg, 7, &stream);
    }
}

/// A deterministic mixed read/write/idle stream for the fabric suites
/// (an LCG so the tests need no proptest machinery).
fn mixed_stream(n: u64, addr_mask: u64) -> Vec<Option<Request>> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..n)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = LineAddr((state >> 17) & addr_mask);
            match i % 7 {
                6 => None,
                0 | 3 => Some(Request::write(addr, vec![i as u8])),
                _ => Some(Request::read(addr)),
            }
        })
        .collect()
}

#[test]
fn single_channel_fabric_matches_both_bare_engines() {
    // channels = 1 must reproduce the bare controller exactly — same tick
    // outputs and a byte-identical serialized snapshot (the fabric merge
    // of one part is the identity).
    let stream = mixed_stream(1500, (1 << 16) - 1);
    let cfg = VpnmConfig::small_test();

    let mut fabric = VpnmFabric::new(FabricConfig::single(cfg.clone()), 3).expect("valid");
    let mut bare = VpnmController::new(cfg.clone(), 3).expect("valid");
    assert_engines_equivalent(&mut fabric, &mut bare, &stream);

    let mut fabric =
        VpnmFabric::new_reference(FabricConfig::single(cfg.clone()), 3).expect("valid");
    let mut bare = ReferenceController::new(cfg, 3).expect("valid");
    assert_engines_equivalent(&mut fabric, &mut bare, &stream);
}

#[test]
fn fabric_engines_agree_at_four_channels() {
    // The fast-engine fabric and the reference-engine fabric must stay in
    // lockstep under every channel-select policy, exactly as the bare
    // engines do at one channel.
    let stream = mixed_stream(2000, (1 << 16) - 1);
    for select in [ChannelSelect::LowBits, ChannelSelect::HighBits, ChannelSelect::UniversalHash] {
        let cfg = FabricConfig { channels: 4, select, base: VpnmConfig::small_test(), qos: None };
        let mut fast = VpnmFabric::new(cfg.clone(), 11).expect("valid");
        let mut reference = VpnmFabric::new_reference(cfg, 11).expect("valid");
        assert_engines_equivalent(&mut fast, &mut reference, &stream);
    }
}

#[test]
fn fabric_runs_are_deterministic_at_four_channels() {
    // Same config, seed and stream twice over: identical responses and an
    // identical merged snapshot, independent of any host state.
    let stream = mixed_stream(1200, (1 << 16) - 1);
    let run = || {
        let cfg = FabricConfig {
            channels: 4,
            select: ChannelSelect::UniversalHash,
            base: VpnmConfig::small_test(),
            qos: None,
        };
        let mut fabric = VpnmFabric::new(cfg, 21).expect("valid");
        let mut responses = Vec::new();
        for req in &stream {
            responses.extend(fabric.tick(req.clone()).response);
        }
        responses.extend(PipelinedMemory::drain(&mut fabric));
        (responses, fabric.merged_snapshot().expect("fabric keeps metrics").to_json())
    };
    assert_eq!(run(), run());
}

/// Merged snapshot serialization with the one sanctioned epoch/tick
/// divergence — the `cycles_skipped` drive-mode counter — masked off
/// (the same convention the per-layer differential proptests use).
fn snapshot_sans_skips<M: PipelinedMemory>(fab: &VpnmFabric<M>) -> String {
    let mut snap = fab.merged_snapshot().expect("fabric keeps metrics");
    snap.cycles_skipped = 0;
    snap.to_json()
}

/// Full-rate bursts separated by idle stretches much longer than `D` —
/// the per-channel idle fast-forward path fires constantly.
fn bursty_idle_stream(bursts: u64, addr_mask: u64) -> Vec<Option<Request>> {
    let mut stream = Vec::new();
    for burst in 0..bursts {
        for i in 0..25u64 {
            let addr = LineAddr((burst * 977 + i * 13) & addr_mask);
            stream.push(Some(if i % 4 == 0 {
                Request::write(addr, vec![i as u8])
            } else {
                Request::read(addr)
            }));
        }
        stream.extend(std::iter::repeat_with(|| None).take(400));
    }
    stream
}

/// Every address is a multiple of `channels`, so a low-bits channel
/// select funnels the whole stream into channel 0 — one channel stalls
/// heavily while the rest idle (the worst case for epoch batching).
fn channel_flood_stream(n: u64, channels: u64) -> Vec<Option<Request>> {
    (0..n).map(|i| Some(Request::read(LineAddr((i * 13 % (1 << 12)) * channels)))).collect()
}

#[test]
fn fabric_epoch_path_is_worker_count_invariant_and_matches_tick() {
    // The tentpole contract: for every trace shape and every worker
    // count, the epoch-batched path produces byte-identical responses
    // (in exact cycle order), drains, and merged snapshots — equal to
    // each other AND to the sequential per-tick path (modulo the
    // `cycles_skipped` drive-mode counter).
    let traces: Vec<(&str, ChannelSelect, Vec<Option<Request>>)> = vec![
        ("uniform", ChannelSelect::UniversalHash, mixed_stream(2000, (1 << 16) - 1)),
        ("bursty-idle", ChannelSelect::UniversalHash, bursty_idle_stream(5, (1 << 16) - 1)),
        ("adversarial", ChannelSelect::LowBits, channel_flood_stream(1500, 8)),
    ];
    for (name, select, stream) in traces {
        let cfg = FabricConfig { channels: 8, select, base: VpnmConfig::small_test(), qos: None };

        let mut ticked = VpnmFabric::new(cfg.clone(), 17).expect("valid");
        let mut tick_responses = Vec::new();
        for req in &stream {
            tick_responses.extend(ticked.tick(req.clone()).response);
        }
        let tick_drain = PipelinedMemory::drain(&mut ticked);
        let tick_snap = snapshot_sans_skips(&ticked);

        for workers in [1usize, 2, 8] {
            let mut fab = VpnmFabric::new(cfg.clone(), 17).expect("valid");
            fab.set_workers(workers);
            let mut responses = Vec::new();
            // A prime epoch length, so epoch seams never align with the
            // trace's own periodicity.
            for span in stream.chunks(257) {
                responses.extend(fab.run_epoch(span).responses);
            }
            assert_eq!(responses, tick_responses, "{name}, {workers} workers: responses");
            assert_eq!(
                PipelinedMemory::drain(&mut fab),
                tick_drain,
                "{name}, {workers} workers: drain"
            );
            assert_eq!(
                snapshot_sans_skips(&fab),
                tick_snap,
                "{name}, {workers} workers: merged snapshot"
            );
        }
    }
}

#[test]
fn boxed_engines_run_the_same_stream_through_one_call_site() {
    // The widened trait is object-safe: one loop drives a bare fast
    // engine, a bare reference engine and a four-channel fabric through
    // the same stream, and the two bare engines agree byte-for-byte.
    let stream = mixed_stream(800, (1 << 16) - 1);
    let cfg = VpnmConfig::small_test();
    let mut engines: Vec<Box<dyn PipelinedMemory>> = vec![
        Box::new(VpnmController::new(cfg.clone(), 5).expect("valid")),
        Box::new(ReferenceController::new(cfg.clone(), 5).expect("valid")),
        Box::new(
            VpnmFabric::new(
                FabricConfig {
                    channels: 4,
                    select: ChannelSelect::UniversalHash,
                    base: cfg,
                    qos: None,
                },
                5,
            )
            .expect("valid"),
        ),
    ];
    let mut delivered = Vec::new();
    for mem in &mut engines {
        let mut n = 0u64;
        for req in &stream {
            n += u64::from(mem.tick(req.clone()).response.is_some());
        }
        n += mem.drain().len() as u64;
        delivered.push(n);
    }
    assert_eq!(delivered[0], delivered[1], "bare engines must deliver identically");
    assert!(delivered[2] > 0, "the fabric must deliver responses too");
}

#[test]
fn engines_agree_on_paper_scale_config() {
    // A short run at the paper's full-scale geometry (many banks, long
    // delay) so the equivalence isn't only checked on toy sizes.
    let cfg = VpnmConfig { trace_capacity: 0, ..VpnmConfig::paper_compact() };
    let stream: Vec<Option<Request>> = (0..3000u64)
        .map(|i| {
            if i % 11 == 0 {
                None
            } else if i % 5 == 0 {
                Some(Request::write(LineAddr(i * 7919 % (1 << 20)), vec![i as u8]))
            } else {
                Some(Request::read(LineAddr(i * 6151 % (1 << 20))))
            }
        })
        .collect();
    assert_equivalent(cfg, 42, &stream);
}
