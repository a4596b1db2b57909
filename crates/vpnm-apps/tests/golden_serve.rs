//! Golden-snapshot pins for the serving pipeline.
//!
//! The three fixtures under `tests/golden/` were captured from the
//! pre-batching serving loop (per-producer `sync_channel` lanes,
//! per-packet `slot_of` probes at service time, per-cell payload
//! `Vec`s). The batched pipeline — lock-free SPSC ingress rings,
//! admission-time `slots_of_batch`, one payload arena per epoch — must
//! reproduce them **byte for byte**: same admissions, same drops, same
//! latencies, same memory snapshot. Any divergence means the
//! optimization changed semantics, not just speed.
//!
//! `serve_drain_budget_binds.json` was captured from the serial serving
//! loop (plan, execute and retire one epoch at a time), with a drain cut
//! short by its budget letting its in-flight reads land. The two-stage
//! loop plans the last offered epoch before the previous one retires,
//! and must still reproduce it.

use vpnm_apps::serve::{run_serve, ArrivalSource, FlowMix, ServeConfig};
use vpnm_apps::EngineOpts;
use vpnm_core::{ChannelSelect, VpnmConfig};

fn small() -> ServeConfig {
    ServeConfig {
        base: VpnmConfig::test_roomy(),
        cycles: 50_000,
        epoch_len: 1024,
        source: ArrivalSource::Synthetic { load: 0.45, mix: FlowMix::Uniform { space: 1 << 10 } },
        cell_bytes: 8,
        ..ServeConfig::demo()
    }
}

fn canonical_json(cfg: &ServeConfig) -> String {
    let report = run_serve(cfg).unwrap();
    let mut snap = report.snapshot.expect("engine exposes metrics");
    snap.serving = snap.serving.map(|m| m.canonical());
    snap.to_json()
}

#[test]
fn sustained_uniform_matches_prebatching_golden() {
    assert_eq!(
        canonical_json(&small()),
        include_str!("golden/serve_sustained_uniform.json"),
        "batched pipeline diverged from the pre-refactor channel path"
    );
}

#[test]
fn fabric_heavytail_matches_prebatching_golden() {
    // At two workers the serve loop's planning and retirement really run
    // concurrently with the channels; the bytes must not move.
    for workers in [1, 2] {
        let cfg = ServeConfig {
            engine: EngineOpts {
                channels: 4,
                select: ChannelSelect::UniversalHash,
                workers,
                ..EngineOpts::default()
            },
            cycles: 20_000,
            source: ArrivalSource::Synthetic {
                load: 0.45,
                mix: FlowMix::HeavyTail { space: 1 << 12, skew: 1.0 },
            },
            ..small()
        };
        assert_eq!(
            canonical_json(&cfg),
            include_str!("golden/serve_fabric_heavytail.json"),
            "batched pipeline diverged from the pre-refactor channel path at {workers} workers"
        );
    }
}

/// Load 0.8 into a 20 000-packet ingress queue: the backlog outlasts the
/// drain budget, so how many drain epochs run — and with them every
/// count below — depends on the budget's `issued` term, the one schedule
/// input that retirement touches. Planning the last offered epoch before
/// the previous one has retired must still give the serial loop's budget.
#[test]
fn drain_budget_binds_matches_serial_golden() {
    let cfg = ServeConfig {
        engine: EngineOpts {
            channels: 4,
            select: ChannelSelect::UniversalHash,
            workers: 2,
            ..EngineOpts::default()
        },
        cycles: 20_000,
        epoch_len: 256,
        source: ArrivalSource::Synthetic { load: 0.8, mix: FlowMix::Uniform { space: 1 << 10 } },
        queue_depth: 20_000,
        cells_per_queue: 64,
        ..small()
    };
    let report = run_serve(&cfg).unwrap();
    assert_eq!(report.residual, 2028, "the drain budget binds");
    assert!(report.serving.conserves(report.residual));
    let mut snap = report.snapshot.expect("engine exposes metrics");
    snap.serving = snap.serving.map(|m| m.canonical());
    assert_eq!(snap.to_json(), include_str!("golden/serve_drain_budget_binds.json"));
}

#[test]
fn overload_heavytail_matches_prebatching_golden() {
    // Overload (0.9 > service 0.5) keeps the ingress queue saturated,
    // forcing the scalar per-arrival admission fallback — this pins the
    // non-batched path and its tail-drop accounting.
    let cfg = ServeConfig {
        queue_depth: 64,
        source: ArrivalSource::Synthetic {
            load: 0.9,
            mix: FlowMix::HeavyTail { space: 1 << 10, skew: 1.0 },
        },
        ..small()
    };
    assert_eq!(
        canonical_json(&cfg),
        include_str!("golden/serve_overload_heavytail.json"),
        "batched pipeline diverged from the pre-refactor channel path"
    );
}
