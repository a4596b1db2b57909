//! Cross-crate integration: the deterministic-latency abstraction holds
//! across hash families, clock ratios, and traffic shapes, and VPNM is
//! observationally equivalent to the ideal pipelined memory whenever it
//! accepts the stream.

use vpnm::core::{
    HashKind, IdealMemory, LineAddr, PipelinedMemory, Request, VpnmConfig, VpnmController,
};
use vpnm::workloads::burst::BurstShaper;
use vpnm::workloads::generators::AddressGenerator;
use vpnm::workloads::{RequestKind, RequestMix, RequestStream, UniformAddresses};

fn to_request(kind: RequestKind) -> Request {
    match kind {
        RequestKind::Read { addr } => Request::read(LineAddr(addr)),
        RequestKind::Write { addr, data } => Request::write(LineAddr(addr), data),
    }
}

/// Runs `n` mixed requests through both memories in lockstep and checks
/// byte-for-byte, cycle-for-cycle equivalence.
fn differential_run(hash: HashKind, seed: u64, n: u64) {
    let config = VpnmConfig::test_roomy().with_hash(hash);
    let mut vpnm = VpnmController::new(config, seed).expect("valid config");
    let mut ideal = IdealMemory::new(vpnm.delay(), 8);
    let gen = UniformAddresses::new(1 << 16, seed ^ 0x9999);
    let mut stream =
        RequestStream::new(gen, RequestMix { read_fraction: 0.7, write_bytes: 8 }, seed);
    let mut v_rs = Vec::new();
    let mut i_rs = Vec::new();
    for _ in 0..n {
        let req = to_request(stream.next_request());
        let out_v = vpnm.tick(Some(req.clone()));
        assert!(out_v.accepted(), "roomy config must not stall on uniform traffic");
        v_rs.extend(out_v.response);
        i_rs.extend(ideal.tick(Some(req)).response);
    }
    while vpnm.outstanding() > 0 || ideal.outstanding() > 0 {
        v_rs.extend(vpnm.tick(None).response);
        i_rs.extend(ideal.tick(None).response);
    }
    assert_eq!(v_rs.len(), i_rs.len());
    for (v, i) in v_rs.iter().zip(&i_rs) {
        assert_eq!(v.addr, i.addr, "hash {hash}");
        assert_eq!(v.issued_at, i.issued_at);
        assert_eq!(v.completed_at, i.completed_at);
        assert_eq!(v.data, i.data, "data mismatch at {} ({hash})", v.addr);
    }
    assert_eq!(vpnm.metrics().deadline_misses, 0);
}

#[test]
fn vpnm_equals_ideal_under_h3() {
    differential_run(HashKind::H3, 1, 4000);
}

#[test]
fn vpnm_equals_ideal_under_multiply_shift() {
    differential_run(HashKind::MultiplyShift, 2, 4000);
}

#[test]
fn vpnm_equals_ideal_under_tabulation() {
    differential_run(HashKind::Tabulation, 3, 4000);
}

#[test]
fn vpnm_equals_ideal_under_affine_permutation() {
    differential_run(HashKind::Affine, 4, 4000);
}

#[test]
fn bursty_traffic_preserves_latency() {
    // Full-rate bursts with idle gaps: every response still lands exactly
    // D cycles after its issue.
    let mut mem = VpnmController::new(VpnmConfig::test_roomy(), 9).unwrap();
    let d = mem.delay();
    let mut shaper = BurstShaper::new(200, 50);
    let mut gen = UniformAddresses::new(1 << 16, 10);
    let mut responses = 0u64;
    let mut issued = 0u64;
    for _ in 0..20_000 {
        let req = shaper.tick().then(|| Request::read(LineAddr(gen.next_addr())));
        issued += u64::from(req.is_some());
        let out = mem.tick(req);
        assert!(out.accepted());
        if let Some(r) = out.response {
            assert_eq!(r.latency(), d);
            responses += 1;
        }
    }
    responses += mem.drain().len() as u64;
    assert_eq!(issued, responses);
}

#[test]
fn every_bus_ratio_upholds_the_invariant() {
    for &r in &[1.0, 1.1, 1.25, 1.3, 1.5, 2.0] {
        let config = VpnmConfig {
            bus_ratio: r,
            queue_entries: 16,
            storage_rows: 32,
            ..VpnmConfig::test_roomy()
        };
        let mut mem = VpnmController::new(config, 5).unwrap();
        let d = mem.delay();
        let mut gen = UniformAddresses::new(1 << 16, 6);
        for _ in 0..2000 {
            let out = mem.tick(Some(Request::read(LineAddr(gen.next_addr()))));
            if let Some(resp) = out.response {
                assert_eq!(resp.latency(), d, "R = {r}");
            }
        }
        for resp in mem.drain() {
            assert_eq!(resp.latency(), d, "R = {r}");
        }
        assert_eq!(mem.metrics().deadline_misses, 0, "R = {r}");
    }
}

#[test]
fn merging_bounds_redundant_pattern_resources() {
    // The "A,B,A,B,…" pattern holds exactly two storage rows no matter
    // how long it runs (paper Section 3.4).
    let mut mem = VpnmController::new(VpnmConfig::test_roomy(), 11).unwrap();
    mem.tick(Some(Request::write(LineAddr(0xA), vec![1])));
    mem.tick(Some(Request::write(LineAddr(0xB), vec![2])));
    let mut pattern = vpnm::workloads::RedundantPattern::new(vec![0xA, 0xB]);
    for _ in 0..2000 {
        let out = mem.tick(Some(Request::read(LineAddr(pattern.next_addr()))));
        assert!(out.accepted(), "merging must absorb the pattern");
    }
    let m = mem.metrics();
    assert!(m.reads_merged >= 1990);
    assert_eq!(m.total_stalls(), 0);
    assert!(
        m.storage_occupancy_hist.max().unwrap_or(0) <= 4,
        "A,B pattern must hold ≤2 rows (plus transients), saw {}",
        m.storage_occupancy_hist.max().unwrap_or(0)
    );
    for r in mem.drain() {
        let want = if r.addr.0 == 0xA { 1 } else { 2 };
        assert_eq!(r.data[0], want);
    }
}

#[test]
fn parallel_fabric_upholds_the_latency_invariant() {
    // The deterministic-latency contract survives the epoch-batched
    // parallel path: whatever the worker count, every accepted read is
    // answered after exactly D fabric cycles, and the full observable
    // output (responses in cycle order, merged snapshot) is byte-identical
    // to the single-worker run.
    use vpnm::core::fabric::{ChannelSelect, FabricConfig};
    use vpnm::core::VpnmFabric;

    let cfg = FabricConfig {
        channels: 8,
        select: ChannelSelect::UniversalHash,
        base: VpnmConfig::test_roomy(),
        qos: None,
    };
    let mut shaper = BurstShaper::new(300, 80);
    let mut gen = UniformAddresses::new(1 << 16, 23);
    let stream: Vec<Option<Request>> = (0..6000)
        .map(|_| shaper.tick().then(|| Request::read(LineAddr(gen.next_addr()))))
        .collect();

    let run = |workers: usize| {
        let mut fab = VpnmFabric::new(cfg.clone(), 31).expect("valid fabric");
        fab.set_workers(workers);
        let d = fab.delay();
        let mut responses = Vec::new();
        for span in stream.chunks(1013) {
            let report = fab.run_epoch(span);
            assert_eq!(report.stalled, 0, "roomy config must not stall on uniform traffic");
            responses.extend(report.responses);
        }
        responses.extend(PipelinedMemory::drain(&mut fab));
        for r in &responses {
            assert_eq!(r.latency(), d, "workers = {workers}");
        }
        (responses, fab.merged_snapshot().expect("fabric keeps metrics").to_json())
    };
    let baseline = run(1);
    assert!(!baseline.0.is_empty());
    for workers in [2, 8] {
        assert_eq!(run(workers), baseline, "workers = {workers}");
    }
}

#[test]
fn epoch_advance_is_uniform_across_trait_objects() {
    // `run_epoch` is part of the object-safe trait surface: the default
    // tick-loop (IdealMemory), the controller's drive-loop override, and
    // the fabric's channel-major path all answer the same epoch through
    // `Box<dyn PipelinedMemory>` with identical response streams.
    use vpnm::core::fabric::{ChannelSelect, FabricConfig};
    use vpnm::core::VpnmFabric;

    let base = VpnmConfig::test_roomy();
    let mut gen = UniformAddresses::new(1 << 16, 41);
    let epoch: Vec<Option<Request>> =
        (0..800).map(|i| (i % 3 != 2).then(|| Request::read(LineAddr(gen.next_addr())))).collect();

    let mut vpnm: Box<dyn PipelinedMemory> =
        Box::new(VpnmController::new(base.clone(), 2).expect("valid"));
    let mut ideal: Box<dyn PipelinedMemory> = Box::new(IdealMemory::new(vpnm.delay(), 8));
    let mut fabric: Box<dyn PipelinedMemory> = Box::new(
        VpnmFabric::new(
            FabricConfig { channels: 1, select: ChannelSelect::LowBits, base, qos: None },
            2,
        )
        .expect("valid"),
    );
    let mut outputs = Vec::new();
    for mem in [&mut vpnm, &mut ideal, &mut fabric] {
        let mut responses = mem.run_epoch(&epoch).responses;
        responses.extend(mem.drain());
        outputs.push(responses);
    }
    assert_eq!(outputs[0].len(), outputs[1].len());
    for (v, i) in outputs[0].iter().zip(&outputs[1]) {
        assert_eq!((v.addr, v.issued_at, v.completed_at), (i.addr, i.issued_at, i.completed_at));
    }
    assert_eq!(outputs[0], outputs[2], "one-channel fabric epochs match the bare controller");
}

#[test]
fn rekeying_changes_the_mapping() {
    // Two controllers with different seeds map the same addresses to
    // different banks (with overwhelming probability over 64 addresses).
    use vpnm::hash::BankHasher;
    let a = VpnmController::new(VpnmConfig::test_roomy(), 100).unwrap();
    let b = VpnmController::new(VpnmConfig::test_roomy(), 101).unwrap();
    let differing = (0..64u64).filter(|&x| a.hash().bank_of(x) != b.hash().bank_of(x)).count();
    assert!(differing > 16, "re-keying must reshuffle the mapping ({differing}/64)");
}
