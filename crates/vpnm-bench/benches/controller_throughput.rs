//! Criterion bench: simulation throughput of the VPNM controller model
//! (interface cycles simulated per second of wall time) across
//! configurations and traffic shapes.
//!
//! The fast engine (`VpnmController`, with its ready-bank index, shared
//! delay ring and idle fast-forward) is measured head-to-head against
//! `ReferenceController`, the retained original O(B)-per-cycle
//! formulation, on the same streams. A custom `main` (instead of
//! `criterion_main!`) collects every measurement and writes the
//! machine-readable `BENCH_controller.json` at the workspace root,
//! including the fast-vs-reference speedup on `paper_optimal` uniform
//! reads — the number the hot-path rework is accountable for.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpnm_bench::report::{merge_bench_json, BenchRecord};
use vpnm_core::{
    ChannelSelect, FabricConfig, LineAddr, PipelinedMemory, ReferenceController, Request,
    VpnmConfig, VpnmController, VpnmFabric,
};
use vpnm_workloads::generators::AddressGenerator;
use vpnm_workloads::UniformAddresses;

const CYCLES: u64 = 10_000;

fn uniform_reads(space: u64, seed: u64) -> impl FnMut() -> Option<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    move || Some(Request::read(LineAddr(rng.gen_range(0..space))))
}

/// The batched front door end to end: generator batch-fill, request
/// build, and `PipelinedMemory::issue_batch` (the controller's one drive
/// loop over a dense lane), so the timed loop pays neither one generator
/// call nor one `tick` call per cycle. Same stream as
/// `controller/issue_batch`, which keeps the request build out of the
/// timed region.
fn bench_uniform_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller/uniform_reads");
    for (name, config) in [
        ("small_test", VpnmConfig::small_test()),
        ("test_roomy", VpnmConfig::test_roomy()),
        ("paper_optimal", VpnmConfig::paper_optimal()),
    ] {
        group.throughput(Throughput::Elements(CYCLES));
        group.bench_function(BenchmarkId::from_parameter(name), |bench| {
            bench.iter_batched(
                || {
                    let mem = VpnmController::new(config.clone(), 7).expect("valid");
                    let space = 1u64 << mem.config().addr_bits;
                    (mem, UniformAddresses::new(space, 3), vec![0u64; CYCLES as usize])
                },
                |(mut mem, mut gen, mut addrs)| {
                    gen.fill_addrs(&mut addrs);
                    let reqs: Vec<Request> =
                        addrs.iter().map(|&a| Request::read(LineAddr(a))).collect();
                    std::hint::black_box(mem.issue_batch(&reqs));
                    mem
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// The dense batch front door: a pre-built `Vec<Request>` issued through
/// `issue_batch`, whose drive loop hashes whole chunks through
/// `hash_batch` (SIMD on AVX2 hosts).
/// Same stream as `controller/uniform_reads`, so the two IDs are directly
/// comparable.
fn bench_issue_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller/issue_batch");
    for (name, config) in
        [("small_test", VpnmConfig::small_test()), ("paper_optimal", VpnmConfig::paper_optimal())]
    {
        group.throughput(Throughput::Elements(CYCLES));
        group.bench_function(BenchmarkId::from_parameter(name), |bench| {
            bench.iter_batched(
                || {
                    let mem = VpnmController::new(config.clone(), 7).expect("valid");
                    let space = 1u64 << mem.config().addr_bits;
                    let mut gen = UniformAddresses::new(space, 3);
                    let mut addrs = vec![0u64; CYCLES as usize];
                    gen.fill_addrs(&mut addrs);
                    let reqs: Vec<Request> =
                        addrs.iter().map(|&a| Request::read(LineAddr(a))).collect();
                    (mem, reqs)
                },
                |(mut mem, reqs)| {
                    std::hint::black_box(mem.issue_batch(&reqs));
                    mem
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// The legacy cycle-at-a-time drive (one generator call + one `tick` per
/// cycle), retained under its own IDs so the cost of the per-tick front
/// door stays visible next to the batched one.
fn bench_uniform_reads_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller/uniform_reads_tick");
    for (name, config) in
        [("small_test", VpnmConfig::small_test()), ("paper_optimal", VpnmConfig::paper_optimal())]
    {
        group.throughput(Throughput::Elements(CYCLES));
        group.bench_function(BenchmarkId::from_parameter(name), |bench| {
            bench.iter_batched(
                || {
                    let mem = VpnmController::new(config.clone(), 7).expect("valid");
                    let space = 1u64 << mem.config().addr_bits;
                    (mem, uniform_reads(space, 3))
                },
                |(mut mem, mut gen)| {
                    for _ in 0..CYCLES {
                        std::hint::black_box(mem.tick(gen()));
                    }
                    mem
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// The same uniform-read stream through the retained O(B)-per-cycle
/// reference engine — the baseline the ≥3× speedup target is against.
fn bench_reference_uniform_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("reference/uniform_reads");
    for (name, config) in
        [("small_test", VpnmConfig::small_test()), ("paper_optimal", VpnmConfig::paper_optimal())]
    {
        group.throughput(Throughput::Elements(CYCLES));
        group.bench_function(BenchmarkId::from_parameter(name), |bench| {
            bench.iter_batched(
                || {
                    let mem = ReferenceController::new(config.clone(), 7).expect("valid");
                    let space = 1u64 << mem.config().addr_bits;
                    (mem, uniform_reads(space, 3))
                },
                |(mut mem, mut gen)| {
                    for _ in 0..CYCLES {
                        std::hint::black_box(mem.tick(gen()));
                    }
                    mem
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Bursty traffic with long idle gaps: the idle fast-forward's home turf.
/// Offered load is ~3%, so the fast engine skips almost every memory
/// cycle while the reference grinds through all of them.
fn bench_idle_fast_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller/bursty_idle");
    group.throughput(Throughput::Elements(CYCLES));
    let source = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut in_burst = 0u32;
        move || {
            if in_burst > 0 {
                in_burst -= 1;
                Some(Request::read(LineAddr(rng.gen_range(0..1u64 << 32))))
            } else {
                if rng.gen_bool(0.002) {
                    in_burst = 16;
                }
                None
            }
        }
    };
    group.bench_function("fast_paper_optimal", |bench| {
        // Batched front door: the trace is materialized once in setup, so
        // the timed region is pure `run_epoch` — admission, event-horizon
        // skipping and response collection with no per-cycle callback.
        bench.iter_batched(
            || {
                let mut gen = source(9);
                let trace: Vec<Option<Request>> = (0..CYCLES).map(|_| gen()).collect();
                (VpnmController::new(VpnmConfig::paper_optimal(), 7).expect("valid"), trace)
            },
            |(mut mem, trace)| {
                std::hint::black_box(mem.run_epoch(&trace));
                mem
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("fast_tick_paper_optimal", |bench| {
        // Legacy cycle-at-a-time drive of the same trace, kept alongside
        // the batched ID so the front-door cost stays measurable.
        bench.iter_batched(
            || (VpnmController::new(VpnmConfig::paper_optimal(), 7).expect("valid"), source(9)),
            |(mut mem, mut gen)| {
                for _ in 0..CYCLES {
                    std::hint::black_box(mem.tick(gen()));
                }
                mem
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("reference_paper_optimal", |bench| {
        bench.iter_batched(
            || {
                (
                    ReferenceController::new(VpnmConfig::paper_optimal(), 7).expect("valid"),
                    source(9),
                )
            },
            |(mut mem, mut gen)| {
                for _ in 0..CYCLES {
                    std::hint::black_box(mem.tick(gen()));
                }
                mem
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// Multi-channel fabric throughput, sequential lockstep (`seq/…`: one
/// `tick` per cycle, every channel stepped — the pre-epoch drive) against
/// the epoch-batched path (`par/…`: `run_epoch` with one worker per
/// channel). Fabrics persist across iterations so the parallel side
/// measures steady-state epochs, not pool spawns; uniform reads at full
/// rate, so each channel of a C-channel fabric sees ~1/C of the stream
/// and the epoch path's per-channel idle skipping and batched hashing do
/// real work even before threads help.
fn bench_fabric_uniform_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric/uniform_reads");
    for channels in [1u32, 4, 8] {
        let fc = FabricConfig {
            channels,
            select: ChannelSelect::UniversalHash,
            base: VpnmConfig::paper_optimal(),
            qos: None,
        };
        let space = 1u64 << fc.base.addr_bits;
        group.throughput(Throughput::Elements(CYCLES));

        let mut fab = VpnmFabric::new(fc.clone(), 7).expect("valid");
        let mut gen = UniformAddresses::new(space, 3);
        let mut addrs = vec![0u64; CYCLES as usize];
        group.bench_function(BenchmarkId::new("seq", format!("{channels}ch")), |bench| {
            bench.iter(|| {
                gen.fill_addrs(&mut addrs);
                let mut served = 0u64;
                for &a in &addrs {
                    let out = fab.tick(Some(Request::read(LineAddr(a))));
                    served += out.response.map_or(0, |r| r.completed_at.as_u64());
                }
                std::hint::black_box(served);
            });
        });

        let mut fab = VpnmFabric::new(fc, 7).expect("valid");
        fab.set_workers(channels as usize);
        let mut gen = UniformAddresses::new(space, 3);
        let mut batch: Vec<Option<Request>> = Vec::with_capacity(CYCLES as usize);
        group.bench_function(BenchmarkId::new("par", format!("{channels}ch")), |bench| {
            bench.iter(|| {
                gen.fill_addrs(&mut addrs);
                batch.clear();
                batch.extend(addrs.iter().map(|&a| Some(Request::read(LineAddr(a)))));
                std::hint::black_box(fab.run_epoch(&batch));
            });
        });
    }
    group.finish();
}

fn bench_mixed_traffic(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller/mixed_rw");
    group.throughput(Throughput::Elements(CYCLES));
    group.bench_function("paper_optimal_70r30w", |bench| {
        bench.iter_batched(
            || {
                (
                    VpnmController::new(VpnmConfig::paper_optimal(), 7).expect("valid"),
                    StdRng::seed_from_u64(5),
                    // one shared payload cell: steady state allocates nothing
                    bytes::Bytes::from(vec![0u8; 64]),
                )
            },
            |(mut mem, mut rng, payload)| {
                for _ in 0..CYCLES {
                    let addr = LineAddr(rng.gen_range(0..1u64 << 32));
                    let req = if rng.gen_bool(0.7) {
                        Request::read(addr)
                    } else {
                        Request::write(addr, payload.clone())
                    };
                    std::hint::black_box(mem.tick(Some(req)));
                }
                mem
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_merged_stream(c: &mut Criterion) {
    // The merging fast path: all reads hit one delay-storage row.
    let mut group = c.benchmark_group("controller/redundant_stream");
    group.throughput(Throughput::Elements(CYCLES));
    group.bench_function("paper_optimal_single_addr", |bench| {
        bench.iter_batched(
            || VpnmController::new(VpnmConfig::paper_optimal(), 7).expect("valid"),
            |mut mem| {
                for _ in 0..CYCLES {
                    std::hint::black_box(mem.tick(Some(Request::read(LineAddr(42)))));
                }
                mem
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_uniform_reads,
    bench_issue_batch,
    bench_uniform_reads_tick,
    bench_reference_uniform_reads,
    bench_fabric_uniform_reads,
    bench_idle_fast_forward,
    bench_mixed_traffic,
    bench_merged_stream
);

fn main() {
    // The headline number is a ratio of two of these measurements, so give
    // the median more samples than the 300 ms shim default (still override
    // able via the environment).
    if std::env::var_os("BENCH_MEASURE_MS").is_none() {
        std::env::set_var("BENCH_MEASURE_MS", "800");
    }
    let mut criterion = Criterion::default().configure_from_args();
    bench_uniform_reads(&mut criterion);
    bench_issue_batch(&mut criterion);
    bench_uniform_reads_tick(&mut criterion);
    bench_reference_uniform_reads(&mut criterion);
    bench_fabric_uniform_reads(&mut criterion);
    bench_idle_fast_forward(&mut criterion);
    bench_mixed_traffic(&mut criterion);
    bench_merged_stream(&mut criterion);

    let records: Vec<BenchRecord> = criterion
        .measurements
        .iter()
        .map(|m| BenchRecord {
            id: m.id.clone(),
            ns_per_iter: m.ns_per_iter,
            per_second: m.per_second,
        })
        .collect();
    let ns_of = |id: &str| {
        criterion
            .measurements
            .iter()
            .find(|m| m.id == id)
            .map(|m| m.ns_per_iter)
            .unwrap_or(f64::NAN)
    };
    let speedup_uniform = ns_of("reference/uniform_reads/paper_optimal")
        / ns_of("controller/uniform_reads/paper_optimal");
    let speedup_idle = ns_of("controller/bursty_idle/reference_paper_optimal")
        / ns_of("controller/bursty_idle/fast_paper_optimal");
    let speedup_fabric =
        ns_of("fabric/uniform_reads/seq/8ch") / ns_of("fabric/uniform_reads/par/8ch");
    let speedup_batch = ns_of("controller/uniform_reads_tick/paper_optimal")
        / ns_of("controller/issue_batch/paper_optimal");
    let summary = [
        ("speedup_fast_vs_reference_paper_optimal_uniform_reads", speedup_uniform),
        ("speedup_fast_vs_reference_paper_optimal_bursty_idle", speedup_idle),
        ("speedup_parallel_vs_sequential_8ch", speedup_fabric),
        ("speedup_issue_batch_vs_tick_paper_optimal", speedup_batch),
    ];

    // Merge rather than overwrite: the apps bench contributes its own
    // records (serve/mpps_batch and friends) to the same artifact.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_controller.json");
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, merge_bench_json(&existing, &records, &summary))
        .expect("write BENCH_controller.json");
    println!("\nwrote {path}");
    println!("fast vs reference (paper_optimal, uniform reads): {speedup_uniform:.2}x");
    println!("fast vs reference (paper_optimal, bursty idle):   {speedup_idle:.2}x");
    println!("fabric epoch vs lockstep (8ch, uniform reads):    {speedup_fabric:.2}x");
    println!("issue_batch vs tick (paper_optimal, uniform):     {speedup_batch:.2}x");
    assert!(
        !(speedup_uniform.is_finite() && speedup_uniform < 1.0),
        "fast engine slower than the reference it replaced"
    );
    let _ = benches; // criterion_group kept for cargo-criterion compatibility
}
