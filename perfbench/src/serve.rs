//! The serving workload: `run_serve` untraced, and the same pipeline
//! composed from its public pieces with every layer call timed.

use std::collections::VecDeque;
use std::time::Instant;

use bytes::Bytes;
use vpnm_apps::packet_buffer::{LaneEvent, VpnmPacketBuffer};
use vpnm_apps::serve::{
    run_serve, Arrival, ArrivalSource, EpochPlan, FlowMix, FlowTable, IngressRig, ServeConfig,
    ServeReport,
};
use vpnm_apps::EngineOpts;
use vpnm_core::{
    ChannelSelect, ControllerMetrics, MetricsSnapshot, PipelinedMemory, ServingMetrics, VpnmConfig,
    VpnmController, VpnmFabric,
};
use vpnm_dram::DramStats;
use vpnm_sim::{FineHistogram, Histogram};
use vpnm_workloads::packets::{payload_extend, payload_matches};

use crate::metrics::{digest, Values};
use crate::timed::{CallLog, Timed};
use crate::trace::{layer_times, now_ns, Folded, Layer, Span};

/// The serving workload over `cycles` offered cycles: `paper_optimal`
/// with 64 B cells on four `universal-hash` channels and two fabric
/// workers, one producer offering 0.6 packets per cycle (above the 0.5
/// stability bound) uniformly over 2¹² flows.
pub fn config(seed: u64, cycles: u64) -> ServeConfig {
    ServeConfig {
        engine: EngineOpts {
            channels: 4,
            select: ChannelSelect::UniversalHash,
            workers: 2,
            ..EngineOpts::default()
        },
        base: VpnmConfig::paper_optimal(),
        producers: 1,
        cycles,
        epoch_len: 4096,
        source: ArrivalSource::Synthetic { load: 0.6, mix: FlowMix::Uniform { space: 1 << 12 } },
        queue_depth: 512,
        cells_per_queue: 16,
        cell_bytes: 64,
        pace: None,
        seed,
        verify: true,
    }
}

/// The configuration as a JSON object, for the metadata stamp.
pub fn describe(cfg: &ServeConfig) -> String {
    let (load, mix) = match &cfg.source {
        ArrivalSource::Synthetic { load, mix } => (*load, format!("{mix:?}")),
        ArrivalSource::Trace(_) => (0.0, "trace".into()),
    };
    format!(
        "{{\"engine\": \"{}\", \"cycles\": {}, \"epoch_len\": {}, \"load\": {load}, \"mix\": \"{mix}\", \
         \"producers\": {}, \"queue_depth\": {}, \"cells_per_queue\": {}, \"cell_bytes\": {}, \"verify\": {}}}",
        cfg.engine.describe(),
        cfg.cycles,
        cfg.epoch_len,
        cfg.producers,
        cfg.queue_depth,
        cfg.cells_per_queue,
        cfg.cell_bytes,
        cfg.verify
    )
}

/// Digest of the canonical simulated output: the snapshot with the
/// serving section's measurement-domain fields zeroed.
pub fn canonical_digest(snapshot: &MetricsSnapshot) -> String {
    let mut snap = snapshot.clone();
    snap.serving = snap.serving.map(|m| m.canonical());
    digest(snap.to_json().as_bytes())
}

/// Correctness of one serving run: packets conserved with nothing left
/// over, one latency sample per transmitted packet, and no packet back
/// sooner than the deterministic delay `D`.
pub fn check(report: &ServeReport) -> Result<(), String> {
    let s = &report.serving;
    let snap = report.snapshot.as_ref().ok_or("the engine exposes no snapshot")?;
    if report.residual != 0 || !s.conserves(0) {
        return Err(format!(
            "packets not conserved: offered {} transmitted {} residual {}",
            s.offered, s.transmitted, report.residual
        ));
    }
    if s.latency.total() != s.transmitted {
        return Err(format!("{} latency samples for {} packets", s.latency.total(), s.transmitted));
    }
    match s.latency.min() {
        Some(min) if min < snap.delay => {
            Err(format!("a packet returned after {min} < D = {} cycles", snap.delay))
        }
        None => Err("no packet was transmitted".into()),
        Some(_) => Ok(()),
    }
}

/// One untraced iteration: `run_serve`, plus the wall time around it.
pub struct Untraced {
    /// What `run_serve` returned.
    pub report: ServeReport,
    /// Nanoseconds around the `run_serve` call.
    pub outer_ns: u64,
}

impl Untraced {
    /// Runs `cfg` once.
    pub fn run(cfg: &ServeConfig) -> Result<Self, String> {
        let t = Instant::now();
        let report = run_serve(cfg)?;
        Ok(Untraced { report, outer_ns: t.elapsed().as_nanos() as u64 })
    }

    /// Set-up time: the call's wall time outside the serving loop.
    pub fn setup_s(&self) -> f64 {
        self.outer_ns.saturating_sub(self.report.serving.wall_nanos) as f64 / 1e9
    }

    /// Simulated cycles (offered window plus drain).
    pub fn cycles(&self) -> u64 {
        self.report.snapshot.as_ref().map_or(0, |s| s.cycles)
    }
}

/// One traced iteration: the result (comparable with `run_serve`'s) and
/// the per-layer values it measured.
pub struct Traced {
    /// The serving result, built exactly as `run_serve` builds it.
    pub report: ServeReport,
    /// Per-layer metric values.
    pub values: Values,
    /// Every serve-epoch span duration, in microseconds.
    pub epoch_us: Vec<f64>,
    /// Spans recorded (for the span file).
    pub spans: Vec<Span>,
    /// Folded leaf calls (for the span file).
    pub folded: Vec<Folded>,
}

/// Runs `cfg` once through the traced composition: the fabric built by
/// `VpnmFabric::with_engines` over timed channel controllers, itself
/// timed under the packet buffer.
pub fn traced(cfg: &ServeConfig) -> Result<Traced, String> {
    let mut fabric = VpnmFabric::with_engines(
        cfg.engine.fabric_config(cfg.base.clone()),
        cfg.seed,
        |c, ccfg, s| {
            Ok(Timed::new(VpnmController::new(ccfg, s)?, Layer::Controller, Layer::Fabric, c))
        },
    )?;
    fabric.set_workers(cfg.engine.workers);
    let mem = Timed::new(fabric, Layer::Fabric, Layer::PacketBuffer, 0);
    let (mut run, buf) = serve_loop(cfg, mem)?;
    let fabric = buf.memory();
    let controllers: Vec<&Timed<VpnmController>> =
        (0..fabric.inner().num_channels()).map(|c| fabric.inner().channel(c)).collect();
    finish(&mut run, fabric.log(), &controllers);
    Ok(run)
}

/// Per-layer values from the call logs and engines once the loop is done.
fn finish(run: &mut Traced, fabric: &CallLog, controllers: &[&Timed<VpnmController>]) {
    run.spans.extend_from_slice(&fabric.spans);
    for c in controllers {
        run.spans.extend_from_slice(&c.log().spans);
    }
    let times = layer_times(&run.spans, &run.folded);
    let t = |l: Layer| times.get(&l).cloned().unwrap_or_default();
    let s = |ns: u64| ns as f64 / 1e9;
    let v = &mut run.values;

    let (serve, ingress, ft, pb, fab, ctl) = (
        t(Layer::Serve),
        t(Layer::Ingress),
        t(Layer::FlowTable),
        t(Layer::PacketBuffer),
        t(Layer::Fabric),
        t(Layer::Controller),
    );
    v.insert("serve.self_s", s(serve.self_time));
    v.insert("serve.epochs", serve.calls as f64);
    v.insert("ingress.wait_s", s(ingress.busy));
    v.insert("flow_table.busy_s", s(ft.busy));
    v.insert("packet_buffer.busy_s", s(pb.busy));
    v.insert("packet_buffer.self_s", s(pb.self_time));
    // The fabric is the packet buffer's memory: its doors are the buffer's.
    v.insert("packet_buffer.dense_epochs", fabric.dense as f64);
    v.insert("packet_buffer.sparse_epochs", fabric.sparse as f64);
    v.insert("packet_buffer.dense_ratio", fabric.dense as f64 / fabric.calls.max(1) as f64);
    v.insert("fabric.busy_s", s(fab.busy));
    v.insert("fabric.self_s", s(fab.self_time));
    v.insert("fabric.overlap", ctl.busy as f64 / ctl.path.max(1) as f64);
    v.insert("fabric.requests", fabric.requests as f64);
    let requests: u64 = controllers.iter().map(|c| c.log().requests).sum();
    v.insert("controller.busy_s", s(ctl.busy));
    v.insert("controller.path_s", s(ctl.path));
    v.insert("controller.calls", controllers.iter().map(|c| c.log().calls).sum::<u64>() as f64);
    v.insert("controller.requests", requests as f64);
    v.insert("controller.ns_per_request", ctl.busy as f64 / requests.max(1) as f64);
    let engines: Vec<&VpnmController> = controllers.iter().map(|c| c.inner()).collect();
    let parts: Vec<&ControllerMetrics> = engines.iter().map(|c| c.metrics()).collect();
    let skipped = engines.iter().map(|c| c.cycles_skipped()).sum();
    let cycles = engines.iter().map(|c| c.now().as_u64()).sum();
    controller_counters(v, &parts, skipped, cycles);
    let mut dram = DramStats::default();
    for c in &engines {
        dram.merge_from(c.dram_stats());
    }
    dram_counters(v, &dram, cycles, engines[0].config().bus_ratio);
    let ns = controllers.iter().map(|c| hash_ns_per_addr(c.inner(), &c.log().addrs)).sum::<f64>()
        / controllers.len() as f64;
    v.insert("hash.ns_per_addr", ns);

    // The blocking path is the server thread: every layer's self time on
    // it, plus the controllers' union (which the fabric's self time
    // excludes), should account for the loop's wall time.
    let on_path =
        serve.self_time + ingress.busy + ft.busy + pb.self_time + fab.self_time + ctl.path;
    let path = v["trace.path_s"];
    v.insert("trace.accounted_ratio", s(on_path) / path);
}

/// The controllers' exact work counters: `parts` are the engines'
/// metrics (channels or shards), `stepped` their summed interface cycles.
pub fn controller_counters(
    v: &mut Values,
    parts: &[&ControllerMetrics],
    skipped: u64,
    stepped: u64,
) {
    let sum = |f: fn(&ControllerMetrics) -> u64| parts.iter().map(|m| f(m)).sum::<u64>() as f64;
    let max =
        |f: fn(&ControllerMetrics) -> u64| parts.iter().map(|m| f(m)).max().unwrap_or(0) as f64;
    v.insert("controller.accepted", sum(|m| m.reads_accepted + m.writes_accepted));
    v.insert("controller.reads_merged", sum(|m| m.reads_merged));
    v.insert("controller.stalls", sum(ControllerMetrics::total_stalls));
    v.insert("controller.queue_depth_max", max(|m| m.queue_depth_hist.max().unwrap_or(0)));
    v.insert("controller.dsb_occupancy_max", max(|m| m.storage_occupancy_hist.max().unwrap_or(0)));
    v.insert("controller.outstanding_hwm", max(|m| m.outstanding_hwm));
    v.insert("controller.cycles_skipped", skipped as f64);
    v.insert("controller.cycles_skipped_ratio", skipped as f64 / stepped.max(1) as f64);
}

/// The modelled DRAM's exact counters; `interface_cycles` summed over
/// channels, converted to memory cycles by `bus_ratio`.
pub fn dram_counters(v: &mut Values, dram: &DramStats, interface_cycles: u64, bus_ratio: f64) {
    v.insert("dram.reads", dram.reads as f64);
    v.insert("dram.writes", dram.writes as f64);
    let memory_cycles = (interface_cycles as f64 * bus_ratio).max(1.0);
    v.insert("dram.bus_efficiency", dram.bus_busy_cycles as f64 / memory_cycles);
    v.insert("dram.conflict_rate", dram.conflict_rate());
}

/// Replays `addrs` through the controller's keyed bank hash
/// (`HashEngine::hash_batch`) for at least 20 ms; nanoseconds per address.
pub fn hash_ns_per_addr(ctrl: &VpnmController, addrs: &[u64]) -> f64 {
    if addrs.is_empty() {
        return 0.0;
    }
    let hash = ctrl.hash();
    let mut out = vec![0u32; addrs.len()];
    let mut reps = 0u64;
    let t = Instant::now();
    while reps == 0 || t.elapsed().as_millis() < 20 {
        hash.hash_batch(std::hint::black_box(addrs), &mut out);
        std::hint::black_box(&out);
        reps += 1;
    }
    t.elapsed().as_nanos() as f64 / (reps * addrs.len() as u64) as f64
}

/// In-flight bookkeeping for one admitted packet.
struct PendingCell {
    arrival: u64,
    slot: u32,
    seq: u64,
}

/// `run_serve`'s serving loop (unpaced, single-tenant), composed from the
/// same public pieces, with a span around each layer call. Returns the
/// result and the buffer, whose memory holds the lower layers' logs.
fn serve_loop<M: PipelinedMemory>(
    cfg: &ServeConfig,
    mem: M,
) -> Result<(Traced, VpnmPacketBuffer<M>), String> {
    let space = match &cfg.source {
        ArrivalSource::Synthetic { mix, .. } => mix.space(),
        ArrivalSource::Trace(_) => {
            return Err("the traced loop drives synthetic sources only".into())
        }
    };
    let capacity =
        u32::try_from(space.next_power_of_two().max(2)).map_err(|_| "flow space too large")?;
    let mut buf = VpnmPacketBuffer::with_memory(mem, capacity, cfg.cells_per_queue)?;
    let mut table = FlowTable::new(capacity);
    let plan = EpochPlan { cycles: cfg.cycles, epoch_len: cfg.epoch_len };
    let mut rig = IngressRig::spawn(cfg.producers, &cfg.source, plan, cfg.seed);

    let mut ingress: VecDeque<(u64, Option<u32>)> = VecDeque::with_capacity(cfg.queue_depth);
    let mut tx_fifo: VecDeque<PendingCell> = VecDeque::new();
    let mut issued: VecDeque<PendingCell> = VecDeque::new();
    let mut serving = ServingMetrics {
        producers: cfg.producers,
        paced_rate: 0,
        queue_bound: cfg.queue_depth,
        ..ServingMetrics::default()
    };
    let mut latency = FineHistogram::new();
    let mut occupancy = Histogram::new();
    let mut stalls_seen = 0u64;

    let mut spans: Vec<Span> = Vec::new();
    let mut folded: Vec<Folded> = Vec::new();
    let (mut lookups, mut batched_lookups, mut events_total) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    let loop_start = now_ns();

    let offered_epochs = plan.epochs();
    let mut epoch = 0u64;
    let drain_budget =
        |backlog: u64, delay: u64, epoch_len: u64| (backlog + delay).div_ceil(epoch_len) + 2;
    let mut drain_end: Option<u64> = None;
    let mut events: Vec<(u64, LaneEvent)> = Vec::new();
    let mut batch_flows: Vec<u64> = Vec::new();
    let mut slots_lane: Vec<Option<u32>> = Vec::new();
    let mut arena_buf: Vec<u8> = Vec::new();
    loop {
        let epoch_start = now_ns();
        let id = epoch as u32;
        let (start, end) = if epoch < offered_epochs {
            plan.window(epoch)
        } else {
            let done = ingress.is_empty() && tx_fifo.is_empty() && issued.is_empty();
            let budget_exhausted = drain_end.is_some_and(|e| epoch >= e);
            if done || budget_exhausted {
                break;
            }
            let start = cfg.cycles + (epoch - offered_epochs) * cfg.epoch_len;
            (start, start + cfg.epoch_len)
        };
        let len = end - start;

        let arrivals: &[Arrival] = if epoch < offered_epochs {
            Span::time(&mut spans, Layer::Ingress, Some(Layer::Serve), id, 0, || rig.next_epoch())
        } else {
            &[]
        };
        if epoch + 1 == offered_epochs {
            let backlog = (ingress.len() + tx_fifo.len() + issued.len()) as u64
                + arrivals.len() as u64
                + cfg.epoch_len;
            drain_end = Some(offered_epochs + drain_budget(backlog, buf.delay(), cfg.epoch_len));
        }

        let batched = ingress.len() + arrivals.len() <= cfg.queue_depth;
        if batched && !arrivals.is_empty() {
            batch_flows.clear();
            batch_flows.extend(arrivals.iter().map(|a| a.flow));
            Span::time(&mut spans, Layer::FlowTable, Some(Layer::Serve), id, 0, || {
                table.slots_of_batch(&batch_flows, &mut slots_lane)
            });
            lookups += arrivals.len() as u64;
            batched_lookups += arrivals.len() as u64;
        }
        let (mut scalar_ns, mut scalar_calls) = (0u64, 0u64);

        events.clear();
        let mut next_arrival = 0usize;
        for c in start..end {
            while next_arrival < arrivals.len() && arrivals[next_arrival].cycle == c {
                let a = arrivals[next_arrival];
                serving.offered += 1;
                if batched {
                    ingress.push_back((a.cycle, slots_lane[next_arrival]));
                } else if ingress.len() >= cfg.queue_depth {
                    serving.ingress_drops += 1;
                } else {
                    let t = now_ns();
                    let slot = table.slot_of(a.flow);
                    scalar_ns += now_ns() - t;
                    scalar_calls += 1;
                    ingress.push_back((a.cycle, slot));
                }
                next_arrival += 1;
            }
            occupancy.record(ingress.len() as u64);

            let offset = c - start;
            if !tx_fifo.is_empty() && tx_fifo.len() >= ingress.len() {
                let cell = tx_fifo.pop_front().expect("non-empty");
                table.note_dequeue(cell.slot);
                events.push((offset, LaneEvent::Dequeue { queue: cell.slot, tenant: 0 }));
                issued.push_back(cell);
            } else if let Some(&(arrived, slot)) = ingress.front() {
                match slot {
                    None => {
                        serving.flow_table_drops += 1;
                        ingress.pop_front();
                    }
                    Some(slot) if u64::from(table.occupancy(slot)) >= cfg.cells_per_queue => {
                        serving.flow_queue_drops += 1;
                        ingress.pop_front();
                    }
                    Some(slot) => {
                        let seq = table.note_enqueue(slot);
                        let span = arena_buf.len() as u32;
                        payload_extend(slot, seq, cfg.cell_bytes, &mut arena_buf);
                        events.push((
                            offset,
                            LaneEvent::Enqueue {
                                queue: slot,
                                start: span,
                                end: arena_buf.len() as u32,
                                tenant: 0,
                            },
                        ));
                        serving.admitted += 1;
                        tx_fifo.push_back(PendingCell { arrival: arrived, slot, seq });
                        ingress.pop_front();
                    }
                }
            }
            serving.transmit_backlog_hwm = serving.transmit_backlog_hwm.max(tx_fifo.len() as u64);
        }
        if scalar_calls > 0 {
            lookups += scalar_calls;
            folded.push(Folded {
                layer: Layer::FlowTable,
                parent: Layer::Serve,
                id,
                busy: scalar_ns,
                calls: scalar_calls,
            });
        }

        let filled = arena_buf.len();
        let arena = Bytes::from(std::mem::replace(&mut arena_buf, Vec::with_capacity(filled)));
        events_total += events.len() as u64;
        let report = Span::time(&mut spans, Layer::PacketBuffer, Some(Layer::Serve), id, 0, || {
            buf.run_epoch_arena(len, &events, &arena)
        });
        stalls_seen += report.stalled;
        for d in report.delivered {
            let cell = loop {
                let front = issued.pop_front().ok_or("response without an issued dequeue")?;
                if front.slot == d.cell.queue {
                    break front;
                }
                serving.stall_drops += 1;
            };
            if cfg.verify && !payload_matches(cell.slot, cell.seq, cfg.cell_bytes, &d.cell.data) {
                if stalls_seen == 0 {
                    return Err(format!(
                        "payload mismatch on stall-free run: flow slot {} seq {}",
                        cell.slot, cell.seq
                    ));
                }
                serving.stall_drops += 1;
                continue;
            }
            serving.transmitted += 1;
            latency.record(d.completed_at.saturating_sub(cell.arrival));
        }
        spans.push(Span {
            layer: Layer::Serve,
            parent: None,
            id,
            lane: 0,
            start: epoch_start,
            end: now_ns(),
        });
        epoch += 1;
    }
    let loop_ns = now_ns() - loop_start;
    serving.producer_parks = rig.join();
    serving.stall_drops += buf.reconcile_lost();
    serving.stall_drops += issued.len() as u64;
    issued.clear();

    serving.flows = table.flows();
    serving.latency = latency;
    serving.ingress_occupancy = occupancy;
    serving.wall_nanos = started.elapsed().as_nanos() as u64;
    if serving.wall_nanos > 0 {
        serving.mpps = serving.transmitted as f64 / (serving.wall_nanos as f64 / 1e9) / 1e6;
    }
    let residual = (ingress.len() + tx_fifo.len()) as u64;
    let snapshot = buf.memory().snapshot().map(|s| s.with_serving(serving.clone()));

    let mut values = Values::new();
    values.insert("ingress.parks", serving.producer_parks as f64);
    values.insert("ingress.tail_drops", serving.ingress_drops as f64);
    values.insert("flow_table.lookups", lookups as f64);
    values.insert("flow_table.batched_ratio", batched_lookups as f64 / lookups.max(1) as f64);
    values.insert("packet_buffer.events", events_total as f64);
    values.insert("trace.path_s", loop_ns as f64 / 1e9);
    let epoch_us =
        spans.iter().filter(|s| s.layer == Layer::Serve).map(|s| s.dur() as f64 / 1e3).collect();
    let ft_ns: u64 =
        spans.iter().filter(|s| s.layer == Layer::FlowTable).map(Span::dur).sum::<u64>()
            + folded.iter().map(|f| f.busy).sum::<u64>();
    values.insert("flow_table.ns_per_lookup", ft_ns as f64 / lookups.max(1) as f64);
    let report = ServeReport { serving, snapshot, residual };
    Ok((Traced { report, values, epoch_us, spans, folded }, buf))
}
