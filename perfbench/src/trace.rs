//! In-memory span recording and the arithmetic that turns spans into
//! per-layer busy and self times.
//!
//! A span is one timed call into a layer: its name, start and end on a
//! process-wide monotonic clock, the layer that caused it, and the id of
//! the epoch (serve) or shard (campaign) it belongs to. Parents are
//! identified by `(parent layer, id)`, which is unique because every
//! layer is entered at most once per epoch or shard — except the leaf
//! calls recorded as [`Folded`] totals, which happen per packet.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Children may overlap (two fabric
//! workers running channels at once); the covered part is the measure of
//! the union of their intervals, so overlapping work is counted once.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// The repository layers the benchmark times, named after its modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// One server-loop epoch of `vpnm_apps::serve`.
    Serve,
    /// `IngressRig::next_epoch`: the server waiting for producer batches.
    Ingress,
    /// `FlowTable` lookups.
    FlowTable,
    /// `VpnmPacketBuffer::run_epoch_arena`.
    PacketBuffer,
    /// One `VpnmFabric` epoch (route, worker hand-off, merge).
    Fabric,
    /// One `PipelinedMemory` call into a bank controller.
    Controller,
    /// `UniformAddresses::fill_addrs` on a campaign shard thread.
    Workloads,
    /// One campaign shard, end to end.
    Campaign,
}

impl Layer {
    /// The layer's name as the per-layer metrics spell it.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Serve => "serve",
            Layer::Ingress => "ingress",
            Layer::FlowTable => "flow_table",
            Layer::PacketBuffer => "packet_buffer",
            Layer::Fabric => "fabric",
            Layer::Controller => "controller",
            Layer::Workloads => "workloads",
            Layer::Campaign => "campaign",
        }
    }
}

/// Nanoseconds since the first call in this process, on the monotonic
/// clock shared by every thread.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// The layer whose span caused this one (`None` for a root).
    pub parent: Option<Layer>,
    /// Epoch (serve) or shard (campaign) id, shared with the parent.
    pub id: u32,
    /// Channel or worker lane, for spans that run in parallel.
    pub lane: u32,
    /// Start, in [`now_ns`] nanoseconds.
    pub start: u64,
    /// End, in [`now_ns`] nanoseconds.
    pub end: u64,
}

impl Span {
    /// Times `f` as a span of `layer` under `(parent, id)`.
    pub fn time<T>(
        out: &mut Vec<Span>,
        layer: Layer,
        parent: Option<Layer>,
        id: u32,
        lane: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = now_ns();
        let value = f();
        out.push(Span { layer, parent, id, lane, start, end: now_ns() });
        value
    }

    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Many short same-thread calls of one layer within one parent span,
/// kept as a total instead of one span each (a span per packet would
/// cost more memory than the run it describes). They never overlap the
/// parent's other children, so they subtract from its self time as a sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Folded {
    /// The layer called.
    pub layer: Layer,
    /// The layer whose span the calls ran inside.
    pub parent: Layer,
    /// Epoch id, shared with the parent.
    pub id: u32,
    /// Summed duration of the calls, in nanoseconds.
    pub busy: u64,
    /// Number of calls.
    pub calls: u64,
}

/// Measure of the union of `[start, end)` intervals, in nanoseconds.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-layer totals over one traced iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Summed span durations (folded calls included).
    pub busy: u64,
    /// Summed self time: busy minus the union of child coverage.
    pub self_time: u64,
    /// Summed per-parent union of this layer's spans: the time the layer
    /// occupied its caller, counting parallel spans once.
    pub path: u64,
    /// Spans (or folded calls) recorded.
    pub calls: u64,
}

/// `[start, end)` intervals in nanoseconds.
type Intervals = Vec<(u64, u64)>;

/// Busy, self and path time of every layer present in `spans`/`folded`.
pub fn layer_times(
    spans: &[Span],
    folded: &[Folded],
) -> std::collections::BTreeMap<Layer, LayerTimes> {
    use std::collections::BTreeMap;
    // Child intervals and folded busy time per parent span.
    let mut children: BTreeMap<(Layer, u32), Intervals> = BTreeMap::new();
    let mut folded_child: BTreeMap<(Layer, u32), u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry((p, s.id)).or_default().push((s.start, s.end));
        }
    }
    for f in folded {
        *folded_child.entry((f.parent, f.id)).or_default() += f.busy;
    }
    let mut out: BTreeMap<Layer, LayerTimes> = BTreeMap::new();
    let mut own: BTreeMap<(Layer, Option<Layer>, u32), Intervals> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&(s.layer, s.id)).map_or(0, |c| union_ns(c))
            + folded_child.get(&(s.layer, s.id)).copied().unwrap_or(0);
        let t = out.entry(s.layer).or_default();
        t.busy += s.dur();
        t.self_time += s.dur().saturating_sub(covered);
        t.calls += 1;
        own.entry((s.layer, s.parent, s.id)).or_default().push((s.start, s.end));
    }
    for ((layer, _, _), mut ivs) in own {
        out.entry(layer).or_default().path += union_ns(&mut ivs);
    }
    for f in folded {
        let t = out.entry(f.layer).or_default();
        t.busy += f.busy;
        t.self_time += f.busy;
        t.path += f.busy;
        t.calls += f.calls;
    }
    out
}

/// Whether `n` samples leave at least ten beyond percentile `q`: the
/// condition for reporting that percentile at all, since a tail
/// percentile resting on fewer samples is one outlier's value.
pub fn supports(n: u64, q: f64) -> bool {
    n > 0 && (n as f64) * (1.0 - q) >= 10.0 - 1e-9
}

/// Nearest-rank percentile `q` of `values`; `None` unless [`supports`].
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if !supports(n as u64, q) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Percentile `q` of a latency histogram; an error unless [`supports`].
pub fn hist_percentile(h: &vpnm_sim::FineHistogram, q: f64) -> Result<f64, String> {
    if !supports(h.total(), q) {
        return Err(format!("{} latency samples cannot support percentile {q}", h.total()));
    }
    Ok(h.quantile(q).unwrap_or(0) as f64)
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Renders spans as tab-separated lines: layer, parent, id, lane, start
/// and end in nanoseconds.
pub fn render_spans(spans: &[Span], folded: &[Folded]) -> String {
    let mut out = String::from("# layer\tparent\tid\tlane\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or("-", Layer::name);
        let _ = writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}",
            s.layer.name(),
            s.id,
            s.lane,
            s.start,
            s.end
        );
    }
    out.push_str("# folded: layer\tparent\tid\tbusy_ns\tcalls\n");
    for f in folded {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            f.layer.name(),
            f.parent.name(),
            f.id,
            f.busy,
            f.calls
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<Layer>, id: u32, lane: u32, start: u64, end: u64) -> Span {
        Span { layer, parent, id, lane, start, end }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(0, 10)]), 10);
        assert_eq!(union_ns(&mut [(5, 15), (0, 10)]), 15);
        assert_eq!(union_ns(&mut [(0, 10), (20, 30)]), 20);
        assert_eq!(union_ns(&mut [(0, 10), (2, 4), (10, 12)]), 12);
    }

    /// The two-worker fabric case: channel spans from two workers overlap
    /// inside one fabric epoch span. Self time subtracts their union,
    /// not their sum, and the layers' self times add up to the root.
    #[test]
    fn self_time_counts_overlapping_children_once() {
        use Layer::*;
        let spans = vec![
            span(Serve, None, 0, 0, 0, 100),
            span(Ingress, Some(Serve), 0, 0, 0, 10),
            span(PacketBuffer, Some(Serve), 0, 0, 20, 90),
            span(Fabric, Some(PacketBuffer), 0, 0, 25, 85),
            // Worker 0 runs channels 0 and 2, worker 1 runs 1 and 3.
            span(Controller, Some(Fabric), 0, 0, 30, 50),
            span(Controller, Some(Fabric), 0, 2, 50, 60),
            span(Controller, Some(Fabric), 0, 1, 32, 70),
            span(Controller, Some(Fabric), 0, 3, 70, 75),
        ];
        let folded = vec![Folded { layer: FlowTable, parent: Serve, id: 0, busy: 6, calls: 3 }];
        let t = layer_times(&spans, &folded);
        assert_eq!(t[&Serve].self_time, 100 - 10 - 70 - 6);
        assert_eq!(t[&PacketBuffer].self_time, 70 - 60);
        // Union of [30,60) and [32,75) is [30,75): 45 of the fabric's 60.
        assert_eq!(t[&Fabric].self_time, 60 - 45);
        assert_eq!(t[&Controller].busy, 20 + 10 + 38 + 5);
        assert_eq!(t[&Controller].path, 45);
        assert_eq!(t[&Controller].calls, 4);
        assert_eq!(t[&FlowTable].busy, 6);
        // Self times along the blocking path sum to the root span.
        let path = t[&Serve].self_time
            + t[&Ingress].self_time
            + t[&FlowTable].self_time
            + t[&PacketBuffer].self_time
            + t[&Fabric].self_time
            + t[&Controller].path;
        assert_eq!(path, 100);
    }

    #[test]
    fn children_attach_by_epoch_id() {
        use Layer::*;
        let spans = vec![
            span(Serve, None, 0, 0, 0, 10),
            span(Serve, None, 1, 0, 10, 20),
            span(PacketBuffer, Some(Serve), 1, 0, 12, 18),
        ];
        let t = layer_times(&spans, &[]);
        assert_eq!(t[&Serve].self_time, 10 + 4);
        assert_eq!(t[&Serve].busy, 20);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // p99.9 of 1000 samples has one sample beyond it.
        assert_eq!(percentile(&v, 0.999), None);
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        let w: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.999), Some(9990.0));
        let mut h = vpnm_sim::FineHistogram::new();
        h.record_n(7, 9_999);
        assert!(hist_percentile(&h, 0.999).is_err());
        h.record(7);
        assert_eq!(hist_percentile(&h, 0.999), Ok(7.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
