//! What every workload shares: the operation recorder (latencies,
//! per-type counters, attempted/failed), set-up, read-back checks kept
//! out of the timed regions, and the metric lists a run prints. Every
//! workload prints the same metrics; the `op1`/`op2`/`op3` metrics are
//! the latencies of the three operation types a workload names (its
//! [`Slots`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use natix::{PlanExplain, PlanShape};

use crate::adapter::{Counters, Sut};
use crate::corpus::Corpus;
use crate::devices::{self, DeviceSnapshot};
use crate::trace::{self, Span};

/// The run's settings, from the command line.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// The operation types behind `op1`, `op2` and `op3`, in that order.
pub type Slots = [&'static str; 3];
const SLOT_NAMES: [&str; 3] = ["op1", "op2", "op3"];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// What a workload hands back to `main`, which turns it and the
/// [`Recorder`] into the printed metrics.
pub struct Outcome {
    pub slots: Slots,
    pub end_to_end: EndToEnd,
    /// [`layout_metrics`] at the end of a traced run; empty otherwise.
    pub layout: Metrics,
}

/// One operation type's record.
#[derive(Default)]
pub struct TypeRecord {
    /// Latencies of the timed call(s), in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Counter deltas summed over the type's operations.
    pub counters: Counters,
    /// Operations attempted (including uncounted maintenance types).
    pub ops: u64,
}

/// Plan shapes and summary estimates seen per operation type.
#[derive(Default)]
pub struct Plans {
    shapes: BTreeMap<(&'static str, &'static str), u64>,
    visited: u64,
    hits: u64,
}

const SHAPES: [(PlanShape, &str); 5] = [
    (PlanShape::SummaryOnly, "SummaryOnly"),
    (PlanShape::SummarySeeded, "SummarySeeded"),
    (PlanShape::IndexSeeded, "IndexSeeded"),
    (PlanShape::ParallelScan, "ParallelScan"),
    (PlanShape::LazyWalk, "LazyWalk"),
];

#[derive(Default)]
pub struct Recorder {
    pub types: BTreeMap<&'static str, TypeRecord>,
    /// Wall time inside operations and maintenance calls: the measured
    /// phase without the correctness checks.
    pub active: Duration,
    /// Counted operations (maintenance such as checkpoints excluded).
    pub attempted: u64,
    pub failed: u64,
    /// Check mismatches; empty when every output was correct.
    pub mismatches: Vec<String>,
    /// Completed operations per second of each closed window (a round or
    /// checkpoint interval), and where the open window started.
    window_rates: Vec<f64>,
    window_start: (u64, Duration),
    /// Set-up times, in seconds.
    pub setup_s: Vec<f64>,
    /// XML bytes stored by puts (set-up included) and read back by
    /// [`verify`], for the traced run's per-MB figures.
    put_bytes: u64,
    verify_bytes: u64,
    pub plans: Plans,
}

/// An operation in flight (see [`Recorder::begin`]).
pub struct OpHandle {
    ty: &'static str,
    counted: bool,
    span: Option<u32>,
    start: Instant,
    c0: Counters,
}

impl Recorder {
    fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Ends a measurement window (a round or checkpoint interval).
    pub fn close_window(&mut self) {
        let (ops, active) = self.window_start;
        let secs = (self.active - active).as_secs_f64();
        if secs > 0.0 {
            self.window_rates
                .push((self.completed() - ops) as f64 / secs);
        }
        self.window_start = (self.completed(), self.active);
    }

    /// Starts an operation of type `ty`. `counted` is false for
    /// maintenance calls (checkpoints), which take measured time but are
    /// not operations of the workload's mix.
    pub fn begin(&mut self, sut: &Sut, ty: &'static str, counted: bool) -> OpHandle {
        let c0 = sut.counters();
        OpHandle {
            ty,
            counted,
            span: trace::open_op(ty),
            start: Instant::now(),
            c0,
        }
    }

    /// Ends an operation. `latency` is the time of its timed call(s);
    /// `result` fails the operation when it is an error.
    pub fn end<T, E: std::fmt::Display>(
        &mut self,
        sut: &Sut,
        op: OpHandle,
        latency: Duration,
        result: Result<T, E>,
    ) -> Option<T> {
        self.active += op.start.elapsed();
        trace::close(op.span);
        let delta = sut.counters().since(&op.c0);
        let rec = self.types.entry(op.ty).or_default();
        rec.counters.add(&delta);
        rec.ops += 1;
        if op.counted {
            self.attempted += 1;
        }
        match result {
            Ok(v) => {
                rec.latency_ms.push(latency.as_secs_f64() * 1e3);
                Some(v)
            }
            Err(e) => {
                if op.counted {
                    self.failed += 1;
                }
                eprintln!("operation {} failed: {e}", op.ty);
                None
            }
        }
    }

    /// Records a mismatch between the program's output and the oracle.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.mismatches.push(msg);
        }
    }

    /// Notes the plan a planned query of type `ty` ran with.
    pub fn note_plan(&mut self, ty: &'static str, explain: &PlanExplain, hits: usize) {
        let shape = SHAPES
            .iter()
            .find(|(s, _)| *s == explain.shape)
            .map_or("?", |(_, n)| n);
        let p = &mut self.plans;
        *p.shapes.entry((ty, shape)).or_default() += 1;
        p.visited += explain.estimated_visited.unwrap_or(0);
        p.hits += hits as u64;
    }

    /// Adds the bytes of a put made outside [`set_up`].
    pub fn put(&mut self, xml_bytes: usize) {
        self.put_bytes += xml_bytes as u64;
    }

    fn record(&self, ty: &str) -> Option<&TypeRecord> {
        self.types.get(ty)
    }

    pub fn latencies(&self, ty: &str) -> &[f64] {
        self.record(ty).map_or(&[], |r| &r.latency_ms)
    }

    pub fn count(&self, ty: &str) -> usize {
        self.latencies(ty).len()
    }

    /// Operations of type `ty` attempted, failed ones included.
    pub fn attempts(&self, ty: &str) -> u64 {
        self.record(ty).map_or(0, |r| r.ops)
    }

    /// Sum of the counter deltas over the given types.
    pub fn counters(&self, types: &[&str]) -> Counters {
        let mut c = Counters::default();
        for t in types {
            if let Some(r) = self.record(t) {
                c.add(&r.counters);
            }
        }
        c
    }

    /// Counter deltas of the whole measured phase, maintenance included.
    fn measured(&self) -> Counters {
        let mut c = Counters::default();
        for r in self.types.values() {
            c.add(&r.counters);
        }
        c
    }

    /// Completed operations per second of operation time: the median
    /// over the run's windows, so a few seconds in which the host runs
    /// slow do not set the run's figure.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.window_rates)
    }
}

/// A repository after [`set_up`], and the log its set-up wrote.
pub struct SetUp {
    pub sut: Sut,
    pub log: DeviceSnapshot,
}

/// The set-up every workload times: a fresh repository with the given
/// pool, every corpus document stored under `name(doc)`, a checkpoint.
/// In a traced run it is one `setup` operation, and its puts go through
/// the split parse + bulkload path like every traced put.
pub fn set_up(
    corpus: &Corpus,
    buffer_bytes: usize,
    name: impl Fn(&str) -> String,
    rec: &mut Recorder,
) -> Result<SetUp, String> {
    let span = trace::open_op("setup");
    let log0 = devices::snapshot();
    let (sut, t) = timed(|| -> Result<Sut, natix::NatixError> {
        let sut = Sut::create(buffer_bytes)?;
        for d in &corpus.docs {
            sut.put(&name(&d.name), &d.xml)?;
        }
        sut.checkpoint()?;
        Ok(sut)
    });
    trace::close(span);
    let sut = sut.map_err(|e| format!("set-up failed: {e}"))?;
    rec.setup_s.push(t.as_secs_f64());
    rec.put_bytes += corpus.xml_bytes();
    Ok(SetUp {
        sut,
        log: devices::snapshot().since(&log0),
    })
}

/// Reads each `(name, want)` document back with `get_xml` and checks it
/// equals `want`. Outside the measured phase; in a traced run it is one
/// `verify` operation, whose reconstruction time per MB is a per-layer
/// figure.
pub fn verify<'a>(
    sut: &Sut,
    rec: &mut Recorder,
    docs: impl IntoIterator<Item = (String, &'a str)>,
    when: &str,
) {
    let span = trace::open_op("verify");
    for (name, want) in docs {
        let got = sut.get_xml(&name);
        rec.verify_bytes += got.as_ref().map_or(0, |x| x.len() as u64);
        rec.check(got.is_ok_and(|x| x == want), || {
            format!("{when}: get_xml({name}) differs from the oracle")
        });
    }
    trace::close(span);
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut natix_corpus::SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// Times `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// The value at quantile `q` by the nearest-rank rule: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail percentile: p90. Runs continue until the `op1` type has
/// [`TAIL_MIN_SAMPLES`], so at least 100 samples lie beyond it. Higher
/// percentiles are not steady on a shared VM: its vCPUs are preempted for
/// ~10 ms at a time, and the share of operations a preemption lands in
/// changes from run to run and grows with an operation's length, so
/// `query` lookup p99 moved between 2.8 and 7.8 ms, and `ingest` delete
/// p95 (≈5 ms operations) between 6.0 and 8.7 ms, over runs of one build.
pub const TAIL_Q: f64 = 0.90;
pub const TAIL_MIN_SAMPLES: u64 = 1000;

pub fn tail(samples: &[f64]) -> f64 {
    quantile(samples, TAIL_Q)
}

/// The figures behind the end-to-end metrics that only the workload
/// knows.
pub struct EndToEnd {
    /// `disk_bytes()` ÷ XML bytes of the live documents at the end.
    pub space_per_xml_byte: f64,
    /// Log written, and public write calls made, in the phase the log
    /// figures cover: the measured phase, or for a workload that writes
    /// nothing there, its set-up.
    pub log: DeviceSnapshot,
    pub writes: u64,
}

/// The end-to-end metrics, the same list for every workload.
pub fn end_to_end(rec: &Recorder, slots: &Slots, e: &EndToEnd) -> Metrics {
    let mut m = Metrics::default();
    m.add("setup_s", median(&rec.setup_s), "s");
    m.add("ops_per_s", rec.ops_per_s(), "1/s");
    m.add("space_per_xml_byte", e.space_per_xml_byte, "ratio");
    let writes = e.writes as f64;
    m.add(
        "log_bytes_per_write",
        e.log.log_bytes as f64 / writes,
        "bytes",
    );
    m.add(
        "log_syncs_per_write",
        e.log.log_syncs as f64 / writes,
        "count",
    );
    m.add("op1_p50_ms", median(rec.latencies(slots[0])), "ms");
    m.add("op1_tail_ms", tail(rec.latencies(slots[0])), "ms");
    m.add("op2_p50_ms", median(rec.latencies(slots[1])), "ms");
    m.add("op3_p50_ms", median(rec.latencies(slots[2])), "ms");
    m
}

/// Per-layer figures read from the traced run's spans.
pub struct SpanTotals {
    /// Calls and inclusive nanoseconds per (operation type, `layer:name`).
    totals: BTreeMap<(&'static str, String), (u64, u64)>,
    breakdown: trace::Breakdown,
    /// Spans and operations recorded, for the tracing-overhead estimate.
    spans: u64,
    ops: u64,
}

impl SpanTotals {
    pub fn new(spans: &[Span], op_types: &[&'static str]) -> SpanTotals {
        SpanTotals {
            totals: trace::call_totals(spans, op_types),
            breakdown: trace::breakdown(spans, op_types),
            spans: spans.len() as u64,
            ops: op_types.len() as u64,
        }
    }

    /// Calls and inclusive milliseconds of `call` within operations of
    /// every type (`types` empty) or of the given types.
    fn calls_ms(&self, types: &[&str], call: &str) -> (u64, f64) {
        self.totals
            .iter()
            .filter(|((ty, c), _)| (types.is_empty() || types.contains(ty)) && c == call)
            .fold((0, 0.0), |(n, ms), (_, &(k, ns))| {
                (n + k, ms + ns as f64 / 1e6)
            })
    }

    /// Self milliseconds of the layer's calls within operations of the
    /// given types.
    fn self_ms(&self, types: &[&str], layer: &str) -> f64 {
        let prefix = format!("{layer}:");
        self.breakdown
            .iter()
            .filter(|(ty, _)| types.contains(ty))
            .flat_map(|(_, (_, layers))| layers.iter())
            .filter(|(name, _)| name.starts_with(&prefix))
            .map(|(_, c)| c.self_ns as f64 / 1e6)
            .sum()
    }

    pub fn spans_per_op(&self) -> f64 {
        self.spans as f64 / self.ops.max(1) as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by (a count of a
/// layer the workload does not reach).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics, the same list for every workload. `layout`
/// holds [`layout_metrics`] of the live documents at the end of the run.
/// "Per op" divides measured-phase totals (checkpoints included) by the
/// counted operations; the per-MB times cover every put of the run
/// (set-up included) and every read-back of [`verify`].
pub fn per_layer(rec: &Recorder, slots: &Slots, layout: Metrics, spans: &SpanTotals) -> Metrics {
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let ops = rec.attempted as f64;
    let measured: Vec<&str> = rec.types.keys().copied().collect();
    let all = rec.measured();
    let mut out = Metrics::default();
    out.add(
        "xml.parser.ms_per_mb",
        spans.calls_ms(&[], "xml:parse_document").1 / mb(rec.put_bytes),
        "ms/MB",
    );
    out.add(
        "tree.bulkload.ms_per_mb",
        spans.calls_ms(&[], "tree:put_document").1 / mb(rec.put_bytes),
        "ms/MB",
    );
    out.add(
        "tree.reconstruct.ms_per_mb",
        spans.calls_ms(&["verify"], "tree:get_xml").1 / mb(rec.verify_bytes),
        "ms/MB",
    );
    out.0.extend(layout.0);
    out.add(
        "storage.buffer.hit_ratio",
        ratio(all.io.buffer_hits as f64, all.pins() as f64),
        "ratio",
    );
    out.add(
        "storage.buffer.evictions_per_op",
        ratio(all.evictions() as f64, ops),
        "count",
    );
    for (slot, ty) in SLOT_NAMES.iter().zip(slots) {
        let c = rec.counters(&[ty]);
        out.add(
            format!("storage.buffer.pins_per_op.{slot}"),
            ratio(c.pins() as f64, rec.count(ty) as f64),
            "count",
        );
    }
    out.add(
        "storage.disk.reads_per_op",
        ratio(all.dev.disk_reads as f64, ops),
        "count",
    );
    out.add(
        "storage.disk.writes_per_op",
        ratio(all.dev.disk_writes as f64, ops),
        "count",
    );
    for (slot, ty) in SLOT_NAMES.iter().zip(slots) {
        let c = rec.counters(&[ty]);
        let n = rec.count(ty) as f64;
        out.add(
            format!("storage.wal.bytes_per_op.{slot}"),
            ratio(c.dev.log_bytes as f64, n),
            "bytes",
        );
        out.add(
            format!("storage.wal.syncs_per_op.{slot}"),
            ratio(c.dev.log_syncs as f64, n),
            "count",
        );
    }
    // Over the whole run: every workload's set-up writes log, so the
    // figure exists for each.
    let life = devices::snapshot();
    out.add(
        "storage.wal.ms_per_mb",
        life.log_ns as f64 / 1e6 / mb(life.log_bytes),
        "ms/MB",
    );
    out.add(
        "core.self_ms_per_op",
        spans.self_ms(&measured, "core") / ops,
        "ms",
    );
    for (slot, ty) in SLOT_NAMES.iter().zip(slots) {
        for (_, shape) in SHAPES {
            let n = rec.plans.shapes.get(&(*ty, shape)).copied().unwrap_or(0);
            out.add(
                format!("core.query.plan.{slot}.{shape}"),
                ratio(n as f64, rec.count(ty) as f64),
                "ratio",
            );
        }
    }
    out.add(
        "core.path_summary.visited_per_hit",
        ratio(rec.plans.visited as f64, rec.plans.hits as f64),
        "ratio",
    );
    // Every workload's set-up checkpoints, so the figure exists for each.
    let (checkpoints, ms) = spans.calls_ms(&[], "core:checkpoint");
    out.add("core.catalog.checkpoint_ms", ms / checkpoints as f64, "ms");
    out
}

/// Physical layout of the live documents (natix-tree's `physical_stats`)
/// and the segment's allocation, against the documents' XML size.
pub fn layout_metrics(sut: &Sut, names: &[String], xml_bytes: u64) -> Result<Metrics, String> {
    let (mut records, mut depth, mut bytes) = (0, 0, 0);
    for name in names {
        let s = sut
            .physical_stats(name)
            .map_err(|e| format!("physical_stats({name}) failed: {e}"))?;
        records += s.records;
        depth += s.record_depth;
        bytes += s.record_bytes;
    }
    let n = names.len() as f64;
    let mut out = Metrics::default();
    out.add("tree.records_per_doc", records as f64 / n, "count");
    out.add("tree.record_depth", depth as f64 / n, "count");
    out.add(
        "tree.record_bytes_per_xml_byte",
        bytes as f64 / xml_bytes as f64,
        "ratio",
    );
    out.add(
        "tree.page_fill",
        bytes as f64 / sut.disk_bytes() as f64,
        "ratio",
    );
    out.add(
        "storage.segment.pages_allocated",
        sut.pages_allocated() as f64,
        "count",
    );
    Ok(out)
}
