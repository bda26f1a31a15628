//! Span recording for the traced run. A span is opened around every call
//! the adapter makes into a layer of the program, and around every
//! benchmark operation (the root span of its calls). Spans stay in memory
//! and are written out when the run ends. Each span also carries the
//! device time and calls that happened inside it, read from the counting
//! devices, so storage time can be split out of the calling layer's time.
//!
//! Off by default: with tracing off, [`span`] and [`open_op`] only call
//! through.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::devices::{self, DeviceSnapshot};

pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// The operation this span belongs to.
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Device time and calls inside the span (inclusive of children).
    pub dev: DeviceSnapshot,
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<(u32, DeviceSnapshot)>,
    /// Operation type of each operation id.
    op_types: Vec<&'static str>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Turns tracing on for the calling thread (the benchmark's one client
/// thread) and device timing for the process.
pub fn enable() {
    devices::enable_timing();
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_types: Vec::new(),
        })
    });
}

/// Whether tracing is on for the calling thread.
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

fn begin(layer: &'static str, name: &'static str, new_op: Option<&'static str>) -> Option<u32> {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let tr = guard.as_mut()?;
        let (op, parent) = match (new_op, tr.open.last()) {
            (Some(ty), _) => {
                tr.op_types.push(ty);
                (tr.op_types.len() as u32 - 1, None)
            }
            // Calls made outside any operation (checks other than the
            // `verify` read-backs, oracle comparisons) are not measured
            // work.
            (None, None) => return None,
            (None, Some(&(p, _))) => (tr.spans[p as usize].op, Some(p)),
        };
        let id = tr.spans.len() as u32;
        let start_ns = tr.t0.elapsed().as_nanos() as u64;
        tr.spans.push(Span {
            layer,
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            dev: DeviceSnapshot::default(),
        });
        tr.open.push((id, devices::snapshot()));
        Some(id)
    })
}

fn end(id: Option<u32>) {
    let Some(id) = id else { return };
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(tr) = guard.as_mut() else { return };
        let (open_id, dev0) = tr.open.pop().expect("spans close in order");
        debug_assert_eq!(open_id, id);
        let end_ns = tr.t0.elapsed().as_nanos() as u64;
        let s = &mut tr.spans[id as usize];
        s.end_ns = end_ns;
        s.dev = devices::snapshot().since(&dev0);
    })
}

/// Runs `f` inside a span of `layer` (a call into that layer).
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = begin(layer, name, None);
    let out = f();
    end(id);
    out
}

/// Opens one benchmark operation of type `ty`: the root span that the
/// operation's layer calls nest under. Close it with [`close`].
pub fn open_op(ty: &'static str) -> Option<u32> {
    begin("bench", ty, Some(ty))
}

pub fn close(id: Option<u32>) {
    end(id)
}

/// Self time and count of one layer within one operation type.
#[derive(Default, Clone, Copy)]
pub struct LayerCost {
    pub calls: u64,
    pub self_ns: u64,
}

/// Per operation type: operation count and each layer's cost.
pub type Breakdown = BTreeMap<&'static str, (u64, BTreeMap<String, LayerCost>)>;

/// Drains the recorded spans: writes them to `path` as tab-separated
/// lines and returns the spans for metric extraction.
pub fn finish(path: &std::path::Path) -> std::io::Result<(Vec<Span>, Vec<&'static str>)> {
    let tr = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("tracing was enabled");
    let mut text =
        String::from("id\tparent\top\top_type\tlayer\tname\tstart_ns\tend_ns\tdisk_ns\tlog_ns\n");
    for (i, s) in tr.spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.op,
            tr.op_types[s.op as usize],
            s.layer,
            s.name,
            s.start_ns,
            s.end_ns,
            s.dev.disk_ns,
            s.dev.log_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)?;
    Ok((tr.spans, tr.op_types))
}

/// Each layer's call count and self time per operation type. A span's
/// self time is its duration minus its children's and minus the device
/// time inside it that no child accounts for; that device time is
/// charged to `storage.disk` / `storage.wal`.
pub fn breakdown(spans: &[Span], op_types: &[&'static str]) -> Breakdown {
    let mut child_dur = vec![0u64; spans.len()];
    let mut child_dev = vec![DeviceSnapshot::default(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            child_dur[p] += s.end_ns - s.start_ns;
            let c = &mut child_dev[p];
            c.disk_ns += s.dev.disk_ns;
            c.log_ns += s.dev.log_ns;
            c.disk_reads += s.dev.disk_reads;
            c.disk_writes += s.dev.disk_writes;
            c.log_appends += s.dev.log_appends;
            c.log_syncs += s.dev.log_syncs;
        }
    }
    let mut out = Breakdown::new();
    for ty in op_types {
        out.entry(ty).or_default().0 += 1;
    }
    for (i, s) in spans.iter().enumerate() {
        let own = s.dev.since(&child_dev[i]);
        let (_, layers) = out.get_mut(op_types[s.op as usize]).expect("counted above");
        let mut add = |layer: String, calls: u64, ns: u64| {
            let c = layers.entry(layer).or_default();
            c.calls += calls;
            c.self_ns += ns;
        };
        let dur = s.end_ns - s.start_ns;
        let self_ns = dur.saturating_sub(child_dur[i] + own.disk_ns + own.log_ns);
        add(format!("{}:{}", s.layer, s.name), 1, self_ns);
        add(
            "storage.disk".into(),
            own.disk_reads + own.disk_writes,
            own.disk_ns,
        );
        add(
            "storage.wal".into(),
            own.log_appends + own.log_syncs,
            own.log_ns,
        );
    }
    out
}

/// Calls and inclusive time of each `layer:name` per operation type.
pub fn call_totals(
    spans: &[Span],
    op_types: &[&'static str],
) -> BTreeMap<(&'static str, String), (u64, u64)> {
    let mut out: BTreeMap<(&'static str, String), (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out
            .entry((op_types[s.op as usize], format!("{}:{}", s.layer, s.name)))
            .or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
    }
    out
}

/// Measures what one span costs to record, in nanoseconds: the tracing
/// overhead the traced run adds per span.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let t = Instant::now();
    let id = open_op("calibrate");
    for _ in 0..N {
        span("calibrate", "empty", || ());
    }
    close(id);
    let ns = t.elapsed().as_nanos() as f64 / f64::from(N + 1);
    // Drop the calibration spans so they do not show in the report.
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.spans.clear();
            tr.op_types.clear();
        }
    });
    ns
}
