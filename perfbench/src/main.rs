//! One benchmark command for the NATIX repository: three seeded
//! workloads (`ingest`, `query`, `edit`) run in memory from one client
//! thread, and every output is checked against an oracle kept apart from
//! the storage engine.
//!
//! ```text
//! natix-perfbench --workload <ingest|query|edit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). See README.md.

mod adapter;
mod corpus;
mod devices;
mod edit;
mod harness;
mod ingest;
mod oracle;
mod query;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

use harness::{timed, Metrics, Recorder, RunConfig, SpanTotals};

/// Where runs leave their span files and untraced results (relative to
/// the working directory, the repository root).
const OUT_DIR: &str = ".perfbench_out";

static TRACE_FILE: OnceLock<PathBuf> = OnceLock::new();
static SPAN_COST_NS: OnceLock<f64> = OnceLock::new();

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("natix-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn arg<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    let i = args
        .iter()
        .position(|a| a == flag)
        .ok_or_else(|| format!("missing {flag}"))?;
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = arg(&args, "--workload")?.to_string();
    let cfg = RunConfig {
        seed: arg(&args, "--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: arg(&args, "--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        traced: match arg(&args, "--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    let run: fn(&RunConfig, &corpus::Corpus, &mut Recorder) -> Result<harness::Outcome, String> =
        match workload.as_str() {
            "ingest" => ingest::run,
            "query" => query::run,
            "edit" => edit::run,
            other => return Err(format!("unknown workload {other}")),
        };
    oracle::self_test()?;
    let out_dir = PathBuf::from(OUT_DIR);
    if cfg.traced {
        trace::enable();
        let _ = SPAN_COST_NS.set(trace::span_cost_ns());
        let _ = TRACE_FILE.set(out_dir.join(format!("spans-{workload}-seed{}.tsv", cfg.seed)));
    }
    let (corpus, gen) = timed(corpus::Corpus::generate);
    println!(
        "workload {workload}, seed {}, {} documents, {} XML bytes (generated in {:.2} s), traced: {}",
        cfg.seed,
        corpus.docs.len(),
        corpus.xml_bytes(),
        gen.as_secs_f64(),
        cfg.traced
    );

    let mut rec = Recorder::default();
    let outcome = run(&cfg, &corpus, &mut rec)?;
    let setups: Vec<String> = rec.setup_s.iter().map(|t| format!("{t:.3}")).collect();
    println!("set-up times (s): {}", setups.join(" "));
    let [op1, op2, op3] = outcome.slots;
    println!("op1 = {op1}, op2 = {op2}, op3 = {op3}");
    for (ty, r) in &rec.types {
        if !r.latency_ms.is_empty() {
            println!(
                "  {ty:<10} n={:<6} p50={:.4} ms  p99={:.4} ms",
                r.latency_ms.len(),
                harness::median(&r.latency_ms),
                harness::quantile(&r.latency_ms, 0.99)
            );
        }
    }
    let untraced = out_dir.join(format!("{workload}-seed{}.tsv", cfg.seed));
    let end_to_end = harness::end_to_end(&rec, &outcome.slots, &outcome.end_to_end);
    let metrics = if cfg.traced {
        compare_with_untraced(&end_to_end, &untraced);
        let spans = finish_trace()?;
        let mut per_layer = harness::per_layer(&rec, &outcome.slots, outcome.layout, &spans);
        overhead_metric(&spans, &mut per_layer);
        per_layer
    } else {
        let mut saved = String::new();
        for m in &end_to_end.0 {
            let _ = writeln!(saved, "{}\t{}\t{}", m.name, m.value, m.unit);
        }
        std::fs::create_dir_all(&out_dir)
            .and_then(|_| std::fs::write(&untraced, saved))
            .map_err(|e| format!("writing {}: {e}", untraced.display()))?;
        end_to_end
    };
    for m in &metrics.0 {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a number", m.name));
        }
    }
    println!("{}", result_json(&rec, &metrics));
    Ok(())
}

/// The traced run's end-to-end figures beside the untraced run's (when
/// one was made with the same workload and seed): the tracing overhead.
fn compare_with_untraced(traced: &Metrics, untraced: &std::path::Path) {
    let saved = std::fs::read_to_string(untraced).unwrap_or_default();
    println!("end-to-end, traced vs untraced ({}):", untraced.display());
    for m in &traced.0 {
        let base = saved
            .lines()
            .filter_map(|l| {
                l.split('\t')
                    .collect::<Vec<_>>()
                    .get(..2)
                    .map(|v| (v[0].to_string(), v[1].to_string()))
            })
            .find(|(n, _)| *n == m.name)
            .and_then(|(_, v)| v.parse::<f64>().ok());
        match base {
            Some(b) => println!(
                "  {:<22} {:>14.4} {:>14.4} {:<6} traced/untraced {:.3}",
                m.name,
                m.value,
                b,
                m.unit,
                m.value / b
            ),
            None => println!("  {:<22} {:>14.4} {:>14} {}", m.name, m.value, "-", m.unit),
        }
    }
}

/// Ends tracing: writes the span file, prints each layer's calls and self
/// time per operation type, and returns the totals the per-layer metrics
/// are computed from.
fn finish_trace() -> Result<SpanTotals, String> {
    let path = TRACE_FILE.get().ok_or("tracing is off")?;
    let (spans, op_types) =
        trace::finish(path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "per-layer self time ({} spans, written to {}):",
        spans.len(),
        path.display()
    );
    for (ty, (ops, layers)) in trace::breakdown(&spans, &op_types) {
        println!("  {ty} ×{ops}");
        for (layer, c) in layers {
            if c.calls > 0 || c.self_ns > 0 {
                println!(
                    "    {layer:<36} calls {:>9}  self {:>10.3} ms  {:>9.4} ms/op",
                    c.calls,
                    c.self_ns as f64 / 1e6,
                    c.self_ns as f64 / 1e6 / ops as f64
                );
            }
        }
    }
    Ok(SpanTotals::new(&spans, &op_types))
}

/// The tracing cost per operation: spans recorded per operation times the
/// measured cost of recording one.
fn overhead_metric(spans: &SpanTotals, out: &mut Metrics) {
    let per_span = SPAN_COST_NS.get().copied().unwrap_or(0.0);
    out.add(
        "trace.overhead_ms_per_op",
        spans.spans_per_op() * per_span / 1e6,
        "ms",
    );
}

fn result_json(rec: &Recorder, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, x) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        rec.mismatches.is_empty(),
        rec.attempted,
        rec.failed
    )
}
