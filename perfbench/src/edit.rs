//! `edit`: durable edits beside reads on the corpus loaded at set-up,
//! under the paper's 2 MB pool. Each operation is a seeded choice among
//! `update` (40 %), `insert` (20 %), `delete` (20 %) and `read` (20 %) on
//! the plays' LINEs and SPEECHes; targets are found through the planner,
//! and only the write or read call itself is timed. Every
//! [`WRITES_PER_CHECKPOINT`] writes the workload checkpoints. The mirror
//! DOM receives every acknowledged edit; each read, and after the run each
//! document, must read back as the mirror.
//!
//! A crash with reopens is left out: recovery restores a document whose
//! root record moved after the last checkpoint with its old root (see the
//! README), so an after-reopen check fails on some seeds and run lengths.

use std::time::Duration;

use natix::{DocId, NodeId};
use natix_corpus::SplitMix64;
use natix_xml::Document;

use crate::adapter::Sut;
use crate::corpus::Corpus;
use crate::harness::{
    self, timed, EndToEnd, Metrics, OpHandle, Outcome, Recorder, RunConfig, Slots, TAIL_MIN_SAMPLES,
};
use crate::oracle::{self, Edit};
use crate::query::Shape;

pub const BUFFER_BYTES: usize = 2 * 1024 * 1024;
pub const SETUPS: usize = 9;
pub const WRITES_PER_CHECKPOINT: usize = 500;
/// `op1`, `op2`, `op3`: a text update, a LINE insert, a SPEECH read
/// (deletes are part of the mix without a latency metric).
pub const SLOTS: Slots = ["update", "insert", "read"];
const WORDS: [&str; 12] = [
    "the",
    "king",
    "doth",
    "wake",
    "tonight",
    "and",
    "takes",
    "his",
    "rouse",
    "keeps",
    "wassail",
    "swaggering",
];

struct Play {
    doc: DocId,
    name: String,
    shape: Shape,
}

fn words(rng: &mut SplitMix64) -> String {
    let n = rng.range(3, 9);
    (0..n)
        .map(|_| *rng.pick(&WORDS))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Counts children of the mirror node at `path` named `name`, and all
/// its children.
fn children(dom: &Document, corpus: &Corpus, path: &str, name: &str) -> (usize, usize) {
    let node = oracle::eval(dom, &corpus.symbols, &oracle::parse(path))[0];
    let kids = oracle::eval(
        dom,
        &corpus.symbols,
        &oracle::parse(&format!("{path}/{name}")),
    );
    (kids.len(), dom.children(node).len())
}

/// Compares every document with the mirror.
fn check_all(sut: &Sut, corpus: &Corpus, mirror: &[Document], when: &str, rec: &mut Recorder) {
    let want: Vec<String> = mirror
        .iter()
        .map(|dom| oracle::serialize(dom, &corpus.symbols, dom.root()))
        .collect();
    let docs = corpus
        .docs
        .iter()
        .zip(&want)
        .map(|(d, w)| (d.name.clone(), w.as_str()));
    harness::verify(sut, rec, docs, when);
}

pub fn run(cfg: &RunConfig, corpus: &Corpus, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        setup = Some(harness::set_up(corpus, BUFFER_BYTES, str::to_string, rec)?);
    }
    let sut = setup.expect("at least one set-up").sut;
    let mut mirror: Vec<Document> = corpus.docs.iter().map(|d| d.dom.clone()).collect();
    let plays: Vec<(usize, Play)> = corpus
        .docs
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_play)
        .map(|(i, d)| {
            Ok((
                i,
                Play {
                    doc: sut.doc_id(&d.name)?,
                    name: d.name.clone(),
                    shape: Shape::of(&d.dom, &corpus.symbols),
                },
            ))
        })
        .collect::<Result<_, natix::NatixError>>()
        .map_err(|e| format!("doc_id failed: {e}"))?;

    let mut rng = SplitMix64::new(cfg.seed ^ 0xED17);
    let mut writes = 0usize;
    loop {
        let mut interval = 0usize;
        while interval < WRITES_PER_CHECKPOINT {
            let (i, play) = &plays[rng.below(plays.len())];
            let dom = &mut mirror[*i];
            // Speeches keep their count (inserts and deletes touch LINEs
            // only), so the set-up shape stays valid.
            let (a, s) = play.shape.scene(&mut rng);
            let k = rng.below(play.shape.0[a - 1][s - 1]) + 1;
            let speech = format!("/PLAY/ACT[{a}]/SCENE[{s}]/SPEECH[{k}]");
            let (lines, kids) = children(dom, corpus, &speech, "LINE");
            let roll = rng.below(100);
            let ty = match roll {
                0..=39 if lines > 0 => "update",
                40..=59 => "insert",
                60..=79 if lines > 1 => "delete",
                _ => "read",
            };
            let calls = match ty {
                "insert" => 2,
                "update" | "delete" => 1,
                _ => 0,
            };
            // Failed writes count toward the interval too, so a run always
            // ends.
            interval += calls;
            let op = rec.begin(&sut, ty, true);
            let edit = match ty {
                "update" => {
                    let path = format!("{speech}/LINE[{}]/text()", rng.below(lines) + 1);
                    let text = words(&mut rng);
                    let res = locate(rec, ty, &sut, play.doc, &path)
                        .and_then(|id| timed_write(|| sut.update_text(play.doc, id, &text)));
                    finish(rec, &sut, op, res).then_some(Edit::Update { path, text })
                }
                "insert" => {
                    // After the SPEAKER, anywhere among the LINEs.
                    let index = rng.range(1, kids);
                    let text = words(&mut rng);
                    let res = locate(rec, ty, &sut, play.doc, &speech)
                        .and_then(|id| timed_write(|| sut.insert_line(play.doc, id, index, &text)));
                    finish(rec, &sut, op, res).then_some(Edit::Insert {
                        path: speech.clone(),
                        index,
                        text,
                    })
                }
                "delete" => {
                    let path = format!("{speech}/LINE[{}]", rng.below(lines) + 1);
                    let res = locate(rec, ty, &sut, play.doc, &path)
                        .and_then(|id| timed_write(|| sut.delete_node(play.doc, id)));
                    finish(rec, &sut, op, res).then_some(Edit::Delete { path })
                }
                _ => {
                    let res = locate(rec, ty, &sut, play.doc, &speech).and_then(|id| {
                        let (r, t) = timed(|| sut.serialize_node(play.doc, id));
                        r.map(|xml| (xml, t)).map_err(|e| e.to_string())
                    });
                    let t = res.as_ref().map_or(Duration::ZERO, |r| r.1);
                    if let Some((xml, _)) = rec.end(&sut, op, t, res) {
                        let node = oracle::eval(dom, &corpus.symbols, &oracle::parse(&speech))[0];
                        let want = oracle::serialize(dom, &corpus.symbols, node);
                        rec.check(xml == want, || {
                            format!("{} {speech}: read differs from the mirror", play.name)
                        });
                    }
                    None
                }
            };
            if let Some(e) = edit {
                writes += calls;
                oracle::apply(dom, &corpus.symbols, &e);
            }
        }
        rec.close_window();
        if rec.active.as_secs_f64() >= cfg.seconds && rec.attempts("update") >= TAIL_MIN_SAMPLES {
            break;
        }
        let op = rec.begin(&sut, "checkpoint", false);
        let (res, t) = timed(|| sut.checkpoint());
        rec.end(&sut, op, t, res);
    }

    check_all(&sut, corpus, &mirror, "after the run", rec);
    let live_xml: u64 = mirror
        .iter()
        .map(|dom| oracle::serialize(dom, &corpus.symbols, dom.root()).len() as u64)
        .sum();
    let layout = if cfg.traced {
        let names: Vec<String> = corpus.docs.iter().map(|d| d.name.clone()).collect();
        harness::layout_metrics(&sut, &names, live_xml)?
    } else {
        Metrics::default()
    };
    Ok(Outcome {
        slots: SLOTS,
        end_to_end: EndToEnd {
            space_per_xml_byte: sut.disk_bytes() as f64 / live_xml as f64,
            log: rec
                .counters(&["update", "insert", "delete", "read", "checkpoint"])
                .dev,
            writes: writes as u64,
        },
        layout,
    })
}

/// Finds the one node `path` names, through the planner, and notes the
/// plan under the operation type `ty`.
fn locate(
    rec: &mut Recorder,
    ty: &'static str,
    sut: &Sut,
    doc: DocId,
    path: &str,
) -> Result<NodeId, String> {
    let (ids, explain) = sut.query(doc, path).map_err(|e| e.to_string())?;
    rec.note_plan(ty, &explain, ids.len());
    match ids.as_slice() {
        [id] => Ok(*id),
        ids => Err(format!("{path} matched {} nodes, want 1", ids.len())),
    }
}
/// Runs and times a write call.
fn timed_write(f: impl FnOnce() -> natix::NatixResult<()>) -> Result<Duration, String> {
    let (r, t) = timed(f);
    r.map(|_| t).map_err(|e| e.to_string())
}

/// Ends a write operation whose result is the timed call's duration;
/// true when the write was acknowledged.
fn finish(rec: &mut Recorder, sut: &Sut, op: OpHandle, res: Result<Duration, String>) -> bool {
    let t = res.as_ref().copied().unwrap_or_default();
    rec.end(sut, op, t, res).is_some()
}
