//! `ingest`: replace rounds under the paper's 2 MB pool. Each round
//! stores every corpus document under a new name, deletes the previous
//! round's copies (both in seeded orders) and checkpoints. A run is a sequence of whole epochs:
//! set-up (a fresh repository loaded with round 0 and checkpointed), then
//! [`ROUNDS_PER_EPOCH`] replace rounds. Restarting the repository each
//! epoch keeps the space figure a function of the round count, not of how
//! many rounds fit in the run.

use natix_corpus::SplitMix64;

use crate::adapter::Sut;
use crate::corpus::Corpus;
use crate::harness::{
    self, median, shuffled, timed, EndToEnd, Metrics, Outcome, Recorder, RunConfig, Slots,
    TAIL_MIN_SAMPLES,
};

pub const BUFFER_BYTES: usize = 2 * 1024 * 1024;
pub const ROUNDS_PER_EPOCH: usize = 4;
/// `op1`, `op2`, `op3`: a delete of one document, a put of one play, a
/// put of one order batch. Puts are split by document kind because an
/// order batch takes twice a play's time, so a percentile over both falls
/// between the two.
pub const SLOTS: Slots = ["delete", "put_play", "put_orders"];

fn name(round: usize, doc: &str) -> String {
    format!("r{round}/{doc}")
}

/// Checks that round `round`'s copies read back as the generator's text
/// and that the previous round's names are gone.
fn check_round(sut: &Sut, corpus: &Corpus, round: usize, rec: &mut Recorder) {
    let docs = corpus
        .docs
        .iter()
        .map(|d| (name(round, &d.name), d.xml.as_str()));
    harness::verify(sut, rec, docs, &format!("round {round}"));
    for d in &corpus.docs {
        if round > 0 {
            let old = name(round - 1, &d.name);
            let gone = sut.doc_id(&old).is_err();
            rec.check(gone, || {
                format!("{old} still present after delete_document")
            });
        }
    }
    let live = sut
        .document_names()
        .iter()
        .filter(|n| n.starts_with('r'))
        .count();
    rec.check(live == corpus.docs.len(), || {
        format!("{live} documents live, want {}", corpus.docs.len())
    });
}

pub fn run(cfg: &RunConfig, corpus: &Corpus, rec: &mut Recorder) -> Result<Outcome, String> {
    let xml_bytes = corpus.xml_bytes() as f64;
    let mut space = Vec::new();
    let mut layout = Metrics::default();
    let mut rng = SplitMix64::new(cfg.seed ^ 0x1A9E);
    loop {
        let sut = harness::set_up(corpus, BUFFER_BYTES, |d| name(0, d), rec)?.sut;
        check_round(&sut, corpus, 0, rec);
        for round in 1..=ROUNDS_PER_EPOCH {
            for i in shuffled(corpus.docs.len(), &mut rng) {
                let d = &corpus.docs[i];
                let ty = if d.is_play { "put_play" } else { "put_orders" };
                let op = rec.begin(&sut, ty, true);
                let n = name(round, &d.name);
                let (res, t) = timed(|| sut.put(&n, &d.xml));
                if rec.end(&sut, op, t, res).is_some() {
                    rec.put(d.xml.len());
                }
            }
            for i in shuffled(corpus.docs.len(), &mut rng) {
                let d = &corpus.docs[i];
                let op = rec.begin(&sut, "delete", true);
                let (res, t) = timed(|| sut.delete_document(&name(round - 1, &d.name)));
                rec.end(&sut, op, t, res);
            }
            let op = rec.begin(&sut, "checkpoint", false);
            let (res, t) = timed(|| sut.checkpoint());
            rec.end(&sut, op, t, res);
            rec.close_window();
            check_round(&sut, corpus, round, rec);
        }
        space.push(sut.disk_bytes() as f64 / xml_bytes);
        if rec.active.as_secs_f64() >= cfg.seconds && rec.attempts("delete") >= TAIL_MIN_SAMPLES {
            if cfg.traced {
                let names: Vec<String> = corpus
                    .docs
                    .iter()
                    .map(|d| name(ROUNDS_PER_EPOCH, &d.name))
                    .collect();
                layout = harness::layout_metrics(&sut, &names, xml_bytes as u64)?;
            }
            break;
        }
    }

    Ok(Outcome {
        slots: SLOTS,
        end_to_end: EndToEnd {
            space_per_xml_byte: median(&space),
            log: rec
                .counters(&["put_play", "put_orders", "delete", "checkpoint"])
                .dev,
            writes: rec.attempted - rec.failed,
        },
        layout,
    })
}
