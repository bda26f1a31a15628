//! `query`: a read-only mix over the corpus loaded at set-up, with a pool
//! that holds every page. Each round runs one `scan`, then four times a
//! `scene` and four `lookup`s. Targets are drawn with the seed from the
//! benchmark's DOM copy; every hit is compared with the oracle outside
//! the timed calls, and after the run every document is read back.

use natix::DocId;
use natix_corpus::SplitMix64;

use crate::corpus::Corpus;
use crate::harness::{
    self, timed, EndToEnd, Metrics, Outcome, Recorder, RunConfig, Slots, TAIL_MIN_SAMPLES,
};
use crate::oracle;

/// Holds the ≈12 MB of pages the corpus takes, with room to spare.
pub const BUFFER_BYTES: usize = 64 * 1024 * 1024;
pub const SETUPS: usize = 9;
/// `op1`, `op2`, `op3`: one point lookup, one scene, one whole-play scan.
pub const SLOTS: Slots = ["lookup", "scene", "scan"];

/// Speeches per scene, per act, of one play.
pub struct Shape(pub Vec<Vec<usize>>);

impl Shape {
    pub fn of(dom: &natix_xml::Document, symbols: &natix_xml::SymbolTable) -> Shape {
        let count = |path: &str| oracle::eval(dom, symbols, &oracle::parse(path)).len();
        let acts = count("/PLAY/ACT");
        Shape(
            (1..=acts)
                .map(|a| {
                    let scenes = count(&format!("/PLAY/ACT[{a}]/SCENE"));
                    (1..=scenes)
                        .map(|s| count(&format!("/PLAY/ACT[{a}]/SCENE[{s}]/SPEECH")))
                        .collect()
                })
                .collect(),
        )
    }

    /// A random `(act, scene)` pair, 1-based.
    pub fn scene(&self, rng: &mut SplitMix64) -> (usize, usize) {
        let a = rng.below(self.0.len());
        (a + 1, rng.below(self.0[a].len()) + 1)
    }
}

pub fn run(cfg: &RunConfig, corpus: &Corpus, rec: &mut Recorder) -> Result<Outcome, String> {
    let syms = &corpus.symbols;
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        setup = Some(harness::set_up(corpus, BUFFER_BYTES, str::to_string, rec)?);
    }
    let harness::SetUp { sut, log } = setup.expect("at least one set-up");
    let plays: Vec<(DocId, &crate::corpus::CorpusDoc, Shape)> = corpus
        .docs
        .iter()
        .filter(|d| d.is_play)
        .map(|d| Ok((sut.doc_id(&d.name)?, d, Shape::of(&d.dom, syms))))
        .collect::<Result<_, natix::NatixError>>()
        .map_err(|e| format!("doc_id failed: {e}"))?;

    let mut rng = SplitMix64::new(cfg.seed ^ 0x51E7);
    // Scans visit the plays in a seeded order, every play once per cycle.
    let mut scan_order: Vec<usize> = Vec::new();
    while rec.active.as_secs_f64() < cfg.seconds || rec.attempts("lookup") < TAIL_MIN_SAMPLES {
        if scan_order.is_empty() {
            scan_order = harness::shuffled(plays.len(), &mut rng);
        }
        let (doc, d, _) = &plays[scan_order.pop().expect("refilled above")];
        let path = "/PLAY/ACT/SCENE/SPEECH/SPEAKER";
        let op = rec.begin(&sut, "scan", true);
        let (res, t) = timed(|| sut.query(*doc, path));
        if let Some((ids, explain)) = rec.end(&sut, op, t, res) {
            rec.note_plan("scan", &explain, ids.len());
            let want: Vec<String> = oracle::eval(&d.dom, syms, &oracle::parse(path))
                .iter()
                .map(|&n| oracle::text(&d.dom, n))
                .collect();
            let got: Result<Vec<String>, _> =
                ids.iter().map(|&id| sut.text_content(*doc, id)).collect();
            rec.check(got.as_ref().is_ok_and(|g| *g == want), || {
                format!(
                    "scan of {}: {} hits, want {}",
                    d.name,
                    ids.len(),
                    want.len()
                )
            });
        }
        for _ in 0..4 {
            let (doc, d, shape) = &plays[rng.below(plays.len())];
            let (a, s) = shape.scene(&mut rng);
            let path = format!("/PLAY/ACT[{a}]/SCENE[{s}]//SPEAKER");
            let want: Vec<String> = oracle::eval(&d.dom, syms, &oracle::parse(&path))
                .iter()
                .map(|&n| oracle::text(&d.dom, n))
                .collect();
            let op = rec.begin(&sut, "scene", true);
            let (res, t) = timed(|| {
                let (ids, explain) = sut.query(*doc, &path)?;
                let texts = ids
                    .iter()
                    .map(|&id| sut.text_content(*doc, id))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok::<_, natix::NatixError>((texts, explain))
            });
            if let Some((texts, explain)) = rec.end(&sut, op, t, res) {
                rec.note_plan("scene", &explain, texts.len());
                rec.check(texts == want, || {
                    format!("{} {path}: texts differ from the oracle", d.name)
                });
            }

            for _ in 0..4 {
                let (doc, d, shape) = &plays[rng.below(plays.len())];
                let (a, s) = shape.scene(&mut rng);
                let k = rng.below(shape.0[a - 1][s - 1]) + 1;
                let path = format!("/PLAY/ACT[{a}]/SCENE[{s}]/SPEECH[{k}]");
                let want: Vec<String> = oracle::eval(&d.dom, syms, &oracle::parse(&path))
                    .iter()
                    .map(|&n| oracle::serialize(&d.dom, syms, n))
                    .collect();
                let op = rec.begin(&sut, "lookup", true);
                let (res, t) = timed(|| {
                    let (ids, explain) = sut.query(*doc, &path)?;
                    let xml = ids
                        .iter()
                        .map(|&id| sut.serialize_node(*doc, id))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok::<_, natix::NatixError>((xml, explain))
                });
                if let Some((xml, explain)) = rec.end(&sut, op, t, res) {
                    rec.note_plan("lookup", &explain, xml.len());
                    rec.check(xml == want, || {
                        format!("{} {path}: serialisation differs from the oracle", d.name)
                    });
                }
            }
        }
        rec.close_window();
    }

    let docs = corpus.docs.iter().map(|d| (d.name.clone(), d.xml.as_str()));
    harness::verify(&sut, rec, docs, "after the run");
    let layout = if cfg.traced {
        let names: Vec<String> = corpus.docs.iter().map(|d| d.name.clone()).collect();
        harness::layout_metrics(&sut, &names, corpus.xml_bytes())?
    } else {
        Metrics::default()
    };
    Ok(Outcome {
        slots: SLOTS,
        end_to_end: EndToEnd {
            space_per_xml_byte: sut.disk_bytes() as f64 / corpus.xml_bytes() as f64,
            // Reads write no log: the log figures are the set-up's loads.
            log,
            writes: corpus.docs.len() as u64,
        },
        layout,
    })
}
