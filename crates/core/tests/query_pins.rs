//! Buffer-pin budgets of path queries on a multi-record play.
//!
//! NATIX packs many logical nodes into one record so that a navigation
//! touches few records. These tests pin that locality at the evaluator:
//! with every page resident, the buffer pins (`buffer_hits +
//! buffer_misses` of [`natix::Repository::io_stats`]) a query takes are
//! bounded by the records it has to read, not by the nodes it visits.
//!
//! * A summary-seeded scan (`/PLAY/ACT/SCENE/SPEECH/SPEAKER`) decodes each
//!   record it enters once: at most the document's record count.
//! * A positional lookup (`/PLAY/ACT[a]/SCENE[s]/SPEECH[k]`) reads the
//!   records holding the nodes on its path plus a small constant, and
//!   never one record per sibling it steps over.

use std::collections::HashSet;

use natix::{PlanShape, PlannerOptions, Repository, RepositoryOptions};
use natix_corpus::{generate_play, CorpusConfig};
use natix_tree::NodePtr;
use natix_xml::{write_document, SymbolTable, WriteOptions};

const PAGE: usize = 8192;

/// Pins a lookup may take beyond the distinct records on its path. Each
/// of its four steps (the root test and three child steps) decodes its
/// context's record once, so a record holding several path nodes is
/// pinned once per step; sibling groups (scaffolding-rooted records,
/// whose proxies carry no label digest) before the target are read to
/// learn their children's labels.
const LOOKUP_SLACK: u64 = 5;

/// One paper-scale play (≈40 records at 8 KB pages) in a pool that holds
/// every page.
fn play_repo() -> Repository {
    let mut syms = SymbolTable::new();
    let play = generate_play(&CorpusConfig::paper(), 0, &mut syms);
    let xml = write_document(&play.doc, &syms, WriteOptions::compact()).unwrap();
    let repo = Repository::create_in_memory(RepositoryOptions {
        page_size: PAGE,
        buffer_bytes: 1024 * PAGE,
        ..RepositoryOptions::default()
    })
    .unwrap();
    repo.put_xml_streaming("play", &xml).unwrap();
    repo
}

/// Buffer pins `f` takes.
fn pins<T>(repo: &Repository, f: impl FnOnce() -> T) -> (T, u64) {
    let before = repo.io_stats().snapshot();
    let out = f();
    let d = repo.io_stats().snapshot().since(&before);
    (out, d.buffer_hits + d.buffer_misses)
}

/// The `n`-th (1-based) logical child of `ptr` labelled `name`.
fn nth_child(repo: &Repository, ptr: NodePtr, name: &str, n: usize) -> Option<NodePtr> {
    let label = repo.symbols().lookup_element(name)?;
    let store = repo.tree_store();
    store
        .logical_children(ptr)
        .unwrap()
        .into_iter()
        .filter(|&c| {
            let info = store.node_info(c).unwrap();
            info.value.is_none() && info.label == label
        })
        .nth(n - 1)
}

#[test]
fn seeded_scan_pins_at_most_one_per_record() {
    let repo = play_repo();
    let records = repo.physical_stats("play").unwrap().records as u64;
    assert!(records > 10, "the play must span many records ({records})");
    let forced = PlannerOptions {
        force: Some(PlanShape::SummarySeeded),
        ..PlannerOptions::default()
    };
    let path = "/PLAY/ACT/SCENE/SPEECH/SPEAKER";
    // Warm-up: builds the path summary and makes every page resident.
    let (warm, _) = repo.query_planned("play", path, &forced).unwrap();
    let ((ids, explain), n) = pins(&repo, || repo.query_planned("play", path, &forced).unwrap());
    assert_eq!(explain.shape, PlanShape::SummarySeeded);
    assert_eq!(ids, warm);
    assert!(ids.len() > 100, "the scan must match many speakers");
    assert!(
        n <= records,
        "seeded scan took {n} pins for a {records}-record document"
    );
}

#[test]
fn positional_lookup_pins_the_records_on_its_path() {
    let repo = play_repo();
    let doc = repo.doc_id("play").unwrap();
    let root = NodePtr::new(repo.root_rid(doc).unwrap(), 0);
    let acts = repo.query_count("play", "/PLAY/ACT").unwrap() as usize;
    let mut checked = 0;
    for a in [1, acts / 2 + 1, acts] {
        let act = nth_child(&repo, root, "ACT", a).unwrap();
        let scenes = repo
            .query_count("play", &format!("/PLAY/ACT[{a}]/SCENE"))
            .unwrap() as usize;
        for s in [1, scenes] {
            let scene = nth_child(&repo, act, "SCENE", s).unwrap();
            let speeches = repo
                .query_count("play", &format!("/PLAY/ACT[{a}]/SCENE[{s}]/SPEECH"))
                .unwrap() as usize;
            for k in [1, speeches / 2 + 1, speeches] {
                let speech = nth_child(&repo, scene, "SPEECH", k).unwrap();
                let on_path: HashSet<_> =
                    [root, act, scene, speech].iter().map(|p| p.rid).collect();
                let path = format!("/PLAY/ACT[{a}]/SCENE[{s}]/SPEECH[{k}]");
                let opts = PlannerOptions::default();
                let (warm, _) = repo.query_planned("play", &path, &opts).unwrap();
                let ((ids, _), n) =
                    pins(&repo, || repo.query_planned("play", &path, &opts).unwrap());
                assert_eq!(ids.len(), 1, "{path}");
                assert_eq!(ids, warm, "{path}");
                let budget = on_path.len() as u64 + LOOKUP_SLACK;
                assert!(
                    n <= budget,
                    "{path}: {n} pins, {} records on the path (budget {budget})",
                    on_path.len()
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 12);
}
