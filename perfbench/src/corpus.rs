//! The corpus: 37 Shakespeare-like plays at the paper's scale plus 4
//! purchase-order batches (41 documents, ≈8.8 MB of compact XML), from the
//! generators' paper calibrations. The corpus is the same for every seed:
//! its largest scenes and plays set the query tails and scan medians, so a
//! per-seed corpus would move those figures between seeds by more than
//! timing noise does. The seed draws the operations instead. The program
//! under test receives only the text; the DOMs stay with the benchmark as
//! the oracle's copy.

use natix_corpus::{generate_orders, generate_play, CorpusConfig, OrdersConfig};
use natix_xml::{write_document, Document, SymbolTable, WriteOptions};

pub const PLAYS: usize = 37;
pub const ORDER_BATCHES: usize = 4;

pub struct CorpusDoc {
    pub name: String,
    pub dom: Document,
    pub xml: String,
    pub is_play: bool,
}

pub struct Corpus {
    /// Labels of every DOM below.
    pub symbols: SymbolTable,
    pub docs: Vec<CorpusDoc>,
}

impl Corpus {
    pub fn generate() -> Corpus {
        let plays = CorpusConfig::paper();
        assert_eq!(plays.plays, PLAYS);
        let orders_seed = OrdersConfig::paper().seed;
        let mut symbols = SymbolTable::new();
        let mut docs = Vec::new();
        for i in 0..PLAYS {
            let dom = generate_play(&plays, i, &mut symbols).doc;
            docs.push((format!("play-{i:02}"), dom, true));
        }
        for i in 0..ORDER_BATCHES {
            let cfg = OrdersConfig {
                seed: orders_seed.wrapping_add(i as u64),
                ..OrdersConfig::paper()
            };
            docs.push((
                format!("orders-{i}"),
                generate_orders(&cfg, &mut symbols),
                false,
            ));
        }
        let docs = docs
            .into_iter()
            .map(|(name, dom, is_play)| CorpusDoc {
                xml: write_document(&dom, &symbols, WriteOptions::compact())
                    .expect("generated documents serialise"),
                name,
                dom,
                is_play,
            })
            .collect();
        Corpus { symbols, docs }
    }

    pub fn xml_bytes(&self) -> u64 {
        self.docs.iter().map(|d| d.xml.len() as u64).sum()
    }
}
