//! The one file through which the benchmark calls the program. Every call
//! into a layer is wrapped in a span named after that layer, so the
//! traced run's breakdown is recorded here, and an API change edits only
//! this file.
//!
//! Layers: `xml` (natix-xml), `tree` (natix-tree: bulkload and
//! reconstruction), `core` (natix: repository, planner, catalog). `natix-storage` is observed through the counting devices
//! and `IoStats`.

use std::sync::Arc;

use natix::{
    DocId, NatixResult, NodeId, PathQuery, PhysicalStats, PlanExplain, PlannerOptions, Repository,
    RepositoryOptions,
};
use natix_storage::{
    stats::IoSnapshot, DiskBackend, LogDevice, MemLogDevice, MemStorage, WalSyncMode,
};
use natix_tree::InsertPos;

use crate::devices::{self, CountingDisk, CountingLog, DeviceSnapshot};
use crate::trace::{self, span};

pub const PAGE_SIZE: usize = 8192;

/// Counters of every layer at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub io: IoSnapshot,
    pub dev: DeviceSnapshot,
}

impl Counters {
    pub fn since(&self, e: &Counters) -> Counters {
        Counters {
            io: self.io.since(&e.io),
            dev: self.dev.since(&e.dev),
        }
    }

    pub fn add(&mut self, o: &Counters) {
        let (a, b) = (&mut self.io, &o.io);
        a.buffer_hits += b.buffer_hits;
        a.buffer_misses += b.buffer_misses;
        a.scan_evictions += b.scan_evictions;
        a.normal_evictions += b.normal_evictions;
        let (a, b) = (&mut self.dev, &o.dev);
        a.disk_reads += b.disk_reads;
        a.disk_writes += b.disk_writes;
        a.disk_ns += b.disk_ns;
        a.log_appends += b.log_appends;
        a.log_bytes += b.log_bytes;
        a.log_syncs += b.log_syncs;
        a.log_ns += b.log_ns;
    }

    pub fn pins(&self) -> u64 {
        self.io.buffer_hits + self.io.buffer_misses
    }

    pub fn evictions(&self) -> u64 {
        self.io.scan_evictions + self.io.normal_evictions
    }
}

/// The system under test: one repository over in-memory devices wrapped
/// by the counting pass-throughs.
pub struct Sut {
    repo: Repository,
    planner: PlannerOptions,
}

/// Scan workers fixed at two (fewer on a one-core host), so the plan
/// and its cost do not depend on the host's core count.
fn planner() -> PlannerOptions {
    let mut planner = PlannerOptions::default();
    planner.exec.threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    planner
}

impl Sut {
    /// A fresh repository: 8 KB pages in `MemStorage`, a group-commit WAL
    /// on `MemLogDevice`, the given buffer pool.
    pub fn create(buffer_bytes: usize) -> NatixResult<Sut> {
        let backend: Arc<dyn DiskBackend> = Arc::new(CountingDisk(MemStorage::new(PAGE_SIZE)?));
        let log: Box<dyn LogDevice> = Box::new(CountingLog(MemLogDevice::new()));
        let options = RepositoryOptions {
            page_size: PAGE_SIZE,
            buffer_bytes,
            durability: Some(WalSyncMode::Group),
            ..RepositoryOptions::default()
        };
        let repo = span("core", "create_on_backend_with_log", || {
            Repository::create_on_backend_with_log(backend, log, options)
        })?;
        Ok(Sut {
            repo,
            planner: planner(),
        })
    }

    pub fn counters(&self) -> Counters {
        Counters {
            io: self.repo.io_stats().snapshot(),
            dev: devices::snapshot(),
        }
    }

    pub fn put_xml_streaming(&self, name: &str, xml: &str) -> NatixResult<DocId> {
        span("core", "put_xml_streaming", || {
            self.repo.put_xml_streaming(name, xml)
        })
    }

    /// Stores a document: `put_xml_streaming`, or in a traced run
    /// [`Sut::put_parsed`], so the parser and the bulkloader show as
    /// layers of their own.
    pub fn put(&self, name: &str, xml: &str) -> NatixResult<DocId> {
        if trace::enabled() {
            self.put_parsed(name, xml)
        } else {
            self.put_xml_streaming(name, xml)
        }
    }

    /// The traced run's split of a put into its layers: natix-xml's
    /// parser, then the tree layer's bulkloader over the parsed DOM.
    pub fn put_parsed(&self, name: &str, xml: &str) -> NatixResult<DocId> {
        let options = natix_xml::ParserOptions {
            keep_whitespace_text: self.repo.options().keep_whitespace_text,
            ..Default::default()
        };
        let doc = span("xml", "parse_document", || {
            natix_xml::parse_document(xml, &mut self.repo.symbols_mut(), options)
        })?;
        span("tree", "put_document", || {
            self.repo.put_document(name, &doc)
        })
    }

    pub fn delete_document(&self, name: &str) -> NatixResult<()> {
        span("core", "delete_document", || {
            self.repo.delete_document(name)
        })
    }

    pub fn checkpoint(&self) -> NatixResult<()> {
        span("core", "checkpoint", || self.repo.checkpoint())
    }

    pub fn doc_id(&self, name: &str) -> NatixResult<DocId> {
        self.repo.doc_id(name)
    }

    pub fn document_names(&self) -> Vec<String> {
        self.repo.document_names()
    }

    pub fn get_xml(&self, name: &str) -> NatixResult<String> {
        span("tree", "get_xml", || self.repo.get_xml(name))
    }

    /// A path query through the cost-based planner.
    pub fn query(&self, doc: DocId, path: &str) -> NatixResult<(Vec<NodeId>, PlanExplain)> {
        span("core", "query_planned_parsed", || {
            let q = PathQuery::parse(path)?;
            self.repo.query_planned_parsed(doc, &q, &self.planner)
        })
    }

    pub fn serialize_node(&self, doc: DocId, node: NodeId) -> NatixResult<String> {
        span("tree", "serialize_node", || {
            self.repo.serialize_node(doc, node)
        })
    }

    pub fn text_content(&self, doc: DocId, node: NodeId) -> NatixResult<String> {
        span("tree", "text_content", || self.repo.text_content(doc, node))
    }

    pub fn update_text(&self, doc: DocId, node: NodeId, text: &str) -> NatixResult<()> {
        span("core", "update_text", || {
            self.repo.update_text(doc, node, text)
        })
    }

    /// Inserts `<LINE>text</LINE>` as child `index` of `parent`: two
    /// public write calls.
    pub fn insert_line(
        &self,
        doc: DocId,
        parent: NodeId,
        index: usize,
        text: &str,
    ) -> NatixResult<()> {
        let line = span("core", "insert_element", || {
            self.repo
                .insert_element(doc, parent, InsertPos::At(index), "LINE")
        })?;
        span("core", "insert_text", || {
            self.repo.insert_text(doc, line, InsertPos::Last, text)
        })?;
        Ok(())
    }

    pub fn delete_node(&self, doc: DocId, node: NodeId) -> NatixResult<()> {
        span("core", "delete_node", || self.repo.delete_node(doc, node))
    }

    /// Record layout of one document (this also validates its tree).
    pub fn physical_stats(&self, name: &str) -> NatixResult<PhysicalStats> {
        self.repo.physical_stats(name)
    }

    pub fn disk_bytes(&self) -> u64 {
        self.repo.disk_bytes()
    }

    pub fn pages_allocated(&self) -> u64 {
        self.repo.storage().allocated_pages()
    }
}
