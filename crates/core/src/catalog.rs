//! The system catalog.
//!
//! §2.1: "The system catalog itself is stored as a collection of XML
//! documents inside the system." We follow that design literally: the
//! catalog is one XML document, stored through the same tree storage
//! manager as user data, in its own segment. It records
//!
//! * the user label alphabet (so interned ids stay stable across opens),
//! * the document directory (name → root record RID),
//! * the split-matrix configuration,
//! * registered DTDs.
//!
//! Bootstrap: the catalog's own element/attribute labels are interned into
//! a *fixed, code-defined* symbol table (ids are deterministic), so the
//! catalog document can be decoded before the user alphabet is known. The
//! catalog root RID lives in the storage manager's header user-root area.

use natix_storage::Rid;
use natix_tree::{SplitBehaviour, SplitMatrix, TreeStore};
use natix_xml::{Document, LabelKind, NodeData, SymbolTable};

use crate::document::DocState;
use crate::error::{NatixError, NatixResult};
use crate::repository::Repository;

const MAGIC: &[u8; 6] = b"NXCAT1";

/// The catalog's fixed label alphabet.
pub struct CatalogSymbols {
    pub table: SymbolTable,
    pub catalog: u16,
    pub symbols: u16,
    pub sym: u16,
    pub documents: u16,
    pub doc: u16,
    pub matrix: u16,
    pub rule: u16,
    pub dtds: u16,
    pub dtd: u16,
    // attributes
    pub a_kind: u16,
    pub a_name: u16,
    pub a_page: u16,
    pub a_slot: u16,
    pub a_default: u16,
    pub a_parent: u16,
    pub a_child: u16,
    pub a_value: u16,
}

impl CatalogSymbols {
    /// Builds the fixed table — intern order defines the ids, so this must
    /// never change between versions.
    pub fn new() -> CatalogSymbols {
        let mut t = SymbolTable::new();
        CatalogSymbols {
            catalog: t.intern_element("natix-catalog"),
            symbols: t.intern_element("symbols"),
            sym: t.intern_element("sym"),
            documents: t.intern_element("documents"),
            doc: t.intern_element("doc"),
            matrix: t.intern_element("matrix"),
            rule: t.intern_element("rule"),
            dtds: t.intern_element("dtds"),
            dtd: t.intern_element("dtd"),
            a_kind: t.intern_attribute("k"),
            a_name: t.intern_attribute("name"),
            a_page: t.intern_attribute("page"),
            a_slot: t.intern_attribute("slot"),
            a_default: t.intern_attribute("default"),
            a_parent: t.intern_attribute("parent"),
            a_child: t.intern_attribute("child"),
            a_value: t.intern_attribute("v"),
            table: t,
        }
    }
}

impl Default for CatalogSymbols {
    fn default() -> Self {
        CatalogSymbols::new()
    }
}

fn attr(doc: &mut Document, node: natix_xml::NodeIdx, label: u16, value: impl Into<String>) {
    doc.add_child(node, NodeData::attribute(label, value));
}

fn behaviour_name(b: SplitBehaviour) -> &'static str {
    match b {
        SplitBehaviour::Standalone => "standalone",
        SplitBehaviour::KeepWithParent => "inf",
        SplitBehaviour::Other => "other",
    }
}

fn behaviour_from(name: &str) -> NatixResult<SplitBehaviour> {
    Ok(match name {
        "standalone" => SplitBehaviour::Standalone,
        "inf" => SplitBehaviour::KeepWithParent,
        "other" => SplitBehaviour::Other,
        other => return Err(NatixError::Catalog(format!("unknown behaviour '{other}'"))),
    })
}

/// Builds the catalog document from the repository's current state.
fn build_catalog_doc(repo: &Repository, cs: &CatalogSymbols) -> Document {
    let mut doc = Document::new(NodeData::Element(cs.catalog));
    let root = doc.root();

    let symbols = repo.symbols();
    let syms = doc.add_child(root, NodeData::Element(cs.symbols));
    for (_, kind, name) in symbols
        .iter()
        .skip(natix_xml::symbols::FIRST_USER_LABEL as usize)
    {
        let s = doc.add_child(syms, NodeData::Element(cs.sym));
        let k = match kind {
            LabelKind::Element => "e",
            LabelKind::Attribute => "a",
            LabelKind::Builtin => "b",
        };
        attr(&mut doc, s, cs.a_kind, k);
        attr(&mut doc, s, cs.a_name, name);
    }

    let docs = doc.add_child(root, NodeData::Element(cs.documents));
    for (name, _, root_rid) in repo.doc_entries() {
        let d = doc.add_child(docs, NodeData::Element(cs.doc));
        attr(&mut doc, d, cs.a_name, name);
        attr(&mut doc, d, cs.a_page, root_rid.page.to_string());
        attr(&mut doc, d, cs.a_slot, root_rid.slot.to_string());
    }

    let matrix = repo.tree.matrix();
    let m = doc.add_child(root, NodeData::Element(cs.matrix));
    attr(
        &mut doc,
        m,
        cs.a_default,
        behaviour_name(matrix.default_behaviour()),
    );
    // Rules whose labels are not interned yet (a matrix installed before
    // any document used those names) cannot affect stored content and have
    // no printable name — skip them; a later checkpoint captures them.
    let known = symbols.len() as u16;
    let mut rules: Vec<(u16, u16, SplitBehaviour)> = matrix
        .overrides()
        .filter(|&(p, c, _)| p < known && c < known)
        .collect();
    rules.sort_by_key(|&(p, c, _)| (p, c));
    for (p, c, b) in rules {
        let r = doc.add_child(m, NodeData::Element(cs.rule));
        attr(&mut doc, r, cs.a_parent, symbols.name(p));
        attr(&mut doc, r, cs.a_child, symbols.name(c));
        attr(&mut doc, r, cs.a_value, behaviour_name(b));
    }
    drop(matrix);
    drop(symbols);

    let dtds = doc.add_child(root, NodeData::Element(cs.dtds));
    let schema = repo.schema();
    for (name, text) in schema.dtd_sources() {
        let d = doc.add_child(dtds, NodeData::Element(cs.dtd));
        attr(&mut doc, d, cs.a_name, name);
        doc.add_child(d, NodeData::text(text));
    }
    doc
}

/// Stores a logical document into a tree store through the streaming
/// bulkloader (records built bottom-up, each written once), without
/// document-manager bookkeeping. Long string literals (DTD sources) are
/// chunked into sibling literals to stay below the record-size ceiling.
/// Returns the root record RID.
pub(crate) fn store_plain_document(tree: &TreeStore, doc: &Document) -> NatixResult<Rid> {
    if !matches!(doc.data(doc.root()), NodeData::Element(_)) {
        return Err(NatixError::Validation(
            "catalog root must be an element".into(),
        ));
    }
    let limit = crate::document::chunk_limit(tree.net_capacity());
    let stats = natix_tree::bulkload_document(tree, doc, Some(limit))?;
    Ok(stats.root_rid)
}

/// Writes the catalog document and records its root RID in the header.
/// Takes `&Repository`: the rewrite is an ordinary write operation of the
/// record-version layer (callers serialise checkpoints).
pub fn save_catalog(repo: &Repository) -> NatixResult<()> {
    let cs = CatalogSymbols::new();
    let doc = build_catalog_doc(repo, &cs);
    // Drop the previous catalog tree, if any, and return its pages to the
    // free pool: the catalog segment holds nothing else, and the bulkload
    // below appends to fresh pages, so keeping them would leave one more
    // empty page behind at every checkpoint.
    if let Some(old) = read_catalog_root(repo)? {
        repo.catalog_tree.drop_tree(old)?;
        let segment = repo.catalog_tree.segment();
        for (page, _) in repo.sm.segment_pages(segment) {
            repo.sm.free_page(segment, page)?;
        }
    }
    let rid = store_plain_document(&repo.catalog_tree, &doc)?;
    let mut root = [0u8; 14];
    root[..6].copy_from_slice(MAGIC);
    rid.encode(&mut root[6..14]);
    repo.sm.set_user_root(&root)?;
    Ok(())
}

fn read_catalog_root(repo: &Repository) -> NatixResult<Option<Rid>> {
    let root = repo.sm.user_root()?;
    if &root[..6] != MAGIC {
        return Ok(None);
    }
    Ok(Some(Rid::decode(&root[6..14])))
}

/// Restores repository state from the catalog document (on open).
pub fn load_catalog(repo: &mut Repository) -> NatixResult<()> {
    let Some(rid) = read_catalog_root(repo)? else {
        return Ok(()); // freshly created, never checkpointed
    };
    let cs = CatalogSymbols::new();
    let doc = natix_tree::reconstruct_document(&repo.catalog_tree, rid)?;
    let root = doc.root();
    if doc.data(root).label() != cs.catalog {
        return Err(NatixError::Catalog("catalog root element mismatch".into()));
    }
    let get_attr = |node: natix_xml::NodeIdx, label: u16| -> Option<String> {
        doc.children(node).iter().find_map(|&c| match doc.data(c) {
            NodeData::Literal { label: l, value } if *l == label => Some(value.to_text()),
            _ => None,
        })
    };

    // 1. Symbols: rebuild the alphabet in stored order.
    let mut rows: Vec<(LabelKind, String)> = SymbolTable::new()
        .iter()
        .map(|(_, k, n)| (k, n.to_string()))
        .collect();
    if let Some(syms) = doc.first_child_element(root, cs.symbols) {
        for &s in doc.children(syms) {
            if doc.data(s).label() != cs.sym {
                continue;
            }
            let kind = match get_attr(s, cs.a_kind).as_deref() {
                Some("e") => LabelKind::Element,
                Some("a") => LabelKind::Attribute,
                Some("b") => LabelKind::Builtin,
                other => return Err(NatixError::Catalog(format!("bad symbol kind {other:?}"))),
            };
            let name = get_attr(s, cs.a_name)
                .ok_or_else(|| NatixError::Catalog("symbol without name".into()))?;
            rows.push((kind, name));
        }
    }
    *repo.symbols_mut() = SymbolTable::from_rows(&rows);

    // 2. Split matrix.
    if let Some(m) = doc.first_child_element(root, cs.matrix) {
        let default = behaviour_from(get_attr(m, cs.a_default).as_deref().unwrap_or("other"))?;
        let mut matrix = SplitMatrix::with_default(default);
        let symbols = repo.symbols();
        for &r in doc.children(m) {
            if doc.data(r).label() != cs.rule {
                continue;
            }
            let p = get_attr(r, cs.a_parent)
                .and_then(|n| symbols.lookup_element(&n))
                .ok_or_else(|| NatixError::Catalog("rule parent unknown".into()))?;
            let c = get_attr(r, cs.a_child)
                .and_then(|n| symbols.lookup_element(&n))
                .ok_or_else(|| NatixError::Catalog("rule child unknown".into()))?;
            let v = behaviour_from(&get_attr(r, cs.a_value).unwrap_or_default())?;
            matrix.set(p, c, v);
        }
        drop(symbols);
        repo.tree.set_matrix(matrix);
    }

    // 3. DTDs.
    if let Some(dtds) = doc.first_child_element(root, cs.dtds) {
        for &d in doc.children(dtds) {
            if doc.data(d).label() != cs.dtd {
                continue;
            }
            let name = get_attr(d, cs.a_name)
                .ok_or_else(|| NatixError::Catalog("dtd without name".into()))?;
            let text = doc.text_content(d);
            repo.schema_mut().register_dtd(&name, &text)?;
        }
    }

    // 4. Documents (maps rebuilt eagerly so node ids are deterministic).
    if let Some(docs) = doc.first_child_element(root, cs.documents) {
        for &d in doc.children(docs) {
            if doc.data(d).label() != cs.doc {
                continue;
            }
            let name = get_attr(d, cs.a_name)
                .ok_or_else(|| NatixError::Catalog("document without name".into()))?;
            let page: u32 = get_attr(d, cs.a_page)
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| NatixError::Catalog("bad document page".into()))?;
            let slot: u16 = get_attr(d, cs.a_slot)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| NatixError::Catalog("bad document slot".into()))?;
            let state = DocState::new(name, Rid::new(page, slot));
            let id = repo.register(state);
            repo.rebuild_map(id)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;

    #[test]
    fn catalog_symbols_are_stable() {
        let a = CatalogSymbols::new();
        let b = CatalogSymbols::new();
        assert_eq!(a.catalog, b.catalog);
        assert_eq!(a.a_value, b.a_value);
        // Fixed ids: user labels must never collide with these.
        assert_eq!(a.catalog, natix_xml::symbols::FIRST_USER_LABEL);
    }

    #[test]
    fn save_load_roundtrip_in_file() {
        let dir = std::env::temp_dir().join(format!("natix-cat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.natix");
        let doc_xml = "<PLAY><TITLE>Test</TITLE><ACT><SCENE><SPEECH>\
                       <SPEAKER>A</SPEAKER><LINE>line one</LINE></SPEECH></SCENE></ACT></PLAY>";
        {
            let repo = Repository::create_file(&path, RepositoryOptions::default()).unwrap();
            repo.put_xml("t1", doc_xml).unwrap();
            repo.put_xml("t2", "<a><b x=\"1\">v</b></a>").unwrap();
            repo.set_matrix_rule("SPEECH", "SPEAKER", SplitBehaviour::KeepWithParent);
            repo.schema_mut()
                .register_dtd("play", "<!ELEMENT PLAY (TITLE, ACT+)>")
                .unwrap();
            repo.checkpoint().unwrap();
        }
        {
            let repo = Repository::open_file(&path, RepositoryOptions::default()).unwrap();
            assert_eq!(repo.document_names(), vec!["t1", "t2"]);
            assert_eq!(repo.get_xml("t1").unwrap(), doc_xml);
            assert_eq!(repo.get_xml("t2").unwrap(), "<a><b x=\"1\">v</b></a>");
            // Matrix rule survived.
            let p = repo.symbols().lookup_element("SPEECH").unwrap();
            let c = repo.symbols().lookup_element("SPEAKER").unwrap();
            assert_eq!(
                repo.tree_store().matrix().get(p, c),
                SplitBehaviour::KeepWithParent
            );
            // DTD survived.
            assert!(repo.schema().dtd("play").is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoints_reuse_the_catalog_pages() {
        let dir = std::env::temp_dir().join(format!("natix-cat3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.natix");
        {
            let repo = Repository::create_file(&path, RepositoryOptions::default()).unwrap();
            for i in 0..40 {
                repo.put_xml(&format!("doc-{i}"), "<a><b>x</b></a>").unwrap();
            }
            repo.checkpoint().unwrap();
            let pages = repo.storage().allocated_pages();
            for _ in 0..5 {
                repo.checkpoint().unwrap();
            }
            assert_eq!(
                repo.storage().allocated_pages(),
                pages,
                "each catalog rewrite must reuse the pages of the one it replaces"
            );
        }
        let repo = Repository::open_file(&path, RepositoryOptions::default()).unwrap();
        assert_eq!(repo.document_names().len(), 40);
        assert_eq!(repo.get_xml("doc-39").unwrap(), "<a><b>x</b></a>");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_documents_are_editable() {
        let dir = std::env::temp_dir().join(format!("natix-cat2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.natix");
        {
            let repo = Repository::create_file(&path, RepositoryOptions::default()).unwrap();
            repo.put_xml("d", "<list><item>one</item></list>").unwrap();
            repo.checkpoint().unwrap();
        }
        {
            let repo = Repository::open_file(&path, RepositoryOptions::default()).unwrap();
            let id = repo.doc_id("d").unwrap();
            let root = repo.root(id).unwrap();
            let item2 = repo
                .insert_element(id, root, natix_tree::InsertPos::Last, "item")
                .unwrap();
            repo.insert_text(id, item2, natix_tree::InsertPos::Last, "two")
                .unwrap();
            assert_eq!(
                repo.get_xml("d").unwrap(),
                "<list><item>one</item><item>two</item></list>"
            );
            repo.checkpoint().unwrap();
        }
        {
            let repo = Repository::open_file(&path, RepositoryOptions::default()).unwrap();
            assert_eq!(
                repo.get_xml("d").unwrap(),
                "<list><item>one</item><item>two</item></list>"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
