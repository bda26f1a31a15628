//! The benchmark's independent oracle: a path evaluator and serialiser
//! over an in-memory `natix_xml::Document`, plus an edit mirror that
//! applies every `edit` operation to a DOM copy. Nothing here touches the
//! storage engine; the program's answers are compared against these.

use natix_xml::{Document, LabelKind, NodeData, NodeIdx, SymbolTable, LABEL_TEXT};

/// One location step of the path subset the workloads use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// `/name` or `/name[n]`: element children by name, optionally the
    /// n-th (1-based) among the matching children.
    Child(String, Option<usize>),
    /// `//name`: element descendants by name, in document order.
    Descendant(String),
    /// `/text()` or `/text()[n]`: text children.
    Text(Option<usize>),
}

/// Parses the absolute path subset `/A[1]/B//C/text()`.
pub fn parse(path: &str) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut rest = path;
    while !rest.is_empty() {
        let descendant = rest.starts_with("//");
        rest = rest.trim_start_matches('/');
        let end = rest.find('/').unwrap_or(rest.len());
        let (token, tail) = rest.split_at(end);
        rest = tail;
        let (name, pos) = match token.split_once('[') {
            Some((n, p)) => (
                n,
                Some(
                    p.trim_end_matches(']')
                        .parse::<usize>()
                        .expect("oracle paths carry numeric positions"),
                ),
            ),
            None => (token, None),
        };
        steps.push(match (name, descendant) {
            ("text()", false) => Step::Text(pos),
            (n, false) => Step::Child(n.to_string(), pos),
            (n, true) => {
                assert!(pos.is_none(), "the workloads use no positional `//`");
                Step::Descendant(n.to_string())
            }
        });
    }
    steps
}

fn is_element(doc: &Document, n: NodeIdx, label: Option<u16>) -> bool {
    matches!(doc.data(n), NodeData::Element(l) if Some(*l) == label)
}

fn is_text(doc: &Document, n: NodeIdx) -> bool {
    matches!(doc.data(n), NodeData::Literal { label, .. } if *label == LABEL_TEXT)
}

/// Evaluates `steps` from the document element. The first step names the
/// document element itself, as in XPath's absolute paths.
pub fn eval(doc: &Document, symbols: &SymbolTable, steps: &[Step]) -> Vec<NodeIdx> {
    let label = |name: &str| symbols.lookup_element(name);
    let mut current = match &steps[0] {
        Step::Child(name, pos)
            if is_element(doc, doc.root(), label(name)) && pos.unwrap_or(1) == 1 =>
        {
            vec![doc.root()]
        }
        _ => Vec::new(),
    };
    for step in &steps[1..] {
        let mut next = Vec::new();
        for &ctx in &current {
            match step {
                Step::Child(name, pos) => {
                    let l = label(name);
                    let hits = doc
                        .children(ctx)
                        .iter()
                        .copied()
                        .filter(|&c| is_element(doc, c, l));
                    pick(hits, *pos, &mut next);
                }
                Step::Text(pos) => {
                    let hits = doc
                        .children(ctx)
                        .iter()
                        .copied()
                        .filter(|&c| is_text(doc, c));
                    pick(hits, *pos, &mut next);
                }
                Step::Descendant(name) => {
                    let l = label(name);
                    next.extend(
                        doc.pre_order_from(ctx)
                            .skip(1)
                            .filter(|&n| is_element(doc, n, l)),
                    );
                }
            }
        }
        current = next;
    }
    current
}

fn pick(hits: impl Iterator<Item = NodeIdx>, pos: Option<usize>, out: &mut Vec<NodeIdx>) {
    match pos {
        None => out.extend(hits),
        Some(n) => out.extend(hits.skip(n - 1).take(1)),
    }
}

/// Concatenated text of the subtree at `node`.
pub fn text(doc: &Document, node: NodeIdx) -> String {
    let mut out = String::new();
    for n in doc.pre_order_from(node) {
        if let NodeData::Literal { label, value } = doc.data(n) {
            if *label == LABEL_TEXT {
                out.push_str(&value.to_text());
            }
        }
    }
    out
}

/// Compact XML of the subtree at `node`: leading attribute literals as
/// attributes, `<x/>` for empty elements, `&`, `<`, `>` (and `"` in
/// attributes) escaped.
pub fn serialize(doc: &Document, symbols: &SymbolTable, node: NodeIdx) -> String {
    let mut out = String::new();
    write(doc, symbols, node, &mut out);
    out
}

fn escape(s: &str, attr: bool, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
}

fn write(doc: &Document, symbols: &SymbolTable, node: NodeIdx, out: &mut String) {
    match doc.data(node) {
        NodeData::Literal { value, .. } => escape(&value.to_text(), false, out),
        NodeData::Element(label) => {
            let name = symbols.name(*label);
            out.push('<');
            out.push_str(name);
            let kids = doc.children(node);
            let mut content = kids;
            while let Some((&k, rest)) = content.split_first() {
                match doc.data(k) {
                    NodeData::Literal { label, value }
                        if symbols.kind(*label) == LabelKind::Attribute =>
                    {
                        out.push(' ');
                        out.push_str(symbols.name(*label));
                        out.push_str("=\"");
                        escape(&value.to_text(), true, out);
                        out.push('"');
                        content = rest;
                    }
                    _ => break,
                }
            }
            if content.is_empty() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            for &k in content {
                write(doc, symbols, k, out);
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
    }
}

/// One durable edit, addressed the way the workload addresses it in the
/// repository: by path from the document element.
#[derive(Debug, Clone)]
pub enum Edit {
    /// Replace the value of the text node at `path`.
    Update { path: String, text: String },
    /// Insert `<LINE>text</LINE>` as child number `index` (0-based, over
    /// all children) of the element at `path`.
    Insert {
        path: String,
        index: usize,
        text: String,
    },
    /// Remove the subtree at `path`.
    Delete { path: String },
}

/// Applies `edit` to the mirror DOM. Panics when the path does not name
/// exactly one node: the workload only draws targets that exist.
pub fn apply(doc: &mut Document, symbols: &SymbolTable, edit: &Edit) {
    let target = |doc: &Document, path: &str| {
        let hits = eval(doc, symbols, &parse(path));
        assert_eq!(hits.len(), 1, "mirror target {path} must be unique");
        hits[0]
    };
    match edit {
        Edit::Update { path, text } => {
            let n = target(doc, path);
            *doc.data_mut(n) = NodeData::text(text.as_str());
        }
        Edit::Insert { path, index, text } => {
            let parent = target(doc, path);
            let line = symbols.lookup_element("LINE").expect("LINE is interned");
            let new = doc.insert_child(parent, *index, NodeData::Element(line));
            doc.add_child(new, NodeData::text(text.as_str()));
        }
        Edit::Delete { path } => {
            let n = target(doc, path);
            doc.detach(n);
        }
    }
}

/// Checks the oracle against answers written by hand for a small play.
pub fn self_test() -> Result<(), String> {
    let mut syms = SymbolTable::new();
    let mut el = |name: &str| NodeData::Element(syms.intern_element(name));
    let (play, title, act, scene, speech, speaker, line, stagedir) = (
        el("PLAY"),
        el("TITLE"),
        el("ACT"),
        el("SCENE"),
        el("SPEECH"),
        el("SPEAKER"),
        el("LINE"),
        el("STAGEDIR"),
    );
    let mut doc = Document::new(play);
    let root = doc.root();
    let leaf = |doc: &mut Document, parent: NodeIdx, data: &NodeData, text: &str| {
        let n = doc.add_child(parent, data.clone());
        doc.add_child(n, NodeData::text(text));
    };
    leaf(&mut doc, root, &title, "T&C");
    for (a, scenes) in [
        (1, vec![vec![("X", vec!["l1", "l2"]), ("Y", vec!["l3"])]]),
        (2, vec![vec![("Z", vec!["l4"])]]),
    ] {
        let act_n = doc.add_child(root, act.clone());
        leaf(&mut doc, act_n, &title, &format!("A{a}"));
        for speeches in scenes {
            let scene_n = doc.add_child(act_n, scene.clone());
            leaf(&mut doc, scene_n, &title, "S");
            for (i, (who, lines)) in speeches.into_iter().enumerate() {
                if i == 1 {
                    leaf(&mut doc, scene_n, &stagedir, "exit");
                }
                let sp = doc.add_child(scene_n, speech.clone());
                leaf(&mut doc, sp, &speaker, who);
                for l in lines {
                    leaf(&mut doc, sp, &line, l);
                }
            }
        }
    }
    let check = |what: &str, got: String, want: &str| {
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "oracle self-test {what}: got {got:?}, want {want:?}"
            ))
        }
    };
    let serial = |doc: &Document, path: &str| {
        eval(doc, &syms, &parse(path))
            .iter()
            .map(|&n| serialize(doc, &syms, n))
            .collect::<Vec<_>>()
            .join("|")
    };
    let texts = |doc: &Document, path: &str| {
        eval(doc, &syms, &parse(path))
            .iter()
            .map(|&n| text(doc, n))
            .collect::<Vec<_>>()
            .join("|")
    };
    check(
        "lookup",
        serial(&doc, "/PLAY/ACT[1]/SCENE[1]/SPEECH[2]"),
        "<SPEECH><SPEAKER>Y</SPEAKER><LINE>l3</LINE></SPEECH>",
    )?;
    check("scene", texts(&doc, "/PLAY/ACT[2]/SCENE[1]//SPEAKER"), "Z")?;
    check(
        "scan",
        texts(&doc, "/PLAY/ACT/SCENE/SPEECH/SPEAKER"),
        "X|Y|Z",
    )?;
    check("descendant", texts(&doc, "/PLAY//LINE"), "l1|l2|l3|l4")?;
    check(
        "text()",
        serial(&doc, "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]/LINE[2]/text()"),
        "l2",
    )?;
    check(
        "escape",
        serial(&doc, "/PLAY/TITLE"),
        "<TITLE>T&amp;C</TITLE>",
    )?;
    check("missing position", serial(&doc, "/PLAY/ACT[3]"), "")?;
    check("wrong root", serial(&doc, "/ACT"), "")?;
    let edits = [
        Edit::Update {
            path: "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]/LINE[1]/text()".into(),
            text: "new".into(),
        },
        Edit::Insert {
            path: "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]".into(),
            index: 1,
            text: "ins".into(),
        },
        Edit::Delete {
            path: "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]/LINE[3]".into(),
        },
        Edit::Delete {
            path: "/PLAY/ACT[2]/SCENE[1]/SPEECH[1]/LINE[1]".into(),
        },
    ];
    for e in &edits {
        apply(&mut doc, &syms, e);
    }
    check(
        "edited speech",
        serial(&doc, "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]"),
        "<SPEECH><SPEAKER>X</SPEAKER><LINE>ins</LINE><LINE>new</LINE></SPEECH>",
    )?;
    check(
        "edited document",
        serialize(&doc, &syms, doc.root()),
        "<PLAY><TITLE>T&amp;C</TITLE><ACT><TITLE>A1</TITLE><SCENE><TITLE>S</TITLE>\
         <SPEECH><SPEAKER>X</SPEAKER><LINE>ins</LINE><LINE>new</LINE></SPEECH>\
         <STAGEDIR>exit</STAGEDIR><SPEECH><SPEAKER>Y</SPEAKER><LINE>l3</LINE></SPEECH>\
         </SCENE></ACT><ACT><TITLE>A2</TITLE><SCENE><TITLE>S</TITLE>\
         <SPEECH><SPEAKER>Z</SPEAKER></SPEECH></SCENE></ACT></PLAY>",
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn hand_written_answers() {
        super::self_test().unwrap();
    }
}
