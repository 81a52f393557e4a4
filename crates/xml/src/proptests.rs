//! Property tests for the XML substrate: round-trip fidelity and size
//! accounting, over arbitrary generated trees.

use proptest::prelude::*;

use crate::node::{Element, Node};
use crate::{parse, parse_items, serialize};

/// Text that exercises escaping but avoids the one thing the model cannot
/// represent: a text node adjacent to another text node (the parser
/// merges them, so `Text("a"), Text("b")` does not round-trip as two
/// nodes). The generator below never produces adjacent text children.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~éü&<>'\"]{1,12}").unwrap()
}

fn arb_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z_][a-zA-Z0-9_.-]{0,8}").unwrap()
}

fn arb_element() -> impl Strategy<Value = Element> {
    let leaf = (
        arb_name(),
        proptest::collection::vec((arb_name(), arb_text()), 0..3),
    )
        .prop_map(|(name, attrs)| {
            let mut e = Element::new(name);
            for (n, v) in attrs {
                e.set_attr(n, v); // set_attr dedups names
            }
            e
        });
    leaf.prop_recursive(3, 24, 4, move |inner| {
        (
            arb_name(),
            proptest::collection::vec((arb_name(), arb_text()), 0..3),
            proptest::collection::vec(
                prop_oneof![
                    inner.prop_map(NodeKind::Element),
                    arb_text().prop_map(NodeKind::Text)
                ],
                0..4,
            ),
        )
            .prop_map(|(name, attrs, kids)| {
                let mut e = Element::new(name);
                for (n, v) in attrs {
                    e.set_attr(n, v);
                }
                let mut last_was_text = false;
                for k in kids {
                    match k {
                        NodeKind::Element(el) => {
                            e.push_child(Node::Element(el));
                            last_was_text = false;
                        }
                        NodeKind::Text(t) => {
                            // Avoid adjacent text nodes (parser merges them).
                            if !last_was_text {
                                e.push_child(Node::Text(t));
                                last_was_text = true;
                            }
                        }
                    }
                }
                e
            })
    })
}

#[derive(Debug, Clone)]
enum NodeKind {
    Element(Element),
    Text(String),
}

/// The direct element children of the canonical document `doc`, each
/// with its byte span, taken the way `Mqp::from_wire` slices its plan,
/// visit and constraints fragments: `Tokenizer::pos()` before the
/// child's `Open` token and after `TreeBuilder::build` returns. `None`
/// when `doc` is not one canonical element spanning the whole input.
pub(crate) fn child_slices(doc: &str) -> Option<Vec<(Element, &str)>> {
    use crate::canon::{Token, Tokenizer, TreeBuilder};
    let mut tok = Tokenizer::new(doc);
    let Ok(Some(Token::Open(root))) = tok.next_token() else {
        return None;
    };
    let self_closed = loop {
        match tok.next_token().ok()?? {
            Token::Attr { .. } => {}
            Token::SelfClose => break true,
            Token::OpenEnd => break false,
            _ => return None,
        }
    };
    let mut out = Vec::new();
    if !self_closed {
        let mut tb = TreeBuilder::new();
        loop {
            let start = tok.pos();
            match tok.next_token().ok()?? {
                Token::Open(n) => {
                    let el = tb.build(&mut tok, n).ok()?;
                    out.push((el, &doc[start..tok.pos()]));
                }
                Token::Text(_) => {}
                Token::Close(c) if c == root => break,
                _ => return None,
            }
        }
    }
    (tok.pos() == doc.len() && tok.next_token() == Ok(None)).then_some(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_compact(e in arb_element()) {
        let s = serialize(&e);
        let back = parse(&s).expect("serialized output must reparse");
        prop_assert_eq!(back, e);
    }

    #[test]
    fn serialized_len_is_exact(e in arb_element()) {
        prop_assert_eq!(e.serialized_len(), serialize(&e).len());
    }

    #[test]
    fn subtree_size_positive_and_monotone(e in arb_element()) {
        let size = e.subtree_size();
        prop_assert!(size >= 1);
        for c in e.child_elements() {
            prop_assert!(c.subtree_size() < size);
        }
    }

    /// Arbitrary bytes, read as text the way a peer must: the parser
    /// answers `Ok` or `Err` and never panics, and a tree it accepts
    /// serializes and parses back unchanged.
    #[test]
    fn parser_never_panics_on_arbitrary_input(
        bytes in proptest::collection::vec(0u8..=255, 0..4096),
    ) {
        let s = String::from_utf8_lossy(&bytes);
        for input in [s.to_string(), format!("<r>{s}</r>")] {
            if let Ok(e) = parse(&input) {
                prop_assert_eq!(parse(&serialize(&e)), Ok(e), "{}", input);
            }
        }
    }

    /// Generate a tree, serialize it, parse it back: the same tree,
    /// and the byte-span guarantee holds — each element's
    /// `Tokenizer::pos()` span re-serializes to exactly its input bytes
    /// (what envelope splicing relies on).
    #[test]
    fn parse_recovers_the_tree_and_its_spans(e in arb_element()) {
        let s = serialize(&e);
        let back = parse(&s).expect("serializer output must parse");
        prop_assert_eq!(&back, &e);
        // `child_slices` itself checks that the root spans the whole input.
        let kids = child_slices(&s).expect("serializer output must parse");
        prop_assert_eq!(kids.len(), back.child_elements().count());
        for (child, (built, slice)) in back.child_elements().zip(&kids) {
            prop_assert_eq!(child, built);
            prop_assert_eq!(serialize(child), *slice);
            let grands = child_slices(slice).expect("a child span is itself canonical");
            prop_assert_eq!(grands.len(), child.child_elements().count());
            for (grand, (_, gslice)) in child.child_elements().zip(&grands) {
                prop_assert_eq!(serialize(grand), *gslice);
            }
        }
    }

    /// Whatever the reader accepts — including inputs we never
    /// generated ourselves — re-serializes byte-identically, and the
    /// item reader reads the same document as one item.
    #[test]
    fn canonical_never_disagrees_on_arbitrary_input(s in "[ -~<>&;/\"'=]{0,64}") {
        if let Ok(e) = parse(&s) {
            prop_assert_eq!(serialize(&e), s.clone(), "byte-identity");
            let items = parse_items(&s).expect("a document is an item sequence");
            prop_assert_eq!(items.to_vec(), vec![e]);
        }
    }

    /// `skip_subtree` accepts exactly what `TreeBuilder::build` accepts
    /// — the guarantee that lets the envelope validate its `<original>`
    /// section at parse time and materialize it lazily.
    #[test]
    fn skip_agrees_with_build(s in "[ -~<>&;/\"'=]{0,64}") {
        use crate::canon::{skip_subtree, Token, Tokenizer, TreeBuilder};
        let run = |skip: bool| -> bool {
            let mut tok = Tokenizer::new(&s);
            let Ok(Some(Token::Open(name))) = tok.next_token() else {
                return false;
            };
            let ok = if skip {
                skip_subtree(&mut tok, name).is_ok()
            } else {
                TreeBuilder::new().build(&mut tok, name).is_ok()
            };
            ok && matches!(tok.next_token(), Ok(None))
        };
        prop_assert_eq!(run(true), run(false));
    }
}
