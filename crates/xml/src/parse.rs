//! The one XML reader's entry points, a [`Tokenizer`] driving a
//! [`TreeBuilder`]: anything but canonical XML is
//! [`ErrorKind::NotCanonical`] where the input left the grammar.

use crate::batch::Batch;
use crate::canon::{NotCanonical, Token, Tokenizer, TreeBuilder};
use crate::error::{ErrorKind, ParseError};
use crate::node::Element;

/// Parses a canonical document: exactly one element, nothing before or
/// after. The error's offset is where the input left the canonical
/// grammar (for content after the root, where the root ended).
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut tok = Tokenizer::new(input);
    let root = match tok.next_token() {
        Ok(Some(Token::Open(name))) => TreeBuilder::new().build(&mut tok, name),
        _ => Err(NotCanonical),
    };
    let end = tok.pos();
    match root {
        Ok(root) if tok.next_token() == Ok(None) => Ok(root),
        _ => Err(ParseError::new(end, ErrorKind::NotCanonical)),
    }
}

/// Parses a sequence of canonical elements — a result payload's items,
/// a `.mqpq` `data` literal — into a [`Batch`]. Text between items is
/// formatting; the empty sequence is the empty batch.
pub fn parse_items(input: &str) -> Result<Batch, ParseError> {
    let mut tok = Tokenizer::new(input);
    let mut tb = TreeBuilder::new();
    let mut items = Batch::new();
    loop {
        match tok.next_token() {
            Ok(None) => return Ok(items),
            Ok(Some(Token::Open(name))) => match tb.build(&mut tok, name) {
                Ok(item) => items.push_item(item),
                Err(_) => break,
            },
            Ok(Some(Token::Text(_))) => {}
            _ => break,
        }
    }
    Err(ParseError::new(tok.pos(), ErrorKind::NotCanonical))
}

/// [`parse()`] without the offset.
pub fn parse_canonical(input: &str) -> Option<Element> {
    parse(input).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize;

    /// `src` is refused as [`ErrorKind::NotCanonical`] at byte `at`.
    fn rejected_at(src: &str, at: usize) {
        let err = parse(src).expect_err(src);
        assert_eq!(
            (err.offset, err.kind),
            (at, ErrorKind::NotCanonical),
            "{src:?}"
        );
        assert!(parse_canonical(src).is_none());
    }

    #[test]
    fn basic_element() {
        let e = parse("<a/>").unwrap();
        assert_eq!(e.name(), "a");
        assert!(e.children().is_empty());
    }

    /// Attributes are double-quoted; a single-quoted value is refused at
    /// its quote.
    #[test]
    fn attributes_both_quote_styles() {
        let e = parse(r#"<a x="1" y="two"/>"#).unwrap();
        assert_eq!(e.get_attr("x"), Some("1"));
        assert_eq!(e.get_attr("y"), Some("two"));
        rejected_at("<a x=\"1\" y='two'/>", 10);
    }

    #[test]
    fn nested_and_text() {
        let e = parse("<item><name>golf clubs</name><price>99.95</price></item>").unwrap();
        assert_eq!(e.field("name").as_deref(), Some("golf clubs"));
        assert_eq!(e.field("price").as_deref(), Some("99.95"));
    }

    #[test]
    fn mixed_content_order_preserved() {
        let e = parse("<a>x<b/>y</a>").unwrap();
        assert_eq!(e.children().len(), 3);
        assert_eq!(e.children()[0].as_text(), Some("x"));
        assert!(e.children()[1].as_element().is_some());
        assert_eq!(e.children()[2].as_text(), Some("y"));
    }

    /// The predefined entities decode; numeric character references are
    /// refused at the first `&#`.
    #[test]
    fn entities_decoded() {
        let e = parse("<a b=\"&lt;&amp;&quot;&apos;&gt;\">&lt;&amp;&gt;</a>").unwrap();
        assert_eq!(e.get_attr("b"), Some("<&\"'>"));
        assert_eq!(e.direct_text(), "<&>");
        rejected_at(
            "<a b=\"&lt;&amp;&quot;&apos;&gt;\">&#65;&#x42;&amp;</a>",
            33,
        );
    }

    #[test]
    fn unknown_entity_rejected() {
        rejected_at("<a>&nbsp;</a>", 3);
    }

    #[test]
    fn bad_char_ref_rejected() {
        rejected_at("<a>&#xZZ;</a>", 3);
        // Surrogate code point is not a char.
        rejected_at("<a>&#xD800;</a>", 3);
    }

    /// A CDATA section is refused; the same text passes escaped.
    #[test]
    fn cdata_passes_raw() {
        rejected_at("<a><![CDATA[<not> & parsed]]></a>", 4);
        let e = parse("<a>&lt;not&gt; &amp; parsed</a>").unwrap();
        assert_eq!(e.direct_text(), "<not> & parsed");
    }

    /// Comments, processing instructions and the XML declaration are
    /// refused wherever they appear.
    #[test]
    fn comments_and_pis_skipped() {
        rejected_at(
            "<?xml version=\"1.0\"?><!-- hi --><a><!-- in --><b/><?pi data?></a>",
            1,
        );
        rejected_at("<a><!-- in --><b/></a>", 4);
        rejected_at("<a><b/><?pi data?></a>", 8);
    }

    #[test]
    fn mismatched_tag_rejected() {
        rejected_at("<a><b></a></b>", 10);
    }

    #[test]
    fn trailing_content_rejected() {
        rejected_at("<a/>junk", 4);
    }

    /// Nothing may follow the root, not even whitespace or a comment:
    /// the error points where the root ended.
    #[test]
    fn trailing_whitespace_and_comment_ok() {
        rejected_at("<a/>  \n<!-- bye -->  ", 4);
        rejected_at("<a>x</a>\n", 8);
    }

    #[test]
    fn doctype_rejected() {
        rejected_at("<!DOCTYPE a><a/>", 1);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        rejected_at(r#"<a x="1" x="2"/>"#, 14);
    }

    #[test]
    fn eof_in_tag() {
        rejected_at("<a", 2);
        rejected_at("<a><b>", 6);
    }

    #[test]
    fn unicode_names_and_text() {
        let e = parse("<données clé=\"ü\">héllo</données>").unwrap();
        assert_eq!(e.name(), "données");
        assert_eq!(e.get_attr("clé"), Some("ü"));
        assert_eq!(e.direct_text(), "héllo");
    }

    #[test]
    fn roundtrip_smoke() {
        let src = r#"<plan target="129.95.50.105:9020"><select pred="price &lt; 10"><urn name="urn:ForSale:Portland-CDs"/></select></plan>"#;
        let e = parse(src).unwrap();
        let out = serialize(&e);
        assert_eq!(out, src);
        assert_eq!(parse(&out).unwrap(), e);
    }

    /// Tags carry exactly one space before each attribute and none
    /// elsewhere; any other spacing is refused where it starts.
    #[test]
    fn whitespace_between_attrs_flexible() {
        let e = parse("<a x=\"1\" y=\"2\"/>").unwrap();
        assert_eq!(e.get_attr("x"), Some("1"));
        assert_eq!(e.get_attr("y"), Some("2"));
        rejected_at("<a  x = \"1\"\n y='2' />", 3);
        rejected_at("<a x=\"1\"\ny=\"2\"/>", 8);
    }

    #[test]
    fn item_sequences_parse_as_batches() {
        assert_eq!(parse_items("").map(|b| b.len()), Ok(0));
        let items = parse_items("<i>1</i>\n  <i>2</i> ").unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].direct_text(), "2");
        for (src, at) in [("<i a='1'/>", 4), ("<i/></j>", 8), ("<i>", 3)] {
            assert_eq!(parse_items(src).unwrap_err().offset, at, "{src:?}");
        }
    }
}
