//! Serialization of [`Element`] trees back to XML text.
//!
//! One mode: [`serialize`] writes the compact canonical form — what goes
//! on the wire, what [`Element::serialized_len`] measures and the only
//! form [`fn@crate::parse`] reads. It escapes `& < >` in text and
//! additionally `" '` in attribute values, exactly mirroring the reader's
//! entity decoding so round-trips are lossless.

use crate::node::{Element, Node};

/// Compact serialization. Empty elements collapse to `<name/>`.
pub fn serialize(el: &Element) -> String {
    let mut out = String::with_capacity(el.serialized_len());
    serialize_into(el, &mut out);
    out
}

/// Compact serialization appended to an existing buffer — the building
/// block for callers that assemble larger wire messages (e.g. the plan
/// codec) without intermediate strings.
pub fn serialize_into(el: &Element, out: &mut String) {
    out.push('<');
    out.push_str(el.name());
    for (n, v) in el.attrs() {
        out.push(' ');
        out.push_str(n);
        out.push_str("=\"");
        escape_into(v, true, out);
        out.push('"');
    }
    if el.children().is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for c in el.children() {
        match c {
            Node::Element(e) => serialize_into(e, out),
            Node::Text(t) => escape_into(t, false, out),
        }
    }
    out.push_str("</");
    out.push_str(el.name());
    out.push('>');
}

/// Escapes `s` into `out`. With `in_attr`, quotes are escaped too.
pub fn escape_into(s: &str, in_attr: bool, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if in_attr => out.push_str("&quot;"),
            '\'' if in_attr => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn compact_empty_element() {
        assert_eq!(serialize(&Element::new("a")), "<a/>");
    }

    #[test]
    fn attributes_escaped() {
        let e = Element::new("a").attr("k", "x\"y'z&<>");
        let s = serialize(&e);
        assert_eq!(s, r#"<a k="x&quot;y&apos;z&amp;&lt;&gt;"/>"#);
        assert_eq!(parse(&s).unwrap(), e);
    }

    #[test]
    fn text_escaped() {
        let e = Element::new("a").text("1 < 2 & 3 > 2 \"quoted\"");
        let s = serialize(&e);
        assert!(s.contains("&lt;") && s.contains("&amp;") && s.contains("&gt;"));
        // Quotes not escaped in text (parser accepts raw quotes there).
        assert!(s.contains("\"quoted\""));
        assert_eq!(parse(&s).unwrap(), e);
    }

    #[test]
    fn nested_structure() {
        let e = Element::new("r").child(Element::new("a").child(Element::new("b").text("t")));
        assert_eq!(serialize(&e), "<r><a><b>t</b></a></r>");
    }
}
