//! Recursive-descent XML parser.
//!
//! Supports the subset MQPs and data bundles need: elements, attributes
//! (single- or double-quoted), character data, CDATA sections, comments
//! (skipped), processing instructions and the XML declaration (skipped),
//! and the five predefined entities plus numeric character references.
//! DTDs are not supported (a `<!DOCTYPE…>` is rejected) — plans never
//! carry them and rejecting them avoids entity-expansion attacks from
//! untrusted peers.

use crate::error::{ErrorKind, ParseError, Result};
use crate::node::{Element, Node};

/// Parses a complete document: optional prolog, a single root element,
/// optional trailing whitespace. Returns the root element.
pub fn parse_document(input: &str) -> Result<Element> {
    let mut p = Parser::new(input);
    p.skip_prolog()?;
    let root = p.parse_element()?;
    p.skip_misc();
    if !p.at_end() {
        return Err(p.err(ErrorKind::TrailingContent));
    }
    Ok(root)
}

/// Parses a single element from the input: the entry point for XML a
/// person wrote — item literals in `.mqpq` queries, test fixtures —
/// and the reference [`crate::canon`] is property-tested against. Peers
/// do not call it: plans and envelopes decode from the canonical
/// tokenizer alone.
///
/// Input that happens to be canonical (everything
/// [`fn@crate::serialize`] writes) takes the zero-copy parser in
/// [`crate::canon`]; anything else — pretty-printing, prologs,
/// comments, single quotes — goes through this module's
/// recursive-descent parser, which also produces the error when the
/// input is malformed.
pub fn parse(input: &str) -> Result<Element> {
    if let Some(e) = crate::canon::parse_canonical(input) {
        return Ok(e);
    }
    parse_document(input)
}

/// True for bytes that may start an XML name (shared with the canonical
/// tokenizer so both parsers accept the same names).
pub(crate) fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

/// True for bytes that may continue an XML name.
pub(crate) fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, kind: ErrorKind) -> ParseError {
        ParseError::new(self.pos, kind)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<()> {
        if self.eat(s) {
            Ok(())
        } else {
            match self.peek() {
                Some(b) => Err(self.err(ErrorKind::UnexpectedChar(b as char))),
                None => Err(self.err(ErrorKind::UnexpectedEof)),
            }
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips the XML declaration, comments, PIs and whitespace before the
    /// root element. Rejects DOCTYPE.
    fn skip_prolog(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                return Err(self.err(ErrorKind::UnexpectedChar('!')));
            } else {
                return Ok(());
            }
        }
    }

    /// Skips comments/PIs/whitespace after the root element.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if self.skip_until("-->").is_err() {
                    return;
                }
            } else if self.starts_with("<?") {
                if self.skip_until("?>").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<()> {
        match self.input[self.pos..].find(end) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => {
                self.pos = self.bytes.len();
                Err(self.err(ErrorKind::UnexpectedEof))
            }
        }
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        match self.peek() {
            Some(b) if is_name_start(b) => {
                self.pos += 1;
            }
            Some(b) => return Err(self.err(ErrorKind::UnexpectedChar(b as char))),
            None => return Err(self.err(ErrorKind::UnexpectedEof)),
        }
        while matches!(self.peek(), Some(b) if is_name_char(b)) {
            self.pos += 1;
        }
        Ok(self.input[start..self.pos].to_owned())
    }

    fn parse_element(&mut self) -> Result<Element> {
        self.expect("<")?;
        let name = self.parse_name()?;
        let mut el = Element::new(&name);

        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(">")?;
                    return Ok(el);
                }
                Some(b) if is_name_start(b) => {
                    let aname = self.parse_name()?;
                    if el.get_attr(&aname).is_some() {
                        return Err(self.err(ErrorKind::DuplicateAttribute(aname)));
                    }
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    el.set_attr(aname, value);
                }
                Some(b) => return Err(self.err(ErrorKind::UnexpectedChar(b as char))),
                None => return Err(self.err(ErrorKind::UnexpectedEof)),
            }
        }

        // Content.
        let mut text_buf = String::new();
        loop {
            if self.starts_with("</") {
                flush_text(&mut el, &mut text_buf);
                self.pos += 2;
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(ErrorKind::MismatchedTag { open: name, close }));
                }
                self.skip_ws();
                self.expect(">")?;
                return Ok(el);
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.pos += "<![CDATA[".len();
                let start = self.pos;
                match self.input[self.pos..].find("]]>") {
                    Some(i) => {
                        text_buf.push_str(&self.input[start..start + i]);
                        self.pos += i + 3;
                    }
                    None => return Err(self.err(ErrorKind::UnexpectedEof)),
                }
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<") {
                flush_text(&mut el, &mut text_buf);
                let child = self.parse_element()?;
                el.push_child(child);
            } else if self.at_end() {
                return Err(self.err(ErrorKind::UnexpectedEof));
            } else {
                self.parse_char_data(&mut text_buf)?;
            }
        }
    }

    fn parse_attr_value(&mut self) -> Result<String> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            Some(b) => return Err(self.err(ErrorKind::UnexpectedChar(b as char))),
            None => return Err(self.err(ErrorKind::UnexpectedEof)),
        };
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b) if b == quote => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'&') => {
                    let c = self.parse_entity()?;
                    out.push_str(&c);
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote || b == b'&' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.input[start..self.pos]);
                }
                None => return Err(self.err(ErrorKind::UnexpectedEof)),
            }
        }
    }

    /// Consumes character data up to the next `<` or `&`, appending the
    /// decoded text to `buf`; decodes one entity if positioned at `&`.
    fn parse_char_data(&mut self, buf: &mut String) -> Result<()> {
        match self.peek() {
            Some(b'&') => {
                let c = self.parse_entity()?;
                buf.push_str(&c);
            }
            _ => {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'<' || b == b'&' {
                        break;
                    }
                    self.pos += 1;
                }
                buf.push_str(&self.input[start..self.pos]);
            }
        }
        Ok(())
    }

    /// Parses `&name;`, `&#NN;` or `&#xHH;` (cursor on `&`).
    fn parse_entity(&mut self) -> Result<String> {
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.pos += 1;
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b != b';') {
            self.pos += 1;
        }
        if self.peek() != Some(b';') {
            return Err(self.err(ErrorKind::UnexpectedEof));
        }
        let body = &self.input[start..self.pos];
        self.pos += 1;
        let decoded = match body {
            "amp" => "&".to_owned(),
            "lt" => "<".to_owned(),
            "gt" => ">".to_owned(),
            "quot" => "\"".to_owned(),
            "apos" => "'".to_owned(),
            _ if body.starts_with('#') => {
                let num = &body[1..];
                let cp = if let Some(hex) = num.strip_prefix('x').or_else(|| num.strip_prefix('X'))
                {
                    u32::from_str_radix(hex, 16)
                } else {
                    num.parse::<u32>()
                }
                .map_err(|_| self.err(ErrorKind::BadCharRef(body.to_owned())))?;
                char::from_u32(cp)
                    .ok_or_else(|| self.err(ErrorKind::BadCharRef(body.to_owned())))?
                    .to_string()
            }
            _ => return Err(self.err(ErrorKind::UnknownEntity(body.to_owned()))),
        };
        Ok(decoded)
    }
}

fn flush_text(el: &mut Element, buf: &mut String) {
    if !buf.is_empty() {
        el.push_child(Node::Text(std::mem::take(buf)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize;

    #[test]
    fn basic_element() {
        let e = parse("<a/>").unwrap();
        assert_eq!(e.name(), "a");
        assert!(e.children().is_empty());
    }

    #[test]
    fn attributes_both_quote_styles() {
        let e = parse(r#"<a x="1" y='two'/>"#).unwrap();
        assert_eq!(e.get_attr("x"), Some("1"));
        assert_eq!(e.get_attr("y"), Some("two"));
    }

    #[test]
    fn nested_and_text() {
        let e = parse("<item><name>golf clubs</name><price>99.95</price></item>").unwrap();
        assert_eq!(e.field("name").as_deref(), Some("golf clubs"));
        assert_eq!(e.field_f64("price"), Some(99.95));
    }

    #[test]
    fn mixed_content_order_preserved() {
        let e = parse("<a>x<b/>y</a>").unwrap();
        assert_eq!(e.children().len(), 3);
        assert_eq!(e.children()[0].as_text(), Some("x"));
        assert!(e.children()[1].as_element().is_some());
        assert_eq!(e.children()[2].as_text(), Some("y"));
    }

    #[test]
    fn entities_decoded() {
        let e = parse("<a b=\"&lt;&amp;&quot;&apos;&gt;\">&#65;&#x42;&amp;</a>").unwrap();
        assert_eq!(e.get_attr("b"), Some("<&\"'>"));
        assert_eq!(e.direct_text(), "AB&");
    }

    #[test]
    fn unknown_entity_rejected() {
        let err = parse("<a>&nbsp;</a>").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::UnknownEntity(_)));
    }

    #[test]
    fn bad_char_ref_rejected() {
        assert!(matches!(
            parse("<a>&#xZZ;</a>").unwrap_err().kind,
            ErrorKind::BadCharRef(_)
        ));
        // Surrogate code point is not a char.
        assert!(matches!(
            parse("<a>&#xD800;</a>").unwrap_err().kind,
            ErrorKind::BadCharRef(_)
        ));
    }

    #[test]
    fn cdata_passes_raw() {
        let e = parse("<a><![CDATA[<not> & parsed]]></a>").unwrap();
        assert_eq!(e.direct_text(), "<not> & parsed");
    }

    #[test]
    fn comments_and_pis_skipped() {
        let e =
            parse("<?xml version=\"1.0\"?><!-- hi --><a><!-- in --><b/><?pi data?></a>").unwrap();
        assert_eq!(e.child_elements().count(), 1);
    }

    #[test]
    fn mismatched_tag_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn trailing_content_rejected() {
        let err = parse("<a/>junk").unwrap_err();
        assert_eq!(err.kind, ErrorKind::TrailingContent);
    }

    #[test]
    fn trailing_whitespace_and_comment_ok() {
        assert!(parse("<a/>  \n<!-- bye -->  ").is_ok());
    }

    #[test]
    fn doctype_rejected() {
        assert!(parse("<!DOCTYPE a><a/>").is_err());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err.kind, ErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn eof_in_tag() {
        assert!(matches!(
            parse("<a").unwrap_err().kind,
            ErrorKind::UnexpectedEof
        ));
        assert!(matches!(
            parse("<a><b>").unwrap_err().kind,
            ErrorKind::UnexpectedEof
        ));
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
        let e2 = parse(&out).unwrap();
        assert_eq!(e, e2);
    }

    #[test]
    fn whitespace_between_attrs_flexible() {
        let e = parse("<a  x = \"1\"\n y='2' />").unwrap();
        assert_eq!(e.get_attr("x"), Some("1"));
        assert_eq!(e.get_attr("y"), Some("2"));
    }
}
