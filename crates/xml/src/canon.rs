//! Zero-copy parsing of *canonical* XML — the exact form
//! [`fn@crate::serialize`] emits.
//!
//! Everything MQP puts on the wire is produced by our own serializer,
//! which emits one canonical spelling: no prolog, no comments or CDATA,
//! double-quoted attributes separated by single spaces, `<name/>` for
//! empty elements, and exactly the five predefined entities (`& < >`
//! escaped everywhere, `" '` additionally in attribute values, nothing
//! else). The [`Tokenizer`] here accepts *only* that grammar, yielding
//! borrowed `&str` names and `Cow<str>` text/value slices straight off
//! the input buffer — no per-node name allocations, no per-entity
//! strings.
//!
//! Accepting only the canonical grammar buys a load-bearing guarantee:
//!
//! > If [`parse_canonical`] succeeds on `input`, then
//! > `serialize(&result) == input`, and the byte span of every element
//! > is exactly its re-serialization.
//!
//! (Property-tested in `proptests.rs`.) The envelope layer exploits
//! this to splice received bytes directly into outgoing messages
//! instead of re-serializing unchanged subtrees. Canonical XML is the
//! wire grammar, not a fast path: any deviation — stray whitespace,
//! `<a></a>` long forms, numeric character references, single-quoted
//! attributes — is [`NotCanonical`], which the plan and envelope
//! decoders report as a protocol error with the byte offset. (Humans
//! write `.mqpq`; the lenient parser in [`mod@crate::parse`] reads their
//! item literals and is the reference these functions are
//! property-tested against.)

use std::borrow::Cow;

use crate::node::{Element, Node};
use crate::parse::{is_name_char, is_name_start};

/// Marker error: the input strayed from the canonical grammar. Carries
/// no detail of its own; [`Tokenizer::pos`] at the moment it is returned
/// is where the input went wrong, which is what decoders report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotCanonical;

/// One token of canonical XML, borrowing from the input buffer. Text
/// and attribute values are `Cow`: borrowed when no entity needed
/// decoding, owned otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `<name` — start of an open tag; attributes follow.
    Open(&'a str),
    /// ` name="value"` inside an open tag.
    Attr {
        /// Attribute name.
        name: &'a str,
        /// Decoded attribute value.
        value: Cow<'a, str>,
    },
    /// `>` — the open tag ends; content follows.
    OpenEnd,
    /// `/>` — the element ends with no content.
    SelfClose,
    /// A run of character data (entity-decoded).
    Text(Cow<'a, str>),
    /// `</name>`.
    Close(&'a str),
}

/// A pull tokenizer over canonical XML (see module docs).
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    in_tag: bool,
}

// Word-at-a-time scanning (SWAR): the tokenizer's inner loops walk
// every content byte looking for a handful of specials; doing it eight
// bytes per step is worth a measurable slice of parse time at
// data-bundle scale.

#[inline]
fn splat(b: u8) -> u64 {
    u64::from(b) * 0x0101_0101_0101_0101
}

/// 0x80 in every byte of `x` that was zero.
#[inline]
fn zero_byte_mask(x: u64) -> u64 {
    x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080
}

/// Index of the first occurrence of any special byte, or `bytes.len()`.
#[inline]
fn find_special<const N: usize>(bytes: &[u8], specials: [u8; N]) -> usize {
    let mut i = 0;
    while i + 8 <= bytes.len() {
        let w = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8-byte chunk"));
        let mut m = 0u64;
        for s in specials {
            m |= zero_byte_mask(w ^ splat(s));
        }
        if m != 0 {
            return i + (m.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < bytes.len() {
        if specials.contains(&bytes[i]) {
            return i;
        }
        i += 1;
    }
    bytes.len()
}

impl<'a> Tokenizer<'a> {
    /// Tokenizes `input` from the beginning.
    pub fn new(input: &'a str) -> Self {
        Tokenizer {
            input,
            pos: 0,
            in_tag: false,
        }
    }

    /// Current byte offset: the start of the next token (or the end of
    /// input). Because the grammar has no skippable whitespace, this is
    /// exact — callers use it to record element byte spans.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The next token, `Ok(None)` at end of input, or [`NotCanonical`].
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>, NotCanonical> {
        if self.in_tag {
            return self.tag_token().map(Some);
        }
        let Some(&b) = self.input.as_bytes().get(self.pos) else {
            return Ok(None);
        };
        if b != b'<' {
            return self.scan_text().map(|t| Some(Token::Text(t)));
        }
        if self.input.as_bytes().get(self.pos + 1) == Some(&b'/') {
            self.pos += 2;
            let name = self.scan_name()?;
            if self.input.as_bytes().get(self.pos) != Some(&b'>') {
                return Err(NotCanonical);
            }
            self.pos += 1;
            Ok(Some(Token::Close(name)))
        } else {
            self.pos += 1;
            let name = self.scan_name()?;
            self.in_tag = true;
            Ok(Some(Token::Open(name)))
        }
    }

    fn tag_token(&mut self) -> Result<Token<'a>, NotCanonical> {
        match self.input.as_bytes().get(self.pos) {
            Some(b' ') => {
                self.pos += 1;
                let name = self.scan_name()?;
                if !self.input[self.pos..].starts_with("=\"") {
                    return Err(NotCanonical);
                }
                self.pos += 2;
                let value = self.scan_attr_value()?;
                Ok(Token::Attr { name, value })
            }
            Some(b'>') => {
                self.pos += 1;
                self.in_tag = false;
                Ok(Token::OpenEnd)
            }
            Some(b'/') if self.input.as_bytes().get(self.pos + 1) == Some(&b'>') => {
                self.pos += 2;
                self.in_tag = false;
                Ok(Token::SelfClose)
            }
            _ => Err(NotCanonical),
        }
    }

    fn scan_name(&mut self) -> Result<&'a str, NotCanonical> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        match bytes.get(self.pos) {
            Some(&b) if is_name_start(b) => self.pos += 1,
            _ => return Err(NotCanonical),
        }
        while matches!(bytes.get(self.pos), Some(&b) if is_name_char(b)) {
            self.pos += 1;
        }
        Ok(&self.input[start..self.pos])
    }

    /// Cursor is just past the opening quote; consumes through the
    /// closing quote. Rejects raw `< > '` (the serializer escapes them
    /// in attribute values) and non-canonical entities.
    fn scan_attr_value(&mut self) -> Result<Cow<'a, str>, NotCanonical> {
        let mut owned: Option<String> = None;
        loop {
            let rest = &self.input.as_bytes()[self.pos..];
            let n = find_special(rest, [b'"', b'&', b'<', b'>', b'\'']);
            if n == rest.len() {
                return Err(NotCanonical);
            }
            let run = &self.input[self.pos..self.pos + n];
            match rest[n] {
                b'"' => {
                    self.pos += n + 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                b'&' => {
                    self.pos += n;
                    let ch = self.entity(true)?;
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(ch);
                }
                _ => return Err(NotCanonical),
            }
        }
    }

    /// A maximal run of character data. Rejects raw `>` (the serializer
    /// escapes it in text) and non-canonical entities; stops at `<`.
    fn scan_text(&mut self) -> Result<Cow<'a, str>, NotCanonical> {
        let mut owned: Option<String> = None;
        let mut start = self.pos;
        loop {
            let rest = &self.input.as_bytes()[self.pos..];
            let n = find_special(rest, [b'<', b'&', b'>']);
            let run = &self.input[self.pos..self.pos + n];
            self.pos += n;
            match self.input.as_bytes().get(self.pos) {
                Some(b'&') => {
                    let ch = self.entity(false)?;
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(ch);
                    start = self.pos;
                }
                Some(b'>') => return Err(NotCanonical),
                // `<` or end of input: the run is complete.
                _ => {
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(&self.input[start..self.pos]);
                            Cow::Owned(s)
                        }
                    });
                }
            }
        }
    }

    /// Cursor on `&`: accepts exactly the entities the serializer
    /// emits in this context, advancing past the `;`.
    fn entity(&mut self, in_attr: bool) -> Result<char, NotCanonical> {
        const CANONICAL: [(&str, char, bool); 5] = [
            ("&amp;", '&', false),
            ("&lt;", '<', false),
            ("&gt;", '>', false),
            ("&quot;", '"', true),
            ("&apos;", '\'', true),
        ];
        let rest = &self.input[self.pos..];
        for (pat, ch, attr_only) in CANONICAL {
            if (!attr_only || in_attr) && rest.starts_with(pat) {
                self.pos += pat.len();
                return Ok(ch);
            }
        }
        Err(NotCanonical)
    }
}

/// Builds [`Element`] subtrees from a [`Tokenizer`], accumulating
/// children in one reused scratch buffer so each finished element gets
/// a single exact-size allocation instead of push-doubling growth —
/// the difference is measurable at data-bundle scale (hundreds of
/// thousands of nodes per plan).
#[derive(Default)]
pub struct TreeBuilder {
    scratch: Vec<Node>,
}

impl TreeBuilder {
    /// A builder with an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the element whose `Open(name)` token was just consumed:
    /// reads its attributes, content, and closing tag. On error the
    /// scratch buffer may hold partial nodes — call [`TreeBuilder::build`]
    /// again only after discarding the failed parse (both entry points
    /// here do so by resetting).
    ///
    /// Drives the tokenizer's scanner primitives directly rather than
    /// pulling `Token`s: this loop runs once per node of every data
    /// bundle on the wire, and skipping the enum round-trip is a
    /// measurable win. Acceptance is identical to the token loop.
    pub fn build(&mut self, tok: &mut Tokenizer<'_>, name: &str) -> Result<Element, NotCanonical> {
        let mut el = Element::new(name);
        loop {
            match tok.input.as_bytes().get(tok.pos) {
                Some(b' ') => {
                    tok.pos += 1;
                    let aname = tok.scan_name()?;
                    if !tok.input[tok.pos..].starts_with("=\"") {
                        return Err(NotCanonical);
                    }
                    tok.pos += 2;
                    let value = tok.scan_attr_value()?;
                    if el.get_attr(aname).is_some() {
                        return Err(NotCanonical);
                    }
                    el.set_attr(aname, value);
                }
                Some(b'>') => {
                    tok.pos += 1;
                    break;
                }
                Some(b'/') if tok.input.as_bytes().get(tok.pos + 1) == Some(&b'>') => {
                    tok.pos += 2;
                    tok.in_tag = false;
                    return Ok(el);
                }
                _ => return Err(NotCanonical),
            }
        }
        tok.in_tag = false;
        let mark = self.scratch.len();
        loop {
            match tok.input.as_bytes().get(tok.pos) {
                None => return Err(NotCanonical),
                Some(b'<') => {
                    if tok.input.as_bytes().get(tok.pos + 1) == Some(&b'/') {
                        tok.pos += 2;
                        let close = tok.scan_name()?;
                        if tok.input.as_bytes().get(tok.pos) != Some(&b'>') {
                            return Err(NotCanonical);
                        }
                        tok.pos += 1;
                        // `<a></a>` is the serializer's `<a/>`:
                        // long-form empty elements are not canonical.
                        if close != el.name() || self.scratch.len() == mark {
                            return Err(NotCanonical);
                        }
                        el.set_children(self.scratch.split_off(mark));
                        return Ok(el);
                    }
                    tok.pos += 1;
                    let child_name = tok.scan_name()?;
                    tok.in_tag = true;
                    let child = self.build(tok, child_name)?;
                    self.scratch.push(Node::Element(child));
                }
                Some(_) => {
                    let t = tok.scan_text()?;
                    self.scratch.push(Node::Text(t.into_owned()));
                }
            }
        }
    }
}

/// Skips the element whose `Open(name)` token was just consumed,
/// enforcing exactly the canonical rules [`TreeBuilder::build`] does —
/// duplicate attributes, long-form empties, matched close tags —
/// without constructing any nodes. Accepts precisely the inputs
/// `build` accepts (property-tested), which is what lets callers
/// validate a subtree now and defer materializing it.
pub fn skip_subtree<'a>(tok: &mut Tokenizer<'a>, name: &str) -> Result<(), NotCanonical> {
    let mut attrs: Vec<&'a str> = Vec::new();
    loop {
        match tok.next_token()?.ok_or(NotCanonical)? {
            Token::Attr { name: a, .. } => {
                if attrs.contains(&a) {
                    return Err(NotCanonical);
                }
                attrs.push(a);
            }
            Token::SelfClose => return Ok(()),
            Token::OpenEnd => break,
            _ => return Err(NotCanonical),
        }
    }
    let mut children = 0usize;
    loop {
        match tok.next_token()?.ok_or(NotCanonical)? {
            Token::Text(_) => children += 1,
            Token::Open(n) => {
                skip_subtree(tok, n)?;
                children += 1;
            }
            Token::Close(c) => {
                if c != name || children == 0 {
                    return Err(NotCanonical);
                }
                return Ok(());
            }
            _ => return Err(NotCanonical),
        }
    }
}

/// Parses a canonical document: exactly one element, nothing before or
/// after. Returns `None` when the input deviates from the canonical
/// grammar.
pub fn parse_canonical(input: &str) -> Option<Element> {
    let mut tok = Tokenizer::new(input);
    let Ok(Some(Token::Open(name))) = tok.next_token() else {
        return None;
    };
    let root = TreeBuilder::new().build(&mut tok, name).ok()?;
    match tok.next_token() {
        Ok(None) => Some(root),
        _ => None, // trailing content, or junk after the root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_document, serialize};

    fn roundtrip(src: &str) -> Element {
        let e = parse_canonical(src).expect("canonical input must parse");
        assert_eq!(serialize(&e), src, "byte-identity guarantee");
        assert_eq!(e, parse_document(src).unwrap(), "agrees with lenient");
        e
    }

    #[test]
    fn accepts_serializer_output() {
        let e = roundtrip(
            r#"<plan target="h:1"><select pred="price &lt; 10"><urn name="urn:ForSale:Portland-CDs"/></select>tail</plan>"#,
        );
        assert_eq!(e.name(), "plan");
        assert_eq!(e.get_attr("target"), Some("h:1"));
        let sel = e.first("select").unwrap();
        assert_eq!(sel.get_attr("pred"), Some("price < 10"));
    }

    #[test]
    fn text_entities_decode() {
        let e = roundtrip("<a>x &amp; y &lt; z &gt; w</a>");
        assert_eq!(e.direct_text(), "x & y < z > w");
    }

    #[test]
    fn attr_entities_decode() {
        let e = roundtrip(r#"<a k="&quot;q&apos; &amp;&lt;&gt;"/>"#);
        assert_eq!(e.get_attr("k"), Some("\"q' &<>"));
    }

    #[test]
    fn non_canonical_forms_rejected() {
        for src in [
            "",
            " <a/>",                       // leading whitespace
            "<a/> ",                       // trailing whitespace
            "<a></a>",                     // long-form empty element
            "<a x='1'/>",                  // single-quoted attribute
            "<a  x=\"1\"/>",               // double space
            "<a x=\"1\" />",               // space before />
            "<a x = \"1\"/>",              // spaces around =
            "<a>&#65;</a>",                // numeric character reference
            "<a>&quot;</a>",               // attr-only entity in text
            "<a>1 > 0</a>",                // raw > in text
            "<a k=\"x>y\"/>",              // raw > in attribute value
            "<a k=\"x'y\"/>",              // raw ' in attribute value
            "<?xml version=\"1.0\"?><a/>", // prolog
            "<!-- c --><a/>",              // comment
            "<a><![CDATA[x]]></a>",        // CDATA
            "<a><b></a></b>",              // mismatched tags
            "<a x=\"1\" x=\"2\"/>",        // duplicate attribute
            "<a/><b/>",                    // two roots
            "<a",                          // EOF in tag
            "<a>text",                     // EOF in content
        ] {
            assert!(parse_canonical(src).is_none(), "{src:?} should be rejected");
        }
    }

    #[test]
    fn spans_cover_children() {
        use crate::proptests::child_slices;
        let src = "<mqp><plan><select/></plan><provenance><visit/><visit/></provenance></mqp>";
        let kids = child_slices(src).unwrap();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].1, "<plan><select/></plan>");
        assert_eq!(child_slices(kids[0].1).unwrap()[0].1, "<select/>");
        let prov = child_slices(kids[1].1).unwrap();
        assert_eq!(prov.len(), 2);
        assert_eq!(prov[0].1, "<visit/>");
        assert_eq!(kids[1].0.child_elements().count(), 2);
    }

    #[test]
    fn tokenizer_borrows_when_no_entities() {
        let src = r#"<a k="plain">text</a>"#;
        let mut tok = Tokenizer::new(src);
        let mut saw_borrowed = 0;
        while let Ok(Some(t)) = tok.next_token() {
            match t {
                Token::Attr { value, .. } => {
                    assert!(matches!(value, Cow::Borrowed(_)));
                    saw_borrowed += 1;
                }
                Token::Text(t) => {
                    assert!(matches!(t, Cow::Borrowed(_)));
                    saw_borrowed += 1;
                }
                _ => {}
            }
        }
        assert_eq!(saw_borrowed, 2);
    }
}
