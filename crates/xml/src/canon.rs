//! The crate's one XML reader: zero-copy parsing of *canonical* XML —
//! the exact form [`fn@crate::serialize`] emits.
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
//! > If [`parse()`](crate::parse()) succeeds on `input`, then
//! > `serialize(&result) == input`, and the byte span of every element
//! > is exactly its re-serialization.
//!
//! (Property-tested in `proptests.rs`.) The envelope layer exploits
//! this to splice received bytes directly into outgoing messages
//! instead of re-serializing unchanged subtrees. Canonical XML is the
//! wire grammar, not a fast path: any deviation — stray whitespace,
//! `<a></a>` long forms, numeric character references, single-quoted
//! attributes, nesting deeper than `MAX_DEPTH` — is [`NotCanonical`],
//! which every reader reports with the byte offset.

use std::borrow::Cow;

use crate::node::{Element, Node};

/// How many elements may be open at once. The deepest document in use
/// is 9 levels (`mqp/plan/display/or/alt/union/data/item/title` in the
/// `exp_lang` and `exp_currency_latency` goldens; generated plans reach
/// 9, the benchmark workloads 7): 7× margin, while every recursive
/// walker over a [`Tokenizer`] — tree building, [`skip_subtree`], the
/// plan and envelope decoders — stays far inside a 2 MiB thread stack
/// (the plan decoder overflows one near 200 levels in a debug build).
pub const MAX_DEPTH: usize = 64;

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

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
    /// Elements opened and not yet closed.
    depth: usize,
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
            depth: 0,
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
            self.scan_close().map(|name| Some(Token::Close(name)))
        } else {
            self.open_tag().map(|name| Some(Token::Open(name)))
        }
    }

    /// Cursor on the `<` of an open tag: consumes `<name` and counts the
    /// element as open. A tag past `MAX_DEPTH` open elements is refused
    /// with the cursor still on its `<`.
    fn open_tag(&mut self) -> Result<&'a str, NotCanonical> {
        if self.depth == MAX_DEPTH {
            return Err(NotCanonical);
        }
        self.pos += 1;
        let name = self.scan_name()?;
        self.in_tag = true;
        self.depth += 1;
        Ok(name)
    }

    /// An element ended (`/>` or its close tag). Saturating: a stray
    /// `</x>` at depth 0 is refused by the caller, not here.
    fn close_tag(&mut self) {
        self.in_tag = false;
        self.depth = self.depth.saturating_sub(1);
    }

    /// Cursor on `</`: consumes `</name>` and closes the element.
    fn scan_close(&mut self) -> Result<&'a str, NotCanonical> {
        self.pos += 2;
        let name = self.scan_name()?;
        if self.input.as_bytes().get(self.pos) != Some(&b'>') {
            return Err(NotCanonical);
        }
        self.pos += 1;
        self.close_tag();
        Ok(name)
    }

    /// Cursor on the space before ` name="value"`: consumes it.
    fn scan_attr(&mut self) -> Result<(&'a str, Cow<'a, str>), NotCanonical> {
        self.pos += 1;
        let name = self.scan_name()?;
        if !self.input[self.pos..].starts_with("=\"") {
            return Err(NotCanonical);
        }
        self.pos += 2;
        Ok((name, self.scan_attr_value()?))
    }

    fn tag_token(&mut self) -> Result<Token<'a>, NotCanonical> {
        match self.input.as_bytes().get(self.pos) {
            Some(b' ') => self
                .scan_attr()
                .map(|(name, value)| Token::Attr { name, value }),
            Some(b'>') => {
                self.pos += 1;
                self.in_tag = false;
                Ok(Token::OpenEnd)
            }
            Some(b'/') if self.input.as_bytes().get(self.pos + 1) == Some(&b'>') => {
                self.pos += 2;
                self.close_tag();
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
    /// again only after discarding the failed parse (every reader here
    /// stops at its first error).
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
                    let (aname, value) = tok.scan_attr()?;
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
                    tok.close_tag();
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
                        let close = tok.scan_close()?;
                        // `<a></a>` is the serializer's `<a/>`:
                        // long-form empty elements are not canonical.
                        if close != el.name() || self.scratch.len() == mark {
                            return Err(NotCanonical);
                        }
                        el.set_children(self.scratch.split_off(mark));
                        return Ok(el);
                    }
                    let child_name = tok.open_tag()?;
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

/// Whether serializer output nests at most `MAX_DEPTH` deep — what the
/// reader accepts — by a byte scan: the serializer escapes `<` and `>`
/// outside markup, so each `<` opens or closes a tag and each `/>`
/// closes one. Peers check every envelope they build with it.
pub fn within_depth_cap(xml: &str) -> bool {
    let b = xml.as_bytes();
    let (mut depth, mut i) = (0, 0);
    loop {
        i += find_special(&b[i..], [b'<', b'>']);
        match (b.get(i), b.get(i + 1)) {
            (None, _) => return true,
            (Some(b'<'), Some(b'/')) => depth -= 1,
            (Some(b'<'), _) if depth >= MAX_DEPTH as isize => return false,
            (Some(b'<'), _) => depth += 1,
            _ if i > 0 && b[i - 1] == b'/' => depth -= 1,
            _ => {}
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;
    use crate::{parse, parse_canonical, parse_items, serialize};

    fn roundtrip(src: &str) -> Element {
        let e = parse(src).expect("canonical input must parse");
        assert_eq!(serialize(&e), src, "byte-identity guarantee");
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

    /// Each input with the byte offset [`parse()`] reports: where the
    /// input leaves the grammar, or where the root ended when content
    /// follows it.
    #[test]
    fn non_canonical_forms_rejected() {
        for (src, at) in [
            ("", 0),
            (" <a/>", 1),                       // leading whitespace
            ("<a/> ", 4),                       // trailing whitespace
            ("<a></a>", 7),                     // long-form empty element
            ("<a x='1'/>", 4),                  // single-quoted attribute
            ("<a  x=\"1\"/>", 3),               // double space
            ("<a x=\"1\" />", 9),               // space before />
            ("<a x = \"1\"/>", 4),              // spaces around =
            ("<a>&#65;</a>", 3),                // numeric character reference
            ("<a>&quot;</a>", 3),               // attr-only entity in text
            ("<a>1 > 0</a>", 5),                // raw > in text
            ("<a k=\"x>y\"/>", 6),              // raw > in attribute value
            ("<a k=\"x'y\"/>", 6),              // raw ' in attribute value
            ("<?xml version=\"1.0\"?><a/>", 1), // prolog
            ("<!-- c --><a/>", 1),              // comment
            ("<a><![CDATA[x]]></a>", 4),        // CDATA
            ("<a><b></a></b>", 10),             // mismatched tags
            ("<a x=\"1\" x=\"2\"/>", 14),       // duplicate attribute
            ("<a/><b/>", 4),                    // two roots
            ("<a", 2),                          // EOF in tag
            ("<a>text", 7),                     // EOF in content
        ] {
            let err = parse(src).expect_err(src);
            assert_eq!(
                (err.offset, err.kind),
                (at, ErrorKind::NotCanonical),
                "{src:?}"
            );
            assert!(parse_canonical(src).is_none());
        }
    }

    /// `MAX_DEPTH` open elements parse; one more is refused at the `<`
    /// of the tag that would exceed it, by every walker that shares the
    /// tokenizer's counter — and the counter unwinds between items.
    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| format!("{}x{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let too_deep = nest(MAX_DEPTH + 1);
        let at = 3 * MAX_DEPTH;
        assert_eq!(parse(&too_deep).unwrap_err().offset, at);
        assert_eq!(parse_items(&too_deep).unwrap_err().offset, at);
        let mut tok = Tokenizer::new(&too_deep);
        let Ok(Some(Token::Open(root))) = tok.next_token() else {
            panic!("root");
        };
        assert_eq!(skip_subtree(&mut tok, root), Err(NotCanonical));
        assert_eq!(tok.pos(), at);
        let two = nest(MAX_DEPTH).repeat(2);
        assert_eq!(parse_items(&two).map(|b| b.len()), Ok(2));
    }

    /// The writers' byte scan draws the cap exactly where the reader
    /// does, whatever the leaf: self-closing tags, and `/` in text and
    /// attribute values next to markup.
    #[test]
    fn depth_scan_agrees_with_the_reader() {
        for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
            let wrap = |leaf: &str| {
                let open = format!("<a k=\"/\">/{}", "<a>".repeat(depth - 2));
                format!("{open}{leaf}{}/</a>", "</a>".repeat(depth - 2))
            };
            for leaf in ["<b/>", "<b k=\"x/\"/>", "<b>x/</b>", "<b/><b/>"] {
                let doc = wrap(leaf);
                assert_eq!(within_depth_cap(&doc), parse(&doc).is_ok(), "{doc}");
                assert_eq!(within_depth_cap(&doc), depth <= MAX_DEPTH, "{doc}");
            }
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
