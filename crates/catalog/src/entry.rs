//! Catalog entries: who serves what, at which level.

use std::fmt;

use mqp_namespace::urn::{encode_area, UrnError};
use mqp_namespace::InterestArea;
use mqp_xml::Name;

/// Identifies a peer. In the simulator this is a logical name
/// (`"peer-17"`); the wire form of a server address is the URL
/// `mqp://<id>/` so plan leaves can reference peers uniformly.
///
/// Backed by an interned [`Name`]: a 100k-peer world mentions every
/// seller id in its own catalog, its city's index server, the global
/// directory, and each travelling plan's provenance — one shared
/// allocation instead of a `String` per mention, and `clone` is a
/// reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(Name);

impl ServerId {
    /// Creates a server id.
    pub fn new(s: impl AsRef<str>) -> Self {
        ServerId(Name::new(s.as_ref()))
    }

    /// The id as a string.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }

    /// URL form used in plan `url` leaves, e.g. `mqp://peer-17/`.
    pub fn to_url(&self) -> String {
        format!("mqp://{}/", self.0)
    }

    /// Parses the URL form back to a server id.
    pub fn from_url(url: &str) -> Option<ServerId> {
        let rest = url.strip_prefix("mqp://")?;
        let id = rest.strip_suffix('/').unwrap_or(rest);
        if id.is_empty() {
            None
        } else {
            Some(ServerId(Name::new(id)))
        }
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.as_str())
    }
}

impl From<&str> for ServerId {
    fn from(s: &str) -> Self {
        ServerId(Name::new(s))
    }
}

impl From<Name> for ServerId {
    fn from(n: Name) -> Self {
        ServerId(n)
    }
}

/// What kind of holding an entry (or intensional-statement reference)
/// describes — the paper's `base[...]` / `index[...]` levels, with
/// meta-index as the index-of-indexes level (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// Actual data collections.
    Base,
    /// Index over base servers (may also carry attribute indexes).
    Index,
    /// Index over servers only (namespace indices, no data attributes).
    MetaIndex,
}

impl Level {
    /// Wire/display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Level::Base => "base",
            Level::Index => "index",
            Level::MetaIndex => "meta",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<Level> {
        Some(match s {
            "base" => Level::Base,
            "index" => Level::Index,
            "meta" | "meta-index" | "metaindex" => Level::MetaIndex,
            _ => return None,
        })
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One catalog entry: a server known to hold data (or indexes) for an
/// interest area. Index-server entries for base data also carry the
/// collection identifier — the paper's
/// `(http://10.3.4.5, /data[id=245])` pairs (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// The server.
    pub server: ServerId,
    /// What the entry describes: base data, an index, or a meta-index.
    pub level: Level,
    /// The interest area the server declares for this holding.
    pub area: InterestArea,
    /// XPath collection identifier at the server (base entries only).
    pub(crate) collection: Option<String>,
    /// Whether the server claims to be authoritative for this area
    /// (§3.3: "strives to know about all base servers within its area").
    pub authoritative: bool,
}

impl CatalogEntry {
    /// A base-data entry.
    pub fn base(server: impl Into<ServerId>, area: InterestArea) -> Self {
        CatalogEntry {
            server: server.into(),
            level: Level::Base,
            area,
            collection: None,
            authoritative: false,
        }
    }

    /// An index-server entry.
    pub fn index(server: impl Into<ServerId>, area: InterestArea) -> Self {
        CatalogEntry {
            server: server.into(),
            level: Level::Index,
            area,
            collection: None,
            authoritative: false,
        }
    }

    /// A meta-index-server entry.
    pub fn meta_index(server: impl Into<ServerId>, area: InterestArea) -> Self {
        CatalogEntry {
            server: server.into(),
            level: Level::MetaIndex,
            area,
            collection: None,
            authoritative: false,
        }
    }

    /// Sets the collection identifier; returns `self` for chaining.
    pub fn with_collection(mut self, path: impl Into<String>) -> Self {
        self.collection = Some(path.into());
        self
    }

    /// Marks the entry authoritative; returns `self` for chaining.
    pub fn authoritative(mut self) -> Self {
        self.authoritative = true;
        self
    }

    /// The entry's text form, shared by the `reg` wire frame and the
    /// WAL's `reg` record: `reg <level> <authoritative>
    /// <has-collection>`, then the server, the encoded area and the
    /// collection, one per line. The collection line is always written,
    /// empty without a collection, and goes last because an XPath may
    /// hold anything, newlines included.
    pub fn to_wire(&self) -> String {
        let collection = self.collection.as_deref().unwrap_or("");
        debug_assert!(
            !self.server.as_str().contains('\n'),
            "server id must be single-line"
        );
        format!(
            "reg {} {} {}\n{}\n{}\n{collection}",
            self.level.name(),
            u8::from(self.authoritative),
            u8::from(self.collection.is_some()),
            self.server.as_str(),
            encode_area(&self.area),
        )
    }

    /// Parses [`CatalogEntry::to_wire`]'s output; without a collection
    /// the empty last line may be absent, as the WAL writes it. The
    /// area line goes to `area`: a `reg` frame passes
    /// [`mqp_namespace::urn::decode_area`], and WAL replay a decoder
    /// that decodes each distinct area text once. Errors name the field
    /// that failed: a WAL decode error truncates recovery at that
    /// record, so the message reaches operator-facing reports.
    pub fn from_wire<'a>(
        text: &'a str,
        area: impl FnOnce(&'a str) -> Result<InterestArea, UrnError>,
    ) -> Result<CatalogEntry, String> {
        let (head, body) = text.split_once('\n').ok_or("reg: missing server")?;
        let mut words = head.split(' ');
        if words.next() != Some("reg") {
            return Err("reg: not a reg record".into());
        }
        let level = words
            .next()
            .and_then(Level::parse)
            .ok_or("reg: bad level")?;
        let authoritative = parse_flag(words.next().ok_or("reg: missing auth flag")?)?;
        let has_collection = parse_flag(words.next().ok_or("reg: missing coll flag")?)?;
        if words.next().is_some() {
            return Err("reg: trailing header field".into());
        }
        let mut lines = body.splitn(3, '\n');
        let server = match lines.next() {
            Some(s) if !s.is_empty() => ServerId::new(s),
            _ => return Err("reg: missing server".into()),
        };
        let area =
            area(lines.next().ok_or("reg: missing area")?).map_err(|e| format!("reg: {e}"))?;
        let collection = match (has_collection, lines.next()) {
            (true, Some(c)) => Some(c.to_owned()),
            (true, None) => return Err("reg: missing collection".into()),
            (false, None | Some("")) => None,
            (false, Some(_)) => return Err("reg: unflagged collection".into()),
        };
        Ok(CatalogEntry {
            server,
            level,
            area,
            collection,
            authoritative,
        })
    }
}

/// Parses a `0`/`1` header flag; anything else is an error, never
/// silently `false`.
pub(crate) fn parse_flag(s: &str) -> Result<bool, String> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad flag {other:?}")),
    }
}

impl From<String> for ServerId {
    fn from(s: String) -> Self {
        ServerId(Name::new(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_namespace::urn::decode_area;

    #[test]
    fn server_id_url_roundtrip() {
        let id = ServerId::new("peer-17");
        assert_eq!(id.to_url(), "mqp://peer-17/");
        assert_eq!(ServerId::from_url(&id.to_url()), Some(id.clone()));
        assert_eq!(ServerId::from_url("mqp://x"), Some(ServerId::new("x")));
        assert_eq!(ServerId::from_url("http://x/"), None);
        assert_eq!(ServerId::from_url("mqp:///"), None);
    }

    #[test]
    fn level_names_roundtrip() {
        for l in [Level::Base, Level::Index, Level::MetaIndex] {
            assert_eq!(Level::parse(l.name()), Some(l));
        }
        assert_eq!(Level::parse("super"), None);
    }

    #[test]
    fn entry_builders() {
        let area = InterestArea::parse(&[&["USA/OR", "*"]]);
        let e = CatalogEntry::index("idx-1", area.clone()).authoritative();
        assert_eq!(e.level, Level::Index);
        assert!(e.authoritative);
        let b = CatalogEntry::base("seller", area).with_collection("/data[@id='245']");
        assert_eq!(b.collection.as_deref(), Some("/data[@id='245']"));
    }

    #[test]
    fn wire_form_roundtrips_and_rejects_lenient_readings() {
        let area = InterestArea::parse(&[&["USA/OR/Portland", "Music/CDs"]]);
        for e in [
            CatalogEntry::base("seller-1", area.clone()),
            CatalogEntry::index("idx", area.clone()).authoritative(),
            CatalogEntry::base("s", area.clone()).with_collection("/data[@id='245']\n[2]"),
            CatalogEntry::base("s", area.clone()).with_collection(""),
        ] {
            assert_eq!(CatalogEntry::from_wire(&e.to_wire(), decode_area), Ok(e));
        }
        let spec = encode_area(&area);
        for bad in [
            format!("reg base 2 0\ns\n{spec}\n"),   // flag neither 0 nor 1 …
            format!("reg base 0 yes\ns\n{spec}\n"), // … in either position
            format!("reg base 0 0\n\n{spec}\n"),    // empty server line
            "reg base 0 0".to_owned(),              // no server line at all
            format!("reg base 0 1\ns\n{spec}"),     // flagged, no collection line
            format!("reg base 0 0\ns\n{spec}\n/x"), // collection without its flag
            format!("reg base 0 0 9\ns\n{spec}\n"), // extra header field
            format!("reg super 0 0\ns\n{spec}\n"),
            format!("rereg base 0 0\ns\n{spec}\n"), // another record's tag
        ] {
            assert!(
                CatalogEntry::from_wire(&bad, decode_area).is_err(),
                "accepted {bad:?}"
            );
        }
    }
}
