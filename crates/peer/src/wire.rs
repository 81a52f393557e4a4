//! The peer-to-peer wire frame: what actually travels between
//! [`PeerNode`](crate::node::PeerNode)s, on any transport.
//!
//! A frame is one header line (kind + per-query meter) followed by the
//! payload bytes — the serialized MQP envelope for `mqp`, the
//! concatenated result items for `res`, the catalog entry for `reg`
//! (a first registration and a recovered peer's re-announcement alike),
//! the rule set as `.mqpp` DSL text for `policy`
//! ([`render_policy`] out, [`parse_policy`] in).
//! An `ack` travels only between nodes under a retry policy; which
//! frames earn one is the receiving node's decision. Every frame is plain UTF-8 so any peer can parse it without
//! pre-shared binary schemas, matching the MQP envelope itself. A
//! frame's size is the length of its encoding, on every driver.

use mqp_catalog::{CatalogEntry, ServerId};
use mqp_core::{QueryId, RuleSet};
use mqp_lang::{parse_policy, render_policy};
use mqp_namespace::urn::decode_area;
use mqp_net::NodeId;

/// Per-query counters that ride every `mqp`/`res` frame, so any peer —
/// not just the client — can account for the query it is holding: the
/// paper's claim that peers need no distributed state extends to
/// bookkeeping, which travels with the plan.
///
/// One deliberate semantic consequence: when a query travels as more
/// than one copy (a duplication fault, or a retry whose original was
/// delivered after all) each copy carries its *own* meter, so a
/// completed query reports the bytes/hops/retries of the copy that
/// finished it, not the sum over every copy's wanderings.
/// Network-level totals (`NetStats`) count every copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Meter {
    /// Submission time at the client (µs on the driving clock).
    pub submitted_at: u64,
    /// MQP hops so far (server-to-server forwards, including the final
    /// result delivery).
    pub hops: u64,
    /// Total MQP bytes shipped so far.
    pub mqp_bytes: u64,
    /// Timeout-driven retries so far.
    pub retries: u64,
}

/// A travelling MQP envelope plus its meter.
#[derive(Debug, Clone, PartialEq)]
pub struct MqpFrame {
    /// Query id; `None` for envelopes injected outside a front-end.
    pub qid: Option<QueryId>,
    /// Per-query counters.
    pub meter: Meter,
    /// The serialized MQP envelope (`Mqp::to_wire`).
    pub envelope: String,
}

/// A completed result returning to the query's client.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFrame {
    /// Query id.
    pub qid: QueryId,
    /// Per-query counters (the result hop already counted).
    pub meter: Meter,
    /// §5.1 audit verdict computed at the completing server.
    pub audit_clean: Option<bool>,
    /// The index/meta server that bound the query's URN (§3.4 cache
    /// learning), if any.
    pub bound_by: Option<ServerId>,
    /// Serialized result items, concatenated.
    pub items: String,
}

/// One wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A travelling MQP envelope.
    Mqp(MqpFrame),
    /// A completed result returning to the client.
    Result(ResultFrame),
    /// Catalog registration (a base/index server announcing itself,
    /// §3.2/§3.3, or a restarted peer re-announcing the bindings its
    /// journal kept).
    Register(CatalogEntry),
    /// Delivery acknowledgement for the watched forward of `qid`.
    Ack {
        /// The acknowledged query.
        qid: QueryId,
    },
    /// Front-end control: submit the enclosed plan envelope at the
    /// receiving peer under `qid`. Never used by the simulator (whose
    /// driver calls `PeerNode::submit` directly).
    Submit {
        /// Query id allocated by the front-end.
        qid: QueryId,
        /// `Mqp::to_wire` of a bare (untargeted) plan.
        plan: String,
    },
    /// Hot policy reload: install the enclosed rule set on the
    /// receiving peer's processor, replacing whatever was loaded
    /// before (an empty set restores pure base-policy behavior).
    /// The payload is the set rendered as `.mqpp` DSL text, so every
    /// rule set whose rules each hold a condition and an action
    /// arrives intact. Travels on every transport: policy distribution
    /// is catalog-style control traffic.
    Policy(RuleSet),
    /// Connection handshake (stream transports only): the first frame
    /// on every new connection, announcing the caller's node and
    /// nothing else (`hello <node>\n`). Datagram-ish
    /// transports (the simulator, the threaded mesh) carry the sender
    /// address per message and never send one; a TCP connection has no
    /// such envelope, so `mqp_peer::tcp` attributes everything a
    /// connection delivers to the node its hello declared.
    Hello {
        /// The caller's transport address.
        node: NodeId,
    },
}

fn opt_qid(t: &str) -> Result<Option<QueryId>, String> {
    if t == "-" {
        Ok(None)
    } else {
        t.parse::<u64>()
            .map(|q| Some(QueryId::new(q)))
            .map_err(|e| format!("bad qid {t:?}: {e}"))
    }
}

fn num(t: &str) -> Result<u64, String> {
    t.parse::<u64>()
        .map_err(|e| format!("bad number {t:?}: {e}"))
}

fn fmt_qid(q: Option<QueryId>) -> String {
    q.map(|q| q.to_string()).unwrap_or_else(|| "-".to_owned())
}

impl Meter {
    fn encode(&self) -> String {
        format!(
            "{} {} {} {}",
            self.submitted_at, self.hops, self.mqp_bytes, self.retries
        )
    }

    fn decode(tokens: &[&str]) -> Result<Meter, String> {
        if tokens.len() < 4 {
            return Err("truncated meter".to_owned());
        }
        Ok(Meter {
            submitted_at: num(tokens[0])?,
            hops: num(tokens[1])?,
            mqp_bytes: num(tokens[2])?,
            retries: num(tokens[3])?,
        })
    }
}

impl Frame {
    /// Serializes the frame: one header line, then the payload.
    pub fn encode(&self) -> Vec<u8> {
        let out = match self {
            Frame::Mqp(f) => {
                format!(
                    "mqp {} {}\n{}",
                    fmt_qid(f.qid),
                    f.meter.encode(),
                    f.envelope
                )
            }
            Frame::Result(f) => {
                let audit = match f.audit_clean {
                    Some(true) => "1",
                    Some(false) => "0",
                    None => "-",
                };
                let bound = f.bound_by.as_ref().map(|s| s.as_str()).unwrap_or("-");
                debug_assert!(
                    !bound.contains('\n') && f.bound_by.as_ref().map(|s| s.as_str()) != Some("-"),
                    "bound_by must be single-line and not the '-' sentinel"
                );
                format!(
                    "res {} {} {audit} {bound}\n{}",
                    f.qid,
                    f.meter.encode(),
                    f.items
                )
            }
            Frame::Register(e) => e.to_wire(),
            Frame::Ack { qid } => format!("ack {qid}\n"),
            Frame::Submit { qid, plan } => format!("sub {qid}\n{plan}"),
            Frame::Policy(rules) => format!("policy\n{}", render_policy(rules)),
            Frame::Hello { node } => format!("hello {node}\n"),
        };
        out.into_bytes()
    }

    /// Parses a frame. An error means the bytes are not a frame; the
    /// receiving node drops them.
    pub fn decode(bytes: &[u8]) -> Result<Frame, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("frame is not UTF-8: {e}"))?;
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| "frame missing header line".to_owned())?;
        let tokens: Vec<&str> = header.split(' ').collect();
        match tokens[0] {
            "mqp" => {
                if tokens.len() < 6 {
                    return Err(format!("truncated mqp header {header:?}"));
                }
                Ok(Frame::Mqp(MqpFrame {
                    qid: opt_qid(tokens[1])?,
                    meter: Meter::decode(&tokens[2..6])?,
                    envelope: payload.to_owned(),
                }))
            }
            "res" => {
                if tokens.len() < 8 {
                    return Err(format!("truncated res header {header:?}"));
                }
                let qid = opt_qid(tokens[1])?.ok_or("result frame requires a qid")?;
                let audit_clean = match tokens[6] {
                    "1" => Some(true),
                    "0" => Some(false),
                    "-" => None,
                    other => return Err(format!("bad audit flag {other:?}")),
                };
                // `bound_by` is the rest of the header line: server ids
                // are free-form, so they go last and may contain spaces.
                let bound = header.splitn(8, ' ').nth(7).unwrap_or("-");
                let bound_by = if bound == "-" {
                    None
                } else {
                    Some(ServerId::new(bound))
                };
                Ok(Frame::Result(ResultFrame {
                    qid,
                    meter: Meter::decode(&tokens[2..6])?,
                    audit_clean,
                    bound_by,
                    items: payload.to_owned(),
                }))
            }
            "reg" => CatalogEntry::from_wire(text, decode_area).map(Frame::Register),
            "ack" => {
                if tokens.len() < 2 {
                    return Err(format!("truncated ack header {header:?}"));
                }
                let qid = opt_qid(tokens[1])?.ok_or("ack frame requires a qid")?;
                Ok(Frame::Ack { qid })
            }
            "sub" => {
                if tokens.len() < 2 {
                    return Err(format!("truncated sub header {header:?}"));
                }
                let qid = opt_qid(tokens[1])?.ok_or("submit frame requires a qid")?;
                Ok(Frame::Submit {
                    qid,
                    plan: payload.to_owned(),
                })
            }
            "policy" => parse_policy(payload)
                .map(Frame::Policy)
                .map_err(|e| format!("bad policy frame: {e}")),
            "hello" => {
                if tokens.len() < 2 {
                    return Err(format!("truncated hello header {header:?}"));
                }
                let node: NodeId = tokens[1]
                    .parse()
                    .map_err(|e| format!("bad hello node {:?}: {e}", tokens[1]))?;
                Ok(Frame::Hello { node })
            }
            other => Err(format!("unknown frame kind {other:?}")),
        }
    }

    /// The frame kind tag, without a full decode.
    pub fn kind(bytes: &[u8]) -> &str {
        let end = bytes
            .iter()
            .position(|&b| b == b' ' || b == b'\n')
            .unwrap_or(bytes.len());
        std::str::from_utf8(&bytes[..end]).unwrap_or("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_namespace::InterestArea;

    fn area() -> InterestArea {
        InterestArea::parse(&[&["USA/OR/Portland", "Music/CDs"]])
    }

    #[test]
    fn mqp_frame_roundtrips_and_reports_its_kind() {
        let f = Frame::Mqp(MqpFrame {
            qid: Some(QueryId::new(7)),
            meter: Meter {
                submitted_at: 10,
                hops: 3,
                mqp_bytes: 999,
                retries: 1,
            },
            envelope: "<mqp><plan/></mqp>".to_owned(),
        });
        let bytes = f.encode();
        assert_eq!(Frame::kind(&bytes), "mqp");
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn anonymous_mqp_frame_roundtrips() {
        let f = Frame::Mqp(MqpFrame {
            qid: None,
            meter: Meter::default(),
            envelope: "<mqp/>".to_owned(),
        });
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn result_frame_roundtrips_every_audit_flag_and_binder() {
        for (audit, bound) in [
            (Some(true), Some(ServerId::new("idx-1"))),
            (Some(false), None),
            (None, Some(ServerId::new("meta 0"))), // spaces survive
        ] {
            let f = Frame::Result(ResultFrame {
                qid: QueryId::new(3),
                meter: Meter {
                    submitted_at: 5,
                    hops: 4,
                    mqp_bytes: 100,
                    retries: 0,
                },
                audit_clean: audit,
                bound_by: bound,
                items: "<item/><item/>".to_owned(),
            });
            assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
        }
    }

    #[test]
    fn register_frame_roundtrips_every_entry_kind() {
        for entry in [
            CatalogEntry::base("seller-1", area()),
            CatalogEntry::index("idx", area()).authoritative(),
            CatalogEntry::base("s", area()).with_collection("/data[@id='245']"),
            CatalogEntry::meta_index("m", InterestArea::parse(&[&["*", "*"]])),
        ] {
            let f = Frame::Register(entry);
            assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
        }
    }

    #[test]
    fn policy_frame_roundtrips_any_rule_set() {
        use mqp_catalog::Preference;
        use mqp_core::rules::{Cond, Rule, RuleAction};
        let rules = RuleSet::new(vec![
            Rule::new(
                vec![Cond::RoleIs("seller-*".to_owned())],
                vec![RuleAction::Prefer(Preference::Fast), RuleAction::Within(30)],
            ),
            Rule::new(
                vec![Cond::AreaWithin(area()), Cond::BytesOver(4096)],
                vec![RuleAction::ForceDefer],
            ),
            // DSL punctuation inside a glob or a route target.
            Rule::new(
                vec![Cond::RoleIs("a=>b".to_owned())],
                vec![
                    RuleAction::ForceDefer,
                    RuleAction::RouteVia(ServerId::new("s=>t")),
                ],
            ),
            // Whitespace, quotes, backslashes and non-ASCII in a glob
            // or a route target, and a threshold at the top of `u64`.
            Rule::new(
                vec![
                    Cond::RoleIs("seller *".to_owned()),
                    Cond::RoleIs("a\"b\\c\nd".to_owned()),
                    Cond::BytesOver(u64::MAX),
                ],
                vec![
                    RuleAction::RouteVia(ServerId::new("meta 0")),
                    RuleAction::RouteVia(ServerId::new("índice-東京")),
                ],
            ),
        ]);
        let f = Frame::Policy(rules);
        let bytes = f.encode();
        assert_eq!(Frame::kind(&bytes), "policy");
        assert_eq!(Frame::decode(&bytes).unwrap(), f);

        // The empty set (clears overrides) travels too.
        let clear = Frame::Policy(RuleSet::default());
        assert_eq!(Frame::decode(&clear.encode()).unwrap(), clear);
    }

    #[test]
    fn control_frames_roundtrip() {
        for f in [
            Frame::Ack {
                qid: QueryId::new(9),
            },
            Frame::Submit {
                qid: QueryId::new(1),
                plan: "<mqp><plan/></mqp>".to_owned(),
            },
            Frame::Hello { node: 42 },
        ] {
            assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
        }
        // Stopping a worker is host control, never a frame.
        assert!(Frame::decode(b"stop\n").is_err());
    }

    proptest::proptest! {
        /// Arbitrary bytes, bare and behind every frame tag, decode to
        /// `Ok` or `Err` — never a panic.
        #[test]
        fn garbage_is_an_error_not_a_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..4096),
        ) {
            let _ = Frame::kind(&bytes);
            let _ = Frame::decode(&bytes);
            for tag in ["mqp", "res", "reg", "ack", "sub", "policy", "hello"] {
                let _ = Frame::decode(&[tag.as_bytes(), b" ", &bytes].concat());
            }
            assert!(Frame::decode(b"").is_err());
            assert!(Frame::decode(b"nope 1\n").is_err());
            assert!(Frame::decode(b"mqp x\n").is_err());
            assert!(Frame::decode(&[0xFF, 0xFE]).is_err());
            // A registration is read strictly: flags are 0 or 1, the
            // server line is not empty.
            assert!(Frame::decode(b"reg base 0 0\nS\n(a)\n").is_ok());
            assert!(Frame::decode(b"reg base yes 0\nS\n(a)\n").is_err());
            assert!(Frame::decode(b"rereg base 0 0\nS\n(a)\n").is_err());
            assert!(Frame::decode(b"reg base 0 0\n\n(a)\n").is_err());
            assert!(Frame::decode(b"reg\nS\n(a)\n").is_err());
        }
    }
}
