//! Ordering and transfer policies (paper §5.2): "MQPs will need to
//! incorporate ordering and transfer policies, such as 'do not bind
//! preferences until playlist is bound' or 'only let this MQP
//! pass through servers on this list.'"
//!
//! Constraints ride in the MQP envelope as XML:
//!
//! ```text
//! <constraints>
//!   <allow server="irs"/> <allow server="state"/>
//!   <bind-after first="urn:State:FrontOrgs" then="urn:IRS:Preferences"/>
//! </constraints>
//! ```

use mqp_catalog::ServerId;
use mqp_xml::{Element, Node};

/// Query-issuer constraints on how an MQP may be processed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Constraints {
    /// When non-empty, the MQP may only be routed to (and processed by)
    /// these servers — §5.2's transfer policy.
    pub allowed_servers: Vec<ServerId>,
    /// Ordering rules: `(first, then)` — the resource named `then` must
    /// not be bound while `first` is still unbound. §5.2's "do not bind
    /// preferences until playlist is bound".
    pub bind_after: Vec<(String, String)>,
}

impl Constraints {
    /// No constraints.
    pub fn none() -> Self {
        Constraints::default()
    }

    /// True when nothing is constrained.
    pub fn is_empty(&self) -> bool {
        self.allowed_servers.is_empty() && self.bind_after.is_empty()
    }

    /// Restricts routing to the given servers; returns `self`.
    pub fn allow_only<S: Into<ServerId>>(mut self, servers: impl IntoIterator<Item = S>) -> Self {
        self.allowed_servers = servers.into_iter().map(Into::into).collect();
        self
    }

    /// Adds an ordering rule; returns `self`.
    pub fn bind_after(mut self, first: impl Into<String>, then: impl Into<String>) -> Self {
        self.bind_after.push((first.into(), then.into()));
        self
    }

    /// May the MQP be sent to (or processed by) `server`?
    pub(crate) fn server_allowed(&self, server: &ServerId) -> bool {
        self.allowed_servers.is_empty() || self.allowed_servers.contains(server)
    }

    /// May the resource named `urn` be bound now, given the set of URNs
    /// still unbound in the plan? Binding `then` is blocked while any
    /// rule's `first` remains unbound (and is a different resource).
    pub(crate) fn may_bind(&self, urn: &str, still_unbound: &[String]) -> bool {
        for (first, then) in &self.bind_after {
            if then == urn && first != urn && still_unbound.iter().any(|u| u == first) {
                return false;
            }
        }
        true
    }

    /// Serializes to the `<constraints>` element (omitted from
    /// envelopes when empty).
    pub(crate) fn to_xml(&self) -> Element {
        let mut e = Element::new("constraints");
        for s in &self.allowed_servers {
            e.push_child(Node::Element(
                Element::new("allow").attr("server", s.as_str()),
            ));
        }
        for (first, then) in &self.bind_after {
            e.push_child(Node::Element(
                Element::new("bind-after")
                    .attr("first", first)
                    .attr("then", then),
            ));
        }
        e
    }

    /// Parses the `<constraints>` element.
    pub(crate) fn from_xml(e: &Element) -> Option<Constraints> {
        if e.name() != "constraints" {
            return None;
        }
        let mut c = Constraints::default();
        for child in e.child_elements() {
            match child.name() {
                "allow" => c
                    .allowed_servers
                    .push(ServerId::new(child.get_attr("server")?)),
                "bind-after" => c.bind_after.push((
                    child.get_attr("first")?.to_owned(),
                    child.get_attr("then")?.to_owned(),
                )),
                _ => return None,
            }
        }
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_constraints_allow_everything() {
        let c = Constraints::none();
        assert!(c.is_empty());
        assert!(c.server_allowed(&ServerId::new("anyone")));
        assert!(c.may_bind("urn:A:x", &["urn:B:y".into()]));
    }

    #[test]
    fn transfer_policy_restricts_servers() {
        let c = Constraints::none().allow_only(["irs", "state"]);
        assert!(c.server_allowed(&ServerId::new("irs")));
        assert!(!c.server_allowed(&ServerId::new("tracker")));
    }

    #[test]
    fn ordering_policy_blocks_until_first_bound() {
        // "Do not bind preferences until playlist is bound."
        let c = Constraints::none().bind_after("urn:CD:Playlist", "urn:My:Preferences");
        let both_unbound = vec![
            "urn:CD:Playlist".to_owned(),
            "urn:My:Preferences".to_owned(),
        ];
        assert!(!c.may_bind("urn:My:Preferences", &both_unbound));
        assert!(c.may_bind("urn:CD:Playlist", &both_unbound));
        // Once the playlist is bound, preferences may bind.
        let later = vec!["urn:My:Preferences".to_owned()];
        assert!(c.may_bind("urn:My:Preferences", &later));
    }

    #[test]
    fn xml_roundtrip() {
        let c = Constraints::none()
            .allow_only(["irs", "state"])
            .bind_after("urn:A:x", "urn:B:y");
        let back = Constraints::from_xml(&c.to_xml()).unwrap();
        assert_eq!(back, c);
        assert!(Constraints::from_xml(&Element::new("nope")).is_none());
    }

    #[test]
    fn self_rule_does_not_deadlock() {
        // A rule naming the same resource twice must not block it.
        let c = Constraints::none().bind_after("urn:A:x", "urn:A:x");
        assert!(c.may_bind("urn:A:x", &["urn:A:x".to_owned()]));
    }
}
