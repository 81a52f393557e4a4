//! Snapshot tests for the most common compile errors: the exact
//! rendered text — message, position line, gutter, source excerpt, and
//! caret underline — is pinned byte for byte. These strings are the
//! crate's user interface; a formatting regression here is as real as
//! a parser bug.

use mqp_lang::{check_query, parse_policy, parse_query};

fn query_diag(src: &str) -> String {
    parse_query(src).unwrap_err().to_string()
}

fn policy_diag(src: &str) -> String {
    parse_policy(src).unwrap_err().to_string()
}

#[test]
fn unterminated_string() {
    assert_eq!(
        query_diag("urn \"urn:ForSale:pdx"),
        "error: unterminated string literal\n  --> line 1, column 5\n   |\n 1 | urn \"urn:ForSale:pdx\n   |     ^^^^^^^^^^^^^^^^"
    );
}

#[test]
fn unknown_escape() {
    assert_eq!(
        query_diag("url \"mqp:\\qa/\""),
        "error: unknown escape `\\q` (expected \\\\ \\\" \\n \\r \\t)\n  --> line 1, column 10\n   |\n 1 | url \"mqp:\\qa/\"\n   |          ^^"
    );
}

#[test]
fn unexpected_character() {
    assert_eq!(
        query_diag("urn {\"x\"}"),
        "error: unexpected character `{`\n  --> line 1, column 5\n   |\n 1 | urn {\"x\"}\n   |     ^"
    );
}

#[test]
fn bad_urn() {
    assert_eq!(
        query_diag("urn \"Portland-CDs\""),
        "error: bad URN: not a URN: \"Portland-CDs\"\n  --> line 1, column 5\n   |\n 1 | urn \"Portland-CDs\"\n   |     ^^^^^^^^^^^^^^"
    );
}

#[test]
fn bad_predicate() {
    assert_eq!(
        query_diag("url \"mqp://s/\"\n| select \"price <\""),
        "error: bad predicate: expected literal at byte 7\n  --> line 2, column 10\n   |\n 2 | | select \"price <\"\n   |          ^^^^^^^^^"
    );
}

#[test]
fn data_items_not_canonical() {
    assert_eq!(
        query_diag("data \"<i a='1'/>\""),
        "error: data items are not canonical XML at byte 4\n  --> line 1, column 6\n   |\n 1 | data \"<i a='1'/>\"\n   |      ^^^^^^^^^^^^"
    );
}

#[test]
fn unknown_stage() {
    assert_eq!(
        query_diag("url \"mqp://s/\" | grep \"x\""),
        "error: unknown stage `grep` (expected select, project, topn, agg, or display)\n  --> line 1, column 18\n   |\n 1 | url \"mqp://s/\" | grep \"x\"\n   |                  ^^^^"
    );
}

/// Nesting is capped at the XML reader's 64 levels: 64 nested heads
/// compile, and the 65th is refused at its keyword. 100 000 of them
/// return the same diagnostic instead of overflowing the stack.
#[test]
fn nesting_past_the_reader_cap() {
    let nested = |depth: usize| {
        let url = "url \"mqp://s/\"";
        format!("{}{url}{}", "union(".repeat(depth), ")".repeat(depth))
    };
    assert!(parse_query(&nested(64)).is_ok());
    let diag = "error: `union` nests deeper than 64 levels\n  --> line 1, column 385\n";
    for depth in [100_000, 65] {
        assert!(
            query_diag(&nested(depth)).starts_with(diag),
            "depth {depth}"
        );
    }
}

#[test]
fn unexpected_trailing_input() {
    assert_eq!(
        query_diag("url \"mqp://s/\" nonsense"),
        "error: unexpected trailing input\n  --> line 1, column 16\n   |\n 1 | url \"mqp://s/\" nonsense\n   |                ^^^^^^^^"
    );
}

#[test]
fn unknown_urn_in_check_pass() {
    let q = parse_query("urn \"urn:ForSale:Nowhere\"").unwrap();
    let catalog = mqp_catalog::Catalog::new();
    let ns = mqp_namespace::Namespace::new([]);
    assert_eq!(
        check_query(&q, &catalog, &ns).unwrap_err().to_string(),
        "error: unknown URN `urn:ForSale:Nowhere` (no catalog entry resolves it)\n  --> line 1, column 5\n   |\n 1 | urn \"urn:ForSale:Nowhere\"\n   |     ^^^^^^^^^^^^^^^^^^^^^"
    );
}

#[test]
fn policy_non_area_urn() {
    assert_eq!(
        policy_diag("when area within \"urn:ForSale:pdx\" then defer"),
        "error: `urn:ForSale:pdx` is not an interest-area URN (expected urn:InterestArea:\u{2026})\n  --> line 1, column 18\n   |\n 1 | when area within \"urn:ForSale:pdx\" then defer\n   |                  ^^^^^^^^^^^^^^^^^"
    );
}

#[test]
fn policy_bad_duration() {
    assert_eq!(
        policy_diag("default fast\nwithin 3fortnights"),
        "error: bad duration `3fortnights` (expected e.g. `30min` or `2h`)\n  --> line 2, column 8\n   |\n 2 | within 3fortnights\n   |        ^^^^^^^^^^^"
    );
}

/// A query is a pipeline and nothing after it: preference belongs to
/// the policy DSL, so a trailing `prefer` is refused where it starts
/// instead of being compiled and ignored.
#[test]
fn trailing_preference_clause() {
    assert_eq!(
        query_diag("urn \"urn:X:y\" prefer fast"),
        "error: unexpected trailing input\n  --> line 1, column 15\n   |\n 1 | urn \"urn:X:y\" prefer fast\n   |               ^^^^^^"
    );
}
