//! `bench all` and `bench aa`: the whole suite, each workload in its
//! own child process (so set-up time and peak RSS are per workload),
//! and the A/A repeatability harness over two such suites.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::host;
use crate::report::{END_TO_END, PER_LAYER};
use crate::suite::{
    dominance_holds, out_dir, HOST_SHARE_MAX_BULK_JOIN, HOST_SHARE_MIN_ROUTE_SMALL,
};
use crate::worlds::SPECS;

/// One child run's last line, taken apart.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit)
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Parses the result line `RunOutput::to_json_line` prints. Not a JSON
/// parser: it reads exactly that shape.
pub fn parse_result_line(line: &str) -> Option<Parsed> {
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let mut parsed = Parsed {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics: BTreeMap::new(),
    };
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for entry in body.split("}, ") {
        let entry = entry.trim_end_matches('}');
        let (name, rest) = entry
            .trim_start_matches('"')
            .split_once("\": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        parsed.metrics.insert(
            name.to_owned(),
            (value.parse().ok()?, unit.trim_end_matches('"').to_owned()),
        );
    }
    Some(parsed)
}

/// Runs this very executable for one workload; echoes its report and
/// returns its result line, parsed.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Parsed> {
    let exe = std::env::current_exe().expect("own path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn child run");
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    if !output.status.success() {
        eprintln!("{workload}: child exited with {}", output.status);
        return None;
    }
    parse_result_line(text.lines().last()?)
}

/// workload → (end-to-end run, per-layer run)
type Suite = BTreeMap<&'static str, (Parsed, Parsed)>;

fn suite(seed: u64, seconds: f64) -> Option<Suite> {
    let mut out = Suite::new();
    for spec in SPECS.iter() {
        println!("\n=== {} — {}", spec.name, spec.why);
        let e2e = child(spec.name, seed, seconds, false)?;
        let layers = child(spec.name, seed, seconds, true)?;
        out.insert(spec.name, (e2e, layers));
    }
    Some(out)
}

/// Prints the dominance check of a suite; false if it fails.
fn dominance(suite: &Suite) -> bool {
    let mut ok = true;
    println!("\ndominance check (share of idle latency outside PeerNode):");
    for (name, (_, layers)) in suite {
        let Some((pct, _)) = layers.metrics.get("peer.tcp_host_share") else {
            continue;
        };
        let holds = dominance_holds(name, pct / 100.0);
        ok &= holds;
        let want = match *name {
            "route_small" => format!(">= {:.0} %", 100.0 * HOST_SHARE_MIN_ROUTE_SMALL),
            "bulk_join" => format!("<= {:.0} %", 100.0 * HOST_SHARE_MAX_BULK_JOIN),
            _ => "not gated".to_owned(),
        };
        println!(
            "  {name:<12} {pct:>6.1} %  ({want}){}",
            if holds { "" } else { "  FAILS" }
        );
    }
    ok
}

fn all_correct(suite: &Suite) -> bool {
    suite.iter().all(|(name, (a, b))| {
        let ok = a.correct && b.correct;
        if !ok {
            println!(
                "{name}: a run was not correct ({} + {} failed)",
                a.failed, b.failed
            );
        }
        ok
    })
}

/// The result set as one JSON document, machine block included.
fn results_json(seed: u64, seconds: f64, suite: &Suite) -> String {
    let mut out = String::from("{\n  \"machine\": {");
    let machine: Vec<String> = host::machine()
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    let _ = write!(
        out,
        "{}}},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"workloads\": {{\n",
        machine.join(", ")
    );
    for (i, (name, (e2e, layers))) in suite.iter().enumerate() {
        let _ = writeln!(out, "    \"{name}\": {{");
        let _ = writeln!(
            out,
            "      \"attempted\": {}, \"failed\": {}, \"correct\": {},",
            e2e.attempted + layers.attempted,
            e2e.failed + layers.failed,
            e2e.correct && layers.correct
        );
        for (key, run) in [("end_to_end", e2e), ("per_layer", layers)] {
            let metrics: Vec<String> = run
                .metrics
                .iter()
                .map(|(n, (v, u))| {
                    format!("        \"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
                })
                .collect();
            let _ = write!(
                out,
                "      \"{key}\": {{\n{}\n      }}",
                metrics.join(",\n")
            );
            out.push_str(if key == "end_to_end" { ",\n" } else { "\n" });
        }
        out.push_str(if i + 1 < suite.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}

fn write_results(seed: u64, seconds: f64, suite: &Suite) {
    let path = out_dir().join(format!("results.seed{seed}.json"));
    std::fs::write(&path, results_json(seed, seconds, suite)).expect("write results");
    println!("\nresult set written to {}", path.display());
}

/// `bench all`: every workload once, both kinds of run.
pub fn all(seed: u64, seconds: f64) -> ExitCode {
    let Some(suite) = suite(seed, seconds) else {
        return ExitCode::FAILURE;
    };
    let dominant = dominance(&suite);
    write_results(seed, seconds, &suite);
    if all_correct(&suite) && dominant {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `bench aa`: the suite twice on the same code and seed. Prints both
/// values of every metric × workload with their gap; with `gate`, any
/// end-to-end metric whose gap exceeds its bound fails the command, as
/// does a failed dominance check.
pub fn aa(seed: u64, seconds: f64, gate: bool) -> ExitCode {
    let (Some(a), Some(b)) = (suite(seed, seconds), suite(seed, seconds)) else {
        return ExitCode::FAILURE;
    };
    let mut ok = all_correct(&a) && all_correct(&b);
    println!("\nA/A: same code, same seed, two suites");
    println!(
        "{:<12} {:<40} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for (name, (a_e2e, a_layers)) in &a {
        let (b_e2e, b_layers) = &b[name];
        for m in &END_TO_END {
            let (x, _) = a_e2e.metrics[m.name];
            let (y, _) = b_e2e.metrics[m.name];
            let gap = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            let out = gap > m.bound;
            ok &= !out;
            println!(
                "{name:<12} {:<40} {x:>14.4} {y:>14.4} {:>7.2}% {:>6.0}%{}",
                m.name,
                100.0 * gap,
                100.0 * m.bound,
                if out { "  OUT OF BOUND" } else { "" }
            );
        }
        for (metric, _, _) in &PER_LAYER {
            let (x, _) = a_layers.metrics[*metric];
            let (y, _) = b_layers.metrics[*metric];
            let gap = if x == 0.0 {
                0.0
            } else {
                (y - x).abs() / x.abs()
            };
            println!(
                "{name:<12} {metric:<40} {x:>14.4} {y:>14.4} {:>7.2}%",
                100.0 * gap
            );
        }
    }
    ok &= dominance(&a) & dominance(&b);
    write_results(seed, seconds, &b);
    if ok {
        println!("A/A: every end-to-end metric within its bound; dominance holds");
        ExitCode::SUCCESS
    } else if gate {
        println!("A/A: FAILED (see OUT OF BOUND / FAILS above)");
        ExitCode::FAILURE
    } else {
        println!("A/A: out of bound, but --quick never gates");
        ExitCode::SUCCESS
    }
}
