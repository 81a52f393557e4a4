//! The benchmark's own tests: a measuring tool that mis-measures is
//! worse than none. Run with `cargo test` inside `benchmark/`.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use mqp_algebra::plan::Plan;
use mqp_benchmark::aa::parse_result_line;
use mqp_benchmark::load::{check, Client, Generator, Host, Load};
use mqp_benchmark::replay::Replay;
use mqp_benchmark::report::{self, Metric, RunOutput};
use mqp_benchmark::stats::{percentile, poisson_schedule, samples_beyond, tail_percentile};
use mqp_benchmark::worlds::{self, Expect, World};
use mqp_catalog::CatalogEntry;
use mqp_core::{QueryId, QueryOutcome};
use mqp_net::NodeId;
use mqp_peer::tcp::{TcpCluster, TcpConfig};
use mqp_xml::{Batch, Element};

fn outcome(items: usize, failure: Option<&str>) -> QueryOutcome {
    let mut batch = Batch::new();
    for _ in 0..items {
        batch.push_item(Element::new("item"));
    }
    QueryOutcome {
        qid: QueryId::new(0),
        items: batch,
        failure: failure.map(str::to_owned),
        latency_us: 0,
        hops: 5,
        mqp_bytes: 0,
        retries: 0,
        audit_clean: Some(true),
    }
}

#[test]
fn checker_rejects_wrong_count_failure_dirty_audit_and_wrong_hops() {
    let expect = Expect {
        items: 3,
        hops: Some(5),
    };
    assert!(check(&outcome(3, None), &expect).is_ok());
    assert!(check(&outcome(2, None), &expect).is_err());
    assert!(check(&outcome(3, Some("no route")), &expect).is_err());
    let mut dirty = outcome(3, None);
    dirty.audit_clean = Some(false);
    assert!(check(&dirty, &expect).is_err());
    dirty.audit_clean = None;
    assert!(check(&dirty, &expect).is_err());
    let mut detour = outcome(3, None);
    detour.hops = 6;
    assert!(check(&detour, &expect).is_err());
    // Where retries may change the path, hops are not part of the truth.
    assert!(check(
        &detour,
        &Expect {
            items: 3,
            hops: None
        }
    )
    .is_ok());
}

#[test]
fn poisson_schedule_is_a_pure_function_of_the_seed() {
    let a = poisson_schedule(7, 1000.0, 5_000);
    assert_eq!(a, poisson_schedule(7, 1000.0, 5_000));
    assert_ne!(a, poisson_schedule(8, 1000.0, 5_000));
    assert!(a.windows(2).all(|w| w[0] < w[1]), "due times must increase");
    // Mean gap of 5 000 exponential draws at 1 000/s: 1 ms within 5 %.
    let mean_gap = a.last().unwrap() / a.len() as f64;
    assert!((mean_gap - 1e-3).abs() < 5e-5, "mean gap {mean_gap}");
}

#[test]
fn tail_picker_takes_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(12_000), 99.0);
    assert_eq!(tail_percentile(1_000), 99.0);
    assert_eq!(tail_percentile(999), 95.0); // p99 would leave 9
    assert_eq!(tail_percentile(200), 95.0);
    assert_eq!(tail_percentile(199), 90.0);
    assert_eq!(tail_percentile(100), 90.0);
    assert_eq!(tail_percentile(99), 75.0);
    assert_eq!(tail_percentile(39), 50.0);
    for n in [40, 100, 120, 200, 900, 6_000] {
        let p = tail_percentile(n);
        assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        let sorted: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let cut = percentile(&sorted, p);
        assert_eq!(
            sorted.iter().filter(|v| **v > cut).count(),
            samples_beyond(n, p)
        );
    }
}

/// Answers every query at once, except that its first `collect` stalls.
struct StallingClient {
    next: u64,
    ready: VecDeque<QueryOutcome>,
    stall: Option<Duration>,
}

impl Client for StallingClient {
    fn submit(&mut self, _: NodeId, _: &Plan) -> QueryId {
        let qid = QueryId::new(self.next);
        self.next += 1;
        self.ready.push_back(QueryOutcome {
            qid,
            ..outcome(0, None)
        });
        qid
    }
    fn collect(&mut self, _: usize, timeout: Duration) -> Vec<QueryOutcome> {
        if let Some(stall) = self.stall.take() {
            std::thread::sleep(stall);
        }
        match self.ready.pop_front() {
            Some(o) => vec![o],
            None => {
                std::thread::sleep(timeout);
                Vec::new()
            }
        }
    }
    fn register(&mut self, _: NodeId, _: &CatalogEntry) -> bool {
        true
    }
}

struct NoFaults;
impl Host for NoFaults {
    fn kill(&self, _: NodeId) {}
    fn restart(&self, _: NodeId) {}
}

fn one_plan_world() -> World {
    World {
        peers: Vec::new(),
        cfg: TcpConfig::default(),
        plans: vec![Plan::url("mqp://nobody/")],
        expect: vec![Expect {
            items: 0,
            hops: None,
        }],
        cycle: vec![0],
        pivot: 0,
        probes: vec![0],
        churn: None,
        writes: None,
    }
}

#[test]
fn open_loop_latency_runs_from_the_due_time() {
    let world = one_plan_world();
    let stall = Duration::from_millis(80);
    let client = StallingClient {
        next: 0,
        ready: VecDeque::new(),
        stall: Some(stall),
    };
    let mut gen = Generator::new(&world, client, &NoFaults, 1);
    // 40 arrivals, one per millisecond; the system answers instantly
    // but stalls the generator for 80 ms right after the first submit.
    let due: Vec<f64> = (0..40).map(|i| i as f64 * 1e-3).collect();
    let t0 = Instant::now();
    let phase = gen.run(&Load::Open { due }, false);
    assert!(t0.elapsed() >= stall);
    assert_eq!(phase.correct(), 40);
    assert_eq!(phase.failed, 0);
    // Every arrival that fell due during the stall was submitted late
    // and answered at once: timed from its submit it would read ~0 ms,
    // timed from its due time it carries what is left of the stall.
    let late = phase.late_ms.iter().filter(|ms| **ms > 30.0).count();
    assert!(
        late >= 30,
        "only {late} submits were late: {:?}",
        phase.late_ms
    );
    let charged = phase.latency_ms.iter().filter(|ms| **ms > 30.0).count();
    assert!(charged >= 30, "stall not charged: {:?}", phase.latency_ms);
    // And the closed loop, by definition, never runs late.
    let client = StallingClient {
        next: 0,
        ready: VecDeque::new(),
        stall: Some(stall),
    };
    let mut gen = Generator::new(&world, client, &NoFaults, 1);
    let phase = gen.run(
        &Load::Closed {
            window: 1,
            limit: mqp_benchmark::load::Limit::Count(5),
            think: Duration::from_millis(2),
        },
        false,
    );
    assert!(phase.late_ms.iter().all(|ms| *ms == 0.0));
}

fn titles(o: &QueryOutcome) -> Vec<String> {
    let mut t: Vec<String> = o.items.iter().map(mqp_xml::serialize).collect();
    t.sort();
    t
}

#[test]
fn replay_matches_the_socket_run_on_route_small() {
    let seed = 42;
    let mut world = worlds::build("route_small", seed);
    let peers = std::mem::take(&mut world.peers);
    let (cluster, mut client) = TcpCluster::with_config(peers, world.cfg.clone());
    let mut twin = worlds::build("route_small", seed);
    let mut replay = Replay::new(&mut twin);

    // One pass dials every link, so the counted pass moves no hellos.
    for plan in &world.plans {
        client.submit(0, plan);
        assert_eq!(client.collect(1, Duration::from_secs(20)).len(), 1);
    }
    std::thread::sleep(Duration::from_millis(100));
    for (i, plan) in world.plans.iter().enumerate() {
        let before = cluster.stats();
        client.submit(0, plan);
        let got = client.collect(1, Duration::from_secs(20));
        assert_eq!(got.len(), 1, "plan {i} unanswered over sockets");
        std::thread::sleep(Duration::from_millis(100));
        let after = cluster.stats();
        let socket = &got[0];
        check(socket, &world.expect[i]).expect("socket answer is correct");

        let replayed = replay.query(plan, None);
        check(&replayed.outcome, &world.expect[i]).expect("replayed answer is correct");
        assert_eq!(
            titles(socket),
            titles(&replayed.outcome),
            "plan {i}: answers differ"
        );
        assert_eq!(socket.hops, replayed.outcome.hops, "plan {i}: hops differ");
        assert_eq!(
            after.frames_enqueued - before.frames_enqueued,
            replayed.frames,
            "plan {i}: frames per query differ"
        );
        // Bytes agree up to the digits of the clocks both stamp into
        // provenance and meters.
        let socket_bytes = (after.bytes_sent - before.bytes_sent) as f64;
        let gap = (socket_bytes - replayed.wire_bytes as f64).abs() / socket_bytes;
        assert!(
            gap < 0.02,
            "plan {i}: {socket_bytes} vs {} bytes",
            replayed.wire_bytes
        );
    }
    let stats = cluster.shutdown(&mut client);
    assert!(stats.balances(0));
}

#[test]
fn worlds_do_the_same_work_for_every_seed() {
    for name in ["route_small", "or_churn"] {
        let mut frames = Vec::new();
        for seed in [1, 2, 3] {
            let mut world = worlds::build(name, seed);
            let mut replay = Replay::new(&mut world);
            let mut total = 0;
            for i in 0..world.cycle.len() {
                let plan = world.plan_at(i);
                let r = replay.query(&world.plans[plan], None);
                check(&r.outcome, &world.expect[plan]).expect("ground truth holds");
                total += r.frames;
            }
            frames.push(total);
        }
        assert!(
            frames.windows(2).all(|w| w[0] == w[1]),
            "{name}: {frames:?}"
        );
    }
}

#[test]
fn traced_replay_reconciles_on_route_small() {
    let spec = worlds::spec("route_small").unwrap();
    let (report, _, _) = mqp_benchmark::suite::traced_replay(spec, 9, Duration::from_millis(300));
    assert_eq!(report.failed, 0);
    assert!(report.queries >= 5);
    assert!(report.reconciles(), "gap {} %", report.reconcile_gap_pct);
    assert!(report.span_file.exists());
    let spans = std::fs::read_to_string(&report.span_file).unwrap();
    assert!(spans.contains("\"name\":\"peer.on_message\""));
    assert!(spans.contains("\"name\":\"core.process\""));
}

#[test]
fn result_line_round_trips() {
    let out = RunOutput {
        correct: true,
        attempted: 1234,
        failed: 0,
        metrics: vec![
            Metric::new("idle_p50_ms", 9.743612345, "ms"),
            Metric::new("core.mqp_from_wire_us.bulk", 5644.106, "us"),
            Metric::new("goodput_qps", 6889.177, "1/s"),
        ],
        notes: Vec::new(),
    };
    let line = out.to_json_line();
    assert!(!line.contains('\n'));
    let parsed = parse_result_line(&line).expect("own line parses");
    assert!(parsed.correct);
    assert_eq!((parsed.attempted, parsed.failed), (1234, 0));
    assert_eq!(parsed.metrics.len(), 3);
    assert_eq!(
        parsed.metrics["idle_p50_ms"],
        (9.743612345, "ms".to_owned())
    );
    assert_eq!(parsed.metrics["goodput_qps"].1, "1/s");
}

#[test]
fn benchmark_json_is_what_the_binary_declares() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        report::manifest(),
        "regenerate with `bench manifest`"
    );
    // Names are unique across both lists.
    let mut names = report::e2e_names();
    names.extend(report::per_layer_names());
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n);
}
