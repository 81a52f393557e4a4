//! What one invocation measures: the end-to-end metrics of a workload
//! (`--trace 0`), or its per-layer metrics (`--trace 1`).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::host;
use crate::load::{check, Phase};
use crate::probes;
use crate::replay::{Replay, Replayed, Step, Tracer, ON_MESSAGE};
use crate::report::{e2e_names, per_layer_names, Metric, RunOutput};
use crate::run::{self, Budget, Instance, Measured};
use crate::stats::{median, percentile, samples_beyond, sorted, tail_percentile};
use crate::worlds::{self, Spec};

/// The dominance check: the share of idle latency spent outside
/// `PeerNode` must stay high on `route_small` and the minority on
/// `bulk_join`, or the two no longer stress opposite layers. (The
/// issue's 0.4 for `bulk_join` predates the idle phase's think time,
/// which lets every peer reach its deepest poll sleep: 0.29 without
/// it, 0.38–0.45 with it.)
pub const HOST_SHARE_MIN_ROUTE_SMALL: f64 = 0.8;
pub const HOST_SHARE_MAX_BULK_JOIN: f64 = 0.5;

/// Reconciliation: the re-executed stages' self times must add up to
/// the replay's `on_message` time within this share.
pub const RECONCILE_WITHIN: f64 = 0.10;

fn p50(phase: &Phase) -> f64 {
    percentile(&sorted(phase.latency_ms.clone()), 50.0)
}

/// The paced phases of all instances as one sample, ascending: an
/// open loop offers every instance the same load, and a slow workload
/// needs all of them to have a tail at all.
fn paced_pooled(m: &Measured) -> Vec<f64> {
    sorted(
        m.instances
            .iter()
            .flat_map(|i| i.paced.latency_ms.clone())
            .collect(),
    )
}

fn phase_note(name: &str, p: &Phase) -> String {
    let s = sorted(p.latency_ms.clone());
    format!(
        "  {name:<14} submitted {:>6}  correct {:>6}  failed {}  {:>5.2} s  p50 {:>8.3} ms  p99 {:>8.3} ms  max {:>8.3} ms",
        p.submitted,
        p.correct(),
        p.failed,
        p.elapsed_s,
        percentile(&s, 50.0),
        percentile(&s, 99.0),
        percentile(&s, 100.0),
    )
}

fn common_notes(m: &Measured, notes: &mut Vec<String>) {
    notes.push(
        "program under test: in-process mqp_peer::tcp::TcpCluster, real TCP sockets over loopback"
            .to_owned(),
    );
    notes.push("load generator: one thread, one TcpClient, blocking in collect()".to_owned());
    notes.push(format!(
        "{} cluster instance(s), each set up afresh; values are medians over them (paced latencies: pooled)",
        m.instances.len()
    ));
    for (nth, i) in m.instances.iter().enumerate() {
        notes.push(format!(
            "instance {nth}: set up in {:.3} s; {} recovery cycle(s) {:?}",
            i.setup_s,
            i.recover_s.len(),
            i.recover_s
        ));
        notes.push(phase_note("idle", &i.idle));
        notes.push(phase_note("paced", &i.paced));
        notes.push(phase_note("flood", &i.flood));
    }
    let late = sorted(
        m.instances
            .iter()
            .flat_map(|i| i.paced.late_ms.clone())
            .collect(),
    );
    notes.push(format!(
        "paced generator lateness p50 {:.3} ms, p99 {:.3} ms",
        percentile(&late, 50.0),
        percentile(&late, 99.0)
    ));
    notes.push(format!(
        "fail_share {:.5} ({} of {}); transport identity {}",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted,
        if m.balanced { "balances" } else { "BROKEN" }
    ));
    for why in &m.failures {
        notes.push(format!("failure: {why}"));
    }
}

/// Instances an end-to-end run measures.
pub const INSTANCES: usize = 3;

/// `--trace 0`: `seconds` of measuring spread over [`INSTANCES`]
/// freshly set-up clusters, each ending with its recovery cycles.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64) -> RunOutput {
    let budget = Budget {
        recover: true,
        ..Budget::split(seconds, INSTANCES)
    };
    let m = run::on_sockets(spec, seed, budget);
    let mut notes = Vec::new();
    common_notes(&m, &mut notes);
    let paced = paced_pooled(&m);
    let tail = tail_percentile(paced.len());
    notes.push(format!(
        "paced tail (not gated, see README.md): p{tail} = {:.3} ms of {} pooled samples ({} beyond it)",
        percentile(&paced, tail),
        paced.len(),
        samples_beyond(paced.len(), tail)
    ));
    let metrics = vec![
        Metric::new("setup_s", m.median_of(|i| i.setup_s), "s"),
        Metric::new("idle_p50_ms", m.median_of(|i| p50(&i.idle)), "ms"),
        Metric::new("paced_p50_ms", percentile(&paced, 50.0), "ms"),
        Metric::new("goodput_qps", m.median_of(Instance::goodput_qps), "1/s"),
        Metric::new(
            "wire_bytes_per_query",
            m.median_of(|i| i.idle_wire.bytes),
            "B",
        ),
        Metric::new(
            "frames_per_query",
            m.median_of(|i| i.idle_wire.frames),
            "count",
        ),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
        Metric::new("recover_s", m.median_of(|i| median(&i.recover_s)), "s"),
    ];
    let out = RunOutput {
        correct: m.failed == 0 && m.balanced,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        notes,
    };
    out.assert_complete(&e2e_names());
    out
}

/// The traced replay's findings.
pub struct TraceReport {
    pub queries: usize,
    /// Untraced per-query `on_message` time, ms: the replay's wall
    /// time with nothing waiting and nothing recording.
    pub node_core_ms: f64,
    pub hops_per_query: f64,
    /// Traced against untraced per-query loop time (re-execution and
    /// recording included — why end-to-end numbers never come from it).
    pub overhead_pct: f64,
    /// Share of the traced replay's `on_message` time that the layers'
    /// self times do not add up to: positive when a stage is missing,
    /// negative when re-execution took longer than the real call.
    pub reconcile_gap_pct: f64,
    /// Self time per layer per query, µs. `peer_node` is the gap above:
    /// what `PeerNode` does itself that no stage names.
    pub self_us: Vec<(&'static str, f64)>,
    pub spans_per_query: f64,
    /// Median re-executed `Peer::process` µs at binding, forwarding
    /// and reducing hops.
    pub process_us: [f64; 3],
    pub span_file: PathBuf,
    pub failed: usize,
    /// One query's messages per plan of the cycle (probe inputs).
    pub sample_hops: Vec<crate::replay::Hop>,
}

/// `benchmark/out/`, created if need be: where span files and result
/// sets go (ignored by git).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Spans of this many queries go to the span file (the rest are only
/// summed): 200 queries are ~1 MB of JSON, 2 000 would be ten.
const SPAN_FILE_QUERIES: usize = 200;

/// Replays the workload's cycle in process twice — recording off, then
/// on — for at least 200 queries each (fewer if 200 do not fit in
/// `within`, more if they leave time, up to 2 000), and writes the
/// first 200 queries' spans to `benchmark/out/trace.<workload>.json`.
pub fn traced_replay(
    spec: &Spec,
    seed: u64,
    within: Duration,
) -> (TraceReport, worlds::World, Replay) {
    let mut world = worlds::build(spec.name, seed);
    let mut replay = Replay::new(&mut world);
    let mut failed = 0;
    let mut verify = |world: &worlds::World, i: usize, r: &Replayed| {
        if check(&r.outcome, &world.expect[world.plan_at(i)]).is_err() {
            failed += 1;
        }
    };
    // Warm: compile caches, interner; and one query per plan for the
    // probes to take their inputs from.
    let mut sample_hops = Vec::new();
    for i in 0..world.cycle.len().max(8) {
        let r = replay.query(&world.plans[world.plan_at(i)], None);
        verify(&world, i, &r);
        if i < world.cycle.len() {
            sample_hops.extend(r.hops);
        }
    }

    let t0 = Instant::now();
    let (mut node_ns, mut hops, mut queries) = (0u64, 0u64, 0usize);
    while queries < 5 || (queries < 2_000 && t0.elapsed() < within) {
        let r = replay.query(&world.plans[world.plan_at(queries)], None);
        node_ns += r.node_ns;
        hops += r.outcome.hops;
        verify(&world, queries, &r);
        queries += 1;
    }
    let untraced_s = t0.elapsed().as_secs_f64();

    let mut tracer = Tracer::with_capacity(queries * 64);
    let mut span_json = None;
    let t0 = Instant::now();
    for i in 0..queries {
        let r = replay.query(&world.plans[world.plan_at(i)], Some(&mut tracer));
        verify(&world, i, &r);
        if i + 1 == SPAN_FILE_QUERIES.min(queries) {
            span_json = Some(tracer.to_json());
        }
    }
    let traced_s = t0.elapsed().as_secs_f64();

    let per_query_us = |ns: u64| ns as f64 / 1e3 / queries as f64;
    let layers = tracer.by_layer();
    let staged_ns: u64 = layers.values().sum();
    let on_message_ns = tracer.total_ns(ON_MESSAGE);
    let mut self_us: Vec<(&'static str, f64)> = layers
        .iter()
        .map(|(layer, ns)| (*layer, per_query_us(*ns)))
        .collect();
    self_us.push((
        "peer_node",
        per_query_us(on_message_ns.saturating_sub(staged_ns)),
    ));
    self_us.push((
        "peer_framing",
        per_query_us(tracer.total_ns("peer.framing")),
    ));
    let med_us = |step| {
        tracer.process_ns.get(&step).map_or(0.0, |v| {
            median(&v.iter().map(|ns| *ns as f64 / 1e3).collect::<Vec<_>>())
        })
    };
    let span_file = out_dir().join(format!("trace.{}.json", spec.name));
    std::fs::write(&span_file, span_json.expect("at least one query ran"))
        .expect("write span file");
    let report = TraceReport {
        queries,
        node_core_ms: node_ns as f64 / 1e6 / queries as f64,
        hops_per_query: hops as f64 / queries as f64,
        overhead_pct: 100.0 * (traced_s - untraced_s) / untraced_s,
        reconcile_gap_pct: 100.0 * (on_message_ns as f64 - staged_ns as f64) / on_message_ns as f64,
        self_us,
        spans_per_query: tracer.spans.len() as f64 / queries as f64,
        process_us: [
            med_us(Step::Bind),
            med_us(Step::Forward),
            med_us(Step::Reduce),
        ],
        span_file,
        failed,
        sample_hops,
    };
    (report, world, replay)
}

impl TraceReport {
    /// ROADMAP's reconciliation rule, applied where nothing waits: the
    /// layers' self times must add up to the replay's `on_message`
    /// time.
    pub fn reconciles(&self) -> bool {
        self.reconcile_gap_pct.abs() <= 100.0 * RECONCILE_WITHIN
    }

    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "replayed {} queries in process, twice: node core {:.4} ms/query over {:.2} hops; traced replay costs {:+.1} %",
            self.queries, self.node_core_ms, self.hops_per_query, self.overhead_pct
        )];
        for (layer, us) in &self.self_us {
            out.push(format!("  self time {layer:<14} {us:>12.2} us/query"));
        }
        out.push(format!(
            "  layer self times leave {:+.2} % of the replay's on_message time unexplained (limit ±{:.0} %): {}",
            self.reconcile_gap_pct,
            100.0 * RECONCILE_WITHIN,
            if self.reconciles() { "reconciles" } else { "DOES NOT RECONCILE" }
        ));
        out.push(format!("  spans written to {}", self.span_file.display()));
        out
    }
}

/// `1 − node core / idle p50`: the share of an idle query's latency
/// that is not `PeerNode` work.
pub fn host_share(idle_p50_ms: f64, node_core_ms: f64) -> f64 {
    1.0 - node_core_ms / idle_p50_ms
}

/// Whether `share` keeps the workload on its side of the dominance
/// check (always true for the two workloads it does not name).
pub fn dominance_holds(workload: &str, share: f64) -> bool {
    match workload {
        "route_small" => share >= HOST_SHARE_MIN_ROUTE_SMALL,
        "bulk_join" => share <= HOST_SHARE_MAX_BULK_JOIN,
        _ => true,
    }
}

/// `--trace 1`: a shorter socket run on one instance (for what only
/// sockets show), the same phases on the threaded cluster, the traced
/// replay, and the probes. Nothing here feeds an end-to-end metric.
pub fn per_layer(spec: &Spec, seed: u64, seconds: f64) -> RunOutput {
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    let tcp = run::on_sockets(
        spec,
        seed,
        Budget {
            quiet: share(0.05),
            ..Budget::split(seconds * 0.4, 1)
        },
    );
    let threads = run::on_threads(
        spec,
        seed,
        Budget {
            paced: Duration::ZERO,
            ..Budget::split(seconds * 0.25, 1)
        },
    );
    let (tcp1, threads1) = (&tcp.instances[0], &threads.instances[0]);
    let (trace, world, replay) = traced_replay(spec, seed, share(0.05));
    let slice = share(0.2 / 40.0);
    let mut metrics = probes::run(&world, &replay, &trace.sample_hops, slice);
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric::new(name, value, unit));
    };

    let idle_p50 = p50(&tcp1.idle);
    let host_ms = idle_p50 - trace.node_core_ms;
    let host = host_share(idle_p50, trace.node_core_ms);
    let [bind, forward, reduce] = trace.process_us;
    put("core.process_us.bind", bind, "us");
    put("core.process_us.forward", forward, "us");
    put("core.process_us.reduce", reduce, "us");
    put("peer.node_core_ms_per_query", trace.node_core_ms, "ms");
    put("peer.hops_per_query", trace.hops_per_query, "count");
    put(
        "peer.tcp_host_ms_per_hop",
        host_ms / trace.hops_per_query,
        "ms",
    );
    put("peer.tcp_host_share", 100.0 * host, "%");
    put("peer.tcp_ping_us", run::tcp_ping_us(200), "us");
    put("peer.tcp_idle_p50_ms", idle_p50, "ms");
    put("peer.tcp_goodput_qps", tcp1.goodput_qps(), "1/s");
    put("peer.threaded_idle_p50_ms", p50(&threads1.idle), "ms");
    put("peer.threaded_goodput_qps", threads1.goodput_qps(), "1/s");
    put("peer.tcp_connects", tcp1.stats.connects as f64, "count");
    put("peer.tcp_retries", tcp1.stats.retries as f64, "count");
    let dropped =
        tcp1.stats.dropped_backpressure + tcp1.stats.dropped_disconnected + tcp1.stats.abandoned;
    put("peer.tcp_dropped", dropped as f64, "count");
    // Median latency of answers that needed a retry, over that of all
    // answers, across the three phases.
    let (mut retried, mut all) = (Vec::new(), Vec::new());
    for phase in [&tcp1.idle, &tcp1.paced, &tcp1.flood] {
        retried.extend(&phase.retried_ms);
        all.extend(&phase.latency_ms);
    }
    let detour = if retried.is_empty() {
        0.0
    } else {
        median(&retried) - median(&all)
    };
    put("peer.retry_detour_ms", detour, "ms");
    put(
        "host.cpu_ms_per_query",
        1e3 * tcp1.flood_cpu_s / tcp1.flood.correct().max(1) as f64,
        "ms",
    );
    put("host.idle_cpu_pct", tcp1.idle_cpu_pct, "%");
    let (sim_qps, sim_eps) = probes::simulator_speed(spec.name, seed, share(0.03));
    put("net.sim_queries_per_s", sim_qps, "1/s");
    put("net.sim_events_per_s", sim_eps, "1/s");
    put(
        "net.mesh_roundtrip_us",
        probes::mesh_roundtrip_us(share(0.02)),
        "us",
    );
    let late = sorted(tcp1.paced.late_ms.clone());
    let tail = tail_percentile(tcp1.paced.submitted);
    put(
        "load.paced_tail_ms",
        percentile(&sorted(tcp1.paced.latency_ms.clone()), tail),
        "ms",
    );
    put("load.paced_late_p99_ms", percentile(&late, 99.0), "ms");
    put("load.paced_tail_pct", tail, "%");
    put(
        "load.paced_tail_samples_beyond",
        samples_beyond(tcp1.paced.submitted, tail) as f64,
        "count",
    );
    let failed = tcp.failed + threads.failed + trace.failed;
    let attempted = tcp.attempted + threads.attempted + 2 * trace.queries;
    put(
        "load.fail_share",
        100.0 * failed as f64 / attempted as f64,
        "%",
    );
    put("trace.queries", trace.queries as f64, "count");
    put("trace.overhead_pct", trace.overhead_pct, "%");
    put("trace.reconcile_gap_pct", trace.reconcile_gap_pct, "%");
    for layer in [
        "xml",
        "algebra",
        "core",
        "engine",
        "catalog",
        "peer",
        "peer_node",
        "peer_framing",
    ] {
        let us = trace
            .self_us
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, us)| *us);
        put(&format!("trace.self_us_per_query.{layer}"), us, "us");
    }
    put("trace.spans_per_query", trace.spans_per_query, "count");

    let mut notes = Vec::new();
    common_notes(&tcp, &mut notes);
    notes.push("the same idle and flood phases on ThreadedCluster + MqpClient:".to_owned());
    notes.push(phase_note("threaded idle", &threads1.idle));
    notes.push(phase_note("threaded flood", &threads1.flood));
    notes.extend(trace.lines());
    notes.push(format!(
        "host share: idle p50 {idle_p50:.3} ms - node core {:.4} ms = {host_ms:.3} ms outside PeerNode ({:.1} %); dominance check {}",
        trace.node_core_ms,
        100.0 * host,
        if dominance_holds(spec.name, host) { "holds" } else { "FAILS" }
    ));
    let out = RunOutput {
        correct: failed == 0 && tcp.balanced,
        attempted,
        failed,
        metrics,
        notes,
    };
    out.assert_complete(&per_layer_names());
    out
}
