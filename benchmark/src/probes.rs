//! Per-layer probes: each a timed call into one public function of one
//! module, on inputs captured from this workload's own replay — its
//! smallest and its largest travelling envelope, the sub-plan its data
//! site reduces, its biggest catalog. Module names are the layers.
//!
//! A stage a workload never reaches (a join on `route_small`, a URN
//! binding on `bulk_join`) reports 0.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mqp_algebra::codec;
use mqp_algebra::plan::Plan;
use mqp_catalog::{Catalog, CatalogEntry, CatalogOp, DurableCatalog, MemDisk, SharedDisk};
use mqp_core::{rewrite, Mqp};
use mqp_namespace::InterestArea;
use mqp_net::Topology;
use mqp_peer::framing::{encode_frame, FrameDecoder};
use mqp_peer::wire::Frame;
use mqp_peer::{Peer, SimHarness};

use crate::replay::{frame_round_trip, tokenize, Hop, Local, Replay};
use crate::report::Metric;
use crate::stats::median;
use crate::worlds::{self, World};

/// Median nanoseconds per call of `f`, over batches that fill `slice`
/// (one call at least, however slow).
pub fn ns_per_call(slice: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let first = t0.elapsed();
    if first >= slice {
        return first.as_nanos() as f64;
    }
    let per_batch = (200_000 / first.as_nanos().max(1)).clamp(1, 100_000) as u32;
    let mut batches = Vec::new();
    let started = Instant::now();
    while started.elapsed() < slice || batches.len() < 3 {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        batches.push(t0.elapsed().as_nanos() as f64 / f64::from(per_batch));
    }
    median(&batches)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn mb_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9)
}

/// The envelope inside an `mqp` frame.
fn envelope(frame: &[u8]) -> Option<String> {
    match Frame::decode(frame) {
        Ok(Frame::Mqp(mf)) => Some(mf.envelope),
        _ => None,
    }
}

/// The first join and the first select at or below `plan`.
fn find_ops(plan: &Plan) -> (Option<&Plan>, Option<&Plan>) {
    let (mut join, mut select) = (None, None);
    plan.walk(&mut |p| match p {
        Plan::Join { .. } if join.is_none() => join = Some(p),
        Plan::Select { .. } if select.is_none() => select = Some(p),
        _ => {}
    });
    (join, select)
}

/// Items behind the leaves of `plan` at `peer`.
fn leaf_items(plan: &Plan, peer: &Peer) -> usize {
    use mqp_core::ServerContext;
    let mut n = 0;
    plan.walk(&mut |p| match p {
        Plan::Data { items, .. } => n += items.len(),
        Plan::Url(u) => n += peer.local_url_data(u).map_or(0, |b| b.len()),
        _ => {}
    });
    n
}

/// Runs every probe. `hops` are one replayed query's messages per plan
/// of the cycle; `slice` is the time each probe may take.
pub fn run(world: &World, replay: &Replay, hops: &[Hop], slice: Duration) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };

    // ---- captured inputs -------------------------------------------
    let mqp_frames: Vec<&Hop> = hops
        .iter()
        .filter(|h| h.from != h.to && Frame::kind(&h.bytes) == "mqp")
        .collect();
    let small = mqp_frames
        .iter()
        .min_by_key(|h| h.bytes.len())
        .expect("a query crosses at least one peer");
    let bulk = mqp_frames
        .iter()
        .max_by_key(|h| h.bytes.len())
        .expect("checked above");
    let small_env = envelope(&small.bytes).expect("mqp frame");
    let bulk_env = envelope(&bulk.bytes).expect("mqp frame");
    let small_plan = codec::to_wire(Mqp::from_wire(&small_env).expect("parses").plan());
    let bulk_mqp = Mqp::from_wire(&bulk_env).expect("parses");
    let bulk_plan = codec::to_wire(bulk_mqp.plan());

    // ---- xml, algebra ----------------------------------------------
    let ns = ns_per_call(slice, || {
        black_box(tokenize(black_box(&bulk_env)));
    });
    put("xml.canon_tokenize_mb_s", mb_s(bulk_env.len(), ns), "MB/s");
    let ns = ns_per_call(slice, || {
        black_box(mqp_xml::parse_canonical(black_box(&bulk_env)));
    });
    put("xml.canon_build_mb_s", mb_s(bulk_env.len(), ns), "MB/s");
    let ns = ns_per_call(slice, || {
        black_box(codec::from_wire(black_box(&bulk_plan)).is_ok());
    });
    put(
        "algebra.plan_decode_mb_s",
        mb_s(bulk_plan.len(), ns),
        "MB/s",
    );
    let mut buf = String::with_capacity(bulk_plan.len());
    let ns = ns_per_call(slice, || {
        buf.clear();
        codec::write_plan(black_box(bulk_mqp.plan()), &mut buf);
    });
    put(
        "algebra.plan_encode_mb_s",
        mb_s(bulk_plan.len(), ns),
        "MB/s",
    );
    let ns = ns_per_call(slice, || {
        black_box(codec::from_wire(black_box(&small_plan)).is_ok());
    });
    put("algebra.plan_decode_small_us", us(ns), "us");

    // ---- core: envelope codec --------------------------------------
    for (tag, env) in [("small", &small_env), ("bulk", &bulk_env)] {
        let ns = ns_per_call(slice, || {
            black_box(Mqp::from_wire(black_box(env)).is_ok());
        });
        put(&format!("core.mqp_from_wire_us.{tag}"), us(ns), "us");
        // A changed plan: the splice cache cannot serve the section.
        let mut mqp = Mqp::from_wire(env).expect("parses");
        let ns = ns_per_call(slice, || {
            let _ = mqp.plan_mut();
            black_box(mqp.to_wire().len());
        });
        put(&format!("core.mqp_to_wire_us.{tag}"), us(ns), "us");
    }
    let mut plan = bulk_mqp.plan().clone();
    let ns = ns_per_call(slice, || {
        black_box(rewrite::normalize(&mut plan));
    });
    put("core.rewrite_normalize_us", us(ns), "us");

    // ---- engine: the sub-plan the bulk frame's receiver reduces ----
    let site = replay.peer(bulk.to);
    let mut subs = Vec::new();
    crate::replay::reducible(bulk_mqp.plan(), site, &mut subs);
    let (mut compile_us, mut join_rate, mut select_rate) = (0.0, 0.0, 0.0);
    if let Some(sub) = subs.first() {
        compile_us = us(ns_per_call(slice, || {
            black_box(&mqp_engine::compile(black_box(sub)));
        }));
        let (join, select) = find_ops(sub);
        let rate = |op: Option<&Plan>| {
            op.map_or(0.0, |op| {
                let compiled = mqp_engine::compile(op);
                let ns = ns_per_call(slice, || {
                    black_box(compiled.eval(&Local(site)).is_ok());
                });
                leaf_items(op, site) as f64 / 1e3 / (ns / 1e9)
            })
        };
        join_rate = rate(join);
        select_rate = rate(select);
    }
    put("engine.compile_us", compile_us, "us");
    put("engine.eval_join_kitems_s", join_rate, "kitems/s");
    put("engine.eval_select_kitems_s", select_rate, "kitems/s");

    // ---- catalog: the biggest one in the world ---------------------
    let holder = replay
        .peers()
        .max_by_key(|p| p.catalog().entries().len())
        .expect("a world has peers");
    let catalog: &Catalog = holder.catalog();
    let area = world
        .plans
        .iter()
        .find_map(|p| p.urns().first().and_then(|u| u.urn.as_area().cloned()))
        .unwrap_or_else(|| holder.store().area());
    put("catalog.entries", catalog.entries().len() as f64, "count");
    let ns = ns_per_call(slice, || {
        black_box(catalog.bind_area(black_box(&area)).alternatives.len());
    });
    put("catalog.bind_area_us", us(ns), "us");
    let ns = ns_per_call(slice, || {
        black_box(catalog.route_for(black_box(&area), &[]));
    });
    put("catalog.route_for_us", us(ns), "us");
    let fresh: Vec<CatalogEntry> = (0..64)
        .map(|i| CatalogEntry::base(format!("probe-{i:04}"), area.clone()))
        .collect();
    let mut scratch = catalog.clone();
    let mut next = 0;
    let ns = ns_per_call(slice, || {
        if next == fresh.len() {
            // Not timed apart: one clone per 64 registrations.
            scratch = catalog.clone();
            next = 0;
        }
        scratch.register(fresh[next].clone());
        next += 1;
    });
    put("catalog.register_us", us(ns), "us");

    // WAL on MemDisk: CPU cost of the journal, not a disk's latency.
    let disk = SharedDisk::new(MemDisk::new());
    let mut journal = DurableCatalog::new(disk.clone());
    journal.seed(catalog).expect("MemDisk never fails");
    let op = CatalogOp::Register(fresh[0].clone());
    let mut logged = 0u64;
    let ns = ns_per_call(slice, || {
        journal.log(&op).expect("MemDisk never fails");
        logged += 1;
    });
    put("catalog.wal_log_us", us(ns), "us");
    let wal_len = disk.with(|d| d.wal_read().map_or(0, |w| w.len()));
    put(
        "catalog.wal_bytes_per_op",
        wal_len as f64 / logged as f64,
        "B",
    );
    let ns = ns_per_call(slice, || {
        journal.compact(catalog).expect("MemDisk never fails");
    });
    put("catalog.compact_ms", ns / 1e6, "ms");
    let ns = ns_per_call(slice, || {
        black_box(journal.recover().expect("MemDisk never fails").1.entries);
    });
    put("catalog.recover_ms", ns / 1e6, "ms");

    // ---- peer: framing and frame codec -----------------------------
    let ns = ns_per_call(slice, || {
        black_box(encode_frame(black_box(&small.bytes)).len());
    });
    put("peer.frame_encode_ns", ns, "ns");
    let framed = encode_frame(&small.bytes);
    let ns = ns_per_call(slice, || {
        let mut d = FrameDecoder::new();
        let (a, b) = framed.split_at(framed.len() / 2);
        d.push(a);
        d.push(b);
        black_box(d.next().is_ok());
    });
    put("peer.frame_decode_ns", ns, "ns");
    let ns = ns_per_call(slice, || {
        black_box(frame_round_trip(black_box(&bulk.bytes)));
    });
    put("peer.framing_mb_s", mb_s(bulk.bytes.len(), ns), "MB/s");
    for (tag, hop) in [("small", small), ("bulk", bulk)] {
        let ns = ns_per_call(slice, || {
            black_box(Frame::decode(black_box(&hop.bytes)).is_ok());
        });
        put(&format!("peer.wire_decode_us.{tag}"), us(ns), "us");
        let frame = Frame::decode(&hop.bytes).expect("own frame");
        let ns = ns_per_call(slice, || {
            black_box(frame.encode().len());
        });
        put(&format!("peer.wire_encode_us.{tag}"), us(ns), "us");
    }

    // ---- lang, namespace -------------------------------------------
    let texts: Vec<String> = world.plans.iter().map(Plan::render).collect();
    let mut i = 0;
    let ns = ns_per_call(slice, || {
        black_box(mqp_lang::parse_query(&texts[i % texts.len()]).is_ok());
        i += 1;
    });
    put("lang.parse_query_us", us(ns), "us");
    let others: Vec<InterestArea> = catalog
        .entries()
        .iter()
        .take(1024)
        .map(|e| e.area.clone())
        .collect();
    let mut i = 0;
    let ns = ns_per_call(slice, || {
        black_box(area.overlaps(&others[i % others.len()]));
        i += 1;
    });
    put("namespace.area_overlap_ns", ns, "ns");
    out
}

/// The workload's query mix on the discrete-event simulator:
/// `(queries per second, events per second)` of wall time.
pub fn simulator_speed(name: &str, seed: u64, slice: Duration) -> (f64, f64) {
    let mut world = worlds::build(name, seed);
    let peers = std::mem::take(&mut world.peers);
    let mut sim = SimHarness::new(Topology::uniform(peers.len(), 1_000), peers);
    sim.retry = world.cfg.retry;
    let t0 = Instant::now();
    let mut queries = 0;
    while t0.elapsed() < slice || queries == 0 {
        for _ in 0..16 {
            sim.submit(0, world.plans[world.plan_at(queries)].clone());
            queries += 1;
        }
        sim.run(usize::MAX);
        assert_eq!(sim.pending_count(), 0, "simulator stranded a query");
        sim.take_completed();
    }
    let secs = t0.elapsed().as_secs_f64();
    (
        queries as f64 / secs,
        sim.net.stats().events_processed as f64 / secs,
    )
}

/// One message there and one back between two threads over
/// `mqp_net::threaded::mesh`, in microseconds.
pub fn mesh_roundtrip_us(slice: Duration) -> f64 {
    let mut ends = mqp_net::threaded::mesh(2);
    let b = ends.pop().expect("two endpoints");
    let a = ends.pop().expect("two endpoints");
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let echo = std::thread::spawn(move || {
        while stop_rx.try_recv().is_err() {
            if let Some(env) = b.recv_timeout(Duration::from_millis(20)) {
                b.send(env.from, env.payload);
            }
        }
    });
    let ns = ns_per_call(slice, || {
        a.send(1, vec![0u8; 64]);
        a.recv_timeout(Duration::from_secs(5))
            .expect("echo replies");
    });
    stop_tx.send(()).expect("echo thread is alive");
    echo.join().expect("echo thread ended cleanly");
    us(ns)
}
