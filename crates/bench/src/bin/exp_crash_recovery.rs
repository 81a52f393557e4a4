//! E14 — crash recovery: the durable catalog's WAL + snapshot machinery
//! (DESIGN.md §12) under a seeded kill-point sweep, and the recall it
//! buys a peer-to-peer world whose index peers power-cycle mid-run.
//!
//! **Phase A — kill-point sweep.** A stream of catalog ops (unique
//! registrations plus URN mappings) is journaled into a
//! [`DurableCatalog`] over a seeded [`FaultyDisk`], then killed at every
//! sweep point under three fault classes:
//!
//! * **post-fsync** — every op synced before the kill; recovery must
//!   find 100% of the logged bindings (the ≥99% gate below).
//! * **torn tail** — sync every 8 ops, crash keeps a seeded *prefix* of
//!   the unsynced tail, tearing a record mid-write; recovery truncates
//!   at the tear.
//! * **corrupt read** — replay sees one seeded byte flipped; the CRC
//!   catches it and recovery truncates at the damaged record.
//!
//! Every trial additionally checks *prefix consistency*: the recovered
//! catalog must equal a replay of exactly the first `k` ops for some
//! `k` — never a blend, never an invented binding. Replay cost is
//! measured over a large WAL at full scale, where replaying ten times
//! the records must cost at most 25 times as long (linear, not the
//! quadratic of a registration that scans the catalog).
//!
//! **Phase B — recall under churn.** Two identical sim worlds (client,
//! meta index, seller pairs) run the same power-cycle schedule — the
//! meta index and every even seller crash and restart — differing only
//! in the disk behind each peer's journal: [`MemDisk`] (durable arm)
//! vs [`NullDisk`] (baseline arm: accepts every write, persists
//! nothing, recovery finds an empty catalog — the pre-durability
//! semantics run through the identical code path). Post-churn recall
//! and rereg traffic are compared; the network's message accounting
//! identity must stay exact (zero unaccounted frames).
//!
//! Every gate is an `assert!` at the end of `main`. The golden-trace
//! test runs this binary at `MQP_EXP_SCALE=golden` twice,
//! byte-identical.

#![forbid(unsafe_code)]

use std::time::Instant;

use mqp_algebra::plan::{Plan, UrnRef};
use mqp_bench::{f2, fmt_ms, golden_scale, paired, print_table};
use mqp_catalog::durable::{CatalogOp, DurableCatalog, FaultyDisk, MemDisk, NullDisk, SharedDisk};
use mqp_catalog::{Catalog, CatalogEntry, ServerId};
use mqp_namespace::{InterestArea, Urn};
use mqp_net::{DiskFaults, NodeId, Topology};
use mqp_peer::SimHarness;

// ---------------------------------------------------------------------
// Phase A — kill-point sweep over a faulty disk
// ---------------------------------------------------------------------

/// The fault class a kill-point trial runs under.
#[derive(Clone, Copy)]
enum KillClass {
    /// Every op synced before the kill: nothing may be lost.
    PostFsync,
    /// Wide sync cadence + torn unsynced tail at the kill.
    TornTail,
    /// Replay sees one seeded flipped byte.
    CorruptRead,
}

impl KillClass {
    fn faults(self, seed: u64) -> DiskFaults {
        DiskFaults {
            seed,
            torn_tail: matches!(self, KillClass::TornTail),
            corrupt_read: matches!(self, KillClass::CorruptRead),
            sync_fail_period: 0,
        }
    }

    fn sync_every(self) -> usize {
        match self {
            // The torn class deliberately widens the crash-before-fsync
            // window so the kill has an unsynced tail to tear.
            KillClass::TornTail => 8,
            _ => 1,
        }
    }
}

fn sweep_area(i: usize) -> InterestArea {
    let city = format!("City-{:02}", i % 16);
    InterestArea::parse(&[&[city.as_str(), "Music/CDs"]])
}

/// The op stream: unique registrations with URN mappings mixed in, so
/// a recovered prefix is identifiable by exact catalog equality.
fn sweep_ops(n: usize) -> Vec<CatalogOp> {
    (0..n)
        .map(|i| {
            if i % 5 == 4 {
                CatalogOp::MapUrn {
                    urn: format!("urn:ForSale:lot-{i:04}"),
                    server: ServerId::new(format!("server-{i:04}")),
                    collection: None,
                }
            } else {
                CatalogOp::Register(CatalogEntry::base(format!("server-{i:04}"), sweep_area(i)))
            }
        })
        .collect()
}

/// One kill-point trial: journal `ops[..k]`, kill, recover. Returns
/// the number of ops recovery found and whether the recovered catalog
/// is exactly a prefix replay (no blends, no inventions).
fn trial(ops: &[CatalogOp], k: usize, class: KillClass, seed: u64) -> (usize, bool) {
    let disk = SharedDisk::new(FaultyDisk::new(class.faults(seed)));
    let mut dc = DurableCatalog::new(disk)
        .with_snapshot_every(0) // keep every op in the WAL: 1 record = 1 op
        .with_sync_every(class.sync_every());
    for op in &ops[..k] {
        let _ = dc.log(op);
    }
    dc.crash();
    let (recovered, report) = dc.recover().expect("recovery must not error");
    let applied = report.snapshot_records + report.wal_records;
    let mut expect = Catalog::new();
    for op in &ops[..applied.min(k)] {
        op.clone().apply(&mut expect);
    }
    let consistent = applied <= k && recovered.snapshot_ops() == expect.snapshot_ops();
    (applied, consistent)
}

/// Sweeps kill points `stride, 2*stride, …` through the op stream for
/// one fault class; returns (mean recovered %, min recovered %, all
/// trials prefix-consistent).
fn sweep(ops: &[CatalogOp], stride: usize, class: KillClass) -> (f64, f64, bool) {
    let mut fractions = Vec::new();
    let mut consistent = true;
    let mut k = stride;
    while k <= ops.len() {
        let seed = 0xC0FF_EE00 ^ (k as u64).wrapping_mul(0x9E37_79B9);
        let (applied, ok) = trial(ops, k, class, seed);
        fractions.push(100.0 * applied as f64 / k as f64);
        consistent &= ok;
        k += stride;
    }
    let mean = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;
    let min = fractions.iter().copied().fold(f64::INFINITY, f64::min);
    (mean, min, consistent)
}

/// Replay cost over a large clean WAL (timed; elided at golden scale).
fn replay_cost(n: usize) -> (usize, f64) {
    let ops = sweep_ops(n);
    let mut dc = DurableCatalog::new(SharedDisk::new(MemDisk::new()))
        .with_snapshot_every(0)
        .with_sync_every(64);
    for op in &ops {
        let _ = dc.log(op);
    }
    let _ = dc.flush();
    dc.crash();
    let t0 = Instant::now();
    let (_, report) = dc.recover().expect("clean replay");
    (report.wal_records, t0.elapsed().as_secs_f64() * 1e3)
}

/// How many times longer replaying 50 000 records takes than replaying
/// 5 000, each the best of three runs: about 10 when replay is linear in
/// records, about 100 when each registration scans the catalog.
fn replay_growth() -> f64 {
    let best = |n| {
        (0..3)
            .map(|_| replay_cost(n).1)
            .fold(f64::INFINITY, f64::min)
    };
    best(50_000) / best(5_000)
}

// ---------------------------------------------------------------------
// Phase B — recall under churn: durable vs no-durability baseline
// ---------------------------------------------------------------------

fn journal(durable: bool) -> DurableCatalog {
    if durable {
        DurableCatalog::new(SharedDisk::new(MemDisk::new()))
    } else {
        DurableCatalog::new(SharedDisk::new(NullDisk))
    }
}

/// The [`paired`] world with every peer journaling its catalog; only
/// the disk behind the journal differs between the arms.
fn world(pairs: usize, durable: bool) -> SimHarness {
    let mut peers = paired::world(pairs);
    for (j, s) in peers[2..].iter_mut().enumerate() {
        // The seller knows its index — the rereg target after recovery.
        s.catalog_mut()
            .register(CatalogEntry::index("meta", paired::area(j / 2)));
        s.enable_durability(journal(durable));
    }
    peers[META].enable_durability(journal(durable));
    let n = peers.len();
    SimHarness::new(Topology::uniform(n, 2_000), peers)
}

const META: NodeId = 1;

struct ChurnOutcome {
    recall_pct: f64,
    meta_recovered_pct: f64,
    rereg_frames: u64,
    unaccounted: i64,
}

/// The shared schedule: warm queries, power-cycle the meta index and
/// every even seller, then the post-churn workload — one area query
/// (needs the meta index's recovered registrations) and one direct URL
/// query (independent of them) per pair.
fn churn_run(pairs: usize, durable: bool) -> ChurnOutcome {
    let mut h = world(pairs, durable);
    for p in 0..pairs {
        h.submit(0, Plan::Urn(UrnRef::new(Urn::area(paired::area(p)))));
        h.run(100_000);
    }
    let warm = h.take_completed();
    assert_eq!(warm.len(), pairs, "warmup stranded a query");
    assert!(
        warm.iter().all(|q| q.failure.is_none()),
        "warmup must complete cleanly in both arms"
    );

    // Power-cycle: meta and every even seller crash...
    let meta_entries_before = h.peer(META).catalog().entries().len();
    h.crash_node(META);
    for p in 0..pairs {
        h.crash_node(2 + 2 * p);
    }
    // ...and restart, the index first so rereg announcements land on a
    // live listener. The message counter delta across the restarts is
    // exactly the rereg traffic.
    let sent_before = h.net.stats().messages_sent;
    h.restart_node(META);
    let meta_recovered = h.peer(META).catalog().entries().len();
    for p in 0..pairs {
        h.restart_node(2 + 2 * p);
    }
    let rereg_frames = h.net.stats().messages_sent - sent_before;
    h.run(100_000); // deliver the reregs

    for p in 0..pairs {
        h.submit(0, Plan::Urn(UrnRef::new(Urn::area(paired::area(p)))));
        h.run(100_000);
        h.submit(0, Plan::url(format!("mqp://seller-{}/", 2 * p + 1)));
        h.run(100_000);
    }
    let post = h.take_completed();
    assert_eq!(post.len(), 2 * pairs, "post-churn stranded a query");
    let ok = post.iter().filter(|q| q.failure.is_none()).count();

    let stats = h.net.stats().clone();
    let accounted = stats.messages_delivered + stats.messages_dropped + stats.messages_lost;
    ChurnOutcome {
        recall_pct: 100.0 * ok as f64 / post.len() as f64,
        meta_recovered_pct: 100.0 * meta_recovered as f64 / meta_entries_before.max(1) as f64,
        rereg_frames,
        unaccounted: stats.messages_sent as i64 - accounted as i64 - h.net.in_flight() as i64,
    }
}

fn main() {
    let golden = golden_scale();

    // --- Phase A ---
    let n_ops = if golden { 60 } else { 900 };
    let stride = if golden { 6 } else { 30 };
    let ops = sweep_ops(n_ops);
    let kill_points = n_ops / stride;
    let (clean_mean, clean_min, clean_ok) = sweep(&ops, stride, KillClass::PostFsync);
    let (torn_mean, torn_min, torn_ok) = sweep(&ops, stride, KillClass::TornTail);
    let (corrupt_mean, corrupt_min, corrupt_ok) = sweep(&ops, stride, KillClass::CorruptRead);
    let prefix_consistent = clean_ok && torn_ok && corrupt_ok;
    let (replay_records, replay_ms) = replay_cost(if golden { 2_000 } else { 50_000 });

    print_table(
        &format!("kill-point sweep: {n_ops} ops, {kill_points} kill points per class"),
        &[
            "fault class",
            "recovered % (mean)",
            "recovered % (min)",
            "prefix-consistent",
        ],
        &[
            vec![
                "post-fsync".into(),
                f2(clean_mean),
                f2(clean_min),
                if clean_ok { "yes" } else { "no" }.into(),
            ],
            vec![
                "torn tail".into(),
                f2(torn_mean),
                f2(torn_min),
                if torn_ok { "yes" } else { "no" }.into(),
            ],
            vec![
                "corrupt read".into(),
                f2(corrupt_mean),
                f2(corrupt_min),
                if corrupt_ok { "yes" } else { "no" }.into(),
            ],
        ],
    );
    println!(
        "\nreplay: {replay_records} WAL records in {} ms",
        fmt_ms(replay_ms)
    );
    // Golden scale's 2 000 records are too few to tell linear from
    // quadratic, so the growth check runs at full scale only.
    let growth = (!golden).then(replay_growth);
    if let Some(g) = growth {
        println!(
            "replay growth: 10x the records cost {}x the time (gate <= 25x)",
            f2(g)
        );
    }

    // --- Phase B ---
    let pairs = if golden { 4 } else { 40 };
    let durable = churn_run(pairs, true);
    let baseline = churn_run(pairs, false);

    print_table(
        &format!(
            "recall under churn: {} peers, meta + {} sellers power-cycled",
            2 + 2 * pairs,
            pairs
        ),
        &["metric", "durable (WAL)", "baseline (no durability)"],
        &[
            vec![
                "post-churn recall %".into(),
                f2(durable.recall_pct),
                f2(baseline.recall_pct),
            ],
            vec![
                "meta bindings recovered %".into(),
                f2(durable.meta_recovered_pct),
                f2(baseline.meta_recovered_pct),
            ],
            vec![
                "rereg frames".into(),
                durable.rereg_frames.to_string(),
                baseline.rereg_frames.to_string(),
            ],
            vec![
                "unaccounted frames".into(),
                durable.unaccounted.to_string(),
                baseline.unaccounted.to_string(),
            ],
        ],
    );
    println!(
        "\nshape check (DESIGN.md §12): post-fsync kills recover every \
         binding; torn and corrupt kills recover an exact prefix — never \
         a blend. Under churn the durable arm's meta index replays its \
         journal and recovered sellers re-announce over rereg frames, so \
         recall returns to 100%; the baseline arm recovers nothing and \
         loses every index-dependent query, with the message accounting \
         identity exact in both arms."
    );

    assert!(clean_mean >= 99.0, "post-fsync recovery below gate");
    assert!(
        (clean_min - 100.0).abs() < f64::EPSILON,
        "post-fsync kill lost a binding"
    );
    assert!(
        prefix_consistent,
        "a recovered catalog was not a prefix replay"
    );
    assert!(
        growth.is_none_or(|g| g <= 25.0),
        "WAL replay grew faster than linearly in records"
    );
    assert_eq!(durable.unaccounted, 0, "durable arm leaked frames");
    assert_eq!(baseline.unaccounted, 0, "baseline arm leaked frames");
    assert!(
        durable.recall_pct >= baseline.recall_pct,
        "durability must not reduce recall"
    );
    assert!(
        durable.rereg_frames > 0,
        "recovered sellers must re-announce"
    );
}
