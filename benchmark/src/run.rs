//! One workload's measured run: set-up, then the idle, paced and flood
//! phases and the recovery cycles, on a `TcpCluster` over loopback or —
//! for the per-layer comparison — on a `ThreadedCluster`.
//!
//! A run measures several *instances*: the world is built, spawned and
//! warmed up afresh, measured for its share of the time, and torn
//! down, and every reported value is the median over the instances.
//! The host loop sleep-polls, so a cluster can settle into a faster or
//! a slower rhythm for as long as it lives (README.md, "bistable
//! windows"); a median over instances sees through one odd instance
//! where a longer phase on one instance would not.

use std::time::{Duration, Instant};

use mqp_net::SocketStats;
use mqp_peer::{TcpCluster, ThreadedCluster};

use crate::host;
use crate::load::{Client, Generator, Host, Limit, Load, Phase};
use crate::stats::{median, poisson_schedule};
use crate::worlds::{self, Spec, World};

/// What a run does and for how long.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Cluster instances measured one after the other.
    pub instances: usize,
    /// Per instance. Zero skips the phase.
    pub idle: Duration,
    pub paced: Duration,
    pub flood: Duration,
    /// Whether each instance ends with recovery cycles.
    pub recover: bool,
    /// Traffic-free time after warm-up over which idle CPU is read.
    pub quiet: Duration,
}

impl Budget {
    /// Divides `seconds` over `instances` and, within each, in the
    /// proportion of the issue's 400-query / 10 s / 10 s shape: one
    /// part idle, two paced, two flood.
    pub fn split(seconds: f64, instances: usize) -> Self {
        let part = |share: f64| Duration::from_secs_f64(seconds * share / instances as f64);
        Budget {
            instances,
            idle: part(0.2),
            paced: part(0.4),
            flood: part(0.4),
            recover: false,
            quiet: Duration::ZERO,
        }
    }
}

/// Frames and bytes the transport moved per query between two
/// snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireDelta {
    pub frames: f64,
    pub bytes: f64,
}

/// What one cluster instance measured.
pub struct Instance {
    /// World build + spawn + warm-up.
    pub setup_s: f64,
    pub idle: Phase,
    pub paced: Phase,
    pub flood: Phase,
    /// Process CPU seconds spent during the flood phase.
    pub flood_cpu_s: f64,
    /// Restart → first correct answer through the pivot, per cycle.
    pub recover_s: Vec<f64>,
    /// Process CPU, in percent of one core, while the warmed-up cluster
    /// had no traffic (`Budget::quiet`).
    pub idle_cpu_pct: f64,
    /// Transport work of the idle phase (sockets only).
    pub idle_wire: WireDelta,
    /// Transport totals at shutdown (sockets only).
    pub stats: SocketStats,
}

impl Instance {
    pub fn goodput_qps(&self) -> f64 {
        self.flood.correct() as f64 / self.flood.elapsed_s
    }
}

pub struct Measured {
    pub instances: Vec<Instance>,
    pub attempted: usize,
    pub failed: usize,
    /// The first few reasons, for the report.
    pub failures: Vec<String>,
    /// The transport's frame identity held at every shutdown.
    pub balanced: bool,
}

impl Measured {
    /// The run's value of a metric: the median over its instances.
    pub fn median_of(&self, f: impl Fn(&Instance) -> f64) -> f64 {
        median(&self.instances.iter().map(f).collect::<Vec<_>>())
    }
}

/// Longest think time between two idle-phase queries: as long as the
/// host's longest poll sleep, so every phase of it gets sampled.
const IDLE_THINK: Duration = Duration::from_millis(5);

/// Lets in-flight acks reach the counters before a snapshot.
fn settle() {
    std::thread::sleep(Duration::from_millis(40));
}

/// Warm-up: links dialled, compile caches and the interner filled.
fn warm_up(spec: &Spec) -> Load {
    Load::Closed {
        window: 8,
        limit: Limit::Count(spec.warm_up),
        think: Duration::ZERO,
    }
}

/// The phases of instance `nth`, on whatever cluster `gen` drives.
/// `wire` reads the transport's counters (zeros for the threaded mesh).
fn phases<C: Client, H: Host>(
    gen: &mut Generator<'_, C, H>,
    spec: &Spec,
    seed: u64,
    budget: Budget,
    nth: usize,
    wire: &dyn Fn() -> SocketStats,
) -> Instance {
    let cpu0 = host::cpu_seconds();
    std::thread::sleep(budget.quiet);
    let idle_cpu_pct = if budget.quiet.is_zero() {
        0.0
    } else {
        100.0 * (host::cpu_seconds() - cpu0) / budget.quiet.as_secs_f64()
    };
    gen.start_churn();
    settle();
    let before = wire();
    let idle = gen.run(
        &Load::Closed {
            window: 1,
            limit: Limit::For(budget.idle),
            think: IDLE_THINK,
        },
        false,
    );
    settle();
    let after = wire();
    let n = idle.submitted.max(1) as f64;
    let idle_wire = WireDelta {
        frames: (after.frames_enqueued - before.frames_enqueued) as f64 / n,
        bytes: (after.bytes_sent - before.bytes_sent) as f64 / n,
    };

    let paced = if budget.paced.is_zero() {
        Phase::default()
    } else {
        let count = (spec.paced_qps * budget.paced.as_secs_f64()).round() as usize;
        // Each instance its own arrivals, all from the one seed.
        let due = poisson_schedule(seed.wrapping_add(nth as u64), spec.paced_qps, count);
        gen.run(&Load::Open { due }, true)
    };

    let cpu0 = host::cpu_seconds();
    let flood = gen.run(
        &Load::Closed {
            window: spec.flood_window,
            limit: Limit::For(budget.flood),
            think: Duration::ZERO,
        },
        true,
    );
    let flood_cpu_s = host::cpu_seconds() - cpu0;
    gen.stop_churn();

    // One cycle at least; millisecond-scale ones repeat while they fit
    // in half a second, so their median is not one sample's luck.
    let mut recover_s = Vec::new();
    if budget.recover {
        settle();
        let t0 = Instant::now();
        for cycle in 0..9 {
            if cycle > 0 && t0.elapsed() > Duration::from_millis(500) {
                break;
            }
            recover_s.extend(gen.recover_cycle(nth + cycle));
        }
    }
    Instance {
        setup_s: 0.0,
        idle,
        paced,
        flood,
        flood_cpu_s,
        recover_s,
        idle_cpu_pct,
        idle_wire,
        stats: SocketStats::default(),
    }
}

/// Builds the world `budget.instances` times and measures each on the
/// cluster `spawn` makes of its peers.
fn measure<C: Client, H: Host>(
    spec: &Spec,
    seed: u64,
    budget: Budget,
    spawn: impl Fn(&mut World) -> (H, C),
    wire: impl Fn(&H) -> SocketStats,
    shutdown: impl Fn(H, C) -> SocketStats,
) -> Measured {
    let mut m = Measured {
        instances: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        balanced: true,
    };
    for nth in 0..budget.instances.max(1) {
        let t0 = Instant::now();
        let mut world = worlds::build(spec.name, seed);
        let (cluster, client) = spawn(&mut world);
        let (mut instance, client) = {
            let mut gen = Generator::new(&world, client, &cluster, seed.wrapping_add(nth as u64));
            gen.run(&warm_up(spec), false);
            let setup_s = t0.elapsed().as_secs_f64();
            let mut instance = phases(&mut gen, spec, seed, budget, nth, &|| wire(&cluster));
            instance.setup_s = setup_s;
            m.attempted += gen.attempted;
            m.failed += gen.failed;
            m.failures.append(&mut gen.failures);
            (instance, gen.into_client())
        };
        instance.stats = shutdown(cluster, client);
        m.balanced &= instance.stats.balances(0);
        m.instances.push(instance);
    }
    m.failures.truncate(5);
    m
}

/// The socket run: real TCP over loopback.
pub fn on_sockets(spec: &Spec, seed: u64, budget: Budget) -> Measured {
    measure(
        spec,
        seed,
        budget,
        |world| TcpCluster::with_config(std::mem::take(&mut world.peers), world.cfg.clone()),
        TcpCluster::stats,
        |cluster, mut client| cluster.shutdown(&mut client),
    )
}

/// The same phases on `ThreadedCluster` + `MqpClient` (mpsc mesh,
/// blocking receive): what a perfect socket host could reach with
/// these very `PeerNode`s.
pub fn on_threads(spec: &Spec, seed: u64, budget: Budget) -> Measured {
    measure(
        spec,
        seed,
        budget,
        |world| {
            let peers = std::mem::take(&mut world.peers);
            ThreadedCluster::with_config(peers, world.cfg.retry, Duration::ZERO)
        },
        |_| SocketStats::default(),
        |cluster, client| {
            cluster.shutdown(&client);
            SocketStats::default()
        },
    )
}

/// Round trip of a constant query on a one-peer cluster: socket write,
/// loop wake-up and the outcome channel, with no protocol to speak of.
pub fn tcp_ping_us(samples: usize) -> f64 {
    use mqp_algebra::plan::Plan;
    use mqp_namespace::Namespace;
    let solo = mqp_peer::Peer::new("solo", Namespace::new([]));
    let (cluster, mut client) = TcpCluster::new(vec![solo]);
    let plan = Plan::data([mqp_xml::Element::new("pong")]);
    let mut us = Vec::with_capacity(samples);
    for i in 0..samples + 20 {
        let t0 = Instant::now();
        client.submit(0, &plan);
        let got = client.collect(1, Duration::from_secs(10));
        assert_eq!(got.len(), 1, "ping lost");
        if i >= 20 {
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    cluster.shutdown(&mut client);
    median(&us)
}
