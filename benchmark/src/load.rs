//! The load generator: one thread, one client, never spinning. It
//! drives any cluster through the same three shapes — closed loop by
//! count, closed loop by time, open loop on a Poisson schedule — and
//! checks every answer against the world's ground truth.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use mqp_algebra::plan::Plan;
use mqp_catalog::CatalogEntry;
use mqp_core::{QueryId, QueryOutcome};
use mqp_net::NodeId;
use mqp_peer::{MqpClient, TcpClient, TcpCluster, ThreadedCluster};

use crate::stats::Rng;
use crate::worlds::{Expect, World};

/// The front-end both drivers offer.
pub trait Client {
    fn submit(&mut self, node: NodeId, plan: &Plan) -> QueryId;
    fn collect(&mut self, n: usize, timeout: Duration) -> Vec<QueryOutcome>;
    fn register(&mut self, node: NodeId, entry: &CatalogEntry) -> bool;
}

/// Fault injection both drivers offer.
pub trait Host {
    fn kill(&self, node: NodeId);
    fn restart(&self, node: NodeId);
}

macro_rules! forward_client {
    ($t:ty) => {
        impl Client for $t {
            fn submit(&mut self, node: NodeId, plan: &Plan) -> QueryId {
                <$t>::submit(self, node, plan)
            }
            fn collect(&mut self, n: usize, timeout: Duration) -> Vec<QueryOutcome> {
                <$t>::collect(self, n, timeout)
            }
            fn register(&mut self, node: NodeId, entry: &CatalogEntry) -> bool {
                <$t>::register(self, node, entry)
            }
        }
    };
}
forward_client!(TcpClient);
forward_client!(MqpClient);

macro_rules! forward_host {
    ($t:ty) => {
        impl Host for $t {
            fn kill(&self, node: NodeId) {
                <$t>::kill(self, node)
            }
            fn restart(&self, node: NodeId) {
                <$t>::restart(self, node)
            }
        }
    };
}
forward_host!(TcpCluster);
forward_host!(ThreadedCluster);

/// Why an outcome is not a correct answer, or `Ok`.
pub fn check(outcome: &QueryOutcome, expect: &Expect) -> Result<(), String> {
    if let Some(reason) = &outcome.failure {
        return Err(format!("failed: {reason}"));
    }
    if outcome.items.len() != expect.items {
        return Err(format!(
            "{} items, expected {}",
            outcome.items.len(),
            expect.items
        ));
    }
    if outcome.audit_clean != Some(true) {
        return Err(format!("audit_clean = {:?}", outcome.audit_clean));
    }
    if expect.hops.is_some_and(|h| h != outcome.hops) {
        return Err(format!("{} hops, expected {:?}", outcome.hops, expect.hops));
    }
    Ok(())
}

/// When a closed loop stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Count(usize),
    For(Duration),
}

/// One phase's load shape.
#[derive(Debug, Clone)]
pub enum Load {
    /// Keep `window` queries in flight; latency runs from the submit.
    /// After each answer the next submit waits a seeded random think
    /// time in `0..=think`: with none, a one-in-flight loop locks onto
    /// the host's sleep-poll rhythm and measures whichever of its modes
    /// it fell into (reg_mix idle read 5.5 or 7.8 ms, run by run).
    Closed {
        window: usize,
        limit: Limit,
        think: Duration,
    },
    /// Submit at the given due times (seconds from phase start)
    /// whatever the system does; latency runs from the *due* time, so
    /// a stall is charged to every query it delays.
    Open { due: Vec<f64> },
}

/// What one phase measured. Latencies are in milliseconds, of correct
/// answers only; a failed, timed-out or wrong answer counts in
/// `failed` and has no latency.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub latency_ms: Vec<f64>,
    /// Latencies of answers that needed a timeout-driven retry (a
    /// subset of `latency_ms`).
    pub retried_ms: Vec<f64>,
    /// How late each submit left the generator, against its due time.
    pub late_ms: Vec<f64>,
    pub submitted: usize,
    pub failed: usize,
    pub elapsed_s: f64,
}

impl Phase {
    pub fn correct(&self) -> usize {
        self.latency_ms.len()
    }
}

struct Pending {
    due: Instant,
    plan: usize,
}

/// A query unanswered this long is counted failed and the phase ends:
/// the slowest thing these workloads do (WAL recovery at 30 000
/// entries) takes a quarter of it.
const STRANDED: Duration = Duration::from_secs(20);

pub struct Generator<'w, C: Client, H: Host> {
    world: &'w World,
    client: C,
    host: &'w H,
    pending: HashMap<QueryId, Pending>,
    /// Submits since churn was switched on.
    churn_index: Option<usize>,
    down: Option<(NodeId, usize)>,
    kills: usize,
    ghosts_sent: usize,
    cycle_pos: usize,
    think: Rng,
    pub attempted: usize,
    pub failed: usize,
    /// The first few reasons, for the report.
    pub failures: Vec<String>,
}

impl<'w, C: Client, H: Host> Generator<'w, C, H> {
    pub fn new(world: &'w World, client: C, host: &'w H, seed: u64) -> Self {
        Generator {
            world,
            client,
            host,
            pending: HashMap::new(),
            churn_index: None,
            down: None,
            kills: 0,
            ghosts_sent: 0,
            cycle_pos: 0,
            think: Rng::stream(seed, 0x7417),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Hands the client back, for the cluster's shutdown.
    pub fn into_client(self) -> C {
        self.client
    }

    /// From the next submit on, the world's churn schedule (if any)
    /// runs, keyed to the submit index.
    pub fn start_churn(&mut self) {
        if self.world.churn.is_some() {
            self.churn_index = Some(0);
        }
    }

    /// Ends churn and brings a downed victim back.
    pub fn stop_churn(&mut self) {
        self.churn_index = None;
        if let Some((victim, _)) = self.down.take() {
            self.host.restart(victim);
        }
    }

    fn churn_tick(&mut self) {
        let (Some(churn), Some(i)) = (&self.world.churn, self.churn_index) else {
            return;
        };
        if self.down.is_some_and(|(_, back_at)| i >= back_at) {
            let (victim, _) = self.down.take().expect("checked");
            self.host.restart(victim);
        }
        if i % churn.every == 0 {
            let victim = churn.victims[self.kills % churn.victims.len()];
            self.host.kill(victim);
            self.down = Some((victim, i + churn.down_for));
            self.kills += 1;
        }
        self.churn_index = Some(i + 1);
    }

    fn note_failure(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    fn submit(&mut self, plan: usize, due: Instant) {
        self.churn_tick();
        let qid = self.client.submit(0, &self.world.plans[plan]);
        self.pending.insert(qid, Pending { due, plan });
        self.attempted += 1;
    }

    /// Folds one outcome into `phase`; false if it belongs to no
    /// pending query (a late duplicate after a retry).
    fn absorb(&mut self, outcome: QueryOutcome, at: Instant, phase: &mut Phase) -> bool {
        let Some(p) = self.pending.remove(&outcome.qid) else {
            return false;
        };
        match check(&outcome, &self.world.expect[p.plan]) {
            Ok(()) => {
                let ms = at.duration_since(p.due).as_secs_f64() * 1e3;
                phase.latency_ms.push(ms);
                if outcome.retries > 0 {
                    phase.retried_ms.push(ms);
                }
            }
            Err(why) => {
                phase.failed += 1;
                self.note_failure(format!("plan {}: {why}", p.plan));
            }
        }
        true
    }

    /// Runs one phase to completion. With `writes` on, the world's
    /// registration stream runs beside the queries, and the late
    /// seller is registered when half the phase's budget is spent.
    pub fn run(&mut self, load: &Load, writes: bool) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        let stream = self.world.writes.as_ref().filter(|_| writes);
        let gap = stream.map(|w| Duration::from_secs_f64(1.0 / w.per_s));
        let mut write_due = start;
        let late_at = match load {
            Load::Closed {
                limit: Limit::For(d),
                ..
            } => *d / 2,
            Load::Open { due } => Duration::from_secs_f64(due.last().copied().unwrap_or(0.0) / 2.0),
            Load::Closed { .. } => Duration::ZERO,
        };
        // When the open loop's `i`-th query falls due.
        let due_at = |i: usize| match load {
            Load::Open { due } => due.get(i).map(|t| start + Duration::from_secs_f64(*t)),
            Load::Closed { .. } => None,
        };
        let mut late_sent = false;
        let mut last_progress = start;
        // Closed loop: no submit before this (think time).
        let mut ready_at = start;
        loop {
            let mut now = Instant::now();
            if let (Some(w), Some(gap)) = (stream, gap) {
                while write_due <= now {
                    let entry = w.ghost(self.ghosts_sent);
                    self.ghosts_sent += 1;
                    assert!(self.client.register(w.target, &entry), "index unreachable");
                    write_due += gap;
                }
                if !late_sent && now.duration_since(start) >= late_at {
                    assert!(self.client.register(w.target, &w.late), "index unreachable");
                    late_sent = true;
                }
            }
            let submitting = loop {
                let due = match load {
                    Load::Closed { window, limit, .. } => {
                        let more = match limit {
                            Limit::Count(n) => phase.submitted < *n,
                            Limit::For(d) => now.duration_since(start) < *d,
                        };
                        if !more {
                            break false;
                        }
                        (self.pending.len() < *window && now >= ready_at).then_some(now)
                    }
                    Load::Open { .. } => {
                        let Some(at) = due_at(phase.submitted) else {
                            break false;
                        };
                        (at <= now).then_some(at)
                    }
                };
                let Some(due) = due else { break true };
                phase
                    .late_ms
                    .push(now.duration_since(due).as_secs_f64() * 1e3);
                let plan = self.world.plan_at(self.cycle_pos);
                self.cycle_pos += 1;
                self.submit(plan, due);
                phase.submitted += 1;
                now = Instant::now();
            };
            if !submitting && self.pending.is_empty() {
                break;
            }
            if now.duration_since(last_progress) > STRANDED {
                let stranded: Vec<usize> = self.pending.drain().map(|(_, p)| p.plan).collect();
                for plan in stranded {
                    phase.failed += 1;
                    self.note_failure(format!("plan {plan}: no answer in {STRANDED:?}"));
                }
                break;
            }
            let mut wait = Duration::from_millis(500);
            if let Some(at) = due_at(phase.submitted) {
                wait = wait.min(at.saturating_duration_since(now));
            }
            if stream.is_some() {
                wait = wait.min(write_due.saturating_duration_since(now));
            }
            if submitting && now < ready_at {
                wait = wait.min(ready_at - now);
            }
            for outcome in self.client.collect(1, wait) {
                let at = Instant::now();
                if self.absorb(outcome, at, &mut phase) {
                    last_progress = at;
                    if let Load::Closed { think, .. } = load {
                        ready_at = at + think.mul_f64(self.think.unit());
                    }
                }
            }
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase
    }

    /// One recovery cycle: kill the pivot, restart it, and time from
    /// the restart call to the first correct answer that passed
    /// through it. `None` (and a counted failure) if that answer never
    /// comes or is wrong.
    pub fn recover_cycle(&mut self, cycle: usize) -> Option<f64> {
        let w = self.world;
        kill_and_wait(self.host, w.pivot);
        let plan = w.probes[cycle % w.probes.len()];
        let t0 = Instant::now();
        self.host.restart(w.pivot);
        self.submit(plan, t0);
        let mut phase = Phase::default();
        let deadline = t0 + STRANDED;
        while phase.correct() + phase.failed == 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.pending.clear();
                self.note_failure(format!("plan {plan}: no answer after restart"));
                return None;
            }
            for outcome in self.client.collect(1, left) {
                self.absorb(outcome, Instant::now(), &mut phase);
            }
        }
        phase.latency_ms.first().map(|ms| ms / 1e3)
    }
}

/// Kills `node` and waits until its thread has certainly seen it (the
/// drivers expose no acknowledgement; a down peer polls its control
/// channel at least every 5 ms).
fn kill_and_wait(host: &impl Host, node: NodeId) {
    host.kill(node);
    std::thread::sleep(Duration::from_millis(30));
}
