//! The in-process hop replay: the workload's queries driven hop by hop
//! through bare `PeerNode`s, no sockets, no threads, nothing waiting.
//! The sans-IO core makes the driver a dozen lines ([`Replay::query`]).
//!
//! Untraced, it gives `peer.node_core_ms_per_query` — the floor under
//! the socket run's idle latency. Traced, it records a span around
//! every `on_message` and, by re-executing each stage on the captured
//! bytes, child spans for what happens inside: frame decode, envelope
//! parse, `Peer::process` and its bind/normalize/compile/eval, envelope
//! and frame encode. The library has no timer seam yet (ROADMAP item
//! 1), so this is the only way to see inside a hop from outside.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use mqp_algebra::codec;
use mqp_algebra::plan::{Plan, UrlRef, UrnRef};
use mqp_core::{rewrite, Mqp, Outcome, QueryId, QueryOutcome, ServerContext};
use mqp_engine::Resolver;
use mqp_net::NodeId;
use mqp_peer::framing::{encode_frame, FrameDecoder, PREFIX};
use mqp_peer::wire::{Frame, MqpFrame, ResultFrame};
use mqp_peer::{Directory, Effect, Peer, PeerNode};
use mqp_xml::canon::Tokenizer;
use mqp_xml::Batch;

use crate::worlds::World;

/// One recorded interval. `replayed` spans were timed by re-executing
/// the stage after the fact and are laid end to end from their
/// parent's start; the others are the real thing.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub qid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replayed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A message between nodes, as the replay saw it.
#[derive(Debug, Clone)]
pub struct Hop {
    pub from: NodeId,
    pub to: NodeId,
    pub bytes: Vec<u8>,
}

/// What `Peer::process` did at a hop, for the `core.process_us.*`
/// split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Step {
    Bind,
    Forward,
    Reduce,
}

#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
    /// Re-executed `Peer::process` durations (ns) by what the step did.
    pub process_ns: BTreeMap<Step, Vec<u64>>,
    epoch: Option<Instant>,
    /// Where the next replayed child of each open parent starts.
    cursor: Vec<(usize, u64)>,
}

impl Tracer {
    /// Room for `spans` spans up front, so recording never reallocates
    /// (and copies megabytes) between two timed calls.
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            spans: Vec::with_capacity(spans),
            ..Tracer::default()
        }
    }

    fn now_ns(&mut self) -> u64 {
        self.epoch
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_nanos() as u64
    }

    /// A real span around `f`.
    fn real<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        qid: u64,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let id = self.open(name, parent, qid);
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.close(id, start_ns, end_ns);
        (id, r)
    }

    /// Opens a real span whose times are not known yet. Stages may be
    /// recorded under it at once — before the real call as well as
    /// after — at offsets from its start; [`Tracer::close`] places them.
    fn open(&mut self, name: &'static str, parent: Option<usize>, qid: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            qid,
            start_ns: 0,
            end_ns: 0,
            replayed: false,
        });
        self.cursor.push((id, 0));
        id
    }

    /// Sets the real span's interval and moves the stages recorded
    /// under it (everything pushed since) to start where it starts.
    fn close(&mut self, id: usize, start_ns: u64, end_ns: u64) {
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = end_ns;
        for s in &mut self.spans[id + 1..] {
            s.start_ns += start_ns;
            s.end_ns += start_ns;
        }
        self.cursor.clear();
    }

    /// Re-executes a stage under `parent`, timing it, and lays it after
    /// its earlier siblings. (Children are recorded after their parent
    /// returns, with the parent's id: `f` cannot borrow the tracer.)
    fn stage<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> (usize, R) {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        let dur = t0.elapsed().as_nanos() as u64;
        let slot = self
            .cursor
            .iter_mut()
            .find(|(id, _)| *id == parent)
            .expect("parent span is open");
        let start_ns = slot.1;
        slot.1 += dur;
        let qid = self.spans[parent].qid;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            qid,
            start_ns,
            end_ns: start_ns + dur,
            replayed: true,
        });
        self.cursor.push((id, start_ns));
        (id, r)
    }

    /// Self time (ns) per span: duration minus what its direct
    /// children cover, floored at zero.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time (ns) per layer — the module name before the first dot
    /// — over the re-executed stages.
    pub fn by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut layers = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if s.replayed {
                let layer = s.name.split('.').next().expect("split yields one");
                *layers.entry(layer).or_insert(0) += own;
            }
        }
        layers
    }

    /// Total duration (ns) of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"qid\":{},\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}",
                s.id, s.name, s.qid, s.start_ns, s.end_ns, s.replayed
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

pub const ON_MESSAGE: &str = "peer.on_message";
const QUERY: &str = "replay.query";

/// What one replayed query produced.
pub struct Replayed {
    pub outcome: QueryOutcome,
    /// Inter-peer frames (acks included, self-sends not) — what
    /// `SocketStats::frames_enqueued` counts.
    pub frames: u64,
    /// Their bytes on a socket, length prefixes included.
    pub wire_bytes: u64,
    /// Σ `on_message` time along the path, ns.
    pub node_ns: u64,
    /// Every message, in delivery order.
    pub hops: Vec<Hop>,
}

pub struct Replay {
    nodes: Vec<PeerNode>,
    epoch: Instant,
    next_qid: u64,
}

/// Lends a peer's local data to the engine, as the processor's own
/// (private) adapter does.
pub struct Local<'a>(pub &'a Peer);

impl Resolver for Local<'_> {
    fn resolve_url(&self, url: &UrlRef) -> Option<Batch> {
        self.0.local_url_data(url)
    }
    fn resolve_urn(&self, _: &UrnRef) -> Option<Batch> {
        None
    }
}

fn evaluable(plan: &Plan, peer: &Peer) -> bool {
    match plan {
        Plan::Data { .. } => true,
        Plan::Url(u) => peer.local_url_data(u).is_some(),
        Plan::Urn(_) | Plan::Or(_) | Plan::Display { .. } => false,
        _ => plan.children().iter().all(|c| evaluable(c, peer)),
    }
}

/// Maximal sub-plans `peer` can evaluate that are not already data —
/// what `Processor::reduce` picks.
pub fn reducible<'p>(plan: &'p Plan, peer: &Peer, out: &mut Vec<&'p Plan>) {
    if evaluable(plan, peer) {
        if !matches!(plan, Plan::Data { .. }) {
            out.push(plan);
        }
        return;
    }
    for c in plan.children() {
        reducible(c, peer, out);
    }
}

impl Replay {
    /// Wraps the world's peers as bare protocol nodes (consumes
    /// `world.peers`).
    pub fn new(world: &mut World) -> Self {
        let peers = std::mem::take(&mut world.peers);
        let directory = Arc::new(Directory::new(
            peers.iter().map(|p| p.id().clone()).collect(),
        ));
        let nodes = peers
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let mut n = PeerNode::new(i, p, Arc::clone(&directory));
                n.set_retry(world.cfg.retry);
                n
            })
            .collect();
        Replay {
            nodes,
            epoch: Instant::now(),
            next_qid: 0,
        }
    }

    pub fn peer(&self, node: NodeId) -> &Peer {
        self.nodes[node].peer()
    }

    pub fn peers(&self) -> impl Iterator<Item = &Peer> {
        self.nodes.iter().map(PeerNode::peer)
    }

    /// Submits `plan` at node 0 through the front-end's `sub` frame and
    /// delivers every message until the outcome is out and the acks
    /// have landed.
    pub fn query(&mut self, plan: &Plan, mut tracer: Option<&mut Tracer>) -> Replayed {
        let qid = QueryId::new(self.next_qid);
        self.next_qid += 1;
        let front = self.nodes.len();
        let submit = Frame::Submit {
            qid,
            plan: Mqp::without_original(plan.clone()).to_wire(),
        };
        let mut queue = VecDeque::from([Hop {
            from: front,
            to: 0,
            bytes: submit.encode(),
        }]);
        let mut r = Replayed {
            outcome: QueryOutcome {
                qid,
                items: Batch::new(),
                failure: Some("replay delivered no outcome".to_owned()),
                latency_us: 0,
                hops: 0,
                mqp_bytes: 0,
                retries: 0,
                audit_clean: None,
            },
            frames: 0,
            wire_bytes: 0,
            node_ns: 0,
            hops: Vec::new(),
        };
        let root = tracer.as_deref_mut().map(|t| {
            let root = t.open(QUERY, None, qid.raw());
            t.spans[root].start_ns = t.now_ns();
            root
        });
        while let Some(hop) = queue.pop_front() {
            let crosses = hop.from != hop.to && hop.from != front;
            if crosses {
                r.frames += 1;
                r.wire_bytes += (PREFIX + hop.bytes.len()) as u64;
            }
            let now = self.epoch.elapsed().as_micros() as u64;
            let effects = match tracer.as_deref_mut() {
                None => {
                    let t0 = Instant::now();
                    let effects = self.nodes[hop.to].on_message(hop.from, &hop.bytes, now);
                    r.node_ns += t0.elapsed().as_nanos() as u64;
                    effects
                }
                Some(t) => {
                    if crosses {
                        t.real("peer.framing", root, qid.raw(), || {
                            frame_round_trip(&hop.bytes)
                        });
                    }
                    // Whichever runs second finds the caches warm, so
                    // the order alternates and the bias cancels.
                    let stages_first = qid.raw() % 2 == 1;
                    let node = &mut self.nodes[hop.to];
                    let span = t.open(ON_MESSAGE, root, qid.raw());
                    if stages_first {
                        stages(t, span, node.peer(), &hop.bytes);
                    }
                    let start_ns = t.now_ns();
                    let effects = node.on_message(hop.from, &hop.bytes, now);
                    let end_ns = t.now_ns();
                    if !stages_first {
                        stages(t, span, node.peer(), &hop.bytes);
                    }
                    t.close(span, start_ns, end_ns);
                    r.node_ns += end_ns - start_ns;
                    effects
                }
            };
            for effect in effects {
                let (to, bytes) = match effect {
                    Effect::Send { to, bytes } => (to, bytes),
                    Effect::Ack { to, qid } => (to, Frame::Ack { qid }.encode()),
                    Effect::Complete(outcome) => {
                        r.outcome = outcome;
                        continue;
                    }
                    _ => continue,
                };
                queue.push_back(Hop {
                    from: hop.to,
                    to,
                    bytes,
                });
            }
            r.hops.push(hop);
        }
        if let (Some(t), Some(root)) = (tracer, root) {
            t.spans[root].end_ns = t.now_ns();
        }
        r
    }
}

/// What the socket host does to every frame besides delivering it:
/// length-prefix it, and reassemble it from two partial reads.
pub fn frame_round_trip(payload: &[u8]) -> usize {
    let framed = encode_frame(payload);
    let mut decoder = FrameDecoder::new();
    let (a, b) = framed.split_at(framed.len() / 2);
    decoder.push(a);
    decoder.push(b);
    decoder
        .next()
        .expect("own framing decodes")
        .expect("whole frame pushed")
        .len()
}

/// Re-executes what `on_message` just did to `bytes` at `peer`, stage
/// by stage through public functions, recording a span for each.
fn stages(t: &mut Tracer, on_message: usize, peer: &Peer, bytes: &[u8]) {
    let (_, frame) = t.stage("peer.wire_decode", on_message, || Frame::decode(bytes));
    match frame.expect("replayed frame decodes") {
        Frame::Mqp(mf) => mqp_stages(t, on_message, peer, mf),
        Frame::Submit { qid, plan } => {
            // As `PeerNode::submit`: wrap in a Display addressed to the
            // client, note the query's area, keep a copy as original.
            let mqp = from_wire_stages(t, on_message, &plan);
            let (_, wrapped) = t.stage("core.submit_wrap", on_message, || {
                let plan = Plan::display(format!("{}#{qid}", peer.id()), mqp.plan().clone());
                let area = plan.urns().iter().find_map(|u| u.urn.as_area().cloned());
                (Mqp::new(plan), area)
            });
            let (_, envelope) = t.stage("core.mqp_to_wire", on_message, || wrapped.0.to_wire());
            t.stage("peer.wire_encode", on_message, || {
                Frame::Mqp(MqpFrame {
                    qid: Some(qid),
                    meter: Default::default(),
                    envelope,
                })
                .encode()
            });
        }
        // What the client does with a result: reparse its items.
        Frame::Result(rf) => {
            t.stage("xml.parse_items", on_message, || {
                mqp_xml::parse(&format!("<results>{}</results>", rf.items))
                    .map(|r| r.child_elements().cloned().collect::<Batch>())
                    .is_ok()
            });
        }
        _ => {}
    }
}

/// `Mqp::from_wire`, with the plan decode and its tokenizer pass
/// re-executed beneath it.
fn from_wire_stages(t: &mut Tracer, parent: usize, envelope: &str) -> Mqp {
    let (span, mqp) = t.stage("core.mqp_from_wire", parent, || Mqp::from_wire(envelope));
    let mqp = mqp.expect("replayed envelope parses");
    let fragment = codec::to_wire(mqp.plan());
    let (decode, _) = t.stage("algebra.plan_decode", span, || codec::from_wire(&fragment));
    t.stage("xml.canon_tokenize", decode, || tokenize(&fragment));
    mqp
}

/// One tokenizer pass; returns the token count.
pub fn tokenize(text: &str) -> usize {
    let mut tok = Tokenizer::new(text);
    let mut n = 0;
    while let Ok(Some(_)) = tok.next_token() {
        n += 1;
    }
    n
}

fn mqp_stages(t: &mut Tracer, on_message: usize, peer: &Peer, mf: MqpFrame) {
    let arrived = from_wire_stages(t, on_message, &mf.envelope);
    let mut mqp = arrived.clone();
    let (process, outcome) = t.stage("core.process", on_message, || peer.process(&mut mqp));

    // Beneath process: its stages on the plan as it arrived.
    let mut plan = arrived.plan().clone();
    let urns: Vec<UrnRef> = plan.urns().into_iter().cloned().collect();
    let (bind, bound) = t.stage("core.bind_urn", process, || {
        // As `Processor::bind_urns`: paths shift after a replacement,
        // so re-find until nothing binds.
        let mut bound = 0;
        while let Some((path, replacement)) = plan
            .find_all(&|p| matches!(p, Plan::Urn(_)))
            .into_iter()
            .find_map(|path| match plan.get(&path) {
                Some(Plan::Urn(u)) => peer.bind_urn(u).map(|(r, _, _)| (path, r)),
                _ => None,
            })
        {
            let _ = plan.replace(&path, replacement);
            bound += 1;
        }
        bound
    });
    if bound > 0 {
        t.stage("catalog.bind_area", bind, || {
            urns.iter()
                .filter_map(|u| u.urn.as_area())
                .map(|a| peer.catalog().bind_area(a).alternatives.len())
                .sum::<usize>()
        });
    }
    t.stage("core.rewrite_normalize", process, || {
        rewrite::normalize(&mut plan)
    });
    let mut subs = Vec::new();
    reducible(&plan, peer, &mut subs);
    for sub in &subs {
        let (_, compiled) = t.stage("engine.compile", process, || mqp_engine::compile(sub));
        t.stage("engine.eval", process, || {
            compiled.eval(&Local(peer)).is_ok()
        });
    }
    let step = if bound > 0 {
        Step::Bind
    } else if subs.is_empty() {
        Step::Forward
    } else {
        Step::Reduce
    };
    let took = t.spans[process].dur_ns();
    t.process_ns.entry(step).or_default().push(took);

    match outcome {
        Outcome::Complete { items, .. } => {
            t.stage("core.audit", on_message, || {
                mqp.original()
                    .map(|o| mqp_core::unaccounted_sources(o, mqp.provenance()).len())
            });
            let (_, xml) = t.stage("xml.serialize_items", on_message, || {
                items.iter().map(mqp_xml::serialize).collect::<String>()
            });
            if let Some(qid) = mf.qid {
                t.stage("peer.wire_encode", on_message, || {
                    Frame::Result(ResultFrame {
                        qid,
                        meter: mf.meter,
                        audit_clean: Some(true),
                        bound_by: None,
                        items: xml,
                    })
                    .encode()
                });
            }
        }
        Outcome::Forward { .. } => {
            let (to_wire, envelope) = t.stage("core.mqp_to_wire", on_message, || mqp.to_wire());
            // An unchanged plan is spliced from the parse cache, not
            // encoded again.
            if mqp.plan() != arrived.plan() {
                t.stage("algebra.plan_encode", to_wire, || {
                    let mut out = String::new();
                    codec::write_plan(mqp.plan(), &mut out);
                    out.len()
                });
            }
            t.stage("peer.wire_encode", on_message, || {
                Frame::Mqp(MqpFrame {
                    qid: mf.qid,
                    meter: mf.meter,
                    envelope,
                })
                .encode()
            });
        }
        Outcome::Stuck { .. } => {}
    }
    // `on_message` also pays for freeing the envelope it parsed.
    t.stage("core.mqp_drop", on_message, move || drop(mqp));
}
