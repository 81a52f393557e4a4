//! Crash-consistent persistence for the catalog (DESIGN.md §12).
//!
//! A peer's registrations are the only state it cannot recompute after
//! a crash: its own data collections come back from disk, but what it
//! *knew about the federation* — and, for index/meta-index servers,
//! what the federation registered *with it* — is gone unless it was
//! journaled. This module is that journal:
//!
//! * an append-only **WAL** of [`CatalogOp`] records, each framed as
//!   `u32be len | u32be crc32 | payload` — the same length-prefix
//!   grammar discipline as the socket framing in `mqp_peer::framing`,
//!   plus a checksum because a disk tail (unlike a TCP stream) can be
//!   torn mid-record by a crash;
//! * **compacted snapshots**: [`Catalog::snapshot_ops`] re-expressed as
//!   the same record grammar, written atomically, after which the WAL
//!   restarts empty. A snapshot is written once the WAL has grown as
//!   long as the last snapshot (and holds at least `snapshot_every`
//!   records), so compaction costs amortised O(1) per logged byte and
//!   the live WAL stays about one snapshot long;
//! * a **recovery** routine that replays snapshot-then-WAL and, on the
//!   first torn or corrupt record, *truncates* instead of poisoning:
//!   the recovered catalog is always the replay of some prefix of what
//!   was logged (the prefix-consistency invariant, property-tested
//!   below). Only a replay that stopped early rewrites the snapshot, so
//!   the damage is physically gone; a clean replay leaves the disk as
//!   it found it. Contrast `FrameDecoder`, which poisons on a corrupt
//!   length — a live TCP stream has a peer to disconnect; a WAL tail
//!   has nothing to blame but the crash that tore it. A recovery
//!   decodes each distinct area text once: a memo, kept for that one
//!   recovery, maps an area line to its decoded area, and every entry
//!   registered with that line shares the area's cells.
//!
//! Because every catalog mutation is idempotent (register merges by
//! `(server, level)`, `map_urn` and `add_statement` dedup, unregister
//! retains), a snapshot followed by a *stale* WAL replays to the same
//! catalog as the full log — so a crash landing between snapshot commit
//! and WAL truncate is harmless. That window is exactly the kind of
//! kill point [`FaultyDisk`] exists to exercise deterministically.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mqp_namespace::urn::{decode_area, UrnError};
use mqp_namespace::InterestArea;
use mqp_net::{splitmix64, DiskFaults, Retrier};

use crate::entry::{parse_flag, CatalogEntry, ServerId};
use crate::intension::IntensionalStatement;
use crate::store::Catalog;
use crate::trust::TrustRecord;

// ----------------------------------------------------------------------
// CRC32 (IEEE, reflected) — one table lookup per byte: every record is
// checksummed when written and again at every recovery, and a compacted
// snapshot of a 30 000-entry index is ~1.4 MB of records.
// ----------------------------------------------------------------------

/// Entry `i` is the CRC register after shifting byte `i` through eight
/// rounds of the reflected polynomial `0xEDB8_8320`.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut round = 0;
        while round < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            round += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32/ISO-HDLC of `bytes` (the common zlib/PNG polynomial).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ----------------------------------------------------------------------
// The op grammar
// ----------------------------------------------------------------------

/// One durable catalog mutation. The text codec is a space-separated
/// header line carrying the enum tags and flags, then one field per
/// line; `reg` is the `reg` wire frame's own text
/// ([`CatalogEntry::to_wire`]). Every op is idempotent under replay —
/// the property compaction and crash-in-compaction safety both lean on.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogOp {
    /// Register (or refresh) an entry — the dominant record.
    Register(CatalogEntry),
    /// Drop every entry a server registered.
    Unregister(ServerId),
    /// Map a named URN to a server (+ optional collection id).
    MapUrn {
        /// The named URN, e.g. `urn:ForSale:Portland-CDs`.
        urn: String,
        /// The server it resolves to.
        server: ServerId,
        /// Optional collection id at that server.
        collection: Option<String>,
    },
    /// Retain an intensional statement.
    Statement(IntensionalStatement),
    /// Record a trust transition (DESIGN.md §14): the server's full
    /// provenance aggregate, journaled whenever its level changes so a
    /// quarantined hijacker cannot launder its binding through
    /// crash/rejoin. Replay merges commutatively (`TrustBook::install`),
    /// so the op is idempotent like every other record.
    Trust(TrustRecord),
}

fn flag(b: bool) -> u8 {
    u8::from(b)
}

/// Errs if a header holds a word past its op's own fields.
fn end_of_header<'a>(mut words: impl Iterator<Item = &'a str>, op: &str) -> Result<(), String> {
    match words.next() {
        None => Ok(()),
        Some(_) => Err(format!("{op}: trailing header field")),
    }
}

impl CatalogOp {
    /// Encodes the op as the WAL's text payload.
    pub(crate) fn encode(&self) -> String {
        match self {
            CatalogOp::Register(e) => {
                let mut s = e.to_wire();
                // The record keeps its length: without a collection the
                // entry's empty last line is left off (and read back as
                // absent), so seeded fault offsets into a log stay put.
                if e.collection.is_none() {
                    s.pop();
                }
                s
            }
            CatalogOp::Unregister(server) => format!("unreg\n{}", server.as_str()),
            CatalogOp::MapUrn {
                urn,
                server,
                collection,
            } => {
                let mut s = format!(
                    "urn {}\n{}\n{}",
                    flag(collection.is_some()),
                    urn,
                    server.as_str()
                );
                if let Some(c) = collection {
                    s.push('\n');
                    s.push_str(c);
                }
                s
            }
            CatalogOp::Statement(stmt) => format!("stmt\n{stmt}"),
            CatalogOp::Trust(r) => {
                let mut s = format!(
                    "trust {} {} {} {} {} {} {} {} {}\n{}",
                    r.registrar,
                    r.first_seen,
                    r.last_seen,
                    r.registrations,
                    r.strikes,
                    r.clears,
                    r.stale_marks,
                    r.last_strike_at,
                    r.areas.len(),
                    r.server.as_str(),
                );
                for area in &r.areas {
                    s.push('\n');
                    s.push_str(area);
                }
                s
            }
        }
    }

    /// Decodes a WAL payload, reading a `reg` record's area line with
    /// `area` (see [`CatalogEntry::from_wire`]). Anything the encoder
    /// never writes is refused: a word past the header's fields, a
    /// server line that spans lines, a line past the record's last
    /// field. Errors name the field that failed — a decode error
    /// truncates recovery at that record, so the message ends up in
    /// operator-facing reports.
    pub(crate) fn decode<'a>(
        payload: &'a str,
        area: impl FnOnce(&'a str) -> Result<InterestArea, UrnError>,
    ) -> Result<CatalogOp, String> {
        let (head, rest) = payload.split_once('\n').unwrap_or((payload, ""));
        let mut words = head.split(' ');
        match words.next() {
            Some("reg") => CatalogEntry::from_wire(payload, area).map(CatalogOp::Register),
            Some("unreg") => {
                end_of_header(words, "unreg")?;
                match rest {
                    "" => Err("unreg: missing server".into()),
                    s if s.contains('\n') => Err("unreg: line past the server".into()),
                    s => Ok(CatalogOp::Unregister(ServerId::new(s))),
                }
            }
            Some("urn") => {
                let has_collection = parse_flag(words.next().ok_or("urn: missing coll flag")?)?;
                end_of_header(words, "urn")?;
                let mut lines = rest.splitn(3, '\n');
                let urn = match lines.next() {
                    Some(s) if !s.is_empty() => s.to_owned(),
                    _ => return Err("urn: missing urn".into()),
                };
                let server = match lines.next() {
                    Some(s) if !s.is_empty() => ServerId::new(s),
                    _ => return Err("urn: missing server".into()),
                };
                let collection = match (has_collection, lines.next()) {
                    (true, Some(c)) => Some(c.to_owned()),
                    (true, None) => return Err("urn: missing collection".into()),
                    (false, None) => None,
                    (false, Some(_)) => return Err("urn: unflagged collection".into()),
                };
                Ok(CatalogOp::MapUrn {
                    urn,
                    server,
                    collection,
                })
            }
            Some("stmt") => {
                end_of_header(words, "stmt")?;
                rest.parse::<IntensionalStatement>()
                    .map(CatalogOp::Statement)
                    .map_err(|e| format!("stmt: {e}"))
            }
            Some("trust") => {
                let mut num = || -> Result<u64, String> {
                    words
                        .next()
                        .ok_or("trust: missing field")?
                        .parse::<u64>()
                        .map_err(|e| format!("trust: {e}"))
                };
                let registrar = num()?;
                let first_seen = num()?;
                let last_seen = num()?;
                let registrations = num()?;
                let strikes = num()?;
                let clears = num()?;
                let stale_marks = num()?;
                let last_strike_at = num()?;
                let n_areas = num()?;
                end_of_header(words, "trust")?;
                let mut lines = rest.split('\n');
                let server = match lines.next() {
                    Some(s) if !s.is_empty() => ServerId::new(s),
                    _ => return Err("trust: missing server".into()),
                };
                // Counted against the lines present, never reserved from
                // the header's count.
                let mut areas: Vec<String> = lines.map(str::to_owned).collect();
                if (areas.len() as u64) < n_areas {
                    return Err("trust: missing area".into());
                }
                if (areas.len() as u64) > n_areas {
                    return Err("trust: line past its areas".into());
                }
                areas.sort();
                areas.dedup();
                Ok(CatalogOp::Trust(TrustRecord {
                    server,
                    registrar,
                    first_seen,
                    last_seen,
                    registrations,
                    strikes,
                    clears,
                    stale_marks,
                    last_strike_at,
                    areas,
                }))
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Replays the op into a catalog, moving its content in.
    pub fn apply(self, catalog: &mut Catalog) {
        match self {
            CatalogOp::Register(e) => catalog.register(e),
            CatalogOp::Unregister(s) => catalog.unregister(&s),
            CatalogOp::MapUrn {
                urn,
                server,
                collection,
            } => catalog.map_urn(&urn, server, collection),
            CatalogOp::Statement(stmt) => catalog.add_statement(stmt),
            CatalogOp::Trust(r) => catalog.trust_mut().install(r),
        }
    }
}

// ----------------------------------------------------------------------
// Record framing: u32be len | u32be crc32 | payload
// ----------------------------------------------------------------------

/// Sanity cap on a single record; anything larger is treated as a torn
/// length, not a giant allocation (`mqp_peer::framing` makes the same
/// move with `MAX_FRAME`).
const MAX_RECORD: usize = 1 << 20;
/// Bytes of framing per record (length + checksum).
const HEADER: usize = 8;

/// Appends one framed record to `out`.
fn append_record(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        !payload.is_empty() && payload.len() <= MAX_RECORD,
        "record payload must be 1..={MAX_RECORD} bytes"
    );
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Scans a log image into `(offset, payload)` records, stopping at the
/// first record that is torn (header or payload runs past the end),
/// implausible (zero or oversized length), or checksum-corrupt. Returns
/// the records before the damage and the byte offset where scanning
/// stopped (`None` = the whole image parsed cleanly).
fn scan_records(bytes: &[u8]) -> (Vec<(usize, &[u8])>, Option<usize>) {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        if bytes.len() - pos < HEADER {
            return (out, Some(pos));
        }
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_be_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len == 0 || len > MAX_RECORD || bytes.len() - pos - HEADER < len {
            return (out, Some(pos));
        }
        let payload = &bytes[pos + HEADER..pos + HEADER + len];
        if crc32(payload) != crc {
            return (out, Some(pos));
        }
        out.push((pos, payload));
        pos += HEADER + len;
    }
    (out, None)
}

/// Decoded areas by their text, borrowed from the images one recovery
/// replays (see [`replay_records`]).
type AreaMemo<'a> = HashMap<&'a str, InterestArea>;

/// Replays a log image into `catalog`, stopping at the first torn,
/// corrupt or undecodable record. Returns the records applied and the
/// byte offset where replay stopped (`None` = the whole image replayed).
///
/// A log repeats few distinct area texts (`reg_mix`'s 30 000 ghosts
/// carry 441), so a recovery decodes each one once: `areas` maps an
/// area line to its decoded area, and every record with that line
/// shares it. Only an area that decoded enters the map, so an
/// undecodable record stops replay where it would without the map.
fn replay_records<'a>(
    bytes: &'a [u8],
    catalog: &mut Catalog,
    areas: &mut AreaMemo<'a>,
) -> (usize, Option<usize>) {
    let (records, torn_at) = scan_records(bytes);
    catalog.reserve(records.len());
    for (applied, &(offset, payload)) in records.iter().enumerate() {
        let op = std::str::from_utf8(payload)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                CatalogOp::decode(text, |line| match areas.entry(line) {
                    Entry::Occupied(known) => Ok(known.get().clone()),
                    Entry::Vacant(new) => Ok(new.insert(decode_area(line)?).clone()),
                })
            });
        match op {
            Ok(op) => op.apply(catalog),
            // CRC-clean but undecodable: same truncation rule.
            Err(_) => return (applied, Some(offset)),
        }
    }
    (records.len(), torn_at)
}

// ----------------------------------------------------------------------
// The disk abstraction and its shims
// ----------------------------------------------------------------------

/// A disk operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// fsync failed transiently — retried by the WAL's [`Retrier`].
    SyncFailed,
    /// Any other I/O failure.
    Io(String),
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::SyncFailed => f.write_str("fsync failed"),
            DiskError::Io(msg) => write!(f, "disk i/o: {msg}"),
        }
    }
}

impl std::error::Error for DiskError {}

/// What the durable catalog needs from storage: an appendable WAL with
/// an explicit sync barrier, an atomically-replaced snapshot, and a
/// crash operation that models power loss (everything unsynced may be
/// lost, possibly mid-record).
pub trait Disk: fmt::Debug + Send {
    /// The current WAL image, including unsynced bytes (a live reader
    /// sees its own writes; only a crash discards them).
    fn wal_read(&mut self) -> Result<Vec<u8>, DiskError>;
    /// Appends bytes to the WAL (not durable until [`Disk::sync`]).
    fn wal_append(&mut self, bytes: &[u8]) -> Result<(), DiskError>;
    /// Empties the WAL (the post-snapshot compaction step).
    fn wal_truncate(&mut self) -> Result<(), DiskError>;
    /// Makes all appended WAL bytes crash-durable.
    fn sync(&mut self) -> Result<(), DiskError>;
    /// The current snapshot, if one was ever written.
    fn snapshot_read(&mut self) -> Result<Option<Vec<u8>>, DiskError>;
    /// Atomically replaces the snapshot (the temp-file + rename model:
    /// after this returns, a crash sees the new image, never a blend).
    fn snapshot_write(&mut self, bytes: &[u8]) -> Result<(), DiskError>;
    /// Simulated power loss: unsynced WAL bytes vanish (shims may keep
    /// a torn prefix of them).
    fn crash(&mut self);
}

/// The plain in-memory disk: a WAL byte vector with a synced-watermark,
/// plus a snapshot slot. Crash truncates the WAL to the watermark —
/// clean loss, never torn.
#[derive(Debug, Default)]
pub struct MemDisk {
    wal: Vec<u8>,
    /// `wal[..synced]` survives a crash.
    synced: usize,
    snapshot: Option<Vec<u8>>,
}

impl MemDisk {
    /// An empty disk.
    pub fn new() -> Self {
        MemDisk::default()
    }
}

impl Disk for MemDisk {
    fn wal_read(&mut self) -> Result<Vec<u8>, DiskError> {
        Ok(self.wal.clone())
    }

    fn wal_append(&mut self, bytes: &[u8]) -> Result<(), DiskError> {
        self.wal.extend_from_slice(bytes);
        Ok(())
    }

    fn wal_truncate(&mut self) -> Result<(), DiskError> {
        self.wal.clear();
        self.synced = 0;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), DiskError> {
        self.synced = self.wal.len();
        Ok(())
    }

    fn snapshot_read(&mut self) -> Result<Option<Vec<u8>>, DiskError> {
        Ok(self.snapshot.clone())
    }

    fn snapshot_write(&mut self, bytes: &[u8]) -> Result<(), DiskError> {
        self.snapshot = Some(bytes.to_vec());
        Ok(())
    }

    fn crash(&mut self) {
        self.wal.truncate(self.synced);
    }
}

/// The no-durability baseline: accepts every write, persists nothing.
/// Recovery always yields an empty catalog. `exp_crash_recovery` runs
/// this arm through the *identical* code path as the durable arms, so
/// the recall gap it reports is attributable to the WAL alone.
#[derive(Debug, Default)]
pub struct NullDisk;

impl Disk for NullDisk {
    fn wal_read(&mut self) -> Result<Vec<u8>, DiskError> {
        Ok(Vec::new())
    }

    fn wal_append(&mut self, _bytes: &[u8]) -> Result<(), DiskError> {
        Ok(())
    }

    fn wal_truncate(&mut self) -> Result<(), DiskError> {
        Ok(())
    }

    fn sync(&mut self) -> Result<(), DiskError> {
        Ok(())
    }

    fn snapshot_read(&mut self) -> Result<Option<Vec<u8>>, DiskError> {
        Ok(None)
    }

    fn snapshot_write(&mut self, _bytes: &[u8]) -> Result<(), DiskError> {
        Ok(())
    }

    fn crash(&mut self) {}
}

/// A [`MemDisk`] wrapped in seeded fault injection, configured by the
/// fault plan's [`DiskFaults`] knobs:
///
/// * `torn_tail` — a crash keeps a seeded *prefix* of the unsynced tail
///   instead of dropping it whole, leaving a mid-record tear for
///   recovery to truncate;
/// * `corrupt_read` — each WAL read-back flips one seeded byte in the
///   returned copy (the underlying bytes stay intact), modelling media
///   rot between write and replay;
/// * `sync_fail_period` — every Nth fsync fails transiently, exercising
///   the [`Retrier`] path.
///
/// All draws are splitmix64 off the seed and a per-operation counter:
/// same seed, same op sequence ⇒ same faults, which is what makes
/// recovery property-testable and the experiment golden-checkable.
#[derive(Debug)]
pub struct FaultyDisk {
    mem: MemDisk,
    cfg: DiskFaults,
    syncs: u64,
    reads: u64,
    crashes: u64,
}

impl FaultyDisk {
    /// Wraps a fresh [`MemDisk`] in the given fault knobs.
    pub fn new(cfg: DiskFaults) -> Self {
        FaultyDisk {
            mem: MemDisk::new(),
            cfg,
            syncs: 0,
            reads: 0,
            crashes: 0,
        }
    }
}

impl Disk for FaultyDisk {
    fn wal_read(&mut self) -> Result<Vec<u8>, DiskError> {
        self.reads += 1;
        let mut data = self.mem.wal_read()?;
        if self.cfg.corrupt_read && !data.is_empty() {
            let i = (splitmix64(self.cfg.seed ^ (self.reads << 16)) as usize) % data.len();
            data[i] ^= 0x40;
        }
        Ok(data)
    }

    fn wal_append(&mut self, bytes: &[u8]) -> Result<(), DiskError> {
        self.mem.wal_append(bytes)
    }

    fn wal_truncate(&mut self) -> Result<(), DiskError> {
        self.mem.wal_truncate()
    }

    fn sync(&mut self) -> Result<(), DiskError> {
        self.syncs += 1;
        if self.cfg.sync_fail_period > 0 && self.syncs.is_multiple_of(self.cfg.sync_fail_period) {
            return Err(DiskError::SyncFailed);
        }
        self.mem.sync()
    }

    fn snapshot_read(&mut self) -> Result<Option<Vec<u8>>, DiskError> {
        self.mem.snapshot_read()
    }

    fn snapshot_write(&mut self, bytes: &[u8]) -> Result<(), DiskError> {
        self.mem.snapshot_write(bytes)
    }

    fn crash(&mut self) {
        self.crashes += 1;
        let tail = self.mem.wal.len() - self.mem.synced;
        if self.cfg.torn_tail && tail > 0 {
            // Keep a strict prefix of the unsynced tail: 0..tail-1 bytes.
            let keep = (splitmix64(self.cfg.seed ^ (self.crashes << 32)) as usize) % tail;
            self.mem.wal.truncate(self.mem.synced + keep);
            self.mem.synced = self.mem.wal.len().min(self.mem.synced);
        } else {
            self.mem.crash();
        }
    }
}

/// A cloneable handle to a [`Disk`]: the durable catalog inside a peer
/// and the test/experiment harness observing it share the same storage.
#[derive(Clone)]
pub struct SharedDisk(Arc<Mutex<dyn Disk>>);

impl fmt::Debug for SharedDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.lock() {
            Ok(d) => write!(f, "SharedDisk({d:?})"),
            Err(_) => f.write_str("SharedDisk(<poisoned>)"),
        }
    }
}

impl SharedDisk {
    /// Wraps a disk in a shared handle.
    pub fn new(disk: impl Disk + 'static) -> Self {
        SharedDisk(Arc::new(Mutex::new(disk)))
    }

    /// Runs `f` with exclusive access to the disk. A poisoned lock is
    /// recovered — the disk models hardware, and hardware does not care
    /// that some thread panicked while holding the handle.
    pub fn with<R>(&self, f: impl FnOnce(&mut dyn Disk) -> R) -> R {
        let mut guard = self.0.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut *guard)
    }
}

// ----------------------------------------------------------------------
// The durable catalog
// ----------------------------------------------------------------------

/// What recovery found and did: how much of the snapshot and WAL
/// replayed, where a torn tail cut replay short, and what survived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records replayed from the snapshot.
    pub snapshot_records: usize,
    /// Records replayed from the WAL tail.
    pub wal_records: usize,
    /// Byte offset in the WAL where replay stopped on a torn/corrupt
    /// record (`None` = the whole WAL parsed cleanly).
    pub(crate) truncated_at: Option<usize>,
    /// WAL bytes discarded past the truncation point.
    pub(crate) dropped_bytes: usize,
    /// Catalog entries alive after recovery.
    pub entries: usize,
}

/// Write-path counters for the durable catalog.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Records appended to the WAL.
    pub(crate) records_appended: u64,
    /// Successful sync barriers.
    pub(crate) syncs: u64,
    /// Transient sync failures absorbed by the retrier.
    pub(crate) sync_retries: u64,
    /// Snapshots written (compactions).
    pub(crate) snapshots: u64,
}

/// Deterministic jitter seed for the WAL fsync retrier.
const WAL_RETRY_SEED: u64 = 0xD15C_FA17;

/// The crash-consistent catalog journal: log ops as they happen,
/// compact once the WAL has grown as long as the snapshot, recover
/// after a crash.
///
/// Cloning shares the underlying [`SharedDisk`] — a clone is "the same
/// peer's disk seen from elsewhere", which is exactly what a restart
/// needs (the restarted peer recovers from the disk the dead
/// incarnation wrote).
#[derive(Debug, Clone)]
pub struct DurableCatalog {
    disk: SharedDisk,
    /// Fewest WAL records between snapshots (0 = never compact).
    snapshot_every: usize,
    /// WAL records and bytes logged since the last snapshot.
    since_snapshot: usize,
    wal_bytes: usize,
    /// Byte length of the last snapshot: the WAL may grow this long
    /// before the next one.
    snapshot_bytes: usize,
    /// Sync once per this many logged ops (1 = every op). Larger values
    /// widen the crash-before-fsync window — deliberately, for the
    /// kill-point sweep.
    sync_every: usize,
    since_sync: usize,
    retry: Retrier,
    stats: DurableStats,
}

impl DurableCatalog {
    /// A durable catalog over `disk`: sync every op, compact once the
    /// WAL is as long as the snapshot and at least 64 records, fsync
    /// retries paced 20µs→2ms with an 8-attempt budget.
    pub fn new(disk: SharedDisk) -> Self {
        DurableCatalog {
            disk,
            snapshot_every: 64,
            since_snapshot: 0,
            wal_bytes: 0,
            snapshot_bytes: 0,
            sync_every: 1,
            since_sync: 0,
            retry: Retrier::new(
                Duration::from_micros(20),
                Duration::from_millis(2),
                WAL_RETRY_SEED,
                8,
            ),
            stats: DurableStats::default(),
        }
    }

    /// Sets the fewest WAL records between snapshots (0 = never
    /// compact).
    pub fn with_snapshot_every(mut self, every: usize) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Sets the sync cadence: barrier once per `every` logged ops
    /// (clamped to ≥ 1). Values above 1 leave a crash-before-fsync
    /// window of up to `every - 1` records.
    pub fn with_sync_every(mut self, every: usize) -> Self {
        self.sync_every = every.max(1);
        self
    }

    /// Write-path counters.
    pub fn stats(&self) -> DurableStats {
        self.stats
    }

    /// Journals one op: append, then sync if the cadence says so.
    pub fn log(&mut self, op: &CatalogOp) -> Result<(), DiskError> {
        let mut rec = Vec::new();
        append_record(&mut rec, op.encode().as_bytes());
        self.disk.with(|d| d.wal_append(&rec))?;
        self.stats.records_appended += 1;
        self.since_snapshot += 1;
        self.wal_bytes += rec.len();
        self.since_sync += 1;
        if self.since_sync >= self.sync_every {
            self.barrier()?;
        }
        Ok(())
    }

    /// Forces a sync barrier regardless of cadence.
    pub fn flush(&mut self) -> Result<(), DiskError> {
        if self.since_sync > 0 {
            self.barrier()?;
        }
        Ok(())
    }

    /// The fsync with retry pacing — the same [`Retrier`] the TCP
    /// driver uses for link reconnects.
    fn barrier(&mut self) -> Result<(), DiskError> {
        let disk = self.disk.clone();
        let mut attempts = 0u64;
        let r = self.retry.run_blocking(|| {
            attempts += 1;
            disk.with(|d| d.sync())
        });
        self.stats.sync_retries += attempts.saturating_sub(1);
        if r.is_ok() {
            self.stats.syncs += 1;
            self.since_sync = 0;
        }
        r
    }

    /// Seeds the journal with a catalog's current content: writes it as
    /// the snapshot and starts the WAL empty. Called once when a peer
    /// turns durability on with state already in hand.
    pub fn seed(&mut self, catalog: &Catalog) -> Result<(), DiskError> {
        self.compact(catalog)
    }

    /// Compacts once the WAL logged since the last snapshot is at least
    /// as long as that snapshot and holds at least `snapshot_every`
    /// records. Each snapshot is then paid for by as many logged bytes
    /// as it writes. Returns whether a snapshot was written.
    pub fn maybe_compact(&mut self, catalog: &Catalog) -> Result<bool, DiskError> {
        if self.snapshot_every == 0
            || self.since_snapshot < self.snapshot_every
            || self.wal_bytes < self.snapshot_bytes
        {
            return Ok(false);
        }
        self.compact(catalog)?;
        Ok(true)
    }

    /// Writes `catalog` as the snapshot, then truncates the WAL. A
    /// crash between the two steps leaves snapshot + stale WAL — safe,
    /// because replaying the stale ops over the snapshot is idempotent
    /// (property-tested below).
    pub fn compact(&mut self, catalog: &Catalog) -> Result<(), DiskError> {
        let mut snap = Vec::new();
        for op in catalog.snapshot_ops() {
            append_record(&mut snap, op.encode().as_bytes());
        }
        self.disk.with(|d| d.snapshot_write(&snap))?;
        self.disk.with(|d| d.wal_truncate())?;
        self.since_sync = 0;
        self.stats.snapshots += 1;
        self.since_snapshot = 0;
        self.wal_bytes = 0;
        self.snapshot_bytes = snap.len();
        Ok(())
    }

    /// Simulated power loss on the underlying disk. The WAL counters
    /// are left to [`DurableCatalog::recover`], which reads them back
    /// from what survived.
    pub fn crash(&mut self) {
        self.disk.with(|d| d.crash());
        self.since_sync = 0;
    }

    /// Recovers the catalog: replay the snapshot, then the WAL,
    /// truncating at the first torn/corrupt/undecodable record. The
    /// result is always the replay of a prefix of what was logged.
    /// A replay that stopped early, in the snapshot or the WAL, ends
    /// with a compaction, so the damaged tail is physically gone and
    /// cannot resurrect on a later recovery. A clean replay leaves the
    /// disk untouched and resumes the WAL counters from what it read.
    pub fn recover(&mut self) -> Result<(Catalog, RecoveryReport), DiskError> {
        let snap = self.disk.with(|d| d.snapshot_read())?;
        let wal = self.disk.with(|d| d.wal_read())?;
        let mut catalog = Catalog::new();
        let mut areas = AreaMemo::new();
        let (snapshot_records, snapshot_stop) = snap
            .as_deref()
            .map_or((0, None), |s| replay_records(s, &mut catalog, &mut areas));
        let (wal_records, wal_stop) = replay_records(&wal, &mut catalog, &mut areas);
        let report = RecoveryReport {
            snapshot_records,
            wal_records,
            truncated_at: wal_stop,
            dropped_bytes: wal_stop.map_or(0, |at| wal.len() - at),
            entries: catalog.entries().len(),
        };
        if snapshot_stop.is_some() || wal_stop.is_some() {
            self.compact(&catalog)?;
        } else {
            self.since_snapshot = wal_records;
            self.wal_bytes = wal.len();
            self.snapshot_bytes = snap.map_or(0, |s| s.len());
        }
        Ok((catalog, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_namespace::urn::encode_area;

    fn area(cells: &[&[&str]]) -> InterestArea {
        InterestArea::parse(cells)
    }

    fn reg(server: &str, cell: &[&str]) -> CatalogOp {
        CatalogOp::Register(CatalogEntry::base(server, area(&[cell])))
    }

    /// A varied op sequence: registrations at every level, flags on and
    /// off, URN mappings, statements, an unregister.
    fn sample_ops() -> Vec<CatalogOp> {
        vec![
            reg("seller-1", &["Oregon/Portland", "Recreation"]),
            CatalogOp::Register(
                CatalogEntry::base("seller-2", area(&[&["Oregon", "Music/CDs"]]))
                    .with_collection("/data[@id='245']"),
            ),
            CatalogOp::Register(
                CatalogEntry::index("idx-pdx", area(&[&["Oregon/Portland", "*"]])).authoritative(),
            ),
            CatalogOp::Register(CatalogEntry::meta_index("meta", area(&[&["*", "*"]]))),
            CatalogOp::MapUrn {
                urn: "urn:ForSale:Portland-CDs".to_owned(),
                server: ServerId::new("seller-2"),
                collection: Some("/data[@id='245']".to_owned()),
            },
            CatalogOp::MapUrn {
                urn: "urn:ForSale:Anything".to_owned(),
                server: ServerId::new("seller-1"),
                collection: None,
            },
            CatalogOp::Statement(
                "base[Oregon.Portland, Recreation]@seller-1 = \
                 base[Oregon.Portland, Recreation]@seller-2"
                    .parse()
                    .unwrap(),
            ),
            CatalogOp::Unregister(ServerId::new("seller-1")),
            reg("seller-1", &["Oregon/Portland", "Recreation/SportingGoods"]),
            CatalogOp::Trust(TrustRecord {
                server: ServerId::new("hijack-7"),
                registrar: 3,
                first_seen: 10,
                last_seen: 400,
                registrations: 5,
                strikes: 2,
                clears: 1,
                stale_marks: 0,
                last_strike_at: 400,
                areas: vec![encode_area(&area(&[&["Oregon/Portland", "Recreation"]]))],
            }),
        ]
    }

    fn replay(ops: &[CatalogOp]) -> Catalog {
        let mut c = Catalog::new();
        for op in ops {
            op.clone().apply(&mut c);
        }
        c
    }

    /// Canonical comparable digest of a catalog's durable content.
    fn digest(c: &Catalog) -> Vec<CatalogOp> {
        c.snapshot_ops()
    }

    /// The bitwise CRC the table is built from: the reference the
    /// table-driven `crc32` must match on every input.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn op_codec_roundtrips() {
        for op in sample_ops() {
            let text = op.encode();
            let back =
                CatalogOp::decode(&text, decode_area).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(back, op);
        }
    }

    #[test]
    fn op_decode_rejects_garbage() {
        for bad in [
            "",
            "bogus",
            "reg base 1",
            "reg base 2 0\nS\n+a",
            "reg tower 0 0\nS\n+a",
            "reg base 0 1\nS\n+a",
            "reg base 0 0\n\n(a)",
            "reg base 0 0\nS\n(a)\n/unflagged",
            "unreg",
            "urn 1\nurn:X:y\nS",
            "stmt\nnot a statement",
            "trust 1 2 3",
            "trust a 2 3 4 5 6 7 8 0\nS",
            "trust 1 2 3 4 5 6 7 8 2\nS\n+only-one-area",
            // An area count no record holds: refused, not reserved.
            "trust 1 2 3 4 5 6 7 8 100000000000000\nS",
            "trust 1 2 3 4 5 6 7 8 18446744073709551615\nS",
            // What the encoder never writes: a server that spans lines,
            // a word past the header's fields, a line past the record.
            "unreg\nS\nT",
            "urn 0\nurn:X:y\nS\nT",
            "unreg\nS\n",
            "unreg x\nS",
            "urn 0 9\nurn:X:y\nS",
            "trust 1 2 3 4 5 6 7 8 0 99\nS",
            "trust 1 2 3 4 5 6 7 8 0\nS\nx",
            "stmt x\nbase[Oregon.Portland, Recreation]@s1 = base[Oregon.Portland, Recreation]@s2",
        ] {
            assert!(
                CatalogOp::decode(bad, decode_area).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn record_scan_stops_at_damage() {
        let mut log = Vec::new();
        for op in sample_ops() {
            append_record(&mut log, op.encode().as_bytes());
        }
        let (records, torn) = scan_records(&log);
        assert_eq!(records.len(), sample_ops().len());
        assert_eq!(torn, None);

        // Flip a byte in the middle: scanning stops at that record.
        let mid = log.len() / 2;
        let mut bad = log.clone();
        bad[mid] ^= 0xFF;
        let (prefix, torn) = scan_records(&bad);
        assert!(prefix.len() < records.len());
        assert!(torn.is_some());

        // Truncate mid-record: same.
        let (prefix, torn) = scan_records(&log[..log.len() - 3]);
        assert_eq!(prefix.len(), records.len() - 1);
        assert!(torn.is_some());
    }

    #[test]
    fn log_crash_recover_roundtrips_synced_ops() {
        let mut d = DurableCatalog::new(SharedDisk::new(MemDisk::new())).with_snapshot_every(0);
        let ops = sample_ops();
        for op in &ops {
            d.log(op).unwrap();
        }
        d.crash();
        let (catalog, report) = d.recover().unwrap();
        assert_eq!(digest(&catalog), digest(&replay(&ops)));
        assert_eq!(report.wal_records, ops.len());
        assert_eq!(report.truncated_at, None);
        assert_eq!(report.entries, catalog.entries().len());
    }

    #[test]
    fn crash_before_fsync_loses_exactly_the_unsynced_tail() {
        let disk = SharedDisk::new(MemDisk::new());
        let mut d = DurableCatalog::new(disk)
            .with_snapshot_every(0)
            .with_sync_every(100); // never syncs within this test
        let ops = sample_ops();
        for op in &ops[..4] {
            d.log(op).unwrap();
        }
        d.flush().unwrap(); // first 4 durable
        for op in &ops[4..] {
            d.log(op).unwrap();
        }
        d.crash(); // rest vanish
        let (catalog, report) = d.recover().unwrap();
        assert_eq!(report.wal_records, 4);
        assert_eq!(digest(&catalog), digest(&replay(&ops[..4])));
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_wal() {
        let disk = SharedDisk::new(MemDisk::new());
        let mut d = DurableCatalog::new(disk.clone()).with_snapshot_every(3);
        let ops = sample_ops();
        let mut shadow = Catalog::new();
        for op in &ops {
            op.clone().apply(&mut shadow);
            d.log(op).unwrap();
            d.maybe_compact(&shadow).unwrap();
        }
        assert!(d.stats().snapshots >= 2, "threshold 3 over 9 ops");
        let wal_len = disk.with(|dk| dk.wal_read().unwrap().len());
        let full_len = {
            let mut all = Vec::new();
            for op in &ops {
                append_record(&mut all, op.encode().as_bytes());
            }
            all.len()
        };
        assert!(wal_len < full_len, "compaction must shrink the live WAL");
        d.crash();
        let (catalog, _) = d.recover().unwrap();
        assert_eq!(digest(&catalog), digest(&shadow));
    }

    #[test]
    fn crash_between_snapshot_and_truncate_is_harmless() {
        // Simulate the torn compaction window by hand: write the
        // snapshot, "crash" before truncating, leave the full WAL.
        let ops = sample_ops();
        let full = replay(&ops);
        let disk = SharedDisk::new(MemDisk::new());
        disk.with(|d| {
            let mut snap = Vec::new();
            for op in full.snapshot_ops() {
                append_record(&mut snap, op.encode().as_bytes());
            }
            d.snapshot_write(&snap).unwrap();
            let mut wal = Vec::new();
            for op in &ops {
                append_record(&mut wal, op.encode().as_bytes());
            }
            d.wal_append(&wal).unwrap();
            d.sync().unwrap();
        });
        let mut d = DurableCatalog::new(disk);
        let (catalog, report) = d.recover().unwrap();
        assert_eq!(digest(&catalog), digest(&full));
        assert_eq!(report.snapshot_records, full.snapshot_ops().len());
        assert_eq!(report.wal_records, ops.len());
    }

    #[test]
    fn faulty_disk_torn_tail_truncates_to_a_prefix() {
        let faults = DiskFaults {
            seed: 11,
            torn_tail: true,
            ..DiskFaults::default()
        };
        let disk = SharedDisk::new(FaultyDisk::new(faults));
        let mut d = DurableCatalog::new(disk)
            .with_snapshot_every(0)
            .with_sync_every(100);
        let ops = sample_ops();
        for op in &ops[..2] {
            d.log(op).unwrap();
        }
        d.flush().unwrap();
        for op in &ops[2..] {
            d.log(op).unwrap();
        }
        d.crash(); // keeps a seeded partial tail past the synced 2
        let (catalog, report) = d.recover().unwrap();
        assert!(report.wal_records >= 2, "synced prefix always survives");
        let k = report.wal_records;
        assert_eq!(digest(&catalog), digest(&replay(&ops[..k])));
    }

    #[test]
    fn faulty_disk_sync_failures_are_retried_transparently() {
        let faults = DiskFaults {
            seed: 7,
            sync_fail_period: 2, // every 2nd fsync fails
            ..DiskFaults::default()
        };
        let mut d =
            DurableCatalog::new(SharedDisk::new(FaultyDisk::new(faults))).with_snapshot_every(0);
        let ops = sample_ops();
        for op in &ops {
            d.log(op).unwrap();
        }
        assert!(d.stats().sync_retries > 0, "period-2 must trip retries");
        d.crash();
        let (catalog, _) = d.recover().unwrap();
        assert_eq!(digest(&catalog), digest(&replay(&ops)));
    }

    #[test]
    fn trust_transitions_survive_crash_and_recovery() {
        use crate::trust::TrustLevel;

        // The laundering bug this op exists to close: without journaled
        // trust transitions, recovery replays the hijacker's `reg` with
        // a clean slate and the quarantine evaporates.
        let mut d = DurableCatalog::new(SharedDisk::new(MemDisk::new()));
        d.log(&reg("hijack-7", &["Oregon/Portland", "Recreation"]))
            .unwrap();
        let CatalogOp::Trust(mut rec) = sample_ops().pop().unwrap() else {
            panic!("sample_ops must end with a trust op");
        };
        rec.clears = 0; // two unpaid strikes: squarely quarantined
        d.log(&CatalogOp::Trust(rec)).unwrap();
        d.crash();
        let (catalog, _) = d.recover().unwrap();
        let hijack = ServerId::new("hijack-7");
        assert_eq!(catalog.trust().level_of(&hijack), TrustLevel::Quarantined);
        assert_eq!(catalog.trust().record(&hijack).unwrap().strikes, 2);
        // Crash again: the clean recovery left the WAL as it found it,
        // and replaying it again restores the same quarantine.
        d.crash();
        let (again, _) = d.recover().unwrap();
        assert_eq!(again.trust().level_of(&hijack), TrustLevel::Quarantined);
        assert_eq!(digest(&catalog), digest(&again));
    }

    #[test]
    fn null_disk_recovers_nothing() {
        let mut d = DurableCatalog::new(SharedDisk::new(NullDisk));
        for op in &sample_ops() {
            d.log(op).unwrap();
        }
        d.crash();
        let (catalog, report) = d.recover().unwrap();
        assert!(catalog.entries().is_empty());
        assert_eq!(report, RecoveryReport::default());
    }

    #[test]
    fn recovery_physically_discards_the_damaged_tail() {
        let disk = SharedDisk::new(MemDisk::new());
        let mut d = DurableCatalog::new(disk.clone()).with_snapshot_every(0);
        for op in &sample_ops() {
            d.log(op).unwrap();
        }
        // Corrupt the last record in place, synced and all.
        disk.with(|dk| {
            let n = dk.wal_read().unwrap().len();
            let mut img = dk.wal_read().unwrap();
            img[n - 1] ^= 0x01;
            dk.wal_truncate().unwrap();
            dk.wal_append(&img).unwrap();
            dk.sync().unwrap();
        });
        let (first, report) = d.recover().unwrap();
        assert!(report.truncated_at.is_some());
        assert!(report.dropped_bytes > 0);
        // Second recovery sees a clean compacted image: same catalog,
        // no damage left to report.
        let (second, report2) = d.recover().unwrap();
        assert_eq!(digest(&first), digest(&second));
        assert_eq!(report2.truncated_at, None);
        assert_eq!(report2.dropped_bytes, 0);
    }

    #[test]
    fn grammar_characters_in_category_names_survive_recovery() {
        // `.`, ` `, `(` and `)` are the area text's own grammar; unescaped
        // they made this record undecodable, and recovery truncated the
        // WAL there, losing it and every later record.
        let ops = [
            reg("seller-1", &["USA/MO/St. Louis", "Music/Vinyl (LP)"]),
            reg("seller-2", &["Oregon/Portland", "Music/CDs"]),
        ];
        let mut d = DurableCatalog::new(SharedDisk::new(MemDisk::new())).with_snapshot_every(0);
        for op in &ops {
            d.log(op).unwrap();
        }
        d.crash();
        let (catalog, report) = d.recover().unwrap();
        assert_eq!(report.truncated_at, None);
        assert_eq!(report.wal_records, 2);
        assert_eq!(digest(&catalog), digest(&replay(&ops)));
        let (again, _) = d.recover().unwrap();
        assert_eq!(digest(&again), digest(&catalog));
    }

    #[test]
    fn mixed_arity_registrations_survive_a_second_restart() {
        // The second `seller-1` registration has arity 1. Merged into the
        // arity-2 entry, the union had no area text: compaction wrote a
        // snapshot record the next recovery could not decode, and it
        // came back empty with nothing reported.
        let ops = [
            reg("seller-1", &["Oregon/Portland", "Music/CDs"]),
            reg("seller-1", &["Oregon/Portland"]),
            reg("seller-2", &["Oregon", "Music"]),
            CatalogOp::MapUrn {
                urn: "urn:ForSale:Portland-CDs".to_owned(),
                server: ServerId::new("seller-1"),
                collection: None,
            },
        ];
        let live = replay(&ops);
        assert_eq!(live.entries().len(), 2);
        assert_eq!(
            live.entries()[0].area,
            area(&[&["Oregon/Portland", "Music/CDs"]])
        );
        let mut d = DurableCatalog::new(SharedDisk::new(MemDisk::new())).with_snapshot_every(0);
        for op in &ops {
            d.log(op).unwrap();
        }
        d.crash();
        for _ in 0..2 {
            let (catalog, report) = d.recover().unwrap();
            assert_eq!(digest(&catalog), digest(&live));
            assert_eq!(report.entries, 2);
            let urn = mqp_namespace::Urn::named("ForSale", "Portland-CDs");
            assert_eq!(catalog.resolve_named(&urn).len(), 1);
            // A clean recovery writes no snapshot: write one, so the
            // second restart replays the merged entry from it.
            d.compact(&catalog).unwrap();
        }
    }

    const PDX_CDS: &[&str] = &["Oregon/Portland", "Music/CDs"];

    /// A journal seeded with `n` registrations, its disk, and the
    /// catalog it was seeded from.
    fn seeded(n: usize) -> (SharedDisk, DurableCatalog, Catalog) {
        let mut catalog = Catalog::new();
        for i in 0..n {
            reg(&format!("seed-{i:05}"), PDX_CDS).apply(&mut catalog);
        }
        let disk = SharedDisk::new(MemDisk::new());
        let mut d = DurableCatalog::new(disk.clone());
        d.seed(&catalog).unwrap();
        (disk, d, catalog)
    }

    fn snapshot_len(disk: &SharedDisk) -> usize {
        disk.with(|d| d.snapshot_read().unwrap().map_or(0, |s| s.len()))
    }

    fn wal_len(disk: &SharedDisk) -> usize {
        disk.with(|d| d.wal_read().unwrap().len())
    }

    /// Logs `op` into the journal and `shadow`, as a peer does, and
    /// returns whether a snapshot was written.
    fn journal(d: &mut DurableCatalog, shadow: &mut Catalog, op: CatalogOp) -> bool {
        d.log(&op).unwrap();
        op.apply(shadow);
        d.maybe_compact(shadow).unwrap()
    }

    #[test]
    fn snapshot_waits_until_the_wal_is_as_long_as_the_snapshot() {
        let (disk, mut d, mut shadow) = seeded(2000);
        let snap = snapshot_len(&disk);
        let mut logged = 0;
        loop {
            let op = reg(&format!("late-{logged:05}"), PDX_CDS);
            d.log(&op).unwrap();
            op.apply(&mut shadow);
            logged += 1;
            let grown = wal_len(&disk) >= snap;
            assert_eq!(d.maybe_compact(&shadow).unwrap(), grown, "record {logged}");
            if grown {
                break;
            }
        }
        assert!(logged > 2 * 64, "compacted after {logged} records");
        assert_eq!(d.stats().snapshots, 2, "the seed and exactly one more");
        assert_eq!(wal_len(&disk), 0);
        assert!(snapshot_len(&disk) > snap);
    }

    #[test]
    fn a_crash_loop_keeps_the_wal_within_one_snapshot() {
        let (disk, mut d, mut shadow) = seeded(2000);
        let mut longest_record = 0;
        for round in 0..24 {
            for i in 0..250 {
                let op = reg(&format!("late-{:03}", (round * 250 + i) % 100), PDX_CDS);
                longest_record = longest_record.max(HEADER + op.encode().len());
                journal(&mut d, &mut shadow, op);
                assert!(wal_len(&disk) < snapshot_len(&disk) + longest_record);
            }
            d.crash();
            let (catalog, report) = d.recover().unwrap();
            assert_eq!(report.truncated_at, None);
            assert_eq!(digest(&catalog), digest(&shadow), "round {round}");
        }
        assert!(d.stats().snapshots >= 3, "6 000 records cross the snapshot");
    }

    #[test]
    fn clean_recovery_leaves_the_disk_untouched() {
        let (disk, mut d, mut shadow) = seeded(50);
        for op in sample_ops() {
            journal(&mut d, &mut shadow, op);
        }
        d.crash();
        let images = || disk.with(|dk| (dk.snapshot_read().unwrap(), dk.wal_read().unwrap()));
        let before = images();
        let (catalog, report) = d.recover().unwrap();
        assert_eq!(report.wal_records, sample_ops().len());
        assert_eq!(digest(&catalog), digest(&shadow));
        assert_eq!(images(), before);
        assert_eq!(d.stats().snapshots, 1, "only the seed");
    }

    #[test]
    fn a_record_logged_after_a_clean_recovery_survives_the_next_crash() {
        let (_, mut d, mut shadow) = seeded(50);
        for op in sample_ops() {
            journal(&mut d, &mut shadow, op);
        }
        d.crash();
        let (mut catalog, _) = d.recover().unwrap();
        journal(&mut d, &mut catalog, reg("after-restart", PDX_CDS));
        d.crash();
        let (again, report) = d.recover().unwrap();
        assert_eq!(report.wal_records, sample_ops().len() + 1);
        assert_eq!(digest(&again), digest(&catalog));
        let after = ServerId::new("after-restart");
        assert!(again.entries().iter().any(|e| e.server == after));
    }

    #[test]
    fn recovering_a_clean_disk_twice_gives_the_same_catalog() {
        let (_, mut d, mut shadow) = seeded(50);
        for op in sample_ops() {
            journal(&mut d, &mut shadow, op);
        }
        d.crash();
        let (first, _) = d.recover().unwrap();
        let (second, _) = d.recover().unwrap();
        assert_eq!(digest(&first), digest(&shadow));
        assert_eq!(digest(&second), digest(&first));
    }

    #[test]
    fn entries_with_equal_area_text_share_one_cell_allocation() {
        const OR_MUSIC: &[&str] = &["Oregon", "Music"];
        let mut catalog = Catalog::new();
        for i in 0..4 {
            reg(&format!("pdx-{i}"), PDX_CDS).apply(&mut catalog);
            reg(&format!("or-{i}"), OR_MUSIC).apply(&mut catalog);
        }
        let mut d = DurableCatalog::new(SharedDisk::new(MemDisk::new()));
        d.seed(&catalog).unwrap();
        for i in 0..2 {
            d.log(&reg(&format!("late-{i}"), PDX_CDS)).unwrap();
        }
        d.crash();
        let (recovered, report) = d.recover().unwrap();
        assert_eq!((report.snapshot_records, report.wal_records), (8, 2));
        for cell in [PDX_CDS, OR_MUSIC] {
            let text = encode_area(&area(&[cell]));
            let cells: Vec<*const _> = recovered
                .entries()
                .iter()
                .filter(|e| encode_area(&e.area) == text)
                .map(|e| e.area.cells().as_ptr())
                .collect();
            assert_eq!(cells.len(), if cell == PDX_CDS { 6 } else { 4 });
            assert!(cells.iter().all(|&p| p == cells[0]), "{text}: {cells:?}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_op() -> impl Strategy<Value = CatalogOp> {
            (0usize..sample_ops().len()).prop_map(|i| sample_ops()[i].clone())
        }

        /// One edit to a record payload: `(kind, at, byte)` overwrites,
        /// inserts or deletes at `at % len`. Two bytes in three are the
        /// area grammar's characters or a line break.
        fn arb_edit() -> impl Strategy<Value = (u8, usize, u8)> {
            let grammar = || proptest::sample::select(b"(),.+*%\n".to_vec());
            let byte = prop_oneof![grammar(), grammar(), 0u8..=255];
            (0u8..3, 0usize..4096, byte)
        }

        /// A `sample_ops()` payload with up to three edits, as bytes.
        fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
            (arb_op(), proptest::collection::vec(arb_edit(), 0..4)).prop_map(|(op, edits)| {
                let mut p = op.encode().into_bytes();
                for (kind, at, byte) in edits {
                    let at = at % (p.len() + 1);
                    match kind {
                        0 if at < p.len() => p[at] = byte,
                        1 => p.insert(at, byte),
                        _ if at < p.len() => {
                            p.remove(at);
                        }
                        _ => {}
                    }
                }
                p
            })
        }

        /// Area texts a replay meets: repeated ones, escaped grammar
        /// characters, arities 1 to 3, and texts `decode_area` refuses —
        /// one of them a decodable text with a suffix.
        fn area_texts() -> Vec<String> {
            let good = [
                area(&[PDX_CDS]),
                area(&[&["Oregon", "Music"]]),
                area(&[&["USA/MO/St. Louis", "Music/Vinyl (LP)"]]),
                area(&[&["100%", "*"], &["Oregon", "Music/CDs"]]),
                area(&[&["Oregon"]]),
                area(&[&["Oregon", "Music", "New"]]),
            ];
            let mut texts: Vec<String> = good.iter().map(encode_area).collect();
            let first = texts[0].clone();
            texts.extend([
                format!("{first}+"),
                "(Oregon".to_owned(),
                "(a)+(b,c)".to_owned(),
                "(%ZZ)".to_owned(),
            ]);
            texts
        }

        /// Decodable area texts lead [`area_texts`].
        const GOOD_AREAS: usize = 6;

        /// A record payload: a registration of server `s` at `level`
        /// with area text `a` (decodable only), or, one time in eight,
        /// the server's unregistration.
        fn arb_reg() -> impl Strategy<Value = String> {
            (0usize..5, 0usize..GOOD_AREAS, 0usize..3, 0u8..8).prop_map(|(s, a, level, kind)| {
                if kind == 0 {
                    return format!("unreg\ns{s}");
                }
                let level = ["base", "index", "meta"][level];
                format!("reg {level} {} 0\ns{s}\n{}", kind % 2, area_texts()[a])
            })
        }

        /// Replays `img` decoding every record alone, as
        /// [`replay_records`] does with no memo: the catalog, the
        /// records applied and where replay stopped.
        fn replay_each_alone(img: &[u8]) -> (Catalog, usize, Option<usize>) {
            let mut catalog = Catalog::new();
            let (records, torn_at) = scan_records(img);
            for (applied, &(offset, payload)) in records.iter().enumerate() {
                let op = std::str::from_utf8(payload)
                    .map_err(|e| e.to_string())
                    .and_then(|text| CatalogOp::decode(text, decode_area));
                match op {
                    Ok(op) => op.apply(&mut catalog),
                    Err(_) => return (catalog, applied, Some(offset)),
                }
            }
            (catalog, records.len(), torn_at)
        }

        /// CRC-valid records of `payloads`, then `tail` as raw bytes.
        fn image(payloads: &[Vec<u8>], tail: &[u8]) -> Vec<u8> {
            let mut img = Vec::new();
            for p in payloads.iter().filter(|p| !p.is_empty()) {
                append_record(&mut img, p);
            }
            img.extend_from_slice(tail);
            img
        }

        proptest! {
            /// The table CRC agrees with the bitwise reference.
            #[test]
            fn table_crc_matches_the_bitwise_reference(
                bytes in proptest::collection::vec(0u8..=255, 0..=4096),
            ) {
                prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
            }

            /// Prefix consistency: damage the WAL image at ANY byte
            /// (flip or truncate) — recovery yields exactly the replay
            /// of some prefix of the logged ops.
            #[test]
            fn recovery_from_arbitrary_damage_is_a_prefix(
                ops in proptest::collection::vec(arb_op(), 1..20),
                at in 0usize..4096,
                flip in 0u8..2,
            ) {
                let mut img = Vec::new();
                for op in &ops {
                    append_record(&mut img, op.encode().as_bytes());
                }
                let at = at % img.len();
                if flip == 1 {
                    img[at] ^= 0x20;
                } else {
                    img.truncate(at);
                }
                let disk = SharedDisk::new(MemDisk::new());
                disk.with(|d| {
                    d.wal_append(&img).unwrap();
                    d.sync().unwrap();
                });
                let mut d = DurableCatalog::new(disk);
                let (catalog, report) = d.recover().unwrap();
                let k = report.wal_records;
                prop_assert!(k <= ops.len());
                prop_assert_eq!(digest(&catalog), digest(&replay(&ops[..k])));
            }

            /// Snapshot + WAL tail replays to the same catalog as the
            /// full log, wherever the compaction point falls.
            #[test]
            fn snapshot_plus_tail_equals_full_replay(
                ops in proptest::collection::vec(arb_op(), 1..20),
                cut in 0usize..20,
            ) {
                let cut = cut % (ops.len() + 1);
                let disk = SharedDisk::new(MemDisk::new());
                let mut d = DurableCatalog::new(disk).with_snapshot_every(0);
                let mut shadow = Catalog::new();
                for (i, op) in ops.iter().enumerate() {
                    if i == cut {
                        d.compact(&shadow).unwrap();
                    }
                    op.clone().apply(&mut shadow);
                    d.log(op).unwrap();
                }
                d.crash();
                let (catalog, _) = d.recover().unwrap();
                prop_assert_eq!(digest(&catalog), digest(&replay(&ops)));
            }

            /// Decoding each distinct area text once gives what decoding
            /// every record alone gives: the same catalog, the same
            /// records applied, the same stop offset — also when an
            /// undecodable area text follows decodable ones.
            #[test]
            fn memoized_replay_equals_decoding_each_record_alone(
                regs in proptest::collection::vec(arb_reg(), 1..40),
                bad in proptest::option::of((0usize..40, 0usize..5, GOOD_AREAS..10)),
            ) {
                let mut payloads: Vec<Vec<u8>> =
                    regs.into_iter().map(String::into_bytes).collect();
                if let Some((at, s, a)) = bad {
                    let at = 1 + at % payloads.len();
                    let rec = format!("reg base 0 0\ns{s}\n{}", area_texts()[a]);
                    payloads.insert(at, rec.into_bytes());
                }
                let img = image(&payloads, &[]);
                let (alone, alone_applied, alone_stop) = replay_each_alone(&img);
                let mut memo = Catalog::new();
                let (applied, stop) = replay_records(&img, &mut memo, &mut AreaMemo::new());
                prop_assert_eq!(applied, alone_applied);
                prop_assert_eq!(stop, alone_stop);
                prop_assert_eq!(stop.is_some(), bad.is_some());
                prop_assert_eq!(digest(&memo), digest(&alone));
            }

            /// FaultyDisk torn-tail crashes never lose synced records,
            /// and always recover a prefix.
            #[test]
            fn torn_crash_recovers_synced_prefix(
                ops in proptest::collection::vec(arb_op(), 2..20),
                synced in 0usize..20,
                seed in 0u64..1000,
            ) {
                let synced = synced % ops.len();
                let faults = DiskFaults { seed, torn_tail: true, ..DiskFaults::default() };
                let disk = SharedDisk::new(FaultyDisk::new(faults));
                let mut d = DurableCatalog::new(disk)
                    .with_snapshot_every(0)
                    .with_sync_every(ops.len() + 1);
                for op in &ops[..synced] {
                    d.log(op).unwrap();
                }
                d.flush().unwrap();
                for op in &ops[synced..] {
                    d.log(op).unwrap();
                }
                d.crash();
                let (catalog, report) = d.recover().unwrap();
                let k = report.wal_records;
                prop_assert!(k >= synced, "synced records must survive");
                prop_assert!(k <= ops.len());
                prop_assert_eq!(digest(&catalog), digest(&replay(&ops[..k])));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// Whatever CRC-valid records and trailing bytes the
            /// snapshot and WAL hold, recovery does not panic, and a
            /// second recovery — from the snapshot the first one wrote
            /// when it found damage — returns the same catalog.
            #[test]
            fn recovering_twice_gives_the_same_catalog(
                snap in proptest::collection::vec(arb_payload(), 0..8),
                snap_tail in proptest::collection::vec(0u8..=255, 0..16),
                wal in proptest::collection::vec(arb_payload(), 0..12),
                wal_tail in proptest::collection::vec(0u8..=255, 0..16),
            ) {
                let disk = SharedDisk::new(MemDisk::new());
                disk.with(|d| {
                    d.snapshot_write(&image(&snap, &snap_tail)).unwrap();
                    d.wal_append(&image(&wal, &wal_tail)).unwrap();
                    d.sync().unwrap();
                });
                let mut d = DurableCatalog::new(disk);
                let (first, _) = d.recover().unwrap();
                let (second, _) = d.recover().unwrap();
                prop_assert_eq!(digest(&second), digest(&first));
            }
        }
    }
}
