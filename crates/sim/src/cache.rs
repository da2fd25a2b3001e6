//! Persistent, content-keyed report cache shared across experiments.
//!
//! Every `exp_*` binary and `eva sweep` runs grids of cells, and many
//! cells recur across experiments (fig4's No-Packing baseline is
//! table13's No-Packing baseline on the same trace). A [`ReportCache`]
//! memoizes finished cell reports on disk — under `results/cache/` by
//! convention — keyed by the cell's **content fingerprint**: trace
//! content hash × scheduler configuration × seed × fidelity ×
//! interference × migration scale × round period × backend, all under a
//! code [`SCHEMA_VERSION`]. A second run of any grid (or another
//! experiment sharing cells) is served from disk, byte-identical to the
//! simulated run.
//!
//! **Segments**: an entry is one compact JSON line — `schema`, `key`,
//! `producer`, `value` — appended to a *segment*. Each handle opens its
//! own `<pid>-<nonce>.log` on its first store and appends every entry
//! with one write under its lock, so a segment has one writer and lines
//! never interleave. A handle finds entries through an in-memory index
//! from the FNV-1a hash of `schema|key` to (segment, offset, length): it
//! holds no entry bytes, is built once from the directory on first use,
//! and grows with the handle's own stores. A lookup checks the `schema`
//! and `key` stored inside the entry, so a hash collision, a torn tail
//! or a corrupt line reads as a miss, never as a wrong report. Caches
//! written before segments hold one pretty `<fnv>.json` file per entry;
//! the index takes such a file by its name and lookups read it as is.
//!
//! **Provenance**: every entry carries a `producer` field stamped at
//! store time — the binary (experiment) that first computed the cell.
//! Lookups ignore it (the content key alone decides validity), but
//! `eva cache stats` breaks entries down by producer, so a shared or
//! merged cache dir stays auditable: you can see which experiment paid
//! for which cells.
//!
//! **Federation**: the cache dir doubles as the coordination substrate
//! for multi-process sweeps (see [`crate::federate`]). A worker that
//! wants to compute a cell first takes a *claim* — an atomically
//! created `<fnv>.claim` file carrying its pid, host, and a timestamp
//! ([`ReportCache::try_claim`]). Claims are advisory (work is idempotent
//! and publishes identical bytes) and stealable: a claim whose process
//! is dead, or whose age exceeds the staleness deadline, is removed and
//! re-taken, so a killed worker never wedges a federated run. A handle
//! sees a peer's entries when its index is refreshed from grown and new
//! segments, which the pool does after it acquires a claim; a plain
//! miss never lists the directory.
//!
//! **Invalidation**: bump [`SCHEMA_VERSION`] whenever simulation
//! semantics or the serialized report shape change — old entries then
//! miss (their `schema|key` hashes differently) and are never read again.
//! Mutating a trace changes its content hash and therefore its keys.
//! The `producer` stamp is *not* part of the key: it never affects
//! hits, and entries written before it existed still read fine.
//! Retired-schema entries linger harmlessly until `eva cache prune`
//! drops them. The lifecycle tools (`stats`, `verify`, `prune`,
//! `merge_from`) are one walk over every entry of the directory.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Reader, Serialize, Writer};

/// Version tag mixed into every cache key. Bump on any change to
/// simulation semantics, report fields, or key composition.
///
/// v2: shard metadata gained boundary intervals + straddler counts and
/// the table 4/5 artifact rows gained `from_cache` stamps — cached rows
/// from v1 would deserialize without those fields, so they are retired.
///
/// v3: cells gained the adversarial fault axis. Cell fingerprints now
/// carry a `|fault:` component and `CellKey` a `faults` label, so v2
/// entries (which never injected faults but whose keys lack the
/// component) would alias the new fault-free keys while their stored
/// `CellKey` no longer deserializes — retire them wholesale.
///
/// v4: closed-form integer progress moved simulated floats (≤ 1.1e-9
/// relative) and re-blessed both goldens; v3 reports predate it.
pub const SCHEMA_VERSION: &str = "eva-v4";

/// The claim a claim file holds, if it parses.
fn claim_at(path: &Path) -> Option<ClaimInfo> {
    serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
}

/// Milliseconds since the Unix epoch (claim timestamps).
fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// This machine's name, for claim ownership across a synced cache dir.
fn local_host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "?".to_string())
}

/// True when `pid` is known to be dead on this machine (Linux procfs;
/// without it, no pid is known dead).
fn pid_dead(pid: u32) -> bool {
    Path::new("/proc/self").exists() && !Path::new(&format!("/proc/{pid}")).exists()
}

/// The binary stem this process runs as — the provenance stamp stored
/// with every cache entry (env override `EVA_CACHE_PRODUCER`).
fn default_producer() -> String {
    let exe = std::env::current_exe().ok();
    let stem = exe.as_deref().and_then(Path::file_stem).map(|s| s.to_string_lossy().into_owned());
    std::env::var("EVA_CACHE_PRODUCER").ok().or(stem).unwrap_or_else(|| "unknown".to_string())
}

/// Age of a file by mtime; `None` when the file (or clock) is gone.
fn file_age(path: &Path) -> Option<Duration> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()?.elapsed().ok()
}

/// The index key of an entry, and the `<fnv>` of its claim file and of
/// its per-file form.
fn entry_hash(schema: &str, key: &str) -> u64 {
    eva_types::fnv1a64(format!("{schema}|{key}").as_bytes())
}

/// The members of an entry, in the order `store` writes them.
const FIELDS: [&str; 4] = ["schema", "key", "producer", "value"];

/// The index key of a segment line, from its leading `schema` and `key`.
fn line_hash(line: &str) -> Option<u64> {
    let mut r = Reader::new(line);
    let mut lead = |n: usize| match r.next_field(&FIELDS, n) {
        Ok(Some(field)) if field == n => r.string().ok(),
        _ => None,
    };
    let schema = lead(0)?;
    Some(entry_hash(&schema, &lead(1)?))
}

/// The `value` of entry `text` when the entry is stored under `schema`
/// and `key`; `None` for any other entry and for one that does not parse.
fn read_value<R: Deserialize>(text: &str, schema: &str, key: &str) -> Option<R> {
    let mut r = Reader::new(text);
    let (mut matched, mut value, mut n) = (0, None, 0);
    while let Some(field) = r.next_field(&FIELDS, n).ok()? {
        match field {
            0 | 1 if r.string().ok()? != [schema, key][field] => return None,
            0 | 1 => matched |= 1 << field,
            3 => value = Some(R::read_json(&mut r).ok()?),
            _ => r.skip().ok()?,
        }
        n += 1;
    }
    r.end().ok()?;
    value.filter(|_| matched == 3)
}

/// Where an entry's bytes are: `(segment, offset, len)` in a segment, or
/// `(PER_FILE, 0, 0)` for a whole per-file entry `<fnv>.json`.
type Slot = (u32, u64, u32);

const PER_FILE: u32 = u32::MAX;

/// What a handle knows of its directory.
#[derive(Debug, Default)]
struct Segments {
    /// False until the first lookup or store reads the directory.
    loaded: bool,
    /// Every segment read, with the bytes of its whole lines indexed.
    files: Vec<(PathBuf, u64)>,
    index: HashMap<u64, Slot>,
    /// The segment this handle appends to, once it has stored.
    own: Option<(u32, File)>,
}

/// Segment nonces: distinct handles of one process get distinct segments.
static NONCE: AtomicU64 = AtomicU64::new(0);

impl Segments {
    /// Indexes what the directory holds beyond what is indexed already:
    /// new segments, the grown tails of known ones, new per-file entries.
    fn scan(&mut self, dir: &Path) {
        self.loaded = true;
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let (path, name) = (entry.path(), entry.file_name());
            let name = name.to_string_lossy();
            let per_file = name.strip_suffix(".json").filter(|stem| stem.len() == 16);
            if let Some(hash) = per_file.and_then(|stem| u64::from_str_radix(stem, 16).ok()) {
                self.index.entry(hash).or_insert((PER_FILE, 0, 0));
            } else if name.ends_with(".log") {
                let n = self.files.iter().position(|(known, _)| *known == path);
                let n = n.unwrap_or(self.files.len()) as u32;
                if n as usize == self.files.len() {
                    self.files.push((path, 0));
                }
                let grown = entry.metadata().is_ok_and(|m| m.len() > self.files[n as usize].1);
                if grown && self.own.as_ref().map(|own| own.0) != Some(n) {
                    self.index_tail(n);
                }
            }
        }
    }

    /// Indexes the whole lines of segment `n` past its indexed prefix; a
    /// line without its newline (torn, or still being written) waits.
    fn index_tail(&mut self, n: u32) {
        let (path, indexed) = &mut self.files[n as usize];
        let at = SeekFrom::Start(*indexed);
        let Ok(file) = File::open(path).and_then(|mut f| f.seek(at).map(|_| f)) else {
            return;
        };
        let (mut reader, mut line) = (BufReader::new(file), Vec::new());
        while reader.read_until(b'\n', &mut line).is_ok() && line.ends_with(b"\n") {
            if let Some(hash) = std::str::from_utf8(&line).ok().and_then(line_hash) {
                self.index.insert(hash, (n, *indexed, line.len() as u32 - 1));
            }
            *indexed += line.len() as u64;
            line.clear();
        }
    }

    /// The bytes indexed under `hash`.
    fn text(&self, dir: &Path, hash: u64) -> Option<String> {
        let &(n, offset, len) = self.index.get(&hash)?;
        if n == PER_FILE {
            return std::fs::read_to_string(dir.join(format!("{hash:016x}.json"))).ok();
        }
        let mut file = File::open(&self.files[n as usize].0).ok()?;
        let mut bytes = vec![0; len as usize];
        file.seek(SeekFrom::Start(offset)).and_then(|_| file.read_exact(&mut bytes)).ok()?;
        String::from_utf8(bytes).ok()
    }

    /// Appends `line` (newline included) to this handle's segment, opened
    /// on first use, and indexes it under `hash`.
    fn append(&mut self, dir: &Path, hash: u64, line: &str) -> std::io::Result<()> {
        if self.own.is_none() {
            std::fs::create_dir_all(dir)?;
            let (path, file) = loop {
                let nonce = NONCE.fetch_add(1, Ordering::Relaxed);
                let path = dir.join(format!("{}-{nonce}.log", std::process::id()));
                match File::options().append(true).create_new(true).open(&path) {
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                    opened => break (path, opened?),
                }
            };
            self.files.push((path, 0));
            self.own = Some((self.files.len() as u32 - 1, file));
        }
        let (n, file) = self.own.as_mut().expect("opened above");
        let n = *n;
        if let Err(e) = file.write_all(line.as_bytes()) {
            // Where the next line would start is unknown: start a segment.
            self.own = None;
            return Err(e);
        }
        let indexed = &mut self.files[n as usize].1;
        self.index.insert(hash, (n, *indexed, line.len() as u32 - 1));
        *indexed += line.len() as u64;
        Ok(())
    }
}

/// A directory-backed report store keyed by content fingerprints.
///
/// Clones share one segment and one index; separate handles on one
/// directory (in one process or in several) each append to their own.
#[derive(Debug, Clone)]
pub struct ReportCache {
    dir: PathBuf,
    schema: String,
    producer: String,
    segments: Arc<Mutex<Segments>>,
}

impl ReportCache {
    /// A cache rooted at `dir` (created lazily on first store) under the
    /// current [`SCHEMA_VERSION`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_schema(dir, SCHEMA_VERSION)
    }

    /// A cache with an explicit schema tag (tests use this to prove that
    /// bumping the version invalidates every entry).
    pub fn with_schema(dir: impl Into<PathBuf>, schema: impl Into<String>) -> Self {
        ReportCache {
            dir: dir.into(),
            schema: schema.into(),
            producer: default_producer(),
            segments: Arc::default(),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The handle's segments, indexed from the directory on first use.
    fn segments(&self) -> MutexGuard<'_, Segments> {
        let mut segments = self.segments.lock().unwrap_or_else(PoisonError::into_inner);
        if !segments.loaded {
            segments.scan(&self.dir);
        }
        segments
    }

    /// Indexes what other writers appended since this handle last read
    /// the directory (the federated pool calls this once it holds a claim).
    pub(crate) fn refresh(&self) {
        self.segments().scan(&self.dir);
    }

    /// Looks up the value stored under `key`, if any. Corrupt, colliding,
    /// or schema-mismatched entries read as a miss.
    pub fn lookup<R: Deserialize>(&self, key: &str) -> Option<R> {
        let text = self.segments().text(&self.dir, entry_hash(&self.schema, key))?;
        read_value(&text, &self.schema, key)
    }

    /// Stores `value` under `key`, stamped with this cache's provenance
    /// (which binary produced the cell). Failures are reported to stderr
    /// and otherwise ignored: a broken cache must never fail an
    /// experiment.
    pub fn store<R: Serialize>(&self, key: &str, value: &R) {
        let mut w = Writer::new(false);
        w.open(b'{');
        for (i, text) in [&*self.schema, key, &*self.producer].into_iter().enumerate() {
            w.key(i, FIELDS[i]);
            w.string(text);
        }
        w.key(3, FIELDS[3]);
        if let Err(e) = value.write_json(&mut w) {
            eprintln!("warning: cache entry for `{key}` does not serialize: {e}");
            return;
        }
        w.close(b'}', FIELDS.len());
        let line = w.finish() + "\n";
        let appended = self.segments().append(&self.dir, entry_hash(&self.schema, key), &line);
        if let Err(e) = appended {
            eprintln!("warning: cache write in {} failed: {e}", self.dir.display());
        }
    }

    /// The claim-file path guarding the entry stored under `key`.
    pub fn claim_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.claim", entry_hash(&self.schema, key)))
    }

    /// Attempts to claim `key` for this process.
    ///
    /// A claim is a `<fnv>.claim` file created exclusively (`create_new`)
    /// and carrying this process's pid, host, and a timestamp, so of two
    /// racing claimants exactly one acquires; a claim read before its
    /// body is written is unreadable and young, so it holds. An existing
    /// claim blocks ([`ClaimAttempt::Held`]) unless it is *stealable* —
    /// its holder is a dead pid on this host, or its age (by mtime when
    /// unreadable) exceeds `stale` — in which case it is removed and
    /// re-taken. Claims are advisory: cell work is idempotent, so when
    /// the file cannot be created at all the claim degrades to acquired
    /// (with a warning) rather than wedging the run.
    pub fn try_claim(&self, key: &str, stale: Duration) -> ClaimAttempt {
        let path = self.claim_path(key);
        let unknown = |ts_ms| {
            let (host, key) = ("?".to_string(), key.to_string());
            ClaimAttempt::Held(ClaimInfo { pid: 0, host, ts_ms, key })
        };
        if path.exists() {
            match claim_at(&path).ok_or_else(|| file_age(&path)) {
                Ok(info) if !info.stealable(stale) => return ClaimAttempt::Held(info),
                // Unreadable (or not yet written): nobody else can release
                // it, so it holds until it outlives the deadline by mtime.
                Err(Some(age)) if age <= stale => {
                    return unknown(now_ms().saturating_sub(age.as_millis() as u64))
                }
                // Gone since `exists()`: its holder just released it.
                Err(None) => {}
                _ => {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        let body = ClaimInfo {
            pid: std::process::id(),
            host: local_host(),
            ts_ms: now_ms(),
            key: key.to_string(),
        };
        let created = std::fs::create_dir_all(&self.dir)
            .and_then(|()| File::options().write(true).create_new(true).open(&path));
        match created {
            Ok(mut file) => {
                let json = serde_json::to_string(&body).expect("claim bodies serialize");
                let _ = file.write_all(json.as_bytes());
                ClaimAttempt::Acquired(ClaimGuard { path: Some(path) })
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                claim_at(&path).map_or_else(|| unknown(now_ms()), ClaimAttempt::Held)
            }
            Err(e) => {
                eprintln!(
                    "warning: cannot create claim {} ({e}); proceeding unclaimed",
                    path.display()
                );
                ClaimAttempt::Acquired(ClaimGuard { path: None })
            }
        }
    }

    /// Reads the claim currently guarding `key`, if any.
    pub fn read_claim(&self, key: &str) -> Option<ClaimInfo> {
        claim_at(&self.claim_path(key))
    }
}

/// Who holds a claim: the publishing process's identity and when it
/// claimed, as its claim file holds it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClaimInfo {
    /// Claiming process id.
    pub pid: u32,
    /// Claiming host name (claims travel with synced cache dirs).
    pub host: String,
    /// Claim creation time, milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// The cell key the claim guards.
    pub key: String,
}

impl ClaimInfo {
    /// Claim age by its own timestamp.
    pub fn age(&self) -> Duration {
        Duration::from_millis(now_ms().saturating_sub(self.ts_ms))
    }

    /// True when the claim may be removed and re-taken: its holder is a
    /// dead pid on this host, or it has outlived the staleness deadline
    /// (the only signal available for claims from other hosts).
    pub fn stealable(&self, stale: Duration) -> bool {
        (self.host == local_host() && pid_dead(self.pid)) || self.age() > stale
    }
}

/// Outcome of [`ReportCache::try_claim`].
#[derive(Debug)]
pub enum ClaimAttempt {
    /// This process holds the claim; drop (or
    /// [`ClaimGuard::release`]) it after publishing.
    Acquired(ClaimGuard),
    /// Another live claimant holds it — skip for now and revisit.
    Held(ClaimInfo),
}

/// An acquired claim; removing the claim file on drop, so a panicking
/// worker (whose stack unwinds) frees the cell immediately rather than
/// waiting out the staleness deadline. A SIGKILL leaves the file behind
/// — that is the stealable-claim path.
#[derive(Debug)]
pub struct ClaimGuard {
    path: Option<PathBuf>,
}

impl ClaimGuard {
    /// Removes the claim file (dropping the guard does the same).
    pub fn release(self) {}
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------
// Lifecycle operations — the data layer behind `eva cache`.
// ---------------------------------------------------------------------

/// One entry the walk found: line `line` of a segment, or (`line` 0) a
/// whole per-file entry.
struct Entry<'a> {
    line: usize,
    /// The entry's bytes, without a segment line's newline.
    text: &'a str,
    /// The entry's `(schema, key, producer)`, or what is wrong with it.
    head: Result<[String; 3], String>,
}

impl<'a> Entry<'a> {
    /// Reads line `line` (1-based, newline included) of a segment, or,
    /// for `line` 0, the per-file entry `name`: it must parse, carry
    /// `schema`, `key` and `value`, and end in its newline or be filed
    /// under its own `schema|key` hash.
    fn read(line: usize, raw: &'a str, name: &str) -> Self {
        let text = raw.strip_suffix('\n').unwrap_or(raw);
        let head = || {
            let value = serde_json::from_str_value(text).map_err(|e| format!("not JSON: {e}"))?;
            let field = |name| Some(value.get_field(name)?.as_str()?.to_string());
            let (Some(schema), Some(key), Some(_)) =
                (field("schema"), field("key"), value.get_field("value"))
            else {
                return Err("not a cache entry (missing schema/key/value)".to_string());
            };
            let filed = format!("{:016x}.json", entry_hash(&schema, &key));
            match line {
                0 if filed != name => {
                    Err(format!("filed under the wrong hash (key hashes to {filed})"))
                }
                1.. if text.len() == raw.len() => Err("torn: the line has no newline".to_string()),
                _ => Ok([schema, key, field("producer").unwrap_or_else(|| "-".to_string())]),
            }
        };
        Entry { line, text, head: head() }
    }
}

/// What the walk found in one file of a cache dir.
enum Found<'a> {
    /// A segment's lines, or the one entry of a per-file entry.
    Entries(&'a [Entry<'a>]),
    /// A claim file (`true`) or an orphaned temp (`false`), how `verify`
    /// describes it, and whether `prune` may remove it.
    Litter(bool, String, bool),
}

/// Visits, in name order, every file of `dir` the cache knows: each
/// segment and per-file entry with its entries, each claim and temp.
/// Claims are stale when [`ClaimInfo::stealable`] after `stale` (by mtime
/// when unreadable); temps when their writer is dead or by mtime.
fn walk(dir: &Path, stale: Duration, mut visit: impl FnMut(&Path, &str, Found<'_>)) {
    let mut paths: Vec<PathBuf> =
        std::fs::read_dir(dir).into_iter().flatten().filter_map(|e| Some(e.ok()?.path())).collect();
    paths.sort();
    for path in &paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let aged = file_age(path).is_some_and(|age| age > stale);
        // The temp an interrupted `prune` leaves: `<segment>.tmp.<pid>`.
        if name.contains(".tmp.") {
            let pid = name.rsplit('.').next().and_then(|p| p.parse::<u32>().ok());
            let dead = pid.is_some_and(|pid| pid != std::process::id() && pid_dead(pid));
            let note = format!("{name}{}", if dead { " (writer dead)" } else { "" });
            visit(path, name, Found::Litter(false, note, dead || aged));
        } else if name.ends_with(".claim") {
            let (note, stale) = match claim_at(path) {
                Some(info) => {
                    let (age, stealable) = (info.age().as_secs_f64(), info.stealable(stale));
                    let tag = if stealable { ", stealable" } else { "" };
                    let note =
                        format!("{name} (pid {} on {}, {age:.0}s old{tag})", info.pid, info.host);
                    (note, stealable)
                }
                None => (format!("{name} (unreadable)"), aged),
            };
            visit(path, name, Found::Litter(true, note, stale));
        } else if name.ends_with(".log") || name.ends_with(".json") {
            let bytes = std::fs::read(path).unwrap_or_default();
            let text = String::from_utf8_lossy(&bytes);
            let entries: Vec<Entry> = match name.ends_with(".log") {
                true => text
                    .split_inclusive('\n')
                    .enumerate()
                    .map(|(n, line)| Entry::read(n + 1, line, name))
                    .collect(),
                false => vec![Entry::read(0, &text, name)],
            };
            visit(path, name, Found::Entries(&entries));
        }
    }
}

/// Summary counters for `eva cache stats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    /// Entries present (segment lines and per-file entries).
    pub entries: usize,
    /// Entries under the cache's current schema.
    pub current_schema: usize,
    /// Total bytes across entries.
    pub bytes: u64,
    /// `(schema, entry count)` sorted by schema.
    pub schemas: Vec<(String, usize)>,
    /// `(producer, entry count)` sorted by producer (`"-"` for entries
    /// predating provenance).
    pub producers: Vec<(String, usize)>,
    /// Orphaned temp files present.
    pub temps: usize,
    /// Claim files present.
    pub claims: usize,
}

/// One problem `eva cache verify` found.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyIssue {
    /// Where the entry is: the file name inside the cache dir, with
    /// `:<line>` for a segment line.
    pub file: String,
    /// What is wrong with it.
    pub problem: String,
}

/// Result of `eva cache verify`: entries re-hashed against their stored
/// keys, plus the orphaned `.tmp` and leftover `.claim` files a healthy
/// idle cache must not contain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Entries examined.
    pub entries: usize,
    /// Entries that parsed (and, per file, re-hashed to their own name).
    pub valid: usize,
    /// Valid entries stored under a schema other than the current one
    /// (unreadable by this build, but not corrupt — prune removes them).
    pub retired: usize,
    /// Corrupt, torn or mis-filed entries.
    pub issues: Vec<VerifyIssue>,
    /// Orphaned temp files (named `<stem>.tmp.<pid>`).
    pub temps: Vec<String>,
    /// Claim files, annotated with holder and staleness.
    pub claims: Vec<String>,
}

impl VerifyReport {
    /// True when the cache is healthy and idle: every entry valid, no
    /// temps, no claims.
    pub fn clean(&self) -> bool {
        self.issues.is_empty() && self.temps.is_empty() && self.claims.is_empty()
    }
}

/// Counters for `eva cache prune`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PruneReport {
    /// Entries removed because their schema is retired.
    pub removed_retired: usize,
    /// Entries removed because they exceeded the age limit.
    pub removed_old: usize,
    /// Corrupt or torn entries removed (they could never be read again).
    pub removed_corrupt: usize,
    /// Stale temp files removed.
    pub removed_temps: usize,
    /// Stale claim files removed (live claims are left alone — a fleet
    /// may be running).
    pub removed_claims: usize,
    /// Entries kept.
    pub kept: usize,
}

/// Counters for `eva cache import`/`merge`/`export`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeReport {
    /// Entries copied over.
    pub imported: usize,
    /// Entries already present identically.
    pub skipped_identical: usize,
    /// Entries present on both sides with equal keys and values but
    /// different stamps (e.g. different producers) — the destination's
    /// copy is kept.
    pub skipped_equivalent: usize,
    /// Entries present on both sides with **different values** under the
    /// same key — kept local, loudly counted: this means two builds
    /// disagreed about the same content-addressed cell.
    pub conflicting: usize,
    /// Source entries that failed validation and were not copied.
    pub invalid: usize,
}

impl ReportCache {
    /// Walks the cache dir and summarizes what is in it.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        let (mut schemas, mut producers) = (BTreeMap::new(), BTreeMap::new());
        walk(&self.dir, Duration::MAX, |_, _, found| match found {
            Found::Litter(true, ..) => stats.claims += 1,
            Found::Litter(false, ..) => stats.temps += 1,
            Found::Entries(entries) => {
                for entry in entries {
                    let (schema, producer) = match &entry.head {
                        Ok([schema, _, producer]) => (schema.as_str(), producer.as_str()),
                        Err(_) => ("(corrupt)", "-"),
                    };
                    stats.entries += 1;
                    stats.bytes += entry.text.len() as u64;
                    stats.current_schema += usize::from(schema == self.schema);
                    *schemas.entry(schema.to_string()).or_default() += 1;
                    *producers.entry(producer.to_string()).or_default() += 1;
                }
            }
        });
        stats.schemas = schemas.into_iter().collect();
        stats.producers = producers.into_iter().collect();
        stats
    }

    /// Re-validates every entry against its stored key (see the walk:
    /// it must parse, carry `schema`/`key`/`value` fields, and end in its
    /// newline or live under the file name its own `schema|key` hashes
    /// to). Also reports the orphaned `.tmp` and leftover `.claim` files
    /// an idle cache must not contain. `stale` annotates which claims are
    /// already stealable.
    pub fn verify(&self, stale: Duration) -> VerifyReport {
        let mut report = VerifyReport::default();
        walk(&self.dir, stale, |_, name, found| match found {
            Found::Litter(true, note, _) => report.claims.push(note),
            Found::Litter(false, note, _) => report.temps.push(note),
            Found::Entries(entries) => {
                for entry in entries {
                    report.entries += 1;
                    match &entry.head {
                        Ok([schema, ..]) => {
                            report.valid += 1;
                            report.retired += usize::from(*schema != self.schema);
                        }
                        Err(problem) => {
                            let line = (entry.line > 0).then(|| format!(":{}", entry.line));
                            let file = format!("{name}{}", line.unwrap_or_default());
                            report.issues.push(VerifyIssue { file, problem: problem.clone() });
                        }
                    }
                }
            }
        });
        report
    }

    /// Removes retired-schema entries (when `retired`), entries of files
    /// older than `max_age` (when given; a segment's age is its last
    /// append), corrupt and torn entries, temps whose writer is dead or
    /// that are older than `stale`, and stealable claims. Live claims and
    /// current entries stay. A segment keeps its surviving lines through
    /// a temp file + rename and goes when none survive; run it on an idle
    /// cache, as a writer's open segment is not reopened.
    pub fn prune(&self, max_age: Option<Duration>, retired: bool, stale: Duration) -> PruneReport {
        let mut report = PruneReport::default();
        walk(&self.dir, stale, |path, name, found| {
            let entries = match found {
                Found::Entries(entries) => entries,
                Found::Litter(claim, _, stale) => {
                    let removed =
                        if claim { &mut report.removed_claims } else { &mut report.removed_temps };
                    *removed += usize::from(stale && std::fs::remove_file(path).is_ok());
                    return;
                }
            };
            let expired = max_age.is_some_and(|max| file_age(path).is_some_and(|age| age > max));
            let (mut kept, was_kept) = (String::new(), report.kept);
            for entry in entries {
                *match &entry.head {
                    Err(_) => &mut report.removed_corrupt,
                    Ok([schema, ..]) if retired && *schema != self.schema => {
                        &mut report.removed_retired
                    }
                    Ok(_) if expired => &mut report.removed_old,
                    Ok(_) => {
                        kept = kept + entry.text + "\n";
                        &mut report.kept
                    }
                } += 1;
            }
            if report.kept - was_kept == entries.len() {
                return;
            }
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            let rewritten = match kept.is_empty() {
                true => std::fs::remove_file(path),
                false => std::fs::write(&tmp, &kept).and_then(|()| std::fs::rename(&tmp, path)),
            };
            if let Err(e) = rewritten {
                let _ = std::fs::remove_file(&tmp);
                eprintln!("warning: prune of {name} failed: {e}");
            }
        });
        // Offsets moved: index afresh and append to a new segment.
        *self.segments.lock().unwrap_or_else(PoisonError::into_inner) = Segments::default();
        report
    }

    /// Imports every valid entry of the foreign cache dir `src` into
    /// this cache: entries it lacks are appended to this handle's segment
    /// as compact lines (per-file entries too). Entries already present
    /// are kept; same-key entries whose **values** disagree are counted
    /// as conflicts and left local.
    pub fn merge_from(&self, src: &Path) -> MergeReport {
        let mut report = MergeReport::default();
        let parse = |text: &str| serde_json::from_str_value(text).ok();
        walk(src, Duration::MAX, |_, name, found| {
            let Found::Entries(entries) = found else {
                return;
            };
            for entry in entries {
                let Ok([schema, key, _]) = &entry.head else {
                    report.invalid += 1;
                    continue;
                };
                let hash = entry_hash(schema, key);
                let local = self.segments().text(&self.dir, hash);
                *match local.map(|local| (parse(&local), parse(entry.text))) {
                    Some((Some(l), Some(f))) if l == f => &mut report.skipped_identical,
                    Some((Some(l), Some(f))) if l.get_field("value") == f.get_field("value") => {
                        &mut report.skipped_equivalent
                    }
                    Some(_) => &mut report.conflicting,
                    None => {
                        let line = parse(entry.text).and_then(|v| serde_json::to_string(&v).ok());
                        let line = line.unwrap_or_default() + "\n";
                        match self.segments().append(&self.dir, hash, &line) {
                            Ok(()) => &mut report.imported,
                            Err(e) => {
                                eprintln!("warning: import of {name} failed: {e}");
                                &mut report.invalid
                            }
                        }
                    }
                } += 1;
            }
        });
        report
    }

    /// Exports every valid entry of this cache into `dst` (the reverse
    /// direction of [`ReportCache::merge_from`], same validation and
    /// conflict rules).
    pub fn export_to(&self, dst: &Path) -> MergeReport {
        ReportCache::with_schema(dst, self.schema.clone()).merge_from(&self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SimReport;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eva-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The one segment in `dir`.
    fn segment(dir: &Path) -> PathBuf {
        let paths = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
        let logs: Vec<PathBuf> =
            paths.filter(|p| p.extension().is_some_and(|x| x == "log")).collect();
        assert_eq!(logs.len(), 1, "one segment");
        logs[0].clone()
    }

    fn report(cost: f64) -> SimReport {
        SimReport {
            scheduler: "test".into(),
            jobs_completed: 3,
            total_cost_dollars: cost,
            instances_launched: 2,
            migrations_per_task: 0.25,
            avg_jct_hours: 1.5,
            avg_idle_hours: 0.1,
            avg_norm_tput: 0.9,
            tasks_per_instance: 1.1,
            gpu_alloc: 0.5,
            cpu_alloc: 0.4,
            ram_alloc: 0.3,
            uptime_cdf: Vec::new(),
            full_reconfig_rate: 0.0,
            makespan_hours: 2.5,
            billed_hours: 4.0,
        }
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = ReportCache::new(tmp_dir("round-trip"));
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup::<SimReport>("k1").is_none());
        let r = report(12.5);
        cache.store("k1", &r);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.lookup::<SimReport>("k1"), Some(r));
        assert!(cache.lookup::<SimReport>("k2").is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn schema_bump_invalidates_entries() {
        let dir = tmp_dir("schema");
        let v1 = ReportCache::with_schema(&dir, "v1");
        v1.store("k", &report(1.0));
        assert!(v1.lookup::<SimReport>("k").is_some());
        let v2 = ReportCache::with_schema(&dir, "v2");
        assert!(v2.lookup::<SimReport>("k").is_none(), "new schema must not read old entries");
        // One key under two schemas is two entries, each found by a
        // handle that reads the directory afresh.
        v2.store("k", &report(2.0));
        for (schema, cost) in [("v1", 1.0), ("v2", 2.0)] {
            let fresh = ReportCache::with_schema(&dir, schema);
            assert_eq!(fresh.lookup::<SimReport>("k"), Some(report(cost)), "{schema}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_read_as_miss() {
        let dir = tmp_dir("corrupt");
        let cache = ReportCache::new(&dir);
        cache.store("k", &report(1.0));
        // Garble the entry in place: the index still points at it.
        let log = segment(&dir);
        let text = std::fs::read_to_string(&log).unwrap();
        std::fs::write(&log, format!("{{ not json{}", &text[10..])).unwrap();
        assert!(cache.lookup::<SimReport>("k").is_none());
        assert!(ReportCache::new(&dir).lookup::<SimReport>("k").is_none());
        // A tampered key string (hash collision stand-in) is also a miss.
        cache.store("k", &report(1.0));
        let text = std::fs::read_to_string(&log).unwrap();
        std::fs::write(&log, text.replace("\"key\":\"k\"", "\"key\":\"o\"")).unwrap();
        assert!(cache.lookup::<SimReport>("k").is_none());
        assert!(ReportCache::new(&dir).lookup::<SimReport>("k").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_bytes_are_deterministic() {
        let a_dir = tmp_dir("det-a");
        let b_dir = tmp_dir("det-b");
        let a = ReportCache::new(&a_dir);
        let b = ReportCache::new(&b_dir);
        a.store("k", &report(0.1));
        b.store("k", &report(0.1));
        let read = |dir: &Path| std::fs::read_to_string(segment(dir)).unwrap();
        assert_eq!(read(&a_dir), read(&b_dir));
        let _ = std::fs::remove_dir_all(&a_dir);
        let _ = std::fs::remove_dir_all(&b_dir);
    }

    /// A pid above the kernel's pid_max, so `/proc/<pid>` never exists.
    const DEAD_PID: u32 = 4_294_967_295;

    /// Plants a claim on `key` whose holder pid cannot exist on this host.
    fn plant_dead_claim(cache: &ReportCache, key: &str) {
        std::fs::create_dir_all(cache.dir()).unwrap();
        let (host, ts_ms, key) = (local_host(), now_ms(), key.to_string());
        let claim = ClaimInfo { pid: DEAD_PID, host, ts_ms, key };
        let path = cache.claim_path(&claim.key);
        std::fs::write(path, serde_json::to_string(&claim).unwrap()).unwrap();
    }

    const STALE: Duration = Duration::from_secs(600);

    #[test]
    fn entries_carry_provenance_and_lookup_ignores_it() {
        let dir = tmp_dir("provenance");
        let cache = ReportCache { producer: "exp_test".into(), ..ReportCache::new(&dir) };
        cache.store("k", &report(1.0));
        let log = segment(&dir);
        let bytes = std::fs::read_to_string(&log).unwrap();
        assert!(bytes.contains("\"producer\":\"exp_test\""));
        // A differently-stamped (or pre-provenance) entry still hits.
        std::fs::write(&log, bytes.replace("exp_test", "elsewhere")).unwrap();
        assert!(ReportCache::new(&dir).lookup::<SimReport>("k").is_some());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.producers), (1, vec![("elsewhere".to_string(), 1)]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claim_excludes_second_claimant_until_released() {
        let dir = tmp_dir("claim-basic");
        let cache = ReportCache::new(&dir);
        let guard = match cache.try_claim("cell", STALE) {
            ClaimAttempt::Acquired(g) => g,
            ClaimAttempt::Held(info) => panic!("fresh claim held by {info:?}"),
        };
        let info = cache.read_claim("cell").expect("claim file readable");
        assert_eq!(info.pid, std::process::id());
        assert_eq!(info.key, "cell");
        assert!(!info.stealable(STALE), "own live claim must not be stealable");
        match cache.try_claim("cell", STALE) {
            ClaimAttempt::Held(held) => assert_eq!(held.pid, std::process::id()),
            ClaimAttempt::Acquired(_) => panic!("second claimant must be excluded"),
        }
        guard.release();
        assert!(cache.read_claim("cell").is_none(), "release removes the file");
        match cache.try_claim("cell", STALE) {
            ClaimAttempt::Acquired(_) => {}
            ClaimAttempt::Held(info) => panic!("released claim still held by {info:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_the_guard_releases_the_claim() {
        let dir = tmp_dir("claim-drop");
        let cache = ReportCache::new(&dir);
        {
            let _guard = match cache.try_claim("cell", STALE) {
                ClaimAttempt::Acquired(g) => g,
                ClaimAttempt::Held(_) => panic!("fresh claim held"),
            };
            assert!(cache.read_claim("cell").is_some());
        }
        assert!(cache.read_claim("cell").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_holder_claim_is_stolen() {
        let dir = tmp_dir("claim-steal");
        let cache = ReportCache::new(&dir);
        plant_dead_claim(&cache, "cell");
        let info = cache.read_claim("cell").unwrap();
        assert!(info.stealable(STALE), "dead-pid claim must be stealable");
        match cache.try_claim("cell", STALE) {
            ClaimAttempt::Acquired(g) => {
                let retaken = cache.read_claim("cell").unwrap();
                assert_eq!(retaken.pid, std::process::id());
                g.release();
            }
            ClaimAttempt::Held(info) => panic!("stealable claim not stolen: {info:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_validates_rehash_and_reports_litter() {
        let dir = tmp_dir("verify");
        let cache = ReportCache::new(&dir);
        cache.store("good", &report(1.0));
        assert!(cache.verify(STALE).clean());

        // Mis-filed entry: valid JSON whose key hashes elsewhere.
        let good_bytes = std::fs::read_to_string(segment(&dir)).unwrap();
        std::fs::write(dir.join("0000000000000000.json"), &good_bytes).unwrap();
        // Corrupt entry.
        std::fs::write(dir.join("1111111111111111.json"), "{ nope").unwrap();
        // Litter.
        std::fs::write(dir.join(format!("2222222222222222.tmp.{DEAD_PID}")), "{}").unwrap();
        let _held = match cache.try_claim("good", STALE) {
            ClaimAttempt::Acquired(g) => g,
            ClaimAttempt::Held(_) => panic!("fresh claim held"),
        };

        let report = cache.verify(STALE);
        assert_eq!((report.entries, report.valid, report.issues.len()), (3, 1, 2));
        assert!(report
            .issues
            .iter()
            .any(|i| i.file == "0000000000000000.json" && i.problem.contains("wrong hash")));
        assert_eq!((report.temps.len(), report.claims.len()), (1, 1));
        assert!(!report.clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_removes_retired_corrupt_and_stale() {
        let dir = tmp_dir("prune");
        let old = ReportCache::with_schema(&dir, "eva-v2");
        old.store("legacy", &report(1.0));
        let cache = ReportCache::new(&dir);
        cache.store("current", &report(2.0));
        std::fs::write(dir.join("1111111111111111.json"), "{ nope").unwrap();
        std::fs::write(dir.join(format!("2222222222222222.tmp.{DEAD_PID}")), "{}").unwrap();
        // A dead holder's claim is stale; prune removes it.
        plant_dead_claim(&cache, "current");

        let pruned = cache.prune(None, true, STALE);
        let removed = (pruned.removed_retired, pruned.removed_corrupt, pruned.removed_temps);
        assert_eq!((removed, pruned.removed_claims, pruned.kept), ((1, 1, 1), 1, 1));
        assert!(cache.lookup::<SimReport>("current").is_some());
        assert!(cache.verify(STALE).clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_unions_and_flags_conflicts() {
        let local_dir = tmp_dir("merge-local");
        let foreign_dir = tmp_dir("merge-foreign");
        let local = ReportCache::new(&local_dir);
        let foreign = ReportCache::new(&foreign_dir);
        local.store("shared", &report(1.0));
        local.store("mine", &report(2.0));
        foreign.store("shared", &report(1.0));
        foreign.store("theirs", &report(3.0));
        foreign.store("clash", &report(4.0));
        local.store("clash", &report(5.0));
        std::fs::write(foreign_dir.join("9999999999999999.json"), "{ nope").unwrap();

        let merged = local.merge_from(foreign.dir());
        let counts =
            (merged.imported, merged.skipped_identical, merged.conflicting, merged.invalid);
        assert_eq!(counts, (1, 1, 1, 1));
        assert_eq!(local.lookup::<SimReport>("theirs"), Some(report(3.0)));
        assert_eq!(
            local.lookup::<SimReport>("clash"),
            Some(report(5.0)),
            "conflicts keep the local value"
        );

        // Exporting back is symmetric: only `mine` is new over there.
        let exported = local.export_to(foreign.dir());
        assert_eq!((exported.imported, exported.conflicting), (1, 1));
        let foreign = ReportCache::new(&foreign_dir);
        assert_eq!(foreign.lookup::<SimReport>("mine"), Some(report(2.0)));
        let _ = std::fs::remove_dir_all(&local_dir);
        let _ = std::fs::remove_dir_all(&foreign_dir);
    }

    #[test]
    fn equivalent_entries_with_different_producers_skip_quietly() {
        let local_dir = tmp_dir("merge-equiv-local");
        let foreign_dir = tmp_dir("merge-equiv-foreign");
        let local = ReportCache { producer: "exp_a".into(), ..ReportCache::new(&local_dir) };
        let foreign = ReportCache { producer: "exp_b".into(), ..ReportCache::new(&foreign_dir) };
        local.store("k", &report(1.0));
        foreign.store("k", &report(1.0));
        let merged = local.merge_from(foreign.dir());
        assert_eq!((merged.skipped_equivalent, merged.conflicting), (1, 0));
        let _ = std::fs::remove_dir_all(&local_dir);
        let _ = std::fs::remove_dir_all(&foreign_dir);
    }
}
