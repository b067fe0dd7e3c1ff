//! A crash-safe, corruption-tolerant append-only record journal.
//!
//! The proof journal is what lets a killed verification run resume warm
//! instead of starting over (see `DESIGN.md` §10): each record is an
//! opaque payload framed with its length and an FNV-64 checksum, so a
//! torn write, a truncated tail, or a bit flip is *detected* and
//! discarded rather than trusted. Corruption never panics and never
//! yields a record whose checksum does not match — the failure mode is
//! always "fewer cached records", i.e. graceful degradation to
//! re-proving.
//!
//! # On-disk format
//!
//! ```text
//! file   := magic record*
//! magic  := "COBJRNL1"                      (8 bytes)
//! record := len:u32le checksum:u64le payload(len bytes)
//! ```
//!
//! `checksum` is [`fnv64`] of the payload. The loader scans records in
//! order and stops at the first frame that is truncated, oversized, or
//! checksum-mismatched; everything from that point on is discarded and
//! the file is truncated back to the last good record, so the journal
//! is loadable again after the next append. A missing or mangled magic
//! discards the whole file (it was not a journal we wrote, or its very
//! head was torn).
//!
//! # Durability
//!
//! [`Journal::append`] writes the frame; [`Journal::sync`] fsyncs it.
//! [`Journal::compact`] atomically replaces the journal with a snapshot
//! via a temp file + rename, so a crash mid-compaction leaves either
//! the old journal or the new one, never a half-written hybrid.
//!
//! # Cross-process sharing
//!
//! [`Journal::open_locked`] additionally takes an **advisory exclusive
//! lock** (BSD `flock` semantics via `std::fs::File::try_lock`) on the
//! journal file, so several `cobalt verify --journal same-path`
//! processes can point at one journal without interleaving half-frames:
//! exactly one holds the journal at a time, the rest time out after a
//! bounded wait and degrade to uncached verification. The lock follows
//! the open file description, so it survives [`Journal::compact`]'s
//! rename (the replacement temp file is locked *before* the rename, and
//! exclusivity is handed over with the handle). Because a competing
//! process may compact (rename over) the path between our `open` and
//! our `try_lock`, acquisition re-verifies that the locked handle still
//! names the path's inode and reopens if not.
//!
//! # Stores
//!
//! Payloads are opaque to the journal. [`Store`] layers the one
//! fingerprint-keyed cache every caller shares (proof outcomes, engine
//! procedure results, daemon answers): records declared with
//! [`journal_record!`](crate::journal_record) are encoded as a `v1`
//! version tag, `fp=` as 16 hex digits, then tab-separated `key=value`
//! fields with escaped text. The store replays the latest record per
//! fingerprint, appends with fsync, degrades to memory only when the
//! journal fails, and compacts by reusing each kept record's raw bytes.
//!
//! # Fault points
//!
//! `journal.load`, `journal.write`, and `journal.fsync` are
//! [`fault`](crate::fault) sites (`fail` actions surface as
//! `io::Error`), so callers' degradation paths are testable:
//! `COBALT_FAULTS=journal.write:fail@1`. `journal.lock` is special: a
//! `fail` action simulates lock *contention* (an immediate
//! [`LockOutcome::Contended`]), not an I/O error, because contention is
//! the interesting degradation to rehearse.

use crate::fault;
use std::collections::{hash_map, HashMap};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The 8-byte magic prefix identifying a journal file (and its format
/// version — bump the trailing digit on incompatible changes).
pub const MAGIC: &[u8; 8] = b"COBJRNL1";

/// Hard cap on a single record's payload; a length field above this is
/// treated as corruption rather than honoured (it would otherwise let
/// one flipped bit demand a multi-gigabyte allocation).
pub const MAX_PAYLOAD: usize = 1 << 24; // 16 MiB

/// Bytes of framing per record: `len: u32` + `checksum: u64`.
pub const FRAME: usize = 4 + 8;

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher, shared by the record checksums and
/// the checker's obligation fingerprints.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// FNV-1a 64-bit hash of `bytes` in one call.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Number of intact records recovered.
    pub records: usize,
    /// Bytes discarded from the tail (torn write, truncation, bit
    /// flip, or a foreign/mangled header). Zero for a clean journal.
    pub discarded_bytes: u64,
    /// Human-readable description of the first corruption encountered,
    /// if any.
    pub corruption: Option<String>,
}

impl LoadReport {
    /// Whether anything had to be discarded.
    pub fn corrupted(&self) -> bool {
        self.discarded_bytes > 0
    }
}

/// How a journal-backed session treats an existing journal. Shared by
/// every journal consumer (verification sessions, engine fixpoint
/// sessions) so the CLI's `--resume`/`--fresh` contract is one type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeMode {
    /// Reuse every intact, fingerprint-matching cached outcome; the
    /// default. An empty or absent journal resumes to nothing, so this
    /// is always safe.
    Resume,
    /// Discard any existing journal contents and start cold.
    Fresh,
}

/// The result of opening a journal: the handle, the recovered payloads
/// (in append order), and what the loader had to discard.
#[derive(Debug)]
pub struct Opened {
    /// The journal, positioned to append after the last good record.
    pub journal: Journal,
    /// Every intact record's payload, oldest first.
    pub records: Vec<Vec<u8>>,
    /// Recovery statistics.
    pub report: LoadReport,
}

/// The result of a deadline-bounded locked open: either the journal
/// (with the advisory exclusive lock held for its lifetime) or a report
/// that another holder kept the lock for the whole wait.
#[derive(Debug)]
pub enum LockOutcome {
    /// The lock was acquired; the journal is exclusively ours until
    /// dropped.
    Acquired(Opened),
    /// Another process (or handle) held the lock past the deadline, or
    /// an injected `journal.lock` fault simulated that. The caller
    /// should degrade per the PR 4 contract: verify uncached, change no
    /// verdict.
    Contended {
        /// Why acquisition gave up, for the caller's note to the user.
        reason: String,
    },
}

/// An append-only journal of checksummed records. See the
/// [module docs](self) for the format and crash-safety contract.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// End of the last good record (including the magic header); the
    /// next append goes here.
    valid_len: u64,
    /// Whether this handle holds the advisory exclusive lock (and must
    /// hand it over across compaction renames).
    locked: bool,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, recovering
    /// every intact record and truncating any corrupt tail so the file
    /// is immediately appendable again. Takes no lock; for
    /// cross-process sharing use [`Journal::open_locked`].
    ///
    /// # Errors
    ///
    /// Returns the underlying `io::Error` for filesystem failures
    /// (missing parent directory, permissions, an injected
    /// `journal.load` fault). *Corruption is not an error* — it is
    /// reported in [`Opened::report`] and repaired by truncation.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Opened> {
        let path = path.as_ref().to_path_buf();
        fault::point_err("journal.load").map_err(fault_io)?;
        let file = open_file(&path)?;
        load(path, file, false)
    }

    /// Opens the journal at `path` under an **advisory exclusive lock**,
    /// waiting up to `lock_wait` for a competing holder to release it.
    ///
    /// On [`LockOutcome::Acquired`] the lock is held until the journal
    /// is dropped (it follows the file handle, including across
    /// [`Journal::compact`]'s rename). On [`LockOutcome::Contended`]
    /// nothing is held and nothing was modified; the caller degrades.
    /// The wait polls `try_lock` rather than blocking indefinitely so
    /// a wedged holder can never wedge us past the deadline.
    ///
    /// # Errors
    ///
    /// Returns an `io::Error` for filesystem failures (including an
    /// injected `journal.load` fault). Lock *contention* is not an
    /// error, and an injected `journal.lock` fault is surfaced as
    /// contention, not as `Err`.
    pub fn open_locked(path: impl AsRef<Path>, lock_wait: Duration) -> io::Result<LockOutcome> {
        let path = path.as_ref().to_path_buf();
        fault::point_err("journal.load").map_err(fault_io)?;
        if let Err(e) = fault::point_err("journal.lock") {
            return Ok(LockOutcome::Contended {
                reason: format!("simulated lock contention ({e})"),
            });
        }
        let deadline = Instant::now() + lock_wait;
        // Outer loop: reopen when the path was renamed-over (a
        // competing holder compacted) between our open and our lock.
        loop {
            let file = open_file(&path)?;
            loop {
                match file.try_lock() {
                    Ok(()) => break,
                    Err(TryLockError::WouldBlock) => {
                        if Instant::now() >= deadline {
                            return Ok(LockOutcome::Contended {
                                reason: format!(
                                    "another process held the journal lock for {lock_wait:?}"
                                ),
                            });
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(TryLockError::Error(e)) => return Err(e),
                }
            }
            if same_inode(&file, &path)? {
                return load(path, file, true).map(LockOutcome::Acquired);
            }
            // Stale inode: the lock we won is on an unlinked file.
            // Drop it (releasing the lock) and race again.
        }
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether this handle holds the advisory exclusive lock.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Appends one record (length + FNV-64 checksum + payload).
    ///
    /// # Errors
    ///
    /// Returns an `io::Error` on filesystem failure, an injected
    /// `journal.write` fault, or a payload above [`MAX_PAYLOAD`].
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        fault::point_err("journal.write").map_err(fault_io)?;
        if payload.len() > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("journal record of {} bytes exceeds the cap", payload.len()),
            ));
        }
        let mut frame = Vec::with_capacity(FRAME + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.seek(SeekFrom::Start(self.valid_len))?;
        self.file.write_all(&frame)?;
        self.valid_len += frame.len() as u64;
        Ok(())
    }

    /// Flushes appended records to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// Returns an `io::Error` on failure or an injected `journal.fsync`
    /// fault.
    pub fn sync(&mut self) -> io::Result<()> {
        fault::point_err("journal.fsync").map_err(fault_io)?;
        self.file.sync_data()
    }

    /// Atomically replaces the journal's contents with exactly
    /// `records`, via a temp file in the same directory + rename. A
    /// crash at any point leaves either the old journal or the new one.
    ///
    /// # Errors
    ///
    /// Returns an `io::Error` on filesystem failure or an injected
    /// `journal.write`/`journal.fsync` fault; the original journal is
    /// untouched on error.
    pub fn compact<P: AsRef<[u8]>>(&mut self, records: &[P]) -> io::Result<()> {
        fault::point_err("journal.write").map_err(fault_io)?;
        let tmp_path = tmp_sibling(&self.path);
        let locked = self.locked;
        let result = (|| -> io::Result<(File, u64)> {
            let mut tmp = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            let mut buf = Vec::with_capacity(MAGIC.len());
            buf.extend_from_slice(MAGIC);
            for payload in records {
                let payload = payload.as_ref();
                if payload.len() > MAX_PAYLOAD {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "journal record exceeds the cap",
                    ));
                }
                buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(&fnv64(payload).to_le_bytes());
                buf.extend_from_slice(payload);
            }
            tmp.write_all(&buf)?;
            if locked {
                // Lock the replacement *before* it becomes the journal,
                // so exclusivity never lapses across the rename: a
                // competitor that opens the path pre-rename locks a
                // doomed inode (and re-verifies, per `open_locked`); one
                // that opens it post-rename finds it already locked.
                tmp.lock()?;
            }
            fault::point_err("journal.fsync").map_err(fault_io)?;
            tmp.sync_data()?;
            std::fs::rename(&tmp_path, &self.path)?;
            Ok((tmp, buf.len() as u64))
        })();
        match result {
            Ok((file, len)) => {
                // The renamed temp file *is* the journal now; keep its
                // handle so later appends go to the right inode.
                self.file = file;
                self.valid_len = len;
                Ok(())
            }
            Err(e) => {
                std::fs::remove_file(&tmp_path).ok();
                Err(e)
            }
        }
    }

    fn write_magic(&mut self) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(MAGIC)?;
        self.valid_len = MAGIC.len() as u64;
        Ok(())
    }
}

/// Opens (creating if absent, never truncating) the journal file.
fn open_file(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
}

/// Reads, scans, and repairs an already-opened journal file, producing
/// the [`Opened`] handle.
fn load(path: PathBuf, mut file: File, locked: bool) -> io::Result<Opened> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let (records, valid_len, report) = scan(&bytes);
    // Repair: drop the corrupt tail now so the invariant "the file
    // ends at a record boundary" holds for every append.
    if (bytes.len() as u64) > valid_len {
        file.set_len(valid_len)?;
    }
    let mut journal = Journal {
        path,
        file,
        valid_len,
        locked,
    };
    if journal.valid_len == 0 {
        journal.write_magic()?;
    }
    Ok(Opened {
        journal,
        records,
        report,
    })
}

/// Whether the open handle still names the same file as `path` — false
/// when a competing compaction renamed a replacement over the path
/// between our `open` and our lock acquisition.
#[cfg(unix)]
fn same_inode(file: &File, path: &Path) -> io::Result<bool> {
    use std::os::unix::fs::MetadataExt;
    let handle = file.metadata()?;
    let on_disk = std::fs::metadata(path)?;
    Ok(handle.ino() == on_disk.ino() && handle.dev() == on_disk.dev())
}

/// Non-Unix fallback: no inode identity to compare; trust the handle.
#[cfg(not(unix))]
fn same_inode(_file: &File, _path: &Path) -> io::Result<bool> {
    Ok(true)
}

/// Scans raw journal bytes, returning the intact payloads, the byte
/// offset after the last good record, and a recovery report. Total and
/// panic-free on arbitrary input.
fn scan(bytes: &[u8]) -> (Vec<Vec<u8>>, u64, LoadReport) {
    let mut report = LoadReport::default();
    if bytes.is_empty() {
        return (Vec::new(), 0, report);
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        report.discarded_bytes = bytes.len() as u64;
        report.corruption = Some("missing or corrupt magic header".into());
        return (Vec::new(), 0, report);
    }
    let mut records = Vec::new();
    let mut offset = MAGIC.len();
    let corrupt = loop {
        if offset == bytes.len() {
            break None; // clean end
        }
        if bytes.len() - offset < FRAME {
            break Some(format!("torn frame header at byte {offset}"));
        }
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let checksum =
            u64::from_le_bytes(bytes[offset + 4..offset + FRAME].try_into().expect("8 bytes"));
        if len > MAX_PAYLOAD {
            break Some(format!("implausible record length {len} at byte {offset}"));
        }
        if bytes.len() - offset - FRAME < len {
            break Some(format!("truncated record payload at byte {offset}"));
        }
        let payload = &bytes[offset + FRAME..offset + FRAME + len];
        if fnv64(payload) != checksum {
            break Some(format!("checksum mismatch at byte {offset}"));
        }
        records.push(payload.to_vec());
        offset += FRAME + len;
    };
    report.records = records.len();
    report.discarded_bytes = (bytes.len() - offset) as u64;
    report.corruption = corrupt;
    (records, offset as u64, report)
}

/// The temp-file path used by [`Journal::compact`]: a sibling so the
/// rename stays within one filesystem.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn fault_io(e: fault::FaultError) -> io::Error {
    io::Error::other(e)
}

/// How long [`Store::open`] waits for a journal's advisory lock before
/// degrading: long enough to ride out a sibling's append bursts, short
/// enough that a wedged holder cannot wedge us.
pub const DEFAULT_LOCK_WAIT: Duration = Duration::from_secs(5);

/// Version tag written as the first field of every [`Store`] record.
const RECORD_VERSION: &str = "v1";

/// A record type a [`Store`] keeps: every field but the fingerprint,
/// stored as tab-separated `key=value` pairs. Declare one with
/// [`journal_record!`](crate::journal_record), which derives both
/// directions of the codec from a single field list.
pub trait Record: Sized {
    /// Appends `\tkey=value` for every field, in on-disk order.
    fn encode_fields(&self, out: &mut String);

    /// Rebuilds the record; `None` when a field is missing or malformed.
    fn decode_fields(fields: &Fields<'_>) -> Option<Self>;
}

/// A value a [`Record`] field may hold.
pub trait Field: Sized {
    /// Appends the encoded value.
    fn put(&self, out: &mut String);

    /// Decodes a value; `None` when malformed.
    fn take(raw: &str) -> Option<Self>;
}

/// Text, with backslash, tab, newline and carriage return escaped so a
/// value can never alias the record's separators.
impl Field for String {
    fn put(&self, out: &mut String) {
        for c in self.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
    }

    fn take(raw: &str) -> Option<String> {
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next()? {
                '\\' => out.push('\\'),
                't' => out.push('\t'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                _ => return None,
            }
        }
        Some(out)
    }
}

/// `1` or `0`; anything else is malformed.
impl Field for bool {
    fn put(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' });
    }

    fn take(raw: &str) -> Option<bool> {
        match raw {
            "1" => Some(true),
            "0" => Some(false),
            _ => None,
        }
    }
}

macro_rules! decimal_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn take(raw: &str) -> Option<$t> {
                raw.parse().ok()
            }
        }
    )*};
}
decimal_fields!(u8, u32, u64, usize);

/// The `key=value` pairs of one record being decoded.
#[derive(Debug)]
pub struct Fields<'a>(Vec<(&'a str, &'a str)>);

impl Fields<'_> {
    /// The decoded value under `key` (its last occurrence wins); `None`
    /// when the key is missing or its value malformed.
    pub fn get<T: Field>(&self, key: &str) -> Option<T> {
        T::take(self.raw(key)?)
    }

    fn raw(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }
}

/// Appends one `\tkey=value` field; the encoding half of
/// [`journal_record!`](crate::journal_record).
#[doc(hidden)]
pub fn put_field<T: Field>(out: &mut String, key: &str, value: &T) {
    out.push('\t');
    out.push_str(key);
    out.push('=');
    value.put(out);
}

/// Encodes `record` under fingerprint `fp`: the version tag, then
/// `fp=` as 16 hex digits, then the record's fields.
fn encode<R: Record>(fp: u64, record: &R) -> Vec<u8> {
    let mut out = format!("{RECORD_VERSION}\tfp={fp:016x}");
    record.encode_fields(&mut out);
    out.into_bytes()
}

/// Decodes a payload written by [`encode`]. `None` for another version,
/// a field without `=`, or a missing or malformed required field — such
/// records are skipped (not cached), never trusted and never fatal.
/// Unknown keys are ignored, so later versions may add fields.
fn decode<R: Record>(payload: &[u8]) -> Option<(u64, R)> {
    let text = std::str::from_utf8(payload).ok()?;
    let mut parts = text.split('\t');
    if parts.next()? != RECORD_VERSION {
        return None;
    }
    let fields = Fields(parts.map(|p| p.split_once('=')).collect::<Option<_>>()?);
    let fp = u64::from_str_radix(fields.raw("fp")?, 16).ok()?;
    Some((fp, R::decode_fields(&fields)?))
}

/// Declares a [`Record`](crate::journal::Record) struct from its field
/// list. Each field names the key it is stored under; the list's order
/// is the on-disk order, and every field is required when decoding.
///
/// ```
/// cobalt_support::journal_record! {
///     /// A greeting worth remembering.
///     #[derive(Debug, PartialEq)]
///     pub struct Greeting {
///         /// Who was greeted.
///         pub name: String = "name",
///         /// How often.
///         pub times: u32 = "times",
///     }
/// }
/// let store = cobalt_support::journal::Store::<Greeting>::in_memory();
/// assert!(store.is_empty());
/// ```
#[macro_export]
macro_rules! journal_record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty = $key:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)+
        }

        impl $crate::journal::Record for $name {
            fn encode_fields(&self, out: &mut String) {
                $($crate::journal::put_field(out, $key, &self.$field);)+
            }

            fn decode_fields(fields: &$crate::journal::Fields<'_>) -> Option<Self> {
                Some($name { $($field: fields.get($key)?,)+ })
            }
        }
    };
}

/// Which records [`Store::finish`] compacts the journal down to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// The records marked with [`Store::keep`], in that order. Stale
    /// and superseded records are dropped.
    Session,
    /// Every live record, in fingerprint order.
    All,
}

/// One live record and the exact payload it is stored as.
#[derive(Debug)]
struct Stored<R> {
    record: R,
    /// The payload on disk (empty when not journaled), so compaction
    /// carries the record over byte for byte.
    raw: Vec<u8>,
    /// Position among the loaded journal's records, while this is the
    /// loaded record.
    loaded_at: Option<usize>,
    /// Whether [`Keep::Session`] compaction keeps it.
    kept: bool,
}

/// A fingerprint-keyed map of [`Record`]s persisted in a [`Journal`]:
/// what makes a proof, an optimized procedure or a daemon answer
/// reusable across runs.
///
/// On open it replays the journal's records, the latest per fingerprint
/// winning. Every append is fsynced. Any journal trouble — lock
/// contention, a failed write, an injected fault — **degrades** the
/// store to memory only: lookups and appends keep working, nothing more
/// is persisted, and [`degraded`](Self::degraded) says why. A store
/// never changes what its caller computes, only how much is reused.
#[derive(Debug)]
pub struct Store<R> {
    journal: Option<Journal>,
    entries: HashMap<u64, Stored<R>>,
    /// Fingerprints [`Keep::Session`] compaction writes, in order.
    kept: Vec<u64>,
    /// Records in the journal as loaded, decodable or not.
    on_disk: usize,
    appended: bool,
    /// Fault point fired at open and before every append.
    site: Option<&'static str>,
    report: LoadReport,
    degraded: Option<String>,
}

impl<R: Record> Store<R> {
    /// A store without a journal: appends live in memory only.
    pub fn in_memory() -> Store<R> {
        Store {
            journal: None,
            entries: HashMap::new(),
            kept: Vec::new(),
            on_disk: 0,
            appended: false,
            site: None,
            report: LoadReport::default(),
            degraded: None,
        }
    }

    fn unjournaled(reason: String) -> Store<R> {
        Store {
            degraded: Some(reason),
            ..Store::in_memory()
        }
    }

    /// Opens (creating if absent) the journal at `path` under its
    /// advisory lock, waiting up to `lock_wait`, and replays its records
    /// — or, with [`ResumeMode::Fresh`], empties it. `site` names a
    /// fault point fired here and before every append.
    ///
    /// Lock contention is not an error: the store comes up degraded.
    ///
    /// # Errors
    ///
    /// The `io::Error` when the journal cannot be opened or emptied, or
    /// `site` fires.
    pub fn open(
        path: &Path,
        mode: ResumeMode,
        lock_wait: Duration,
        site: Option<&'static str>,
    ) -> io::Result<Store<R>> {
        if let Some(site) = site {
            fault::point_err(site).map_err(fault_io)?;
        }
        let opened = match Journal::open_locked(path, lock_wait)? {
            LockOutcome::Acquired(opened) => opened,
            LockOutcome::Contended { reason } => {
                return Ok(Store::unjournaled(format!(
                    "journal lock unavailable ({reason})"
                )))
            }
        };
        let mut journal = opened.journal;
        let mut store = Store {
            site,
            ..Store::in_memory()
        };
        match mode {
            ResumeMode::Fresh => journal.compact(&[] as &[&[u8]])?,
            ResumeMode::Resume => {
                store.on_disk = opened.records.len();
                store.report = opened.report;
                for (i, raw) in opened.records.into_iter().enumerate() {
                    if let Some((fp, record)) = decode(&raw) {
                        let entry = Stored {
                            record,
                            raw,
                            loaded_at: Some(i),
                            kept: false,
                        };
                        store.entries.insert(fp, entry);
                    }
                }
            }
        }
        store.journal = Some(journal);
        Ok(store)
    }

    /// [`open`](Self::open) that never fails: an error yields a
    /// degraded in-memory store.
    pub fn open_or_degrade(
        path: &Path,
        mode: ResumeMode,
        lock_wait: Duration,
        site: Option<&'static str>,
    ) -> Store<R> {
        Store::open(path, mode, lock_wait, site)
            .unwrap_or_else(|e| Store::unjournaled(format!("journal unavailable ({e})")))
    }

    /// Whether a journal is attached and healthy.
    pub fn is_journaled(&self) -> bool {
        self.journal.is_some()
    }

    /// What the journal loader recovered and discarded at open.
    pub fn load_report(&self) -> &LoadReport {
        &self.report
    }

    /// Why the store stopped persisting, if it did.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The live record under `fp`.
    pub fn get(&self, fp: u64) -> Option<&R> {
        self.entries.get(&fp).map(|e| &e.record)
    }

    /// Drops every record `keep` rejects.
    pub fn retain(&mut self, mut keep: impl FnMut(&R) -> bool) {
        self.entries.retain(|_, e| keep(&e.record));
    }

    /// Marks the record under `fp` as part of this session, for
    /// [`Keep::Session`] compaction.
    pub fn keep(&mut self, fp: u64) {
        if let Some(e) = self.entries.get_mut(&fp) {
            if !e.kept {
                e.kept = true;
                self.kept.push(fp);
            }
        }
    }

    /// Stores `record` under `fp`, superseding any earlier record. While
    /// journaled it is also appended with fsync; a failed write degrades
    /// the store, and the record still lives in memory. Without a
    /// journal nothing is encoded.
    pub fn append(&mut self, fp: u64, record: R) {
        let mut raw = Vec::new();
        if let Some(journal) = self.journal.as_mut() {
            raw = encode(fp, &record);
            let wrote = self
                .site
                .map_or(Ok(()), |site| fault::point_err(site).map_err(fault_io))
                .and_then(|()| journal.append(&raw))
                .and_then(|()| journal.sync());
            match wrote {
                Ok(()) => self.appended = true,
                Err(e) => self.degrade(format!("journal write failed ({e})")),
            }
        }
        match self.entries.entry(fp) {
            hash_map::Entry::Occupied(mut slot) => {
                let e = slot.get_mut();
                e.record = record;
                e.raw = raw;
                e.loaded_at = None;
            }
            hash_map::Entry::Vacant(slot) => {
                slot.insert(Stored {
                    record,
                    raw,
                    loaded_at: None,
                    kept: false,
                });
            }
        }
    }

    /// Compacts the journal down to the records `keep` selects (atomic
    /// temp file + rename) and releases it, and its lock. When those are
    /// exactly the loaded records in file order and nothing was
    /// appended, the bytes would not change, so nothing is rewritten. A
    /// failed compaction degrades: the appended journal is still valid.
    pub fn finish(&mut self, keep: Keep) {
        let Some(mut journal) = self.journal.take() else {
            return;
        };
        let fps = match keep {
            Keep::Session => std::mem::take(&mut self.kept),
            Keep::All => {
                let mut fps: Vec<u64> = self.entries.keys().copied().collect();
                fps.sort_unstable();
                fps
            }
        };
        let records: Vec<&Stored<R>> = fps.iter().filter_map(|fp| self.entries.get(fp)).collect();
        let unchanged = !self.appended
            && records.len() == self.on_disk
            && records
                .iter()
                .enumerate()
                .all(|(i, e)| e.loaded_at == Some(i));
        if unchanged {
            return;
        }
        let payloads: Vec<&[u8]> = records.iter().map(|e| e.raw.as_slice()).collect();
        if let Err(e) = journal.compact(&payloads) {
            self.degrade(format!("journal compaction failed ({e})"));
        }
    }

    fn degrade(&mut self, reason: String) {
        self.journal = None;
        self.degraded.get_or_insert(reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "cobalt_journal_{}_{name}.cobj",
            std::process::id()
        ))
    }

    #[test]
    fn roundtrip_append_and_reload() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        let mut opened = Journal::open(&path).unwrap();
        assert!(opened.records.is_empty());
        opened.journal.append(b"alpha").unwrap();
        opened.journal.append(b"").unwrap(); // empty payloads are legal
        opened.journal.append(b"gamma\tdelta\n").unwrap();
        opened.journal.sync().unwrap();
        let reopened = Journal::open(&path).unwrap();
        assert_eq!(
            reopened.records,
            vec![b"alpha".to_vec(), b"".to_vec(), b"gamma\tdelta\n".to_vec()]
        );
        assert!(!reopened.report.corrupted());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_discarded_and_repaired() {
        let path = tmp("truncated");
        std::fs::remove_file(&path).ok();
        let mut opened = Journal::open(&path).unwrap();
        opened.journal.append(b"keep-me").unwrap();
        opened.journal.append(b"lose-my-tail").unwrap();
        drop(opened);
        let len = std::fs::metadata(&path).unwrap().len();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..len as usize - 3]).unwrap();
        let recovered = Journal::open(&path).unwrap();
        assert_eq!(recovered.records, vec![b"keep-me".to_vec()]);
        assert!(recovered.report.corrupted());
        assert!(recovered.report.corruption.is_some());
        // The repair truncated the file: a fresh append then reload
        // yields exactly [keep-me, appended].
        let mut journal = recovered.journal;
        journal.append(b"appended").unwrap();
        drop(journal);
        let reloaded = Journal::open(&path).unwrap();
        assert_eq!(
            reloaded.records,
            vec![b"keep-me".to_vec(), b"appended".to_vec()]
        );
        assert!(!reloaded.report.corrupted());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_discards_from_the_flipped_record() {
        let path = tmp("bitflip");
        std::fs::remove_file(&path).ok();
        let mut opened = Journal::open(&path).unwrap();
        for payload in [b"record-one".as_slice(), b"record-two", b"record-three"] {
            opened.journal.append(payload).unwrap();
        }
        drop(opened);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the second record's payload.
        let second_payload_start = MAGIC.len() + FRAME + b"record-one".len() + FRAME;
        bytes[second_payload_start + 2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let recovered = Journal::open(&path).unwrap();
        assert_eq!(recovered.records, vec![b"record-one".to_vec()]);
        assert!(recovered
            .report
            .corruption
            .as_deref()
            .unwrap()
            .contains("checksum mismatch"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_file_is_not_trusted() {
        let path = tmp("foreign");
        std::fs::write(&path, b"this is not a journal at all").unwrap();
        let recovered = Journal::open(&path).unwrap();
        assert!(recovered.records.is_empty());
        assert!(recovered.report.corrupted());
        // And it has been converted into a valid empty journal.
        let reloaded = Journal::open(&path).unwrap();
        assert!(reloaded.records.is_empty());
        assert!(!reloaded.report.corrupted());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_length_field_is_corruption_not_allocation() {
        let path = tmp("oversize");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        let recovered = Journal::open(&path).unwrap();
        assert!(recovered.records.is_empty());
        assert!(recovered
            .report
            .corruption
            .as_deref()
            .unwrap()
            .contains("implausible"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_replaces_contents_atomically() {
        let path = tmp("compact");
        std::fs::remove_file(&path).ok();
        let mut opened = Journal::open(&path).unwrap();
        opened.journal.append(b"old-1").unwrap();
        opened.journal.append(b"old-2").unwrap();
        opened
            .journal
            .compact(&[b"new-1".as_slice(), b"new-2", b"new-3"])
            .unwrap();
        // Appends after compaction land on the renamed file.
        opened.journal.append(b"post").unwrap();
        opened.journal.sync().unwrap();
        drop(opened);
        let reloaded = Journal::open(&path).unwrap();
        assert_eq!(
            reloaded.records,
            vec![
                b"new-1".to_vec(),
                b"new-2".to_vec(),
                b"new-3".to_vec(),
                b"post".to_vec()
            ]
        );
        assert!(!std::fs::exists(tmp_sibling(&path)).unwrap_or(true));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_points_surface_as_io_errors() {
        let path = tmp("faults");
        std::fs::remove_file(&path).ok();
        let e = fault::with_faults("journal.load:fail@1", || Journal::open(&path)).unwrap_err();
        assert!(e.to_string().contains("injected fault"));
        let mut opened = Journal::open(&path).unwrap();
        let e = fault::with_faults("journal.write:fail@1", || opened.journal.append(b"x"))
            .unwrap_err();
        assert!(e.to_string().contains("journal.write"));
        let e = fault::with_faults("journal.fsync:fail@1", || opened.journal.sync()).unwrap_err();
        assert!(e.to_string().contains("journal.fsync"));
        // After a failed append nothing was written: reload is clean.
        opened.journal.append(b"real").unwrap();
        drop(opened);
        let reloaded = Journal::open(&path).unwrap();
        assert_eq!(reloaded.records, vec![b"real".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_is_exclusive_within_and_across_handles() {
        // flock is per open file description, so two handles in one
        // process contend exactly like two processes do.
        let path = tmp("lock_excl");
        std::fs::remove_file(&path).ok();
        let holder = match Journal::open_locked(&path, Duration::ZERO).unwrap() {
            LockOutcome::Acquired(o) => o,
            LockOutcome::Contended { reason } => panic!("fresh file contended: {reason}"),
        };
        assert!(holder.journal.is_locked());
        match Journal::open_locked(&path, Duration::from_millis(20)).unwrap() {
            LockOutcome::Contended { reason } => {
                assert!(reason.contains("held the journal lock"), "{reason}")
            }
            LockOutcome::Acquired(_) => panic!("lock was not exclusive"),
        }
        // Unlocked open still works (advisory locks don't block I/O) —
        // the discipline is the caller's, which is why Session always
        // goes through open_locked.
        assert!(Journal::open(&path).is_ok());
        drop(holder);
        match Journal::open_locked(&path, Duration::ZERO).unwrap() {
            LockOutcome::Acquired(o) => assert!(o.journal.is_locked()),
            LockOutcome::Contended { reason } => panic!("lock not released on drop: {reason}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_wait_outlasts_a_short_holder() {
        let path = tmp("lock_wait");
        std::fs::remove_file(&path).ok();
        let holder = match Journal::open_locked(&path, Duration::ZERO).unwrap() {
            LockOutcome::Acquired(o) => o,
            LockOutcome::Contended { .. } => unreachable!(),
        };
        let path2 = path.clone();
        let waiter = std::thread::spawn(move || {
            Journal::open_locked(&path2, Duration::from_secs(5)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(holder);
        match waiter.join().unwrap() {
            LockOutcome::Acquired(_) => {}
            LockOutcome::Contended { reason } => panic!("waiter should win the lock: {reason}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_survives_compaction_rename() {
        let path = tmp("lock_compact");
        std::fs::remove_file(&path).ok();
        let mut holder = match Journal::open_locked(&path, Duration::ZERO).unwrap() {
            LockOutcome::Acquired(o) => o,
            LockOutcome::Contended { .. } => unreachable!(),
        };
        holder.journal.append(b"pre").unwrap();
        holder.journal.compact(&[b"kept".as_slice()]).unwrap();
        assert!(holder.journal.is_locked());
        // The path's current inode (the renamed replacement) is locked:
        // a competitor still times out.
        match Journal::open_locked(&path, Duration::from_millis(20)).unwrap() {
            LockOutcome::Contended { .. } => {}
            LockOutcome::Acquired(_) => panic!("exclusivity lapsed across compaction"),
        }
        holder.journal.append(b"post").unwrap();
        drop(holder);
        let reloaded = Journal::open(&path).unwrap();
        assert_eq!(reloaded.records, vec![b"kept".to_vec(), b"post".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_fault_simulates_contention_not_io_error() {
        let path = tmp("lock_fault");
        std::fs::remove_file(&path).ok();
        let outcome = fault::with_faults("journal.lock:fail@1", || {
            Journal::open_locked(&path, Duration::from_secs(5))
        })
        .unwrap();
        match outcome {
            LockOutcome::Contended { reason } => {
                assert!(reason.contains("simulated lock contention"), "{reason}")
            }
            LockOutcome::Acquired(_) => panic!("fault should have contended"),
        }
        // The fault fired once; a retry acquires normally.
        match Journal::open_locked(&path, Duration::ZERO).unwrap() {
            LockOutcome::Acquired(_) => {}
            LockOutcome::Contended { .. } => panic!("second attempt should acquire"),
        }
        std::fs::remove_file(&path).ok();
    }

    crate::journal_record! {
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Note {
            text: String = "text",
            n: u32 = "n",
            ok: bool = "ok",
        }
    }

    fn note(text: &str, n: u32) -> Note {
        Note {
            text: text.into(),
            n,
            ok: n.is_multiple_of(2),
        }
    }

    #[test]
    fn codec_round_trips_fields_and_escapes() {
        for text in ["", "plain", "tab\there", "line\nbreak", "back\\slash\r"] {
            let n = note(text, 7);
            assert_eq!(decode::<Note>(&encode(0xfeed, &n)), Some((0xfeed, n)));
        }
        assert_eq!(
            encode(1, &note("a\tb", 2)),
            b"v1\tfp=0000000000000001\ttext=a\\tb\tn=2\tok=1".to_vec()
        );
    }

    #[test]
    fn decode_checks_version_and_required_keys_and_ignores_unknown_ones() {
        let good = "v1\tfp=00000000000000ff\ttext=x\tn=3\tok=0";
        assert_eq!(decode::<Note>(good.as_bytes()), Some((0xff, note("x", 3))));
        let extended = format!("{good}\tfuture=whatever");
        assert_eq!(
            decode::<Note>(extended.as_bytes()),
            Some((0xff, note("x", 3)))
        );
        for junk in [
            "",
            "v0\tfp=00000000000000ff\ttext=x\tn=3\tok=0",
            "v1\tfp=00000000000000ff\ttext=x\tn=3",
            "v1\ttext=x\tn=3\tok=0",
            "v1\tfp=nothex\ttext=x\tn=3\tok=0",
            "v1\tfp=00000000000000ff\ttext=bad\\x\tn=3\tok=0",
            "v1\tfp=00000000000000ff\ttext=x\\\tn=3\tok=0",
            "v1\tfp=00000000000000ff\ttext=x\tn=three\tok=0",
            "v1\tfp=00000000000000ff\tnoequals\ttext=x\tn=3\tok=0",
        ] {
            assert_eq!(decode::<Note>(junk.as_bytes()), None, "{junk:?}");
        }
        assert_eq!(decode::<Note>(&[0xff, 0xfe]), None, "not utf-8");
        // A record cut off anywhere, mid-escape included, never decodes
        // to some other record.
        let whole = encode(1, &note("a\tb", 2));
        for end in 0..whole.len() {
            assert_eq!(decode::<Note>(&whole[..end]), None, "cut at {end}");
        }
    }

    fn store(path: &Path, mode: ResumeMode) -> Store<Note> {
        Store::open(path, mode, Duration::ZERO, None).unwrap()
    }

    #[test]
    fn store_replays_the_latest_record_and_compacts_to_the_session() {
        let path = tmp("store_session");
        std::fs::remove_file(&path).ok();
        let mut s = store(&path, ResumeMode::Fresh);
        s.append(1, note("old", 1));
        s.append(2, note("two", 2));
        s.append(1, note("new", 3));
        drop(s); // no finish: the appends alone must replay
        let mut s = store(&path, ResumeMode::Resume);
        assert_eq!(s.load_report().records, 3);
        assert_eq!(s.get(1), Some(&note("new", 3)), "latest record wins");
        s.append(3, note("three", 4));
        s.keep(3);
        s.keep(1);
        s.keep(3); // once only
        s.finish(Keep::Session);
        assert!(s.degraded().is_none());
        // Record 2 was not part of this session: dropped.
        let kept: Vec<_> = Journal::open(&path)
            .unwrap()
            .records
            .iter()
            .map(|r| decode::<Note>(r).unwrap().1.text)
            .collect();
        assert_eq!(kept, ["three", "new"]);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn unchanged_session_leaves_the_journal_file_alone() {
        use std::os::unix::fs::MetadataExt;
        let path = tmp("store_unchanged");
        std::fs::remove_file(&path).ok();
        let mut s = store(&path, ResumeMode::Fresh);
        s.append(1, note("a", 1));
        s.append(2, note("b", 2));
        s.keep(1);
        s.keep(2);
        s.finish(Keep::Session);
        let inode = std::fs::metadata(&path).unwrap().ino();
        // Same records, same order: nothing to rewrite.
        let mut s = store(&path, ResumeMode::Resume);
        s.keep(1);
        s.keep(2);
        s.finish(Keep::Session);
        assert_eq!(std::fs::metadata(&path).unwrap().ino(), inode);
        // The lock was released all the same.
        let mut s = store(&path, ResumeMode::Resume);
        assert!(s.is_journaled(), "{:?}", s.degraded());
        // Another order is another file.
        s.keep(2);
        s.keep(1);
        s.finish(Keep::Session);
        assert_ne!(std::fs::metadata(&path).unwrap().ino(), inode);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn keep_all_compacts_every_live_record_in_fingerprint_order() {
        let path = tmp("store_all");
        std::fs::remove_file(&path).ok();
        let mut s = store(&path, ResumeMode::Fresh);
        s.append(9, note("nine", 1));
        s.append(4, note("four", 2));
        s.append(9, note("nine again", 3));
        s.finish(Keep::All);
        let opened = Journal::open(&path).unwrap();
        let fps: Vec<u64> = opened
            .records
            .iter()
            .map(|r| decode::<Note>(r).unwrap().0)
            .collect();
        assert_eq!(fps, [4, 9]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_site_degrades_open_and_append_but_memory_keeps_working() {
        let path = tmp("store_fault");
        std::fs::remove_file(&path).ok();
        let site = Some("journal.test");
        let e = fault::with_faults("journal.test:fail@1", || {
            Store::<Note>::open(&path, ResumeMode::Fresh, Duration::ZERO, site)
        })
        .unwrap_err();
        assert!(e.to_string().contains("journal.test"), "{e}");
        let s = fault::with_faults("journal.test:fail@1", || {
            Store::<Note>::open_or_degrade(&path, ResumeMode::Fresh, Duration::ZERO, site)
        });
        assert!(s.degraded().unwrap().contains("journal unavailable"));
        let mut s = Store::open(&path, ResumeMode::Fresh, Duration::ZERO, site).unwrap();
        s.append(1, note("durable", 1));
        fault::with_faults("journal.test:fail@1", || s.append(2, note("lost", 2)));
        assert!(s.degraded().unwrap().contains("journal write failed"));
        assert!(!s.is_journaled());
        assert_eq!(s.get(2), Some(&note("lost", 2)), "memory still serves it");
        drop(s);
        let s = store(&path, ResumeMode::Resume);
        assert_eq!((s.len(), s.get(1)), (1, Some(&note("durable", 1))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_contention_degrades_and_fresh_empties() {
        let path = tmp("store_lock");
        std::fs::remove_file(&path).ok();
        let mut holder = store(&path, ResumeMode::Fresh);
        holder.append(1, note("x", 1));
        let second = store(&path, ResumeMode::Resume);
        assert!(second
            .degraded()
            .unwrap()
            .contains("journal lock unavailable"));
        assert!(second.is_empty());
        drop(holder);
        let s = store(&path, ResumeMode::Fresh);
        assert!(s.is_empty(), "fresh discards prior records");
        drop(s);
        assert!(store(&path, ResumeMode::Resume).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fnv64_matches_known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
        let mut streaming = Fnv64::new();
        streaming.write(b"foo").write(b"bar");
        assert_eq!(streaming.finish(), fnv64(b"foobar"));
    }
}
