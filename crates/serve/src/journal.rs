//! The crash-safe append-only journal: completed campaigns *and*
//! mid-job checkpoints.
//!
//! Every completed campaign is appended as one self-verifying record
//! and fsync'd before the daemon reports the job done, so a daemon
//! killed at *any* instant — mid-write included — restarts with every
//! previously completed result intact and re-simulates nothing. The
//! design follows the durable-queue literature the ROADMAP cites: the
//! recovery invariant is that a record either passes its checksum and
//! is replayed, or is discarded along with everything after it (a torn
//! tail can only be the one in-flight append, never a completed
//! record — completion is reported only after `sync_data` returns).
//! The seeded [`FaultIo`](crate::durable::FaultIo) harness drives this
//! invariant through torn writes, short writes, `ENOSPC`, fsync
//! failures, and crash-point schedules in the tests below.
//!
//! Between completions, a running job periodically appends
//! **checkpoint records**: the job's position in its campaign grid,
//! the reports of the jobs already finished, and a sealed
//! [`SimCheckpoint`](nosq_core::SimCheckpoint) of the in-flight
//! simulation. Recovery hands back the *latest valid* checkpoint per
//! campaign (superseded checkpoints and checkpoints of campaigns that
//! later completed are dropped), so a killed daemon — or a killed
//! `nosq run --journal` — resumes a half-finished campaign from its
//! last checkpoint and re-simulates only the tail. Checkpoint records
//! are never compacted: the journal is append-only by design, and a
//! campaign's obsolete checkpoints cost disk, not correctness. All
//! file writes and fsyncs go through the [`DurableIo`] seam — this
//! module never touches `std::fs` outside its tests.
//!
//! # On-disk format
//!
//! ```text
//! "NOSQJRNL" magic (8 bytes)  |  u32 LE version (2)
//! repeated records, each one nosq_wire envelope:
//!   envelope::seal(campaign fingerprint, payload)
//! ```
//!
//! The envelope carries the length, the FNV-1a checksum and the
//! campaign fingerprint; the payload is [`Wire`]-encoded, led by a tag
//! byte. A completed-campaign payload is `0 ‖ name ‖ artifacts`, the
//! artifacts a list of `(file_name, contents)` strings. A checkpoint
//! payload is `1 ‖ name ‖ spec ‖ job_index ‖ completed ‖ state`, where
//! `completed` is the finished jobs' reports and `state` (absent at a
//! job boundary) is the sealed simulator checkpoint, stored raw —
//! itself an envelope, independently versioned, checksummed, and
//! config-fingerprinted. Version-1 journals (JSON payloads) are
//! refused like any foreign file. Recovery truncates the file back to
//! the last valid record, so a torn tail is also *physically* removed
//! and the next append starts from a clean boundary.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nosq_core::SimReport;
use nosq_lab::Artifact;
use nosq_wire::{envelope, Dec, Enc, Wire, WireError};

use crate::durable::{DurableFile, DurableIo, OsIo};

const MAGIC: &[u8; 8] = b"NOSQJRNL";
const VERSION: u32 = 2;
/// File header: magic + version.
const HEADER: usize = 12;

/// Payload tag of a completed-campaign record.
const COMPLETED: u8 = 0;
/// Payload tag of a checkpoint record.
const CHECKPOINT: u8 = 1;

/// One recovered completed-campaign entry.
#[derive(Clone, Debug)]
pub struct JournalEntry {
    /// The campaign fingerprint (also the wire job id).
    pub fingerprint: u64,
    /// The campaign name (diagnostic only).
    pub name: String,
    /// The deterministic artifacts, ready to serve.
    pub artifacts: Arc<Vec<Artifact>>,
}

/// One mid-campaign checkpoint: everything needed to resume a
/// half-finished campaign without re-simulating its finished prefix.
#[derive(Clone, Debug)]
pub struct CheckpointEntry {
    /// The campaign fingerprint (also the wire job id).
    pub fingerprint: u64,
    /// The campaign name (diagnostic only).
    pub name: String,
    /// The campaign spec, verbatim — recovery rebuilds the campaign
    /// from this text, so the journal is self-contained.
    pub spec: String,
    /// Grid index of the in-flight job (jobs `0..job_index` are in
    /// `completed`).
    pub job_index: u64,
    /// Reports of the already-finished grid jobs, in grid order.
    pub completed: Vec<SimReport>,
    /// The sealed [`SimCheckpoint`](nosq_core::SimCheckpoint) bytes of
    /// the in-flight job, `None` at a job boundary (the next job
    /// simply starts from scratch).
    pub state: Option<Vec<u8>>,
}

impl CheckpointEntry {
    /// The record a durable run journals for one [`CkptEvent`] of the
    /// campaign `fingerprint` built from `spec`.
    ///
    /// [`CkptEvent`]: nosq_lab::CkptEvent
    pub fn from_event(
        fingerprint: u64,
        name: &str,
        spec: &str,
        ev: &nosq_lab::CkptEvent<'_>,
    ) -> CheckpointEntry {
        CheckpointEntry {
            fingerprint,
            name: name.to_owned(),
            spec: spec.to_owned(),
            job_index: ev.job_index as u64,
            completed: ev.completed.to_vec(),
            state: ev.state.map(nosq_core::SimCheckpoint::to_bytes),
        }
    }
}

/// What recovery salvaged from a journal.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Completed campaigns, in append order.
    pub completed: Vec<JournalEntry>,
    /// The latest valid checkpoint of each campaign that never
    /// completed, ordered by fingerprint.
    pub partial: Vec<CheckpointEntry>,
}

/// The append-only journal: an open durable file plus recovery stats.
pub struct Journal {
    file: Box<dyn DurableFile>,
    path: PathBuf,
    records: u64,
    /// Bytes discarded by recovery (0 on a clean open).
    truncated: u64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("records", &self.records)
            .field("truncated", &self.truncated)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens (or creates) the journal at `path` on the real
    /// filesystem; see [`Journal::open_with`].
    pub fn open(path: &Path) -> std::io::Result<(Journal, Recovered)> {
        Journal::open_with(&mut OsIo, path)
    }

    /// Opens (or creates) the journal at `path` through `io`,
    /// validating every record and truncating the file back to the
    /// last intact one. Returns the journal and what recovery
    /// salvaged.
    pub fn open_with(io: &mut dyn DurableIo, path: &Path) -> std::io::Result<(Journal, Recovered)> {
        let mut file = io.open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut header = Vec::with_capacity(HEADER);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        let foreign = || {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{} is not a version-{VERSION} nosq journal", path.display()),
            )
        };

        let mut recovered = Recovered::default();
        let mut partials: BTreeMap<u64, CheckpointEntry> = BTreeMap::new();
        let mut records = 0u64;
        let mut valid_end = 0usize;
        if bytes.len() >= HEADER {
            if bytes[..HEADER] != header[..] {
                return Err(foreign());
            }
            valid_end = HEADER;
            while let Some((record, len)) = read_record(&bytes[valid_end..]) {
                match record {
                    Record::Completed(entry) => {
                        // A completed campaign supersedes every
                        // checkpoint it ever wrote.
                        partials.remove(&entry.fingerprint);
                        recovered.completed.push(entry);
                    }
                    Record::Checkpoint(entry) => {
                        partials.insert(entry.fingerprint, entry);
                    }
                }
                records += 1;
                valid_end += len;
            }
        } else if !header.starts_with(&bytes) {
            // Too short to hold a header and not a torn write of one:
            // someone else's file, which must be left untouched.
            return Err(foreign());
        }

        if valid_end == 0 {
            // Fresh file or a torn header write (nothing could have
            // been reported complete yet): rewrite from scratch.
            file.truncate(0)?;
            file.append(&header)?;
            file.sync_data()?;
        } else if valid_end < bytes.len() {
            // Torn tail: physically discard it so the next append
            // starts at a record boundary.
            file.truncate(valid_end as u64)?;
            file.sync_data()?;
        }

        recovered.partial = partials.into_values().collect();
        let truncated = bytes.len().saturating_sub(valid_end.max(HEADER)) as u64;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
                records,
                truncated,
            },
            recovered,
        ))
    }

    /// Seals one record payload in an envelope, appends it and fsyncs.
    fn append_record(&mut self, fingerprint: u64, payload: Enc) -> std::io::Result<()> {
        self.file
            .append(&envelope::seal(fingerprint, &payload.into_bytes()))?;
        self.file.sync_data()?;
        self.records += 1;
        Ok(())
    }

    /// Appends one completed campaign and fsyncs. Only after this
    /// returns may the daemon report the job complete — that ordering
    /// is the whole crash-safety argument.
    pub fn append(
        &mut self,
        fingerprint: u64,
        name: &str,
        artifacts: &[Artifact],
    ) -> std::io::Result<()> {
        let mut e = Enc::new();
        e.put_u8(COMPLETED);
        name.to_owned().enc(&mut e);
        let files: Vec<(String, String)> = artifacts
            .iter()
            .map(|a| (a.file_name.clone(), a.contents.clone()))
            .collect();
        files.enc(&mut e);
        self.append_record(fingerprint, e)
    }

    /// Appends one mid-campaign checkpoint and fsyncs. A later
    /// checkpoint or a completed record for the same campaign
    /// supersedes it at recovery.
    pub fn append_checkpoint(&mut self, entry: &CheckpointEntry) -> std::io::Result<()> {
        let mut e = Enc::new();
        e.put_u8(CHECKPOINT);
        entry.name.enc(&mut e);
        entry.spec.enc(&mut e);
        entry.job_index.enc(&mut e);
        entry.completed.enc(&mut e);
        entry.state.enc(&mut e);
        self.append_record(entry.fingerprint, e)
    }

    /// Records appended plus records recovered (checkpoints included).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes the recovery pass discarded on open (0 for a clean file).
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Turns a recovered [`CheckpointEntry`] into an executor
/// [`ResumeState`](nosq_lab::ResumeState), decoding the sealed
/// simulator snapshot under the in-flight job's configuration. Any
/// inconsistency — grid mismatch, undecodable state — degrades to
/// re-running from the nearest safe point (the job boundary, or a
/// fresh run) with a warning: recovery may lose work, never
/// correctness.
pub fn resume_state(
    campaign: &nosq_lab::Campaign,
    entry: &CheckpointEntry,
) -> Option<nosq_lab::ResumeState> {
    let id = crate::fingerprint::fingerprint_hex(entry.fingerprint);
    let job_index = entry.job_index as usize;
    if job_index > campaign.jobs() || entry.completed.len() != job_index {
        eprintln!("nosq: warning: checkpoint for {id} does not fit the grid; rerunning");
        return None;
    }
    let n_configs = campaign.configs.len();
    let checkpoint = entry.state.as_deref().and_then(|bytes| {
        if job_index >= campaign.jobs() {
            return None;
        }
        let cfg = &campaign.configs[job_index % n_configs].config;
        match nosq_core::SimCheckpoint::from_bytes(bytes, cfg) {
            Ok(ck) => Some(ck),
            Err(e) => {
                // A corrupt snapshot is never resumed (and thus never
                // influences produced bytes); the job restarts from its
                // boundary instead.
                eprintln!(
                    "nosq: warning: checkpoint state for {id} rejected ({e}); \
                     resuming from job boundary"
                );
                None
            }
        }
    });
    Some(nosq_lab::ResumeState {
        job_index,
        completed: entry.completed.clone(),
        checkpoint,
    })
}

enum Record {
    Completed(JournalEntry),
    Checkpoint(CheckpointEntry),
}

/// Opens and decodes the record at the start of `bytes`, returning it
/// and the bytes it spans; `None` on a short, corrupt, or malformed
/// record (recovery stops there).
fn read_record(bytes: &[u8]) -> Option<(Record, usize)> {
    let opened = envelope::open_prefix(bytes).ok()?;
    let record = decode_payload(opened.fingerprint, opened.payload).ok()?;
    Some((record, opened.len))
}

fn decode_payload(fingerprint: u64, payload: &[u8]) -> Result<Record, WireError> {
    let mut d = Dec::new(payload);
    let record = match d.take_u8()? {
        COMPLETED => {
            let name = String::dec(&mut d)?;
            let files = Vec::<(String, String)>::dec(&mut d)?;
            let artifacts = files
                .into_iter()
                .map(|(file_name, contents)| Artifact {
                    file_name,
                    contents,
                })
                .collect();
            Record::Completed(JournalEntry {
                fingerprint,
                name,
                artifacts: Arc::new(artifacts),
            })
        }
        CHECKPOINT => Record::Checkpoint(CheckpointEntry {
            fingerprint,
            name: Wire::dec(&mut d)?,
            spec: Wire::dec(&mut d)?,
            job_index: Wire::dec(&mut d)?,
            completed: Wire::dec(&mut d)?,
            state: Wire::dec(&mut d)?,
        }),
        _ => return Err(WireError::Invalid("journal record tag")),
    };
    d.finish()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{FaultIo, FaultKind};
    use std::fs::OpenOptions;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nosq-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn artifacts(tag: &str) -> Vec<Artifact> {
        vec![
            Artifact {
                file_name: format!("{tag}.matrix.csv"),
                contents: format!("a,b\n{tag},2\n"),
            },
            Artifact {
                file_name: format!("{tag}.summary.json"),
                contents: format!("{{\"tag\":\"{tag}\"}}"),
            },
        ]
    }

    fn report(seed: u64) -> SimReport {
        SimReport {
            cycles: seed * 10,
            insts: seed * 7,
            ..SimReport::default()
        }
    }

    fn ckpt_entry(fp: u64, job_index: u64, with_state: bool) -> CheckpointEntry {
        CheckpointEntry {
            fingerprint: fp,
            name: format!("camp-{fp}"),
            spec: format!("name = camp-{fp}\nconfigs = nosq\nprofiles = gzip\n"),
            job_index,
            completed: (0..job_index).map(report).collect(),
            state: with_state.then(|| vec![0xab; 64]),
        }
    }

    #[test]
    fn roundtrips_across_reopen() {
        let path = scratch("roundtrip.journal");
        {
            let (mut j, recovered) = Journal::open(&path).unwrap();
            assert!(recovered.completed.is_empty());
            j.append(7, "one", &artifacts("one")).unwrap();
            j.append(9, "two", &artifacts("two")).unwrap();
            assert_eq!(j.records(), 2);
        }
        let (j, recovered) = Journal::open(&path).unwrap();
        assert_eq!(j.records(), 2);
        assert_eq!(j.truncated_bytes(), 0);
        assert_eq!(recovered.completed.len(), 2);
        assert_eq!(recovered.completed[0].fingerprint, 7);
        assert_eq!(recovered.completed[1].name, "two");
        assert_eq!(*recovered.completed[1].artifacts, artifacts("two"));
        assert!(recovered.partial.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = scratch("torn.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(1, "keep", &artifacts("keep")).unwrap();
            j.append(2, "torn", &artifacts("torn")).unwrap();
        }
        // Chop the last record mid-payload, as a crash mid-append would.
        let full = std::fs::metadata(&path).unwrap().len();
        let torn_len = full - 10;
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(torn_len).unwrap();
        drop(file);

        let (mut j, recovered) = Journal::open(&path).unwrap();
        assert_eq!(
            recovered.completed.len(),
            1,
            "only the intact record survives"
        );
        assert_eq!(recovered.completed[0].name, "keep");
        assert!(j.truncated_bytes() > 0);
        // The file was physically truncated back to a record boundary,
        // so appends keep working and survive another reopen.
        j.append(3, "after", &artifacts("after")).unwrap();
        drop(j);
        let (_, again) = Journal::open(&path).unwrap();
        assert_eq!(
            again
                .completed
                .iter()
                .map(|e| e.name.as_str())
                .collect::<Vec<_>>(),
            vec!["keep", "after"]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checksum_stops_recovery() {
        let path = scratch("corrupt.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(1, "good", &artifacts("good")).unwrap();
            j.append(2, "bad", &artifacts("bad")).unwrap();
        }
        // Flip one payload byte of the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let (_, recovered) = Journal::open(&path).unwrap();
        assert_eq!(recovered.completed.len(), 1);
        assert_eq!(recovered.completed[0].name, "good");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_file_is_rejected() {
        let path = scratch("foreign.journal");
        std::fs::write(&path, b"this is not a journal file at all").unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // A version-1 journal: the same header magic, then one
        // length + FNV-1a framed JSON record.
        let payload = br#"{"job":"0000000000000007","name":"old","artifacts":[]}"#;
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&nosq_wire::fnv1a(payload).to_le_bytes());
        v1.extend_from_slice(payload);
        std::fs::write(&path, &v1).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            v1,
            "refused file was modified"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn short_foreign_file_is_refused_and_left_intact() {
        let path = scratch("notes.txt");
        // Shorter than a header but not a torn write of one: an 11-byte
        // text file, and a torn version-1 header.
        for contents in [&b"hello notes"[..], &b"NOSQJRNL\x01"[..]] {
            std::fs::write(&path, contents).unwrap();
            let err = Journal::open(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(std::fs::read(&path).unwrap(), contents);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_state_is_stored_raw() {
        let path = scratch("raw-state.journal");
        let (mut j, _) = Journal::open(&path).unwrap();
        let mut entry = ckpt_entry(4, 3, true);
        entry.state = Some((0..64 * 1024).map(|i| i as u8).collect());
        let before = std::fs::metadata(&path).unwrap().len();
        j.append_checkpoint(&entry).unwrap();
        let grown = std::fs::metadata(&path).unwrap().len() - before;
        let state = entry.state.as_ref().unwrap();
        assert!(
            grown < (state.len() + entry.spec.len() + 1024) as u64,
            "a {} B state grew the journal by {grown} B",
            state.len()
        );
        drop(j);
        let (_, recovered) = Journal::open(&path).unwrap();
        assert_eq!(recovered.partial[0].state, entry.state);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_header_is_reset() {
        let path = scratch("torn-header.journal");
        std::fs::write(&path, b"NOSQ").unwrap(); // crash before version
        let (mut j, recovered) = Journal::open(&path).unwrap();
        assert!(recovered.completed.is_empty());
        j.append(5, "fresh", &artifacts("fresh")).unwrap();
        drop(j);
        let (_, again) = Journal::open(&path).unwrap();
        assert_eq!(again.completed.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoints_roundtrip_and_supersede() {
        let path = scratch("ckpt.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append_checkpoint(&ckpt_entry(1, 0, true)).unwrap();
            j.append_checkpoint(&ckpt_entry(1, 2, true)).unwrap(); // supersedes
            j.append_checkpoint(&ckpt_entry(2, 1, false)).unwrap(); // boundary
            j.append_checkpoint(&ckpt_entry(3, 1, true)).unwrap();
            j.append(3, "camp-3", &artifacts("done")).unwrap(); // completes 3
        }
        let (_, recovered) = Journal::open(&path).unwrap();
        assert_eq!(recovered.completed.len(), 1);
        assert_eq!(recovered.partial.len(), 2, "campaign 3 completed");
        let one = &recovered.partial[0];
        assert_eq!((one.fingerprint, one.job_index), (1, 2));
        assert_eq!(one.completed.len(), 2);
        assert_eq!(one.completed[1], report(1));
        assert_eq!(one.state.as_deref(), Some(&[0xab; 64][..]));
        assert!(one.spec.contains("camp-1"));
        let two = &recovered.partial[1];
        assert_eq!((two.fingerprint, two.job_index), (2, 1));
        assert!(two.state.is_none(), "boundary checkpoint has no state");
        let _ = std::fs::remove_file(&path);
    }

    /// The durable-queue invariant under the full fault matrix: run a
    /// scripted append sequence against every crash point and every
    /// fault kind; after reboot + recovery, every *acknowledged*
    /// append is present, the recovered records form a prefix of the
    /// acknowledged sequence plus at most nothing — never a corrupt or
    /// partially-applied record.
    #[test]
    fn recovery_is_prefix_or_nothing_under_every_fault() {
        let kinds = [
            FaultKind::TornWrite,
            FaultKind::ShortWrite,
            FaultKind::Enospc,
            FaultKind::SyncFail,
            FaultKind::Crash,
        ];
        let path = PathBuf::from("/virtual/fault.journal");
        for seed in 1..=3u64 {
            for at_op in 0..12u64 {
                for kind in kinds {
                    let io = FaultIo::new(seed).with_fault(at_op, kind);
                    let mut handle = io.clone();
                    let mut acked: Vec<u64> = Vec::new();
                    // Open may itself hit the fault (header write ops).
                    if let Ok((mut j, _)) = Journal::open_with(&mut handle, &path) {
                        for fp in 1..=4u64 {
                            let tag = format!("f{fp}");
                            match j.append(fp, &tag, &artifacts(&tag)) {
                                Ok(()) => acked.push(fp),
                                Err(_) => break,
                            }
                        }
                    }
                    io.reboot();
                    let mut handle = io.clone();
                    let (_, recovered) =
                        Journal::open_with(&mut handle, &path).expect("post-reboot open succeeds");
                    let got: Vec<u64> = recovered.completed.iter().map(|e| e.fingerprint).collect();
                    // Every acknowledged record survived...
                    assert!(
                        got.len() >= acked.len(),
                        "seed {seed} op {at_op} {kind:?}: acked {acked:?} but recovered {got:?}"
                    );
                    assert_eq!(
                        &got[..acked.len()],
                        &acked[..],
                        "seed {seed} op {at_op} {kind:?}"
                    );
                    // ...and anything beyond is a fully-applied record
                    // from the failed append (a torn write that
                    // happened to land completely), in sequence.
                    let expect: Vec<u64> = (1..=got.len() as u64).collect();
                    assert_eq!(got, expect, "seed {seed} op {at_op} {kind:?}");
                    for e in &recovered.completed {
                        assert_eq!(
                            *e.artifacts,
                            artifacts(&format!("f{}", e.fingerprint)),
                            "recovered artifacts must be bit-exact"
                        );
                    }
                }
            }
        }
    }

    /// Same invariant for checkpoint records: recovery never hands
    /// back a corrupt or partially-written checkpoint.
    #[test]
    fn checkpoint_recovery_survives_crash_points() {
        let path = PathBuf::from("/virtual/ckpt-fault.journal");
        for seed in 1..=3u64 {
            for at_op in 2..10u64 {
                let io = FaultIo::new(seed).with_fault(at_op, FaultKind::TornWrite);
                let mut handle = io.clone();
                let mut acked = 0u64;
                if let Ok((mut j, _)) = Journal::open_with(&mut handle, &path) {
                    for step in 1..=4u64 {
                        match j.append_checkpoint(&ckpt_entry(9, step, true)) {
                            Ok(()) => acked = step,
                            Err(_) => break,
                        }
                    }
                }
                io.reboot();
                let mut handle = io.clone();
                let (_, recovered) =
                    Journal::open_with(&mut handle, &path).expect("post-reboot open succeeds");
                match recovered.partial.first() {
                    Some(entry) => {
                        assert_eq!(entry.fingerprint, 9);
                        assert!(
                            entry.job_index >= acked,
                            "seed {seed} op {at_op}: acked step {acked}, recovered {}",
                            entry.job_index
                        );
                        assert_eq!(entry.completed.len() as u64, entry.job_index);
                        assert_eq!(entry.state.as_deref(), Some(&[0xab; 64][..]));
                    }
                    None => assert_eq!(acked, 0, "acked checkpoints cannot vanish"),
                }
            }
        }
    }
}
