//! Durable spilling of jobs and checkpoints — the daemon's crash-recovery
//! substrate.
//!
//! Each job owns up to two files in the spill directory, named by the
//! canonical fingerprint of its netlist:
//!
//! * `<fp:016x>.job` — submission metadata (priority, engine, preset,
//!   pass script) and the original AIGER bytes.  Written once at
//!   submission.
//! * `<fp:016x>.ckpt` — the latest encoded [`stp_sweep::SweepCheckpoint`].
//!   Rewritten at every suspension (and, when a wall-clock cadence is
//!   configured, periodically *within* a slice).
//!
//! Every write goes to a `.tmp` sibling first and is moved into place with
//! an atomic rename, and every file carries an FNV-1a checksum, so a crash
//! mid-write can never leave a half-written file that scans as valid.  On
//! restart, [`SpillDir::scan`] re-adopts every intact job; a corrupt
//! checkpoint degrades to re-running the job from scratch (correct, just
//! slower), and a corrupt metadata file is skipped entirely.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::job::{engine_from_u8, engine_to_u8, Priority};
use crate::protocol::Preset;
use stp_sweep::Engine;

/// The `.job` format, the only one read: priority, engine, preset, the
/// AIGER bytes and the pass script.  Spill files outlive a daemon only
/// until the same build restarts, so older magics are not read.
const JOB_MAGIC: &[u8; 4] = b"SWJ4";
const CKPT_MAGIC: &[u8; 4] = b"SWC1";

/// FNV-1a, the workspace's stock integrity hash for sidecar files.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// What a `.job` file records about a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpilledJob {
    /// Scheduling priority at submission.
    pub priority: Priority,
    /// Engine the job runs under.
    pub engine: Engine,
    /// Configuration preset the job runs under.
    pub preset: Preset,
    /// The original AIGER bytes — resumes always run against this exact
    /// netlist, which is what makes spilled checkpoints byte-exact.
    pub aiger: Vec<u8>,
    /// Pass script of a scripted submission; empty for a plain sweep.
    pub passes: String,
}

/// One job recovered by [`SpillDir::scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredJob {
    /// Canonical fingerprint the files were keyed by.
    pub canonical_fingerprint: u64,
    /// The submission metadata.
    pub job: SpilledJob,
    /// The latest intact checkpoint bytes, if any were spilled.
    pub checkpoint: Option<Vec<u8>>,
}

/// A directory the daemon spills to.
#[derive(Debug, Clone)]
pub struct SpillDir {
    dir: PathBuf,
}

impl SpillDir {
    /// Opens (creating if needed) a spill directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SpillDir { dir })
    }

    /// The directory being spilled to.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    fn job_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("{fp:016x}.job"))
    }

    fn ckpt_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("{fp:016x}.ckpt"))
    }

    /// Writes `payload` (with magic and checksum) atomically to `path`.
    fn write_atomic(path: &Path, magic: &[u8; 4], payload: &[u8]) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(payload.len() + 12);
        bytes.extend_from_slice(magic);
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&fnv64(&bytes).to_be_bytes());
        // Keep the `.job` and `.ckpt` staging files apart: both live under
        // the same hex stem, and concurrent writes must not collide.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, path)
    }

    /// Reads a checksummed file back; `Ok(None)` when missing, an error
    /// when present but corrupt or of another format.
    fn read_verified(path: &Path, magic: &[u8; 4]) -> io::Result<Option<Vec<u8>>> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(err),
        };
        let corrupt = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {what}", path.display()),
            )
        };
        if bytes.len() < 12 || &bytes[..4] != magic {
            return Err(corrupt("bad magic or truncated"));
        }
        let (body, sum) = bytes.split_at(bytes.len() - 8);
        if fnv64(body) != u64::from_be_bytes(sum.try_into().expect("8 bytes")) {
            return Err(corrupt("checksum mismatch"));
        }
        Ok(Some(body[4..].to_vec()))
    }

    /// Records a submission durably.
    pub fn write_job(&self, fp: u64, job: &SpilledJob) -> io::Result<()> {
        let mut payload = Vec::with_capacity(job.aiger.len() + job.passes.len() + 24);
        payload.push(job.priority.to_u8());
        payload.push(engine_to_u8(job.engine));
        payload.push(job.preset.to_u8());
        payload.extend_from_slice(&(job.aiger.len() as u64).to_be_bytes());
        payload.extend_from_slice(&job.aiger);
        payload.extend_from_slice(&(job.passes.len() as u32).to_be_bytes());
        payload.extend_from_slice(job.passes.as_bytes());
        Self::write_atomic(&self.job_path(fp), JOB_MAGIC, &payload)
    }

    /// Reads a submission back; `Ok(None)` when no `.job` file exists, an
    /// error when it is corrupt or of another format.
    pub fn read_job(&self, fp: u64) -> io::Result<Option<SpilledJob>> {
        let Some(payload) = Self::read_verified(&self.job_path(fp), JOB_MAGIC)? else {
            return Ok(None);
        };
        let corrupt = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        if payload.len() < 11 {
            return Err(corrupt("job record truncated"));
        }
        let priority = Priority::from_u8(payload[0]).ok_or_else(|| corrupt("bad priority"))?;
        let engine = engine_from_u8(payload[1]).ok_or_else(|| corrupt("bad engine"))?;
        let preset = Preset::from_u8(payload[2]).ok_or_else(|| corrupt("bad preset"))?;
        let len = u64::from_be_bytes(payload[3..11].try_into().expect("8 bytes")) as usize;
        let aiger_end = 11usize
            .checked_add(len)
            .filter(|&end| end <= payload.len())
            .ok_or_else(|| corrupt("job record length mismatch"))?;
        if payload.len() < aiger_end + 4 {
            return Err(corrupt("job record truncated"));
        }
        let passes_len = u32::from_be_bytes(
            payload[aiger_end..aiger_end + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        if payload.len() - (aiger_end + 4) != passes_len {
            return Err(corrupt("job record length mismatch"));
        }
        let passes = String::from_utf8(payload[aiger_end + 4..].to_vec())
            .map_err(|_| corrupt("non-UTF-8 pass script"))?;
        Ok(Some(SpilledJob {
            priority,
            engine,
            preset,
            aiger: payload[11..aiger_end].to_vec(),
            passes,
        }))
    }

    /// Records the latest checkpoint durably, replacing any previous one.
    pub fn write_checkpoint(&self, fp: u64, encoded: &[u8]) -> io::Result<()> {
        Self::write_atomic(&self.ckpt_path(fp), CKPT_MAGIC, encoded)
    }

    /// Reads the latest checkpoint back; `Ok(None)` when none was spilled.
    pub fn read_checkpoint(&self, fp: u64) -> io::Result<Option<Vec<u8>>> {
        Self::read_verified(&self.ckpt_path(fp), CKPT_MAGIC)
    }

    /// Forgets a job: removes both of its files (missing files are fine).
    pub fn remove(&self, fp: u64) -> io::Result<()> {
        for path in [self.job_path(fp), self.ckpt_path(fp)] {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(err) if err.kind() == io::ErrorKind::NotFound => {}
                Err(err) => return Err(err),
            }
        }
        Ok(())
    }

    /// Finds every intact spilled job, for re-adoption at daemon start.
    ///
    /// Corrupt or orphaned files are left in place and skipped; a corrupt
    /// checkpoint demotes its job to "recovered without checkpoint".
    pub fn scan(&self) -> io::Result<Vec<RecoveredJob>> {
        let mut recovered = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(stem) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".job"))
            else {
                continue;
            };
            let Ok(fp) = u64::from_str_radix(stem, 16) else {
                continue;
            };
            let Ok(Some(job)) = self.read_job(fp) else {
                continue;
            };
            let checkpoint = self.read_checkpoint(fp).unwrap_or(None);
            recovered.push(RecoveredJob {
                canonical_fingerprint: fp,
                job,
                checkpoint,
            });
        }
        recovered.sort_by_key(|job| job.canonical_fingerprint);
        Ok(recovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fresh_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sweepd-spill-{tag}-{}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_job() -> SpilledJob {
        SpilledJob {
            priority: Priority::High,
            engine: Engine::Stp,
            preset: Preset::Fast,
            aiger: b"aag 1 1 0 1 0\n2\n2\n".to_vec(),
            passes: String::new(),
        }
    }

    #[test]
    fn scripted_jobs_round_trip_and_retired_formats_are_skipped() {
        let spill = SpillDir::open(fresh_dir("script")).expect("open");
        let scripted = SpilledJob {
            passes: "strash;sweep(stp);verify".into(),
            ..sample_job()
        };
        spill.write_job(0xC0, &scripted).expect("write");
        assert_eq!(spill.read_job(0xC0).expect("read"), Some(scripted));

        // A `.job` file of the retired SWJ3 layout (a pass script plus a
        // trailing shard count), intact under its own checksum: reading it
        // is an error, and a scan skips the job without panicking.
        let old = sample_job();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SWJ3");
        bytes.push(old.priority.to_u8());
        bytes.push(engine_to_u8(old.engine));
        bytes.push(old.preset.to_u8());
        bytes.extend_from_slice(&(old.aiger.len() as u64).to_be_bytes());
        bytes.extend_from_slice(&old.aiger);
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&2u32.to_be_bytes());
        bytes.extend_from_slice(&fnv64(&bytes).to_be_bytes());
        fs::write(spill.path().join(format!("{:016x}.job", 0xC1u64)), &bytes).expect("write");
        let err = spill.read_job(0xC1).expect_err("SWJ3 is retired");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let recovered = spill.scan().expect("scan");
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].canonical_fingerprint, 0xC0);
        let _ = fs::remove_dir_all(spill.path());
    }

    #[test]
    fn a_job_record_with_trailing_bytes_is_corrupt() {
        let spill = SpillDir::open(fresh_dir("trailing")).expect("open");
        let job = sample_job();
        let mut payload = vec![
            job.priority.to_u8(),
            engine_to_u8(job.engine),
            job.preset.to_u8(),
        ];
        payload.extend_from_slice(&(job.aiger.len() as u64).to_be_bytes());
        payload.extend_from_slice(&job.aiger);
        payload.extend_from_slice(&0u32.to_be_bytes());
        payload.push(0);
        SpillDir::write_atomic(&spill.job_path(0xD0), JOB_MAGIC, &payload).expect("write");
        assert!(spill.read_job(0xD0).is_err());
        let _ = fs::remove_dir_all(spill.path());
    }

    #[test]
    fn job_and_checkpoint_round_trip() {
        let spill = SpillDir::open(fresh_dir("roundtrip")).expect("open");
        let job = sample_job();
        spill.write_job(0xAB, &job).expect("write job");
        spill
            .write_checkpoint(0xAB, b"checkpoint-bytes")
            .expect("write ckpt");
        assert_eq!(spill.read_job(0xAB).expect("read"), Some(job.clone()));
        assert_eq!(
            spill.read_checkpoint(0xAB).expect("read"),
            Some(b"checkpoint-bytes".to_vec())
        );

        let recovered = spill.scan().expect("scan");
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].canonical_fingerprint, 0xAB);
        assert_eq!(recovered[0].job, job);
        assert_eq!(
            recovered[0].checkpoint.as_deref(),
            Some(&b"checkpoint-bytes"[..])
        );

        spill.remove(0xAB).expect("remove");
        assert_eq!(spill.read_job(0xAB).expect("read"), None);
        assert!(spill.scan().expect("scan").is_empty());
        spill.remove(0xAB).expect("removing a missing job is fine");
        let _ = fs::remove_dir_all(spill.path());
    }

    #[test]
    fn rewriting_a_checkpoint_replaces_the_previous_one() {
        let spill = SpillDir::open(fresh_dir("rewrite")).expect("open");
        spill.write_checkpoint(7, b"first").expect("write");
        spill.write_checkpoint(7, b"second").expect("write");
        assert_eq!(
            spill.read_checkpoint(7).expect("read"),
            Some(b"second".to_vec())
        );
        let _ = fs::remove_dir_all(spill.path());
    }

    #[test]
    fn corruption_is_detected_and_scan_degrades_gracefully() {
        let spill = SpillDir::open(fresh_dir("corrupt")).expect("open");
        let job = sample_job();
        spill.write_job(1, &job).expect("write");
        spill
            .write_checkpoint(1, b"good-checkpoint")
            .expect("write");

        // Flip a byte inside the checkpoint body: the checksum must catch it
        // and scan must still recover the job, minus its checkpoint.
        let ckpt_path = spill.path().join(format!("{:016x}.ckpt", 1));
        let mut bytes = fs::read(&ckpt_path).expect("read raw");
        bytes[6] ^= 0xFF;
        fs::write(&ckpt_path, &bytes).expect("re-write");
        assert!(spill.read_checkpoint(1).is_err());
        let recovered = spill.scan().expect("scan");
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].checkpoint, None);

        // Corrupt metadata drops the whole job from the scan.
        let job_path = spill.path().join(format!("{:016x}.job", 1));
        let mut bytes = fs::read(&job_path).expect("read raw");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&job_path, &bytes).expect("re-write");
        assert!(spill.read_job(1).is_err());
        assert!(spill.scan().expect("scan").is_empty());
        let _ = fs::remove_dir_all(spill.path());
    }

    #[test]
    fn scan_ignores_stray_files() {
        let spill = SpillDir::open(fresh_dir("stray")).expect("open");
        fs::write(spill.path().join("notes.txt"), b"hi").expect("write");
        fs::write(spill.path().join("zzzz.job"), b"not hex, not valid").expect("write");
        fs::write(spill.path().join("00000000000000aa.tmp"), b"half a write").expect("write");
        assert!(spill.scan().expect("scan").is_empty());
        let _ = fs::remove_dir_all(spill.path());
    }
}
