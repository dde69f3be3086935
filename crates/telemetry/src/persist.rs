//! Crash-atomic host-side persistence.
//!
//! Every host artifact in the stack (checkpoints, traces, dataset files,
//! run reports) goes through this module so a process crash at any
//! instant leaves the destination either the complete old version, the
//! complete new version, or absent — never truncated. The protocol is the
//! classic stage-then-publish sequence:
//!
//! 1. write the full payload to a hidden temp file in the destination
//!    directory (`.<name>.tmp`),
//! 2. `fsync` the temp file so its contents are durable,
//! 3. publish it over the destination with `rename` (atomic on POSIX) or
//!    `hard_link` (for create-new semantics), and
//! 4. best-effort `fsync` the parent directory so the new directory entry
//!    is durable too.
//!
//! [`crash::point`]s are threaded between every step so the crash-schedule
//! harness can cut the sequence anywhere and verify the contract. A cut at
//! the post-write point additionally *truncates* the temp file to a seeded
//! prefix, modelling the partial page-out a real power cut leaves behind —
//! loaders never open temp names, so a torn temp file is garbage on disk,
//! not an observable state.
//!
//! Temp files are deliberately left behind on a crash or I/O error: a dead
//! process cannot clean up after itself, and the harness asserts that
//! leaked temp files never affect recovery.

use crate::crash;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A payload staged to a durable temp file, ready to publish.
pub struct StagedFile {
    tmp: PathBuf,
    tag: String,
}

fn tmp_name(dest: &Path) -> io::Result<PathBuf> {
    let name = dest.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("destination {} has no file name", dest.display()),
        )
    })?;
    let mut tmp = std::ffi::OsString::from(".");
    tmp.push(name);
    tmp.push(".tmp");
    Ok(dest.with_file_name(tmp))
}

/// `fsync` is meaningless (and unsupported) under miri; skip it there so
/// the interpreter can still execute these paths.
fn sync_file(f: &File) -> io::Result<()> {
    if cfg!(miri) {
        return Ok(());
    }
    f.sync_all()
}

/// Best-effort durability for the directory entry created by a publish.
/// Failure to fsync a directory (not supported everywhere) downgrades the
/// guarantee, it does not invalidate the artifact — so errors are dropped.
fn sync_dir(dir: &Path) {
    if cfg!(miri) {
        return;
    }
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Stage `bytes` for `dest`: write them to a hidden temp file next to the
/// destination and fsync it. Crash points: `<tag>.begin` (nothing written
/// yet), `<tag>.tmp` (temp written, not yet durable — a cut here tears the
/// temp file to a seeded prefix), `<tag>.sync` (temp durable).
pub fn stage(tag: &str, dest: &Path, bytes: &[u8]) -> io::Result<StagedFile> {
    crash::io_point(&format!("{tag}.begin"))?;
    if let Some(dir) = dest.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let tmp = tmp_name(dest)?;
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    if let Err(cut) = crash::point(&format!("{tag}.tmp")) {
        // Power died with the page cache half flushed: keep a seeded
        // prefix of the temp file and abandon it, exactly as a real crash
        // would. The destination is untouched.
        let keep = (bytes.len() as f64 * cut.keep) as u64;
        let _ = f.set_len(keep);
        return Err(cut.into());
    }
    sync_file(&f)?;
    crash::io_point(&format!("{tag}.sync"))?;
    Ok(StagedFile {
        tmp,
        tag: tag.to_string(),
    })
}

impl StagedFile {
    /// Publish over `dest` with an atomic `rename`, replacing any previous
    /// version. Crash point `<tag>.publish` sits after the rename: a cut
    /// there leaves the destination fully published (rename is atomic).
    pub fn publish(self, dest: &Path) -> io::Result<()> {
        fs::rename(&self.tmp, dest)?;
        let publish_point = format!("{}.publish", self.tag);
        crash::io_point(&publish_point)?;
        if let Some(dir) = dest.parent() {
            sync_dir(dir);
        }
        Ok(())
    }

    /// Publish to `dest` only if it does not already exist (the atomic
    /// analogue of `O_CREAT|O_EXCL`), via `hard_link`. On
    /// `AlreadyExists` the staged file is kept so the caller can retry
    /// with a different name; call [`discard`](Self::discard) when done.
    pub fn publish_new(&self, dest: &Path) -> io::Result<()> {
        fs::hard_link(&self.tmp, dest)?;
        let publish_point = format!("{}.publish", self.tag);
        crash::io_point(&publish_point)?;
        if let Some(dir) = dest.parent() {
            sync_dir(dir);
        }
        Ok(())
    }

    /// Remove the staged temp file (after a successful `publish_new`, or
    /// to abandon the stage).
    pub fn discard(self) {
        let _ = fs::remove_file(&self.tmp);
    }
}

/// Atomically replace `path` with `bytes`: the destination is observable
/// only as its complete old version or its complete new version,
/// whichever instant the process dies at. `tag` names the crash points
/// (`<tag>.begin` / `.tmp` / `.sync` / `.publish`).
pub fn atomic_write_file(tag: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
    stage(tag, path, bytes)?.publish(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_GATE;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gnndrive-persist-test").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let _g = TEST_GATE.lock();
        crash::disarm();
        let dir = scratch("replace");
        let path = dir.join("artifact.bin");
        atomic_write_file("test.art", &path, b"version-1").expect("write v1");
        assert_eq!(fs::read(&path).expect("read v1"), b"version-1");
        atomic_write_file("test.art", &path, b"v2").expect("write v2");
        assert_eq!(fs::read(&path).expect("read v2"), b"v2");
        // No temp residue on the happy path.
        assert_eq!(fs::read_dir(&dir).expect("dir").count(), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn every_cut_leaves_old_version_or_new_version() {
        let _g = TEST_GATE.lock();
        crash::disarm();
        let dir = scratch("cuts");
        let path = dir.join("artifact.bin");
        atomic_write_file("test.art", &path, b"old-contents").expect("seed old");

        crash::start_recording();
        atomic_write_file("test.art", &path, b"new-contents!").expect("record");
        let schedule = crash::stop_recording();
        assert_eq!(
            schedule,
            vec!["test.art.begin", "test.art.tmp", "test.art.sync", "test.art.publish"]
        );

        for cut_at in 0..schedule.len() as u64 {
            // Reset to the old version, then crash mid-rewrite.
            crash::disarm();
            atomic_write_file("test.art", &path, b"old-contents").expect("reset");
            crash::arm(cut_at, 0xC0FFEE + cut_at);
            let err = atomic_write_file("test.art", &path, b"new-contents!")
                .expect_err("armed cut must fire");
            assert_eq!(err.kind(), io::ErrorKind::Interrupted);
            crash::disarm();
            let observed = fs::read(&path).expect("dest must exist");
            assert!(
                observed == b"old-contents" || observed == b"new-contents!",
                "cut {cut_at} exposed a torn artifact: {observed:?}"
            );
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn cut_at_tmp_point_tears_only_the_temp_file() {
        let _g = TEST_GATE.lock();
        crash::disarm();
        let dir = scratch("torn-tmp");
        let path = dir.join("artifact.bin");
        let payload = vec![0xAB; 4096];
        crash::arm(1, 7); // ordinal 1 == <tag>.tmp
        atomic_write_file("test.art", &path, &payload).expect_err("cut at tmp");
        crash::disarm();
        assert!(!path.exists(), "destination must not appear");
        let tmp = dir.join(".artifact.bin.tmp");
        let torn = fs::read(&tmp).expect("torn temp is left behind");
        assert!(torn.len() < payload.len(), "temp must be truncated");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn publish_new_refuses_existing_destinations() {
        let _g = TEST_GATE.lock();
        crash::disarm();
        let dir = scratch("publish-new");
        let a = dir.join("r000.json");
        let b = dir.join("r001.json");
        fs::write(&a, b"taken").expect("occupy a");
        let staged = stage("test.new", &a, b"payload").expect("stage");
        let err = staged.publish_new(&a).expect_err("a is taken");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        staged.publish_new(&b).expect("b is free");
        staged.discard();
        assert_eq!(fs::read(&a).expect("a"), b"taken");
        assert_eq!(fs::read(&b).expect("b"), b"payload");
        assert!(!dir.join(".r000.json.tmp").exists(), "discard removes temp");
        let _ = fs::remove_dir_all(dir);
    }
}
