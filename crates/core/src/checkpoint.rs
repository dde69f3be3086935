//! Checkpoint/resume for fault-tolerant training.
//!
//! A [`TrainCheckpoint`] freezes everything a resumed run needs to
//! continue the exact training trajectory: the model weight blob
//! ([`gnndrive_nn::GnnModel::save`]), the Adam state blob
//! ([`gnndrive_tensor::Adam::save`] — step count and both moment vectors),
//! and the epoch/batch cursor. Blobs round-trip through a self-describing
//! `GNCK` container that can live on the simulated SSD (written through
//! the storage stack, so checkpoint I/O is subject to the same timing and
//! fault model as training I/O) or on the host filesystem (the CLI's
//! `--checkpoint-every` / `--resume` path).

use crate::error::Error;
use gnndrive_storage::{crc32, FileHandle, IoPriority, SimSsd};
use gnndrive_telemetry as telemetry;
use std::path::Path;
use std::sync::Arc;

const CHECKPOINT_MAGIC: [u8; 4] = *b"GNCK";
/// Version 2 appends a CRC32 footer over everything before it; version-1
/// containers (no footer) are no longer accepted — a resumed run must
/// never deserialize bytes it cannot prove intact.
const CHECKPOINT_VERSION: u8 = 2;
/// magic + version + epoch + next_batch + two blob lengths.
const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 8 + 8;
/// CRC32 (IEEE) of `bytes[..len - 4]`, little-endian.
const FOOTER_LEN: usize = 4;

/// Why a checkpoint container was rejected. Typed so callers (the CLI's
/// `--resume`, the pipeline's restore) can explain the failure instead of
/// deserializing garbage or panicking mid-restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The magic bytes are missing: not a GNCK container at all.
    BadMagic,
    /// A GNCK container, but a version this build cannot parse.
    UnsupportedVersion(u8),
    /// The container is shorter or longer than its declared lengths.
    Truncated { expected: usize, actual: usize },
    /// The declared blob lengths overflow (hostile or garbage header).
    BadLengths,
    /// The CRC32 footer does not match the payload: the container was
    /// corrupted at rest or in transit.
    CrcMismatch { expected: u32, actual: u32 },
    /// The container was intact but a model/optimizer blob inside it
    /// failed to deserialize.
    Blob(String),
    /// Host filesystem I/O failed while reading or writing the container.
    HostIo { path: String, detail: String },
    /// The on-SSD slot was allocated but its commit record (the length
    /// header) was never published — the writer died between shadow-write
    /// and publish. The slot holds no checkpoint; recovery falls back to
    /// an older one.
    Unpublished,
    /// A simulated crash schedule cut persistence at the named crash
    /// point (testing only; never produced in production runs).
    Crashed { point: String },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => {
                write!(f, "not a GNNDrive training checkpoint (bad magic)")
            }
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads version \
                     {CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated or oversized checkpoint: declared {expected} bytes, got {actual}"
                )
            }
            CheckpointError::BadLengths => write!(f, "corrupt checkpoint blob lengths"),
            CheckpointError::CrcMismatch { expected, actual } => {
                write!(
                    f,
                    "checkpoint failed CRC32 validation: footer {expected:#010x}, \
                     payload {actual:#010x}"
                )
            }
            CheckpointError::Blob(msg) => write!(f, "checkpoint blob rejected: {msg}"),
            CheckpointError::HostIo { path, detail } => write!(f, "{path}: {detail}"),
            CheckpointError::Unpublished => {
                write!(f, "checkpoint slot was never published (no commit record)")
            }
            CheckpointError::Crashed { point } => {
                write!(f, "checkpoint persistence cut by crash schedule at {point:?}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A crash point on the SSD persistence path, surfaced as a typed
/// [`CheckpointError::Crashed`] when an armed schedule cuts there.
fn ssd_point(name: &str) -> Result<(), Error> {
    telemetry::crash::point(name).map_err(|cut| {
        Error::Checkpoint(CheckpointError::Crashed {
            point: cut.point.clone(),
        })
    })
}

/// A frozen training state: resume point plus model and optimizer blobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainCheckpoint {
    /// Epoch the resumed run continues in.
    pub epoch: u64,
    /// First batch of that epoch still to be trained
    /// (see [`Pipeline::train_epoch_range`](crate::Pipeline::train_epoch_range)).
    pub next_batch: u64,
    /// [`gnndrive_nn::GnnModel::save`] blob.
    pub model: Vec<u8>,
    /// [`gnndrive_tensor::Adam::save`] blob.
    pub optimizer: Vec<u8>,
}

impl TrainCheckpoint {
    /// Serialize into the `GNCK` container format: header, blobs, then a
    /// CRC32 footer over everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(HEADER_LEN + self.model.len() + self.optimizer.len() + FOOTER_LEN);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.push(CHECKPOINT_VERSION);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.next_batch.to_le_bytes());
        out.extend_from_slice(&(self.model.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.optimizer.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.model);
        out.extend_from_slice(&self.optimizer);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse a [`TrainCheckpoint::to_bytes`] container, validating magic,
    /// version, declared lengths, and the CRC32 footer before any blob
    /// bytes are handed to a deserializer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < HEADER_LEN + FOOTER_LEN || bytes[0..4] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if bytes[4] != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(bytes[4]));
        }
        let rd = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let (epoch, next_batch) = (rd(5), rd(13));
        let model_len = rd(21) as usize;
        let opt_len = rd(29) as usize;
        let need = HEADER_LEN
            .checked_add(model_len)
            .and_then(|n| n.checked_add(opt_len))
            .and_then(|n| n.checked_add(FOOTER_LEN))
            .ok_or(CheckpointError::BadLengths)?;
        if bytes.len() != need {
            return Err(CheckpointError::Truncated {
                expected: need,
                actual: bytes.len(),
            });
        }
        let payload = &bytes[..need - FOOTER_LEN];
        let expected = u32::from_le_bytes(bytes[need - FOOTER_LEN..].try_into().unwrap());
        let actual = crc32(payload);
        if expected != actual {
            return Err(CheckpointError::CrcMismatch { expected, actual });
        }
        let model = bytes[HEADER_LEN..HEADER_LEN + model_len].to_vec();
        let optimizer = bytes[HEADER_LEN + model_len..need - FOOTER_LEN].to_vec();
        Ok(TrainCheckpoint {
            epoch,
            next_batch,
            model,
            optimizer,
        })
    }

    /// Persist through the storage stack, crash-atomically: shadow-write
    /// the container at offset 8 of a freshly allocated file, flush, and
    /// only then publish it by writing the 8-byte length header at offset
    /// 0 (the commit record) and flushing again. A freshly created file's
    /// header reads as zero, so a crash or power cut anywhere before the
    /// final flush leaves the slot typed-[`CheckpointError::Unpublished`]
    /// (or detectably torn) — never a slot that deserializes garbage.
    /// Checkpoint I/O still goes through blocking writes, so it pays the
    /// device's modeled cost and is exposed to its fault plan like any
    /// other I/O.
    pub fn write_to_ssd(&self, ssd: &Arc<SimSsd>) -> Result<FileHandle, Error> {
        let file = ssd.create_file(8 + self.to_bytes().len() as u64);
        self.write_to_slot(ssd, file)?;
        Ok(file)
    }

    /// Persist into a pre-allocated slot file — the crash-recoverable
    /// protocol: a restart only needs the fixed slot directory (handles
    /// allocated before any crash window opens), never a handle returned
    /// by a write that may have died.
    ///
    /// Ordering: the slot's commit record is zeroed and the invalidation
    /// flushed *before* the new blob overwrites the old occupant's bytes
    /// (so a slot is never published while holding mixed generations),
    /// then shadow-write the blob, flush, and only then publish by
    /// writing the length header and flushing again. A power cut in any
    /// window leaves the slot typed-[`CheckpointError::Unpublished`] or
    /// detectably torn — never deserializable garbage.
    pub fn write_to_slot(&self, ssd: &Arc<SimSsd>, slot: FileHandle) -> Result<(), Error> {
        let blob = self.to_bytes();
        if (blob.len() as u64).saturating_add(8) > slot.len {
            return Err(Error::Checkpoint(CheckpointError::BadLengths));
        }
        ssd_point("checkpoint.ssd.begin")?;
        ssd.write_blocking(slot, 0, &[0u8; 8], false)
            .map_err(Error::Io)?;
        ssd.flush(slot);
        ssd.write_blocking(slot, 8, &blob, false)
            .map_err(Error::Io)?;
        ssd_point("checkpoint.ssd.blob")?;
        ssd.flush(slot);
        ssd_point("checkpoint.ssd.flushed")?;
        ssd.write_blocking(slot, 0, &(blob.len() as u64).to_le_bytes(), false)
            .map_err(Error::Io)?;
        ssd.flush(slot);
        ssd_point("checkpoint.ssd.publish")?;
        Ok(())
    }

    /// Read back a [`TrainCheckpoint::write_to_ssd`] file. The commit
    /// record is checked first (a zero header means the slot was never
    /// published), then the device bytes are checksum-verified (catching
    /// silent media corruption), then the container's own CRC footer is
    /// validated.
    pub fn read_from_ssd(ssd: &Arc<SimSsd>, file: FileHandle) -> Result<Self, Error> {
        let mut len = [0u8; 8];
        ssd.read_blocking(file, 0, &mut len, false)
            .map_err(Error::Io)?;
        let len = u64::from_le_bytes(len);
        if len == 0 {
            return Err(Error::Checkpoint(CheckpointError::Unpublished));
        }
        if len.saturating_add(8) > file.len {
            return Err(Error::Checkpoint(CheckpointError::BadLengths));
        }
        let mut blob = vec![0u8; len as usize];
        ssd.read_verified(file, 8, &mut blob, false, IoPriority::Bulk)
            .map_err(Error::Io)?;
        Ok(Self::from_bytes(&blob)?)
    }

    /// Scan checkpoint slots newest-to-oldest and return the most recent
    /// one that reads back intact, with its index in `files`. Slots whose
    /// writer died mid-persist (unpublished, torn, CRC-mismatched) are
    /// skipped — each is a typed error, so recovery degrades to the last
    /// durable checkpoint instead of deserializing damage. Bumps
    /// `storage.crash.recoveries` on success.
    pub fn recover_from_ssd(
        ssd: &Arc<SimSsd>,
        files: &[FileHandle],
    ) -> Option<(usize, TrainCheckpoint)> {
        for (i, &file) in files.iter().enumerate().rev() {
            if let Ok(ck) = Self::read_from_ssd(ssd, file) {
                telemetry::crash::note_recovery();
                return Some((i, ck));
            }
        }
        None
    }

    /// Write the container to a host filesystem path (the CLI's
    /// `--checkpoint-every` output). Crash-atomic: staged to a durable
    /// temp file and renamed into place, so `path` is only ever the
    /// complete old or complete new checkpoint.
    pub fn save_file(&self, path: &Path) -> Result<(), Error> {
        telemetry::atomic_write_file("checkpoint.host", path, &self.to_bytes()).map_err(|e| {
            Error::Checkpoint(CheckpointError::HostIo {
                path: format!("write {}", path.display()),
                detail: e.to_string(),
            })
        })
    }

    /// Load a [`TrainCheckpoint::save_file`] checkpoint (`--resume`).
    pub fn load_file(path: &Path) -> Result<Self, Error> {
        let bytes = std::fs::read(path).map_err(|e| {
            Error::Checkpoint(CheckpointError::HostIo {
                path: format!("read {}", path.display()),
                detail: e.to_string(),
            })
        })?;
        Ok(Self::from_bytes(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_storage::SsdProfile;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            epoch: 3,
            next_batch: 17,
            model: vec![1, 2, 3, 4, 5],
            optimizer: vec![9, 8, 7],
        }
    }

    #[test]
    fn container_round_trips() {
        let ck = sample();
        assert_eq!(TrainCheckpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }

    #[test]
    fn malformed_containers_are_rejected_with_typed_errors() {
        assert_eq!(
            TrainCheckpoint::from_bytes(b"nope"),
            Err(CheckpointError::BadMagic)
        );
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            TrainCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::Truncated { .. })
        ));
        let mut wrong_ver = sample().to_bytes();
        wrong_ver[4] = 99;
        assert_eq!(
            TrainCheckpoint::from_bytes(&wrong_ver),
            Err(CheckpointError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn flipped_payload_bits_fail_the_crc_footer() {
        let good = sample().to_bytes();
        // Flip one bit anywhere in the payload (cursor, blob byte, length):
        // the footer must catch it before any blob reaches a deserializer.
        for &pos in &[5usize, HEADER_LEN + 1, HEADER_LEN + 6] {
            let mut bytes = good.clone();
            bytes[pos] ^= 0x40;
            assert!(
                matches!(
                    TrainCheckpoint::from_bytes(&bytes),
                    Err(CheckpointError::CrcMismatch { .. })
                        | Err(CheckpointError::Truncated { .. })
                        | Err(CheckpointError::BadLengths)
                ),
                "bit flip at {pos} must be rejected"
            );
        }
        // Flipping the footer itself is also a mismatch.
        let mut bytes = good.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            TrainCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::CrcMismatch { .. })
        ));
        // Display is informative enough for a CLI message.
        let msg = TrainCheckpoint::from_bytes(&bytes).unwrap_err().to_string();
        assert!(msg.contains("CRC32"), "unhelpful message: {msg}");
    }

    #[test]
    fn ssd_round_trip_through_storage_stack() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let ck = sample();
        let file = ck.write_to_ssd(&ssd).unwrap();
        assert_eq!(TrainCheckpoint::read_from_ssd(&ssd, file).unwrap(), ck);
    }

    #[test]
    fn slot_reuse_replaces_previous_occupant() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let a = sample();
        let slot = a.write_to_ssd(&ssd).unwrap();
        let mut b = sample();
        b.next_batch = 99;
        b.write_to_slot(&ssd, slot).unwrap();
        assert_eq!(TrainCheckpoint::read_from_ssd(&ssd, slot).unwrap(), b);
        // A blob too large for the slot is refused before any write.
        let mut fat = sample();
        fat.model = vec![0u8; slot.len as usize];
        assert!(matches!(
            fat.write_to_slot(&ssd, slot),
            Err(Error::Checkpoint(CheckpointError::BadLengths))
        ));
        assert_eq!(TrainCheckpoint::read_from_ssd(&ssd, slot).unwrap(), b);
    }

    #[test]
    fn recovery_scans_to_newest_published_slot() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let older = sample();
        let mut newer = sample();
        newer.next_batch = 40;
        let blob_len = 8 + older.to_bytes().len() as u64;
        let slots: Vec<FileHandle> = (0..3).map(|_| ssd.create_file(blob_len)).collect();
        older.write_to_slot(&ssd, slots[0]).unwrap();
        newer.write_to_slot(&ssd, slots[1]).unwrap();
        // slots[2] was allocated but never published: it must be skipped.
        assert!(matches!(
            TrainCheckpoint::read_from_ssd(&ssd, slots[2]),
            Err(Error::Checkpoint(CheckpointError::Unpublished))
        ));
        let (idx, ck) = TrainCheckpoint::recover_from_ssd(&ssd, &slots).unwrap();
        assert_eq!((idx, ck), (1, newer));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("gnndrive-ck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.gnck");
        let ck = sample();
        ck.save_file(&path).unwrap();
        assert_eq!(TrainCheckpoint::load_file(&path).unwrap(), ck);
        std::fs::remove_file(&path).ok();
    }
}
