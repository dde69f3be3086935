//! End-to-end data integrity for the simulated device.
//!
//! Real SSDs fail *silently* as well as loudly: bits rot at rest, writes
//! tear across power loss, and firmware occasionally services a read from
//! the wrong LBA while reporting success (a *misdirected read*). A
//! disk-based training system that trusts every successful read will feed
//! poisoned feature bytes straight into gradients, so the storage layer
//! keeps a per-sector CRC32 table alongside the disk image — the simulated
//! analog of T10-DIF / per-block checksum metadata — and hosts verify every
//! read boundary against it ([`crate::SimSsd::verify`]).
//!
//! The checksum table is maintained by the device on every write path
//! (`create_file`, `import`, serviced writes). Silent-corruption fault
//! modes deliberately break the data *without* touching the table (or, for
//! torn writes, break the data while the table records the intended
//! contents), so a mismatch is exactly the signature a real scrubber or
//! read-verify path would see.
//!
//! Detection outcomes are counted in the telemetry registry:
//! `storage.integrity.detected` (verification caught a mismatch),
//! `storage.integrity.escaped` (corrupt bytes slipped past verification —
//! the simulator knows ground truth, so this tripwire must stay at zero),
//! and `storage.integrity.quarantined` (persistently bad sectors fenced
//! off until the scrubber repairs them).

use crate::ssd::SECTOR_SIZE;
use std::fmt;

/// CRC32 (IEEE 802.3, reflected) slice-by-8 lookup tables, built at compile
/// time. `TABLES[0]` is the classic byte-at-a-time table; `TABLES[t][b]` is
/// the CRC of byte `b` followed by `t` zero bytes, which lets eight input
/// bytes be folded in with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of `data`. The same polynomial zlib/ethernet use; collisions
/// are possible in principle, which is why [`crate::SimSsd::verify`] keeps a
/// ground-truth escape tripwire.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let (groups, tail) = data.as_chunks::<8>();
    for g in groups {
        let lo = crc ^ u32::from_le_bytes([g[0], g[1], g[2], g[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][g[4] as usize]
            ^ t[2][g[5] as usize]
            ^ t[1][g[6] as usize]
            ^ t[0][g[7] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// A read returned bytes whose checksum does not match the device's
/// per-sector CRC table — the typed outcome of every verification boundary
/// (page-cache fill, extractor ring completion, checkpoint load).
///
/// Converts into [`crate::IoError::Corrupt`], which is *transient* for
/// [`crate::RetryPolicy`] purposes: in-flight corruption (bit flips,
/// misdirected reads) is healed by re-reading, while persistent media
/// corruption keeps failing until the scrubber repairs the sector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityError {
    /// File whose read failed verification.
    pub file: u32,
    /// File-relative byte offset of the first sector that failed.
    pub offset: u64,
    /// CRC the device's table expected for that sector.
    pub expected: u32,
    /// CRC of the bytes the read actually returned.
    pub actual: u32,
    /// Whether the backing image itself disagrees with the table (media
    /// corruption, e.g. a torn write) as opposed to in-flight corruption
    /// of this read only. Persistent mismatches get quarantined.
    pub persistent: bool,
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checksum mismatch reading file {} at offset {}: expected {:#010x}, got {:#010x} ({})",
            self.file,
            self.offset,
            self.expected,
            self.actual,
            if self.persistent {
                "persistent media corruption"
            } else {
                "in-flight corruption"
            }
        )
    }
}

impl std::error::Error for IntegrityError {}

/// The per-sector CRC table covering a disk image. Index `i` holds the CRC
/// of image bytes `[i * SECTOR_SIZE, (i + 1) * SECTOR_SIZE)`; the image is
/// always kept sector-padded so every sector is full-length.
#[derive(Debug, Default)]
pub(crate) struct SectorChecksums {
    crcs: Vec<u32>,
}

impl SectorChecksums {
    /// Grow the table to cover an image of `image_len` bytes, checksumming
    /// the (zero-filled) new sectors.
    pub(crate) fn grow_to(&mut self, image_len: usize) {
        let sectors = image_len.div_ceil(SECTOR_SIZE as usize);
        if sectors > self.crcs.len() {
            let zero_crc = crc32(&[0u8; SECTOR_SIZE as usize]);
            self.crcs.resize(sectors, zero_crc);
        }
    }

    /// Recompute the CRCs of every sector overlapping `[start, end)` from
    /// the image bytes.
    pub(crate) fn refresh(&mut self, image: &[u8], start: usize, end: usize) {
        let sec = SECTOR_SIZE as usize;
        let first = start / sec;
        let last = end.div_ceil(sec);
        for s in first..last {
            let lo = s * sec;
            let hi = (lo + sec).min(image.len());
            self.crcs[s] = crc32(&image[lo..hi]);
        }
    }

    /// Stored CRC of sector `idx`.
    pub(crate) fn get(&self, idx: usize) -> u32 {
        self.crcs[idx]
    }

    /// Overwrite the stored CRC of sector `idx` (torn writes record the
    /// *intended* CRC so later reads detect the tear).
    pub(crate) fn set(&mut self, idx: usize, crc: u32) {
        self.crcs[idx] = crc;
    }

    /// Number of sectors the table covers.
    pub(crate) fn sectors(&self) -> usize {
        self.crcs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bytewise_loop_at_every_length_and_alignment() {
        let mut rng = gnndrive_sync::Rng::seed_from_u64(0xC4C);
        let mut buf = vec![0u8; 1100 + 8];
        for word in buf.chunks_mut(8) {
            word.copy_from_slice(&rng.next_u64().to_le_bytes()[..word.len()]);
        }
        for len in 0..=1100 {
            for start in 0..8 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "len {len} at offset {start}"
                );
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = vec![0xA5u8; 512];
        let clean = crc32(&data);
        for bit in [0usize, 1, 7, 2048, 4095] {
            let mut bad = data.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&bad), clean, "bit {bit} flip must change the CRC");
        }
    }

    #[test]
    fn sector_table_grows_and_refreshes() {
        let mut t = SectorChecksums::default();
        let mut image = vec![0u8; 1024];
        t.grow_to(image.len());
        assert_eq!(t.sectors(), 2);
        assert_eq!(t.get(0), crc32(&[0u8; 512]));
        image[600] = 9;
        t.refresh(&image, 600, 601);
        assert_eq!(t.get(0), crc32(&[0u8; 512]), "untouched sector unchanged");
        assert_eq!(t.get(1), crc32(&image[512..1024]));
    }

    #[test]
    fn integrity_error_displays_both_crcs() {
        let e = IntegrityError {
            file: 2,
            offset: 1024,
            expected: 0xDEAD_BEEF,
            actual: 0x0BAD_F00D,
            persistent: true,
        };
        let s = e.to_string();
        assert!(s.contains("0xdeadbeef") && s.contains("0x0badf00d"), "{s}");
        assert!(s.contains("persistent"), "{s}");
    }
}
