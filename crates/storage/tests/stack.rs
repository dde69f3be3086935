//! Property tests across the storage stack: the page cache and the async
//! ring must always return exactly what is on the disk image, whatever the
//! budget, access pattern, or eviction interleaving.

use gnndrive_storage::{
    IoRing, MemoryGovernor, PageCache, SimSsd, SsdProfile, PAGE_SIZE, SECTOR_SIZE,
};
use gnndrive_sync::rng::cases;
use std::sync::Arc;

fn device_with_pattern(len: usize) -> (Arc<SimSsd>, gnndrive_storage::FileHandle, Vec<u8>) {
    let ssd = SimSsd::new(SsdProfile::instant());
    let file = ssd.create_file(len as u64);
    let data: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
    ssd.import(file, 0, &data).unwrap();
    (ssd, file, data)
}

/// Page-cache reads under an arbitrary byte budget equal the raw image.
#[test]
fn pagecache_reads_match_disk_under_any_budget() {
    cases(32, |rng| {
        let (ssd, file, data) = device_with_pattern(8 * 1024);
        let gov = MemoryGovernor::new((rng.below(20) * PAGE_SIZE) as u64);
        let cache = PageCache::new(ssd, gov);
        let mut buf = vec![0u8; 600];
        for _ in 0..1 + rng.below(39) {
            let (off, len) = (rng.below(8000), 1 + rng.below(599));
            let len = len.min(data.len().saturating_sub(off));
            if len == 0 {
                continue;
            }
            cache.read(file, off as u64, &mut buf[..len]);
            assert_eq!(&buf[..len], &data[off..off + len]);
        }
    });
}

/// Ring reads with arbitrary sector sets return the right sectors, in
/// any completion order, tagged correctly.
#[test]
fn ring_reads_match_disk() {
    cases(32, |rng| {
        let sectors: Vec<u64> = (0..1 + rng.below(39))
            .map(|_| rng.below(64) as u64)
            .collect();
        let depth = 1 + rng.below(31);
        let (ssd, file, data) = device_with_pattern(64 * SECTOR_SIZE as usize);
        let mut ring = IoRing::new(ssd, 64, true);
        for (i, &s) in sectors.iter().enumerate() {
            ring.prepare_read(file, s * SECTOR_SIZE, SECTOR_SIZE as usize, i as u64)
                .unwrap();
            if i % depth == depth - 1 {
                ring.submit();
            }
        }
        let mut seen = vec![false; sectors.len()];
        let mut count = 0;
        ring.drain(|c| {
            let buf = c.result.expect("read ok");
            let s = sectors[c.user_data as usize] as usize;
            assert_eq!(&buf[..], &data[s * 512..(s + 1) * 512]);
            seen[c.user_data as usize] = true;
            count += 1;
        })
        .unwrap();
        assert_eq!(count, sectors.len());
        assert!(seen.iter().all(|&s| s));
    });
}

/// Anonymous charges + page-cache reads never exceed the budget, and
/// reads keep working (bypass) even under full pressure.
#[test]
fn governor_is_never_exceeded() {
    cases(32, |rng| {
        let (ssd, file, data) = device_with_pattern(32 * 1024);
        let gov = MemoryGovernor::new((1 + rng.below(63) as u64) * 1024);
        let cache = PageCache::new(ssd, Arc::clone(&gov));
        let mut held = Vec::new();
        for _ in 0..rng.below(8) {
            if let Ok(ch) = gov.charge(1 + rng.below(15_999) as u64) {
                held.push(ch);
            }
            assert!(gov.used() <= gov.budget());
        }
        let mut buf = vec![0u8; 100];
        for off in (0..32 * 1024 - 100).step_by(997) {
            cache.read(file, off as u64, &mut buf);
            assert_eq!(&buf[..], &data[off..off + 100]);
            assert!(gov.used() <= gov.budget(), "budget exceeded mid-read");
        }
    });
}

/// Concurrent mixed sync readers + ring writers on one device terminate
/// and observe consistent data (writers rewrite identical bytes).
#[test]
fn concurrent_sync_and_async_traffic() {
    let (ssd, file, data) = device_with_pattern(64 * 1024);
    let data = Arc::new(data);
    std::thread::scope(|s| {
        for t in 0..3 {
            let ssd = Arc::clone(&ssd);
            let data = Arc::clone(&data);
            s.spawn(move || {
                let mut buf = vec![0u8; 512];
                for i in 0..40u64 {
                    let off = ((i * 37 + t * 13) % 127) * 512;
                    ssd.read_blocking(file, off, &mut buf, true).unwrap();
                    assert_eq!(&buf[..], &data[off as usize..off as usize + 512]);
                }
            });
        }
        let ssd2 = Arc::clone(&ssd);
        let data2 = Arc::clone(&data);
        s.spawn(move || {
            let mut ring = IoRing::new(ssd2, 16, true);
            for i in 0..40u64 {
                let off = (i % 128) * 512;
                while ring
                    .prepare_write(
                        file,
                        off,
                        data2[off as usize..off as usize + 512].to_vec(),
                        i,
                    )
                    .is_err()
                {
                    ring.submit();
                    ring.wait_completion().unwrap();
                }
                ring.submit();
            }
            ring.drain(|c| {
                c.result.unwrap();
            })
            .unwrap();
        });
    });
}
