//! An `io_uring` analog over the simulated SSD.
//!
//! The paper (Appendix A) extracts features with io_uring: requests are
//! rephrased as submission-queue entries, the kernel fills a completion
//! queue, and a *single thread* keeps a large I/O depth in flight without
//! per-request blocking. [`IoRing`] reproduces that programming model:
//!
//! * [`IoRing::prepare_read`] / [`IoRing::prepare_write`] append SQEs to a
//!   software submission queue (capacity `sq_capacity`);
//! * [`IoRing::submit`] pushes as many SQEs as the device queue will accept
//!   without blocking, the whole SQ under one device lock, as one
//!   `io_uring_enter` submits a batch; it wakes nobody;
//! * [`IoRing::peek_completion`] / [`IoRing::wait_completion`] reap CQEs.
//!   The device has no thread: like an io_uring whose reaper does the
//!   kernel's work, a reap that finds nothing of its own due advances the
//!   device (`SimSsd::advance`), which serves pending requests, this
//!   ring's and others', inline. A wait then parks in I/O-wait until its
//!   earliest completion is due, its first pending request would start,
//!   or another thread posts one of its completions.
//!
//! One ring belongs to one thread (like an io_uring instance); the extractor
//! in `gnndrive-core` owns one per mini-batch extraction.

use crate::error::IoError;
use crate::ssd::{Completion, FileHandle, IoOp, IoPriority, Replies, Request, SimSsd};
use gnndrive_telemetry as telemetry;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// A single-threaded submission/completion ring over a [`SimSsd`].
pub struct IoRing {
    device: Arc<SimSsd>,
    sq: VecDeque<Request>,
    /// The completion side: requests handed to the device and not yet
    /// reaped.
    cq: Replies,
    sq_capacity: usize,
    /// Whether prepared requests must obey direct-I/O sector alignment.
    direct: bool,
    /// QoS lane every request prepared on this ring is stamped with.
    prio: IoPriority,
}

impl IoRing {
    /// Create a ring with the given submission-queue capacity.
    ///
    /// `direct` selects the direct-I/O mode the paper uses for feature
    /// extraction: requests must be sector-aligned and bypass the page
    /// cache (the ring never touches the cache either way; buffered I/O
    /// goes through [`crate::PageCache`]). Requests submit on the
    /// [`IoPriority::Bulk`] lane; serving paths use
    /// [`IoRing::with_priority`].
    pub fn new(device: Arc<SimSsd>, sq_capacity: usize, direct: bool) -> Self {
        Self::with_priority(device, sq_capacity, direct, IoPriority::Bulk)
    }

    /// [`IoRing::new`] on an explicit QoS lane: every request prepared on
    /// this ring submits with `prio` (DESIGN.md §11).
    pub fn with_priority(
        device: Arc<SimSsd>,
        sq_capacity: usize,
        direct: bool,
        prio: IoPriority,
    ) -> Self {
        IoRing {
            device,
            sq: VecDeque::with_capacity(sq_capacity),
            cq: Replies::default(),
            sq_capacity,
            direct,
            prio,
        }
    }

    /// Requests currently submitted to the device but not yet reaped.
    pub fn inflight(&self) -> usize {
        self.cq.outstanding
    }

    /// Queue a read of `len` bytes at `offset`. The buffer is allocated by
    /// the thread that serves the read and handed back through the
    /// completion.
    pub fn prepare_read(
        &mut self,
        file: FileHandle,
        offset: u64,
        len: usize,
        user_data: u64,
    ) -> Result<(), IoError> {
        self.prepare(file, offset, Vec::new(), len, IoOp::Read, user_data)
    }

    /// Queue a write of `data` at `offset`.
    pub fn prepare_write(
        &mut self,
        file: FileHandle,
        offset: u64,
        data: Vec<u8>,
        user_data: u64,
    ) -> Result<(), IoError> {
        let len = data.len();
        self.prepare(file, offset, data, len, IoOp::Write, user_data)
    }

    fn prepare(
        &mut self,
        file: FileHandle,
        offset: u64,
        buf: Vec<u8>,
        len: usize,
        op: IoOp,
        user_data: u64,
    ) -> Result<(), IoError> {
        if self.sq.len() >= self.sq_capacity {
            return Err(IoError::RingFull);
        }
        self.device
            .validate(file.id, offset, len as u64, self.direct)?;
        self.sq.push_back(Request {
            file: file.id,
            offset,
            op,
            buf,
            len,
            user_data,
            reply: self.cq.sender(),
            // Restamped when the device accepts it.
            submitted: Instant::now(),
            prio: self.prio,
        });
        Ok(())
    }

    /// Push prepared entries to the device without blocking. Returns how
    /// many left the software queue; entries refused by a full device queue
    /// stay queued. On a shut-down device every entry is consumed and
    /// completes with [`IoError::DeviceClosed`] through the normal reap
    /// path, so callers see the failure rather than hanging.
    pub fn submit(&mut self) -> usize {
        if self.sq.is_empty() {
            return 0;
        }
        // A closed device answered each request it consumed with a
        // DeviceClosed completion on our channel; counting them in flight
        // keeps reaping balanced.
        let n = self.device.try_submit_many(self.prio, &mut self.sq);
        self.cq.outstanding += n;
        n
    }

    /// Reap one completion if one is due, without blocking.
    pub fn peek_completion(&mut self) -> Option<Completion> {
        self.cq.try_reap(&self.device)
    }

    /// Block (in I/O wait) until a completion is due.
    ///
    /// Returns `Ok(None)` if nothing is in flight or queued — calling blind
    /// would deadlock, so that case is made loud instead — and
    /// `Err(IoError::DeviceClosed)` if the device is shut down with nothing
    /// of ours in flight.
    pub fn wait_completion(&mut self) -> Result<Option<Completion>, IoError> {
        self.wait_completion_deadline(None)
    }

    /// [`IoRing::wait_completion`] with an absolute deadline: returns
    /// `Err(IoError::Timeout)` if no completion is due by `deadline`
    /// (the in-flight request itself stays outstanding and will be reaped
    /// by a later call). Used by retry policies to bound per-op waits.
    pub fn wait_completion_deadline(
        &mut self,
        deadline: Option<Instant>,
    ) -> Result<Option<Completion>, IoError> {
        // Ensure something of ours is actually in flight before blocking:
        // the device queue is shared, so a submit may accept nothing while
        // other rings fill it. Advancing the device makes room; when it
        // frees none, wait for the next hand-off.
        let mut wake = None;
        while self.inflight() == 0 {
            if self.sq.is_empty() {
                return Ok(None);
            }
            if self.device.is_closed() {
                return Err(IoError::DeviceClosed);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(IoError::Timeout);
            }
            if self.submit() == 0 {
                let _wait = telemetry::wait_timer(telemetry::WaitKind::RingWait);
                wake = self.device.wait_for_room(wake, deadline);
            }
        }
        // Attribution: a parked ring wait is the async path's 𝔒2 signal.
        let completion = self
            .cq
            .reap(&self.device, deadline, Some(telemetry::WaitKind::RingWait))
            .ok_or(IoError::Timeout)?;
        // Backfill the device queue from the software SQ.
        self.submit();
        Ok(Some(completion))
    }

    /// Convenience: submit everything and reap until all in-flight and
    /// queued requests have completed, invoking `on_complete` per CQE.
    pub fn drain(&mut self, mut on_complete: impl FnMut(Completion)) -> Result<(), IoError> {
        self.submit();
        while let Some(c) = self.wait_completion()? {
            on_complete(c);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssd::SsdProfile;
    use std::time::Duration;

    fn device_with_data(n: usize) -> (Arc<SimSsd>, FileHandle) {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file((n * 512) as u64);
        for i in 0..n {
            let sector = vec![i as u8; 512];
            ssd.import(f, (i * 512) as u64, &sector).unwrap();
        }
        (ssd, f)
    }

    #[test]
    fn reaps_all_submitted_reads_with_correct_data() {
        let (ssd, f) = device_with_data(64);
        let mut ring = IoRing::new(ssd, 64, true);
        for i in 0..64u64 {
            ring.prepare_read(f, i * 512, 512, i).unwrap();
        }
        let mut seen = [false; 64];
        ring.drain(|c| {
            let buf = c.result.expect("read ok");
            assert_eq!(buf[0] as u64, c.user_data);
            assert_eq!(buf.len(), 512);
            seen[c.user_data as usize] = true;
        })
        .unwrap();
        assert!(seen.iter().all(|&s| s));
        assert_eq!(ring.inflight(), 0);
    }

    #[test]
    fn misaligned_direct_prepare_fails_immediately() {
        let (ssd, f) = device_with_data(4);
        let mut ring = IoRing::new(ssd, 8, true);
        assert!(matches!(
            ring.prepare_read(f, 100, 512, 0),
            Err(IoError::Misaligned { .. })
        ));
        // Buffered ring accepts it.
        let (ssd2, f2) = device_with_data(4);
        let mut ring2 = IoRing::new(ssd2, 8, false);
        ring2.prepare_read(f2, 100, 100, 0).unwrap();
    }

    #[test]
    fn wait_on_empty_ring_returns_none() {
        let (ssd, _f) = device_with_data(1);
        let mut ring = IoRing::new(ssd, 8, true);
        assert!(ring.wait_completion().unwrap().is_none());
    }

    #[test]
    fn shutdown_mid_flight_surfaces_device_closed() {
        let (ssd, f) = device_with_data(8);
        let mut ring = IoRing::new(Arc::clone(&ssd), 8, true);
        for i in 0..4u64 {
            ring.prepare_read(f, i * 512, 512, i).unwrap();
        }
        ring.submit();
        ssd.shutdown();
        // Every outstanding request resolves — either with its data (if a
        // channel took it before the close) or with DeviceClosed — and
        // the ring never parks forever.
        let mut resolved = 0;
        loop {
            match ring.wait_completion() {
                Ok(Some(_)) => resolved += 1,
                Ok(None) => break,
                Err(IoError::DeviceClosed) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(resolved <= 4);
        // New submissions fail fast with a DeviceClosed completion.
        ring.prepare_read(f, 0, 512, 99).unwrap();
        ring.submit();
        match ring.wait_completion() {
            Ok(Some(c)) => assert_eq!(c.result.unwrap_err(), IoError::DeviceClosed),
            Err(IoError::DeviceClosed) => {}
            other => panic!("expected DeviceClosed, got {other:?}"),
        }
    }

    #[test]
    fn wait_deadline_times_out_without_losing_the_request() {
        let mut profile = SsdProfile::instant();
        profile.read_latency = Duration::from_millis(50);
        profile.sleep_granularity = Duration::from_micros(100);
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(4096);
        let mut ring = IoRing::new(ssd, 8, true);
        ring.prepare_read(f, 0, 512, 7).unwrap();
        ring.submit();
        let err = ring
            .wait_completion_deadline(Some(Instant::now() + Duration::from_millis(5)))
            .unwrap_err();
        assert_eq!(err, IoError::Timeout);
        // The request is still in flight; a patient wait reaps it.
        let c = ring.wait_completion().unwrap().expect("completion");
        assert_eq!(c.user_data, 7);
        c.result.unwrap();
    }

    #[test]
    fn software_sq_overflows_device_queue_gracefully() {
        let mut profile = SsdProfile::instant();
        profile.queue_depth = 4;
        profile.read_latency = Duration::from_micros(200);
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(256 * 512);
        for i in 0..256usize {
            ssd.import(f, (i * 512) as u64, &vec![(i % 251) as u8; 512])
                .unwrap();
        }
        let mut ring = IoRing::new(ssd, 256, true);
        for i in 0..256u64 {
            ring.prepare_read(f, i * 512, 512, i).unwrap();
        }
        let submitted = ring.submit();
        assert!(submitted <= 4 + 4, "device queue should limit submission");
        let mut n = 0;
        ring.drain(|c| {
            c.result.unwrap();
            n += 1;
        })
        .unwrap();
        assert_eq!(n, 256);
    }

    /// A device that queues 4 requests, holding `n` sectors whose bytes
    /// name them, and a ring with `n` SQEs prepared, one per sector.
    fn shallow_device_with_prepared_ring(n: u64, latency: Duration) -> (Arc<SimSsd>, IoRing) {
        let profile = SsdProfile {
            queue_depth: 4,
            channels: 1,
            read_latency: latency,
            ..SsdProfile::instant()
        };
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(n * 512);
        for i in 0..n {
            ssd.import(f, i * 512, &[i as u8; 512]).unwrap();
        }
        let mut ring = IoRing::new(Arc::clone(&ssd), n as usize, true);
        for i in 0..n {
            ring.prepare_read(f, i * 512, 512, i).unwrap();
        }
        (ssd, ring)
    }

    #[test]
    fn a_batch_deeper_than_the_device_submits_partially_and_reaps_all() {
        let (ssd, mut ring) = shallow_device_with_prepared_ring(16, Duration::from_micros(50));
        let stalls = ssd.stats().snapshot().queue_full_stalls;
        assert_eq!(ring.submit(), 4, "one batch fills the empty device queue");
        assert_eq!(ring.inflight(), 4);
        assert_eq!(ssd.stats().snapshot().queue_full_stalls - stalls, 1);
        let mut seen = [0u32; 16];
        while let Some(c) = ring.wait_completion().unwrap() {
            let buf = c.result.expect("read ok");
            assert!(buf.iter().all(|&b| u64::from(b) == c.user_data));
            seen[c.user_data as usize] += 1;
        }
        assert_eq!(seen, [1; 16], "every SQE is reaped exactly once");
        assert_eq!(ring.inflight(), 0);
        assert!(ring.peek_completion().is_none());
    }

    #[test]
    fn shutdown_mid_batch_answers_each_sqe_once() {
        let (ssd, mut ring) = shallow_device_with_prepared_ring(16, Duration::from_millis(20));
        assert_eq!(ring.submit(), 4);
        ssd.shutdown();
        assert_eq!(ring.submit(), 12, "a closed device consumes the rest");
        let mut answers = [0u32; 16];
        while let Some(c) = ring.peek_completion() {
            match c.result {
                // Only a request a channel took before the close is served.
                Ok(buf) if c.user_data < 4 => {
                    assert!(buf.iter().all(|&b| u64::from(b) == c.user_data));
                }
                r => assert_eq!(r.unwrap_err(), IoError::DeviceClosed),
            }
            answers[c.user_data as usize] += 1;
        }
        assert_eq!(answers, [1; 16], "every SQE is answered exactly once");
        assert_eq!(ring.inflight(), 0);
        assert!(ring.wait_completion().unwrap().is_none());
    }

    /// A ring whose submit finds the device queue full of another ring's
    /// requests waits by advancing the device, not until its deadline.
    #[test]
    fn a_full_device_queue_is_waited_out_by_advancing() {
        let profile = SsdProfile {
            queue_depth: 1,
            channels: 1,
            read_latency: Duration::from_millis(1),
            ..SsdProfile::instant()
        };
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(4096);
        let mut first = IoRing::new(Arc::clone(&ssd), 4, true);
        let mut second = IoRing::new(Arc::clone(&ssd), 4, true);
        first.prepare_read(f, 0, 512, 0).unwrap();
        assert_eq!(first.submit(), 1);
        second.prepare_read(f, 512, 512, 1).unwrap();
        assert_eq!(second.submit(), 0, "the device queue is full");
        let t0 = Instant::now();
        let c = second
            .wait_completion_deadline(Some(t0 + Duration::from_secs(5)))
            .unwrap()
            .expect("completion");
        assert_eq!(c.user_data, 1);
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert_eq!(first.peek_completion().map(|c| c.user_data), Some(0));
    }

    #[test]
    fn single_thread_async_beats_single_thread_sync() {
        // The Appendix B phenomenon: one thread with a deep ring sustains
        // far more IOPS than one thread doing blocking reads.
        let mut profile = SsdProfile::pm883();
        profile.read_latency = Duration::from_millis(1);
        profile.sleep_granularity = Duration::from_micros(200);
        let ssd = SimSsd::new(profile.clone());
        let f = ssd.create_file(512 * 512);

        let n = 64u64;
        let t0 = Instant::now();
        let mut buf = vec![0u8; 512];
        for i in 0..n {
            ssd.read_blocking(f, i * 512, &mut buf, true).unwrap();
        }
        let sync_time = t0.elapsed();

        let mut ring = IoRing::new(Arc::clone(&ssd), n as usize, true);
        let t0 = Instant::now();
        for i in 0..n {
            ring.prepare_read(f, i * 512, 512, i).unwrap();
        }
        let mut count = 0;
        ring.drain(|_| count += 1).unwrap();
        let async_time = t0.elapsed();
        assert_eq!(count, n);
        assert!(
            async_time * 3 < sync_time,
            "async {async_time:?} should be >3x faster than sync {sync_time:?}"
        );
    }
}
