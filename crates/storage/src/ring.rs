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
//!   without blocking;
//! * [`IoRing::peek_completion`] / [`IoRing::wait_completion`] reap CQEs,
//!   the latter parking the thread in I/O-wait.
//!
//! One ring belongs to one thread (like an io_uring instance); the extractor
//! in `gnndrive-core` owns one per mini-batch extraction.

use crate::error::IoError;
use crate::ssd::{Completion, FileHandle, IoOp, IoPriority, Request, SimSsd, SubmitOutcome};
use gnndrive_sync::queue::{unbounded, Receiver, RecvTimeoutError, Sender};
use gnndrive_telemetry as telemetry;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A single-threaded submission/completion ring over a [`SimSsd`].
pub struct IoRing {
    device: Arc<SimSsd>,
    sq: VecDeque<Request>,
    cq_tx: Sender<Completion>,
    cq_rx: Receiver<Completion>,
    sq_capacity: usize,
    inflight: usize,
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
        let (cq_tx, cq_rx) = unbounded();
        IoRing {
            device,
            sq: VecDeque::with_capacity(sq_capacity),
            cq_tx,
            cq_rx,
            sq_capacity,
            inflight: 0,
            direct,
            prio,
        }
    }

    /// Requests currently submitted to the device but not yet reaped.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Queue a read of `len` bytes at `offset`. The buffer is allocated by
    /// the device when it services the read and handed back through the
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
            reply: self.cq_tx.clone(),
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
        let mut n = 0;
        while let Some(req) = self.sq.pop_front() {
            match self.device.try_submit(req) {
                SubmitOutcome::Accepted | SubmitOutcome::Closed => {
                    // Closed: the device already sent a DeviceClosed
                    // completion on our cq channel; count it in flight so
                    // reaping stays balanced.
                    self.inflight += 1;
                    n += 1;
                }
                SubmitOutcome::Full(req) => {
                    self.sq.push_front(req);
                    break;
                }
            }
        }
        n
    }

    /// Reap one completion if available, without blocking.
    pub fn peek_completion(&mut self) -> Option<Completion> {
        let c = self.cq_rx.try_recv()?;
        self.inflight -= 1;
        Some(c)
    }

    /// Block (in I/O wait) until a completion arrives.
    ///
    /// Returns `Ok(None)` if nothing is in flight or queued — calling blind
    /// would deadlock, so that case is made loud instead — and
    /// `Err(IoError::DeviceClosed)` if the device shuts down while we wait,
    /// instead of parking forever on a completion that can never arrive.
    pub fn wait_completion(&mut self) -> Result<Option<Completion>, IoError> {
        self.wait_completion_deadline(None)
    }

    /// [`IoRing::wait_completion`] with an absolute deadline: returns
    /// `Err(IoError::Timeout)` if no completion arrives by `deadline`
    /// (the in-flight request itself stays outstanding and will be reaped
    /// by a later call). Used by retry policies to bound per-op waits.
    pub fn wait_completion_deadline(
        &mut self,
        deadline: Option<Instant>,
    ) -> Result<Option<Completion>, IoError> {
        // Ensure something of ours is actually in flight before blocking:
        // the device queue is shared, so a submit may accept nothing while
        // other rings hog it — retry until one of our SQEs is in.
        while self.inflight == 0 {
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
                let _io = telemetry::state(telemetry::State::IoWait);
                let _wait = telemetry::wait_timer(telemetry::WaitKind::RingWait);
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let started = Instant::now();
        let completion = {
            let _io = telemetry::state(telemetry::State::IoWait);
            // Attribution: ring-completion wait is the async path's 𝔒2
            // signal; the guard also covers the error returns below.
            let _wait = telemetry::wait_timer(telemetry::WaitKind::RingWait);
            // Tick so device shutdown (or the deadline) interrupts the wait
            // even when the completion will never be sent.
            loop {
                let tick = Duration::from_millis(10);
                let wait = match deadline {
                    Some(d) => d
                        .saturating_duration_since(Instant::now())
                        .min(tick)
                        .max(Duration::from_micros(10)),
                    None => tick,
                };
                match self.cq_rx.recv_timeout(wait) {
                    Ok(c) => break c,
                    Err(RecvTimeoutError::Timeout) => {
                        if self.device.is_closed() {
                            return Err(IoError::DeviceClosed);
                        }
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            return Err(IoError::Timeout);
                        }
                    }
                    // Unreachable in practice (the ring holds its own
                    // cq_tx), but map it rather than panic.
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(IoError::DeviceClosed);
                    }
                }
            }
        };
        self.device
            .stats()
            .add_io_wait(started.elapsed().as_nanos() as u64);
        self.inflight -= 1;
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
        // worker serviced it before the close) or with DeviceClosed — and
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
