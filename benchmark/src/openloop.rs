//! Open-loop load: requests are issued on a fixed schedule whether or not
//! earlier ones have been answered, as independent users would. Latency is
//! timed from the instant a request was *due*, so a stall charges every
//! request scheduled during it, and how late the generator itself ran is
//! reported separately.

use crate::stats::{median, percentile};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered; the server's own split of the wait.
    Answered {
        queue_ns: u64,
        service_ns: u64,
        batch_size: usize,
    },
    /// Admitted, then failed with a typed error.
    Failed,
    /// Refused at admission (queue full or shutting down).
    Rejected,
}

/// One request's timeline, in nanoseconds since the loop started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    pub due_ns: u64,
    /// When the generator actually issued it (≥ `due_ns`).
    pub submit_ns: u64,
    /// When the collector saw the reply (`submit_ns` for a rejection).
    pub done_ns: u64,
    pub outcome: Outcome,
}

impl RequestRecord {
    /// How late the generator issued the request.
    pub fn gen_late_ms(&self) -> f64 {
        self.submit_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// Due time → reply, the latency a user on the schedule experienced.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Cumulative due times from inter-arrival gaps.
pub fn due_times_ns(gaps: impl IntoIterator<Item = Duration>) -> Vec<u64> {
    let mut t = 0u64;
    gaps.into_iter()
        .map(|g| {
            t += g.as_nanos() as u64;
            t
        })
        .collect()
}

/// Issue request `i` at `dues_ns[i]` via `submit` (`None` = refused) from
/// the calling thread, while a collector thread `wait`s for each admitted
/// request in issue order and stamps its completion. Returns once every
/// admitted request has resolved.
pub fn run_open_loop<T: Send>(
    dues_ns: &[u64],
    mut submit: impl FnMut(usize) -> Option<T>,
    wait: impl Fn(T) -> Outcome + Sync,
) -> (Instant, Vec<RequestRecord>) {
    let start = Instant::now();
    let since = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let mut records: Vec<RequestRecord> = Vec::with_capacity(dues_ns.len());
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let resolved: Vec<(usize, u64, Outcome)> = std::thread::scope(|s| {
        let (wait, since) = (&wait, &since);
        let collector = s.spawn(move || {
            rx.iter()
                .map(|(i, pending)| {
                    let outcome = wait(pending);
                    (i, since(Instant::now()), outcome)
                })
                .collect()
        });
        for (i, &due_ns) in dues_ns.iter().enumerate() {
            let due = start + Duration::from_nanos(due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submit_ns = since(Instant::now());
            let admitted = submit(i);
            records.push(RequestRecord {
                due_ns,
                submit_ns,
                done_ns: submit_ns,
                outcome: Outcome::Rejected,
            });
            if let Some(pending) = admitted {
                tx.send((i, pending))
                    .expect("collector outlives the generator");
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    for (i, done_ns, outcome) in resolved {
        records[i].done_ns = done_ns;
        records[i].outcome = outcome;
    }
    (start, records)
}

/// Request accounting over the measured part of a run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ServeSummary {
    /// Requests due after the warm-up, i.e. the ones that count.
    pub offered: u64,
    pub rejected: u64,
    pub failed: u64,
    /// Answered, but later than the latency limit from the due time.
    pub slow: u64,
    /// Due-time latency of every answered request.
    pub latency_ms: Vec<f64>,
    /// The same latencies grouped by the second of the schedule the request
    /// was due in (a trailing window under half full is dropped).
    pub latency_ms_by_second: Vec<Vec<f64>>,
    pub gen_late_ms: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub batch_sizes: Vec<f64>,
}

impl ServeSummary {
    /// Median over one-second windows of each window's `q`-quantile. A
    /// whole-run percentile is at the mercy of one stall: pause the sandbox
    /// for a second and a tenth of a ten-second run's requests are late,
    /// which alone decides its p90. The per-window median shrugs off a
    /// stall that spoils a minority of the windows.
    pub fn windowed_percentile_ms(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .latency_ms_by_second
            .iter()
            .map(|w| percentile(w, q))
            .collect();
        median(&per_window)
    }
}

/// Fold `records` whose due time is at or past `warmup_ns`.
pub fn summarize(records: &[RequestRecord], warmup_ns: u64, limit_ms: f64) -> ServeSummary {
    let mut s = ServeSummary::default();
    let mut offered_by_second: Vec<u64> = Vec::new();
    for r in records.iter().filter(|r| r.due_ns >= warmup_ns) {
        let second = ((r.due_ns - warmup_ns) / 1_000_000_000) as usize;
        if s.latency_ms_by_second.len() <= second {
            s.latency_ms_by_second.resize(second + 1, Vec::new());
            offered_by_second.resize(second + 1, 0);
        }
        offered_by_second[second] += 1;
        s.offered += 1;
        s.gen_late_ms.push(r.gen_late_ms());
        match r.outcome {
            Outcome::Rejected => s.rejected += 1,
            Outcome::Failed => s.failed += 1,
            Outcome::Answered {
                queue_ns,
                service_ns,
                batch_size,
            } => {
                let lat = r.latency_ms();
                if lat > limit_ms {
                    s.slow += 1;
                }
                s.latency_ms.push(lat);
                s.latency_ms_by_second[second].push(lat);
                s.queue_ms.push(queue_ns as f64 / 1e6);
                s.service_ms.push(service_ns as f64 / 1e6);
                s.batch_sizes.push(batch_size as f64);
            }
        }
    }
    // The schedule rarely ends on a second boundary; a thin last window
    // would carry a full vote in the median.
    let typical = median(
        &offered_by_second
            .iter()
            .map(|&n| n as f64)
            .collect::<Vec<_>>(),
    );
    if offered_by_second
        .last()
        .is_some_and(|&n| (n as f64) < typical / 2.0)
    {
        s.latency_ms_by_second.pop();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn answered() -> Outcome {
        Outcome::Answered {
            queue_ns: MS,
            service_ns: 2 * MS,
            batch_size: 3,
        }
    }

    #[test]
    fn due_times_accumulate_gaps() {
        let gaps = [3, 0, 7].map(Duration::from_millis);
        assert_eq!(due_times_ns(gaps), vec![3 * MS, 3 * MS, 10 * MS]);
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_issue_time() {
        let r = RequestRecord {
            due_ns: 10 * MS,
            submit_ns: 14 * MS,
            done_ns: 20 * MS,
            outcome: answered(),
        };
        assert_eq!(r.gen_late_ms(), 4.0);
        assert_eq!(r.latency_ms(), 10.0); // not 6: the generator's lateness is the user's wait too
    }

    #[test]
    fn summary_skips_warmup_and_counts_every_kind_of_miss() {
        let rec = |due, done, outcome| RequestRecord {
            due_ns: due * MS,
            submit_ns: due * MS,
            done_ns: done * MS,
            outcome,
        };
        let records = [
            rec(1, 500, answered()), // warm-up: ignored even though slow
            rec(10, 15, answered()),
            rec(20, 20, Outcome::Rejected),
            rec(30, 40, Outcome::Failed),
            rec(40, 340, answered()), // answered 300 ms after it was due
        ];
        let s = summarize(&records, 5 * MS, 250.0);
        assert_eq!(s.offered, 4);
        assert_eq!((s.rejected, s.failed, s.slow), (1, 1, 1));
        assert_eq!(s.latency_ms, vec![5.0, 300.0]);
        assert_eq!(s.queue_ms, vec![1.0, 1.0]);
        assert_eq!(s.batch_sizes, vec![3.0, 3.0]);
        assert_eq!(s.gen_late_ms.len(), 4);
    }

    #[test]
    fn windowed_percentile_ignores_a_stall_that_a_whole_run_percentile_cannot() {
        // Ten seconds at 100 req/s, 5 ms each — except one second during
        // which everything takes 900 ms (the sandbox paused).
        let records: Vec<RequestRecord> = (0..1000u64)
            .map(|i| {
                let due = i * 10 * MS;
                let lat = if (300..400).contains(&i) { 900 } else { 5 };
                RequestRecord {
                    due_ns: due,
                    submit_ns: due,
                    done_ns: due + lat * MS,
                    outcome: answered(),
                }
            })
            .collect();
        let s = summarize(&records, 0, 250.0);
        assert_eq!(s.latency_ms_by_second.len(), 10);
        assert!(s.latency_ms_by_second.iter().all(|w| w.len() == 100));
        assert_eq!(percentile(&s.latency_ms, 0.90), 5.0); // exactly 10 % late: on the edge
        assert_eq!(percentile(&s.latency_ms, 0.91), 900.0); // one more and p90 is the stall
        assert_eq!(s.windowed_percentile_ms(0.90), 5.0);
        assert_eq!(s.windowed_percentile_ms(0.50), 5.0);
        assert_eq!(s.slow, 100);
    }

    #[test]
    fn a_thin_last_window_is_dropped() {
        let rec = |due_ms: u64| RequestRecord {
            due_ns: due_ms * MS,
            submit_ns: due_ms * MS,
            done_ns: (due_ms + 3) * MS,
            outcome: answered(),
        };
        // 2.2 s of schedule at 10 req/s: windows of 10, 10 and 2 requests.
        let records: Vec<RequestRecord> = (0..22).map(|i| rec(i * 100)).collect();
        let s = summarize(&records, 0, 250.0);
        assert_eq!(s.latency_ms_by_second.len(), 2);
        assert_eq!(s.latency_ms.len(), 22); // whole-run numbers keep every request
    }

    /// A server that needs 5 ms per request, fed one request per
    /// millisecond: the backlog grows, and an open loop must show it.
    /// `sleep` never returns early, so every bound below is a guaranteed
    /// lower bound, not a timing guess.
    #[test]
    fn a_slow_server_charges_the_backlog_to_later_requests() {
        let (work_tx, work_rx) = mpsc::channel::<mpsc::Sender<()>>();
        let server = std::thread::spawn(move || {
            for reply in work_rx {
                std::thread::sleep(Duration::from_millis(5));
                let _ = reply.send(());
            }
        });
        let dues = due_times_ns((0..20).map(|_| Duration::from_millis(1)));
        let (_, records) = run_open_loop(
            &dues,
            |i| {
                if i == 7 {
                    return None; // one refusal
                }
                let (tx, rx) = mpsc::channel();
                work_tx.send(tx).expect("server alive");
                Some(rx)
            },
            |rx| match rx.recv() {
                Ok(()) => answered(),
                Err(_) => Outcome::Failed,
            },
        );
        drop(work_tx);
        server.join().expect("server");
        assert_eq!(records.len(), 20);
        assert_eq!(records[7].outcome, Outcome::Rejected);
        assert_eq!(records[7].done_ns, records[7].submit_ns);
        for r in &records {
            assert!(r.submit_ns >= r.due_ns, "issued before it was due");
        }
        // Request 19 is the 19th the server handles (one was refused), so
        // it completes no earlier than 19 × 5 ms, and it was due at 20 ms.
        let last = records[19];
        assert!(
            last.latency_ms() >= 75.0,
            "backlog not charged: {} ms",
            last.latency_ms()
        );
        assert!(records[0].latency_ms() >= 5.0);
    }
}
