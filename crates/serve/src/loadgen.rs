//! Deterministic request-stream generation for serving experiments.
//!
//! Models a population of up to millions of simulated users, each with a
//! fixed seed node of interest, issuing requests with Zipf-like popularity
//! skew (a few hot users/nodes dominate) and open-loop Poisson arrivals.
//! Everything derives from one seed, so a run is exactly reproducible.

use gnndrive_graph::NodeId;
use gnndrive_sync::rng::splitmix64;
use std::time::Duration;

/// Knobs of a generated request stream.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Simulated user population. Scales to millions: the generator is
    /// O(1) per request regardless of population size.
    pub users: u64,
    /// Seed-node id space (the dataset's node count): each user maps to a
    /// fixed node in `[0, num_nodes)`.
    pub num_nodes: u64,
    /// Open-loop arrival rate in requests/second (Poisson: exponential
    /// inter-arrival gaps). `0.0` means closed-loop — every gap is zero
    /// and pacing is the caller's concurrency loop.
    pub rate_hz: f64,
    /// Total requests to generate.
    pub requests: usize,
    /// RNG seed; same seed, same stream.
    pub seed: u64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            users: 1_000_000,
            num_nodes: 1,
            rate_hz: 0.0,
            requests: 0,
            seed: 1,
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Popularity rank of the issuing user (0 = hottest).
    pub user: u64,
    /// The seed node the user asks about.
    pub seed_node: NodeId,
    /// Gap to wait *before* issuing this request (zero in closed loop).
    pub delay: Duration,
}

/// A deterministic iterator of [`Arrival`]s.
pub struct LoadGen {
    cfg: LoadGenConfig,
    state: u64,
    emitted: usize,
}

impl LoadGen {
    pub fn new(cfg: LoadGenConfig) -> LoadGen {
        LoadGen {
            state: cfg.seed ^ 0x6C62_272E_07BB_0142,
            cfg,
            emitted: 0,
        }
    }

    /// Uniform in [0, 1).
    fn uniform(&mut self) -> f64 {
        (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Zipf-like popularity: map uniform `u` to a user rank via
    /// `floor((N+1)^u) - 1`. The CDF is `P(rank < x) = ln(x+1)/ln(N+1)` —
    /// log-uniform, i.e. Zipf with exponent ≈ 1: rank 0 alone draws a
    /// `1/ln(N+1)` share of all traffic even for millions of users.
    fn zipf_rank(&mut self) -> u64 {
        let n = self.cfg.users.max(1);
        let u = self.uniform();
        let rank = ((n + 1) as f64).powf(u) - 1.0;
        (rank as u64).min(n - 1)
    }
}

impl Iterator for LoadGen {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        if self.emitted >= self.cfg.requests {
            return None;
        }
        self.emitted += 1;
        let user = self.zipf_rank();
        // A user's interest is fixed: hash the rank into node space, so
        // hot users concentrate load on a small hot node set.
        let mut h = user ^ self.cfg.seed.rotate_left(17);
        let seed_node = (splitmix64(&mut h) % self.cfg.num_nodes.max(1)) as NodeId;
        let delay = if self.cfg.rate_hz > 0.0 {
            let u = self.uniform();
            Duration::from_secs_f64((-(1.0 - u).ln()) / self.cfg.rate_hz)
        } else {
            Duration::ZERO
        };
        Some(Arrival {
            user,
            seed_node,
            delay,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(users: u64, requests: usize, seed: u64) -> Vec<Arrival> {
        LoadGen::new(LoadGenConfig {
            users,
            num_nodes: 500,
            rate_hz: 0.0,
            requests,
            seed,
        })
        .collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(stream(1_000_000, 200, 7), stream(1_000_000, 200, 7));
        assert_ne!(stream(1_000_000, 200, 7), stream(1_000_000, 200, 8));
    }

    #[test]
    fn popularity_is_skewed_toward_low_ranks() {
        // With a million users and log-uniform skew, the hottest 1% of
        // ranks should soak up far more than 1% of requests (~1/3).
        let arrivals = stream(1_000_000, 4000, 42);
        let hot = arrivals.iter().filter(|a| a.user < 10_000).count();
        assert!(
            hot * 10 > arrivals.len(),
            "top 1% of users drew only {hot}/{} requests",
            arrivals.len()
        );
        // And the same user always asks about the same node.
        let mut by_user: std::collections::HashMap<u64, NodeId> = Default::default();
        for a in &arrivals {
            let node = by_user.entry(a.user).or_insert(a.seed_node);
            assert_eq!(*node, a.seed_node, "user {} switched nodes", a.user);
        }
    }

    #[test]
    fn open_loop_gaps_average_the_rate() {
        let gen = LoadGen::new(LoadGenConfig {
            users: 1000,
            num_nodes: 100,
            rate_hz: 1000.0, // 1 ms mean gap
            requests: 2000,
            seed: 3,
        });
        let total: Duration = gen.map(|a| a.delay).sum();
        let mean = total.as_secs_f64() / 2000.0;
        assert!(
            (0.0005..0.002).contains(&mean),
            "mean inter-arrival {mean}s is far from 1ms"
        );
    }

    #[test]
    fn closed_loop_has_zero_gaps() {
        assert!(stream(100, 50, 1).iter().all(|a| a.delay == Duration::ZERO));
    }
}
