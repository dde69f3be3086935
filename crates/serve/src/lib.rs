//! Online inference serving on the GNNDrive storage stack.
//!
//! Training is throughput-bound; serving is latency-bound. This crate adds
//! the latency side without forking the stack: a [`Server`] wraps a trained
//! [`Pipeline`](gnndrive_core::Pipeline) and turns a stream of per-user
//! inference requests (seed node IDs) into coalesced micro-batches that run
//! the same sample → extract → forward path training uses — same SSD, same
//! feature buffer, same memory governor, same device-health breaker.
//!
//! What keeps serving responsive while a training epoch soaks the device:
//!
//! * **QoS lanes in the device model** — inference reads carry
//!   [`IoPriority::Serve`](gnndrive_storage::IoPriority) and jump ahead of
//!   queued bulk training reads in the [`SimSsd`](gnndrive_storage::SimSsd)
//!   submission queue.
//! * **Two-lane memory admission** — when serving waits on the
//!   [`MemoryGovernor`](gnndrive_storage::MemoryGovernor), freed memory
//!   goes to serve-lane waiters first; training-lane waiters defer for a
//!   bounded number of polls (no starvation).
//! * **Deadline-bounded coalescing** — requests wait at most the
//!   [`coalesce_deadline`](ServeConfig::coalesce_deadline) before their
//!   micro-batch launches, so batching amortizes I/O without unbounded
//!   queueing delay.
//!
//! Every request completes with its prediction and queue/service timing, or
//! with a typed [`ServeError`]; nothing is silently dropped. The server
//! keeps p50/p99 latency distributions against a configurable SLO deadline
//! and folds them into a [`RunReport`](gnndrive_telemetry::RunReport) under
//! the `serve.*` metrics of [`gnndrive_telemetry::catalog`].
//!
//! ```
//! use gnndrive_core::Pipeline;
//! use gnndrive_device::GpuDevice;
//! use gnndrive_graph::{Dataset, DatasetSpec};
//! use gnndrive_serve::{ServeConfig, Server};
//! use gnndrive_storage::{SimSsd, SsdProfile};
//! use std::sync::Arc;
//!
//! let ds = Arc::new(Dataset::build(
//!     DatasetSpec {
//!         name: "serve-doc".into(), num_nodes: 300, num_edges: 1500,
//!         feat_dim: 8, num_classes: 3, intra_prob: 0.8,
//!         feature_signal: 1.0, train_fraction: 0.3, seed: 2,
//!     },
//!     SimSsd::new(SsdProfile::instant()),
//! ));
//! let pipeline = Pipeline::builder(ds, GpuDevice::rtx3090())
//!     .with_model(gnndrive_nn::ModelKind::GraphSage, 8)
//!     .build()
//!     .unwrap();
//! let server = Server::start(pipeline, ServeConfig::default());
//! let response = server.infer_blocking(42).unwrap();
//! assert!(response.prediction < 3);
//! let (_pipeline, report) = server.shutdown().unwrap();
//! assert_eq!(report.completed, 1);
//! ```

pub mod config;
pub mod loadgen;
pub mod server;

pub use config::ServeConfig;
pub use loadgen::{Arrival, LoadGen, LoadGenConfig};
pub use server::{ServeError, ServeReport, ServeResponse, Server, Ticket};
