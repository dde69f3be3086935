//! Minimal dense-tensor substrate for the GNNDrive reproduction.
//!
//! The paper trains its models with PyTorch; this crate supplies the slice
//! of tensor functionality GNN training actually needs — row-major `f32`
//! matrices, the handful of kernels behind GraphSAGE/GCN/GAT layers
//! (one register-blocked GEMM under all transpose combinations, compiled
//! per vector instruction set and picked at run time, fused
//! gather-and-reduce segment aggregations,
//! activations, softmax cross-entropy), weight initialization, and SGD/Adam
//! optimizers — all deterministic given a seed so experiments are
//! repeatable.
//!
//! ```
//! use gnndrive_tensor::{Matrix, Param, Sgd, Optimizer};
//!
//! let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
//! let b = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
//! assert_eq!(a.matmul(&b).data(), &[3.0, 7.0]);
//!
//! let mut w = Param::new(Matrix::zeros(1, 1));
//! w.grad.set(0, 0, 2.0);
//! Sgd::new(0.5).step(&mut [&mut w]);
//! assert_eq!(w.value.get(0, 0), -1.0);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod gemm;
pub mod init;
mod isa;
pub mod loss;
pub mod matrix;
pub mod ops;
pub mod optim;

pub use gemm::Gemm;
pub use init::xavier_uniform;
pub use loss::{softmax_cross_entropy, softmax_cross_entropy_into};
pub use matrix::{MatRef, Matrix};
pub use optim::{Adam, Optimizer, Param, Sgd};
