//! Loom models of the workspace's concurrency protocols, re-stated over
//! `loom::sync` (see `tests/`). Run from the repository root with
//! `RUSTFLAGS="--cfg loom" cargo test --release --manifest-path
//! crates/loom-models/Cargo.toml`.
