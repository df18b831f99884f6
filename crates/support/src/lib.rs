//! Hermetic support substrate for the *aji* workspace.
//!
//! This workspace builds with **zero external crates** so that the paper
//! reproduction is exactly as portable as the Rust toolchain itself (the
//! evaluation environment has no registry access, and offline builds must
//! be bit-for-bit reproducible). Everything the workspace would otherwise
//! pull from crates.io lives here, implemented against `std` only:
//!
//! - [`rng`] — a seeded splitmix64/xoshiro256\*\* PRNG (replaces `rand`);
//! - [`json`] — a JSON value model with a strict parser and an escaping
//!   printer (replaces the `serde`/`serde_json` derives);
//! - [`check`] — a minithesis-style property-testing harness with
//!   choice-sequence shrinking and failure-seed replay (replaces
//!   `proptest`);
//! - [`mod@bench`] — a warmup + timed-iterations micro-benchmark harness with
//!   median/p95 reporting and JSON output (replaces `criterion`);
//! - [`par`] — a `std::thread::scope`-based fan-out helper (replaces
//!   `crossbeam`);
//! - [`hash`] — a seeded FNV-1a 64-bit content hasher with a splitmix64
//!   finalizer, for stable cross-process cache keys (replaces
//!   `fnv`/`xxhash`), and the fast deterministic `FxHasher` for
//!   in-memory tables (replaces `rustc-hash`);
//! - [`wire`] — line-delimited JSON framing over byte streams and Unix
//!   sockets, the `aji serve` daemon's RPC transport (replaces
//!   `serde_json` + a socket framing crate).
//!
//! Policy: shims for missing third-party functionality live in this crate
//! and nowhere else. `tests/hermetic.rs` at the workspace root fails the
//! build if any manifest reintroduces a registry dependency.
//!
//! # Example
//!
//! The two shims the experiment driver leans on — fan a computation over a
//! work list on scoped threads, then persist results as deterministic JSON:
//!
//! ```
//! use aji_support::{par, Json};
//!
//! let squares = par::map(vec![1u64, 2, 3], 2, |x| x * x);
//! let doc = Json::Arr(squares.into_iter().map(|n| Json::Num(n as f64)).collect());
//! assert_eq!(doc.to_string(), "[1,4,9]");
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod check;
pub mod hash;
pub mod json;
pub mod par;
pub mod rng;
pub mod wire;

pub use check::{Failure, TestCase};
pub use hash::Fnv64;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::Rng;
