//! `hl-build` — parallel, ordering-aware Pruned Landmark Labeling
//! construction for million-vertex graphs.
//!
//! The single-threaded PLL in `hl_core::pll` tops out at stress-test
//! sizes; every scale experiment around the paper (*Hardness of exact
//! distance queries in sparse graphs through hub labeling*, Kosowski–
//! Uznański–Viennot, PODC 2019) needs labelings over graphs far bigger
//! than that. This crate provides a batch/commit pipeline on std threads
//! (the workspace is dependency-free) whose output is **bit-identical to
//! sequential PLL** for the same vertex order, at any thread count:
//!
//! * [`pipeline`] — the batch/commit pipeline ([`build_with_order`],
//!   [`build_with_strategy`], [`BuildConfig`], [`BuildOutput`]); the
//!   module docs carry the determinism argument;
//! * `committed` (crate-private) — the growable committed-prefix labeling
//!   all waves prune against, keyed by hub rank and frozen into the
//!   serving-side [`FlatLabeling`](hl_core::FlatLabeling) at the end;
//! * `wave` (crate-private) — one pruned BFS/Dijkstra wave with reusable
//!   per-worker scratch;
//! * [`stats`] — [`BuildStats`] telemetry: per-batch timings, the
//!   label-size growth curve, pruning hit rate, and a JSON snapshot;
//! * [`error`] — [`BuildError`].
//!
//! Ordering strategies come from `hl_core::order` behind the
//! [`VertexOrder`](hl_core::VertexOrder) trait (degree, BFS-level,
//! sampled betweenness, closeness, random, identity).
//!
//! # Example
//!
//! ```
//! use hl_build::{build_with_strategy, BuildConfig};
//! use hl_core::order::DegreeOrder;
//! use hl_graph::generators;
//!
//! let g = generators::connected_gnm(200, 300, 7);
//! let out = build_with_strategy(&g, &DegreeOrder, BuildConfig::with_threads(2)).unwrap();
//! assert_eq!(out.labeling.query(0, 1), hl_core::LabelingView::query(&out.labeling, 1, 0));
//! println!("{}", out.stats.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod committed;
pub mod error;
pub mod pipeline;
pub mod stats;
mod wave;

pub use error::BuildError;
pub use pipeline::{build_with_order, build_with_strategy, BuildConfig, BuildOutput};
pub use stats::{BatchStats, BuildStats};
