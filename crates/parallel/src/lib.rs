//! `kyrix-parallel`: partitioned, scatter-gather execution over the
//! embedded Kyrix engine.
//!
//! Paper §4: *"Fifty terabytes will require a parallel multi-node DBMS to
//! achieve our performance goals."* This crate simulates that multi-node
//! deployment in-process. A deployment is a slice of shard
//! [`kyrix_storage::Database`]s (each standing in for one node) plus a
//! [`QueryRouter`] that maps every partitioned table to its
//! [`Partitioner`]; tables the router does not know are replicated on
//! every shard. [`load_rows`] places rows by that layout and
//! [`query_shards`] answers a statement over it: it runs the statement
//! on only the shards that can hold its rows, in parallel when there are
//! several, and merges their outputs at a coordinator. `kyrix-server`
//! serves from this engine (a single-node server is the one-shard case)
//! and `kyrix-lod` builds and maintains its pyramids on the same layout.
//!
//! The merge layer ([`merge::ShardPlan`]) understands the full SQL
//! surface of the engine:
//!
//! * plain selects concatenate (with ORDER BY / OFFSET / LIMIT applied at
//!   the coordinator, and LIMIT pushed down to shards when order allows),
//! * aggregates are decomposed into per-shard **partials** (`AVG` becomes
//!   `SUM` + `COUNT`) and recombined per group key, matching single-node
//!   semantics exactly — a property the tests pin down.
//!
//! The Kyrix-relevant win is **spatial routing**: with a
//! [`Partitioner::SpatialGrid`], a dynamic-box query `bbox && rect(...)`
//! only touches the grid cells the viewport overlaps, so per-query work
//! stays constant as the canvas (and shard count) grows.

pub mod engine;
pub mod merge;
pub mod partition;
pub mod router;

pub use engine::{load_rows, query_shards, ShardTelemetry};
pub use partition::Partitioner;
pub use router::QueryRouter;
