//! # arcade-server — analysis as a service
//!
//! A persistent solver daemon for the Arcade water-treatment models: clients
//! name models by registry spec (`line1/ded`, `facility/ded+ded`,
//! `line2/frf-1@1.05`, …) and query availability, survivability curves and
//! cost curves over newline-delimited JSON on TCP. Three mechanisms make the
//! daemon fast where a batch run recompiles and resolves from scratch:
//!
//! * **Presentation-code quotient caching** ([`cache`]) — compiled
//!   [`arcade_core::CompiledQuotient`] artifacts are interned by
//!   `chain_presentation_code`-derived fingerprints, confirmed by exact
//!   equality so hash collisions cannot poison the cache.
//! * **Warm-started solves** ([`service`]) — a rate-perturbed variant of an
//!   already-solved chain starts Gauss–Seidel from the sibling's stationary
//!   vector instead of uniform.
//! * **Planned facility availability** ([`service`]) — facility specs are
//!   answered by `arcade-core`'s availability planner, the same code the
//!   CLI runs, without materialising the joint chain.
//! * **Query coalescing** ([`coalesce`]) — concurrent identical queries
//!   share one solve / one batched Fox–Glynn pass, and every waiter receives
//!   bit-identical results.
//!
//! The service core is transport-agnostic: the daemon ([`server`]), the
//! blocking [`client`], and in-process callers all drive
//! [`AnalysisService::handle`], so a daemon response is byte-for-byte the
//! JSON of the equivalent in-process call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod coalesce;
pub mod json;
pub mod protocol;
pub mod server;
pub mod service;
pub mod stats;

pub use cache::{CacheEntry, Evicted, QuotientCache};
pub use client::{AvailabilityReply, Client, ClientError};
pub use coalesce::{Coalescer, Role};
pub use json::Json;
pub use protocol::{CostKind, Request, Response, SimMeasure};
pub use server::{serve, spawn, ServerHandle};
pub use service::AnalysisService;
pub use stats::{QueryOp, ServiceStats, StatsSnapshot};
