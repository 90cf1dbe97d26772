//! # gm-serve
//!
//! Multi-threaded, queue-based session service for GridMind: many
//! concurrent conversational sessions, one machine, one shared solver
//! cache.
//!
//! Architecture (README "Serving" has the full diagram):
//!
//! - [`queue::BoundedQueue`] — the bounded dispatch queue. Admission
//!   overflow is surfaced to clients as a `Busy` rejection instead of
//!   unbounded buffering.
//! - [`registry::SessionRegistry`] — session id → [`registry::SessionSlot`],
//!   each slot holding the session's private request FIFO and its
//!   lazily built [`gridmind_core::GridMind`]. Token scheduling
//!   serializes same-session requests while distinct sessions run in
//!   parallel across the pool.
//! - [`server::Server`] — the fixed worker pool: per-request deadline
//!   handling, `serve.request` spans, `serve.queue_wait_s` histograms,
//!   and graceful drain on shutdown.
//! - the cross-session solver cache lives in
//!   [`gridmind_core::solver_cache`] (gm-core owns it so the tool layer
//!   can consult it); the server constructs and shares one instance
//!   across every session.
//! - [`workload`] — the deterministic N sessions × M queries soak
//!   driver behind `gm-serve --workload`.
//!
//! The request/response envelopes ([`ServeRequest`], [`ServeResponse`])
//! are defined in [`gm_agents::envelope`] so clients need not link the
//! server.

// Library code prints nothing: stdout and stderr belong to the
// binaries. Enforced by clippy, which CI runs with `-D warnings`.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod queue;
pub mod registry;
pub mod server;
pub mod workload;

pub use gm_agents::{ServeRequest, ServeResponse, ServeStatus};
pub use queue::{BoundedQueue, QueueFull};
pub use registry::{QueuedRequest, SessionRegistry, SessionSlot};
pub use server::{Server, ServerConfig};
pub use workload::{default_script, WorkloadConfig, WorkloadReport};
