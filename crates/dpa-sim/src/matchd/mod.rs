//! `matchd` — the long-lived multi-tenant matching server layer.
//!
//! The paper's offloaded matcher (§IV-E) is a shared NIC-resident resource:
//! many communicators — and, one level up, many *tenants* — contend on one
//! sharded engine with fixed descriptor tables. Everything above a
//! per-test harness therefore needs three things the bare
//! [`crate::service::MatchingService`] does not provide:
//!
//! * a **server** that owns the engine for the long haul and drives it on a
//!   deterministic tick loop ([`server::MatchServer`]);
//! * **tenants** with bounded ingress queues and explicit admission —
//!   `Admitted` / `Backpressured` / `Rejected` — so flow control lives at
//!   the offload boundary instead of in each caller. A tenant is a
//!   [`TenantId`], an index into the server's tenant table; the server
//!   owns every tenant's state and takes each submission, completion
//!   pickup and close through `&mut self` ([`MatchServer::submit_post`],
//!   [`MatchServer::take_completions`], …), so nothing is shared or
//!   locked;
//! * a **fair drain**: deficit round-robin across tenants, composed with
//!   the engine's per-lane block quota
//!   ([`otm_base::MatchConfig::lane_quota`]), so one flooding tenant is
//!   provably unable to starve the rest.
//!
//! With series attached ([`MatchServer::attach_series`]) the server samples
//! its service into an `otm_metrics::SeriesRecorder` and each tenant into a
//! [`TenantSeries`]: only what the server counts for a tenant, its ingress
//! depth and its completions, on the tick clock.
//!
//! The loss-free software fallback is untouched by this layer: commands
//! from every tenant share the service's single submission queue, so a
//! mid-tick migration replays them all through the existing
//! `FallbackState::pending` path, per-tenant FIFO intact.

mod server;
mod tenant;

pub use server::{MatchServer, MatchdConfig, TenantConfig};
pub use tenant::{Admission, TenantId, TenantSeries, TenantStats};
