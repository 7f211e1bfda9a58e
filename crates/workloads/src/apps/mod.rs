//! One generator per Table II application, grouped by code family.
//!
//! Each module documents the communication pattern it reproduces and the
//! source of that pattern (the mini-app's published description). All
//! generators are deterministic given their seed and produce traces at the
//! Table II process counts.

pub(crate) mod amg;
pub(crate) mod amr;
pub(crate) mod bigfft;
pub(crate) mod boxlib;
pub(crate) mod crystal;
pub(crate) mod hilo;
pub(crate) mod lulesh;
pub(crate) mod minife;
pub(crate) mod mocfe;
pub(crate) mod nekbone;
pub(crate) mod sweep;
