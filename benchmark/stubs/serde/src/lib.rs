//! Offline stand-in for `serde`, used only by the benchmark's own build.
//!
//! The layer crates derive `Serialize`/`Deserialize` on their model types
//! but nothing on the life-of-a-message path serializes through serde, so
//! the traits are markers every type implements and the derives expand to
//! nothing (they only have to accept the `#[serde(...)]` helper attribute).

pub use serde_derive::{Deserialize, Serialize};

/// Marker: every type "serializes" (no serializer exists in this stand-in).
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker: every type "deserializes".
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

pub mod de {
    /// Marker mirroring `serde::de::DeserializeOwned`.
    pub trait DeserializeOwned {}
    impl<T: ?Sized> DeserializeOwned for T {}
}
