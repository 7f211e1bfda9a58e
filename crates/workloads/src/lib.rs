//! Synthetic MPI communication workloads reproducing the matching behaviour
//! of the 16 DOE mini-app traces of Table II.
//!
//! The NERSC "Characterization of DOE mini-apps" DUMPI traces the paper
//! analyzes are multi-gigabyte and not redistributable, so this crate
//! regenerates each application's *communication pattern* from its published
//! description: who sends to whom, with which tags, when receives are
//! posted relative to sends, and which collectives punctuate the exchanges.
//! The Fig. 6 / Fig. 7 statistics depend only on this envelope stream, not
//! on the computation (see DESIGN.md §1 for the substitution argument).
//!
//! Every generator produces an [`otm_trace::AppTrace`] at the Table II
//! process count; [`catalog::catalog`] enumerates all sixteen. Generators
//! are deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

mod apps;
mod builder;
pub mod catalog;

pub use builder::TraceBuilder;
pub use catalog::{catalog, AppSpec};
