//! Continuous-time Markov chain (CTMC) availability models.
//!
//! The ISPASS 2019 SDN-controller paper works with steady-state
//! availabilities of the form `A = MTBF / (MTBF + MTTR)` and combines them
//! with reliability-block algebra. That algebra assumes component
//! *independence*. This crate supplies the Markov-model substrate that
//! justifies (and, where repair capacity is shared, corrects) those numbers:
//!
//! * [`Ctmc`] — a general finite CTMC with a numerically stable
//!   steady-state solver (the GTH algorithm, which uses no subtractions and
//!   is therefore immune to the catastrophic cancellation that plagues naive
//!   Gaussian elimination at availability-grade probabilities).
//! * [`repairable`] — birth–death models of repairable `k`-of-`n` groups
//!   with dedicated or shared repair crews. With dedicated crews the model
//!   reproduces the paper's independent-component Eq. (1) exactly; with a
//!   single shared crew it quantifies how optimistic Eq. (1) is.
//! * [`supervisor`] — the paper's §VI.A supervisor/process interaction
//!   arithmetic (effective availability `A*` when the supervisor is or is
//!   not required), derived both by the paper's renewal argument and from an
//!   explicit CTMC.
//!
//! # Example
//!
//! ```
//! use sdnav_markov::Ctmc;
//!
//! // A two-state repairable component: MTBF 5000 h, MTTR 0.1 h.
//! let mut ctmc = Ctmc::new(2);
//! ctmc.add_transition(0, 1, 1.0 / 5000.0); // failure
//! ctmc.add_transition(1, 0, 1.0 / 0.1); // repair
//! let pi = ctmc.steady_state().unwrap();
//! assert!((pi[0] - 5000.0 / 5000.1).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod consensus;
mod ctmc;
pub mod quorum_coupling;
pub mod repairable;
pub mod supervisor;

pub use consensus::{ConsensusCtmc, ConsensusModelError, MacroStateProbabilities};
pub use ctmc::{Ctmc, CtmcError};
