//! Reliability block diagram (RBD) algebra for availability modeling.
//!
//! This crate is the mathematical substrate underneath the SDN-controller
//! availability models of Reeser, Tesseyre & Callaway (ISPASS 2019). It
//! provides:
//!
//! * [`kofn`] — the paper's Eq. (1): exact `m`-of-`n` block availability for
//!   identical blocks, generalized to heterogeneous blocks via dynamic
//!   programming.
//! * [`Block`] — composable series / parallel / k-of-n reliability block
//!   diagrams with exact evaluation under the independence assumption, and
//!   the boolean structure function [`Block::is_up`].
//!
//! # Quick example
//!
//! The paper's "2 of 3" database quorum in series with a rack:
//!
//! ```
//! use sdnav_blocks::Block;
//!
//! let node = Block::unit("db-node", 0.9995);
//! let quorum = Block::k_of_n(2, vec![node.clone(), node.clone(), node]);
//! let system = Block::series(vec![quorum, Block::unit("rack", 0.99999)]);
//!
//! let a = system.availability();
//! assert!(a > 0.99998 && a < 0.99999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
pub mod kofn;

pub use block::Block;
