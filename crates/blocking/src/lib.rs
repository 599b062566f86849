//! Geyser circuit blocking (paper Sec. 3.3, Algorithm 1).
//!
//! Blocking partitions a mapped physical circuit into *blocks*: small
//! self-contained groups of operations on three mutually-adjacent
//! lattice nodes (triangles). Blocks formed in the same *round* have
//! non-overlapping restriction zones and therefore execute fully in
//! parallel; blocks formed in later rounds follow sequentially.
//!
//! The algorithm maintains a per-qubit *frontier* into the circuit and
//! repeatedly:
//!
//! 1. enumerates every lattice triangle and greedily absorbs the
//!    longest contiguous slice of frontier operations that stays
//!    inside the triangle,
//! 2. searches for the *block family* — a set of zone-compatible
//!    triangles — with the highest score (pulses by default: the
//!    paper performs blocking "in a pulse-aware manner"),
//! 3. commits the family as one round and advances the frontiers.
//!
//! Every operation of the input lands in exactly one block, and
//! concatenating the blocks round by round reproduces a valid
//! reordering of the original circuit (verified by unitary-equivalence
//! tests).
//!
//! # Example
//!
//! ```
//! use geyser_blocking::{try_block_circuit, BlockingConfig};
//! use geyser_circuit::Circuit;
//! use geyser_telemetry::Telemetry;
//! use geyser_topology::Lattice;
//!
//! let lat = Lattice::triangular(2, 2);
//! let mut c = Circuit::new(4);
//! c.h(0).cz(0, 1).cz(1, 2).h(2);
//! let blocked =
//!     try_block_circuit(&c, &lat, &BlockingConfig::default(), &Telemetry::disabled()).unwrap();
//! assert_eq!(blocked.num_ops_covered(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod block;
mod error;

pub use algorithm::{try_block_circuit, BlockingConfig};
pub use block::{Block, BlockedCircuit, Round};
pub use error::BlockError;
