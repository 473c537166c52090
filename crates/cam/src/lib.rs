//! Content-addressable memory (CAM) array model backed by racetrack-memory cells.
//!
//! A CAM compares a search key against *all* stored rows in parallel and reports the
//! matching rows on its match lines. The associative-processor execution model used
//! by the CAM-only DNN inference stack builds on two primitives provided here:
//!
//! * **masked search** — compare a key against selected columns of every row and
//!   capture the match lines in a [`TagVector`], and
//! * **parallel write** — write a data pattern into selected columns of every tagged
//!   row at once.
//!
//! Each cell of the array is an RTM nanowire ([`rtm::Nanowire`]) storing up to
//! `domains_per_cell` bits; the *currently aligned* domain of each cell is what the
//! search and write primitives operate on. Bit-serial arithmetic walks the nanowires
//! one domain at a time, which matches the sequential access pattern racetrack
//! memory is best at.
//!
//! Two implementations of the array are provided: [`CamArray`] models every
//! nanowire individually (the structural ground truth, including per-domain
//! write counts for endurance studies), while [`BitPlaneArray`] packs each
//! (column, domain) bit of all rows into `u64` bit-planes so a search/write
//! pass covers 64 rows per word operation — the execution substrate of the
//! fast functional simulation path, pinned bit-identical to the scalar model.
//! Both implement [`AssociativeArray`], the primitives an associative-processor
//! controller drives.
//!
//! # Example
//!
//! ```
//! use cam::{CamArray, CamTechnology, SearchKey};
//!
//! # fn main() -> Result<(), cam::CamError> {
//! let mut array = CamArray::new(4, 4, 8, CamTechnology::default())?;
//! // Store a bit pattern in column 0, domain 0 of every row.
//! for row in 0..4 {
//!     array.write_bit(0, row, 0, row % 2 == 0)?;
//! }
//! array.align_column(0, 0)?;
//! let tags = array.search(&SearchKey::new().with(0, true))?;
//! assert_eq!(tags.count(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod associative;
mod bitplane;
mod error;
mod key;
mod stats;
mod tag;
mod technology;

pub use array::CamArray;
pub use associative::AssociativeArray;
pub use bitplane::{BitPlaneArray, PackedTags, PlaneAccess};
pub use error::CamError;
pub use key::SearchKey;
pub use stats::{CamCost, CamStats};
pub use tag::TagVector;
pub use technology::CamTechnology;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CamError>;
