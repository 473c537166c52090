//! Associative processor (AP) built on top of a racetrack-memory CAM array.
//!
//! An associative processor performs bulk-bitwise arithmetic *in place* in a CAM by
//! decomposing the truth table of an operation into a sequence of masked-search /
//! parallel-write passes (a lookup table, LUT). Because every search compares all
//! rows in parallel, one pass updates every SIMD lane at once; multi-bit operands are
//! handled bit-serially by walking the racetrack domains of each cell.
//!
//! This crate provides:
//!
//! * [`Lut`] — the Table I lookup tables of the paper: in-place (8 cycles/bit) and
//!   out-of-place (10 cycles/bit) 1-bit addition and subtraction,
//! * [`ApInstruction`] / [`ApProgram`] — the instruction set the compiler targets,
//! * [`ApController`] — the functional, bit-accurate executor, generic over the
//!   [`cam::AssociativeArray`] it drives: over the per-cell [`cam::CamArray`] it
//!   is the structural ground truth,
//! * [`ApEngine`] — the controller over a [`cam::BitPlaneArray`]: the same
//!   pass sequence and the same [`cam::CamStats`] accounting, but each LUT pass
//!   runs as bitwise operations over 64 rows per word, and programs lower into
//!   compiled [`PassPlan`]s,
//! * [`CostModel`] — the closed-form model of the same counters, used when
//!   compiling full networks where bit-level execution would be prohibitively slow.
//!
//! # Example
//!
//! ```
//! use ap::{ApController, ApInstruction, CarrySlot, Operand};
//! use cam::{CamArray, CamTechnology};
//!
//! # fn main() -> Result<(), ap::ApError> {
//! // 4 SIMD rows, 4 operand columns, 16-bit deep cells.
//! let array = CamArray::new(4, 4, 16, CamTechnology::default())?;
//! let mut ap = ApController::new(array);
//!
//! let a = Operand::new(0, 0, 4, false);
//! let acc = Operand::new(1, 0, 6, true);
//! ap.load_column(&a, &[1, 2, 3, 4])?;
//! ap.load_column(&acc, &[10, 10, 10, 10])?;
//! ap.execute(&ApInstruction::AddInPlace { a, acc, carry: CarrySlot::new(3, 0) })?;
//! assert_eq!(ap.read_column(&acc)?, vec![11, 12, 13, 14]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod controller;
mod cost;
mod engine;
mod error;
mod isa;
mod lut;
mod operand;
mod plan;
mod program;

pub use controller::ApController;
pub use cost::CostModel;
pub use engine::ApEngine;
pub use error::ApError;
pub use isa::{ApInstruction, CarrySlot};
pub use lut::{Lut, LutEntry, LutKind};
pub use operand::Operand;
pub use plan::{PassPlan, PlanCompiler, PlanGeometry, PlanStats};
pub use program::ApProgram;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ApError>;
