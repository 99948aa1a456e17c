//! Software floating-point datatypes and datatype metadata.
//!
//! AMD Matrix Cores operate on six datatypes; this crate implements the
//! floating-point ones that the paper evaluates — IEEE 754 binary16
//! ([`F16`]), bfloat16 ([`Bf16`]) — entirely in software (no hardware
//! half-precision support is assumed), plus a [`DType`] descriptor used
//! throughout the simulator, the WMMA layer, and the BLAS library to talk
//! about element types, sizes, and FLOP accounting.
//!
//! The conversions implement round-to-nearest-even, the IEEE 754 default
//! rounding mode, and handle subnormals, infinities, and NaNs exactly so
//! that the functional GEMM executor in `mc-blas` produces bit-faithful
//! mixed-precision results.

#![deny(missing_docs)]

mod bf16;
mod dtype;
mod f16;
mod real;
mod ulp;

pub use bf16::Bf16;
pub use dtype::{DType, DTypeClass};
pub use f16::F16;
pub use real::Real;
pub use ulp::{ulp_distance_f32, ApproxEq};
