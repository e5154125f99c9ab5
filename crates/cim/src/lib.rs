//! # neuspin-cim — computation-in-memory substrate
//!
//! A behavioural simulator of the spintronic crossbar architecture the
//! NeuSpin project targets:
//!
//! * [`XnorBitCell`] / [`MlcBitCell`] — binary (differential 2×1T-1MTJ)
//!   and multi-level bit-cells;
//! * [`Crossbar`] / [`MlcCrossbar`] — analog matrix-vector-multiply
//!   arrays with programming-time device variation, defect injection,
//!   cycle-to-cycle read noise, and ADC quantization;
//! * [`WordlineDecoder`] — multi-enable row decoding (Fig. 1);
//! * [`SpinDropModule`] and [`Arbiter`] — the stochastic-MTJ dropout
//!   and selection modules of the four dropout designs;
//! * [`mapping`] — layer-to-crossbar mapping strategies ①/② with
//!   module-count reports, plus fault-aware line placement
//!   ([`fault_aware_remap`]);
//! * [`bist`] / [`repair`] — the active fault-management front half:
//!   march-test defect estimation and spare-column redundancy repair;
//! * [`OpCounter`] — the operation tallies the energy model consumes.
//!
//! ## Example
//!
//! ```
//! use neuspin_cim::{Crossbar, CrossbarConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! // A 4-input, 2-output binary layer on an ideal crossbar.
//! let weights = vec![
//!     1.0, -1.0,
//!     1.0, 1.0,
//!     -1.0, 1.0,
//!     1.0, -1.0,
//! ];
//! let mut xbar = Crossbar::program(&weights, 4, 2, &CrossbarConfig::ideal(), &mut rng);
//! let y = xbar.matvec(&[1.0, 1.0, 1.0, 1.0], &mut rng);
//! assert_eq!(y.len(), 2);
//! assert!((y[0] - 2.0).abs() < 1e-9);
//! ```

pub mod adc;
pub mod bist;
pub mod bitcell;
pub mod crossbar;
pub mod decoder;
pub mod dropout_modules;
pub mod mapping;
mod packed;
pub mod repair;

pub use adc::{Adc, OpCounter};
pub use bist::{march_test, BistConfig, BistReport};
pub use bitcell::{MlcBitCell, XnorBitCell, XnorCellState};
pub use crossbar::{
    kernel_isa, AgingHookState, Crossbar, CrossbarConfig, CrossbarState, KernelPolicy,
    MlcCrossbar, MlcCrossbarState, PackedState, SpareColumnState,
};
pub use decoder::WordlineDecoder;
pub use dropout_modules::{Arbiter, ArbiterState, SpinDropModule};
pub use mapping::{
    fault_aware_remap, map_conv, map_linear, ArrayLimit, ConvMapping, LayerShape, MappingReport,
    Remap,
};
pub use repair::{repair_columns, RepairReport};
