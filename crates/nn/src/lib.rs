//! # neuspin-nn — from-scratch neural network framework
//!
//! A compact tensor + layer/backprop framework providing everything the
//! NeuSpin training stack needs: dense/convolutional layers (real and
//! binary with straight-through estimators), the paper's normalization
//! and dropout innovations, an LSTM, losses, and optimizers.
//!
//! The NeuSpin-specific layers map one-to-one onto paper sections:
//!
//! * [`Dropout`] — per-neuron dropout → SpinDrop (§III-A1)
//! * [`SpatialDropout`] — per-feature-map → Spatial-SpinDrop (§III-A2)
//! * [`ScaleDrop`] — learnable scale vector, one RNG/layer →
//!   SpinScaleDrop (§III-A3)
//! * [`InvertedNorm`] — inverted normalization with affine dropout
//!   (§III-A4, the self-healing layer)
//! * [`BinaryLinear`] / [`BinaryConv2d`] — XNOR-style binary layers,
//!   the form that maps onto MTJ crossbars
//!
//! ## Example
//!
//! ```
//! use neuspin_nn::{Sequential, BinaryLinear, SignSte, Linear, Mode, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut model = Sequential::new();
//! model.push(BinaryLinear::new(16, 32, &mut rng));
//! model.push(SignSte::new());
//! model.push(Linear::new(32, 4, &mut rng));
//!
//! let x = Tensor::ones(&[1, 16]);
//! let logits = model.forward(&x, Mode::Eval, &mut rng);
//! assert_eq!(logits.shape(), &[1, 4]);
//! ```

pub mod act;
pub mod conv;
pub mod dropout;
mod gemm;
pub mod init;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod model;
pub mod norm;
pub mod optim;
pub mod pool;
pub mod tensor;
pub mod train;

pub use act::{HardTanh, Relu, SignSte};
pub use conv::{col2im, im2col, im2col_into, BinaryConv2d, Conv2d, ConvGeometry};
pub use dropout::{Dropout, ScaleDrop, SpatialDropout};
pub use layer::{grad_check_input, grad_check_params, Layer, Mode, Param};
pub use linear::{BinaryLinear, DropConnectLinear, Linear};
pub use loss::{cross_entropy, mse, nll, softmax, softmax_into};
pub use lstm::Lstm;
pub use model::Sequential;
pub use norm::{BatchNorm, InvertedNorm};
pub use optim::{Adam, Optimizer, Sgd};
pub use pool::{AvgPool2d, Flatten, MaxPool2d};
pub use tensor::Tensor;
pub use train::{evaluate, fit, refresh_norm_stats, shuffled_indices, Dataset, EpochStats, TrainConfig};
