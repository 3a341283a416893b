//! Neural-network building blocks on top of the autodiff tape.

mod batchnorm;
mod dropout;
mod embedding;
mod linear;
mod mlp;
mod module;

pub use batchnorm::BatchNorm1d;
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use linear::Linear;
pub use mlp::Mlp;
pub use module::{Module, Param};

use crate::rng::Rng;
use crate::tensor::Tensor;

/// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` weight.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform([fan_in, fan_out], -bound, bound, rng)
}
