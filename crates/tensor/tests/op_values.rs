//! Value-level regression tests for individual ops: exact forward values
//! and hand-derived gradients (complementing the finite-difference property
//! tests with human-checkable numbers).

use ood_tensor::{Tape, Tensor};

fn grad_of_sum(
    build: impl Fn(&mut Tape, ood_tensor::NodeId) -> ood_tensor::NodeId,
    input: Vec<f32>,
) -> Vec<f32> {
    let n = input.len();
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::from_vec(input, [n]));
    let y = build(&mut tape, x);
    let s = tape.sum(y);
    let g = tape.backward(s);
    g.get(x).unwrap().data().to_vec()
}

#[test]
fn neg_gradient_is_minus_one() {
    let g = grad_of_sum(|t, x| t.neg(x), vec![1.0, -2.0, 3.0]);
    assert_eq!(g, vec![-1.0, -1.0, -1.0]);
}

#[test]
fn exp_value_and_gradient() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::from_vec(vec![0.0, 1.0], [2]));
    let y = tape.exp(x);
    assert!((tape.value(y).data()[0] - 1.0).abs() < 1e-6);
    assert!((tape.value(y).data()[1] - std::f32::consts::E).abs() < 1e-5);
    let s = tape.sum(y);
    let g = tape.backward(s);
    // d/dx e^x = e^x
    let gx = g.get(x).unwrap();
    assert!((gx.data()[1] - std::f32::consts::E).abs() < 1e-5);
}

#[test]
fn sqrt_gradient() {
    let g = grad_of_sum(|t, x| t.sqrt(x), vec![1.0, 4.0, 9.0]);
    // d/dx sqrt(x) = 1/(2 sqrt(x))
    assert!((g[0] - 0.5).abs() < 1e-6);
    assert!((g[1] - 0.25).abs() < 1e-6);
    assert!((g[2] - 1.0 / 6.0).abs() < 1e-6);
}

#[test]
fn pow_scalar_cubic() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::from_vec(vec![2.0], [1]));
    let y = tape.pow_scalar(x, 3.0);
    assert!((tape.value(y).item() - 8.0).abs() < 1e-5);
    let g = tape.backward(y);
    assert!((g.get(x).unwrap().item() - 12.0).abs() < 1e-4); // 3x²
}

#[test]
fn reshape_preserves_values_and_grads() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [2, 3]));
    let r = tape.reshape(x, [3, 2]);
    assert_eq!(tape.value(r).row(1), &[3.0, 4.0]);
    let w = tape.constant(Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [3, 2]));
    let p = tape.mul(r, w);
    let s = tape.sum(p);
    let g = tape.backward(s);
    assert_eq!(g.get(x).unwrap().shape().dims(), &[2, 3]);
    assert_eq!(g.get(x).unwrap().data(), &[1., 2., 3., 4., 5., 6.]);
}

#[test]
fn mean_gradient_spreads_uniformly() {
    let g = grad_of_sum(|t, x| t.mean(x), vec![5.0, 1.0, 9.0, 3.0]);
    assert!(g.iter().all(|&v| (v - 0.25).abs() < 1e-6));
}

#[test]
fn scalar_shapes_broadcast_against_matrices() {
    let mut tape = Tape::new();
    let m = tape.leaf(Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2]));
    let c = tape.leaf(Tensor::scalar(10.0));
    let y = tape.mul(m, c);
    assert_eq!(tape.value(y).data(), &[10., 20., 30., 40.]);
    let s = tape.sum(y);
    let g = tape.backward(s);
    assert_eq!(g.get(c).unwrap().item(), 10.0); // sum of matrix entries
}

#[test]
fn chained_matmul_transpose_identity() {
    // (A Aᵀ) is symmetric: verify through the tape.
    let mut tape = Tape::new();
    let a = tape.leaf(Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [2, 3]));
    let at = tape.transpose(a);
    let aat = tape.matmul(a, at);
    let v = tape.value(aat);
    assert!((v.at(0, 1) - v.at(1, 0)).abs() < 1e-5);
    assert!((v.at(0, 0) - 14.0).abs() < 1e-5); // 1+4+9
}

#[test]
fn tanh_saturation_gradients_vanish() {
    let g = grad_of_sum(|t, x| t.tanh(x), vec![0.0, 20.0, -20.0]);
    assert!((g[0] - 1.0).abs() < 1e-5);
    assert!(g[1].abs() < 1e-6);
    assert!(g[2].abs() < 1e-6);
}
