//! Bitwise oracles for the fused GIN ops: [`Tape::gin_aggregate`]
//! (recorded by `GinConv`), [`Tape::batch_norm`] and
//! [`Tape::batch_norm_relu`] (recorded by `BatchNorm1d`), and
//! [`Tape::linear`] and [`Tape::linear_relu`] (recorded by `Linear`) must
//! equal the unfused tape chains they replace bit for bit — forward
//! values, running statistics and every gradient — in training and
//! evaluation mode, across `OOD_THREADS` {1,2,4} × `OOD_POOL` {0,1}. The
//! unfused chains live only here, as the reference.
//!
//! The one exception is GIN's `gε`, a chunked tree reduction where the
//! chain folded sequentially: it must agree with the chain to rounding and
//! be bitwise-identical at every configuration.
//!
//! The inputs carry the cases that break a near-miss: NaN, ±∞ and −0 in
//! `x` and in the incoming gradient (so `Aᵀ·G` takes its zero-skipping
//! path), exact zeros in `x`, a batch-norm pre-activation of −0 (a zero
//! deviation times a negative `γ`, plus `β = −0`) where the ReLU mask must
//! stay shut, and a column whose deviation from its mean is
//! `1.0844669e-19`, where `powf(x, 2)` and `x · x` round differently, so a
//! fused op and a chain that square differently disagree there.

use ood_tensor::check::assert_gradients;
use ood_tensor::nn::{BatchNorm1d, Module};
use ood_tensor::ops::{Axis, BatchNormStats};
use ood_tensor::rng::Rng;
use ood_tensor::{par, pool, Mode, NodeId, Tape, Tensor};
use std::rc::Rc;
use std::sync::Mutex;

/// `par::set_threads` and `pool::set_enabled` are process-global;
/// serialize tests touching them.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

const NS: [usize; 5] = [1, 2, 7, 464, 5400];
const DS: [usize; 5] = [1, 3, 16, 17, 33];
const EPS: f32 = 1e-5;
const MOMENTUM: f32 = 0.1;

/// A deviation whose `powf(δ, 2)` is `1.1760685e-38` but whose `δ · δ`
/// is `1.1760683e-38`.
const POWF_TRAP: f32 = 1.0844669e-19;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(k) = (0..got.len()).find(|&k| got[k].to_bits() != want[k].to_bits()) {
        panic!(
            "{what}: element {k} is {} (fused) vs {} (chain)",
            got[k], want[k]
        );
    }
}

/// Run `check` at every thread × pool configuration.
fn across_grid(check: impl Fn(&str)) {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1usize, 2, 4] {
        for pool_on in [false, true] {
            par::set_threads(threads);
            pool::set_enabled(pool_on);
            check(&format!("t={threads} pool={pool_on}"));
        }
    }
    par::set_threads(par::max_threads());
    pool::set_enabled(true);
}

/// `x: [n, d]` of scaled normals, with a `POWF_TRAP` column (±δ in pairs,
/// so the column mean is exactly zero) and, when `special`, zeros, NaN
/// and ±∞ in the last column.
fn bn_input(n: usize, d: usize, special: bool, rng: &mut Rng) -> Tensor {
    let mut x = Tensor::randn([n, d], rng).mul_scalar(3.0).add_scalar(0.5);
    let data = x.data_mut();
    for i in 0..n {
        let trap = if n % 2 == 1 && i == n - 1 {
            0.0
        } else if i % 2 == 0 {
            POWF_TRAP
        } else {
            -POWF_TRAP
        };
        data[i * d] = trap;
    }
    if special && d > 1 && n > 2 {
        let j = d - 1;
        data[j] = f32::NAN;
        data[d + j] = 0.0;
        data[2 * d + j] = f32::INFINITY;
    }
    x
}

/// Incoming gradient: normals, with −∞, NaN and −0 in the last column
/// when `special`.
fn upstream(n: usize, d: usize, special: bool, rng: &mut Rng) -> Tensor {
    let mut g = Tensor::randn([n, d], rng);
    if special && d > 1 && n > 2 {
        let data = g.data_mut();
        data[d - 1] = f32::NEG_INFINITY;
        data[2 * d - 1] = f32::NAN;
        data[3 * d - 1] = -0.0;
    }
    g
}

/// `sum(out ⊙ g)`: the backward pass then hands `out` exactly `g`.
fn seeded_loss(tape: &mut Tape, out: NodeId, g: &Tensor) -> NodeId {
    let gc = tape.constant(g.clone());
    let prod = tape.mul(out, gc);
    tape.sum(prod)
}

/// Batch variance (training), forward value, `gx`, `gγ`, `gβ` and the
/// running statistics.
#[derive(Debug)]
struct BnRun {
    var: Vec<f32>,
    y: Vec<f32>,
    gx: Vec<f32>,
    g_gamma: Vec<f32>,
    g_beta: Vec<f32>,
    running: Vec<f32>,
}

fn bn_module(d: usize, gamma: &Tensor, beta: &Tensor, prime: Option<&Tensor>) -> BatchNorm1d {
    let mut bn = BatchNorm1d::new(d);
    {
        let mut params = bn.params_mut();
        params[0].value = gamma.clone();
        params[1].value = beta.clone();
    }
    if let Some(p) = prime {
        let mut tape = Tape::new();
        let x = tape.constant(p.clone());
        bn.forward(&mut tape, x, Mode::Train);
    }
    bn
}

fn running_of(bn: &BatchNorm1d) -> Vec<f32> {
    let mut r = bn.running_mean().data().to_vec();
    r.extend_from_slice(bn.running_var().data());
    r
}

/// The fused op, through `BatchNorm1d`, with the ReLU epilogue when
/// `relu`.
fn bn_fused(mut bn: BatchNorm1d, x: &Tensor, g: &Tensor, mode: Mode, relu: bool) -> BnRun {
    let mut tape = Tape::new();
    let xn = tape.leaf(x.clone());
    let y = if relu {
        bn.forward_relu(&mut tape, xn, mode)
    } else {
        bn.forward(&mut tape, xn, mode)
    };
    let loss = seeded_loss(&mut tape, y, g);
    let grads = tape.backward(loss);
    let var = match mode {
        Mode::Train => BatchNormStats::of_batch(x, EPS).var().to_vec(),
        Mode::Eval => Vec::new(),
    };
    let param_grad = |bn: &mut BatchNorm1d, k: usize| {
        let id = bn.params_mut()[k].bound_node().unwrap();
        grads.get(id).unwrap().data().to_vec()
    };
    BnRun {
        var,
        y: tape.value(y).data().to_vec(),
        gx: grads.get(xn).unwrap().data().to_vec(),
        g_gamma: param_grad(&mut bn, 0),
        g_beta: param_grad(&mut bn, 1),
        running: running_of(&bn),
    }
}

/// The unfused chain `BatchNorm1d` recorded before the fusion, with the
/// same running-statistics update, then `relu` when asked.
fn bn_chain(
    bn: &BatchNorm1d,
    x: &Tensor,
    [gamma, beta]: [&Tensor; 2],
    g: &Tensor,
    mode: Mode,
    relu: bool,
) -> BnRun {
    let n = x.nrows();
    let mut tape = Tape::new();
    let xn = tape.leaf(x.clone());
    let gn = tape.leaf(gamma.clone());
    let bn_ = tape.leaf(beta.clone());
    let (mut rm, mut rv) = (bn.running_mean().clone(), bn.running_var().clone());
    let mut batch_var = Vec::new();
    let (xc, std) = match mode {
        Mode::Train => {
            let mu = tape.mean_axis(xn, Axis::Rows);
            let xc = tape.sub(xn, mu);
            let sq = tape.square(xc);
            let var = tape.mean_axis(sq, Axis::Rows);
            batch_var = tape.value(var).data().to_vec();
            let unbias = if n > 1 {
                n as f32 / (n as f32 - 1.0)
            } else {
                1.0
            };
            rm = rm
                .mul_scalar(1.0 - MOMENTUM)
                .add(&tape.value(mu).mul_scalar(MOMENTUM));
            rv = rv
                .mul_scalar(1.0 - MOMENTUM)
                .add(&tape.value(var).mul_scalar(MOMENTUM * unbias));
            let var_eps = tape.add_scalar(var, EPS);
            (xc, tape.sqrt(var_eps))
        }
        Mode::Eval => {
            let mu = tape.constant(rm.clone());
            let var = tape.constant(rv.add_scalar(EPS));
            let xc = tape.sub(xn, mu);
            (xc, tape.sqrt(var))
        }
    };
    let norm = tape.div(xc, std);
    let scaled = tape.mul(norm, gn);
    let y = tape.add(scaled, bn_);
    let y = if relu { tape.relu(y) } else { y };
    let loss = seeded_loss(&mut tape, y, g);
    let grads = tape.backward(loss);
    let mut running = rm.data().to_vec();
    running.extend_from_slice(rv.data());
    BnRun {
        var: batch_var,
        y: tape.value(y).data().to_vec(),
        gx: grads.get(xn).unwrap().data().to_vec(),
        g_gamma: grads.get(gn).unwrap().data().to_vec(),
        g_beta: grads.get(bn_).unwrap().data().to_vec(),
        running,
    }
}

fn assert_bn_equal(what: &str, fused: &BnRun, chain: &BnRun) {
    assert_bits(&format!("{what} var"), &fused.var, &chain.var);
    assert_bits(&format!("{what} y"), &fused.y, &chain.y);
    assert_bits(&format!("{what} gx"), &fused.gx, &chain.gx);
    assert_bits(&format!("{what} gγ"), &fused.g_gamma, &chain.g_gamma);
    assert_bits(&format!("{what} gβ"), &fused.g_beta, &chain.g_beta);
    assert_bits(&format!("{what} running"), &fused.running, &chain.running);
}

/// One batch-norm case: the input, the batch that primes the running
/// statistics, `γ`, `β` and the incoming gradient.
struct BnCase {
    what: String,
    x: Tensor,
    prime: Tensor,
    gamma: Tensor,
    beta: Tensor,
    g: Tensor,
}

/// The batch-norm grid: every `n × d`, plain and with special values.
/// Column 0 has a negative `γ` and `β = −0`, so an odd `n`'s last row
/// (deviation `+0`) normalizes to −0 in training.
fn bn_cases(seed: u64) -> Vec<BnCase> {
    let mut rng = Rng::seed_from(seed);
    let mut cases = Vec::new();
    for n in NS {
        for d in DS {
            for special in [false, true] {
                let x = bn_input(n, d, special, &mut rng);
                let prime = Tensor::randn([n.max(2), d], &mut rng).add_scalar(1.5);
                let mut gamma = Tensor::rand_uniform([d], 0.5, 2.0, &mut rng);
                let mut beta = Tensor::randn([d], &mut rng);
                gamma.data_mut()[0] *= -1.0;
                beta.data_mut()[0] = -0.0;
                let g = upstream(n, d, special, &mut rng);
                let what = format!("n={n} d={d} special={special}");
                cases.push(BnCase {
                    what,
                    x,
                    prime,
                    gamma,
                    beta,
                    g,
                });
            }
        }
    }
    cases
}

/// The fused op against the chain over the grid, both modes.
fn check_bn_grid(seed: u64, relu: bool) {
    let cases = bn_cases(seed);
    across_grid(|cfg| {
        for c in &cases {
            for mode in [Mode::Train, Mode::Eval] {
                let what = format!("{cfg} {} {mode:?} relu={relu}", c.what);
                let bn = bn_module(c.x.ncols(), &c.gamma, &c.beta, Some(&c.prime));
                let chain = bn_chain(&bn, &c.x, [&c.gamma, &c.beta], &c.g, mode, relu);
                let fused = bn_fused(bn, &c.x, &c.g, mode, relu);
                assert_bn_equal(&what, &fused, &chain);
            }
        }
    });
}

#[test]
fn batch_norm_equals_the_unfused_chain_bitwise() {
    check_bn_grid(71, false);
}

#[test]
fn batch_norm_relu_equals_batch_norm_then_relu_bitwise() {
    check_bn_grid(79, true);
}

#[test]
fn batch_norm_relu_meets_a_negative_zero_pre_activation() {
    // Three rows 1, 0, −1: μ = 0, so the middle row's deviation is +0,
    // and `(+0/σ)·(−1) + (−0)` is −0, which the ReLU maps to a zero that
    // passes no gradient.
    let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], [3, 1]);
    let (gamma, beta) = (
        Tensor::from_vec(vec![-1.0], [1]),
        Tensor::from_vec(vec![-0.0], [1]),
    );
    let g = Tensor::from_vec(vec![1.0, 1.0, 1.0], [3, 1]);
    let bn = bn_module(1, &gamma, &beta, None);
    let chain = bn_chain(&bn, &x, [&gamma, &beta], &g, Mode::Train, false);
    assert_eq!(chain.y[1].to_bits(), (-0.0f32).to_bits());
    let chain = bn_chain(&bn, &x, [&gamma, &beta], &g, Mode::Train, true);
    let fused = bn_fused(bn, &x, &g, Mode::Train, true);
    assert_bn_equal("−0 pre-activation", &fused, &chain);
    assert_eq!(fused.y[1], 0.0);
}

#[test]
fn batch_norm_variance_squares_by_multiplying() {
    // Two rows ±δ: μ = 0, and the biased variance is built from δ·δ, not
    // from powf(δ, 2).
    let x = Tensor::from_vec(vec![POWF_TRAP, -POWF_TRAP], [2, 1]);
    let stats = BatchNormStats::of_batch(&x, EPS);
    assert_eq!(stats.mean(), &[0.0]);
    let want = (POWF_TRAP * POWF_TRAP + POWF_TRAP * POWF_TRAP) * 0.5;
    assert_eq!(stats.var()[0].to_bits(), want.to_bits());
}

#[test]
fn batch_norm_with_a_constant_input_gives_only_parameter_gradients() {
    let mut rng = Rng::seed_from(72);
    let (x, gamma, beta) = (
        Tensor::randn([9, 5], &mut rng),
        Tensor::rand_uniform([5], 0.5, 2.0, &mut rng),
        Tensor::randn([5], &mut rng),
    );
    let g = upstream(9, 5, false, &mut rng);
    let bn = bn_module(5, &gamma, &beta, None);
    let chain = bn_chain(&bn, &x, [&gamma, &beta], &g, Mode::Train, false);
    let mut bn = bn;
    let mut tape = Tape::new();
    let xn = tape.constant(x.clone());
    let y = bn.forward(&mut tape, xn, Mode::Train);
    let loss = seeded_loss(&mut tape, y, &g);
    let grads = tape.backward(loss);
    assert!(grads.get(xn).is_none());
    let gg = grads.get(bn.params_mut()[0].bound_node().unwrap()).unwrap();
    assert_bits("gγ", gg.data(), &chain.g_gamma);
}

/// `x: [n, k]` with zeros, and NaN/±∞ when `special`.
fn linear_input(n: usize, k: usize, special: bool, rng: &mut Rng) -> Tensor {
    let mut x = Tensor::randn([n, k], rng);
    for v in x.data_mut().iter_mut().step_by(5) {
        *v = 0.0;
    }
    if special && n * k > 3 {
        let data = x.data_mut();
        data[1] = f32::NAN;
        data[2] = f32::INFINITY;
        data[3] = -0.0;
    }
    x
}

/// How [`linear_run`] records `x·W + b`.
#[derive(Clone, Copy, Debug)]
enum LinearPath {
    /// `matmul → add`.
    Chain,
    /// [`Tape::linear`].
    Fused,
    /// `linear → relu`.
    ChainRelu,
    /// [`Tape::linear_relu`].
    FusedRelu,
}

/// Forward value and the gradients of `x`, `W` and `b`, concatenated.
fn linear_run(x: &Tensor, w: &Tensor, b: &Tensor, g: &Tensor, path: LinearPath) -> Vec<f32> {
    let mut tape = Tape::new();
    let ids = [x, w, b].map(|t| tape.leaf(t.clone()));
    let y = match path {
        LinearPath::Chain => {
            let m = tape.matmul(ids[0], ids[1]);
            tape.add(m, ids[2])
        }
        LinearPath::Fused => tape.linear(ids[0], ids[1], ids[2]),
        LinearPath::ChainRelu => {
            let z = tape.linear(ids[0], ids[1], ids[2]);
            tape.relu(z)
        }
        LinearPath::FusedRelu => tape.linear_relu(ids[0], ids[1], ids[2]),
    };
    let loss = seeded_loss(&mut tape, y, g);
    let grads = tape.backward(loss);
    let mut all = tape.value(y).data().to_vec();
    for id in ids {
        all.extend_from_slice(grads.get(id).unwrap().data());
    }
    all
}

/// `fused` against `chain` over the linear grid.
fn check_linear_grid(seed: u64, fused: LinearPath, chain: LinearPath) {
    let mut rng = Rng::seed_from(seed);
    let mut cases = Vec::new();
    for n in NS {
        for (k, m) in [
            (1usize, 1usize),
            (3, 16),
            (16, 17),
            (17, 33),
            (33, 3),
            (12, 32),
        ] {
            for special in [false, true] {
                let x = linear_input(n, k, special, &mut rng);
                let w = Tensor::randn([k, m], &mut rng);
                let b = Tensor::randn([m], &mut rng);
                let g = upstream(n, m, special, &mut rng);
                cases.push((n, k, m, special, x, w, b, g));
            }
        }
    }
    across_grid(|cfg| {
        for (n, k, m, special, x, w, b, g) in &cases {
            let what = format!("{cfg} n={n} k={k} m={m} special={special} {fused:?}");
            let want = linear_run(x, w, b, g, chain);
            assert_bits(&what, &linear_run(x, w, b, g, fused), &want);
        }
    });
}

#[test]
fn linear_equals_matmul_then_add_bitwise() {
    check_linear_grid(73, LinearPath::Fused, LinearPath::Chain);
}

#[test]
fn linear_relu_equals_linear_then_relu_bitwise() {
    check_linear_grid(80, LinearPath::FusedRelu, LinearPath::ChainRelu);
}

#[test]
fn matmul_tn_equals_transpose_then_matmul_bitwise() {
    let mut rng = Rng::seed_from(74);
    for (m, k, n) in [
        (0usize, 3usize, 4usize),
        (1, 1, 1),
        (5, 7, 16),
        (464, 33, 17),
        (5400, 32, 32),
        (9, 2, 35),
    ] {
        for special in [false, true] {
            let a = linear_input(m, k, special, &mut rng);
            let g = upstream(m, n, special, &mut rng);
            let want = bits(a.transpose().matmul(&g).data());
            across_grid(|cfg| {
                let got = a.matmul_tn(&g);
                assert_eq!(got.shape().dims(), &[k, n]);
                assert_eq!(
                    bits(got.data()),
                    want,
                    "{cfg} m={m} k={k} n={n} special={special}"
                );
            });
        }
    }
}

#[test]
fn constant_operands_get_no_gradient() {
    let mut rng = Rng::seed_from(75);
    let mut tape = Tape::new();
    let x = tape.constant(Tensor::randn([6, 4], &mut rng));
    let w = tape.leaf(Tensor::randn([4, 3], &mut rng));
    let b = tape.leaf(Tensor::randn([3], &mut rng));
    let mask = tape.constant(Tensor::rand_uniform([6, 3], 0.0, 2.0, &mut rng));
    let y = tape.linear(x, w, b);
    let dropped = tape.mul(y, mask);
    let loss = tape.sum(dropped);
    let grads = tape.backward(loss);
    assert!(grads.get(x).is_none() && grads.get(mask).is_none());
    assert!(grads.get(w).is_some() && grads.get(b).is_some());
}

/// A random `n`-node edge list with repeated edges, self-loops and
/// isolated nodes (every fifth node has no edge).
fn gin_edges(n: usize, rng: &mut Rng) -> (Rc<Vec<usize>>, Rc<Vec<usize>>) {
    let linked: Vec<usize> = (0..n).filter(|i| i % 5 != 4).collect();
    let pick = |rng: &mut Rng| linked[rng.below(linked.len())];
    let (mut src, mut dst) = (Vec::new(), Vec::new());
    for _ in 0..2 * linked.len() {
        let (s, d) = (pick(rng), pick(rng));
        src.push(s);
        dst.push(d);
        if rng.below(4) == 0 {
            src.push(s);
            dst.push(d);
        }
    }
    (Rc::new(src), Rc::new(dst))
}

/// Forward value and `gx` of GIN's aggregation, then `gε`, fused or as
/// the `neighbor_sum → add_scalar → mul → add` chain `GinConv` recorded
/// before the fusion.
fn gin_run(
    x: &Tensor,
    eps: f32,
    (src, dst): &(Rc<Vec<usize>>, Rc<Vec<usize>>),
    g: &Tensor,
    fused: bool,
) -> (Vec<f32>, f32) {
    let n = x.nrows();
    let mut tape = Tape::new();
    let xn = tape.leaf(x.clone());
    let (en, out) = if fused {
        let en = tape.leaf(Tensor::from_vec(vec![eps], [1]));
        (en, tape.gin_aggregate(xn, en, src.clone(), dst.clone(), n))
    } else {
        let agg = tape.neighbor_sum(xn, src.clone(), dst.clone(), n);
        let en = tape.leaf(Tensor::from_vec(vec![eps], [1]));
        let one_plus_eps = tape.add_scalar(en, 1.0);
        let scaled = tape.mul(xn, one_plus_eps);
        (en, tape.add(scaled, agg))
    };
    let loss = seeded_loss(&mut tape, out, g);
    let grads = tape.backward(loss);
    let mut all = tape.value(out).data().to_vec();
    all.extend_from_slice(grads.get(xn).unwrap().data());
    (all, grads.get(en).unwrap().item())
}

#[test]
fn gin_aggregate_equals_the_unfused_chain_bitwise() {
    let mut rng = Rng::seed_from(78);
    let mut cases = Vec::new();
    for n in NS {
        for c in DS {
            for special in [false, true] {
                let mut x = Tensor::randn([n, c], &mut rng).mul_scalar(3.0);
                if special && n > 2 {
                    let data = x.data_mut();
                    data[c - 1] = f32::NAN;
                    data[c] = f32::INFINITY;
                    data[2 * c - 1] = f32::NEG_INFINITY;
                    data[(n - 1) * c] = -0.0;
                }
                let eps = [0.0, 0.37, -1.0, -0.6][cases.len() % 4];
                let edges = gin_edges(n, &mut rng);
                let g = upstream(n, c, special, &mut rng);
                cases.push((n, c, special, x, eps, edges, g));
            }
        }
    }
    let first_g_eps = std::cell::RefCell::new(Vec::new());
    across_grid(|cfg| {
        let mut g_eps = Vec::new();
        for (n, c, special, x, eps, edges, g) in &cases {
            let what = format!("{cfg} n={n} c={c} ε={eps} special={special}");
            let (fused, fused_g_eps) = gin_run(x, *eps, edges, g, true);
            let (chain, chain_g_eps) = gin_run(x, *eps, edges, g, false);
            assert_bits(&what, &fused, &chain);
            // Σ|g·x| bounds the rounding of either summation order.
            let scale: f32 = g
                .data()
                .iter()
                .zip(x.data())
                .map(|(a, b)| (a * b).abs())
                .sum();
            assert!(
                (fused_g_eps.is_nan() && chain_g_eps.is_nan())
                    || (fused_g_eps - chain_g_eps).abs() <= 1e-5 * scale.max(1.0),
                "{what}: gε {fused_g_eps} (fused) vs {chain_g_eps} (chain)"
            );
            g_eps.push(fused_g_eps);
        }
        let mut first = first_g_eps.borrow_mut();
        if first.is_empty() {
            *first = g_eps;
        } else {
            assert_bits(&format!("{cfg} gε across configurations"), &g_eps, &first);
        }
    });
}

#[test]
fn batch_norm_gradcheck() {
    let mut rng = Rng::seed_from(76);
    let x = Tensor::randn([6, 3], &mut rng).mul_scalar(2.0);
    let gamma = Tensor::rand_uniform([3], 0.5, 1.5, &mut rng);
    let beta = Tensor::randn([3], &mut rng);
    // A fixed projection makes the scalar loss depend on every output.
    let proj = Tensor::randn([6, 3], &mut rng);
    for batch in [true, false] {
        let proj = proj.clone();
        let running = (
            Tensor::randn([3], &mut rng),
            Tensor::rand_uniform([3], 0.5, 2.0, &mut rng),
        );
        assert_gradients(
            &[x.clone(), gamma.clone(), beta.clone()],
            1e-2,
            2e-2,
            move |t, ids| {
                let stats = if batch {
                    BatchNormStats::of_batch(t.value(ids[0]), EPS)
                } else {
                    BatchNormStats::running(&running.0, &running.1, EPS)
                };
                let y = t.batch_norm(ids[0], ids[1], ids[2], Rc::new(stats));
                let p = t.constant(proj.clone());
                let yp = t.mul(y, p);
                t.sum(yp)
            },
        );
    }
}

#[test]
fn linear_gradcheck() {
    let mut rng = Rng::seed_from(77);
    let x = Tensor::randn([5, 4], &mut rng);
    let w = Tensor::randn([4, 3], &mut rng);
    let b = Tensor::randn([3], &mut rng);
    assert_gradients(&[x, w, b], 1e-2, 2e-2, |t, ids| {
        let y = t.linear(ids[0], ids[1], ids[2]);
        let y2 = t.mul(y, y);
        t.sum(y2)
    });
}
