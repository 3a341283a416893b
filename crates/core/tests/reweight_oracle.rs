//! The weight inner loop's hand-written step against its tape oracle.
//!
//! `GraphWeights::objective_and_grad` (lifted features, no tape) must give
//! the same decorrelation value bits and the same weight-gradient bits as
//! recording `decorrelation_loss + GraphWeights::l2_penalty` on a tape and
//! running `backward` — for every decorrelation kind, with and without a
//! global-memory prefix, on a column subset, at every `OOD_THREADS` ×
//! `OOD_POOL` setting. A finite-difference check pins the gradient itself.

use oodgnn_core::decorrelation::DecorrelationCtx;
use oodgnn_core::trainer::standardize_columns;
use oodgnn_core::{decorrelation_loss, DecorrelationKind, GraphWeights};
use std::sync::Mutex;
use tensor::check::check_gradient_fn;
use tensor::rng::Rng;
use tensor::{par, pool, Tape, Tensor};

/// `par::set_threads` and `pool::set_enabled` are process-global;
/// serialize tests touching them.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

const LAMBDA: f32 = 0.02;
/// Local batch rows: a ragged last batch, so `λ/B` is not a power-of-two
/// scaling and the ℓ² gradient's evaluation order shows in its bits.
const B: usize = 30;
const D: usize = 16;

/// One oracle case: standardized representations `[kb + B, d]`, the
/// memory's weight prefix (`kb` entries) and non-uniform local weights.
struct Case {
    kind: DecorrelationKind,
    z_hat: Tensor,
    globals: Vec<f32>,
    w: GraphWeights,
    draw_seed: u64,
}

fn case(kind: DecorrelationKind, kb: usize, subset: bool, seed: u64) -> Case {
    let mut rng = Rng::seed_from(seed);
    let mut z = Tensor::randn([kb + B, D], &mut rng);
    if subset {
        // The dim-fraction ablation: a random column subset, as the trainer
        // draws it.
        let cols = rng.choose_distinct(D, D / 2);
        z = z.select_cols(&cols);
    }
    let globals = Tensor::rand_uniform([kb], 0.5, 1.5, &mut rng)
        .data()
        .to_vec();
    let mut w = GraphWeights::uniform(B);
    w.param_mut().value = Tensor::rand_uniform([B], 0.2, 2.0, &mut rng);
    Case {
        kind,
        z_hat: standardize_columns(&z),
        globals,
        w,
        draw_seed: seed ^ 0x5eed,
    }
}

fn hand(c: &Case) -> (f32, Tensor) {
    let mut rng = Rng::seed_from(c.draw_seed);
    let ctx = DecorrelationCtx::new(c.z_hat.ncols(), &c.kind, &mut rng);
    let lifted = ctx.lift(&c.z_hat);
    c.w.objective_and_grad(&lifted, &c.globals, LAMBDA)
}

/// The inner step as the tape records it: the local weights as a leaf,
/// reshaped and stacked under the constant global prefix.
fn tape_oracle(c: &Case) -> (f32, Tensor) {
    let mut rng = Rng::seed_from(c.draw_seed);
    let mut tape = Tape::new();
    let z = tape.constant(c.z_hat.clone());
    let w_local = tape.leaf(c.w.values().clone());
    let w_col = tape.reshape(w_local, [B, 1]);
    let w_full = if c.globals.is_empty() {
        w_col
    } else {
        let kb = c.globals.len();
        let g = tape.constant(Tensor::from_vec(c.globals.clone(), [kb, 1]));
        tape.concat_rows(&[g, w_col])
    };
    let dec = decorrelation_loss(&mut tape, z, w_full, &c.kind, &mut rng).unwrap();
    let reg = c.w.l2_penalty(&mut tape, w_local, LAMBDA);
    let loss = tape.add(dec, reg);
    let grads = tape.backward(loss);
    (tape.value(dec).item(), grads.get(w_local).unwrap().clone())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn cases() -> Vec<(String, Case)> {
    let kinds = [
        DecorrelationKind::Rff { q: 1 },
        DecorrelationKind::Rff { q: 3 },
        DecorrelationKind::Linear,
    ];
    let mut out = Vec::new();
    for (ki, kind) in kinds.iter().enumerate() {
        for (kb, subset) in [(0, false), (32, false), (0, true)] {
            let seed = 100 + 10 * ki as u64 + kb as u64 + subset as u64;
            let name = format!("{kind:?} kb={kb} subset={subset}");
            out.push((name, case(kind.clone(), kb, subset, seed)));
        }
    }
    out
}

#[test]
fn hand_step_matches_tape_bitwise_at_every_thread_and_pool_setting() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cases = cases();
    let mut reference: Option<Vec<(u32, Vec<u32>)>> = None;
    for threads in [1, 2, 4] {
        for pool_on in [false, true] {
            par::set_threads(threads);
            pool::set_enabled(pool_on);
            let mut got = Vec::new();
            for (name, c) in &cases {
                let (hv, hg) = hand(c);
                let (tv, tg) = tape_oracle(c);
                let at = format!("{name} t={threads} pool={pool_on}");
                assert!(hv.is_finite() && hv > 0.0, "{at}: value {hv}");
                assert_eq!(hv.to_bits(), tv.to_bits(), "{at}: value {hv} vs tape {tv}");
                assert_eq!(hg.shape(), tg.shape(), "{at}: gradient shape");
                assert_eq!(bits(&hg), bits(&tg), "{at}: gradient bits");
                got.push((hv.to_bits(), bits(&hg)));
            }
            match &reference {
                None => reference = Some(got),
                Some(r) => assert!(
                    *r == got,
                    "t={threads} pool={pool_on}: hand step differs from t=1 pool=off"
                ),
            }
        }
    }
    pool::set_enabled(true);
    par::set_threads(par::max_threads());
}

#[test]
fn hand_gradient_matches_finite_differences() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for kind in [DecorrelationKind::Rff { q: 2 }, DecorrelationKind::Linear] {
        let c = case(kind.clone(), 8, false, 7);
        let mut rng = Rng::seed_from(c.draw_seed);
        let lifted = DecorrelationCtx::new(D, &kind, &mut rng).lift(&c.z_hat);
        let (_, analytic) = c.w.objective_and_grad(&lifted, &c.globals, LAMBDA);
        let objective = |w: &Tensor| {
            let mut probe = GraphWeights::uniform(B);
            probe.param_mut().value = w.clone();
            let (dec, _) = probe.objective_and_grad(&lifted, &c.globals, LAMBDA);
            dec + LAMBDA * w.data().iter().map(|x| x * x).sum::<f32>() / B as f32
        };
        let res = check_gradient_fn(c.w.values(), &analytic, 1e-2, objective);
        assert!(res.within(2e-2), "{kind:?}: {res:?}");
    }
}

#[test]
fn l2_gradient_matches_tape_bitwise() {
    // Checked alone: inside the full step the ℓ² term is small enough that
    // a last-bit difference could round away in the sum.
    let mut rng = Rng::seed_from(3);
    for n in [1, 7, 30, 32] {
        let mut w = GraphWeights::uniform(n);
        w.param_mut().value = Tensor::rand_uniform([n], 0.2, 2.0, &mut rng);
        let mut tape = Tape::new();
        let wn = tape.leaf(w.values().clone());
        let reg = w.l2_penalty(&mut tape, wn, LAMBDA);
        let grads = tape.backward(reg);
        assert_eq!(
            bits(&w.l2_grad(LAMBDA)),
            bits(grads.get(wn).unwrap()),
            "n={n}"
        );
    }
}
