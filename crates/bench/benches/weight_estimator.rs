//! Benchmarks for the global–local weight estimator: a full inner
//! reweighting step (Eq. 8 concat + Eq. 5 covariance + Adam step +
//! projection) and the memory update (Eq. 9). The paper's claim is that
//! the per-batch cost is `O((K+1)|B|)` — independent of the dataset size.

use bench::{black_box, Harness};
use oodgnn_core::{DecorrelationCtx, DecorrelationKind, GlobalMemory, GraphWeights};
use tensor::optim::Adam;
use tensor::rng::Rng;
use tensor::Tensor;

fn inner_step(mem: &GlobalMemory, z: &Tensor, w: &mut GraphWeights, opt: &mut Adam, rng: &mut Rng) {
    let (z_hat, w_hat) = mem.concat(z, w.values()).expect("aligned memory");
    let kb = z_hat.nrows() - z.nrows();
    let ctx = DecorrelationCtx::new(z_hat.ncols(), &DecorrelationKind::Rff { q: 1 }, rng);
    let (_, grad) = w.objective_and_grad(&ctx.lift(&z_hat), &w_hat.data()[..kb], 0.0);
    opt.update(w.param_mut(), &grad);
    w.project();
}

fn bench_inner_step_vs_k(h: &mut Harness) {
    let b = 64;
    let d = 32;
    for &k in &[1usize, 2, 4] {
        let mut rng = Rng::seed_from(1);
        let mut mem = GlobalMemory::with_uniform_gamma(k, b, d, 0.9);
        let z = Tensor::randn([b, d], &mut rng);
        mem.update(&z, &Tensor::ones([b])).expect("aligned memory");
        let mut w = GraphWeights::uniform(b);
        let mut opt = Adam::new(0.05);
        h.bench(&format!("inner_step_vs_k/{k}"), || {
            inner_step(&mem, &z, &mut w, &mut opt, &mut rng);
            black_box(w.values().sum())
        });
    }
}

fn bench_memory_update(h: &mut Harness) {
    let mut rng = Rng::seed_from(2);
    let mut mem = GlobalMemory::with_uniform_gamma(2, 128, 64, 0.9);
    let z = Tensor::randn([128, 64], &mut rng);
    let w = Tensor::ones([128]);
    h.bench("memory_update", || {
        mem.update(&z, &w).expect("aligned memory");
        black_box(mem.group(0).0.sum())
    });
}

fn bench_memory_concat(h: &mut Harness) {
    let mut rng = Rng::seed_from(3);
    let mut mem = GlobalMemory::with_uniform_gamma(4, 128, 64, 0.9);
    let z = Tensor::randn([128, 64], &mut rng);
    let w = Tensor::ones([128]);
    mem.update(&z, &w).expect("aligned memory");
    h.bench("memory_concat", || {
        let (zh, wh) = mem.concat(&z, &w).expect("aligned memory");
        black_box(zh.sum() + wh.sum())
    });
}

fn main() {
    let jsonl = bench::telemetry::init("bench_weight_estimator", 0);
    let mut h = Harness::new("weight_estimator");
    bench_inner_step_vs_k(&mut h);
    bench_memory_update(&mut h);
    bench_memory_concat(&mut h);
    h.finish();
    bench::telemetry::finish(&jsonl);
}
