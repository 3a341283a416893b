//! Kernel-family timing report for the vectorized tensor layer: times
//! each hot kernel body and records its median wall time and an FNV-1a
//! digest of its output bits. The digests are a function of the fixed
//! float schedule only, so they match across machines, thread counts and
//! pool settings; a changed digest means a kernel's arithmetic changed.
//!
//! Usage: `cargo run -p bench --release --bin kernel_sweep`
//! (`OOD_BENCH_FAST=1` shrinks the measurement budget for smoke runs.)
//!
//! Markdown goes to stdout (redirect into `results/kernel_sweep.md`);
//! progress and telemetry to stderr/JSONL as usual. A machine-readable
//! record is written to `results/kernel_sweep.json` (override with
//! `--json <path>`, disable with `--json -`) in the shared
//! `bench::perf::MetricFile` format.

use bench::{fmt_ns, Harness};
use std::rc::Rc;
use tensor::csr::CsrIndex;
use tensor::fnv::Fnv1a;
use tensor::ops::{batch_norm, BatchNormStats};
use tensor::rng::Rng;
use tensor::shape::reduce_grad_to;
use tensor::{Shape, Tape, Tensor};

/// One timed kernel: a name and a closure producing the full output
/// buffer.
struct Case {
    name: &'static str,
    run: Box<dyn FnMut() -> Vec<f32>>,
}

/// Byte-wise FNV-1a over the little-endian bit patterns: any single-bit
/// change in the output flips the digest.
fn digest(values: &[f32]) -> u64 {
    let mut h = Fnv1a::default();
    for v in values {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

fn cases() -> Vec<Case> {
    let mut v: Vec<Case> = Vec::new();

    // Matmul microkernel (register-tiled columns, ascending k).
    {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn([256, 256], &mut rng);
        let b = Tensor::randn([256, 256], &mut rng);
        v.push(Case {
            name: "matmul_256",
            run: Box::new(move || a.matmul(&b).into_vec()),
        });
    }

    // The GIN update matmul on a D&D-sized batch: ReLU output against a
    // 32×32 weight, half of A zero (the guard-free body has no branch on
    // them).
    {
        let mut rng = Rng::seed_from(11);
        let a = Tensor::randn([5400, 32], &mut rng).map(|x| x.max(0.0));
        let b = Tensor::randn([32, 32], &mut rng);
        v.push(Case {
            name: "matmul_relu_5400x32",
            run: Box::new(move || a.matmul(&b).into_vec()),
        });
    }

    // Elementwise map (unrolled 8-lane body + scalar tail).
    {
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn([512, 128], &mut rng);
        v.push(Case {
            name: "map_cos_512x128",
            run: Box::new(move || x.map(f32::cos).into_vec()),
        });
    }

    // Same-shape zip and the row/column broadcast fast paths.
    {
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn([512, 128], &mut rng);
        let y = Tensor::randn([512, 128], &mut rng);
        v.push(Case {
            name: "zip_add_512x128",
            run: Box::new(move || x.add(&y).into_vec()),
        });
    }
    {
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn([512, 128], &mut rng);
        let row = Tensor::randn([1, 128], &mut rng);
        v.push(Case {
            name: "broadcast_row_512x128",
            run: Box::new(move || x.mul(&row).into_vec()),
        });
    }

    // Lane-scheduled reductions (8 accumulators + pairwise combine).
    {
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn([512, 512], &mut rng);
        v.push(Case {
            name: "sum_512x512",
            run: Box::new(move || vec![x.sum(), x.frobenius_sq(), x.max()]),
        });
    }
    {
        let mut rng = Rng::seed_from(6);
        let x = Tensor::randn([512, 128], &mut rng);
        v.push(Case {
            name: "sum_rows_512x128",
            run: Box::new(move || x.sum_rows().into_vec()),
        });
    }

    // Backward broadcast reduction: the column fold of a bias gradient
    // over a D&D-sized batch (ascending rows, vectorized across columns).
    {
        let mut rng = Rng::seed_from(10);
        let g = Tensor::randn([5400, 32], &mut rng);
        let target = Shape::new(&[32]);
        v.push(Case {
            name: "reduce_grad_5400x32",
            run: Box::new(move || reduce_grad_to(&g, &target).into_vec()),
        });
    }

    // Row-wise log-softmax (lane max + shifted exp-sum per row).
    {
        let mut rng = Rng::seed_from(7);
        let x = Tensor::randn([512, 128], &mut rng);
        v.push(Case {
            name: "log_softmax_512x128",
            run: Box::new(move || {
                let mut tape = Tape::new();
                let xn = tape.constant(x.clone());
                let out = tape.log_softmax(xn);
                tape.value(out).data().to_vec()
            }),
        });
    }

    // CSR neighbor aggregation: 8192 message rows into 512 destinations
    // via the inverted index (per-destination contiguous row sums).
    {
        let mut rng = Rng::seed_from(8);
        let x = Tensor::randn([8192, 64], &mut rng);
        let idx: Vec<usize> = (0..8192).map(|i| (i * 37) % 512).collect();
        let csr = CsrIndex::build(&idx, 512);
        v.push(Case {
            name: "scatter_csr_8192to512x64",
            run: Box::new(move || x.scatter_add_rows_csr(&csr).into_vec()),
        });
    }

    // Fused GIN neighbour sum: 27000 random edges over 5400 nodes, no
    // message tensor (gather and scatter in one CSR walk).
    {
        let mut rng = Rng::seed_from(12);
        let x = Tensor::randn([5400, 32], &mut rng);
        let src: Vec<usize> = (0..27_000).map(|_| rng.below(5400)).collect();
        let dst: Vec<usize> = (0..27_000).map(|_| rng.below(5400)).collect();
        let csr = CsrIndex::build(&dst, 5400);
        v.push(Case {
            name: "neighbor_sum_5400x32",
            run: Box::new(move || x.gather_scatter_csr(&src, &csr).into_vec()),
        });
    }

    // Fused batch norm on a D&D-sized GIN hidden layer: the batch
    // statistics (16-column blocks, ascending rows, `powf` squares) and
    // the row-parallel normalization.
    {
        let mut rng = Rng::seed_from(13);
        let x = Tensor::randn([5400, 32], &mut rng).mul_scalar(2.0);
        let gamma = Tensor::rand_uniform([32], 0.5, 2.0, &mut rng);
        let beta = Tensor::randn([32], &mut rng);
        v.push(Case {
            name: "batch_norm_5400x32",
            run: Box::new(move || {
                let stats = BatchNormStats::of_batch(&x, 1e-5);
                batch_norm::forward(&x, &gamma, &beta, &stats).into_vec()
            }),
        });
    }

    // Its training backward: the fold pass, the elementwise pass that
    // folds `gμ`, and the add pass, per 16-column block.
    {
        let mut rng = Rng::seed_from(14);
        let x = Tensor::randn([5400, 32], &mut rng).mul_scalar(2.0);
        let gamma = Tensor::rand_uniform([32], 0.5, 2.0, &mut rng);
        let beta = Tensor::randn([32], &mut rng);
        let g = Tensor::randn([5400, 32], &mut rng);
        let stats = BatchNormStats::of_batch(&x, 1e-5);
        v.push(Case {
            name: "batch_norm_backward_5400x32",
            run: Box::new(move || {
                let grads = batch_norm::backward(&x, &gamma, &beta, &stats, &g, true);
                let mut out = grads.x.expect("asked for gx").into_vec();
                out.extend_from_slice(grads.gamma.data());
                out.extend_from_slice(grads.beta.data());
                out
            }),
        });
    }

    // The fused Linear op forward and backward on the same batch: matmul
    // with the bias in its row pass, then `G·Wᵀ`, `xᵀ·G` read in place,
    // and the bias column fold.
    {
        let mut rng = Rng::seed_from(15);
        let x = Tensor::randn([5400, 32], &mut rng).map(|v| v.max(0.0));
        let w = Tensor::randn([32, 32], &mut rng);
        let b = Tensor::randn([32], &mut rng);
        let g = Tensor::randn([5400, 32], &mut rng);
        v.push(Case {
            name: "linear_5400x32",
            run: Box::new(move || {
                let mut tape = Tape::new();
                let ids = [&x, &w, &b].map(|t| tape.leaf(t.clone()));
                let y = tape.linear(ids[0], ids[1], ids[2]);
                let gc = tape.constant(g.clone());
                let prod = tape.mul(y, gc);
                let loss = tape.sum(prod);
                let grads = tape.backward(loss);
                let mut out = tape.value(y).data().to_vec();
                for id in ids {
                    out.extend_from_slice(grads.get(id).expect("leaf gradient").data());
                }
                out
            }),
        });
    }

    // Fused decorrelation kernels (RFF cosine feature + weighted center).
    {
        let mut rng = Rng::seed_from(9);
        let x = Tensor::randn([512, 64], &mut rng);
        let w_row = Rc::new(Tensor::randn([64], &mut rng));
        let phi_row = Rc::new(Tensor::rand_uniform(
            [64],
            0.0,
            std::f32::consts::TAU,
            &mut rng,
        ));
        let weights = Tensor::rand_uniform([512, 1], 0.5, 1.5, &mut rng);
        v.push(Case {
            name: "cos_feature+center_512x64",
            run: Box::new(move || {
                let mut tape = Tape::new();
                let xn = tape.constant(x.clone());
                let wn = tape.constant(weights.clone());
                let feat = tape.cos_feature(xn, w_row.clone(), phi_row.clone(), 0.25);
                let centered = tape.weighted_center(feat, wn);
                tape.value(centered).data().to_vec()
            }),
        });
    }

    v
}

fn main() {
    let json_out = bench::Args::from_env().get_str("json", "results/kernel_sweep.json");
    let jsonl = bench::telemetry::init("kernel_sweep", 0);

    println!("# Kernel sweep: per-kernel timing and output digests\n");
    println!(
        "Median wall time of each vectorized kernel body, and the FNV-1a \
         digest of its output bits. Digests depend only on the fixed float \
         schedule, not on the host, `OOD_THREADS` or `OOD_POOL`.\n"
    );
    println!("| kernel | median | digest |");
    println!("|---|---|---|");

    let mut record = bench::MetricFile::new("kernel_sweep");
    record.set_meta(
        "hardware_cores",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .to_string(),
    );
    let mut h = Harness::new("kernel_sweep");
    for Case { name, mut run } in cases() {
        let d = format!("{:#018x}", digest(&run()));
        h.bench(name, &mut run);
        let median = h.median_ns(name).expect("bench just ran");
        record.set(&format!("{name}_ns"), median);
        record.set_meta(&format!("{name}_digest"), d.clone());
        println!("| {name} | {} | `{d}` |", fmt_ns(median));
    }

    if json_out != "-" {
        match record.save(&json_out) {
            Ok(()) => eprintln!("kernel_sweep: wrote {json_out}"),
            Err(e) => eprintln!("kernel_sweep: cannot write {json_out}: {e}"),
        }
    }
    bench::telemetry::finish(&jsonl);
}
