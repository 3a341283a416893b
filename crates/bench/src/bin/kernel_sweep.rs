//! Kernel-family timing report for the vectorized tensor layer: times
//! each hot kernel body at `OOD_THREADS` 1, 2 and 4 and records its
//! median wall time per thread count and an FNV-1a digest of its output
//! bits. The digests are a function of the fixed float schedule only, so
//! they match across machines, thread counts and pool settings. A changed
//! digest means a kernel's arithmetic changed; one that differs between
//! thread counts fails the run (exit 1).
//!
//! Usage: `cargo run -p bench --release --bin kernel_sweep`
//! (`OOD_BENCH_FAST=1` shrinks the measurement budget for smoke runs.)
//!
//! Markdown goes to stdout (redirect into `results/kernel_sweep.md`);
//! progress and telemetry to stderr/JSONL as usual. A machine-readable
//! record is written to `results/kernel_sweep.json` (override with
//! `--json <path>`, disable with `--json -`) in the shared
//! `bench::perf::MetricFile` format.

use bench::harness::{fmt_ns, median_ns};
use oodgnn_core::{DecorrelationCtx, DecorrelationKind, GraphWeights};
use std::rc::Rc;
use tensor::csr::CsrIndex;
use tensor::fnv::Fnv1a;
use tensor::ops::{batch_norm, BatchNormStats};
use tensor::rng::Rng;
use tensor::shape::reduce_grad_to;
use tensor::{par, NodeId, Shape, Tape, Tensor};

/// Thread counts every kernel runs at.
const THREADS: [usize; 3] = [1, 2, 4];

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

/// `y`'s value, then the gradients of `leaves` under the loss
/// `sum(y ⊙ g)`, which hands `y` exactly `g`.
fn seeded_grads(tape: &mut Tape, y: NodeId, g: &Tensor, leaves: &[NodeId]) -> Vec<f32> {
    let gc = tape.constant(g.clone());
    let prod = tape.mul(y, gc);
    let loss = tape.sum(prod);
    let grads = tape.backward(loss);
    let mut out = tape.value(y).data().to_vec();
    for &id in leaves {
        out.extend_from_slice(grads.get(id).expect("leaf gradient").data());
    }
    out
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

    // GIN's fused aggregation forward and backward on the same graph:
    // `x·(ε+1)` plus the neighbour sum in one row pass, then `gx` through
    // the `src` index and the `gε` fold.
    {
        let mut rng = Rng::seed_from(16);
        let x = Tensor::randn([5400, 32], &mut rng);
        let src = Rc::new((0..27_000).map(|_| rng.below(5400)).collect::<Vec<_>>());
        let dst = Rc::new((0..27_000).map(|_| rng.below(5400)).collect::<Vec<_>>());
        let g = Tensor::randn([5400, 32], &mut rng);
        v.push(Case {
            name: "gin_aggregate_5400x32",
            run: Box::new(move || {
                let mut tape = Tape::new();
                let xn = tape.leaf(x.clone());
                let en = tape.leaf(Tensor::from_vec(vec![0.1], [1]));
                let y = tape.gin_aggregate(xn, en, src.clone(), dst.clone(), 5400);
                seeded_grads(&mut tape, y, &g, &[xn, en])
            }),
        });
    }

    // Fused batch norm on a D&D-sized GIN hidden layer: the batch
    // statistics (column folds on the calling thread, ascending rows,
    // `x·x` squares) and the row-parallel normalization.
    {
        let mut rng = Rng::seed_from(13);
        let x = Tensor::randn([5400, 32], &mut rng).mul_scalar(2.0);
        let gamma = Tensor::rand_uniform([32], 0.5, 2.0, &mut rng);
        let beta = Tensor::randn([32], &mut rng);
        v.push(Case {
            name: "batch_norm_5400x32",
            run: Box::new(move || {
                let stats = BatchNormStats::of_batch(&x, 1e-5);
                batch_norm::forward(&x, &gamma, &beta, &stats, false).into_vec()
            }),
        });
    }

    // Its training backward: the serial fold pass, the row-parallel `t`
    // pass, the serial `gμ` fold over `t`, and the row-parallel add pass.
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
                let grads = batch_norm::backward(&x, &gamma, &beta, &stats, &g, None, true);
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
                seeded_grads(&mut tape, y, &g, &ids)
            }),
        });
    }

    // GIN's hidden BN → ReLU as one op, forward and backward through the
    // tape: batch statistics, normalization with the ReLU epilogue, and
    // the backward reading the output's mask inline.
    {
        let mut rng = Rng::seed_from(17);
        let x = Tensor::randn([5400, 32], &mut rng).mul_scalar(2.0);
        let gamma = Tensor::rand_uniform([32], 0.5, 2.0, &mut rng);
        let beta = Tensor::randn([32], &mut rng);
        let g = Tensor::randn([5400, 32], &mut rng);
        v.push(Case {
            name: "batch_norm_relu_5400x32",
            run: Box::new(move || {
                let mut tape = Tape::new();
                let ids = [&x, &gamma, &beta].map(|t| tape.leaf(t.clone()));
                let stats = Rc::new(BatchNormStats::of_batch(&x, 1e-5));
                let y = tape.batch_norm_relu(ids[0], ids[1], ids[2], stats);
                seeded_grads(&mut tape, y, &g, &ids)
            }),
        });
    }

    // GIN's last Linear → ReLU as one op: the ReLU in the matmul's row
    // pass, and one masked gradient shared by `gx`, `gW` and `gb`.
    {
        let mut rng = Rng::seed_from(18);
        let x = Tensor::randn([5400, 32], &mut rng).map(|v| v.max(0.0));
        let w = Tensor::randn([32, 32], &mut rng);
        let b = Tensor::randn([32], &mut rng);
        let g = Tensor::randn([5400, 32], &mut rng);
        v.push(Case {
            name: "linear_relu_5400x32",
            run: Box::new(move || {
                let mut tape = Tape::new();
                let ids = [&x, &w, &b].map(|t| tape.leaf(t.clone()));
                let y = tape.linear_relu(ids[0], ids[1], ids[2]);
                seeded_grads(&mut tape, y, &g, &ids)
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

    // Per-push tape overhead: 100 tiny nodes, so the arena append and the
    // always-on profiling atomics dominate — the bound on the hooks' cost.
    {
        let x = Tensor::from_vec(vec![1.0; 8], [8]);
        v.push(Case {
            name: "tape_small_ops",
            run: Box::new(move || {
                let mut tape = Tape::new();
                let mut node = tape.leaf(x.clone());
                for _ in 0..100 {
                    node = tape.add_scalar(node, 1.0);
                }
                tape.value(node).data().to_vec()
            }),
        });
    }

    // One step of Algorithm 1's inner loop as the trainer runs it: lift
    // the RFF features of a batch once, then the hand-written penalty,
    // ℓ² term and gradient.
    {
        let mut rng = Rng::seed_from(16);
        let z = Tensor::randn([512, 64], &mut rng);
        let ctx = DecorrelationCtx::new(64, &DecorrelationKind::Rff { q: 1 }, &mut rng);
        let w = GraphWeights::uniform(512);
        v.push(Case {
            name: "reweight_step_512x64",
            run: Box::new(move || {
                let (value, grad) = w.objective_and_grad(&ctx.lift(&z), &[], 0.1);
                let mut out = grad.into_vec();
                out.push(value);
                out
            }),
        });
    }

    v
}

fn main() {
    let json_out = bench::Args::from_env().get_str("json", "results/kernel_sweep.json");
    let jsonl = bench::telemetry::init("kernel_sweep", 0);
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("# Kernel sweep: per-kernel timing and output digests\n");
    println!(
        "Median wall time of each vectorized kernel body at each thread \
         count on a {hardware}-core host, the speedup at t=4 over t=1, and \
         the FNV-1a digest of its output bits. Digests depend only on the \
         fixed float schedule, not on the host, `OOD_THREADS` or \
         `OOD_POOL`; they must be bitwise-equal at every thread count.\n"
    );
    println!("| kernel | t=1 | t=2 | t=4 | speedup t=4 | digest |");
    println!("|---|---|---|---|---|---|");

    let mut record = bench::MetricFile::new("kernel_sweep");
    record.set_meta("hardware_cores", hardware.to_string());
    let threads = par::current_threads();
    let mut failures: Vec<String> = Vec::new();
    for Case { name, mut run } in cases() {
        let mut medians = Vec::with_capacity(THREADS.len());
        let mut reference: Option<u64> = None;
        for t in THREADS {
            par::set_threads(t);
            let d = digest(&run());
            let r = *reference.get_or_insert(d);
            if d != r {
                failures.push(format!(
                    "{name}: digest {d:#018x} at t={t} differs from {r:#018x} at t=1 \
                     — determinism contract broken"
                ));
            }
            let median = median_ns(&mut run);
            record.set(&format!("{name}_t{t}_ns"), median);
            medians.push(median);
        }
        let d = format!("{:#018x}", reference.expect("at least one thread count"));
        let speedup = medians[0] / medians[medians.len() - 1];
        record.set(&format!("{name}_speedup_t4"), speedup);
        record.set_meta(&format!("{name}_digest"), d.clone());
        let cells: Vec<String> = medians.iter().map(|&m| fmt_ns(m)).collect();
        println!("| {name} | {} | {speedup:.2}x | `{d}` |", cells.join(" | "));
    }
    par::set_threads(threads);

    record.set_meta("verdict", if failures.is_empty() { "pass" } else { "fail" });
    if json_out != "-" {
        match record.save(&json_out) {
            Ok(()) => eprintln!("kernel_sweep: wrote {json_out}"),
            Err(e) => eprintln!("kernel_sweep: cannot write {json_out}: {e}"),
        }
    }
    if failures.is_empty() {
        println!("\nAll digests bitwise-identical across thread counts.");
    }
    for f in &failures {
        eprintln!("kernel_sweep: FAIL: {f}");
    }
    bench::telemetry::finish(&jsonl);
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
