//! Figure 4 — distribution of the learned graph weights after training on
//! TRIANGLES, D&D₃₀₀ and OGBG-MOLBACE: the method learns non-trivial
//! weights whose distribution differs across datasets.
//!
//! Prints an ASCII histogram + summary statistics per dataset.
//!
//! Usage: `cargo run -p bench --release --bin fig4_weights
//!   [--frac 0.05] [--ogb-cap 300] [--epochs 20]`

use bench::{run_method, Args, MethodSpec, SuiteConfig};
use datasets::metrics::mean_std;
use datasets::ogb::{self, OgbDataset};
use datasets::social::SocialConfig;
use datasets::triangles::TrianglesConfig;

fn histogram(values: &[f32], bins: usize) -> String {
    let min = values.iter().copied().fold(f32::MAX, f32::min);
    let max = values.iter().copied().fold(f32::MIN, f32::max);
    let span = (max - min).max(1e-9);
    let mut counts = vec![0usize; bins];
    for &v in values {
        let b = (((v - min) / span) * (bins as f32 - 1.0)).round() as usize;
        counts[b.min(bins - 1)] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let lo = min + span * i as f32 / bins as f32;
        let hi = min + span * (i + 1) as f32 / bins as f32;
        let bar = "#".repeat((c * 40).div_ceil(peak));
        out.push_str(&format!("[{lo:5.2},{hi:5.2}) {c:5} {bar}\n"));
    }
    out
}

fn main() {
    let args = Args::from_env();
    let mut suite = SuiteConfig::from_args(&args);
    if !args.has("epochs") {
        suite.epochs = 20;
    }
    let base_seed = args.get_u64("seed", 7);
    let telemetry = bench::telemetry::init("fig4_weights", base_seed);
    let cap = {
        let c = args.get_usize("ogb-cap", 300);
        if c == 0 {
            None
        } else {
            Some(c)
        }
    };

    let benches = [
        (
            "TRIANGLES",
            datasets::triangles::generate(&TrianglesConfig::scaled(suite.frac), base_seed),
        ),
        (
            "D&D-300",
            datasets::social::generate(&SocialConfig::dd300(suite.frac), base_seed),
        ),
        ("BACE", ogb::generate(OgbDataset::Bace, cap, base_seed)),
    ];

    println!("# Figure 4: learned graph-weight distributions\n");
    for (name, bench) in &benches {
        let r = run_method(MethodSpec::OodGnn, bench, &suite, base_seed + 700);
        let (mean, std) = mean_std(&r.final_weights);
        let min = r.final_weights.iter().copied().fold(f32::MAX, f32::min);
        let max = r.final_weights.iter().copied().fold(f32::MIN, f32::max);
        println!(
            "## {name} — n={}, mean={mean:.3}, std={std:.3}, min={min:.3}, max={max:.3}",
            r.final_weights.len()
        );
        println!(
            "entropy={:.3} nats (uniform={:.3}), ESS={:.1}/{}",
            r.weight_stats.entropy,
            (r.final_weights.len() as f32).ln(),
            r.weight_stats.ess,
            r.final_weights.len()
        );
        println!("{}", histogram(&r.final_weights, 12));
        assert!((mean - 1.0).abs() < 0.2, "projection keeps the mean near 1");
    }
    println!("Expected shape (paper): non-trivial spread around 1, distribution differing across datasets.");
    bench::telemetry::finish(&telemetry);
}
