//! The benchmark's definition in one place: its workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metrics.
//! `BENCHMARK.json` at the repository root is generated from this file
//! (see [`benchmark_json`]); a test keeps the two identical.

use crate::stats::Better;

/// Seconds one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainTri,
    TrainDd,
    ServeTriTcp,
    ServeDdStdio,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::TrainTri,
    Workload::TrainDd,
    Workload::ServeTriTcp,
    Workload::ServeDdStdio,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainTri => "train_tri",
            Workload::TrainDd => "train_dd",
            Workload::ServeTriTcp => "serve_tri_tcp",
            Workload::ServeDdStdio => "serve_dd_stdio",
        }
    }

    /// Why the workload is in the benchmark: the layer it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::TrainTri => {
                "small graphs and 20 inner reweighting steps per batch make the reweight loop and per-op tape overhead large"
            }
            Workload::TrainDd => {
                "batches of ~5k nodes make message passing and its backward dominate while reweighting is under 2%"
            }
            Workload::ServeTriTcp => {
                "~0.15 ms of compute per request over one TCP connection, so transport, queueing and parsing dominate"
            }
            Workload::ServeDdStdio => {
                "~20 KB requests over the stdio pipe with a reload every 2 s: forward compute and parsing dominate"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn is_training(self) -> bool {
        matches!(self, Workload::TrainTri | Workload::TrainDd)
    }
}

/// Which workloads run the layer a per-layer metric describes. Workloads
/// outside the scope report 0: the layer does not run there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    Train,
    Serve,
    All,
}

impl Scope {
    pub fn covers(self, w: Workload) -> bool {
        match self {
            Scope::Train => w.is_training(),
            Scope::Serve => !w.is_training(),
            Scope::All => true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    pub scope: Scope,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
        scope: Scope::All,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, scope: Scope) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
        scope,
    }
}

use Better::{Higher, Lower};

/// What a user of the trainer or the server sees. `latency_ms` is the wall
/// time of one `OodGnn::train_run` epoch for training, and the
/// client-observed p50 at the `low` open-loop rate for serving. Each bound
/// is at least three times the run-to-run spread measured on the 2-core
/// reference host (see README.md).
pub const END_TO_END: [Spec; 3] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("latency_ms", "ms", Lower, 0.25),
];

/// Layer attribution from the traced run. Training layers are shares of
/// epoch wall time in the traced replica of `train_run`; serving layers
/// are shares of the client-observed mean latency at the `low` rate.
pub const PER_LAYER: [Spec; 28] = [
    layer("graph.batch_pct", "%", Lower, Scope::Train),
    layer("gnn.encode_pct", "%", Lower, Scope::Train),
    layer("core.reweight_pct", "%", Lower, Scope::Train),
    layer("gnn.head_pct", "%", Lower, Scope::Train),
    layer("tensor.backward_pct", "%", Lower, Scope::Train),
    layer("tensor.optim_pct", "%", Lower, Scope::Train),
    layer("train.layer_coverage_pct", "%", Higher, Scope::Train),
    layer("train.trace_overhead_pct", "%", Lower, Scope::Train),
    layer("transport.residual_pct", "%", Lower, Scope::Serve),
    layer("protocol.parse_pct", "%", Lower, Scope::Serve),
    layer("serve.queue_pct", "%", Lower, Scope::Serve),
    layer("serve.assemble_pct", "%", Lower, Scope::Serve),
    layer("serve.compute_pct", "%", Lower, Scope::Serve),
    layer("serve.write_pct", "%", Lower, Scope::Serve),
    layer("graph.batch_mean", "count", Higher, Scope::All),
    layer("gnn.forward_us_per_graph", "us", Lower, Scope::All),
    layer("tensor.kernel_matmul_pct", "%", Lower, Scope::All),
    layer("tensor.kernel_elementwise_pct", "%", Lower, Scope::All),
    layer("tensor.kernel_gather_pct", "%", Lower, Scope::All),
    layer("tensor.kernel_segment_pct", "%", Lower, Scope::All),
    layer("tensor.kernel_csr_pct", "%", Lower, Scope::All),
    layer("tensor.kernel_reduce_pct", "%", Lower, Scope::All),
    layer("tensor.kernel_log_softmax_pct", "%", Lower, Scope::All),
    layer("tensor.ops_per_graph", "count", Lower, Scope::All),
    layer("tensor.allocations_per_graph", "count", Lower, Scope::All),
    layer("tensor.pool_hit_pct", "%", Higher, Scope::All),
    layer("tensor.csr_hit_pct", "%", Higher, Scope::All),
    layer("tensor.peak_live_mb", "MiB", Lower, Scope::All),
];

/// The metrics a run reports on its last line: end-to-end with tracing
/// off, per-layer with tracing on.
pub fn specs(traced: bool) -> &'static [Spec] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The text of `BENCHMARK.json`.
#[cfg(test)]
pub fn benchmark_json() -> String {
    let metric = |s: &Spec| {
        let bound = s
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            s.name,
            s.unit,
            s.better.as_str()
        )
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"crates/bench/src/bin/oodbench/run.sh\"],\n  \
         \"paths\": [\"crates/bench/src/bin/oodbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|s| s.name));
        for name in names {
            assert!(valid_name(name), "invalid name `{name}`");
            assert!(seen.insert(name), "duplicate name `{name}`");
        }
        for w in WORKLOADS {
            assert!(w.why().len() <= 200 && !w.why().contains(['"', '\n']));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    /// Bounds lie in (0, 0.25], and set-up time, the noisiest metric, has
    /// the largest.
    #[test]
    fn bounds_are_in_range() {
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for s in &END_TO_END {
            let b = s.bound.expect("end-to-end metrics carry a bound");
            assert!(
                b > 0.0 && b <= 0.25 && b <= setup.bound.unwrap(),
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let expected = benchmark_json();
        assert!(
            on_disk == expected,
            "BENCHMARK.json is out of date; expected:\n{expected}"
        );
    }
}
