//! Differential fuzz of the one-pass `infer` decoder. `parse_request`
//! reads `features` and `edges` straight into typed buffers; the reference
//! below is the generic route it replaced — build the whole [`Json`] tree
//! with `parse_object_bytes`, then convert. On seeded mutations of
//! well-formed request lines both must return the same `Result`: the same
//! error string byte for byte, or equal requests with features compared by
//! their bits.
//!
//! `cargo test` runs a short fixed budget; the long run is
//! `cargo test --release -p oodgnn-serve --test protocol_fuzz -- --ignored`.

use oodgnn_serve::{parse_request, InferRequest, Limits, Request};
use tensor::rng::Rng;
use trace::json::{parse_object_bytes, Json};

/// The generic parse-then-convert path: the oracle.
fn reference(line: &str, limits: &Limits) -> Result<Request, String> {
    if line.len() > limits.max_line_bytes {
        return Err(format!(
            "request line is {} bytes (limit {})",
            line.len(),
            limits.max_line_bytes
        ));
    }
    let pairs = parse_object_bytes(line.trim().as_bytes(), limits.element_budget())?;
    let mut op = None;
    let mut id = String::new();
    let mut model = "default".to_string();
    let mut path = None;
    let mut num_nodes = None;
    let mut edges = None;
    let mut features = None;
    let mut deadline_ms = None;
    let mut timing = false;
    for (key, value) in pairs {
        match key.as_str() {
            "op" => op = Some(req_str(&value, "op")?),
            "id" => id = req_str(&value, "id")?,
            "model" => model = req_str(&value, "model")?,
            "path" => path = Some(req_str(&value, "path")?),
            "nodes" => {
                num_nodes = Some(
                    value
                        .as_uint()
                        .ok_or("`nodes` must be a non-negative integer")?
                        as usize,
                )
            }
            "edges" => edges = Some(ref_edges(&value, limits)?),
            "features" => features = Some(ref_features(&value)?),
            "deadline_ms" => {
                deadline_ms = Some(value.as_uint().ok_or("`deadline_ms` must be an integer")?)
            }
            "timing" => timing = value.as_bool().ok_or("`timing` must be a boolean")?,
            other => return Err(format!("unknown field `{other}`")),
        }
    }
    let op = op.ok_or("missing `op` field")?;
    match op.as_str() {
        "infer" => {
            let num_nodes = num_nodes.ok_or("infer requires `nodes`")?;
            if num_nodes == 0 {
                return Err("graph must have at least one node".into());
            }
            if num_nodes > limits.max_nodes {
                return Err(format!(
                    "graph has {num_nodes} nodes (limit {})",
                    limits.max_nodes
                ));
            }
            let edges = edges.unwrap_or_default();
            for &(s, d) in &edges {
                if s as usize >= num_nodes || d as usize >= num_nodes {
                    return Err(format!("edge ({s},{d}) out of range for {num_nodes} nodes"));
                }
            }
            let features = features.ok_or("infer requires `features`")?;
            if features.is_empty() || features.len() % num_nodes != 0 {
                return Err(format!(
                    "features length {} is not a multiple of {num_nodes} nodes",
                    features.len()
                ));
            }
            let dim = features.len() / num_nodes;
            if dim > limits.max_feature_dim {
                return Err(format!(
                    "feature dim {dim} exceeds limit {}",
                    limits.max_feature_dim
                ));
            }
            Ok(Request::Infer(InferRequest {
                id,
                model,
                num_nodes,
                edges,
                features,
                deadline_ms,
                timing,
            }))
        }
        "health" => Ok(Request::Health { id }),
        "ready" => Ok(Request::Ready { id }),
        "stats" => Ok(Request::Stats { id }),
        "reload" => Ok(Request::Reload {
            id,
            model,
            path: path.ok_or("reload requires `path`")?,
        }),
        "drain" => Ok(Request::Drain { id }),
        other => Err(format!("unknown op `{other}`")),
    }
}

fn req_str(value: &Json, key: &str) -> Result<String, String> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` must be a string"))
}

fn ref_edges(value: &Json, limits: &Limits) -> Result<Vec<(u32, u32)>, String> {
    let arr = value.as_arr().ok_or("`edges` must be an array of pairs")?;
    if arr.len() > limits.max_edges {
        return Err(format!(
            "graph has {} edges (limit {})",
            arr.len(),
            limits.max_edges
        ));
    }
    let mut edges = Vec::with_capacity(arr.len());
    for pair in arr {
        let pair = pair.as_arr().ok_or("each edge must be a [src,dst] pair")?;
        if pair.len() != 2 {
            return Err("each edge must be a [src,dst] pair".into());
        }
        let s = pair[0].as_uint().ok_or("edge endpoints must be integers")?;
        let d = pair[1].as_uint().ok_or("edge endpoints must be integers")?;
        if s > u32::MAX as u64 || d > u32::MAX as u64 {
            return Err("edge endpoint out of range".into());
        }
        edges.push((s as u32, d as u32));
    }
    Ok(edges)
}

fn ref_features(value: &Json) -> Result<Vec<f32>, String> {
    let arr = value.as_arr().ok_or("`features` must be a number array")?;
    let mut out = Vec::with_capacity(arr.len());
    for v in arr {
        let f = v.as_f64().ok_or("`features` must contain only numbers")? as f32;
        if !f.is_finite() {
            return Err("`features` must be finite".into());
        }
        out.push(f);
    }
    Ok(out)
}

/// A comparable rendering of a parse result: every field, features as
/// their bit patterns.
fn canon(r: &Result<Request, String>) -> String {
    match r {
        Err(e) => format!("Err({e:?})"),
        Ok(Request::Infer(q)) => {
            let bits: Vec<u32> = q.features.iter().map(|f| f.to_bits()).collect();
            format!(
                "Infer(id={:?} model={:?} nodes={} edges={:?} features={bits:?} deadline={:?} timing={})",
                q.id, q.model, q.num_nodes, q.edges, q.deadline_ms, q.timing
            )
        }
        Ok(other) => format!("{other:?}"),
    }
}

fn pick<'a>(rng: &mut Rng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len())]
}

fn feature_literal(rng: &mut Rng) -> String {
    match rng.below(20) {
        0 if rng.below(4) == 0 => {
            pick(rng, &["\"a\"", "null", "[1]", "true", "[]", "[[1]]", "{}"]).to_string()
        }
        0 => pick(
            rng,
            &[
                "0", "-0", "1", "0.5", "-2.25", "3e-2", "1E3", "1.5e+2", "-0.0", "0.1", "1e-50",
                "3.5e38", "1e999", "16777217", "7e-46",
            ],
        )
        .to_string(),
        1 => rng.below(1000).to_string(),
        _ => format!("{}", rng.normal() * 10f32.powi(rng.below(7) as i32 - 3)),
    }
}

fn endpoint_literal(rng: &mut Rng, nodes: usize) -> String {
    if rng.below(8) == 0 {
        pick(
            rng,
            &[
                "\"1\"",
                "null",
                "[0]",
                "1e0",
                "2.0",
                "-0",
                "0003",
                "4294967295",
                "4294967296",
                "12345678901",
                "1e19",
                "1e20",
                "-1",
                "0.5",
                "00000000001",
                "18446744073709551616",
                "99999999999999999999",
            ],
        )
        .to_string()
    } else {
        rng.below(nodes).to_string()
    }
}

/// Mostly 2; sometimes a pair of the wrong length.
fn pair_len(rng: &mut Rng) -> usize {
    match rng.below(30) {
        0 => 0,
        1 => 1,
        2 => 3,
        _ => 2,
    }
}

fn ws(rng: &mut Rng) -> &'static str {
    match rng.below(12) {
        0 => " ",
        1 => "\t ",
        2 => "\r\n",
        _ => "",
    }
}

/// A well-formed request line (valid JSON; not necessarily a valid
/// request: some fields take edge-case values on purpose).
fn seed_line(rng: &mut Rng) -> String {
    let mut fields: Vec<String> = Vec::new();
    let op = if rng.below(6) == 0 {
        pick(
            rng,
            &["health", "ready", "stats", "drain", "reload", "bogus"],
        )
    } else {
        "infer"
    };
    fields.push(format!("\"op\":{}\"{op}\"", ws(rng)));
    if rng.below(5) != 0 {
        let id = pick(
            rng,
            &["r1", "", "a\\\"b", "\\u00e9x", "g-42", "\\uD83D\\uDE00"],
        );
        fields.push(format!("\"id\":\"{id}\""));
    }
    let nodes = 1 + rng.below(7);
    let dim = 1 + rng.below(4);
    fields.push(format!(
        "\"nodes\":{}",
        if rng.below(20) == 0 {
            "2.0".into()
        } else {
            nodes.to_string()
        }
    ));
    if rng.below(6) != 0 {
        let pairs: Vec<String> = (0..rng.below(8))
            .map(|_| {
                let ends: Vec<String> = (0..pair_len(rng))
                    .map(|_| format!("{}{}", ws(rng), endpoint_literal(rng, nodes)))
                    .collect();
                match rng.below(40) {
                    0 => ends.join(","),
                    _ => format!("[{}]", ends.join(",")),
                }
            })
            .collect();
        fields.push(format!(
            "\"edges\":[{}]",
            pairs.join(&format!(",{}", ws(rng)))
        ));
    }
    let feats: Vec<String> = (0..nodes * dim).map(|_| feature_literal(rng)).collect();
    fields.push(format!("\"features\":[{}]", feats.join(",")));
    if rng.below(4) == 0 {
        fields.push(format!(
            "\"model\":\"{}\"",
            pick(rng, &["default", "other"])
        ));
    }
    if rng.below(4) == 0 {
        fields.push(format!(
            "\"deadline_ms\":{}",
            pick(
                rng,
                &["250", "0", "1e3", "-5", "2.5", "18446744073709551615"]
            )
        ));
    }
    if rng.below(4) == 0 {
        fields.push(format!("\"timing\":{}", pick(rng, &["true", "false", "1"])));
    }
    if op == "reload" || rng.below(20) == 0 {
        fields.push("\"path\":\"/m.oods\"".into());
    }
    if rng.below(10) == 0 {
        // A duplicate key: the last one wins unless the first is invalid.
        fields.push(format!("\"nodes\":{}", 1 + rng.below(7)));
    }
    rng.shuffle(&mut fields);
    let sep = format!(",{}", ws(rng));
    format!("{}{{{}}}{}", ws(rng), fields.join(&sep), ws(rng))
}

const INSERTS: &[u8] = b"[]{},\":\\-+.eE0123456789 \t\n\r\xff";

fn mutate(rng: &mut Rng, line: &mut Vec<u8>, donor: &[u8]) {
    let pos = rng.below(line.len() + 1);
    match rng.below(4) {
        0 if pos < line.len() => line[pos] ^= 1 << rng.below(8),
        1 if pos < line.len() => {
            let end = (pos + 1 + rng.below(4)).min(line.len());
            line.drain(pos..end);
        }
        2 => line.insert(pos, INSERTS[rng.below(INSERTS.len())]),
        _ => {
            let a = rng.below(donor.len() + 1);
            let b = (a + rng.below(24)).min(donor.len());
            if rng.below(2) == 0 {
                line.truncate(pos);
            }
            line.splice(
                pos.min(line.len())..pos.min(line.len()),
                donor[a..b].iter().copied(),
            );
        }
    }
}

fn run(cases: usize, seed: u64) {
    let tight = Limits {
        max_line_bytes: 320,
        max_nodes: 5,
        max_edges: 4,
        max_feature_dim: 3,
    };
    let default = Limits::default();
    let mut rng = Rng::seed_from(seed);
    let mut mismatches = Vec::new();
    let mut accepted = 0usize;
    for case in 0..cases {
        let mut line = seed_line(&mut rng).into_bytes();
        let donor = seed_line(&mut rng).into_bytes();
        for _ in 0..rng.below(5) {
            mutate(&mut rng, &mut line, &donor);
        }
        let line = String::from_utf8_lossy(&line);
        let limits = if case % 3 == 0 { &tight } else { &default };
        let got = canon(&parse_request(&line, limits));
        let want = canon(&reference(&line, limits));
        accepted += usize::from(got.starts_with("Infer"));
        if got != want && mismatches.len() < 5 {
            mismatches.push(format!("{line:?}\n  typed:     {got}\n  reference: {want}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    // The mutations must leave enough valid requests to compare values.
    assert!(accepted * 20 > cases, "only {accepted} of {cases} accepted");
}

#[test]
fn typed_decoder_matches_generic_parser() {
    run(20_000, 0x5eed_0001);
}

#[test]
#[ignore = "long run: cargo test --release -p oodgnn-serve --test protocol_fuzz -- --ignored"]
fn typed_decoder_matches_generic_parser_long() {
    run(2_000_000, 0x5eed_0002);
}
