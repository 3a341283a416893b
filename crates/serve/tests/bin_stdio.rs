//! Drives the real `oodgnn-serve` binary over stdin/stdout: startup from a
//! checkpoint file, a mixed request stream including a malformed line, and
//! a graceful EOF drain with exit code 0.

use oodgnn_serve::{checkpoint_from_model, ModelSpec};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

#[test]
fn binary_serves_over_stdio_and_drains_on_eof() {
    let dir = std::env::temp_dir().join(format!("serve_bin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("m.oods");
    let spec = ModelSpec::new("gin", 4, 8, 2, graph::TaskType::MultiClass { classes: 3 });
    checkpoint_from_model(&mut spec.build().unwrap())
        .save(&ck)
        .unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_oodgnn-serve"))
        .args([
            "--checkpoint",
            ck.to_str().unwrap(),
            "--in-dim",
            "4",
            "--hidden",
            "8",
            "--layers",
            "2",
            "--task",
            "multiclass",
            "--out-dim",
            "3",
        ])
        .env("OOD_TELEMETRY", "0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");

    let mut stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    writeln!(stdin, r#"{{"op":"health","id":"h"}}"#).unwrap();
    writeln!(
        stdin,
        r#"{{"op":"infer","id":"g","nodes":2,"edges":[[0,1],[1,0]],"features":[1,2,3,4,5,6,7,8]}}"#
    )
    .unwrap();
    writeln!(stdin, r#"{{"op":"infer","id":"bad","nodes":0}}"#).unwrap();
    drop(stdin); // EOF triggers the drain path

    let mut statuses = std::collections::HashMap::new();
    for line in stdout.lines() {
        let line = line.unwrap();
        let pairs =
            trace::json::parse_object_bytes(line.as_bytes(), 1024).expect("response parses");
        let get = |key: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_str().map(str::to_string))
        };
        statuses.insert(get("id").unwrap_or_default(), get("status").unwrap());
        if get("id").as_deref() == Some("g") {
            let outputs = pairs
                .iter()
                .find(|(k, _)| k == "outputs")
                .and_then(|(_, v)| v.as_arr())
                .expect("infer response has outputs");
            assert_eq!(outputs.len(), 3);
        }
    }
    assert_eq!(statuses.get("h").map(String::as_str), Some("ok"));
    assert_eq!(statuses.get("g").map(String::as_str), Some("ok"));
    assert_eq!(statuses.get("bad").map(String::as_str), Some("error"));

    let status = child.wait().expect("binary exits");
    assert!(status.success(), "exit: {status:?}");
    std::fs::remove_dir_all(&dir).ok();
}
