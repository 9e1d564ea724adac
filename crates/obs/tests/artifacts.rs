//! End-to-end sink test in a process of its own: initialize obs with the
//! file sinks pointed at a scratch directory, emit events and spans, flush,
//! and parse every artifact back (the JSONL round-trip uses the vendored
//! `serde_json`, the same parser the report pipeline trusts).

use std::path::PathBuf;

use mls_obs::{FieldValue, ObsConfig, SECONDS_BUCKETS};

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mls-obs-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn jsonl_and_exposition_round_trip() {
    let dir = scratch_dir();
    let config = ObsConfig {
        jsonl: true,
        exposition: true,
        progress: false,
        dir: dir.clone(),
    };
    assert!(
        mls_obs::init(config),
        "another test initialized the global obs state first; this test owns its process"
    );
    assert!(mls_obs::enabled());
    assert!(mls_obs::jsonl_enabled());

    // One structured event with every field kind.
    mls_obs::event(
        "unit_event",
        &[
            ("count", FieldValue::U64(3)),
            ("delta", FieldValue::I64(-2)),
            ("ratio", FieldValue::F64(0.5)),
            ("ok", FieldValue::Bool(true)),
            ("label", FieldValue::from("cell \"a\"\n")),
        ],
    );
    // A nested pair of spans (drop order: inner first).
    {
        let mut outer = mls_obs::span("unit_outer");
        outer.field("cell", 7usize);
        let _inner = mls_obs::span("unit_inner");
    }
    // Some registry state for the exposition dump.
    mls_obs::counter("mls_unit_events_total").add(5);
    mls_obs::histogram("mls_unit_seconds", SECONDS_BUCKETS).observe(0.02);

    let paths = mls_obs::flush();
    let jsonl = paths
        .iter()
        .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .expect("JSONL artifact missing from flush()");
    let prom = paths
        .iter()
        .find(|p| p.extension().is_some_and(|e| e == "prom"))
        .expect("exposition artifact missing from flush()");
    // Both artifact names carry the process id.
    let pid = std::process::id();
    assert!(jsonl.ends_with(format!("obs-{pid}.jsonl")));
    assert!(prom.ends_with(format!("metrics-{pid}.prom")));

    // --- JSONL round-trip ---
    let text = std::fs::read_to_string(jsonl).expect("read JSONL log");
    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|line| serde_json::from_str(line).unwrap_or_else(|e| panic!("bad line {line}: {e}")))
        .collect();
    assert!(lines.len() >= 4, "header + event + two spans expected");

    let header = &lines[0];
    assert_eq!(
        header.get("schema").and_then(|v| v.as_str()),
        Some(mls_obs::SCHEMA)
    );
    assert!(header.get("pid").is_some());

    let event = lines
        .iter()
        .find(|l| l.get("event").and_then(|v| v.as_str()) == Some("unit_event"))
        .expect("unit_event line missing");
    assert_eq!(event.get("count").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(event.get("delta").and_then(|v| v.as_i64()), Some(-2));
    assert_eq!(event.get("ratio").and_then(|v| v.as_f64()), Some(0.5));
    assert_eq!(event.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        event.get("label").and_then(|v| v.as_str()),
        Some("cell \"a\"\n"),
        "escaping must survive the round trip"
    );

    let spans: Vec<_> = lines
        .iter()
        .filter(|l| l.get("event").and_then(|v| v.as_str()) == Some("span"))
        .collect();
    let outer = spans
        .iter()
        .find(|s| s.get("name").and_then(|v| v.as_str()) == Some("unit_outer"))
        .expect("outer span missing");
    let inner = spans
        .iter()
        .find(|s| s.get("name").and_then(|v| v.as_str()) == Some("unit_inner"))
        .expect("inner span missing");
    assert_eq!(outer.get("cell").and_then(|v| v.as_u64()), Some(7));
    assert_eq!(
        inner.get("parent_id").and_then(|v| v.as_u64()),
        outer.get("span_id").and_then(|v| v.as_u64()),
        "inner span must link to its parent"
    );
    assert!(outer.get("wall_s").and_then(|v| v.as_f64()).is_some());

    // --- exposition dump ---
    let expo = std::fs::read_to_string(prom).expect("read exposition dump");
    assert!(expo.contains("mls_unit_events_total 5"));
    assert!(expo.contains("mls_unit_seconds_count 1"));
    // Spans feed duration histograms automatically.
    assert!(expo.contains("mls_span_unit_outer_seconds_count 1"));
    for line in expo.lines().filter(|l| !l.starts_with('#')) {
        let mut parts = line.split_whitespace();
        let (name, value) = (parts.next(), parts.next());
        assert!(name.is_some() && value.is_some(), "malformed line: {line}");
        assert!(
            value.unwrap().parse::<f64>().is_ok(),
            "unparseable value: {line}"
        );
    }

    // Toggling the master switch off makes further emission inert.
    mls_obs::set_enabled(false);
    assert!(!mls_obs::enabled());
    let before = std::fs::read_to_string(jsonl).unwrap();
    mls_obs::event("after_disable", &[]);
    let _ = mls_obs::span("unit_disabled");
    mls_obs::flush();
    let after = std::fs::read_to_string(jsonl).unwrap();
    assert_eq!(before, after, "disabled obs must not write events");
    // And back on: events flow again.
    mls_obs::set_enabled(true);
    mls_obs::event("re_enabled", &[]);
    mls_obs::flush();
    let reenabled = std::fs::read_to_string(jsonl).unwrap();
    assert!(reenabled.contains("re_enabled"));

    let _ = std::fs::remove_dir_all(&dir);
}
