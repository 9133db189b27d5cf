//! Pins the serving-metrics artifacts byte for byte. The expected strings
//! under `golden/` were captured from the commit *before* the scalars moved
//! into one row table (f7194ba), from a snapshot with every scalar, bucket
//! and exemplar slot given its own value — so a codec, exposition or
//! `Display` change that alters an artifact fails here, not in a consumer.

use einet_edge::MetricsSnapshot;

const JSON: &str = include_str!("golden/snapshot.json");
const DISPLAY: &str = include_str!("golden/snapshot.display");
const PROM: &str = include_str!("golden/snapshot.prom");

#[test]
fn json_display_and_prometheus_are_byte_identical_to_the_parent() {
    let snap = MetricsSnapshot::from_json(JSON).expect("golden artifact parses");
    assert_eq!(snap.to_json(), JSON);
    assert_eq!(snap.to_string(), DISPLAY);
    assert_eq!(snap.to_prom_text(), PROM);
}

/// Removes `"key":<value>,` from a JSON text, where the value is a number
/// or a flat array — enough to age the golden artifact.
fn strip_key(json: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        out.push_str(&rest[..at]);
        let value = &rest[at + needle.len()..];
        let end = if value.starts_with('[') {
            value.find(']').expect("closed array") + 1
        } else {
            value.find([',', '}']).expect("value ends")
        };
        let value_end = &value[end..];
        // Drop the separator the key owned: the comma after it, or (last key
        // of its object) the one before it.
        rest = match value_end.strip_prefix(',') {
            Some(after) => after,
            None => {
                assert!(out.ends_with(','));
                out.pop();
                value_end
            }
        };
    }
    out.push_str(rest);
    out
}

#[test]
fn artifacts_older_than_the_connection_gauges_and_exemplars_still_parse() {
    let snap = MetricsSnapshot::from_json(JSON).expect("golden artifact parses");
    assert!(snap.open_connections > 0 && snap.inflight_requests > 0);
    assert!(snap.service.exemplars.iter().any(|&e| e != 0));

    let mut legacy = JSON.to_string();
    for key in ["open_connections", "inflight_requests", "bucket_exemplars"] {
        legacy = strip_key(&legacy, key);
        assert!(!legacy.contains(key));
    }
    let old = MetricsSnapshot::from_json(&legacy).expect("legacy artifact parses");

    // The missing keys read as zero; everything else is untouched.
    let mut expected = snap.clone();
    expected.open_connections = 0;
    expected.inflight_requests = 0;
    expected.queue_wait.exemplars = Default::default();
    expected.service.exemplars = Default::default();
    expected.window.service.exemplars = Default::default();
    assert_eq!(old, expected);
}
