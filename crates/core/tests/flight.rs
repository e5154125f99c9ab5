//! The flight recorder's ring, sequencing, eviction and dump format.
//!
//! These tests assert the exact contents of the process-global ring, so
//! they live in their own binary: no supervisor or fleet test runs
//! alongside them to record events into the ring while a test here has
//! the recorder on.

use neuspin_core::flight::{
    dropped, dump_to, len, record, reset, set_capacity, set_dump_path, set_enabled, snapshot,
    to_jsonl, DEFAULT_CAPACITY,
};
use neuspin_core::json::{self, Json};
use neuspin_core::telemetry;

/// Serializes the tests of this binary: the recorder is one
/// process-global ring.
fn with_clean_recorder(f: impl FnOnce()) {
    let _guard = telemetry::test_lock();
    reset();
    set_capacity(DEFAULT_CAPACITY);
    set_dump_path(None);
    set_enabled(true);
    f();
    set_enabled(false);
    reset();
}

#[test]
fn disabled_recorder_records_nothing() {
    with_clean_recorder(|| {
        set_enabled(false);
        record("route", vec![("batch", Json::Num(0.0))]);
        assert_eq!(len(), 0);
        assert_eq!(to_jsonl(), "");
    });
}

#[test]
fn events_are_sequenced_and_stable_in_field_order() {
    with_clean_recorder(|| {
        record(
            "route",
            vec![
                ("batch", Json::Num(3.0)),
                ("die", Json::Num(1.0)),
                ("rids", Json::Arr(vec![Json::Num(7.0), Json::Num(8.0)])),
            ],
        );
        record("die_crash", vec![("die", Json::Num(2.0))]);
        let dump = to_jsonl();
        assert_eq!(
            dump,
            "{\"seq\":0,\"kind\":\"route\",\"batch\":3,\"die\":1,\"rids\":[7,8]}\n\
             {\"seq\":1,\"kind\":\"die_crash\",\"die\":2}\n"
        );
        // Byte-stable: rendering twice is identical.
        assert_eq!(dump, to_jsonl());
    });
}

#[test]
fn ring_evicts_oldest_and_counts_drops() {
    with_clean_recorder(|| {
        set_capacity(2);
        for i in 0..5 {
            record("tick", vec![("i", Json::Num(i as f64))]);
        }
        assert_eq!(len(), 2);
        assert_eq!(dropped(), 3);
        let kept = snapshot();
        assert_eq!(kept[0].seq, 3);
        assert_eq!(kept[1].seq, 4);
    });
}

#[test]
fn dump_round_trips_through_the_json_parser() {
    with_clean_recorder(|| {
        record("shed", vec![("rid", Json::Num(41.0))]);
        record(
            "failover",
            vec![
                ("batch", Json::Num(5.0)),
                ("from_die", Json::Num(0.0)),
                ("err", Json::Str("die_down".to_string())),
            ],
        );
        for line in to_jsonl().lines() {
            let v = json::parse(line).expect("every dump line parses");
            assert!(v.get("seq").and_then(Json::as_f64).is_some());
            assert!(v.get("kind").and_then(Json::as_str).is_some());
        }
    });
}

#[test]
fn dump_to_writes_the_file_and_reset_clears() {
    with_clean_recorder(|| {
        record("drain", vec![("drained", Json::Num(4.0))]);
        let dir = std::env::temp_dir().join("neuspin-flight-test");
        let path = dir.join("dump.jsonl");
        dump_to(&path).expect("dump must write");
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, to_jsonl());
        let _ = std::fs::remove_dir_all(&dir);
        reset();
        assert_eq!(len(), 0);
        assert_eq!(dropped(), 0);
        record("tick", Vec::new());
        assert_eq!(snapshot()[0].seq, 0, "reset rewinds the sequence");
    });
}
