//! Observability-layer integration tests: the stats-registry schema, the
//! event trace reconciling exactly against the counters on the full suite,
//! stats and report JSON round-tripping through the bundled parser, and
//! the Konata emission agreeing with the retire counts.

use helios::{
    stats_from_json, stats_to_json, FusionMode, Json, ObsOpts, Report, SimRequest, StatValue,
    Table, Workload,
};

fn smallest_workload() -> Workload {
    helios::all_workloads()
        .into_iter()
        .min_by_key(|w| w.dynamic_length())
        .expect("suite is non-empty")
}

/// The registry schema — entry names and units, in registration order — is
/// the contract every downstream consumer (JSON artifacts, CSV, dashboards)
/// parses. Pin it so a rename or reorder is a deliberate, reviewed change.
#[test]
fn registry_schema_is_stable() {
    let w = smallest_workload();
    let run = SimRequest::mode(&w, FusionMode::Helios)
        .observing(ObsOpts::metrics())
        .run();
    let reg = run.registry();
    let schema = reg.schema();

    // Spot-pin the load-bearing prefix and the derived tail.
    let expect_prefix = [
        ("cycles", "cycles"),
        ("instructions", "insts"),
        ("uops", "uops"),
        ("mem_instructions", "insts"),
        ("loads", "insts"),
        ("stores", "insts"),
    ];
    for (i, (name, unit)) in expect_prefix.iter().enumerate() {
        assert_eq!(schema[i], (*name, *unit), "schema drift at index {i}");
    }
    for name in [
        "ipc",
        "fusion.csf_pairs",
        "fusion.ncsf_pairs",
        "fusion.predictions",
        "fusion.mpki",
        "fusion.idiom.load_pair",
        "fusion.repair.deadlock",
        "obs.commit_events",
        "obs.fused_commit_events",
        "obs.fetch_to_commit",
        "obs.occ_rob",
        "obs.occ_iq",
        "obs.occ_lq",
        "obs.occ_sq",
    ] {
        assert!(
            reg.get(name).is_some(),
            "registry lost entry `{name}`; schema: {schema:?}"
        );
    }
    // Names are unique (the debug_assert only fires in debug builds).
    let mut names: Vec<&str> = schema.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), schema.len(), "duplicate registry names");
}

/// The event trace must reconcile *exactly* against the architectural
/// counters for every workload in the suite: commits observed == µ-ops
/// retired, fused commits observed == fused pairs counted, and the
/// fetch-to-commit histogram covers exactly the retired µ-ops.
#[test]
fn event_counters_reconcile_with_stats_on_every_workload() {
    for w in helios::all_workloads() {
        let run = SimRequest::mode(&w, FusionMode::Helios)
            .observing(ObsOpts::metrics())
            .run();
        let s = &run.stats;
        let o = run.observer.as_deref().expect("observer attached");
        assert_eq!(
            o.commit_events(),
            s.uops,
            "{}: commit events must equal retired µ-ops",
            w.name
        );
        assert_eq!(
            o.fused_commit_events(),
            s.fusion.fused_pairs(),
            "{}: fused-commit events must equal fused pairs",
            w.name
        );
        assert!(
            o.fuse_events() >= s.fusion.fused_pairs(),
            "{}: every committed pair was fused at least once (fuses {} < pairs {})",
            w.name,
            o.fuse_events(),
            s.fusion.fused_pairs()
        );
        assert_eq!(
            o.fetch_to_commit().count(),
            s.uops,
            "{}: one latency sample per retired µ-op",
            w.name
        );
        // And the registry view agrees with both.
        let reg = run.registry();
        assert_eq!(reg.count("uops"), Some(s.uops), "{}", w.name);
        assert_eq!(reg.count("obs.commit_events"), Some(s.uops), "{}", w.name);
    }
}

/// Attaching the metrics observer must not change simulated timing.
#[test]
fn observer_does_not_perturb_timing() {
    let w = smallest_workload();
    let plain = SimRequest::mode(&w, FusionMode::Helios).run().stats;
    let observed = SimRequest::mode(&w, FusionMode::Helios)
        .observing(ObsOpts::timeline())
        .run()
        .stats;
    assert_eq!(plain, observed, "observer changed simulation results");
}

/// Every counter of a real run round-trips exactly through the stats codec
/// the result store and the `sweepd` wire use: `stats_to_json`, then
/// `Json::to_string` → `Json::parse`, then `stats_from_json`. The object
/// carries each registry counter under its registry name.
#[test]
fn registry_json_round_trips() {
    let w = smallest_workload();
    let run = SimRequest::mode(&w, FusionMode::Helios)
        .observing(ObsOpts::metrics())
        .run();
    let doc = Json::parse(&stats_to_json(&run.stats).to_string()).expect("stats JSON parses");
    assert_eq!(stats_from_json(&doc), Ok(run.stats.clone()));
    let counters: Vec<(&str, u64)> = run
        .stats
        .registry()
        .entries()
        .iter()
        .filter_map(|e| match e.value {
            StatValue::Count(v) => Some((e.name, v)),
            _ => None,
        })
        .collect();
    let fields = doc.as_object().expect("stats object");
    assert_eq!(fields.len(), counters.len());
    for ((name, v), (k, j)) in counters.into_iter().zip(fields) {
        assert_eq!(k, name);
        assert_eq!(j.as_u64(), Some(v), "{name}: not exact");
    }
}

/// Report JSON (the per-figure artifact format) parses and reproduces the
/// table cells exactly.
#[test]
fn report_json_reflects_the_table() {
    let mut t = Table::new(vec!["benchmark".into(), "IPC".into()]);
    t.row(vec!["crc32".into(), "1.234".into()]);
    t.row(vec!["has,comma \"q\"".into(), "2.5".into()]);
    let mut r = Report::new("t", "a title", t);
    r.note("first note");
    let doc = Json::parse(&r.to_json()).expect("report JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("helios-report-v1")
    );
    let rows = doc.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 2);
    let cells = rows[1].as_array().unwrap();
    assert_eq!(cells[0].as_str(), Some("has,comma \"q\""));
    assert_eq!(cells[1].as_str(), Some("2.5"));
}

/// The Konata emission is cross-checked against the registry: the header is
/// well-formed and the number of type-0 (retired) R-records equals
/// `uops + fused_pairs` — every architecturally retired µ-op instance,
/// tails included, retires exactly once in the viewer.
#[test]
fn konata_trace_reconciles_with_retire_counts() {
    let w = smallest_workload();
    let run = SimRequest::mode(&w, FusionMode::Helios)
        .observing(ObsOpts::timeline())
        .run();
    let s = &run.stats;
    let o = run.observer.as_deref().expect("observer attached");
    let mut buf = Vec::new();
    o.write_konata(&mut buf).expect("in-memory write succeeds");
    let text = String::from_utf8(buf).expect("Konata output is UTF-8");

    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("Kanata\t0004"), "header");
    assert!(
        lines.next().is_some_and(|l| l.starts_with("C=\t")),
        "first-cycle line"
    );

    let retired = text
        .lines()
        .filter(|l| l.starts_with("R\t") && l.ends_with("\t0"))
        .count() as u64;
    assert_eq!(
        retired,
        s.uops + s.fusion.fused_pairs(),
        "{}: Konata retire records must cover every retired instance",
        w.name
    );
    // Every record that claims retirement in the timeline really committed.
    let committed_recs = o.records().iter().filter(|r| r.retired()).count() as u64;
    assert_eq!(committed_recs, retired);
}
