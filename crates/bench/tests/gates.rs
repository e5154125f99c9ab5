//! The six campaign `--check` gates, run on the tracked artifacts.
//!
//! Each case copies the files one campaign's `--check` reads (its
//! report under `results/`, or `BENCH_lifetime.json` at the root, plus
//! side files) from the repository into a temporary directory, applies
//! one edit, and runs the campaign binary with `--check` there. The
//! unedited files must pass every gate. Every edit breaks one gated
//! condition and must fail, naming the broken key or condition on
//! stderr.

use neuspin_core::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// One change to the copied files. Paths into the report are dotted
/// (`kernel.1.packed_vs_rowmajor`, an array row by its index); side
/// files are named relative to that directory.
#[derive(Clone, Copy)]
enum Edit {
    /// Sets the number at a report path.
    Set(&'static str, f64),
    /// Adds to the number at a report path.
    Add(&'static str, f64),
    /// Replaces the value at a report path with raw JSON.
    Raw(&'static str, &'static str),
    /// Removes the member at a report path.
    Remove(&'static str),
    /// Drops every line of a side file that contains the pattern.
    DropLines(&'static str, &'static str),
    /// Repeats the first line of a side file that contains the pattern.
    DupLine(&'static str, &'static str),
    /// Appends a line to a side file.
    Append(&'static str, &'static str),
    /// Deletes a file.
    Delete(&'static str),
    /// Overwrites a file.
    Write(&'static str, &'static str),
}

use Edit::*;

/// A campaign binary and the files its `--check` reads; the first is
/// the report the path edits apply to.
struct Campaign {
    exe: &'static str,
    files: &'static [&'static str],
}

const FAULTMGMT: Campaign =
    Campaign { exe: env!("CARGO_BIN_EXE_exp_faultmgmt"), files: &["results/exp_faultmgmt.json"] };
const THROUGHPUT: Campaign =
    Campaign { exe: env!("CARGO_BIN_EXE_exp_throughput"), files: &["results/exp_throughput.json"] };
const OBSERVE: Campaign = Campaign {
    exe: env!("CARGO_BIN_EXE_exp_observe"),
    files: &["results/exp_observe.json", "results/exp_observe_trace.jsonl"],
};
const LIFETIME: Campaign =
    Campaign { exe: env!("CARGO_BIN_EXE_exp_lifetime"), files: &["BENCH_lifetime.json"] };
const SERVING: Campaign = Campaign {
    exe: env!("CARGO_BIN_EXE_exp_serving"),
    files: &["results/exp_serving.json", "results/exp_serving_prometheus.txt"],
};
const CHAOS: Campaign = Campaign {
    exe: env!("CARGO_BIN_EXE_exp_chaos"),
    files: &["results/exp_chaos.json", "results/exp_chaos_flight.jsonl"],
};

const TRACE: &str = "results/exp_observe_trace.jsonl";
const FLIGHT: &str = "results/exp_chaos_flight.jsonl";

/// One gate case: the edits (none for the unedited set) and, for an
/// edit, what stderr must name.
struct Case {
    campaign: &'static Campaign,
    edits: &'static [Edit],
    names: &'static str,
}

const fn case(campaign: &'static Campaign, edits: &'static [Edit], names: &'static str) -> Case {
    Case { campaign, edits, names }
}

/// Every gated condition of the six campaigns, one breaking edit each.
/// Where two keys are tied (a ledger count and the flight dump that
/// must reconstruct it, a total and the counts that must equal it),
/// the edit moves both, so only the named condition breaks. The one
/// exception is a lost BIST gate: the dump would then leave a crash
/// unpaired as well, and the crash gate reports first.
const CASES: &[Case] = &[
    // exp_faultmgmt: a non-empty array of grid points, every key numeric.
    case(&FAULTMGMT, &[Delete("results/exp_faultmgmt.json")], "cannot read"),
    case(&FAULTMGMT, &[Write("results/exp_faultmgmt.json", "[{")], "invalid JSON"),
    case(&FAULTMGMT, &[Write("results/exp_faultmgmt.json", "{}")], "not an array"),
    case(&FAULTMGMT, &[Write("results/exp_faultmgmt.json", "[]")], "empty"),
    case(&FAULTMGMT, &[Remove("3.flagged")], "flagged"),
    case(&FAULTMGMT, &[Raw("0.coverage", "\"high\"")], "coverage"),
    // exp_throughput: kernel rows, percentiles, MC rows, allocations.
    case(&THROUGHPUT, &[Raw("kernel_isa", "\"sse9\"")], "kernel_isa"),
    case(&THROUGHPUT, &[Remove("kernel")], "kernel"),
    case(&THROUGHPUT, &[Raw("kernel", "[]")], "kernel"),
    case(&THROUGHPUT, &[Remove("kernel.0.ops_per_call")], "ops_per_call"),
    case(&THROUGHPUT, &[Set("kernel.0.kernel_speedup", 0.0)], "kernel_speedup"),
    case(&THROUGHPUT, &[Set("kernel.1.packed_vs_rowmajor", 1.5)], "packed_vs_rowmajor"),
    case(&THROUGHPUT, &[Set("kernel.1.packed_engaged", 0.0)], "engaged"),
    case(&THROUGHPUT, &[Set("kernel_timing.0.p50_ns", 1e15)], "percentiles"),
    case(&THROUGHPUT, &[Remove("kernel_timing.1.p99_ns")], "p99_ns"),
    case(&THROUGHPUT, &[Raw("mc", "[]")], "mc"),
    case(&THROUGHPUT, &[Remove("mc.0.engine")], "engine"),
    case(&THROUGHPUT, &[Set("mc.2.ns_per_predict", 0.0)], "ns_per_predict"),
    case(&THROUGHPUT, &[Set("mc.1.speedup_vs_seq_reference", 0.0)], "speedup_vs_seq_reference"),
    case(&THROUGHPUT, &[Set("mc.6.speedup_vs_recorded_baseline", 1.2)], "speedup_vs_recorded_baseline"),
    case(
        &THROUGHPUT,
        &[Set("mc.1.speedup_vs_recorded_baseline", 0.0), Set("mc.6.speedup_vs_recorded_baseline", 0.0)],
        "seq row",
    ),
    case(
        &THROUGHPUT,
        &[Set("mc.3.threads", 1.0), Set("mc.4.threads", 1.0), Set("mc.8.threads", 1.0), Set("mc.9.threads", 1.0)],
        "thread counts",
    ),
    case(&THROUGHPUT, &[Raw("alloc", "[]")], "alloc"),
    case(&THROUGHPUT, &[Remove("alloc.1.warm_predict_alloc_events")], "warm_predict_alloc_events"),
    case(&THROUGHPUT, &[Set("alloc.0.warm_alloc_events", 3.0)], "warm_alloc_events"),
    case(&THROUGHPUT, &[Set("alloc.1.allocs_per_extra_pass", 0.5)], "allocs_per_extra_pass"),
    case(&THROUGHPUT, &[Set("alloc.0.plan_scratch_bytes", 0.0)], "plan_scratch_bytes"),
    // exp_observe: positive timings, determinism, both 2 % gates, trace.
    case(&OBSERVE, &[Remove("serve_untraced_ns_per_req")], "serve_untraced_ns_per_req"),
    case(&OBSERVE, &[Set("mc_off_ns", 0.0)], "mc_off_ns"),
    case(&OBSERVE, &[Set("replica_syncs_total", 0.0)], "replica_syncs_total"),
    case(&OBSERVE, &[Set("plan_rebuilds_total", 0.0)], "plan_rebuilds_total"),
    case(&OBSERVE, &[Set("bit_identical", 0.0)], "bit_identical"),
    case(&OBSERVE, &[Set("trace_identical", 0.0)], "trace_identical"),
    case(&OBSERVE, &[Set("kernel_overhead_vs_baseline", 1.03)], "kernel_overhead_vs_baseline"),
    case(&OBSERVE, &[Set("serve_trace_overhead_ratio", 1.03)], "serve_trace_overhead_ratio"),
    case(&OBSERVE, &[Delete(TRACE)], "exp_observe_trace.jsonl"),
    case(&OBSERVE, &[Append(TRACE, "{\"span\":"), Add("trace_events", 1.0)], "not valid JSON"),
    case(&OBSERVE, &[Append(TRACE, "{\"pass\":0}"), Add("trace_events", 1.0)], "neither span nor event"),
    case(&OBSERVE, &[Add("trace_events", 1.0)], "trace_events"),
    // exp_lifetime: summary schema, collapse, closed loop, dominance, BIST.
    case(&LIFETIME, &[Delete("BENCH_lifetime.json")], "cannot read"),
    case(&LIFETIME, &[Remove("points")], "points"),
    case(&LIFETIME, &[Set("unmanaged_drop", 0.05)], "unmanaged_drop"),
    case(&LIFETIME, &[Set("closed_regression", 0.03)], "closed_regression"),
    case(&LIFETIME, &[Set("min_closed_margin", -0.5)], "min_closed_margin"),
    case(&LIFETIME, &[Set("bist_detection_rate", 0.4)], "bist_detection_rate"),
    // exp_serving: no drops, conservation, failover, the latched die,
    // latency, gauges, lineage, SLO.
    case(
        &SERVING,
        &[Set("total_requests", 0.0), Set("responses_200", 0.0), Set("traced_200", 0.0)],
        "total_requests",
    ),
    case(&SERVING, &[Set("dropped", 1.0)], "dropped"),
    case(&SERVING, &[Set("unserveable", 1.0)], "unserveable"),
    case(&SERVING, &[Set("deadline_expired", 1.0)], "deadline_expired"),
    case(&SERVING, &[Add("responses_200", -1.0)], "responses_200"),
    case(&SERVING, &[Set("stats_conserved", 0.0)], "stats_conserved"),
    case(&SERVING, &[Set("failovers", 0.0), Set("sample_retries", 0.0)], "failover"),
    case(&SERVING, &[Set("die0_latched_abstain", 0.0)], "die0_latched_abstain"),
    case(&SERVING, &[Set("die0_served_after_latch", 2.0)], "die0_served_after_latch"),
    case(&SERVING, &[Set("die_tiers.0", 1.0)], "die_tiers"),
    case(&SERVING, &[Set("p50_ms", 0.0)], "p50_ms"),
    case(&SERVING, &[Set("p99_ms", 600.0)], "p99_ms"),
    case(&SERVING, &[Set("gauges_reported", 0.0)], "gauges_reported"),
    case(&SERVING, &[Delete("results/exp_serving_prometheus.txt")], "exp_serving_prometheus.txt"),
    case(&SERVING, &[Add("traced_200", -1.0)], "traced_200"),
    case(&SERVING, &[Set("stage_histograms_ok", 0.0)], "stage_histograms_ok"),
    case(&SERVING, &[Set("slo_availability", 0.99)], "slo_availability"),
    case(&SERVING, &[Set("slo_availability_burn", 0.5)], "slo_availability_burn"),
    // exp_chaos: round trip, conservation, injections struck, crash
    // recovery, the flight dump alone reconstructs the ledger, latency.
    case(&CHAOS, &[Set("roundtrip_identical", 0.0)], "roundtrip_identical"),
    case(&CHAOS, &[Set("roundtrip_latched", 0.0)], "roundtrip_latched"),
    case(&CHAOS, &[Set("dropped", 1.0)], "dropped"),
    case(&CHAOS, &[Set("shed", 1.0)], "shed"),
    case(&CHAOS, &[Set("unserveable", 1.0)], "unserveable"),
    case(&CHAOS, &[Set("deadline_expired", 1.0)], "deadline_expired"),
    case(&CHAOS, &[Set("stage_conserved.1", 0.0)], "stage_conserved"),
    case(&CHAOS, &[Set("stage_drained.0", 0.0)], "stage_drained"),
    case(&CHAOS, &[Set("stage_eligible_final.2", 2.0)], "stage_eligible_final"),
    case(&CHAOS, &[Add("stage_bad.1", 1.0)], "stage_malformed"),
    case(
        &CHAOS,
        &[
            Raw("stage_bad", "[0, 0, 0]"),
            Raw("stage_malformed", "[0, 0, 0]"),
            DropLines(FLIGHT, "\"kind\":\"chaos_malformed\""),
        ],
        "stage_malformed",
    ),
    case(
        &CHAOS,
        &[
            Set("crashes", 0.0),
            Set("restores", 0.0),
            Set("bist_gates_passed", 0.0),
            DropLines(FLIGHT, "\"kind\":\"die_crash\""),
            DropLines(FLIGHT, "\"kind\":\"die_restore\""),
        ],
        "crash",
    ),
    case(
        &CHAOS,
        &[Add("restores", 1.0), Add("bist_gates_passed", 1.0), DupLine(FLIGHT, "\"kind\":\"die_restore\"")],
        "restores",
    ),
    case(&CHAOS, &[Add("bist_gates_passed", -1.0)], "bist_gates_passed"),
    case(&CHAOS, &[Set("restored_byte_equal", 0.0)], "restored_byte_equal"),
    case(
        &CHAOS,
        &[Set("flips_injected", 0.0), DropLines(FLIGHT, "\"kind\":\"chaos_flip\"")],
        "flips_injected",
    ),
    case(
        &CHAOS,
        &[Set("chaos_stalls", 0.0), DropLines(FLIGHT, "\"kind\":\"chaos_stall\"")],
        "chaos_stalls",
    ),
    case(
        &CHAOS,
        &[Set("chaos_worker_panics", 0.0), DropLines(FLIGHT, "\"kind\":\"chaos_worker_panic\"")],
        "chaos_worker_panics",
    ),
    case(&CHAOS, &[Set("flight_reconstructed", 0.0)], "flight_reconstructed"),
    case(&CHAOS, &[Set("flight_dropped", 3.0)], "flight_dropped"),
    case(&CHAOS, &[Delete(FLIGHT)], "exp_chaos_flight.jsonl"),
    case(&CHAOS, &[Add("chaos_spikes", 1.0)], "reconstruct"),
    case(&CHAOS, &[Set("p99_ms", 0.0)], "p99_ms"),
    case(&CHAOS, &[Set("p99_ms", 600.0)], "p99_ms"),
];

const ALL: [&Campaign; 6] = [&FAULTMGMT, &THROUGHPUT, &OBSERVE, &LIFETIME, &SERVING, &CHAOS];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The value at a dotted path.
fn at<'a>(mut v: &'a mut Json, path: &str) -> &'a mut Json {
    for seg in path.split('.') {
        v = match v {
            Json::Obj(pairs) => {
                &mut pairs.iter_mut().find(|(k, _)| k == seg).unwrap_or_else(|| panic!("no {seg}")).1
            }
            Json::Arr(items) => &mut items[seg.parse::<usize>().expect("row index")],
            _ => panic!("{path}: {seg} is not in a container"),
        };
    }
    v
}

fn edit_report(report: &mut Json, edit: Edit) {
    match edit {
        Set(path, x) => *at(report, path) = Json::Num(x),
        Add(path, dx) => {
            let v = at(report, path);
            *v = Json::Num(v.as_f64().expect("a number") + dx);
        }
        Raw(path, raw) => *at(report, path) = json::parse(raw).expect("raw JSON"),
        Remove(path) => {
            let (parent, key) = path.rsplit_once('.').map_or((None, path), |(p, k)| (Some(p), k));
            let parent = match parent {
                Some(p) => at(report, p),
                None => report,
            };
            match parent {
                Json::Obj(pairs) => pairs.retain(|(k, _)| k != key),
                _ => panic!("{path}: parent is not an object"),
            }
        }
        _ => unreachable!("not a report edit"),
    }
}

fn edit_file(root: &Path, edit: Edit) {
    let lines = |file: &str| -> Vec<String> {
        std::fs::read_to_string(root.join(file)).unwrap().lines().map(str::to_string).collect()
    };
    let write = |file: &str, lines: Vec<String>| {
        std::fs::write(root.join(file), lines.join("\n") + "\n").unwrap();
    };
    match edit {
        DropLines(file, pat) => {
            let kept: Vec<String> = lines(file).into_iter().filter(|l| !l.contains(pat)).collect();
            write(file, kept);
        }
        DupLine(file, pat) => {
            let mut all = lines(file);
            let i = all.iter().position(|l| l.contains(pat)).expect("a matching line");
            all.insert(i + 1, all[i].clone());
            write(file, all);
        }
        Append(file, line) => {
            let mut all = lines(file);
            all.push(line.to_string());
            write(file, all);
        }
        Delete(file) => std::fs::remove_file(root.join(file)).unwrap(),
        Write(file, text) => std::fs::write(root.join(file), text).unwrap(),
        _ => unreachable!("not a file edit"),
    }
}

/// Runs `campaign --check` on an edited copy of its files in a temporary
/// directory: (passed, stderr).
fn run_check(campaign: &Campaign, edits: &[Edit], n: usize) -> (bool, String) {
    let root = std::env::temp_dir().join(format!("neuspin-gates-{}-{n}", std::process::id()));
    std::fs::create_dir_all(root.join("results")).unwrap();
    for file in campaign.files {
        std::fs::copy(repo_root().join(file), root.join(file))
            .unwrap_or_else(|e| panic!("tracked artifact {file}: {e}"));
    }
    let report_file = root.join(campaign.files[0]);
    let mut report = json::parse(&std::fs::read_to_string(&report_file).unwrap()).unwrap();
    let mut report_edited = false;
    for &edit in edits {
        if let Set(..) | Add(..) | Raw(..) | Remove(..) = edit {
            edit_report(&mut report, edit);
            report_edited = true;
        }
    }
    if report_edited {
        std::fs::write(&report_file, report.to_string_pretty()).unwrap();
    }
    for &edit in edits {
        if !matches!(edit, Set(..) | Add(..) | Raw(..) | Remove(..)) {
            edit_file(&root, edit);
        }
    }
    let out = Command::new(campaign.exe)
        .arg("--check")
        .env("NEUSPIN_RESULTS", root.join("results"))
        .env("NEUSPIN_BENCH_ROOT", &root)
        .output()
        .expect("run the campaign binary");
    std::fs::remove_dir_all(&root).unwrap();
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn every_gate_passes_the_tracked_artifacts_and_fails_each_broken_condition() {
    let mut wrong = Vec::new();
    for (i, campaign) in ALL.iter().enumerate() {
        let (passed, stderr) = run_check(campaign, &[], i);
        println!("{} unedited: {}", campaign.exe, if passed { "pass" } else { "FAIL" });
        if !passed {
            wrong.push(format!("{} fails the tracked artifacts: {stderr}", campaign.exe));
        }
    }
    for (i, case) in CASES.iter().enumerate() {
        let (passed, stderr) = run_check(case.campaign, case.edits, ALL.len() + i);
        let named = stderr.contains(case.names);
        println!(
            "case {i} ({}): {}{}",
            case.names,
            if passed { "pass" } else { "fail" },
            if passed || named { "" } else { " (stderr does not name it)" }
        );
        if passed {
            wrong.push(format!("case {i}: breaking {} still passes", case.names));
        } else if !named {
            wrong.push(format!("case {i}: stderr does not name {}: {stderr}", case.names));
        }
    }
    assert!(wrong.is_empty(), "{} gate cases wrong:\n{}", wrong.len(), wrong.join("\n"));
}
