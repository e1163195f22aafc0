//! Integration tests for the causal-span plane and the trace exporters:
//! span-id determinism across thread counts, causal reachability of every
//! Exfiltration/Destruction span back to an Infection root, and a golden
//! Perfetto snapshot guarding the export schema.

use malsim::experiments;
use malsim::export;
use malsim::golden;
use malsim::report;
use malsim_kernel::trace::TraceCategory;

/// The E1 run used throughout: the documented Figure-1 scale.
fn e1_run() -> experiments::E1Run {
    experiments::e1_stuxnet_end_to_end_run(42, 30, false)
}

#[test]
fn span_exports_are_byte_identical_across_runs() {
    let a = e1_run();
    let b = e1_run();
    let chrome_a = export::chrome_trace(&a.sim.trace, &a.sim.spans).to_canonical_string();
    let chrome_b = export::chrome_trace(&b.sim.trace, &b.sim.spans).to_canonical_string();
    assert_eq!(chrome_a, chrome_b, "same seed, same bytes");
    assert_eq!(export::jsonl(&a.sim.trace, &a.sim.spans), export::jsonl(&b.sim.trace, &b.sim.spans));
}

#[test]
fn span_ids_are_identical_at_every_sweep_thread_count() {
    // Each sim is single-threaded; sweeps only parallelize across points.
    // Profiling must not perturb ids either, so compare plain vs profiled
    // at several worker counts through the E13 sweep (the only experiment
    // whose span allocation runs under the parallel runner).
    let (rows_1, profiles_1) = experiments::e13_takedown_resilience_profiled_t(11, 6, 3, &[0.0, 0.5, 1.0], 1);
    for threads in [2, 8] {
        let (rows_t, profiles_t) =
            experiments::e13_takedown_resilience_profiled_t(11, 6, 3, &[0.0, 0.5, 1.0], threads);
        assert_eq!(rows_1, rows_t, "rows at threads={threads}");
        // Host-clock timings differ run to run; the deterministic parts —
        // category structure and event counts — must not.
        for (a, b) in profiles_1.iter().zip(&profiles_t) {
            assert_eq!(a.total_events, b.total_events, "threads={threads}");
            let cats_a: Vec<(&str, u64)> = a.rows.iter().map(|r| (r.category.as_str(), r.events)).collect();
            let cats_b: Vec<(&str, u64)> = b.rows.iter().map(|r| (r.category.as_str(), r.events)).collect();
            assert_eq!(cats_a, cats_b, "threads={threads}");
        }
    }
    let plain = experiments::e13_takedown_resilience(11, 6, 3, &[0.0, 0.5, 1.0], 1);
    assert_eq!(rows_1, plain, "profiling never changes the rows");
}

#[test]
fn every_destruction_and_exfil_span_reaches_an_infection_root() {
    let run = e1_run();
    let spans = &run.sim.spans;
    assert!(run.result.destroyed > 0, "E1 at seed 42 destroys centrifuges");
    let mut checked = 0;
    for cat in [TraceCategory::Destruction, TraceCategory::Exfiltration] {
        for leaf in spans.of(cat) {
            let chain = spans.chain(leaf.id);
            let root = chain.last().expect("chain includes the leaf itself");
            assert_eq!(
                root.category,
                TraceCategory::Infection,
                "span {} ({}) must chain to an infection root, got {:?} via {:?}",
                leaf.id,
                leaf.name,
                root.category,
                chain.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "the run produced destruction spans to check");
}

#[test]
fn tagged_events_point_at_live_spans() {
    let run = e1_run();
    for event in run.sim.trace.events() {
        if let Some(id) = event.span {
            let span = run.sim.spans.get(id).expect("event tags only allocated spans");
            assert!(span.start <= event.time, "span {} opened after its event", id);
        }
    }
    // The campaign wiring tags the causally interesting categories.
    for cat in [TraceCategory::Infection, TraceCategory::Destruction] {
        assert!(run.sim.trace.of(cat).any(|e| e.span.is_some()), "{cat} events carry span tags");
    }
}

#[test]
fn perfetto_golden_snapshot() {
    // A small, fast, fully deterministic run pinned as a golden: schema or
    // determinism drift in the exporter shows up as a byte diff here.
    let run = experiments::e1_stuxnet_end_to_end_run(7, 4, false);
    let doc = export::chrome_trace(&run.sim.trace, &run.sim.spans);
    export::validate_chrome_trace(&doc).expect("exporter output validates");
    if let Err(msg) = golden::check("perfetto_e1_seed7", &doc) {
        panic!("{msg}");
    }
}

#[test]
fn jsonl_feed_parses_line_by_line() {
    let run = experiments::e1_stuxnet_end_to_end_run(7, 4, false);
    let feed = export::jsonl(&run.sim.trace, &run.sim.spans);
    let mut spans = 0;
    let mut events = 0;
    for line in feed.lines() {
        let record = report::parse(line).expect("every JSONL line is standalone JSON");
        let report::Json::Obj(fields) = &record else { panic!("records are objects") };
        match fields.iter().find(|(k, _)| k == "kind") {
            Some((_, report::Json::Str(kind))) if kind == "span" => spans += 1,
            Some((_, report::Json::Str(kind))) if kind == "event" => events += 1,
            other => panic!("unknown kind: {other:?}"),
        }
    }
    assert_eq!(spans, run.sim.spans.len());
    assert_eq!(events, run.sim.trace.len());
}
