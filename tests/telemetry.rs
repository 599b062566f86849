//! Cross-crate telemetry properties: span-tree well-formedness under
//! pass panics, bounded-buffer overflow accounting, histogram bucket
//! boundaries, and the determinism contract (telemetry observes the
//! pipeline, never steers it).

use geyser::{try_compile, FaultInjector, PassManager, PipelineConfig, Technique, Telemetry};
use geyser_circuit::Circuit;
use geyser_telemetry::{histogram_bucket_index, histogram_bucket_lo, validate_chrome_trace};

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for i in 1..n {
        c.cx(i - 1, i);
    }
    c
}

#[test]
fn trace_spans_all_pipeline_crates() {
    let telemetry = Telemetry::enabled();
    let compiled = PassManager::for_technique(Technique::Geyser)
        .with_telemetry(telemetry.clone())
        .run(&ghz(4), &PipelineConfig::fast())
        .expect("compiles");
    assert!(compiled.composition_stats().is_some());

    let json = telemetry.chrome_trace_json().expect("enabled handle");
    let summary = validate_chrome_trace(&json).expect("balanced trace");
    assert!(summary.complete_spans > 0);
    for cat in ["core", "map", "blocking", "compose"] {
        assert!(
            summary.categories.iter().any(|c| c == cat),
            "no `{cat}` spans in {:?}",
            summary.categories
        );
    }
}

#[test]
fn panicking_pass_leaves_no_orphaned_open_spans() {
    // `pass-panic:compose` makes the compose pass panic inside the
    // pass manager's catch_unwind isolation. The unwind must still
    // drop every open span guard, so the exported trace stays
    // balanced and the pass span records the panic.
    let telemetry = Telemetry::enabled();
    let faults = FaultInjector::parse("pass-panic:compose").unwrap();
    let result = PassManager::for_technique(Technique::Geyser)
        .with_faults(faults)
        .with_telemetry(telemetry.clone())
        .run(&ghz(4), &PipelineConfig::fast());
    assert!(result.is_err(), "injected pass panic surfaces as an error");

    let json = telemetry.chrome_trace_json().expect("enabled handle");
    let summary =
        validate_chrome_trace(&json).expect("trace stays balanced across a caught pass panic");
    assert!(summary.complete_spans > 0);

    let records = telemetry.span_records().expect("enabled handle");
    let panicked: Vec<_> = records
        .iter()
        .filter(|r| r.attrs.iter().any(|(k, _)| *k == "panicked"))
        .collect();
    assert_eq!(panicked.len(), 1, "exactly the compose pass panicked");
    assert_eq!(panicked[0].cat, "core");
}

#[test]
fn ring_buffer_overflow_drops_without_blocking() {
    // Tiny per-shard capacity: most spans must be dropped, the drop
    // counter must account for them, and what *is* recorded must
    // still form a well-formed trace.
    let telemetry = Telemetry::with_span_capacity(4);
    for _ in 0..256 {
        let _span = telemetry.span("test", "overflow");
    }
    assert!(telemetry.spans_dropped() > 0, "overflow must be counted");
    assert_eq!(
        telemetry.spans_recorded() + telemetry.spans_dropped(),
        256,
        "every span is either recorded or counted as dropped"
    );
    let json = telemetry.chrome_trace_json().expect("enabled handle");
    validate_chrome_trace(&json).expect("surviving spans stay balanced");
}

#[test]
fn histogram_buckets_are_log2_with_exact_boundaries() {
    // Bucket 0 holds only value 0; bucket k >= 1 starts at 2^(k-1).
    assert_eq!(histogram_bucket_index(0), 0);
    assert_eq!(histogram_bucket_index(1), 1);
    assert_eq!(histogram_bucket_index(2), 2);
    assert_eq!(histogram_bucket_index(3), 2);
    assert_eq!(histogram_bucket_index(4), 3);
    assert_eq!(histogram_bucket_index(u64::MAX), 64);
    for k in 1..64 {
        let lo = histogram_bucket_lo(k);
        assert_eq!(histogram_bucket_index(lo), k, "lower edge of bucket {k}");
        if lo > 1 {
            assert_eq!(
                histogram_bucket_index(lo - 1),
                k - 1,
                "value below bucket {k} belongs to bucket {}",
                k - 1
            );
        }
    }

    let telemetry = Telemetry::enabled();
    for v in [0, 1, 2, 3, 4, 1023, 1024] {
        telemetry.histogram_record("test.h", v);
    }
    let snapshot = telemetry.metrics_snapshot().expect("enabled handle");
    let hist = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "test.h")
        .expect("histogram registered");
    assert_eq!(hist.count, 7);
    let count_at = |lo: u64| {
        hist.buckets
            .iter()
            .find(|b| b.lo == lo)
            .map_or(0, |b| b.count)
    };
    assert_eq!(count_at(0), 1); // 0
    assert_eq!(count_at(1), 1); // 1
    assert_eq!(count_at(2), 2); // 2, 3
    assert_eq!(count_at(4), 1); // 4
    assert_eq!(count_at(512), 1); // 1023
    assert_eq!(count_at(1024), 1); // 1024
}

#[test]
fn compiled_output_is_bit_identical_with_telemetry_on_or_off() {
    // The overhead/determinism contract: telemetry observes the
    // pipeline but never feeds back into it, so a seeded run produces
    // the same circuit whether spans are recorded or not.
    let program = ghz(5);
    let cfg = PipelineConfig::fast().with_seed(11);
    for technique in [Technique::Baseline, Technique::Geyser] {
        let telemetry = Telemetry::enabled();
        let traced = PassManager::for_technique(technique)
            .with_telemetry(telemetry.clone())
            .run(&program, &cfg)
            .expect("compiles traced");
        let plain = try_compile(&program, technique, &cfg).unwrap();
        assert_eq!(
            traced.mapped().circuit(),
            plain.mapped().circuit(),
            "{technique:?}: telemetry must not perturb the output circuit"
        );
        assert_eq!(traced.total_pulses(), plain.total_pulses());
        assert_eq!(traced.depth_pulses(), plain.depth_pulses());
        assert!(telemetry.spans_recorded() > 0, "the traced run did record");
    }
}

#[test]
fn compose_phase_counters_are_deterministic_per_seed() {
    // Toffolis mapped to {U3, CZ} leave 3-qubit blocks that annealing
    // alone rarely closes, so the Adam phases run. Their work counters
    // are a pure function of the seed, and recording them never
    // perturbs the compiled output.
    let mut program = Circuit::new(3);
    program.ccx(0, 1, 2).cx(2, 0).ccx(1, 2, 0).h(1).ccx(0, 2, 1);
    let cfg = PipelineConfig::fast().with_seed(5);
    let counters = [
        "compose.anneal_evaluations",
        "compose.evals.refine",
        "compose.evals.multistart",
    ];
    let traced_run = || {
        let telemetry = Telemetry::enabled();
        let out = PassManager::for_technique(Technique::Geyser)
            .with_telemetry(telemetry.clone())
            .run(&program, &cfg)
            .expect("compiles traced");
        let values = counters.map(|name| telemetry.counter_value(name).unwrap_or(0));
        (out, values)
    };
    let (first, first_counts) = traced_run();
    let (second, second_counts) = traced_run();
    assert_eq!(
        first_counts, second_counts,
        "per-phase counters must repeat per seed"
    );
    assert!(
        first_counts[0] > 0 && first_counts[1] > 0,
        "annealing and refinement ran: {first_counts:?}"
    );
    let plain = try_compile(&program, Technique::Geyser, &cfg).unwrap();
    for traced in [&first, &second] {
        assert_eq!(traced.mapped().circuit(), plain.mapped().circuit());
        assert_eq!(traced.total_pulses(), plain.total_pulses());
    }
}
