//! Reproduction of the paper's qualitative claims as assertions — the
//! "shape" of the evaluation (who wins, in which direction) rather
//! than absolute numbers.

use geyser::{try_compile, try_evaluate_tvd, PipelineConfig, Technique};
use geyser_sim::NoiseModel;
use geyser_workloads::{adder, multiplier, qft_with_input};

fn cfg() -> PipelineConfig {
    // The paper-scale search budget: composition needs its full
    // annealing depth to win on the long-block workloads these tests
    // assert about (a compile takes ~20 s in release).
    PipelineConfig::paper()
}

#[test]
fn pulse_ordering_baseline_ge_optimap_ge_geyser() {
    // Fig. 12's ordering on every tested workload.
    for program in [adder(4), qft_with_input(5, 0b10110), multiplier(5)] {
        let base = try_compile(&program, Technique::Baseline, &cfg()).unwrap();
        let opti = try_compile(&program, Technique::OptiMap, &cfg()).unwrap();
        let geyser = try_compile(&program, Technique::Geyser, &cfg()).unwrap();
        assert!(opti.total_pulses() <= base.total_pulses());
        assert!(geyser.total_pulses() <= opti.total_pulses());
    }
}

#[test]
fn optimap_reduces_baseline_pulses_substantially() {
    // The paper reports 25–90% total reduction (OptiMap + Geyser);
    // assert at least a 15% OptiMap cut on the arithmetic workloads.
    for program in [adder(4), multiplier(5)] {
        let base = try_compile(&program, Technique::Baseline, &cfg())
            .unwrap()
            .total_pulses() as f64;
        let opti = try_compile(&program, Technique::OptiMap, &cfg())
            .unwrap()
            .total_pulses() as f64;
        assert!(
            opti <= 0.85 * base,
            "OptiMap only reached {opti} vs baseline {base}"
        );
    }
}

#[test]
fn geyser_introduces_ccz_on_long_block_workloads() {
    // Fig. 14c: the multiplier gains CCZ gates (the paper observes
    // exactly two on multiplier-5); Baseline and OptiMap never do.
    let program = multiplier(5);
    let geyser = try_compile(&program, Technique::Geyser, &cfg()).unwrap();
    assert!(
        geyser.gate_counts().ccz >= 1,
        "expected composed CCZ gates, got none"
    );
    for t in [Technique::Baseline, Technique::OptiMap] {
        assert_eq!(
            try_compile(&program, t, &cfg()).unwrap().gate_counts().ccz,
            0
        );
    }
}

#[test]
fn geyser_cuts_multiplier_pulses_beyond_optimap() {
    let program = multiplier(5);
    let opti = try_compile(&program, Technique::OptiMap, &cfg()).unwrap();
    let geyser = try_compile(&program, Technique::Geyser, &cfg()).unwrap();
    assert!(
        geyser.total_pulses() < opti.total_pulses(),
        "Geyser {} !< OptiMap {}",
        geyser.total_pulses(),
        opti.total_pulses()
    );
}

#[test]
fn tvd_ordering_matches_pulse_ordering_under_noise() {
    // Fig. 15's mechanism: fewer pulses → lower TVD, checked on the
    // multiplier where Geyser's pulse win is material.
    let program = multiplier(5);
    let noise = NoiseModel::symmetric(0.002);
    let base = try_compile(&program, Technique::Baseline, &cfg()).unwrap();
    let geyser = try_compile(&program, Technique::Geyser, &cfg()).unwrap();
    let tvd_base = try_evaluate_tvd(&base, &program, &noise, 300, 5)
        .unwrap()
        .tvd_to_ideal;
    let tvd_geyser = try_evaluate_tvd(&geyser, &program, &noise, 300, 5)
        .unwrap()
        .tvd_to_ideal;
    assert!(
        tvd_geyser < tvd_base,
        "Geyser TVD {tvd_geyser} !< Baseline TVD {tvd_base}"
    );
}

#[test]
fn composition_stats_expose_the_win() {
    let program = multiplier(5);
    let geyser = try_compile(&program, Technique::Geyser, &cfg()).unwrap();
    let stats = geyser.composition_stats().expect("stats exist");
    assert!(stats.blocks_composed > 0, "no blocks composed");
    assert!(stats.pulses_after < stats.pulses_before);
    assert!(stats.max_accepted_hsd <= 1e-3 + 1e-12);
}
