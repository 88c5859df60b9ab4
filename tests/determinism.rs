//! Reproducibility: the whole flow is deterministic given a seed, including
//! under parallel exploration, and an EA run's session scores bit-identically
//! to full scoring. (That every memo entry equals its full rescore is checked
//! inside `pimsyn-dse`, where the memo is visible.)

use pimsyn::{SynthesisOptions, Synthesizer};
use pimsyn_arch::{MacroMode, Watts};
use pimsyn_model::zoo;

#[test]
fn same_seed_same_architecture() {
    let model = zoo::alexnet_cifar(10);
    let run = |seed| {
        Synthesizer::new(SynthesisOptions::fast(Watts(9.0)).with_seed(seed))
            .synthesize(&model)
            .expect("synthesis")
    };
    let a = run(123);
    let b = run(123);
    assert_eq!(a.wt_dup, b.wt_dup);
    assert_eq!(a.architecture, b.architecture);
    assert_eq!(a.analytic, b.analytic);
}

#[test]
fn different_seeds_may_differ_but_stay_feasible() {
    let model = zoo::alexnet_cifar(10);
    for seed in [1u64, 2, 3] {
        let r = Synthesizer::new(SynthesisOptions::fast(Watts(9.0)).with_seed(seed))
            .synthesize(&model)
            .expect("synthesis");
        r.architecture.validate(&model).expect("feasible");
        assert!(r.analytic.efficiency_tops_per_watt() > 0.0);
    }
}

/// Seeded randomized mutation walks: starting from a baseline gene, each
/// step applies one EA-style mutation (one `mutate_num`, sometimes plus the
/// EA's own `mutate_share`; every 8th step 3–5 `mutate_num` edits at once)
/// and scores the child in one run session, through `RunSession::score`
/// itself, so a gene the walk revisits is scored again instead of being
/// served from the memo while the session's Eq. (6) solve memo fills up
/// over the walk. Every step must be bit-identical to
/// [`EvalCore::score`](pimsyn_dse::EvalCore), under both macro modes and
/// both objectives. Half the walks share macros and half never do, so
/// each layer's transfer term is costed both inside and across macro
/// groups; the EDP walks see every layer's merge and transfer terms
/// through the pipeline latency, where power efficiency sees only the
/// bottleneck stages. The roomy budgets keep most steps feasible; the
/// tight ones (alexnet-cifar at 9 W, vgg16-cifar at 15 W) are there for
/// their infeasible steps.
#[test]
fn session_scoring_is_bit_identical_on_mutation_walks() {
    use pimsyn_arch::{CrossbarConfig, DacConfig, HardwareParams};
    use pimsyn_dse::{mutate_share, DesignPoint, EvalCore, MacAllocGene, Objective, RunSession};
    use pimsyn_ir::Dataflow;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let cases = [
        (zoo::alexnet_cifar(10), Watts(9.0)),
        (zoo::vgg16_cifar(10), Watts(15.0)),
        (zoo::alexnet_cifar(10), Watts(20.0)),
        (zoo::vgg16_cifar(10), Watts(40.0)),
        // Session scoring must stay exact over the new op kinds too:
        // depthwise/grouped convolutions (mobilenet) and attention
        // MatMul/Softmax chains (transformer-tiny).
        (zoo::mobilenet(), Watts(120.0)),
        (zoo::transformer_tiny(), Watts(6.0)),
    ];
    let hw = HardwareParams::date24();
    for (model, power) in &cases {
        let l = model.weight_layer_count();
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dac = DacConfig::new(1).unwrap();
        let dup = vec![2; l];
        let df = Dataflow::compile(model, xb, dac, &dup).unwrap();
        let point = DesignPoint {
            ratio_rram: 0.3,
            crossbar: xb,
        };
        let caps: Vec<usize> = df
            .programs()
            .iter()
            .map(|p| (p.wt_dup * p.row_groups).clamp(1, 64))
            .collect();
        let mut walks = Vec::new();
        for mode in [MacroMode::Specialized, MacroMode::Identical] {
            for objective in [Objective::PowerEfficiency, Objective::EnergyDelayProduct] {
                for seed in [7u64, 21] {
                    walks.extend([true, false].map(|sharing| (mode, objective, seed, sharing)));
                }
            }
        }
        for (mode, objective, seed, sharing) in walks {
            let full = EvalCore::new(model, *power, &hw, mode, objective);
            let mut session = RunSession::new(&df, point);
            let mut check = |gene: &MacAllocGene, at: &str| {
                let s = session.score(&full, gene);
                let f = full.score(&df, point, gene);
                assert_eq!(s.fitness.to_bits(), f.fitness.to_bits(), "{at}");
                assert_eq!(s.feasible, f.feasible, "{at}");
                s.feasible
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut macros = vec![1usize; l];
            let mut shares: Vec<Option<usize>> = vec![None; l];
            let case =
                format!("{model} {power} {mode} {objective:?} seed {seed} sharing {sharing}");
            let mut feasible = usize::from(check(&MacAllocGene::encode(&macros, &shares), &case));
            for step in 0..40 {
                if step % 8 == 7 {
                    // Several mutate_num edits at once: wider than one
                    // mutation round.
                    for _ in 0..rng.gen_range(3usize..=5) {
                        let i = rng.gen_range(0..l);
                        macros[i] = rng.gen_range(1..=caps[i]);
                    }
                } else {
                    // One mutate_num, sometimes plus one mutate_share — the
                    // exact per-child diff the EA hot loop produces.
                    let i = rng.gen_range(0..l);
                    macros[i] = rng.gen_range(1..=caps[i]);
                }
                if sharing && step % 8 != 7 && rng.gen_bool(0.3) {
                    mutate_share(&mut shares, &mut rng);
                }
                let child = MacAllocGene::encode(&macros, &shares);
                feasible += usize::from(check(&child, &format!("{case} step {step}")));
            }
            assert!(feasible > 0, "{case}: no feasible step");
        }
    }
}

/// A count budget is shared by every design point, so a budgeted run
/// explores the points in order even with `parallel = true`: five repeated
/// parallel runs each equal the serial run on every result field.
#[test]
fn count_budgeted_parallel_runs_equal_serial() {
    let model = zoo::transformer_tiny();
    let mut serial = SynthesisOptions::fast(Watts(9.0))
        .with_seed(3)
        .with_max_evaluations(150);
    serial.parallel = false;
    let mut parallel = serial.clone();
    parallel.parallel = true;
    let want = Synthesizer::new(serial)
        .synthesize(&model)
        .expect("serial synthesis");
    for run in 0..5 {
        let got = Synthesizer::new(parallel.clone())
            .synthesize(&model)
            .expect("parallel synthesis");
        assert_eq!(got.model, want.model, "run {run}");
        assert_eq!(got.architecture, want.architecture, "run {run}");
        assert_eq!(got.dataflow, want.dataflow, "run {run}");
        assert_eq!(got.wt_dup, want.wt_dup, "run {run}");
        assert_eq!(got.analytic, want.analytic, "run {run}");
        assert_eq!(got.cycle, want.cycle, "run {run}");
        assert_eq!(got.evaluations, want.evaluations, "run {run}");
        assert_eq!(got.history, want.history, "run {run}");
        assert_eq!(got.stop_reason, want.stop_reason, "run {run}");
    }
}

#[test]
fn parallel_equals_serial() {
    let model = zoo::alexnet_cifar(10);
    let mut serial = SynthesisOptions::fast(Watts(9.0)).with_seed(9);
    serial.parallel = false;
    let mut parallel = serial.clone();
    parallel.parallel = true;
    let a = Synthesizer::new(serial).synthesize(&model).unwrap();
    let b = Synthesizer::new(parallel).synthesize(&model).unwrap();
    assert_eq!(a.wt_dup, b.wt_dup);
    assert_eq!(a.architecture, b.architecture);
}
