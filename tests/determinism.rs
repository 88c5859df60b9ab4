//! Reproducibility: the whole flow is deterministic given a seed, including
//! under parallel exploration, and delta rescoring is bit-identical to full
//! scoring. (That every memo entry equals its full rescore is checked
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
/// EA's own `mutate_share`; every 8th step 3–5 `mutate_num` edits at once) and
/// scores the child against its parent in one delta session, through
/// `DeltaSession::score` itself, so a gene the walk revisits is scored
/// again instead of being served from the memo. Every step
/// must be bit-identical to [`EvalCore::score`](pimsyn_dse::EvalCore), and
/// every child of a feasible (hence retained) parent must be a delta hit,
/// however many entries its gene changed — under both macro modes. Each
/// case has a floor on the delta hits of every walk: the roomy budgets
/// keep most parents feasible, the tight ones (alexnet-cifar at 9 W,
/// vgg16-cifar at 15 W) are there for their infeasible steps.
#[test]
fn delta_rescoring_is_bit_identical_on_mutation_walks() {
    use pimsyn_arch::{CrossbarConfig, DacConfig, HardwareParams};
    use pimsyn_dse::{mutate_share, DeltaSession, DesignPoint, EvalCore, MacAllocGene, Objective};
    use pimsyn_ir::Dataflow;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // (model, power, minimum delta hits per 41-score walk)
    let cases = [
        (zoo::alexnet_cifar(10), Watts(9.0), 1),
        (zoo::vgg16_cifar(10), Watts(15.0), 1),
        (zoo::alexnet_cifar(10), Watts(20.0), 30),
        (zoo::vgg16_cifar(10), Watts(40.0), 30),
        // Delta rescoring must stay exact over the new op kinds too:
        // depthwise/grouped convolutions (mobilenet) and attention
        // MatMul/Softmax chains (transformer-tiny).
        (zoo::mobilenet(), Watts(120.0), 30),
        (zoo::transformer_tiny(), Watts(6.0), 30),
    ];
    let hw = HardwareParams::date24();
    for (model, power, min_hits) in &cases {
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
        let walks = [MacroMode::Specialized, MacroMode::Identical]
            .into_iter()
            .flat_map(|mode| [7u64, 21].map(|seed| (mode, seed)));
        for (mode, seed) in walks {
            let full = EvalCore::new(model, *power, &hw, mode, Objective::PowerEfficiency);
            let mut session = DeltaSession::new(&df, point);
            let (mut delta_hits, mut delta_fallbacks) = (0, 0);
            let mut score_child = |child: &MacAllocGene, parent: Option<&MacAllocGene>| {
                let out = session.score(&full, child, parent.map(MacAllocGene::as_slice));
                let hits = usize::from(out.used_delta);
                delta_hits += hits;
                delta_fallbacks += 1 - hits;
                (out.score, hits)
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut macros = vec![1usize; l];
            let mut shares: Vec<Option<usize>> = vec![None; l];
            let mut parent = MacAllocGene::encode(&macros, &shares);
            // Parentless first score: a fallback that seeds retention.
            let (a, _) = score_child(&parent, None);
            let b = full.score(&df, point, &parent);
            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
            let mut parent_feasible = a.feasible;
            for step in 0..40 {
                if step % 8 == 7 {
                    // Several mutate_num edits at once: wider than one
                    // mutation round, which the session rescores the same.
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
                if step % 8 != 7 && rng.gen_bool(0.3) {
                    mutate_share(&mut shares, &mut rng);
                }
                let child = MacAllocGene::encode(&macros, &shares);
                let (d, hits) = score_child(&child, Some(&parent));
                let f = full.score(&df, point, &child);
                assert_eq!(
                    d.fitness.to_bits(),
                    f.fitness.to_bits(),
                    "{model} {mode} seed {seed} step {step}"
                );
                assert_eq!(
                    d.feasible, f.feasible,
                    "{model} {mode} seed {seed} step {step}"
                );
                assert_eq!(
                    hits,
                    usize::from(parent_feasible),
                    "{model} {mode} seed {seed} step {step}: a retained parent must give a delta hit"
                );
                parent_feasible = d.feasible;
                parent = child;
            }
            assert!(
                delta_hits >= *min_hits,
                "{model} {power} {mode} seed {seed}: {delta_hits} delta hits, below {min_hits} \
                 ({delta_fallbacks} fallbacks)"
            );
            assert_eq!(
                delta_hits + delta_fallbacks,
                41,
                "{model} {mode} seed {seed}: every score is a hit or a fallback"
            );
        }
    }
}

/// A count budget is shared by every design point, so a budgeted run
/// explores the points in order even with `parallel = true`: five repeated
/// parallel runs each equal the serial run on every result field.
#[test]
fn count_budgeted_parallel_runs_equal_serial() {
    let model = zoo::transformer_tiny();
    let base = SynthesisOptions::fast(Watts(9.0)).with_seed(3);
    for budgeted in [
        base.clone().with_max_evaluations(150),
        base.with_max_unique_evaluations(100),
    ] {
        let mut serial = budgeted;
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
