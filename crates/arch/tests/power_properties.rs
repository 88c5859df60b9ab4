//! Property tests for the hardware power/latency models: monotonicity and
//! scaling laws that every Table III instantiation must obey.
//!
//! Cases are drawn from a seeded RNG (no external property-test framework
//! is available offline), so every run exercises the same deterministic
//! sample of the input space; failures reproduce exactly.

use pimsyn_arch::{
    AdcConfig, ComponentCounts, CrossbarConfig, DacConfig, HardwareParams, ScratchpadSpec, Watts,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 128;

fn arb_xb(rng: &mut StdRng) -> CrossbarConfig {
    let size = [128usize, 256, 512][rng.gen_range(0usize..3)];
    let cell = [1u32, 2, 4][rng.gen_range(0usize..3)];
    CrossbarConfig::new(size, cell).expect("legal")
}

/// Crossbar power grows with size and cell resolution.
#[test]
fn crossbar_power_monotone() {
    let hw = HardwareParams::date24();
    let mut rng = StdRng::seed_from_u64(0xA5C4_0001);
    for _ in 0..CASES {
        let a = arb_xb(&mut rng);
        let b = arb_xb(&mut rng);
        if a.size() <= b.size() && a.cell_bits() <= b.cell_bits() {
            assert!(a.power(&hw).value() <= b.power(&hw).value() + 1e-15);
        }
    }
}

/// Eq. (3): the crossbar budget is monotone in both power and ratio, and
/// exactly inversely proportional to per-crossbar power.
#[test]
fn budget_monotonicity() {
    let hw = HardwareParams::date24();
    let mut rng = StdRng::seed_from_u64(0xA5C4_0002);
    for _ in 0..CASES {
        let xb = arb_xb(&mut rng);
        let power = rng.gen_range(1.0f64..100.0);
        let ratio = rng.gen_range(0.1f64..0.4);
        let base = xb.budget(Watts(power), ratio, &hw);
        assert!(xb.budget(Watts(power * 2.0), ratio, &hw) >= base * 2 - 1);
        assert!(xb.budget(Watts(power), ratio * 0.5, &hw) <= base / 2 + 1);
    }
}

/// Eq. (1): crossbar sets shrink (weakly) as crossbars grow and cells
/// store more bits.
#[test]
fn crossbar_set_monotone_in_capacity() {
    let mut rng = StdRng::seed_from_u64(0xA5C4_0003);
    for _ in 0..CASES {
        let rows = rng.gen_range(1usize..30_000);
        let cols = rng.gen_range(1usize..4_096);
        let model = {
            // Build a synthetic weight layer via a linear layer of the right
            // geometry (rows = in features, cols = out features).
            let mut b =
                pimsyn_model::ModelBuilder::new("t", pimsyn_model::TensorShape::new(rows, 1, 1));
            let id = b.layer("id", pimsyn_model::LayerKind::Relu, vec![]);
            let f = b.flatten("f", id);
            b.linear("fc", f, cols);
            b.build().expect("valid")
        };
        let wl = model.weight_layer(0);
        let small = CrossbarConfig::new(128, 1).expect("legal");
        let large = CrossbarConfig::new(512, 4).expect("legal");
        assert!(large.crossbar_set(wl, 16) <= small.crossbar_set(wl, 16));
        // A set always holds at least one crossbar.
        assert!(small.crossbar_set(wl, 16) >= 1);
    }
}

/// ADC: more bits always means more power and less rate.
#[test]
fn adc_power_rate_tradeoff() {
    let hw = HardwareParams::date24();
    for bits in 7u32..14 {
        let a = AdcConfig::new(bits, &hw);
        let b = AdcConfig::new(bits + 1, &hw);
        assert!(b.power(&hw).value() > a.power(&hw).value());
        assert!(b.sample_rate(&hw).value() < a.sample_rate(&hw).value());
    }
}

/// The lossless-resolution rule is monotone in every argument.
#[test]
fn lossless_rule_monotone() {
    let hw = HardwareParams::date24();
    let mut rng = StdRng::seed_from_u64(0xA5C4_0004);
    for _ in 0..CASES {
        let rows = rng.gen_range(1usize..512);
        let cell = [1u32, 2, 4][rng.gen_range(0usize..3)];
        let dac = [1u32, 2, 4][rng.gen_range(0usize..3)];
        let here = AdcConfig::minimum_lossless(rows, cell, dac, &hw).bits();
        let more_rows = AdcConfig::minimum_lossless(rows * 2, cell, dac, &hw).bits();
        assert!(more_rows >= here);
        let more_cell = AdcConfig::minimum_lossless(rows, 4, dac, &hw).bits();
        assert!(more_cell >= AdcConfig::minimum_lossless(rows, 1, dac, &hw).bits());
        assert!((hw.adc_min_bits..=hw.adc_max_bits).contains(&here));
    }
}

/// Scratchpad: burst latency is monotone and beat-granular.
#[test]
fn scratchpad_latency_monotone() {
    let hw = HardwareParams::date24();
    let spm = ScratchpadSpec::from_params(&hw);
    let mut rng = StdRng::seed_from_u64(0xA5C4_0006);
    for _ in 0..CASES {
        let bytes = rng.gen_range(0usize..10_000);
        let t1 = spm.read_latency(bytes).value();
        let t2 = spm.read_latency(bytes + spm.bus_bytes()).value();
        assert!(t2 > t1);
    }
}

/// Component-count power is additive.
#[test]
fn component_power_additive() {
    let hw = HardwareParams::date24();
    let cfg = AdcConfig::new(8, &hw);
    let mut rng = StdRng::seed_from_u64(0xA5C4_0007);
    for _ in 0..CASES {
        let adc = rng.gen_range(0usize..100);
        let sa = rng.gen_range(0usize..100);
        let pool = rng.gen_range(0usize..100);
        let a = ComponentCounts {
            adc,
            shift_add: 0,
            pool: 0,
            activation: 0,
            eltwise: 0,
        };
        let b = ComponentCounts {
            adc: 0,
            shift_add: sa,
            pool,
            activation: 0,
            eltwise: 0,
        };
        let both = ComponentCounts {
            adc,
            shift_add: sa,
            pool,
            activation: 0,
            eltwise: 0,
        };
        let sum = a.power(cfg, &hw).value() + b.power(cfg, &hw).value();
        assert!((both.power(cfg, &hw).value() - sum).abs() < 1e-12);
    }
}

/// DAC bit-iterations: exact ceiling semantics.
#[test]
fn dac_iterations_ceiling() {
    for bits in [1u32, 2, 4] {
        for act in 1u32..33 {
            let dac = DacConfig::new(bits).expect("legal");
            let iters = dac.bit_iterations(act);
            assert!(iters as u32 * bits >= act);
            assert!((iters as u32 - 1) * bits < act);
        }
    }
}
