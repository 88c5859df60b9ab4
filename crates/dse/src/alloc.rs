//! Components allocation (Sec. IV-D): map IRs to peripheral hardware by
//! distributing the non-ReRAM power among ADC banks and vector ALUs.
//!
//! Eq. (5) asks for the allocation minimizing the largest per-component delay
//! under the power limit; Eq. (6) gives the closed-form water-filling
//! solution: every component's unit count is proportional to its workload
//! over frequency, scaled so that the budget is met exactly. Integers are
//! recovered by flooring and re-spending the remainder on whichever
//! component bounds the pipeline.

use pimsyn_arch::{
    AdcConfig, Architecture, ComponentCounts, ComponentKind, HardwareParams, LayerHardware,
    MacroGroup, MacroMode, NocConfig, Watts,
};
use pimsyn_ir::Dataflow;
use pimsyn_model::Model;
use pimsyn_sim::{compute_layer_stages, LayerCostInputs};

use crate::error::DseError;
use crate::space::DesignPoint;

/// Everything the allocation stage needs about one candidate design.
#[derive(Debug, Clone, Copy)]
pub struct AllocRequest<'a> {
    /// The CNN being synthesized.
    pub model: &'a Model,
    /// Its compiled dataflow (fixes workloads per IR class).
    pub dataflow: &'a Dataflow,
    /// Outer design point (`RatioRram`, crossbar config).
    pub point: DesignPoint,
    /// The user's total power constraint.
    pub total_power: Watts,
    /// Device constants.
    pub hw: &'a HardwareParams,
    /// `MacAlloc`: macros per layer.
    pub macros: &'a [usize],
    /// Macro sharing: `shares[i] = Some(j)` puts layer `i` on layer `j`'s
    /// macros.
    pub shares: &'a [Option<usize>],
    /// Identical vs specialized macros.
    pub macro_mode: MacroMode,
}

/// Per-layer workload of each allocatable component family, per image.
fn workload(df: &Dataflow, layer: usize, kind: ComponentKind) -> f64 {
    let p = df.program(layer);
    match kind {
        ComponentKind::Adc => p.total_adc_samples() as f64,
        ComponentKind::ShiftAdd => p.total_steps() as f64 * p.shift_add_ops as f64,
        ComponentKind::Pool => p.blocks as f64 * p.pool_ops as f64,
        ComponentKind::Activation => p.blocks as f64 * p.act_ops as f64,
        ComponentKind::Eltwise => p.blocks as f64 * p.eltwise_ops as f64,
    }
}

/// One allocatable `(layer, component family)` with workload, with its
/// precomputed unit power and rate. Kept in layer-major, [`ComponentKind::ALL`]
/// order so [`AllocPlan::solve`] replays the exact float sequence of the
/// historical single-pass allocator.
#[derive(Debug, Clone, Copy)]
struct AllocItem {
    layer: usize,
    kind: ComponentKind,
    /// Per-image workload `W_ic`.
    w: f64,
    /// Unit power `P_c`, watts.
    p: f64,
    /// Unit rate `F_c`, per second.
    f: f64,
}

/// The gene-independent half of components allocation for one `(model,
/// dataflow, design point, power budget)` combination.
///
/// The water-filling solution of Eq. (6) depends on the `MacAlloc` gene
/// only through the physical macro count (which scales the fixed
/// infrastructure power): everything else — ADC resolutions, workloads,
/// unit powers/rates, the Eq. (6) denominator — is shared across every
/// candidate of an EA generation. Preparing a plan once and calling
/// [`AllocPlan::solve`] per candidate (plus `homogenize` under
/// [`MacroMode::Identical`]) is therefore equivalent to (and bit-identical
/// with) running [`allocate_components`] from scratch, which is exactly how
/// an EA run's session amortizes allocation cost.
#[derive(Debug, Clone)]
pub struct AllocPlan {
    /// Layer count.
    l: usize,
    /// Per-layer ADC configuration (minimum lossless; worst-case everywhere
    /// in identical mode).
    adcs: Vec<AdcConfig>,
    items: Vec<AllocItem>,
    /// `budget * (1 - RatioRram)` — the peripheral share before fixed costs.
    budget_base: Watts,
    /// Fixed DAC power (every crossbar row).
    dac_power: Watts,
    /// Fixed per-macro infrastructure power.
    per_macro: Watts,
    /// Eq. (6) denominator `sum_ic (P_c W_ic / F_c)`.
    denom: f64,
    /// The user's power constraint; stage 4 validates at 5% above it.
    total_power: Watts,
    /// Identical macros: `homogenize` rewrites the solved counts.
    identical: bool,
}

impl AllocPlan {
    /// Precomputes the gene-independent allocation state.
    pub fn prepare(
        model: &Model,
        df: &Dataflow,
        point: DesignPoint,
        total_power: Watts,
        hw: &HardwareParams,
        macro_mode: MacroMode,
    ) -> Self {
        let l = df.programs().len();
        let xb = point.crossbar;
        let dac = df.dac();

        // Per-layer minimum lossless ADC resolution (Sec. III).
        let mut adcs: Vec<AdcConfig> = model
            .weight_layers()
            .map(|wl| {
                let rows = wl.filter_rows().min(xb.size());
                AdcConfig::minimum_lossless(rows, xb.cell_bits(), dac.bits(), hw)
            })
            .collect();
        if macro_mode == MacroMode::Identical {
            // Identical macros must carry the worst-case converter.
            let max_bits = adcs
                .iter()
                .map(AdcConfig::bits)
                .max()
                .unwrap_or(hw.adc_min_bits);
            adcs = vec![AdcConfig::new(max_bits, hw); l];
        }

        // Fixed (non-allocatable) power: DACs on every crossbar row plus the
        // per-macro infrastructure.
        let n_crossbars = df.total_crossbars();
        let dac_power = dac.power(hw) * (n_crossbars * xb.size()) as f64;
        let per_macro = hw.scratchpad_power + hw.noc_router_power + hw.register_power;

        // Eq. (6): D = sum_ic (P_c W_ic / F_c) / budget; n_ic = W_ic / (F_c D).
        let mut items = Vec::new();
        let mut denom = 0.0f64;
        for (i, &adc) in adcs.iter().enumerate() {
            for kind in ComponentKind::ALL {
                let w = workload(df, i, kind);
                if w > 0.0 {
                    let p = kind.unit_power(adc, hw).value();
                    let f = kind.unit_rate(adc, hw).value();
                    denom += p * w / f;
                    items.push(AllocItem {
                        layer: i,
                        kind,
                        w,
                        p,
                        f,
                    });
                }
            }
        }

        AllocPlan {
            l,
            adcs,
            items,
            budget_base: total_power * (1.0 - point.ratio_rram),
            dac_power,
            per_macro,
            denom,
            total_power,
            identical: macro_mode == MacroMode::Identical,
        }
    }

    /// Per-layer ADC configurations of the plan.
    pub fn adcs(&self) -> &[AdcConfig] {
        &self.adcs
    }

    /// The peripheral power left for allocatable components once `n_macros`
    /// physical macros' fixed infrastructure is paid for. May be negative —
    /// [`AllocPlan::solve`] turns that into [`DseError::NoPeripheralPower`].
    pub fn periph_budget(&self, n_macros: usize) -> Watts {
        let fixed = self.dac_power + self.per_macro * n_macros as f64;
        self.budget_base - fixed
    }

    /// Solves Eq. (6) for a candidate with `n_macros` physical macros,
    /// returning per-layer component counts. Bit-identical to the
    /// corresponding slice of [`allocate_components`].
    ///
    /// # Errors
    ///
    /// [`DseError::NoPeripheralPower`] when fixed infrastructure already
    /// exceeds the peripheral budget (or nothing is allocatable).
    pub fn solve(&self, n_macros: usize) -> Result<Vec<ComponentCounts>, DseError> {
        let periph_budget = self.periph_budget(n_macros);
        if periph_budget.value() <= 0.0 {
            return Err(DseError::NoPeripheralPower {
                remaining: periph_budget.value(),
            });
        }
        if self.denom <= 0.0 {
            return Err(DseError::NoPeripheralPower {
                remaining: periph_budget.value(),
            });
        }
        let delay = self.denom / periph_budget.value();

        let mut counts = vec![ComponentCounts::default(); self.l];
        // Per-image delay of each item at its current count; only a boosted
        // item's delay changes, so the remainder loop recomputes just that.
        let item_delay = |it: &AllocItem, n: usize| it.w / (it.f * n as f64);
        let mut delays = Vec::with_capacity(self.items.len());
        let mut spent = 0.0f64;
        for it in &self.items {
            let ideal = it.w / (it.f * delay);
            let n = (ideal.floor() as usize).max(1);
            *counts[it.layer].count_mut(it.kind) = n;
            delays.push(item_delay(it, n));
            spent += it.p * n as f64;
        }

        // Spend the rounding remainder on the current bottleneck, in bulk.
        let mut remaining = periph_budget.value() - spent;
        for _ in 0..(4 * self.l * ComponentKind::ALL.len()) {
            // Find the (layer, kind) with the largest per-image delay.
            let mut worst: Option<(usize, f64)> = None;
            for (idx, &d) in delays.iter().enumerate() {
                if worst.is_none_or(|(_, wd)| d > wd) {
                    worst = Some((idx, d));
                }
            }
            let Some((idx, _)) = worst else { break };
            let it = &self.items[idx];
            if it.p > remaining {
                break;
            }
            // Add enough units to bring this component near the runner-up
            // delay, bounded by the power still available.
            let n = counts[it.layer].count(it.kind);
            let affordable = (remaining / it.p).floor() as usize;
            let boost = (n / 4).clamp(1, affordable.max(1));
            *counts[it.layer].count_mut(it.kind) = n + boost;
            delays[idx] = item_delay(it, n + boost);
            remaining -= it.p * boost as f64;
        }

        Ok(counts)
    }

    /// An upper bound on the power efficiency (TOPS/W) of every gene an EA
    /// run over `df` at `point` can score and stage 4 can validate,
    /// gene-independent and O(layers + items). `total_macs` is the model's
    /// MAC count, `caps` the run's per-layer macro caps (rule (c), which no
    /// gene exceeds) and `sharing` whether the run may share macros.
    /// Returns `0` when no gene can allocate. Alg. 1 skips an EA run whose
    /// bound is below a fitness it already found: a run's result is its
    /// best gene's fitness when that gene validates, and nothing otherwise.
    ///
    /// Efficiency is `2 MACs / (T x P x 1e12)` for the steady period `T`
    /// and the realized power `P`; the bound divides by a lower bound on
    /// `T x P`. It is the smaller of the *cover bound*, which reasons from
    /// the realized architecture and so holds in both macro modes, and a
    /// bound that reasons from the allocator's rounding: the *solve bound*
    /// ([`solve`](Self::solve)) for specialized macros, the *identical
    /// bound* (`homogenize`) for identical ones. Each is tighter on
    /// different runs. The bound carries a relative `1e-9` margin for
    /// float rounding. All use one period floor:
    ///
    /// - **Steady period >= S_floor.** `T` is the largest `blocks x period`
    ///   over the layers. A layer's period is at least its `bits x
    ///   mvm_latency`, load and store occupancies. Only load and store
    ///   depend on the gene, through the layer's own macro count, and both
    ///   fall as it grows, so they are least at the cap: `S_floor = max_x
    ///   blocks_x max(bits_x mvm, load_x, store_x)`. The pipeline's
    ///   ADC-contention pass only stretches periods.
    ///
    /// The cover bound, whose floors [`edp_bound`](Self::edp_bound) shares.
    /// Write `L` for the layer count, `D` for the Eq. (6) denominator,
    /// `D_x` for layer `x`'s part of it and `periph` for the realized ADC
    /// plus ALU power.
    ///
    /// - **Peripheral demand.** [`compute_layer_stages`] gives every
    ///   item a busy time `W / (F n)` of at most its layer's `blocks x
    ///   period <= T`, where `n` is the layer's own units for an ALU item
    ///   and its effective ADC bank for the ADC item, and `F` is the
    ///   layer's own rate (for the ADC, at the layer's own resolution).
    ///   [`power_breakdown_from`] charges each macro group, per kind, the
    ///   largest member count, ADCs at the largest member resolution.
    ///   Every gene keeps the pair rule of [`MacroGroup::check_pairs`], so
    ///   a group holds a root and at most one sharer, and the groups
    ///   partition the layers.
    ///   - ALU: a group pays at least `sum_kind max_member P W / (F T) >=
    ///     max_member a_x / T`, `a_x` the layer's ALU part of `D`. Over a
    ///     partition into pairs, that sums to at least `U / T`, `U` the sum
    ///     of the 1st, 3rd, 5th, ... largest `a_x`.
    ///   - ADC: a layer's effective bank is the largest own count in its
    ///     group, and the group is charged at least that count, so at
    ///     least `max_member c_x / T` units for the demands `c_x = W / F`.
    ///     Each unit costs at least every member's own unit power `p_x`,
    ///     as ADC power rises with bits (hardware documents must keep
    ///     `adc_power_growth >= 1`). So the group pays at least
    ///     `max_member p_x x max_member c_x / T >= max_member d_x / T`,
    ///     `d_x = p_x c_x` the layer's ADC part of `D`, and ADC power is
    ///     at least `C / T`, `C` the sum of the 1st, 3rd, 5th, ... largest
    ///     `d_x`.
    ///   - Without sharing every layer is its own group with its own bank,
    ///     so `periph >= D / T`.
    ///
    ///   So `T x periph >= D'`, with `D' = U + C` with sharing and `D`
    ///   without.
    /// - **Fixed power.** `P` is ReRAM + DAC + `periph` + per-macro
    ///   infrastructure for every group's macros. A group holds at most two
    ///   layers and at least one macro, so there are at least `n_min =
    ///   ceil(L / 2)` macros (`L` without sharing), and `P >= F + periph`
    ///   with `F = ReRAM + DAC + per_macro x n_min`.
    /// - **Period floor.** A gene validates only at `P <= 1.05 x budget`,
    ///   so then `periph <= 1.05 budget - F` and `T >= T_lo = max(S_floor,
    ///   D' / (1.05 budget - F))`; `T_lo = S_floor` when the cap is not
    ///   positive. The cap is `validate`'s limit, not
    ///   [`periph_budget`](Self::periph_budget), which `solve`'s one-unit
    ///   floors can overspend.
    ///
    /// So `T x P >= T x F + D' >= T_lo F + D'`, and efficiency is at most
    /// `2 MACs / ((T_lo F + D') 1e12)`.
    ///
    /// The solve bound. Write `B(n)` for [`periph_budget(n)`](Self::periph_budget)
    /// at a gene's `n >= 1` physical macros, so `B(n) <= B(1)`; `D_alu`
    /// for `D`'s ALU part; `rho` and `SP` for the pair-discounted share
    /// sum and the sum of every item's unit power (`pair_discount`). A
    /// gene that allocates has `B(n) > 0` (else `solve` fails, for every
    /// gene once `B(1) <= 0`).
    /// `solve` starts item `ic` at `max(1, floor(t_ic))` units, `t_ic = W_ic
    /// B(n) / (F_c D)`, so `sum P_c t_ic = B(n)`; its remainder loop only
    /// adds units, each paid for out of what the start left of `B(n)`.
    ///
    /// - **Starting floors.** `t - 1 <= max(1, floor(t)) <= t + 1`. So the
    ///   start costs at least `B(n) - SP` (layer `x`'s items at least
    ///   `s_x B(n) - SP_x`, `s_x = D_x / D`), which leaves the remainder
    ///   loop at most `SP`, and the ALU items start at no more than `B(n)
    ///   D_alu / D + SP`.
    /// - **Steady period >= S_alu.** The ALU items therefore end with at
    ///   most `A = B(1) D_alu / D + 2 SP` watts of units. An ALU item's
    ///   busy time `W / (F n)` is at most `T` (see peripheral demand), so
    ///   `A >= sum P W / (F T) = D_alu / T` and `T >= S_alu = D_alu / A`.
    /// - **Realized power >= P_min.** A group, at most two layers, pays for
    ///   peripherals at least either member's (per-kind maxima, priced at
    ///   the larger ADC resolution, and ADC power rises with bits). So they
    ///   cost at least `sum_g max_(x in g) (s_x B(n) - SP_x) >= (1 - rho)
    ///   B(n) - SP`. The groups hold at least the `n >= 1` macros the
    ///   allocator paid for, and `B(n) = budget_base - DAC - per_macro x
    ///   n`, so `P_min = ReRAM + DAC + (1 - rho)(budget_base - DAC) + rho
    ///   per_macro - SP`; without sharing, `ReRAM + budget_base - SP`.
    ///
    /// So efficiency is at most `2 MACs / (max(S_alu, S_floor) P_min 1e12)`.
    ///
    /// The identical bound. `homogenize` gives every macro `q_k` units of
    /// each kind `k`: first the largest `ceil(n_xk / m_x)` over the layers'
    /// solved counts `n_xk` and macros `m_x`; then, while the chip's
    /// `N sum_k P_k q_k` exceeds `B(N)` at its `N` physical macros, every
    /// step takes each `q_k > 1` to `floor(4 q_k / 5)`. A layer gets `q_k
    /// m_x` units of each kind it has work for, so each group pays `q_k`
    /// per macro of every kind in `K_all`, the kinds every layer has work
    /// for (the ADC and shift-add at least), and the chip at least `N
    /// sum_(k in K_all) P_k q_k`. Every ADC is priced at the one identical
    /// resolution, `P_adc` a unit.
    ///
    /// - **Without a shrink step** every layer holds at least its solved
    ///   counts, so the groups pay at least what the solve bound's
    ///   realized-power step counts: `(1 - rho) B(N) - SP`.
    /// - **After a shrink step**, the last one started above `B(N)` and
    ///   `floor(4 q / 5) >= q / 2` for `q >= 2`, so `N sum_k P_k q_k >=
    ///   B(N) / 2`. A bare `B(N) / 2` is no floor: a group pays for a kind
    ///   outside `K_all` only where a member has work for it, so those
    ///   kinds cost less than `N P_k q_k`. They are bounded by the ADC
    ///   count instead: `q_k <= lambda_k q_adc + mu_k` (`adc_slack` proves
    ///   it), so with `Lambda = sum_k P_k lambda_k / P_adc` and `M = sum_k
    ///   P_k mu_k` over those kinds, `sum_k P_k q_k <= (1 + Lambda) sum_(k
    ///   in K_all) P_k q_k + M`, and the peripherals cost at least `(B(N) /
    ///   2 - N M) / (1 + Lambda)`.
    ///
    /// So `P >= P(N) = ReRAM + DAC + per_macro x N + max(0, min of the two
    /// floors)` for a gene with `N` physical macros, where `n_min <= N <=
    /// sum caps` and `B(N) > 0`. `P(N)` is piecewise linear in `N`, so its
    /// least value over that interval, `P_min`, is at an end or where a
    /// floor crosses the other or 0. With `T >= S_floor`, efficiency is at
    /// most `2 MACs / (S_floor P_min 1e12)`.
    ///
    /// [`compute_layer_stages`]: pimsyn_sim::compute_layer_stages
    /// [`power_breakdown_from`]: pimsyn_arch::power_breakdown_from
    /// [`MacroGroup::check_pairs`]: pimsyn_arch::MacroGroup::check_pairs
    pub fn efficiency_bound(
        &self,
        df: &Dataflow,
        point: DesignPoint,
        hw: &HardwareParams,
        total_macs: u64,
        caps: &[usize],
        sharing: bool,
    ) -> f64 {
        let Some((s_floor, _, work)) = self.floors(df, point, hw, caps, sharing) else {
            return 0.0;
        };
        let cover = 2.0 * total_macs as f64 / (work * 1e12);
        let rounding = if self.identical {
            self.identical_bound(df, point, hw, total_macs, caps, s_floor, sharing)
        } else {
            self.solve_bound(df, point, hw, total_macs, s_floor, sharing)
        };
        cover.min(rounding) * (1.0 + 1e-9)
    }

    /// An upper bound on the EDP fitness, `1 / EDP` with EDP in ms x mJ, of
    /// every gene an EA run over `df` at `point` can score and stage 4 can
    /// validate; arguments as for [`efficiency_bound`](Self::efficiency_bound),
    /// whose cover-bound floors it uses. Latency is at least the steady
    /// period `T` (a layer finishes after its `blocks x period`), so at
    /// least `T_lo`, and energy is `P x latency >= T x P >= T_lo F + D'`.
    /// So `EDP >= 1e6 T_lo (T_lo F + D')`, again with a `1e-9` margin.
    pub fn edp_bound(
        &self,
        df: &Dataflow,
        point: DesignPoint,
        hw: &HardwareParams,
        caps: &[usize],
        sharing: bool,
    ) -> f64 {
        let Some((_, t_lo, work)) = self.floors(df, point, hw, caps, sharing) else {
            return 0.0;
        };
        1.0 / (1e6 * t_lo * work) * (1.0 + 1e-9)
    }

    /// The floors of [`efficiency_bound`](Self::efficiency_bound)'s proof,
    /// `(S_floor, T_lo, T_lo F + D')`, or `None` when no gene can allocate.
    /// No gene's steady period is below `S_floor`; no validated gene's is
    /// below `T_lo`, nor its steady period x realized power below `T_lo F
    /// + D'`.
    fn floors(
        &self,
        df: &Dataflow,
        point: DesignPoint,
        hw: &HardwareParams,
        caps: &[usize],
        sharing: bool,
    ) -> Option<(f64, f64, f64)> {
        if self.periph_budget(1).value() <= 0.0 || self.denom <= 0.0 {
            return None;
        }
        // `S_floor` reads only load, store and the MVM stage. Neither unit
        // counts nor macro-group roots nor the NoC enter those, so one-unit
        // counts, the identity root and any NoC serve.
        let noc = NocConfig::for_macros(1, hw);
        let mut s_floor = 0.0f64;
        for (layer, &cap) in caps.iter().enumerate() {
            let inputs = LayerCostInputs {
                macros: cap,
                effective_adcs: 1,
                adc: self.adcs[layer],
                shift_add: 1,
                pool: 1,
                activation: 1,
                eltwise: 1,
            };
            if let Ok(st) = compute_layer_stages(df, hw, layer, &inputs, |l| l, &noc) {
                let busiest = (st.bits as f64 * st.mvm_bit).max(st.load).max(st.store);
                s_floor = s_floor.max(df.program(layer).blocks as f64 * busiest);
            }
        }

        let rram = point.crossbar.power(hw).value() * df.total_crossbars() as f64;
        let fixed =
            rram + self.dac_power.value() + self.per_macro.value() * self.n_min(sharing) as f64;
        let demand = if sharing {
            every_other_largest(self.layer_demand(false)) + self.adc_floor(true)
        } else {
            self.denom
        };
        let cap = 1.05 * self.total_power.value() - fixed;
        let t_lo = if cap > 0.0 {
            s_floor.max(demand / cap)
        } else {
            s_floor
        };
        Some((s_floor, t_lo, t_lo * fixed + demand))
    }

    /// The fewest physical macros a gene can have: a group holds at most
    /// two layers and at least one macro.
    fn n_min(&self, sharing: bool) -> usize {
        if sharing {
            self.l.div_ceil(2)
        } else {
            self.l
        }
    }

    /// Each layer's part of the Eq. (6) denominator from its ADC item
    /// (`adc`), or from its ALU items.
    fn layer_demand(&self, adc: bool) -> Vec<f64> {
        let mut part = vec![0.0f64; self.l];
        for it in &self.items {
            if (it.kind == ComponentKind::Adc) == adc {
                part[it.layer] += it.p * it.w / it.f;
            }
        }
        part
    }

    /// The cover bound's ADC term (see
    /// [`efficiency_bound`](Self::efficiency_bound)), which no gene's steady
    /// period x realized ADC power is below: `C`, the sum of the 1st, 3rd,
    /// 5th, ... largest layer ADC parts of `D`, with sharing, and the ADC
    /// part of `D` without.
    pub(crate) fn adc_floor(&self, sharing: bool) -> f64 {
        let adc = self.layer_demand(true);
        if sharing {
            every_other_largest(adc)
        } else {
            adc.iter().sum()
        }
    }

    /// `(rho, SP)` of the solve and identical bounds' proofs. `rho` is the
    /// sum of the 2nd, 4th, ... largest layer shares `s_x = D_x / D`: over
    /// every partition of the layers into groups of at most two, the most
    /// that the groups' smaller members can hold, so `sum_g max_(x in g)
    /// s_x >= 1 - rho`. It is 0 without sharing. `SP` is the sum of every
    /// item's unit power.
    fn pair_discount(&self, sharing: bool) -> (f64, f64) {
        let sum_p = self.items.iter().map(|it| it.p).sum();
        let rho = if sharing {
            let mut shares = vec![0.0f64; self.l];
            for it in &self.items {
                shares[it.layer] += it.p * it.w / it.f / self.denom;
            }
            shares.sort_by(|a, b| b.total_cmp(a));
            shares.iter().skip(1).step_by(2).sum()
        } else {
            0.0
        };
        (rho, sum_p)
    }

    /// The solve bound of [`efficiency_bound`](Self::efficiency_bound),
    /// without its margin; `+inf` when a floor is not positive.
    fn solve_bound(
        &self,
        df: &Dataflow,
        point: DesignPoint,
        hw: &HardwareParams,
        total_macs: u64,
        s_floor: f64,
        sharing: bool,
    ) -> f64 {
        let b1 = self.periph_budget(1).value();
        let (rho, sum_p) = self.pair_discount(sharing);
        let d_alu: f64 = self.layer_demand(false).iter().sum();
        let s_alu = d_alu / (b1 * d_alu / self.denom + 2.0 * sum_p);
        let steady = s_alu.max(s_floor);

        let rram = point.crossbar.power(hw).value() * df.total_crossbars() as f64;
        let dac = self.dac_power.value();
        let power = rram
            + dac
            + (1.0 - rho) * (self.budget_base.value() - dac)
            + rho * self.per_macro.value()
            - sum_p;
        if steady <= 0.0 || power <= 0.0 {
            return f64::INFINITY;
        }
        2.0 * total_macs as f64 / (steady * power * 1e12)
    }

    /// Per kind `k` (indexed by `k as usize`), `(P_k, lambda_k, mu_k)` of
    /// the identical bound's proof (see
    /// [`efficiency_bound`](Self::efficiency_bound)); `None` when some layer
    /// has no ADC work. `P_k` is the kind's unit power (0 when no layer has
    /// work for it). For a kind outside `K_all`, `r_k` is the largest `r_xk
    /// = (W_xk / F_k) / (W_xa / F_xa)` over the layers, `a` the ADC, and
    /// every `homogenize` result has `q_k <= lambda_k q_a + mu_k` with
    /// `lambda_k = 5/4 r_k` and `mu_k = max(r_k + 2, 5 r_k)`; for the kinds
    /// in `K_all` both are 0.
    ///
    /// - **Solved counts.** `t_ic` is proportional to `W_ic / F_c` and
    ///   `floor(t) > t - 1`, so item `xk` starts at `max(1, floor(t_xk)) <=
    ///   r_xk (n + 1) + 1`, `n` the ADC item's start. The remainder loop
    ///   boosts only the item with the largest delay `W / (F n)`, so `xk`
    ///   then holds at most `r_xk` times its layer's ADC count, and it adds
    ///   at most `max(1, n_xk / 4)` units. ADC counts only grow, so `n_xk <=
    ///   5/4 r_k n_xa + r_k + 1`.
    /// - **Per-macro counts.** `ceil(n / m) < n / m + 1` and `n_xa / m_x <=
    ///   q_a`, so at first `q_k <= 5/4 r_k q_a + r_k + 2`.
    /// - **Shrink steps.** A step keeps a count of 1 and takes `q > 1` to
    ///   `floor(4 q / 5)`, which is at most `4 q / 5` and at least `(4 q -
    ///   4) / 5`. So `q_k` falls and either `q_a` stays, or `q_k` falls to
    ///   at most `4/5 (lambda_k q_a + mu_k) <= lambda_k q_a' + 4/5 (lambda_k
    ///   + mu_k)` for the new `q_a'`; the inequality holds after the step
    ///   because `4 lambda_k = 5 r_k <= mu_k` and `mu_k >= 1`.
    fn adc_slack(&self) -> Option<[(f64, f64, f64); ComponentKind::ALL.len()]> {
        let mut layers_with = [0usize; ComponentKind::ALL.len()];
        let mut adc_demand = vec![0.0f64; self.l];
        for it in &self.items {
            layers_with[it.kind as usize] += 1;
            if it.kind == ComponentKind::Adc {
                adc_demand[it.layer] = it.w / it.f;
            }
        }
        if layers_with[ComponentKind::Adc as usize] < self.l {
            return None;
        }
        let mut slack = [(0.0f64, 0.0f64, 0.0f64); ComponentKind::ALL.len()];
        let mut r = [0.0f64; ComponentKind::ALL.len()];
        for it in &self.items {
            let k = it.kind as usize;
            slack[k].0 = it.p;
            if layers_with[k] < self.l {
                r[k] = r[k].max(it.w / it.f / adc_demand[it.layer]);
                (slack[k].1, slack[k].2) = (1.25 * r[k], (r[k] + 2.0).max(5.0 * r[k]));
            }
        }
        Some(slack)
    }

    /// The identical bound's two peripheral floors as lines `(a, c)`, each
    /// floor `a + c N` at `N` physical macros, with `B(N) = budget_base -
    /// DAC - per_macro x N`: `(1 - rho) B(N) - SP` for a gene whose
    /// `homogenize` took no shrink step, and `(B(N) / 2 - N M) / (1 +
    /// Lambda)` for one that did, with `Lambda = sum_k P_k lambda_k /
    /// P_adc` and `M = sum_k P_k mu_k` from [`adc_slack`](Self::adc_slack)
    /// (0 without them).
    fn identical_floors(&self, sharing: bool) -> [(f64, f64); 2] {
        let (rho, sum_p) = self.pair_discount(sharing);
        let b0 = self.budget_base.value() - self.dac_power.value();
        let per_macro = self.per_macro.value();
        let unshrunk = ((1.0 - rho) * b0 - sum_p, -(1.0 - rho) * per_macro);
        let shrunk = self.adc_slack().map_or((0.0, 0.0), |slack| {
            let p_adc = slack[ComponentKind::Adc as usize].0;
            let lambda = slack.iter().map(|&(p, l, _)| p * l).sum::<f64>() / p_adc;
            let m: f64 = slack.iter().map(|&(p, _, mu)| p * mu).sum();
            (
                0.5 * b0 / (1.0 + lambda),
                -(0.5 * per_macro + m) / (1.0 + lambda),
            )
        });
        [unshrunk, shrunk]
    }

    /// The least ADC plus ALU power that a gene with `n` physical macros
    /// realizes under identical macros (see
    /// [`efficiency_bound`](Self::efficiency_bound)'s identical bound).
    pub(crate) fn identical_periph_floor(&self, n: f64, sharing: bool) -> f64 {
        let [unshrunk, shrunk] = self.identical_floors(sharing);
        let at = |(a, c): (f64, f64)| a + c * n;
        at(unshrunk).min(at(shrunk)).max(0.0)
    }

    /// The identical bound of [`efficiency_bound`](Self::efficiency_bound),
    /// without its margin; `+inf` when a floor is not positive or no macro
    /// count is in range.
    #[allow(clippy::too_many_arguments)]
    fn identical_bound(
        &self,
        df: &Dataflow,
        point: DesignPoint,
        hw: &HardwareParams,
        total_macs: u64,
        caps: &[usize],
        s_floor: f64,
        sharing: bool,
    ) -> f64 {
        let rram = point.crossbar.power(hw).value() * df.total_crossbars() as f64;
        let per_macro = self.per_macro.value();
        let power = |n: f64| {
            rram + self.dac_power.value() + per_macro * n + self.identical_periph_floor(n, sharing)
        };
        // `N` runs from `n_min` to the caps' sum and to where `B(N) = 0`.
        let lo = self.n_min(sharing) as f64;
        let hi = (caps.iter().sum::<usize>() as f64)
            .min((self.budget_base.value() - self.dac_power.value()) / per_macro);
        let [(a1, c1), (a2, c2)] = self.identical_floors(sharing);
        let p_min = [lo, hi, -a1 / c1, -a2 / c2, (a2 - a1) / (c1 - c2)]
            .into_iter()
            .filter(|n| (lo..=hi).contains(n))
            .map(power)
            .fold(f64::INFINITY, f64::min);
        if s_floor <= 0.0 || p_min <= 0.0 || p_min.is_infinite() {
            return f64::INFINITY;
        }
        2.0 * total_macs as f64 / (s_floor * p_min * 1e12)
    }
}

/// The sum of the 1st, 3rd, 5th, ... largest of `values`: the least that
/// the larger members of pairs can sum to, over every partition of `values`
/// into groups of at most two.
fn every_other_largest(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| b.total_cmp(a));
    values.iter().step_by(2).sum()
}

/// Runs components allocation and assembles the full [`Architecture`].
///
/// # Errors
///
/// - [`DseError::NoPeripheralPower`] when fixed infrastructure (scratchpads,
///   NoC routers, registers, DACs) already exceeds the `(1 - RatioRram)`
///   share of the budget.
/// - Propagated architecture errors.
pub fn allocate_components(req: &AllocRequest<'_>) -> Result<Architecture, DseError> {
    let hw = req.hw;
    let df = req.dataflow;
    let plan = AllocPlan::prepare(
        req.model,
        df,
        req.point,
        req.total_power,
        hw,
        req.macro_mode,
    );
    let groups = MacroGroup::build_from(
        (req.macros.iter().zip(req.shares).enumerate()).map(|(i, (&m, &s))| (i, m, s)),
    );
    let n_macros = groups.iter().map(|g| g.macros).sum();
    let mut counts = plan.solve(n_macros)?;

    if req.macro_mode == MacroMode::Identical {
        homogenize(
            &mut counts,
            req.macros,
            n_macros,
            &plan.adcs,
            hw,
            plan.periph_budget(n_macros),
            df,
        );
    }

    let layers: Vec<LayerHardware> = df
        .programs()
        .iter()
        .enumerate()
        .map(|(i, p)| LayerHardware {
            layer: i,
            name: p.name.clone(),
            wt_dup: p.wt_dup,
            crossbar_set: p.crossbar_set,
            macros: req.macros[i],
            shares_macros_with: req.shares[i],
            adc: plan.adcs[i],
            components: counts[i],
        })
        .collect();

    Ok(Architecture {
        model_name: req.model.name().to_string(),
        crossbar: req.point.crossbar,
        dac: df.dac(),
        ratio_rram: req.point.ratio_rram,
        power_budget: req.total_power,
        macro_mode: req.macro_mode,
        layers,
        hw: hw.clone(),
    })
}

/// Identical-macro post-pass: every macro carries the same component counts,
/// so per-macro counts are the ceiling of the most demanding layer, and the
/// whole chip is scaled down uniformly if that exceeds the power budget.
/// Returns the per-macro counts. An EA run's session runs it on each
/// candidate's own copy of the solved counts.
pub(crate) fn homogenize(
    counts: &mut [ComponentCounts],
    macros: &[usize],
    n_macros: usize,
    adcs: &[AdcConfig],
    hw: &HardwareParams,
    budget: Watts,
    df: &Dataflow,
) -> ComponentCounts {
    let adc = adcs[0]; // identical mode uses one ADC resolution everywhere
    let mut per_macro = ComponentCounts::default();
    for (i, c) in counts.iter().enumerate() {
        for kind in ComponentKind::ALL {
            let demand = c.count(kind).div_ceil(macros[i].max(1));
            let cur = per_macro.count_mut(kind);
            *cur = (*cur).max(demand);
        }
    }
    // Uniform shrink until the homogeneous chip fits the budget.
    loop {
        let total_power: f64 = ComponentKind::ALL
            .iter()
            .map(|&k| k.unit_power(adc, hw).value() * (per_macro.count(k) * n_macros) as f64)
            .sum();
        if total_power <= budget.value() || per_macro.total_units() <= ComponentKind::ALL.len() {
            break;
        }
        for kind in ComponentKind::ALL {
            let c = per_macro.count_mut(kind);
            if *c > 1 {
                *c = (*c * 4) / 5;
            }
        }
    }
    for (i, c) in counts.iter_mut().enumerate() {
        for kind in ComponentKind::ALL {
            let needed = workload(df, i, kind) > 0.0;
            *c.count_mut(kind) = if needed {
                (per_macro.count(kind) * macros[i]).max(1)
            } else {
                0
            };
        }
    }
    per_macro
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn_arch::{CrossbarConfig, DacConfig};
    use pimsyn_model::zoo;

    fn request_parts(total_power: f64) -> (Model, Dataflow, DesignPoint, Watts, HardwareParams) {
        let model = zoo::alexnet_cifar(10);
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dac = DacConfig::new(1).unwrap();
        let dup = vec![1; model.weight_layer_count()];
        let df = Dataflow::compile(&model, xb, dac, &dup).unwrap();
        let point = DesignPoint {
            ratio_rram: 0.3,
            crossbar: xb,
        };
        (
            model,
            df,
            point,
            Watts(total_power),
            HardwareParams::date24(),
        )
    }

    /// [`allocate_components`] over `parts` (see [`request_parts`]).
    fn allocate(
        parts: &(Model, Dataflow, DesignPoint, Watts, HardwareParams),
        macros: &[usize],
        shares: &[Option<usize>],
        macro_mode: MacroMode,
    ) -> Result<Architecture, DseError> {
        let (model, dataflow, point, total_power, hw) = parts;
        allocate_components(&AllocRequest {
            model,
            dataflow,
            point: *point,
            total_power: *total_power,
            hw,
            macros,
            shares,
            macro_mode,
        })
    }

    #[test]
    fn allocation_fits_budget_and_covers_workloads() {
        let parts = request_parts(9.0);
        let (model, df, _, power, _) = &parts;
        let l = model.weight_layer_count();
        let arch = allocate(&parts, &vec![1; l], &vec![None; l], MacroMode::Specialized).unwrap();
        // Every layer with ADC workload has converters; ALU classes with no
        // workload stay empty.
        for (i, lh) in arch.layers.iter().enumerate() {
            assert!(lh.components.adc >= 1, "layer {i} has no ADC");
            assert!(lh.components.shift_add >= 1);
            if df.program(i).pool_ops == 0 {
                assert_eq!(lh.components.pool, 0);
            }
        }
        // Realized power must respect the user constraint (5% rounding slack).
        let realized = arch.power_breakdown().total();
        assert!(
            realized.value() <= power.value() * 1.05,
            "realized {realized} exceeds budget {power}"
        );
        arch.validate(model).unwrap();
    }

    #[test]
    fn adc_gets_lions_share_of_power() {
        let parts = request_parts(9.0);
        let l = parts.0.weight_layer_count();
        let arch = allocate(&parts, &vec![1; l], &vec![None; l], MacroMode::Specialized).unwrap();
        let pb = arch.power_breakdown();
        assert!(
            pb.adc > pb.alu,
            "ADC power {} should dominate ALU {}",
            pb.adc,
            pb.alu
        );
    }

    #[test]
    fn tiny_budget_is_rejected() {
        // 0.2 W cannot even pay for 32 macros.
        let parts = request_parts(0.2);
        let l = parts.0.weight_layer_count();
        assert!(matches!(
            allocate(&parts, &vec![4; l], &vec![None; l], MacroMode::Specialized),
            Err(DseError::NoPeripheralPower { .. })
        ));
    }

    #[test]
    fn identical_mode_homogenizes_counts() {
        let parts = request_parts(9.0);
        let l = parts.0.weight_layer_count();
        let arch = allocate(&parts, &vec![1; l], &vec![None; l], MacroMode::Identical).unwrap();
        // All single-macro layers carry the same ADC count and resolution.
        let first = &arch.layers[0];
        for lh in &arch.layers {
            assert_eq!(lh.components.adc, first.components.adc);
            assert_eq!(lh.adc.bits(), first.adc.bits());
        }
    }

    /// The Eq. (6) remainder loop before delays were kept in a buffer: it
    /// recomputed every item's delay on each step.
    fn solve_reference(plan: &AllocPlan, n_macros: usize) -> Option<Vec<ComponentCounts>> {
        let periph_budget = plan.periph_budget(n_macros);
        if periph_budget.value() <= 0.0 || plan.denom <= 0.0 {
            return None;
        }
        let delay = plan.denom / periph_budget.value();
        let mut counts = vec![ComponentCounts::default(); plan.l];
        let mut spent = 0.0f64;
        for it in &plan.items {
            let ideal = it.w / (it.f * delay);
            let n = (ideal.floor() as usize).max(1);
            *counts[it.layer].count_mut(it.kind) = n;
            spent += it.p * n as f64;
        }
        let mut remaining = periph_budget.value() - spent;
        for _ in 0..(4 * plan.l * ComponentKind::ALL.len()) {
            let mut worst: Option<(usize, f64)> = None;
            for (idx, it) in plan.items.iter().enumerate() {
                let n = counts[it.layer].count(it.kind) as f64;
                let d = it.w / (it.f * n);
                if worst.is_none_or(|(_, wd)| d > wd) {
                    worst = Some((idx, d));
                }
            }
            let Some((idx, _)) = worst else { break };
            let it = plan.items[idx];
            if it.p > remaining {
                break;
            }
            let n = counts[it.layer].count(it.kind);
            let affordable = (remaining / it.p).floor() as usize;
            let boost = (n / 4).clamp(1, affordable.max(1));
            *counts[it.layer].count_mut(it.kind) = n + boost;
            remaining -= it.p * boost as f64;
        }
        Some(counts)
    }

    #[test]
    fn solve_matches_the_rescanning_remainder_loop_on_every_zoo_model() {
        let hw = HardwareParams::date24();
        // (crossbar size, cell bits, DAC bits, RatioRram, power W, mode)
        let points = [
            (128, 2, 1, 0.3, 9.0, MacroMode::Specialized),
            (256, 1, 2, 0.5, 65.0, MacroMode::Specialized),
            (512, 4, 1, 0.2, 150.0, MacroMode::Identical),
        ];
        for entry in zoo::entries() {
            let model = (entry.build)();
            let l = model.weight_layer_count();
            let mut solved = 0;
            for (k, &(size, cell, dac, ratio, power, mode)) in points.iter().enumerate() {
                let xb = CrossbarConfig::new(size, cell).unwrap();
                let dup: Vec<usize> = (0..l).map(|i| 1 + (i + k) % 3).collect();
                let df = Dataflow::compile(&model, xb, DacConfig::new(dac).unwrap(), &dup).unwrap();
                let point = DesignPoint {
                    ratio_rram: ratio,
                    crossbar: xb,
                };
                let plan = AllocPlan::prepare(&model, &df, point, Watts(power), &hw, mode);
                let cap: usize = crate::ea::max_macros(&df).iter().sum();
                for n_macros in 1..=cap {
                    let got = plan.solve(n_macros).ok();
                    assert_eq!(
                        got,
                        solve_reference(&plan, n_macros),
                        "{} n={n_macros}",
                        entry.name
                    );
                    solved += usize::from(got.is_some());
                }
            }
            assert!(solved > 0, "{}: no feasible solve was compared", entry.name);
        }
    }

    /// The lemma behind the identical bound's floor after a shrink step
    /// ([`AllocPlan::adc_slack`]), on every zoo model at three design
    /// points and every physical macro count `N` up to the caps' sum with
    /// `B(N) > 0`. `solve` keeps each item outside `K_all` within `5/4 r_xk
    /// n_xa + r_xk + 1`; `homogenize`'s per-macro counts keep `q_k <=
    /// lambda_k q_a + mu_k`; and after a shrink step the chip's per-macro
    /// counts cost at least `B(N) / 2`, and its kinds in `K_all` at least
    /// the shrunk floor.
    #[test]
    fn homogenized_counts_keep_the_adc_slack() {
        let hw = HardwareParams::date24();
        // (crossbar size, cell bits, DAC bits, RatioRram, power W)
        let points = [
            (128, 2, 1, 0.3, 9.0),
            (256, 1, 2, 0.5, 65.0),
            (512, 4, 1, 0.2, 150.0),
        ];
        let (mut checked, mut shrunk) = (0, 0);
        for entry in zoo::entries() {
            let model = (entry.build)();
            let l = model.weight_layer_count();
            for (k, &(size, cell, dac, ratio, power)) in points.iter().enumerate() {
                let xb = CrossbarConfig::new(size, cell).unwrap();
                let dup: Vec<usize> = (0..l).map(|i| 1 + (i + k) % 3).collect();
                let df = Dataflow::compile(&model, xb, DacConfig::new(dac).unwrap(), &dup).unwrap();
                let point = DesignPoint {
                    ratio_rram: ratio,
                    crossbar: xb,
                };
                let plan =
                    AllocPlan::prepare(&model, &df, point, Watts(power), &hw, MacroMode::Identical);
                let slack = plan.adc_slack().expect("every layer has ADC work");
                let outside = |kind: ComponentKind| slack[kind as usize].1 > 0.0;
                let [_, (a, c)] = plan.identical_floors(false);
                let mut adc_demand = vec![0.0; l];
                for it in plan.items.iter().filter(|it| it.kind == ComponentKind::Adc) {
                    adc_demand[it.layer] = it.w / it.f;
                }
                let cap: usize = crate::ea::max_macros(&df).iter().sum();
                for n in 1..=cap {
                    let Ok(solved) = plan.solve(n) else { continue };
                    let case = format!("{} point {k} N={n}", entry.name);
                    for it in plan.items.iter().filter(|it| outside(it.kind)) {
                        let r = it.w / it.f / adc_demand[it.layer];
                        let adcs = solved[it.layer].adc as f64;
                        let count = solved[it.layer].count(it.kind) as f64;
                        assert!(count <= 1.25 * r * adcs + r + 1.0, "{case}: {it:?}");
                    }
                    let macros: Vec<usize> = (0..l)
                        .map(|x| (n / l + usize::from(x < n % l)).max(1))
                        .collect();
                    let mut first = ComponentCounts::default();
                    for (c, &m) in solved.iter().zip(&macros) {
                        for kind in ComponentKind::ALL {
                            let q = first.count_mut(kind);
                            *q = (*q).max(c.count(kind).div_ceil(m));
                        }
                    }
                    let mut counts = solved.clone();
                    let budget = plan.periph_budget(n);
                    let q = homogenize(&mut counts, &macros, n, &plan.adcs, &hw, budget, &df);
                    for kind in ComponentKind::ALL.into_iter().filter(|&kind| outside(kind)) {
                        let (_, lambda, mu) = slack[kind as usize];
                        let bound = lambda * q.adc as f64 + mu;
                        assert!(q.count(kind) as f64 <= bound, "{case}: {kind} {q:?}");
                    }
                    checked += 1;
                    if q == first {
                        continue;
                    }
                    shrunk += 1;
                    let cost = |kinds: &mut dyn Iterator<Item = ComponentKind>| -> f64 {
                        kinds
                            .map(|kind| slack[kind as usize].0 * (q.count(kind) * n) as f64)
                            .sum()
                    };
                    let all = cost(&mut ComponentKind::ALL.into_iter());
                    assert!(all >= 0.5 * budget.value(), "{case}: {q:?}");
                    let in_all = cost(&mut ComponentKind::ALL.into_iter().filter(|&k| !outside(k)));
                    let floor = a + c * n as f64;
                    assert!(in_all >= floor * (1.0 - 1e-9), "{case}: {in_all} < {floor}");
                }
            }
        }
        assert!(
            shrunk > 0 && shrunk < checked,
            "{shrunk} of {checked} shrank"
        );
    }

    #[test]
    fn sharing_lowers_fixed_cost_and_frees_periph_power() {
        let parts = request_parts(9.0);
        let l = parts.0.weight_layer_count();
        let macros = vec![1usize; l];
        let mut shared = vec![None; l];
        shared[l - 1] = Some(0); // fc8 shares conv1's macro (staggered in time)
        let arch_solo = allocate(&parts, &macros, &vec![None; l], MacroMode::Specialized).unwrap();
        let arch_shared = allocate(&parts, &macros, &shared, MacroMode::Specialized).unwrap();
        assert_eq!(arch_shared.macro_count() + 1, arch_solo.macro_count());
        // Freed fixed power lets the allocator buy at least as many ADCs.
        let adcs_solo: usize = arch_solo.layers.iter().map(|x| x.components.adc).sum();
        let adcs_shared: usize = arch_shared.layers.iter().map(|x| x.components.adc).sum();
        assert!(adcs_shared >= adcs_solo);
    }
}
