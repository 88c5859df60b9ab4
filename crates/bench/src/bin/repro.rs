//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p pimsyn-bench --release --bin repro -- all
//! cargo run -p pimsyn-bench --release --bin repro -- table4 fig6
//! ```
//!
//! Targets: `table1 table3 table4 table5 fig5 fig6 fig6-quick fig7 fig8 fig9
//! sensitivity all`. `all` runs every target but `fig6-quick`.

use pimsyn_baselines::published::{
    FIG7_SA_VS_HEURISTIC, FIG8_SPECIALIZED_VS_IDENTICAL, FIG9_SHARING_VS_NOT,
};
use pimsyn_bench as bench;
use pimsyn_model::zoo;

fn run(target: &str) {
    match target {
        "table1" => println!("{}", bench::table1_design_space()),
        "table3" => println!("{}", bench::table3_components()),
        "table4" => println!("{}", bench::table4_peak_efficiency()),
        "fig5" => println!("{}", bench::render_fig5(&bench::fig5_adc_reuse())),
        "fig6" => {
            let rows = bench::fig6_effective_vs_isaac(&zoo::imagenet_suite());
            println!("{}", bench::render_fig6(&rows));
        }
        "fig6-quick" => {
            let rows = bench::fig6_effective_vs_isaac(&[zoo::alexnet(), zoo::resnet18()]);
            println!("{}", bench::render_fig6(&rows));
        }
        "table5" => println!("{}", bench::render_table5(&bench::table5_gibbon())),
        "fig7" => println!(
            "{}",
            bench::render_ablation(
                "Fig. 7 — weight duplication strategies (normalized to ISAAC)",
                &bench::fig7_weight_duplication(),
                FIG7_SA_VS_HEURISTIC,
            )
        ),
        "fig8" => println!(
            "{}",
            bench::render_ablation(
                "Fig. 8 — identical vs specialized macros (normalized to ISAAC)",
                &bench::fig8_macro_specialization(),
                FIG8_SPECIALIZED_VS_IDENTICAL,
            )
        ),
        "fig9" => println!(
            "{}",
            bench::render_ablation(
                "Fig. 9 — inter-layer macro sharing (normalized to ISAAC)",
                &bench::fig9_macro_sharing(),
                FIG9_SHARING_VS_NOT,
            )
        ),
        "sensitivity" => println!("{}", bench::dse_sensitivity()),
        "all" => {
            for t in "table1 table3 table4 fig5 fig6 table5 fig7 fig8 fig9 sensitivity".split(' ') {
                run(t);
            }
        }
        other => {
            eprintln!("unknown target `{other}`");
            eprintln!(
                "targets: table1 table3 table4 table5 fig5 fig6 fig6-quick fig7 fig8 fig9 \
                 sensitivity all"
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        run("all");
    } else {
        for a in &args {
            run(a);
        }
    }
}
