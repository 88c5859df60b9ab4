//! Dataflow deep-dive: compile a small CNN and print each layer's program
//! (block/bit structure and per-block IR counts) and the Fig. 4 pipeline
//! fill between layers.
//!
//! ```text
//! cargo run --release --example dataflow_inspect
//! ```

use pimsyn_arch::{CrossbarConfig, DacConfig};
use pimsyn_ir::Dataflow;
use pimsyn_model::{ModelBuilder, TensorShape};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut b = ModelBuilder::new("toy", TensorShape::new(3, 16, 16));
    let c1 = b.conv("conv1", None, 16, 3, 1, 1);
    let r1 = b.relu("relu1", c1);
    let p1 = b.max_pool("pool1", r1, 2, 2);
    let c2 = b.conv("conv2", Some(p1), 32, 3, 1, 1);
    let r2 = b.relu("relu2", c2);
    let f = b.flatten("flatten", r2);
    b.linear("fc", f, 10);
    let model = b.build()?;

    let dataflow = Dataflow::compile(
        &model,
        CrossbarConfig::new(128, 2)?,
        DacConfig::new(4)?,
        &[8, 4, 1],
    )?;

    println!("compiled {} layer programs:", dataflow.programs().len());
    for p in dataflow.programs() {
        println!(
            "  {:<8} dup {:>2} blocks {:>4} bits {} xbars {:>3} adc/blk-bit {:>5} load/blk {:>5}",
            p.name, p.wt_dup, p.blocks, p.bits, p.crossbars, p.adc_samples, p.load_elems
        );
    }

    println!("\ninter-layer pipeline fill (Fig. 4 semantics):");
    for (consumer, p) in dataflow.programs().iter().enumerate() {
        for (&producer, &fill) in p.producers.iter().zip(&p.producer_fill) {
            println!("  layer {consumer} waits for {fill} block(s) of layer {producer}");
        }
    }
    Ok(())
}
