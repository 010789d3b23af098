//! Batch inference (paper §5.4): serving many images through a
//! partitioned model, sequentially (AMPS-Inf-Seq, the BATCH-comparable
//! mode) and in parallel.
//!
//! ```text
//! cargo run --release --example batch_serving
//! ```

use amps_inf::prelude::*;
use amps_inf::serving::batch_baseline::run_batch_baseline;

fn main() {
    let model = zoo::mobilenet_v1();
    // The paper's Fig. 13 workload: 100 images as 10 batches of 10 —
    // AMPS-Inf plans *for the batch* (the paper's batch configuration used
    // larger blocks: 2048/2176 MB), not for a single image.
    let (batch, batches) = (10u64, 10usize);
    let cfg = AmpsConfig::default().with_batch(batch);
    let plan = Optimizer::new(cfg.clone())
        .optimize(&model)
        .expect("MobileNet optimizes")
        .plan;
    println!("plan (batch-aware): {plan}\n");
    println!(
        "workload: {} images as {} batches of {}\n",
        batch as usize * batches,
        batches,
        batch
    );

    let batch_sys =
        run_batch_baseline(&model, &cfg, 2048, batch, batches).expect("MobileNet fits one lambda");
    // AMPS-Inf deploys the plan for batches of `batch` images and serves
    // each batch as one request of the coordinator's sequential and
    // parallel modes.
    let coord = Coordinator::new(cfg.clone());
    let serve = |parallel: bool| {
        let mut platform = coord.platform();
        let dep = coord
            .deploy_batch(&mut platform, &model, &plan, batch)
            .unwrap();
        let r = if parallel {
            coord.serve_parallel(&mut platform, &dep, batches, 0.0)
        } else {
            coord.serve_sequential(&mut platform, &dep, batches, 0.0)
        };
        let dollars = r.dollars + platform.settle_storage(r.completion_s);
        (r.completion_s, dollars)
    };
    let (seq_s, seq_dollars) = serve(false);
    let (par_s, par_dollars) = serve(true);

    println!("{:<22} {:>12} {:>12}", "system", "time (s)", "cost ($)");
    println!(
        "{:<22} {:>12.2} {:>12.5}",
        "BATCH [23] (1 lambda)", batch_sys.completion_s, batch_sys.dollars
    );
    println!(
        "{:<22} {:>12.2} {:>12.5}",
        "AMPS-Inf-Seq", seq_s, seq_dollars
    );
    println!(
        "{:<22} {:>12.2} {:>12.5}",
        "AMPS-Inf (parallel)", par_s, par_dollars
    );

    println!(
        "\nAMPS-Inf-Seq beats BATCH on both axes at the same batching\n\
         policy; parallel invocation then collapses the completion time\n\
         at almost unchanged cost — the paper's Fig. 13 shape."
    );

    // A parallel 10-image batch for the larger models (paper Table 5).
    println!("\nten parallel single-image requests, per model:");
    println!("{:<14} {:>10} {:>12}", "model", "time (s)", "cost ($)");
    for model in [zoo::resnet50(), zoo::inception_v3(), zoo::xception()] {
        let plan = Optimizer::new(cfg.clone()).optimize(&model).unwrap().plan;
        let coord = Coordinator::new(cfg.clone());
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &model, &plan).unwrap();
        let report = coord.serve_parallel(&mut platform, &dep, 10, 0.0);
        let dollars = report.dollars + platform.settle_storage(report.completion_s);
        println!(
            "{:<14} {:>10.2} {:>12.5}",
            model.name, report.completion_s, dollars
        );
    }
}
