//! One module per group of paper experiments; [`registry`] maps ids to
//! runnable experiments.

mod baseline_cmp;
mod extensions;
mod motivation;
mod overhead;
mod related;
mod sagemaker_cmp;
mod sweep;

use crate::Table;
use ampsinf_core::{AmpsConfig, Coordinator, ExecutionPlan};
use ampsinf_model::LayerGraph;

/// An experiment id paired with the function that produces its table.
pub type Experiment = (&'static str, fn() -> Table);

/// All experiment ids in paper order, with the producing function.
pub fn registry() -> Vec<Experiment> {
    vec![
        ("table1", motivation::table1 as fn() -> Table),
        ("fig1", motivation::fig1),
        ("table2", motivation::table2),
        ("fig2", motivation::fig2),
        ("table3", motivation::table3),
        ("fig5", sagemaker_cmp::fig5),
        ("fig6", sagemaker_cmp::fig6),
        ("table4", sagemaker_cmp::table4),
        ("fig7", sagemaker_cmp::fig7),
        ("fig8", sagemaker_cmp::fig8),
        ("fig9", baseline_cmp::fig9),
        ("fig10", baseline_cmp::fig10),
        ("fig11", related::fig11),
        ("fig12", sagemaker_cmp::fig12),
        ("table5", related::table5),
        ("fig13", related::fig13),
        ("overhead", overhead::overhead),
        ("ext-store", extensions::ext_store),
        ("ext-branches", extensions::ext_branches),
        ("ext-quota", extensions::ext_quota),
        ("ext-quantize", extensions::ext_quantize),
        ("ext-pipeline", extensions::ext_pipeline),
        ("ext-stations", extensions::ext_stations),
        ("ext-parallel", extensions::ext_parallel),
        ("ext-costmodel", extensions::ext_costmodel),
        ("ext-load", extensions::ext_load),
        ("ext-sweep", sweep::ext_sweep),
    ]
}

/// Runs one experiment by id.
pub fn run(id: &str) -> Option<Table> {
    registry()
        .into_iter()
        .find(|(eid, _)| *eid == id)
        .map(|(_, f)| f())
}

/// How a batch experiment serves its batches on the coordinator.
#[derive(Debug, Clone, Copy)]
enum BatchMode {
    /// One batch after another (AMPS-Inf-Seq).
    Sequential,
    /// Every batch at once (AMPS-Inf's parallel mode).
    Parallel,
    /// Batches overlapping across the plan's stages.
    Pipelined,
}

/// Deploys `plan` for batches of `batch` images on a fresh platform and
/// serves `batches` of them in `mode`: `(completion_s, dollars)`, storage
/// settled at the completion.
fn serve_batches(
    g: &LayerGraph,
    plan: &ExecutionPlan,
    cfg: &AmpsConfig,
    batch: u64,
    batches: usize,
    mode: BatchMode,
) -> (f64, f64) {
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let dep = coord.deploy_batch(&mut platform, g, plan, batch).unwrap();
    let (completion_s, dollars) = match mode {
        BatchMode::Sequential => {
            let r = coord.serve_sequential(&mut platform, &dep, batches, 0.0);
            (r.completion_s, r.dollars)
        }
        BatchMode::Parallel => {
            let r = coord.serve_parallel(&mut platform, &dep, batches, 0.0);
            (r.completion_s, r.dollars)
        }
        BatchMode::Pipelined => {
            let r = coord.serve_pipelined(&mut platform, &dep, batches, 0.0);
            (r.completion_s, r.dollars)
        }
    };
    (
        completion_s,
        dollars + platform.settle_storage(completion_s),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_paper_artifact() {
        let ids: Vec<&str> = registry().iter().map(|(id, _)| *id).collect();
        for required in [
            "table1", "table2", "table3", "table4", "table5", "fig1", "fig2", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "overhead",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run("fig99").is_none());
    }
}
