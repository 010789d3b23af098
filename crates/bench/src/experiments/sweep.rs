//! `ext-sweep` — the cost-vs-SLO curve behind the paper's Fig. 8 cost
//! discussion, produced by one amortized [`Optimizer::optimize_sweep`]
//! call instead of N independent solves, with the Pareto frontier and
//! knee marked.

use crate::Table;
use ampsinf_core::{AmpsConfig, Optimizer, SweepGrid};
use ampsinf_model::zoo;
use std::time::Instant;

/// ResNet-50 cost vs SLO over a 12-point grid spanning 0.9–1.5× the
/// unconstrained optimum's time, plus the measured amortization factor.
pub fn ext_sweep() -> Table {
    let g = zoo::resnet50();
    let cfg = AmpsConfig::default();
    let free = Optimizer::new(cfg.clone().with_threads(1))
        .optimize(&g)
        .unwrap();
    let t_free = free.plan.predicted_time_s;
    let grid = SweepGrid::slo_range(t_free * 0.9, t_free * 1.5, 12);

    let sweep_t0 = Instant::now();
    let report = Optimizer::new(cfg.clone().with_threads(1)).optimize_sweep(&g, &grid);
    let sweep_time = sweep_t0.elapsed();
    let cold_t0 = Instant::now();
    for &s in &grid.slos {
        let _ = Optimizer::new(cfg.clone().with_slo(s).with_threads(1)).optimize(&g);
    }
    let cold_time = cold_t0.elapsed();

    let mut t = Table::new(
        "ext-sweep",
        "ResNet50 cost vs SLO, 12-point amortized sweep (frontier: 2=knee, 1=pareto, 0=dominated)",
        &["time (s)", "cost ($)", "lambdas", "frontier"],
    );
    for p in &report.points {
        let label = format!("slo={:.2}s", p.slo_s);
        match &p.outcome {
            Ok(plan) => {
                let frontier = if p.knee {
                    2.0
                } else if p.dominated {
                    0.0
                } else {
                    1.0
                };
                t.row_all(
                    label,
                    &[
                        plan.predicted_time_s,
                        plan.predicted_cost,
                        plan.num_lambdas() as f64,
                        frontier,
                    ],
                );
            }
            Err(_) => t.row(label, vec![None, None, None, None]),
        }
    }
    let speedup = cold_time.as_secs_f64() / sweep_time.as_secs_f64().max(1e-9);
    t.notes = "Shape: as the SLO loosens, cost never rises and time never falls, so no \
               point is dominated (every plan bit-identical to an independent solve); the \
               knee marks where extra latency stops buying savings. Amortization: one sweep call shares pass-1 state across \
               the 12 points, and each point runs a cold solve's pass 2 (`repro ext-sweep` \
               prints its time against 12 cold solves)."
        .into();
    t.timing = format!(
        "one sweep call took {:.0} ms vs {:.0} ms for 12 cold solves ({speedup:.1}x)",
        sweep_time.as_secs_f64() * 1000.0,
        cold_time.as_secs_f64() * 1000.0,
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_sweep_cost_is_monotone_and_frontier_nonempty() {
        let t = ext_sweep();
        assert_eq!(t.rows.len(), 12);
        let solved: Vec<&Vec<Option<f64>>> = t
            .rows
            .iter()
            .map(|(_, v)| v)
            .filter(|v| v[1].is_some())
            .collect();
        assert!(solved.len() >= 3, "most of the grid should be feasible");
        for w in solved.windows(2) {
            assert!(
                w[1][1].unwrap() <= w[0][1].unwrap() + 1e-12,
                "cost must not increase as the SLO loosens"
            );
            assert!(
                w[1][0].unwrap() >= w[0][0].unwrap() * (1.0 - 1e-12),
                "time must not fall as the SLO loosens"
            );
        }
        assert!(
            solved.iter().all(|v| v[3].unwrap() >= 1.0),
            "no point may be dominated"
        );
    }
}
