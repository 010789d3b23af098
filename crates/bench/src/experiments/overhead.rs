//! §5.4 optimizer-overhead accounting: "the running time overhead of
//! AMPS-Inf incurred by the MIQP solver is within a few seconds on a
//! laptop"; "AMPS-Inf took a few milliseconds to accomplish the
//! configuration calculations" (§5.2).

use crate::Table;
use ampsinf_core::{AmpsConfig, Optimizer};
use ampsinf_model::zoo;

/// The paper's bound on the optimizer's running time, seconds.
const PAPER_BOUND_S: f64 = 5.0;

/// Optimizer overhead per evaluation model. The table records only
/// deterministic columns plus whether each solve met the paper's bound;
/// the measured solve times go to [`Table::timing`].
pub fn overhead() -> Table {
    let cfg = AmpsConfig::default();
    let mut t = Table::new(
        "overhead",
        "Optimizer overhead (cut enumeration + MIQP solving; 1 = solved within the paper's 5 s bound)",
        &["cuts", "MIQPs", "lambdas", "within 5 s"],
    );
    t.count_columns = vec![0, 1, 2, 3];
    let mut times = Vec::new();
    for g in [
        zoo::mobilenet_v1(),
        zoo::resnet50(),
        zoo::inception_v3(),
        zoo::xception(),
    ] {
        let r = Optimizer::new(cfg.clone()).optimize(&g).unwrap();
        let solve_s = r.solve_time.as_secs_f64();
        t.row_all(
            g.name.clone(),
            &[
                r.cuts_considered as f64,
                r.miqps_solved as f64,
                r.plan.num_lambdas() as f64,
                f64::from(u8::from(solve_s <= PAPER_BOUND_S)),
            ],
        );
        times.push(format!("{} {:.1} ms", g.name, solve_s * 1000.0));
    }
    t.notes = "Shape: end-to-end optimization stays within the paper's 'few seconds on a \
               laptop' bound for every model."
        .into();
    t.timing = format!("solve times: {}", times.join(", "));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_within_paper_bound() {
        let t = overhead();
        for (label, v) in &t.rows {
            assert!(v[0].unwrap() >= 1.0, "{label}: no cuts");
            assert_eq!(v[3], Some(1.0), "{label}: over 5 s ({})", t.timing);
        }
    }
}
