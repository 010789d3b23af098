//! Online plan cache: `(model, SLO, batch) → ExecutionPlan`.
//!
//! An adaptive serving loop re-plans when load shifts the SLO pressure
//! (DESIGN.md §6d). A full [`Optimizer::optimize`] call is far too slow
//! to sit on the serving path, so the controller consults this cache:
//! seeded up front from an [`Optimizer::optimize_sweep`] over the SLO
//! tiers it may visit, and filled on demand for anything the seed
//! missed. Infeasible outcomes are cached too — re-asking whether a
//! tier is infeasible must be as cheap as a hit.
//!
//! Keys quantize nothing: the SLO is keyed by its exact bit pattern
//! (`f64::to_bits`), so the cache never conflates two tiers that differ
//! in the last ulp, and a cached plan is bit-identical to the plan an
//! independent `optimize()` at that `(slo, batch)` point would return
//! (the sweep guarantees that contract already).

use ampsinf_model::LayerGraph;

use crate::config::AmpsConfig;
use crate::optimizer::{OptimizeError, Optimizer};
use crate::plan::{EffectivePlan, ExecutionPlan};
use crate::sweep::{DagSweepReport, SweepReport};
use crate::FixedHashMap;

/// Cache key: model name, SLO bit pattern (`None` = unconstrained),
/// batch size.
type PlanKey = (String, Option<u64>, u64);

/// An online `(model, SLO, batch) → plan` cache with hit/miss/plan
/// counters. See the module docs.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: FixedHashMap<PlanKey, Result<ExecutionPlan, OptimizeError>>,
    effective: FixedHashMap<PlanKey, Result<EffectivePlan, OptimizeError>>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached points (feasible and infeasible), chain and
    /// effective tables combined.
    pub fn len(&self) -> usize {
        self.entries.len() + self.effective.len()
    }

    /// Whether the cache holds no points.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.effective.is_empty()
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to run the optimizer.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Seeds the cache with every point of a completed sweep (feasible
    /// or not), keyed under `model`. Returns how many points were newly
    /// inserted; already-cached keys keep their existing entry.
    pub fn seed_from_sweep(&mut self, model: &str, report: &SweepReport) -> usize {
        let mut inserted = 0;
        for p in &report.points {
            let key = (model.to_string(), Some(p.slo_s.to_bits()), p.batch);
            if let std::collections::hash_map::Entry::Vacant(e) = self.entries.entry(key) {
                e.insert(p.outcome.clone());
                inserted += 1;
            }
        }
        inserted
    }

    /// Seeds the *effective*-plan table with every point of a completed
    /// DAG sweep: the point's branch-parallel winner when the search beat
    /// the chain, otherwise its chain incumbent (infeasible points cache
    /// their error). Returns how many points were newly inserted;
    /// already-cached keys keep their existing entry.
    pub fn seed_from_dag_sweep(&mut self, model: &str, report: &DagSweepReport) -> usize {
        let mut inserted = 0;
        for p in &report.points {
            let key = (model.to_string(), Some(p.slo_s.to_bits()), p.batch);
            if let std::collections::hash_map::Entry::Vacant(e) = self.effective.entry(key) {
                let outcome = match (&p.dag, &p.outcome) {
                    (Some(dag), _) => Ok(EffectivePlan::Dag(dag.clone())),
                    (None, Ok(chain)) => Ok(EffectivePlan::Chain(chain.clone())),
                    (None, Err(err)) => Err(err.clone()),
                };
                e.insert(outcome);
                inserted += 1;
            }
        }
        inserted
    }

    /// The *effective* plan (chain or DAG, whichever the twin-objective
    /// search recommends) at `(graph.name, slo_s, batch)`, planning on a
    /// miss via [`Optimizer::optimize_dag`]. The effective table is
    /// keyed separately from [`PlanCache::get_or_plan`]'s chain table —
    /// the same `(SLO, batch)` point may hold both a chain plan and an
    /// effective plan, and their hit/miss counters are shared.
    pub fn get_or_plan_effective(
        &mut self,
        graph: &LayerGraph,
        cfg: &AmpsConfig,
        slo_s: Option<f64>,
        batch: u64,
    ) -> Result<EffectivePlan, OptimizeError> {
        let key = (graph.name.clone(), slo_s.map(f64::to_bits), batch);
        if let Some(cached) = self.effective.get(&key) {
            self.hits += 1;
            return cached.clone();
        }
        self.misses += 1;
        let mut point_cfg = cfg.clone();
        point_cfg.slo_s = slo_s;
        point_cfg.batch_size = batch;
        let outcome = Optimizer::new(point_cfg)
            .optimize_dag(graph)
            .map(|r| match r.dag {
                Some(dag) => EffectivePlan::Dag(dag),
                None => EffectivePlan::Chain(r.chain.plan),
            });
        self.effective.insert(key, outcome.clone());
        outcome
    }

    /// The plan at `(graph.name, slo_s, batch)`, planning on a miss.
    ///
    /// A miss clones `cfg`, overrides its SLO and batch with the key's,
    /// and runs a full [`Optimizer::optimize`]; the outcome — including
    /// an infeasibility error — is cached, so repeated probes of an
    /// infeasible tier cost one solve total. `cfg`'s other knobs
    /// (quotas, prices, tolerance, threads) are baked into whatever the
    /// cache returns: use one config per cache.
    pub fn get_or_plan(
        &mut self,
        graph: &LayerGraph,
        cfg: &AmpsConfig,
        slo_s: Option<f64>,
        batch: u64,
    ) -> Result<ExecutionPlan, OptimizeError> {
        let key = (graph.name.clone(), slo_s.map(f64::to_bits), batch);
        if let Some(cached) = self.entries.get(&key) {
            self.hits += 1;
            return cached.clone();
        }
        self.misses += 1;
        let mut point_cfg = cfg.clone();
        point_cfg.slo_s = slo_s;
        point_cfg.batch_size = batch;
        let outcome = Optimizer::new(point_cfg).optimize(graph).map(|r| r.plan);
        self.entries.insert(key, outcome.clone());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepGrid;
    use ampsinf_model::zoo;

    #[test]
    fn miss_plans_and_hit_returns_same_plan() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let mut cache = PlanCache::new();
        let a = cache.get_or_plan(&g, &cfg, None, 1).unwrap();
        let b = cache.get_or_plan(&g, &cfg, None, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn sweep_seed_turns_lookups_into_hits() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let free = Optimizer::new(cfg.clone())
            .optimize(&g)
            .unwrap()
            .plan
            .predicted_time_s;
        let slos = vec![free * 1.2, free * 2.0];
        let report =
            Optimizer::new(cfg.clone()).optimize_sweep(&g, &SweepGrid::from_slos(slos.clone()));
        let mut cache = PlanCache::new();
        assert_eq!(cache.seed_from_sweep(&g.name, &report), 2);
        for (i, slo) in slos.iter().enumerate() {
            let cached = cache.get_or_plan(&g, &cfg, Some(*slo), 1).unwrap();
            let direct = report.points[i].outcome.clone().unwrap();
            assert_eq!(cached, direct, "seeded plan must match the sweep's");
        }
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn infeasible_outcomes_are_cached_not_resolved() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let mut cache = PlanCache::new();
        let tight = 1e-6; // no plan can finish in a microsecond
        assert!(cache.get_or_plan(&g, &cfg, Some(tight), 1).is_err());
        assert!(cache.get_or_plan(&g, &cfg, Some(tight), 1).is_err());
        assert_eq!(cache.misses(), 1, "second probe must be a hit");
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn effective_miss_plans_and_hit_returns_same_plan() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let mut cache = PlanCache::new();
        let a = cache.get_or_plan_effective(&g, &cfg, None, 1).unwrap();
        let b = cache.get_or_plan_effective(&g, &cfg, None, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // A straight chain has no branches to parallelize: the effective
        // plan is the chain incumbent.
        assert!(matches!(a, EffectivePlan::Chain(_)));
    }

    #[test]
    fn effective_table_is_keyed_apart_from_the_chain_table() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let mut cache = PlanCache::new();
        let chain = cache.get_or_plan(&g, &cfg, None, 1).unwrap();
        let effective = cache.get_or_plan_effective(&g, &cfg, None, 1).unwrap();
        assert_eq!(cache.len(), 2, "same point, two tables");
        assert_eq!(cache.misses(), 2, "neither lookup may serve the other");
        assert_eq!(effective, EffectivePlan::Chain(chain));
    }

    #[test]
    fn dag_sweep_seed_yields_branch_parallel_effective_plans() {
        // Inception-v3 at batch 64 is the canonical branch-parallel win:
        // the seeded effective plan must be the sweep's DAG winner, and
        // looking it up must not re-solve.
        let g = zoo::inception_v3();
        let cfg = AmpsConfig {
            batch_size: 64,
            ..Default::default()
        };
        let free = Optimizer::new(cfg.clone())
            .optimize(&g)
            .unwrap()
            .plan
            .predicted_time_s;
        let slo = free * 2.0;
        let grid = SweepGrid::from_slos(vec![slo]).with_batches(vec![64]);
        let report = Optimizer::new(cfg.clone()).optimize_dag_sweep(&g, &grid);
        let mut cache = PlanCache::new();
        assert_eq!(cache.seed_from_dag_sweep(&g.name, &report), 1);
        assert_eq!(cache.seed_from_dag_sweep(&g.name, &report), 0, "idempotent");
        let cached = cache
            .get_or_plan_effective(&g, &cfg, Some(slo), 64)
            .unwrap();
        let direct = report.points[0].dag.clone().expect("DAG must win");
        assert_eq!(cached, EffectivePlan::Dag(direct));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn effective_infeasible_outcomes_are_cached_not_resolved() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let mut cache = PlanCache::new();
        let tight = 1e-6;
        assert!(cache
            .get_or_plan_effective(&g, &cfg, Some(tight), 1)
            .is_err());
        assert!(cache
            .get_or_plan_effective(&g, &cfg, Some(tight), 1)
            .is_err());
        assert_eq!(cache.misses(), 1, "second probe must be a hit");
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn keys_distinguish_slo_bits_and_batch() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let mut cache = PlanCache::new();
        cache.get_or_plan(&g, &cfg, None, 1).unwrap();
        cache.get_or_plan(&g, &cfg, None, 4).unwrap();
        cache.get_or_plan(&g, &cfg, Some(1e9), 1).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
    }
}
