//! Per-category cost accounting.
//!
//! The paper's Eq. (3) decomposes a lambda's cost into compute (`v·T`),
//! intermediate storage (`q·T·H`), request fees (`G`, `U`) and invocation
//! (`I`); SageMaker comparisons add VM time. The ledger keeps one running
//! total per category so the repro harness can print the same
//! decompositions.

/// Cost category, mirroring the paper's cost-model terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostItem {
    /// Lambda GB-seconds (the paper's `v_{j,i} · T`).
    LambdaCompute,
    /// Lambda invocation fee (the paper's `I`).
    LambdaRequest,
    /// Storage PUT fee (the paper's `U`).
    StoragePut,
    /// Storage GET fee (the paper's `G`).
    StorageGet,
    /// Storage at-rest cost over time (the paper's `H`).
    StorageAtRest,
    /// VM instance time (SageMaker notebook / hosting).
    VmTime,
    /// Provisioned/keep-warm idle capacity (warm-pool policies that bill
    /// idle time, like Lambda provisioned concurrency).
    WarmPoolIdle,
}

impl CostItem {
    /// Number of cost categories (size of the running-totals table).
    pub const COUNT: usize = 7;

    /// Every category, in slot order.
    pub const ALL: [CostItem; CostItem::COUNT] = [
        CostItem::LambdaCompute,
        CostItem::LambdaRequest,
        CostItem::StoragePut,
        CostItem::StorageGet,
        CostItem::StorageAtRest,
        CostItem::VmTime,
        CostItem::WarmPoolIdle,
    ];

    /// Dense slot of this category in the running-totals table.
    const fn slot(self) -> usize {
        self as usize
    }
}

/// Cost ledger: the running dollar total of each category.
///
/// A charge adds to its category's total, so [`CostLedger::total`] and
/// [`CostLedger::total_of`] are O(1) — the serving hot path charges
/// several times per request and sums totals per request.
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    totals: [f64; CostItem::COUNT],
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a charge.
    pub fn charge(&mut self, item: CostItem, dollars: f64) {
        debug_assert!(dollars >= 0.0, "negative charge");
        self.totals[item.slot()] += dollars;
    }

    /// Total dollars across all categories. Summed in fixed category
    /// order, so serial and sharded runs that accrue the same per-category
    /// amounts report bit-identical totals.
    pub fn total(&self) -> f64 {
        self.totals.iter().sum()
    }

    /// Total dollars for one category.
    pub fn total_of(&self, item: CostItem) -> f64 {
        self.totals[item.slot()]
    }

    /// Merges `other` into `self`: category totals add element-wise.
    pub fn absorb(&mut self, other: CostLedger) {
        for (mine, theirs) in self.totals.iter_mut().zip(other.totals) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_by_category() {
        let mut l = CostLedger::new();
        l.charge(CostItem::LambdaCompute, 0.001);
        l.charge(CostItem::LambdaCompute, 0.002);
        l.charge(CostItem::StoragePut, 0.000005);
        assert!((l.total() - 0.003005).abs() < 1e-12);
        assert!((l.total_of(CostItem::LambdaCompute) - 0.003).abs() < 1e-12);
        assert!((l.total_of(CostItem::VmTime) - 0.0).abs() < 1e-15);
    }

    #[test]
    fn absorb_merges() {
        let mut a = CostLedger::new();
        a.charge(CostItem::VmTime, 0.01);
        a.charge(CostItem::LambdaCompute, 0.002);
        let mut b = CostLedger::new();
        b.charge(CostItem::LambdaRequest, 0.0000002);
        b.charge(CostItem::WarmPoolIdle, 0.001);
        a.absorb(b);
        assert!((a.total() - 0.0130002).abs() < 1e-12);
        assert!((a.total_of(CostItem::VmTime) - 0.01).abs() < 1e-15);
        assert!((a.total_of(CostItem::WarmPoolIdle) - 0.001).abs() < 1e-15);
    }
}
