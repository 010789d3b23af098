//! Itemized cost accounting.
//!
//! The paper's Eq. (3) decomposes a lambda's cost into compute (`v·T`),
//! intermediate storage (`q·T·H`), request fees (`G`, `U`) and invocation
//! (`I`); SageMaker comparisons add VM time. The ledger keeps each dollar
//! attributed so the repro harness can print the same decompositions.

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
    /// Data transfer fees.
    DataTransfer,
    /// Provisioned/keep-warm idle capacity (warm-pool policies that bill
    /// idle time, like Lambda provisioned concurrency).
    WarmPoolIdle,
}

impl CostItem {
    /// Number of cost categories (size of the running-totals table).
    pub const COUNT: usize = 8;

    /// Dense slot of this category in the running-totals table.
    const fn slot(self) -> usize {
        self as usize
    }
}

/// Attribution of a ledger line. The hot serving path charges millions of
/// entries per load run, so the common attributions (object keys,
/// deployed-function ids, static labels) are stored without allocating;
/// free-form text remains available for cold paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Note {
    /// A static attribution label.
    Label(&'static str),
    /// Free-form attribution text (cold paths only).
    Text(String),
    /// A storage object, by its key.
    Object(crate::storage::ObjectKey),
    /// A deployed function, by id.
    Function(crate::platform::FunctionId),
}

impl std::fmt::Display for Note {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Note::Label(s) => f.write_str(s),
            Note::Text(s) => f.write_str(s),
            Note::Object(k) => write!(f, "{k}"),
            Note::Function(id) => write!(f, "fn#{}", id.0),
        }
    }
}

impl From<&'static str> for Note {
    fn from(s: &'static str) -> Self {
        Note::Label(s)
    }
}

impl From<String> for Note {
    fn from(s: String) -> Self {
        Note::Text(s)
    }
}

impl From<crate::storage::ObjectKey> for Note {
    fn from(k: crate::storage::ObjectKey) -> Self {
        Note::Object(k)
    }
}

impl From<crate::platform::FunctionId> for Note {
    fn from(id: crate::platform::FunctionId) -> Self {
        Note::Function(id)
    }
}

/// One ledger line.
#[derive(Debug, Clone)]
pub struct CostEntry {
    /// What kind of charge.
    pub item: CostItem,
    /// Dollars.
    pub dollars: f64,
    /// Attribution (function, object key, free text).
    pub note: Note,
}

/// Append-only cost ledger.
///
/// Per-category running totals are maintained on every charge, so
/// [`CostLedger::total`] and [`CostLedger::total_of`] are O(1) regardless
/// of entry count — the serving hot path charges several lines per
/// request and sums totals per request. Itemized entries (the audit
/// trail) can be switched off with [`CostLedger::set_itemized`] for
/// throughput runs where only the totals matter; the totals themselves
/// always accrue.
#[derive(Debug, Clone)]
pub struct CostLedger {
    entries: Vec<CostEntry>,
    totals: [f64; CostItem::COUNT],
    itemized: bool,
}

impl Default for CostLedger {
    fn default() -> Self {
        CostLedger {
            entries: Vec::new(),
            totals: [0.0; CostItem::COUNT],
            itemized: true,
        }
    }
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables the itemized audit trail. Totals always accrue;
    /// with itemization off, `charge` skips the per-line entry push (the
    /// serving engine turns this off on its throughput shards).
    pub fn set_itemized(&mut self, on: bool) {
        self.itemized = on;
    }

    /// Whether per-line entries are being recorded.
    pub fn is_itemized(&self) -> bool {
        self.itemized
    }

    /// Records a charge.
    pub fn charge(&mut self, item: CostItem, dollars: f64, note: impl Into<Note>) {
        debug_assert!(dollars >= 0.0, "negative charge");
        self.totals[item.slot()] += dollars;
        if self.itemized {
            self.entries.push(CostEntry {
                item,
                dollars,
                note: note.into(),
            });
        }
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

    /// All entries (empty when itemization was off).
    pub fn entries(&self) -> &[CostEntry] {
        &self.entries
    }

    /// Merges `other` into `self`: category totals add element-wise and
    /// itemized entries append.
    pub fn absorb(&mut self, other: CostLedger) {
        for (mine, theirs) in self.totals.iter_mut().zip(other.totals) {
            *mine += theirs;
        }
        self.entries.extend(other.entries);
    }

    /// Number of itemized entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no itemized entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_by_category() {
        let mut l = CostLedger::new();
        l.charge(CostItem::LambdaCompute, 0.001, "f1");
        l.charge(CostItem::LambdaCompute, 0.002, "f2");
        l.charge(CostItem::StoragePut, 0.000005, "obj");
        assert!((l.total() - 0.003005).abs() < 1e-12);
        assert!((l.total_of(CostItem::LambdaCompute) - 0.003).abs() < 1e-12);
        assert!((l.total_of(CostItem::VmTime) - 0.0).abs() < 1e-15);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn totals_accrue_with_itemization_off() {
        let mut l = CostLedger::new();
        l.set_itemized(false);
        l.charge(CostItem::LambdaCompute, 0.004, "f1");
        l.charge(CostItem::WarmPoolIdle, 0.001, "pool");
        assert_eq!(l.len(), 0, "no audit trail when itemization is off");
        assert!((l.total() - 0.005).abs() < 1e-15);
        assert!((l.total_of(CostItem::WarmPoolIdle) - 0.001).abs() < 1e-15);

        // Absorbing a non-itemized shard still merges its totals.
        let mut base = CostLedger::new();
        base.charge(CostItem::LambdaCompute, 0.002, "f0");
        base.absorb(l);
        assert_eq!(base.len(), 1);
        assert!((base.total() - 0.007).abs() < 1e-15);
    }

    #[test]
    fn absorb_merges() {
        let mut a = CostLedger::new();
        a.charge(CostItem::VmTime, 0.01, "sage1");
        let mut b = CostLedger::new();
        b.charge(CostItem::LambdaRequest, 0.0000002, "f");
        a.absorb(b);
        assert_eq!(a.len(), 2);
        assert!((a.total() - 0.0100002).abs() < 1e-12);
    }
}
