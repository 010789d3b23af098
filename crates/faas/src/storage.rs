//! Intermediate object storage (S3 and faster alternatives).
//!
//! The paper uses S3 to carry intermediate tensors between chained lambdas
//! ("because of the missing feature of inter-lambda communication", §2.2)
//! and notes that a faster store (Redis/ElastiCache, Pocket) would improve
//! performance further (§5.2). [`StoreKind`] models both.

use crate::ledger::{CostItem, CostLedger};
use crate::pricing::PriceSheet;

/// Storage backend characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreKind {
    /// Human-readable backend name.
    pub name: &'static str,
    /// Transfer bandwidth, MB/s (the paper's `B`).
    pub bandwidth_mbps: f64,
    /// Per-request latency, seconds.
    pub request_latency_s: f64,
    /// Whether request/storage fees apply (S3 yes, self-managed no —
    /// a self-managed store's instance cost is billed separately).
    pub billed_requests: bool,
    /// Probability that a single request fails transiently (5xx-class).
    /// Failed attempts burn the request latency but are never charged a
    /// request fee — S3 does not bill 5xx responses; only the final
    /// successful attempt pays its fee.
    pub failure_rate: f64,
}

impl StoreKind {
    /// Amazon-S3-like backend (the paper's default path).
    pub fn s3() -> Self {
        StoreKind {
            name: "s3",
            bandwidth_mbps: 80.0,
            request_latency_s: 0.02,
            billed_requests: true,
            failure_rate: 0.0,
        }
    }

    /// Low-latency in-memory store (the paper's Redis/Pocket extension).
    pub fn fast_store() -> Self {
        StoreKind {
            name: "fast-store",
            bandwidth_mbps: 500.0,
            request_latency_s: 0.001,
            billed_requests: false,
            failure_rate: 0.0,
        }
    }

    /// An S3 backend with transient failures at the given per-request
    /// rate, for failure-injection tests.
    pub fn flaky_s3(failure_rate: f64) -> Self {
        assert!((0.0..1.0).contains(&failure_rate), "rate must be in [0,1)");
        StoreKind {
            name: "flaky-s3",
            failure_rate,
            ..Self::s3()
        }
    }
}

/// Metadata for a stored object, or for a key never written to
/// ([`ObjectMeta::UNWRITTEN`]). Instants are seconds on the platform
/// clock, never NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ObjectMeta {
    bytes: u64,
    /// Where the next settlement starts billing: the instant the object
    /// landed (`created_at.max(0.0)`) until a settlement bills it, that
    /// settlement's end afterwards, so repeated settlements never
    /// double-bill an interval. NaN marks a never-written key; `max(0.0)`
    /// never returns NaN.
    from: f64,
    /// The deletion instant, or `+∞` while the object is live.
    end: f64,
}

impl ObjectMeta {
    /// A never-written key. Its NaN `from` fails every `end > from`
    /// test, so settlement skips it, and its NaN `end` is not `+∞`, so
    /// it is never live.
    const UNWRITTEN: ObjectMeta = ObjectMeta {
        bytes: 0,
        from: f64::NAN,
        end: f64::NAN,
    };

    fn is_live(&self) -> bool {
        self.end == f64::INFINITY
    }

    /// Marks a live object deleted at `now`; a deleted or never-written
    /// one stays as it is (deletes are idempotent). A deletion instant
    /// before `from` is clamped to it: such an object bills nothing more
    /// either way. One at `+∞` is stored as `f64::MAX`, which keeps the
    /// object deleted and bills as `+∞` does at every finite settlement.
    fn delete(&mut self, now: f64) {
        if self.is_live() {
            self.end = now.max(self.from).min(f64::MAX);
        }
    }
}

/// An object key: a dense index into the store's key table, allocated
/// by the store itself ([`ObjectStore::fresh_key`],
/// [`ObjectStore::fresh_block`]). Keys are only meaningful for the store
/// that allocated them (a shard merge shifts them by the merging store's
/// key count). Displays as `object#N` in errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectKey(u32);

impl std::fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "object#{}", self.0)
    }
}

impl ObjectKey {
    /// The key's dense index in its store's key table.
    pub fn index(self) -> u32 {
        self.0
    }

    /// The key `i` slots after this one. Only meaningful inside a
    /// contiguous block handed out by [`ObjectStore::fresh_block`], whose
    /// keys are guaranteed consecutive — every serving mode derives
    /// a request's per-object keys from the block base with plain index
    /// arithmetic instead of one allocator call per object.
    pub fn offset(self, i: u32) -> ObjectKey {
        ObjectKey(self.0 + i)
    }
}

/// The object store: tracks objects, transfer timing, and fees.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    /// Backend characteristics.
    pub kind: StoreKind,
    /// Object metadata, indexed by [`ObjectKey`]. Settlement walks this
    /// table in key order, which makes at-rest billing order
    /// deterministic.
    metas: Vec<ObjectMeta>,
    /// Tombstones for objects replaced by an overwriting `put` (the prior
    /// incarnation's lifetime still bills at settlement).
    history: Vec<ObjectMeta>,
    /// Deterministic failure-draw state (splitmix64).
    rng: u64,
}

/// Initial splitmix64 state of a fresh store's failure-draw stream.
const RNG_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Result of a storage operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageOp {
    /// Seconds the operation takes on the caller's side, retries included.
    pub duration_s: f64,
    /// Request fee charged (0 for unbilled backends).
    pub fee: f64,
    /// Attempts used (1 = first try succeeded).
    pub attempts: u32,
}

/// Why a storage operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// No live object under that key.
    NotFound(ObjectKey),
    /// Transient failures exhausted the retry budget.
    Unavailable {
        /// The key involved.
        key: ObjectKey,
        /// Attempts made.
        attempts: u32,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NotFound(k) => write!(f, "{k} not found"),
            StorageError::Unavailable { key, attempts } => {
                write!(f, "{key} unavailable after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Client-side retry budget for transient storage failures.
pub const STORAGE_RETRIES: u32 = 3;

impl ObjectStore {
    /// Creates an empty store on the given backend.
    pub fn new(kind: StoreKind) -> Self {
        ObjectStore {
            kind,
            metas: Vec::new(),
            history: Vec::new(),
            rng: RNG_SEED,
        }
    }

    /// Allocates a fresh key: a new, never-written slot. Each call
    /// returns a distinct key, so keys never collide.
    pub fn fresh_key(&mut self) -> ObjectKey {
        let k = ObjectKey(u32::try_from(self.metas.len()).expect("key table overflow"));
        self.metas.push(ObjectMeta::UNWRITTEN);
        k
    }

    /// Allocates `n` fresh keys in one call and returns the first;
    /// the block is contiguous, so key `i` of the block is
    /// `base.offset(i)`. Equivalent to `n` [`ObjectStore::fresh_key`]
    /// calls (same key values, same table growth) but with one bounds
    /// check and one bulk extend instead of `n` of each — the per-request
    /// setup cost of a plan with `n` inter-node objects.
    pub fn fresh_block(&mut self, n: usize) -> ObjectKey {
        let len = self.metas.len();
        let base = ObjectKey(u32::try_from(len).expect("key table overflow"));
        u32::try_from(len + n).expect("key table overflow");
        self.metas.resize(len + n, ObjectMeta::UNWRITTEN);
        base
    }

    /// Keys allocated so far.
    pub fn num_keys(&self) -> usize {
        self.metas.len()
    }

    /// Reserves room for `additional` more keys, so a key table whose
    /// final size is known up front grows in one allocation instead of
    /// by repeated doubling.
    pub fn reserve(&mut self, additional: usize) {
        self.metas.reserve(additional);
    }

    /// Re-keys the failure-draw stream for substream `stream`. The sharded
    /// serving engine calls this once per request (keyed by request index)
    /// so flaky-store draws depend only on the request, never on how many
    /// draws other requests consumed first. Stores that never draw (zero
    /// `failure_rate`) are unaffected.
    pub fn set_stream(&mut self, stream: u64) {
        self.rng = RNG_SEED ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
    }

    /// Merges a shard store into this one. The shard's keys are the
    /// identity shifted by this store's key count, so its tables
    /// bulk-append: every key stays distinct, and no live object can
    /// collide. The shard's tombstone history (with each record's `from`
    /// watermark) carries over, so settlement after a merge stays exact
    /// and double-bills nothing.
    pub fn absorb(&mut self, other: ObjectStore) {
        let ObjectStore { metas, history, .. } = other;
        u32::try_from(self.metas.len() + metas.len()).expect("key table overflow");
        self.metas.extend(metas);
        self.history.extend(history);
    }

    /// Deterministic uniform draw in [0, 1).
    fn draw(&mut self) -> f64 {
        // splitmix64
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Runs the attempt loop: each failed attempt burns the request
    /// latency; returns `(extra_failure_latency, attempts)` on success or
    /// `None` when the budget is exhausted.
    fn attempt(&mut self) -> Option<(f64, u32)> {
        let mut extra = 0.0;
        for attempt in 1..=(1 + STORAGE_RETRIES) {
            if self.kind.failure_rate <= 0.0 || self.draw() >= self.kind.failure_rate {
                return Some((extra, attempt));
            }
            extra += self.kind.request_latency_s;
        }
        None
    }

    /// Writes an object by key at time `now`; returns duration
    /// and records the PUT fee in `ledger`. Transient backend failures are
    /// retried up to [`STORAGE_RETRIES`] times (failed attempts cost
    /// latency but no fee, as with real 5xx responses).
    pub fn put_id(
        &mut self,
        key: ObjectKey,
        bytes: u64,
        now: f64,
        sheet: &PriceSheet,
        ledger: &mut CostLedger,
    ) -> Result<StorageOp, StorageError> {
        let Some((retry_latency, attempts)) = self.attempt() else {
            return Err(StorageError::Unavailable {
                key,
                attempts: 1 + STORAGE_RETRIES,
            });
        };
        let duration = retry_latency + self.transfer_time(bytes, 1);
        let fee = if self.kind.billed_requests {
            sheet.s3_put_request
        } else {
            0.0
        };
        if fee > 0.0 {
            ledger.charge(CostItem::StoragePut, fee);
        }
        let created_at = now + duration;
        let mut old = std::mem::replace(
            &mut self.metas[key.0 as usize],
            ObjectMeta {
                bytes,
                from: created_at.max(0.0),
                end: f64::INFINITY,
            },
        );
        if !old.from.is_nan() {
            // The prior incarnation lived until this re-put landed (retried
            // chains overwrite their checkpoints); tombstone it so
            // settlement bills both lifetimes.
            old.delete(created_at);
            self.history.push(old);
        }
        Ok(StorageOp {
            duration_s: duration,
            fee,
            attempts,
        })
    }

    /// Reads an object by key; returns duration and records the
    /// GET fee. Missing keys fail immediately; transient failures retry
    /// like [`Self::put_id`].
    pub fn get_id(
        &mut self,
        key: ObjectKey,
        sheet: &PriceSheet,
        ledger: &mut CostLedger,
    ) -> Result<StorageOp, StorageError> {
        let Some(bytes) = self.size_of_id(key) else {
            return Err(StorageError::NotFound(key));
        };
        let Some((retry_latency, attempts)) = self.attempt() else {
            return Err(StorageError::Unavailable {
                key,
                attempts: 1 + STORAGE_RETRIES,
            });
        };
        let duration = retry_latency + self.transfer_time(bytes, 1);
        let fee = if self.kind.billed_requests {
            sheet.s3_get_request
        } else {
            0.0
        };
        if fee > 0.0 {
            ledger.charge(CostItem::StorageGet, fee);
        }
        Ok(StorageOp {
            duration_s: duration,
            fee,
            attempts,
        })
    }

    /// Marks an object deleted at `now` (it stops accruing storage
    /// cost). Deleting a deleted or never-written key does nothing, as
    /// on S3: a repeat delete never moves the deletion instant.
    pub fn delete_id(&mut self, key: ObjectKey, now: f64) {
        self.metas[key.0 as usize].delete(now);
    }

    /// Size of a live object, by key.
    pub fn size_of_id(&self, key: ObjectKey) -> Option<u64> {
        let meta = self.metas[key.0 as usize];
        meta.is_live().then_some(meta.bytes)
    }

    /// Bytes currently held (live objects only).
    pub fn live_bytes(&self) -> u64 {
        self.metas
            .iter()
            .filter(|m| m.is_live())
            .map(|m| m.bytes)
            .sum()
    }

    /// Transfer duration for `bytes` over `requests` round trips.
    pub fn transfer_time(&self, bytes: u64, requests: u32) -> f64 {
        bytes as f64 / (self.kind.bandwidth_mbps * 1e6)
            + f64::from(requests) * self.kind.request_latency_s
    }

    /// Charges at-rest storage for all objects' lifetimes up to `until`
    /// (the paper's `q·T·H` term) and returns the charged dollars.
    ///
    /// Settlement is incremental: each object's `from` watermark moves to
    /// the end of what was billed, so repeated settlements never
    /// double-bill an interval — and live objects *stay live*, still
    /// readable by later requests (serve → settle → serve works).
    /// Replaced-object tombstones bill the same way.
    pub fn settle_storage(
        &mut self,
        until: f64,
        sheet: &PriceSheet,
        ledger: &mut CostLedger,
    ) -> f64 {
        if !self.kind.billed_requests {
            return 0.0;
        }
        let mut total = 0.0;
        let mut settle_one = |meta: &mut ObjectMeta| {
            let end = meta.end.min(until);
            if end > meta.from {
                let c = sheet.s3_storage_cost(meta.bytes, end - meta.from);
                if c > 0.0 {
                    ledger.charge(CostItem::StorageAtRest, c);
                    total += c;
                }
                meta.from = end;
            }
        };
        // Key order, then tombstone-insertion order: deterministic
        // regardless of how keys hash.
        for meta in &mut self.metas {
            settle_one(meta);
        }
        for meta in &mut self.history {
            settle_one(meta);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ObjectStore, PriceSheet, CostLedger) {
        (
            ObjectStore::new(StoreKind::s3()),
            PriceSheet::aws_2020(),
            CostLedger::new(),
        )
    }

    #[test]
    fn put_get_round_trip() {
        let (mut s, sheet, mut l) = setup();
        let k = s.fresh_key();
        let put = s.put_id(k, 80_000_000, 0.0, &sheet, &mut l).unwrap();
        assert!((put.duration_s - (1.0 + 0.02)).abs() < 1e-9);
        assert_eq!(s.size_of_id(k), Some(80_000_000));
        let get = s.get_id(k, &sheet, &mut l).unwrap();
        assert!((get.duration_s - put.duration_s).abs() < 1e-12);
        assert!((l.total_of(CostItem::StoragePut) - 5e-6).abs() < 1e-12);
        assert!((l.total_of(CostItem::StorageGet) - 4e-7).abs() < 1e-12);
    }

    #[test]
    fn missing_and_deleted_keys() {
        let (mut s, sheet, mut l) = setup();
        let nope = s.fresh_key();
        let err = s.get_id(nope, &sheet, &mut l).unwrap_err();
        assert_eq!(err, StorageError::NotFound(nope));
        assert_eq!(err.to_string(), "object#0 not found");
        let k = s.fresh_key();
        s.put_id(k, 10, 0.0, &sheet, &mut l).unwrap();
        s.delete_id(k, 5.0);
        assert_eq!(s.get_id(k, &sheet, &mut l), Err(StorageError::NotFound(k)));
        assert_eq!(s.live_bytes(), 0);
    }

    #[test]
    fn storage_settlement_bills_lifetime() {
        let (mut s, sheet, mut l) = setup();
        let k = s.fresh_key();
        let op = s.put_id(k, 1_000_000_000, 0.0, &sheet, &mut l).unwrap();
        // The object becomes visible when the upload completes; settle
        // exactly 60 s later → 60 s of at-rest time on 1 GB.
        let t1 = op.duration_s + 60.0;
        let charged = s.settle_storage(t1, &sheet, &mut l);
        let expect = sheet.s3_storage_cost(1_000_000_000, 60.0);
        assert!((charged - expect).abs() < 1e-12, "{charged} vs {expect}");
        // Settling the same instant again double-bills nothing.
        assert_eq!(s.settle_storage(t1, &sheet, &mut l), 0.0);
        // A later settle bills exactly the incremental interval.
        let inc = s.settle_storage(t1 + 30.0, &sheet, &mut l);
        let expect_inc = sheet.s3_storage_cost(1_000_000_000, 30.0);
        assert!((inc - expect_inc).abs() < 1e-12, "{inc} vs {expect_inc}");
        // Once deleted, further settles stop accruing.
        s.delete_id(k, t1 + 30.0);
        assert_eq!(s.settle_storage(t1 + 500.0, &sheet, &mut l), 0.0);
    }

    #[test]
    fn settlement_keeps_objects_live() {
        // Regression: settling mid-run must not destroy still-live
        // intermediates (serve → settle → serve).
        let (mut s, sheet, mut l) = setup();
        let k = s.fresh_key();
        s.put_id(k, 4_000_000, 0.0, &sheet, &mut l).unwrap();
        s.settle_storage(100.0, &sheet, &mut l);
        assert_eq!(s.size_of_id(k), Some(4_000_000));
        assert!(s.get_id(k, &sheet, &mut l).is_ok(), "live after settle");
        assert_eq!(s.live_bytes(), 4_000_000);
    }

    #[test]
    fn overwriting_put_bills_both_lifetimes() {
        // Regression: a re-put (chain-level retry re-checkpointing) must
        // not drop the replaced object's at-rest interval from billing.
        let (mut s, sheet, mut l) = setup();
        let k = s.fresh_key();
        let first = s.put_id(k, 1_000_000_000, 0.0, &sheet, &mut l).unwrap();
        let v1 = first.duration_s; // first incarnation visible
        let second = s
            .put_id(k, 1_000_000_000, v1 + 60.0, &sheet, &mut l)
            .unwrap();
        let v2 = v1 + 60.0 + second.duration_s; // replacement visible
        let charged = s.settle_storage(v2 + 40.0, &sheet, &mut l);
        // First incarnation lived v1→v2, the replacement v2→v2+40.
        let expect = sheet.s3_storage_cost(1_000_000_000, v2 - v1)
            + sheet.s3_storage_cost(1_000_000_000, 40.0);
        assert!((charged - expect).abs() < 1e-12, "{charged} vs {expect}");
        // And nothing double-bills afterwards.
        assert_eq!(s.settle_storage(v2 + 40.0, &sheet, &mut l), 0.0);
    }

    #[test]
    fn flaky_store_charges_fee_only_on_success() {
        // Failed attempts burn latency but no fee (S3 does not bill 5xx):
        // total fees must equal successful-op count × fee, attempts
        // notwithstanding.
        let mut s = ObjectStore::new(StoreKind::flaky_s3(0.5));
        let sheet = PriceSheet::aws_2020();
        let mut l = CostLedger::new();
        let mut puts = 0u32;
        let mut gets = 0u32;
        let mut saw_retry = false;
        let mut saw_retry_latency = false;
        for _ in 0..40 {
            let k = s.fresh_key();
            if let Ok(op) = s.put_id(k, 1_000_000, 0.0, &sheet, &mut l) {
                puts += 1;
                assert_eq!(op.fee, sheet.s3_put_request);
                if op.attempts > 1 {
                    saw_retry = true;
                    // Each failed attempt burned one request latency.
                    let clean = s.transfer_time(1_000_000, 1);
                    let expect = clean + f64::from(op.attempts - 1) * s.kind.request_latency_s;
                    assert!((op.duration_s - expect).abs() < 1e-12);
                    saw_retry_latency = true;
                }
                if let Ok(op) = s.get_id(k, &sheet, &mut l) {
                    gets += 1;
                    assert_eq!(op.fee, sheet.s3_get_request);
                }
            }
        }
        assert!(saw_retry && saw_retry_latency, "0.5 rate must retry");
        let expect_fees =
            f64::from(puts) * sheet.s3_put_request + f64::from(gets) * sheet.s3_get_request;
        let fees = l.total_of(CostItem::StoragePut) + l.total_of(CostItem::StorageGet);
        assert!(
            (fees - expect_fees).abs() < 1e-12,
            "fees {fees} vs {expect_fees} ({puts} puts, {gets} gets)"
        );
    }

    #[test]
    fn absorb_merges_shards_and_settles_exactly() {
        let sheet = PriceSheet::aws_2020();
        // One store serving both objects vs two shards merged: settlement
        // must charge the same dollars.
        let mut whole = ObjectStore::new(StoreKind::s3());
        let mut lw = CostLedger::new();
        let (a, b) = (whole.fresh_key(), whole.fresh_key());
        whole.put_id(a, 50_000_000, 0.0, &sheet, &mut lw).unwrap();
        whole.put_id(b, 80_000_000, 1.0, &sheet, &mut lw).unwrap();
        let expect = whole.settle_storage(500.0, &sheet, &mut lw);

        let mut base = ObjectStore::new(StoreKind::s3());
        let (mut s1, mut s2) = (
            ObjectStore::new(StoreKind::s3()),
            ObjectStore::new(StoreKind::s3()),
        );
        let mut l = CostLedger::new();
        let k1 = s1.fresh_key();
        s1.put_id(k1, 50_000_000, 0.0, &sheet, &mut l).unwrap();
        let k2 = s2.fresh_key();
        s2.put_id(k2, 80_000_000, 1.0, &sheet, &mut l).unwrap();
        base.absorb(s1);
        base.absorb(s2);
        let got = base.settle_storage(500.0, &sheet, &mut l);
        assert!((got - expect).abs() < 1e-15, "{got} vs {expect}");
        // Each shard's keys land shifted by the keys merged before it.
        assert_eq!(base.size_of_id(a), Some(50_000_000));
        assert_eq!(base.size_of_id(b), Some(80_000_000));
    }

    #[test]
    fn absorb_carries_tombstones_and_watermarks() {
        let sheet = PriceSheet::aws_2020();
        let mut shard = ObjectStore::new(StoreKind::s3());
        let mut l = CostLedger::new();
        // Overwrite inside the shard (tombstone) and settle part-way
        // (watermark) before merging.
        let k = shard.fresh_key();
        shard.put_id(k, 1_000_000_000, 0.0, &sheet, &mut l).unwrap();
        shard
            .put_id(k, 1_000_000_000, 60.0, &sheet, &mut l)
            .unwrap();
        let pre = shard.settle_storage(100.0, &sheet, &mut l);
        assert!(pre > 0.0);
        let mut base = ObjectStore::new(StoreKind::s3());
        base.absorb(shard);
        // Settling the merge point again bills nothing new...
        assert_eq!(base.settle_storage(100.0, &sheet, &mut l), 0.0);
        // ...and a later settle bills exactly the increment on the live
        // incarnation.
        let inc = base.settle_storage(130.0, &sheet, &mut l);
        let expect = sheet.s3_storage_cost(1_000_000_000, 30.0);
        assert!((inc - expect).abs() < 1e-12, "{inc} vs {expect}");
    }

    #[test]
    fn stream_rekeying_is_reproducible_per_stream() {
        // Same stream → same draws; consuming stream A never shifts
        // stream B's draws (the sharded-serving invariant).
        let attempts = |s: &mut ObjectStore, n: usize| -> Vec<u32> {
            let sheet = PriceSheet::aws_2020();
            let mut l = CostLedger::new();
            (0..n)
                .map(|_| {
                    let k = s.fresh_key();
                    s.put_id(k, 1_000, 0.0, &sheet, &mut l)
                        .map_or(0, |op| op.attempts)
                })
                .collect()
        };
        let mut a = ObjectStore::new(StoreKind::flaky_s3(0.5));
        a.set_stream(7);
        let first = attempts(&mut a, 20);
        let mut b = ObjectStore::new(StoreKind::flaky_s3(0.5));
        b.set_stream(3);
        attempts(&mut b, 50); // a different stream, different consumption
        b.set_stream(7);
        assert_eq!(attempts(&mut b, 20), first);
    }

    #[test]
    fn anonymous_keys_stay_distinct_through_absorb() {
        let sheet = PriceSheet::aws_2020();
        let mut l = CostLedger::new();
        // Two shards, each with two objects still live at merge time under
        // the same key values: the merged store must keep all four
        // distinct and settle exactly.
        let mut base = ObjectStore::new(StoreKind::s3());
        let mut shards = Vec::new();
        for s in 0..2 {
            let mut shard = ObjectStore::new(StoreKind::s3());
            for i in 0..2 {
                let k = shard.fresh_key();
                shard
                    .put_id(k, 10_000_000, f64::from(s * 2 + i), &sheet, &mut l)
                    .unwrap();
            }
            shards.push(shard);
        }
        let expect_live: u64 = shards.iter().map(|s| s.live_bytes()).sum();
        for shard in shards {
            base.absorb(shard);
        }
        assert_eq!(base.live_bytes(), expect_live, "no key collisions");
        let settled = base.settle_storage(100.0, &sheet, &mut l);
        assert!(settled > 0.0);
        // All four lifetimes billed: ~(100-t_visible) each on 10 MB.
        let per = |t: f64| sheet.s3_storage_cost(10_000_000, 100.0 - t);
        let t0 = base.transfer_time(10_000_000, 1);
        let expect: f64 = (0..4).map(|i| per(f64::from(i) + t0)).sum();
        assert!((settled - expect).abs() < 1e-12, "{settled} vs {expect}");
    }

    #[test]
    fn a_repeat_delete_changes_nothing() {
        // A 1 GB object lands at ~12.5 s; deleted at 5 s it never bills.
        // Deleting it again at 50 s used to move the deletion instant and
        // bill 37.5 GB-s; S3 deletes are idempotent.
        let (mut s, sheet, mut l) = setup();
        let k = s.fresh_key();
        s.put_id(k, 1_000_000_000, 0.0, &sheet, &mut l).unwrap();
        s.delete_id(k, 5.0);
        s.delete_id(k, 50.0);
        assert_eq!(s.settle_storage(100.0, &sheet, &mut l), 0.0);
        // Same after a settlement: the first delete's instant stands.
        let k = s.fresh_key();
        s.put_id(k, 1_000_000_000, 0.0, &sheet, &mut l).unwrap();
        s.delete_id(k, 40.0);
        let billed = s.settle_storage(100.0, &sheet, &mut l);
        s.delete_id(k, 90.0);
        assert_eq!(s.settle_storage(200.0, &sheet, &mut l), 0.0);
        let expect = sheet.s3_storage_cost(1_000_000_000, 40.0 - s.transfer_time(1_000_000_000, 1));
        assert!((billed - expect).abs() < 1e-15, "{billed} vs {expect}");
        // Deleting a never-written key leaves it unwritten.
        let k = s.fresh_key();
        s.delete_id(k, 1.0);
        s.put_id(k, 10, 2.0, &sheet, &mut l).unwrap();
        assert_eq!(s.size_of_id(k), Some(10));
    }

    /// The store as it was before its 48-byte `Option<ObjectMeta>`
    /// records shrank to 24 bytes (`created_at`, `Option` deletion
    /// instant, `billed_until` watermark; `None` for a never-written
    /// key), with repeat deletes made no-ops.
    mod reference {
        use super::super::{
            ObjectKey, StorageError, StorageOp, StoreKind, RNG_SEED, STORAGE_RETRIES,
        };
        use crate::ledger::{CostItem, CostLedger};
        use crate::pricing::PriceSheet;

        #[derive(Clone, Copy)]
        struct Meta {
            bytes: u64,
            created_at: f64,
            deleted_at: Option<f64>,
            billed_until: f64,
        }

        pub struct Store {
            pub kind: StoreKind,
            metas: Vec<Option<Meta>>,
            history: Vec<Meta>,
            rng: u64,
        }

        impl Store {
            pub fn new(kind: StoreKind) -> Self {
                Store {
                    kind,
                    metas: Vec::new(),
                    history: Vec::new(),
                    rng: RNG_SEED,
                }
            }

            pub fn fresh_key(&mut self) -> ObjectKey {
                self.metas.push(None);
                ObjectKey(self.metas.len() as u32 - 1)
            }

            pub fn fresh_block(&mut self, n: usize) -> ObjectKey {
                let base = ObjectKey(self.metas.len() as u32);
                self.metas.resize(self.metas.len() + n, None);
                base
            }

            pub fn num_keys(&self) -> usize {
                self.metas.len()
            }

            pub fn set_stream(&mut self, stream: u64) {
                self.rng = RNG_SEED ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
            }

            pub fn absorb(&mut self, other: Store) {
                self.metas.extend(other.metas);
                self.history.extend(other.history);
            }

            fn draw(&mut self) -> f64 {
                self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
            }

            fn attempt(&mut self) -> Option<(f64, u32)> {
                let mut extra = 0.0;
                for attempt in 1..=(1 + STORAGE_RETRIES) {
                    if self.kind.failure_rate <= 0.0 || self.draw() >= self.kind.failure_rate {
                        return Some((extra, attempt));
                    }
                    extra += self.kind.request_latency_s;
                }
                None
            }

            fn transfer_time(&self, bytes: u64) -> f64 {
                bytes as f64 / (self.kind.bandwidth_mbps * 1e6) + self.kind.request_latency_s
            }

            pub fn put_id(
                &mut self,
                key: ObjectKey,
                bytes: u64,
                now: f64,
                sheet: &PriceSheet,
                ledger: &mut CostLedger,
            ) -> Result<StorageOp, StorageError> {
                let Some((retry_latency, attempts)) = self.attempt() else {
                    return Err(StorageError::Unavailable {
                        key,
                        attempts: 1 + STORAGE_RETRIES,
                    });
                };
                let duration = retry_latency + self.transfer_time(bytes);
                let fee = if self.kind.billed_requests {
                    sheet.s3_put_request
                } else {
                    0.0
                };
                if fee > 0.0 {
                    ledger.charge(CostItem::StoragePut, fee);
                }
                let created_at = now + duration;
                let replaced = self.metas[key.0 as usize].replace(Meta {
                    bytes,
                    created_at,
                    deleted_at: None,
                    billed_until: 0.0,
                });
                if let Some(mut old) = replaced {
                    if old.deleted_at.is_none() {
                        old.deleted_at = Some(created_at.max(old.created_at));
                    }
                    self.history.push(old);
                }
                Ok(StorageOp {
                    duration_s: duration,
                    fee,
                    attempts,
                })
            }

            pub fn get_id(
                &mut self,
                key: ObjectKey,
                sheet: &PriceSheet,
                ledger: &mut CostLedger,
            ) -> Result<StorageOp, StorageError> {
                let bytes = match self.metas[key.0 as usize] {
                    Some(meta) if meta.deleted_at.is_none() => meta.bytes,
                    _ => return Err(StorageError::NotFound(key)),
                };
                let Some((retry_latency, attempts)) = self.attempt() else {
                    return Err(StorageError::Unavailable {
                        key,
                        attempts: 1 + STORAGE_RETRIES,
                    });
                };
                let duration = retry_latency + self.transfer_time(bytes);
                let fee = if self.kind.billed_requests {
                    sheet.s3_get_request
                } else {
                    0.0
                };
                if fee > 0.0 {
                    ledger.charge(CostItem::StorageGet, fee);
                }
                Ok(StorageOp {
                    duration_s: duration,
                    fee,
                    attempts,
                })
            }

            pub fn delete_id(&mut self, key: ObjectKey, now: f64) {
                if let Some(meta) = self.metas[key.0 as usize].as_mut() {
                    if meta.deleted_at.is_none() {
                        meta.deleted_at = Some(now.max(meta.created_at));
                    }
                }
            }

            pub fn size_of_id(&self, key: ObjectKey) -> Option<u64> {
                self.metas[key.0 as usize]
                    .filter(|m| m.deleted_at.is_none())
                    .map(|m| m.bytes)
            }

            pub fn live_bytes(&self) -> u64 {
                let live = self
                    .metas
                    .iter()
                    .flatten()
                    .filter(|m| m.deleted_at.is_none());
                live.map(|m| m.bytes).sum()
            }

            pub fn settle_storage(
                &mut self,
                until: f64,
                sheet: &PriceSheet,
                ledger: &mut CostLedger,
            ) -> f64 {
                if !self.kind.billed_requests {
                    return 0.0;
                }
                let mut total = 0.0;
                let mut settle_one = |meta: &mut Meta| {
                    let from = meta.created_at.max(meta.billed_until);
                    let end = meta.deleted_at.unwrap_or(until).min(until);
                    if end > from {
                        let c = sheet.s3_storage_cost(meta.bytes, end - from);
                        if c > 0.0 {
                            ledger.charge(CostItem::StorageAtRest, c);
                            total += c;
                        }
                        meta.billed_until = end;
                    }
                };
                for meta in self.metas.iter_mut().flatten() {
                    settle_one(meta);
                }
                for meta in &mut self.history {
                    settle_one(meta);
                }
                total
            }
        }
    }

    /// A store under test and its reference, driven in lockstep, each
    /// with its own ledger.
    struct Pair {
        real: ObjectStore,
        model: reference::Store,
        real_ledger: CostLedger,
        model_ledger: CostLedger,
    }

    impl Pair {
        fn new(kind: StoreKind) -> Self {
            Pair {
                real: ObjectStore::new(kind),
                model: reference::Store::new(kind),
                real_ledger: CostLedger::new(),
                model_ledger: CostLedger::new(),
            }
        }

        /// One seeded random operation on both stores; panics naming
        /// `ctx` when a result, error or settlement total differs.
        fn step(&mut self, rng: &mut crate::rng::SmallRng, sheet: &PriceSheet, ctx: &str) {
            let (real, model) = (&mut self.real, &mut self.model);
            let (rl, ml) = (&mut self.real_ledger, &mut self.model_ledger);
            let keys = real.num_keys();
            assert_eq!(keys, model.num_keys(), "{ctx}: key count");
            let key = ObjectKey(rng.below(keys.max(1)) as u32);
            // Instants in [-30, 270): some before 0, out of order, and
            // now and then `+∞`.
            let now = match rng.below(50) {
                0 => f64::INFINITY,
                _ => rng.next_f64() * 300.0 - 30.0,
            };
            let bits = |r: Result<StorageOp, StorageError>| {
                r.map(|op| (op.duration_s.to_bits(), op.fee.to_bits(), op.attempts))
            };
            match rng.below(10) {
                0 => assert_eq!(real.fresh_key(), model.fresh_key(), "{ctx}: fresh_key"),
                1 => {
                    let n = rng.below(4);
                    assert_eq!(
                        real.fresh_block(n),
                        model.fresh_block(n),
                        "{ctx}: fresh_block"
                    );
                }
                2..=4 if keys > 0 => {
                    // 0 B to 2 GB: uploads of up to ~25 s.
                    let bytes = rng.next_u64() % 2_000_000_001;
                    let (a, b) = (
                        real.put_id(key, bytes, now, sheet, rl),
                        model.put_id(key, bytes, now, sheet, ml),
                    );
                    assert_eq!(bits(a), bits(b), "{ctx}: put {key} at {now}");
                }
                5 if keys > 0 => {
                    let (a, b) = (real.get_id(key, sheet, rl), model.get_id(key, sheet, ml));
                    assert_eq!(bits(a), bits(b), "{ctx}: get {key}");
                }
                6 | 7 if keys > 0 => {
                    real.delete_id(key, now);
                    model.delete_id(key, now);
                }
                8 => {
                    // Settlements are at finite instants.
                    let until = now.min(270.0) + 30.0;
                    let (a, b) = (
                        real.settle_storage(until, sheet, rl),
                        model.settle_storage(until, sheet, ml),
                    );
                    assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: settle at {until}");
                }
                9 => {
                    let stream = rng.next_u64();
                    real.set_stream(stream);
                    model.set_stream(stream);
                }
                _ => {}
            }
            for k in 0..real.num_keys() {
                let k = ObjectKey(k as u32);
                assert_eq!(
                    real.size_of_id(k),
                    model.size_of_id(k),
                    "{ctx}: size_of {k}"
                );
            }
            assert_eq!(real.live_bytes(), model.live_bytes(), "{ctx}: live_bytes");
            for item in [
                CostItem::StoragePut,
                CostItem::StorageGet,
                CostItem::StorageAtRest,
            ] {
                let (a, b) = (rl.total_of(item), ml.total_of(item));
                assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: ledger {item:?}");
            }
        }
    }

    #[test]
    fn compact_records_match_the_option_records() {
        assert_eq!(std::mem::size_of::<ObjectMeta>(), 24);
        let sheet = PriceSheet::aws_2020();
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x5707e);
        let kinds = [
            StoreKind::s3(),
            StoreKind::flaky_s3(0.3),
            StoreKind::fast_store(),
        ];
        for case in 0..300 {
            let kind = kinds[case % kinds.len()];
            let mut base = Pair::new(kind);
            for step in 0..120 {
                let ctx = format!("case {case} step {step}");
                if rng.below(40) == 0 {
                    // Absorb a shard that ran (and maybe settled) on its own.
                    let mut shard = Pair::new(kind);
                    for s in 0..rng.below(30) {
                        shard.step(&mut rng, &sheet, &format!("{ctx} shard step {s}"));
                    }
                    base.real.absorb(shard.real);
                    base.model.absorb(shard.model);
                }
                base.step(&mut rng, &sheet, &ctx);
            }
            let (a, b) = (
                base.real.settle_storage(1e4, &sheet, &mut base.real_ledger),
                base.model
                    .settle_storage(1e4, &sheet, &mut base.model_ledger),
            );
            assert_eq!(a.to_bits(), b.to_bits(), "case {case}: final settle");
        }
    }

    #[test]
    fn fast_store_is_cheap_and_quick() {
        let mut s = ObjectStore::new(StoreKind::fast_store());
        let sheet = PriceSheet::aws_2020();
        let mut l = CostLedger::new();
        let k = s.fresh_key();
        let op = s.put_id(k, 80_000_000, 0.0, &sheet, &mut l).unwrap();
        assert!(op.duration_s < 0.2);
        assert_eq!(op.fee, 0.0);
        assert_eq!(l.total(), 0.0);
        assert_eq!(s.settle_storage(100.0, &sheet, &mut l), 0.0);
    }
}
