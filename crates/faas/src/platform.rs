//! The serverless platform: deployment quotas, invocation semantics,
//! warm-start tracking, billing — including failure billing: a failed or
//! timed-out invocation charges GB-seconds for the time it actually
//! consumed plus the request fee, exactly as real Lambda does.

use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::ledger::{CostItem, CostLedger};
use crate::perf::{DurationBreakdown, LambdaPerf, PerfModel};
use crate::pricing::PriceSheet;
use crate::quotas::Quotas;
use crate::storage::{ObjectKey, ObjectStore, StoreKind};
use crate::MB;

/// Handle to a deployed function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FunctionId(pub usize);

/// What gets deployed: code plus function layers (the paper attaches the
/// trimmed dependencies and each partition's weights as Lambda layers).
#[derive(Debug, Clone)]
pub struct FunctionSpec {
    /// Function name.
    pub name: String,
    /// Memory block, MB.
    pub memory_mb: u32,
    /// Handler code size, bytes (the paper's `F`).
    pub code_bytes: u64,
    /// Unzipped layer sizes, bytes (dependencies `D`, weights `y·e`).
    pub layer_bytes: Vec<u64>,
}

impl FunctionSpec {
    /// Total unzipped deployment size (paper constraint (4) LHS).
    pub fn package_bytes(&self) -> u64 {
        self.code_bytes + self.layer_bytes.iter().sum::<u64>()
    }
}

/// Why a deployment was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The requested memory is not an allocatable block.
    InvalidMemory(u32),
    /// Unzipped package exceeds the platform cap (paper constraint (4)).
    PackageTooLarge {
        /// Requested package size in bytes.
        got: u64,
        /// Platform cap in bytes.
        limit: u64,
    },
    /// More function layers than the platform allows.
    TooManyLayers(usize),
    /// The plan handed to the deployer is structurally invalid (overlapping
    /// or missing layers, objects flowing backward, ...).
    InvalidPlan(String),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::InvalidMemory(mb) => write!(f, "invalid memory block {mb} MB"),
            DeployError::PackageTooLarge { got, limit } => write!(
                f,
                "package {:.1} MB exceeds the {:.0} MB deployment limit",
                *got as f64 / MB as f64,
                *limit as f64 / MB as f64
            ),
            DeployError::TooManyLayers(n) => write!(f, "{n} layers exceed the platform cap"),
            DeployError::InvalidPlan(why) => write!(f, "invalid plan: {why}"),
        }
    }
}

impl std::error::Error for DeployError {}

/// Why an invocation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum InvokeError {
    /// Resident footprint cannot fit the memory block at all.
    OutOfMemory {
        /// Resident footprint, MB.
        footprint_mb: f64,
        /// Configured memory, MB.
        memory_mb: u32,
    },
    /// `/tmp` usage exceeds the temporary-storage cap (paper constraint (5)).
    TmpExceeded {
        /// Requested bytes.
        got: u64,
        /// Cap in bytes.
        limit: u64,
    },
    /// Execution exceeded the platform timeout.
    Timeout {
        /// Computed duration, seconds.
        duration_s: f64,
    },
    /// A required input object is missing from storage.
    MissingInput(ObjectKey),
    /// Storage stayed unavailable through the retry budget.
    StorageUnavailable(ObjectKey),
    /// The handler crashed partway through (injected fault).
    Crashed {
        /// Seconds consumed before the crash.
        duration_s: f64,
    },
    /// Sandbox creation failed before the handler ran (injected fault).
    ColdStartFailed,
    /// Unknown function id.
    NoSuchFunction,
}

impl InvokeError {
    /// True for failure modes a retry can plausibly fix (transient storage
    /// or injected-fault failures); false for deterministic configuration
    /// errors where retrying would only burn money.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            InvokeError::Timeout { .. }
                | InvokeError::StorageUnavailable(_)
                | InvokeError::Crashed { .. }
                | InvokeError::ColdStartFailed
        )
    }
}

impl std::fmt::Display for InvokeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvokeError::OutOfMemory {
                footprint_mb,
                memory_mb,
            } => write!(
                f,
                "{footprint_mb:.0} MB footprint cannot run in {memory_mb} MB"
            ),
            InvokeError::TmpExceeded { got, limit } => write!(
                f,
                "tmp usage {:.1} MB exceeds {:.0} MB",
                *got as f64 / MB as f64,
                *limit as f64 / MB as f64
            ),
            InvokeError::Timeout { duration_s } => {
                write!(f, "execution of {duration_s:.1} s exceeds the timeout")
            }
            InvokeError::MissingInput(k) => write!(f, "missing input {k}"),
            InvokeError::StorageUnavailable(k) => write!(f, "storage unavailable for {k}"),
            InvokeError::Crashed { duration_s } => {
                write!(f, "handler crashed after {duration_s:.1} s")
            }
            InvokeError::ColdStartFailed => write!(f, "sandbox creation failed"),
            InvokeError::NoSuchFunction => write!(f, "unknown function"),
        }
    }
}

impl std::error::Error for InvokeError {}

/// A failed invocation with its billing: what went wrong, how long the
/// sandbox ran before dying, and what that consumed time cost. Real
/// Lambda bills failed and timed-out invocations for their duration — the
/// retry-cost trade-off a cost-minimizing coordinator must account for.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedInvocation {
    /// Why the invocation failed.
    pub reason: InvokeError,
    /// When the invocation started.
    pub start: f64,
    /// When the platform gave up on it (kill/crash/error instant).
    pub end: f64,
    /// Phase breakdown of the time consumed before failure.
    pub breakdown: DurationBreakdown,
    /// Billed duration (consumed time, rounded up to the granularity).
    pub billed_s: f64,
    /// Dollars charged for the failed attempt (compute for consumed time
    /// + request fee + storage fees already incurred).
    pub dollars: f64,
    /// Whether the attempt rode a warm container.
    pub warm: bool,
}

impl FailedInvocation {
    /// Wall-clock the failed attempt consumed.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// An unbilled failure (nothing ran — e.g. unknown function id).
    fn unbilled(reason: InvokeError, start: f64) -> Self {
        FailedInvocation {
            reason,
            start,
            end: start,
            breakdown: DurationBreakdown::default(),
            billed_s: 0.0,
            dollars: 0.0,
            warm: false,
        }
    }
}

impl std::fmt::Display for FailedInvocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invocation failed after {:.2} s (${:.6} billed): {}",
            self.duration(),
            self.dollars,
            self.reason
        )
    }
}

impl std::error::Error for FailedInvocation {}

impl From<FailedInvocation> for InvokeError {
    fn from(failed: FailedInvocation) -> Self {
        failed.reason
    }
}

/// Work performed by one invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InvocationWork {
    /// Weight bytes to deserialize on (cold) start.
    pub load_bytes: u64,
    /// Compute FLOPs.
    pub flops: u64,
    /// Resident bytes beyond the runtime footprint (weights ×2 +
    /// activations + staged input).
    pub resident_bytes: u64,
    /// `/tmp` bytes used (weight files + previous partition's output).
    pub tmp_bytes: u64,
    /// Input object keys read from storage before compute (allocated by
    /// the platform's store).
    pub reads: Vec<ObjectKey>,
    /// Output objects written after compute: `(key, bytes)`.
    pub writes: Vec<(ObjectKey, u64)>,
}

/// Result of a successful invocation.
#[derive(Debug, Clone)]
pub struct InvocationOutcome {
    /// When the invocation started.
    pub start: f64,
    /// When it finished.
    pub end: f64,
    /// Phase breakdown.
    pub breakdown: DurationBreakdown,
    /// Billed duration (rounded up to the billing granularity).
    pub billed_s: f64,
    /// Dollars charged for this invocation (compute + request + storage
    /// request fees).
    pub dollars: f64,
    /// Whether the container was warm (import/load skipped).
    pub warm: bool,
    /// Seconds burned waiting out failed storage attempts (client-side
    /// retries against a flaky store); part of `transfer_s` and of the
    /// billed duration, surfaced so callers can attribute waste.
    pub storage_retry_s: f64,
}

impl InvocationOutcome {
    /// Wall-clock duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug, Clone)]
struct DeployedFunction {
    spec: FunctionSpec,
    /// Cold-start seconds for `spec`'s package, computed at deploy time:
    /// they depend only on the package size and the platform's fixed
    /// performance law.
    cold_s: f64,
    /// Warm container pool: `busy_until` per live instance, ascending
    /// once ordered (a free-list ordered by idle-since time). Lambda
    /// scales out under concurrency — a request arriving while all
    /// instances are busy gets a fresh (cold) instance; an idle instance
    /// within the keep-alive window is reused warm. The sort order makes
    /// warm-slot selection a binary search instead of a linear scan: the
    /// candidate is always the largest `busy_until` ≤ the request start.
    instances: Vec<f64>,
    /// Whether `instances` is sorted. [`Platform::absorb_shards`] and
    /// [`Platform::pre_warm`] only append and clear this; the first
    /// reader sorts ([`DeployedFunction::order_pool`]), so a merged pool
    /// nothing reads is never sorted.
    ordered: bool,
    /// Perf-model phases of the last work this function ran.
    phases: Option<Phases>,
    /// Total cold starts observed (metrics).
    cold_starts: usize,
    /// Instances created by [`Platform::pre_warm`] (metrics).
    pre_warmed: usize,
    /// Idle warm seconds already consumed by reused instances (the gap
    /// between an instance going idle and its next warm invocation),
    /// accumulated at invoke time and drained by
    /// [`Platform::settle_warm_pool`].
    idle_warm_s: f64,
    /// Idle time is settled up to this instant (no double billing across
    /// repeated settlements), mirroring storage's `billed_until`.
    idle_billed_until: f64,
}

impl DeployedFunction {
    /// A freshly deployed function with an empty pool.
    fn new(spec: FunctionSpec, cold_s: f64, phases: Option<Phases>) -> Self {
        DeployedFunction {
            spec,
            cold_s,
            instances: Vec::new(),
            ordered: true,
            phases,
            cold_starts: 0,
            pre_warmed: 0,
            idle_warm_s: 0.0,
            idle_billed_until: 0.0,
        }
    }

    /// Sorts the pool by `total_cmp` if an append left it unordered.
    /// Entries equal under `total_cmp` are bit-equal, so the sorted pool
    /// is the same vector however its entries arrived.
    fn order_pool(&mut self) {
        if !self.ordered {
            self.instances.sort_unstable_by(f64::total_cmp);
            self.ordered = true;
        }
    }

    /// Returns a sandbox to the pool at `busy_until`, preserving the sort;
    /// a fresh (cold) sandbox also counts toward `cold_starts`.
    fn pool_insert(&mut self, busy_until: f64, warm: bool) {
        self.order_pool();
        let at = self.instances.partition_point(|&b| b <= busy_until);
        self.instances.insert(at, busy_until);
        if !warm {
            self.cold_starts += 1;
        }
    }

    /// The phases of `work` on this function: the last work's record when
    /// its key matches, else freshly computed under `perf` and kept.
    fn phases(&mut self, perf: &PerfModel, work: &InvocationWork) -> Phases {
        let key = (work.load_bytes, work.flops, work.resident_bytes);
        match self.phases {
            Some(p) if p.key == key => p,
            _ => {
                let p = Phases::of(perf, self.spec.memory_mb, key);
                self.phases = Some(p);
                p
            }
        }
    }
}

/// What [`Platform::invoke`] derives from a work's `(load_bytes, flops,
/// resident_bytes)` on one memory block: the resident footprint, the OOM
/// verdict and the CPU-bound phase seconds (compute at full length).
#[derive(Debug, Clone, Copy)]
struct Phases {
    key: (u64, u64, u64),
    footprint_mb: f64,
    oom: bool,
    import_s: f64,
    load_s: f64,
    compute_s: f64,
}

impl Phases {
    fn of(perf: &PerfModel, memory_mb: u32, key: (u64, u64, u64)) -> Self {
        let (load_bytes, flops, resident_bytes) = key;
        let law = LambdaPerf::new(perf, memory_mb);
        let footprint_mb = perf.runtime_footprint_mb + resident_bytes as f64 / MB as f64;
        Phases {
            key,
            footprint_mb,
            oom: law.is_oom(footprint_mb),
            import_s: law.cpu_time(law.import_work(), footprint_mb),
            load_s: law.cpu_time(law.load_work(load_bytes), footprint_mb),
            compute_s: law.cpu_time(law.compute_work(flops), footprint_mb),
        }
    }
}

/// Warm-pool provisioning policy: how a deployment keeps capacity
/// resident between requests. The default reproduces classic Lambda
/// behavior (nothing pre-warmed, 10-minute keep-alive, idle time free);
/// the other presets model provisioned concurrency (paid pre-warmed
/// instances that never lapse) and scale-to-zero (every request cold).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmPoolPolicy {
    /// Instances pre-warmed per function at serving start. The sharded
    /// serving engine splits this count across its lanes.
    pub pre_warm: usize,
    /// How long an idle instance stays warm, seconds (`f64::INFINITY` =
    /// never lapses).
    pub keep_alive_s: f64,
    /// Whether idle warm time is billed (provisioned-concurrency pricing,
    /// [`CostItem::WarmPoolIdle`]). When false, idle seconds are still
    /// *measured* and reported — just not charged.
    pub bill_idle: bool,
}

impl Default for WarmPoolPolicy {
    fn default() -> Self {
        WarmPoolPolicy::lambda_default()
    }
}

impl WarmPoolPolicy {
    /// Classic Lambda: no pre-warming, 10-minute keep-alive, idle free.
    pub fn lambda_default() -> Self {
        WarmPoolPolicy {
            pre_warm: 0,
            keep_alive_s: 600.0,
            bill_idle: false,
        }
    }

    /// Scale-to-zero: instances lapse the moment they go idle — every
    /// request pays a cold start, nothing idles.
    pub fn scale_to_zero() -> Self {
        WarmPoolPolicy {
            pre_warm: 0,
            keep_alive_s: 0.0,
            bill_idle: false,
        }
    }

    /// Provisioned concurrency: `count` instances per function pre-warmed
    /// at t = 0, never lapsing, idle time billed at the provisioned rate.
    pub fn provisioned(count: usize) -> Self {
        WarmPoolPolicy {
            pre_warm: count,
            keep_alive_s: f64::INFINITY,
            bill_idle: true,
        }
    }

    /// Lambda-style free keep-alive with a custom horizon.
    pub fn keep_alive(seconds: f64) -> Self {
        WarmPoolPolicy {
            pre_warm: 0,
            keep_alive_s: seconds,
            bill_idle: false,
        }
    }
}

impl std::fmt::Display for WarmPoolPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == WarmPoolPolicy::lambda_default() {
            return f.write_str("lambda-default");
        }
        if *self == WarmPoolPolicy::scale_to_zero() {
            return f.write_str("scale-to-zero");
        }
        if *self == WarmPoolPolicy::provisioned(self.pre_warm) {
            return write!(f, "provisioned({})", self.pre_warm);
        }
        write!(
            f,
            "pre-warm={},keep-alive={}s{}",
            self.pre_warm,
            self.keep_alive_s,
            if self.bill_idle { ",billed" } else { "" }
        )
    }
}

/// The simulated platform.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Active quota preset.
    quotas: Quotas,
    /// Active price sheet.
    prices: PriceSheet,
    /// Performance-law constants. Fixed at construction: every deployed
    /// function's cold-start seconds and phase record are derived from it.
    perf: PerfModel,
    /// Intermediate object storage.
    pub store: ObjectStore,
    /// Per-category cost ledger.
    pub ledger: CostLedger,
    functions: Vec<DeployedFunction>,
    /// Warm-pool provisioning policy.
    warm_pool: WarmPoolPolicy,
    /// Lambda-level fault injection (disabled by default).
    faults: FaultInjector,
    /// Platform-global invocation counter (fault targeting, metrics).
    invocations: u64,
    /// When set, the next invocation's fault-targeting sequence number
    /// comes from here (incrementing) instead of from `invocations`. Set
    /// by [`Platform::begin_request`] so sharded serving can target
    /// `crash_invocations` by `(request_index << 32) + attempt` regardless
    /// of shard interleaving; `None` (the default) keeps the legacy
    /// platform-global numbering.
    seq_override: Option<u64>,
}

impl Platform {
    /// Creates a platform with the 2020 AWS presets and an S3 store.
    pub fn aws_2020() -> Self {
        Platform::new(
            Quotas::lambda_2020(),
            PriceSheet::aws_2020(),
            PerfModel::default(),
            StoreKind::s3(),
        )
    }

    /// Creates a platform from explicit presets.
    pub fn new(quotas: Quotas, prices: PriceSheet, perf: PerfModel, store: StoreKind) -> Self {
        Platform {
            quotas,
            prices,
            perf,
            store: ObjectStore::new(store),
            ledger: CostLedger::new(),
            functions: Vec::new(),
            warm_pool: WarmPoolPolicy::default(),
            faults: FaultInjector::new(FaultPlan::none()),
            invocations: 0,
            seq_override: None,
        }
    }

    /// Platform with the given warm-pool provisioning policy.
    pub fn with_warm_pool(mut self, policy: WarmPoolPolicy) -> Self {
        self.warm_pool = policy;
        self
    }

    /// The active warm-pool policy.
    pub fn warm_pool(&self) -> WarmPoolPolicy {
        self.warm_pool
    }

    /// The active quota preset.
    pub fn quotas(&self) -> &Quotas {
        &self.quotas
    }

    /// The active price sheet.
    pub fn prices(&self) -> &PriceSheet {
        &self.prices
    }

    /// The performance-law constants.
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// Marks the start of one served request with global index
    /// `request_index`, re-keying every per-request randomness source to
    /// that index: the fault-injector stream, the storage failure stream,
    /// and the fault-targeting sequence base (`request_index << 32`, so
    /// [`FaultPlan::crash_invocations`] targets
    /// `(request_index << 32) + attempt` in this mode). After this call,
    /// the request's draws depend only on `(seed, request_index)` — never
    /// on how many draws other requests consumed — which is what lets
    /// sharded serving produce bit-identical results at any thread count.
    ///
    /// With fault injection disabled and a non-flaky store (the defaults),
    /// nothing ever draws, so this call is behaviorally inert. Serial
    /// paths that never call it keep the legacy platform-global stream and
    /// sequence numbering.
    pub fn begin_request(&mut self, request_index: u64) {
        self.seq_override = Some(request_index << 32);
        self.faults.begin_stream(request_index);
        self.store.set_stream(request_index);
    }

    /// Forks an empty shard of this platform: same quotas, prices,
    /// performance law, warm-pool policy, fault plan, and deployed
    /// functions — but fresh (empty) warm pools, ledger, store, and
    /// counters. Shards simulate disjoint request slices and are merged
    /// back with [`Platform::absorb_shards`].
    pub fn fork_empty(&self) -> Platform {
        Platform {
            quotas: self.quotas,
            prices: self.prices,
            perf: self.perf,
            store: ObjectStore::new(self.store.kind),
            ledger: CostLedger::new(),
            functions: self
                .functions
                .iter()
                .map(|f| DeployedFunction::new(f.spec.clone(), f.cold_s, f.phases))
                .collect(),
            warm_pool: self.warm_pool,
            faults: FaultInjector::new(self.faults.plan().clone()),
            invocations: 0,
            seq_override: None,
        }
    }

    /// Merges shards produced by [`Platform::fork_empty`] back into this
    /// platform, in lane order: invocation counters add, ledger totals add,
    /// stores merge by a shifted append (see [`ObjectStore::absorb`]), and
    /// each function's warm pools concatenate, with its cold-start,
    /// pre-warm and idle counters added lane by lane.
    ///
    /// A merged pool is left unordered and sorted once by its first
    /// reader (an invocation or [`Platform::settle_warm_pool`]), so a
    /// platform dropped after the merge never pays for the sort. That sort reproduces merging the shards
    /// one at a time: every pool is sorted by `total_cmp`, and entries
    /// that compare equal under it are bit-equal, so any sorted
    /// arrangement of the concatenation is the same vector. Each shard's
    /// key table and pools are freed as soon as they are copied, so no
    /// entry is ever held twice.
    pub fn absorb_shards(&mut self, mut shards: Vec<Platform>) {
        for shard in &shards {
            assert_eq!(
                self.functions.len(),
                shard.functions.len(),
                "shards must come from the same deployment"
            );
        }
        self.store
            .reserve(shards.iter().map(|s| s.store.num_keys()).sum());
        for shard in &mut shards {
            self.invocations += shard.invocations;
            self.ledger.absorb(std::mem::take(&mut shard.ledger));
            let kind = shard.store.kind;
            self.store
                .absorb(std::mem::replace(&mut shard.store, ObjectStore::new(kind)));
        }
        for (f, mine) in self.functions.iter_mut().enumerate() {
            let extra: usize = shards.iter().map(|s| s.functions[f].instances.len()).sum();
            mine.instances.reserve(extra);
            for shard in &mut shards {
                let theirs = &mut shard.functions[f];
                mine.instances
                    .extend_from_slice(&std::mem::take(&mut theirs.instances));
                mine.cold_starts += theirs.cold_starts;
                mine.pre_warmed += theirs.pre_warmed;
                mine.idle_warm_s += theirs.idle_warm_s;
                mine.idle_billed_until = mine.idle_billed_until.max(theirs.idle_billed_until);
            }
            mine.ordered &= extra == 0;
        }
    }

    /// Platform with lambda-level fault injection enabled.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultInjector::new(plan);
        self
    }

    /// Total invocations attempted so far (successes and failures).
    pub fn invocation_count(&self) -> u64 {
        self.invocations
    }

    /// Validates a spec against the quotas without deploying.
    pub fn validate_spec(&self, spec: &FunctionSpec) -> Result<(), DeployError> {
        if !self.quotas.is_valid_memory(spec.memory_mb) {
            return Err(DeployError::InvalidMemory(spec.memory_mb));
        }
        let limit = u64::from(self.quotas.deploy_limit_mb) * MB;
        let got = spec.package_bytes();
        if got > limit {
            return Err(DeployError::PackageTooLarge { got, limit });
        }
        if spec.layer_bytes.len() > self.quotas.max_layers as usize {
            return Err(DeployError::TooManyLayers(spec.layer_bytes.len()));
        }
        Ok(())
    }

    /// Deploys a function; returns its id and the deployment duration
    /// (model upload + function creation — counted in the paper's
    /// end-to-end completion times, §2.2.1).
    pub fn deploy(&mut self, spec: FunctionSpec) -> Result<(FunctionId, f64), DeployError> {
        self.validate_spec(&spec)?;
        // Dependencies are pre-published layers referenced by ARN (paper
        // §2.1): only the model/weights layers upload at deploy time — the
        // largest layer is assumed to be the shared dependency layer when
        // several exist.
        let uploaded: u64 = if spec.layer_bytes.len() > 1 {
            spec.package_bytes() - spec.layer_bytes.iter().copied().max().unwrap_or(0)
        } else {
            spec.package_bytes()
        };
        let duration =
            self.perf.deploy_fixed_s + uploaded as f64 / (self.perf.deploy_upload_mbps * 1e6);
        let id = FunctionId(self.functions.len());
        let cold_s = LambdaPerf::new(&self.perf, spec.memory_mb).cold_start(spec.package_bytes());
        self.functions
            .push(DeployedFunction::new(spec, cold_s, None));
        Ok((id, duration))
    }

    /// Pre-warms `count` instances of every deployed function at t = 0
    /// (warm-pool policies with `pre_warm > 0`; the sharded serving engine
    /// calls this per shard with the lane's share). Pre-warmed instances
    /// are idle-from-zero sandboxes: they serve warm without counting as
    /// cold starts, and their idle time accrues like any other instance's.
    pub fn pre_warm(&mut self, count: usize) {
        if count == 0 {
            return;
        }
        for f in &mut self.functions {
            f.instances.extend(std::iter::repeat_n(0.0, count));
            f.ordered = false;
            f.pre_warmed += count;
        }
    }

    /// Instances pre-warmed across all functions (metrics).
    pub fn pre_warmed_total(&self) -> usize {
        self.functions.iter().map(|f| f.pre_warmed).sum()
    }

    /// Settles idle warm-pool time up to `until`: drains the idle seconds
    /// already consumed by warm reuses, adds each still-pooled instance's
    /// idle tail (capped by the keep-alive horizon), and advances a
    /// per-function watermark so repeated settlements never double-count.
    /// When the policy bills idle time, the settled seconds are charged as
    /// [`CostItem::WarmPoolIdle`] at the provisioned-capacity rate.
    /// Returns `(idle_seconds, dollars)`.
    pub fn settle_warm_pool(&mut self, until: f64) -> (f64, f64) {
        let policy = self.warm_pool;
        let rate = self.prices.lambda_provisioned_gb_second;
        let mut idle_total = 0.0;
        let mut dollars = 0.0;
        for f in &mut self.functions {
            // The idle sum runs in pool order, so its bits need the sort.
            f.order_pool();
            let mut idle = std::mem::take(&mut f.idle_warm_s);
            for &busy_until in &f.instances {
                let warm_until = if policy.keep_alive_s.is_finite() {
                    busy_until + policy.keep_alive_s
                } else {
                    f64::INFINITY
                };
                let from = busy_until.max(f.idle_billed_until);
                let to = until.min(warm_until);
                if to > from {
                    idle += to - from;
                }
            }
            f.idle_billed_until = f.idle_billed_until.max(until);
            if idle > 0.0 {
                idle_total += idle;
                if policy.bill_idle {
                    let c = rate * idle * (f64::from(f.spec.memory_mb) / 1024.0);
                    dollars += c;
                    self.ledger.charge(CostItem::WarmPoolIdle, c);
                }
            }
        }
        (idle_total, dollars)
    }

    /// Deployed function count.
    pub fn num_functions(&self) -> usize {
        self.functions.len()
    }

    /// The spec of a deployed function.
    pub fn spec(&self, id: FunctionId) -> Option<&FunctionSpec> {
        self.functions.get(id.0).map(|f| &f.spec)
    }

    /// Cold starts a function has incurred (instances spun up).
    pub fn cold_starts(&self, id: FunctionId) -> usize {
        self.functions.get(id.0).map_or(0, |f| f.cold_starts)
    }

    /// Idle warm seconds accrued by warm reuses so far, across all
    /// functions: the gap between an instance going free and its next
    /// warm invocation, summed over every reuse. Unlike
    /// [`Platform::settle_warm_pool`] this is a non-draining read — the
    /// pipelined serving mode reads it to show how much less its stations
    /// let warm containers sit idle than the sequential chain does.
    pub fn warm_idle_accrued(&self) -> f64 {
        self.functions.iter().map(|f| f.idle_warm_s).sum()
    }

    /// Live container instances of a function.
    pub fn instance_count(&self, id: FunctionId) -> usize {
        self.functions.get(id.0).map_or(0, |f| f.instances.len())
    }

    /// Invokes function `id` starting at absolute time `start`.
    ///
    /// Sequencing inside the invocation: cold start → import → weight load
    /// → storage reads → compute → storage writes → response. Warm
    /// containers (idle no longer than the warm-pool policy's
    /// `keep_alive_s`) skip cold/import/load, as a kept-alive Lambda
    /// sandbox with a cached model would. The perf-model phases come from
    /// the function's record of its last work when `work`'s
    /// `(load_bytes, flops, resident_bytes)` match it, and are computed
    /// (and recorded) otherwise; the `/tmp` check runs on every call.
    ///
    /// Failures are billed like real Lambda bills them: the returned
    /// [`FailedInvocation`] charges GB-seconds for the time the sandbox
    /// actually consumed before dying (a timed-out invocation pays for the
    /// whole timeout window) plus the request fee, and the instance pool
    /// reflects the occupied sandbox.
    pub fn invoke(
        &mut self,
        id: FunctionId,
        start: f64,
        work: &InvocationWork,
    ) -> Result<InvocationOutcome, FailedInvocation> {
        let Some(func) = self.functions.get_mut(id.0) else {
            return Err(FailedInvocation::unbilled(
                InvokeError::NoSuchFunction,
                start,
            ));
        };
        // Scalars the rest of the invocation needs, copied out so the hot
        // path never clones the spec (name + layer vector allocations).
        let memory_mb = func.spec.memory_mb;
        let cold_s = func.cold_s;
        let phases = func.phases(&self.perf, work);
        let keep_alive_s = self.warm_pool.keep_alive_s;
        // Instance selection: reuse the most-recently-idle warm instance
        // that is free at `start` and within keep-alive; otherwise a fresh
        // cold instance handles this (possibly concurrent) request. The
        // pool is sorted by `busy_until`, so the candidate is the largest
        // entry ≤ `start` — one binary search, no linear scan. The chosen
        // sandbox leaves the pool here and rejoins at its new `busy_until`
        // when the invocation resolves.
        func.order_pool();
        let idle = func.instances.partition_point(|&b| b <= start);
        let warm = idle > 0 && start - func.instances[idle - 1] <= keep_alive_s;
        if warm {
            let busy_until = func.instances.remove(idle - 1);
            // The reused instance idled from going free to this reuse —
            // warm-pool time the policy may bill at settlement.
            let idled_from = busy_until.max(func.idle_billed_until);
            if start > idled_from {
                func.idle_warm_s += start - idled_from;
            }
        }
        let seq = match self.seq_override.as_mut() {
            Some(s) => {
                let v = *s;
                *s += 1;
                v
            }
            None => self.invocations,
        };
        self.invocations += 1;
        let fault = self.faults.draw(seq, !warm);

        let mut b = DurationBreakdown::default();
        if !warm {
            b.cold_s = cold_s;
        }
        if fault == Some(FaultKind::ColdStartFailure) {
            // The sandbox dies during creation: nothing joins the pool and
            // nothing warms up, but the creation time is still billed.
            let consumed = b.total();
            return Err(self.fail(
                id,
                memory_mb,
                start,
                b,
                consumed,
                false,
                false,
                0.0,
                InvokeError::ColdStartFailed,
            ));
        }
        if phases.oom {
            // Dies loading the model graph into memory: the cold phases ran.
            if !warm {
                b.import_s = phases.import_s;
                b.load_s = phases.load_s;
            }
            let consumed = b.total();
            return Err(self.fail(
                id,
                memory_mb,
                start,
                b,
                consumed,
                warm,
                true,
                0.0,
                InvokeError::OutOfMemory {
                    footprint_mb: phases.footprint_mb,
                    memory_mb,
                },
            ));
        }
        let tmp_limit = u64::from(self.quotas.tmp_limit_mb) * MB;
        if work.tmp_bytes > tmp_limit {
            // Dies staging weight files to /tmp, before the load finishes.
            if !warm {
                b.import_s = phases.import_s;
            }
            let consumed = b.total();
            return Err(self.fail(
                id,
                memory_mb,
                start,
                b,
                consumed,
                warm,
                true,
                0.0,
                InvokeError::TmpExceeded {
                    got: work.tmp_bytes,
                    limit: tmp_limit,
                },
            ));
        }
        if !warm {
            b.import_s = phases.import_s;
            b.load_s = phases.load_s;
        }
        // Storage reads (charged fees; missing keys abort, having consumed
        // everything up to and including the failed lookups).
        let mut fees = 0.0;
        let mut storage_retry_s = 0.0;
        let latency = self.store.kind.request_latency_s;
        for &key in &work.reads {
            match self.store.get_id(key, &self.prices, &mut self.ledger) {
                Ok(op) => {
                    b.transfer_s += op.duration_s;
                    storage_retry_s += f64::from(op.attempts - 1) * latency;
                    fees += op.fee;
                }
                Err(e) => {
                    let (reason, burned) = Self::storage_failure(e, latency);
                    b.transfer_s += burned;
                    let consumed = b.total();
                    return Err(
                        self.fail(id, memory_mb, start, b, consumed, warm, true, fees, reason)
                    );
                }
            }
        }
        match fault {
            Some(FaultKind::Crash { compute_fraction }) => {
                // The handler crashes mid-compute; no writes happen.
                b.compute_s = phases.compute_s * compute_fraction;
                let consumed = b.total();
                return Err(self.fail(
                    id,
                    memory_mb,
                    start,
                    b,
                    consumed,
                    warm,
                    true,
                    fees,
                    InvokeError::Crashed {
                        duration_s: consumed,
                    },
                ));
            }
            Some(FaultKind::Timeout) => {
                // The handler hangs after its reads; the platform kills it
                // at the timeout and bills the whole window.
                b.compute_s = (self.quotas.timeout_s - b.total()).max(0.0);
                let consumed = self.quotas.timeout_s;
                return Err(self.fail(
                    id,
                    memory_mb,
                    start,
                    b,
                    consumed,
                    warm,
                    true,
                    fees,
                    InvokeError::Timeout {
                        duration_s: consumed,
                    },
                ));
            }
            _ => b.compute_s = phases.compute_s,
        }
        // Storage writes happen after compute; objects become visible at
        // the write-completion instant.
        let pre_write = start + b.cold_s + b.import_s + b.load_s + b.transfer_s + b.compute_s;
        let mut write_s = 0.0;
        for &(key, bytes) in &work.writes {
            match self.store.put_id(
                key,
                bytes,
                pre_write + write_s,
                &self.prices,
                &mut self.ledger,
            ) {
                Ok(op) => {
                    write_s += op.duration_s;
                    storage_retry_s += f64::from(op.attempts - 1) * latency;
                    fees += op.fee;
                }
                Err(e) => {
                    let (reason, burned) = Self::storage_failure(e, latency);
                    b.transfer_s += write_s + burned;
                    let consumed = b.total();
                    return Err(
                        self.fail(id, memory_mb, start, b, consumed, warm, true, fees, reason)
                    );
                }
            }
        }
        b.transfer_s += write_s;
        b.fixed_s = self.perf.fixed_overhead_s;

        let duration = b.total();
        if duration > self.quotas.timeout_s {
            // Killed at the timeout; the timeout window is billed in full.
            return Err(self.fail(
                id,
                memory_mb,
                start,
                b,
                self.quotas.timeout_s,
                warm,
                true,
                fees,
                InvokeError::Timeout {
                    duration_s: duration,
                },
            ));
        }

        let billed = self.prices.billed_duration(duration);
        let compute_cost = self.prices.lambda_compute_cost(duration, memory_mb);
        self.ledger.charge(CostItem::LambdaCompute, compute_cost);
        self.ledger
            .charge(CostItem::LambdaRequest, self.prices.lambda_request);

        self.functions[id.0].pool_insert(start + duration, warm);
        Ok(InvocationOutcome {
            start,
            end: start + duration,
            breakdown: b,
            billed_s: billed,
            dollars: compute_cost + self.prices.lambda_request + fees,
            warm,
            storage_retry_s,
        })
    }

    /// Maps a storage error to its invocation failure reason plus the
    /// client-side seconds the failed lookups burned.
    fn storage_failure(e: crate::storage::StorageError, latency_s: f64) -> (InvokeError, f64) {
        match e {
            crate::storage::StorageError::NotFound(k) => (InvokeError::MissingInput(k), latency_s),
            crate::storage::StorageError::Unavailable { key, attempts } => (
                InvokeError::StorageUnavailable(key),
                f64::from(attempts) * latency_s,
            ),
        }
    }

    /// Bills a failed invocation — compute for the consumed time, the
    /// request fee, storage fees already incurred — and occupies the
    /// sandbox in the instance pool (unless creation itself failed).
    #[allow(clippy::too_many_arguments)]
    fn fail(
        &mut self,
        id: FunctionId,
        memory_mb: u32,
        start: f64,
        breakdown: DurationBreakdown,
        consumed_s: f64,
        warm: bool,
        sandbox_created: bool,
        fees: f64,
        reason: InvokeError,
    ) -> FailedInvocation {
        let billed = self.prices.billed_duration(consumed_s);
        let compute_cost = self.prices.lambda_compute_cost(consumed_s, memory_mb);
        if compute_cost > 0.0 {
            self.ledger.charge(CostItem::LambdaCompute, compute_cost);
        }
        self.ledger
            .charge(CostItem::LambdaRequest, self.prices.lambda_request);
        let end = start + consumed_s;
        if sandbox_created {
            // Lambda reuses sandboxes after handler errors and timeouts —
            // the runtime restarts inside the same (billable) instance.
            self.functions[id.0].pool_insert(end, warm);
        }
        FailedInvocation {
            reason,
            start,
            end,
            breakdown,
            billed_s: billed,
            dollars: compute_cost + self.prices.lambda_request + fees,
            warm,
        }
    }

    /// Settles at-rest storage charges up to `until`; call once per job.
    pub fn settle_storage(&mut self, until: f64) -> f64 {
        let prices = self.prices;
        self.store.settle_storage(until, &prices, &mut self.ledger)
    }

    /// Total dollars accrued so far.
    pub fn total_cost(&self) -> f64 {
        self.ledger.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(mem: u32, weights_mb: u64) -> FunctionSpec {
        FunctionSpec {
            name: format!("f{mem}"),
            memory_mb: mem,
            code_bytes: MB,
            layer_bytes: vec![169 * MB, weights_mb * MB],
        }
    }

    #[test]
    fn deploy_enforces_package_limit() {
        let mut p = Platform::aws_2020();
        // 1 + 169 + 98 = 268 MB > 250 MB: the paper's Table 1 ResNet50 case.
        let err = p.deploy(spec(1024, 98)).unwrap_err();
        assert!(matches!(err, DeployError::PackageTooLarge { .. }));
        // 1 + 169 + 17 = 187 MB: MobileNet fits.
        assert!(p.deploy(spec(1024, 17)).is_ok());
    }

    #[test]
    fn deploy_enforces_memory_blocks_and_layers() {
        let mut p = Platform::aws_2020();
        let mut s = spec(1000, 10);
        s.memory_mb = 1000; // not a 64 MB-aligned block
        assert!(matches!(
            p.deploy(s).unwrap_err(),
            DeployError::InvalidMemory(1000)
        ));
        let mut s = spec(1024, 10);
        s.layer_bytes = vec![MB; 6];
        assert!(matches!(
            p.deploy(s).unwrap_err(),
            DeployError::TooManyLayers(6)
        ));
    }

    #[test]
    fn invoke_bills_compute_and_request() {
        let mut p = Platform::aws_2020();
        let (id, _) = p.deploy(spec(1024, 17)).unwrap();
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_140_000_000,
            resident_bytes: 40 * MB,
            tmp_bytes: 20 * MB,
            ..Default::default()
        };
        let out = p.invoke(id, 0.0, &work).unwrap();
        assert!(!out.warm);
        assert!(out.duration() > 1.0 && out.duration() < 20.0);
        let expect = p.prices.lambda_compute_cost(out.duration(), 1024) + p.prices.lambda_request;
        assert!((out.dollars - expect).abs() < 1e-12);
        assert!(p.ledger.total_of(CostItem::LambdaCompute) > 0.0);
    }

    #[test]
    fn warm_invocations_skip_cold_phases() {
        let mut p = Platform::aws_2020();
        let (id, _) = p.deploy(spec(1024, 17)).unwrap();
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        let first = p.invoke(id, 0.0, &work).unwrap();
        let second = p.invoke(id, first.end + 1.0, &work).unwrap();
        assert!(second.warm);
        assert_eq!(second.breakdown.import_s, 0.0);
        assert_eq!(second.breakdown.load_s, 0.0);
        assert!(second.duration() < first.duration());
        // Cold again after the keep-alive lapses.
        let keep_alive_s = p.warm_pool().keep_alive_s;
        let third = p
            .invoke(id, second.end + keep_alive_s + 1.0, &work)
            .unwrap();
        assert!(!third.warm);
    }

    #[test]
    fn concurrent_invocations_scale_out_cold() {
        // Two requests at the same instant: Lambda spins two instances,
        // both cold; a third after they finish rides one of them warm.
        let mut p = Platform::aws_2020();
        let (id, _) = p.deploy(spec(1024, 17)).unwrap();
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        let a = p.invoke(id, 0.0, &work).unwrap();
        let b = p.invoke(id, 0.0, &work).unwrap();
        assert!(!a.warm && !b.warm);
        assert_eq!(p.cold_starts(id), 2);
        assert_eq!(p.instance_count(id), 2);
        let c = p.invoke(id, a.end.max(b.end) + 0.5, &work).unwrap();
        assert!(c.warm);
        assert_eq!(p.cold_starts(id), 2);
    }

    #[test]
    fn overlapping_chain_requests_do_not_share_busy_instances() {
        let mut p = Platform::aws_2020();
        let (id, _) = p.deploy(spec(1024, 10)).unwrap();
        let work = InvocationWork {
            load_bytes: 10 * MB,
            flops: 3_000_000_000,
            resident_bytes: 30 * MB,
            ..Default::default()
        };
        let first = p.invoke(id, 0.0, &work).unwrap();
        // Second request arrives while the first instance is busy.
        let second = p.invoke(id, first.end - 1.0, &work).unwrap();
        assert!(!second.warm, "busy instance must not be reused");
        assert_eq!(p.instance_count(id), 2);
    }

    #[test]
    fn chain_via_storage() {
        let mut p = Platform::aws_2020();
        let (f1, _) = p.deploy(spec(1024, 10)).unwrap();
        let (f2, _) = p.deploy(spec(1024, 10)).unwrap();
        let inter = p.store.fresh_key();
        let w1 = InvocationWork {
            load_bytes: 10 * MB,
            flops: 500_000_000,
            resident_bytes: 30 * MB,
            writes: vec![(inter, 2 * MB)],
            ..Default::default()
        };
        let o1 = p.invoke(f1, 0.0, &w1).unwrap();
        let w2 = InvocationWork {
            load_bytes: 10 * MB,
            flops: 500_000_000,
            resident_bytes: 30 * MB,
            reads: vec![inter],
            ..Default::default()
        };
        let o2 = p.invoke(f2, o1.end, &w2).unwrap();
        assert!(o2.end > o1.end);
        assert!(p.ledger.total_of(CostItem::StoragePut) > 0.0);
        assert!(p.ledger.total_of(CostItem::StorageGet) > 0.0);
        let settled = p.settle_storage(o2.end);
        assert!(settled >= 0.0);
    }

    #[test]
    fn missing_input_fails() {
        let mut p = Platform::aws_2020();
        let (id, _) = p.deploy(spec(1024, 10)).unwrap();
        let never = p.store.fresh_key();
        let w = InvocationWork {
            reads: vec![never],
            ..Default::default()
        };
        let failed = p.invoke(id, 0.0, &w).unwrap_err();
        assert_eq!(failed.reason, InvokeError::MissingInput(never));
        // The sandbox ran cold start, import and load before discovering
        // the missing input — that consumed time is billed.
        assert!(failed.duration() > 0.0);
        assert!(failed.dollars > p.prices.lambda_request);
        assert!(p.ledger.total_of(CostItem::LambdaCompute) > 0.0);
    }

    #[test]
    fn tmp_limit_enforced() {
        let mut p = Platform::aws_2020();
        let (id, _) = p.deploy(spec(3008, 10)).unwrap();
        let w = InvocationWork {
            tmp_bytes: 600 * MB,
            ..Default::default()
        };
        assert!(matches!(
            p.invoke(id, 0.0, &w).unwrap_err().reason,
            InvokeError::TmpExceeded { .. }
        ));
    }

    #[test]
    fn oom_at_tiny_memory() {
        let mut p = Platform::aws_2020();
        let (id, _) = p.deploy(spec(128, 10)).unwrap();
        let w = InvocationWork {
            load_bytes: 10 * MB,
            flops: 1_000_000,
            resident_bytes: 30 * MB,
            ..Default::default()
        };
        assert!(matches!(
            p.invoke(id, 0.0, &w).unwrap_err().reason,
            InvokeError::OutOfMemory { .. }
        ));
    }

    #[test]
    fn injected_timeout_bills_full_window() {
        let mut p = Platform::aws_2020().with_fault_plan(FaultPlan {
            timeout_rate: 1.0,
            ..FaultPlan::default()
        });
        let (id, _) = p.deploy(spec(1024, 17)).unwrap();
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        let failed = p.invoke(id, 0.0, &work).unwrap_err();
        assert!(matches!(failed.reason, InvokeError::Timeout { .. }));
        assert!((failed.duration() - p.quotas.timeout_s).abs() < 1e-9);
        assert!((failed.billed_s - p.prices.billed_duration(p.quotas.timeout_s)).abs() < 1e-12);
        let expect =
            p.prices.lambda_compute_cost(p.quotas.timeout_s, 1024) + p.prices.lambda_request;
        assert!((failed.dollars - expect).abs() < 1e-12);
        // The hung sandbox occupies the pool until the kill.
        assert_eq!(p.instance_count(id), 1);
    }

    #[test]
    fn injected_crash_bills_partial_compute() {
        let mut p = Platform::aws_2020().with_fault_plan(FaultPlan {
            crash_invocations: vec![0],
            ..FaultPlan::default()
        });
        let (id, _) = p.deploy(spec(1024, 17)).unwrap();
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 2_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        let failed = p.invoke(id, 0.0, &work).unwrap_err();
        assert!(matches!(failed.reason, InvokeError::Crashed { .. }));
        // Crashed halfway through compute: strictly between the no-compute
        // and full-compute durations, and billed strictly positive.
        let mut clean = Platform::aws_2020();
        let (cid, _) = clean.deploy(spec(1024, 17)).unwrap();
        let ok = clean.invoke(cid, 0.0, &work).unwrap();
        assert!(failed.duration() > 0.0 && failed.duration() < ok.duration());
        assert!(failed.dollars > 0.0);
        // A retry on the same platform rides the surviving sandbox warm.
        let retry = p.invoke(id, failed.end + 0.1, &work).unwrap();
        assert!(retry.warm);
    }

    #[test]
    fn cold_start_failure_leaves_no_instance() {
        let mut p = Platform::aws_2020().with_fault_plan(FaultPlan {
            cold_start_failure_rate: 1.0,
            ..FaultPlan::default()
        });
        let (id, _) = p.deploy(spec(1024, 17)).unwrap();
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        let failed = p.invoke(id, 0.0, &work).unwrap_err();
        assert_eq!(failed.reason, InvokeError::ColdStartFailed);
        assert_eq!(p.instance_count(id), 0);
        assert_eq!(p.cold_starts(id), 0);
        // Only sandbox-creation time was consumed; the request fee applies.
        assert!(failed.duration() > 0.0);
        assert!(failed.dollars >= p.prices.lambda_request);
    }

    #[test]
    fn sorted_pool_picks_most_recently_idle() {
        // Three instances idle at 1.0, 5.0 and 9.0; a request at 7.0 must
        // reuse the 5.0 one (most recently idle among the free), leaving
        // the others untouched.
        let mut p = Platform::aws_2020();
        let (id, _) = p.deploy(spec(1024, 17)).unwrap();
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        // Spin up three concurrent (cold) instances.
        let ends: Vec<f64> = (0..3)
            .map(|_| p.invoke(id, 0.0, &work).unwrap().end)
            .collect();
        assert_eq!(p.cold_starts(id), 3);
        // All idle now; a request just after the first end must ride warm
        // without creating a fourth instance.
        let t = ends[0] + 0.1;
        let out = p.invoke(id, t, &work).unwrap();
        assert!(out.warm);
        assert_eq!(p.instance_count(id), 3);
        assert_eq!(p.cold_starts(id), 3);
    }

    #[test]
    fn scale_to_zero_never_serves_warm() {
        let mut p = Platform::aws_2020().with_warm_pool(WarmPoolPolicy::scale_to_zero());
        let (id, _) = p.deploy(spec(1024, 17)).unwrap();
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        let first = p.invoke(id, 0.0, &work).unwrap();
        let second = p.invoke(id, first.end + 1.0, &work).unwrap();
        assert!(!second.warm, "scale-to-zero must cold-start every request");
        assert_eq!(p.cold_starts(id), 2);
        // Nothing idles under this policy.
        let (idle, dollars) = p.settle_warm_pool(second.end + 100.0);
        assert_eq!(idle, 0.0);
        assert_eq!(dollars, 0.0);
    }

    #[test]
    fn provisioned_pool_serves_warm_and_bills_idle() {
        let mut p = Platform::aws_2020().with_warm_pool(WarmPoolPolicy::provisioned(2));
        let (id, _) = p.deploy(spec(1024, 17)).unwrap();
        p.pre_warm(p.warm_pool().pre_warm);
        assert_eq!(p.pre_warmed_total(), 2);
        assert_eq!(p.instance_count(id), 2);
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        // The very first request rides a pre-warmed instance.
        let out = p.invoke(id, 5.0, &work).unwrap();
        assert!(out.warm, "pre-warmed instance must serve warm");
        assert_eq!(p.cold_starts(id), 0);
        // Idle time: the reused instance idled 0→5; the untouched one and
        // the reused one idle up to the settle instant.
        let until = out.end + 10.0;
        let (idle, dollars) = p.settle_warm_pool(until);
        let expect_idle = 5.0 + until + (until - out.end);
        assert!((idle - expect_idle).abs() < 1e-9, "{idle} vs {expect_idle}");
        let expect_cost = p.prices.lambda_provisioned_gb_second * expect_idle * 1.0;
        assert!((dollars - expect_cost).abs() < 1e-12);
        assert!((p.ledger.total_of(CostItem::WarmPoolIdle) - dollars).abs() < 1e-15);
        // Settling the same instant again double-bills nothing.
        let (again, d2) = p.settle_warm_pool(until);
        assert_eq!(again, 0.0);
        assert_eq!(d2, 0.0);
    }

    #[test]
    fn keep_alive_horizon_caps_settled_idle() {
        // Free keep-alive of 60 s: an instance idle since t=10 settled at
        // t=1000 accrues only 60 idle seconds (then it lapsed), unbilled.
        let mut p = Platform::aws_2020().with_warm_pool(WarmPoolPolicy::keep_alive(60.0));
        let (id, _) = p.deploy(spec(1024, 17)).unwrap();
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        let out = p.invoke(id, 0.0, &work).unwrap();
        let (idle, dollars) = p.settle_warm_pool(out.end + 1000.0);
        assert!((idle - 60.0).abs() < 1e-9, "idle {idle}");
        assert_eq!(dollars, 0.0, "free keep-alive bills nothing");
        assert_eq!(p.cold_starts(id), 1);
    }

    #[test]
    fn warm_pool_policy_labels() {
        assert_eq!(
            WarmPoolPolicy::lambda_default().to_string(),
            "lambda-default"
        );
        assert_eq!(WarmPoolPolicy::scale_to_zero().to_string(), "scale-to-zero");
        assert_eq!(WarmPoolPolicy::provisioned(4).to_string(), "provisioned(4)");
        assert_eq!(
            WarmPoolPolicy::keep_alive(120.0).to_string(),
            "pre-warm=0,keep-alive=120s"
        );
    }

    #[test]
    fn fork_and_absorb_reconstruct_serial_totals() {
        // Two requests served on two shards, merged, must equal the same
        // two requests on one platform: dollars, cold starts, instances.
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        let mut serial = Platform::aws_2020();
        let (id, _) = serial.deploy(spec(1024, 17)).unwrap();
        serial.invoke(id, 0.0, &work).unwrap();
        serial.invoke(id, 0.0, &work).unwrap();

        let mut base = Platform::aws_2020();
        let (idb, _) = base.deploy(spec(1024, 17)).unwrap();
        let mut s1 = base.fork_empty();
        let mut s2 = base.fork_empty();
        s1.invoke(idb, 0.0, &work).unwrap();
        s2.invoke(idb, 0.0, &work).unwrap();
        base.absorb_shards(vec![s1]);
        base.absorb_shards(vec![s2]);
        assert_eq!(base.cold_starts(idb), serial.cold_starts(id));
        assert_eq!(base.instance_count(idb), serial.instance_count(id));
        assert_eq!(base.invocation_count(), serial.invocation_count());
        assert_eq!(base.total_cost(), serial.total_cost());
    }

    /// The lane-by-lane merge [`Platform::absorb_shards`] replaced, kept
    /// as the reference it must reproduce bit for bit: for each shard in
    /// lane order, a stable two-pointer merge of every function's pool
    /// (ties keep the base's entry first), then counters, ledger and store.
    fn absorb_lane_by_lane(base: &mut Platform, shards: Vec<Platform>) {
        for shard in shards {
            for (mine, theirs) in base.functions.iter_mut().zip(shard.functions) {
                let a = std::mem::take(&mut mine.instances);
                let b = theirs.instances;
                let mut merged = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    if a[i].total_cmp(&b[j]).is_le() {
                        merged.push(a[i]);
                        i += 1;
                    } else {
                        merged.push(b[j]);
                        j += 1;
                    }
                }
                merged.extend_from_slice(&a[i..]);
                merged.extend_from_slice(&b[j..]);
                mine.instances = merged;
                mine.cold_starts += theirs.cold_starts;
                mine.pre_warmed += theirs.pre_warmed;
                mine.idle_warm_s += theirs.idle_warm_s;
                mine.idle_billed_until = mine.idle_billed_until.max(theirs.idle_billed_until);
            }
            base.invocations += shard.invocations;
            base.ledger.absorb(shard.ledger);
            base.store.absorb(shard.store);
        }
    }

    /// A random warm pool in the sorted-free-time order every pool keeps:
    /// duplicate free times, pre-warmed zeros and both signed zeros.
    fn random_pool(rng: &mut crate::SmallRng) -> Vec<f64> {
        let mut pool: Vec<f64> = (0..rng.below(12))
            .map(|_| match rng.below(5) {
                0 => 0.0,
                1 => -0.0,
                2 => rng.below(4) as f64 * 0.5,
                _ => rng.next_f64() * 100.0,
            })
            .collect();
        pool.sort_by(f64::total_cmp);
        pool
    }

    fn randomize(p: &mut Platform, rng: &mut crate::SmallRng) {
        for f in &mut p.functions {
            f.instances = random_pool(rng);
            f.cold_starts = rng.below(50);
            f.pre_warmed = rng.below(3);
            f.idle_warm_s = rng.next_f64() * 30.0;
            f.idle_billed_until = rng.next_f64() * 500.0;
        }
        p.invocations = rng.below(1000) as u64;
        for item in [
            CostItem::LambdaCompute,
            CostItem::LambdaRequest,
            CostItem::StoragePut,
            CostItem::WarmPoolIdle,
        ] {
            p.ledger.charge(item, rng.next_f64() * 1e-3);
        }
        p.store.fresh_block(rng.below(6));
        if rng.below(2) == 0 {
            p.store.fresh_key();
        }
    }

    #[test]
    fn shard_absorb_matches_lane_by_lane_merge() {
        for seed in 0..40 {
            let mut rng = crate::SmallRng::seed_from_u64(seed);
            let mut base = Platform::aws_2020();
            for mem in [512, 1024, 2048] {
                base.deploy(spec(mem, 17)).unwrap();
            }
            let lanes = rng.range_inclusive(1, 9);
            let shards: Vec<Platform> = (0..lanes)
                .map(|_| {
                    let mut s = base.fork_empty();
                    randomize(&mut s, &mut rng);
                    s
                })
                .collect();
            randomize(&mut base, &mut rng);

            let mut want = base.clone();
            absorb_lane_by_lane(&mut want, shards.clone());
            let mut got = base;
            got.absorb_shards(shards);

            for (w, g) in want.functions.iter().zip(&mut got.functions) {
                // The merged pool is read through the ordering step every
                // reader (`invoke`, `settle_warm_pool`, ...) runs first.
                g.order_pool();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&w.instances), bits(&g.instances), "seed {seed}: pool");
                assert_eq!(w.cold_starts, g.cold_starts, "seed {seed}");
                assert_eq!(w.pre_warmed, g.pre_warmed, "seed {seed}");
                assert_eq!(
                    w.idle_warm_s.to_bits(),
                    g.idle_warm_s.to_bits(),
                    "seed {seed}"
                );
                assert_eq!(
                    w.idle_billed_until.to_bits(),
                    g.idle_billed_until.to_bits(),
                    "seed {seed}"
                );
            }
            assert_eq!(want.invocations, got.invocations, "seed {seed}");
            assert_eq!(want.total_cost().to_bits(), got.total_cost().to_bits());
            for item in [
                CostItem::LambdaCompute,
                CostItem::LambdaRequest,
                CostItem::StoragePut,
                CostItem::WarmPoolIdle,
            ] {
                assert_eq!(
                    want.ledger.total_of(item).to_bits(),
                    got.ledger.total_of(item).to_bits(),
                    "seed {seed}: {item:?}"
                );
            }
            assert_eq!(want.store.num_keys(), got.store.num_keys(), "seed {seed}");
        }
    }

    #[test]
    fn deferred_pool_order_matches_sorting_at_absorb() {
        // Settling and invoking on a merged platform whose pools are
        // sorted on first use must give the bits of a copy whose pools
        // were sorted right at the merge.
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        let mut deferred = 0;
        for seed in 0..40 {
            let mut rng = crate::SmallRng::seed_from_u64(seed);
            let policy = match seed % 3 {
                0 => WarmPoolPolicy::lambda_default(),
                1 => WarmPoolPolicy::provisioned(1),
                _ => WarmPoolPolicy::keep_alive(30.0),
            };
            let mut lazy = Platform::aws_2020().with_warm_pool(policy);
            for mem in [512, 1024, 2048] {
                lazy.deploy(spec(mem, 17)).unwrap();
            }
            let lanes = rng.range_inclusive(1, 9);
            let shards: Vec<Platform> = (0..lanes)
                .map(|_| {
                    let mut s = lazy.fork_empty();
                    randomize(&mut s, &mut rng);
                    s
                })
                .collect();
            randomize(&mut lazy, &mut rng);
            lazy.absorb_shards(shards);
            deferred += lazy.functions.iter().filter(|f| !f.ordered).count();
            let mut eager = lazy.clone();
            for f in &mut eager.functions {
                f.instances.sort_unstable_by(f64::total_cmp);
                f.ordered = true;
            }

            let settle_at = rng.next_f64() * 200.0;
            let calls: Vec<(FunctionId, f64)> = (0..30)
                .map(|_| (FunctionId(rng.below(3)), rng.next_f64() * 300.0))
                .collect();
            let run = |p: &mut Platform| {
                let mut bits = Vec::new();
                let settle = |p: &mut Platform, bits: &mut Vec<u64>| {
                    let (idle, dollars) = p.settle_warm_pool(settle_at);
                    bits.extend([idle.to_bits(), dollars.to_bits()]);
                };
                if seed % 2 == 0 {
                    settle(p, &mut bits);
                }
                for &(id, t) in &calls {
                    let out = p.invoke(id, t, &work).unwrap();
                    bits.extend([
                        out.end.to_bits(),
                        out.dollars.to_bits(),
                        u64::from(out.warm),
                    ]);
                }
                settle(p, &mut bits);
                bits.push(p.total_cost().to_bits());
                for f in &p.functions {
                    bits.extend(f.instances.iter().map(|x| x.to_bits()));
                }
                bits
            };
            assert_eq!(run(&mut lazy), run(&mut eager), "seed {seed}");
        }
        assert!(deferred > 0, "no merged pool was left for its first reader");
    }

    fn breakdown_bits(b: &DurationBreakdown) -> [u64; 6] {
        [
            b.cold_s,
            b.import_s,
            b.load_s,
            b.compute_s,
            b.transfer_s,
            b.fixed_s,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn phase_record_matches_the_perf_law_across_work_switches() {
        // One function alternates works with different perf-model phases,
        // so each switch misses the record: a normal work and, each
        // differing from it in one key field, one that runs out of memory
        // (resident bytes), one over the /tmp limit (load bytes) and a
        // heavier one (FLOPs); plus one with the normal work's key but
        // over the /tmp limit (a record hit that must still fail). Every
        // outcome must carry the law's bits for its work.
        let mem = 1024;
        let perf = PerfModel::default();
        let prices = PriceSheet::aws_2020();
        let law = LambdaPerf::new(&perf, mem);
        let normal = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_140_000_000,
            resident_bytes: 40 * MB,
            tmp_bytes: 20 * MB,
            ..Default::default()
        };
        let works = [
            normal.clone(),
            InvocationWork {
                resident_bytes: 4000 * MB,
                ..normal.clone()
            },
            InvocationWork {
                load_bytes: 60 * MB,
                tmp_bytes: 600 * MB,
                ..normal.clone()
            },
            InvocationWork {
                flops: 3_000_000_000,
                ..normal.clone()
            },
            InvocationWork {
                tmp_bytes: 600 * MB,
                ..normal
            },
        ];
        let runs = [true, false, false, true, false];
        let mut seen = [[false; 2]; 5];
        let mut misses = 0;
        for seed in 0..20 {
            let mut rng = crate::SmallRng::seed_from_u64(seed);
            let mut p = Platform::aws_2020();
            let (id, _) = p.deploy(spec(mem, 17)).unwrap();
            let tmp_limit = u64::from(p.quotas().tmp_limit_mb) * MB;
            let keep_alive_s = p.warm_pool().keep_alive_s;
            let cold_s = law.cold_start(p.spec(id).unwrap().package_bytes());
            let (mut t, mut prev) = (0.0, usize::MAX);
            for _ in 0..60 {
                let k = rng.below(works.len());
                let w = &works[k];
                let key = |w: &InvocationWork| (w.load_bytes, w.flops, w.resident_bytes);
                if prev != usize::MAX && key(&works[prev]) != key(w) {
                    misses += 1;
                }
                prev = k;
                // Mostly inside the keep-alive (warm when a sandbox is
                // free), sometimes past it.
                t += if rng.below(4) == 0 {
                    2.0 * keep_alive_s
                } else {
                    rng.next_f64() * 40.0
                };
                let footprint_mb = perf.runtime_footprint_mb + w.resident_bytes as f64 / MB as f64;
                let import_s = law.cpu_time(law.import_work(), footprint_mb);
                let load_s = law.cpu_time(law.load_work(w.load_bytes), footprint_mb);
                match p.invoke(id, t, w) {
                    Ok(out) => {
                        assert!(runs[k], "seed {seed}: work {k} must fail");
                        seen[k][usize::from(out.warm)] = true;
                        let mut b = DurationBreakdown {
                            compute_s: law.cpu_time(law.compute_work(w.flops), footprint_mb),
                            fixed_s: perf.fixed_overhead_s,
                            ..Default::default()
                        };
                        if !out.warm {
                            b.cold_s = cold_s;
                            b.import_s = import_s;
                            b.load_s = load_s;
                        }
                        let d = b.total();
                        assert_eq!(breakdown_bits(&out.breakdown), breakdown_bits(&b));
                        assert_eq!(out.end.to_bits(), (t + d).to_bits());
                        assert_eq!(out.billed_s.to_bits(), prices.billed_duration(d).to_bits());
                        let dollars =
                            prices.lambda_compute_cost(d, mem) + prices.lambda_request + 0.0;
                        assert_eq!(out.dollars.to_bits(), dollars.to_bits(), "seed {seed}");
                    }
                    Err(f) => {
                        seen[k][usize::from(f.warm)] = true;
                        let mut b = DurationBreakdown::default();
                        if !f.warm {
                            b.cold_s = cold_s;
                            b.import_s = import_s;
                        }
                        let reason = if law.is_oom(footprint_mb) {
                            if !f.warm {
                                b.load_s = load_s;
                            }
                            InvokeError::OutOfMemory {
                                footprint_mb,
                                memory_mb: mem,
                            }
                        } else {
                            assert!(!runs[k] && w.tmp_bytes > tmp_limit, "seed {seed}: work {k}");
                            InvokeError::TmpExceeded {
                                got: w.tmp_bytes,
                                limit: tmp_limit,
                            }
                        };
                        // Debug prints each f64 round-trip exact, so equal
                        // text means bit-equal footprints.
                        assert_eq!(format!("{:?}", f.reason), format!("{reason:?}"));
                        let consumed = b.total();
                        assert_eq!(breakdown_bits(&f.breakdown), breakdown_bits(&b));
                        assert_eq!(f.end.to_bits(), (t + consumed).to_bits());
                        assert_eq!(
                            f.billed_s.to_bits(),
                            prices.billed_duration(consumed).to_bits()
                        );
                        let dollars =
                            prices.lambda_compute_cost(consumed, mem) + prices.lambda_request + 0.0;
                        assert_eq!(f.dollars.to_bits(), dollars.to_bits(), "seed {seed}");
                    }
                }
            }
        }
        assert_eq!(seen, [[true; 2]; 5], "every work both cold and warm");
        assert!(misses > 100, "only {misses} record misses");
    }

    #[test]
    fn begin_request_keys_fault_streams_by_request_index() {
        // The same request index draws the same fates regardless of what
        // other requests ran first — the shard-determinism invariant.
        let plan = FaultPlan::uniform(0.4, 21);
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        let run = |warmups: u64| -> Vec<bool> {
            let mut p = Platform::aws_2020().with_fault_plan(plan.clone());
            let (id, _) = p.deploy(spec(1024, 17)).unwrap();
            for r in 0..warmups {
                p.begin_request(r);
                let _ = p.invoke(id, 0.0, &work);
            }
            p.begin_request(9);
            (0..5)
                .map(|i| p.invoke(id, i as f64 * 2000.0, &work).is_ok())
                .collect()
        };
        assert_eq!(run(0), run(7));
    }

    #[test]
    fn targeted_crash_addresses_request_and_attempt_in_stream_mode() {
        // crash_invocations entry (index << 32) + 1 must hit exactly the
        // second invocation of request `index`, no other.
        let plan = FaultPlan {
            crash_invocations: vec![(3 << 32) + 1],
            ..FaultPlan::default()
        };
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        let mut p = Platform::aws_2020().with_fault_plan(plan);
        let (id, _) = p.deploy(spec(1024, 17)).unwrap();
        p.begin_request(2);
        assert!(p.invoke(id, 0.0, &work).is_ok());
        assert!(p.invoke(id, 0.0, &work).is_ok());
        p.begin_request(3);
        assert!(p.invoke(id, 0.0, &work).is_ok());
        let failed = p.invoke(id, 0.0, &work).unwrap_err();
        assert!(matches!(failed.reason, InvokeError::Crashed { .. }));
        assert!(p.invoke(id, 0.0, &work).is_ok());
    }

    #[test]
    fn fault_free_plan_is_bit_identical_to_no_plan() {
        let work = InvocationWork {
            load_bytes: 17 * MB,
            flops: 1_000_000_000,
            resident_bytes: 40 * MB,
            ..Default::default()
        };
        let mut a = Platform::aws_2020();
        let mut b = Platform::aws_2020().with_fault_plan(FaultPlan::none());
        let (ia, _) = a.deploy(spec(1024, 17)).unwrap();
        let (ib, _) = b.deploy(spec(1024, 17)).unwrap();
        let oa = a.invoke(ia, 0.0, &work).unwrap();
        let ob = b.invoke(ib, 0.0, &work).unwrap();
        assert_eq!(oa.end, ob.end);
        assert_eq!(oa.dollars, ob.dollars);
    }
}
