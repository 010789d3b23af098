//! Serverless-platform simulator (AWS-Lambda-like) for AMPS-Inf.
//!
//! The paper's testbed is AWS Lambda (Oct–Nov 2020 quotas and prices) plus
//! S3 for intermediate tensors and SageMaker VM instances as comparators.
//! This crate reproduces that environment as a simulator exposing the same
//! observables the paper's optimizer and measurements use: **durations and
//! dollars** as functions of (work, memory configuration, data movement).
//!
//! Fidelity anchors (see DESIGN.md §5):
//! * the pricing sheet is the real one — the paper's own Table 2 costs are
//!   reproduced exactly by `duration × GB × $1.66667e-5` plus request fees;
//! * CPU share scales linearly with memory and saturates at 1,792 MB
//!   (AWS's documented allocation; visible in the paper's Table 2 as the
//!   2048→3008 plateau);
//! * billing rounds up to 100 ms (2020 granularity) — the source of the
//!   multiple local cost minima the paper observes in Fig. 1;
//! * memory pressure near the footprint adds a slowdown (the paper's
//!   observation that 128 MB cannot even finish before timeout).
//!
//! Modules: [`quotas`] (platform limits, 2020 + 2021 presets), [`pricing`]
//! (price sheets), [`perf`] (the Lambda performance law), [`storage`]
//! (S3-like object store), [`vm`] (EC2/SageMaker instances), [`ledger`]
//! (per-category cost totals), [`platform`] (deploy/invoke API enforcing
//! quotas), [`runtime`] (symbolic execution of model partitions),
//! [`fault`] (seeded fault injection), [`rng`] (the simulator's seeded
//! generator). Workflow orchestration is not a substrate here: SerFer's
//! Step-Functions transitions are a delay the coordinator puts in front
//! of each invocation (`ampsinf_serving::serfer`).
//!
//! # Example: deploy and invoke one function
//!
//! ```
//! use ampsinf_faas::{FunctionSpec, InvocationWork, Platform, MB};
//!
//! let mut platform = Platform::aws_2020();
//! let (fid, _deploy_s) = platform
//!     .deploy(FunctionSpec {
//!         name: "mobilenet".into(),
//!         memory_mb: 1024,
//!         code_bytes: MB,
//!         layer_bytes: vec![169 * MB, 17 * MB], // deps + weights
//!     })
//!     .unwrap();
//! let out = platform
//!     .invoke(fid, 0.0, &InvocationWork {
//!         load_bytes: 17 * MB,
//!         flops: 1_140_000_000,
//!         resident_bytes: 60 * MB,
//!         ..Default::default()
//!     })
//!     .unwrap();
//! assert!(out.duration() > 0.0);
//! // The 2020 pricing identity the paper's Table 2 exhibits:
//! let expect = platform.prices().lambda_compute_cost(out.duration(), 1024)
//!     + platform.prices().lambda_request;
//! assert!((out.dollars - expect).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod ledger;
pub mod perf;
pub mod platform;
pub mod pricing;
pub mod quotas;
pub mod rng;
pub mod runtime;
pub mod storage;
pub mod vm;

pub use fault::{FaultKind, FaultPlan};
pub use ledger::{CostItem, CostLedger};
pub use perf::{LambdaPerf, PerfModel};
pub use platform::{
    DeployError, FailedInvocation, FunctionId, FunctionSpec, InvocationOutcome, InvocationWork,
    InvokeError, Platform, WarmPoolPolicy,
};
pub use pricing::PriceSheet;
pub use quotas::Quotas;
pub use rng::SmallRng;
pub use runtime::{PartitionWork, StationPool, WorkPhases};
pub use storage::{ObjectKey, ObjectStore, StoreKind};
pub use vm::{VmInstance, VmType};

/// Mebibyte in bytes.
pub const MB: u64 = 1024 * 1024;
