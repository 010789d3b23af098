//! # amps-inf
//!
//! A full-system Rust reproduction of **AMPS-Inf: Automatic Model
//! Partitioning for Serverless Inference with Cost Efficiency**
//! (Jarachanthan, Chen, Xu, Li — ICPP 2021).
//!
//! AMPS-Inf takes a pre-trained neural-network model that may be too large
//! to deploy in a single serverless function and automatically derives the
//! cost-minimal execution plan — how to split the layer graph into
//! contiguous partitions and which Lambda memory block to give each — by
//! solving a Mixed-Integer Quadratic Program, subject to a response-time
//! SLO and the platform's deployment-size / temporary-storage limits.
//!
//! ## Quick start
//!
//! ```
//! use amps_inf::prelude::*;
//!
//! // A pre-trained model (exact Keras ResNet50 architecture: 25,636,712
//! // parameters — too large for one 250 MB Lambda deployment).
//! let model = zoo::resnet50();
//!
//! // Optimize: partitioning + memory provisioning.
//! let cfg = AmpsConfig::default();
//! let report = Optimizer::new(cfg.clone()).optimize(&model).unwrap();
//! println!("{}", report.plan);
//!
//! // Deploy on the (simulated) platform and serve an image.
//! let coordinator = Coordinator::new(cfg);
//! let mut platform = coordinator.platform();
//! let deployment = coordinator.deploy(&mut platform, &model, &report.plan).unwrap();
//! let job = coordinator.serve_one(&mut platform, &deployment, 0.0, "req-0").unwrap();
//! assert!(job.dollars > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`model`] | `ampsinf-model` | layer-graph IR + Keras-exact model zoo |
//! | [`faas`] | `ampsinf-faas` | AWS-Lambda-like platform simulator |
//! | [`profiler`] | `ampsinf-profiler` | per-partition profiling (MIQP inputs) |
//! | [`solver`] | `ampsinf-solver` | LP / QP / QCR / branch-and-bound MIQP |
//! | [`core`] | `ampsinf-core` | the AMPS-Inf optimizer + coordinator + baselines |
//! | [`serving`] | `ampsinf-serving` | SageMaker, SerFer, BATCH comparators |
//! | [`linalg`] | `ampsinf-linalg` | dense numerical kernels |

pub use ampsinf_core as core;
pub use ampsinf_faas as faas;
pub use ampsinf_linalg as linalg;
pub use ampsinf_model as model;
pub use ampsinf_profiler as profiler;
pub use ampsinf_serving as serving;
pub use ampsinf_solver as solver;

/// One-line imports for applications.
pub mod prelude {
    pub use ampsinf_core::{
        AmpsConfig, BatchReport, Coordinator, DagNodeStats, DagPlan, DagReport, ExecutionPlan,
        Optimizer, PartitionPlan, ServeError,
    };
    pub use ampsinf_faas::{FaultPlan, PerfModel, Platform, PriceSheet, Quotas, StoreKind};
    pub use ampsinf_model::{zoo, LayerGraph, LayerOp, TensorShape};
    pub use ampsinf_profiler::Profile;
}
