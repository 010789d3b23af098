//! Comparator serving systems for the AMPS-Inf evaluation (§5):
//!
//! * [`sagemaker`] — Amazon SageMaker in the paper's two settings: Sage 1
//!   (notebook-instance serving on `ml.t2.medium`) and Sage 2 (notebook
//!   submission + `ml.m4.xlarge` hosting endpoint);
//! * [`serfer`] — SerFer \[42\]: the same partitions as AMPS-Inf, served
//!   on the coordinator's one engine, but driven by Step Functions (≈15 s
//!   per state transition, paper footnote 2: a fixed delay in front of
//!   every partition plus one on exit) with an EC2 driver;
//! * [`batch_baseline`] — BATCH \[23\]: single-lambda adaptive batching,
//!   no model splitting, one fresh lambda per batch;
//! * [`loadgen`] — open-loop workloads over a deployed plan (chain or
//!   branch-parallel DAG, both on the coordinator's one engine) with
//!   seeded arrival shapes (Poisson, diurnal, flash crowd, bursts,
//!   multi-tenant), warm-pool policy metrics, and an adaptive
//!   controller that switches between SLO tiers planned up front by one
//!   sweep (the §2 "query load dynamics" scenario).
//!
//! AMPS-Inf's own batch modes (§5.4, Fig. 13) have no executor here
//! either: `Coordinator::deploy_batch` deploys a plan for requests of
//! `batch` images, and the coordinator's sequential, parallel and
//! pipelined modes serve each batch as one request.
//!
//! Gillis-style weight slicing (§6's contrasted approach, which serves
//! models whose single largest layer exceeds the deployment cap, such as
//! VGG16's fc1) has no executor here: `ampsinf_core::cuts::split_oversized`
//! rewrites such a layer into a fork/join region that the DAG planner and
//! the coordinator's one engine handle like any other.

#![warn(missing_docs)]

pub mod batch_baseline;
pub mod loadgen;
pub mod sagemaker;
pub mod serfer;

pub use batch_baseline::{run_batch_baseline, BatchBaselineReport};
pub use loadgen::{
    run_adaptive_loop, run_adaptive_loop_dag, run_open_loop, run_open_loop_dag, AdaptiveSpec,
    ArrivalShape, LoadReport, LoadSpec,
};
pub use sagemaker::{SageConfig, SageReport, SageSetting};
pub use serfer::{run_serfer, SerferReport};
