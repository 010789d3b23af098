//! The Lambda performance law: how memory configuration maps to duration.
//!
//! AWS allocates CPU share proportionally to memory, reaching one full
//! vCPU at 1,792 MB; beyond that a single-threaded inference gains almost
//! nothing (the paper's Table 2: 2048 MB → 6.38 s, 3008 MB → 6.32 s). Near
//! the low end, runtimes whose resident footprint approaches the memory
//! block slow down sharply and eventually cannot run at all (the paper:
//! 128 MB "cannot complete before the timeout", so Fig. 1 starts at 256).
//!
//! All constants live in [`PerfModel`] and are calibrated once against the
//! paper's own measurements (see `DESIGN.md` §5); the tests below pin the
//! *shape* facts the evaluation depends on, not absolute numbers.

/// Calibration constants for the lambda performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Memory at which the function owns one full vCPU (AWS: 1,792 MB).
    pub full_share_mb: f64,
    /// Framework-import CPU work at full share, seconds (trimmed
    /// TF/Keras dependency layers, paper §2.1).
    pub import_cpu_s: f64,
    /// Weight-file deserialize throughput at full share, MB/s.
    pub load_bw_mbps: f64,
    /// Effective inference throughput at full share, FLOP/s.
    pub flops_per_s: f64,
    /// Fixed per-invocation overhead (trigger + response), seconds.
    pub fixed_overhead_s: f64,
    /// Cold-start sandbox creation, seconds.
    pub cold_start_s: f64,
    /// Package/layer fetch bandwidth on cold start, MB/s.
    pub package_fetch_mbps: f64,
    /// Memory-pressure slowdown coefficient (dimensionless).
    pub pressure_coef: f64,
    /// Resident runtime + dependencies footprint, MB (imported TF/Keras).
    pub runtime_footprint_mb: f64,
    /// Below `oom_fraction × footprint` the function cannot run at all.
    pub oom_fraction: f64,
    /// Lambda ↔ S3 bandwidth, MB/s (the paper's `B`).
    pub s3_bandwidth_mbps: f64,
    /// Per-request S3 latency, seconds.
    pub s3_latency_s: f64,
    /// Model upload bandwidth during job deployment, MB/s.
    pub deploy_upload_mbps: f64,
    /// Fixed per-function deployment overhead, seconds.
    pub deploy_fixed_s: f64,
}

impl Default for PerfModel {
    fn default() -> Self {
        PerfModel {
            full_share_mb: 1792.0,
            import_cpu_s: 0.8,
            load_bw_mbps: 20.0,
            flops_per_s: 1.5e9,
            fixed_overhead_s: 0.6,
            cold_start_s: 0.3,
            package_fetch_mbps: 100.0,
            pressure_coef: 4.0,
            runtime_footprint_mb: 500.0,
            oom_fraction: 0.35,
            s3_bandwidth_mbps: 80.0,
            s3_latency_s: 0.02,
            deploy_upload_mbps: 40.0,
            deploy_fixed_s: 0.5,
        }
    }
}

/// The law's memory-independent terms.
impl PerfModel {
    /// Full-share CPU seconds to import the framework.
    #[inline]
    pub fn import_work(&self) -> f64 {
        self.import_cpu_s
    }

    /// Full-share CPU seconds to deserialize `bytes` of weights.
    #[inline]
    pub fn load_work(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.load_bw_mbps * 1e6)
    }

    /// Full-share CPU seconds to execute `flops`.
    #[inline]
    pub fn compute_work(&self, flops: u64) -> f64 {
        flops as f64 / self.flops_per_s
    }

    /// Cold-start duration for a package of `package_bytes`.
    #[inline]
    pub fn cold_start(&self, package_bytes: u64) -> f64 {
        self.cold_start_s + package_bytes as f64 / (self.package_fetch_mbps * 1e6)
    }
}

/// Per-invocation duration breakdown computed by [`LambdaPerf`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DurationBreakdown {
    /// Cold-start sandbox + package fetch (zero on warm starts).
    pub cold_s: f64,
    /// Framework import (zero on warm starts).
    pub import_s: f64,
    /// Model/weights load.
    pub load_s: f64,
    /// Layer compute.
    pub compute_s: f64,
    /// Storage transfers (reads + writes).
    pub transfer_s: f64,
    /// Fixed trigger/response overhead.
    pub fixed_s: f64,
}

impl DurationBreakdown {
    /// Total duration.
    #[inline]
    pub fn total(&self) -> f64 {
        self.cold_s + self.import_s + self.load_s + self.compute_s + self.transfer_s + self.fixed_s
    }
}

/// The performance law bound to a concrete memory size. Its per-memory
/// methods are `#[inline]`: a memory grid's pricer
/// (`ampsinf_profiler::NodePricer`) calls them once per cell from another
/// crate, and inlined, the three `cpu_time` calls of a cell share one
/// share and one pressure computation.
#[derive(Debug, Clone, Copy)]
pub struct LambdaPerf<'a> {
    model: &'a PerfModel,
    memory_mb: u32,
}

impl<'a> LambdaPerf<'a> {
    /// Binds the model to a memory block.
    #[inline]
    pub fn new(model: &'a PerfModel, memory_mb: u32) -> Self {
        LambdaPerf { model, memory_mb }
    }

    /// Fraction of a vCPU owned at this memory size, in (0, 1].
    #[inline]
    pub fn cpu_share(&self) -> f64 {
        (f64::from(self.memory_mb) / self.model.full_share_mb).min(1.0)
    }

    /// Memory-pressure slowdown multiplier (≥ 1) for a given total
    /// resident footprint.
    #[inline]
    pub fn pressure(&self, footprint_mb: f64) -> f64 {
        let ratio = footprint_mb / f64::from(self.memory_mb);
        1.0 + self.model.pressure_coef * (ratio - 1.0).max(0.0)
    }

    /// True when the footprint cannot run at all at this memory size (the
    /// paper's 128 MB timeout case).
    #[inline]
    pub fn is_oom(&self, footprint_mb: f64) -> bool {
        f64::from(self.memory_mb) < self.model.oom_fraction * footprint_mb
    }

    /// Seconds to execute `cpu_seconds_at_full_share` of CPU-bound work,
    /// given the resident footprint.
    #[inline]
    pub fn cpu_time(&self, cpu_seconds_at_full_share: f64, footprint_mb: f64) -> f64 {
        cpu_seconds_at_full_share * self.pressure(footprint_mb) / self.cpu_share()
    }

    /// Seconds to move `bytes` to/from storage, including per-request
    /// latency for `requests` requests — the paper's `r = (p_prev+p_out)/B`.
    pub fn transfer_time(&self, bytes: u64, requests: u32) -> f64 {
        bytes as f64 / (self.model.s3_bandwidth_mbps * 1e6)
            + f64::from(requests) * self.model.s3_latency_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// MobileNet-like single-lambda invocation: the Table 2 scenario.
    fn mobilenet_duration(model: &PerfModel, mem: u32) -> Option<f64> {
        let perf = LambdaPerf::new(model, mem);
        let weights: u64 = 17 * 1024 * 1024;
        let flops: u64 = 1_140_000_000;
        let footprint = model.runtime_footprint_mb + 2.0 * 17.0;
        if perf.is_oom(footprint) {
            return None;
        }
        let cpu = model.import_work() + model.load_work(weights) + model.compute_work(flops);
        Some(model.cold_start(weights) + perf.cpu_time(cpu, footprint) + model.fixed_overhead_s)
    }

    #[test]
    fn cpu_share_saturates_at_1792() {
        let m = PerfModel::default();
        assert!(LambdaPerf::new(&m, 1792).cpu_share() >= 1.0 - 1e-12);
        assert_eq!(LambdaPerf::new(&m, 3008).cpu_share(), 1.0);
        assert!((LambdaPerf::new(&m, 896).cpu_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn time_monotone_decreasing_then_flat() {
        // The Table 2 / Fig. 1 shape: strictly better up to 1792, then flat.
        let m = PerfModel::default();
        let t512 = mobilenet_duration(&m, 512).unwrap();
        let t1024 = mobilenet_duration(&m, 1024).unwrap();
        let t1536 = mobilenet_duration(&m, 1536).unwrap();
        let t2048 = mobilenet_duration(&m, 2048).unwrap();
        let t3008 = mobilenet_duration(&m, 3008).unwrap();
        assert!(t512 > t1024 && t1024 > t1536 && t1536 > t2048);
        assert!(
            (t2048 - t3008).abs() < 0.05,
            "saturation: {t2048} vs {t3008}"
        );
        // Roughly 2× between 512 and 1024, as in Table 2 (22.03 → 10.65).
        let ratio = t512 / t1024;
        assert!(ratio > 1.7 && ratio < 2.4, "ratio {ratio}");
    }

    #[test]
    fn oom_at_128mb_as_in_paper() {
        // Fig. 1 starts at 256 MB because 128 MB cannot finish.
        let m = PerfModel::default();
        assert!(mobilenet_duration(&m, 128).is_none());
        assert!(mobilenet_duration(&m, 256).is_some());
    }

    #[test]
    fn cost_minimum_strictly_inside_grid() {
        // Table 2: cost dips at 1024 MB — cheaper than both 512 and 1536+.
        let m = PerfModel::default();
        let sheet = crate::pricing::PriceSheet::aws_2020();
        let cost = |mem: u32| sheet.lambda_compute_cost(mobilenet_duration(&m, mem).unwrap(), mem);
        let c512 = cost(512);
        let c1024 = cost(1024);
        let c2048 = cost(2048);
        let c3008 = cost(3008);
        assert!(
            c1024 < c512,
            "pressure should make 512 pricier: {c512} vs {c1024}"
        );
        assert!(c1024 < c2048 && c2048 < c3008);
    }

    #[test]
    fn pressure_grows_below_footprint() {
        let m = PerfModel::default();
        let p = LambdaPerf::new(&m, 256);
        assert!(p.pressure(500.0) > 2.0);
        assert!((LambdaPerf::new(&m, 1024).pressure(500.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_matches_paper_formula() {
        // r = (p_prev + p_out)/B plus request latency.
        let m = PerfModel::default();
        let p = LambdaPerf::new(&m, 1024);
        let t = p.transfer_time(80_000_000, 2);
        assert!((t - (1.0 + 0.04)).abs() < 1e-9);
    }

    #[test]
    fn breakdown_totals() {
        let b = DurationBreakdown {
            cold_s: 0.3,
            import_s: 1.0,
            load_s: 0.5,
            compute_s: 0.7,
            transfer_s: 0.1,
            fixed_s: 0.6,
        };
        assert!((b.total() - 3.2).abs() < 1e-12);
    }
}
