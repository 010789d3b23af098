//! VM instances — the SageMaker side of the paper's comparison.
//!
//! Sage 1 serves from an `ml.t2.medium` notebook instance; Sage 2 submits
//! from the notebook and hosts on an `ml.m4.xlarge` endpoint whose creation
//! dominates its completion time (paper Table 4: 400–460 s).

use crate::ledger::{CostItem, CostLedger};

/// An instance type with pricing and relative performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmType {
    /// Instance-type name.
    pub name: &'static str,
    /// On-demand price, $ per hour.
    pub hourly: f64,
    /// CPU speed relative to one full Lambda vCPU (1.0 = equal).
    pub perf_factor: f64,
    /// Time to launch/boot this instance when provisioned on demand.
    pub launch_s: f64,
}

impl VmType {
    /// `ml.t2.medium` — the paper's Sage 1 notebook instance.
    pub fn ml_t2_medium() -> Self {
        VmType {
            name: "ml.t2.medium",
            hourly: 0.0582,
            // Burstable 2-vCPU instance; sustained single-thread inference
            // runs below a Lambda's full share.
            perf_factor: 0.7,
            launch_s: 0.0, // notebook assumed already running (paper setup)
        }
    }

    /// `ml.m4.xlarge` — the paper's Sage 2 hosting instance. Endpoint
    /// creation + model deployment dominates (Table 4).
    pub fn ml_m4_xlarge() -> Self {
        VmType {
            name: "ml.m4.xlarge",
            hourly: 0.28,
            perf_factor: 1.1,
            launch_s: 390.0,
        }
    }

    /// A small EC2 driver instance (Serfer's architecture, §4).
    pub fn ec2_driver() -> Self {
        VmType {
            name: "t2.medium",
            hourly: 0.0464,
            perf_factor: 0.7,
            launch_s: 0.0,
        }
    }
}

/// A running instance accruing cost over time.
#[derive(Debug, Clone, Copy)]
pub struct VmInstance {
    /// The instance type.
    pub vm: VmType,
    /// When it was started (simulation seconds).
    pub started_at: f64,
}

impl VmInstance {
    /// Starts an instance at `now`; the caller waits `launch_s` before use.
    pub fn start(vm: VmType, now: f64) -> Self {
        VmInstance {
            vm,
            started_at: now,
        }
    }

    /// Time at which the instance becomes usable.
    pub fn ready_at(&self) -> f64 {
        self.started_at + self.vm.launch_s
    }

    /// Seconds to execute `cpu_seconds` of full-vCPU work on this VM.
    pub fn cpu_time(&self, cpu_seconds: f64) -> f64 {
        cpu_seconds / self.vm.perf_factor
    }

    /// Stops the instance at `now`, charging its uptime to the ledger and
    /// returning the dollars charged. SageMaker bills launch time too.
    pub fn stop(&self, now: f64, ledger: &mut CostLedger) -> f64 {
        let uptime = (now - self.started_at).max(0.0);
        let dollars = uptime / 3600.0 * self.vm.hourly;
        ledger.charge(CostItem::VmTime, dollars);
        dollars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uptime_billing() {
        let mut l = CostLedger::new();
        let vm = VmInstance::start(VmType::ml_t2_medium(), 100.0);
        let cost = vm.stop(100.0 + 3600.0, &mut l);
        assert!((cost - 0.0582).abs() < 1e-12);
        assert!((l.total_of(CostItem::VmTime) - 0.0582).abs() < 1e-12);
    }

    #[test]
    fn hosting_instance_launch_dominates() {
        // The Table 4 effect: m4.xlarge needs minutes before first byte.
        let vm = VmInstance::start(VmType::ml_m4_xlarge(), 0.0);
        assert!(vm.ready_at() > 300.0);
    }

    #[test]
    fn perf_factor_scales_cpu_time() {
        let vm = VmInstance::start(VmType::ml_t2_medium(), 0.0);
        assert!((vm.cpu_time(7.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn prices_match_sheet() {
        let sheet = crate::pricing::PriceSheet::aws_2020();
        assert_eq!(
            VmType::ml_t2_medium().hourly,
            sheet.sagemaker_t2_medium_hour
        );
        assert_eq!(
            VmType::ml_m4_xlarge().hourly,
            sheet.sagemaker_m4_xlarge_hour
        );
    }
}
