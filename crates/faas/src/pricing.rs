//! Price sheets (AWS, Oct–Nov 2020 — the paper's measurement window).
//!
//! The Lambda compute price is load-bearing for reproduction: the paper's
//! Table 2 costs equal `duration × GB × $0.0000166667` to the printed
//! precision (22.03 s × 0.5 GB × 1.66667e-5 ≈ $0.00018), so with the same
//! sheet our simulated costs are directly comparable.

/// Prices for the platform services the paper's cost model uses (Eq. 3:
/// compute `v`, storage `H`, requests `G`/`U`, invocation `I`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceSheet {
    /// Lambda compute, $ per GB-second.
    pub lambda_gb_second: f64,
    /// Provisioned/keep-warm idle capacity, $ per GB-second (Lambda
    /// provisioned concurrency; billed by warm-pool policies that keep
    /// instances resident while idle).
    pub lambda_provisioned_gb_second: f64,
    /// Lambda invocation, $ per request (the paper's `I`).
    pub lambda_request: f64,
    /// Billing granularity in seconds (2020: 100 ms round-up).
    pub billing_granularity_s: f64,
    /// S3 PUT/COPY/POST, $ per request (the paper's `U`).
    pub s3_put_request: f64,
    /// S3 GET, $ per request (the paper's `G`).
    pub s3_get_request: f64,
    /// S3 storage, $ per GB-second (the paper's `H`; derived from
    /// $0.023/GB-month).
    pub s3_storage_gb_second: f64,
    /// ml.t2.medium on-demand, $ per hour (Sage 1 notebook).
    pub sagemaker_t2_medium_hour: f64,
    /// ml.m4.xlarge hosting, $ per hour (Sage 2 endpoint).
    pub sagemaker_m4_xlarge_hour: f64,
    /// S3 data-transfer-out to instances, $ per GB (intra-region ≈ 0, but
    /// SageMaker hosting bills processing; kept as a knob).
    pub s3_transfer_gb: f64,
}

impl PriceSheet {
    /// The Oct–Nov 2020 AWS sheet (us-east-1).
    pub fn aws_2020() -> Self {
        PriceSheet {
            lambda_gb_second: 0.000_016_666_7,
            lambda_provisioned_gb_second: 0.000_004_166_7,
            lambda_request: 0.000_000_2,
            billing_granularity_s: 0.1,
            s3_put_request: 0.005 / 1000.0,
            s3_get_request: 0.0004 / 1000.0,
            s3_storage_gb_second: 0.023 / (30.0 * 24.0 * 3600.0),
            sagemaker_t2_medium_hour: 0.0582,
            sagemaker_m4_xlarge_hour: 0.28,
            s3_transfer_gb: 0.0,
        }
    }

    /// Lambda compute cost for a raw duration at `memory_mb`, applying the
    /// billing round-up.
    #[inline]
    pub fn lambda_compute_cost(&self, duration_s: f64, memory_mb: u32) -> f64 {
        let billed = self.billed_duration(duration_s);
        billed * (f64::from(memory_mb) / 1024.0) * self.lambda_gb_second
    }

    /// Duration rounded up to the billing granularity.
    #[inline]
    pub fn billed_duration(&self, duration_s: f64) -> f64 {
        if self.billing_granularity_s <= 0.0 {
            return duration_s;
        }
        (duration_s / self.billing_granularity_s).ceil() * self.billing_granularity_s
    }

    /// S3 storage cost for holding `bytes` for `seconds`.
    pub fn s3_storage_cost(&self, bytes: u64, seconds: f64) -> f64 {
        (bytes as f64 / 1e9) * seconds * self.s3_storage_gb_second
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_costs_reproduce() {
        // Paper Table 2: (memory MB, seconds, dollars).
        let sheet = PriceSheet::aws_2020();
        let rows = [
            (512u32, 22.03, 0.00018),
            (1024, 10.65, 0.00017),
            (1536, 7.52, 0.00019),
            (2048, 6.38, 0.00021),
            (3008, 6.32, 0.00031),
        ];
        for (mem, t, dollars) in rows {
            let cost = sheet.lambda_compute_cost(t, mem) + sheet.lambda_request;
            assert!(
                (cost - dollars).abs() < 0.00001,
                "{mem} MB: computed {cost} vs paper {dollars}"
            );
        }
    }

    #[test]
    fn billing_rounds_up_to_100ms() {
        let sheet = PriceSheet::aws_2020();
        assert!((sheet.billed_duration(0.101) - 0.2).abs() < 1e-12);
        assert!((sheet.billed_duration(0.2) - 0.2).abs() < 1e-12);
        assert!((sheet.billed_duration(0.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn storage_cost_scales_linearly() {
        let sheet = PriceSheet::aws_2020();
        let c1 = sheet.s3_storage_cost(1_000_000_000, 60.0);
        let c2 = sheet.s3_storage_cost(2_000_000_000, 60.0);
        assert!((c2 - 2.0 * c1).abs() < 1e-15);
        // 1 GB for a month ≈ $0.023.
        let month = sheet.s3_storage_cost(1_000_000_000, 30.0 * 24.0 * 3600.0);
        assert!((month - 0.023).abs() < 1e-9);
    }

    #[test]
    fn request_prices_match_aws() {
        let s = PriceSheet::aws_2020();
        assert!((s.s3_put_request - 5e-6).abs() < 1e-12);
        assert!((s.s3_get_request - 4e-7).abs() < 1e-12);
        assert!((s.lambda_request - 2e-7).abs() < 1e-15);
    }
}
