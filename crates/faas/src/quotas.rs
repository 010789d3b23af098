//! Platform quota presets (AWS Lambda limits, paper §2.1).

/// Limits enforced by the serverless platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quotas {
    /// Smallest memory block, MB (paper: 128).
    pub memory_min_mb: u32,
    /// Largest memory block, MB (Oct–Nov 2020: 3,008).
    pub memory_max_mb: u32,
    /// Memory block increment, MB (2020: 64).
    pub memory_step_mb: u32,
    /// Unzipped deployment-package cap, MB (paper `A` = 250).
    pub deploy_limit_mb: u32,
    /// Temporary (`/tmp`) storage cap, MB (paper `J` = 512).
    pub tmp_limit_mb: u32,
    /// Function execution timeout, seconds (900 on Lambda).
    pub timeout_s: f64,
    /// Maximum function layers usable to assemble the package (paper: 5).
    pub max_layers: u32,
    /// Maximum lambdas a job may request (paper `K`).
    pub max_lambdas: usize,
}

impl Quotas {
    /// The Oct–Nov 2020 AWS Lambda quotas the paper measured under.
    pub fn lambda_2020() -> Self {
        Quotas {
            memory_min_mb: 128,
            memory_max_mb: 3008,
            memory_step_mb: 64,
            deploy_limit_mb: 250,
            tmp_limit_mb: 512,
            timeout_s: 900.0,
            max_layers: 5,
            max_lambdas: 16,
        }
    }

    /// The late-2020 quota update the paper's §5.1 mentions as future work:
    /// 10,240 MB maximum in 1 MB increments (deployment cap unchanged).
    pub fn lambda_2021() -> Self {
        Quotas {
            memory_min_mb: 128,
            memory_max_mb: 10_240,
            memory_step_mb: 1,
            ..Self::lambda_2020()
        }
    }

    /// All valid memory blocks in MB, ascending.
    ///
    /// Beware: under the 2021 preset this is ~10k entries; use
    /// [`Quotas::memory_blocks_search_grid`] for optimization grids.
    pub fn memory_blocks(&self) -> Vec<u32> {
        (self.memory_min_mb..=self.memory_max_mb)
            .step_by(self.memory_step_mb as usize)
            .collect()
    }

    /// Valid blocks at an effective granularity of at least 64 MB (plus
    /// the top block). For fine-grained regimes (the 2021 1 MB preset)
    /// this bounds optimization grids while remaining a strict superset of
    /// the classic 64 MB grid — so widening the quota can never worsen an
    /// optimum over this search grid.
    pub fn memory_blocks_search_grid(&self) -> Vec<u32> {
        let step = self.memory_step_mb.max(64);
        // Align the step to a multiple of the native step so every point
        // stays allocatable.
        let step = step.div_ceil(self.memory_step_mb) * self.memory_step_mb;
        let mut out: Vec<u32> = (self.memory_min_mb..=self.memory_max_mb)
            .step_by(step as usize)
            .collect();
        if let Some(&last) = out.last() {
            if last != self.memory_max_mb {
                out.push(self.memory_max_mb);
            }
        }
        out
    }

    /// True when `mb` is an exactly allocatable block.
    #[inline]
    pub fn is_valid_memory(&self, mb: u32) -> bool {
        mb >= self.memory_min_mb
            && mb <= self.memory_max_mb
            && (mb - self.memory_min_mb).is_multiple_of(self.memory_step_mb)
    }

    /// Smallest valid block ≥ `mb`, or `None` above the cap. This is the
    /// paper's constraint (7): `1 + ⌈(need − M)/β⌉ ≤ j` — blocks below the
    /// footprint are infeasible and pruned.
    pub fn round_up_memory(&self, mb: u32) -> Option<u32> {
        if mb > self.memory_max_mb {
            return None;
        }
        if mb <= self.memory_min_mb {
            return Some(self.memory_min_mb);
        }
        let over = mb - self.memory_min_mb;
        let steps = over.div_ceil(self.memory_step_mb);
        let rounded = self.memory_min_mb + steps * self.memory_step_mb;
        (rounded <= self.memory_max_mb).then_some(rounded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_2020_blocks_match_paper_fig1() {
        let q = Quotas::lambda_2020();
        let blocks = q.memory_blocks();
        // Fig. 1's x-ticks 1–44 are 256..=3008 in 64 MB steps; the full
        // grid from 128 MB has 46 entries.
        assert_eq!(blocks.len(), 46);
        assert_eq!(blocks[0], 128);
        assert_eq!(*blocks.last().unwrap(), 3008);
        let from_256 = blocks.iter().filter(|&&b| b >= 256).count();
        assert_eq!(from_256, 44);
    }

    #[test]
    fn validity_checks() {
        let q = Quotas::lambda_2020();
        assert!(q.is_valid_memory(512));
        assert!(q.is_valid_memory(3008));
        assert!(!q.is_valid_memory(100));
        assert!(!q.is_valid_memory(130));
        assert!(!q.is_valid_memory(4096));
    }

    #[test]
    fn round_up_matches_constraint7_example() {
        // Paper: a 500 MB footprint needs block j ≥ 7, i.e. 512 MB;
        // wait — the paper's example says 576 MB for M=128, β=64:
        // 1 + ceil((500-128)/64) = 1+6 = 7 → block 7 = 128 + 6·64 = 512.
        // The paper text rounds to 576; we follow the arithmetic: the
        // smallest block ≥ 500 is 512.
        let q = Quotas::lambda_2020();
        assert_eq!(q.round_up_memory(500), Some(512));
        assert_eq!(q.round_up_memory(512), Some(512));
        assert_eq!(q.round_up_memory(513), Some(576));
        assert_eq!(q.round_up_memory(3200), None);
        assert_eq!(q.round_up_memory(64), Some(128));
    }

    #[test]
    fn lambda_2021_extends_grid() {
        let q = Quotas::lambda_2021();
        assert!(q.is_valid_memory(10_240));
        assert!(q.is_valid_memory(1793));
        let grid = q.memory_blocks_search_grid();
        assert_eq!(grid[0], 128);
        assert_eq!(*grid.last().unwrap(), 10_240);
    }
}
