//! Normalisation of wall-clock times to the machine's current speed.
//!
//! On a shared machine the speed available to one process drifts by tens
//! of percent within minutes, which would swamp any regression bound. So
//! each timed call is followed by a fixed reference task on one thread —
//! sorting and tallying a seeded array, code that is not part of the
//! system under test — and the call's time is reported at reference
//! speed: `measured × NOMINAL_MS ÷ reference time`. A change to the
//! system moves the measured time but not the reference.

use crate::stats::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Reference-task time, in milliseconds, that normalised values are
/// scaled to: the task's median on the 2-core x86-64 machine the
/// benchmark was calibrated on, so normalised values read as that
/// machine's milliseconds.
pub const NOMINAL_MS: f64 = 10.0;

/// Elements the reference task sorts.
const ELEMENTS: usize = 200_000;

/// Runs the reference task once; returns its wall time in milliseconds.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    let mut rng = Rng::new(0x0a11_ce5e);
    let mut v: Vec<f64> = (0..ELEMENTS).map(|_| rng.unit()).collect();
    v.sort_by(f64::total_cmp);
    let mut tally: BTreeMap<u64, u32> = BTreeMap::new();
    for x in v.iter().step_by(4) {
        *tally.entry(x.to_bits() >> 36).or_default() += 1;
    }
    std::hint::black_box((&v, &tally));
    t.elapsed().as_secs_f64() * 1e3
}

/// `measured` (any time unit) at reference speed, given the reference
/// task's time measured next to it.
pub fn normalise(measured: f64, reference_ms: f64) -> f64 {
    measured * NOMINAL_MS / reference_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_time_is_positive_and_normalisation_is_a_rescale() {
        let r = reference_ms();
        assert!(r > 0.0);
        assert_eq!(normalise(10.0, NOMINAL_MS), 10.0);
        assert_eq!(normalise(10.0, 2.0 * NOMINAL_MS), 5.0);
    }
}
