//! Property-style tests for the platform simulator: pricing identities,
//! performance-law monotonicity, warm-start and storage semantics. Inputs
//! are drawn from a deterministic PRNG / exhaustive grids instead of an
//! external property-testing framework.

use ampsinf_faas::platform::{FunctionSpec, InvocationWork, Platform};
use ampsinf_faas::{
    CostItem, CostLedger, LambdaPerf, PerfModel, PriceSheet, Quotas, SmallRng, StoreKind,
    WarmPoolPolicy, MB,
};

fn spec(mem: u32, weights_mb: u64) -> FunctionSpec {
    FunctionSpec {
        name: format!("f{mem}-{weights_mb}"),
        memory_mb: mem,
        code_bytes: MB,
        layer_bytes: vec![169 * MB, weights_mb * MB],
    }
}

fn work(weights_mb: u64, gflops: u64) -> InvocationWork {
    InvocationWork {
        load_bytes: weights_mb * MB,
        flops: gflops * 1_000_000_000,
        resident_bytes: (2 * weights_mb + 30) * MB,
        tmp_bytes: weights_mb * MB,
        ..Default::default()
    }
}

fn uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

#[test]
fn billed_duration_rounds_up_and_is_monotone() {
    let sheet = PriceSheet::aws_2020();
    let mut rng = SmallRng::seed_from_u64(1);
    for _ in 0..64 {
        let a = uniform(&mut rng, 0.0, 100.0);
        let b = uniform(&mut rng, 0.0, 100.0);
        let ba = sheet.billed_duration(a);
        assert!(ba >= a - 1e-12);
        assert!(ba - a < sheet.billing_granularity_s + 1e-12);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(sheet.billed_duration(lo) <= sheet.billed_duration(hi) + 1e-12);
    }
}

#[test]
fn compute_cost_linear_in_memory() {
    // At fixed duration, cost scales exactly with the GB count.
    let sheet = PriceSheet::aws_2020();
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..32 {
        let t = uniform(&mut rng, 0.1, 60.0);
        let steps = rng.range_inclusive(1, 19) as u32;
        let m1 = 512u32;
        let m2 = 512 + steps * 64;
        let c1 = sheet.lambda_compute_cost(t, m1);
        let c2 = sheet.lambda_compute_cost(t, m2);
        assert!((c2 / c1 - f64::from(m2) / f64::from(m1)).abs() < 1e-9);
    }
}

#[test]
fn cpu_share_monotone_and_saturating() {
    let perf = PerfModel::default();
    let mut prev = 0.0f64;
    for m in (128u32..=3008).step_by(64) {
        let s = LambdaPerf::new(&perf, m).cpu_share();
        assert!(s > 0.0 && s <= 1.0);
        assert!(s >= prev - 1e-12, "share regressed at {m} MB");
        prev = s;
    }
}

#[test]
fn invocation_duration_monotone_in_memory() {
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..16 {
        let weights = rng.range_inclusive(1, 39) as u64;
        let gf = rng.range_inclusive(1, 7) as u64;
        let mut p = Platform::aws_2020();
        let (f_small, _) = p.deploy(spec(512, weights)).unwrap();
        let (f_big, _) = p.deploy(spec(2048, weights)).unwrap();
        let w = work(weights, gf);
        let small = p.invoke(f_small, 0.0, &w).unwrap();
        let big = p.invoke(f_big, 0.0, &w).unwrap();
        assert!(big.duration() <= small.duration() + 1e-9);
    }
}

#[test]
fn warm_never_slower_than_cold() {
    let mut rng = SmallRng::seed_from_u64(4);
    for _ in 0..16 {
        let weights = rng.range_inclusive(1, 39) as u64;
        let gf = rng.range_inclusive(1, 7) as u64;
        let mut p = Platform::aws_2020();
        let (fid, _) = p.deploy(spec(1024, weights)).unwrap();
        let w = work(weights, gf);
        let cold = p.invoke(fid, 0.0, &w).unwrap();
        let warm = p.invoke(fid, cold.end + 1.0, &w).unwrap();
        assert!(warm.warm);
        assert!(warm.duration() <= cold.duration());
        assert!(warm.dollars <= cold.dollars + 1e-12);
    }
}

#[test]
fn ledger_total_equals_sum_of_outcomes_plus_storage() {
    // Conservation: every dollar in the ledger is attributable.
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..16 {
        let weights = rng.range_inclusive(1, 29) as u64;
        let gf = rng.range_inclusive(1, 4) as u64;
        let n_chain = rng.range_inclusive(2, 4);
        let mut p = Platform::aws_2020();
        let mut fids = Vec::new();
        for i in 0..n_chain {
            let (fid, _) = p.deploy(spec(1024, weights + i as u64)).unwrap();
            fids.push(fid);
        }
        let mut now = 0.0;
        let mut direct = 0.0;
        let mut prev = None;
        for (i, fid) in fids.iter().enumerate() {
            let mut w = work(weights + i as u64, gf);
            w.reads.extend(prev.take());
            if i + 1 < fids.len() {
                let key = p.store.fresh_key();
                w.writes.push((key, 2 * MB));
                prev = Some(key);
            }
            let out = p.invoke(*fid, now, &w).unwrap();
            now = out.end;
            direct += out.dollars;
        }
        let settled = p.settle_storage(now);
        assert!((p.total_cost() - (direct + settled)).abs() < 1e-12);
    }
}

#[test]
fn storage_round_trip_preserves_bytes() {
    let mut rng = SmallRng::seed_from_u64(6);
    for _ in 0..32 {
        let bytes = 1 + rng.below(200_000_000) as u64;
        let mut store = ampsinf_faas::ObjectStore::new(StoreKind::s3());
        let sheet = PriceSheet::aws_2020();
        let mut ledger = CostLedger::new();
        let k = store.fresh_key();
        store.put_id(k, bytes, 0.0, &sheet, &mut ledger).unwrap();
        assert_eq!(store.size_of_id(k), Some(bytes));
        assert_eq!(store.live_bytes(), bytes);
        let get = store.get_id(k, &sheet, &mut ledger).unwrap();
        // Transfer time symmetric for put/get on the same backend.
        let put_t = store.transfer_time(bytes, 1);
        assert!((get.duration_s - put_t).abs() < 1e-12);
    }
}

#[test]
fn settle_is_idempotent() {
    // Settling twice at the same instant never double-bills; a later
    // settle bills exactly the incremental interval, and the object stays
    // live (settlement advances a watermark, it does not drain the store).
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..32 {
        let bytes = 1 + rng.below(100_000_000) as u64;
        let until = uniform(&mut rng, 1.0, 1000.0);
        let mut store = ampsinf_faas::ObjectStore::new(StoreKind::s3());
        let sheet = PriceSheet::aws_2020();
        let mut ledger = CostLedger::new();
        let k = store.fresh_key();
        let op = store.put_id(k, bytes, 0.0, &sheet, &mut ledger).unwrap();
        let visible = op.duration_s;
        let first = store.settle_storage(until, &sheet, &mut ledger);
        let again = store.settle_storage(until, &sheet, &mut ledger);
        let later = store.settle_storage(until + 100.0, &sheet, &mut ledger);
        assert!(first >= 0.0);
        assert_eq!(again, 0.0);
        let from = visible.max(until);
        let expect = sheet.s3_storage_cost(bytes, (until + 100.0 - from).max(0.0));
        assert!((later - expect).abs() < 1e-12, "{later} vs {expect}");
        assert_eq!(store.size_of_id(k), Some(bytes));
    }
}

#[test]
fn round_up_memory_is_tight() {
    let q = Quotas::lambda_2020();
    for mb in 1u32..3200 {
        match q.round_up_memory(mb) {
            Some(block) => {
                assert!(q.is_valid_memory(block));
                assert!(block >= mb.max(q.memory_min_mb));
                // Tight: one step below is either invalid or < mb.
                if block > q.memory_min_mb {
                    let below = block - q.memory_step_mb;
                    assert!(below < mb || below < q.memory_min_mb);
                }
            }
            None => assert!(mb > q.memory_max_mb),
        }
    }
}

#[test]
fn deployment_validation_is_exact() {
    let p = Platform::aws_2020();
    for weights_mb in 1u64..120 {
        let s = spec(1024, weights_mb);
        let total = s.package_bytes();
        let ok = p.validate_spec(&s).is_ok();
        assert_eq!(ok, total <= 250 * MB);
    }
}

/// Warm-pool settlement must be safe to call at any cadence: the
/// per-function watermark only moves forward, an instance whose whole
/// warm window (`busy_until + keep_alive`) falls at or before the
/// watermark accrues zero new idle, and no schedule of settlements
/// produces negative idle or dollars. Checked across scale-to-zero,
/// finite keep-alive, provisioned, and the Lambda default.
#[test]
fn warm_pool_repeated_settlement_matches_single_settlement() {
    let policies = [
        WarmPoolPolicy::scale_to_zero(),
        WarmPoolPolicy::keep_alive(20.0),
        WarmPoolPolicy::provisioned(2),
        WarmPoolPolicy::lambda_default(),
    ];
    let mut rng = SmallRng::seed_from_u64(9);
    for policy in policies {
        for round in 0..8 {
            // Two platforms replay the identical invoke schedule; `a`
            // settles at random instants between invocations, `b` only
            // once at the horizon. Total idle and dollars must agree.
            let mut a = Platform::aws_2020().with_warm_pool(policy);
            let mut b = Platform::aws_2020().with_warm_pool(policy);
            let (fa, _) = a.deploy(spec(1024, 10)).unwrap();
            let (fb, _) = b.deploy(spec(1024, 10)).unwrap();
            a.pre_warm(policy.pre_warm);
            b.pre_warm(policy.pre_warm);
            let w = work(10, 1);
            let (mut idle_a, mut dollars_a) = (0.0f64, 0.0f64);
            let mut watermark = 0.0f64;
            let mut start = uniform(&mut rng, 0.5, 5.0);
            for _ in 0..rng.range_inclusive(3, 8) {
                let oa = a.invoke(fa, start, &w).unwrap();
                let ob = b.invoke(fb, start, &w).unwrap();
                assert_eq!(oa.end.to_bits(), ob.end.to_bits(), "schedules diverged");
                // Settlement may land anywhere up to the next arrival —
                // never beyond it, because settling is a statement that
                // the clock has reached `until`.
                let gap = uniform(&mut rng, 0.5, 40.0);
                if rng.next_f64() < 0.6 {
                    let until = oa.end + uniform(&mut rng, 0.0, gap);
                    let (i, d) = a.settle_warm_pool(until);
                    assert!(i >= 0.0, "negative idle {i} ({policy}, round {round})");
                    assert!(d >= 0.0, "negative dollars {d} ({policy}, round {round})");
                    idle_a += i;
                    dollars_a += d;
                    watermark = watermark.max(until);
                    // Re-settling at or before the watermark adds nothing.
                    let (z, zd) = a.settle_warm_pool(uniform(&mut rng, 0.0, watermark));
                    assert_eq!(z, 0.0, "watermark not monotone ({policy})");
                    assert_eq!(zd, 0.0);
                }
                start = oa.end + gap;
            }
            let horizon = start + 50.0;
            let (ia, da) = a.settle_warm_pool(horizon);
            idle_a += ia;
            dollars_a += da;
            let (ib, db) = b.settle_warm_pool(horizon);
            assert!(
                (idle_a - ib).abs() < 1e-9,
                "interleaved {idle_a} vs single {ib} idle ({policy}, round {round})"
            );
            assert!(
                (dollars_a - db).abs() < 1e-9,
                "interleaved {dollars_a} vs single {db} dollars ({policy}, round {round})"
            );
        }
    }
}

/// The exact scenario of the watermark bug class: once an instance's
/// entire warm window has been settled, later settlements — at the same
/// instant, later, or earlier — must accrue zero new idle for it.
#[test]
fn warm_pool_lapsed_window_accrues_zero_new_idle() {
    let mut p = Platform::aws_2020().with_warm_pool(WarmPoolPolicy::keep_alive(15.0));
    let (f, _) = p.deploy(spec(1024, 10)).unwrap();
    let out = p.invoke(f, 0.0, &work(10, 1)).unwrap();
    // Settle far past the lapse: exactly one keep-alive window of idle.
    let (first, first_d) = p.settle_warm_pool(out.end + 100.0);
    assert!((first - 15.0).abs() < 1e-9, "one full window, got {first}");
    assert_eq!(first_d, 0.0, "keep-alive idle is free");
    // The warm window [end, end+15] now lies entirely at or before the
    // watermark: no repetition may re-bill any part of it.
    assert_eq!(p.settle_warm_pool(out.end + 100.0), (0.0, 0.0));
    assert_eq!(p.settle_warm_pool(out.end + 500.0), (0.0, 0.0));
    assert_eq!(p.settle_warm_pool(out.end), (0.0, 0.0), "backwards settle");
}

/// Per-policy idle tails: scale-to-zero never idles, keep-alive caps the
/// tail at its horizon, provisioned accrues exactly the incremental
/// interval per instance — and bills it.
#[test]
fn warm_pool_policy_tails_are_exact() {
    let w = work(10, 1);

    let mut zero = Platform::aws_2020().with_warm_pool(WarmPoolPolicy::scale_to_zero());
    let (f, _) = zero.deploy(spec(1024, 10)).unwrap();
    let out = zero.invoke(f, 0.0, &w).unwrap();
    assert_eq!(zero.settle_warm_pool(out.end + 1000.0), (0.0, 0.0));

    let mut prov = Platform::aws_2020().with_warm_pool(WarmPoolPolicy::provisioned(2));
    let (f, _) = prov.deploy(spec(1024, 10)).unwrap();
    prov.pre_warm(2);
    let out = prov.invoke(f, 0.0, &w).unwrap();
    let (i1, d1) = prov.settle_warm_pool(out.end);
    // Both instances idled from t = 0; the reused one stopped idling at
    // the warm start, the spare idled the whole span.
    assert!(i1 > 0.0 && d1 > 0.0, "provisioned idle must be billed");
    let (i2, d2) = prov.settle_warm_pool(out.end + 10.0);
    assert!(
        (i2 - 20.0).abs() < 1e-9,
        "2 instances x 10s increment, got {i2}"
    );
    assert!(d2 > 0.0);
}

#[test]
fn cost_items_partition_ledger() {
    let mut p = Platform::aws_2020();
    let (fid, _) = p.deploy(spec(1024, 10)).unwrap();
    let mut w = work(10, 2);
    let key = p.store.fresh_key();
    w.writes.push((key, MB));
    let out = p.invoke(fid, 0.0, &w).unwrap();
    let _ = out;
    p.settle_storage(100.0);
    let sum_by_kind: f64 = [
        CostItem::LambdaCompute,
        CostItem::LambdaRequest,
        CostItem::StoragePut,
        CostItem::StorageGet,
        CostItem::StorageAtRest,
        CostItem::VmTime,
    ]
    .iter()
    .map(|k| p.ledger.total_of(*k))
    .sum();
    assert!((sum_by_kind - p.total_cost()).abs() < 1e-15);
}
