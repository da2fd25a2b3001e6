//! A non-finite observation is dropped, not stored: `f64::clamp` passes
//! NaN through, and one stored NaN makes every estimate over its group NaN.

use eva_interference::ThroughputTable;
use eva_types::WorkloadKind;

const A: WorkloadKind = WorkloadKind(0);
const B: WorkloadKind = WorkloadKind(1);
const C: WorkloadKind = WorkloadKind(2);

#[test]
fn estimates_stay_finite_after_non_finite_records() {
    let mut table = ThroughputTable::new(0.95);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        table.record(A, &[B], bad);
        table.record(A, &[B, C], bad);
    }
    // Nothing was learned: pair, product and triple all read the default.
    assert_eq!(table.estimate(A, &[B]), 0.95);
    assert_eq!(table.estimate(A, &[B, C]), 0.95 * 0.95);
    assert_eq!(table.estimate(A, &[B, C, B]), 0.95 * 0.95 * 0.95);

    // An earlier finite record survives a later non-finite one.
    table.record(A, &[B], 0.8);
    table.record(A, &[B, C], 0.6);
    table.record(A, &[B], f64::NAN);
    table.record(A, &[B, C], f64::INFINITY);
    assert_eq!(table.estimate(A, &[B]), 0.8);
    assert_eq!(table.estimate(A, &[B, C]), 0.6);
    assert!(table.estimate(A, &[C, B, B]).is_finite());
}
