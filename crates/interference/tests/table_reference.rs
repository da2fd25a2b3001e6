//! `ThroughputTable` held, bit for bit, to §4.3 written naively: one
//! ordered map under sorted keys, no pairwise index, no group-size mask,
//! no scratch key, no hasher. Everything goes through public API, so the
//! model lives outside the product.
//!
//! Group sizes run to 70 so that the mask's shared last bit (63 others or
//! more) is exercised, and probes are mostly derived from groups recorded
//! earlier — the same multiset reordered, one member short, one member
//! over, under another task — since a fresh 64-member group almost never
//! meets a recorded one by chance.

use std::collections::BTreeMap;

use eva_interference::ThroughputTable;
use eva_types::WorkloadKind;
use proptest::prelude::*;

type Group = (WorkloadKind, Vec<WorkloadKind>);

fn key(task: WorkloadKind, others: &[WorkloadKind]) -> Group {
    let mut others = others.to_vec();
    others.sort();
    (task, others)
}

struct Model {
    default_tput: f64,
    groups: BTreeMap<Group, f64>,
}

impl Model {
    fn record(&mut self, task: WorkloadKind, others: &[WorkloadKind], tput: f64) {
        if !others.is_empty() && tput.is_finite() {
            self.groups.insert(key(task, others), tput.clamp(0.0, 1.0));
        }
    }

    fn recorded(&self, task: WorkloadKind, others: &[WorkloadKind]) -> Option<f64> {
        if others.is_empty() {
            return Some(1.0);
        }
        self.groups.get(&key(task, others)).copied()
    }

    /// Alone; else the recorded group; else the product of the pairs, each
    /// recorded or the default.
    fn estimate(&self, task: WorkloadKind, others: &[WorkloadKind]) -> f64 {
        if let Some(tput) = self.recorded(task, others) {
            return tput;
        }
        let mut product = 1.0;
        for other in others {
            product *= self.recorded(task, &[*other]).unwrap_or(self.default_tput);
        }
        product.clamp(0.0, 1.0)
    }
}

/// Every read the table offers, on one group.
fn assert_reads_agree(
    table: &ThroughputTable,
    model: &Model,
    (task, others): &Group,
) -> Result<(), TestCaseError> {
    let bits = |tput: Option<f64>| tput.map(f64::to_bits);
    let size = others.len();
    prop_assert_eq!(
        bits(table.recorded(*task, others)),
        bits(model.recorded(*task, others)),
        "recorded, {} others",
        size
    );
    prop_assert_eq!(
        table.estimate(*task, others).to_bits(),
        model.estimate(*task, others).to_bits(),
        "estimate, {} others",
        size
    );
    if let Some(other) = others.first() {
        let pair = model.recorded(*task, &[*other]);
        prop_assert_eq!(bits(table.recorded_pairwise(*task, *other)), bits(pair));
        prop_assert_eq!(
            table.pairwise_or_default(*task, *other).to_bits(),
            pair.unwrap_or(model.default_tput).to_bits()
        );
    }
    Ok(())
}

/// (What to do and how near a named group to do it, task, size of a fresh
/// group, its kinds, a throughput, how far back to reach for a named group.)
type Step = (u32, u32, usize, Vec<u32>, f64, usize);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let size = prop_oneof![0usize..=4, 60usize..=70];
    let kinds = collection::vec(0u32..3, 70);
    let step = (0u32..48, 0u32..3, size, kinds, -0.5f64..1.5, 0usize..8);
    collection::vec(step, 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_is_the_naive_model(
        default_tput in (0u32..8, -0.2f64..1.2),
        steps in arb_steps(),
    ) {
        let default_tput = if default_tput.0 == 0 { f64::NAN } else { default_tput.1 };
        let mut table = ThroughputTable::new(default_tput);
        let mut model = Model {
            default_tput: default_tput.clamp(0.0, 1.0),
            groups: BTreeMap::new(),
        };
        // Every group a `record` named, stored or not, latest last.
        let mut named: Vec<Group> = Vec::new();

        for (what, task, size, kinds, tput, back) in steps {
            let (what, how_near) = (what % 12, what / 12);
            let fresh = kinds[..size].iter().copied().map(WorkloadKind).collect();
            let fresh: Group = (WorkloadKind(task), fresh);
            // A group near one named before, if any was.
            let near = match named.len().checked_sub(1 + back % named.len().max(1)) {
                None => fresh.clone(),
                Some(at) => {
                    let (task, mut others) = named[at].clone();
                    match how_near {
                        0 => others.reverse(),
                        1 => drop(others.pop()),
                        2 => others.push(WorkloadKind(kinds[0])),
                        _ => {}
                    }
                    (WorkloadKind(task.0 + u32::from(how_near == 3)), others)
                }
            };
            match what {
                0 => {
                    table.clear();
                    model.groups.clear();
                    // A cleared table is a new one, mask and all.
                    let new = ThroughputTable::new(default_tput);
                    prop_assert_eq!(format!("{table:?}"), format!("{new:?}"));
                }
                1..=4 => {
                    let (task, others) = if what < 3 { fresh } else { near };
                    let tput = match what {
                        2 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][back % 3],
                        _ => tput,
                    };
                    table.record(task, &others, tput);
                    model.record(task, &others, tput);
                    assert_reads_agree(&table, &model, &(task, others.clone()))?;
                    named.push((task, others));
                }
                5 => assert_reads_agree(&table, &model, &fresh)?,
                _ => assert_reads_agree(&table, &model, &near)?,
            }
            prop_assert_eq!(table.len(), model.groups.len());
            prop_assert_eq!(table.is_empty(), model.groups.is_empty());
        }
    }
}
