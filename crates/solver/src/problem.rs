//! The provisioning problem and solution representations.

use eva_cloud::Catalog;
use eva_types::{DemandSpec, InstanceTypeId, ResourceVector};

/// One task to pack (an "item" in bin-packing terms).
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Caller-meaningful identifier (e.g. an index into a task list).
    pub id: usize,
    /// Resource demands, possibly per family.
    pub demand: DemandSpec,
}

/// A provisioning problem: items to host using unlimited copies of the
/// catalog's instance types at minimal total hourly cost.
#[derive(Debug, Clone)]
pub struct PackingProblem {
    /// The items.
    pub items: Vec<Item>,
    /// The available instance types.
    pub catalog: Catalog,
}

impl PackingProblem {
    /// Builds a problem.
    pub fn new(items: Vec<Item>, catalog: Catalog) -> Self {
        PackingProblem { items, catalog }
    }

    /// The no-packing cost: every item on its reservation-price instance.
    /// `None` if some item fits no type.
    pub fn no_packing_cost(&self) -> Option<f64> {
        let mut total = 0.0;
        for item in &self.items {
            total += self
                .catalog
                .cheapest_fit(&item.demand)?
                .hourly_cost
                .as_dollars();
        }
        Some(total)
    }

    /// A global lower bound on the optimal cost: for each resource `r`,
    /// no solution can pay less than (total demand of `r`) × (cheapest
    /// per-unit price of `r` across types). The bound uses each item's
    /// *minimum* per-family demand so it stays valid whichever family the
    /// optimum picks.
    pub fn lower_bound(&self) -> f64 {
        let mut best = 0.0f64;
        for r in 0..3 {
            let unit_price = self
                .catalog
                .types()
                .filter_map(|t| {
                    let q = component(&t.capacity, r);
                    if q == 0 {
                        None
                    } else {
                        Some(t.hourly_cost.as_dollars() / q as f64)
                    }
                })
                .fold(f64::INFINITY, f64::min);
            if !unit_price.is_finite() {
                continue;
            }
            let total_demand: u64 = (self.items.iter())
                .map(|item| min_family_demand(item, &self.catalog, r))
                .sum();
            best = best.max(unit_price * total_demand as f64);
        }
        best
    }
}

/// Extracts resource component `r` (0 = GPU, 1 = CPU, 2 = RAM).
pub(crate) fn component(v: &ResourceVector, r: usize) -> u64 {
    match r {
        0 => u64::from(v.gpu),
        1 => u64::from(v.cpu),
        _ => v.ram_mb,
    }
}

/// The minimum demand of resource `r` across the catalog's families — the
/// least the item can consume in any placement.
fn min_family_demand(item: &Item, catalog: &Catalog, r: usize) -> u64 {
    catalog
        .types()
        .map(|t| component(&t.demand_of(&item.demand), r))
        .min()
        .unwrap_or(component(&item.demand.default, r))
}

/// A provisioning solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Instances used: type plus assigned item ids.
    pub bins: Vec<(InstanceTypeId, Vec<usize>)>,
    /// Total hourly cost in dollars.
    pub cost_dollars: f64,
    /// Whether the solver proved this solution optimal.
    pub proven_optimal: bool,
    /// Item ids that could not be placed on any type.
    pub unplaced: Vec<usize>,
    /// Search nodes explored (0 for pure heuristics).
    pub nodes_explored: u64,
}

impl Solution {
    /// Validates the solution against the problem: every placed item
    /// appears exactly once and every bin respects its type's capacity.
    pub fn validate(&self, problem: &PackingProblem) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        for (ty_id, items) in &self.bins {
            let ty = problem
                .catalog
                .get(*ty_id)
                .ok_or_else(|| format!("unknown type {ty_id}"))?;
            let mut used = ResourceVector::ZERO;
            for id in items {
                if !seen.insert(*id) {
                    return Err(format!("item {id} placed twice"));
                }
                let item = problem
                    .items
                    .iter()
                    .find(|i| i.id == *id)
                    .ok_or_else(|| format!("unknown item {id}"))?;
                used += ty.demand_of(&item.demand);
            }
            if !used.fits_within(&ty.capacity) {
                return Err(format!(
                    "bin of {} overfull: {used} > {}",
                    ty.name, ty.capacity
                ));
            }
        }
        for item in &problem.items {
            let placed = seen.contains(&item.id);
            let unplaced = self.unplaced.contains(&item.id);
            if placed == unplaced {
                return Err(format!(
                    "item {} neither placed nor reported unplaced",
                    item.id
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: usize, gpu: u32, cpu: u32, ram_gb: u64) -> Item {
        Item {
            id,
            demand: DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu, ram_gb)),
        }
    }

    #[test]
    fn no_packing_cost_sums_reservation_prices() {
        let p = PackingProblem::new(
            vec![
                item(0, 2, 8, 24),
                item(1, 1, 4, 10),
                item(2, 0, 6, 20),
                item(3, 0, 4, 12),
            ],
            Catalog::table3_example(),
        );
        assert!((p.no_packing_cost().unwrap() - 16.2).abs() < 1e-9);
    }

    #[test]
    fn no_packing_cost_none_for_infeasible() {
        let p = PackingProblem::new(vec![item(0, 99, 4, 10)], Catalog::table3_example());
        assert!(p.no_packing_cost().is_none());
    }

    #[test]
    fn lower_bound_is_below_no_packing() {
        let p = PackingProblem::new(
            vec![
                item(0, 2, 8, 24),
                item(1, 1, 4, 10),
                item(2, 0, 6, 20),
                item(3, 0, 4, 12),
            ],
            Catalog::table3_example(),
        );
        let lb = p.lower_bound();
        assert!(lb > 0.0);
        assert!(lb <= p.no_packing_cost().unwrap() + 1e-9);
        // The known optimum is 12.8; the bound must not exceed it.
        assert!(lb <= 12.8 + 1e-9, "lb {lb}");
    }

    #[test]
    fn validate_catches_overfull_bins() {
        let catalog = Catalog::table3_example();
        let p = PackingProblem::new(vec![item(0, 1, 4, 10), item(1, 1, 4, 10)], catalog.clone());
        let it2 = catalog.by_name("it2").unwrap().id;
        let bad = Solution {
            bins: vec![(it2, vec![0, 1])], // it2 has only 1 GPU.
            cost_dollars: 3.0,
            proven_optimal: false,
            unplaced: vec![],
            nodes_explored: 0,
        };
        assert!(bad.validate(&p).is_err());
    }

    #[test]
    fn validate_catches_duplicates_and_omissions() {
        let catalog = Catalog::table3_example();
        let p = PackingProblem::new(vec![item(0, 0, 4, 12), item(1, 0, 4, 12)], catalog.clone());
        let it4 = catalog.by_name("it4").unwrap().id;
        let dup = Solution {
            bins: vec![(it4, vec![0]), (it4, vec![0])],
            cost_dollars: 0.8,
            proven_optimal: false,
            unplaced: vec![],
            nodes_explored: 0,
        };
        assert!(dup.validate(&p).is_err());
        let missing = Solution {
            bins: vec![(it4, vec![0])],
            cost_dollars: 0.4,
            proven_optimal: false,
            unplaced: vec![],
            nodes_explored: 0,
        };
        assert!(missing.validate(&p).is_err());
    }
}
