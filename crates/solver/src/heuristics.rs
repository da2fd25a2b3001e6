//! The classic VSBPP heuristic, first-fit decreasing.
//!
//! It orders items by descending reservation price (the paper's notion of
//! "size" in multi-dimensional space) and places each into the first open
//! bin that fits, opening the item's reservation-price type otherwise. It
//! serves as the exact solver's warm start and as a cross-check.

use eva_types::ResourceVector;

use crate::problem::{PackingProblem, Solution};

struct OpenBin {
    type_idx: usize,
    used: ResourceVector,
    items: Vec<usize>,
}

/// First-fit decreasing: items by descending reservation price, each into
/// the first open bin that fits, else into a new bin of the cheapest type
/// that fits it.
pub fn first_fit_decreasing(problem: &PackingProblem) -> Solution {
    let catalog = &problem.catalog;
    let types: Vec<_> = catalog.types().collect();

    // Sort item indices by descending reservation price.
    let mut order: Vec<usize> = (0..problem.items.len()).collect();
    let rp = |i: usize| {
        catalog
            .cheapest_fit(&problem.items[i].demand)
            .map(|t| t.hourly_cost.as_dollars())
    };
    order.sort_by(|a, b| {
        let ra = rp(*a).unwrap_or(-1.0);
        let rb = rp(*b).unwrap_or(-1.0);
        rb.partial_cmp(&ra).unwrap().then(a.cmp(b))
    });

    let mut bins: Vec<OpenBin> = Vec::new();
    let mut unplaced = Vec::new();
    for idx in order {
        let item = &problem.items[idx];
        let fits = |b: &OpenBin| {
            let ty = types[b.type_idx];
            b.used
                .checked_add(&ty.demand_of(&item.demand))
                .is_some_and(|u| u.fits_within(&ty.capacity))
        };
        if let Some(bin_idx) = bins.iter().position(fits) {
            let ty = types[bins[bin_idx].type_idx];
            let add = ty.demand_of(&item.demand);
            bins[bin_idx].used = bins[bin_idx].used.checked_add(&add).unwrap();
            bins[bin_idx].items.push(item.id);
            continue;
        }
        // Open the reservation-price type.
        match catalog.cheapest_fit(&item.demand) {
            Some(ty) => {
                let type_idx = types.iter().position(|t| t.id == ty.id).unwrap();
                bins.push(OpenBin {
                    type_idx,
                    used: ty.demand_of(&item.demand),
                    items: vec![item.id],
                });
            }
            None => unplaced.push(item.id),
        }
    }

    let cost_dollars = bins
        .iter()
        .map(|b| types[b.type_idx].hourly_cost.as_dollars())
        .sum();
    Solution {
        bins: bins
            .into_iter()
            .map(|b| (types[b.type_idx].id, b.items))
            .collect(),
        cost_dollars,
        proven_optimal: false,
        unplaced,
        nodes_explored: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Item;
    use eva_cloud::Catalog;
    use eva_types::DemandSpec;

    fn item(id: usize, gpu: u32, cpu: u32, ram_gb: u64) -> Item {
        Item {
            id,
            demand: DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu, ram_gb)),
        }
    }

    fn table3_problem() -> PackingProblem {
        PackingProblem::new(
            vec![
                item(0, 2, 8, 24),
                item(1, 1, 4, 10),
                item(2, 0, 6, 20),
                item(3, 0, 4, 12),
            ],
            Catalog::table3_example(),
        )
    }

    #[test]
    fn ffd_produces_valid_solution() {
        let p = table3_problem();
        let s = first_fit_decreasing(&p);
        s.validate(&p).unwrap();
        assert!(s.unplaced.is_empty());
        // FFD matches the paper's walkthrough: it1 + it3 = $12.80.
        assert!(
            (s.cost_dollars - 12.8).abs() < 1e-9,
            "cost {}",
            s.cost_dollars
        );
    }

    #[test]
    fn heuristics_never_beat_lower_bound() {
        let p = table3_problem();
        let lb = p.lower_bound();
        assert!(first_fit_decreasing(&p).cost_dollars + 1e-9 >= lb);
    }

    #[test]
    fn infeasible_items_are_reported() {
        let p = PackingProblem::new(
            vec![item(0, 99, 1, 1), item(1, 0, 4, 12)],
            Catalog::table3_example(),
        );
        let s = first_fit_decreasing(&p);
        s.validate(&p).unwrap();
        assert_eq!(s.unplaced, vec![0]);
    }

    #[test]
    fn empty_problem() {
        let p = PackingProblem::new(vec![], Catalog::table3_example());
        let s = first_fit_decreasing(&p);
        assert_eq!(s.cost_dollars, 0.0);
        assert!(s.bins.is_empty());
    }

    #[test]
    fn ffd_on_aws_catalog_with_many_items() {
        let catalog = Catalog::aws_eval_2025();
        let items: Vec<Item> = (0..60)
            .map(|i| match i % 3 {
                0 => item(i, 1, 4, 24),
                1 => item(i, 0, 4, 8),
                _ => item(i, 0, 2, 16),
            })
            .collect();
        let p = PackingProblem::new(items, catalog);
        let s = first_fit_decreasing(&p);
        s.validate(&p).unwrap();
        assert!(s.cost_dollars < p.no_packing_cost().unwrap());
    }
}
