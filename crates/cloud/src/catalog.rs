//! The instance-type catalog.
//!
//! §6.1 of the paper evaluates over 21 instance types drawn from three AWS
//! EC2 families: P3 (GPU), C7i (compute-optimized), and R7i (memory-
//! optimized). [`Catalog::aws_eval_2025`] reproduces that catalog with the
//! published capacities and us-east-1 on-demand prices, and
//! [`Catalog::table3_example`] holds Table 3's four pedagogical types.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use eva_types::{Cost, DemandSpec, FamilyKey, InstanceTypeId, ResourceVector};

/// The family an instance type belongs to.
///
/// Families matter because a task's resource demands can differ per family
/// (Table 7's parenthesized CPU demands on C7i/R7i) and because the ghost
/// type of the ILP formulation (§4.1) is not a real family at all.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum InstanceFamily {
    /// GPU instances (NVIDIA V100).
    P3,
    /// Compute-optimized instances.
    C7i,
    /// Memory-optimized instances.
    R7i,
    /// A named family outside the built-in three.
    Other(String),
}

impl InstanceFamily {
    /// The lowercase family name used as the key in [`DemandSpec`]
    /// per-family overrides.
    pub fn name(&self) -> &str {
        match self {
            InstanceFamily::P3 => "p3",
            InstanceFamily::C7i => "c7i",
            InstanceFamily::R7i => "r7i",
            InstanceFamily::Other(name) => name,
        }
    }

    /// The key of [`Self::name`]: a constant for the built-in families.
    #[inline]
    pub fn key(&self) -> FamilyKey {
        match self {
            InstanceFamily::P3 => const { FamilyKey::new("p3") },
            InstanceFamily::C7i => const { FamilyKey::new("c7i") },
            InstanceFamily::R7i => const { FamilyKey::new("r7i") },
            InstanceFamily::Other(name) => FamilyKey::new(name),
        }
    }
}

impl fmt::Display for InstanceFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One instance type: a capacity vector and an hourly price.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceType {
    /// Stable identifier within the owning catalog.
    pub id: InstanceTypeId,
    /// Marketing name, e.g. `p3.2xlarge`.
    pub name: String,
    /// The family this type belongs to.
    pub family: InstanceFamily,
    /// Resource capacity (`Q_k^r` in §4.1).
    pub capacity: ResourceVector,
    /// Hourly on-demand cost (`C_k` in §4.1).
    pub hourly_cost: Cost,
}

impl InstanceType {
    /// True if a task with the given demand spec fits on an *empty*
    /// instance of this type (demand resolved against this type's family).
    #[inline]
    pub fn can_host(&self, demand: &DemandSpec) -> bool {
        self.demand_of(demand).fits_within(&self.capacity)
    }

    /// The demand a task places on this type (family-resolved).
    #[inline]
    pub fn demand_of(&self, demand: &DemandSpec) -> ResourceVector {
        demand.for_key(self.family.key())
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.name, self.capacity, self.hourly_cost)
    }
}

/// An immutable set of instance types.
///
/// # Examples
///
/// ```
/// use eva_cloud::Catalog;
///
/// let catalog = Catalog::aws_eval_2025();
/// assert_eq!(catalog.len(), 21);
/// let cheapest_gpu = catalog
///     .types()
///     .filter(|t| t.capacity.gpu >= 1)
///     .min_by_key(|t| t.hourly_cost)
///     .unwrap();
/// assert_eq!(cheapest_gpu.name, "p3.2xlarge");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    types: Vec<InstanceType>,
    by_name: BTreeMap<String, InstanceTypeId>,
}

impl Catalog {
    /// Builds a catalog from a list of `(name, family, capacity, $/hr)`
    /// tuples. Ids are assigned in order.
    fn from_types(
        specs: impl IntoIterator<Item = (String, InstanceFamily, ResourceVector, f64)>,
    ) -> Self {
        let mut types = Vec::new();
        let mut by_name = BTreeMap::new();
        for (idx, (name, family, capacity, dollars)) in specs.into_iter().enumerate() {
            let id = InstanceTypeId(idx as u32);
            by_name.insert(name.clone(), id);
            types.push(InstanceType {
                id,
                name,
                family,
                capacity,
                hourly_cost: Cost::from_dollars_per_hour(dollars),
            });
        }
        Catalog { types, by_name }
    }

    /// The 21-type catalog of §6.1: 3 P3 sizes, 9 C7i sizes, 9 R7i sizes,
    /// with us-east-1 on-demand pricing.
    pub fn aws_eval_2025() -> Self {
        use InstanceFamily::{C7i, R7i, P3};
        let gb = |g: u64| g * 1024;
        let specs: Vec<(String, InstanceFamily, ResourceVector, f64)> = vec![
            // P3: 1 GPU : 8 vCPU : 61 GiB per unit; V100 GPUs.
            (
                "p3.2xlarge".into(),
                P3,
                ResourceVector::new(1, 8, gb(61)),
                3.06,
            ),
            (
                "p3.8xlarge".into(),
                P3,
                ResourceVector::new(4, 32, gb(244)),
                12.24,
            ),
            (
                "p3.16xlarge".into(),
                P3,
                ResourceVector::new(8, 64, gb(488)),
                24.48,
            ),
            // C7i: 2 GiB per vCPU.
            (
                "c7i.large".into(),
                C7i,
                ResourceVector::new(0, 2, gb(4)),
                0.08925,
            ),
            (
                "c7i.xlarge".into(),
                C7i,
                ResourceVector::new(0, 4, gb(8)),
                0.1785,
            ),
            (
                "c7i.2xlarge".into(),
                C7i,
                ResourceVector::new(0, 8, gb(16)),
                0.357,
            ),
            (
                "c7i.4xlarge".into(),
                C7i,
                ResourceVector::new(0, 16, gb(32)),
                0.714,
            ),
            (
                "c7i.8xlarge".into(),
                C7i,
                ResourceVector::new(0, 32, gb(64)),
                1.428,
            ),
            (
                "c7i.12xlarge".into(),
                C7i,
                ResourceVector::new(0, 48, gb(96)),
                2.142,
            ),
            (
                "c7i.16xlarge".into(),
                C7i,
                ResourceVector::new(0, 64, gb(128)),
                2.856,
            ),
            (
                "c7i.24xlarge".into(),
                C7i,
                ResourceVector::new(0, 96, gb(192)),
                4.284,
            ),
            (
                "c7i.48xlarge".into(),
                C7i,
                ResourceVector::new(0, 192, gb(384)),
                8.568,
            ),
            // R7i: 8 GiB per vCPU.
            (
                "r7i.large".into(),
                R7i,
                ResourceVector::new(0, 2, gb(16)),
                0.1323,
            ),
            (
                "r7i.xlarge".into(),
                R7i,
                ResourceVector::new(0, 4, gb(32)),
                0.2646,
            ),
            (
                "r7i.2xlarge".into(),
                R7i,
                ResourceVector::new(0, 8, gb(64)),
                0.5292,
            ),
            (
                "r7i.4xlarge".into(),
                R7i,
                ResourceVector::new(0, 16, gb(128)),
                1.0584,
            ),
            (
                "r7i.8xlarge".into(),
                R7i,
                ResourceVector::new(0, 32, gb(256)),
                2.1168,
            ),
            (
                "r7i.12xlarge".into(),
                R7i,
                ResourceVector::new(0, 48, gb(384)),
                3.1752,
            ),
            (
                "r7i.16xlarge".into(),
                R7i,
                ResourceVector::new(0, 64, gb(512)),
                4.2336,
            ),
            (
                "r7i.24xlarge".into(),
                R7i,
                ResourceVector::new(0, 96, gb(768)),
                6.3504,
            ),
            (
                "r7i.48xlarge".into(),
                R7i,
                ResourceVector::new(0, 192, gb(1536)),
                12.7008,
            ),
        ];
        Catalog::from_types(specs)
    }

    /// The four pedagogical instance types of Table 3, used by the paper's
    /// worked example in §4.2 and by this repo's unit tests.
    pub fn table3_example() -> Self {
        use InstanceFamily::Other;
        let specs: Vec<(String, InstanceFamily, ResourceVector, f64)> = vec![
            (
                "it1".into(),
                Other("ex".into()),
                ResourceVector::with_ram_gb(4, 16, 244),
                12.0,
            ),
            (
                "it2".into(),
                Other("ex".into()),
                ResourceVector::with_ram_gb(1, 4, 61),
                3.0,
            ),
            (
                "it3".into(),
                Other("ex".into()),
                ResourceVector::with_ram_gb(0, 8, 32),
                0.8,
            ),
            (
                "it4".into(),
                Other("ex".into()),
                ResourceVector::with_ram_gb(0, 4, 16),
                0.4,
            ),
        ];
        Catalog::from_types(specs)
    }

    /// Number of types in the catalog.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True when the catalog has no types.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Iterates over all types.
    pub fn types(&self) -> impl Iterator<Item = &InstanceType> {
        self.types.iter()
    }

    /// Looks up a type by id.
    pub fn get(&self, id: InstanceTypeId) -> Option<&InstanceType> {
        self.types.get(id.0 as usize).filter(|t| t.id == id)
    }

    /// Looks up a type by marketing name.
    pub fn by_name(&self, name: &str) -> Option<&InstanceType> {
        self.by_name.get(name).and_then(|id| self.get(*id))
    }

    /// Types sorted by hourly cost, descending — the iteration order of
    /// Algorithm 1 line 2.
    pub fn types_by_cost_desc(&self) -> Vec<&InstanceType> {
        let mut sorted: Vec<&InstanceType> = self.types.iter().collect();
        // Stable tie-break on id so the algorithm is deterministic.
        sorted.sort_by(|a, b| b.hourly_cost.cmp(&a.hourly_cost).then(a.id.cmp(&b.id)));
        sorted
    }

    /// The cheapest type that can host the given demand on a standalone
    /// instance, i.e. the *reservation-price type* of §4.2.
    pub fn cheapest_fit(&self, demand: &DemandSpec) -> Option<&InstanceType> {
        self.types
            .iter()
            .filter(|t| t.can_host(demand))
            .min_by(|a, b| a.hourly_cost.cmp(&b.hourly_cost).then(a.id.cmp(&b.id)))
    }

    /// The cheapest type that can host the *sum* of the given demands
    /// (resolved per family). Used by the Owl baseline for pairing.
    pub fn cheapest_fit_all(&self, demands: &[&DemandSpec]) -> Option<&InstanceType> {
        self.types
            .iter()
            .filter(|t| {
                let mut total = ResourceVector::ZERO;
                for d in demands {
                    total += t.demand_of(d);
                }
                total.fits_within(&t.capacity)
            })
            .min_by(|a, b| a.hourly_cost.cmp(&b.hourly_cost).then(a.id.cmp(&b.id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_types::DemandSpec;

    #[test]
    fn aws_catalog_has_21_types_in_three_families() {
        let c = Catalog::aws_eval_2025();
        assert_eq!(c.len(), 21);
        let p3 = c.types().filter(|t| t.family == InstanceFamily::P3).count();
        let c7i = c
            .types()
            .filter(|t| t.family == InstanceFamily::C7i)
            .count();
        let r7i = c
            .types()
            .filter(|t| t.family == InstanceFamily::R7i)
            .count();
        assert_eq!((p3, c7i, r7i), (3, 9, 9));
    }

    #[test]
    fn lookup_by_name_and_id() {
        let c = Catalog::aws_eval_2025();
        let t = c.by_name("p3.8xlarge").unwrap();
        assert_eq!(t.capacity, ResourceVector::with_ram_gb(4, 32, 244));
        assert_eq!(c.get(t.id).unwrap().name, "p3.8xlarge");
        assert!(c.by_name("m5.large").is_none());
        assert!(c.get(InstanceTypeId(999)).is_none());
    }

    #[test]
    fn cost_desc_order_starts_with_biggest_gpu_box() {
        let c = Catalog::aws_eval_2025();
        let sorted = c.types_by_cost_desc();
        assert_eq!(sorted[0].name, "p3.16xlarge");
        assert_eq!(sorted.last().unwrap().name, "c7i.large");
        for w in sorted.windows(2) {
            assert!(w[0].hourly_cost >= w[1].hourly_cost);
        }
    }

    #[test]
    fn cheapest_fit_is_reservation_price_type() {
        let c = Catalog::aws_eval_2025();
        // A 1-GPU task must land on p3.2xlarge.
        let d = DemandSpec::uniform(ResourceVector::with_ram_gb(1, 4, 24));
        assert_eq!(c.cheapest_fit(&d).unwrap().name, "p3.2xlarge");
        // A pure-CPU 6-vCPU task: c7i.2xlarge ($0.357) is the cheapest fit
        // among types with ≥6 vCPU and ≥8 GB.
        let d = DemandSpec::uniform(ResourceVector::with_ram_gb(0, 6, 8));
        assert_eq!(c.cheapest_fit(&d).unwrap().name, "c7i.2xlarge");
        // Memory-heavy tasks go to R7i (100 GB needs the 128 GB 4xlarge).
        let d = DemandSpec::uniform(ResourceVector::with_ram_gb(0, 4, 100));
        assert_eq!(c.cheapest_fit(&d).unwrap().name, "r7i.4xlarge");
        // Impossible demand.
        let d = DemandSpec::uniform(ResourceVector::with_ram_gb(16, 4, 24));
        assert!(c.cheapest_fit(&d).is_none());
    }

    #[test]
    fn cheapest_fit_respects_family_overrides() {
        let c = Catalog::aws_eval_2025();
        // GCN from Table 7: 12 CPUs on P3 but only 6 on C7i/R7i.
        let d = DemandSpec::uniform(ResourceVector::with_ram_gb(0, 12, 40))
            .with_family_override("c7i", ResourceVector::with_ram_gb(0, 6, 40))
            .with_family_override("r7i", ResourceVector::with_ram_gb(0, 6, 40));
        // r7i.2xlarge (8 vCPU, 64 GB, $0.5292) fits the 6-CPU/40GB form and
        // beats every C7i with ≥40 GB (c7i.4xlarge has only 32 GB).
        assert_eq!(c.cheapest_fit(&d).unwrap().name, "r7i.2xlarge");
    }

    #[test]
    fn table3_reservation_prices_match_paper() {
        let c = Catalog::table3_example();
        let tasks = [
            (ResourceVector::with_ram_gb(2, 8, 24), 12.0),
            (ResourceVector::with_ram_gb(1, 4, 10), 3.0),
            (ResourceVector::with_ram_gb(0, 6, 20), 0.8),
            (ResourceVector::with_ram_gb(0, 4, 12), 0.4),
        ];
        for (demand, rp) in tasks {
            let d = DemandSpec::uniform(demand);
            let t = c.cheapest_fit(&d).unwrap();
            assert_eq!(t.hourly_cost, Cost::from_dollars(rp), "demand {demand}");
        }
    }

    #[test]
    fn cheapest_fit_all_pairs() {
        let c = Catalog::table3_example();
        let d2 = DemandSpec::uniform(ResourceVector::with_ram_gb(1, 4, 10));
        let d4 = DemandSpec::uniform(ResourceVector::with_ram_gb(0, 4, 12));
        // τ2 + τ4 need [1, 8, 22]; it2 only has 4 CPUs so it1 is required.
        let t = c.cheapest_fit_all(&[&d2, &d4]).unwrap();
        assert_eq!(t.name, "it1");
    }

    #[test]
    fn empty_catalog() {
        let c = Catalog::from_types(Vec::new());
        assert!(c.is_empty());
        assert!(c
            .cheapest_fit(&DemandSpec::uniform(ResourceVector::ZERO))
            .is_none());
    }
}
