//! An instance type resolves a task's demand through its family's
//! `FamilyKey` instead of its family's name. The two must agree: the key
//! of every family is `FamilyKey::new` of its name (a constant for the
//! built-in three), and `demand_of` answers what `for_family` answers for
//! the name, on specs with and without a matching override.

use eva_cloud::{Catalog, InstanceFamily, InstanceType};
use eva_types::{Cost, DemandSpec, FamilyKey, InstanceTypeId, ResourceVector};
use proptest::prelude::*;

/// Family names an override may carry: the catalogs' own, near misses of
/// them, and other names a spec can hold.
const OVERRIDE_NAMES: [&str; 9] = [
    "p3", "c7i", "r7i", "ex", "c7", "c7i0", "r", "abcdefgh", "日本",
];

fn other(name: &str) -> InstanceType {
    InstanceType {
        id: InstanceTypeId(0),
        name: format!("{name}.large"),
        family: InstanceFamily::Other(name.to_string()),
        capacity: ResourceVector::with_ram_gb(1, 8, 32),
        hourly_cost: Cost::from_dollars_per_hour(1.0),
    }
}

/// Both catalogs, plus `Other` families whose names are empty, one byte,
/// eight and nine bytes, hold a NUL, or are multi-byte UTF-8.
fn every_type() -> Vec<InstanceType> {
    let (aws, table3) = (Catalog::aws_eval_2025(), Catalog::table3_example());
    let mut types: Vec<InstanceType> = aws.types().chain(table3.types()).cloned().collect();
    let odd = [
        "",
        "r",
        "abcdefgh",
        "abcdefghi",
        "c7i\0",
        "\0",
        "日本",
        "日本語",
        "é",
    ];
    types.extend(odd.map(other));
    types
}

#[test]
fn a_family_key_is_the_key_of_the_family_name() {
    for ty in every_type() {
        let by_name = FamilyKey::new(ty.family.name());
        assert_eq!(ty.family.key(), by_name, "{:?}", ty.family);
    }
    // Names no override can be held under share the key that matches none.
    let none = FamilyKey::new("");
    for name in ["abcdefghi", "c7i\0", "\0", "日本語"] {
        assert_eq!(FamilyKey::new(name), none, "{name:?}");
    }
    let built_in = [InstanceFamily::P3, InstanceFamily::C7i, InstanceFamily::R7i];
    for (i, a) in built_in.iter().enumerate() {
        assert_ne!(a.key(), none, "{a}");
        for b in &built_in[i + 1..] {
            assert_ne!(a.key(), b.key(), "{a} and {b}");
        }
    }
}

fn vector() -> impl Strategy<Value = ResourceVector> {
    (0u32..4, 0u32..64, 0u64..65_536).prop_map(|(g, c, m)| ResourceVector::new(g, c, m))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn demand_of_resolves_as_for_family_does(
        held in 0usize..=2,
        names in (0..OVERRIDE_NAMES.len(), 0..OVERRIDE_NAMES.len()),
        vectors in (vector(), vector(), vector()),
    ) {
        let (default, first, second) = vectors;
        let overrides = [(OVERRIDE_NAMES[names.0], first), (OVERRIDE_NAMES[names.1], second)];
        let overrides = &overrides[..held];
        let spec = overrides
            .iter()
            .fold(DemandSpec::uniform(default), |s, &(n, d)| s.with_family_override(n, d));
        for ty in every_type() {
            let name = ty.family.name();
            // The model: the last override set under the name, else the default.
            let model = overrides.iter().rev().find(|(n, _)| *n == name);
            let model = model.map_or(default, |&(_, d)| d);
            prop_assert_eq!(ty.demand_of(&spec), spec.for_family(name), "{:?}", ty.family);
            prop_assert_eq!(ty.demand_of(&spec), model, "{:?} under {:?}", ty.family, overrides);
        }
    }
}
