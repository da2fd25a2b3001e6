//! The wire form of [`DemandSpec`] is pinned: trace files, `TraceHandle`
//! content fingerprints and report-cache keys are made of these bytes.
//! Every literal below was captured on the commit before `DemandSpec`
//! became an inline `Copy` value (when the derive serialized a
//! `BTreeMap<String, ResourceVector>` field). The specs are built by hand
//! here; `tests/demand_spec_traces.rs` at the workspace root holds the
//! generators (Table 7, the Alibaba sampler, whole traces) to the same.

use eva_types::{DemandSpec, ResourceVector};

fn assert_wire(spec: &DemandSpec, literal: &str, what: &str) {
    assert_eq!(serde_json::to_string(spec).unwrap(), literal, "{what}");
    let back: DemandSpec = serde_json::from_str(literal).unwrap();
    assert_eq!(&back, spec, "{what} round-trips");
}

#[test]
fn hand_built_specs_keep_their_bytes() {
    let spec = |gpu, cpu, ram_mb| DemandSpec::uniform(ResourceVector::new(gpu, cpu, ram_mb));
    let both = |d: DemandSpec, cpu| {
        let fast = ResourceVector::new(0, cpu, d.default.ram_mb);
        d.with_family_override("r7i", fast)
            .with_family_override("c7i", fast)
    };
    // ResNet18, GPT2, GCN, an Alibaba CPU job whose overrides equal its
    // default, and a lone override under a name of the full eight bytes.
    let lone = spec(0, 8, 8192).with_family_override("12345678", ResourceVector::new(0, 6, 8192));
    let cases = [
        (
            spec(1, 4, 24576),
            r#"{"default":{"gpu":1,"cpu":4,"ram_mb":24576},"per_family":{}}"#,
        ),
        (
            spec(4, 4, 10240),
            r#"{"default":{"gpu":4,"cpu":4,"ram_mb":10240},"per_family":{}}"#,
        ),
        (
            both(spec(0, 12, 40960), 6),
            r#"{"default":{"gpu":0,"cpu":12,"ram_mb":40960},"per_family":{"c7i":{"gpu":0,"cpu":6,"ram_mb":40960},"r7i":{"gpu":0,"cpu":6,"ram_mb":40960}}}"#,
        ),
        (
            both(spec(0, 1, 4096), 1),
            r#"{"default":{"gpu":0,"cpu":1,"ram_mb":4096},"per_family":{"c7i":{"gpu":0,"cpu":1,"ram_mb":4096},"r7i":{"gpu":0,"cpu":1,"ram_mb":4096}}}"#,
        ),
        (
            lone,
            r#"{"default":{"gpu":0,"cpu":8,"ram_mb":8192},"per_family":{"12345678":{"gpu":0,"cpu":6,"ram_mb":8192}}}"#,
        ),
    ];
    for (spec, literal) in cases {
        assert_wire(&spec, literal, literal);
    }
}

#[test]
fn override_insertion_order_changes_neither_bytes_nor_equality() {
    let base = DemandSpec::uniform(ResourceVector::new(0, 12, 40960));
    let fast = ResourceVector::new(0, 6, 40960);
    let slow = ResourceVector::new(0, 9, 40960);
    let a = base
        .with_family_override("c7i", fast)
        .with_family_override("r7i", slow);
    let b = base
        .with_family_override("r7i", slow)
        .with_family_override("c7i", fast);
    // Replacing an override is not a third one.
    let c = b
        .with_family_override("r7i", fast)
        .with_family_override("r7i", slow);
    assert_eq!(a, b);
    assert_eq!(a, c);
    let bytes = serde_json::to_string(&a).unwrap();
    assert_eq!(bytes, serde_json::to_string(&b).unwrap());
    assert_eq!(bytes, serde_json::to_string(&c).unwrap());

    // Name order on the wire, whatever the order in the document read.
    let swapped = r#"{"default":{"gpu":0,"cpu":12,"ram_mb":40960},"per_family":{"r7i":{"gpu":0,"cpu":9,"ram_mb":40960},"c7i":{"gpu":0,"cpu":6,"ram_mb":40960}}}"#;
    let d: DemandSpec = serde_json::from_str(swapped).unwrap();
    assert_eq!(d, a);
    assert!(bytes.find("c7i").unwrap() < bytes.find("r7i").unwrap());

    // A prefix sorts before the longer name, as `BTreeMap<String, _>` had it.
    let p = base
        .with_family_override("c7", fast)
        .with_family_override("c", slow);
    let bytes = serde_json::to_string(&p).unwrap();
    assert!(bytes.find(r#""c":"#).unwrap() < bytes.find(r#""c7":"#).unwrap());
    let cpus = ["c", "c7", "c7i"].map(|f| p.for_family(f).cpu);
    assert_eq!(cpus, [9, 6, 12]);
}

#[test]
fn hostile_specs_are_serde_errors_naming_the_reason() {
    let v = r#"{"gpu":0,"cpu":1,"ram_mb":1}"#;
    let spec = |names: &[&str]| {
        let pairs: Vec<String> = names.iter().map(|n| format!(r#""{n}":{v}"#)).collect();
        let json = format!(r#"{{"default":{v},"per_family":{{{}}}}}"#, pairs.join(","));
        serde_json::from_str::<DemandSpec>(&json).map_err(|e| e.to_string())
    };
    assert!(spec(&["a", "b"]).is_ok());
    assert!(spec(&["a", "a", "a"]).is_ok());
    assert!(spec(&["12345678"]).is_ok());
    let hostile: [(&[&str], &str); 6] = [
        (&["a", "b", "c"], "no slot left"),
        (&["a", "b", "c", "d", "e"], "no slot left"),
        (&[""], "unusable name"),
        (&["123456789"], "unusable name"),
        (&["p\\u00003"], "unusable name"),
        // Eight characters, ten bytes: never cut inside a character.
        (&["fam\u{ed}li\u{e1}s"], "unusable name"),
    ];
    for (names, reason) in hostile {
        let err = spec(names).expect_err("hostile spec accepted");
        assert!(err.contains(reason), "{names:?}: {err}");
    }
    // A name no override can be stored under resolves to the default.
    let d = DemandSpec::uniform(ResourceVector::new(1, 2, 3));
    for family in ["", "123456789", "p\u{0}3", "\u{0}"] {
        assert_eq!(d.for_family(family), d.default, "{family:?}");
    }
}
