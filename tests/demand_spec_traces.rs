//! The generators hold to the pinned wire form of `DemandSpec` (see
//! `crates/types/tests/demand_spec_wire.rs`): every Table 7 spec, the
//! Alibaba sampler's, and the `TraceHandle` content fingerprints of two
//! small traces equal the literals captured on the commit before
//! `DemandSpec` became an inline `Copy` value.

use eva_types::DemandSpec;
use eva_workloads::alibaba::sample_demand;
use eva_workloads::{
    AlibabaTraceConfig, DurationModelChoice, SyntheticTraceConfig, TraceHandle, WorkloadCatalog,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TABLE7: [(&str, &str); 10] = [
    (
        "ResNet18-2",
        r#"{"default":{"gpu":1,"cpu":4,"ram_mb":24576},"per_family":{}}"#,
    ),
    (
        "ResNet18-4",
        r#"{"default":{"gpu":1,"cpu":4,"ram_mb":24576},"per_family":{}}"#,
    ),
    (
        "ViT",
        r#"{"default":{"gpu":2,"cpu":8,"ram_mb":61440},"per_family":{}}"#,
    ),
    (
        "CycleGAN",
        r#"{"default":{"gpu":1,"cpu":4,"ram_mb":10240},"per_family":{}}"#,
    ),
    (
        "GPT2",
        r#"{"default":{"gpu":4,"cpu":4,"ram_mb":10240},"per_family":{}}"#,
    ),
    (
        "GraphSAGE",
        r#"{"default":{"gpu":1,"cpu":8,"ram_mb":51200},"per_family":{}}"#,
    ),
    (
        "GCN",
        r#"{"default":{"gpu":0,"cpu":12,"ram_mb":40960},"per_family":{"c7i":{"gpu":0,"cpu":6,"ram_mb":40960},"r7i":{"gpu":0,"cpu":6,"ram_mb":40960}}}"#,
    ),
    (
        "A3C",
        r#"{"default":{"gpu":0,"cpu":10,"ram_mb":8192},"per_family":{"c7i":{"gpu":0,"cpu":4,"ram_mb":8192},"r7i":{"gpu":0,"cpu":4,"ram_mb":8192}}}"#,
    ),
    (
        "Diamond",
        r#"{"default":{"gpu":0,"cpu":14,"ram_mb":16384},"per_family":{"c7i":{"gpu":0,"cpu":8,"ram_mb":16384},"r7i":{"gpu":0,"cpu":8,"ram_mb":16384}}}"#,
    ),
    (
        "OpenFOAM",
        r#"{"default":{"gpu":0,"cpu":8,"ram_mb":8192},"per_family":{"c7i":{"gpu":0,"cpu":6,"ram_mb":8192},"r7i":{"gpu":0,"cpu":6,"ram_mb":8192}}}"#,
    ),
];

/// `sample_demand(&mut StdRng::seed_from_u64(seed), gpus)` by `(seed, gpus)`.
const ALIBABA: [(u64, u32, &str); 6] = [
    (
        0,
        0,
        r#"{"default":{"gpu":0,"cpu":4,"ram_mb":8192},"per_family":{"c7i":{"gpu":0,"cpu":2,"ram_mb":8192},"r7i":{"gpu":0,"cpu":2,"ram_mb":8192}}}"#,
    ),
    (
        1,
        0,
        r#"{"default":{"gpu":0,"cpu":12,"ram_mb":98304},"per_family":{"c7i":{"gpu":0,"cpu":6,"ram_mb":98304},"r7i":{"gpu":0,"cpu":6,"ram_mb":98304}}}"#,
    ),
    (
        2,
        0,
        r#"{"default":{"gpu":0,"cpu":12,"ram_mb":49152},"per_family":{"c7i":{"gpu":0,"cpu":6,"ram_mb":49152},"r7i":{"gpu":0,"cpu":6,"ram_mb":49152}}}"#,
    ),
    (
        3,
        0,
        r#"{"default":{"gpu":0,"cpu":1,"ram_mb":4096},"per_family":{"c7i":{"gpu":0,"cpu":1,"ram_mb":4096},"r7i":{"gpu":0,"cpu":1,"ram_mb":4096}}}"#,
    ),
    (
        4,
        1,
        r#"{"default":{"gpu":1,"cpu":8,"ram_mb":32768},"per_family":{}}"#,
    ),
    (
        5,
        1,
        r#"{"default":{"gpu":1,"cpu":2,"ram_mb":32768},"per_family":{}}"#,
    ),
];

fn assert_wire(spec: &DemandSpec, literal: &str, what: &str) {
    assert_eq!(serde_json::to_string(spec).unwrap(), literal, "{what}");
    let back: DemandSpec = serde_json::from_str(literal).unwrap();
    assert_eq!(&back, spec, "{what} round-trips");
}

#[test]
fn table7_and_alibaba_specs_keep_their_bytes() {
    let catalog = WorkloadCatalog::table7();
    assert_eq!(catalog.iter().count(), TABLE7.len());
    for (w, (name, literal)) in catalog.iter().zip(TABLE7) {
        assert_eq!(w.name, name);
        assert_wire(&w.demand, literal, name);
    }
    for (seed, gpus, literal) in ALIBABA {
        let spec = sample_demand(&mut StdRng::seed_from_u64(seed), gpus);
        assert_wire(&spec, literal, &format!("alibaba seed {seed}"));
    }
}

#[test]
fn trace_fingerprints_are_the_parents() {
    let synthetic = SyntheticTraceConfig {
        num_jobs: 200,
        ..SyntheticTraceConfig::huge_100k()
    };
    let handle = TraceHandle::new(synthetic.generate(42));
    assert_eq!(handle.fingerprint_hex(), "8c5b1f6818e00ad6");
    let alibaba = AlibabaTraceConfig {
        num_jobs: 200,
        ..AlibabaTraceConfig::small(DurationModelChoice::Alibaba)
    };
    let handle = TraceHandle::new(alibaba.generate(42));
    assert_eq!(handle.fingerprint_hex(), "6396d4197850f9c9");
}
