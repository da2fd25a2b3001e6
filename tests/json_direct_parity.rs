//! The direct JSON path (`write_json` / `read_json`, what derived types
//! and `serde_json` use) against the tree path (`serialize` /
//! `deserialize` through a `Value`), which is the reference.
//!
//! * `to_string` and `to_string_pretty` print the bytes of the value tree.
//! * `from_str::<T>` gives what deserializing the parsed tree gives: the
//!   same value, or an error on both paths. Inputs are the rendered text
//!   and mutations of it: keys reordered, an unknown key, a key duplicated
//!   with another value or an ill-typed one, whitespace between every
//!   token, an integer written `5.0` / `5e0` / `-5` (`-0` for a zero), a
//!   number written `null`, a key spelled with a `\u` escape, one byte
//!   deleted, and one byte replaced.
//!
//! CI runs this in release as well.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::sync::OnceLock;

use eva::prelude::*;
use eva::sim::CellKey;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

/// Every shape the derive supports, and the container impls.
#[derive(Debug, Serialize, Deserialize)]
enum Shape {
    Unit,
    Other,
    New(u16),
    Pair(i64, Option<f64>),
    Record { name: String, tags: Vec<char> },
    Bare {},
}

#[derive(Debug, Serialize, Deserialize)]
struct Tuple(i8, bool);

#[derive(Debug, Serialize, Deserialize)]
struct Every {
    shapes: Vec<Shape>,
    tuple: Tuple,
    ordered: BTreeMap<String, u32>,
    hashed: HashMap<String, (u8, String)>,
    raw: Value,
}

const FAMILIES: [&str; 5] = ["p3", "c7i", "r7i", "x", "abcdefgh"];

fn text(rng: &mut StdRng) -> String {
    const PIECES: [&str; 8] = ["a", "Z_9", " ", "\"", "\\", "\n\t", "\u{e9}", "\u{1F600}"];
    (0..rng.gen_range(0..6))
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

fn job(rng: &mut StdRng) -> JobSpec {
    let id = JobId(match rng.gen_range(0..3) {
        0 => u64::MAX - rng.gen_range(0..3u64),
        1 => rng.gen_range(0..100u64),
        _ => rng.gen(),
    });
    let demand = |rng: &mut StdRng| {
        ResourceVector::new(rng.gen_range(0..9), rng.gen_range(0..97), rng.gen())
    };
    let tasks = (0..rng.gen_range(1..5u32))
        .map(|index| {
            let mut spec = DemandSpec::uniform(demand(rng));
            for _ in 0..rng.gen_range(0..3) {
                let family = FAMILIES[rng.gen_range(0..FAMILIES.len())];
                spec = spec.with_family_override(family, demand(rng));
            }
            TaskSpec {
                id: TaskId::new(id, index),
                workload: WorkloadKind(rng.gen()),
                demand: spec,
                checkpoint_delay: SimDuration::from_millis(rng.gen_range(0..1 << 40)),
                launch_delay: SimDuration::from_millis(rng.gen()),
            }
        })
        .collect();
    JobSpec {
        id,
        arrival: SimTime::from_millis(rng.gen()),
        tasks,
        duration_at_full_tput: SimDuration::from_millis(rng.gen_range(1..1 << 36)),
        gang_coupled: rng.gen(),
    }
}

fn cell_key(rng: &mut StdRng) -> CellKey {
    CellKey {
        trace: text(rng),
        scheduler: text(rng),
        seed: rng.gen(),
        fidelity: text(rng),
        interference: text(rng),
        migration_delay_scale: rng.gen_range(-1e3..1e3),
        backend: text(rng),
        faults: text(rng),
    }
}

fn every(rng: &mut StdRng) -> Every {
    let shapes = (0..rng.gen_range(0..5))
        .map(|_| match rng.gen_range(0..6) {
            0 => Shape::Unit,
            1 => Shape::Other,
            2 => Shape::New(rng.gen()),
            3 => Shape::Pair(
                rng.gen(),
                rng.gen::<bool>().then(|| rng.gen_range(-9.0..9.0)),
            ),
            4 => Shape::Record {
                name: text(rng),
                tags: text(rng).chars().collect(),
            },
            _ => Shape::Bare {},
        })
        .collect();
    Every {
        shapes,
        tuple: Tuple(rng.gen(), rng.gen()),
        ordered: (0..rng.gen_range(0..3))
            .map(|_| (text(rng), rng.gen()))
            .collect(),
        hashed: (0..rng.gen_range(0..3))
            .map(|_| (text(rng), (rng.gen(), text(rng))))
            .collect(),
        raw: Value::Array(vec![Value::Null, Value::String(text(rng))]),
    }
}

/// Reports and rolling snapshots of a few small seeded `serve` runs; each
/// snapshot line read back through the tree.
fn runs() -> &'static (Vec<SimReport>, Vec<MetricsSnapshot>) {
    static RUNS: OnceLock<(Vec<SimReport>, Vec<MetricsSnapshot>)> = OnceLock::new();
    RUNS.get_or_init(|| {
        let (mut reports, mut snapshots) = (Vec::new(), Vec::new());
        for (seed, kind) in [(1, SchedulerKind::Stratus), (2, SchedulerKind::NoPacking)] {
            let mut cfg = SimConfig::new(TraceHandle::new(Trace::new(Vec::new())), kind);
            cfg.seed = seed;
            let source = Box::new(SyntheticSource::open_loop(20.0, 30, seed));
            let opts = ServeConfig {
                metrics_every: SimDuration::from_mins(20),
                duration: None,
            };
            let mut out = Vec::new();
            let outcome = serve(&cfg, source, &opts, &mut out).unwrap();
            for line in String::from_utf8(out).unwrap().lines() {
                let tree = serde_json::from_str_value(line).unwrap();
                snapshots.push(MetricsSnapshot::deserialize(&tree).unwrap());
            }
            reports.push(outcome.report);
        }
        (reports, snapshots)
    })
}

/// The tokens of compact JSON: strings, numbers, literals, punctuation.
fn tokens(text: &str) -> Vec<&str> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        match b[i] {
            b'"' => {
                i += 1;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'{' | b'}' | b'[' | b']' | b':' | b',' => i += 1,
            _ => {
                while i < b.len() && !b"{}[]:,\"".contains(&b[i]) {
                    i += 1;
                }
            }
        }
        out.push(&text[start..i]);
    }
    out
}

/// `toks` with the token at a random index among those `pick` accepts
/// replaced by `with(token)`; `None` when no token qualifies.
fn replace_one(
    toks: &[&str],
    rng: &mut StdRng,
    pick: impl Fn(usize) -> bool,
    with: impl Fn(&str) -> String,
) -> Option<String> {
    let at: Vec<usize> = (0..toks.len()).filter(|&i| pick(i)).collect();
    let chosen = *at.get(rng.gen_range(0..at.len().max(1)))?;
    let mut out: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
    out[chosen] = with(toks[chosen]);
    Some(out.concat())
}

/// An object's members, as the tree holds them.
type Pairs = Vec<(String, Value)>;

/// Calls `f` on the `k`-th object of `v` in pre-order; false if there are
/// fewer.
fn with_object(v: &mut Value, k: &mut usize, f: &mut dyn FnMut(&mut Pairs)) -> bool {
    if let Value::Object(pairs) = v {
        if *k == 0 {
            f(pairs);
            return true;
        }
        *k -= 1;
    }
    match v {
        Value::Object(pairs) => pairs.iter_mut().any(|(_, item)| with_object(item, k, f)),
        Value::Array(items) => items.iter_mut().any(|item| with_object(item, k, f)),
        _ => false,
    }
}

fn another(v: &Value) -> Value {
    match v {
        Value::Number(serde::Number::U(n)) => Value::Number(serde::Number::U(n ^ 1)),
        Value::Number(serde::Number::I(n)) => Value::Number(serde::Number::I(n.wrapping_sub(1))),
        Value::Number(serde::Number::F(x)) => Value::Number(serde::Number::F(x + 1.0)),
        Value::String(s) => Value::String(format!("{s}x")),
        Value::Bool(b) => Value::Bool(!b),
        Value::Array(items) => Value::Array(items.iter().skip(1).cloned().collect()),
        Value::Object(pairs) => Value::Object(pairs.iter().rev().cloned().collect()),
        Value::Null => Value::Bool(false),
    }
}

fn ill_typed(v: &Value) -> Value {
    match v {
        Value::String(_) => Value::Number(serde::Number::U(1)),
        _ => Value::String("ill-typed".into()),
    }
}

fn objects(v: &Value) -> usize {
    match v {
        Value::Object(pairs) => 1 + pairs.iter().map(|(_, item)| objects(item)).sum::<usize>(),
        Value::Array(items) => items.iter().map(objects).sum(),
        _ => 0,
    }
}

/// `tree` with one edit to a random object, rendered.
fn edited(
    tree: &Value,
    rng: &mut StdRng,
    edit: &mut dyn FnMut(&mut Pairs, &mut StdRng),
) -> Option<String> {
    let mut tree = tree.clone();
    let mut k = rng.gen_range(0..objects(&tree).max(1));
    let mut seeded = StdRng::seed_from_u64(rng.gen());
    let found = with_object(&mut tree, &mut k, &mut |pairs| edit(pairs, &mut seeded));
    found.then(|| serde_json::to_string(&tree).unwrap())
}

/// The rendered text and its mutations.
fn inputs(text: &str, pretty: &str, tree: &Value, rng: &mut StdRng) -> Vec<String> {
    let toks = tokens(text);
    let is_number = |t: &str| t.starts_with(|c: char| c == '-' || c.is_ascii_digit());
    let is_integer = |t: &str| is_number(t) && !t.contains(['.', 'e', 'E']);
    let mut out = vec![text.to_string(), pretty.to_string()];
    const WS: [&str; 5] = [" ", "\n", "\t", "\r\n  ", " \t"];
    let spaced: Vec<&str> = toks
        .iter()
        .flat_map(|t| [WS[rng.gen_range(0..WS.len())], *t])
        .collect();
    out.push(format!("{} ", spaced.concat()));
    for suffix in [".0", "e0", "-"] {
        let int = |i: usize| is_integer(toks[i]);
        let with = |t: &str| {
            if suffix == "-" {
                format!("-{t}")
            } else {
                format!("{t}{suffix}")
            }
        };
        out.extend(replace_one(&toks, rng, int, with));
    }
    out.extend(replace_one(
        &toks,
        rng,
        |i| is_number(toks[i]) && !is_integer(toks[i]),
        |_| "null".into(),
    ));
    out.extend(replace_one(
        &toks,
        rng,
        |i| is_number(toks[i]),
        |_| "null".into(),
    ));
    let is_key = |i: usize| {
        let starts_plain = toks[i]
            .as_bytes()
            .get(1)
            .is_some_and(u8::is_ascii_alphanumeric);
        toks.get(i + 1) == Some(&":") && starts_plain
    };
    out.extend(replace_one(&toks, rng, is_key, |t| {
        let first = t.as_bytes()[1];
        format!("\"\\u{:04x}{}", first, &t[2..])
    }));
    let mut bytes = text.as_bytes().to_vec();
    bytes.remove(rng.gen_range(0..bytes.len()));
    out.extend(String::from_utf8(bytes).ok());
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len());
    bytes[at] = rng.gen_range(0x20..0x7f);
    out.extend(String::from_utf8(bytes).ok());

    out.extend(edited(tree, rng, &mut |pairs, rng| {
        let n = pairs.len();
        pairs.rotate_left(rng.gen_range(0..n.max(1)));
        if rng.gen() {
            pairs.reverse();
        }
    }));
    out.extend(edited(tree, rng, &mut |pairs, rng| {
        let at = rng.gen_range(0..=pairs.len());
        pairs.insert(
            at,
            (
                "unknown".into(),
                Value::Array(vec![Value::Null, Value::Bool(true)]),
            ),
        );
    }));
    for kind in [another as fn(&Value) -> Value, ill_typed] {
        out.extend(edited(tree, rng, &mut |pairs, rng| {
            if pairs.is_empty() {
                return;
            }
            let (key, value) = pairs[rng.gen_range(0..pairs.len())].clone();
            let at = rng.gen_range(0..=pairs.len());
            pairs.insert(at, (key, kind(&value)));
        }));
    }
    out
}

/// What a read produced, comparable even with NaN inside and with
/// `HashMap`s, whose own `Debug` order varies: the `Debug` of its tree.
fn shown<T: Serialize>(read: serde_json::Result<T>) -> Option<String> {
    read.ok().map(|v| format!("{:?}", v.serialize()))
}

/// Both paths read `text` to the same value, or both fail.
fn same_read<T: Serialize + Deserialize>(text: &str) -> Result<(), TestCaseError> {
    let direct = shown(serde_json::from_str::<T>(text));
    let tree = shown(serde_json::from_str_value(text).and_then(|v| T::deserialize(&v)));
    prop_assert_eq!(direct, tree, "reading {:?}", text);
    Ok(())
}

fn check<T: Serialize + Deserialize + Debug>(x: &T, rng: &mut StdRng) -> Result<(), TestCaseError> {
    let tree = x.serialize();
    let compact = serde_json::to_string(x).ok();
    let pretty = serde_json::to_string_pretty(x).ok();
    prop_assert_eq!(
        &compact,
        &serde_json::to_string(&tree).ok(),
        "compact {:?}",
        x
    );
    prop_assert_eq!(
        &pretty,
        &serde_json::to_string_pretty(&tree).ok(),
        "pretty {:?}",
        x
    );
    let (Some(compact), Some(pretty)) = (compact, pretty) else {
        return Ok(());
    };
    let back = shown(serde_json::from_str::<T>(&compact));
    prop_assert_eq!(back, Some(format!("{tree:?}")), "round trip of {:?}", x);
    for input in inputs(&compact, &pretty, &tree, rng) {
        same_read::<T>(&input)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn direct_path_prints_and_reads_what_the_tree_does(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        check(&job(rng), rng)?;
        check(&cell_key(rng), rng)?;
        check(&every(rng), rng)?;
        let (reports, snapshots) = runs();
        check(&reports[rng.gen_range(0..reports.len())], rng)?;
        check(&snapshots[rng.gen_range(0..snapshots.len())], rng)?;
    }
}
