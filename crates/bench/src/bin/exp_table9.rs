//! Table 9: job-duration model quantiles.

use eva_workloads::{AlibabaDurations, DurationSampler, GavelDurations};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn row(name: &str, hours: &mut [f64], paper: [f64; 4]) {
    hours.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| hours[((hours.len() - 1) as f64 * p).round() as usize];
    let mean = hours.iter().sum::<f64>() / hours.len() as f64;
    println!(
        "{name:<10} mean {mean:>6.1}h (paper {:>5.1})  median {:>5.1} ({:>4.1})  P80 {:>5.1} ({:>4.1})  P95 {:>5.1} ({:>5.1})",
        paper[0],
        q(0.5),
        paper[1],
        q(0.8),
        paper[2],
        q(0.95),
        paper[3]
    );
}

fn main() {
    eva_bench::parse_flags();
    println!("== Table 9: job duration models ==");
    let n = 200_000;
    let mut rng = StdRng::seed_from_u64(9);
    let alibaba = AlibabaDurations::default();
    let mut a: Vec<f64> = (0..n)
        .map(|_| alibaba.sample(&mut rng).as_hours_f64())
        .collect();
    row("Alibaba", &mut a, [9.1, 0.2, 1.0, 5.2]);
    let mut g: Vec<f64> = (0..n)
        .map(|_| GavelDurations.sample(&mut rng).as_hours_f64())
        .collect();
    row("Gavel", &mut g, [16.7, 4.5, 16.4, 96.6]);
}
