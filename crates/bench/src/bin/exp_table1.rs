//! Table 1: reconfiguration delays.
//!
//! Samples 126 instance provisionings from the Table 1 delay model and 120
//! job migrations from the Table 7 workloads, then prints range/average per
//! delay type — the same rows as the paper's Table 1.

use eva_cloud::{DelayModel, FidelityMode};
use eva_workloads::WorkloadCatalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn stats(label: &str, secs: &[f64]) {
    let min = secs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = secs.iter().cloned().fold(0.0f64, f64::max);
    let mean = secs.iter().sum::<f64>() / secs.len() as f64;
    println!("{label:<22} {min:>5.0} – {max:<5.0}  avg {mean:>5.0} s");
}

fn main() {
    eva_bench::parse_flags();
    println!("== Table 1: reconfiguration delays ==");
    let model = DelayModel::table1(FidelityMode::Stochastic);
    let mut rng = StdRng::seed_from_u64(1);
    let mut acq = Vec::new();
    let mut setup = Vec::new();
    for _ in 0..126 {
        let s = model.sample(&mut rng);
        acq.push(s.acquisition.as_secs_f64());
        setup.push(s.setup.as_secs_f64());
    }
    stats("Instance Acquisition", &acq);
    stats("Instance Setup", &setup);

    let catalog = WorkloadCatalog::table7();
    let workloads: Vec<_> = catalog.iter().collect();
    let mut ckpt = Vec::new();
    let mut launch = Vec::new();
    for _ in 0..120 {
        let w = workloads[rng.gen_range(0..workloads.len())];
        ckpt.push(w.checkpoint_delay.as_secs_f64());
        launch.push(w.launch_delay.as_secs_f64());
    }
    stats("Job Checkpointing", &ckpt);
    stats("Job Launching", &launch);
}
