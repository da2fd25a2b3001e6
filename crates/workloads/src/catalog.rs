//! The Table 7 workload catalog.
//!
//! Ten batch-processing workloads spanning ML training, bioinformatics, and
//! computational fluid dynamics, with per-task demands, per-family CPU
//! overrides (CPU jobs need fewer of the faster C7i/R7i cores), and the
//! measured checkpoint/launch delays that drive migration overhead.

use eva_types::{
    DemandSpec, JobId, JobSpec, ResourceVector, SimDuration, SimTime, TaskId, TaskSpec,
    WorkloadKind,
};

/// Static description of one workload (a row of Table 7).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadInfo {
    /// Stable kind id within [`WorkloadCatalog::table7`].
    pub kind: WorkloadKind,
    /// Short name, e.g. `"GPT2"`.
    pub name: &'static str,
    /// Application domain, e.g. `"ML – Language Modeling"`.
    pub domain: &'static str,
    /// Per-task resource demand (with per-family overrides).
    pub demand: DemandSpec,
    /// Number of tasks per job.
    pub num_tasks: u32,
    /// Whether tasks are performance-interdependent (data-parallel, §4.4).
    pub gang_coupled: bool,
    /// Checkpoint delay (Table 7 "Mig. Delay – Checkpoint").
    pub checkpoint_delay: SimDuration,
    /// Launch delay (Table 7 "Mig. Delay – Launch").
    pub launch_delay: SimDuration,
    /// Row/column index into the Figure 1 interference matrix. ViT reuses
    /// the ResNet18 index (documented substitution — Figure 1 omits ViT).
    pub fig1_index: usize,
}

impl WorkloadInfo {
    /// True when the workload needs at least one GPU on P3 instances.
    pub fn is_gpu(&self) -> bool {
        self.demand.default.gpu > 0
    }

    /// Builds the `TaskSpec` for task `index` of job `job`.
    pub fn task_spec(&self, job: JobId, index: u32) -> TaskSpec {
        TaskSpec {
            id: TaskId::new(job, index),
            workload: self.kind,
            demand: self.demand,
            checkpoint_delay: self.checkpoint_delay,
            launch_delay: self.launch_delay,
        }
    }

    /// Builds a complete `JobSpec` of this workload.
    pub fn job_spec(&self, job: JobId, arrival: SimTime, duration: SimDuration) -> JobSpec {
        let tasks = (0..self.num_tasks)
            .map(|i| self.task_spec(job, i))
            .collect();
        JobSpec {
            id: job,
            arrival,
            tasks,
            duration_at_full_tput: duration,
            gang_coupled: self.gang_coupled,
        }
    }
}

/// The full workload catalog.
///
/// # Examples
///
/// ```
/// use eva_workloads::WorkloadCatalog;
///
/// let cat = WorkloadCatalog::table7();
/// assert_eq!(cat.len(), 10);
/// let gpt2 = cat.by_name("GPT2").unwrap();
/// assert_eq!(gpt2.demand.default.gpu, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadCatalog {
    workloads: Vec<WorkloadInfo>,
}

/// Figure 1 matrix indices (order of the figure's axes).
pub mod fig1 {
    /// ResNet18 row/column.
    pub const RESNET18: usize = 0;
    /// GraphSAGE row/column.
    pub const GRAPHSAGE: usize = 1;
    /// CycleGAN row/column.
    pub const CYCLEGAN: usize = 2;
    /// GPT2 row/column.
    pub const GPT2: usize = 3;
    /// GCN row/column.
    pub const GCN: usize = 4;
    /// OpenFOAM row/column.
    pub const OPENFOAM: usize = 5;
    /// Diamond row/column.
    pub const DIAMOND: usize = 6;
    /// A3C row/column.
    pub const A3C: usize = 7;
}

impl WorkloadCatalog {
    /// The ten workloads of Table 7, in table order.
    pub fn table7() -> Self {
        let gb = |g: u64| g * 1024;
        let uniform = |g, c, ram_gb| DemandSpec::uniform(ResourceVector::new(g, c, gb(ram_gb)));
        // CPU workloads with parenthesized demands need fewer of the
        // higher-frequency C7i/R7i cores.
        let cpu_split = |p3_cpu, fast_cpu, ram_gb| {
            DemandSpec::uniform(ResourceVector::new(0, p3_cpu, gb(ram_gb)))
                .with_family_override("c7i", ResourceVector::new(0, fast_cpu, gb(ram_gb)))
                .with_family_override("r7i", ResourceVector::new(0, fast_cpu, gb(ram_gb)))
        };
        let secs = SimDuration::from_secs;
        let mut workloads = Vec::new();
        let mut push = |name,
                        domain,
                        demand,
                        num_tasks,
                        gang_coupled,
                        ckpt_s: u64,
                        launch_s: u64,
                        fig1_index| {
            let kind = WorkloadKind(workloads.len() as u32);
            workloads.push(WorkloadInfo {
                kind,
                name,
                domain,
                demand,
                num_tasks,
                gang_coupled,
                checkpoint_delay: secs(ckpt_s),
                launch_delay: secs(launch_s),
                fig1_index,
            });
        };
        push(
            "ResNet18-2",
            "ML – Image Classification",
            uniform(1, 4, 24),
            2,
            true,
            2,
            80,
            fig1::RESNET18,
        );
        push(
            "ResNet18-4",
            "ML – Image Classification",
            uniform(1, 4, 24),
            4,
            true,
            2,
            80,
            fig1::RESNET18,
        );
        push(
            "ViT",
            "ML – Image Classification",
            uniform(2, 8, 60),
            1,
            false,
            3,
            143,
            fig1::RESNET18,
        );
        push(
            "CycleGAN",
            "ML – I2I Translation",
            uniform(1, 4, 10),
            1,
            false,
            7,
            2,
            fig1::CYCLEGAN,
        );
        push(
            "GPT2",
            "ML – Language Modeling",
            uniform(4, 4, 10),
            1,
            false,
            30,
            15,
            fig1::GPT2,
        );
        push(
            "GraphSAGE",
            "ML – Graph Embedding",
            uniform(1, 8, 50),
            1,
            false,
            2,
            160,
            fig1::GRAPHSAGE,
        );
        push(
            "GCN",
            "ML – Graph Embedding",
            cpu_split(12, 6, 40),
            1,
            false,
            2,
            28,
            fig1::GCN,
        );
        push(
            "A3C",
            "ML – RL",
            cpu_split(10, 4, 8),
            1,
            false,
            2,
            10,
            fig1::A3C,
        );
        push(
            "Diamond",
            "BioInfo – Sequence Alignment",
            cpu_split(14, 8, 16),
            1,
            false,
            8,
            12,
            fig1::DIAMOND,
        );
        push(
            "OpenFOAM",
            "Physics – CFD",
            cpu_split(8, 6, 8),
            1,
            false,
            21,
            1,
            fig1::OPENFOAM,
        );
        WorkloadCatalog { workloads }
    }

    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }

    /// Iterates over the workloads in table order.
    pub fn iter(&self) -> impl Iterator<Item = &WorkloadInfo> {
        self.workloads.iter()
    }

    /// Looks a workload up by kind.
    pub fn get(&self, kind: WorkloadKind) -> Option<&WorkloadInfo> {
        self.workloads
            .get(kind.0 as usize)
            .filter(|w| w.kind == kind)
    }

    /// Looks a workload up by name.
    pub fn by_name(&self, name: &str) -> Option<&WorkloadInfo> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// GPU workloads only.
    pub fn gpu_workloads(&self) -> Vec<&WorkloadInfo> {
        self.workloads.iter().filter(|w| w.is_gpu()).collect()
    }

    /// CPU-only workloads.
    pub fn cpu_workloads(&self) -> Vec<&WorkloadInfo> {
        self.workloads.iter().filter(|w| !w.is_gpu()).collect()
    }

    /// Single-task workloads (used where the trace treats every job as a
    /// single-task job, §6.1).
    pub fn single_task_workloads(&self) -> Vec<&WorkloadInfo> {
        self.workloads.iter().filter(|w| w.num_tasks == 1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_has_ten_workloads() {
        let cat = WorkloadCatalog::table7();
        assert_eq!(cat.len(), 10);
        assert_eq!(cat.gpu_workloads().len(), 6);
        assert_eq!(cat.cpu_workloads().len(), 4);
    }

    #[test]
    fn demands_match_table7() {
        let cat = WorkloadCatalog::table7();
        let check = |name: &str, gpu: u32, cpu: u32, ram_gb: u64| {
            let w = cat.by_name(name).unwrap();
            assert_eq!(
                w.demand.default,
                ResourceVector::with_ram_gb(gpu, cpu, ram_gb),
                "{name}"
            );
        };
        check("ResNet18-2", 1, 4, 24);
        check("ViT", 2, 8, 60);
        check("CycleGAN", 1, 4, 10);
        check("GPT2", 4, 4, 10);
        check("GraphSAGE", 1, 8, 50);
        check("GCN", 0, 12, 40);
        check("A3C", 0, 10, 8);
        check("Diamond", 0, 14, 16);
        check("OpenFOAM", 0, 8, 8);
    }

    #[test]
    fn cpu_workloads_have_family_overrides() {
        let cat = WorkloadCatalog::table7();
        let expect = [("GCN", 6u32), ("A3C", 4), ("Diamond", 8), ("OpenFOAM", 6)];
        for (name, fast_cpu) in expect {
            let w = cat.by_name(name).unwrap();
            assert_eq!(w.demand.for_family("c7i").cpu, fast_cpu, "{name}");
            assert_eq!(w.demand.for_family("r7i").cpu, fast_cpu, "{name}");
            assert_ne!(w.demand.for_family("p3").cpu, fast_cpu, "{name}");
        }
    }

    #[test]
    fn migration_delays_match_table7() {
        let cat = WorkloadCatalog::table7();
        let gpt2 = cat.by_name("GPT2").unwrap();
        assert_eq!(gpt2.checkpoint_delay, SimDuration::from_secs(30));
        assert_eq!(gpt2.launch_delay, SimDuration::from_secs(15));
        let foam = cat.by_name("OpenFOAM").unwrap();
        assert_eq!(foam.checkpoint_delay, SimDuration::from_secs(21));
        assert_eq!(foam.launch_delay, SimDuration::from_secs(1));
    }

    #[test]
    fn only_resnet_jobs_are_multi_task() {
        let cat = WorkloadCatalog::table7();
        for w in cat.iter() {
            let multi = w.name.starts_with("ResNet18");
            assert_eq!(w.num_tasks > 1, multi, "{}", w.name);
            assert_eq!(w.gang_coupled, multi, "{}", w.name);
        }
        assert_eq!(cat.by_name("ResNet18-4").unwrap().num_tasks, 4);
        assert_eq!(cat.single_task_workloads().len(), 8);
    }

    #[test]
    fn job_spec_expands_tasks() {
        let cat = WorkloadCatalog::table7();
        let w = cat.by_name("ResNet18-4").unwrap();
        let job = w.job_spec(JobId(3), SimTime::ZERO, SimDuration::from_hours(2));
        assert_eq!(job.num_tasks(), 4);
        assert!(job.gang_coupled);
        for (i, t) in job.tasks.iter().enumerate() {
            assert_eq!(t.id, TaskId::new(JobId(3), i as u32));
            assert_eq!(t.workload, w.kind);
        }
    }

    #[test]
    fn kind_lookup_round_trips() {
        let cat = WorkloadCatalog::table7();
        for w in cat.iter() {
            assert_eq!(cat.get(w.kind).unwrap().name, w.name);
        }
        assert!(cat.get(WorkloadKind(99)).is_none());
    }

    #[test]
    fn vit_substitutes_resnet_interference_index() {
        let cat = WorkloadCatalog::table7();
        assert_eq!(cat.by_name("ViT").unwrap().fig1_index, fig1::RESNET18);
    }
}
