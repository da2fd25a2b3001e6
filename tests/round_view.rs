//! The world builds each round's `ClusterView` from its instance table
//! (`ClusterView::with_hosts`: each task handed its host's listing index,
//! no instance id looked up, and each listing the `used` and `reserved`
//! sums its row keeps), through the same snapshot a round plans on. It
//! must equal `ClusterView::of`, which derives the view from the same
//! context alone: the same instances in the same order, the same residents
//! (the very same task rows) in the same order, the same `used` and
//! `reserved`, unplaced and pending tasks, and the same answers to lookups
//! by id. Checked at every event boundary, so at every
//! state a round can plan on, for the seven scheduler configurations
//! under three fault regimes, batch and streamed.

use eva::core::{ClusterView, InstanceView};
use eva::prelude::*;
use eva::types::{InstanceId, JobId, TaskId};

/// The 32 jobs of the Table 7 mix, gang jobs among them.
fn trace(seed: u64) -> Trace {
    SyntheticTraceConfig::small_scale().generate(seed)
}

fn schedulers() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::NoPacking,
        SchedulerKind::Stratus,
        SchedulerKind::Synergy,
        SchedulerKind::Owl,
        SchedulerKind::Eva(EvaConfig::eva()),
        SchedulerKind::Eva(EvaConfig::without_partial()),
        SchedulerKind::Eva(EvaConfig::without_full()),
    ]
}

/// The same task rows, by address, in the same order.
fn same_rows(a: &[&TaskSnapshot], b: &[&TaskSnapshot]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| std::ptr::eq(*x, *y))
}

/// Where the world's view `world` differs from `ClusterView::of(ctx)`.
fn differs(ctx: &SchedulerContext<'_>, world: &ClusterView<'_>) -> Option<String> {
    let of = ClusterView::of(ctx);
    if world.instances.len() != of.instances.len() {
        return Some(format!(
            "{} instances, `of` has {}",
            world.instances.len(),
            of.instances.len()
        ));
    }
    let key = |i: &InstanceView<'_>| (i.id, i.type_id, i.ty.map(|t| t.id), i.used, i.reserved);
    for (w, o) in world.instances.iter().zip(&of.instances) {
        if key(w) != key(o) || !same_rows(world.residents(w), of.residents(o)) {
            return Some(format!("instance {} differs", w.id));
        }
        if world.slot(w.id) != of.slot(o.id) {
            return Some(format!("instance {} is found at another listing", w.id));
        }
    }
    if !same_rows(&world.unplaced, &of.unplaced) {
        return Some("unplaced tasks differ".into());
    }
    let (wp, op): (Vec<_>, Vec<_>) = (world.pending().collect(), of.pending().collect());
    if !same_rows(&wp, &op) {
        return Some("pending tasks differ".into());
    }
    for t in ctx.tasks {
        let (w, o) = (world.task(t.id), of.task(t.id));
        if !w.zip(o).is_some_and(|(w, o)| std::ptr::eq(w, o)) {
            return Some(format!("task {} is found at another row", t.id));
        }
    }
    let unknown = (InstanceId(u64::MAX), TaskId::new(JobId(u64::MAX), 0));
    if world.instance(unknown.0).is_some() || world.task(unknown.1).is_some() {
        return Some("an unknown id is found".into());
    }
    None
}

/// Steps `sim` to exhaustion, comparing the views before every event.
fn check(mut sim: ClusterSim, what: &str) {
    let mut steps = 0u64;
    loop {
        if let Some(diff) = sim.round_view(differs) {
            panic!("{what}, step {steps}: {diff}");
        }
        if !sim.step() {
            break;
        }
        steps += 1;
    }
    assert!(sim.rounds_executed() > 0, "{what}: no round ran");
}

#[test]
fn the_worlds_view_equals_the_view_of_its_context() {
    for (k, scheduler) in schedulers().into_iter().enumerate() {
        for regime in ["none", "preempt-storm:3", "straggler:2"] {
            let mut cfg = SimConfig::new(trace(k as u64 + 1), scheduler.clone());
            cfg.faults = FaultSpec::parse(regime).expect("valid regime");
            let what = format!("{scheduler:?} under {regime}");
            check(ClusterSim::new(&cfg), &format!("batch {what}"));
            let source = Box::new(TraceSource::new(cfg.trace.clone()));
            check(
                ClusterSim::from_source(&cfg, source),
                &format!("streamed {what}"),
            );
        }
    }
}

#[test]
fn tasks_declared_out_of_index_order_keep_the_views_equal() {
    // Every job declares its tasks in reverse. The world's door puts each
    // job's tasks back in index order, and the views must still agree.
    let mut jobs = trace(9).jobs().to_vec();
    jobs.iter_mut().for_each(|job| job.tasks.reverse());
    let trace = Trace::new(jobs);
    assert!(
        trace.jobs().iter().any(|j| j.tasks.len() > 1),
        "no gang job"
    );
    for scheduler in [SchedulerKind::Stratus, SchedulerKind::Eva(EvaConfig::eva())] {
        let cfg = SimConfig::new(trace.clone(), scheduler.clone());
        check(
            ClusterSim::new(&cfg),
            &format!("reversed tasks, {scheduler:?}"),
        );
    }
}
