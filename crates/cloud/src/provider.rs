//! The simulated cloud provider: instance lifecycle and billing.
//!
//! An instance moves through `Acquiring → SettingUp → Running → Terminated`.
//! Billing is per-second (EC2 Linux semantics) and starts the moment
//! acquisition completes — i.e. setup time is *billed but unusable*, which
//! is exactly the "provisioned but idle" waste the paper charges against
//! reconfiguration (§2.3).

use std::collections::BTreeMap;

use rand::Rng;

use eva_types::{Cost, EvaError, InstanceId, InstanceTypeId, Result, SimDuration, SimTime};

use crate::catalog::Catalog;
use crate::delays::{DelayModel, DelaySample};

/// Lifecycle state of a provisioned instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// The cloud is still acquiring capacity; not yet billed.
    Acquiring,
    /// Acquired and billed, but still installing images / mounting storage.
    SettingUp,
    /// Ready to run tasks.
    Running,
    /// Terminated; billing stopped.
    Terminated,
}

/// A provisioned cloud instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Unique id.
    pub id: InstanceId,
    /// Catalog type.
    pub type_id: InstanceTypeId,
    /// When the provision request was issued.
    pub requested_at: SimTime,
    /// When acquisition completes (billing starts).
    pub billed_from: SimTime,
    /// When setup completes (instance usable).
    pub ready_at: SimTime,
    /// Termination time, if terminated.
    pub terminated_at: Option<SimTime>,
}

impl Instance {
    /// The lifecycle state at time `now`.
    pub fn state(&self, now: SimTime) -> InstanceState {
        if let Some(t) = self.terminated_at {
            if now >= t {
                return InstanceState::Terminated;
            }
        }
        if now < self.billed_from {
            InstanceState::Acquiring
        } else if now < self.ready_at {
            InstanceState::SettingUp
        } else {
            InstanceState::Running
        }
    }

    /// Billed uptime accumulated by `now`.
    pub fn uptime(&self, now: SimTime) -> SimDuration {
        let end = match self.terminated_at {
            Some(t) if t < now => t,
            _ => now,
        };
        end.duration_since(self.billed_from)
    }
}

/// A provisioning request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvisionRequest {
    /// The type to provision.
    pub type_id: InstanceTypeId,
    /// When the request is issued.
    pub at: SimTime,
}

/// The simulated cloud: owns the catalog, delay model, and all
/// instances ever provisioned, and computes the total bill.
///
/// # Examples
///
/// ```
/// use eva_cloud::{Catalog, CloudProvider, DelayModel, FidelityMode, ProvisionRequest};
/// use eva_types::SimTime;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let catalog = Catalog::aws_eval_2025();
/// let ty = catalog.by_name("c7i.xlarge").unwrap().id;
/// let mut cloud = CloudProvider::new(catalog, DelayModel::table1(FidelityMode::Nominal));
/// let mut rng = StdRng::seed_from_u64(0);
///
/// let id = cloud
///     .provision(ProvisionRequest { type_id: ty, at: SimTime::ZERO }, &mut rng)
///     .unwrap();
/// let ready = cloud.instance(id).unwrap().ready_at;
/// assert_eq!(ready.duration_since(SimTime::ZERO).as_secs(), 19 + 190);
/// ```
#[derive(Debug, Clone)]
pub struct CloudProvider {
    catalog: Catalog,
    delays: DelayModel,
    instances: BTreeMap<InstanceId, Instance>,
    next_id: u64,
    launches: u64,
    /// Provider-wide cap on concurrently live instances (`None` =
    /// unlimited). Fault injection uses this to model capacity shocks;
    /// existing instances survive a cap below the current live count —
    /// only *new* provisions are rejected until capacity frees up.
    pool_limit: Option<u64>,
    /// Dynamic price multipliers: `(from, factor)` steps sorted by time,
    /// each factor applying from its instant until the next step. Empty =
    /// static catalog prices (the exact historical billing path).
    price_steps: Vec<(SimTime, f64)>,
    /// Frozen `(id, billed uptime hours)` of retired instances, in
    /// retirement order (see [`CloudProvider::retire_instance`]).
    retired_uptimes: Vec<(InstanceId, f64)>,
    /// Total bill of retired instances. Exact micro-dollar integers sum
    /// order-free, so a running total loses nothing.
    retired_bill: Cost,
    /// Latest termination time among retired instances.
    retired_end: Option<SimTime>,
}

impl CloudProvider {
    /// Builds a provider over a catalog.
    pub fn new(catalog: Catalog, delays: DelayModel) -> Self {
        CloudProvider {
            catalog,
            delays,
            instances: BTreeMap::new(),
            next_id: 0,
            launches: 0,
            pool_limit: None,
            price_steps: Vec::new(),
            retired_uptimes: Vec::new(),
            retired_bill: Cost::ZERO,
            retired_end: None,
        }
    }

    /// Caps (or uncaps) the number of concurrently live instances.
    pub fn set_pool_limit(&mut self, limit: Option<u64>) {
        self.pool_limit = limit;
    }

    /// The current pool cap, if any.
    pub fn pool_limit(&self) -> Option<u64> {
        self.pool_limit
    }

    /// Number of instances alive (not terminated) at `now`.
    pub fn live_count(&self, now: SimTime) -> u64 {
        self.live_instances(now).count() as u64
    }

    /// Free pool capacity under the current cap at `now`, `None` when
    /// uncapped. Saturating: a cap imposed *below* the live count (a
    /// capacity shock hitting a full pool) reports zero, never underflows.
    pub fn free_capacity(&self, now: SimTime) -> Option<u64> {
        self.pool_limit
            .map(|limit| limit.saturating_sub(self.live_count(now)))
    }

    /// Installs a dynamic price schedule: `(from, factor)` steps, each
    /// multiplying every catalog hourly rate from its instant until the
    /// next step. An empty schedule restores static catalog pricing.
    pub fn set_price_schedule(&mut self, mut steps: Vec<(SimTime, f64)>) {
        steps.retain(|(_, f)| f.is_finite() && *f >= 0.0);
        steps.sort_by_key(|(at, _)| *at);
        self.price_steps = steps;
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Total instances ever launched (Table 10's "Instances Launched").
    pub fn launch_count(&self) -> u64 {
        self.launches
    }

    /// Provisions a new instance, sampling its acquisition and setup
    /// delays. Fails only on an unknown type or a full pool.
    pub fn provision<R: Rng + ?Sized>(
        &mut self,
        req: ProvisionRequest,
        rng: &mut R,
    ) -> Result<InstanceId> {
        let ty = self
            .catalog
            .get(req.type_id)
            .ok_or(EvaError::UnknownInstanceType(req.type_id))?
            .id;
        if self.free_capacity(req.at) == Some(0) {
            return Err(EvaError::ProvisioningFailed {
                instance_type: ty,
                reason: format!(
                    "provider pool at capacity ({} live / limit {})",
                    self.live_count(req.at),
                    self.pool_limit.unwrap_or(0)
                ),
            });
        }
        let DelaySample { acquisition, setup } = self.delays.sample(rng);
        let id = InstanceId(self.next_id);
        self.next_id += 1;
        self.launches += 1;
        let billed_from = req.at + acquisition;
        self.instances.insert(
            id,
            Instance {
                id,
                type_id: ty,
                requested_at: req.at,
                billed_from,
                ready_at: billed_from + setup,
                terminated_at: None,
            },
        );
        Ok(id)
    }

    /// Terminates an instance at `at`. Idempotent for already-terminated
    /// instances (keeps the earlier termination time).
    pub fn terminate(&mut self, id: InstanceId, at: SimTime) -> Result<()> {
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(EvaError::UnknownInstance(id))?;
        if inst.terminated_at.is_none() {
            inst.terminated_at = Some(at.max(inst.requested_at));
        }
        Ok(())
    }

    /// Looks up an instance.
    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.get(&id)
    }

    /// Iterates over every instance record still held — all instances
    /// ever provisioned, minus any whose record was folded away by
    /// [`CloudProvider::retire_instance`].
    pub fn instances(&self) -> impl Iterator<Item = &Instance> {
        self.instances.values()
    }

    /// Instances alive (not terminated) at `now`, in id order. Walks every
    /// record held — O(ever launched) unless
    /// [`CloudProvider::retire_instance`] dropped them — so it is the
    /// definition audits and final reports read, not a per-round listing:
    /// `eva_sim::ClusterSim` keeps its own instance table and its
    /// `audit_slots` checks that table against this scan.
    pub fn live_instances(&self, now: SimTime) -> impl Iterator<Item = &Instance> {
        self.instances
            .values()
            .filter(move |i| i.state(now) != InstanceState::Terminated)
    }

    /// The bill for one instance up to `now`: per-second billing of uptime.
    fn instance_bill(&self, id: InstanceId, now: SimTime) -> Result<Cost> {
        let inst = self
            .instances
            .get(&id)
            .ok_or(EvaError::UnknownInstance(id))?;
        let ty = self
            .catalog
            .get(inst.type_id)
            .ok_or(EvaError::UnknownInstanceType(inst.type_id))?;
        if self.price_steps.is_empty() {
            return Ok(ty.hourly_cost.for_hours(inst.uptime(now).as_hours_f64()));
        }
        // Dynamic pricing: integrate the step function over the billed
        // window, each segment at its prevailing multiplier.
        let hourly = ty.hourly_cost.as_dollars();
        let start = inst.billed_from;
        let end = match inst.terminated_at {
            Some(t) if t < now => t,
            _ => now,
        };
        let mut dollars = 0.0;
        let mut cursor = start;
        let mut factor = 1.0;
        for (at, f) in &self.price_steps {
            if *at <= cursor {
                factor = *f;
                continue;
            }
            if *at >= end {
                break;
            }
            dollars += hourly * factor * at.duration_since(cursor).as_hours_f64();
            cursor = *at;
            factor = *f;
        }
        dollars += hourly * factor * end.duration_since(cursor).as_hours_f64();
        Ok(Cost::from_dollars(dollars))
    }

    /// The total bill across all instances up to `now` — the paper's
    /// primary "Total Cost" metric. Retired instances contribute their
    /// frozen bill.
    pub fn total_bill(&self, now: SimTime) -> Cost {
        self.retired_bill
            + self
                .instances
                .keys()
                .map(|id| self.instance_bill(*id, now).unwrap_or(Cost::ZERO))
                .sum()
    }

    /// Drops a *terminated* instance's record, folding its billed
    /// uptime and bill into frozen accumulators first. Returns whether
    /// a record was retired (`false` for unknown or still-live ids).
    ///
    /// A terminated instance's uptime and bill are independent of the
    /// observation time once it is in the past — `uptime(now)` and
    /// each instance's bill both clamp to `terminated_at` —
    /// so folding at retirement is bit-identical to folding at the end
    /// of the run. Long-lived service worlds retire records as
    /// terminations pass to keep provider memory proportional to the
    /// live fleet, not the fleet-ever-launched.
    pub fn retire_instance(&mut self, id: InstanceId) -> bool {
        let Some(t) = self.instances.get(&id).and_then(|i| i.terminated_at) else {
            return false;
        };
        let bill = self.instance_bill(id, t).unwrap_or(Cost::ZERO);
        let inst = self.instances.remove(&id).expect("checked above");
        self.retired_uptimes
            .push((id, inst.uptime(t).as_hours_f64()));
        self.retired_bill += bill;
        self.retired_end = Some(self.retired_end.map_or(t, |e| e.max(t)));
        true
    }

    /// Latest termination time across all instances ever provisioned,
    /// retired records included — the report's billing horizon.
    pub fn max_terminated_at(&self) -> Option<SimTime> {
        let held = self
            .instances
            .values()
            .filter_map(|i| i.terminated_at)
            .max();
        match (held, self.retired_end) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// `(id, billed uptime hours)` for every instance ever provisioned
    /// — retired records included — in ascending id order, the exact
    /// sequence the report's `billed_hours` fold and uptime CDF have
    /// always consumed.
    pub fn uptime_rows(&self, end: SimTime) -> Vec<(InstanceId, f64)> {
        let mut rows: Vec<(InstanceId, f64)> = self
            .instances
            .values()
            .map(|i| (i.id, i.uptime(end).as_hours_f64()))
            .collect();
        rows.extend_from_slice(&self.retired_uptimes);
        rows.sort_by_key(|&(id, _)| id);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delays::FidelityMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nominal_cloud() -> (CloudProvider, StdRng) {
        (
            CloudProvider::new(
                Catalog::aws_eval_2025(),
                DelayModel::table1(FidelityMode::Nominal),
            ),
            StdRng::seed_from_u64(7),
        )
    }

    #[test]
    fn lifecycle_states_progress() {
        let (mut cloud, mut rng) = nominal_cloud();
        let ty = cloud.catalog().by_name("p3.2xlarge").unwrap().id;
        let id = cloud
            .provision(
                ProvisionRequest {
                    type_id: ty,
                    at: SimTime::from_secs(100),
                },
                &mut rng,
            )
            .unwrap();
        let inst = cloud.instance(id).unwrap().clone();
        assert_eq!(
            inst.state(SimTime::from_secs(100)),
            InstanceState::Acquiring
        );
        assert_eq!(
            inst.state(SimTime::from_secs(118)),
            InstanceState::Acquiring
        );
        assert_eq!(
            inst.state(SimTime::from_secs(119)),
            InstanceState::SettingUp
        );
        assert_eq!(
            inst.state(SimTime::from_secs(308)),
            InstanceState::SettingUp
        );
        assert_eq!(inst.state(SimTime::from_secs(309)), InstanceState::Running);
        cloud.terminate(id, SimTime::from_secs(400)).unwrap();
        let inst = cloud.instance(id).unwrap();
        assert_eq!(
            inst.state(SimTime::from_secs(400)),
            InstanceState::Terminated
        );
    }

    #[test]
    fn billing_starts_at_acquisition_not_request() {
        let (mut cloud, mut rng) = nominal_cloud();
        let ty = cloud.catalog().by_name("p3.2xlarge").unwrap().id;
        let id = cloud
            .provision(
                ProvisionRequest {
                    type_id: ty,
                    at: SimTime::ZERO,
                },
                &mut rng,
            )
            .unwrap();
        // One hour after billing starts (19s acquisition).
        let now = SimTime::from_secs(19 + 3600);
        let bill = cloud.instance_bill(id, now).unwrap();
        assert_eq!(bill, Cost::from_dollars(3.06));
    }

    #[test]
    fn billing_stops_at_termination() {
        let (mut cloud, mut rng) = nominal_cloud();
        let ty = cloud.catalog().by_name("c7i.2xlarge").unwrap().id;
        let id = cloud
            .provision(
                ProvisionRequest {
                    type_id: ty,
                    at: SimTime::ZERO,
                },
                &mut rng,
            )
            .unwrap();
        cloud.terminate(id, SimTime::from_secs(19 + 1800)).unwrap();
        // Much later, the bill is still half an hour.
        let bill = cloud
            .instance_bill(id, SimTime::from_hours_f64(100.0))
            .unwrap();
        assert_eq!(bill, Cost::from_dollars(0.357 / 2.0));
        // Terminating again keeps the original time.
        cloud.terminate(id, SimTime::from_hours_f64(50.0)).unwrap();
        let bill2 = cloud
            .instance_bill(id, SimTime::from_hours_f64(100.0))
            .unwrap();
        assert_eq!(bill, bill2);
    }

    #[test]
    fn total_bill_sums_instances() {
        let (mut cloud, mut rng) = nominal_cloud();
        let a = cloud.catalog().by_name("c7i.large").unwrap().id;
        let b = cloud.catalog().by_name("r7i.large").unwrap().id;
        for ty in [a, b] {
            cloud
                .provision(
                    ProvisionRequest {
                        type_id: ty,
                        at: SimTime::ZERO,
                    },
                    &mut rng,
                )
                .unwrap();
        }
        let now = SimTime::from_secs(19 + 3600);
        let total = cloud.total_bill(now);
        assert_eq!(total, Cost::from_dollars(0.08925 + 0.1323));
        assert_eq!(cloud.launch_count(), 2);
    }

    #[test]
    fn retiring_records_is_invisible_to_the_report_views() {
        // Two providers walk the same lifecycle; one retires records as
        // terminations land. Every report-facing view must agree bit
        // for bit, including under a dynamic price schedule.
        let (mut keep, mut rng_a) = nominal_cloud();
        let (mut prune, mut rng_b) = nominal_cloud();
        let steps = vec![(SimTime::from_secs(1800), 2.0)];
        keep.set_price_schedule(steps.clone());
        prune.set_price_schedule(steps);
        let ty = keep.catalog().by_name("c7i.large").unwrap().id;
        let mut ids = Vec::new();
        for k in 0..4u64 {
            let req = ProvisionRequest {
                type_id: ty,
                at: SimTime::from_secs(600 * k),
            };
            let a = keep.provision(req, &mut rng_a).unwrap();
            let b = prune.provision(req, &mut rng_b).unwrap();
            assert_eq!(a, b);
            ids.push(a);
        }
        // Terminate out of id order; retire as each termination lands.
        for &pos in &[3usize, 1, 2] {
            let at = SimTime::from_secs(2000 + 700 * pos as u64);
            keep.terminate(ids[pos], at).unwrap();
            prune.terminate(ids[pos], at).unwrap();
            assert!(prune.retire_instance(ids[pos]));
        }
        // ids[0] stays live; retiring a live record is refused.
        assert!(!prune.retire_instance(ids[0]));
        let end = SimTime::from_secs(9000);
        keep.terminate(ids[0], end).unwrap();
        prune.terminate(ids[0], end).unwrap();
        assert_eq!(keep.total_bill(end), prune.total_bill(end));
        assert_eq!(keep.max_terminated_at(), prune.max_terminated_at());
        assert_eq!(keep.uptime_rows(end), prune.uptime_rows(end));
        assert_eq!(keep.launch_count(), prune.launch_count());
        assert_eq!(prune.instances().count(), 1);
        assert_eq!(keep.instances().count(), 4);
    }

    #[test]
    fn unknown_type_is_rejected() {
        let (mut cloud, mut rng) = nominal_cloud();
        let err = cloud
            .provision(
                ProvisionRequest {
                    type_id: InstanceTypeId(99),
                    at: SimTime::ZERO,
                },
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, EvaError::UnknownInstanceType(_)));
    }

    #[test]
    fn live_instances_excludes_terminated() {
        let (mut cloud, mut rng) = nominal_cloud();
        let ty = cloud.catalog().by_name("c7i.large").unwrap().id;
        let a = cloud
            .provision(
                ProvisionRequest {
                    type_id: ty,
                    at: SimTime::ZERO,
                },
                &mut rng,
            )
            .unwrap();
        let _b = cloud
            .provision(
                ProvisionRequest {
                    type_id: ty,
                    at: SimTime::ZERO,
                },
                &mut rng,
            )
            .unwrap();
        cloud.terminate(a, SimTime::from_secs(500)).unwrap();
        let live: Vec<_> = cloud.live_instances(SimTime::from_secs(1000)).collect();
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn pool_limit_rejects_at_capacity_and_frees_on_terminate() {
        let (mut cloud, mut rng) = nominal_cloud();
        let ty = cloud.catalog().by_name("c7i.large").unwrap().id;
        cloud.set_pool_limit(Some(2));
        let req = |at| ProvisionRequest { type_id: ty, at };
        let a = cloud.provision(req(SimTime::ZERO), &mut rng).unwrap();
        let _b = cloud.provision(req(SimTime::ZERO), &mut rng).unwrap();
        assert_eq!(cloud.free_capacity(SimTime::ZERO), Some(0));
        let err = cloud
            .provision(req(SimTime::from_secs(10)), &mut rng)
            .unwrap_err();
        assert!(matches!(err, EvaError::ProvisioningFailed { .. }));
        // Termination frees a slot.
        cloud.terminate(a, SimTime::from_secs(100)).unwrap();
        assert_eq!(cloud.free_capacity(SimTime::from_secs(100)), Some(1));
        assert!(cloud
            .provision(req(SimTime::from_secs(100)), &mut rng)
            .is_ok());
    }

    #[test]
    fn capacity_shock_below_live_count_saturates_at_zero() {
        let (mut cloud, mut rng) = nominal_cloud();
        let ty = cloud.catalog().by_name("c7i.large").unwrap().id;
        for _ in 0..3 {
            cloud
                .provision(
                    ProvisionRequest {
                        type_id: ty,
                        at: SimTime::ZERO,
                    },
                    &mut rng,
                )
                .unwrap();
        }
        // A shock caps the pool below what is already live: free capacity
        // must clamp to zero (never underflow) and the survivors live on.
        cloud.set_pool_limit(Some(1));
        assert_eq!(cloud.free_capacity(SimTime::ZERO), Some(0));
        assert_eq!(cloud.live_count(SimTime::ZERO), 3);
        assert_eq!(cloud.free_capacity(SimTime::ZERO).unwrap(), 0u64);
        // Lifting the cap restores unlimited provisioning.
        cloud.set_pool_limit(None);
        assert_eq!(cloud.free_capacity(SimTime::ZERO), None);
    }

    #[test]
    fn price_steps_segment_the_bill() {
        let (mut cloud, mut rng) = nominal_cloud();
        let ty = cloud.catalog().by_name("p3.2xlarge").unwrap().id;
        let id = cloud
            .provision(
                ProvisionRequest {
                    type_id: ty,
                    at: SimTime::ZERO,
                },
                &mut rng,
            )
            .unwrap();
        let billed_from = cloud.instance(id).unwrap().billed_from;
        // Double the price one hour into billing.
        cloud.set_price_schedule(vec![(billed_from + SimDuration::from_hours_f64(1.0), 2.0)]);
        let now = billed_from + SimDuration::from_hours_f64(2.0);
        let bill = cloud.instance_bill(id, now).unwrap();
        // 1 h at $3.06 + 1 h at $6.12.
        assert!((bill.as_dollars() - (3.06 + 6.12)).abs() < 1e-9, "{bill:?}");
        // An empty schedule restores the exact static-price path.
        cloud.set_price_schedule(Vec::new());
        assert_eq!(
            cloud.instance_bill(id, now).unwrap(),
            Cost::from_dollars(2.0 * 3.06)
        );
    }

    #[test]
    fn uptime_of_acquiring_instance_is_zero() {
        let (mut cloud, mut rng) = nominal_cloud();
        let ty = cloud.catalog().by_name("c7i.large").unwrap().id;
        let id = cloud
            .provision(
                ProvisionRequest {
                    type_id: ty,
                    at: SimTime::from_secs(50),
                },
                &mut rng,
            )
            .unwrap();
        let inst = cloud.instance(id).unwrap();
        assert_eq!(inst.uptime(SimTime::from_secs(60)), SimDuration::ZERO);
    }
}
