//! A fleet of simulated dies behind one serving front door.
//!
//! Each die wraps its own [`Supervisor`] — private aging clock,
//! health monitor, recovery ladder, telemetry — behind a mutex, plus
//! two lock-free caches the router reads on the hot path: the latched
//! health tier and a served-samples counter. Routing is
//! abstention-aware: [`DieFleet::pick`] returns the healthiest
//! least-loaded eligible die (ties broken by id, so placement is
//! deterministic for a given history), and [`DieFleet::predict_on`]
//! refuses to serve through a die whose latched policy is
//! [`HealthPolicy::Abstain`] — the caller fails over rather than
//! shipping answers the die itself has disavowed.
//!
//! Per-die telemetry: gauge `serve_die{N}_tier` tracks each die's
//! latched tier (same 0–3 encoding as the global `health_tier` gauge),
//! counter `serve_die{N}_samples_total` its lifetime served samples.
//!
//! Serving is allocation-lean: each die's supervisor keeps a
//! persistent bank of per-worker model replicas (see
//! [`crate::ReplicaBank`]), cloned once and reused batch after batch —
//! the steady-state serve path clones nothing and re-plans nothing
//! until device state actually mutates (aging, scrub, recalibration).

use super::lock_recover;
use crate::checkpoint::CheckpointError;
use crate::flight;
use crate::health::HealthPolicy;
use crate::json::Json;
use crate::runtime::{BistGateReport, ServeReport, Supervisor};
use neuspin_nn::Tensor;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Why the fleet could not serve a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetError {
    /// The targeted die's latched policy is Abstain: it refuses
    /// traffic until recovery releases the latch.
    DieAbstaining {
        /// Which die refused.
        die: usize,
    },
    /// The targeted die crashed and has not been restored yet.
    DieDown {
        /// Which die is down.
        die: usize,
    },
    /// Every die in the fleet is at the Abstain tier (or excluded).
    NoEligibleDie,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::DieAbstaining { die } => write!(f, "die {die} is abstaining"),
            FleetError::DieDown { die } => write!(f, "die {die} is down"),
            FleetError::NoEligibleDie => f.write_str("no eligible die in the fleet"),
        }
    }
}

/// One simulated die: a supervised model plus routing caches.
struct Die {
    supervisor: Mutex<Supervisor>,
    /// Latched tier, mirrored out of the supervisor after every
    /// interaction so the router never takes the lock just to route.
    tier: AtomicU32,
    /// Lifetime served samples — the load-balance key.
    served: AtomicU64,
    /// True between [`DieFleet::crash`] and a successful
    /// [`DieFleet::restore_die`]: the router skips the die and
    /// [`DieFleet::predict_on`] refuses traffic.
    down: AtomicBool,
    /// The last periodic checkpoint that made it to "durable storage"
    /// before a crash — what a restart restores from. Refreshed
    /// opportunistically after every served batch.
    stable: Mutex<Option<String>>,
    /// [`Supervisor::checkpoint_seq`] of the stable copy, so refreshes
    /// only clone the checkpoint string when a new one exists.
    stable_seq: AtomicU64,
}

/// A point-in-time view of one die, for health endpoints and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DieStatus {
    /// Die index within the fleet.
    pub id: usize,
    /// Latched health tier.
    pub policy: HealthPolicy,
    /// Lifetime served samples.
    pub served: u64,
    /// True while the die is crashed and awaiting restore.
    pub down: bool,
}

/// N independent dies with abstention-aware routing.
pub struct DieFleet {
    dies: Vec<Die>,
}

impl DieFleet {
    /// Assembles a fleet from commissioned supervisors.
    ///
    /// # Panics
    ///
    /// Panics if `supervisors` is empty.
    pub fn new(supervisors: Vec<Supervisor>) -> Self {
        assert!(!supervisors.is_empty(), "a fleet needs at least one die");
        let dies: Vec<Die> = supervisors
            .into_iter()
            .map(|s| Die {
                tier: AtomicU32::new(s.policy().tier_index()),
                supervisor: Mutex::new(s),
                served: AtomicU64::new(0),
                down: AtomicBool::new(false),
                stable: Mutex::new(None),
                stable_seq: AtomicU64::new(0),
            })
            .collect();
        let fleet = DieFleet { dies };
        for id in 0..fleet.dies.len() {
            fleet.publish_tier(id);
        }
        fleet
    }

    /// Number of dies.
    pub fn len(&self) -> usize {
        self.dies.len()
    }

    /// True for an empty fleet (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.dies.is_empty()
    }

    /// The cached latched tier of `die`.
    pub fn tier(&self, die: usize) -> HealthPolicy {
        HealthPolicy::from_tier_index(self.dies[die].tier.load(Ordering::Acquire))
    }

    /// Lifetime served samples of `die`.
    pub fn served(&self, die: usize) -> u64 {
        self.dies[die].served.load(Ordering::Relaxed)
    }

    /// True while `die` is crashed and awaiting restore.
    pub fn is_down(&self, die: usize) -> bool {
        self.dies[die].down.load(Ordering::Acquire)
    }

    /// Point-in-time status of every die.
    pub fn snapshot(&self) -> Vec<DieStatus> {
        (0..self.dies.len())
            .map(|id| DieStatus {
                id,
                policy: self.tier(id),
                served: self.served(id),
                down: self.is_down(id),
            })
            .collect()
    }

    /// Dies currently up and below the Abstain tier.
    pub fn eligible_count(&self) -> usize {
        (0..self.dies.len())
            .filter(|&id| !self.is_down(id) && self.tier(id) != HealthPolicy::Abstain)
            .count()
    }

    /// Routes a request: the eligible die (not excluded, not down, not
    /// abstaining) with the lowest `(tier, served, id)` key — healthiest
    /// first, then least loaded, then deterministic by id.
    pub fn pick(&self, exclude: &[usize]) -> Option<usize> {
        (0..self.dies.len())
            .filter(|id| !exclude.contains(id))
            .filter(|&id| !self.is_down(id) && self.tier(id) != HealthPolicy::Abstain)
            .min_by_key(|&id| (self.tier(id).tier_index(), self.served(id), id))
    }

    /// Simulates a power-fail crash of `die`: the in-memory supervisor
    /// state is considered lost, the router stops picking the die, and
    /// [`DieFleet::predict_on`] refuses it with [`FleetError::DieDown`]
    /// until [`DieFleet::restore_die`] succeeds. Idempotent.
    pub fn crash(&self, die: usize) {
        self.dies[die].down.store(true, Ordering::Release);
        crate::telemetry::counter("serve_die_crashes_total").inc();
        flight::record("die_crash", vec![("die", Json::Num(die as f64))]);
        flight::dump_if_configured();
    }

    /// The last checkpoint that reached durable storage for `die`, if
    /// any — what [`DieFleet::restore_die`] will restore from.
    pub fn stable_checkpoint(&self, die: usize) -> Option<String> {
        lock_recover(&self.dies[die].stable).clone()
    }

    /// Crash-restarts `die`: restores its last stable checkpoint onto
    /// `twin` (a supervisor built by the same deterministic constructor
    /// as the crashed die — see the restore-onto-twin contract in
    /// [`crate::checkpoint`]), runs the BIST re-commission gate, and —
    /// only if the gate passes — swaps the restored supervisor in and
    /// marks the die up.
    ///
    /// Returns the gate report on a decodable checkpoint; the caller
    /// checks [`BistGateReport::passed`] to learn whether the die
    /// rejoined. Fails without touching the die when no stable
    /// checkpoint exists or the stored bytes no longer verify.
    pub fn restore_die(
        &self,
        die: usize,
        mut twin: Supervisor,
    ) -> Result<BistGateReport, CheckpointError> {
        let stable = self.stable_checkpoint(die).ok_or_else(|| {
            CheckpointError::Malformed(format!("no stable checkpoint for die {die}"))
        })?;
        twin.restore_from_str(&stable)?;
        let gate = twin.bist_gate();
        if gate.passed {
            let seq = twin.checkpoint_seq();
            {
                let mut sup = lock_recover(&self.dies[die].supervisor);
                *sup = twin;
                self.dies[die].tier.store(sup.policy().tier_index(), Ordering::Release);
            }
            self.dies[die].stable_seq.store(seq, Ordering::Release);
            self.dies[die].down.store(false, Ordering::Release);
            self.publish_tier(die);
            crate::telemetry::counter("serve_die_restores_total").inc();
        }
        flight::record(
            "die_restore",
            vec![
                ("die", Json::Num(die as f64)),
                ("bist_passed", Json::Bool(gate.passed)),
            ],
        );
        Ok(gate)
    }

    /// Serves one batch on `die`, refusing if its latched policy is
    /// Abstain (checked again under the lock — the cache may be stale).
    ///
    /// On success the die's served counter, tier cache, and telemetry
    /// are refreshed from the post-batch supervisor state.
    pub fn predict_on(
        &self,
        die: usize,
        inputs: &Tensor,
        seed: u64,
    ) -> Result<ServeReport, FleetError> {
        if self.is_down(die) {
            return Err(FleetError::DieDown { die });
        }
        let report = {
            let mut sup = lock_recover(&self.dies[die].supervisor);
            if sup.policy() == HealthPolicy::Abstain {
                self.dies[die]
                    .tier
                    .store(HealthPolicy::Abstain.tier_index(), Ordering::Release);
                self.publish_tier(die);
                return Err(FleetError::DieAbstaining { die });
            }
            let report = sup.serve_predict(inputs, seed);
            self.refresh_stable(die, &sup);
            report
        };
        let rows = inputs.shape()[0] as u64;
        self.dies[die].served.fetch_add(rows, Ordering::Relaxed);
        self.dies[die]
            .tier
            .store(report.policy.tier_index(), Ordering::Release);
        self.publish_tier(die);
        if crate::telemetry::metrics_enabled() {
            crate::telemetry::counter(&format!("serve_die{die}_samples_total")).add(rows);
        }
        Ok(report)
    }

    /// Runs `f` against one die's supervisor (ageing it, tweaking its
    /// monitor, forcing degradation in a scenario), then refreshes the
    /// routing caches from the resulting state.
    pub fn with_die<R>(&self, die: usize, f: impl FnOnce(&mut Supervisor) -> R) -> R {
        let out = {
            let mut sup = lock_recover(&self.dies[die].supervisor);
            let out = f(&mut sup);
            self.dies[die]
                .tier
                .store(sup.policy().tier_index(), Ordering::Release);
            self.refresh_stable(die, &sup);
            out
        };
        self.publish_tier(die);
        out
    }

    /// Copies the die's latest periodic checkpoint to "durable storage"
    /// when a new one exists (the sequence number advanced). Cheap when
    /// nothing changed: one atomic compare, no string traffic.
    fn refresh_stable(&self, die: usize, sup: &Supervisor) {
        let seq = sup.checkpoint_seq();
        if seq != self.dies[die].stable_seq.load(Ordering::Acquire) {
            if let Some(cp) = sup.last_checkpoint() {
                *lock_recover(&self.dies[die].stable) = Some(cp.to_string());
                self.dies[die].stable_seq.store(seq, Ordering::Release);
            }
        }
    }

    /// Mirrors one die's cached tier into its telemetry gauge.
    fn publish_tier(&self, die: usize) {
        if crate::telemetry::metrics_enabled() {
            crate::telemetry::gauge(&format!("serve_die{die}_tier"))
                .set(self.dies[die].tier.load(Ordering::Acquire) as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{small_commissioned_supervisor, small_inputs};

    fn fleet_of(n: usize) -> DieFleet {
        DieFleet::new((0..n).map(|i| small_commissioned_supervisor(40 + i as u64)).collect())
    }

    fn eval_batch() -> Tensor {
        small_inputs(4, 0xD1E5)
    }

    #[test]
    fn pick_prefers_healthiest_then_least_loaded_then_lowest_id() {
        let fleet = fleet_of(3);
        // All healthy and unloaded: id breaks the tie.
        assert_eq!(fleet.pick(&[]), Some(0));
        assert_eq!(fleet.pick(&[0]), Some(1));
        // Load die 0 and 1: least-loaded wins.
        let batch = eval_batch();
        fleet.predict_on(0, &batch, 11).unwrap();
        fleet.predict_on(1, &batch, 12).unwrap();
        fleet.predict_on(0, &batch, 13).unwrap();
        assert_eq!(fleet.pick(&[]), Some(2));
        assert_eq!(fleet.pick(&[2]), Some(1), "die 1 served less than die 0");
    }

    #[test]
    fn abstaining_die_is_skipped_and_refuses_traffic() {
        let fleet = fleet_of(2);
        let batch = eval_batch();
        // Collapse die 0's abstention threshold: its next observation
        // latches Abstain (safety tier bypasses the dwell).
        fleet.with_die(0, |sup| {
            sup.monitor_mut().set_abstain_entropy(1e-9);
            sup.serve_predict(&batch, 21);
        });
        assert_eq!(fleet.tier(0), HealthPolicy::Abstain);
        assert_eq!(fleet.pick(&[]), Some(1), "router must skip the abstaining die");
        assert_eq!(
            fleet.predict_on(0, &batch, 22).map(|_| ()).unwrap_err(),
            FleetError::DieAbstaining { die: 0 }
        );
        assert_eq!(fleet.pick(&[1]), None, "no eligible die once 1 is excluded");
    }

    #[test]
    fn predict_on_counts_samples_and_snapshot_reflects_state() {
        let fleet = fleet_of(2);
        let batch = eval_batch();
        fleet.predict_on(1, &batch, 31).unwrap();
        assert_eq!(fleet.served(1), batch.shape()[0] as u64);
        assert_eq!(fleet.served(0), 0);
        let snap = fleet.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[1].served, 4);
        assert_eq!(snap[0].policy, HealthPolicy::Healthy);
    }

    #[test]
    fn fleet_serving_reuses_persistent_replicas() {
        let fleet = fleet_of(1);
        let batch = eval_batch();
        // Pin the die to 2 workers (drops whatever the commissioning
        // eval attached) and capture the lifetime sync count.
        let base = fleet.with_die(0, |sup| {
            sup.set_threads(2);
            assert!(sup.replicas().is_empty(), "set_threads must drop the bank");
            sup.replicas().syncs()
        });
        for i in 0..3 {
            fleet.predict_on(0, &batch, 50 + i).unwrap();
        }
        fleet.with_die(0, |sup| {
            assert_eq!(
                sup.replicas().len(),
                2,
                "first serve attaches one replica per worker; later serves reuse them"
            );
            assert_eq!(sup.replicas().syncs(), base + 3, "one delta sync per served batch");
        });
    }

    #[test]
    fn crashed_die_is_excluded_until_restored_bit_identically() {
        let fleet = fleet_of(2);
        for id in 0..2 {
            fleet.with_die(id, |sup| sup.set_checkpoint_interval(1));
        }
        let b1 = small_inputs(4, 0xB001);
        let b2 = small_inputs(4, 0xB002);
        fleet.predict_on(0, &b1, 61).unwrap();
        let stable =
            fleet.stable_checkpoint(0).expect("interval-1 checkpointing must publish");
        // Control: the same post-batch state serves the next batch with
        // no crash in between.
        let mut control = small_commissioned_supervisor(40);
        control.restore_from_str(&stable).unwrap();
        let control_report = control.serve_predict(&b2, 62);

        fleet.crash(0);
        assert!(fleet.is_down(0));
        assert!(fleet.snapshot()[0].down);
        assert_eq!(fleet.eligible_count(), 1);
        assert_eq!(fleet.pick(&[]), Some(1), "router must skip the crashed die");
        assert_eq!(
            fleet.predict_on(0, &b1, 63).map(|_| ()).unwrap_err(),
            FleetError::DieDown { die: 0 }
        );

        let mut twin = small_commissioned_supervisor(40);
        twin.set_checkpoint_interval(1);
        let gate = fleet.restore_die(0, twin).unwrap();
        assert!(gate.passed, "BIST gate must pass on an intact restore: {gate:?}");
        assert!(!fleet.is_down(0));
        assert_eq!(fleet.eligible_count(), 2, "restored die rejoins the rotation");
        let report = fleet.predict_on(0, &b2, 62).unwrap();
        let got: Vec<u32> =
            report.predictive.mean_probs.as_slice().iter().map(|p| p.to_bits()).collect();
        let want: Vec<u32> = control_report
            .predictive
            .mean_probs
            .as_slice()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(got, want, "restored die must serve bit-identically to the no-crash control");
    }

    #[test]
    fn restore_without_stable_checkpoint_is_refused() {
        let fleet = fleet_of(1);
        fleet.crash(0);
        let twin = small_commissioned_supervisor(40);
        let err = fleet.restore_die(0, twin).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err:?}");
        assert!(fleet.is_down(0), "a failed restore must leave the die down");
        assert_eq!(fleet.pick(&[]), None);
        assert_eq!(fleet.eligible_count(), 0);
    }

    #[test]
    fn per_die_telemetry_gauges_are_published() {
        let _guard = crate::telemetry::test_lock();
        crate::telemetry::set_enabled(true, false);
        crate::telemetry::reset();
        let fleet = fleet_of(2);
        let batch = eval_batch();
        fleet.predict_on(0, &batch, 41).unwrap();
        let text = crate::telemetry::prometheus_text();
        assert!(text.contains("serve_die0_tier"), "missing die-0 tier gauge:\n{text}");
        assert!(text.contains("serve_die1_tier"), "missing die-1 tier gauge:\n{text}");
        assert!(
            text.contains("serve_die0_samples_total"),
            "missing die-0 sample counter:\n{text}"
        );
        crate::telemetry::set_enabled(false, false);
        crate::telemetry::reset();
    }
}
