//! Closed-loop self-healing runtime: the [`Supervisor`] owns a
//! [`HardwareModel`] plus its [`HealthMonitor`] and, as simulated
//! device time advances, actually *executes* the policy ladder the
//! monitor recommends — scheduled scrubbing against retention decay,
//! norm recalibration against mild drift, a full re-BIST + spare
//! repair + fault-aware remap tier against serious signal loss, and
//! gated abstention as the last resort. Every action is recorded in a
//! structured [`RecoveryEvent`] trail and charged to the energy model,
//! so a lifetime experiment can account for the joules reliability
//! costs, not just the accuracy it buys.
//!
//! Determinism: the supervisor draws every RNG it needs from
//! [`crate::rng::stream`] substreams of its configured master seed,
//! tagged by purpose and step index. Evaluation passes reuse one fixed
//! seed (common random numbers), so health-signal changes between
//! steps reflect hardware state, never sampling noise.

use crate::checkpoint::{Checkpoint, CheckpointError, SupervisorState};
use crate::health::{HealthConfig, HealthMonitor, HealthPolicy};
use crate::model::{HardwareModel, ReplicaBank};
use crate::pool::ThreadPool;
use crate::rng::stream;
use neuspin_bayes::{Gated, Predictive};
use neuspin_cim::BistConfig;
use neuspin_device::AgingReport;
use neuspin_energy::Joules;
use neuspin_nn::Tensor;
use std::fmt;

/// Stream tags for the supervisor's RNG substreams (offsets into the
/// master seed's tag space; per-step tags add the step index).
const TAG_CALIBRATE: u64 = 0x4000;
const TAG_ABSTAIN: u64 = 0x4800;
const TAG_REMAP: u64 = 0x5000;
/// Re-commission BIST audit after a crash restore.
const TAG_BIST: u64 = 0x6000;
/// Fixed evaluation-seed tag: every health-probe prediction uses this
/// one stream so step-to-step signal changes are hardware, not noise.
const TAG_EVAL: u64 = 0x0E7A;

/// Configuration for a [`Supervisor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Health-monitor thresholds and hysteresis.
    pub health: HealthConfig,
    /// BIST configuration used by the [`RecoveryAction::RemapTier`]
    /// escalation.
    pub bist: BistConfig,
    /// Scheduled-scrub period in device-hours; `<= 0` disables the
    /// schedule (scrubbing still happens inside a remap recovery).
    pub scrub_interval_hours: f64,
    /// Target coverage for abstention-threshold calibration.
    pub coverage: f64,
    /// Rounds for norm calibration passes.
    pub calib_rounds: usize,
    /// Master seed; all supervisor RNG streams derive from it.
    pub seed: u64,
    /// Take a crash-safe checkpoint every this many steps (`step` and
    /// `serve_predict` both count); 0 disables periodic checkpointing.
    /// The latest checkpoint is retained in memory and readable via
    /// [`Supervisor::last_checkpoint`].
    pub checkpoint_interval_steps: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            health: HealthConfig::default(),
            bist: BistConfig::default(),
            scrub_interval_hours: 0.0,
            coverage: 0.9,
            calib_rounds: 2,
            seed: 0x5EED,
            checkpoint_interval_steps: 0,
        }
    }
}

/// A recovery action the supervisor actually executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryAction {
    /// Scheduled data scrub: rewrite decayed cells from the golden
    /// image and reset conductance drift.
    Scrub,
    /// Norm recalibration + abstention-threshold refresh (cheap,
    /// digital-only).
    Recalibrate,
    /// Full fault-management tier: re-BIST, spare-column repair,
    /// fault-aware remap, scrub, then recalibrate and re-baseline.
    RemapTier,
    /// Entered gated abstention: predictions above the entropy
    /// threshold are refused rather than emitted.
    Abstain,
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecoveryAction::Scrub => "scrub",
            RecoveryAction::Recalibrate => "recalibrate",
            RecoveryAction::RemapTier => "remap_tier",
            RecoveryAction::Abstain => "abstain",
        };
        f.write_str(s)
    }
}

/// One entry in the supervisor's structured recovery trail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Device time when the action ran.
    pub at_hours: f64,
    /// Supervisor step index the action ran in (0 = commissioning).
    pub step: usize,
    /// What was executed.
    pub action: RecoveryAction,
    /// The policy that triggered it.
    pub policy: HealthPolicy,
    /// Cells rewritten by a scrub (0 for non-scrub actions).
    pub cells_refreshed: usize,
    /// Cells the BIST flagged (remap tier only).
    pub flagged: usize,
    /// Columns repaired with spares (remap tier only).
    pub repaired: usize,
    /// Energy charged to the hardware model by this action.
    pub energy: Joules,
}

/// Outcome of one [`Supervisor::step`].
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Device time at the end of the step.
    pub at_hours: f64,
    /// Latched policy after observing this step's health signals
    /// (the policy the recovery actions responded to).
    pub policy: HealthPolicy,
    /// The evaluation pass on this step's inputs (taken after aging
    /// and any scheduled scrub, before escalation recoveries).
    pub predictive: Predictive,
    /// Gated view of `predictive` while abstention is active.
    pub gated: Option<Gated>,
    /// Aging activity applied at the head of the step.
    pub aging: AgingReport,
    /// Actions executed during the step, in execution order.
    pub actions: Vec<RecoveryAction>,
}

/// Outcome of one [`Supervisor::serve_predict`] live-traffic batch.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Latched policy after observing this batch's health signals.
    pub policy: HealthPolicy,
    /// The prediction over the served batch.
    pub predictive: Predictive,
    /// Per-sample abstention decisions at the calibrated entropy
    /// threshold (all accepted while the threshold is uncalibrated /
    /// infinite).
    pub gated: Gated,
    /// Recovery actions executed in response to this batch's signals.
    pub actions: Vec<RecoveryAction>,
}

/// The closed-loop self-healing runtime.
///
/// Construct with [`Supervisor::new`] over a model that already has
/// aging enabled, [`Supervisor::commission`] it once on healthy
/// hardware to freeze the health baseline, then drive device lifetime
/// with repeated [`Supervisor::step`] calls.
pub struct Supervisor {
    model: HardwareModel,
    monitor: HealthMonitor,
    config: SupervisorConfig,
    calib: Tensor,
    now_hours: f64,
    last_scrub_hours: f64,
    step: usize,
    events: Vec<RecoveryEvent>,
    pool: ThreadPool,
    /// Persistent per-worker model replicas for the parallel MC
    /// engine. Attached (cloned once per pool worker) on the first
    /// evaluation after commissioning and reused across every
    /// subsequent `step`/`serve_predict` evaluation; invalidated
    /// whenever the managed model's device state mutates (aging,
    /// scrub, recalibration, remap) so stale weights never serve.
    replicas: ReplicaBank,
    /// Highest escalation tier acted on since the last healthy
    /// observation — makes Recalibrate/RemapTier idempotent while the
    /// policy holds.
    engaged_tier: HealthPolicy,
    commissioned: bool,
    /// The most recent periodic checkpoint (serialized), if periodic
    /// checkpointing is enabled. This is what a crash restart restores
    /// from.
    last_checkpoint: Option<String>,
    /// Monotonic count of periodic checkpoints taken — lets callers
    /// (e.g. [`crate::DieFleet`]) detect a fresh checkpoint without
    /// comparing strings.
    checkpoint_seq: u64,
}

impl Supervisor {
    /// Wraps a compiled model in the self-healing runtime.
    ///
    /// # Panics
    ///
    /// Panics if aging is not enabled on the model (a supervisor
    /// without a time axis has nothing to heal) or if `coverage` /
    /// `calib_rounds` are out of range.
    pub fn new(model: HardwareModel, config: SupervisorConfig) -> Self {
        assert!(
            model.aging_enabled(),
            "Supervisor requires a model with aging enabled"
        );
        assert!(
            config.coverage > 0.0 && config.coverage <= 1.0,
            "coverage must be in (0, 1], got {}",
            config.coverage
        );
        assert!(config.calib_rounds > 0, "calib_rounds must be positive");
        let monitor = HealthMonitor::new(config.health);
        Self {
            model,
            monitor,
            config,
            calib: Tensor::zeros(&[1]),
            now_hours: 0.0,
            last_scrub_hours: 0.0,
            step: 0,
            events: Vec::new(),
            pool: ThreadPool::from_env(),
            replicas: ReplicaBank::new(),
            engaged_tier: HealthPolicy::Healthy,
            commissioned: false,
            last_checkpoint: None,
            checkpoint_seq: 0,
        }
    }

    /// Commissions the runtime on (assumed healthy) hardware: runs
    /// norm calibration, calibrates the abstention threshold on
    /// `calib` at the configured coverage, takes one evaluation pass
    /// over `monitor_batch`, and freezes the health baseline against
    /// it. The calibration set is retained for later recalibrations.
    /// Returns the baseline evaluation.
    pub fn commission(&mut self, calib: Tensor, monitor_batch: &Tensor) -> Predictive {
        let seed = self.config.seed;
        self.model
            .calibrate(&calib, self.config.calib_rounds, &mut stream(seed, 1));
        let threshold =
            self.model
                .calibrate_abstention(&calib, self.config.coverage, &mut stream(seed, 2));
        self.monitor.set_abstain_entropy(threshold);
        self.calib = calib;
        // Calibration rewrote norm statistics: any replicas cloned
        // from the pre-calibration weights are stale. The eval below
        // eagerly re-attaches fresh ones.
        self.replicas.invalidate();
        self.model.reset_sense_margins();
        let pred =
            self.model
                .predict_par_in(monitor_batch, self.eval_seed(), &self.pool, &mut self.replicas);
        self.monitor
            .observe(mean(&pred.entropy), self.model.mean_sense_margin());
        self.monitor.freeze_baseline();
        self.last_scrub_hours = self.now_hours;
        self.commissioned = true;
        pred
    }

    /// Advances device time by `dt_hours` and runs one closed-loop
    /// iteration: aging → scheduled scrub → evaluation + health
    /// observation → policy escalation (recalibrate / remap / abstain).
    ///
    /// # Panics
    ///
    /// Panics if the supervisor was never commissioned or `dt_hours`
    /// is not positive.
    pub fn step(&mut self, inputs: &Tensor, dt_hours: f64) -> StepReport {
        assert!(self.commissioned, "commission the Supervisor before stepping");
        assert!(
            dt_hours > 0.0 && dt_hours.is_finite(),
            "dt_hours must be positive and finite, got {dt_hours}"
        );
        self.step += 1;
        let _span = crate::span!("supervisor_step", step = self.step, dt_hours = dt_hours);
        let aging = self.model.advance_time(dt_hours);
        // Aging mutated the device arrays; replicas cloned before this
        // step would evaluate on stale physics.
        self.replicas.invalidate();
        self.now_hours += dt_hours;
        // Virtual device-hours: stamped into every span closed from
        // here on (deterministic — it tracks simulated time only).
        crate::telemetry::set_model_time_hours(self.now_hours);

        let mut actions = Vec::new();
        if self.scrub_due() {
            self.run_scrub(HealthPolicy::Healthy);
            actions.push(RecoveryAction::Scrub);
        }

        self.model.reset_sense_margins();
        let pred =
            self.model
                .predict_par_in(inputs, self.eval_seed(), &self.pool, &mut self.replicas);
        self.monitor
            .observe(mean(&pred.entropy), self.model.mean_sense_margin());
        let policy = self.monitor.policy();
        let gated = self.escalate(policy, inputs, &pred, &mut actions);
        self.maybe_checkpoint();

        StepReport {
            at_hours: self.now_hours,
            policy,
            predictive: pred,
            gated,
            aging,
            actions,
        }
    }

    /// Serves one live-traffic batch through the managed die, keeping
    /// the closed loop engaged while the die is under load: predict on
    /// the caller's seed, observe the health signals the batch
    /// produced, execute whatever the latched policy demands (the same
    /// recalibrate / remap / abstain ladder as [`Supervisor::step`]),
    /// and entropy-gate every sample at the calibrated threshold.
    ///
    /// Unlike [`Supervisor::step`] no device time passes — serving is a
    /// zero-`dt` step — so a fleet can interleave traffic on some dies
    /// with aging on others. The caller owns the seed policy: a fixed
    /// per-batch seed stream keeps served predictions bit-reproducible
    /// for a given batch composition (the serving determinism
    /// contract).
    ///
    /// # Panics
    ///
    /// Panics if the supervisor was never commissioned.
    pub fn serve_predict(&mut self, inputs: &Tensor, seed: u64) -> ServeReport {
        assert!(self.commissioned, "commission the Supervisor before serving");
        self.step += 1;
        let _span = crate::span!(
            "serve_predict",
            step = self.step,
            batch = inputs.shape()[0]
        );
        self.model.reset_sense_margins();
        let pred = self
            .model
            .predict_par_in(inputs, seed, &self.pool, &mut self.replicas);
        self.monitor
            .observe(mean(&pred.entropy), self.model.mean_sense_margin());
        let policy = self.monitor.policy();
        let mut actions = Vec::new();
        let _ = self.escalate(policy, inputs, &pred, &mut actions);
        let gated = pred.gate(self.abstain_threshold());
        self.maybe_checkpoint();
        ServeReport { policy, predictive: pred, gated, actions }
    }

    /// Executes whatever the latched policy demands, honouring the
    /// engaged-tier latch so a held policy acts exactly once.
    fn escalate(
        &mut self,
        policy: HealthPolicy,
        inputs: &Tensor,
        pred: &Predictive,
        actions: &mut Vec<RecoveryAction>,
    ) -> Option<Gated> {
        match policy {
            HealthPolicy::Healthy => {
                self.engaged_tier = HealthPolicy::Healthy;
                None
            }
            HealthPolicy::Recalibrate => {
                if self.engaged_tier < HealthPolicy::Recalibrate {
                    self.run_recalibrate(policy);
                    self.engaged_tier = HealthPolicy::Recalibrate;
                    actions.push(RecoveryAction::Recalibrate);
                }
                None
            }
            HealthPolicy::RemapTier => {
                if self.engaged_tier < HealthPolicy::RemapTier {
                    self.run_remap_tier(policy, inputs);
                    // The remap re-froze the baseline, so the latch is
                    // back at Healthy; re-arm the engagement latch too.
                    self.engaged_tier = HealthPolicy::Healthy;
                    actions.push(RecoveryAction::RemapTier);
                }
                None
            }
            HealthPolicy::Abstain => {
                if self.engaged_tier < HealthPolicy::Abstain {
                    self.engaged_tier = HealthPolicy::Abstain;
                    actions.push(RecoveryAction::Abstain);
                    self.log_event(RecoveryAction::Abstain, policy, 0, 0, 0, Joules(0.0));
                }
                Some(pred.gate(self.abstain_threshold()))
            }
        }
    }

    /// Scheduled scrub predicate.
    fn scrub_due(&self) -> bool {
        let interval = self.config.scrub_interval_hours;
        interval > 0.0 && self.now_hours - self.last_scrub_hours >= interval - 1e-9
    }

    /// Runs a scrub, logs it, and resets the schedule clock.
    fn run_scrub(&mut self, policy: HealthPolicy) {
        let before = self.model.energy();
        let refreshed = self.model.scrub();
        self.replicas.invalidate();
        let cost = Joules(self.model.energy().0 - before.0);
        self.last_scrub_hours = self.now_hours;
        self.log_event(RecoveryAction::Scrub, policy, refreshed, 0, 0, cost);
    }

    /// Cheap tier: norm recalibration + abstention-threshold refresh.
    /// Deliberately does *not* re-freeze the baseline — if the signal
    /// keeps degrading the monitor must still see it and escalate.
    fn run_recalibrate(&mut self, policy: HealthPolicy) {
        let seed = self.config.seed;
        let tag = self.step as u64;
        let before = self.model.energy();
        let rounds = self.config.calib_rounds;
        self.model
            .calibrate(&self.calib, rounds, &mut stream(seed, TAG_CALIBRATE + tag));
        let threshold = self.model.calibrate_abstention(
            &self.calib,
            self.config.coverage,
            &mut stream(seed, TAG_ABSTAIN + tag),
        );
        self.monitor.set_abstain_entropy(threshold);
        self.replicas.invalidate();
        let cost = Joules(self.model.energy().0 - before.0);
        self.log_event(RecoveryAction::Recalibrate, policy, 0, 0, 0, cost);
    }

    /// Full tier: re-BIST + spare repair + fault-aware remap, scrub
    /// the surviving array, recalibrate on the new physical layout,
    /// then re-baseline the monitor against a fresh evaluation so the
    /// repaired hardware becomes the new healthy reference.
    fn run_remap_tier(&mut self, policy: HealthPolicy, inputs: &Tensor) {
        let seed = self.config.seed;
        let tag = self.step as u64;
        let before = self.model.energy();
        let report = self
            .model
            .fault_management(&self.config.bist, &mut stream(seed, TAG_REMAP + tag));
        let refreshed = self.model.scrub();
        self.last_scrub_hours = self.now_hours;
        let rounds = self.config.calib_rounds;
        self.model
            .calibrate(&self.calib, rounds, &mut stream(seed, TAG_CALIBRATE + tag));
        let threshold = self.model.calibrate_abstention(
            &self.calib,
            self.config.coverage,
            &mut stream(seed, TAG_ABSTAIN + tag),
        );
        self.monitor.set_abstain_entropy(threshold);
        let repaired: usize = report.layers.iter().map(|l| l.repaired).sum();
        let flagged = report.total_flagged();
        // Re-baseline: the repaired + recalibrated die is the new
        // healthy reference. The repair/remap/recalibrate sequence
        // above rewrote device state, so replicas re-attach here.
        self.replicas.invalidate();
        self.monitor.clear_window();
        self.model.reset_sense_margins();
        let pred =
            self.model
                .predict_par_in(inputs, self.eval_seed(), &self.pool, &mut self.replicas);
        self.monitor
            .observe(mean(&pred.entropy), self.model.mean_sense_margin());
        self.monitor.freeze_baseline();
        let cost = Joules(self.model.energy().0 - before.0);
        self.log_event(RecoveryAction::RemapTier, policy, refreshed, flagged, repaired, cost);
    }

    fn log_event(
        &mut self,
        action: RecoveryAction,
        policy: HealthPolicy,
        cells_refreshed: usize,
        flagged: usize,
        repaired: usize,
        energy: Joules,
    ) {
        let name = match action {
            RecoveryAction::Scrub => "scrub",
            RecoveryAction::Recalibrate => "recalibrate",
            RecoveryAction::RemapTier => "remap_tier",
            RecoveryAction::Abstain => "abstain",
        };
        crate::flight::record(
            "escalate",
            vec![
                ("action", crate::json::Json::Str(name.to_string())),
                ("step", crate::json::Json::Num(self.step as f64)),
                ("policy", crate::json::Json::Num(policy.tier_index() as f64)),
                ("flagged", crate::json::Json::Num(flagged as f64)),
                ("repaired", crate::json::Json::Num(repaired as f64)),
            ],
        );
        if crate::telemetry::active() {
            crate::trace_event!(
                "recovery",
                action = name,
                step = self.step,
                policy = policy.tier_index(),
                cells_refreshed = cells_refreshed,
                flagged = flagged,
                repaired = repaired,
                energy_j = energy.0
            );
            crate::telemetry::counter(&format!("recovery_{name}_total")).inc();
            if action == RecoveryAction::Scrub {
                crate::telemetry::gauge("scrub_energy_j").add(energy.0);
            }
        }
        self.events.push(RecoveryEvent {
            at_hours: self.now_hours,
            step: self.step,
            action,
            policy,
            cells_refreshed,
            flagged,
            repaired,
            energy,
        });
    }

    /// The fixed common-random-numbers evaluation seed. Public so
    /// comparison baselines (unmanaged / scrub-only arms of a
    /// lifetime study) can evaluate with the identical stream.
    pub fn eval_seed(&self) -> u64 {
        self.config.seed ^ TAG_EVAL.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Current device time in hours.
    pub fn now_hours(&self) -> f64 {
        self.now_hours
    }

    /// The currently latched health policy — the routing tier a
    /// serving fleet keys on.
    pub fn policy(&self) -> HealthPolicy {
        self.monitor.policy()
    }

    /// The calibrated abstention-entropy threshold.
    pub fn abstain_threshold(&self) -> f64 {
        self.monitor.config().abstain_entropy
    }

    /// The structured recovery trail, in execution order.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// Read access to the managed model.
    pub fn model(&self) -> &HardwareModel {
        &self.model
    }

    /// Mutable access to the managed model (test instrumentation and
    /// custom experiments; the supervisor does not defend against
    /// edits that invalidate its baseline). Conservatively invalidates
    /// the replica bank — the caller may mutate anything.
    pub fn model_mut(&mut self) -> &mut HardwareModel {
        self.replicas.invalidate();
        &mut self.model
    }

    /// Read access to the persistent replica bank (observability:
    /// replica count and lifetime sync total).
    pub fn replicas(&self) -> &ReplicaBank {
        &self.replicas
    }

    /// Replaces the evaluation worker pool (e.g. to pin a die to a
    /// fixed thread count regardless of `NEUSPIN_THREADS`). Drops any
    /// attached replicas: the bank is sized to the pool.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = ThreadPool::new(threads);
        self.replicas.invalidate();
    }

    /// Read access to the health monitor.
    pub fn monitor(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// Mutable access to the health monitor (threshold overrides in
    /// tests and experiments).
    pub fn monitor_mut(&mut self) -> &mut HealthMonitor {
        &mut self.monitor
    }

    /// Enables periodic checkpointing every `steps` supervisor
    /// interactions (0 disables) — for scenario drivers taking an
    /// already-built die into a crash-safe serving campaign.
    pub fn set_checkpoint_interval(&mut self, steps: usize) {
        self.config.checkpoint_interval_steps = steps;
    }

    /// Serializes the die's full mutable state as a versioned,
    /// checksummed checkpoint document (see [`crate::checkpoint`]).
    /// Byte-deterministic: the same supervisor state always produces
    /// the same string.
    pub fn checkpoint(&self) -> String {
        Checkpoint::encode_state(&self.export_state())
    }

    /// The most recent periodic checkpoint, if
    /// [`SupervisorConfig::checkpoint_interval_steps`] is enabled and
    /// at least one interval has elapsed. This is what a crash restart
    /// restores from.
    pub fn last_checkpoint(&self) -> Option<&str> {
        self.last_checkpoint.as_deref()
    }

    /// Monotonic count of periodic checkpoints taken over this
    /// supervisor's in-memory lifetime (not carried by checkpoints —
    /// it identifies fresh [`Supervisor::last_checkpoint`] values, it
    /// is not device state).
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Applies a decoded checkpoint onto this supervisor, which must be
    /// the deterministic twin of the checkpoint's source (same trained
    /// weights, geometry, config, and seeds — restore carries only the
    /// mutable divergence; see the restore-onto-twin contract in
    /// [`crate::checkpoint`]). After the call, any `step` /
    /// `serve_predict` / scrub sequence is bit-identical to the
    /// uninterrupted source run.
    ///
    /// All or nothing: the state is imported into copies of the model
    /// and the health monitor, which replace the originals only when
    /// every block and the monitor accept their parts.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`], with the supervisor unchanged,
    /// when the checkpoint does not fit this die: a different pipeline
    /// shape, block kind or population (it was taken from a different
    /// architecture), or a state this die could not have exported.
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        let s = &checkpoint.state;
        let mut model = self.model.clone();
        let mut monitor = self.monitor.clone();
        model
            .import_state(&s.model)
            .and_then(|()| monitor.import_state(&s.monitor))
            .map_err(CheckpointError::Malformed)?;
        self.model = model;
        self.monitor = monitor;
        self.calib = s.calib.clone();
        self.now_hours = s.now_hours;
        self.last_scrub_hours = s.last_scrub_hours;
        self.step = s.step;
        self.engaged_tier = s.engaged_tier;
        self.commissioned = s.commissioned;
        self.events = s.events.clone();
        // Every replica was cloned from pre-restore device state.
        self.replicas.invalidate();
        self.last_checkpoint = None;
        crate::telemetry::set_model_time_hours(self.now_hours);
        Ok(())
    }

    /// Decodes a serialized checkpoint, then [restores](Self::restore)
    /// it. A malformed, version-skewed or checksum-failing document, or
    /// one that does not fit this die, is refused with the supervisor
    /// unchanged.
    pub fn restore_from_str(&mut self, text: &str) -> Result<(), CheckpointError> {
        self.restore(&Checkpoint::decode(text)?)
    }

    /// Re-commission gate for a die restored from a checkpoint: a
    /// read-only BIST audit over every binary crossbar, seeded from the
    /// supervisor master seed and current step. The march test restores
    /// array contents exactly, so a gate run leaves predictions
    /// bit-identical — only op tallies advance. A crossbar passes when
    /// the audit flags no more cells than its known fabricated defect
    /// population plus estimator slack.
    pub fn bist_gate(&mut self) -> BistGateReport {
        let mut rng = stream(self.config.seed, TAG_BIST.wrapping_add(self.step as u64));
        let layers = self.model.bist_audit(&self.config.bist, &mut rng);
        let passed = layers
            .iter()
            .all(|&(flagged, known)| flagged <= known + known / 10 + 2);
        // March writes advanced the master model's op tallies; replicas
        // cloned earlier would merge stale counters.
        self.replicas.invalidate();
        BistGateReport { layers, passed }
    }

    pub(crate) fn export_state(&self) -> SupervisorState {
        SupervisorState {
            model: self.model.export_state(),
            monitor: self.monitor.export_state(),
            calib: self.calib.clone(),
            now_hours: self.now_hours,
            last_scrub_hours: self.last_scrub_hours,
            step: self.step,
            engaged_tier: self.engaged_tier,
            commissioned: self.commissioned,
            events: self.events.clone(),
        }
    }

    fn maybe_checkpoint(&mut self) {
        let interval = self.config.checkpoint_interval_steps;
        if interval > 0 && self.step.is_multiple_of(interval) {
            self.last_checkpoint = Some(self.checkpoint());
            self.checkpoint_seq += 1;
        }
    }

    /// Consumes the supervisor, returning the managed model.
    pub fn into_model(self) -> HardwareModel {
        self.model
    }
}

/// Outcome of a [`Supervisor::bist_gate`] re-commission audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BistGateReport {
    /// `(flagged, known_defects)` per binary crossbar, pipeline order.
    pub layers: Vec<(usize, usize)>,
    /// Whether every crossbar passed the gate criterion.
    pub passed: bool,
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{HardwareConfig, HardwareModel};
    use crate::rng::{SeedableRng, StdRng};
    use neuspin_bayes::{build_cnn, ArchConfig, Method};
    use neuspin_cim::CrossbarConfig;
    use neuspin_device::{AgingConfig, TemperatureProfile};
    use neuspin_nn::Tensor;

    fn arch() -> ArchConfig {
        ArchConfig::default()
    }

    fn ideal_config() -> HardwareConfig {
        HardwareConfig {
            crossbar: CrossbarConfig::ideal(),
            passes: 4,
            ..HardwareConfig::default()
        }
    }

    fn inputs(n: usize) -> Tensor {
        Tensor::from_fn(&[n, 1, 16, 16], |i| ((i % 17) as f32 / 17.0) - 0.4)
    }

    fn compiled(config: &HardwareConfig, aging: &AgingConfig) -> HardwareModel {
        let a = arch();
        let mut rng = StdRng::seed_from_u64(7);
        let mut sw = build_cnn(Method::SpinDrop, &a, &mut rng);
        let mut hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &a, config, &mut rng);
        hw.enable_aging(aging);
        hw
    }

    fn drift_aging(rate_per_hour: f64) -> AgingConfig {
        AgingConfig {
            seed: 11,
            drift_rate: rate_per_hour,
            ..AgingConfig::default()
        }
    }

    #[test]
    fn supervisor_requires_aging() {
        let a = arch();
        let mut rng = StdRng::seed_from_u64(7);
        let mut sw = build_cnn(Method::SpinDrop, &a, &mut rng);
        let hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &a, &ideal_config(), &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Supervisor::new(hw, SupervisorConfig::default())
        }));
        assert!(result.is_err());
    }

    #[test]
    fn scheduled_scrub_fires_on_the_interval_and_costs_energy() {
        let aging = AgingConfig {
            seed: 11,
            thermal_stability: 31.0,
            temperature: TemperatureProfile::Constant(300.0),
            ..AgingConfig::default()
        };
        let hw = compiled(&ideal_config(), &aging);
        let config = SupervisorConfig {
            scrub_interval_hours: 2.0,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(hw, config);
        let x = inputs(4);
        sup.commission(x.clone(), &x);
        for _ in 0..4 {
            sup.step(&x, 1.0);
        }
        let scrubs: Vec<&RecoveryEvent> = sup
            .events()
            .iter()
            .filter(|e| e.action == RecoveryAction::Scrub)
            .collect();
        assert_eq!(scrubs.len(), 2, "expected scrubs at t=2h and t=4h");
        assert_eq!(scrubs[0].at_hours, 2.0);
        assert_eq!(scrubs[1].at_hours, 4.0);
        for e in &scrubs {
            assert!(e.energy.0 > 0.0, "scrub must be charged to the energy model");
            assert!(
                e.cells_refreshed > 0,
                "low-Δ aging over 2h should decay some cells"
            );
        }
    }

    #[test]
    fn escalation_runs_each_tier_once_and_in_order() {
        // Pure deterministic drift: margins decay as e^{-rt}, so with
        // rate 0.1/h and window 1 the margin loss crosses the 0.15
        // slack at t=2h (loss 0.18) and the 0.30 double-slack at t=4h
        // (loss 0.33). Dwell 1 latches immediately; the t=3h step
        // (loss 0.26, still Recalibrate) must NOT re-run the cheap
        // tier — that is the idempotence latch under test.
        let hw = compiled(&ideal_config(), &drift_aging(0.1));
        let config = SupervisorConfig {
            health: HealthConfig {
                window: 1,
                dwell: 1,
                ..HealthConfig::default()
            },
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(hw, config);
        let x = inputs(4);
        sup.commission(x.clone(), &x);
        let mut policies = Vec::new();
        for _ in 0..4 {
            let report = sup.step(&x, 1.0);
            policies.push(report.policy);
        }
        assert_eq!(
            policies,
            vec![
                HealthPolicy::Healthy,
                HealthPolicy::Recalibrate,
                HealthPolicy::Recalibrate,
                HealthPolicy::RemapTier,
            ]
        );
        let trail: Vec<(RecoveryAction, usize)> =
            sup.events().iter().map(|e| (e.action, e.step)).collect();
        assert_eq!(
            trail,
            vec![
                (RecoveryAction::Recalibrate, 2),
                (RecoveryAction::RemapTier, 4),
            ],
            "recalibrate once while the policy holds, then escalate"
        );
        for e in sup.events() {
            assert!(e.energy.0 > 0.0, "{} must cost energy", e.action);
        }
        // The remap tier scrubbed the array (drift reset) and
        // re-froze the baseline, so the next step is healthy again.
        let after = sup.step(&x, 1.0);
        assert_eq!(after.policy, HealthPolicy::Healthy);
    }

    #[test]
    fn recovered_margins_return_to_baseline_after_remap_tier() {
        let hw = compiled(&ideal_config(), &drift_aging(0.1));
        let config = SupervisorConfig {
            health: HealthConfig {
                window: 1,
                dwell: 1,
                ..HealthConfig::default()
            },
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(hw, config);
        let x = inputs(4);
        sup.commission(x.clone(), &x);
        let (b_entropy, b_margin) = sup.monitor().baseline().unwrap();
        for _ in 0..4 {
            sup.step(&x, 1.0);
        }
        // After the remap tier the baseline was re-frozen on scrubbed
        // hardware; it should sit close to the commissioning baseline.
        let (e, m) = sup.monitor().baseline().unwrap();
        assert!(
            (m - b_margin).abs() / b_margin < 0.05,
            "post-recovery margin {m} should be near commissioning margin {b_margin}"
        );
        assert!(
            (e - b_entropy).abs() < 0.2,
            "post-recovery entropy {e} should be near commissioning entropy {b_entropy}"
        );
    }

    #[test]
    fn abstain_gates_predictions_and_logs_the_transition_once() {
        let hw = compiled(&ideal_config(), &drift_aging(0.0));
        let mut sup = Supervisor::new(hw, SupervisorConfig::default());
        let x = inputs(4);
        sup.commission(x.clone(), &x);
        // Force abstention by dropping the entropy threshold below any
        // achievable predictive entropy.
        sup.monitor_mut().set_abstain_entropy(1e-6);
        let r1 = sup.step(&x, 1.0);
        let r2 = sup.step(&x, 1.0);
        assert_eq!(r1.policy, HealthPolicy::Abstain);
        assert_eq!(r2.policy, HealthPolicy::Abstain);
        let g1 = r1.gated.expect("abstaining step must return a gated view");
        assert_eq!(g1.coverage(), 0.0, "threshold 1e-6 should abstain on all");
        assert!(r2.gated.is_some());
        let abstains: Vec<&RecoveryEvent> = sup
            .events()
            .iter()
            .filter(|e| e.action == RecoveryAction::Abstain)
            .collect();
        assert_eq!(abstains.len(), 1, "log the abstain transition once, not per step");
        assert_eq!(abstains[0].step, 1);
    }

    #[test]
    fn step_rejects_bad_dt_and_uncommissioned_runs() {
        let hw = compiled(&ideal_config(), &drift_aging(0.0));
        let x = inputs(2);
        let mut sup = Supervisor::new(hw, SupervisorConfig::default());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sup.step(&x, 1.0);
        }));
        assert!(r.is_err(), "stepping before commission must panic");
        sup.commission(x.clone(), &x);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sup.step(&x, 0.0);
        }));
        assert!(r.is_err(), "dt = 0 must panic");
    }

    #[test]
    fn serve_predict_gates_observes_and_is_seed_deterministic() {
        let hw = compiled(&ideal_config(), &drift_aging(0.0));
        let mut sup = Supervisor::new(hw, SupervisorConfig::default());
        let x = inputs(4);
        sup.commission(x.clone(), &x);
        let steps_before = sup.step;
        let a = sup.serve_predict(&x, 0xFEED);
        assert_eq!(a.policy, HealthPolicy::Healthy);
        assert_eq!(a.gated.accepted.len(), 4);
        assert!(a.actions.is_empty(), "healthy die must not trigger recovery");
        assert_eq!(sup.step, steps_before + 1, "serving is a zero-dt step");
        assert_eq!(sup.now_hours(), 0.0, "no device time passes while serving");
        // Same batch + same seed ⇒ bit-identical prediction (the
        // serving determinism contract).
        let b = sup.serve_predict(&x, 0xFEED);
        assert_eq!(a.predictive, b.predictive);
        // A fresh seed draws different device noise.
        let c = sup.serve_predict(&x, 0xFEED + 1);
        assert_ne!(a.predictive.mean_probs, c.predictive.mean_probs);
    }

    #[test]
    fn serve_predict_abstains_when_threshold_collapses() {
        let hw = compiled(&ideal_config(), &drift_aging(0.0));
        let mut sup = Supervisor::new(hw, SupervisorConfig::default());
        let x = inputs(4);
        sup.commission(x.clone(), &x);
        sup.monitor_mut().set_abstain_entropy(1e-6);
        let r = sup.serve_predict(&x, 0xFEED);
        assert_eq!(r.policy, HealthPolicy::Abstain);
        assert_eq!(r.gated.coverage(), 0.0, "threshold 1e-6 abstains on everything");
        assert_eq!(r.actions, vec![RecoveryAction::Abstain]);
        assert_eq!(sup.policy(), HealthPolicy::Abstain);
    }

    #[test]
    #[should_panic(expected = "commission the Supervisor before serving")]
    fn serve_predict_requires_commissioning() {
        let hw = compiled(&ideal_config(), &drift_aging(0.0));
        let mut sup = Supervisor::new(hw, SupervisorConfig::default());
        let x = inputs(2);
        let _ = sup.serve_predict(&x, 1);
    }

    #[test]
    fn replicas_persist_across_serving_and_invalidate_on_mutation() {
        let hw = compiled(&ideal_config(), &drift_aging(0.0));
        let mut sup = Supervisor::new(hw, SupervisorConfig::default());
        sup.pool = ThreadPool::new(4);
        let x = inputs(4);
        sup.commission(x.clone(), &x);
        // Commissioning's baseline eval eagerly attached the bank
        // (ideal config has 4 passes, pool has 4 workers).
        assert_eq!(sup.replicas().len(), 4);
        assert_eq!(sup.replicas().syncs(), 1);
        // Serving is a zero-dt path: the same replicas serve batch
        // after batch with one sync each and no re-clone.
        for i in 0..3 {
            sup.serve_predict(&x, 100 + i);
            assert_eq!(sup.replicas().len(), 4);
        }
        assert_eq!(sup.replicas().syncs(), 4);
        // A step ages the device, which must drop the stale clones;
        // the step's own eval re-attaches fresh ones.
        sup.step(&x, 1.0);
        assert_eq!(sup.replicas().len(), 4);
        assert_eq!(sup.replicas().syncs(), 5);
        // model_mut is a conservative invalidation point.
        let _ = sup.model_mut();
        assert!(sup.replicas().is_empty());
    }

    #[test]
    fn trajectories_are_identical_across_thread_counts() {
        let run = |threads: usize| {
            let hw = compiled(&ideal_config(), &drift_aging(0.1));
            let config = SupervisorConfig {
                health: HealthConfig {
                    window: 1,
                    dwell: 1,
                    ..HealthConfig::default()
                },
                scrub_interval_hours: 3.0,
                ..SupervisorConfig::default()
            };
            let mut sup = Supervisor::new(hw, config);
            sup.pool = ThreadPool::new(threads);
            let x = inputs(4);
            sup.commission(x.clone(), &x);
            let mut sig = Vec::new();
            for _ in 0..4 {
                let r = sup.step(&x, 1.0);
                sig.push((r.policy, r.predictive.mean_probs.as_slice().to_vec()));
            }
            let trail: Vec<(RecoveryAction, usize)> =
                sup.events().iter().map(|e| (e.action, e.step)).collect();
            (sig, trail)
        };
        assert_eq!(run(1), run(4), "supervisor must be thread-count invariant");
    }
}
