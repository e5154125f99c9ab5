//! Crash-safe die checkpointing.
//!
//! A checkpoint is the complete **mutable** state of a
//! [`Supervisor`](crate::Supervisor)-managed die — everything that can
//! diverge from a freshly fabricated twin over the die's lifetime:
//!
//! * per-crossbar device state (cell levels/signs/defects, effective
//!   weights with drift folded in, spare banks, remap indirection,
//!   margins, op tallies, aging clock + event-RNG stream positions),
//! * stochastic-module RNG positions (SpinDrop / Spatial / Scale /
//!   arbiter bit-sources),
//! * calibration state (norm statistics mid-stream, the calibration
//!   tensor, the abstention threshold),
//! * supervisor progress (virtual clock, step index, latched health
//!   tier and hysteresis dwell, recovery-event trail, op-counter and
//!   energy windows).
//!
//! **Restore-onto-twin contract.** A checkpoint does *not* carry the
//! immutable structure (trained weights, geometry, device corner,
//! config, seeds): restore applies the captured state onto a supervisor
//! built by the same deterministic constructor from the same inputs.
//! After [`Supervisor::restore`](crate::Supervisor::restore), any
//! sequence of `step` / `serve_predict` / scrub calls is **bit-identical**
//! to the uninterrupted original — outputs, RNG stream positions, and
//! energy tallies alike. The round-trip battery below proves this over
//! geometry × defects × spares × aging × latched-tier corners.
//!
//! **Wire format.** The hand-rolled JSON layer ([`crate::json`])
//! carries the payload under a versioned header:
//!
//! ```json
//! {"format": "neuspin-checkpoint", "version": 1,
//!  "checksum": "<fnv1a-64 hex of the payload serialization>",
//!  "payload": {...}}
//! ```
//!
//! Every captured type has one private `Wire` impl that both writes and
//! reads it, and a struct-shaped state lists its fields once for both
//! directions. `f64`/`f32` fields ride the writer's shortest-round-trip
//! `Display` (bit-exact both ways); `u64` fields are hex *strings*
//! because a JSON number is an f64 and counters can exceed 2⁵³; `usize`
//! fields decode only from a non-negative integer below 2⁵³. Decoding
//! rejects unknown formats, version skew, checksum mismatches and
//! ill-typed fields with a typed [`CheckpointError`], and restore
//! imports into copies it swaps in only when every part fits the die:
//! a truncated, bit-rotted or foreign checkpoint is refused, never
//! half-applied (the seeded mutation battery below holds
//! `restore_from_str` to that).

use crate::blocks::{BlockState, FeatureStats};
use crate::health::MonitorState;
use crate::json::{parse, Json};
use crate::model::ModelState;
use crate::runtime::{RecoveryAction, RecoveryEvent};
use crate::HealthPolicy;
use neuspin_cim::{
    AgingHookState, ArbiterState, CrossbarState, MlcCrossbarState, OpCounter, SpareColumnState,
    XnorCellState,
};
use neuspin_device::{AgingSnapshot, DefectKind, SpinRngState};
use neuspin_energy::Joules;
use neuspin_nn::Tensor;
use std::fmt;

/// The header's format discriminator.
pub const FORMAT: &str = "neuspin-checkpoint";
/// The current checkpoint format version.
pub const VERSION: u64 = 1;

/// FNV-1a 64-bit hash — the checkpoint content checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Why a checkpoint was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Not parseable as a checkpoint (bad JSON, missing or ill-typed
    /// fields), or a state that does not fit the die it was restored
    /// onto.
    Malformed(String),
    /// The `format` discriminator names something else.
    FormatMismatch(String),
    /// The format version is not [`VERSION`].
    VersionMismatch {
        /// The version the header claimed.
        found: u64,
    },
    /// The payload does not hash to the header checksum (truncation or
    /// bit rot).
    ChecksumMismatch {
        /// The checksum the header claimed.
        expected: String,
        /// The checksum of the payload as received.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::FormatMismatch(found) => {
                write!(f, "not a {FORMAT} document (format: {found:?})")
            }
            CheckpointError::VersionMismatch { found } => {
                write!(f, "checkpoint version {found} unsupported (expected {VERSION})")
            }
            CheckpointError::ChecksumMismatch { expected, found } => {
                write!(f, "checkpoint checksum mismatch: header {expected}, payload {found}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

type R<T> = Result<T, CheckpointError>;

fn bad(why: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(why.into())
}

/// The decoded supervisor payload — see the module docs for what is
/// (and deliberately is not) captured.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SupervisorState {
    pub(crate) model: ModelState,
    pub(crate) monitor: MonitorState,
    pub(crate) calib: Tensor,
    pub(crate) now_hours: f64,
    pub(crate) last_scrub_hours: f64,
    pub(crate) step: usize,
    pub(crate) engaged_tier: HealthPolicy,
    pub(crate) commissioned: bool,
    pub(crate) events: Vec<RecoveryEvent>,
}

/// A verified, decoded die checkpoint, ready for
/// [`Supervisor::restore`](crate::Supervisor::restore).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub(crate) state: SupervisorState,
}

impl Checkpoint {
    /// Parses and verifies a serialized checkpoint: format, version,
    /// then the payload checksum, then the payload itself.
    pub fn decode(text: &str) -> R<Checkpoint> {
        let root =
            parse(text).map_err(|e| bad(format!("JSON parse error at byte {}", e.offset)))?;
        let format: String = get(&root, "format")?;
        if format != FORMAT {
            return Err(CheckpointError::FormatMismatch(format));
        }
        let version = get::<usize>(&root, "version")? as u64;
        if version != VERSION {
            return Err(CheckpointError::VersionMismatch { found: version });
        }
        let expected: String = get(&root, "checksum")?;
        let payload = root.get("payload").ok_or_else(|| bad("missing field 'payload'"))?;
        let found = format!("{:016x}", fnv1a(payload.to_string().as_bytes()));
        if expected != found {
            return Err(CheckpointError::ChecksumMismatch { expected, found });
        }
        Ok(Checkpoint { state: SupervisorState::take(payload, "payload")? })
    }

    /// Serializes a supervisor state under the versioned, checksummed
    /// header. Byte-deterministic: the same state always produces the
    /// same string.
    pub(crate) fn encode_state(state: &SupervisorState) -> String {
        let payload = state.put();
        let checksum = format!("{:016x}", fnv1a(payload.to_string().as_bytes()));
        Json::obj([
            ("format", Json::Str(FORMAT.to_string())),
            ("version", Json::Num(VERSION as f64)),
            ("checksum", Json::Str(checksum)),
            ("payload", payload),
        ])
        .to_string()
    }
}

/// One captured type's checkpoint representation, written once for
/// both directions. `at` names the value (its member key) in decode
/// errors.
trait Wire: Sized {
    fn put(&self) -> Json;
    fn take(v: &Json, at: &str) -> R<Self>;
}

/// Decodes member `key` of the object `v`.
fn get<T: Wire>(v: &Json, key: &str) -> R<T> {
    T::take(v.get(key).ok_or_else(|| bad(format!("missing field '{key}'")))?, key)
}

/// Encodes `x` by its type's own [`Wire`] codec.
fn put<T: Wire>(x: &T) -> Json {
    x.put()
}

/// A threshold that `f64::INFINITY` disables (the
/// [`HealthConfig`](crate::HealthConfig) default for abstention): the
/// JSON writer emits finite numbers only, so +∞ is written as `null`,
/// and only a field read through this codec decodes `null`, as +∞.
mod infinite_as_null {
    use super::{Json, Wire, R};

    pub(super) fn put(x: &f64) -> Json {
        if *x == f64::INFINITY {
            Json::Null
        } else {
            x.put()
        }
    }

    pub(super) fn get(v: &Json, key: &str) -> R<f64> {
        Ok(super::get::<Option<f64>>(v, key)?.unwrap_or(f64::INFINITY))
    }
}

/// Implements [`Wire`] for a struct as a JSON object of the listed
/// fields, in order, each under its own name or an `as` key, and
/// through its type's codec or a `via` module's `put` and `get`. The
/// struct literal in `take` does not compile unless every field is
/// listed; a trailing `check f` runs `f` over the decoded value.
macro_rules! wire_record {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (
        $ty:ident { $($field:ident $(as $key:literal)? $(via $via:ident)?),+ $(,)? }
        $(check $check:ident)?
    ) => {
        impl Wire for $ty {
            fn put(&self) -> Json {
                Json::obj([$((wire_record!(@key $field $($key)?), $($via::)?put(&self.$field))),+])
            }

            fn take(v: &Json, _: &str) -> R<Self> {
                let state =
                    $ty { $($field: $($via::)?get(v, wire_record!(@key $field $($key)?))?),+ };
                $($check(&state)?;)?
                Ok(state)
            }
        }
    };
}

// ---------------------------------------------------------------------
// Scalars, containers and leaf enums.

impl Wire for f64 {
    fn put(&self) -> Json {
        Json::Num(*self)
    }

    fn take(v: &Json, at: &str) -> R<f64> {
        v.as_f64().ok_or_else(|| bad(format!("'{at}' is not a number")))
    }
}

/// Written as an f64 (exact); a value past f32's range is refused
/// rather than decoded to an infinity the writer cannot emit.
impl Wire for f32 {
    fn put(&self) -> Json {
        Json::Num(f64::from(*self))
    }

    fn take(v: &Json, at: &str) -> R<f32> {
        let x = f64::take(v, at)? as f32;
        if x.is_finite() {
            Ok(x)
        } else {
            Err(bad(format!("'{at}' is out of f32 range")))
        }
    }
}

/// A JSON number, decoded only from a non-negative integer below 2⁵³
/// (past which an f64 skips integers).
impl Wire for usize {
    fn put(&self) -> Json {
        Json::Num(*self as f64)
    }

    fn take(v: &Json, at: &str) -> R<usize> {
        match v.as_f64() {
            Some(x) if x >= 0.0 && x.fract() == 0.0 && x < 9_007_199_254_740_992.0 => {
                Ok(x as usize)
            }
            _ => Err(bad(format!("'{at}' is not an index below 2^53"))),
        }
    }
}

/// A lower-case hex string, exact over the whole range.
impl Wire for u64 {
    fn put(&self) -> Json {
        Json::Str(format!("{self:x}"))
    }

    fn take(v: &Json, at: &str) -> R<u64> {
        v.as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| bad(format!("'{at}' is not a hex u64")))
    }
}

impl Wire for bool {
    fn put(&self) -> Json {
        Json::Bool(*self)
    }

    fn take(v: &Json, at: &str) -> R<bool> {
        v.as_bool().ok_or_else(|| bad(format!("'{at}' is not a bool")))
    }
}

impl Wire for String {
    fn put(&self) -> Json {
        Json::Str(self.clone())
    }

    fn take(v: &Json, at: &str) -> R<String> {
        v.as_str().map(str::to_string).ok_or_else(|| bad(format!("'{at}' is not a string")))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self) -> Json {
        Json::Arr(self.iter().map(Wire::put).collect())
    }

    fn take(v: &Json, at: &str) -> R<Vec<T>> {
        let items = v.as_arr().ok_or_else(|| bad(format!("'{at}' is not an array")))?;
        items.iter().map(|x| T::take(x, at)).collect()
    }
}

/// `null` when absent.
impl<T: Wire> Wire for Option<T> {
    fn put(&self) -> Json {
        self.as_ref().map_or(Json::Null, Wire::put)
    }

    fn take(v: &Json, at: &str) -> R<Option<T>> {
        match v {
            Json::Null => Ok(None),
            _ => T::take(v, at).map(Some),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self) -> Json {
        Json::Arr(vec![self.0.put(), self.1.put()])
    }

    fn take(v: &Json, at: &str) -> R<(A, B)> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::take(a, at)?, B::take(b, at)?)),
            _ => Err(bad(format!("'{at}' is not a 2-element array"))),
        }
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self) -> Json {
        Json::Arr(vec![self.0.put(), self.1.put(), self.2.put()])
    }

    fn take(v: &Json, at: &str) -> R<(A, B, C)> {
        match v.as_arr() {
            Some([a, b, c]) => Ok((A::take(a, at)?, B::take(b, at)?, C::take(c, at)?)),
            _ => Err(bad(format!("'{at}' is not a 3-element array"))),
        }
    }
}

/// Its [`DefectKind::index`].
impl Wire for DefectKind {
    fn put(&self) -> Json {
        self.index().put()
    }

    fn take(v: &Json, at: &str) -> R<DefectKind> {
        let i = usize::take(v, at)?;
        DefectKind::ALL
            .get(i)
            .copied()
            .ok_or_else(|| bad(format!("'{at}' defect kind {i} is out of range")))
    }
}

/// Its [`HealthPolicy::tier_index`].
impl Wire for HealthPolicy {
    fn put(&self) -> Json {
        (self.tier_index() as usize).put()
    }

    fn take(v: &Json, at: &str) -> R<HealthPolicy> {
        let tier = usize::take(v, at)?;
        let policy = HealthPolicy::from_tier_index(u32::try_from(tier).unwrap_or(u32::MAX));
        if policy.tier_index() as usize == tier {
            Ok(policy)
        } else {
            Err(bad(format!("'{at}' tier {tier} is out of range")))
        }
    }
}

/// Its `Display` name.
impl Wire for RecoveryAction {
    fn put(&self) -> Json {
        Json::Str(self.to_string())
    }

    fn take(v: &Json, at: &str) -> R<RecoveryAction> {
        let name = String::take(v, at)?;
        [
            RecoveryAction::Scrub,
            RecoveryAction::Recalibrate,
            RecoveryAction::RemapTier,
            RecoveryAction::Abstain,
        ]
        .into_iter()
        .find(|a| a.to_string() == name)
        .ok_or_else(|| bad(format!("unknown recovery action '{name}'")))
    }
}

impl Wire for Joules {
    fn put(&self) -> Json {
        self.0.put()
    }

    fn take(v: &Json, at: &str) -> R<Joules> {
        f64::take(v, at).map(Joules)
    }
}

// ---------------------------------------------------------------------
// The captured state types, leaves first.

wire_record!(OpCounter {
    cell_reads, cell_writes, sa_evals, adc_converts, adc_saturations, rng_bits, sram_accesses,
    digital_ops,
});
wire_record!(SpinRngState { bias_current, target_p, bits_generated });
wire_record!(XnorCellState {
    plus_levels, minus_levels, sign, plus_defect, minus_defect, reference,
});
wire_record!(AgingSnapshot { now_hours, epoch, cum_writes, lifetimes, drift, worn });
wire_record!(AgingHookState { aging, golden, seen_reads, seen_writes });
wire_record!(SpareColumnState { cells, used });
wire_record!(CrossbarState {
    cells, eff, row_enabled, counter, defects, spares, row_src, col_src, margin_sum, margin_count,
    packed_calls, aging,
} check defects_in_geometry);
wire_record!(MlcCrossbarState { eff, row_enabled, counter, margin_sum, margin_count });
wire_record!(ArbiterState { bit_sources, bits_used });
wire_record!(ModelState { blocks, baseline, extra });
wire_record!(MonitorState {
    abstain_entropy via infinite_as_null,
    window,
    baseline,
    latched,
    pending,
    pending_count,
});
wire_record!(RecoveryEvent {
    at_hours, step, action, policy, cells_refreshed, flagged, repaired, energy as "energy_j",
});

/// Bounds every defect coordinate by the geometry the state itself
/// carries (rows = `row_enabled.len()`, cols = `cells.len() / rows`).
fn defects_in_geometry(s: &CrossbarState) -> R<()> {
    let rows = s.row_enabled.len();
    let cols = s.cells.len().checked_div(rows).unwrap_or(0);
    match s.defects.iter().position(|&(r, c, _)| r >= rows || c >= cols) {
        Some(i) => Err(bad(format!("defect {i} is not an index below ({rows}, {cols})"))),
        None => Ok(()),
    }
}

/// Tagged by a `"kind"` member; a norm block flattens its
/// [`FeatureStats`] into `stats_count` / `stats_mean` / `stats_m2`.
impl Wire for BlockState {
    fn put(&self) -> Json {
        let (kind, fields) = match self {
            BlockState::Conv { xbar, local } => {
                ("conv", vec![("xbar", xbar.put()), ("local", local.put())])
            }
            BlockState::Fc { xbar, local } => {
                ("fc", vec![("xbar", xbar.put()), ("local", local.put())])
            }
            BlockState::FcSpinBayes { xbars, arbiter, local } => (
                "fc_spinbayes",
                vec![("xbars", xbars.put()), ("arbiter", arbiter.put()), ("local", local.put())],
            ),
            BlockState::DigitalFc { local } => ("digital_fc", vec![("local", local.put())]),
            BlockState::Norm { mean, var, stats, local } => (
                "norm",
                vec![
                    ("mean", mean.put()),
                    ("var", var.put()),
                    ("stats_count", stats.count.put()),
                    ("stats_mean", stats.mean.put()),
                    ("stats_m2", stats.m2.put()),
                    ("local", local.put()),
                ],
            ),
            BlockState::InvNorm { modules, local } => {
                ("inv_norm", vec![("modules", modules.put()), ("local", local.put())])
            }
            BlockState::DropPerNeuron { modules } => {
                ("drop_per_neuron", vec![("modules", modules.put())])
            }
            BlockState::DropPerChannel { modules } => {
                ("drop_per_channel", vec![("modules", modules.put())])
            }
            BlockState::DropScale { module, local } => {
                ("drop_scale", vec![("module", module.put()), ("local", local.put())])
            }
            BlockState::DropViScale { local } => ("drop_vi_scale", vec![("local", local.put())]),
            BlockState::Stateless => ("stateless", vec![]),
        };
        Json::obj(std::iter::once(("kind", Json::Str(kind.to_string()))).chain(fields))
    }

    fn take(v: &Json, _: &str) -> R<BlockState> {
        Ok(match get::<String>(v, "kind")?.as_str() {
            "conv" => BlockState::Conv { xbar: get(v, "xbar")?, local: get(v, "local")? },
            "fc" => BlockState::Fc { xbar: get(v, "xbar")?, local: get(v, "local")? },
            "fc_spinbayes" => BlockState::FcSpinBayes {
                xbars: get(v, "xbars")?,
                arbiter: get(v, "arbiter")?,
                local: get(v, "local")?,
            },
            "digital_fc" => BlockState::DigitalFc { local: get(v, "local")? },
            "norm" => BlockState::Norm {
                mean: get(v, "mean")?,
                var: get(v, "var")?,
                stats: FeatureStats {
                    count: get(v, "stats_count")?,
                    mean: get(v, "stats_mean")?,
                    m2: get(v, "stats_m2")?,
                },
                local: get(v, "local")?,
            },
            "inv_norm" => {
                BlockState::InvNorm { modules: get(v, "modules")?, local: get(v, "local")? }
            }
            "drop_per_neuron" => BlockState::DropPerNeuron { modules: get(v, "modules")? },
            "drop_per_channel" => BlockState::DropPerChannel { modules: get(v, "modules")? },
            "drop_scale" => {
                BlockState::DropScale { module: get(v, "module")?, local: get(v, "local")? }
            }
            "drop_vi_scale" => BlockState::DropViScale { local: get(v, "local")? },
            "stateless" => BlockState::Stateless,
            other => return Err(bad(format!("unknown block kind '{other}'"))),
        })
    }
}

/// The calibration tensor rides as `calib_shape` plus `calib_data`.
impl Wire for SupervisorState {
    fn put(&self) -> Json {
        Json::obj([
            ("model", self.model.put()),
            ("monitor", self.monitor.put()),
            ("calib_shape", Json::Arr(self.calib.shape().iter().map(Wire::put).collect())),
            ("calib_data", Json::Arr(self.calib.as_slice().iter().map(Wire::put).collect())),
            ("now_hours", self.now_hours.put()),
            ("last_scrub_hours", self.last_scrub_hours.put()),
            ("step", self.step.put()),
            ("engaged_tier", self.engaged_tier.put()),
            ("commissioned", self.commissioned.put()),
            ("events", self.events.put()),
        ])
    }

    fn take(v: &Json, _: &str) -> R<SupervisorState> {
        let shape: Vec<usize> = get(v, "calib_shape")?;
        let data: Vec<f32> = get(v, "calib_data")?;
        if shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) != Some(data.len()) {
            return Err(bad(format!(
                "calib tensor shape {:?} does not match {} data elements",
                shape,
                data.len()
            )));
        }
        Ok(SupervisorState {
            model: get(v, "model")?,
            monitor: get(v, "monitor")?,
            calib: Tensor::from_vec(data, &shape),
            now_hours: get(v, "now_hours")?,
            last_scrub_hours: get(v, "last_scrub_hours")?,
            step: get(v, "step")?,
            engaged_tier: get(v, "engaged_tier")?,
            commissioned: get(v, "commissioned")?,
            events: get(v, "events")?,
        })
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::model::{HardwareConfig, HardwareModel};
    use crate::runtime::{Supervisor, SupervisorConfig};
    use crate::testutil::{small_commissioned_supervisor, small_inputs};
    use neuspin_bayes::{build_cnn, ArchConfig, Method, Predictive};
    use neuspin_cim::{BistConfig, CrossbarConfig};
    use neuspin_device::{AgingConfig, DefectRates};
    use rand::rngs::StdRng;
    use rand::{SeedableRng, SplitMix64};

    fn assert_pred_eq(a: &Predictive, b: &Predictive, label: &str) {
        assert_eq!(a.passes, b.passes, "{label}: pass count diverged");
        assert_eq!(a.mean_probs.shape(), b.mean_probs.shape(), "{label}: shape diverged");
        for (x, y) in a.mean_probs.as_slice().iter().zip(b.mean_probs.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: mean_probs diverged");
        }
        for (x, y) in a.entropy.iter().zip(&b.entropy) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: entropy diverged");
        }
        for (x, y) in a.mutual_information.iter().zip(&b.mutual_information) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: MI diverged");
        }
        for (x, y) in a.variance.iter().zip(&b.variance) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: variance diverged");
        }
    }

    #[derive(Clone, Copy)]
    struct Case {
        seed: u64,
        hidden: usize,
        defects: bool,
        spares: usize,
        /// 0 = fresh (one served batch), 1 = aged (scheduled scrubs),
        /// 2 = stressed (hair-trigger health ladder, heavy aging).
        schedule: u8,
    }

    /// The deterministic twin constructor: everything immutable about
    /// the die (weights, geometry, defects, spares, config, seeds) —
    /// and nothing mutable (no commissioning, no lifetime).
    fn build_die(case: &Case) -> Supervisor {
        build_method_die(Method::SpinDrop, case)
    }

    /// [`build_die`] for any method.
    fn build_method_die(method: Method, case: &Case) -> Supervisor {
        let arch = ArchConfig {
            c1: 2,
            c2: 4,
            hidden: case.hidden,
            classes: 4,
            side: 8,
            ..ArchConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(case.seed);
        let mut sw = build_cnn(method, &arch, &mut rng);
        let config = HardwareConfig {
            crossbar: CrossbarConfig {
                defect_rates: if case.defects {
                    DefectRates::uniform(0.002)
                } else {
                    DefectRates::none()
                },
                ..CrossbarConfig::ideal()
            },
            passes: 2,
            spare_cols: case.spares,
            ..HardwareConfig::default()
        };
        let mut hw = HardwareModel::compile(&mut sw, method, &arch, &config, &mut rng);
        if case.defects || case.spares > 0 {
            hw.fault_management(&BistConfig::default(), &mut rng);
        }
        hw.enable_aging(&AgingConfig { seed: case.seed ^ 0xA9, ..AgingConfig::default() });
        let health = if case.schedule == 2 {
            HealthConfig { entropy_slack: 1e-6, margin_slack: 1e-6, dwell: 1, ..HealthConfig::default() }
        } else {
            HealthConfig::default()
        };
        let scrub = if case.schedule == 1 { 60.0 } else { 0.0 };
        Supervisor::new(
            hw,
            SupervisorConfig {
                seed: case.seed,
                health,
                scrub_interval_hours: scrub,
                ..SupervisorConfig::default()
            },
        )
    }

    /// Commission + the case's lifetime schedule: the mutable history a
    /// checkpoint must carry.
    fn drive(sup: &mut Supervisor, case: &Case) {
        sup.commission(small_inputs(8, case.seed), &small_inputs(4, case.seed.wrapping_add(1)));
        let probe = small_inputs(3, case.seed ^ 0x77);
        match case.schedule {
            0 => {
                sup.serve_predict(&probe, case.seed ^ 0x51);
            }
            1 => {
                for _ in 0..3 {
                    sup.step(&probe, 40.0);
                }
            }
            _ => {
                for _ in 0..2 {
                    sup.step(&probe, 100.0);
                }
            }
        }
    }

    /// The 96-case round-trip battery: geometry × defects × spares ×
    /// lifetime schedule × seed. Each case drives a die through its
    /// schedule, checkpoints it, restores the checkpoint onto a fresh
    /// twin, and proves the two are bit-identical through three more
    /// supervisor operations (serve → age-step → serve) — outputs *and*
    /// full re-serialized state.
    #[test]
    fn battery_checkpoint_roundtrip_96() {
        let mut cases = 0usize;
        let mut latched = 0usize;
        for &hidden in &[12usize, 16] {
            for &defects in &[false, true] {
                for &spares in &[0usize, 2] {
                    for schedule in 0u8..3 {
                        for s in 0u64..4 {
                            cases += 1;
                            let seed = 0x5EED_0000u64
                                .wrapping_add((cases as u64).wrapping_mul(0x9D))
                                .wrapping_add(s);
                            let case = Case { seed, hidden, defects, spares, schedule };
                            let label = format!(
                                "case {cases} (seed {seed:#x} hidden {hidden} defects {defects} \
                                 spares {spares} schedule {schedule})"
                            );

                            let mut a = build_die(&case);
                            drive(&mut a, &case);
                            if a.policy() > crate::HealthPolicy::Healthy {
                                latched += 1;
                            }

                            let encoded = a.checkpoint();
                            let decoded = Checkpoint::decode(&encoded)
                                .unwrap_or_else(|e| panic!("{label}: decode failed: {e}"));
                            assert_eq!(
                                Checkpoint::encode_state(&decoded.state),
                                encoded,
                                "{label}: decode → re-encode is not byte-stable"
                            );

                            let mut b = build_die(&case);
                            b.restore(&decoded)
                                .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));

                            let probe = small_inputs(2, seed ^ 0x1111);
                            let ra = a.serve_predict(&probe, seed ^ 7);
                            let rb = b.serve_predict(&probe, seed ^ 7);
                            assert_pred_eq(&ra.predictive, &rb.predictive, &label);
                            let sa = a.step(&probe, 12.5);
                            let sb = b.step(&probe, 12.5);
                            assert_pred_eq(&sa.predictive, &sb.predictive, &label);
                            let ta = a.serve_predict(&probe, seed ^ 9);
                            let tb = b.serve_predict(&probe, seed ^ 9);
                            assert_pred_eq(&ta.predictive, &tb.predictive, &label);

                            assert_eq!(
                                a.checkpoint(),
                                b.checkpoint(),
                                "{label}: full state diverged after continuation"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 96);
        assert!(
            latched > 0,
            "battery never latched a degraded tier — the stressed schedule is toothless"
        );
    }

    /// Re-serializes a parsed checkpoint after mutating its top-level
    /// header pairs.
    fn tamper(encoded: &str, f: impl FnOnce(&mut Vec<(String, Json)>)) -> String {
        let mut root = parse(encoded).expect("donor checkpoint must parse");
        if let Json::Obj(ref mut pairs) = root {
            f(pairs);
        }
        root.to_string()
    }

    fn set_field(pairs: &mut [(String, Json)], key: &str, value: Json) {
        for (k, v) in pairs.iter_mut() {
            if k == key {
                *v = value;
                return;
            }
        }
        panic!("field '{key}' not found");
    }

    /// Re-serializes `encoded` after `edit` changes its payload, under
    /// the checksum the edited payload hashes to.
    fn rehashed(encoded: &str, edit: impl FnOnce(&mut Json)) -> String {
        tamper(encoded, |p| {
            let payload = &mut p.iter_mut().find(|(k, _)| k == "payload").expect("payload").1;
            edit(payload);
            let checksum = checksum_of(&payload.to_string());
            set_field(p, "checksum", Json::Str(checksum));
        })
    }

    fn checksum_of(payload: &str) -> String {
        format!("{:016x}", fnv1a(payload.as_bytes()))
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(matches!(
            Checkpoint::decode("not json at all"),
            Err(CheckpointError::Malformed(_))
        ));
        let encoded = small_commissioned_supervisor(7).checkpoint();
        assert!(matches!(
            Checkpoint::decode(&encoded[..encoded.len() - 8]),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn decode_rejects_wrong_format_and_version() {
        let encoded = small_commissioned_supervisor(8).checkpoint();
        let wrong_format =
            tamper(&encoded, |p| set_field(p, "format", Json::Str("neuspin-bench".into())));
        assert!(matches!(
            Checkpoint::decode(&wrong_format),
            Err(CheckpointError::FormatMismatch(f)) if f == "neuspin-bench"
        ));
        let wrong_version = tamper(&encoded, |p| set_field(p, "version", Json::Num(2.0)));
        assert!(matches!(
            Checkpoint::decode(&wrong_version),
            Err(CheckpointError::VersionMismatch { found: 2 })
        ));
    }

    #[test]
    fn decode_rejects_payload_bit_rot() {
        let encoded = small_commissioned_supervisor(9).checkpoint();
        // Flip one payload field without updating the checksum: the
        // document still parses, but the content hash must catch it.
        let rotted = tamper(&encoded, |p| {
            for (k, v) in p.iter_mut() {
                if k == "payload" {
                    if let Json::Obj(ref mut fields) = v {
                        set_field(fields, "commissioned", Json::Bool(false));
                    }
                }
            }
        });
        assert!(matches!(
            Checkpoint::decode(&rotted),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn decode_rejects_missing_payload_field_even_with_valid_checksum() {
        let encoded = small_commissioned_supervisor(10).checkpoint();
        let gutted = rehashed(&encoded, |payload| {
            if let Json::Obj(fields) = payload {
                fields.retain(|(k, _)| k != "step");
            }
        });
        assert!(matches!(
            Checkpoint::decode(&gutted),
            Err(CheckpointError::Malformed(m)) if m.contains("step")
        ));
    }

    #[test]
    fn failed_restore_leaves_the_supervisor_untouched() {
        let mut sup = small_commissioned_supervisor(12);
        let before = sup.checkpoint();
        let err = sup.restore_from_str("{\"format\": \"junk\"}");
        assert!(err.is_err());
        assert_eq!(sup.checkpoint(), before, "failed restore must not mutate state");
    }

    /// Pushes `triple` onto the first `defects` array found depth-first.
    fn push_first_defect(v: &mut Json, triple: &Json) -> bool {
        match v {
            Json::Obj(pairs) => pairs.iter_mut().any(|(k, child)| match child {
                Json::Arr(items) if k == "defects" => {
                    items.push(triple.clone());
                    true
                }
                _ => push_first_defect(child, triple),
            }),
            Json::Arr(items) => items.iter_mut().any(|child| push_first_defect(child, triple)),
            _ => false,
        }
    }

    #[test]
    fn restore_rejects_out_of_range_defect_under_valid_checksum() {
        let donor = small_commissioned_supervisor(12).checkpoint();
        let bad_triples = [
            [9999.0, 0.0, 0.0],
            [0.0, 9999.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.5, 0.0, 0.0],
        ];
        for coords in bad_triples {
            let triple = Json::Arr(coords.iter().map(|&x| Json::Num(x)).collect());
            let tampered = rehashed(&donor, |payload| {
                assert!(push_first_defect(payload, &triple), "no defects array in the payload");
            });
            // A diverged twin: the same die, one served batch further on.
            let mut twin = small_commissioned_supervisor(12);
            twin.serve_predict(&small_inputs(2, 5), 3);
            let before = twin.checkpoint();
            let err = twin.restore_from_str(&tampered);
            let rejected = matches!(
                err,
                Err(CheckpointError::Malformed(ref m)) if m.contains("is not an index below")
            );
            assert!(rejected, "{coords:?}: want Malformed, got {err:?}");
            assert_eq!(twin.checkpoint(), before, "{coords:?}: failed restore mutated state");
        }
    }

    #[test]
    fn periodic_checkpointing_tracks_the_interval() {
        let mut sup = small_commissioned_supervisor(13);
        assert!(sup.last_checkpoint().is_none(), "interval 0 must disable checkpointing");
        sup.serve_predict(&small_inputs(2, 1), 5);
        assert!(sup.last_checkpoint().is_none());

        let case = Case { seed: 0xCAFE, hidden: 12, defects: false, spares: 0, schedule: 0 };
        let config = SupervisorConfig {
            seed: case.seed,
            checkpoint_interval_steps: 2,
            ..SupervisorConfig::default()
        };
        let mut periodic = Supervisor::new(build_die(&case).into_model(), config);
        periodic.commission(small_inputs(8, case.seed), &small_inputs(4, case.seed + 1));
        let probe = small_inputs(2, 3);
        periodic.serve_predict(&probe, 11); // step 1: no checkpoint
        assert!(periodic.last_checkpoint().is_none());
        periodic.serve_predict(&probe, 12); // step 2: checkpoint
        let first = periodic.last_checkpoint().expect("step 2 must checkpoint").to_string();
        Checkpoint::decode(&first).expect("periodic checkpoint must decode");
        periodic.serve_predict(&probe, 13); // step 3: retained
        assert_eq!(periodic.last_checkpoint(), Some(first.as_str()));
        periodic.serve_predict(&probe, 14); // step 4: refreshed
        let second = periodic.last_checkpoint().expect("step 4 must checkpoint");
        assert_ne!(second, first, "step counter advanced, so the checkpoint must differ");
    }

    /// The fleet rejoin property: a BIST audit on a restored die leaves
    /// its predictions bit-identical to the uninterrupted original (the
    /// march test restores array contents exactly), and a healthy die
    /// passes the gate.
    #[test]
    fn bist_gate_passes_and_preserves_predictions_after_restore() {
        let case = Case { seed: 0xB157, hidden: 16, defects: true, spares: 2, schedule: 1 };
        let mut original = build_die(&case);
        drive(&mut original, &case);
        let encoded = original.checkpoint();

        let mut twin = build_die(&case);
        twin.restore_from_str(&encoded).expect("restore");
        let gate = twin.bist_gate();
        assert!(gate.passed, "healthy restored die must pass the gate: {:?}", gate.layers);
        assert!(!gate.layers.is_empty());

        let probe = small_inputs(3, 0xF00D);
        for round in 0..2u64 {
            let a = original.serve_predict(&probe, 0x9A + round);
            let b = twin.serve_predict(&probe, 0x9A + round);
            assert_pred_eq(&a.predictive, &b.predictive, &format!("post-gate round {round}"));
        }
    }

    /// fnv1a digests of whole checkpoints: a SpinDrop grid (defects ×
    /// spares × lifetime schedule) and one commissioned, stepped and
    /// served die per method, which between them write every captured
    /// type. A change to any field's name, order or representation
    /// moves a digest here — and must come with a new [`VERSION`].
    #[rustfmt::skip]
    const WIRE_DIGESTS: [u64; 19] = [
        0x49517058eca489fb, 0x62d56655ed47dbcd, 0x3224cd9ec4d96d1b, 0xafa0ccff3dd3a1df,
        0x38acfcec8451a3f6, 0x56e25ac67d66a1d1, 0x0afc24ae58361ed2, 0x900d712ac1ad08d1,
        0xc969d8f1e68b0e6e, 0xfb406fd6d5c22876, 0xb56b4e8a4b74db45, 0x05aff2ff2121ea2f,
        0xcc3e2828c49128ca, 0x83f8af948f1ad82c, 0x914f97ad5c6f7d48, 0x4163d35ed0cfc555,
        0x2996692f3d76a69d, 0x6fe7455808e17f09, 0x85aa2225c754aad6,
    ];

    #[test]
    fn checkpoint_bytes_match_the_pinned_digests() {
        let mut got = Vec::new();
        for defects in [false, true] {
            for spares in [0usize, 2] {
                for schedule in 0u8..3 {
                    let seed = 0xD16E_5700 + got.len() as u64;
                    let case = Case { seed, hidden: 12, defects, spares, schedule };
                    let mut die = build_die(&case);
                    drive(&mut die, &case);
                    got.push(fnv1a(die.checkpoint().as_bytes()));
                }
            }
        }
        for method in Method::ALL {
            let case = Case { seed: 0x3E70D, hidden: 16, defects: true, spares: 2, schedule: 1 };
            let mut die = build_method_die(method, &case);
            drive(&mut die, &case);
            die.serve_predict(&small_inputs(2, 0x5E), 0x5E);
            got.push(fnv1a(die.checkpoint().as_bytes()));
        }
        assert_eq!(VERSION, 1);
        assert_eq!(got, WIRE_DIGESTS, "checkpoint bytes moved; now {got:#018x?}");
    }

    /// A die that was never commissioned still has abstention disabled
    /// (+∞, which the JSON writer cannot emit as a number): its
    /// checkpoint writes the threshold as `null` and restores it as +∞.
    #[test]
    fn uncommissioned_die_checkpoints_its_disabled_threshold() {
        let case = Case { seed: 0x1DF, hidden: 12, defects: false, spares: 0, schedule: 0 };
        let die = build_die(&case);
        assert_eq!(die.abstain_threshold(), f64::INFINITY);
        let text = die.checkpoint();
        let mut twin = build_die(&case);
        twin.restore_from_str(&text).expect("restore an uncommissioned checkpoint");
        assert_eq!(twin.abstain_threshold(), f64::INFINITY);
        assert_eq!(twin.checkpoint(), text, "the twin must re-export byte-equal");
    }

    /// `member` of the object `v`, for editing.
    fn member<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
        match v {
            Json::Obj(pairs) => {
                &mut pairs.iter_mut().find(|(k, _)| k == key).expect("no such member").1
            }
            _ => panic!("'{key}': not an object"),
        }
    }

    fn items(v: &mut Json) -> &mut Vec<Json> {
        match v {
            Json::Arr(items) => items,
            _ => panic!("not an array"),
        }
    }

    fn kind_of(block: &Json) -> &str {
        block.get("kind").and_then(Json::as_str).unwrap_or("")
    }

    /// Restores `text` onto a diverged twin (the same die, one served
    /// batch further on) and requires a `Malformed` refusal that leaves
    /// the twin's state byte-equal and the twin able to serve.
    fn assert_refused_whole(text: &str, label: &str) {
        let mut twin = small_commissioned_supervisor(12);
        twin.serve_predict(&small_inputs(2, 5), 3);
        let before = twin.checkpoint();
        let err = twin.restore_from_str(text);
        assert!(matches!(err, Err(CheckpointError::Malformed(_))), "{label}: got {err:?}");
        assert_eq!(twin.checkpoint(), before, "{label}: failed restore mutated state");
        twin.serve_predict(&small_inputs(2, 6), 4);
    }

    /// Edits the donor's pipeline block states under a valid checksum.
    fn with_blocks(edit: impl FnOnce(&mut Vec<Json>)) -> String {
        let donor = small_commissioned_supervisor(12).checkpoint();
        rehashed(&donor, |payload| edit(items(member(member(payload, "model"), "blocks"))))
    }

    #[test]
    fn restore_refuses_a_short_crossbar_without_touching_earlier_blocks() {
        let text = with_blocks(|blocks| {
            let last = blocks.iter_mut().rfind(|b| matches!(kind_of(b), "conv" | "fc"));
            items(member(member(last.expect("a crossbar block"), "xbar"), "eff")).pop();
        });
        assert_refused_whole(&text, "last crossbar's eff one short");
    }

    #[test]
    fn restore_refuses_a_dropout_block_missing_a_module() {
        let text = with_blocks(|blocks| {
            let first = blocks.iter_mut().find(|b| kind_of(b).starts_with("drop_per"));
            items(member(first.expect("a dropout block"), "modules")).pop();
        });
        assert_refused_whole(&text, "first dropout block one module short");
    }

    #[test]
    fn restore_refuses_norm_statistics_shorter_than_the_layer() {
        let text = with_blocks(|blocks| {
            let norm = blocks.iter_mut().find(|b| kind_of(b) == "norm");
            items(member(norm.expect("a norm block"), "mean")).pop();
        });
        assert_refused_whole(&text, "norm mean one short");
    }

    /// `1e999` overflows f64: the parser refuses it instead of handing
    /// the checksum pass an infinity the writer cannot serialize.
    #[test]
    fn restore_refuses_a_number_past_f64_range() {
        let donor = small_commissioned_supervisor(12).checkpoint();
        let at = donor.find("\"eff\":[").expect("an eff array") + "\"eff\":[".len();
        let end = at + donor[at..].find([',', ']']).expect("an eff value");
        let edited = format!("{}1e999{}", &donor[..at], &donor[end..]);
        assert_refused_whole(&edited, "first eff value 1e999");
    }

    /// An f32 field holding a finite f64 past f32's range used to decode
    /// to an infinity, and the restored die could no longer write its
    /// own checkpoint.
    #[test]
    fn restore_refuses_an_f32_field_past_f32_range() {
        let text = with_blocks(|blocks| {
            let norm = blocks.iter_mut().find(|b| kind_of(b) == "norm");
            items(member(norm.expect("a norm block"), "var"))[0] = Json::Num(1e300);
        });
        assert_refused_whole(&text, "norm var 1e300");
    }

    /// A fresh twin as far as commissioning: until then its monitor's
    /// abstention threshold is +∞, which no checkpoint can carry.
    fn commissioned_twin(case: &Case) -> Supervisor {
        let mut twin = build_die(case);
        twin.commission(small_inputs(8, case.seed), &small_inputs(4, case.seed.wrapping_add(1)));
        twin
    }

    /// `DefectMap` used to merge a repeated defect triple, so the
    /// restored die re-exported a different state than the one it
    /// accepted.
    #[test]
    fn restore_refuses_a_repeated_defect() {
        let case = Case { seed: 0xDEF, hidden: 12, defects: true, spares: 0, schedule: 0 };
        let mut donor = build_die(&case);
        drive(&mut donor, &case);
        let text = rehashed(&donor.checkpoint(), |payload| {
            let blocks = items(member(member(payload, "model"), "blocks"));
            let defects = blocks
                .iter_mut()
                .filter(|b| matches!(kind_of(b), "conv" | "fc"))
                .map(|b| items(member(member(b, "xbar"), "defects")))
                .find(|d| !d.is_empty())
                .expect("a defective crossbar");
            defects.push(defects[0].clone());
        });
        let mut twin = commissioned_twin(&case);
        let before = twin.checkpoint();
        let err = twin.restore_from_str(&text);
        assert!(matches!(err, Err(CheckpointError::Malformed(ref m)) if m.contains("defect list")));
        assert_eq!(twin.checkpoint(), before, "failed restore mutated state");
    }

    /// The placeholder a scalar mutation writes before the token
    /// replaces it at the text level.
    const MARK: &str = "\u{1}mutant";
    /// Tokens a scalar is replaced with; `1e999` has no finite value,
    /// so no checksum can be recomputed over it.
    const TOKENS: [&str; 6] = ["\"x\"", "null", "-1", "0.5", "1e300", "1e999"];
    const KINDS: [&str; 11] = [
        "conv",
        "fc",
        "fc_spinbayes",
        "digital_fc",
        "norm",
        "inv_norm",
        "drop_per_neuron",
        "drop_per_channel",
        "drop_scale",
        "drop_vi_scale",
        "stateless",
    ];

    fn below(rng: &mut SplitMix64, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    fn children(v: &Json) -> usize {
        match v {
            Json::Obj(pairs) => pairs.len(),
            Json::Arr(items) => items.len(),
            _ => 0,
        }
    }

    fn child(v: &Json, i: usize) -> &Json {
        match v {
            Json::Obj(pairs) => &pairs[i].1,
            Json::Arr(items) => &items[i],
            _ => unreachable!("scalars have no children"),
        }
    }

    fn child_mut(v: &mut Json, i: usize) -> &mut Json {
        match v {
            Json::Obj(pairs) => &mut pairs[i].1,
            Json::Arr(items) => &mut items[i],
            _ => unreachable!("scalars have no children"),
        }
    }

    /// The index of member `key` in the object `v`.
    fn position(v: &Json, key: &str) -> usize {
        let Json::Obj(pairs) = v else { panic!("'{key}': not an object") };
        pairs.iter().position(|(k, _)| k == key).expect("no such member")
    }

    /// A random walk down to a leaf: the child index taken at each
    /// level, and how many of them lead to the walk's start. A third of
    /// the walks start at the root, a third in a random pipeline block
    /// and a third in a random crossbar, where most of the state lives.
    fn walk(root: &Json, rng: &mut SplitMix64) -> (Vec<usize>, usize) {
        let mut path = Vec::new();
        let start = below(rng, 3);
        if start > 0 {
            let model = position(root, "model");
            let blocks_at = position(child(root, model), "blocks");
            let blocks = child(child(root, model), blocks_at);
            let eligible: Vec<usize> = (0..children(blocks))
                .filter(|&b| start == 1 || child(blocks, b).get("xbar").is_some())
                .collect();
            let b = eligible[below(rng, eligible.len())];
            path = vec![model, blocks_at, b];
            if start == 2 {
                path.push(position(child(blocks, b), "xbar"));
            }
        }
        let from = path.len();
        let mut v = path.iter().fold(root, |v, &i| child(v, i));
        while children(v) > 0 {
            path.push(below(rng, children(v)));
            v = child(v, path[path.len() - 1]);
        }
        (path, from)
    }

    fn node_mut<'a>(root: &'a mut Json, path: &[usize]) -> &'a mut Json {
        path.iter().fold(root, |v, &i| child_mut(v, i))
    }

    /// `model.blocks[3].xbar` style name of the node at `path`.
    fn describe(root: &Json, path: &[usize]) -> String {
        let mut name = String::new();
        let mut v = root;
        for &i in path {
            match v {
                Json::Obj(pairs) => name += &format!(".{}", pairs[i].0),
                _ => name += &format!("[{i}]"),
            }
            v = child(v, i);
        }
        name
    }

    /// The path to a child of a random container of the wanted shape
    /// on a random walk (at or below its start), re-walking until one
    /// has such a container.
    fn pick_container(root: &Json, rng: &mut SplitMix64, want_obj: bool) -> Vec<usize> {
        loop {
            let (path, from) = walk(root, rng);
            let found: Vec<usize> = (from..path.len())
                .filter(|&k| {
                    let v = path[..k].iter().fold(root, |v, &i| child(v, i));
                    matches!((v, want_obj), (Json::Obj(_), true) | (Json::Arr(_), false))
                })
                .collect();
            if !found.is_empty() {
                return path[..=found[below(rng, found.len())]].to_vec();
            }
        }
    }

    /// One mutation of a donor checkpoint, chosen by `slot`: returns
    /// what it did, the mutated document, and whether it reaches the
    /// payload decoder under a valid checksum.
    fn mutate(
        slot: usize,
        cycle: usize,
        donor: &str,
        rng: &mut SplitMix64,
    ) -> (String, String, bool) {
        let root = parse(donor).expect("donor parses");
        let checksum = root.get("checksum").and_then(Json::as_str).expect("checksum").to_string();
        let mut payload = root.get("payload").expect("payload").clone();
        let document = |payload: &str, checksum: &str| {
            format!(
                "{{\"format\":\"{FORMAT}\",\"version\":{VERSION},\"checksum\":\"{checksum}\",\
                 \"payload\":{payload}}}"
            )
        };
        if slot == 0 {
            return match cycle % 3 {
                0 => {
                    let at = below(rng, donor.len());
                    (format!("truncate at byte {at}"), donor[..at].to_string(), false)
                }
                1 => {
                    let bumped = donor.replacen("\"version\":1", "\"version\":2", 1);
                    ("bump version".to_string(), bumped, false)
                }
                _ => {
                    let digit = below(rng, 16);
                    let mut bad = checksum.clone().into_bytes();
                    bad[digit] = if bad[digit] == b'0' { b'1' } else { b'0' };
                    let bad = String::from_utf8(bad).expect("hex");
                    let what = format!("checksum digit {digit}");
                    (what, donor.replacen(&checksum, &bad, 1), false)
                }
            };
        }
        // Odd slots recompute the checksum; even ones keep the donor's.
        let rehash = slot % 2 == 1;
        let (what, text, hashed) = match slot {
            1 | 2 => {
                let mut bytes = payload.to_string().into_bytes();
                let at = below(rng, bytes.len());
                let mut to = 0x20 + below(rng, 95) as u8;
                if to == bytes[at] {
                    to = if to == 0x7E { 0x20 } else { to + 1 };
                }
                let what = format!("payload byte {at} {:?} -> {:?}", bytes[at] as char, to as char);
                bytes[at] = to;
                let text = String::from_utf8(bytes).expect("ASCII");
                let hashed = parse(&text).ok().map(|p| checksum_of(&p.to_string()));
                (what, text, hashed)
            }
            3 | 4 => {
                let path = pick_container(&payload, rng, true);
                let (parent, i) = (&path[..path.len() - 1], path[path.len() - 1]);
                let what = format!("drop {}", describe(&payload, &path));
                if let Json::Obj(pairs) = node_mut(&mut payload, parent) {
                    pairs.remove(i);
                }
                let text = payload.to_string();
                let hashed = Some(checksum_of(&text));
                (what, text, hashed)
            }
            5 | 6 | 11 => {
                let (path, _) = walk(&payload, rng);
                // 1e999 only where no checksum is recomputed: none could be.
                let token = TOKENS[below(rng, if rehash { 5 } else { 6 })];
                let what = format!("{} = {token}", describe(&payload, &path));
                let leaf = node_mut(&mut payload, &path);
                *leaf = parse(token).unwrap_or(Json::Null);
                let hashed = Some(checksum_of(&payload.to_string()));
                *node_mut(&mut payload, &path) = Json::Str(MARK.to_string());
                let mark = Json::Str(MARK.into()).to_string();
                let text = payload.to_string().replacen(&mark, token, 1);
                (what, text, hashed)
            }
            7 | 8 => {
                let path = pick_container(&payload, rng, false);
                let (parent, i) = (&path[..path.len() - 1], path[path.len() - 1]);
                let name = describe(&payload, parent);
                let arr = items(node_mut(&mut payload, parent));
                let what = if rng.next_u64().is_multiple_of(2) {
                    arr.pop();
                    format!("pop {name}")
                } else {
                    arr.insert(i, arr[i].clone());
                    format!("duplicate {name}[{i}]")
                };
                let text = payload.to_string();
                let hashed = Some(checksum_of(&text));
                (what, text, hashed)
            }
            _ => {
                let blocks = items(member(member(&mut payload, "model"), "blocks"));
                let b = below(rng, blocks.len());
                let from = KINDS.iter().position(|&k| k == kind_of(&blocks[b])).expect("kind");
                let to = KINDS[(from + 1 + below(rng, KINDS.len() - 1)) % KINDS.len()];
                *member(&mut blocks[b], "kind") = Json::Str(to.to_string());
                let text = payload.to_string();
                let hashed = Some(checksum_of(&text));
                (format!("block {b} {} -> {to}", KINDS[from]), text, hashed)
            }
        };
        let reaches = rehash && hashed.is_some() && !text.contains("1e999");
        let sum = if rehash { hashed.unwrap_or(checksum) } else { checksum };
        (what, document(&text, &sum), reaches)
    }

    /// The seeded mutation battery over `restore_from_str`: 96 cases,
    /// each one mutation of one of two aged donor dies restored onto a
    /// freshly commissioned twin. Twelve slots cycle: header skew or truncation, then
    /// payload byte rot, dropped members, retyped scalars, popped or
    /// duplicated array elements and swapped block kinds, half of them
    /// under a recomputed checksum so they reach the payload decoder.
    /// `restore_from_str` must never panic; a refusal must leave the
    /// twin's checkpoint byte-equal, and an acceptance must leave the
    /// twin holding exactly the state the document decodes to.
    #[test]
    fn battery_restore_mutations_96() {
        const SEED: u64 = 0x5EED_C4EC_6001;
        let cases = [
            Case { seed: 0xD0_0001, hidden: 12, defects: true, spares: 2, schedule: 1 },
            Case { seed: 0xD0_0002, hidden: 12, defects: true, spares: 2, schedule: 2 },
        ];
        let donors: Vec<String> = cases
            .iter()
            .map(|case| {
                let mut die = build_die(case);
                drive(&mut die, case);
                die.checkpoint()
            })
            .collect();
        let (mut reached, mut accepted) = (0usize, 0usize);
        for i in 0..96usize {
            let seed = SEED.wrapping_add(i as u64);
            let d = (i / 12) % 2;
            let label = format!("case {i} (seed {seed:#x}, donor {d}, slot {})", i % 12);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut rng = SplitMix64::new(seed);
                let (what, text, reaches) = mutate(i % 12, i / 12, &donors[d], &mut rng);
                let mut twin = commissioned_twin(&cases[d]);
                let before = twin.checkpoint();
                match twin.restore_from_str(&text) {
                    Err(e) => {
                        let after = twin.checkpoint();
                        assert!(after == before, "{label} {what}: refused ({e}) but changed");
                        (reaches, false)
                    }
                    Ok(()) => {
                        let state = Checkpoint::decode(&text).expect("restored, so decodes").state;
                        let (got, want) = (twin.checkpoint(), Checkpoint::encode_state(&state));
                        assert!(got == want, "{label} {what}: accepted but not restored");
                        (reaches, true)
                    }
                }
            }));
            let (reaches, ok) = run.unwrap_or_else(|_| panic!("{label}: panicked (message above)"));
            reached += usize::from(reaches);
            accepted += usize::from(ok);
        }
        assert!(reached >= 40, "only {reached} of 96 cases reached the payload decoder");
        assert!(accepted > 0, "no mutation was accepted: the round-trip arm is untested");
    }
}
