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
//! `f64`/`f32` fields ride the writer's shortest-round-trip `Display`
//! (bit-exact both ways); `u64` fields are hex *strings* because a JSON
//! number is an f64 and counters can exceed 2⁵³. Decoding rejects
//! unknown formats, version skew, and checksum mismatches with a typed
//! [`CheckpointError`] — a truncated or bit-rotted checkpoint is
//! refused, never half-applied.

use crate::blocks::BlockState;
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
    /// fields).
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
        let format = str_field(&root, "format")?;
        if format != FORMAT {
            return Err(CheckpointError::FormatMismatch(format.to_string()));
        }
        let version = f64_field(&root, "version")? as u64;
        if version != VERSION {
            return Err(CheckpointError::VersionMismatch { found: version });
        }
        let expected = str_field(&root, "checksum")?.to_string();
        let payload = field(&root, "payload")?;
        let found = format!("{:016x}", fnv1a(payload.to_string().as_bytes()));
        if expected != found {
            return Err(CheckpointError::ChecksumMismatch { expected, found });
        }
        Ok(Checkpoint { state: decode_supervisor(payload)? })
    }

    /// Serializes a supervisor state under the versioned, checksummed
    /// header. Byte-deterministic: the same state always produces the
    /// same string.
    pub(crate) fn encode_state(state: &SupervisorState) -> String {
        let payload = encode_supervisor(state);
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

// ---------------------------------------------------------------------
// Scalar helpers. u64 rides hex strings (JSON numbers are f64 — exact
// only to 2⁵³); f64/f32 ride the writer's shortest-round-trip Display.

fn ju(x: u64) -> Json {
    Json::Str(format!("{x:x}"))
}

fn jpair(p: (f64, f64)) -> Json {
    Json::Arr(vec![Json::Num(p.0), Json::Num(p.1)])
}

fn jf64s(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

fn jf32s(xs: &[f32]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(f64::from(x))).collect())
}

fn jbools(xs: &[bool]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Bool(x)).collect())
}

fn field<'a>(v: &'a Json, key: &str) -> R<&'a Json> {
    v.get(key).ok_or_else(|| bad(format!("missing field '{key}'")))
}

fn f64_field(v: &Json, key: &str) -> R<f64> {
    field(v, key)?.as_f64().ok_or_else(|| bad(format!("field '{key}' is not a number")))
}

fn usize_field(v: &Json, key: &str) -> R<usize> {
    Ok(f64_field(v, key)? as usize)
}

fn u64_field(v: &Json, key: &str) -> R<u64> {
    let s = str_field(v, key)?;
    u64::from_str_radix(s, 16).map_err(|_| bad(format!("field '{key}' is not a hex u64")))
}

fn bool_field(v: &Json, key: &str) -> R<bool> {
    field(v, key)?.as_bool().ok_or_else(|| bad(format!("field '{key}' is not a bool")))
}

fn str_field<'a>(v: &'a Json, key: &str) -> R<&'a str> {
    field(v, key)?.as_str().ok_or_else(|| bad(format!("field '{key}' is not a string")))
}

fn arr_field<'a>(v: &'a Json, key: &str) -> R<&'a [Json]> {
    field(v, key)?.as_arr().ok_or_else(|| bad(format!("field '{key}' is not an array")))
}

fn f64s_field(v: &Json, key: &str) -> R<Vec<f64>> {
    arr_field(v, key)?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| bad(format!("'{key}' holds a non-number"))))
        .collect()
}

fn f32s_field(v: &Json, key: &str) -> R<Vec<f32>> {
    Ok(f64s_field(v, key)?.into_iter().map(|x| x as f32).collect())
}

fn bools_field(v: &Json, key: &str) -> R<Vec<bool>> {
    arr_field(v, key)?
        .iter()
        .map(|x| x.as_bool().ok_or_else(|| bad(format!("'{key}' holds a non-bool"))))
        .collect()
}

fn pair(v: &Json, ctx: &str) -> R<(f64, f64)> {
    let items = v.as_arr().ok_or_else(|| bad(format!("'{ctx}' is not a pair")))?;
    if items.len() != 2 {
        return Err(bad(format!("'{ctx}' is not a 2-element pair")));
    }
    let a = items[0].as_f64().ok_or_else(|| bad(format!("'{ctx}'[0] is not a number")))?;
    let b = items[1].as_f64().ok_or_else(|| bad(format!("'{ctx}'[1] is not a number")))?;
    Ok((a, b))
}

fn pair_field(v: &Json, key: &str) -> R<(f64, f64)> {
    pair(field(v, key)?, key)
}

// ---------------------------------------------------------------------
// Per-type codecs, leaves first.

fn encode_counter(c: &OpCounter) -> Json {
    Json::obj([
        ("cell_reads", ju(c.cell_reads)),
        ("cell_writes", ju(c.cell_writes)),
        ("sa_evals", ju(c.sa_evals)),
        ("adc_converts", ju(c.adc_converts)),
        ("adc_saturations", ju(c.adc_saturations)),
        ("rng_bits", ju(c.rng_bits)),
        ("sram_accesses", ju(c.sram_accesses)),
        ("digital_ops", ju(c.digital_ops)),
    ])
}

fn decode_counter(v: &Json) -> R<OpCounter> {
    Ok(OpCounter {
        cell_reads: u64_field(v, "cell_reads")?,
        cell_writes: u64_field(v, "cell_writes")?,
        sa_evals: u64_field(v, "sa_evals")?,
        adc_converts: u64_field(v, "adc_converts")?,
        adc_saturations: u64_field(v, "adc_saturations")?,
        rng_bits: u64_field(v, "rng_bits")?,
        sram_accesses: u64_field(v, "sram_accesses")?,
        digital_ops: u64_field(v, "digital_ops")?,
    })
}

fn encode_rng(s: &SpinRngState) -> Json {
    Json::obj([
        ("bias_current", Json::Num(s.bias_current)),
        ("target_p", Json::Num(s.target_p)),
        ("bits_generated", ju(s.bits_generated)),
    ])
}

fn decode_rng(v: &Json) -> R<SpinRngState> {
    Ok(SpinRngState {
        bias_current: f64_field(v, "bias_current")?,
        target_p: f64_field(v, "target_p")?,
        bits_generated: u64_field(v, "bits_generated")?,
    })
}

fn encode_rngs(states: &[SpinRngState]) -> Json {
    Json::Arr(states.iter().map(encode_rng).collect())
}

fn decode_rngs(v: &Json, key: &str) -> R<Vec<SpinRngState>> {
    arr_field(v, key)?.iter().map(decode_rng).collect()
}

fn encode_defect(kind: Option<DefectKind>) -> Json {
    match kind {
        None => Json::Null,
        Some(k) => Json::Num(k.index() as f64),
    }
}

fn decode_defect(v: &Json, ctx: &str) -> R<Option<DefectKind>> {
    match v {
        Json::Null => Ok(None),
        _ => {
            let i = v.as_f64().ok_or_else(|| bad(format!("'{ctx}' is not a defect index")))?
                as usize;
            DefectKind::ALL
                .get(i)
                .copied()
                .map(Some)
                .ok_or_else(|| bad(format!("'{ctx}' defect index {i} out of range")))
        }
    }
}

fn encode_cell(c: &XnorCellState) -> Json {
    Json::obj([
        ("plus_levels", jpair(c.plus_levels)),
        ("minus_levels", jpair(c.minus_levels)),
        ("sign", Json::Bool(c.sign)),
        ("plus_defect", encode_defect(c.plus_defect)),
        ("minus_defect", encode_defect(c.minus_defect)),
        ("reference", jpair(c.reference)),
    ])
}

fn decode_cell(v: &Json) -> R<XnorCellState> {
    Ok(XnorCellState {
        plus_levels: pair_field(v, "plus_levels")?,
        minus_levels: pair_field(v, "minus_levels")?,
        sign: bool_field(v, "sign")?,
        plus_defect: decode_defect(field(v, "plus_defect")?, "plus_defect")?,
        minus_defect: decode_defect(field(v, "minus_defect")?, "minus_defect")?,
        reference: pair_field(v, "reference")?,
    })
}

fn encode_cells(cells: &[XnorCellState]) -> Json {
    Json::Arr(cells.iter().map(encode_cell).collect())
}

fn decode_cells(v: &Json, key: &str) -> R<Vec<XnorCellState>> {
    arr_field(v, key)?.iter().map(decode_cell).collect()
}

fn encode_aging_snapshot(s: &AgingSnapshot) -> Json {
    Json::obj([
        ("now_hours", Json::Num(s.now_hours)),
        ("epoch", ju(s.epoch)),
        ("cum_writes", Json::Num(s.cum_writes)),
        ("lifetimes", jf64s(&s.lifetimes)),
        ("drift", jf64s(&s.drift)),
        ("worn", jbools(&s.worn)),
    ])
}

fn decode_aging_snapshot(v: &Json) -> R<AgingSnapshot> {
    Ok(AgingSnapshot {
        now_hours: f64_field(v, "now_hours")?,
        epoch: u64_field(v, "epoch")?,
        cum_writes: f64_field(v, "cum_writes")?,
        lifetimes: f64s_field(v, "lifetimes")?,
        drift: f64s_field(v, "drift")?,
        worn: bools_field(v, "worn")?,
    })
}

fn encode_aging_hook(h: &AgingHookState) -> Json {
    Json::obj([
        ("aging", encode_aging_snapshot(&h.aging)),
        ("golden", jf32s(&h.golden)),
        ("seen_reads", ju(h.seen_reads)),
        ("seen_writes", ju(h.seen_writes)),
    ])
}

fn decode_aging_hook(v: &Json) -> R<AgingHookState> {
    Ok(AgingHookState {
        aging: decode_aging_snapshot(field(v, "aging")?)?,
        golden: f32s_field(v, "golden")?,
        seen_reads: u64_field(v, "seen_reads")?,
        seen_writes: u64_field(v, "seen_writes")?,
    })
}

fn encode_spare(s: &SpareColumnState) -> Json {
    Json::obj([("cells", encode_cells(&s.cells)), ("used", Json::Bool(s.used))])
}

fn decode_spare(v: &Json) -> R<SpareColumnState> {
    Ok(SpareColumnState { cells: decode_cells(v, "cells")?, used: bool_field(v, "used")? })
}

fn encode_remap(map: &Option<Vec<usize>>) -> Json {
    match map {
        None => Json::Null,
        Some(m) => Json::Arr(m.iter().map(|&i| Json::Num(i as f64)).collect()),
    }
}

fn decode_remap(v: &Json, ctx: &str) -> R<Option<Vec<usize>>> {
    match v {
        Json::Null => Ok(None),
        Json::Arr(items) => items
            .iter()
            .map(|x| {
                x.as_f64()
                    .map(|f| f as usize)
                    .ok_or_else(|| bad(format!("'{ctx}' holds a non-number")))
            })
            .collect::<R<Vec<usize>>>()
            .map(Some),
        _ => Err(bad(format!("'{ctx}' is neither null nor an array"))),
    }
}

fn encode_crossbar(s: &CrossbarState) -> Json {
    Json::obj([
        ("cells", encode_cells(&s.cells)),
        ("eff", jf64s(&s.eff)),
        ("row_enabled", jbools(&s.row_enabled)),
        ("counter", encode_counter(&s.counter)),
        (
            "defects",
            Json::Arr(
                s.defects
                    .iter()
                    .map(|&(r, c, k)| {
                        Json::Arr(vec![
                            Json::Num(r as f64),
                            Json::Num(c as f64),
                            Json::Num(k.index() as f64),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("spares", Json::Arr(s.spares.iter().map(encode_spare).collect())),
        ("row_src", encode_remap(&s.row_src)),
        ("col_src", encode_remap(&s.col_src)),
        ("margin_sum", Json::Num(s.margin_sum)),
        ("margin_count", ju(s.margin_count)),
        ("packed_calls", ju(s.packed_calls)),
        ("aging", s.aging.as_ref().map_or(Json::Null, encode_aging_hook)),
    ])
}

/// Decodes one defect coordinate: a non-negative integer below `len`.
fn defect_coord(v: &Json, len: usize, what: &str, i: usize) -> R<usize> {
    match v.as_f64() {
        Some(f) if f >= 0.0 && f.fract() == 0.0 && f < len as f64 => Ok(f as usize),
        _ => Err(bad(format!("defect {i} {what} is not an index below {len}"))),
    }
}

fn decode_crossbar(v: &Json) -> R<CrossbarState> {
    let cells = decode_cells(v, "cells")?;
    let row_enabled = bools_field(v, "row_enabled")?;
    // A defect outside the array would panic in `Crossbar::import_state`
    // after the checksum passed: bound every coordinate by the geometry
    // the state itself carries.
    let rows = row_enabled.len();
    let cols = cells.len().checked_div(rows).unwrap_or(0);
    let mut defects = Vec::new();
    for (i, item) in arr_field(v, "defects")?.iter().enumerate() {
        let triple = item.as_arr().ok_or_else(|| bad(format!("defect {i} is not a triple")))?;
        if triple.len() != 3 {
            return Err(bad(format!("defect {i} is not a 3-element triple")));
        }
        let r = defect_coord(&triple[0], rows, "row", i)?;
        let c = defect_coord(&triple[1], cols, "col", i)?;
        let k = decode_defect(&triple[2], "defect kind")?
            .ok_or_else(|| bad(format!("defect {i} has a null kind")))?;
        defects.push((r, c, k));
    }
    let aging = match field(v, "aging")? {
        Json::Null => None,
        hook => Some(decode_aging_hook(hook)?),
    };
    Ok(CrossbarState {
        cells,
        eff: f64s_field(v, "eff")?,
        row_enabled,
        counter: decode_counter(field(v, "counter")?)?,
        defects,
        spares: arr_field(v, "spares")?.iter().map(decode_spare).collect::<R<Vec<_>>>()?,
        row_src: decode_remap(field(v, "row_src")?, "row_src")?,
        col_src: decode_remap(field(v, "col_src")?, "col_src")?,
        margin_sum: f64_field(v, "margin_sum")?,
        margin_count: u64_field(v, "margin_count")?,
        packed_calls: u64_field(v, "packed_calls")?,
        aging,
    })
}

fn encode_mlc(s: &MlcCrossbarState) -> Json {
    Json::obj([
        ("eff", jf64s(&s.eff)),
        ("row_enabled", jbools(&s.row_enabled)),
        ("counter", encode_counter(&s.counter)),
        ("margin_sum", Json::Num(s.margin_sum)),
        ("margin_count", ju(s.margin_count)),
    ])
}

fn decode_mlc(v: &Json) -> R<MlcCrossbarState> {
    Ok(MlcCrossbarState {
        eff: f64s_field(v, "eff")?,
        row_enabled: bools_field(v, "row_enabled")?,
        counter: decode_counter(field(v, "counter")?)?,
        margin_sum: f64_field(v, "margin_sum")?,
        margin_count: u64_field(v, "margin_count")?,
    })
}

fn encode_arbiter(s: &ArbiterState) -> Json {
    Json::obj([("bit_sources", encode_rngs(&s.bit_sources)), ("bits_used", ju(s.bits_used))])
}

fn decode_arbiter(v: &Json) -> R<ArbiterState> {
    Ok(ArbiterState {
        bit_sources: decode_rngs(v, "bit_sources")?,
        bits_used: u64_field(v, "bits_used")?,
    })
}

fn encode_block(state: &BlockState) -> Json {
    let tag = |kind: &str| ("kind", Json::Str(kind.to_string()));
    match state {
        BlockState::Conv { xbar, local } => {
            Json::obj([tag("conv"), ("xbar", encode_crossbar(xbar)), ("local", encode_counter(local))])
        }
        BlockState::Fc { xbar, local } => {
            Json::obj([tag("fc"), ("xbar", encode_crossbar(xbar)), ("local", encode_counter(local))])
        }
        BlockState::FcSpinBayes { xbars, arbiter, local } => Json::obj([
            tag("fc_spinbayes"),
            ("xbars", Json::Arr(xbars.iter().map(encode_mlc).collect())),
            ("arbiter", encode_arbiter(arbiter)),
            ("local", encode_counter(local)),
        ]),
        BlockState::DigitalFc { local } => {
            Json::obj([tag("digital_fc"), ("local", encode_counter(local))])
        }
        BlockState::Norm { mean, var, stats, local } => Json::obj([
            tag("norm"),
            ("mean", jf32s(mean)),
            ("var", jf32s(var)),
            ("stats_count", ju(stats.count)),
            ("stats_mean", jf64s(&stats.mean)),
            ("stats_m2", jf64s(&stats.m2)),
            ("local", encode_counter(local)),
        ]),
        BlockState::InvNorm { modules, local } => Json::obj([
            tag("inv_norm"),
            (
                "modules",
                modules.as_ref().map_or(Json::Null, |(g, b)| {
                    Json::Arr(vec![encode_rng(g), encode_rng(b)])
                }),
            ),
            ("local", encode_counter(local)),
        ]),
        BlockState::DropPerNeuron { modules } => {
            Json::obj([tag("drop_per_neuron"), ("modules", encode_rngs(modules))])
        }
        BlockState::DropPerChannel { modules } => {
            Json::obj([tag("drop_per_channel"), ("modules", encode_rngs(modules))])
        }
        BlockState::DropScale { module, local } => Json::obj([
            tag("drop_scale"),
            ("module", encode_rng(module)),
            ("local", encode_counter(local)),
        ]),
        BlockState::DropViScale { local } => {
            Json::obj([tag("drop_vi_scale"), ("local", encode_counter(local))])
        }
        BlockState::Stateless => Json::obj([tag("stateless")]),
    }
}

fn decode_block(v: &Json) -> R<BlockState> {
    let kind = str_field(v, "kind")?;
    Ok(match kind {
        "conv" => BlockState::Conv {
            xbar: decode_crossbar(field(v, "xbar")?)?,
            local: decode_counter(field(v, "local")?)?,
        },
        "fc" => BlockState::Fc {
            xbar: decode_crossbar(field(v, "xbar")?)?,
            local: decode_counter(field(v, "local")?)?,
        },
        "fc_spinbayes" => BlockState::FcSpinBayes {
            xbars: arr_field(v, "xbars")?.iter().map(decode_mlc).collect::<R<Vec<_>>>()?,
            arbiter: decode_arbiter(field(v, "arbiter")?)?,
            local: decode_counter(field(v, "local")?)?,
        },
        "digital_fc" => BlockState::DigitalFc { local: decode_counter(field(v, "local")?)? },
        "norm" => BlockState::Norm {
            mean: f32s_field(v, "mean")?,
            var: f32s_field(v, "var")?,
            stats: crate::blocks::FeatureStats {
                count: u64_field(v, "stats_count")?,
                mean: f64s_field(v, "stats_mean")?,
                m2: f64s_field(v, "stats_m2")?,
            },
            local: decode_counter(field(v, "local")?)?,
        },
        "inv_norm" => BlockState::InvNorm {
            modules: match field(v, "modules")? {
                Json::Null => None,
                arr => {
                    let items =
                        arr.as_arr().ok_or_else(|| bad("inv_norm modules is not an array"))?;
                    if items.len() != 2 {
                        return Err(bad("inv_norm modules must hold exactly 2 states"));
                    }
                    Some((decode_rng(&items[0])?, decode_rng(&items[1])?))
                }
            },
            local: decode_counter(field(v, "local")?)?,
        },
        "drop_per_neuron" => BlockState::DropPerNeuron { modules: decode_rngs(v, "modules")? },
        "drop_per_channel" => BlockState::DropPerChannel { modules: decode_rngs(v, "modules")? },
        "drop_scale" => BlockState::DropScale {
            module: decode_rng(field(v, "module")?)?,
            local: decode_counter(field(v, "local")?)?,
        },
        "drop_vi_scale" => BlockState::DropViScale { local: decode_counter(field(v, "local")?)? },
        "stateless" => BlockState::Stateless,
        other => return Err(bad(format!("unknown block kind '{other}'"))),
    })
}

fn encode_model(state: &ModelState) -> Json {
    Json::obj([
        ("blocks", Json::Arr(state.blocks.iter().map(encode_block).collect())),
        ("baseline", encode_counter(&state.baseline)),
        ("extra", encode_counter(&state.extra)),
    ])
}

fn decode_model(v: &Json) -> R<ModelState> {
    Ok(ModelState {
        blocks: arr_field(v, "blocks")?.iter().map(decode_block).collect::<R<Vec<_>>>()?,
        baseline: decode_counter(field(v, "baseline")?)?,
        extra: decode_counter(field(v, "extra")?)?,
    })
}

fn encode_policy(p: HealthPolicy) -> Json {
    Json::Num(f64::from(p.tier_index()))
}

fn decode_policy(v: &Json, ctx: &str) -> R<HealthPolicy> {
    let tier = v.as_f64().ok_or_else(|| bad(format!("'{ctx}' is not a tier number")))? as u32;
    Ok(HealthPolicy::from_tier_index(tier))
}

fn encode_monitor(state: &MonitorState) -> Json {
    Json::obj([
        ("abstain_entropy", Json::Num(state.abstain_entropy)),
        ("window", Json::Arr(state.window.iter().map(|&p| jpair(p)).collect())),
        ("baseline", state.baseline.map_or(Json::Null, jpair)),
        ("latched", encode_policy(state.latched)),
        ("pending", encode_policy(state.pending)),
        ("pending_count", Json::Num(state.pending_count as f64)),
    ])
}

fn decode_monitor(v: &Json) -> R<MonitorState> {
    let window = arr_field(v, "window")?
        .iter()
        .map(|p| pair(p, "window entry"))
        .collect::<R<Vec<_>>>()?;
    let baseline = match field(v, "baseline")? {
        Json::Null => None,
        p => Some(pair(p, "baseline")?),
    };
    Ok(MonitorState {
        abstain_entropy: f64_field(v, "abstain_entropy")?,
        window,
        baseline,
        latched: decode_policy(field(v, "latched")?, "latched")?,
        pending: decode_policy(field(v, "pending")?, "pending")?,
        pending_count: usize_field(v, "pending_count")?,
    })
}

fn encode_action(a: RecoveryAction) -> Json {
    Json::Str(a.to_string())
}

fn decode_action(v: &Json, ctx: &str) -> R<RecoveryAction> {
    match v.as_str().ok_or_else(|| bad(format!("'{ctx}' is not an action string")))? {
        "scrub" => Ok(RecoveryAction::Scrub),
        "recalibrate" => Ok(RecoveryAction::Recalibrate),
        "remap_tier" => Ok(RecoveryAction::RemapTier),
        "abstain" => Ok(RecoveryAction::Abstain),
        other => Err(bad(format!("unknown recovery action '{other}'"))),
    }
}

fn encode_event(e: &RecoveryEvent) -> Json {
    Json::obj([
        ("at_hours", Json::Num(e.at_hours)),
        ("step", Json::Num(e.step as f64)),
        ("action", encode_action(e.action)),
        ("policy", encode_policy(e.policy)),
        ("cells_refreshed", Json::Num(e.cells_refreshed as f64)),
        ("flagged", Json::Num(e.flagged as f64)),
        ("repaired", Json::Num(e.repaired as f64)),
        ("energy_j", Json::Num(e.energy.0)),
    ])
}

fn decode_event(v: &Json) -> R<RecoveryEvent> {
    Ok(RecoveryEvent {
        at_hours: f64_field(v, "at_hours")?,
        step: usize_field(v, "step")?,
        action: decode_action(field(v, "action")?, "action")?,
        policy: decode_policy(field(v, "policy")?, "policy")?,
        cells_refreshed: usize_field(v, "cells_refreshed")?,
        flagged: usize_field(v, "flagged")?,
        repaired: usize_field(v, "repaired")?,
        energy: Joules(f64_field(v, "energy_j")?),
    })
}

fn encode_supervisor(state: &SupervisorState) -> Json {
    Json::obj([
        ("model", encode_model(&state.model)),
        ("monitor", encode_monitor(&state.monitor)),
        (
            "calib_shape",
            Json::Arr(state.calib.shape().iter().map(|&d| Json::Num(d as f64)).collect()),
        ),
        ("calib_data", jf32s(state.calib.as_slice())),
        ("now_hours", Json::Num(state.now_hours)),
        ("last_scrub_hours", Json::Num(state.last_scrub_hours)),
        ("step", Json::Num(state.step as f64)),
        ("engaged_tier", encode_policy(state.engaged_tier)),
        ("commissioned", Json::Bool(state.commissioned)),
        ("events", Json::Arr(state.events.iter().map(encode_event).collect())),
    ])
}

fn decode_supervisor(v: &Json) -> R<SupervisorState> {
    let shape = arr_field(v, "calib_shape")?
        .iter()
        .map(|d| {
            d.as_f64().map(|f| f as usize).ok_or_else(|| bad("calib_shape holds a non-number"))
        })
        .collect::<R<Vec<usize>>>()?;
    let data = f32s_field(v, "calib_data")?;
    if shape.iter().product::<usize>() != data.len() {
        return Err(bad(format!(
            "calib tensor shape {:?} does not match {} data elements",
            shape,
            data.len()
        )));
    }
    Ok(SupervisorState {
        model: decode_model(field(v, "model")?)?,
        monitor: decode_monitor(field(v, "monitor")?)?,
        calib: Tensor::from_vec(data, &shape),
        now_hours: f64_field(v, "now_hours")?,
        last_scrub_hours: f64_field(v, "last_scrub_hours")?,
        step: usize_field(v, "step")?,
        engaged_tier: decode_policy(field(v, "engaged_tier")?, "engaged_tier")?,
        commissioned: bool_field(v, "commissioned")?,
        events: arr_field(v, "events")?.iter().map(decode_event).collect::<R<Vec<_>>>()?,
    })
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
    use rand::SeedableRng;

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
        let arch = ArchConfig {
            c1: 2,
            c2: 4,
            hidden: case.hidden,
            classes: 4,
            side: 8,
            ..ArchConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(case.seed);
        let mut sw = build_cnn(Method::SpinDrop, &arch, &mut rng);
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
        let mut hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &arch, &config, &mut rng);
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
                            b.restore(&decoded);

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
        let gutted = tamper(&encoded, |p| {
            let mut payload = None;
            for (k, v) in p.iter_mut() {
                if k == "payload" {
                    if let Json::Obj(ref mut fields) = v {
                        fields.retain(|(k, _)| k != "step");
                    }
                    payload = Some(v.to_string());
                }
            }
            let checksum = format!("{:016x}", fnv1a(payload.expect("payload").as_bytes()));
            set_field(p, "checksum", Json::Str(checksum));
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
            let tampered = tamper(&donor, |p| {
                let mut payload = None;
                for (k, v) in p.iter_mut() {
                    if k == "payload" {
                        assert!(push_first_defect(v, &triple), "no defects array in the payload");
                        payload = Some(v.to_string());
                    }
                }
                let checksum = format!("{:016x}", fnv1a(payload.expect("payload").as_bytes()));
                set_field(p, "checksum", Json::Str(checksum));
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
}
