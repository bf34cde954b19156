//! Versioned compact binary codec for the scheduling surface.
//!
//! `wagg-wire` frames the values that cross a process boundary — link sets,
//! replayable [`EngineTrace`]s, [`SessionConfig`]s, [`SolveReport`]s and full
//! [`SessionState`] snapshots — as self-describing byte strings:
//!
//! ```text
//! +--------+---------+------+-----------------+
//! | "WAGG" | version | kind |     payload     |
//! | 4 bytes| 1 byte  |1 byte| kind-specific   |
//! +--------+---------+------+-----------------+
//! ```
//!
//! Integers are fixed-width little-endian, floats are IEEE-754 bit patterns,
//! sequences carry a `u32` length prefix, enums a tag byte, optional values
//! a `0`/`1` presence byte. The codec is hand-rolled (the workspace is
//! offline; `serde` is a no-op shim) and deliberately boring: no varints, no
//! compression, no schema evolution beyond the version byte. It is the one
//! persistence format; the JSON text formats elsewhere in the workspace are
//! tooling output (traces, telemetry logs, bench results).
//!
//! # Hostile bytes
//!
//! [`Frame::decode`] is total over `&[u8]`: every malformed input — wrong
//! magic, unsupported version, truncation at any offset, bit flips, absurd
//! length prefixes, non-finite coordinates, trailing garbage — returns a
//! typed [`DecodeError`], never a panic and never an attempt to allocate
//! more than the input could possibly describe (length prefixes are checked
//! against the bytes actually remaining before any allocation). The
//! `hostility` test suite walks truncations and bit flips over every frame
//! kind to pin this down.
//!
//! The layering with [`wagg_session::RestoreError`] is deliberate: the wire
//! layer validates *structure* (framing, tags, UTF-8, finite geometry, model
//! and slack parameters that constructors downstream would assert on), while
//! [`Session::restore_state`](wagg_session::Session::restore_state)
//! validates *semantics* (key order, dirty sets, warm-state lockstep). A
//! decoded snapshot can therefore still be rejected by restore — but neither
//! layer can be made to panic from bytes alone.
//!
//! # Losslessness
//!
//! Encode∘decode is the identity for every frame: a round-tripped
//! [`SessionState`] restores to a session whose next solve is byte-identical
//! to the original's (see `wagg-session`'s snapshot contract). The
//! [`SolveReport`] frame encodes every field of the report natively — the
//! schedule's slots, the analysis scalars, and the sharding, repair,
//! metrics and health sections — with floats as raw bit patterns, so even a
//! non-finite measurement survives unchanged.

use std::error::Error;
use std::fmt;

use wagg_engine::{EngineEvent, EngineTrace};
use wagg_geometry::{BoundingBox, Point};
use wagg_obs::telemetry::{HealthConfig, TelemetryConfig};
use wagg_obs::{
    CounterMetric, HealthReport, HealthSignal, Histogram, HistogramMetric, Metrics, PhaseMetric,
    SignalKind,
};
use wagg_schedule::{
    BackendKind, PowerMode, RepairDecision, RepairStats, Schedule, ScheduleReport, SchedulerConfig,
    ShardingStats, SolveReport,
};
use wagg_session::state::{BackendState, EventCounts, KeyedLink, TelemetryState, WarmState};
use wagg_session::VerifierStrategy;
use wagg_session::{Backend, PartitionHints, RepairPolicy, SessionConfig, SessionState};
use wagg_sinr::{Link, NodeId, SinrModel};

/// The four magic bytes every frame starts with.
pub const MAGIC: [u8; 4] = *b"WAGG";

/// The wire-format version this build speaks.
pub const VERSION: u8 = 2;

/// Frame kind discriminants (the byte after the version).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A bare link set ([`Frame::Links`]).
    Links = 1,
    /// A replayable engine trace ([`Frame::Trace`]).
    Trace = 2,
    /// A session configuration ([`Frame::Config`]).
    Config = 3,
    /// A solve report ([`Frame::Report`]).
    Report = 4,
    /// A full session snapshot ([`Frame::Snapshot`]).
    Snapshot = 5,
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A bare link set (an instance shipped to a session).
    Links(Vec<Link>),
    /// A replayable engine event trace (churn shipped to a session).
    Trace(EngineTrace),
    /// A session configuration (how to open a session).
    Config(SessionConfig),
    /// A solve report (results shipped back to a client).
    Report(SolveReport),
    /// A full session snapshot (see [`wagg_session::SessionState`]).
    Snapshot(SessionState),
}

impl Frame {
    /// The kind byte this frame encodes under.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Links(_) => FrameKind::Links,
            Frame::Trace(_) => FrameKind::Trace,
            Frame::Config(_) => FrameKind::Config,
            Frame::Report(_) => FrameKind::Report,
            Frame::Snapshot(_) => FrameKind::Snapshot,
        }
    }

    /// Encodes the frame: magic, version, kind byte, payload.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when an in-memory value cannot be represented
    /// — a sequence longer than `u32::MAX` or a non-finite coordinate.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(self.kind() as u8);
        match self {
            Frame::Links(links) => put_seq(&mut buf, links, "links", put_link)?,
            Frame::Trace(trace) => put_trace(&mut buf, trace)?,
            Frame::Config(config) => put_config(&mut buf, config)?,
            Frame::Report(report) => put_report(&mut buf, report)?,
            Frame::Snapshot(state) => put_state(&mut buf, state)?,
        }
        Ok(buf)
    }

    /// Decodes a frame from bytes. Total: hostile input returns a typed
    /// [`DecodeError`], never a panic (see the [module docs](self)).
    pub fn decode(bytes: &[u8]) -> Result<Frame, DecodeError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(magic);
            return Err(DecodeError::BadMagic { found });
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(DecodeError::UnsupportedVersion { version });
        }
        let kind = r.u8()?;
        let frame = match kind {
            1 => Frame::Links(r.seq("links", LINK_MIN_BYTES, get_link)?),
            2 => Frame::Trace(get_trace(&mut r)?),
            3 => Frame::Config(get_config(&mut r)?),
            4 => Frame::Report(get_report(&mut r)?),
            5 => Frame::Snapshot(get_state(&mut r)?),
            kind => return Err(DecodeError::UnknownFrameKind { kind }),
        };
        if r.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(frame)
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why an in-memory value could not be encoded.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EncodeError {
    /// A sequence or string exceeds the `u32` length prefix.
    TooLong {
        /// What was being encoded.
        what: &'static str,
        /// Its length.
        len: usize,
    },
    /// A coordinate or parameter is NaN or infinite.
    NonFinite {
        /// What was being encoded.
        what: &'static str,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TooLong { what, len } => {
                write!(f, "{what} of length {len} exceeds the u32 length prefix")
            }
            EncodeError::NonFinite { what } => write!(f, "{what} is NaN or infinite"),
        }
    }
}

impl Error for EncodeError {}

/// Why a byte string is not a valid frame. Exhaustive over everything
/// hostile bytes can be wrong about; decoding never panics.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The input ended before the value did.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// The version byte is not one this build speaks.
    UnsupportedVersion {
        /// The version found.
        version: u8,
    },
    /// The kind byte names no frame.
    UnknownFrameKind {
        /// The kind found.
        kind: u8,
    },
    /// An enum tag byte names no variant.
    UnknownTag {
        /// The enum being decoded.
        what: &'static str,
        /// The tag found.
        tag: u8,
    },
    /// A boolean byte is neither 0 nor 1.
    InvalidBool {
        /// The byte found.
        value: u8,
    },
    /// A length prefix declares more elements than the remaining bytes
    /// could possibly hold (the allocation cap).
    LengthOverflow {
        /// The sequence being decoded.
        what: &'static str,
        /// Elements declared.
        declared: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// A string field is not valid UTF-8.
    InvalidUtf8 {
        /// The field being decoded.
        what: &'static str,
    },
    /// A coordinate or parameter that must be finite is NaN or infinite.
    NonFinite {
        /// The field being decoded.
        what: &'static str,
    },
    /// A parameter that must be strictly positive is not (engine slacks —
    /// the engine constructor asserts on them).
    NonPositive {
        /// The field being decoded.
        what: &'static str,
        /// The value found.
        value: f64,
    },
    /// An oblivious power exponent outside `(0, 1)`.
    InvalidTau {
        /// The value found.
        tau: f64,
    },
    /// The SINR model parameters fail [`SinrModel::new`]'s validation.
    InvalidModel(String),
    /// A histogram's sparse buckets name an index above 64, or their counts
    /// add up past `u64::MAX`.
    InvalidHistogram,
    /// A `u64` field does not fit this platform's `usize`.
    IntOutOfRange {
        /// The field being decoded.
        what: &'static str,
        /// The value found.
        value: u64,
    },
    /// Bytes remain after the payload ended.
    TrailingBytes {
        /// How many.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, remaining } => {
                write!(f, "truncated: needed {needed} bytes, {remaining} remain")
            }
            DecodeError::BadMagic { found } => write!(f, "bad magic {found:?}"),
            DecodeError::UnsupportedVersion { version } => {
                write!(
                    f,
                    "wire version {version} not supported (this build speaks {VERSION})"
                )
            }
            DecodeError::UnknownFrameKind { kind } => write!(f, "unknown frame kind {kind}"),
            DecodeError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            DecodeError::InvalidBool { value } => write!(f, "invalid boolean byte {value}"),
            DecodeError::LengthOverflow {
                what,
                declared,
                remaining,
            } => write!(
                f,
                "{what} declares {declared} elements but only {remaining} bytes remain"
            ),
            DecodeError::InvalidUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
            DecodeError::NonFinite { what } => write!(f, "{what} is NaN or infinite"),
            DecodeError::NonPositive { what, value } => {
                write!(f, "{what} must be strictly positive, found {value}")
            }
            DecodeError::InvalidTau { tau } => {
                write!(f, "oblivious power exponent {tau} outside (0, 1)")
            }
            DecodeError::InvalidModel(e) => write!(f, "invalid SINR model: {e}"),
            DecodeError::InvalidHistogram => {
                write!(f, "histogram bucket index above 64 or counts overflow u64")
            }
            DecodeError::IntOutOfRange { what, value } => {
                write!(f, "{what} value {value} does not fit usize")
            }
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the frame payload")
            }
        }
    }
}

impl Error for DecodeError {}

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

fn put_len(buf: &mut Vec<u8>, len: usize, what: &'static str) -> Result<(), EncodeError> {
    let v = u32::try_from(len).map_err(|_| EncodeError::TooLong { what, len })?;
    put_u32(buf, v);
    Ok(())
}

fn put_str(buf: &mut Vec<u8>, s: &str, what: &'static str) -> Result<(), EncodeError> {
    put_len(buf, s.len(), what)?;
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_finite(buf: &mut Vec<u8>, v: f64, what: &'static str) -> Result<(), EncodeError> {
    if !v.is_finite() {
        return Err(EncodeError::NonFinite { what });
    }
    put_f64(buf, v);
    Ok(())
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            put_u64(buf, v);
        }
    }
}

/// A length prefix, then each element through `put`.
fn put_seq<T>(
    buf: &mut Vec<u8>,
    items: &[T],
    what: &'static str,
    mut put: impl FnMut(&mut Vec<u8>, &T) -> Result<(), EncodeError>,
) -> Result<(), EncodeError> {
    put_len(buf, items.len(), what)?;
    items.iter().try_for_each(|item| put(buf, item))
}

/// A presence byte, then the value through `put` when there is one.
fn put_opt<T>(
    buf: &mut Vec<u8>,
    value: Option<&T>,
    put: impl FnOnce(&mut Vec<u8>, &T) -> Result<(), EncodeError>,
) -> Result<(), EncodeError> {
    put_bool(buf, value.is_some());
    value.map_or(Ok(()), |v| put(buf, v))
}

// ---------------------------------------------------------------------------
// Primitive reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn finite_f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        let v = self.f64()?;
        if !v.is_finite() {
            return Err(DecodeError::NonFinite { what });
        }
        Ok(v)
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(DecodeError::InvalidBool { value }),
        }
    }

    fn usize(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError::IntOutOfRange { what, value: v })
    }

    /// A `u32` sequence length, capped against the bytes remaining: a
    /// hostile prefix can never make us allocate more elements than the
    /// input could hold at `min_elem` bytes each.
    fn seq_len(&mut self, what: &'static str, min_elem: usize) -> Result<usize, DecodeError> {
        let declared = self.u32()? as usize;
        if declared.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(DecodeError::LengthOverflow {
                what,
                declared,
                remaining: self.remaining(),
            });
        }
        Ok(declared)
    }

    fn str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        let len = self.seq_len(what, 1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidUtf8 { what })
    }

    /// A sequence written by `put_seq`; `min_elem` caps the length
    /// prefix (see [`Reader::seq_len`]).
    fn seq<T>(
        &mut self,
        what: &'static str,
        min_elem: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.seq_len(what, min_elem)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(get(self)?);
        }
        Ok(items)
    }

    /// An optional `usize` written by `put_opt_u64`.
    fn opt_usize(&mut self, what: &'static str) -> Result<Option<usize>, DecodeError> {
        self.opt(what, |r| r.usize(what))
    }

    /// An optional value written by `put_opt`.
    fn opt<T>(
        &mut self,
        what: &'static str,
        get: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            tag => Err(DecodeError::UnknownTag { what, tag }),
        }
    }
}

// ---------------------------------------------------------------------------
// Geometry and links
// ---------------------------------------------------------------------------

/// Minimum encoded size of a [`Link`]: id + two points + two option tags.
const LINK_MIN_BYTES: usize = 8 + 16 + 16 + 2;

fn put_point(buf: &mut Vec<u8>, p: Point, what: &'static str) -> Result<(), EncodeError> {
    put_finite(buf, p.x, what)?;
    put_finite(buf, p.y, what)
}

fn get_point(r: &mut Reader<'_>, what: &'static str) -> Result<Point, DecodeError> {
    let x = r.finite_f64(what)?;
    let y = r.finite_f64(what)?;
    Ok(Point::new(x, y))
}

fn put_link(buf: &mut Vec<u8>, link: &Link) -> Result<(), EncodeError> {
    put_u64(buf, link.id.index() as u64);
    put_point(buf, link.sender, "link sender")?;
    put_point(buf, link.receiver, "link receiver")?;
    put_opt_u64(buf, link.sender_node.map(|n| n.index() as u64));
    put_opt_u64(buf, link.receiver_node.map(|n| n.index() as u64));
    Ok(())
}

fn get_link(r: &mut Reader<'_>) -> Result<Link, DecodeError> {
    let id = r.usize("link id")?;
    let sender = get_point(r, "link sender")?;
    let receiver = get_point(r, "link receiver")?;
    let mut link = Link::new(id, sender, receiver);
    link.sender_node = r.opt_usize("link sender node")?.map(NodeId);
    link.receiver_node = r.opt_usize("link receiver node")?.map(NodeId);
    Ok(link)
}

// ---------------------------------------------------------------------------
// Scheduler configuration
// ---------------------------------------------------------------------------

fn put_model(buf: &mut Vec<u8>, model: &SinrModel) {
    // Always finite by construction (SinrModel::new validates).
    put_f64(buf, model.alpha());
    put_f64(buf, model.beta());
    put_f64(buf, model.noise());
}

fn get_model(r: &mut Reader<'_>) -> Result<SinrModel, DecodeError> {
    let alpha = r.f64()?;
    let beta = r.f64()?;
    let noise = r.f64()?;
    SinrModel::new(alpha, beta, noise).map_err(|e| DecodeError::InvalidModel(e.to_string()))
}

fn put_power_mode(buf: &mut Vec<u8>, mode: PowerMode) -> Result<(), EncodeError> {
    match mode {
        PowerMode::Uniform => buf.push(0),
        PowerMode::Linear => buf.push(1),
        PowerMode::Oblivious { tau } => {
            buf.push(2);
            put_finite(buf, tau, "oblivious tau")?;
        }
        PowerMode::GlobalControl => buf.push(3),
    }
    Ok(())
}

fn get_power_mode(r: &mut Reader<'_>) -> Result<PowerMode, DecodeError> {
    match r.u8()? {
        0 => Ok(PowerMode::Uniform),
        1 => Ok(PowerMode::Linear),
        2 => {
            let tau = r.f64()?;
            if !(tau.is_finite() && tau > 0.0 && tau < 1.0) {
                return Err(DecodeError::InvalidTau { tau });
            }
            Ok(PowerMode::Oblivious { tau })
        }
        3 => Ok(PowerMode::GlobalControl),
        tag => Err(DecodeError::UnknownTag {
            what: "power mode",
            tag,
        }),
    }
}

fn put_scheduler(buf: &mut Vec<u8>, config: &SchedulerConfig) -> Result<(), EncodeError> {
    put_model(buf, &config.model);
    put_power_mode(buf, config.mode)?;
    put_bool(buf, config.verify_slots);
    Ok(())
}

fn get_scheduler(r: &mut Reader<'_>) -> Result<SchedulerConfig, DecodeError> {
    let model = get_model(r)?;
    let mode = get_power_mode(r)?;
    let verify_slots = r.bool()?;
    Ok(SchedulerConfig {
        model,
        mode,
        verify_slots,
    })
}

fn put_bbox(buf: &mut Vec<u8>, b: BoundingBox) -> Result<(), EncodeError> {
    put_finite(buf, b.min_x, "extent min_x")?;
    put_finite(buf, b.min_y, "extent min_y")?;
    put_finite(buf, b.max_x, "extent max_x")?;
    put_finite(buf, b.max_y, "extent max_y")
}

fn get_bbox(r: &mut Reader<'_>) -> Result<BoundingBox, DecodeError> {
    let min_x = r.finite_f64("extent min_x")?;
    let min_y = r.finite_f64("extent min_y")?;
    let max_x = r.finite_f64("extent max_x")?;
    let max_y = r.finite_f64("extent max_y")?;
    Ok(BoundingBox {
        min_x,
        min_y,
        max_x,
        max_y,
    })
}

/// A strictly positive finite parameter (constructors downstream assert on
/// these, so decode must reject them here).
fn positive(r: &mut Reader<'_>, what: &'static str) -> Result<f64, DecodeError> {
    let v = r.finite_f64(what)?;
    if v <= 0.0 {
        return Err(DecodeError::NonPositive { what, value: v });
    }
    Ok(v)
}

fn put_config(buf: &mut Vec<u8>, config: &SessionConfig) -> Result<(), EncodeError> {
    put_scheduler(buf, &config.scheduler)?;
    buf.push(match config.backend {
        Backend::Auto => 0,
        Backend::Static => 1,
        Backend::Engine => 2,
        Backend::Sharded => 3,
    });
    put_bool(buf, config.expect_churn);
    let VerifierStrategy::Hierarchical { depth } = config.verifier;
    put_opt_u64(buf, depth.map(|d| d as u64));
    put_u64(buf, config.target_shards as u64);
    put_opt(buf, config.partition.as_ref(), |buf, hints| {
        put_bbox(buf, hints.extent)?;
        put_finite(buf, hints.length_bounds.0, "length bound min")?;
        put_finite(buf, hints.length_bounds.1, "length bound max")
    })?;
    put_finite(buf, config.grid_slack, "grid slack")?;
    put_finite(buf, config.compact_slack, "compact slack")?;
    put_bool(buf, config.repair.enabled);
    put_finite(buf, config.repair.max_drift, "repair max drift")?;
    Ok(())
}

fn get_config(r: &mut Reader<'_>) -> Result<SessionConfig, DecodeError> {
    let scheduler = get_scheduler(r)?;
    let backend = match r.u8()? {
        0 => Backend::Auto,
        1 => Backend::Static,
        2 => Backend::Engine,
        3 => Backend::Sharded,
        tag => {
            return Err(DecodeError::UnknownTag {
                what: "backend",
                tag,
            })
        }
    };
    let expect_churn = r.bool()?;
    let depth = r.opt_usize("verifier depth")?;
    let target_shards = r.usize("target shards")?;
    let partition = r.opt("partition hints", |r| {
        let extent = get_bbox(r)?;
        let lo = r.finite_f64("length bound min")?;
        let hi = r.finite_f64("length bound max")?;
        Ok(PartitionHints {
            extent,
            length_bounds: (lo, hi),
        })
    })?;
    let grid_slack = positive(r, "grid slack")?;
    let compact_slack = positive(r, "compact slack")?;
    let enabled = r.bool()?;
    let max_drift = r.finite_f64("repair max drift")?;
    Ok(SessionConfig {
        scheduler,
        backend,
        expect_churn,
        verifier: VerifierStrategy::Hierarchical { depth },
        target_shards,
        partition,
        grid_slack,
        compact_slack,
        repair: RepairPolicy { enabled, max_drift },
    })
}

// ---------------------------------------------------------------------------
// Solve reports
// ---------------------------------------------------------------------------

// Minimum encoded sizes of the report's sequence elements: a slot is its
// length prefix; a phase a name prefix, nanos and count; a counter a name
// prefix and value; a histogram a name prefix, sum and bucket prefix; a
// bucket its index byte and count; a health signal its fixed fields.
const SLOT_MIN_BYTES: usize = 4;
const PHASE_MIN_BYTES: usize = 4 + 8 + 8;
const COUNTER_MIN_BYTES: usize = 4 + 8;
const HIST_MIN_BYTES: usize = 4 + 8 + 4;
const BUCKET_BYTES: usize = 1 + 8;
const SIGNAL_BYTES: usize = 1 + 1 + 3 * 8 + 3 * 8;

fn put_report(buf: &mut Vec<u8>, report: &SolveReport) -> Result<(), EncodeError> {
    buf.push(match report.backend {
        BackendKind::Static => 0,
        BackendKind::Engine => 1,
        BackendKind::Sharded => 2,
    });
    let r = &report.report;
    put_power_mode(buf, r.mode)?;
    put_u64(buf, r.num_links as u64);
    put_u64(buf, r.coloring_slots as u64);
    put_u64(buf, r.verified_slots as u64);
    put_f64(buf, r.diversity);
    put_u32(buf, r.log_star_diversity);
    put_f64(buf, r.log_log_diversity);
    put_seq(buf, r.schedule.slots(), "report slots", |buf, slot| {
        put_seq(buf, slot, "report slot", |buf, &link| {
            put_u64(buf, link as u64);
            Ok(())
        })
    })?;
    put_opt(buf, report.sharding.as_ref(), |buf, s| {
        put_u64(buf, s.shards as u64);
        put_f64(buf, s.radius);
        put_u64(buf, s.boundary_links as u64);
        put_u64(buf, s.repaired_links as u64);
        put_u64(buf, s.evicted_links as u64);
        put_u64(buf, s.max_owned as u64);
        put_f64(buf, s.mean_owned);
        put_f64(buf, s.ghost_fraction);
        Ok(())
    })?;
    put_opt(buf, report.repair.as_ref(), |buf, s| {
        buf.push(match s.decision {
            RepairDecision::Repaired => 0,
            RepairDecision::ColdStart => 1,
            RepairDecision::WatermarkBreach => 2,
            RepairDecision::Unsupported => 3,
        });
        put_u64(buf, s.dirty_links as u64);
        put_u64(buf, s.replaced_links as u64);
        put_u64(buf, s.baseline_slots as u64);
        put_f64(buf, s.drift);
        put_f64(buf, s.watermark);
        Ok(())
    })?;
    put_opt(buf, report.metrics.as_ref(), put_metrics)?;
    put_opt(buf, report.health.as_ref(), put_health)
}

fn get_report(r: &mut Reader<'_>) -> Result<SolveReport, DecodeError> {
    let backend = match r.u8()? {
        0 => BackendKind::Static,
        1 => BackendKind::Engine,
        2 => BackendKind::Sharded,
        tag => {
            return Err(DecodeError::UnknownTag {
                what: "report backend",
                tag,
            })
        }
    };
    let report = ScheduleReport {
        mode: get_power_mode(r)?,
        num_links: r.usize("report links")?,
        coloring_slots: r.usize("coloring slots")?,
        verified_slots: r.usize("verified slots")?,
        diversity: r.f64()?,
        log_star_diversity: r.u32()?,
        log_log_diversity: r.f64()?,
        schedule: Schedule::new(r.seq("report slots", SLOT_MIN_BYTES, |r| {
            r.seq("report slot", 8, |r| r.usize("slot member"))
        })?),
    };
    let sharding = r.opt("sharding stats", |r| {
        Ok(ShardingStats {
            shards: r.usize("shards")?,
            radius: r.f64()?,
            boundary_links: r.usize("boundary links")?,
            repaired_links: r.usize("repaired links")?,
            evicted_links: r.usize("evicted links")?,
            max_owned: r.usize("max owned")?,
            mean_owned: r.f64()?,
            ghost_fraction: r.f64()?,
        })
    })?;
    let repair = r.opt("repair stats", |r| {
        let decision = match r.u8()? {
            0 => RepairDecision::Repaired,
            1 => RepairDecision::ColdStart,
            2 => RepairDecision::WatermarkBreach,
            3 => RepairDecision::Unsupported,
            tag => {
                return Err(DecodeError::UnknownTag {
                    what: "repair decision",
                    tag,
                })
            }
        };
        Ok(RepairStats {
            decision,
            dirty_links: r.usize("dirty links")?,
            replaced_links: r.usize("replaced links")?,
            baseline_slots: r.usize("baseline slots")?,
            drift: r.f64()?,
            watermark: r.f64()?,
        })
    })?;
    Ok(SolveReport {
        report,
        backend,
        sharding,
        repair,
        metrics: r.opt("metrics", get_metrics)?,
        health: r.opt("health report", get_health)?,
    })
}

fn put_metrics(buf: &mut Vec<u8>, m: &Metrics) -> Result<(), EncodeError> {
    put_seq(buf, &m.phases, "phases", |buf, p| {
        put_str(buf, &p.path, "phase path")?;
        put_u64(buf, p.nanos);
        put_u64(buf, p.count);
        Ok(())
    })?;
    put_seq(buf, &m.counters, "counters", |buf, c| {
        put_str(buf, &c.name, "counter name")?;
        put_u64(buf, c.value);
        Ok(())
    })?;
    put_seq(buf, &m.hists, "histograms", |buf, h| {
        put_str(buf, &h.name, "histogram name")?;
        put_u64(buf, h.hist.sum());
        // Bucket indices are at most 64, so each fits its byte.
        put_seq(
            buf,
            &h.hist.bucket_counts(),
            "histogram buckets",
            |buf, &(b, n)| {
                buf.push(b as u8);
                put_u64(buf, n);
                Ok(())
            },
        )
    })
}

fn get_metrics(r: &mut Reader<'_>) -> Result<Metrics, DecodeError> {
    let phases = r.seq("phases", PHASE_MIN_BYTES, |r| {
        Ok(PhaseMetric {
            path: r.str("phase path")?,
            nanos: r.u64()?,
            count: r.u64()?,
        })
    })?;
    let counters = r.seq("counters", COUNTER_MIN_BYTES, |r| {
        Ok(CounterMetric {
            name: r.str("counter name")?,
            value: r.u64()?,
        })
    })?;
    let hists = r.seq("histograms", HIST_MIN_BYTES, |r| {
        let name = r.str("histogram name")?;
        let sum = r.u64()?;
        let buckets = r.seq("histogram buckets", BUCKET_BYTES, |r| {
            Ok((usize::from(r.u8()?), r.u64()?))
        })?;
        let hist = Histogram::from_parts(sum, &buckets).ok_or(DecodeError::InvalidHistogram)?;
        Ok(HistogramMetric { name, hist })
    })?;
    Ok(Metrics {
        phases,
        counters,
        hists,
    })
}

fn put_health(buf: &mut Vec<u8>, h: &HealthReport) -> Result<(), EncodeError> {
    put_u64(buf, h.solves);
    put_seq(buf, &h.signals, "health signals", |buf, s| {
        buf.push(match s.kind {
            SignalKind::Skew => 0,
            SignalKind::Drift => 1,
            SignalKind::Latency => 2,
        });
        put_bool(buf, s.active);
        put_f64(buf, s.value);
        put_f64(buf, s.fire_threshold);
        put_f64(buf, s.clear_threshold);
        put_u64(buf, s.fired);
        put_u64(buf, s.cleared);
        put_u64(buf, s.since);
        Ok(())
    })
}

fn get_health(r: &mut Reader<'_>) -> Result<HealthReport, DecodeError> {
    let solves = r.u64()?;
    let signals = r.seq("health signals", SIGNAL_BYTES, |r| {
        let kind = match r.u8()? {
            0 => SignalKind::Skew,
            1 => SignalKind::Drift,
            2 => SignalKind::Latency,
            tag => {
                return Err(DecodeError::UnknownTag {
                    what: "signal kind",
                    tag,
                })
            }
        };
        Ok(HealthSignal {
            kind,
            active: r.bool()?,
            value: r.f64()?,
            fire_threshold: r.f64()?,
            clear_threshold: r.f64()?,
            fired: r.u64()?,
            cleared: r.u64()?,
            since: r.u64()?,
        })
    })?;
    Ok(HealthReport { solves, signals })
}

// ---------------------------------------------------------------------------
// Engine traces
// ---------------------------------------------------------------------------

/// Minimum encoded size of an [`EngineEvent`] (a `Remove`: tag + key).
const EVENT_MIN_BYTES: usize = 1 + 8;

fn put_event(buf: &mut Vec<u8>, event: &EngineEvent) -> Result<(), EncodeError> {
    match *event {
        EngineEvent::Insert {
            key,
            sender,
            receiver,
            sender_node,
            receiver_node,
        } => {
            buf.push(0);
            put_u64(buf, key);
            put_point(buf, sender, "event sender")?;
            put_point(buf, receiver, "event receiver")?;
            put_opt_u64(buf, sender_node.map(|n| n as u64));
            put_opt_u64(buf, receiver_node.map(|n| n as u64));
        }
        EngineEvent::Remove { key } => {
            buf.push(1);
            put_u64(buf, key);
        }
        EngineEvent::MoveNode { node, to } => {
            buf.push(2);
            put_u64(buf, node as u64);
            put_point(buf, to, "event move target")?;
        }
    }
    Ok(())
}

fn get_event(r: &mut Reader<'_>) -> Result<EngineEvent, DecodeError> {
    match r.u8()? {
        0 => Ok(EngineEvent::Insert {
            key: r.u64()?,
            sender: get_point(r, "event sender")?,
            receiver: get_point(r, "event receiver")?,
            sender_node: r.opt_usize("event sender node")?,
            receiver_node: r.opt_usize("event receiver node")?,
        }),
        1 => Ok(EngineEvent::Remove { key: r.u64()? }),
        2 => {
            let node = r.usize("event move node")?;
            let to = get_point(r, "event move target")?;
            Ok(EngineEvent::MoveNode { node, to })
        }
        tag => Err(DecodeError::UnknownTag {
            what: "engine event",
            tag,
        }),
    }
}

fn put_trace(buf: &mut Vec<u8>, trace: &EngineTrace) -> Result<(), EncodeError> {
    put_str(buf, &trace.name, "trace name")?;
    put_seq(buf, &trace.events, "trace events", put_event)
}

fn get_trace(r: &mut Reader<'_>) -> Result<EngineTrace, DecodeError> {
    let name = r.str("trace name")?;
    let events = r.seq("trace events", EVENT_MIN_BYTES, get_event)?;
    Ok(EngineTrace { name, events })
}

// ---------------------------------------------------------------------------
// Session snapshots
// ---------------------------------------------------------------------------

/// Minimum encoded size of a [`KeyedLink`]: key + link.
const KEYED_LINK_MIN_BYTES: usize = 8 + LINK_MIN_BYTES;

fn put_keyed_links(buf: &mut Vec<u8>, links: &[KeyedLink]) -> Result<(), EncodeError> {
    put_seq(buf, links, "snapshot links", |buf, kl| {
        put_u64(buf, kl.key);
        put_link(buf, &kl.link)
    })
}

fn get_keyed_links(r: &mut Reader<'_>) -> Result<Vec<KeyedLink>, DecodeError> {
    r.seq("snapshot links", KEYED_LINK_MIN_BYTES, |r| {
        Ok(KeyedLink {
            key: r.u64()?,
            link: get_link(r)?,
        })
    })
}

fn put_counts(buf: &mut Vec<u8>, counts: EventCounts) {
    put_u64(buf, counts.inserts as u64);
    put_u64(buf, counts.removals as u64);
    put_u64(buf, counts.moves as u64);
}

fn get_counts(r: &mut Reader<'_>) -> Result<EventCounts, DecodeError> {
    Ok(EventCounts {
        inserts: r.usize("insert count")?,
        removals: r.usize("removal count")?,
        moves: r.usize("move count")?,
    })
}

fn put_dirty(buf: &mut Vec<u8>, dirty: &[u64]) -> Result<(), EncodeError> {
    put_seq(buf, dirty, "dirty keys", |buf, &k| {
        put_u64(buf, k);
        Ok(())
    })
}

fn get_dirty(r: &mut Reader<'_>) -> Result<Vec<u64>, DecodeError> {
    r.seq("dirty keys", 8, Reader::u64)
}

/// Warm budgets are decoded as raw bit patterns: finiteness is a *semantic*
/// property [`wagg_session::RestoreError::BudgetNotFinite`] owns — the wire
/// layer only guarantees the structure parses without panicking.
fn put_warm(buf: &mut Vec<u8>, warm: Option<&WarmState>) -> Result<(), EncodeError> {
    put_opt(buf, warm, |buf, w| {
        put_seq(buf, &w.colors, "warm colors", |buf, c| {
            put_opt_u64(buf, c.map(|c| c as u64));
            Ok(())
        })?;
        put_seq(buf, &w.budgets, "warm budgets", |buf, &b| {
            put_f64(buf, b);
            Ok(())
        })?;
        put_u64(buf, w.baseline_slots as u64);
        put_opt(
            buf,
            w.skew.as_ref(),
            |buf, &(max_owned, mean_owned, ghost_fraction)| {
                put_u64(buf, max_owned as u64);
                put_f64(buf, mean_owned);
                put_f64(buf, ghost_fraction);
                Ok(())
            },
        )
    })
}

fn get_warm(r: &mut Reader<'_>) -> Result<Option<WarmState>, DecodeError> {
    r.opt("warm state", |r| {
        Ok(WarmState {
            colors: r.seq("warm colors", 1, |r| r.opt_usize("warm color"))?,
            budgets: r.seq("warm budgets", 8, Reader::f64)?,
            baseline_slots: r.usize("warm baseline")?,
            skew: r.opt("warm skew", |r| {
                Ok((r.usize("skew max owned")?, r.f64()?, r.f64()?))
            })?,
        })
    })
}

fn put_backend_state(buf: &mut Vec<u8>, state: &BackendState) -> Result<(), EncodeError> {
    match state {
        BackendState::Static {
            links,
            next_key,
            counts,
        } => {
            buf.push(0);
            put_keyed_links(buf, links)?;
            put_u64(buf, *next_key);
            put_counts(buf, *counts);
        }
        BackendState::Engine {
            links,
            next_key,
            dirty,
            warm,
            counts,
        } => {
            buf.push(1);
            put_keyed_links(buf, links)?;
            put_u64(buf, *next_key);
            put_dirty(buf, dirty)?;
            put_warm(buf, warm.as_ref())?;
            put_counts(buf, *counts);
        }
        BackendState::ShardedRebuild {
            links,
            next_key,
            counts,
        } => {
            buf.push(2);
            put_keyed_links(buf, links)?;
            put_u64(buf, *next_key);
            put_counts(buf, *counts);
        }
        BackendState::ShardedEngine {
            links,
            next_key,
            dirty,
            warm,
            counts,
        } => {
            buf.push(3);
            put_keyed_links(buf, links)?;
            put_u64(buf, *next_key);
            put_dirty(buf, dirty)?;
            put_warm(buf, warm.as_ref())?;
            put_counts(buf, *counts);
        }
    }
    Ok(())
}

fn get_backend_state(r: &mut Reader<'_>) -> Result<BackendState, DecodeError> {
    match r.u8()? {
        0 => Ok(BackendState::Static {
            links: get_keyed_links(r)?,
            next_key: r.u64()?,
            counts: get_counts(r)?,
        }),
        1 => Ok(BackendState::Engine {
            links: get_keyed_links(r)?,
            next_key: r.u64()?,
            dirty: get_dirty(r)?,
            warm: get_warm(r)?,
            counts: get_counts(r)?,
        }),
        2 => Ok(BackendState::ShardedRebuild {
            links: get_keyed_links(r)?,
            next_key: r.u64()?,
            counts: get_counts(r)?,
        }),
        3 => Ok(BackendState::ShardedEngine {
            links: get_keyed_links(r)?,
            next_key: r.u64()?,
            dirty: get_dirty(r)?,
            warm: get_warm(r)?,
            counts: get_counts(r)?,
        }),
        tag => Err(DecodeError::UnknownTag {
            what: "backend state",
            tag,
        }),
    }
}

fn put_telemetry(buf: &mut Vec<u8>, telemetry: Option<&TelemetryState>) -> Result<(), EncodeError> {
    put_opt(buf, telemetry, |buf, t| {
        put_u64(buf, t.config.window as u64);
        put_finite(buf, t.config.ewma_alpha, "telemetry ewma alpha")?;
        put_finite(buf, t.config.fast_alpha, "telemetry fast alpha")?;
        put_finite(buf, t.config.slow_alpha, "telemetry slow alpha")?;
        put_u64(buf, t.config.health.min_samples);
        put_finite(buf, t.config.health.skew_fire, "health skew fire")?;
        put_finite(buf, t.config.health.skew_clear, "health skew clear")?;
        put_finite(buf, t.config.health.drift_fire, "health drift fire")?;
        put_finite(buf, t.config.health.drift_clear, "health drift clear")?;
        put_finite(buf, t.config.health.latency_fire, "health latency fire")?;
        put_finite(buf, t.config.health.latency_clear, "health latency clear")?;
        put_str(buf, &t.log, "telemetry log")
    })
}

fn get_telemetry(r: &mut Reader<'_>) -> Result<Option<TelemetryState>, DecodeError> {
    r.opt("telemetry state", |r| {
        Ok(TelemetryState {
            config: TelemetryConfig {
                window: r.usize("telemetry window")?,
                ewma_alpha: r.finite_f64("telemetry ewma alpha")?,
                fast_alpha: r.finite_f64("telemetry fast alpha")?,
                slow_alpha: r.finite_f64("telemetry slow alpha")?,
                health: HealthConfig {
                    min_samples: r.u64()?,
                    skew_fire: r.finite_f64("health skew fire")?,
                    skew_clear: r.finite_f64("health skew clear")?,
                    drift_fire: r.finite_f64("health drift fire")?,
                    drift_clear: r.finite_f64("health drift clear")?,
                    latency_fire: r.finite_f64("health latency fire")?,
                    latency_clear: r.finite_f64("health latency clear")?,
                },
            },
            log: r.str("telemetry log")?,
        })
    })
}

fn put_state(buf: &mut Vec<u8>, state: &SessionState) -> Result<(), EncodeError> {
    put_config(buf, &state.config)?;
    put_backend_state(buf, &state.backend)?;
    put_seq(
        buf,
        &state.trace_keys,
        "trace keys",
        |buf, &(trace, session)| {
            put_u64(buf, trace);
            put_u64(buf, session);
            Ok(())
        },
    )?;
    put_telemetry(buf, state.telemetry.as_ref())
}

fn get_state(r: &mut Reader<'_>) -> Result<SessionState, DecodeError> {
    Ok(SessionState {
        config: get_config(r)?,
        backend: get_backend_state(r)?,
        trace_keys: r.seq("trace keys", 16, |r| Ok((r.u64()?, r.u64()?)))?,
        telemetry: get_telemetry(r)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_links() -> Vec<Link> {
        (0..5)
            .map(|i| {
                let mut l = Link::new(
                    i,
                    Point::new(i as f64 * 3.0, 1.0),
                    Point::new(i as f64 * 3.0 + 1.0, 1.5),
                );
                if i % 2 == 0 {
                    l.sender_node = Some(NodeId(i));
                    l.receiver_node = Some(NodeId(i + 1));
                }
                l
            })
            .collect()
    }

    #[test]
    fn links_round_trip() {
        let frame = Frame::Links(sample_links());
        let bytes = frame.encode().unwrap();
        assert_eq!(&bytes[..4], &MAGIC);
        assert_eq!(bytes[4], VERSION);
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn config_round_trip() {
        let config = SessionConfig {
            backend: Backend::Sharded,
            expect_churn: true,
            target_shards: 7,
            partition: Some(PartitionHints {
                extent: BoundingBox {
                    min_x: 0.0,
                    min_y: 0.0,
                    max_x: 100.0,
                    max_y: 50.0,
                },
                length_bounds: (1.0, 2.0),
            }),
            repair: RepairPolicy {
                enabled: true,
                max_drift: 0.5,
            },
            ..SessionConfig::default()
        };
        let frame = Frame::Config(config);
        let bytes = frame.encode().unwrap();
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn trace_round_trip() {
        let trace = EngineTrace {
            name: "unit".to_string(),
            events: vec![
                EngineEvent::Insert {
                    key: 3,
                    sender: Point::new(0.0, 0.0),
                    receiver: Point::new(1.0, 0.0),
                    sender_node: Some(4),
                    receiver_node: None,
                },
                EngineEvent::MoveNode {
                    node: 4,
                    to: Point::new(2.0, 2.0),
                },
                EngineEvent::Remove { key: 3 },
            ],
        };
        let frame = Frame::Trace(trace);
        let bytes = frame.encode().unwrap();
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn wrong_magic_version_kind_are_typed() {
        let bytes = Frame::Links(vec![]).encode().unwrap();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad),
            Err(DecodeError::BadMagic { .. })
        ));
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert_eq!(
            Frame::decode(&bad),
            Err(DecodeError::UnsupportedVersion { version: 99 })
        );
        let mut bad = bytes.clone();
        bad[5] = 0xEE;
        assert_eq!(
            Frame::decode(&bad),
            Err(DecodeError::UnknownFrameKind { kind: 0xEE })
        );
        let mut bad = bytes;
        bad.push(0);
        assert_eq!(
            Frame::decode(&bad),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn unknown_report_tags_are_typed() {
        let config = SchedulerConfig::default();
        let report = SolveReport::from(wagg_schedule::solve_static(&sample_links(), config));
        let mut plain = Frame::Report(report.clone()).encode().unwrap();
        // The backend tag is the first payload byte.
        plain[6] = 3;
        assert_eq!(
            Frame::decode(&plain),
            Err(DecodeError::UnknownTag {
                what: "report backend",
                tag: 3
            })
        );
        plain[6] = 0;
        // The repair section's presence byte is where the two encodings
        // first differ; its decision tag follows.
        let mut repaired = Frame::Report(report.with_repair(RepairStats {
            decision: RepairDecision::Repaired,
            dirty_links: 1,
            replaced_links: 1,
            baseline_slots: 1,
            drift: 0.0,
            watermark: 0.25,
        }))
        .encode()
        .unwrap();
        let at = plain
            .iter()
            .zip(&repaired)
            .position(|(a, b)| a != b)
            .unwrap();
        repaired[at + 1] = 9;
        assert_eq!(
            Frame::decode(&repaired),
            Err(DecodeError::UnknownTag {
                what: "repair decision",
                tag: 9
            })
        );
    }

    #[test]
    fn absurd_length_prefix_is_capped_before_allocation() {
        let mut bytes = Frame::Links(sample_links()).encode().unwrap();
        // Overwrite the link-count prefix (right after the 6-byte header)
        // with u32::MAX: decode must reject it against the remaining bytes
        // instead of trying to allocate four billion links.
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(DecodeError::LengthOverflow { what: "links", .. })
        ));
    }

    #[test]
    fn non_finite_coordinates_rejected_both_ways() {
        let mut link = Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        link.sender = Point {
            x: f64::NAN,
            y: 0.0,
        };
        assert_eq!(
            Frame::Links(vec![link]).encode(),
            Err(EncodeError::NonFinite {
                what: "link sender"
            })
        );
        let mut bytes = Frame::Links(sample_links()).encode().unwrap();
        // First link's sender.x sits right after header + count + id.
        let off = 6 + 4 + 8;
        bytes[off..off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(DecodeError::NonFinite {
                what: "link sender"
            })
        );
    }
}
