//! Flight-recorder export surfaces: Prometheus-style text exposition
//! and a JSONL event log.
//!
//! * [`FlightRecorder::expose_text`] renders the recorder's current
//!   state — solve totals, per-series rolling statistics with
//!   p50/p90/p99, and the health detectors — in the Prometheus text
//!   exposition format, ready for a `/metrics` endpoint.
//! * [`encode_sample`] / [`decode_sample`] turn one [`SolveSample`]
//!   into one self-contained JSON line and back, losslessly (floats
//!   print in Rust's shortest round-trip form). A session appends one
//!   line per solve; [`replay`] folds a whole log back into a
//!   [`FlightRecorder`] whose state is **identical** to the recorder
//!   that produced the log (given the same [`TelemetryConfig`]), which
//!   is what makes the log a flight recorder rather than a printout.
//! * [`replay`] tolerates a truncated final line — the expected
//!   failure mode of an append-only log cut off mid-write — but
//!   reports malformed interior lines as hard errors.
//!
//! Everything here is plain string/data code and compiles identically
//! in both feature configurations; with `obs` off, [`replay`] returns
//! the zero-sized no-op recorder (the decode errors still surface, so
//! log validation works in every build).

use crate::json::Cursor;
use crate::telemetry::{
    BackendTag, FlightRecorder, RepairSample, RepairTag, SeriesKind, ShardSample, SolveSample,
    TelemetryConfig,
};

/// Encodes one sample as a single self-contained JSON line (no
/// trailing newline).
pub fn encode_sample(s: &SolveSample) -> String {
    let repair = match &s.repair {
        Some(r) => format!(
            "{{\"decision\":\"{}\",\"dirty\":{},\"replaced\":{},\"drift\":{}}}",
            r.decision.token(),
            r.dirty,
            r.replaced,
            r.drift
        ),
        None => "null".to_string(),
    };
    let sharding = match &s.sharding {
        Some(sh) => format!(
            "{{\"max_owned\":{},\"mean_owned\":{},\"ghost_fraction\":{}}}",
            sh.max_owned, sh.mean_owned, sh.ghost_fraction
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"seq\":{},\"wall_ns\":{},\"backend\":\"{}\",\"links\":{},\"slots\":{},\
         \"exact_fallbacks\":{},\"evictions\":{},\"repair\":{},\"sharding\":{}}}",
        s.seq,
        s.wall_nanos,
        s.backend.token(),
        s.links,
        s.slots,
        s.exact_fallbacks,
        s.evictions,
        repair,
        sharding
    )
}

fn decode_repair(c: &mut Cursor<'_>) -> Result<RepairSample, String> {
    let mut out = RepairSample::default();
    c.object(|c, key| {
        match key {
            "decision" => {
                let tok = c.string()?;
                out.decision = RepairTag::parse_token(&tok)
                    .ok_or_else(|| format!("unknown repair decision '{tok}'"))?;
            }
            "dirty" => out.dirty = c.u64()?,
            "replaced" => out.replaced = c.u64()?,
            "drift" => out.drift = c.f64()?,
            other => return Err(format!("unknown repair key '{other}'")),
        }
        Ok(())
    })?;
    Ok(out)
}

fn decode_sharding(c: &mut Cursor<'_>) -> Result<ShardSample, String> {
    let mut out = ShardSample::default();
    c.object(|c, key| {
        match key {
            "max_owned" => out.max_owned = c.u64()?,
            "mean_owned" => out.mean_owned = c.f64()?,
            "ghost_fraction" => out.ghost_fraction = c.f64()?,
            other => return Err(format!("unknown sharding key '{other}'")),
        }
        Ok(())
    })?;
    Ok(out)
}

/// Decodes one JSONL line back into a [`SolveSample`] — the exact
/// inverse of [`encode_sample`]. Unknown keys and malformed values are
/// errors (integers must be plain digits), so a corrupt log is detected
/// rather than silently skewed.
pub fn decode_sample(line: &str) -> Result<SolveSample, String> {
    let mut c = Cursor::new(line);
    let mut out = SolveSample::default();
    c.object(|c, key| {
        match key {
            "seq" => out.seq = c.u64()?,
            "wall_ns" => out.wall_nanos = c.u64()?,
            "backend" => {
                let tok = c.string()?;
                out.backend = BackendTag::parse_token(&tok)
                    .ok_or_else(|| format!("unknown backend '{tok}'"))?;
            }
            "links" => out.links = c.u64()?,
            "slots" => out.slots = c.u64()?,
            "exact_fallbacks" => out.exact_fallbacks = c.u64()?,
            "evictions" => out.evictions = c.u64()?,
            "repair" => out.repair = (!c.null()).then(|| decode_repair(c)).transpose()?,
            "sharding" => out.sharding = (!c.null()).then(|| decode_sharding(c)).transpose()?,
            other => return Err(format!("unknown sample key '{other}'")),
        }
        Ok(())
    })?;
    c.end()?;
    Ok(out)
}

/// What [`replay`] did with a log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Samples successfully folded into the recorder.
    pub applied: u64,
    /// Whether an unparseable final line was dropped (the truncated
    /// tail of a log cut off mid-write).
    pub truncated_tail: bool,
}

/// Folds a JSONL event log back into a fresh [`FlightRecorder`] with
/// the given configuration.
///
/// Because [`FlightRecorder::record`] is a deterministic fold, replaying
/// the complete log a session appended reproduces that session's
/// recorder state exactly (recorder equality is state equality).
/// A malformed **final** line is tolerated — the log was truncated
/// mid-append — and reported through [`ReplayStats::truncated_tail`];
/// a malformed line anywhere else is an error naming the line number.
pub fn replay(log: &str, config: TelemetryConfig) -> Result<(FlightRecorder, ReplayStats), String> {
    let recorder = FlightRecorder::with_config(config);
    let mut stats = ReplayStats::default();
    let lines: Vec<(usize, &str)> = log
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    for (pos, (lineno, line)) in lines.iter().enumerate() {
        match decode_sample(line) {
            Ok(sample) => {
                recorder.record(sample);
                stats.applied += 1;
            }
            Err(e) if pos + 1 == lines.len() => {
                let _ = e;
                stats.truncated_tail = true;
            }
            Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
        }
    }
    Ok((recorder, stats))
}

impl FlightRecorder {
    /// Serialises the **retained window** (oldest first) as JSONL, one
    /// line per sample, trailing newline included. Note this is the
    /// ring, not the full history — a session that wants the complete
    /// log appends [`encode_sample`] lines as it solves.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.samples() {
            out.push_str(&encode_sample(&s));
            out.push('\n');
        }
        out
    }

    /// Renders the recorder's state in the Prometheus text exposition
    /// format: solve totals, per-series statistics (`stat` label),
    /// p50/p90/p99 (`quantile` label), and the health detectors
    /// (`signal` label). Series that never observed a value are
    /// omitted.
    pub fn expose_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# wagg-obs flight recorder\n");
        out.push_str("# TYPE wagg_solves_total counter\n");
        out.push_str(&format!("wagg_solves_total {}\n", self.solves()));
        out.push_str("# TYPE wagg_window_samples gauge\n");
        out.push_str(&format!("wagg_window_samples {}\n", self.len()));
        for kind in SeriesKind::ALL {
            let st = self.series(kind);
            if st.count == 0 {
                continue;
            }
            let name = format!("wagg_solve_{}", kind.token());
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (label, v) in [
                ("last", st.last),
                ("ewma", st.ewma),
                ("win_min", st.win_min),
                ("win_max", st.win_max),
                ("win_mean", st.win_mean),
            ] {
                out.push_str(&format!("{name}{{stat=\"{label}\"}} {v}\n"));
            }
            for q in [0.5, 0.9, 0.99] {
                out.push_str(&format!(
                    "{name}{{quantile=\"{q}\"}} {}\n",
                    self.quantile(kind, q)
                ));
            }
            out.push_str(&format!("{name}_count {}\n", st.count));
        }
        let health = self.health();
        if !health.signals.is_empty() {
            out.push_str("# TYPE wagg_health_active gauge\n");
            out.push_str("# TYPE wagg_health_value gauge\n");
            out.push_str("# TYPE wagg_health_fired_total counter\n");
            out.push_str("# TYPE wagg_health_cleared_total counter\n");
            for sig in &health.signals {
                let label = sig.kind.token();
                out.push_str(&format!(
                    "wagg_health_active{{signal=\"{label}\"}} {}\n",
                    u64::from(sig.active)
                ));
                out.push_str(&format!(
                    "wagg_health_value{{signal=\"{label}\"}} {}\n",
                    sig.value
                ));
                out.push_str(&format!(
                    "wagg_health_fired_total{{signal=\"{label}\"}} {}\n",
                    sig.fired
                ));
                out.push_str(&format!(
                    "wagg_health_cleared_total{{signal=\"{label}\"}} {}\n",
                    sig.cleared
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_sample() -> SolveSample {
        SolveSample {
            seq: 3,
            wall_nanos: 123_456,
            backend: BackendTag::Sharded,
            links: 500,
            slots: 12,
            exact_fallbacks: 2,
            evictions: 1,
            repair: Some(RepairSample {
                decision: RepairTag::Repaired,
                dirty: 7,
                replaced: 9,
                drift: -0.03125,
            }),
            sharding: Some(ShardSample {
                max_owned: 80,
                mean_owned: 62.5,
                ghost_fraction: 0.212890625,
            }),
        }
    }

    #[test]
    fn encode_decode_round_trips_losslessly() {
        let full = full_sample();
        assert_eq!(decode_sample(&encode_sample(&full)).unwrap(), full);
        let cold = SolveSample {
            seq: 0,
            wall_nanos: 99,
            backend: BackendTag::Static,
            links: 10,
            slots: 4,
            ..SolveSample::default()
        };
        let line = encode_sample(&cold);
        assert!(line.contains("\"repair\":null"));
        assert!(line.contains("\"sharding\":null"));
        assert_eq!(decode_sample(&line).unwrap(), cold);
        // Awkward floats survive the text round trip.
        let mut odd = full;
        odd.repair.as_mut().unwrap().drift = 0.1 + 0.2;
        odd.sharding.as_mut().unwrap().mean_owned = 1.0 / 3.0;
        assert_eq!(decode_sample(&encode_sample(&odd)).unwrap(), odd);
    }

    #[test]
    fn decode_rejects_corrupt_lines() {
        assert!(decode_sample("").is_err());
        assert!(decode_sample("{").is_err());
        assert!(decode_sample("{\"seq\":1}{}").is_err());
        assert!(decode_sample("{\"bogus\":1}").is_err());
        assert!(decode_sample("{\"seq\":-4}").is_err());
        assert!(decode_sample("{\"backend\":\"quantum\"}").is_err());
        assert!(decode_sample("{\"repair\":{\"decision\":\"maybe\"}}").is_err());
        let full = encode_sample(&full_sample());
        assert!(decode_sample(&full[..full.len() - 5]).is_err());
    }

    #[test]
    fn integer_fields_are_plain_digits() {
        assert!(decode_sample("{\"seq\":1.5}").is_err());
        assert!(decode_sample("{\"wall_ns\":1e300}").is_err());
        assert!(decode_sample("{\"links\":18446744073709551616}").is_err());
        let max = decode_sample("{\"wall_ns\":18446744073709551615}").unwrap();
        assert_eq!(max.wall_nanos, u64::MAX);
    }

    #[test]
    fn replay_tolerates_truncated_tail_only() {
        let a = encode_sample(&full_sample());
        let b = encode_sample(&SolveSample {
            wall_nanos: 50,
            backend: BackendTag::Engine,
            links: 20,
            slots: 3,
            ..SolveSample::default()
        });
        // A log cut off mid-append: the broken tail is dropped.
        let log = format!("{a}\n{b}\n{}", &a[..a.len() / 2]);
        let (_, stats) = replay(&log, TelemetryConfig::default()).unwrap();
        assert_eq!(stats.applied, 2);
        assert!(stats.truncated_tail);
        // The same breakage mid-log is a hard error naming the line.
        let bad = format!("{a}\n{}\n{b}", &a[..a.len() / 2]);
        let err = replay(&bad, TelemetryConfig::default()).unwrap_err();
        assert!(err.starts_with("line 2:"), "unexpected error: {err}");
        // Blank lines are ignored, clean logs report a clean tail.
        let clean = format!("\n{a}\n\n{b}\n");
        let (_, stats) = replay(&clean, TelemetryConfig::default()).unwrap();
        assert_eq!(stats.applied, 2);
        assert!(!stats.truncated_tail);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn replay_reproduces_recorder_state_exactly() {
        let config = TelemetryConfig {
            window: 4,
            ..TelemetryConfig::default()
        };
        let live = FlightRecorder::with_config(config);
        let mut log = String::new();
        for i in 0..9u64 {
            let mut sample = full_sample();
            sample.wall_nanos = 1_000 + 137 * i;
            sample.sharding.as_mut().unwrap().max_owned = 60 + 10 * i;
            let seq = live.record(sample);
            sample.seq = seq;
            log.push_str(&encode_sample(&sample));
            log.push('\n');
        }
        let (replayed, stats) = replay(&log, config).unwrap();
        assert_eq!(stats.applied, 9);
        assert_eq!(replayed, live);
        // The ring-only export covers the window; replaying it alone
        // matches a recorder that saw only those solves.
        let (tail, _) = replay(&live.to_jsonl(), config).unwrap();
        assert_eq!(tail.solves(), 4);
        assert_ne!(tail, live);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn expose_text_is_prometheus_shaped() {
        let fr = FlightRecorder::new();
        for _ in 0..3 {
            fr.record(full_sample());
        }
        let text = fr.expose_text();
        assert!(text.contains("wagg_solves_total 3\n"));
        assert!(text.contains("wagg_window_samples 3\n"));
        assert!(text.contains("wagg_solve_wall_nanos{stat=\"last\"} 123456\n"));
        assert!(text.contains("wagg_solve_wall_nanos{quantile=\"0.99\"}"));
        assert!(text.contains("wagg_solve_skew{stat=\"ewma\"}"));
        assert!(text.contains("wagg_health_active{signal=\"skew\"}"));
        assert!(text.contains("wagg_health_fired_total{signal=\"latency\"} 0\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
            assert!(parts.next().is_some(), "bad line: {line}");
        }
    }

    #[cfg(not(feature = "obs"))]
    #[test]
    fn disabled_recorder_exports_empty_surfaces() {
        let fr = FlightRecorder::new();
        fr.record(full_sample());
        assert_eq!(fr.to_jsonl(), "");
        let text = fr.expose_text();
        assert!(text.contains("wagg_solves_total 0\n"));
        assert!(!text.contains("wagg_solve_wall_nanos"));
        // Replay still validates the log even though nothing is kept.
        let log = format!("{}\n", encode_sample(&full_sample()));
        let (rec, stats) = replay(&log, TelemetryConfig::default()).unwrap();
        assert_eq!(stats.applied, 1);
        assert_eq!(rec.solves(), 0);
        assert!(replay("garbage\nmore\n", TelemetryConfig::default()).is_err());
    }
}
