//! Chrome `trace_event` export validation.
//!
//! [`Recorder::chrome_trace`](crate::Recorder::chrome_trace) emits the
//! JSON-array form of the Trace Event Format — a list of complete
//! (`"ph":"X"`) events with microsecond timestamps — which
//! `chrome://tracing`, Perfetto and speedscope all open directly. This
//! module is the matching consumer-side check: [`validate`] parses a
//! document with the shared [`json`](crate::json) reader and returns the
//! aggregate [`TraceStats`] the profiling binaries assert on (the CI
//! smoke test and the `partition_profile --trace` wall-clock
//! cross-check).

use crate::json::Cursor;

/// Aggregates of a validated trace document.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceStats {
    /// Number of complete (`"ph":"X"`) events in the document.
    pub events: usize,
    /// The largest event duration, in microseconds — for single-root
    /// traces this is the root span, i.e. the instrumented wall-clock.
    pub max_dur_us: f64,
    /// Sum of every event's duration, in microseconds (children counted
    /// on top of their parents).
    pub total_dur_us: f64,
}

/// Validates a `trace_event` JSON document produced by
/// [`Recorder::chrome_trace`](crate::Recorder::chrome_trace): a JSON
/// array of flat objects, each carrying at least `name`, `ph` (must be
/// `"X"`), `ts`, `dur`, `pid` and `tid`.
///
/// # Errors
///
/// Describes the first malformed token, missing required key, or
/// non-`"X"` phase.
pub fn validate(text: &str) -> Result<TraceStats, String> {
    let mut c = Cursor::new(text);
    let mut stats = TraceStats::default();
    c.array(|c| {
        let dur = event(c)?;
        stats.events += 1;
        stats.total_dur_us += dur;
        stats.max_dur_us = stats.max_dur_us.max(dur);
        Ok(())
    })?;
    c.end()?;
    Ok(stats)
}

/// One event object; checks the required keys and the `"X"` phase and
/// returns the duration.
fn event(c: &mut Cursor<'_>) -> Result<f64, String> {
    let (mut name, mut ph, mut ts, mut dur, mut pid, mut tid) =
        (None, None, None, None, None, None);
    c.object(|c, key| {
        match key {
            "name" => name = Some(c.string()?),
            "cat" => drop(c.string()?),
            "ph" => ph = Some(c.string()?),
            "ts" => ts = Some(c.f64()?),
            "dur" => dur = Some(c.f64()?),
            "pid" => pid = Some(c.f64()?),
            "tid" => tid = Some(c.f64()?),
            other => return Err(format!("unknown event key {other:?}")),
        }
        Ok(())
    })?;
    name.ok_or("event missing \"name\"")?;
    ts.ok_or("event missing \"ts\"")?;
    pid.ok_or("event missing \"pid\"")?;
    tid.ok_or("event missing \"tid\"")?;
    let dur = dur.ok_or("event missing \"dur\"")?;
    let ph = ph.ok_or("event missing \"ph\"")?;
    if ph != "X" {
        return Err(format!("unsupported event phase {ph:?} (expected \"X\")"));
    }
    Ok(dur)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_validates() {
        let stats = validate("[]").unwrap();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.total_dur_us, 0.0);
    }

    #[test]
    fn well_formed_events_aggregate() {
        let doc = r#"[
            {"name":"solve","cat":"wagg","ph":"X","pid":0,"tid":0,"ts":0.000,"dur":100.500},
            {"name":"solve/build","cat":"wagg","ph":"X","pid":0,"tid":1,"ts":1.000,"dur":40.250}
        ]"#;
        let stats = validate(doc).unwrap();
        assert_eq!(stats.events, 2);
        assert!((stats.total_dur_us - 140.75).abs() < 1e-9);
        assert!((stats.max_dur_us - 100.5).abs() < 1e-9);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(validate("").is_err());
        assert!(validate("{").is_err());
        assert!(validate("[{}]").is_err());
        assert!(validate(r#"[{"name":"x","ph":"X","ts":0,"dur":1,"pid":0}]"#).is_err());
        assert!(validate(r#"[{"name":"x","ph":"B","ts":0,"dur":1,"pid":0,"tid":0}]"#).is_err());
        assert!(
            validate(r#"[{"name":"x","ph":"X","ts":0,"dur":1,"pid":0,"tid":0}] trailing"#).is_err()
        );
    }
}
