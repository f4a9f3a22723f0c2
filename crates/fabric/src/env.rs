//! One place to read and parse every `PIPMCOLL_*` tuning variable.
//!
//! The parsing logic used to be copy-pasted across `timeout.rs`,
//! `wait.rs`, `pool.rs`, `tcp` and `chaos.rs`, each copy panicking
//! on a malformed value — and because most of these knobs are first read
//! lazily from a progress or worker thread, a typo in an env var
//! surfaced as a panic deep inside the fabric instead of a readable
//! startup error.
//!
//! The policy now has two halves:
//!
//! * [`validate`] checks **every** known variable and returns a typed
//!   [`EnvError`] naming the variable, the offending value and what was
//!   expected. Fabric constructors ([`crate::TcpFabric::connect`],
//!   [`crate::try_from_env`]) call it, so a bad variable fails fast at
//!   construction with a readable message.
//! * The cached getters ([`crate::sync_timeout`], the heartbeat, …) fall
//!   back to their documented defaults on a malformed value instead of
//!   panicking — by the time a worker thread reads them, construction
//!   has already validated the environment, so the fallback only
//!   triggers for backends built without a validating constructor (e.g.
//!   a bare `InProcFabric` in a unit test), where a silent default is
//!   preferable to killing a worker.

use std::fmt;
use std::time::Duration;

/// A malformed environment variable, caught at fabric construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// The variable that failed to parse.
    pub var: &'static str,
    /// Its raw value (lossy for non-unicode).
    pub value: String,
    /// What a valid value looks like.
    pub expected: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?} is malformed: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

impl From<EnvError> for crate::FabricError {
    fn from(e: EnvError) -> Self {
        crate::FabricError::Config {
            var: e.var,
            detail: format!("{:?} is malformed: expected {}", e.value, e.expected),
        }
    }
}

/// Parse a raw string as a `u64`, rejecting empty, garbage and
/// overflowing values with a typed error.
pub fn parse_u64(var: &'static str, raw: &str, expected: &'static str) -> Result<u64, EnvError> {
    raw.trim().parse::<u64>().map_err(|_| EnvError {
        var,
        value: raw.to_string(),
        expected,
    })
}

/// Parse a raw string as a `usize` (same rejection rules).
pub fn parse_usize(
    var: &'static str,
    raw: &str,
    expected: &'static str,
) -> Result<usize, EnvError> {
    raw.trim().parse::<usize>().map_err(|_| EnvError {
        var,
        value: raw.to_string(),
        expected,
    })
}

/// Read an env var and parse it as `u64`. `Ok(None)` when unset;
/// non-unicode values are malformed, not absent.
pub fn read_u64(var: &'static str, expected: &'static str) -> Result<Option<u64>, EnvError> {
    match std::env::var(var) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => Err(EnvError {
            var,
            value: v.to_string_lossy().into_owned(),
            expected,
        }),
        Ok(v) => parse_u64(var, &v, expected).map(Some),
    }
}

/// Read an env var and parse it as `usize`.
pub fn read_usize(var: &'static str, expected: &'static str) -> Result<Option<usize>, EnvError> {
    match std::env::var(var) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => Err(EnvError {
            var,
            value: v.to_string_lossy().into_owned(),
            expected,
        }),
        Ok(v) => parse_usize(var, &v, expected).map(Some),
    }
}

/// Read an env var as a millisecond count.
pub fn read_ms(var: &'static str, expected: &'static str) -> Result<Option<Duration>, EnvError> {
    Ok(read_u64(var, expected)?.map(Duration::from_millis))
}

/// Read-with-default for the cached hot-path getters: a malformed value
/// falls back to `default` (construction-time [`validate`] is the loud
/// path; see the module docs for why workers never panic here).
pub fn read_u64_or(var: &'static str, default: u64) -> u64 {
    read_u64(var, "an integer")
        .ok()
        .flatten()
        .unwrap_or(default)
}

/// Check every known `PIPMCOLL_*` variable, returning the first typed
/// error. Called by fabric constructors so a typo fails fast with a
/// readable message instead of panicking in a worker thread later.
pub fn validate() -> Result<(), EnvError> {
    read_ms("PIPMCOLL_SYNC_TIMEOUT_MS", "a whole number of milliseconds")?;
    read_ms("PIPMCOLL_HEARTBEAT_MS", "a millisecond count")?;
    read_ms("PIPMCOLL_BROWNOUT_MS", "a millisecond count (0 disables)")?;
    if let Some(lanes) = read_usize("PIPMCOLL_FABRIC_LANES", "a positive lane count")? {
        if lanes == 0 {
            return Err(EnvError {
                var: "PIPMCOLL_FABRIC_LANES",
                value: "0".to_string(),
                expected: "a positive lane count",
            });
        }
    }
    if let Ok(spec) = std::env::var("PIPMCOLL_CHAOS") {
        if let Err(e) = crate::ChaosConfig::parse(&spec) {
            return Err(EnvError {
                var: "PIPMCOLL_CHAOS",
                value: spec,
                expected: "a chaos spec (see ChaosConfig::parse)",
            })
            .map_err(|mut err| {
                err.value = format!("{} ({e})", err.value);
                err
            });
        }
    }
    read_u64("PIPMCOLL_CHAOS_SEED", "a u64 seed")?;
    read_u64("PIPMCOLL_SVC_NIC_BUDGET", "a bytes-per-second rate")?;
    read_u64("PIPMCOLL_SVC_RETRY_MAX", "a retry count")?;
    read_u64("PIPMCOLL_SVC_DEADLINE_MS", "a millisecond count")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The parse functions are tested on raw strings rather than by
    // mutating the process environment: env vars are process-global and
    // the rest of the suite reads the real PIPMCOLL_* values through
    // OnceLock caches.

    #[test]
    fn valid_values_parse() {
        assert_eq!(parse_u64("X", "42", "int"), Ok(42));
        assert_eq!(parse_u64("X", "  7 ", "int"), Ok(7), "whitespace trimmed");
        assert_eq!(parse_usize("X", "0", "int"), Ok(0));
        assert_eq!(parse_u64("X", &u64::MAX.to_string(), "int"), Ok(u64::MAX));
    }

    #[test]
    fn empty_value_is_malformed() {
        let e = parse_u64("PIPMCOLL_SYNC_TIMEOUT_MS", "", "a millisecond count").unwrap_err();
        assert_eq!(e.var, "PIPMCOLL_SYNC_TIMEOUT_MS");
        let msg = e.to_string();
        assert!(msg.contains("PIPMCOLL_SYNC_TIMEOUT_MS"), "{msg}");
        assert!(msg.contains("millisecond"), "{msg}");
    }

    #[test]
    fn garbage_value_is_malformed() {
        assert!(parse_u64("X", "ten", "int").is_err());
        assert!(parse_u64("X", "10ms", "int").is_err());
        assert!(parse_u64("X", "-5", "int").is_err());
        assert!(parse_u64("X", "1.5", "int").is_err());
        assert!(parse_usize("X", "0x10", "int").is_err());
    }

    #[test]
    fn overflow_value_is_malformed() {
        // One past u64::MAX.
        let e = parse_u64("X", "18446744073709551616", "int").unwrap_err();
        assert_eq!(e.value, "18446744073709551616");
        assert!(parse_u64("X", "99999999999999999999999999", "int").is_err());
    }

    #[test]
    fn unset_reads_as_none() {
        // A name nothing in the environment plausibly sets.
        assert_eq!(read_u64("PIPMCOLL_TEST_UNSET_XYZZY", "int"), Ok(None));
        assert_eq!(read_ms("PIPMCOLL_TEST_UNSET_XYZZY", "int"), Ok(None));
        assert_eq!(read_u64_or("PIPMCOLL_TEST_UNSET_XYZZY", 17), 17);
    }

    #[test]
    fn validate_accepts_the_test_environment() {
        // The test environment sets none of these (or sets them validly
        // in CI); either way validation must pass.
        validate().expect("test environment is clean");
    }
}
