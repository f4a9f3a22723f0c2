//! The runtime-wide blocking-wait timeout, parsed in exactly one place.
//!
//! Every blocking primitive in the system — the runtime's address-board
//! fetches and flag waits, and the fabric's receives and backpressure
//! stalls — bounds its wait with this value so an under-synchronized
//! schedule fails in seconds with a diagnostic instead of hanging CI.

use std::sync::OnceLock;
use std::time::Duration;

/// How long a blocking primitive waits before giving up with a
/// diagnostic. Defaults to 10 s; override with `PIPMCOLL_SYNC_TIMEOUT_MS`.
///
/// A malformed value falls back to the default here: the loud path is
/// [`crate::env::validate`], run at fabric construction, which rejects a
/// bad `PIPMCOLL_SYNC_TIMEOUT_MS` with a typed [`crate::env::EnvError`]
/// before any worker thread can read this cache.
pub fn sync_timeout() -> Duration {
    static T: OnceLock<Duration> = OnceLock::new();
    *T.get_or_init(|| timeout_from(std::env::var(VAR).ok().as_deref()))
}

const VAR: &str = "PIPMCOLL_SYNC_TIMEOUT_MS";

/// The timeout `PIPMCOLL_SYNC_TIMEOUT_MS` set to `raw` (`None`: unset)
/// stands for: its milliseconds, or the 10 s default when unset or
/// malformed.
fn timeout_from(raw: Option<&str>) -> Duration {
    let parsed = raw.and_then(|v| crate::env::parse_u64(VAR, v, "milliseconds").ok());
    Duration::from_millis(parsed.unwrap_or(10_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ten_seconds() {
        assert_eq!(timeout_from(None), Duration::from_secs(10));
        assert_eq!(timeout_from(Some("30000")), Duration::from_secs(30));
        assert_eq!(timeout_from(Some(" 250 ")), Duration::from_millis(250));
        for bad in ["", "ten", "10ms", "-5"] {
            assert_eq!(timeout_from(Some(bad)), Duration::from_secs(10), "{bad:?}");
        }
    }

    #[test]
    fn cached_timeout_reads_the_environment() {
        // CI sets the variable for whole jobs, so compare against what
        // the real environment stands for rather than the default.
        let raw = std::env::var(VAR).ok();
        assert_eq!(sync_timeout(), timeout_from(raw.as_deref()));
    }
}
