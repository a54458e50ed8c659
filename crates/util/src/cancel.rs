//! Cooperative cancellation and bounded retry backoff.
//!
//! A [`CancelToken`] is an `Arc`'d atomic word shared between a build and
//! whoever wants to stop it: 0 means "live", any other value encodes the
//! [`CancelReason`] that won the race to cancel. The uncancelled check is
//! a single relaxed load — cheap enough to sit on normalization fuel
//! checkpoints ([`crate::fuel::Fuel::tick`]) and store preads without
//! showing up in profiles.
//!
//! Deep code (the fuel counter, the store) cannot thread a token through
//! every signature, so workers *install* their token thread-locally
//! ([`install`]) and those layers poll [`cancelled`]; with no token
//! installed the poll is a TLS read of `None` and always answers `false`.
//!
//! [`Backoff`] is the retry half: a bounded, deterministically jittered
//! delay schedule for transient I/O faults (the driver store's
//! interrupted reads). Determinism matters — the fault-injection tests
//! replay exact retry schedules from a seed.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why a build was cancelled. The first cancellation wins; later calls
/// with a different reason are ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] — an explicit user request.
    User,
    /// The whole-build deadline (`CompilerOptions::build_deadline`)
    /// elapsed.
    BuildDeadline,
    /// A single unit overran `CompilerOptions::unit_deadline`.
    UnitDeadline,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::User => write!(f, "cancelled"),
            CancelReason::BuildDeadline => write!(f, "build deadline exceeded"),
            CancelReason::UnitDeadline => write!(f, "unit deadline exceeded"),
        }
    }
}

const LIVE: u64 = 0;

fn encode(reason: CancelReason) -> u64 {
    match reason {
        CancelReason::User => 1,
        CancelReason::BuildDeadline => 2,
        CancelReason::UnitDeadline => 3,
    }
}

fn decode(word: u64) -> Option<CancelReason> {
    match word {
        LIVE => None,
        1 => Some(CancelReason::User),
        2 => Some(CancelReason::BuildDeadline),
        _ => Some(CancelReason::UnitDeadline),
    }
}

/// A shared cancellation flag. Clones observe the same state; cancelling
/// any clone cancels them all.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<AtomicU64>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation on behalf of the user. Idempotent.
    pub fn cancel(&self) {
        self.cancel_with(CancelReason::User);
    }

    /// Requests cancellation with an explicit reason. The first reason to
    /// land sticks; this returns whether *this* call was the one that
    /// cancelled.
    pub fn cancel_with(&self, reason: CancelReason) -> bool {
        self.inner
            .compare_exchange(LIVE, encode(reason), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Whether cancellation has been requested. A single relaxed load.
    pub fn is_cancelled(&self) -> bool {
        self.inner.load(Ordering::Relaxed) != LIVE
    }

    /// The reason cancellation was requested, if it was.
    pub fn reason(&self) -> Option<CancelReason> {
        decode(self.inner.load(Ordering::Acquire))
    }

    /// Re-arms the token. The session calls this after a cancelled build
    /// returns its partial report, so the *next* build starts live; a
    /// cancel issued between builds still cancels the next one.
    pub fn reset(&self) {
        self.inner.store(LIVE, Ordering::Release);
    }
}

thread_local! {
    static INSTALLED: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// Installs `token` as this thread's ambient cancellation flag for the
/// guard's lifetime. Nested installs stack; dropping the guard restores
/// the previous token.
#[must_use = "the token is uninstalled when the guard drops"]
pub fn install(token: &CancelToken) -> InstallGuard {
    INSTALLED.with(|stack| stack.borrow_mut().push(token.clone()));
    InstallGuard { _private: () }
}

/// Uninstalls the token [`install`] pushed when dropped.
pub struct InstallGuard {
    _private: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Whether the token installed on this thread (if any) has been
/// cancelled. `false` when no token is installed.
pub fn cancelled() -> bool {
    INSTALLED.with(|stack| stack.borrow().last().is_some_and(CancelToken::is_cancelled))
}

/// A bounded, deterministically jittered retry schedule.
///
/// Each [`Backoff::next_delay`] yields the next sleep, roughly doubling
/// from `base` with ±25% xorshift jitter derived from the seed, until the
/// attempt budget is spent — then `None`, and the caller surfaces the
/// fault as it would have without retry.
#[derive(Clone, Debug)]
pub struct Backoff {
    attempts_left: u32,
    next_ns: u64,
    state: u64,
}

/// Retries attempted for a transient fault before giving up.
pub const DEFAULT_RETRIES: u32 = 3;

/// First retry delay. Transient faults in the store are injected or
/// kernel-level (`EINTR`-shaped), so the schedule starts in microseconds.
pub const DEFAULT_BASE_DELAY: Duration = Duration::from_micros(20);

impl Backoff {
    /// A schedule of [`DEFAULT_RETRIES`] attempts starting at
    /// [`DEFAULT_BASE_DELAY`], jittered from `seed`.
    pub fn new(seed: u64) -> Backoff {
        Backoff::with(seed, DEFAULT_RETRIES, DEFAULT_BASE_DELAY)
    }

    /// A custom schedule: `retries` attempts starting at `base`.
    pub fn with(seed: u64, retries: u32, base: Duration) -> Backoff {
        Backoff {
            attempts_left: retries,
            next_ns: base.as_nanos() as u64,
            // Xorshift needs a nonzero state; fold the seed onto a
            // splitmix-style constant so seed 0 is as good as any.
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn jitter(&mut self) -> u64 {
        // xorshift64 — deterministic, dependency-free, good enough to
        // decorrelate retry storms.
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// The next delay to sleep before retrying, or `None` when the
    /// attempt budget is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempts_left == 0 {
            return None;
        }
        self.attempts_left -= 1;
        let base = self.next_ns;
        // ±25% jitter around the current base.
        let spread = (base / 2).max(1);
        let jittered = base - base / 4 + self.jitter() % spread;
        self.next_ns = base.saturating_mul(2);
        Some(Duration::from_nanos(jittered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_live_and_cancels_once() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert_eq!(token.reason(), None);
        assert!(token.cancel_with(CancelReason::BuildDeadline));
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), Some(CancelReason::BuildDeadline));
        // The first reason sticks.
        assert!(!token.cancel_with(CancelReason::User));
        assert_eq!(token.reason(), Some(CancelReason::BuildDeadline));
        token.reset();
        assert!(!token.is_cancelled());
        assert!(token.cancel_with(CancelReason::User));
        assert_eq!(token.reason(), Some(CancelReason::User));
    }

    #[test]
    fn clones_share_state() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn install_scopes_the_ambient_check() {
        assert!(!cancelled(), "no token installed yet");
        let token = CancelToken::new();
        {
            let _guard = install(&token);
            assert!(!cancelled());
            token.cancel();
            assert!(cancelled());
            assert_eq!(token.reason(), Some(CancelReason::User));
            // A nested install shadows the cancelled outer token.
            let inner = CancelToken::new();
            {
                let _inner = install(&inner);
                assert!(!cancelled());
            }
            assert!(cancelled(), "popping the inner install restores the outer");
        }
        assert!(!cancelled(), "dropping the guard uninstalls");
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let mut a = Backoff::new(42);
        let mut b = Backoff::new(42);
        let delays_a: Vec<_> = std::iter::from_fn(|| a.next_delay()).collect();
        let delays_b: Vec<_> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(delays_a, delays_b, "same seed, same schedule");
        assert_eq!(delays_a.len() as u32, DEFAULT_RETRIES);
        for delay in &delays_a {
            assert!(*delay > Duration::ZERO);
            assert!(*delay < Duration::from_millis(10), "retry delays stay micro-scale");
        }
        let mut other = Backoff::new(43);
        let delays_other: Vec<_> = std::iter::from_fn(|| other.next_delay()).collect();
        assert_ne!(delays_a, delays_other, "different seeds jitter differently");
    }

    #[test]
    fn backoff_roughly_doubles() {
        let mut schedule = Backoff::with(7, 4, Duration::from_micros(100));
        let delays: Vec<_> = std::iter::from_fn(|| schedule.next_delay()).collect();
        assert_eq!(delays.len(), 4);
        for pair in delays.windows(2) {
            assert!(pair[1] > pair[0], "delays grow: {delays:?}");
        }
    }
}
