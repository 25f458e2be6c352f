//! Per-tenant admission control: auth, token-bucket rate limits, and
//! in-flight quotas.
//!
//! One [`Admission`] guards one tenant. The connection reader consults
//! it *before* a `SubmitBatch` enters the tenant's dispatcher queue:
//!
//! * the **token bucket** bounds the sustained report rate (a batch of
//!   *n* responses spends *n* tokens, refilled at the configured rate);
//! * the **in-flight quota** bounds how many submit frames may be
//!   queued or executing at once, independent of their size;
//! * a full **dispatcher queue** (checked by the caller via `try_send`)
//!   is the third shedding condition.
//!
//! All three shed with a typed
//! [`WireError::Overloaded`](crate::frame::WireError::Overloaded)
//! carrying a `retry_after_ms` hint, instead of stalling the reader
//! thread — so a flooding client gets pushback it can act on while
//! control frames (`Hello`/`OpenRound`/`CloseRound`) still pass through
//! the blocking path and an open round can always close.
//!
//! Auth is a per-tenant shared secret checked at `Hello` with a
//! constant-time comparison ([`constant_time_eq`]); failures are typed
//! [`WireError::AuthFailed`](crate::frame::WireError::AuthFailed).

use ldp_obs::{Counter, Gauge, Scope};
use ldp_service::TenantLimits;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fallback `retry_after_ms` when the deficit cannot be priced (rate
/// limit of zero, or an in-flight/queue shed with no rate signal).
pub(crate) const DEFAULT_RETRY_AFTER_MS: u64 = 25;

/// `retry_after_ms` is clamped here so a zero or tiny refill rate
/// cannot tell clients to sleep forever.
const MAX_RETRY_AFTER_MS: u64 = 60_000;

/// Compare two byte strings without a data-dependent early exit.
///
/// The run time depends only on the *lengths*, never on where the
/// contents first differ, so an attacker cannot binary-search a token
/// byte by byte through response timing.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let n = a.len().max(b.len());
    let mut diff = a.len() ^ b.len();
    for i in 0..n {
        let x = *a.get(i).unwrap_or(&0);
        let y = *b.get(i).unwrap_or(&0);
        diff |= (x ^ y) as usize;
    }
    diff == 0
}

/// Why a submit was shed (one counter each in the stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The token bucket lacked the tokens for the batch.
    Rate,
    /// The in-flight quota was exhausted.
    Inflight,
    /// The dispatcher queue was full.
    Queue,
}

/// Monotonic counters of one tenant's admission decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Submit frames admitted into the dispatcher queue.
    pub admitted: u64,
    /// Submits shed because the token bucket was empty.
    pub shed_rate: u64,
    /// Submits shed because the in-flight quota was exhausted.
    pub shed_inflight: u64,
    /// Submits shed because the dispatcher queue was full.
    pub shed_queue: u64,
    /// `Hello` frames rejected by the shared-secret check.
    pub auth_failures: u64,
}

impl AdmissionSnapshot {
    /// Total sheds across all three conditions.
    pub fn shed_total(&self) -> u64 {
        self.shed_rate + self.shed_inflight + self.shed_queue
    }
}

/// The [`ldp_obs`] handles behind one tenant's admission counters —
/// the *only* counting path; [`AdmissionSnapshot`] is a derived view.
#[derive(Debug)]
struct AdmissionObs {
    admitted: Arc<Counter>,
    shed_rate: Arc<Counter>,
    shed_inflight: Arc<Counter>,
    shed_queue: Arc<Counter>,
    auth_failures: Arc<Counter>,
    rate_wait_ms: Arc<Counter>,
    inflight: Arc<Gauge>,
}

impl AdmissionObs {
    fn in_scope(scope: &Scope) -> AdmissionObs {
        let shed = |reason: &str| {
            scope.with(&[("reason", reason)]).counter(
                "ldp_admission_shed_total",
                "Submit frames shed by admission control, by reason.",
            )
        };
        AdmissionObs {
            admitted: scope.counter(
                "ldp_admission_admitted_total",
                "Submit frames admitted into the dispatcher queue.",
            ),
            shed_rate: shed("rate"),
            shed_inflight: shed("inflight"),
            shed_queue: shed("queue"),
            auth_failures: scope.counter(
                "ldp_auth_failures_total",
                "Hello frames rejected by the shared-secret check.",
            ),
            rate_wait_ms: scope.counter(
                "ldp_admission_rate_wait_ms_total",
                "Total retry-after milliseconds suggested to rate-limited clients.",
            ),
            inflight: scope.gauge(
                "ldp_inflight",
                "Submit frames currently queued or executing.",
            ),
        }
    }
}

#[derive(Debug)]
struct Bucket {
    /// Tokens currently available (fractional: refill is continuous).
    tokens: f64,
    last_refill: Instant,
}

/// One tenant's admission state. Shared (via `Arc`) between every
/// connection bound to the tenant and its dispatcher.
#[derive(Debug)]
pub struct Admission {
    limits: TenantLimits,
    bucket: Option<Mutex<Bucket>>,
    obs: AdmissionObs,
}

impl Admission {
    /// Admission state enforcing `limits`, counting into a private
    /// registry (see [`with_obs`](Self::with_obs) to share one).
    pub fn new(limits: TenantLimits) -> Admission {
        Admission::with_obs(limits, &Scope::standalone())
    }

    /// Admission state enforcing `limits`, counting into `scope` (the
    /// server passes the tenant's `tenant="<id>"` scope so one scrape
    /// covers every tenant's admission decisions).
    pub fn with_obs(limits: TenantLimits, scope: &Scope) -> Admission {
        let bucket = limits.rate.map(|rate| {
            Mutex::new(Bucket {
                tokens: rate.burst as f64,
                last_refill: Instant::now(),
            })
        });
        Admission {
            limits,
            bucket,
            obs: AdmissionObs::in_scope(scope),
        }
    }

    /// Check a `Hello`'s credential against the tenant's shared secret.
    ///
    /// Tenants without a configured token accept anything; tenants with
    /// one require an exact (constant-time) match.
    pub fn check_auth(&self, token: Option<&str>) -> bool {
        let ok = match &self.limits.auth_token {
            None => true,
            Some(expected) => match token {
                Some(got) => constant_time_eq(expected.as_bytes(), got.as_bytes()),
                None => false,
            },
        };
        if !ok {
            self.obs.auth_failures.inc();
        }
        ok
    }

    /// Try to admit a submit of `reports` responses.
    ///
    /// On success the returned [`InflightGuard`] holds one in-flight
    /// slot until dropped (after the dispatcher replies). On refusal
    /// the caller sheds with the returned reason and backoff hint.
    ///
    /// Admission alone does not count the frame as admitted — the
    /// caller still has to win the non-blocking enqueue, and reports
    /// success with [`note_admitted`](Self::note_admitted), so the
    /// admitted counter stays monotonic (a Prometheus requirement).
    pub fn admit(
        self: &Arc<Self>,
        reports: usize,
    ) -> Result<InflightGuard, (ShedReason, Duration)> {
        // Optimistic increment (the gauge returns the post-add level);
        // undo on any refusal below.
        let inflight_now = self.obs.inflight.add(1);
        if let Some(max) = self.limits.max_inflight {
            if inflight_now > max as i64 {
                self.obs.inflight.add(-1);
                self.obs.shed_inflight.inc();
                return Err((
                    ShedReason::Inflight,
                    Duration::from_millis(DEFAULT_RETRY_AFTER_MS),
                ));
            }
        }
        if let Some(wait) = self.take_tokens(reports) {
            self.obs.inflight.add(-1);
            self.obs.shed_rate.inc();
            self.obs.rate_wait_ms.add(wait.as_millis() as u64);
            return Err((ShedReason::Rate, wait));
        }
        Ok(InflightGuard {
            admission: Arc::clone(self),
        })
    }

    /// Record that an admitted submit made it into the dispatcher
    /// queue (the counterpart of [`note_queue_shed`](Self::note_queue_shed)).
    pub fn note_admitted(&self) {
        self.obs.admitted.inc();
    }

    /// Record a queue-full shed decided by the caller (the guard from
    /// [`admit`](Self::admit) must be dropped by then).
    pub fn note_queue_shed(&self) {
        self.obs.shed_queue.inc();
    }

    /// Spend `reports` tokens, or return how long until they refill.
    fn take_tokens(&self, reports: usize) -> Option<Duration> {
        let (bucket, rate) = match (&self.bucket, self.limits.rate) {
            (Some(bucket), Some(rate)) => (bucket, rate),
            _ => return None,
        };
        let mut bucket = bucket.lock().unwrap();
        let now = Instant::now();
        let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
        bucket.last_refill = now;
        bucket.tokens = (bucket.tokens + elapsed * rate.reports_per_sec).min(rate.burst as f64);
        let needed = reports as f64;
        if bucket.tokens >= needed {
            bucket.tokens -= needed;
            return None;
        }
        let deficit = needed - bucket.tokens;
        let wait_ms = if rate.reports_per_sec > 0.0 {
            (deficit / rate.reports_per_sec * 1000.0).ceil() as u64
        } else {
            MAX_RETRY_AFTER_MS
        };
        Some(Duration::from_millis(wait_ms.clamp(1, MAX_RETRY_AFTER_MS)))
    }

    /// Current in-flight submit count (queued + executing).
    pub fn inflight(&self) -> usize {
        self.obs.inflight.get().max(0) as usize
    }

    /// Snapshot the monotonic admission counters — a cheap view over
    /// the underlying [`ldp_obs`] counters, never a second tally.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        AdmissionSnapshot {
            admitted: self.obs.admitted.get(),
            shed_rate: self.obs.shed_rate.get(),
            shed_inflight: self.obs.shed_inflight.get(),
            shed_queue: self.obs.shed_queue.get(),
            auth_failures: self.obs.auth_failures.get(),
        }
    }
}

/// Holds one in-flight submit slot; dropping it (after the dispatcher
/// replied, or when the work is shed before enqueueing) releases the
/// slot.
#[derive(Debug)]
pub struct InflightGuard {
    admission: Arc<Admission>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.admission.obs.inflight.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_service::RateLimit;

    fn admission(limits: TenantLimits) -> Arc<Admission> {
        Arc::new(Admission::new(limits))
    }

    #[test]
    fn constant_time_eq_matches_eq() {
        assert!(constant_time_eq(b"", b""));
        assert!(constant_time_eq(b"sekrit", b"sekrit"));
        assert!(!constant_time_eq(b"sekrit", b"sekrot"));
        assert!(!constant_time_eq(b"sekrit", b"sekri"));
        assert!(!constant_time_eq(b"", b"x"));
    }

    #[test]
    fn open_limits_admit_everything() {
        let adm = admission(TenantLimits::open());
        assert!(adm.check_auth(None));
        assert!(adm.check_auth(Some("anything")));
        for _ in 0..1000 {
            let guard = adm.admit(10_000).expect("open limits never shed");
            adm.note_admitted();
            drop(guard);
        }
        assert_eq!(adm.snapshot().shed_total(), 0);
        assert_eq!(adm.snapshot().admitted, 1000);
        assert_eq!(adm.inflight(), 0, "guards released every slot");
    }

    #[test]
    fn auth_token_requires_constant_time_match() {
        let adm = admission(TenantLimits {
            auth_token: Some("sekrit".into()),
            ..TenantLimits::open()
        });
        assert!(adm.check_auth(Some("sekrit")));
        assert!(!adm.check_auth(Some("wrong")));
        assert!(!adm.check_auth(None));
        assert_eq!(adm.snapshot().auth_failures, 2);
    }

    #[test]
    fn bucket_sheds_after_burst_with_positive_retry_after() {
        let adm = admission(TenantLimits {
            rate: Some(RateLimit {
                reports_per_sec: 0.001, // effectively no refill in-test
                burst: 100,
            }),
            ..TenantLimits::open()
        });
        adm.admit(60).expect("within burst");
        adm.note_admitted();
        adm.admit(40).expect("exactly exhausts burst");
        adm.note_admitted();
        let (reason, wait) = adm.admit(1).expect_err("bucket is empty");
        assert_eq!(reason, ShedReason::Rate);
        assert!(wait >= Duration::from_millis(1));
        assert!(wait <= Duration::from_millis(MAX_RETRY_AFTER_MS));
        assert_eq!(adm.snapshot().shed_rate, 1);
        assert_eq!(adm.snapshot().admitted, 2);
    }

    #[test]
    fn bucket_refills_over_time() {
        let adm = admission(TenantLimits {
            rate: Some(RateLimit {
                reports_per_sec: 10_000.0,
                burst: 10,
            }),
            ..TenantLimits::open()
        });
        adm.admit(10).expect("burst");
        assert!(adm.admit(10).is_err(), "bucket drained");
        std::thread::sleep(Duration::from_millis(5));
        adm.admit(10).expect("refilled at 10k/s after 5ms");
    }

    #[test]
    fn inflight_quota_is_released_by_guard_drop() {
        let adm = admission(TenantLimits {
            max_inflight: Some(2),
            ..TenantLimits::open()
        });
        let g1 = adm.admit(1).unwrap();
        let g2 = adm.admit(1).unwrap();
        assert_eq!(adm.inflight(), 2);
        let (reason, _) = adm.admit(1).expect_err("quota exhausted");
        assert_eq!(reason, ShedReason::Inflight);
        drop(g1);
        assert_eq!(adm.inflight(), 1);
        let _g3 = adm.admit(1).expect("slot released");
        drop(g2);
        assert_eq!(adm.snapshot().shed_inflight, 1);
    }

    #[test]
    fn queue_shed_never_counts_as_admitted() {
        // The admitted counter only moves on note_admitted() — i.e.
        // after the enqueue wins — so a queue-full shed leaves it
        // untouched and both series stay monotonic.
        let adm = admission(TenantLimits::open());
        let guard = adm.admit(5).unwrap();
        drop(guard);
        adm.note_queue_shed();
        let snap = adm.snapshot();
        assert_eq!(snap.admitted, 0);
        assert_eq!(snap.shed_queue, 1);
    }
}
