//! Fail-point hooks for crash testing the durability layer.
//!
//! The ingestion service is instrumented with named *kill points* —
//! places where a process death is interesting: before/after a WAL
//! append, between a delta's log and its dispatch, around the
//! round-close record, mid-snapshot. Under the `faults` cargo feature, a
//! test can arm one point to "crash" (panic with a [`FaultCrash`]
//! payload, caught by the test harness) on its *n*-th hit — or, for
//! `wal.fsync_fails`, to make that fsync report an I/O error; without the
//! feature every hook compiles to a no-op, so production builds carry
//! zero overhead.
//!
//! A simulated crash is a panic, not a real `abort`, so the test can
//! catch it, drop the half-dead service, and reopen the durability
//! directory exactly as a restarted process would. The WAL writes
//! frames with single `write_all` calls and never buffers in userspace,
//! so nothing "escapes to disk" during unwinding that a real crash
//! would have lost.
//!
//! The registry is process-global: concurrent tests must serialize via
//! [`serialize_tests`].

/// Every kill point the service is instrumented with.
///
/// | point | where it crashes |
/// |-------|------------------|
/// | `wal.before_append`      | before a record reaches the WAL (op never logged, never acked) |
/// | `wal.after_append`       | record durable, in-memory state not yet mutated / op not acked |
/// | `wal.torn_append`        | mid-write: half a frame reaches the disk |
/// | `service.mid_batch`      | before the one shard dispatch of an accepted delta |
/// | `service.before_close`   | round tallied, close record not yet logged |
/// | `service.after_close`    | close record durable, estimate never acked |
/// | `snapshot.before_rename` | snapshot tmp written, not yet visible |
/// | `snapshot.after_rename`  | snapshot visible, WAL not yet rotated |
/// | `wal.fsync_fails`        | no crash: a group-commit fsync reports an I/O error |
pub const KILL_POINTS: [&str; 9] = [
    "wal.before_append",
    "wal.after_append",
    "wal.torn_append",
    "service.mid_batch",
    "service.before_close",
    "service.after_close",
    "snapshot.before_rename",
    "snapshot.after_rename",
    "wal.fsync_fails",
];

#[cfg(feature = "faults")]
mod armed {
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// Panic payload of a simulated crash; tests match on it to tell an
    /// injected kill from a genuine bug.
    #[derive(Debug)]
    pub struct FaultCrash {
        /// The kill point that fired.
        pub point: &'static str,
    }

    fn registry() -> &'static Mutex<HashMap<&'static str, u64>> {
        static REGISTRY: OnceLock<Mutex<HashMap<&'static str, u64>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn lock_registry() -> MutexGuard<'static, HashMap<&'static str, u64>> {
        // A simulated crash can unwind while the registry is held;
        // poisoning is expected, the map itself is always consistent.
        registry().lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arm `point` to crash on its `nth` hit (1-based). Replaces any
    /// previous arming of the same point.
    pub fn arm(point: &'static str, nth: u64) {
        assert!(nth >= 1, "nth is 1-based");
        assert!(
            super::KILL_POINTS.contains(&point),
            "unknown kill point {point}"
        );
        lock_registry().insert(point, nth);
    }

    /// Disarm every kill point.
    pub fn reset() {
        lock_registry().clear();
    }

    /// Count a hit of `point`; true when the armed trigger fires.
    /// Call sites either crash immediately ([`hit`]) or perform a
    /// point-specific corruption first (torn writes).
    pub fn check(point: &'static str) -> bool {
        let mut reg = lock_registry();
        match reg.get_mut(point) {
            Some(remaining) => {
                *remaining -= 1;
                if *remaining == 0 {
                    reg.remove(point);
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }

    /// Simulate the process dying at `point`.
    pub fn crash(point: &'static str) -> ! {
        std::panic::panic_any(FaultCrash { point });
    }

    /// Crash at `point` if it is armed and due.
    pub fn hit(point: &'static str) {
        if check(point) {
            crash(point);
        }
    }

    /// Serialize fault-injection tests: the registry is process-global,
    /// so concurrently running tests must hold this guard while armed.
    pub fn serialize_tests() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        // A failing (panicking) test poisons the gate; later tests can
        // still run.
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(feature = "faults")]
pub use armed::{arm, check, crash, hit, reset, serialize_tests, FaultCrash};

#[cfg(not(feature = "faults"))]
mod disarmed {
    /// No-op: the `faults` feature is off.
    #[inline(always)]
    pub fn check(_point: &'static str) -> bool {
        false
    }

    /// No-op: the `faults` feature is off.
    #[inline(always)]
    pub fn hit(_point: &'static str) {}

    /// Unreachable without the `faults` feature (guarded by [`check`]).
    pub fn crash(point: &'static str) -> ! {
        unreachable!("fault crash at {point} without the faults feature")
    }
}

#[cfg(not(feature = "faults"))]
pub use disarmed::{check, crash, hit};

#[cfg(all(test, feature = "faults"))]
mod tests {
    use super::*;

    #[test]
    fn nth_hit_fires_once() {
        let _gate = serialize_tests();
        reset();
        arm("wal.before_append", 3);
        assert!(!check("wal.before_append"));
        assert!(!check("wal.before_append"));
        assert!(check("wal.before_append"), "third hit fires");
        assert!(!check("wal.before_append"), "disarmed after firing");
    }

    #[test]
    fn hit_panics_with_fault_payload() {
        let _gate = serialize_tests();
        reset();
        arm("service.mid_batch", 1);
        let err = std::panic::catch_unwind(|| hit("service.mid_batch")).unwrap_err();
        let crash = err
            .downcast_ref::<FaultCrash>()
            .expect("FaultCrash payload");
        assert_eq!(crash.point, "service.mid_batch");
        reset();
    }

    #[test]
    #[should_panic(expected = "unknown kill point")]
    fn arming_an_unknown_point_is_a_bug() {
        arm("no.such.point", 1);
    }
}
