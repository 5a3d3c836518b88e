//! The workspace's one lock rule: a poisoned lock is recovered, never
//! propagated.
//!
//! The engine contains panics by design: a `fail_corrupt` or a panicking
//! map or reduce attempt fails only its task, the scheduler isolates a
//! panicking job, and a dying connection thread takes down only its own
//! connection. Any of them may unwind while holding a lock, and whether
//! that disables the process later must not depend on which lock it
//! happened to hold, so the next holder takes the guard and carries on.
//! Every `Mutex` / `Condvar` call in the workspace goes through these
//! helpers (the root `clippy.toml` rejects the direct calls), so the rule
//! is decided here and nowhere else.

#![allow(clippy::disallowed_methods)]

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks `m`, recovering the guard if a previous holder panicked.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks on `cv` until notified, recovering the guard on poison.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Blocks on `cv` until notified or `dur` elapses, recovering the guard
/// on poison.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, dur)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// Consumes `m` and returns its value, poisoned or not.
pub fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Poisons `m` by panicking on another thread while holding it.
    fn poison<T: Send + 'static>(m: &Arc<Mutex<T>>) {
        let m2 = Arc::clone(m);
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison");
        })
        .join();
        assert!(m.is_poisoned());
    }

    #[test]
    fn mutex_survives_panic_while_held() {
        let m = Arc::new(Mutex::new(0));
        poison(&m);
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 1);
        assert_eq!(into_inner(Arc::into_inner(m).unwrap()), 1);
    }

    #[test]
    fn condvar_wait_timeout_after_poison_returns_the_guard() {
        let m = Arc::new(Mutex::new(7));
        poison(&m);
        let cv = Condvar::new();
        let g = wait_timeout(&cv, lock(&m), Duration::from_millis(1));
        assert_eq!(*g, 7);
    }
}
