//! Minimal offline stand-in for `parking_lot`: std-backed `Mutex`,
//! `RwLock` and `Condvar` with parking_lot's panic-free, guard-returning
//! API (poisoning is swallowed, as parking_lot has none).
//!
//! Debug builds additionally run a **lock-order detector** (see the
//! private `order` module's docs): every lock gets a site ID, each thread tracks
//! the locks it holds, and a global order graph panics on the first
//! cyclic acquisition order — naming both acquisition sites — instead of
//! letting a rare interleaving deadlock a test run. Release builds
//! compile all of it away; `BRB_LOCK_ORDER=0` disables it at runtime.

use std::fmt;
use std::ops::{Deref, DerefMut};
#[cfg(debug_assertions)]
use std::panic::Location;
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU32;
use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError,
    RwLock as StdRwLock, RwLockReadGuard as StdRwLockReadGuard,
    RwLockWriteGuard as StdRwLockWriteGuard,
};
use std::time::Instant;

#[cfg(debug_assertions)]
mod order;

/// A mutex whose `lock` returns the guard directly (no poisoning).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    id: AtomicU32,
    inner: StdMutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock_id: u32,
    /// `Option` so `Condvar::wait` can temporarily take the std guard.
    inner: Option<StdMutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(debug_assertions)]
            id: AtomicU32::new(0),
            inner: StdMutex::new(value),
        }
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let lock_id = {
            let id = order::lock_id(&self.id);
            order::acquire(id, Location::caller());
            id
        };
        MutexGuard {
            #[cfg(debug_assertions)]
            lock_id,
            inner: Some(match self.inner.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }),
        }
    }
}

impl<'a, T: ?Sized> Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<'a, T: ?Sized> Drop for MutexGuard<'a, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::release(self.lock_id);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// A condition variable compatible with [`Mutex`].
#[derive(Default)]
pub struct Condvar(StdCondvar);

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar(StdCondvar::new())
    }

    /// Atomically releases the guard's lock and waits; re-acquires before
    /// returning (parking_lot signature: mutates the guard in place).
    #[track_caller]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.park(guard, |g| {
            self.0.wait(g).unwrap_or_else(PoisonError::into_inner)
        });
    }

    /// [`Condvar::wait`] that gives up at `deadline`: returns `true` if
    /// the deadline passed (parking_lot's `timed_out()`), `false` on a
    /// wake-up, spurious or not.
    #[track_caller]
    pub fn wait_until<T>(&self, guard: &mut MutexGuard<'_, T>, deadline: Instant) -> bool {
        let mut timed_out = false;
        self.park(guard, |g| {
            let timeout = deadline.saturating_duration_since(Instant::now());
            let (g, result) = self
                .0
                .wait_timeout(g, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            timed_out = result.timed_out();
            g
        });
        timed_out
    }

    /// Runs `wait` on the guard's std guard. The lock is genuinely
    /// released while parked; the held-lock stack mirrors that, so
    /// cross-lock waits don't fabricate edges.
    #[track_caller]
    fn park<'a, T>(
        &self,
        guard: &mut MutexGuard<'a, T>,
        wait: impl FnOnce(StdMutexGuard<'a, T>) -> StdMutexGuard<'a, T>,
    ) {
        let inner = guard.inner.take().expect("guard taken");
        #[cfg(debug_assertions)]
        order::release(guard.lock_id);
        let inner = wait(inner);
        #[cfg(debug_assertions)]
        order::acquire(guard.lock_id, Location::caller());
        guard.inner = Some(inner);
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// A reader-writer lock whose guards come back without `Result`.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    id: AtomicU32,
    inner: StdRwLock<T>,
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock_id: u32,
    inner: StdRwLockReadGuard<'a, T>,
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock_id: u32,
    inner: StdRwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            #[cfg(debug_assertions)]
            id: AtomicU32::new(0),
            inner: StdRwLock::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let lock_id = {
            let id = order::lock_id(&self.id);
            order::acquire(id, Location::caller());
            id
        };
        RwLockReadGuard {
            #[cfg(debug_assertions)]
            lock_id,
            inner: match self.inner.read() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            },
        }
    }

    /// Acquires an exclusive write guard.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let lock_id = {
            let id = order::lock_id(&self.id);
            order::acquire(id, Location::caller());
            id
        };
        RwLockWriteGuard {
            #[cfg(debug_assertions)]
            lock_id,
            inner: match self.inner.write() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            },
        }
    }
}

impl<'a, T: ?Sized> Deref for RwLockReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> Drop for RwLockReadGuard<'a, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::release(self.lock_id);
    }
}

impl<'a, T: ?Sized> Deref for RwLockWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> DerefMut for RwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<'a, T: ?Sized> Drop for RwLockWriteGuard<'a, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::release(self.lock_id);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}
