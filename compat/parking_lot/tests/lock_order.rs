//! Lock-order detector tests: a deliberate A→B / B→A cycle must panic
//! naming both acquisition sites; consistent orders and condvar waits
//! must stay silent.
//!
//! Everything is gated on `debug_assertions` — in release builds the
//! detector compiles away and there is nothing to test.

#![cfg(debug_assertions)]

use parking_lot::{Condvar, Mutex, RwLock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

#[test]
fn ab_ba_cycle_panics_with_both_sites() {
    let a = Mutex::new(0u32);
    let b = Mutex::new(0u32);

    // Establish A → B.
    {
        let _ga = a.lock();
        let site_ab = line!() + 1;
        let _gb = b.lock();
        drop(_gb);
        drop(_ga);

        // Now acquire in the reverse order: B → A must trip the detector.
        let _gb = b.lock();
        let site_ba = line!() + 2;
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _ga = a.lock();
        }))
        .expect_err("reverse-order acquisition must panic");
        let msg = panic_message(err);
        assert!(
            msg.contains("lock-order violation"),
            "unexpected panic message: {msg}"
        );
        // Both acquisition sites must be named: where B→A was attempted
        // (this file, `site_ba`) and where A→B was established
        // (this file, `site_ab`).
        for line in [site_ab, site_ba] {
            let needle = format!("lock_order.rs:{line}");
            assert!(
                msg.contains(&needle),
                "panic must name acquisition site {needle}; got: {msg}"
            );
        }
    }
}

#[test]
fn consistent_nesting_is_silent() {
    let outer = Mutex::new(());
    let inner = Mutex::new(());
    for _ in 0..100 {
        let _go = outer.lock();
        let _gi = inner.lock();
    }
}

#[test]
fn three_lock_transitive_cycle_panics() {
    let a = Mutex::new(());
    let b = Mutex::new(());
    let c = Mutex::new(());
    // A → B, B → C.
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    {
        let _gb = b.lock();
        let _gc = c.lock();
    }
    // C → A closes the cycle through the transitive path A →* C.
    let _gc = c.lock();
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ga = a.lock();
    }))
    .expect_err("transitive cycle must panic");
    assert!(panic_message(err).contains("lock-order violation"));
}

#[test]
fn rwlock_participates_in_ordering() {
    let m = Mutex::new(());
    let rw = RwLock::new(());
    // Mutex → RwLock(write).
    {
        let _gm = m.lock();
        let _gw = rw.write();
    }
    // RwLock(read) → Mutex is the reverse order.
    let _gr = rw.read();
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _gm = m.lock();
    }))
    .expect_err("rwlock/mutex cycle must panic");
    assert!(panic_message(err).contains("lock-order violation"));
}

#[test]
fn reentrant_reads_are_not_a_cycle() {
    let rw = RwLock::new(5u32);
    let g1 = rw.read();
    let g2 = rw.read();
    assert_eq!(*g1 + *g2, 10);
}

#[test]
fn condvar_wait_releases_held_entry() {
    // While parked in `wait`, the mutex is not held; acquiring other
    // locks from the waking thread must not fabricate edges involving it.
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let pair2 = Arc::clone(&pair);
    let waiter = std::thread::spawn(move || {
        let (m, cv) = &*pair2;
        let mut ready = m.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
    });
    {
        let (m, cv) = &*pair;
        let mut ready = m.lock();
        *ready = true;
        cv.notify_all();
    }
    waiter.join().expect("waiter must finish cleanly");
}

/// `wait_until` reports a timeout, and a notification as no timeout;
/// the detector sees the lock held again once it returns — a lock
/// taken inside it nests, so the reverse order then trips.
#[test]
fn condvar_wait_until_times_out_and_reacquires() {
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let inner = Mutex::new(());
    {
        let (m, cv) = &*pair;
        let mut ready = m.lock();
        let t0 = Instant::now();
        assert!(cv.wait_until(&mut ready, t0 + Duration::from_millis(5)));
        assert!(t0.elapsed() >= Duration::from_millis(5));
        drop(inner.lock()); // records m → inner
    }
    let held = inner.lock();
    let err = catch_unwind(AssertUnwindSafe(|| drop(pair.0.lock())))
        .expect_err("inner → m reverses the order wait_until's re-acquire set");
    assert!(panic_message(err).contains("lock-order violation"));
    drop(held);

    let pair2 = Arc::clone(&pair);
    let waiter = std::thread::spawn(move || {
        let (m, cv) = &*pair2;
        let mut ready = m.lock();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !*ready {
            assert!(!cv.wait_until(&mut ready, deadline), "notify never arrived");
        }
    });
    {
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
    }
    waiter.join().expect("waiter must finish cleanly");
}

#[test]
fn detector_releases_on_guard_drop() {
    // Dropping guards in any order must unwind the held stack correctly:
    // A → B established, then A alone, then B alone — no false cycle.
    let a = Mutex::new(());
    let b = Mutex::new(());
    {
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // out-of-order drop
        drop(gb);
    }
    let _gb = b.lock();
    drop(_gb);
    let _ga = a.lock();
}
