//! Integration tests of the fault plane: spec round-trips, the global
//! plane override, and retry interacting with injected faults.

use leakage_faults::{corrupt_point, io_point, panic_point, retry, set_plane, Backoff, Plane};

/// Tests in this binary share the process-wide plane; serialize them.
fn plane_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn global_plane_defaults_to_empty() {
    let _serial = plane_lock();
    set_plane(Plane::empty());
    panic_point("anything/at-all");
    io_point("anything/at-all").unwrap();
    let mut bytes = vec![1, 2, 3];
    corrupt_point("anything/at-all", &mut bytes).unwrap();
    assert_eq!(bytes, vec![1, 2, 3]);
}

#[test]
fn installed_plane_drives_the_free_functions() {
    let _serial = plane_lock();
    set_plane(Plane::parse("t/io=io:enospc;t/cut=truncate:1").unwrap());
    assert!(io_point("t/io").is_err());
    let mut bytes = vec![9, 9, 9];
    corrupt_point("t/cut", &mut bytes).unwrap();
    assert_eq!(bytes, vec![9]);
    set_plane(Plane::empty());
    assert!(io_point("t/io").is_ok());
}

#[test]
fn injected_panic_is_catchable_at_a_task_boundary() {
    let _serial = plane_lock();
    set_plane(Plane::parse("t/panic=panic").unwrap());
    let caught = std::panic::catch_unwind(|| panic_point("t/panic"));
    set_plane(Plane::empty());
    let payload = caught.unwrap_err();
    let message = leakage_faults::panic_message(payload.as_ref());
    assert!(message.contains("injected fault"), "{message}");
}

#[test]
fn retry_absorbs_a_bounded_interrupt_burst() {
    let _serial = plane_lock();
    // Two EINTRs then clean: DISK's three attempts ride it out.
    set_plane(Plane::parse("t/retry=io:interrupted#1;t/retry=io:interrupted#2").unwrap());
    let result = retry(Backoff::IMMEDIATE, |_| io_point("t/retry"));
    set_plane(Plane::empty());
    result.expect("third attempt is clean");
}

#[test]
fn retry_gives_up_on_hard_injected_errors() {
    let _serial = plane_lock();
    set_plane(Plane::parse("t/hard=io:enospc").unwrap());
    let mut calls = 0;
    let result = retry(Backoff::IMMEDIATE, |_| {
        calls += 1;
        io_point("t/hard")
    });
    set_plane(Plane::empty());
    assert!(result.is_err());
    assert_eq!(calls, 1, "ENOSPC is not transient; no retries");
}
