//! The vendored rayon pool every parallel sweep fans out on: workers
//! claim one job at a time, the calling thread works too, and results
//! come back in input order however unevenly the jobs cost.

use rayon::prelude::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

/// `rounds` units (a few µs each) of dependent integer work.
fn spin(rounds: u64) -> u64 {
    (0..rounds * 4096).fold(1u64, |acc, k| {
        black_box(acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k))
    })
}

/// Jobs whose first half is 100× heavier than the second.
fn skewed(n: usize) -> Vec<u64> {
    (0..n).map(|i| if i < n / 2 { 100 } else { 1 }).collect()
}

#[test]
fn skewed_jobs_are_claimed_once_in_order_by_every_worker() {
    let jobs = skewed(64);
    let claims: Vec<AtomicUsize> = jobs.iter().map(|_| AtomicUsize::new(0)).collect();
    let threads: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let states = AtomicUsize::new(0);
    let indexed: Vec<(usize, u64)> = jobs.iter().copied().enumerate().collect();
    let out: Vec<(usize, u64)> = indexed
        .par_iter()
        .map_init(
            || {
                states.fetch_add(1, Ordering::Relaxed);
                std::thread::current().id()
            },
            |&mut worker, &(i, rounds)| {
                claims[i].fetch_add(1, Ordering::Relaxed);
                if let Ok(mut seen) = threads.lock() {
                    if !seen.contains(&worker) {
                        seen.push(worker);
                    }
                }
                (i, spin(rounds))
            },
        )
        .collect();

    let expected: Vec<(usize, u64)> = jobs.iter().map(|&r| spin(r)).enumerate().collect();
    assert_eq!(out, expected, "results in input order");
    for (i, c) in claims.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "job {i} claimed once");
    }
    let cores = rayon::current_num_threads();
    let threads = threads.into_inner().unwrap();
    if cores >= 2 {
        assert!(threads.len() >= 2, "only {threads:?} ran jobs");
    }
    assert!(
        threads.contains(&std::thread::current().id()),
        "the calling thread claims jobs too"
    );
    let states = states.load(Ordering::Relaxed);
    assert!(
        (1..=cores).contains(&states),
        "{states} map_init states on {cores} cores"
    );
}

#[test]
fn a_panicking_job_reaches_the_caller_after_the_workers_stop() {
    let jobs: Vec<usize> = (0..256).collect();
    let started = AtomicUsize::new(0);
    let running = AtomicUsize::new(0);
    let outcome = std::panic::catch_unwind(|| {
        jobs.par_iter()
            .map(|&i| {
                started.fetch_add(1, Ordering::SeqCst);
                running.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                running.fetch_sub(1, Ordering::SeqCst);
                if i == 5 {
                    panic!("job {i} failed");
                }
                i
            })
            .collect::<Vec<usize>>()
    });
    let payload = outcome.expect_err("the job's panic reaches the caller");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("job 5 failed")
    );
    assert_eq!(running.load(Ordering::SeqCst), 0, "no job still running");
    let started = started.load(Ordering::SeqCst);
    assert!(
        started < jobs.len(),
        "claims stopped after the panic ({started} started)"
    );
}
