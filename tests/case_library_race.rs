//! First use of a library case under contention. This file holds one
//! test so that nothing else in its process can have built the case
//! already: the count of generator runs below is exact, not an upper
//! bound.

use gm_network::{library, CaseId, Snapshot};
use std::sync::Barrier;

#[test]
fn eight_threads_racing_the_first_load_share_one_build() {
    const THREADS: usize = 8;
    let start = Barrier::new(THREADS);
    let loads: Vec<(Snapshot, gm_telemetry::Registry)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let reg = gm_telemetry::Registry::new();
                    let guard = reg.install();
                    start.wait();
                    let net = library::case(CaseId::Ieee118);
                    drop(guard);
                    (net, reg)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loader thread"))
            .collect()
    });
    let total = |name: &str| -> u64 { loads.iter().map(|(_, reg)| reg.counter_value(name)).sum() };
    for (net, _) in &loads {
        assert!(Snapshot::ptr_eq(net, &loads[0].0));
    }
    assert_eq!(total("network.case_library.builds"), 1);
    assert_eq!(total("network.case_library.hits"), THREADS as u64 - 1);
    // The generator factors matrices to calibrate the case; that work
    // belongs to no session and must not show up in the builder's trace.
    assert_eq!(total("sparse.lu.factorizations"), 0);
}
