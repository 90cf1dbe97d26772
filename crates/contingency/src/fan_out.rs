//! The one fan-out behind every sweep: the branch N-1 cascade's DC
//! estimates and outages, the generator sweep's units, and the N-2
//! preview's pair-screen rows and AC verifications.

use rayon::prelude::*;

/// Maps `job` over `jobs`, results in input order.
///
/// Serial: an in-order map on the calling thread, on whatever solver
/// engine the caller lends it. Parallel: the vendored pool's workers —
/// the calling thread among them — claim jobs one at a time, so a few
/// expensive jobs do not leave the other cores idle. Each job runs on a
/// fresh solver engine, under the calling thread's telemetry registry
/// (spans parented to its current span, the sweep's) and under its fault
/// injector, so a parallel sweep counts what the serial one counts and
/// its fault sites fire as they do serially.
pub(crate) fn fan_out<T, R>(parallel: bool, jobs: &[T], job: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    if !parallel {
        return jobs.iter().map(job).collect();
    }
    let registry = gm_telemetry::current();
    let parent = gm_telemetry::current_span();
    let faults = gm_faults::current();
    jobs.par_iter()
        .map_init(
            || {
                (
                    registry.as_ref().map(|reg| reg.install_scoped(parent)),
                    faults.as_ref().map(gm_faults::FaultInjector::install),
                )
            },
            |_context, item| gm_sparse::with_fresh_engine(|| job(item)),
        )
        .collect()
}
