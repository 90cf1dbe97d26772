//! Criterion bench: end-to-end agent turns (real compute only — the
//! virtual LLM latency is accounted on the virtual clock and does not
//! slow the bench), plus the contingency-cache ablation via repeated
//! compound requests, and the `hit_*` turns: one question asked by a
//! fresh session over a `SolverCache` another session already primed,
//! so every solve is a cache hit (what a server's sessions see).
//!
//! ```text
//! cargo bench -p gm-bench --bench agent_pipeline
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use gridmind_core::{GridMind, ModelProfile, SessionContext, SharedSolverCache, SolverCache};
use std::hint::black_box;

/// Timed turns per `hit_*` bench (plus one warm-up).
const HIT_SAMPLES: usize = 50;

fn bench_agent_turns(c: &mut Criterion) {
    let mut group = c.benchmark_group("agent_pipeline");
    group.sample_size(10);
    group.bench_function("solve_case14_turn", |b| {
        b.iter(|| {
            let mut gm = GridMind::new(ModelProfile::by_name("GPT-o3").unwrap());
            black_box(gm.ask("solve case14").elapsed_s)
        })
    });
    group.bench_function("what_if_turn_case14", |b| {
        let mut gm = GridMind::new(ModelProfile::by_name("GPT-o3").unwrap());
        gm.ask("solve case14");
        let mut p = 20.0;
        b.iter(|| {
            p += 1.0;
            black_box(
                gm.ask(&format!("set the load at bus 10 to {p} MW"))
                    .elapsed_s,
            )
        })
    });
    group.bench_function("full_ca_turn_case30", |b| {
        b.iter(|| {
            let mut gm = GridMind::new(ModelProfile::by_name("GPT-o3").unwrap());
            black_box(gm.ask("run the contingency analysis for case30").elapsed_s)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("agent_pipeline");
    group.sample_size(HIT_SAMPLES);
    let solve = "solve case118";
    let n1 = "run the n-1 contingency analysis";
    bench_hit(&mut group, "hit_solve_case118", &[], solve);
    bench_hit(&mut group, "hit_n1_case118", &[solve], n1);
    bench_hit(
        &mut group,
        "hit_n1_status_case118",
        &[solve, n1],
        "show the contingency status summary",
    );
    group.finish();
}

/// Times `question` on fresh sessions that share one primed cache: a
/// primer session asks `prelude` and `question` first, then every timed
/// session asks `prelude` (untimed) and `question` (timed), so each of
/// its solves is a hit. Building and dropping sessions is not timed.
fn bench_hit(group: &mut BenchmarkGroup<'_>, name: &str, prelude: &[&str], question: &str) {
    let cache = SolverCache::new(64);
    let fresh = |cache: &SharedSolverCache| {
        let session = SessionContext::new_with_solver_cache(cache.clone());
        let mut gm = GridMind::with_session(ModelProfile::by_name("GPT-5").unwrap(), session);
        for q in prelude {
            gm.ask(q);
        }
        gm
    };
    fresh(&cache).ask(question);
    let mut ready: Vec<GridMind> = (0..=HIT_SAMPLES).map(|_| fresh(&cache)).collect();
    let mut asked = Vec::with_capacity(ready.len());
    group.bench_function(name, |b| {
        b.iter(|| {
            let mut gm = ready.pop()?;
            let elapsed = gm.ask(question).elapsed_s;
            asked.push(gm);
            Some(elapsed)
        })
    });
}

criterion_group!(benches, bench_agent_turns);
criterion_main!(benches);
