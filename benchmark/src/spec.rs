//! The metric catalogue: the same names `BENCHMARK.json` lists (a
//! self-test holds the two together).

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, reported for every workload. Its bound — the
/// share of the parent's median by which it may worsen before `compare`
/// calls it a regression — lives in `BENCHMARK.json`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
    },
];

/// A per-layer metric. `exact` marks work counts that repeat exactly
/// for a given seed and are compared exactly.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
        exact,
    }
}

const fn ratio(name: &'static str, better: Better, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better,
        exact,
    }
}

use Better::{Higher, Lower};

/// Layer = crate name (the prefix of each metric). Probe metrics carry
/// the size they were taken at; the rest are read off the traced round
/// of the workload being run.
pub const PER_LAYER: [PerLayer; 105] = [
    // sparse
    time("sparse.amd_ms.synth1354", "ms"),
    time("sparse.amd_ms.synth9241", "ms"),
    time("sparse.analyze_ms.synth1354", "ms"),
    time("sparse.analyze_ms.synth9241", "ms"),
    time("sparse.refactor_us.synth1354", "us"),
    time("sparse.refactor_us.synth9241", "us"),
    time("sparse.solve_us.synth1354", "us"),
    time("sparse.solve_us.synth9241", "us"),
    time("sparse.panel64_us.synth1354", "us"),
    time("sparse.panel64_us.synth9241", "us"),
    count("sparse.fill_nnz.synth1354", true),
    count("sparse.fill_nnz.synth9241", true),
    time("sparse.compensate_build_us.synth1354", "us"),
    time("sparse.compensate_solve_us.synth1354", "us"),
    count("sparse.factorizations_per_op", true),
    ratio("sparse.symbolic_reuse_ratio", Higher, true),
    // numeric
    time("numeric.dense_lu_us.n64", "us"),
    // network
    time("network.load_case_ms.case118", "ms"),
    time("network.load_case_ms.case300", "ms"),
    time("network.generate_scale_s.synth9241", "s"),
    time("network.ybus_us.case118", "us"),
    time("network.ybus_us.synth9241", "us"),
    time("network.content_hash_us.case118", "us"),
    time("network.content_hash_us.synth1354", "us"),
    time("network.apply_mod_us", "us"),
    // powerflow
    time("powerflow.newton_ms.case118", "ms"),
    time("powerflow.newton_ms.case300", "ms"),
    time("powerflow.newton_ms.synth1354", "ms"),
    time("powerflow.newton_ms.synth2869", "ms"),
    time("powerflow.newton_ms.synth9241", "ms"),
    count("powerflow.newton_iters.synth1354", true),
    count("powerflow.newton_iters.synth2869", true),
    count("powerflow.newton_iters.synth9241", true),
    time("powerflow.newton_warm_ms.synth1354", "ms"),
    time("powerflow.fdlf_ms.synth9241", "ms"),
    time("powerflow.dc_ms.synth9241", "ms"),
    time("powerflow.batch_us_per_scenario.case118", "us"),
    time("powerflow.batch_us_per_scenario.case300", "us"),
    time("powerflow.batch_us_per_scenario.synth1354", "us"),
    time("powerflow.compensated_ms_per_outage.case118", "ms"),
    time("powerflow.sensitivities_ms.case118", "ms"),
    ratio("powerflow.batch_warm_hit_ratio", Higher, true),
    count("powerflow.newton_iters_per_op", true),
    ratio("powerflow.time_share", Lower, false),
    // acopf
    time("acopf.solve_ms.case14", "ms"),
    time("acopf.solve_ms.case30", "ms"),
    time("acopf.solve_ms.case57", "ms"),
    time("acopf.solve_ms.case118", "ms"),
    time("acopf.solve_s.case300", "s"),
    count("acopf.ipm_iters.case14", true),
    count("acopf.ipm_iters.case30", true),
    count("acopf.ipm_iters.case57", true),
    count("acopf.ipm_iters.case118", true),
    time("acopf.ms_per_iter.case118", "ms"),
    ratio("acopf.kkt_symbolic_reuse_ratio.case118", Higher, true),
    time("acopf.dcopf_ms.case118", "ms"),
    time("acopf.scopf_ms.case30", "ms"),
    time("acopf.scopf_ms.case57", "ms"),
    count("acopf.scopf_rounds.case57", true),
    count("acopf.ipm_iters_per_op", true),
    ratio("acopf.time_share", Lower, false),
    // contingency
    time("contingency.n1_ms.case57", "ms"),
    time("contingency.n1_ms.case118", "ms"),
    time("contingency.n1_ms.case300", "ms"),
    time("contingency.n1_serial_ms.case118", "ms"),
    time("contingency.n1_serial_ms.case300", "ms"),
    ratio("contingency.parallel_speedup.case118", Higher, false),
    ratio("contingency.parallel_speedup.case300", Higher, false),
    ratio("contingency.ac_verified_ratio.case118", Lower, true),
    ratio("contingency.ac_verified_ratio.case300", Lower, true),
    time("contingency.gen_n1_ms.case118", "ms"),
    time("contingency.n2_preview_ms.case118", "ms"),
    ratio("contingency.session_cache_hit_ratio", Higher, true),
    ratio("contingency.time_share", Lower, false),
    // agents
    time("agents.nlu_us", "us"),
    // Tool results carry wall-clock fields whose digit count varies, so
    // the token estimate is not a pure function of the seed.
    count("agents.tokens_per_turn", false),
    count("agents.tool_calls_per_turn", true),
    // core
    time("core.route_us", "us"),
    time("core.ask_ms.status", "ms"),
    time("core.ask_ms.pf", "ms"),
    time("core.ask_ms.mutate", "ms"),
    time("core.ask_ms.contingency", "ms"),
    time("core.ask_ms.batch", "ms"),
    time("core.turn_residual_ms.pf", "ms"),
    time("core.turn_residual_ms.contingency", "ms"),
    time("core.turn_residual_ms.batch", "ms"),
    time("core.cache.get_hit_us", "us"),
    time("core.cache.put_us", "us"),
    ratio("core.cache.hit_ratio", Higher, false),
    count("core.cache.evictions", false),
    count("core.recovery.descents", true),
    ratio("core.time_share", Lower, false),
    // serve
    time("serve.queue_push_pop_ns", "ns"),
    time("serve.queue_wait_p50_ms", "ms"),
    time("serve.queue_wait_p90_ms", "ms"),
    time("serve.exec_p50_ms", "ms"),
    time("serve.dispatch_overhead_us", "us"),
    ratio("serve.worker_busy_ratio", Higher, false),
    count("serve.busy_rejections", false),
    time("serve.rss_kb_per_session", "kB"),
    ratio("serve.time_share", Lower, false),
    // telemetry, faults
    time("telemetry.span_ns", "ns"),
    time("telemetry.counter_add_ns", "ns"),
    ratio("telemetry.trace_overhead_ratio", Lower, false),
    time("faults.noop_fire_ns", "ns"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_layer_prefixed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        const LAYERS: [&str; 11] = [
            "sparse",
            "numeric",
            "network",
            "powerflow",
            "acopf",
            "contingency",
            "agents",
            "core",
            "serve",
            "telemetry",
            "faults",
        ];
        for m in &PER_LAYER {
            let layer = m.name.split('.').next().unwrap();
            assert!(LAYERS.contains(&layer), "{} has no layer prefix", m.name);
            assert!(m.name.len() <= 64);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
