//! One-shot generator for the AC-calibrated thermal ratings embedded in
//! `gm-network/src/cases/ratings.rs`.
//!
//! The synthetic IEEE 57/118/300 reconstructions are first built with
//! DC-calibrated provisional ratings (good enough for solvability), then
//! this tool runs the full **AC** base case and N-1 sweep with ratings
//! ignored, and assigns each branch a rating from its realized AC MVA
//! flows:
//!
//! - secure majority: `rating ≥ max(1.25 · S_base, margin⁺ · S_worstN1)`
//!   with `margin⁺ ∈ [1.15, 1.40]` — never overloads, even under N-1,
//!   and keeps enough headroom for DC contingency screening to skip the
//!   corridor;
//! - stressed minority (~12 %): `rating = margin⁻ · S_worstN1` with
//!   `margin⁻ ∈ [0.73, 0.95]` — secure at base but overloading up to
//!   ~137 % under the worst single outage, the regime the paper's Table 1
//!   reports.
//!
//! The choice of stressed branches and margins is a deterministic
//! function of the branch index (splitmix64 on a fixed seed), so the
//! emitted tables are reproducible. Output goes to stdout as Rust source.

use gm_network::{cases, topology, CaseId};
use gm_powerflow::{solve, solve_from, PfOptions};

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn branch_mva(rep: &gm_powerflow::PfReport) -> Vec<f64> {
    rep.branches
        .iter()
        .map(|b| {
            let sf = (b.p_from_mw * b.p_from_mw + b.q_from_mvar * b.q_from_mvar).sqrt();
            let st = (b.p_to_mw * b.p_to_mw + b.q_to_mvar * b.q_to_mvar).sqrt();
            sf.max(st)
        })
        .collect()
}

fn main() {
    println!("//! AC-calibrated thermal ratings for the synthetic case");
    println!("//! reconstructions. GENERATED by `cargo run -p gm-bench --bin");
    println!("//! calibrate_ratings`; do not edit by hand.");
    println!();
    let opts = PfOptions {
        enforce_q_limits: false,
        max_iter: 40,
        ..Default::default()
    };
    for (id, label, seed) in [
        (CaseId::Ieee57, "57", 0x57u64),
        (CaseId::Ieee118, "118", 0x118),
        (CaseId::Ieee300, "300", 0x300),
    ] {
        let mut net = cases::load(id);
        let base = solve(&net, &opts).expect("base case must converge");
        let base_s = branch_mva(&base);
        let v0 = base.voltages();
        let n_br = net.branches.len();
        let mut worst = base_s.clone();
        let mut outage_flows: Vec<(usize, Vec<f64>)> = Vec::new();
        for out in 0..n_br {
            if !net.branches[out].in_service {
                continue;
            }
            if topology::outage_islands(&net, out) {
                continue;
            }
            net.branches[out].in_service = false;
            let result = solve_from(&net, &opts, Some(&v0)).or_else(|_| solve(&net, &opts));
            net.branches[out].in_service = true;
            let Ok(rep) = result else { continue };
            let s = branch_mva(&rep);
            for (idx, w) in worst.iter_mut().enumerate() {
                if idx != out {
                    *w = w.max(s[idx]);
                }
            }
            outage_flows.push((out, s));
        }
        let mut ratings = Vec::with_capacity(n_br);
        for idx in 0..n_br {
            let h = splitmix64(seed ^ (idx as u64).wrapping_mul(0x2545F4914F6CDD1D));
            let stressed = unit(h) < 0.12;
            let m = unit(splitmix64(h));
            let secure = (1.25 * base_s[idx]).max((1.15 + 0.25 * m) * worst[idx]);
            // 0.73..0.95 on the worst N-1 flow → worst-case loading
            // 105–137 % — but only where that still leaves ≥ 30 % base
            // headroom: corridors whose worst flow barely exceeds base
            // cannot be meaningfully stressed, and a stressed corridor
            // running near its limit at base case would defeat DC
            // contingency screening for every outage.
            let derated = (0.73 + 0.22 * m) * worst[idx];
            let rating = if stressed && derated >= 1.30 * base_s[idx] {
                derated
            } else {
                secure
            };
            let rating = rating.max(25.0);
            ratings.push((rating / 5.0).ceil() * 5.0);
        }
        // Pass 3: guarantee one outage that overloads two corridors at
        // once. Ranking strategies only diverge when some contingency
        // carries multiple simultaneous violations (composite weights
        // breadth and total excess; overload-first sees only the single
        // worst loading), so pick the outage with the strongest pair of
        // near-worst flows and derate that pair together. Candidate
        // branches must carry their global-worst flow under this very
        // outage (±3 %) so no other outage overshadows the pair, and
        // must keep enough base headroom for screening and AC-OPF
        // feasibility.
        let max_single = (0..n_br)
            .map(|j| worst[j] / ratings[j])
            .fold(0.0f64, f64::max);
        let l_hi = (max_single - 0.06).clamp(1.08, 1.28);
        let l_lo = l_hi - 0.04;
        let mut best: Option<(usize, usize, usize, f64)> = None;
        for (out, s) in &outage_flows {
            let mut cand: Vec<usize> = (0..n_br)
                .filter(|&j| {
                    j != *out && s[j] >= 0.95 * worst[j] && s[j] >= 1.4 * base_s[j] && s[j] >= 55.0
                })
                .collect();
            cand.sort_by(|&a, &b| s[b].total_cmp(&s[a]));
            if cand.len() >= 2 {
                let pair_flow = s[cand[0]] + s[cand[1]];
                if best.is_none_or(|(_, _, _, f)| pair_flow > f) {
                    best = Some((*out, cand[0], cand[1], pair_flow));
                }
            }
        }
        if let Some((out, j1, j2, _)) = best {
            let s = &outage_flows.iter().find(|(o, _)| *o == out).unwrap().1;
            // Integer (not 5-multiple) ratings here: coarse rounding can
            // erase a thin overload entirely.
            ratings[j1] = (s[j1] / l_hi).round().max(25.0);
            ratings[j2] = (s[j2] / l_lo).round().max(25.0);
            eprintln!(
                "case{label}: pair-overload outage {out}: branches {j1} \
                 ({:.0} MVA @ {:.0} MVA = {:.2}) + {j2} ({:.0} MVA @ {:.0} \
                 MVA = {:.2}); global max single loading {max_single:.2}",
                s[j1],
                ratings[j1],
                s[j1] / ratings[j1],
                s[j2],
                ratings[j2],
                s[j2] / ratings[j2],
            );
        } else {
            eprintln!("case{label}: WARNING no pair-overload outage found");
        }
        println!("/// Ratings for the IEEE {label} reconstruction (MVA, branch order).");
        println!("pub(crate) const RATINGS_{label}: &[f64] = &[");
        for chunk in ratings.chunks(12) {
            let row: Vec<String> = chunk.iter().map(|r| format!("{r:.0}.")).collect();
            println!("    {},", row.join(", "));
        }
        println!("];");
        println!();
        eprintln!(
            "case{label}: {} branches calibrated (base max {:.1} MVA)",
            n_br,
            base_s.iter().cloned().fold(0.0f64, f64::max)
        );
    }
}
