//! Interconnect-scale synthetic cases (1k–10k buses).
//!
//! The paper's evaluation stops at IEEE 300; the ROADMAP north-star
//! ("production scale") means PEGASE-class networks — case1354, case2869,
//! case9241. This module grows the [`crate::synth`] recipe along the
//! network axis: instead of one HV/LV zone pair, a scale case is a set of
//! **areas**, each with its own 345 kV transmission ring, 138 kV
//! sub-transmission ring, and substation buses on parallel transformer
//! pairs, stitched together by an inter-area tie backbone (ring plus
//! skip-chords over the area graph, several 345 kV circuits per corridor).
//!
//! Design goals, in order:
//!
//! 1. **Solvable** — impedances are homogenized against a DC power flow
//!    (same pass as `synth`), so Newton converges from a flat start.
//! 2. **N-1-plausible ratings** — thermal ratings come from a *sampled*
//!    DC N-1 sweep: the `n1_samples` highest-|flow| corridors (always
//!    including every inter-area tie) are outaged and ratings are set
//!    against the worst observed flow, so the base case is secure and
//!    contingency analysis has realistic margins to probe. The sample cap
//!    bounds generation time at 10k buses (a full sweep would be ~14k DC
//!    solves).
//! 3. **Deterministic and inventory-driven** — everything derives from
//!    the [`ScaleSpec`] through a seeded [`SmallRng`]; two calls produce
//!    identical networks, and the per-area inventories (bus split, line
//!    chords, generator count) are fixed functions of the spec.
//!
//! Built cases live in the process-wide [`crate::library`] — benches and
//! tools request `synth9241` by name through [`crate::cases::load_case`]
//! without re-running calibration.

use crate::model::{Branch, BranchKind, Bus, BusKind, GenCost, Generator, Load, Network, Shunt};
use crate::synth::{dc_flows, SynthError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Canonical identifiers for the interconnect-scale synthetic cases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ScaleId {
    /// ~1.4k-bus case (case1354-class, 4 areas).
    Synth1354,
    /// ~2.9k-bus case (case2869-class, 6 areas).
    Synth2869,
    /// ~9.2k-bus case (case9241-class, 9 areas).
    Synth9241,
}

impl ScaleId {
    /// All scale cases, smallest first.
    pub const ALL: [ScaleId; 3] = [ScaleId::Synth1354, ScaleId::Synth2869, ScaleId::Synth9241];

    /// Canonical short name ("synth9241").
    pub fn short_name(self) -> &'static str {
        match self {
            ScaleId::Synth1354 => "synth1354",
            ScaleId::Synth2869 => "synth2869",
            ScaleId::Synth9241 => "synth9241",
        }
    }

    /// Display name.
    pub fn display_name(self) -> &'static str {
        match self {
            ScaleId::Synth1354 => "Synthetic 1354-bus interconnect",
            ScaleId::Synth2869 => "Synthetic 2869-bus interconnect",
            ScaleId::Synth9241 => "Synthetic 9241-bus interconnect",
        }
    }

    /// Bus count (the number in the case name).
    pub fn size(self) -> usize {
        match self {
            ScaleId::Synth1354 => 1354,
            ScaleId::Synth2869 => 2869,
            ScaleId::Synth9241 => 9241,
        }
    }

    /// The generation spec for this case. Seeds and knobs are pinned —
    /// changing them changes the case identity, so treat these like
    /// embedded data.
    pub fn spec(self) -> ScaleSpec {
        match self {
            ScaleId::Synth1354 => ScaleSpec {
                name: self.display_name().into(),
                n_bus: 1354,
                n_area: 4,
                seed: 0x1354,
                load_mw_per_bus: 54.0,
                rating_margin: 1.15,
                n1_samples: 64,
            },
            ScaleId::Synth2869 => ScaleSpec {
                name: self.display_name().into(),
                n_bus: 2869,
                n_area: 6,
                seed: 0x2869,
                load_mw_per_bus: 46.0,
                rating_margin: 1.15,
                n1_samples: 80,
            },
            ScaleId::Synth9241 => ScaleSpec {
                name: self.display_name().into(),
                n_bus: 9241,
                n_area: 9,
                seed: 0x9241,
                load_mw_per_bus: 34.0,
                rating_margin: 1.15,
                n1_samples: 96,
            },
        }
    }
}

/// Parameters of an interconnect-scale synthetic case.
///
/// Unlike [`crate::synth::SynthSpec`], branch/load/generator counts are
/// *derived* from the bus count (the PSTCA specs pin exact Table-2
/// inventories; at PEGASE scale the target is class-realistic densities,
/// not an exact inventory).
#[derive(Clone, Debug)]
pub struct ScaleSpec {
    /// Case name.
    pub name: String,
    /// Total bus count, split across areas.
    pub n_bus: usize,
    /// Number of areas (each with its own HV ring / LV ring / substations).
    pub n_area: usize,
    /// RNG seed (fixed per case for reproducibility).
    pub seed: u64,
    /// Average active demand per bus (MW); total load scales linearly.
    pub load_mw_per_bus: f64,
    /// Global multiplier on calibrated thermal ratings.
    pub rating_margin: f64,
    /// Cap on the number of outages in the rating-calibration DC N-1
    /// sweep (runtime size cap: a full sweep is O(branches) LU factors).
    pub n1_samples: usize,
}

impl ScaleSpec {
    fn check(&self) -> Result<(), SynthError> {
        let fail = |reason| Err(SynthError::InvalidSpec { reason });
        if self.n_area < 2 {
            return fail("scale cases need at least 2 areas");
        }
        if self.n_bus < self.n_area * 60 {
            return fail("need at least 60 buses per area");
        }
        if self.load_mw_per_bus <= 0.0 {
            return fail("load per bus must be positive");
        }
        if self.n1_samples == 0 {
            return fail("N-1 calibration needs at least one sample");
        }
        Ok(())
    }
}

/// Per-area bus layout: global offsets of the HV ring, LV ring, and
/// substation-pair blocks.
struct AreaLayout {
    base: usize,
    n_hv: usize,
    n_lv: usize,
    n_pair: usize,
}

impl AreaLayout {
    fn hv(&self, k: usize) -> usize {
        self.base + k % self.n_hv
    }
    fn lv(&self, k: usize) -> usize {
        self.base + self.n_hv + k % self.n_lv
    }
    fn pair(&self, k: usize) -> usize {
        self.base + self.n_hv + self.n_lv + k
    }
}

/// Generates an interconnect-scale network for a spec.
///
/// Deterministic: the same spec always produces the same network,
/// bit-for-bit.
pub fn generate_scale(spec: &ScaleSpec) -> Result<Network, SynthError> {
    spec.check()?;
    let mut rng = SmallRng::seed_from_u64(spec.seed);

    // ---- Area partition: near-equal bus counts, remainder to the first
    // areas. Within an area: ~22% HV ring, ~12% substation pairs, the
    // rest the LV ring (degree-2/3 distribution buses — the bulk of any
    // real interconnect).
    let mut layouts: Vec<AreaLayout> = Vec::with_capacity(spec.n_area);
    let mut base = 0usize;
    for a in 0..spec.n_area {
        let m = spec.n_bus / spec.n_area + usize::from(a < spec.n_bus % spec.n_area);
        let n_hv = (m * 22 / 100).max(8);
        let n_pair = m * 12 / 100;
        let n_lv = m - n_hv - n_pair;
        if n_lv < 8 {
            return Err(SynthError::InvalidSpec {
                reason: "area too small for an LV ring",
            });
        }
        layouts.push(AreaLayout {
            base,
            n_hv,
            n_lv,
            n_pair,
        });
        base += m;
    }
    debug_assert_eq!(base, spec.n_bus);

    let mut net = Network::new(spec.name.clone());
    net.base_mva = 100.0;

    for (a, lay) in layouts.iter().enumerate() {
        let m = lay.n_hv + lay.n_lv + lay.n_pair;
        for i in 0..m {
            let hv = i < lay.n_hv;
            let mut bus = Bus::pq((lay.base + i) as u32 + 1, if hv { 345.0 } else { 138.0 });
            bus.vmin_pu = 0.94;
            bus.vmax_pu = 1.06;
            bus.area = a as u32 + 1;
            net.buses.push(bus);
        }
    }

    // ---- Topology. `edges` dedups; `lines` keeps deterministic insertion
    // order (per-area rings, then chords, then inter-area ties) so branch
    // indices are stable.
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut lines: Vec<(usize, usize, bool)> = Vec::new(); // (a, b, is_hv)
    let push_line = |edges: &mut BTreeSet<(usize, usize)>,
                     lines: &mut Vec<(usize, usize, bool)>,
                     a: usize,
                     b: usize,
                     hv: bool| {
        let key = (a.min(b), a.max(b));
        if a != b && edges.insert(key) {
            lines.push((key.0, key.1, hv));
            true
        } else {
            false
        }
    };

    for lay in &layouts {
        // HV ring + local chords (strides 2..n_hv/4 keep chords
        // geographically local, matching real grid degree profiles).
        for k in 0..lay.n_hv {
            push_line(&mut edges, &mut lines, lay.hv(k), lay.hv(k + 1), true);
        }
        let hv_chords = lay.n_hv * 45 / 100;
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < hv_chords && guard < hv_chords * 300 + 1000 {
            guard += 1;
            let i = rng.random_range(0..lay.n_hv);
            let stride = rng.random_range(2..=(lay.n_hv / 4).max(2));
            if push_line(&mut edges, &mut lines, lay.hv(i), lay.hv(i + stride), true) {
                added += 1;
            }
        }
        // LV ring + sparser chords.
        for k in 0..lay.n_lv {
            push_line(&mut edges, &mut lines, lay.lv(k), lay.lv(k + 1), false);
        }
        let lv_chords = lay.n_lv * 20 / 100;
        added = 0;
        guard = 0;
        while added < lv_chords && guard < lv_chords * 300 + 1000 {
            guard += 1;
            let i = rng.random_range(0..lay.n_lv);
            let stride = rng.random_range(2..=(lay.n_lv / 6).max(2));
            if push_line(&mut edges, &mut lines, lay.lv(i), lay.lv(i + stride), false) {
                added += 1;
            }
        }
    }

    // ---- Inter-area ties: ring over areas plus skip-chords, several
    // parallel 345 kV corridors per adjacent pair. Every tie endpoint is
    // an HV bus; >= 3 circuits per corridor so no tie outage islands an
    // area, and the area graph itself is 2-connected.
    let mut tie_pairs: Vec<(usize, usize)> = (0..spec.n_area)
        .map(|a| (a, (a + 1) % spec.n_area))
        .collect();
    if spec.n_area >= 5 {
        for a in 0..spec.n_area {
            tie_pairs.push((a, (a + 2) % spec.n_area));
        }
    }
    let tie_start = lines.len();
    for &(a, b) in &tie_pairs {
        let circuits = 3 + rng.random_range(0..2usize);
        let mut placed = 0usize;
        let mut guard = 0usize;
        while placed < circuits && guard < 200 {
            guard += 1;
            let i = layouts[a].hv(rng.random_range(0..layouts[a].n_hv));
            let j = layouts[b].hv(rng.random_range(0..layouts[b].n_hv));
            if push_line(&mut edges, &mut lines, i, j, true) {
                placed += 1;
            }
        }
        if placed < 2 {
            return Err(SynthError::InvalidSpec {
                reason: "could not place enough inter-area ties",
            });
        }
    }

    // ---- Line impedances (provisional; homogenized below). Ties are
    // long 345 kV corridors: low series reactance after homogenization,
    // meaningful charging.
    for (idx, &(a, b, hv)) in lines.iter().enumerate() {
        let tie = idx >= tie_start;
        let x = if tie {
            rng.random_range(0.008..0.022)
        } else if hv {
            rng.random_range(0.015..0.06)
        } else {
            rng.random_range(0.05..0.18)
        };
        let r = x * if hv { 0.2 } else { 0.4 };
        let bch = x * if hv { 0.6 } else { 0.1 };
        net.branches.push(Branch::line(a, b, r, x, bch, 0.0));
    }

    // ---- Transformers: ring transformers couple each LV ring to its HV
    // ring; substation pair buses hang off HV buses through two parallel
    // units (single-unit outage keeps the pocket energized).
    for lay in &layouts {
        let t_ring = (lay.n_lv / 8).max(3);
        for t in 0..t_ring {
            let hv_bus = lay.hv(t * lay.n_hv / t_ring);
            let lv_bus = lay.lv(t * lay.n_lv / t_ring);
            let x = rng.random_range(0.03..0.08);
            let tap = 1.0 + rng.random_range(-3i32..=2) as f64 * 0.0125;
            net.branches
                .push(Branch::transformer(hv_bus, lv_bus, 0.003, x, tap, 0.0));
        }
        for p in 0..lay.n_pair {
            let pair_bus = lay.pair(p);
            let hv_bus = lay.hv(p * lay.n_hv / lay.n_pair.max(1) + 1);
            for dup in 0..2 {
                let x = rng.random_range(0.05..0.10) + dup as f64 * 0.005;
                let tap = 1.0 + rng.random_range(-2i32..=2) as f64 * 0.0125;
                net.branches
                    .push(Branch::transformer(hv_bus, pair_bus, 0.003, x, tap, 0.0));
            }
        }
    }

    // ---- Loads. Per-area demand factors are deliberately uneven
    // (0.7–1.3×) so the tie corridors carry real inter-area transfers.
    // Every substation bus has a load; LV ring buses mostly do; a few HV
    // buses model directly-connected industrial demand.
    let area_demand: Vec<f64> = (0..spec.n_area)
        .map(|_| 0.7 + 0.6 * rng.random_range(0.0..1.0))
        .collect();
    let mut load_entries: Vec<(usize, f64)> = Vec::new(); // (bus, weight)
    for (a, lay) in layouts.iter().enumerate() {
        let af = area_demand[a];
        for p in 0..lay.n_pair {
            let u: f64 = rng.random_range(0.0..1.0);
            load_entries.push((lay.pair(p), (1.5 * u).exp() * af));
        }
        for k in 0..lay.n_lv {
            if rng.random_range(0.0..1.0) < 0.7 {
                let u: f64 = rng.random_range(0.0..1.0);
                load_entries.push((lay.lv(k), (1.5 * u).exp() * 0.45 * af));
            }
        }
        for k in 0..lay.n_hv {
            if rng.random_range(0.0..1.0) < 0.08 {
                let u: f64 = rng.random_range(0.0..1.0);
                load_entries.push((lay.hv(k), (1.5 * u).exp() * 1.6 * af));
            }
        }
    }
    let total_load = spec.load_mw_per_bus * spec.n_bus as f64;
    let wsum: f64 = load_entries.iter().map(|e| e.1).sum();
    for &(bus, w) in &load_entries {
        let p = total_load * w / wsum;
        let pf: f64 = rng.random_range(0.92..0.985);
        let q = p * (1.0 / (pf * pf) - 1.0f64).sqrt();
        net.loads.push(Load {
            bus,
            p_mw: p,
            q_mvar: q,
            in_service: true,
        });
    }

    // ---- Generators: on HV buses, spread around each area ring. The
    // per-area generation factor is anti-correlated with demand (2 - af),
    // which is what actually forces power across the ties.
    let total_capacity = total_load * 2.2;
    let mut gen_entries: Vec<(usize, f64)> = Vec::new();
    for (a, lay) in layouts.iter().enumerate() {
        let gf = 2.0 - area_demand[a];
        let n_gen_a = (lay.n_hv / 3).max(3);
        for g in 0..n_gen_a {
            let bus = lay.hv(g * lay.n_hv / n_gen_a);
            let u: f64 = rng.random_range(0.0..1.0);
            gen_entries.push((bus, (2.0 * u).exp() * gf));
        }
    }
    // A bus can host at most one generator record here; dedup keeps the
    // first (deterministic) and folds the weight in.
    gen_entries.sort_by_key(|e| e.0);
    gen_entries.dedup_by(|b, a| {
        if a.0 == b.0 {
            a.1 += b.1;
            true
        } else {
            false
        }
    });
    let gwsum: f64 = gen_entries.iter().map(|e| e.1).sum();
    let dispatch_total = total_load * 1.02; // losses headroom
    for &(bus, w) in &gen_entries {
        let p_max = total_capacity * w / gwsum;
        let p0 = (dispatch_total * w / gwsum).min(p_max * 0.95);
        let c2 = rng.random_range(0.004..0.05);
        let c1 = rng.random_range(15.0..45.0);
        net.gens.push(Generator {
            bus,
            p_mw: p0,
            q_mvar: 0.0,
            vm_setpoint_pu: rng.random_range(1.02..1.032),
            p_min_mw: 0.0,
            p_max_mw: p_max,
            q_min_mvar: -0.4 * p_max,
            q_max_mvar: 0.6 * p_max,
            in_service: true,
            cost: GenCost { c2, c1, c0: 0.0 },
        });
    }
    let slack_gen = (0..net.gens.len())
        .max_by(|&a, &b| net.gens[a].p_max_mw.total_cmp(&net.gens[b].p_max_mw))
        .ok_or(SynthError::NoSlack)?;
    let slack_bus = net.gens[slack_gen].bus;
    net.buses[slack_bus].kind = BusKind::Slack;
    net.buses[slack_bus].vm_pu = net.gens[slack_gen].vm_setpoint_pu;
    for g in &net.gens {
        if g.bus != slack_bus {
            net.buses[g.bus].kind = BusKind::Pv;
            net.buses[g.bus].vm_pu = g.vm_setpoint_pu;
        }
    }

    // ---- Reactive support: shunt capacitors at the heaviest non-HV
    // loads in each area (per-area so no area's LV pockets go bare).
    for lay in &layouts {
        let hv_end = lay.base + lay.n_hv;
        let area_end = lay.base + lay.n_hv + lay.n_lv + lay.n_pair;
        let mut lv_loads: Vec<(usize, f64)> = net
            .loads
            .iter()
            .filter(|l| l.bus >= hv_end && l.bus < area_end)
            .map(|l| (l.bus, l.p_mw))
            .collect();
        lv_loads.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(bus, p) in lv_loads.iter().take((lv_loads.len() / 2).max(1)) {
            net.shunts.push(Shunt {
                bus,
                g_mw: 0.0,
                b_mvar: (0.45 * p).round(),
                in_service: true,
            });
        }
    }

    // ---- Calibration pass 1: impedance homogenization against DC flows
    // (same invariant as `synth::generate`: <= ~0.045 rad across any
    // branch at base case, which keeps Newton in its basin from a flat
    // start).
    let flows = dc_flows(&net)?;
    for (idx, br) in net.branches.iter_mut().enumerate() {
        let f = flows[idx].abs().max(0.15);
        let x_cap = 0.045 / f;
        if br.x_pu > x_cap {
            let scale = x_cap / br.x_pu;
            br.x_pu *= scale;
            br.r_pu *= scale;
        }
    }

    // ---- Calibration pass 2: thermal ratings from a *sampled* DC N-1
    // sweep. Outage set = every inter-area tie plus the highest-|flow|
    // corridors, capped at `n1_samples` (the runtime size cap that keeps
    // 10k-bus generation tractable).
    let base_flows = dc_flows(&net)?;
    let mut worst: Vec<f64> = base_flows.iter().map(|f| f.abs()).collect();
    let mut outages: Vec<usize> = (tie_start..lines.len()).collect();
    let mut by_flow: Vec<usize> = (0..net.branches.len()).collect();
    by_flow.sort_by(|&a, &b| {
        base_flows[b]
            .abs()
            .total_cmp(&base_flows[a].abs())
            .then(a.cmp(&b))
    });
    for idx in by_flow {
        if outages.len() >= spec.n1_samples {
            break;
        }
        if !outages.contains(&idx) {
            outages.push(idx);
        }
    }
    for &out in &outages {
        net.branches[out].in_service = false;
        if crate::topology::connected_components(&net) == 1 {
            let f = dc_flows(&net)?;
            for (w, fi) in worst.iter_mut().zip(&f) {
                *w = w.max(fi.abs());
            }
        }
        net.branches[out].in_service = true;
    }

    // Transformer rating floors (DC calibration sees only MW; units
    // feeding reactive-heavy pockets need explicit MVA headroom).
    let mut load_mva = vec![0.0f64; spec.n_bus];
    for l in &net.loads {
        load_mva[l.bus] += (l.p_mw * l.p_mw + l.q_mvar * l.q_mvar).sqrt();
    }
    let mut parallel_count = std::collections::HashMap::new();
    for br in &net.branches {
        if br.kind == BranchKind::Transformer {
            *parallel_count
                .entry((br.from_bus, br.to_bus))
                .or_insert(0usize) += 1;
        }
    }
    let pf_assumed = 0.82;
    for (idx, br) in net.branches.iter_mut().enumerate() {
        let base_mva = base_flows[idx].abs() * net.base_mva;
        let worst_mva = worst[idx] * net.base_mva;
        // A small deterministic minority of corridors is derated into the
        // N-1-stressed regime; at interconnect scale 1.5% still leaves a
        // few hundred corridors for contingency analysis to find.
        let derate: f64 = rng.random_range(0.0..1.0);
        let n1_margin = if derate < 0.015 {
            rng.random_range(0.60..0.95)
        } else {
            rng.random_range(1.05..1.25)
        };
        let mut floor = 30.0f64;
        if br.kind == BranchKind::Transformer {
            let dup = parallel_count
                .get(&(br.from_bus, br.to_bus))
                .copied()
                .unwrap_or(1) as f64;
            let carry = if dup > 1.0 { 1.0 } else { dup };
            floor = floor.max(1.3 * load_mva[br.to_bus] / carry);
        }
        let rating = (1.30 * base_mva).max(n1_margin * worst_mva).max(floor) / pf_assumed
            * spec.rating_margin;
        br.rating_mva = (rating / 5.0).ceil() * 5.0;
    }

    Ok(net)
}

/// Fuzzy identification over the scale cases: `synth9241` scores 1.0,
/// `case9241` / `9241-bus` 0.95, bare `9241` 0.8.
pub fn identify_scale(input: &str) -> Option<(ScaleId, f64)> {
    let norm: String = input
        .trim()
        .to_ascii_lowercase()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect();
    if norm.is_empty() {
        return None;
    }
    for id in ScaleId::ALL {
        if norm == id.short_name() {
            return Some((id, 1.0));
        }
    }
    let digits: String = norm.chars().filter(|c| c.is_ascii_digit()).collect();
    let size: usize = digits.parse().ok()?;
    let id = ScaleId::ALL.into_iter().find(|c| c.size() == size)?;
    let conf = if norm.contains("synth") || norm.contains("case") || norm.contains("bus") {
        0.95
    } else if norm == digits {
        0.8
    } else {
        0.6
    };
    Some((id, conf))
}

/// The [`crate::library`]'s entry for a scale case. Generation at 9241
/// buses runs a sampled DC N-1 calibration (~`n1_samples` LU
/// factorizations), so the first call per process takes seconds; later
/// calls are free.
pub fn load_scale(id: ScaleId) -> &'static Network {
    crate::library::entry(id.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately small spec so unit tests stay fast; the real cases
    /// are exercised by the tier-1 `scale_cases` (1354 only) and
    /// `work_counts` (all three) integration tests.
    fn tiny_spec() -> ScaleSpec {
        ScaleSpec {
            name: "tiny 3-area".into(),
            n_bus: 260,
            n_area: 3,
            seed: 42,
            load_mw_per_bus: 20.0,
            rating_margin: 1.15,
            n1_samples: 24,
        }
    }

    #[test]
    fn generates_and_validates() {
        let net = generate_scale(&tiny_spec()).unwrap();
        assert_eq!(net.n_bus(), 260);
        assert_eq!(crate::topology::connected_components(&net), 1);
        net.validate().expect("scale case must validate");
    }

    #[test]
    fn deterministic() {
        let a = generate_scale(&tiny_spec()).unwrap();
        let b = generate_scale(&tiny_spec()).unwrap();
        assert_eq!(a.branches.len(), b.branches.len());
        for (x, y) in a.branches.iter().zip(&b.branches) {
            assert_eq!(x.x_pu, y.x_pu);
            assert_eq!(x.rating_mva, y.rating_mva);
        }
        for (x, y) in a.loads.iter().zip(&b.loads) {
            assert_eq!(x.p_mw, y.p_mw);
        }
    }

    #[test]
    fn areas_are_tied_and_unbalanced() {
        let net = generate_scale(&tiny_spec()).unwrap();
        // At least one branch crosses areas, and total area demand is
        // uneven enough that ties must carry power.
        let ties = net
            .branches
            .iter()
            .filter(|br| net.buses[br.from_bus].area != net.buses[br.to_bus].area)
            .count();
        assert!(
            ties >= 6,
            "expected >= 2 corridors x >= 3 circuits, got {ties}"
        );
        let mut area_load = [0.0f64; 3];
        for l in &net.loads {
            area_load[net.buses[l.bus].area as usize - 1] += l.p_mw;
        }
        let max = area_load.iter().cloned().fold(0.0, f64::max);
        let min = area_load.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 1.05, "area demand suspiciously uniform");
    }

    #[test]
    fn no_tie_outage_islands() {
        let net = generate_scale(&tiny_spec()).unwrap();
        for (idx, br) in net.branches.iter().enumerate() {
            if net.buses[br.from_bus].area != net.buses[br.to_bus].area {
                assert!(
                    !crate::topology::outage_islands(&net, idx),
                    "tie {idx} is a bridge"
                );
            }
        }
    }

    #[test]
    fn base_case_dc_secure() {
        let net = generate_scale(&tiny_spec()).unwrap();
        let flows = dc_flows(&net).unwrap();
        for (idx, br) in net.branches.iter().enumerate() {
            let loading = flows[idx].abs() * net.base_mva / br.rating_mva;
            assert!(loading <= 0.95, "branch {idx} base loading {loading:.2}");
        }
    }

    #[test]
    fn identify_scale_names() {
        assert_eq!(identify_scale("synth9241"), Some((ScaleId::Synth9241, 1.0)));
        let (id, conf) = identify_scale("case1354").unwrap();
        assert_eq!(id, ScaleId::Synth1354);
        assert!(conf >= 0.95);
        assert_eq!(identify_scale("2869").unwrap().0, ScaleId::Synth2869);
        assert_eq!(identify_scale("case999"), None);
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        let mut s = tiny_spec();
        s.n_area = 1;
        assert!(matches!(
            generate_scale(&s),
            Err(SynthError::InvalidSpec { .. })
        ));
        let mut s = tiny_spec();
        s.n1_samples = 0;
        assert!(matches!(
            generate_scale(&s),
            Err(SynthError::InvalidSpec { .. })
        ));
    }
}
