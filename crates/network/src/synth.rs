//! Deterministic synthetic network generator.
//!
//! The paper evaluates on the PSTCA IEEE 57/118/300-bus cases, whose raw
//! data files are external assets. This module reconstructs *statistically
//! equivalent* cases: exact Table-2 inventory (bus/gen/load/line/trafo
//! counts), realistic parameter distributions, and a two-step calibration
//! that (a) homogenizes impedances against a DC power flow so the case is
//! Newton-solvable, and (b) assigns thermal ratings from a DC N-1 sweep so
//! that the base case is secure but a handful of corridors overload under
//! contingency — the regime the paper's Table 1 probes.
//!
//! Generation is fully deterministic for a given [`SynthSpec`] (seeded
//! [`SmallRng`]); two calls produce identical networks.

use crate::model::{Branch, BranchKind, Bus, BusKind, GenCost, Generator, Load, Network, Shunt};
use crate::ybus::slack_pinned_bprime;
use gm_sparse::SparseLu;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Typed failure from synthetic-case generation: a malformed spec or a
/// degenerate intermediate network surfaces as an error the caller can
/// handle instead of panicking (the generators run inside serve workers
/// and agent tools).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthError {
    /// The spec violates a structural precondition of the generator.
    InvalidSpec {
        /// Which precondition failed.
        reason: &'static str,
    },
    /// The intermediate network has no slack bus (no generators).
    NoSlack,
    /// The DC calibration matrix failed to factor.
    DcSingular,
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::InvalidSpec { reason } => write!(f, "invalid synthetic spec: {reason}"),
            SynthError::NoSlack => write!(f, "synthetic network has no slack bus"),
            SynthError::DcSingular => write!(f, "DC calibration matrix is singular"),
        }
    }
}

impl std::error::Error for SynthError {}

/// Parameters of a synthetic case.
#[derive(Clone, Debug)]
pub struct SynthSpec {
    /// Case name, e.g. "IEEE 118-bus system (synthetic reconstruction)".
    pub name: String,
    /// Bus count.
    pub n_bus: usize,
    /// Generator count.
    pub n_gen: usize,
    /// Load count.
    pub n_load: usize,
    /// AC line count.
    pub n_line: usize,
    /// Transformer count.
    pub n_trafo: usize,
    /// Total active demand (MW).
    pub total_load_mw: f64,
    /// Total generation capacity (MW).
    pub total_gen_capacity_mw: f64,
    /// RNG seed (fixed per case for reproducibility).
    pub seed: u64,
    /// Global multiplier on calibrated thermal ratings (1.0 = the
    /// standard N-1-stressed regime; larger values relax the system).
    pub rating_margin: f64,
}

impl SynthSpec {
    /// Sanity constraints the generator relies on.
    fn check(&self) -> Result<(), SynthError> {
        let fail = |reason| Err(SynthError::InvalidSpec { reason });
        if self.n_bus < 12 {
            return fail("need at least 12 buses");
        }
        if self.n_gen < 1 || self.n_gen > self.n_bus {
            return fail("generator count out of range");
        }
        if self.n_load < 1 || self.n_load > self.n_bus {
            return fail("load count out of range");
        }
        if self.n_trafo < 4 {
            return fail("two-level design needs >= 4 transformers");
        }
        if self.n_line + self.n_trafo < self.n_bus + 4 {
            return fail("not enough branches for a doubly-connected two-zone network");
        }
        if self.total_gen_capacity_mw <= self.total_load_mw * 1.1 {
            return fail("generation capacity must exceed load by 10%");
        }
        Ok(())
    }

    /// Derived zone layout: `(n_hv, n_ring_lv, n_pair, t_ring)`.
    ///
    /// Buses are laid out as an HV ring (`n_hv`), an LV ring (`n_ring_lv`)
    /// coupled to the HV ring by `t_ring` transformers, and `n_pair`
    /// "substation" buses each hung off an HV bus through a *pair* of
    /// parallel transformers (so no single transformer outage islands
    /// anything). `t_ring + 2·n_pair == n_trafo` exactly.
    fn layout(&self) -> Result<(usize, usize, usize, usize), SynthError> {
        // Pair buses absorb surplus transformers (IEEE 300 has 128!), and
        // also relieve ring line demand when lines are scarce.
        let max_pairs = self.n_trafo.saturating_sub(4) / 2;
        let want_pairs = (self.n_trafo / 5).max(
            (self.n_bus + 2).saturating_sub(self.n_line), // ring line deficit
        );
        let n_pair = want_pairs.min(max_pairs);
        let mut t_ring = self.n_trafo - 2 * n_pair;
        let mut n_pair = n_pair;
        // Keep parity exact (t_ring must use all remaining transformers).
        debug_assert_eq!(t_ring + 2 * n_pair, self.n_trafo);
        if t_ring < 2 {
            // Give back one pair to keep >= 2 ring transformers.
            n_pair -= 1;
            t_ring += 2;
        }
        let non_pair = self.n_bus - n_pair;
        let n_ring_lv = 3usize.max((t_ring * 3).min(non_pair / 4));
        let n_hv = non_pair - n_ring_lv;
        if self.n_line < n_hv + n_ring_lv + 2 {
            return Err(SynthError::InvalidSpec {
                reason: "not enough lines for both rings plus chords",
            });
        }
        if t_ring > n_ring_lv * n_hv {
            return Err(SynthError::InvalidSpec {
                reason: "cannot place ring transformers",
            });
        }
        Ok((n_hv, n_ring_lv, n_pair, t_ring))
    }
}

/// Generates the synthetic network for a spec.
pub fn generate(spec: &SynthSpec) -> Result<Network, SynthError> {
    spec.check()?;
    let mut rng = SmallRng::seed_from_u64(spec.seed);

    // ---- Zone sizing (see `SynthSpec::layout`): an HV ring, an LV ring
    // joined to it by `t_ring` transformers, and `n_pair` substation buses
    // on parallel transformer pairs. No single branch outage islands the
    // system.
    let (n_hv, n_ring_lv, n_pair, t_ring) = spec.layout()?;
    let n_lv = n_ring_lv + n_pair;

    let mut net = Network::new(spec.name.clone());
    net.base_mva = 100.0;

    for i in 0..spec.n_bus {
        let hv = i < n_hv;
        let mut bus = Bus::pq(i as u32 + 1, if hv { 345.0 } else { 138.0 });
        bus.vmin_pu = 0.94;
        bus.vmax_pu = 1.06;
        bus.area = if hv { 1 } else { 2 };
        net.buses.push(bus);
    }

    // ---- Topology: two rings plus HV chords.
    let mut edges: std::collections::BTreeSet<(usize, usize)> = std::collections::BTreeSet::new();
    let add_ring =
        |edges: &mut std::collections::BTreeSet<(usize, usize)>, start: usize, n: usize| {
            for k in 0..n {
                let a = start + k;
                let b = start + (k + 1) % n;
                edges.insert((a.min(b), a.max(b)));
            }
        };
    add_ring(&mut edges, 0, n_hv);
    add_ring(&mut edges, n_hv, n_ring_lv);

    // Chords (geometrically local strides) on the HV ring.
    let n_chords = spec.n_line - n_hv - n_ring_lv;
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < n_chords && guard < n_chords * 300 + 1000 {
        guard += 1;
        let i = rng.random_range(0..n_hv);
        let stride = rng.random_range(2..=(n_hv / 2).max(2));
        let j = (i + stride) % n_hv;
        if i == j {
            continue;
        }
        let (a, b) = (i.min(j), i.max(j));
        if edges.insert((a, b)) {
            added += 1;
        }
    }
    // Deterministic fallback if random placement saturated.
    let mut stride = 2usize;
    while added < n_chords {
        let mut placed = false;
        for i in 0..n_hv {
            if added == n_chords {
                break;
            }
            let j = (i + stride) % n_hv;
            let (a, b) = (i.min(j), i.max(j));
            if a != b && edges.insert((a, b)) {
                added += 1;
                placed = true;
            }
        }
        stride += 1;
        if !placed && stride > n_hv {
            return Err(SynthError::InvalidSpec {
                reason: "could not place all requested lines",
            });
        }
    }
    let line_edges: Vec<(usize, usize)> = edges.iter().copied().collect();
    assert_eq!(line_edges.len(), spec.n_line);

    // ---- Line impedances (provisional; homogenized later).
    for &(a, b) in &line_edges {
        let hv = b < n_hv;
        let x = if hv {
            rng.random_range(0.015..0.06)
        } else {
            rng.random_range(0.05..0.18)
        };
        let r = x * if hv { 0.2 } else { 0.4 };
        let bch = x * if hv { 0.6 } else { 0.1 };
        net.branches.push(Branch::line(a, b, r, x, bch, 0.0));
    }

    // ---- Ring transformers: couple the LV ring to the HV ring, spread
    // around both rings so no LV pocket depends on a single unit.
    for t in 0..t_ring {
        let hv_bus = (t * n_hv / t_ring) % n_hv;
        let lv_bus = n_hv + (t * n_ring_lv / t_ring) % n_ring_lv;
        let x = rng.random_range(0.03..0.08);
        let tap = 1.0 + rng.random_range(-3i32..=2) as f64 * 0.0125;
        net.branches
            .push(Branch::transformer(hv_bus, lv_bus, 0.003, x, tap, 0.0));
    }
    // ---- Substation pairs: each pair bus hangs off an HV bus through two
    // parallel transformers (single-unit outage keeps it energized).
    for p in 0..n_pair {
        let pair_bus = n_hv + n_ring_lv + p;
        let hv_bus = (p * n_hv / n_pair.max(1) + 1) % n_hv;
        for dup in 0..2 {
            let x = rng.random_range(0.05..0.10) + dup as f64 * 0.005;
            let tap = 1.0 + rng.random_range(-2i32..=2) as f64 * 0.0125;
            net.branches
                .push(Branch::transformer(hv_bus, pair_bus, 0.003, x, tap, 0.0));
        }
    }

    // ---- Loads: LV buses first, then HV, weights lognormal-ish.
    let mut load_buses: Vec<usize> = (n_hv..spec.n_bus).collect();
    let mut hv_candidates: Vec<usize> = (0..n_hv).collect();
    // Deterministic shuffle.
    for i in (1..hv_candidates.len()).rev() {
        let j = rng.random_range(0..=i);
        hv_candidates.swap(i, j);
    }
    load_buses.extend(hv_candidates.iter().copied());
    load_buses.truncate(spec.n_load);
    let weights: Vec<f64> = load_buses
        .iter()
        .map(|&bus| {
            let u: f64 = rng.random_range(0.0..1.0);
            // LV pockets carry lighter individual loads than HV
            // substations, keeping transformer corridors from dominating
            // every contingency ranking.
            let lv_scale = if bus >= n_hv { 0.45 } else { 1.0 };
            (1.5 * u).exp() * lv_scale
        })
        .collect();
    let wsum: f64 = weights.iter().sum();
    for (&bus, &w) in load_buses.iter().zip(&weights) {
        let p = spec.total_load_mw * w / wsum;
        let pf: f64 = rng.random_range(0.92..0.985);
        let q = p * (1.0 / (pf * pf) - 1.0f64).sqrt();
        net.loads.push(Load {
            bus,
            p_mw: p,
            q_mvar: q,
            in_service: true,
        });
    }

    // ---- Generators: mostly HV, spread around the ring.
    let mut gen_buses: Vec<usize> = Vec::with_capacity(spec.n_gen);
    for g in 0..spec.n_gen {
        let mut bus = (g * n_hv / spec.n_gen) % n_hv;
        // Nudge off load-heavy duplicates.
        while gen_buses.contains(&bus) {
            bus = (bus + 1) % n_hv;
        }
        gen_buses.push(bus);
    }
    let gw: Vec<f64> = (0..spec.n_gen)
        .map(|_| {
            let u: f64 = rng.random_range(0.0..1.0);
            (2.0 * u).exp()
        })
        .collect();
    let gwsum: f64 = gw.iter().sum();
    let dispatch_total = spec.total_load_mw * 1.02; // losses headroom
    for (&bus, &w) in gen_buses.iter().zip(&gw) {
        let p_max = spec.total_gen_capacity_mw * w / gwsum;
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
    // Slack = largest unit.
    let slack_gen = (0..spec.n_gen)
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

    // ---- Reactive support: shunt capacitors at the heaviest LV loads.
    let mut lv_loads: Vec<(usize, f64)> = net
        .loads
        .iter()
        .filter(|l| l.bus >= n_hv)
        .map(|l| (l.bus, l.p_mw))
        .collect();
    lv_loads.sort_by(|a, b| b.1.total_cmp(&a.1));
    for &(bus, p) in lv_loads.iter().take((n_lv / 2).max(1)) {
        net.shunts.push(Shunt {
            bus,
            g_mw: 0.0,
            b_mvar: (0.45 * p).round(),
            in_service: true,
        });
    }

    // ---- Calibration pass 1: impedance homogenization against DC flows.
    let flows = dc_flows(&net)?;
    for (idx, br) in net.branches.iter_mut().enumerate() {
        let f = flows[idx].abs().max(0.15); // p.u.
        let max_angle = 0.045; // rad across any one branch at base case
        let x_cap = max_angle / f;
        if br.x_pu > x_cap {
            let scale = x_cap / br.x_pu;
            br.x_pu *= scale;
            br.r_pu *= scale;
        }
    }

    // ---- Calibration pass 2: thermal ratings from a DC N-1 sweep.
    let base = dc_flows(&net)?;
    let mut worst = base.iter().map(|f| f.abs()).collect::<Vec<f64>>();
    let n_br = net.branches.len();
    for out in 0..n_br {
        net.branches[out].in_service = false;
        // Skip if outage would island (ring design should prevent this).
        if crate::topology::connected_components(&net) == 1 {
            let f = dc_flows(&net)?;
            for (w, fi) in worst.iter_mut().zip(&f) {
                *w = w.max(fi.abs());
            }
        }
        net.branches[out].in_service = true;
    }
    // Per-bus load MVA, used to floor transformer ratings (DC calibration
    // sees only MW; transformers feeding reactive-heavy load pockets need
    // explicit headroom).
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
    // The assumed power factor converts the DC MW calibration into an MVA
    // rating with room for reactive flow.
    let pf_assumed = 0.82;
    for (idx, br) in net.branches.iter_mut().enumerate() {
        let base_mva = base[idx].abs() * net.base_mva;
        let worst_mva = worst[idx] * net.base_mva;
        // Most corridors stay secure under N-1; a deterministic minority is
        // derated so the worst contingency overloads them (what Table 1
        // hunts for).
        let derate: f64 = rng.random_range(0.0..1.0);
        let n1_margin = if derate < 0.12 {
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
            // Each unit must carry the pocket alone when its twin trips.
            let carry = if dup > 1.0 { 1.0 } else { dup };
            floor = floor.max(1.3 * load_mva[br.to_bus] / carry);
        }
        let rating = (1.30 * base_mva).max(n1_margin * worst_mva).max(floor) / pf_assumed
            * spec.rating_margin;
        br.rating_mva = (rating / 5.0).ceil() * 5.0;
    }

    // The stressed-minority draw above is stochastic; on small cases the
    // floors and rounding can erase every derate. Guarantee at least one
    // deliberately stressed corridor so downstream N-1 analysis always
    // has something to find: derate the most-loaded corridor to ~115 %
    // of its worst post-outage flow.
    let has_stress = net
        .branches
        .iter()
        .enumerate()
        .any(|(idx, br)| worst[idx] * net.base_mva > br.rating_mva);
    if !has_stress {
        if let Some((idx, _)) = worst.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) {
            let worst_mva = worst[idx] * net.base_mva;
            net.branches[idx].rating_mva = (((worst_mva / 1.15) / 5.0).floor() * 5.0).max(5.0);
        }
    }

    Ok(net)
}

/// DC power flow: returns per-branch active flow in p.u. (from → to).
/// Internal calibration tool — the real solvers live in `gm-powerflow`.
pub(crate) fn dc_flows(net: &Network) -> Result<Vec<f64>, SynthError> {
    let slack = net.slack().ok_or(SynthError::NoSlack)?;
    // Injections in p.u.; the pinned slack row absorbs the imbalance.
    let (p_mw, _) = net.scheduled_injections();
    let mut p: Vec<f64> = p_mw.iter().map(|v| v / net.base_mva).collect();
    p[slack] = 0.0;
    let bmat = slack_pinned_bprime(net, slack).to_csr();
    let lu = SparseLu::factor(&bmat).map_err(|_| SynthError::DcSingular)?;
    let theta = lu.solve(&p);
    Ok(net
        .branches
        .iter()
        .map(|br| {
            if br.in_service {
                (theta[br.from_bus] - theta[br.to_bus]) / br.x_pu
            } else {
                0.0
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SynthSpec {
        SynthSpec {
            name: "synthetic 40-bus".into(),
            n_bus: 40,
            n_gen: 8,
            n_load: 25,
            n_line: 55,
            n_trafo: 6,
            total_load_mw: 900.0,
            total_gen_capacity_mw: 2100.0,
            seed: 7,
            rating_margin: 1.0,
        }
    }

    #[test]
    fn exact_inventory() {
        let net = generate(&small_spec()).unwrap();
        assert_eq!(net.n_bus(), 40);
        assert_eq!(net.gens.len(), 8);
        assert_eq!(net.loads.len(), 25);
        assert_eq!(net.n_lines(), 55);
        assert_eq!(net.n_transformers(), 6);
    }

    #[test]
    fn totals_match_spec() {
        let net = generate(&small_spec()).unwrap();
        assert!((net.total_load_mw() - 900.0).abs() < 1e-6);
        assert!((net.total_gen_capacity_mw() - 2100.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic() {
        let a = generate(&small_spec()).unwrap();
        let b = generate(&small_spec()).unwrap();
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
    fn different_seed_different_network() {
        let mut s2 = small_spec();
        s2.seed = 8;
        let a = generate(&small_spec()).unwrap();
        let b = generate(&s2).unwrap();
        let same = a
            .branches
            .iter()
            .zip(&b.branches)
            .all(|(x, y)| x.x_pu == y.x_pu);
        assert!(!same);
    }

    #[test]
    fn validates_clean() {
        let net = generate(&small_spec()).unwrap();
        net.validate().expect("synthetic case must validate");
    }

    #[test]
    fn no_single_branch_outage_islands() {
        let net = generate(&small_spec()).unwrap();
        for i in 0..net.branches.len() {
            assert!(
                !crate::topology::outage_islands(&net, i),
                "branch {i} is a bridge"
            );
        }
    }

    #[test]
    fn base_case_dc_secure() {
        let net = generate(&small_spec()).unwrap();
        let flows = dc_flows(&net).unwrap();
        for (idx, br) in net.branches.iter().enumerate() {
            let loading = flows[idx].abs() * net.base_mva / br.rating_mva;
            assert!(
                loading <= 0.95,
                "branch {idx} base DC loading {loading:.2} too high"
            );
        }
    }

    #[test]
    fn some_n1_stress_exists() {
        // The deliberate derating should leave at least one branch whose
        // worst-case DC N-1 loading exceeds 100%.
        let mut net = generate(&small_spec()).unwrap();
        let n_br = net.branches.len();
        let mut max_loading = 0.0f64;
        for out in 0..n_br {
            net.branches[out].in_service = false;
            if crate::topology::connected_components(&net) == 1 {
                let f = dc_flows(&net).unwrap();
                for (idx, br) in net.branches.iter().enumerate() {
                    if idx != out && br.in_service {
                        max_loading = max_loading.max(f[idx].abs() * net.base_mva / br.rating_mva);
                    }
                }
            }
            net.branches[out].in_service = true;
        }
        assert!(
            max_loading > 1.0,
            "expected at least one N-1 overload, max loading {max_loading:.3}"
        );
        assert!(max_loading < 2.0, "overloads unrealistically large");
    }

    #[test]
    fn dc_power_balance() {
        let net = generate(&small_spec()).unwrap();
        let flows = dc_flows(&net).unwrap();
        // At every non-slack bus: injections equal sum of outgoing flows.
        let slack = net.slack().unwrap();
        let (p_mw, _) = net.scheduled_injections();
        let mut residual = vec![0.0f64; net.n_bus()];
        for (i, r) in residual.iter_mut().enumerate() {
            *r = p_mw[i] / net.base_mva;
        }
        for (idx, br) in net.branches.iter().enumerate() {
            residual[br.from_bus] -= flows[idx];
            residual[br.to_bus] += flows[idx];
        }
        for (i, r) in residual.iter().enumerate() {
            if i != slack {
                assert!(r.abs() < 1e-8, "bus {i} residual {r}");
            }
        }
    }
}
