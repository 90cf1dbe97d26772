//! Bus admittance matrix assembly.
//!
//! Standard pi-model with off-nominal tap `t` on the from side and phase
//! shift `θ` (so the complex tap is `a = t·e^{jθ}`):
//!
//! ```text
//! Y_ff = (y_s + j·b/2) / |a|²      Y_ft = -y_s / conj(a)
//! Y_tf = -y_s / a                  Y_tt =  y_s + j·b/2
//! ```
//!
//! with `y_s = 1/(r + jx)`. Bus shunts add `(g + jb)/S_base` on the
//! diagonal. Matches the MATPOWER/PandaPower convention, so branch-flow
//! equations downstream are textbook-compatible.

use crate::model::Network;
use gm_numeric::Complex;
use gm_sparse::{CsMat, Triplets};

/// Per-branch admittance blocks, retained for branch-flow computations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BranchAdmittance {
    /// From-from block.
    pub yff: Complex,
    /// From-to block.
    pub yft: Complex,
    /// To-from block.
    pub ytf: Complex,
    /// To-to block.
    pub ytt: Complex,
}

impl BranchAdmittance {
    /// The blocks of an out-of-service branch.
    pub const ZERO: BranchAdmittance = BranchAdmittance {
        yff: Complex::ZERO,
        yft: Complex::ZERO,
        ytf: Complex::ZERO,
        ytt: Complex::ZERO,
    };
}

/// `net` with the branches `outaged` switched out.
fn without(net: &Network, outaged: &[usize]) -> Network {
    let mut work = net.clone();
    for &k in outaged {
        if let Some(br) = work.branches.get_mut(k) {
            br.in_service = false;
        }
    }
    work
}

/// The assembled admittance structure for a network.
#[derive(Clone, Debug)]
pub struct YBus {
    /// Sparse complex bus admittance matrix (n × n).
    pub matrix: CsMat<Complex>,
    /// Admittance blocks for every branch (out-of-service branches get
    /// all-zero blocks, keeping indices aligned with `net.branches`).
    pub branch: Vec<BranchAdmittance>,
}

impl YBus {
    /// Assembles the admittance matrix for the in-service network.
    pub fn assemble(net: &Network) -> YBus {
        let n = net.n_bus();
        let mut t = Triplets::with_capacity(n, n, 4 * net.branches.len() + n);
        let mut blocks = Vec::with_capacity(net.branches.len());

        for br in &net.branches {
            if !br.in_service {
                blocks.push(BranchAdmittance::ZERO);
                continue;
            }
            let ys = Complex::new(br.r_pu, br.x_pu).inv();
            let bc = Complex::new(0.0, br.b_pu / 2.0);
            let a = Complex::from_polar(br.tap.max(1e-6), br.shift_deg.to_radians());
            let a2 = a.norm_sqr();
            let yff = (ys + bc) / a2;
            let yft = -ys / a.conj();
            let ytf = -ys / a;
            let ytt = ys + bc;
            t.push(br.from_bus, br.from_bus, yff);
            t.push(br.from_bus, br.to_bus, yft);
            t.push(br.to_bus, br.from_bus, ytf);
            t.push(br.to_bus, br.to_bus, ytt);
            blocks.push(BranchAdmittance { yff, yft, ytf, ytt });
        }

        for sh in net.shunts.iter().filter(|s| s.in_service) {
            // Shunt admittance in p.u.: consumption convention for g,
            // injection convention for b => y = (g - j·(-b)) ... net:
            // S = V² · conj(y); with P = g_mw, Q = -b_mvar (injection
            // positive) the admittance is (g + j·(-b))/base conjugated:
            t.push(
                sh.bus,
                sh.bus,
                Complex::new(sh.g_mw / net.base_mva, sh.b_mvar / net.base_mva),
            );
        }

        YBus {
            matrix: t.to_csr(),
            branch: blocks,
        }
    }

    /// The admittance structure with the branches `outaged` switched out,
    /// derived from this one (`net` has the same branches as the network
    /// it was assembled for and supplies their endpoints): each outaged
    /// branch's four blocks are subtracted at its endpoints and its
    /// blocks zeroed. The pattern stays this one's, so an entry no other
    /// branch shares becomes an explicit zero, and the values agree with
    /// [`YBus::assemble`] of the outaged network to rounding. A copy and
    /// a few subtractions instead of a re-assembly; a branch listed twice
    /// is subtracted once.
    pub fn without_branches(&self, net: &Network, outaged: &[usize]) -> YBus {
        let mut out = self.clone();
        for &k in outaged {
            let (Some(br), Some(blk)) = (net.branches.get(k), out.branch.get(k).copied()) else {
                continue;
            };
            if blk == BranchAdmittance::ZERO {
                continue;
            }
            let (f, t) = (br.from_bus, br.to_bus);
            for (i, j, y) in [
                (f, f, blk.yff),
                (f, t, blk.yft),
                (t, f, blk.ytf),
                (t, t, blk.ytt),
            ] {
                let (cols, _) = out.matrix.row(i);
                let Ok(p) = cols.binary_search(&j) else {
                    // The base entry summed to an exact zero and was
                    // dropped from the pattern: no slot to write to.
                    return YBus::assemble(&without(net, outaged));
                };
                let at = out.matrix.indptr()[i] + p;
                out.matrix.values_mut()[at] -= y;
            }
            out.branch[k] = BranchAdmittance::ZERO;
        }
        out
    }

    /// Nodal complex current injections `I = Y·V`.
    pub fn currents(&self, v: &[Complex]) -> Vec<Complex> {
        self.matrix.mul_vec(v)
    }

    /// Nodal complex power injections `S = V ∘ conj(Y·V)` in p.u.
    pub fn injections(&self, v: &[Complex]) -> Vec<Complex> {
        self.currents(v)
            .iter()
            .zip(v)
            .map(|(i, vk)| *vk * i.conj())
            .collect()
    }

    /// Complex power flow into branch `idx` measured at the from side
    /// (p.u.).
    pub fn flow_from(&self, idx: usize, v: &[Complex], net: &Network) -> Complex {
        let br = &net.branches[idx];
        let blk = &self.branch[idx];
        let vf = v[br.from_bus];
        let vt = v[br.to_bus];
        let i = blk.yff * vf + blk.yft * vt;
        vf * i.conj()
    }

    /// Complex power flow into branch `idx` measured at the to side (p.u.).
    pub fn flow_to(&self, idx: usize, v: &[Complex], net: &Network) -> Complex {
        let br = &net.branches[idx];
        let blk = &self.branch[idx];
        let vf = v[br.from_bus];
        let vt = v[br.to_bus];
        let i = blk.ytf * vf + blk.ytt * vt;
        vt * i.conj()
    }
}

/// The DC susceptance matrix `B'` with the slack row and column pinned:
/// every in-service branch stamps `1/x` on the diagonal of its non-slack
/// endpoints and `-1/x` between them when neither is the slack, and the
/// slack keeps a lone unit diagonal so the matrix stays `n × n` and its
/// angle solves to exactly zero (for a right-hand side that is zero
/// there). Taps, shunts and resistance are ignored.
///
/// This is the one assembly behind every DC-model matrix in the stack
/// (DC power flow and seeds, LODF columns, FDLF's B′, the synthetic-case
/// rating calibration). The stamp order — branches in index order, then
/// the slack pin — is part of the contract: the embedded rating tables
/// and every committed baseline are calibrated against the factor it
/// yields.
pub fn slack_pinned_bprime(net: &Network, slack: usize) -> Triplets<f64> {
    let n = net.n_bus();
    let mut t = Triplets::with_capacity(n, n, 4 * net.branches.len() + 1);
    for br in net.branches.iter().filter(|b| b.in_service) {
        let b = 1.0 / br.x_pu;
        let (i, j) = (br.from_bus, br.to_bus);
        if i != slack && j != slack {
            t.push(i, i, b);
            t.push(j, j, b);
            t.push(i, j, -b);
            t.push(j, i, -b);
        } else if i != slack {
            t.push(i, i, b);
        } else if j != slack {
            t.push(j, j, b);
        }
    }
    t.push(slack, slack, 1.0);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Branch, Bus, BusKind, Network, Shunt};

    fn two_bus(r: f64, x: f64, b: f64) -> Network {
        let mut net = Network::new("t");
        let mut s = Bus::pq(1, 138.0);
        s.kind = BusKind::Slack;
        net.buses.push(s);
        net.buses.push(Bus::pq(2, 138.0));
        net.branches.push(Branch::line(0, 1, r, x, b, 100.0));
        net
    }

    #[test]
    fn symmetric_line_blocks() {
        let net = two_bus(0.01, 0.1, 0.04);
        let y = YBus::assemble(&net);
        let blk = &y.branch[0];
        assert_eq!(blk.yff, blk.ytt);
        assert_eq!(blk.yft, blk.ytf);
        // Off-diagonal equals -ys.
        let ys = Complex::new(0.01, 0.1).inv();
        assert!((blk.yft + ys).abs() < 1e-12);
        // Diagonal = ys + j b/2.
        assert!((blk.yff - ys - Complex::new(0.0, 0.02)).abs() < 1e-12);
    }

    #[test]
    fn matrix_row_sums_equal_charging_only() {
        // Without shunts/charging, Y rows sum to zero.
        let net = two_bus(0.02, 0.2, 0.0);
        let y = YBus::assemble(&net);
        for i in 0..2 {
            let (cols, vals) = y.matrix.row(i);
            assert_eq!(cols.len(), 2);
            let sum: Complex = vals.iter().copied().sum();
            assert!(sum.abs() < 1e-12);
        }
    }

    #[test]
    fn tap_breaks_symmetry() {
        let mut net = two_bus(0.0, 0.1, 0.0);
        net.branches[0].kind = crate::model::BranchKind::Transformer;
        net.branches[0].tap = 0.95;
        let y = YBus::assemble(&net);
        let blk = &y.branch[0];
        assert!((blk.yff.abs() - blk.ytt.abs()).abs() > 1e-6);
        // Without phase shift the two off-diagonals stay equal.
        assert!((blk.yft - blk.ytf).abs() < 1e-12);
    }

    #[test]
    fn phase_shift_offdiagonal_identity() {
        // For a lossless branch (ys purely imaginary) with complex tap a:
        // yft = -ys·e^{jθ}, ytf = -ys·e^{-jθ}, hence yft = -conj(ytf).
        let mut net = two_bus(0.0, 0.1, 0.0);
        net.branches[0].shift_deg = 30.0;
        let y = YBus::assemble(&net);
        let blk = &y.branch[0];
        assert!((blk.yft + blk.ytf.conj()).abs() < 1e-12);
        // And the magnitudes stay equal to 1/x.
        assert!((blk.yft.abs() - 10.0).abs() < 1e-9);
        assert!((blk.ytf.abs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_service_branch_excluded() {
        let mut net = two_bus(0.01, 0.1, 0.0);
        net.branches[0].in_service = false;
        let y = YBus::assemble(&net);
        assert_eq!(y.matrix.nnz(), 0);
        assert_eq!(y.branch[0].yff, Complex::ZERO);
    }

    #[test]
    fn shunt_adds_diagonal() {
        let mut net = two_bus(0.01, 0.1, 0.0);
        net.shunts.push(Shunt {
            bus: 1,
            g_mw: 0.0,
            b_mvar: 19.0,
            in_service: true,
        });
        let y = YBus::assemble(&net);
        let with = y.matrix.get(1, 1);
        net.shunts[0].in_service = false;
        let y2 = YBus::assemble(&net);
        let without = y2.matrix.get(1, 1);
        let delta = with - without;
        assert!((delta - Complex::new(0.0, 0.19)).abs() < 1e-12);
    }

    #[test]
    fn flat_voltage_no_flow_without_shunt() {
        let net = two_bus(0.01, 0.1, 0.0);
        let y = YBus::assemble(&net);
        let v = vec![Complex::ONE, Complex::ONE];
        let s = y.injections(&v);
        assert!(s[0].abs() < 1e-12);
        assert!(s[1].abs() < 1e-12);
        assert!(y.flow_from(0, &v, &net).abs() < 1e-12);
    }

    #[test]
    fn angle_difference_drives_active_flow() {
        let net = two_bus(0.0, 0.1, 0.0);
        let y = YBus::assemble(&net);
        let v = vec![Complex::from_polar(1.0, 0.1), Complex::ONE];
        let sf = y.flow_from(0, &v, &net);
        let st = y.flow_to(0, &v, &net);
        // Lossless line: P_from = -P_to ≈ sin(0.1)/0.1 p.u.
        assert!(sf.re > 0.9);
        assert!((sf.re + st.re).abs() < 1e-12);
        // Power balance: injections match branch flows.
        let inj = y.injections(&v);
        assert!((inj[0] - sf).abs() < 1e-12);
        assert!((inj[1] - st).abs() < 1e-12);
    }

    #[test]
    fn losses_positive_with_resistance() {
        let net = two_bus(0.05, 0.1, 0.0);
        let y = YBus::assemble(&net);
        let v = vec![
            Complex::from_polar(1.02, 0.15),
            Complex::from_polar(0.98, 0.0),
        ];
        let loss = y.flow_from(0, &v, &net).re + y.flow_to(0, &v, &net).re;
        assert!(loss > 0.0, "I²R loss must be positive, got {loss}");
    }

    /// Largest `|derived − assembled|` over both patterns, relative to
    /// the largest entry magnitude of the row.
    fn derived_error(net: &Network, base: &YBus, outaged: &[usize]) -> f64 {
        let derived = base.without_branches(net, outaged);
        let assembled = YBus::assemble(&without(net, outaged));
        for (k, blk) in derived.branch.iter().enumerate() {
            assert_eq!(*blk, assembled.branch[k], "branch {k} blocks");
        }
        let mut worst = 0.0f64;
        for i in 0..net.n_bus() {
            let (cols, vals) = base.matrix.row(i);
            let scale = vals.iter().fold(0.0f64, |m, y| m.max(y.abs()));
            // The derived pattern is the base one; the assembled one is a
            // subset of it.
            for &c in assembled.matrix.row(i).0 {
                assert!(
                    cols.binary_search(&c).is_ok(),
                    "({i}, {c}) outside the base"
                );
            }
            for &j in cols {
                let d = derived.matrix.get(i, j) - assembled.matrix.get(i, j);
                worst = worst.max(d.abs() / scale);
            }
        }
        worst
    }

    #[test]
    fn derived_post_outage_ybus_matches_the_assembled_one() {
        use crate::{cases, CaseId};
        for id in [CaseId::Ieee118, CaseId::Ieee300] {
            let net = cases::load(id);
            let base = YBus::assemble(&net);
            let mut worst = 0.0f64;
            for k in (0..net.branches.len()).filter(|&k| net.branches[k].in_service) {
                worst = worst.max(derived_error(&net, &base, &[k]));
            }
            // A pair sharing a bus, the shared diagonal hit twice.
            let shared = net.branches[0].from_bus;
            let pair: Vec<usize> = (0..net.branches.len())
                .filter(|&k| net.branches[k].from_bus == shared || net.branches[k].to_bus == shared)
                .take(2)
                .collect();
            assert_eq!(pair.len(), 2);
            worst = worst.max(derived_error(&net, &base, &pair));
            assert!(worst <= 1e-15, "{id:?}: relative error {worst:e}");
        }
    }

    #[test]
    fn a_branch_listed_twice_is_subtracted_once() {
        let mut net = two_bus(0.01, 0.1, 0.04);
        net.branches.push(Branch::line(0, 1, 0.02, 0.2, 0.0, 100.0));
        let base = YBus::assemble(&net);
        let once = base.without_branches(&net, &[1]);
        let twice = base.without_branches(&net, &[1, 1]);
        assert_eq!(once.matrix.values(), twice.matrix.values());
        assert_eq!(once.branch[1], BranchAdmittance::ZERO);
    }
}
