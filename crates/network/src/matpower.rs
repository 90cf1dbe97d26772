//! MATPOWER case file (`.m`) importer.
//!
//! Parses the `mpc.baseMVA` / `mpc.bus` / `mpc.gen` / `mpc.branch` /
//! `mpc.gencost` matrices of a MATPOWER case file into a [`Network`], so
//! users with authentic archive data can run it through GridMind-RS
//! directly. Supports MATPOWER format version 2, polynomial cost models
//! of order ≤ 3, and the standard column layouts; `%` comments and
//! arbitrary whitespace are tolerated.

use crate::model::{Branch, BranchKind, Bus, BusKind, GenCost, Generator, Load, Network, Shunt};
use std::collections::HashMap;

/// Import failure.
#[derive(Debug, Clone, PartialEq)]
pub struct MatpowerError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for MatpowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MATPOWER import error: {}", self.message)
    }
}

impl std::error::Error for MatpowerError {}

fn err(message: impl Into<String>) -> MatpowerError {
    MatpowerError {
        message: message.into(),
    }
}

/// Column `col` (0-based) of row `row` of `mpc.<name>` as the
/// integer it must be. A non-integral, negative, non-finite or
/// out-of-range value is an error naming the matrix, row and column:
/// truncating it would invent an id, type, status or count the file does
/// not state.
fn int(rows: &[Vec<f64>], name: &str, row: usize, col: usize) -> Result<u32, MatpowerError> {
    let v = rows[row][col];
    if v.is_finite() && v.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&v) {
        Ok(v as u32)
    } else {
        Err(err(format!(
            "mpc.{name} row {row} column {}: {v} is not a non-negative integer",
            col + 1
        )))
    }
}

/// Extracts the numeric rows of `mpc.<name> = [ ... ];`.
fn matrix(text: &str, name: &str) -> Result<Vec<Vec<f64>>, MatpowerError> {
    let needle = format!("mpc.{name}");
    let start = text
        .find(&needle)
        .ok_or_else(|| err(format!("missing mpc.{name} block")))?;
    let after = &text[start..];
    let open = after
        .find('[')
        .ok_or_else(|| err(format!("mpc.{name}: missing '['")))?;
    let close = after[open..]
        .find(']')
        .ok_or_else(|| err(format!("mpc.{name}: missing ']'")))?;
    let body = &after[open + 1..open + close];
    let mut rows = Vec::new();
    for raw in body.lines() {
        let line = raw.split('%').next().unwrap_or("").trim();
        let line = line.trim_end_matches(';').trim();
        if line.is_empty() {
            continue;
        }
        let row: Result<Vec<f64>, _> = line
            .split_whitespace()
            .map(|tok| {
                tok.trim_end_matches([',', ';'])
                    .parse::<f64>()
                    .map_err(|_| err(format!("mpc.{name}: bad number {tok:?}")))
            })
            .collect();
        rows.push(row?);
    }
    if rows.is_empty() {
        return Err(err(format!("mpc.{name}: empty matrix")));
    }
    Ok(rows)
}

/// Extracts a scalar assignment `mpc.<name> = <value>;`.
fn scalar(text: &str, name: &str) -> Result<f64, MatpowerError> {
    let needle = format!("mpc.{name}");
    let start = text
        .find(&needle)
        .ok_or_else(|| err(format!("missing mpc.{name}")))?;
    let after = &text[start + needle.len()..];
    let eq = after
        .find('=')
        .ok_or_else(|| err(format!("mpc.{name}: missing '='")))?;
    let rest = after[eq + 1..]
        .split(';')
        .next()
        .unwrap_or("")
        .trim()
        .trim_matches('\'');
    rest.parse::<f64>()
        .map_err(|_| err(format!("mpc.{name}: bad scalar {rest:?}")))
}

/// Parses MATPOWER case text into a [`Network`].
pub fn parse_matpower(text: &str, name: &str) -> Result<Network, MatpowerError> {
    let base_mva = scalar(text, "baseMVA")?;
    let bus_rows = matrix(text, "bus")?;
    let gen_rows = matrix(text, "gen")?;
    let branch_rows = matrix(text, "branch")?;
    let cost_rows = matrix(text, "gencost").ok();

    let mut net = Network::new(name);
    net.base_mva = base_mva;

    let mut index_of: HashMap<u32, usize> = HashMap::new();
    for (ri, row) in bus_rows.iter().enumerate() {
        if row.len() < 13 {
            return Err(err(format!("bus row needs 13 columns, got {}", row.len())));
        }
        let id = int(&bus_rows, "bus", ri, 0)?;
        let kind = match int(&bus_rows, "bus", ri, 1)? {
            3 => BusKind::Slack,
            2 => BusKind::Pv,
            1 | 4 => BusKind::Pq, // type 4 (isolated) kept as PQ; validation will flag islands
            other => return Err(err(format!("bus {id}: unknown type {other}"))),
        };
        index_of.insert(id, net.buses.len());
        net.buses.push(Bus {
            id,
            name: format!("bus{id}"),
            kind,
            vm_pu: row[7],
            va_deg: row[8],
            base_kv: row[9],
            vmin_pu: row[12],
            vmax_pu: row[11],
            area: int(&bus_rows, "bus", ri, 6)?,
        });
        let (pd, qd) = (row[2], row[3]);
        if pd != 0.0 || qd != 0.0 {
            let bus = net.buses.len() - 1;
            net.loads.push(Load {
                bus,
                p_mw: pd,
                q_mvar: qd,
                in_service: true,
            });
        }
        let (gs, bs) = (row[4], row[5]);
        if gs != 0.0 || bs != 0.0 {
            let bus = net.buses.len() - 1;
            net.shunts.push(Shunt {
                bus,
                g_mw: gs,
                b_mvar: bs,
                in_service: true,
            });
        }
    }

    for (gi, row) in gen_rows.iter().enumerate() {
        if row.len() < 10 {
            return Err(err(format!("gen row {gi} needs 10 columns")));
        }
        let bus_id = int(&gen_rows, "gen", gi, 0)?;
        let bus = *index_of
            .get(&bus_id)
            .ok_or_else(|| err(format!("gen {gi}: unknown bus {bus_id}")))?;
        let cost = match cost_rows.as_ref().filter(|c| gi < c.len()) {
            None => GenCost {
                c2: 0.01,
                c1: 20.0,
                c0: 0.0,
            },
            Some(cost_rows) => {
                let c = &cost_rows[gi];
                if c.len() < 4 {
                    return Err(err(format!("gencost row {gi} too short")));
                }
                let model = int(cost_rows, "gencost", gi, 0)?;
                if model != 2 {
                    return Err(err(format!(
                        "gencost row {gi}: only polynomial (model 2) supported, got {model}"
                    )));
                }
                let n = int(cost_rows, "gencost", gi, 3)? as usize;
                let coeffs = &c[4..];
                if coeffs.len() < n {
                    return Err(err(format!("gencost row {gi}: {n} coefficients expected")));
                }
                match n {
                    0 => GenCost {
                        c2: 0.0,
                        c1: 0.0,
                        c0: 0.0,
                    },
                    1 => GenCost {
                        c2: 0.0,
                        c1: 0.0,
                        c0: coeffs[0],
                    },
                    2 => GenCost {
                        c2: 0.0,
                        c1: coeffs[0],
                        c0: coeffs[1],
                    },
                    3 => GenCost {
                        c2: coeffs[0],
                        c1: coeffs[1],
                        c0: coeffs[2],
                    },
                    more => {
                        return Err(err(format!(
                            "gencost row {gi}: polynomial order {more} > 3 unsupported"
                        )))
                    }
                }
            }
        };
        net.gens.push(Generator {
            bus,
            p_mw: row[1],
            q_mvar: row[2],
            vm_setpoint_pu: row[5],
            p_min_mw: row[9],
            p_max_mw: row[8],
            q_min_mvar: row[4],
            q_max_mvar: row[3],
            in_service: int(&gen_rows, "gen", gi, 7)? > 0,
            cost,
        });
    }

    for (bi, row) in branch_rows.iter().enumerate() {
        if row.len() < 11 {
            return Err(err(format!("branch row {bi} needs 11 columns")));
        }
        let f_id = int(&branch_rows, "branch", bi, 0)?;
        let t_id = int(&branch_rows, "branch", bi, 1)?;
        let from_bus = *index_of
            .get(&f_id)
            .ok_or_else(|| err(format!("branch {bi}: unknown bus {f_id}")))?;
        let to_bus = *index_of
            .get(&t_id)
            .ok_or_else(|| err(format!("branch {bi}: unknown bus {t_id}")))?;
        let tap_raw = row[8];
        let shift = row[9];
        let is_trafo = (tap_raw != 0.0 && (tap_raw - 1.0).abs() > 1e-9) || shift != 0.0;
        net.branches.push(Branch {
            from_bus,
            to_bus,
            r_pu: row[2],
            x_pu: row[3],
            b_pu: row[4],
            tap: if tap_raw == 0.0 { 1.0 } else { tap_raw },
            shift_deg: shift,
            rating_mva: row[5],
            in_service: int(&branch_rows, "branch", bi, 10)? > 0,
            kind: if is_trafo {
                BranchKind::Transformer
            } else {
                BranchKind::Line
            },
        });
    }

    Ok(net)
}

/// The WSCC 9-bus system in MATPOWER format (`case9`), authentic data.
///
/// Shipped as a public sample both for tests and as an importer usage
/// reference; parse it with [`parse_matpower`].
pub const SAMPLE_CASE9: &str = r"
function mpc = case9
% canonical WSCC 3-machine 9-bus system
mpc.version = '2';
mpc.baseMVA = 100;

%% bus data
%	bus_i	type	Pd	Qd	Gs	Bs	area	Vm	Va	baseKV	zone	Vmax	Vmin
mpc.bus = [
	1	3	0	0	0	0	1	1	0	345	1	1.1	0.9;
	2	2	0	0	0	0	1	1	0	345	1	1.1	0.9;
	3	2	0	0	0	0	1	1	0	345	1	1.1	0.9;
	4	1	0	0	0	0	1	1	0	345	1	1.1	0.9;
	5	1	90	30	0	0	1	1	0	345	1	1.1	0.9;
	6	1	0	0	0	0	1	1	0	345	1	1.1	0.9;
	7	1	100	35	0	0	1	1	0	345	1	1.1	0.9;
	8	1	0	0	0	0	1	1	0	345	1	1.1	0.9;
	9	1	125	50	0	0	1	1	0	345	1	1.1	0.9;
];

%% generator data
mpc.gen = [
	1	72.3	27.03	300	-300	1	100	1	250	10	0	0	0	0	0	0	0	0	0	0	0;
	2	163	6.54	300	-300	1	100	1	300	10	0	0	0	0	0	0	0	0	0	0	0;
	3	85	-10.95	300	-300	1	100	1	270	10	0	0	0	0	0	0	0	0	0	0	0;
];

%% branch data
mpc.branch = [
	1	4	0	0.0576	0	250	250	250	0	0	1	-360	360;
	4	5	0.017	0.092	0.158	250	250	250	0	0	1	-360	360;
	5	6	0.039	0.17	0.358	150	150	150	0	0	1	-360	360;
	3	6	0	0.0586	0	300	300	300	0	0	1	-360	360;
	6	7	0.0119	0.1008	0.209	150	150	150	0	0	1	-360	360;
	7	8	0.0085	0.072	0.149	250	250	250	0	0	1	-360	360;
	8	2	0	0.0625	0	250	250	250	0	0	1	-360	360;
	8	9	0.032	0.161	0.306	250	250	250	0	0	1	-360	360;
	9	4	0.01	0.085	0.176	250	250	250	0	0	1	-360	360;
];

%% generator cost data
mpc.gencost = [
	2	1500	0	3	0.11	5	150;
	2	2000	0	3	0.085	1.2	600;
	2	3000	0	3	0.1225	1	335;
];
";

#[cfg(test)]
mod tests {
    use super::SAMPLE_CASE9 as CASE9;
    use super::*;

    #[test]
    fn parses_case9_structure() {
        let net = parse_matpower(CASE9, "WSCC 9-bus").unwrap();
        assert_eq!(net.n_bus(), 9);
        assert_eq!(net.gens.len(), 3);
        assert_eq!(net.loads.len(), 3);
        assert_eq!(net.branches.len(), 9);
        assert_eq!(net.n_lines(), 9); // all taps zero → lines
        assert_eq!(net.base_mva, 100.0);
        assert!((net.total_load_mw() - 315.0).abs() < 1e-9);
        assert_eq!(net.gens[1].p_max_mw, 300.0);
        assert!((net.gens[0].cost.c2 - 0.11).abs() < 1e-12);
        net.validate().expect("case9 must validate");
    }

    #[test]
    fn case9_power_flow_matches_matpower() {
        let net = parse_matpower(CASE9, "WSCC 9-bus").unwrap();
        let rep = gm_powerflow_probe::solve(&net);
        // MATPOWER runpf(case9): losses ≈ 4.95 MW, slack P ≈ 71.95 MW.
        assert!(rep.0, "case9 power flow must converge");
        assert!(
            (rep.1 - 4.95).abs() < 0.3,
            "losses {:.2} far from MATPOWER's 4.95",
            rep.1
        );
    }

    #[test]
    fn unknown_cost_model_rejected() {
        let text = CASE9.replace(
            "\t2\t1500\t0\t3\t0.11\t5\t150;",
            "\t1\t1500\t0\t3\t0.11\t5\t150;",
        );
        let e = parse_matpower(&text, "x").unwrap_err();
        assert!(e.message.contains("polynomial"));
    }

    #[test]
    fn integer_columns_are_checked_not_truncated() {
        // (original row text, replacement, matrix, row, column)
        let bad = [
            // Bus id 8.5 used to become a second bus 8, and the import
            // then failed on "branch 7: unknown bus 9".
            ("\t9\t1\t125", "\t8.5\t1\t125", "mpc.bus row 8 column 1"),
            // Bus type 1.7 used to be accepted as PQ.
            ("\t9\t1\t125", "\t9\t1.7\t125", "mpc.bus row 8 column 2"),
            (
                "\t50\t0\t0\t1\t1\t0",
                "\t50\t0\t0\t-1\t1\t0",
                "mpc.bus row 8 column 7",
            ),
            ("\t3\t85\t", "\t3.25\t85\t", "mpc.gen row 2 column 1"),
            (
                "\t-10.95\t300\t-300\t1\t100\t1",
                "\t-10.95\t300\t-300\t1\t100\t0.5",
                "mpc.gen row 2 column 8",
            ),
            (
                "\t9\t4\t0.01",
                "\t9\t4.5\t0.01",
                "mpc.branch row 8 column 2",
            ),
            (
                "\t0.176\t250\t250\t250\t0\t0\t1",
                "\t0.176\t250\t250\t250\t0\t0\tInf",
                "mpc.branch row 8 column 11",
            ),
            (
                "\t2\t3000\t0\t3",
                "\t2.5\t3000\t0\t3",
                "mpc.gencost row 2 column 1",
            ),
            (
                "\t2\t3000\t0\t3",
                "\t2\t3000\t0\tNaN",
                "mpc.gencost row 2 column 4",
            ),
        ];
        for (from, to, place) in bad {
            assert!(CASE9.contains(from), "{from:?}");
            let text = CASE9.replacen(from, to, 1);
            let e = parse_matpower(&text, "x").unwrap_err();
            assert!(e.message.starts_with(place), "{to:?}: {}", e.message);
        }
    }

    #[test]
    fn missing_block_rejected() {
        let e = parse_matpower("function mpc = nothing", "x").unwrap_err();
        assert!(e.message.contains("missing mpc.baseMVA"));
    }

    #[test]
    fn transformer_detection_by_tap_and_shift() {
        let text = CASE9.replace(
            "	1	4	0	0.0576	0	250	250	250	0	0	1	-360	360;",
            "	1	4	0	0.0576	0	250	250	250	0.978	0	1	-360	360;",
        );
        let net = parse_matpower(&text, "x").unwrap();
        assert_eq!(net.n_transformers(), 1);
        assert_eq!(net.branches[0].tap, 0.978);
    }

    /// Tiny indirection so this test file does not create a circular dev
    /// dependency on gm-powerflow: a minimal Gauss-Seidel-free check via
    /// the DC calibration path would be too weak, so we link the real
    /// solver through the workspace when testing the whole suite instead.
    /// Here: solve with a self-contained Newton iteration on the Ybus.
    mod gm_powerflow_probe {
        use crate::model::{BusKind, Network};
        use crate::ybus::YBus;
        use gm_numeric::Complex;
        use gm_sparse::{SparseLu, Triplets};

        /// Returns (converged, losses_mw).
        pub fn solve(net: &Network) -> (bool, f64) {
            let n = net.n_bus();
            let ybus = YBus::assemble(net);
            let slack = net.slack().unwrap();
            let is_pv: Vec<bool> = (0..n).map(|i| net.buses[i].kind == BusKind::Pv).collect();
            let (p_mw, q_mvar) = net.scheduled_injections();
            let p_spec: Vec<f64> = p_mw.iter().map(|v| v / net.base_mva).collect();
            let q_spec: Vec<f64> = q_mvar.iter().map(|v| v / net.base_mva).collect();
            let mut v: Vec<Complex> = (0..n)
                .map(|i| {
                    let vm = if i == slack || is_pv[i] {
                        net.gens_at(i)
                            .next()
                            .map(|(_, g)| g.vm_setpoint_pu)
                            .unwrap_or(1.0)
                    } else {
                        1.0
                    };
                    Complex::from_polar(vm, 0.0)
                })
                .collect();

            let mut col_th = vec![usize::MAX; n];
            let mut k = 0;
            for (i, c) in col_th.iter_mut().enumerate() {
                if i != slack {
                    *c = k;
                    k += 1;
                }
            }
            let mut col_vm = vec![usize::MAX; n];
            let mut m = 0;
            for (i, c) in col_vm.iter_mut().enumerate() {
                if i != slack && !is_pv[i] {
                    *c = k + m;
                    m += 1;
                }
            }
            let nvar = k + m;
            let mut converged = false;
            for _ in 0..20 {
                let s = ybus.injections(&v);
                let mut f = vec![0.0; nvar];
                let mut norm = 0.0f64;
                for i in 0..n {
                    if col_th[i] != usize::MAX {
                        f[col_th[i]] = s[i].re - p_spec[i];
                        norm = norm.max(f[col_th[i]].abs());
                    }
                    if col_vm[i] != usize::MAX {
                        f[col_vm[i]] = s[i].im - q_spec[i];
                        norm = norm.max(f[col_vm[i]].abs());
                    }
                }
                if norm < 1e-9 {
                    converged = true;
                    break;
                }
                let mut tj = Triplets::new(nvar, nvar);
                for i in 0..n {
                    let (cols, vals) = ybus.matrix.row(i);
                    let vi = v[i].abs();
                    let thi = v[i].arg();
                    for (&j, &y) in cols.iter().zip(vals) {
                        let (g, b) = (y.re, y.im);
                        if i == j {
                            let (pi, qi) = (s[i].re, s[i].im);
                            if col_th[i] != usize::MAX {
                                tj.push(col_th[i], col_th[i], -qi - b * vi * vi);
                                if col_vm[i] != usize::MAX {
                                    tj.push(col_th[i], col_vm[i], pi / vi + g * vi);
                                }
                            }
                            if col_vm[i] != usize::MAX {
                                tj.push(col_vm[i], col_th[i], pi - g * vi * vi);
                                tj.push(col_vm[i], col_vm[i], qi / vi - b * vi);
                            }
                        } else {
                            let vj = v[j].abs();
                            let thij = thi - v[j].arg();
                            let (sin, cos) = thij.sin_cos();
                            if col_th[i] != usize::MAX && col_th[j] != usize::MAX {
                                tj.push(col_th[i], col_th[j], vi * vj * (g * sin - b * cos));
                            }
                            if col_th[i] != usize::MAX && col_vm[j] != usize::MAX {
                                tj.push(col_th[i], col_vm[j], vi * (g * cos + b * sin));
                            }
                            if col_vm[i] != usize::MAX && col_th[j] != usize::MAX {
                                tj.push(col_vm[i], col_th[j], -vi * vj * (g * cos + b * sin));
                            }
                            if col_vm[i] != usize::MAX && col_vm[j] != usize::MAX {
                                tj.push(col_vm[i], col_vm[j], vi * (g * sin - b * cos));
                            }
                        }
                    }
                }
                let lu = match SparseLu::factor(&tj.to_csr()) {
                    Ok(lu) => lu,
                    Err(_) => return (false, 0.0),
                };
                let dx = lu.solve(&f);
                for i in 0..n {
                    let mut vm = v[i].abs();
                    let mut th = v[i].arg();
                    if col_th[i] != usize::MAX {
                        th -= dx[col_th[i]];
                    }
                    if col_vm[i] != usize::MAX {
                        vm -= dx[col_vm[i]];
                    }
                    v[i] = Complex::from_polar(vm, th);
                }
            }
            let mut losses = 0.0;
            for (idx, br) in net.branches.iter().enumerate() {
                if br.in_service {
                    losses += (ybus.flow_from(idx, &v, net).re + ybus.flow_to(idx, &v, net).re)
                        * net.base_mva;
                }
            }
            (converged, losses)
        }
    }
}
