//! Plain-text case format (parser and serializer).
//!
//! A line-oriented, MATPOWER-flavoured format used both for the embedded
//! IEEE case data and for session persistence of modified networks. The
//! grammar, one record per line, `#` comments:
//!
//! ```text
//! case    <name with spaces>
//! basemva <mva>
//! bus     <id> <slack|pv|pq> <vm_pu> <va_deg> <base_kv> <vmin> <vmax> <area>
//! load    <bus_id> <p_mw> <q_mvar>
//! gen     <bus_id> <p_mw> <q_mvar> <vm_set> <p_min> <p_max> <q_min> <q_max> <c2> <c1> <c0>
//! branch  <from_id> <to_id> <r_pu> <x_pu> <b_pu> <rating_mva> <tap> <shift_deg> <line|trafo>
//! shunt   <bus_id> <g_mw> <b_mvar>
//! ```
//!
//! Buses must be declared before elements that reference them. Round-trip
//! (`serialize` → `parse`) is tested to preserve every field.

use crate::model::{Branch, BranchKind, Bus, BusKind, GenCost, Generator, Load, Network, Shunt};

/// What specifically went wrong on a case file line.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseErrorKind {
    /// The record keyword is not part of the grammar.
    UnknownRecord {
        /// The offending keyword.
        keyword: String,
    },
    /// A record has the wrong number of fields.
    BadArity {
        /// Record keyword.
        record: &'static str,
        /// Fields the grammar requires.
        expected: usize,
        /// Fields present on the line.
        got: usize,
    },
    /// A field failed numeric/enumeration parsing.
    BadField {
        /// The offending token.
        token: String,
    },
    /// An element references a bus id that has not been declared.
    UndeclaredBus {
        /// The referenced bus id.
        bus: u32,
    },
}

/// Parse failure with line and field context.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseError {
    /// 1-based line number.
    pub line: usize,
    /// The field being parsed when the error occurred (e.g. `"vm"`,
    /// `"base MVA"`), when one is identifiable.
    pub field: Option<&'static str>,
    /// Structured failure cause.
    pub kind: CaseErrorKind,
}

/// Former name of [`CaseError`], kept for downstream code.
pub type ParseError = CaseError;

impl CaseError {
    /// Human-readable description of the cause (without the line prefix).
    pub fn message(&self) -> String {
        match &self.kind {
            CaseErrorKind::UnknownRecord { keyword } => {
                format!("unknown record type {keyword:?}")
            }
            CaseErrorKind::BadArity {
                record,
                expected,
                got,
            } => format!("{record} requires {expected} fields, got {got}"),
            CaseErrorKind::BadField { token } => match self.field {
                Some(f) => format!("invalid {f}: {token:?}"),
                None => format!("invalid field: {token:?}"),
            },
            CaseErrorKind::UndeclaredBus { bus } => match self.field {
                Some(f) => format!("{f} references undeclared bus {bus}"),
                None => format!("reference to undeclared bus {bus}"),
            },
        }
    }
}

impl std::fmt::Display for CaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "case parse error at line {}: {}",
            self.line,
            self.message()
        )
    }
}

impl std::error::Error for CaseError {}

fn err(line: usize, field: Option<&'static str>, kind: CaseErrorKind) -> CaseError {
    CaseError { line, field, kind }
}

fn bad_field(line: usize, field: &'static str, tok: &str) -> CaseError {
    err(
        line,
        Some(field),
        CaseErrorKind::BadField {
            token: tok.to_string(),
        },
    )
}

fn bad_arity(line: usize, record: &'static str, expected: usize, got: usize) -> CaseError {
    err(
        line,
        None,
        CaseErrorKind::BadArity {
            record,
            expected,
            got,
        },
    )
}

fn undeclared(line: usize, field: &'static str, bus: u32) -> CaseError {
    err(line, Some(field), CaseErrorKind::UndeclaredBus { bus })
}

fn parse_f64(tok: &str, line: usize, what: &'static str) -> Result<f64, CaseError> {
    // `str::parse` reads "NaN" and "inf"; no quantity in a case is either.
    let finite = tok.parse::<f64>().ok().filter(|x| x.is_finite());
    finite.ok_or_else(|| bad_field(line, what, tok))
}

fn parse_u32(tok: &str, line: usize, what: &'static str) -> Result<u32, CaseError> {
    tok.parse::<u32>().map_err(|_| bad_field(line, what, tok))
}

/// Parses a network from the text format.
pub fn parse(text: &str) -> Result<Network, CaseError> {
    let mut net = Network::new("unnamed");
    for (ln0, raw) in text.lines().enumerate() {
        let ln = ln0 + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let Some(kw) = toks.next() else { continue };
        let rest: Vec<&str> = toks.collect();
        match kw {
            "case" => {
                if rest.is_empty() {
                    return Err(bad_arity(ln, "case", 1, 0));
                }
                net.name = rest.join(" ");
            }
            "basemva" => {
                let v = rest.first().ok_or_else(|| bad_arity(ln, "basemva", 1, 0))?;
                net.base_mva = parse_f64(v, ln, "base MVA")?;
            }
            "bus" => {
                if rest.len() != 8 {
                    return Err(bad_arity(ln, "bus", 8, rest.len()));
                }
                let id = parse_u32(rest[0], ln, "bus id")?;
                let kind = match rest[1] {
                    "slack" => BusKind::Slack,
                    "pv" => BusKind::Pv,
                    "pq" => BusKind::Pq,
                    other => return Err(bad_field(ln, "bus kind", other)),
                };
                net.buses.push(Bus {
                    id,
                    name: format!("bus{id}"),
                    kind,
                    vm_pu: parse_f64(rest[2], ln, "vm")?,
                    va_deg: parse_f64(rest[3], ln, "va")?,
                    base_kv: parse_f64(rest[4], ln, "base kV")?,
                    vmin_pu: parse_f64(rest[5], ln, "vmin")?,
                    vmax_pu: parse_f64(rest[6], ln, "vmax")?,
                    area: parse_u32(rest[7], ln, "area")?,
                });
            }
            "load" => {
                if rest.len() != 3 {
                    return Err(bad_arity(ln, "load", 3, rest.len()));
                }
                let id = parse_u32(rest[0], ln, "bus id")?;
                let bus = net
                    .bus_index(id)
                    .ok_or_else(|| undeclared(ln, "load", id))?;
                net.loads.push(Load {
                    bus,
                    p_mw: parse_f64(rest[1], ln, "p_mw")?,
                    q_mvar: parse_f64(rest[2], ln, "q_mvar")?,
                    in_service: true,
                });
            }
            "gen" => {
                if rest.len() != 11 {
                    return Err(bad_arity(ln, "gen", 11, rest.len()));
                }
                let id = parse_u32(rest[0], ln, "bus id")?;
                let bus = net.bus_index(id).ok_or_else(|| undeclared(ln, "gen", id))?;
                net.gens.push(Generator {
                    bus,
                    p_mw: parse_f64(rest[1], ln, "p_mw")?,
                    q_mvar: parse_f64(rest[2], ln, "q_mvar")?,
                    vm_setpoint_pu: parse_f64(rest[3], ln, "vm setpoint")?,
                    p_min_mw: parse_f64(rest[4], ln, "p_min")?,
                    p_max_mw: parse_f64(rest[5], ln, "p_max")?,
                    q_min_mvar: parse_f64(rest[6], ln, "q_min")?,
                    q_max_mvar: parse_f64(rest[7], ln, "q_max")?,
                    in_service: true,
                    cost: GenCost {
                        c2: parse_f64(rest[8], ln, "c2")?,
                        c1: parse_f64(rest[9], ln, "c1")?,
                        c0: parse_f64(rest[10], ln, "c0")?,
                    },
                });
            }
            "branch" => {
                if rest.len() != 9 {
                    return Err(bad_arity(ln, "branch", 9, rest.len()));
                }
                let fid = parse_u32(rest[0], ln, "from bus")?;
                let tid = parse_u32(rest[1], ln, "to bus")?;
                let from_bus = net
                    .bus_index(fid)
                    .ok_or_else(|| undeclared(ln, "branch from", fid))?;
                let to_bus = net
                    .bus_index(tid)
                    .ok_or_else(|| undeclared(ln, "branch to", tid))?;
                let kind = match rest[8] {
                    "line" => BranchKind::Line,
                    "trafo" => BranchKind::Transformer,
                    other => return Err(bad_field(ln, "branch kind", other)),
                };
                net.branches.push(Branch {
                    from_bus,
                    to_bus,
                    r_pu: parse_f64(rest[2], ln, "r")?,
                    x_pu: parse_f64(rest[3], ln, "x")?,
                    b_pu: parse_f64(rest[4], ln, "b")?,
                    rating_mva: parse_f64(rest[5], ln, "rating")?,
                    tap: parse_f64(rest[6], ln, "tap")?,
                    shift_deg: parse_f64(rest[7], ln, "shift")?,
                    in_service: true,
                    kind,
                });
            }
            "shunt" => {
                if rest.len() != 3 {
                    return Err(bad_arity(ln, "shunt", 3, rest.len()));
                }
                let id = parse_u32(rest[0], ln, "bus id")?;
                let bus = net
                    .bus_index(id)
                    .ok_or_else(|| undeclared(ln, "shunt", id))?;
                net.shunts.push(Shunt {
                    bus,
                    g_mw: parse_f64(rest[1], ln, "g_mw")?,
                    b_mvar: parse_f64(rest[2], ln, "b_mvar")?,
                    in_service: true,
                });
            }
            other => {
                return Err(err(
                    ln,
                    None,
                    CaseErrorKind::UnknownRecord {
                        keyword: other.to_string(),
                    },
                ))
            }
        }
    }
    Ok(net)
}

/// Serializes a network to the text format. Out-of-service elements are
/// *not* emitted (the format captures a case, not a session).
pub fn serialize(net: &Network) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(64 * (net.n_bus() + net.branches.len()));
    // `fmt::Write` to a String is infallible.
    let _ = writeln!(s, "case {}", net.name);
    let _ = writeln!(s, "basemva {}", net.base_mva);
    for b in &net.buses {
        let kind = match b.kind {
            BusKind::Slack => "slack",
            BusKind::Pv => "pv",
            BusKind::Pq => "pq",
        };
        let _ = writeln!(
            s,
            "bus {} {} {} {} {} {} {} {}",
            b.id, kind, b.vm_pu, b.va_deg, b.base_kv, b.vmin_pu, b.vmax_pu, b.area
        );
    }
    for l in net.loads.iter().filter(|l| l.in_service) {
        let _ = writeln!(s, "load {} {} {}", net.buses[l.bus].id, l.p_mw, l.q_mvar);
    }
    for g in net.gens.iter().filter(|g| g.in_service) {
        let _ = writeln!(
            s,
            "gen {} {} {} {} {} {} {} {} {} {} {}",
            net.buses[g.bus].id,
            g.p_mw,
            g.q_mvar,
            g.vm_setpoint_pu,
            g.p_min_mw,
            g.p_max_mw,
            g.q_min_mvar,
            g.q_max_mvar,
            g.cost.c2,
            g.cost.c1,
            g.cost.c0
        );
    }
    for br in net.branches.iter().filter(|b| b.in_service) {
        let kind = match br.kind {
            BranchKind::Line => "line",
            BranchKind::Transformer => "trafo",
        };
        let _ = writeln!(
            s,
            "branch {} {} {} {} {} {} {} {} {}",
            net.buses[br.from_bus].id,
            net.buses[br.to_bus].id,
            br.r_pu,
            br.x_pu,
            br.b_pu,
            br.rating_mva,
            br.tap,
            br.shift_deg,
            kind
        );
    }
    for sh in net.shunts.iter().filter(|s| s.in_service) {
        let _ = writeln!(
            s,
            "shunt {} {} {}",
            net.buses[sh.bus].id, sh.g_mw, sh.b_mvar
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "
# two-bus sample
case sample system
basemva 100
bus 1 slack 1.02 0 138 0.94 1.06 1
bus 2 pq 1.0 0 138 0.94 1.06 1
load 2 50 10
gen 1 50 0 1.02 0 200 -100 100 0.01 20 5
branch 1 2 0.01 0.1 0.02 100 1 0 line
shunt 2 0 19
";

    #[test]
    fn parses_sample() {
        let net = parse(SAMPLE).unwrap();
        assert_eq!(net.name, "sample system");
        assert_eq!(net.n_bus(), 2);
        assert_eq!(net.loads.len(), 1);
        assert_eq!(net.gens.len(), 1);
        assert_eq!(net.branches.len(), 1);
        assert_eq!(net.shunts.len(), 1);
        assert_eq!(net.buses[0].kind, BusKind::Slack);
        assert_eq!(net.gens[0].cost.c1, 20.0);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn round_trip_preserves_fields() {
        let net = parse(SAMPLE).unwrap();
        let text = serialize(&net);
        let net2 = parse(&text).unwrap();
        assert_eq!(net.name, net2.name);
        assert_eq!(net.base_mva, net2.base_mva);
        assert_eq!(net.buses.len(), net2.buses.len());
        assert_eq!(net.buses[0].vm_pu, net2.buses[0].vm_pu);
        assert_eq!(net.branches[0].x_pu, net2.branches[0].x_pu);
        assert_eq!(net.branches[0].kind, net2.branches[0].kind);
        assert_eq!(net.gens[0].cost.c2, net2.gens[0].cost.c2);
        assert_eq!(net.shunts[0].b_mvar, net2.shunts[0].b_mvar);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let net = parse("# only comments\n\n   \ncase x\nbasemva 50\n").unwrap();
        assert_eq!(net.base_mva, 50.0);
    }

    #[test]
    fn inline_comment_stripped() {
        let net = parse("case y\nbasemva 100 # the base\n").unwrap();
        assert_eq!(net.base_mva, 100.0);
    }

    #[test]
    fn error_reports_line_number() {
        let e = parse("case z\nbus 1 slack 1 0 138 0.9 1.1 1\nbogus 1 2 3\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message().contains("bogus"));
        assert!(matches!(e.kind, CaseErrorKind::UnknownRecord { .. }));
    }

    #[test]
    fn undeclared_bus_rejected() {
        let e = parse("case z\nload 5 1 1\n").unwrap_err();
        assert!(e.message().contains("undeclared bus 5"));
        assert_eq!(e.field, Some("load"));
        assert_eq!(e.kind, CaseErrorKind::UndeclaredBus { bus: 5 });
    }

    #[test]
    fn wrong_arity_rejected() {
        let e = parse("case z\nbus 1 slack 1 0\n").unwrap_err();
        assert!(e.message().contains("8 fields"));
        assert_eq!(
            e.kind,
            CaseErrorKind::BadArity {
                record: "bus",
                expected: 8,
                got: 4
            }
        );
    }

    #[test]
    fn bad_number_rejected() {
        let e = parse("case z\nbasemva lots\n").unwrap_err();
        assert!(e.message().contains("invalid base MVA"));
        assert_eq!(e.field, Some("base MVA"));
    }

    #[test]
    fn non_finite_number_rejected_with_its_line() {
        for tok in ["NaN", "inf", "-inf", "+infinity", "1e999"] {
            let text = format!("case z\nbus 1 slack 1 0 138 0.9 1.1 1\nload 1 10 {tok}\n");
            let e = parse(&text).unwrap_err();
            assert_eq!((e.line, e.field), (3, Some("q_mvar")), "{tok}");
            let token = tok.to_string();
            assert_eq!(e.kind, CaseErrorKind::BadField { token });
        }
    }

    #[test]
    fn trafo_kind_parsed() {
        let text = "case t\nbasemva 100\nbus 1 slack 1 0 138 0.9 1.1 1\nbus 2 pq 1 0 69 0.9 1.1 1\nbranch 1 2 0.001 0.05 0 150 0.978 0 trafo\n";
        let net = parse(text).unwrap();
        assert_eq!(net.branches[0].kind, BranchKind::Transformer);
        assert_eq!(net.branches[0].tap, 0.978);
    }
}
