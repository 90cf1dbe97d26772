//! `serve_shared` and `serve_diverged` — the same `Server`, the same
//! client count, the shared `SolverCache` used both ways.
//!
//! Logical sessions are multiplexed on the one driver thread over the
//! in-process channel (no sockets); the server gets `nproc - 1` workers
//! so driver and workers fit the machine. `4 x workers` dialogues are
//! active at once, each a closed loop. A fresh `Server` per round keeps
//! rounds identical.
//!
//! - **shared**: every dialogue runs the same script (half on case30,
//!   half on case118) after an untimed primer dialogue per case, so
//!   every timed solve is a cache **hit**: queue push/pop/wake-up,
//!   token scheduling, NLU/plan/narrate and the cache read path
//!   (`Network::content_hash` included) are the whole cost.
//! - **diverged**: every dialogue has its own seeded edit stream on
//!   case14 or case30, so every re-solve **misses**
//!   and the working set overflows the cache: writes, evictions and
//!   solver work behind the queue. A change that speeds hits but slows misses
//!   shows here.

use super::{loaded_buses, profile, text_failure, OpResult, Round, Size, Workload};
use crate::rng::{fnv1a, fnv1a_extend, Rng};
use crate::sys;
use crate::trace::Tracer;
use gm_agents::{ServeRequest, ServeResponse, ServeStatus};
use gm_network::{cases, CaseId, Network};
use gm_serve::{Server, ServerConfig};
use serde_json::{json, Value};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::Receiver;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Shared,
    Diverged,
}

const CLASSES: [&str; 5] = ["status", "contingency", "batch", "solve", "mutate"];
const TURNS: usize = 7;
const ACTIVE_PER_WORKER: usize = 4;
const QUEUE_CAPACITY: usize = 1024;
/// Timed solves must be hits in `shared`…
const SHARED_MIN_HIT_RATIO: f64 = 0.95;
/// …and mostly misses in `diverged` (status turns never reach the
/// cache, so the ratio is over solver lookups only).
const DIVERGED_MAX_HIT_RATIO: f64 = 0.6;

#[derive(Clone, Debug)]
struct Turn {
    class: usize,
    query: String,
    text: &'static str,
}

fn turn(class: usize, query: impl Into<String>, text: &'static str) -> Turn {
    Turn {
        class,
        query: query.into(),
        text,
    }
}

struct Dialogue {
    case: CaseId,
    turns: Vec<Turn>,
}

pub struct Serve {
    mode: Mode,
    workers: usize,
    cache_capacity: usize,
    /// Run before the timed section of every round, one at a time.
    primers: Vec<Dialogue>,
    dialogues: Vec<Dialogue>,
    nets: BTreeMap<&'static str, Network>,
    redraw: Rng,
}

fn shared_script(case: CaseId, sweep: (usize, usize)) -> Dialogue {
    Dialogue {
        case,
        turns: vec![
            turn(
                3,
                format!("solve {}", case.short_name()),
                "Solved ACOPF for",
            ),
            turn(0, "what is the network status", "Active case:"),
            turn(
                1,
                "run the n-1 contingency analysis",
                "I ran a full N-1 contingency analysis",
            ),
            turn(
                2,
                format!(
                    "sweep the load from {}% to {}% in 5 steps",
                    sweep.0, sweep.1
                ),
                "Batched study of",
            ),
            turn(
                0,
                "show the contingency status summary",
                "I ran a full N-1 contingency analysis",
            ),
            turn(3, "solve it again", "Solved ACOPF for"),
            turn(0, "what is the network status", "Active case:"),
        ],
    }
}

fn diverged_script(rng: &mut Rng, case: CaseId, net: &Network) -> Dialogue {
    let loaded = loaded_buses(net);
    let mut turns = vec![turn(
        3,
        format!("solve {}", case.short_name()),
        "Solved ACOPF for",
    )];
    for _ in 0..TURNS - 2 {
        let (bus, p) = loaded[rng.below(loaded.len())];
        turns.push(turn(
            4,
            // Four decimals: two dialogues never ask for the same network.
            format!(
                "set the load at bus {} to {:.4} MW",
                net.buses[bus].id,
                p * rng.range(0.92, 1.08)
            ),
            "Re-solved the ACOPF after setting the load at bus",
        ));
    }
    turns.push(turn(0, "what is the network status", "Active case:"));
    Dialogue { case, turns }
}

impl Serve {
    pub fn build(mode: Mode, seed: u64, size: Size) -> Serve {
        let full = size == Size::Full;
        let mut nets = BTreeMap::new();
        let (primers, dialogues, redraw, cache_capacity) = match mode {
            Mode::Shared => {
                // The smoke run swaps case118 out: its primer alone is a
                // 0.6 s ACOPF solve per server start.
                let cases = if full {
                    [CaseId::Ieee30, CaseId::Ieee118]
                } else {
                    [CaseId::Ieee14, CaseId::Ieee30]
                };
                let n = if full { 24 } else { 4 };
                // The seed picks the study every dialogue asks for and
                // which case goes first; the script is one for all so every
                // timed solve can hit. The cases alternate strictly: with
                // one outstanding request per dialogue the server goes
                // round the active four in lockstep, so a turn waits for
                // its three neighbours' turns of the same index, and a
                // seeded order would move p50 between "no case118 solve
                // ahead" (8 ms) and "one ahead" (40 ms) from seed to seed.
                let mut rng = Rng::new(seed, "serve_shared");
                let sweep = (93 + rng.below(5), 103 + rng.below(5));
                let first = rng.below(2);
                (
                    cases.iter().map(|&c| shared_script(c, sweep)).collect(),
                    (0..n)
                        .map(|d| shared_script(cases[(first + d) % 2], sweep))
                        .collect(),
                    Rng::new(seed, "serve_shared.redraw"),
                    64,
                )
            }
            Mode::Diverged => {
                let mut rng = Rng::new(seed, "serve_diverged");
                for id in [CaseId::Ieee14, CaseId::Ieee30] {
                    nets.insert(id.short_name(), cases::load(id));
                }
                let n = if full { 32 } else { 6 };
                // Strictly alternating cases, as in `shared`: every four
                // active dialogues are two of each, so a turn's wait does
                // not depend on a seeded order.
                let dialogues: Vec<Dialogue> = (0..n)
                    .map(|d| {
                        let case = if d % 2 == 0 {
                            CaseId::Ieee14
                        } else {
                            CaseId::Ieee30
                        };
                        diverged_script(&mut rng, case, &nets[case.short_name()])
                    })
                    .collect();
                // The smoke run keeps the overflow by shrinking the cache.
                // The opening solve of a case is the one thing dialogues
                // share; priming it makes "edits miss, openings hit" hold
                // for any worker count.
                let primers = [CaseId::Ieee14, CaseId::Ieee30]
                    .iter()
                    .map(|c| Dialogue {
                        case: *c,
                        turns: vec![turn(
                            3,
                            format!("solve {}", c.short_name()),
                            "Solved ACOPF for",
                        )],
                    })
                    .collect();
                (
                    primers,
                    dialogues,
                    Rng::new(seed, "serve_diverged.redraw"),
                    if full { 64 } else { 8 },
                )
            }
        };
        let serve = Serve {
            mode,
            workers: sys::serve_workers(),
            cache_capacity,
            primers,
            dialogues,
            nets,
            redraw,
        };
        // Set-up is what a deployment pays before its first request:
        // the pool comes up and the primer dialogues fill the cache.
        let (server, rx) = serve.start();
        serve.prime(&server, &rx);
        server.shutdown();
        serve
    }

    fn start(&self) -> (Server, Receiver<ServeResponse>) {
        Server::start(ServerConfig {
            workers: self.workers,
            queue_capacity: QUEUE_CAPACITY,
            cache_capacity: self.cache_capacity,
            profile: profile(),
            faults: None,
        })
    }

    /// Runs the primer dialogues one turn at a time; their session ids
    /// sit above the timed dialogues'.
    fn prime(&self, server: &Server, rx: &Receiver<ServeResponse>) {
        for (p, primer) in self.primers.iter().enumerate() {
            for (pos, t) in primer.turns.iter().enumerate() {
                let admitted =
                    server.submit(Serve::request(self.dialogues.len() + p, pos, &t.query));
                if admitted.is_err() || rx.recv().is_err() {
                    return;
                }
            }
        }
    }

    fn request(dialogue: usize, pos: usize, query: &str) -> ServeRequest {
        ServeRequest {
            session: format!("d{dialogue:05}"),
            seq: pos as u64,
            query: query.to_string(),
            deadline_ms: None,
        }
    }
}

fn answer(resp: &ServeResponse, latency_s: f64, expected: &str) -> OpResult {
    let failure = if resp.status == ServeStatus::Done {
        text_failure(expected, &resp.text)
    } else {
        Some(format!("status {:?}", resp.status))
    };
    OpResult {
        latency_s,
        cpu_s: 0.0,
        digest: fnv1a(resp.text.as_bytes()),
        failure,
    }
}

impl Workload for Serve {
    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn single_client(&self) -> bool {
        false
    }

    fn op_classes(&self) -> Vec<usize> {
        self.dialogues
            .iter()
            .flat_map(|d| d.turns.iter().map(|t| t.class))
            .collect()
    }

    fn op_labels(&self) -> Vec<String> {
        self.dialogues
            .iter()
            .flat_map(|d| {
                d.turns
                    .iter()
                    .map(|t| format!("{}: {}", d.case.short_name(), t.query))
            })
            .collect()
    }

    fn oplist_digest(&self) -> u64 {
        self.dialogues
            .iter()
            .flat_map(|d| &d.turns)
            .fold(fnv1a(format!("{:?}", self.mode).as_bytes()), |h, t| {
                fnv1a_extend(h, t.query.as_bytes())
            })
    }

    fn run_round(&mut self, tracer: &mut Tracer) -> Round {
        let rss0 = sys::rss_kb();
        let (server, rx) = self.start();
        self.prime(&server, &rx);
        let primed = server.cache_stats();

        let n = self.dialogues.len();
        let mut round = Round::default();
        // A refused request is answered by `submit` itself, never on the
        // channel; it is queued here and handled like any other answer
        // (a non-`Done` status fails the op) so the dialogue goes on.
        let mut refused: VecDeque<ServeResponse> = VecDeque::new();
        let submit = |d: usize, pos: usize, refused: &mut VecDeque<ServeResponse>| {
            let sent = Instant::now();
            let query = &self.dialogues[d].turns[pos].query;
            if let Err(busy) = server.submit(Serve::request(d, pos, query)) {
                refused.push_back(busy);
            }
            sent
        };
        let mut slots: Vec<Option<OpResult>> = vec![None; n * TURNS];
        let mut sent_at = vec![Instant::now(); n];
        let mut pos = vec![0usize; n];
        let mut next = 0usize;
        let mut in_flight = 0usize;
        let traced = tracer.enabled();
        let (cpu0, wall0) = (sys::cpu_seconds(), Instant::now());
        while next < n.min(ACTIVE_PER_WORKER * self.workers) {
            sent_at[next] = submit(next, 0, &mut refused);
            next += 1;
            in_flight += 1;
        }
        while in_flight > 0 {
            let Some(resp) = refused.pop_front().or_else(|| rx.recv().ok()) else {
                break;
            };
            let received = Instant::now();
            let Ok(d) = resp.session[1..].parse::<usize>() else {
                continue;
            };
            let p = pos[d];
            let latency_s = received.duration_since(sent_at[d]).as_secs_f64();
            let t = &self.dialogues[d].turns[p];
            slots[d * TURNS + p] = Some(answer(&resp, latency_s, t.text));
            if traced {
                let span = tracer.record(
                    None,
                    Some(d * TURNS + p),
                    "serve",
                    &format!("submit:{}", CLASSES[t.class]),
                    sent_at[d],
                    received,
                );
                tracer.record_child_tail(span, "core", "exec", 0.0, resp.exec_s);
                tracer.record_child_tail(
                    span,
                    "serve",
                    "queue_wait",
                    resp.exec_s,
                    resp.queue_wait_s,
                );
                round
                    .series
                    .entry("queue_wait_s")
                    .or_default()
                    .push(resp.queue_wait_s);
                round.series.entry("exec_s").or_default().push(resp.exec_s);
                round
                    .series
                    .entry("dispatch_s")
                    .or_default()
                    .push((latency_s - resp.queue_wait_s - resp.exec_s).max(0.0));
            }
            pos[d] += 1;
            if pos[d] < TURNS {
                sent_at[d] = submit(d, pos[d], &mut refused);
            } else if next < n {
                sent_at[next] = submit(next, 0, &mut refused);
                next += 1;
            } else {
                in_flight -= 1;
            }
        }
        round.wall_s = wall0.elapsed().as_secs_f64();
        round.cpu_s = sys::cpu_seconds() - cpu0;
        let rss1 = sys::rss_kb();
        let stats = server.cache_stats();
        let registry = server.shutdown();

        round.ops = slots
            .into_iter()
            .map(|s| {
                s.unwrap_or(OpResult {
                    latency_s: 0.0,
                    cpu_s: 0.0,
                    digest: 0,
                    failure: Some("no response".into()),
                })
            })
            .collect();
        if self.mode == Mode::Shared {
            // Same script, same network: every dialogue on a case must
            // read byte-identical answers.
            let mut first: BTreeMap<(&str, usize), u64> = BTreeMap::new();
            for (d, dialogue) in self.dialogues.iter().enumerate() {
                for p in 0..TURNS {
                    let op = &mut round.ops[d * TURNS + p];
                    let seen = *first
                        .entry((dialogue.case.short_name(), p))
                        .or_insert(op.digest);
                    if seen != op.digest && op.failure.is_none() {
                        op.failure = Some("answer differs from another session's".into());
                    }
                }
            }
        }
        let (hits, misses) = (stats.hits - primed.hits, stats.misses - primed.misses);
        let hit_ratio = hits as f64 / ((hits + misses).max(1)) as f64;
        let cache_ok = match self.mode {
            Mode::Shared => hit_ratio >= SHARED_MIN_HIT_RATIO,
            Mode::Diverged => hit_ratio <= DIVERGED_MAX_HIT_RATIO && stats.evictions > 0,
        };
        if !cache_ok {
            // The workload no longer exercises what it exists for.
            round.problems.push(format!(
                "cache regime broken: hit ratio {hit_ratio:.3}, {} evictions",
                stats.evictions
            ));
        }
        if traced {
            super::add_counters(&mut round.counts, &registry);
            let mut put = |k: &str, v: f64| {
                round.counts.insert(k.to_string(), v);
            };
            put("cache.hits", hits as f64);
            put("cache.misses", misses as f64);
            put("cache.evictions", stats.evictions as f64);
            put(
                "serve.busy_rejections",
                registry.counter_value("serve.busy_rejections") as f64,
            );
            put("serve.sessions", n as f64);
            put("serve.workers", self.workers as f64);
            put("serve.rss_kb_delta", (rss1 - rss0).max(0.0));
        }
        round
    }

    fn redraw(&mut self, failed_op: usize) -> bool {
        if self.mode == Mode::Shared {
            return false;
        }
        let Some(d) = self.dialogues.get_mut(failed_op / TURNS) else {
            return false;
        };
        *d = diverged_script(&mut self.redraw, d.case, &self.nets[d.case.short_name()]);
        true
    }

    fn anchors(&self) -> Vec<String> {
        // The regime checks (hit ratio, evictions, cross-session
        // identity) run inside every round.
        Vec::new()
    }

    fn info(&self) -> Value {
        json!({
            "workers": self.workers,
            "active_dialogues": ACTIVE_PER_WORKER * self.workers,
            "dialogues": self.dialogues.len(),
            "turns": TURNS,
            "cache_capacity": self.cache_capacity,
            "queue_capacity": QUEUE_CAPACITY,
        })
    }
}
