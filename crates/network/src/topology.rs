//! Graph utilities over the in-service branch topology.

use crate::model::Network;

/// Adjacency lists over in-service branches (undirected).
pub fn adjacency(net: &Network) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); net.n_bus()];
    for br in net.branches.iter().filter(|b| b.in_service) {
        adj[br.from_bus].push(br.to_bus);
        adj[br.to_bus].push(br.from_bus);
    }
    adj
}

/// Number of connected components of the in-service network.
pub fn connected_components(net: &Network) -> usize {
    component_labels(net)
        .iter()
        .copied()
        .max()
        .map(|m| m + 1)
        .unwrap_or(0)
}

/// Per-bus component label (0-based), assigned by BFS in bus order.
pub fn component_labels(net: &Network) -> Vec<usize> {
    let n = net.n_bus();
    let adj = adjacency(net);
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if label[v] == usize::MAX {
                    label[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    label
}

/// Returns `true` when taking branch `idx` out of service would split the
/// network (i.e. the branch is a bridge) or isolate a bus.
pub fn outage_islands(net: &Network, idx: usize) -> bool {
    Islanding::new(net).islands(idx)
}

/// Buses that would be disconnected from the slack if branch `idx` were
/// outaged. Empty when the outage is safe.
pub fn stranded_buses(net: &Network, idx: usize) -> Vec<usize> {
    Islanding::new(net).stranded(idx)
}

const NONE: usize = usize::MAX;

/// Which single-branch outages split the network, and what each one cuts
/// off from the slack, from one bridge-finding depth-first pass over the
/// in-service branches: build it once, then ask per outage in O(n)
/// without copying the network or searching it again.
///
/// The search starts at the slack, so the part a bridge cuts off from the
/// slack is the depth-first subtree below it: a contiguous range of
/// discovery times. A branch parallel to another between the same two
/// buses is never a bridge (the search skips only the branch it entered a
/// bus by, not every branch back to its parent), and neither is a branch
/// from a bus to itself.
pub struct Islanding {
    /// Discovery time of each bus in the depth-first order.
    tin: Vec<usize>,
    /// One past the last discovery time in each bus's subtree.
    tout: Vec<usize>,
    /// Per branch: the bus below it when it is a bridge, else `NONE`.
    cut_below: Vec<usize>,
    /// Whether each bus shares the slack's component in the base network;
    /// `None` without a slack, when nothing counts as stranded.
    with_slack: Option<Vec<bool>>,
}

impl Islanding {
    /// Runs the bridge search over `net`'s in-service branches.
    pub fn new(net: &Network) -> Islanding {
        let n = net.n_bus();
        // In-service branches as a bus-indexed adjacency of (bus, branch).
        let mut ptr = vec![0usize; n + 1];
        let incident = || {
            (net.branches.iter().enumerate())
                .filter(|(_, br)| br.in_service && br.from_bus != br.to_bus)
        };
        for (_, br) in incident() {
            ptr[br.from_bus + 1] += 1;
            ptr[br.to_bus + 1] += 1;
        }
        for b in 0..n {
            ptr[b + 1] += ptr[b];
        }
        let mut next = ptr.clone();
        let mut adj = vec![(0usize, 0usize); ptr[n]];
        for (k, br) in incident() {
            adj[next[br.from_bus]] = (br.to_bus, k);
            next[br.from_bus] += 1;
            adj[next[br.to_bus]] = (br.from_bus, k);
            next[br.to_bus] += 1;
        }

        let slack = net.slack();
        let mut tin = vec![NONE; n];
        let mut tout = vec![NONE; n];
        let mut low = vec![0usize; n];
        let mut cut_below = vec![NONE; net.branches.len()];
        let mut timer = 0usize;
        // (bus, branch it was entered by, next adjacency position).
        let mut stack: Vec<(usize, usize, usize)> = Vec::new();
        for root in slack.into_iter().chain(0..n) {
            if tin[root] != NONE {
                continue;
            }
            tin[root] = timer;
            low[root] = timer;
            timer += 1;
            stack.push((root, NONE, ptr[root]));
            while let Some(top) = stack.last_mut() {
                let (u, entered_by, pos) = *top;
                if pos < ptr[u + 1] {
                    top.2 += 1;
                    let (w, k) = adj[pos];
                    if k == entered_by {
                        continue;
                    }
                    if tin[w] == NONE {
                        tin[w] = timer;
                        low[w] = timer;
                        timer += 1;
                        stack.push((w, k, ptr[w]));
                    } else {
                        low[u] = low[u].min(tin[w]);
                    }
                    continue;
                }
                stack.pop();
                tout[u] = timer;
                if let Some(&(parent, _, _)) = stack.last() {
                    low[parent] = low[parent].min(low[u]);
                    if low[u] > tin[parent] {
                        cut_below[entered_by] = u;
                    }
                }
            }
        }
        // The slack's component is the first tree: discovery times below
        // the slack's finishing time.
        let with_slack = slack.map(|s| tin.iter().map(|&t| t < tout[s]).collect());
        Islanding {
            tin,
            tout,
            cut_below,
            with_slack,
        }
    }

    /// Whether outaging branch `k` splits the network (it is an in-service
    /// bridge).
    pub fn islands(&self, k: usize) -> bool {
        self.cut_below.get(k).is_some_and(|&below| below != NONE)
    }

    /// Buses that would be disconnected from the slack if branch `k` were
    /// outaged, in bus order: the base network's buses outside the slack's
    /// component, plus the part `k` cuts off when it is a bridge on the
    /// slack's side. Empty without a slack.
    pub fn stranded(&self, k: usize) -> Vec<usize> {
        let Some(with_slack) = &self.with_slack else {
            return Vec::new();
        };
        let below =
            (self.cut_below.get(k).copied()).filter(|&below| below != NONE && with_slack[below]);
        let cut = below.map_or(0..0, |b| self.tin[b]..self.tout[b]);
        (0..self.tin.len())
            .filter(|&bus| !with_slack[bus] || cut.contains(&self.tin[bus]))
            .collect()
    }
}

/// Degree (number of incident in-service branches) per bus.
pub fn degrees(net: &Network) -> Vec<usize> {
    adjacency(net).iter().map(|a| a.len()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Branch, Bus, BusKind, Network};

    fn chain(n: usize) -> Network {
        let mut net = Network::new("chain");
        for i in 0..n {
            let mut b = Bus::pq(i as u32 + 1, 138.0);
            if i == 0 {
                b.kind = BusKind::Slack;
            }
            net.buses.push(b);
        }
        for i in 0..n.saturating_sub(1) {
            net.branches
                .push(Branch::line(i, i + 1, 0.01, 0.1, 0.0, 100.0));
        }
        net
    }

    #[test]
    fn chain_is_connected() {
        assert_eq!(connected_components(&chain(5)), 1);
    }

    #[test]
    fn out_of_service_branch_splits() {
        let mut net = chain(4);
        net.branches[1].in_service = false;
        assert_eq!(connected_components(&net), 2);
        let labels = component_labels(&net);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn every_chain_edge_is_a_bridge() {
        let net = chain(4);
        for i in 0..net.branches.len() {
            assert!(outage_islands(&net, i), "edge {i} should be a bridge");
        }
    }

    #[test]
    fn ring_edges_are_not_bridges() {
        let mut net = chain(4);
        net.branches.push(Branch::line(3, 0, 0.01, 0.1, 0.0, 100.0));
        for i in 0..net.branches.len() {
            assert!(!outage_islands(&net, i), "ring edge {i} is not a bridge");
        }
    }

    #[test]
    fn stranded_buses_downstream_of_bridge() {
        let net = chain(4);
        assert_eq!(stranded_buses(&net, 1), vec![2, 3]);
        assert_eq!(stranded_buses(&net, 0), vec![1, 2, 3]);
    }

    /// The reference answer: outage the branch on a copy, label the
    /// components and list every bus outside the slack's.
    fn stranded_by_search(net: &Network, idx: usize) -> Vec<usize> {
        let Some(slack) = net.slack() else {
            return Vec::new();
        };
        let mut copy = net.clone();
        copy.branches[idx].in_service = false;
        let labels = component_labels(&copy);
        let slack_label = labels[slack];
        (0..labels.len())
            .filter(|&i| labels[i] != slack_label)
            .collect()
    }

    /// `Islanding` against the search for every branch of `net`.
    fn assert_islanding_matches_search(net: &Network) -> usize {
        let islanding = Islanding::new(net);
        let base = connected_components(net);
        let mut bridges = 0;
        for k in 0..net.branches.len() {
            assert_eq!(
                islanding.stranded(k),
                stranded_by_search(net, k),
                "{}: branch {k}",
                net.name
            );
            let mut copy = net.clone();
            copy.branches[k].in_service = false;
            let splits = connected_components(&copy) > base;
            assert_eq!(islanding.islands(k), splits, "{}: branch {k}", net.name);
            bridges += usize::from(splits);
        }
        bridges
    }

    #[test]
    fn islanding_matches_the_search_on_every_case_branch() {
        use crate::{cases, generate_scale, CaseId, ScaleId};
        let mut nets: Vec<Network> = [
            CaseId::Ieee14,
            CaseId::Ieee30,
            CaseId::Ieee57,
            CaseId::Ieee118,
            CaseId::Ieee300,
        ]
        .map(cases::load)
        .into();
        nets.push(generate_scale(&ScaleId::Synth1354.spec()).unwrap());
        let bridges: Vec<usize> = nets.iter().map(assert_islanding_matches_search).collect();
        // case14's radial branch 7-8 at least; the checks are not vacuous.
        assert!(bridges[0] > 0, "{bridges:?}");
    }

    #[test]
    fn a_doubled_bridge_is_not_a_bridge() {
        let mut net = chain(4);
        net.branches.push(Branch::line(1, 2, 0.01, 0.1, 0.0, 100.0));
        let islanding = Islanding::new(&net);
        assert!(!islanding.islands(1) && !islanding.islands(3));
        assert_eq!(islanding.stranded(1), Vec::<usize>::new());
        assert_eq!(islanding.stranded(2), vec![3]);
        assert_islanding_matches_search(&net);
        // Out of service, the twin leaves a bridge behind.
        net.branches[3].in_service = false;
        assert_eq!(Islanding::new(&net).stranded(1), vec![2, 3]);
        assert_islanding_matches_search(&net);
    }

    #[test]
    fn a_bus_isolated_in_the_base_case_is_always_stranded() {
        let mut net = chain(5);
        net.branches[3].in_service = false;
        let islanding = Islanding::new(&net);
        assert_eq!(islanding.stranded(0), vec![1, 2, 3, 4]);
        assert_eq!(islanding.stranded(3), vec![4], "already out");
        // A ring edge on the slack's side strands only the isolated bus.
        net.branches.push(Branch::line(2, 0, 0.01, 0.1, 0.0, 100.0));
        assert_eq!(Islanding::new(&net).stranded(1), vec![4]);
        assert_islanding_matches_search(&net);
    }

    #[test]
    fn without_a_slack_nothing_is_stranded_but_bridges_still_island() {
        let mut net = chain(4);
        net.buses[0].kind = BusKind::Pq;
        assert_eq!(net.slack(), None);
        let islanding = Islanding::new(&net);
        assert!((0..3).all(|k| islanding.islands(k) && islanding.stranded(k).is_empty()));
        assert_islanding_matches_search(&net);
    }

    #[test]
    fn a_bridge_away_from_the_slack_strands_nothing_new() {
        // Slack in the middle; a self-loop and a branch out of range of
        // the branch list change nothing.
        let mut net = chain(5);
        net.buses[0].kind = BusKind::Pq;
        net.buses[2].kind = BusKind::Slack;
        net.branches.push(Branch::line(1, 1, 0.01, 0.1, 0.0, 100.0));
        let islanding = Islanding::new(&net);
        assert_eq!(islanding.stranded(0), vec![0]);
        assert_eq!(islanding.stranded(3), vec![4]);
        assert!(!islanding.islands(4) && !islanding.islands(99));
        assert_islanding_matches_search(&net);
    }

    #[test]
    fn degrees_of_chain() {
        assert_eq!(degrees(&chain(4)), vec![1, 2, 2, 1]);
    }

    #[test]
    fn empty_network() {
        let net = Network::new("empty");
        assert_eq!(connected_components(&net), 0);
        assert!(component_labels(&net).is_empty());
    }
}
