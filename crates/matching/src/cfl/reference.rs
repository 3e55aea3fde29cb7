//! The pre-rewrite CFL filter, kept as the differential reference for
//! [`Cfl::filter_space`](super::Cfl): `f64` root ratios, a fresh stamp array
//! and neighbor lists per call, `binary_search` membership everywhere, and
//! the CPI as nested vectors. Deadline ticks and spans are dropped; the
//! candidate logic is untouched.

use sqp_graph::algo::BfsTree;
use sqp_graph::nlf::nlf_dominated;
use sqp_graph::{Graph, Label, VertexId};

use super::CflConfig;

pub(super) struct ReferenceSpace {
    pub sets: Vec<Vec<VertexId>>,
    pub root: VertexId,
    pub parent: Vec<Option<VertexId>>,
    /// `adj[c][i]`: the candidates of `c` adjacent to the `i`-th candidate
    /// of `parent(c)`.
    pub adj: Vec<Vec<Vec<VertexId>>>,
}

pub(super) fn choose_root(q: &Graph, g: &Graph) -> VertexId {
    q.vertices()
        .min_by(|&a, &b| {
            let ra = g.label_frequency(q.label(a)) as f64 / q.degree(a).max(1) as f64;
            let rb = g.label_frequency(q.label(b)) as f64 / q.degree(b).max(1) as f64;
            ra.total_cmp(&rb).then(a.cmp(&b))
        })
        .expect("non-empty query")
}

fn has_candidate_neighbor(g: &Graph, v: VertexId, label: Label, phi: &[VertexId]) -> bool {
    let nbrs = g.neighbors_with_label(v, label);
    if nbrs.len() <= phi.len() {
        nbrs.iter().any(|n| phi.binary_search(n).is_ok())
    } else {
        phi.iter().any(|c| nbrs.binary_search(c).is_ok())
    }
}

pub(super) fn build_space(config: CflConfig, q: &Graph, g: &Graph) -> Option<ReferenceSpace> {
    let root = choose_root(q, g);
    let root_set: Vec<VertexId> = g
        .vertices_with_label(q.label(root))
        .iter()
        .copied()
        .filter(|&v| g.degree(v) >= q.degree(root) && nlf_dominated(q, root, g, v))
        .collect();
    if root_set.is_empty() {
        return None;
    }

    let tree = BfsTree::build(q, root);
    let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); q.vertex_count()];
    let mut processed = vec![false; q.vertex_count()];
    sets[root.index()] = root_set;
    processed[root.index()] = true;

    let mut stamp = vec![0u32; g.vertex_count()];
    let mut cur_stamp = 0u32;
    for level in 1..tree.depth() {
        for &u in tree.level_vertices(level) {
            cur_stamp += 1;
            let parent = tree.parent(u);
            let lu = q.label(u);
            let du = q.degree(u);
            let backward: Vec<VertexId> = q
                .neighbors(u)
                .iter()
                .copied()
                .filter(|&w| w != parent && processed[w.index()])
                .collect();
            let mut set = Vec::new();
            for &vp in &sets[parent.index()] {
                for &v in g.neighbors_with_label(vp, lu) {
                    if stamp[v.index()] == cur_stamp {
                        continue;
                    }
                    stamp[v.index()] = cur_stamp;
                    if g.degree(v) < du || !nlf_dominated(q, u, g, v) {
                        continue;
                    }
                    if backward
                        .iter()
                        .any(|&ub| !has_candidate_neighbor(g, v, q.label(ub), &sets[ub.index()]))
                    {
                        continue;
                    }
                    set.push(v);
                }
            }
            if set.is_empty() {
                return None;
            }
            set.sort_unstable();
            sets[u.index()] = set;
            processed[u.index()] = true;
        }
    }

    let mut refine = |u: VertexId, nbrs: Vec<VertexId>| -> bool {
        if nbrs.is_empty() {
            return true;
        }
        let mut set = std::mem::take(&mut sets[u.index()]);
        set.retain(|&v| {
            nbrs.iter().all(|&w| has_candidate_neighbor(g, v, q.label(w), &sets[w.index()]))
        });
        sets[u.index()] = set;
        !sets[u.index()].is_empty()
    };
    if config.bottom_up {
        for level in (0..tree.depth().saturating_sub(1)).rev() {
            for &u in tree.level_vertices(level) {
                let lu = tree.level(u);
                let below = q.neighbors(u).iter().copied().filter(|&w| tree.level(w) > lu);
                if !refine(u, below.collect()) {
                    return None;
                }
            }
        }
    }
    if config.top_down {
        for level in 1..tree.depth() {
            for &u in tree.level_vertices(level) {
                let lu = tree.level(u);
                let above =
                    q.neighbors(u).iter().copied().filter(|&w| tree.level(w) <= lu && w != u);
                if !refine(u, above.collect()) {
                    return None;
                }
            }
        }
    }

    let mut parent_of: Vec<Option<VertexId>> = vec![None; q.vertex_count()];
    let mut adj: Vec<Vec<Vec<VertexId>>> = vec![Vec::new(); q.vertex_count()];
    for u in q.vertices() {
        if u == root {
            continue;
        }
        let p = tree.parent(u);
        parent_of[u.index()] = Some(p);
        let lu = q.label(u);
        let child_set = &sets[u.index()];
        adj[u.index()] = sets[p.index()]
            .iter()
            .map(|&vp| {
                g.neighbors_with_label(vp, lu)
                    .iter()
                    .copied()
                    .filter(|v| child_set.binary_search(v).is_ok())
                    .collect()
            })
            .collect();
    }
    Some(ReferenceSpace { sets, root, parent: parent_of, adj })
}
