//! Streaming enumeration of subset-minimal repairs.
//!
//! A subset-repair of a database under denial constraints is exactly the
//! conflict-free core plus a **maximal independent set** of the binary
//! conflict graph (doomed tuples appear in no repair; see
//! [`crate::conflict`]). [`RepairIter`] therefore enumerates maximal
//! independent sets by depth-first include/exclude decisions over the
//! conflict vertices in a fixed order, with two prunes:
//!
//! * *include* is only feasible when no already-included neighbor exists
//!   (independence);
//! * *exclude* is only feasible while some neighbor could still justify it
//!   (an already-included one, or an undecided one) — a vertex excluded
//!   with all neighbors excluded can never sit in a *maximal* set.
//!
//! The search is [`MaskIter`]; it yields survival masks, which the
//! component fold (`crate::fold`) consumes directly as its local choices,
//! and [`RepairIter`] adds the core to yield whole repair `Database`s.
//! Restricted to one connected component of the conflict graph, the same
//! search yields that component's **local repairs**; over every vertex, it
//! yields the whole repairs.
//!
//! Distinct decision vectors are distinct tuple sets, so repairs stream out
//! **structurally deduplicated by construction** — the property the world
//! iterator needs a dedup pass for. Sharding falls out of the same shape:
//! forcing the first `p` decisions to the bits of a part index partitions
//! the repair space into `2^p` disjoint parts, the repair-space analogue
//! of `ValuationEnumerator::with_range`.

use releval::fold::Choices;
use relmodel::{Database, Tuple};

use crate::conflict::ConflictGraph;

/// One DFS decision about a conflict vertex.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Is the vertex included in the candidate repair?
    include: bool,
    /// No alternative decision remains to try at this depth.
    exhausted: bool,
}

/// The include/exclude search itself: streams the maximal independent sets
/// of (part of) a conflict graph as **survival masks** — the included
/// vertex indexes — without building any tuple set. [`RepairIter`] wraps it
/// with the conflict-free core to yield whole repairs.
///
/// The search decides the vertices of `order` in sequence. `order` must be
/// ascending and closed under adjacency (every neighbor of a listed vertex
/// is listed): the whole vertex set, or one connected component
/// ([`ConflictGraph::components`]). Then a neighbor is undecided exactly
/// when its index is larger, and the sets enumerated are the maximal
/// independent sets of the subgraph `order` spans — the component's
/// **local repairs**.
#[derive(Debug, Clone)]
pub struct MaskIter<'a> {
    graph: &'a ConflictGraph,
    /// The vertices decided, in decision order.
    order: Vec<usize>,
    /// Vertex index → included by the current (partial) decision vector.
    /// Undecided vertices read `false`.
    chosen: Vec<bool>,
    decisions: Vec<Frame>,
    /// Forced decisions for the first `prefix_len` vertices (bit `d` of
    /// `prefix` decides vertex `d`): the sharding handle.
    prefix: u64,
    prefix_len: usize,
    /// The previous [`Self::next_mask`] left a complete decision vector in
    /// place (so [`Self::included`] can read it); backtrack past it before
    /// searching on.
    pending_backtrack: bool,
    done: bool,
}

impl<'a> MaskIter<'a> {
    /// The shard of the whole graph's maximal independent sets whose first
    /// `prefix_len` vertex decisions match the bits of `prefix` (bit `d` ⇒
    /// vertex `d` included). The `2^prefix_len` shards partition the
    /// space; shards whose prefix is infeasible yield nothing.
    /// `prefix_len` is clamped to the vertex count.
    pub fn with_prefix(graph: &'a ConflictGraph, prefix: u64, prefix_len: usize) -> Self {
        let n = graph.conflict_tuples();
        MaskIter {
            graph,
            order: (0..n).collect(),
            chosen: vec![false; n],
            decisions: Vec::with_capacity(n),
            prefix,
            prefix_len: prefix_len.min(n).min(63),
            pending_backtrack: false,
            done: false,
        }
    }

    /// Restarts the search on the local repairs of one connected
    /// component: the maximal independent sets of the subgraph `component`
    /// spans, restricted to those whose first `prefix_len` decisions match
    /// the bits of `prefix` as in [`MaskIter::with_prefix`] (a zero
    /// `prefix_len` restricts nothing). `component` must be ascending and
    /// closed under adjacency, as the entries of
    /// [`ConflictGraph::components`] are. The buffers are reused, so
    /// folding every component costs no allocation proportional to the
    /// whole graph per component.
    pub fn restart(&mut self, component: &[usize], prefix: u64, prefix_len: usize) {
        debug_assert!(component.windows(2).all(|w| w[0] < w[1]));
        while self.pop().is_some() {}
        self.order.clear();
        self.order.extend_from_slice(component);
        self.prefix = prefix;
        self.prefix_len = prefix_len.min(component.len()).min(63);
        self.pending_backtrack = false;
        self.done = false;
    }

    /// The conflict vertices included by the current decision vector —
    /// indices into [`ConflictGraph::vertices`], ascending. Meaningful only
    /// after [`Self::next_mask`] returned `true`.
    pub fn included(&self) -> impl Iterator<Item = usize> + '_ {
        self.decisions
            .iter()
            .zip(&self.order)
            .filter_map(|(frame, &v)| frame.include.then_some(v))
    }

    /// May the vertex at `depth` be included? (No included neighbor so far;
    /// undecided neighbors read `false`.)
    fn include_feasible(&self, depth: usize) -> bool {
        self.graph
            .neighbors(self.order[depth])
            .iter()
            .all(|&u| !self.chosen[u])
    }

    /// May the vertex at `depth` be excluded? (Some neighbor can still
    /// justify the exclusion: one already included, or one not yet
    /// decided — a larger index, because `order` is ascending.)
    fn exclude_feasible(&self, depth: usize) -> bool {
        let v = self.order[depth];
        self.graph
            .neighbors(v)
            .iter()
            .any(|&u| u > v || self.chosen[u])
    }

    /// Is the complete decision vector a *maximal* independent set?
    fn maximal(&self) -> bool {
        self.order
            .iter()
            .all(|&v| self.chosen[v] || self.graph.neighbors(v).iter().any(|&u| self.chosen[u]))
    }

    fn push(&mut self, frame: Frame) {
        self.chosen[self.order[self.decisions.len()]] = frame.include;
        self.decisions.push(frame);
    }

    fn pop(&mut self) -> Option<Frame> {
        let frame = self.decisions.pop()?;
        self.chosen[self.order[self.decisions.len()]] = false;
        Some(frame)
    }

    /// Pops decisions until one with an untried alternative is found and
    /// flips it; returns false when the search space is exhausted.
    fn backtrack(&mut self) -> bool {
        while let Some(frame) = self.pop() {
            if !frame.exhausted {
                // The frame had tried `include`; `exclude` is the one
                // remaining alternative — take it if it is feasible.
                let depth = self.decisions.len();
                if self.exclude_feasible(depth) {
                    self.push(Frame {
                        include: false,
                        exhausted: true,
                    });
                    return true;
                }
            }
        }
        false
    }

    /// Advances to the next maximal decision vector; `false` once the
    /// search space is exhausted. On `true` the current mask is readable
    /// through [`Self::included`].
    pub fn next_mask(&mut self) -> bool {
        if self.done {
            return false;
        }
        if self.pending_backtrack {
            self.pending_backtrack = false;
            if !self.backtrack() {
                self.done = true;
                return false;
            }
        }
        loop {
            let depth = self.decisions.len();
            if depth == self.order.len() {
                if self.maximal() {
                    // Leave the vector in place for the accessors; the next
                    // call resumes by backtracking past it.
                    self.pending_backtrack = true;
                    return true;
                }
                if !self.backtrack() {
                    self.done = true;
                    return false;
                }
                continue;
            }
            let frame = if depth < self.prefix_len {
                let include = (self.prefix >> depth) & 1 == 1;
                let feasible = if include {
                    self.include_feasible(depth)
                } else {
                    self.exclude_feasible(depth)
                };
                if !feasible {
                    // The forced prefix is infeasible below this point.
                    if !self.backtrack() {
                        self.done = true;
                        return false;
                    }
                    continue;
                }
                Frame {
                    include,
                    exhausted: true,
                }
            } else if self.include_feasible(depth) {
                Frame {
                    include: true,
                    exhausted: false,
                }
            } else if self.exclude_feasible(depth) {
                Frame {
                    include: false,
                    exhausted: true,
                }
            } else {
                if !self.backtrack() {
                    self.done = true;
                    return false;
                }
                continue;
            };
            self.push(frame);
        }
    }
}

/// A component fold's local choices are the local repairs of each joint
/// component's vertices.
impl Choices for MaskIter<'_> {
    fn start(&mut self, vertices: &[usize], prefix: u64, prefix_len: usize) {
        self.restart(vertices, prefix, prefix_len);
    }

    fn advance(&mut self) -> bool {
        self.next_mask()
    }

    fn rows(&self) -> impl Iterator<Item = (&str, &Tuple)> {
        let vertices = self.graph.vertices();
        self.included()
            .map(|v| (vertices[v].0.as_str(), &vertices[v].1))
    }
}

/// Streaming iterator over the subset-minimal repairs of a database, one
/// [`Database`] at a time: the conflict-free core plus each mask of a
/// [`MaskIter`]. Never materializes the repair set.
#[derive(Debug, Clone)]
pub struct RepairIter<'a> {
    masks: MaskIter<'a>,
    /// The conflict-free core all repairs share; yielded repairs are
    /// `core + included vertices`.
    core: Database,
}

impl<'a> RepairIter<'a> {
    /// Enumerates every subset-minimal repair of `db` under `graph`.
    pub fn new(db: &Database, graph: &'a ConflictGraph) -> Self {
        Self::with_prefix(db, graph, 0, 0)
    }

    /// Enumerates the shard of repairs whose first `prefix_len` vertex
    /// decisions match the bits of `prefix` — see
    /// [`MaskIter::with_prefix`].
    pub fn with_prefix(
        db: &Database,
        graph: &'a ConflictGraph,
        prefix: u64,
        prefix_len: usize,
    ) -> Self {
        RepairIter {
            masks: MaskIter::with_prefix(graph, prefix, prefix_len),
            core: graph.core(db),
        }
    }

    /// The repair named by the current (complete) decision vector.
    fn build(&self) -> Database {
        let mut repair = self.core.clone();
        for v in self.masks.included() {
            let (relation, tuple) = &self.masks.graph.vertices()[v];
            repair
                .insert(relation, tuple.clone())
                .expect("conflict vertices come from the same schema");
        }
        repair
    }
}

impl Iterator for RepairIter<'_> {
    type Item = Database;

    fn next(&mut self) -> Option<Database> {
        self.masks.next_mask().then(|| self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use relmodel::{DatabaseBuilder, Tuple};

    fn two_conflicts_db() -> Database {
        // Key k on R: groups {(1,10),(1,20)} and {(2,30),(2,40)} conflict;
        // (3,50) is core. Repairs: one tuple per group + core = 4 repairs.
        DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .ints("R", &[2, 30])
            .ints("R", &[2, 40])
            .ints("R", &[3, 50])
            .build()
    }

    #[test]
    fn enumerates_exactly_the_repairs() {
        let db = two_conflicts_db();
        let graph = ConflictGraph::build(&db);
        let repairs: Vec<Database> = RepairIter::new(&db, &graph).collect();
        assert_eq!(repairs.len(), 4);
        for r in &repairs {
            assert!(r.is_consistent(), "every enumerated repair is consistent");
            assert!(r.is_subinstance_of(&db));
            assert_eq!(r.total_tuples(), 3, "one per group + the core tuple");
            assert!(r.relation("R").unwrap().contains(&Tuple::ints(&[3, 50])));
        }
        let distinct: BTreeSet<&Database> = repairs.iter().collect();
        assert_eq!(
            distinct.len(),
            4,
            "structurally deduplicated by construction"
        );
    }

    #[test]
    fn consistent_database_has_one_repair_itself() {
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .build();
        let graph = ConflictGraph::build(&db);
        let repairs: Vec<Database> = RepairIter::new(&db, &graph).collect();
        assert_eq!(repairs, vec![db]);
    }

    #[test]
    fn triangle_conflict_has_three_repairs() {
        // Three tuples sharing one key form a conflict triangle: each repair
        // keeps exactly one of them.
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .ints("R", &[1, 30])
            .build();
        let graph = ConflictGraph::build(&db);
        let repairs: Vec<Database> = RepairIter::new(&db, &graph).collect();
        assert_eq!(repairs.len(), 3);
        for r in &repairs {
            assert_eq!(r.total_tuples(), 1);
        }
    }

    #[test]
    fn local_repairs_are_the_restrictions_of_repairs() {
        // A triangle on key 1, an edge on key 2: 3 × 2 = 6 repairs, and
        // 3 + 2 local repairs. Each repair restricted to a component is
        // one of its local repairs, and every local repair occurs.
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[2, 20])
            .ints("R", &[1, 11])
            .ints("R", &[2, 21])
            .ints("R", &[1, 12])
            .build();
        let graph = ConflictGraph::build(&db);
        let mut global: Vec<BTreeSet<usize>> = Vec::new();
        let mut masks = MaskIter::with_prefix(&graph, 0, 0);
        while masks.next_mask() {
            global.push(masks.included().collect());
        }
        assert_eq!(global.len(), 6);
        let components = graph.components();
        let mut product = 1;
        for component in &components {
            let mut local: BTreeSet<BTreeSet<usize>> = BTreeSet::new();
            masks.restart(component, 0, 0);
            while masks.next_mask() {
                assert!(local.insert(masks.included().collect()), "no duplicates");
            }
            let restricted: BTreeSet<BTreeSet<usize>> = global
                .iter()
                .map(|m| {
                    m.iter()
                        .copied()
                        .filter(|v| component.contains(v))
                        .collect()
                })
                .collect();
            assert_eq!(local, restricted);
            product *= local.len();
        }
        assert_eq!(product, global.len());
    }

    #[test]
    fn shards_partition_the_repair_space() {
        let db = two_conflicts_db();
        let graph = ConflictGraph::build(&db);
        let all: BTreeSet<Database> = RepairIter::new(&db, &graph).collect();
        for prefix_len in [1usize, 2, 3] {
            let mut sharded: Vec<Database> = Vec::new();
            for prefix in 0..(1u64 << prefix_len.min(graph.conflict_tuples())) {
                sharded.extend(RepairIter::with_prefix(&db, &graph, prefix, prefix_len));
            }
            assert_eq!(
                sharded.len(),
                all.len(),
                "prefix_len {prefix_len}: disjoint"
            );
            let as_set: BTreeSet<Database> = sharded.into_iter().collect();
            assert_eq!(as_set, all, "prefix_len {prefix_len}: complete");
        }
    }
}
