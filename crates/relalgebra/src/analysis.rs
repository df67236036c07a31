//! Static analysis of relational algebra over incomplete data: a bottom-up
//! abstract interpretation computing, per plan node, the lattice of
//! properties the paper's soundness results turn on — and the lint / dispatch
//! machinery built on top of it.
//!
//! ## The property lattice
//!
//! For every node of an [`RaExpr`], [`analyze`] computes a [`NodeFacts`]
//! record by structural recursion with one transfer function per operator:
//!
//! * **class** — the syntactic fragment ([`QueryClass`]) of the subtree;
//!   [`crate::classify::classify`] is a thin wrapper over this field, so the
//!   classifier and the analyzer can never drift.
//! * **ground** — *null-free reach*: given the database's per-relation
//!   [`NullCensus`], is the subtree's value provably identical in **every**
//!   possible world (under CWA)? A ground subtree evaluates on the plain
//!   physical executor with no loss — even through difference or negation —
//!   because no valuation can change its inputs.
//! * **monotone** — is the subtree monotone in the database instance
//!   (`D₁ ⊆ D₂ ⇒ Q(D₁) ⊆ Q(D₂)`)? For monotone queries the OWA certain
//!   answer coincides with the CWA one, which licenses the engine to use
//!   its CWA-exact machinery under OWA.
//! * **nullable** — a per-output-column over-approximation of which columns
//!   of the naïve value can carry marked nulls ([`ColumnNulls`]).
//! * **certainty preservation** — derived verdict
//!   ([`NodeFacts::certainty_preserving`]): is naïve evaluation of this
//!   subtree provably *exact* for certain answers under a given semantics?
//!   Always at least as strong as the class-based theorem (a refinement,
//!   never coarser).
//! * **duplicate sensitivity** — can a valuation *merge* tuples (or decide
//!   comparisons) in a way naïve set evaluation cannot see? This is the
//!   syntactic site where naïve evaluation diverges from the worlds.
//!
//! ## Consumers
//!
//! 1. [`lint`] — a diagnostic pass with stable codes (`QL001`…`QL006`)
//!    pinpointing *where* unsoundness enters a plan, rendered through
//!    [`annotate`] and the engine's `Engine::analyze`.
//! 2. Analyzer-driven dispatch — the engine consults [`NodeFacts`] to
//!    upgrade whole-query verdicts (ground ⇒ naïve-exact under CWA;
//!    ground ∧ monotone ⇒ naïve-exact under OWA) and
//!    [`Analysis::has_inlinable_subtree`] / [`NodeFacts::split_class`] to
//!    evaluate ground subtrees plainly and lift only the flagged remainder
//!    symbolically.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use relmodel::{Constraint, Database, Relation, Schema, Semantics};

use crate::ast::RaExpr;
use crate::classify::{is_divisor_class, QueryClass};
use crate::predicate::Predicate;

// ---------------------------------------------------------------------------
// Null census
// ---------------------------------------------------------------------------

/// Per-relation null statistics of a database — the ground truth the
/// analyzer's *null-free reach* property is computed against.
///
/// A census is either measured from a concrete [`Database`]
/// ([`NullCensus::of_database`]), assembled by an external representation
/// system through [`NullCensus::builder`] (conditional tables provide a
/// hook), or [`NullCensus::pessimistic`] — the no-information census that
/// assumes every relation may carry nulls everywhere. The pessimistic census
/// degrades the analyzer to the purely syntactic classifier.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NullCensus {
    relations: BTreeMap<String, RelationCensus>,
    distinct_nulls: usize,
    pessimistic: bool,
}

/// The census of one relation: which columns may hold nulls, and how many
/// null *positions* (value occurrences, not distinct ids) were counted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RelationCensus {
    /// Per-column: does some tuple carry a null in this column?
    pub nullable: Vec<bool>,
    /// Null value occurrences in the relation (plus, for representation
    /// systems with row conditions, condition-borne null occurrences).
    pub null_positions: usize,
}

impl RelationCensus {
    /// Measures one concrete relation in one scan: its census and its
    /// distinct null ids, in ascending order.
    pub fn measure(rel: &Relation) -> (RelationCensus, Vec<u64>) {
        let mut nullable = vec![false; rel.arity()];
        let mut positions = 0usize;
        let mut ids: BTreeSet<u64> = BTreeSet::new();
        for tuple in rel.iter() {
            for (i, v) in tuple.values().iter().enumerate() {
                if let Some(id) = v.as_null() {
                    nullable[i] = true;
                    positions += 1;
                    ids.insert(id.index());
                }
            }
        }
        let census = RelationCensus {
            nullable,
            null_positions: positions,
        };
        (census, ids.into_iter().collect())
    }

    /// Is the relation provably free of nulls?
    pub fn is_null_free(&self) -> bool {
        self.null_positions == 0 && self.nullable.iter().all(|b| !b)
    }
}

/// Incrementally assembles a [`NullCensus`] — the hook representation
/// systems outside `relalgebra` (conditional tables, repairs) use to feed
/// the analyzer their own notion of "where uncertainty lives".
#[derive(Debug, Default)]
pub struct NullCensusBuilder {
    relations: BTreeMap<String, RelationCensus>,
    ids: BTreeSet<u64>,
}

impl NullCensusBuilder {
    /// Records one relation: its per-column nullability and the distinct
    /// null ids observed in it (values and, for conditional tables, row
    /// conditions).
    pub fn relation(
        self,
        name: impl Into<String>,
        nullable: Vec<bool>,
        null_ids: impl IntoIterator<Item = u64>,
        null_positions: usize,
    ) -> Self {
        let census = RelationCensus {
            nullable,
            null_positions,
        };
        self.measured(name, census, null_ids)
    }

    /// Records one relation whose census is already measured (see
    /// [`RelationCensus::measure`]), with the distinct null ids observed in
    /// it.
    pub fn measured(
        mut self,
        name: impl Into<String>,
        census: RelationCensus,
        null_ids: impl IntoIterator<Item = u64>,
    ) -> Self {
        self.ids.extend(null_ids);
        self.relations.insert(name.into(), census);
        self
    }

    /// Finishes the census.
    pub fn build(self) -> NullCensus {
        NullCensus {
            relations: self.relations,
            distinct_nulls: self.ids.len(),
            pessimistic: false,
        }
    }
}

impl NullCensus {
    /// The no-information census: every relation is assumed null-bearing in
    /// every column. Analysis against it is exactly the syntactic
    /// classification.
    pub fn pessimistic() -> Self {
        NullCensus {
            relations: BTreeMap::new(),
            distinct_nulls: usize::MAX,
            pessimistic: true,
        }
    }

    /// Starts an empty census for external representation systems.
    pub fn builder() -> NullCensusBuilder {
        NullCensusBuilder::default()
    }

    /// Measures the census of a concrete database: one scan, per-relation
    /// and per-column.
    pub fn of_database(db: &Database) -> Self {
        db.iter()
            .fold(NullCensus::builder(), |builder, (name, rel)| {
                let (census, ids) = RelationCensus::measure(rel);
                builder.measured(name, census, ids)
            })
            .build()
    }

    /// Was this census constructed without information (worst-case
    /// assumptions everywhere)?
    pub fn is_pessimistic(&self) -> bool {
        self.pessimistic
    }

    /// Distinct null ids across the censused relations (`usize::MAX` for
    /// the pessimistic census).
    pub fn distinct_nulls(&self) -> usize {
        self.distinct_nulls
    }

    /// Is the whole database provably null-free?
    pub fn database_null_free(&self) -> bool {
        !self.pessimistic && self.distinct_nulls == 0
    }

    /// Is the named relation provably null-free? Unknown relations are
    /// conservatively null-bearing.
    pub fn relation_null_free(&self, name: &str) -> bool {
        self.relations.get(name).is_some_and(|c| c.is_null_free())
    }

    /// The census of the named relation, if censused.
    pub fn relation(&self, name: &str) -> Option<&RelationCensus> {
        self.relations.get(name)
    }

    /// The per-column nullability of the named relation, if censused.
    pub fn relation_columns(&self, name: &str) -> ColumnNulls {
        match self.relations.get(name) {
            Some(c) => ColumnNulls::Known(c.nullable.clone()),
            None => ColumnNulls::Unknown,
        }
    }

    /// May the given column of the named relation carry a null?
    pub fn column_nullable(&self, name: &str, column: usize) -> bool {
        match self.relations.get(name) {
            Some(c) => c.nullable.get(column).copied().unwrap_or(true),
            None => true,
        }
    }

    /// The censused relations, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RelationCensus)> {
        self.relations.iter().map(|(n, c)| (n.as_str(), c))
    }
}

// ---------------------------------------------------------------------------
// Column nullability
// ---------------------------------------------------------------------------

/// Per-output-column nullability of a plan node — an over-approximation of
/// which columns of the naïve value can carry marked nulls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnNulls {
    /// Column-precise information (length = output arity).
    Known(Vec<bool>),
    /// No column information (pessimistic census, or an ill-typed subtree):
    /// every column may be null.
    Unknown,
}

impl ColumnNulls {
    /// A null-free vector of the given arity.
    pub fn none(arity: usize) -> Self {
        ColumnNulls::Known(vec![false; arity])
    }

    /// May *any* output column carry a null?
    pub fn any(&self) -> bool {
        match self {
            ColumnNulls::Known(v) => v.iter().any(|b| *b),
            ColumnNulls::Unknown => true,
        }
    }

    /// May the given column carry a null?
    pub fn column(&self, i: usize) -> bool {
        match self {
            ColumnNulls::Known(v) => v.get(i).copied().unwrap_or(true),
            ColumnNulls::Unknown => true,
        }
    }

    fn concat(&self, other: &ColumnNulls) -> ColumnNulls {
        match (self, other) {
            (ColumnNulls::Known(a), ColumnNulls::Known(b)) => {
                ColumnNulls::Known(a.iter().chain(b.iter()).copied().collect())
            }
            _ => ColumnNulls::Unknown,
        }
    }

    /// Pointwise or — both operands may contribute tuples (union).
    fn join(&self, other: &ColumnNulls) -> ColumnNulls {
        match (self, other) {
            (ColumnNulls::Known(a), ColumnNulls::Known(b)) if a.len() == b.len() => {
                ColumnNulls::Known(a.iter().zip(b.iter()).map(|(x, y)| *x || *y).collect())
            }
            _ => ColumnNulls::Unknown,
        }
    }

    /// Pointwise and — every output tuple appears in both operands
    /// (intersection).
    fn meet(&self, other: &ColumnNulls) -> ColumnNulls {
        match (self, other) {
            (ColumnNulls::Known(a), ColumnNulls::Known(b)) if a.len() == b.len() => {
                ColumnNulls::Known(a.iter().zip(b.iter()).map(|(x, y)| *x && *y).collect())
            }
            _ => ColumnNulls::Unknown,
        }
    }

    fn project(&self, columns: &[usize]) -> ColumnNulls {
        match self {
            ColumnNulls::Known(v) => ColumnNulls::Known(
                columns
                    .iter()
                    .map(|&i| v.get(i).copied().unwrap_or(true))
                    .collect(),
            ),
            ColumnNulls::Unknown => ColumnNulls::Unknown,
        }
    }

    /// The dividend-prefix columns surviving a division by a `divisor_arity`
    /// relation.
    fn divide(&self, divisor_arity: Option<usize>) -> ColumnNulls {
        match (self, divisor_arity) {
            (ColumnNulls::Known(v), Some(d)) => {
                ColumnNulls::Known(v[..v.len().saturating_sub(d)].to_vec())
            }
            _ => ColumnNulls::Unknown,
        }
    }

    fn arity(&self) -> Option<usize> {
        match self {
            ColumnNulls::Known(v) => Some(v.len()),
            ColumnNulls::Unknown => None,
        }
    }
}

impl fmt::Display for ColumnNulls {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnNulls::Unknown => write!(f, "nulls:?"),
            ColumnNulls::Known(v) if !v.iter().any(|b| *b) => write!(f, "null-free"),
            ColumnNulls::Known(v) => {
                write!(f, "nulls:")?;
                let mut first = true;
                for (i, b) in v.iter().enumerate() {
                    if *b {
                        if !first {
                            write!(f, ",")?;
                        }
                        write!(f, "#{i}")?;
                        first = false;
                    }
                }
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Node facts
// ---------------------------------------------------------------------------

/// The analyzer's per-node property record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFacts {
    /// The syntactic fragment of the subtree (what
    /// [`crate::classify::classify`] reports).
    pub class: QueryClass,
    /// The fragment of the subtree **after** inlining its maximal ground
    /// proper subtrees as complete literal relations — the class the engine
    /// dispatches on when subtree-split execution is available. Ground nodes
    /// themselves report [`QueryClass::Positive`] (a complete literal).
    pub split_class: QueryClass,
    /// Null-free reach: is the subtree's value identical in every possible
    /// world (valuation-invariant), given the census? Ground subtrees
    /// evaluate exactly on the plain executor regardless of their class.
    pub ground: bool,
    /// Is the subtree monotone in the database instance? (Difference and
    /// division are monotone only when their right operand is
    /// instance-constant.)
    pub monotone: bool,
    /// Is the subtree's value independent of the database instance
    /// altogether (built from literals only)?
    pub constant: bool,
    /// Does the subtree contain a `Values` literal carrying marked nulls —
    /// the classifier's counterexample, where representation-based
    /// evaluators conflate literal and database nulls?
    pub has_null_literal: bool,
    /// Are all selection predicates in the subtree positive (no `≠`, `¬`,
    /// `false`)?
    pub positive_conditions: bool,
    /// Duplicate sensitivity: can a valuation merge input tuples, or decide
    /// a comparison over a possibly-null column, in a way the naïve set
    /// evaluation of this subtree cannot see? The syntactic site where
    /// naïve answers and certain answers part ways.
    pub dup_sensitive: bool,
    /// Per-output-column nullability of the naïve value.
    pub nullable: ColumnNulls,
    /// Nodes in the subtree (the expression's [`RaExpr::size`]).
    pub size: usize,
}

impl NodeFacts {
    /// Is naïve evaluation of this subtree provably **exact** for certain
    /// answers under the given semantics?
    ///
    /// A refinement of [`QueryClass::naive_evaluation_sound`] — never
    /// coarser — adding the census-powered rules:
    ///
    /// * **CWA**: a ground subtree has the same value in every world, so
    ///   naïve evaluation is exact for *any* class;
    /// * **OWA**: for a monotone query the OWA certain answer equals the
    ///   CWA one, so CWA-exactness (by class, or by groundness) transfers.
    pub fn certainty_preserving(&self, semantics: Semantics) -> bool {
        if self.class.naive_evaluation_sound(semantics) {
            return true;
        }
        match semantics {
            Semantics::Cwa => self.ground,
            Semantics::Owa => {
                self.monotone && (self.ground || self.class.naive_evaluation_sound(Semantics::Cwa))
            }
        }
    }
}

/// One analyzed plan node: its facts and its analyzed children, mirroring
/// the expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzedNode {
    /// The node's property record.
    pub facts: NodeFacts,
    /// Analyzed children, in operand order.
    pub children: Vec<AnalyzedNode>,
}

/// The result of [`analyze`]: the analyzed tree, rooted at the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    root: AnalyzedNode,
}

impl Analysis {
    /// The root node's facts — the whole-query verdict.
    pub fn root(&self) -> &NodeFacts {
        &self.root.facts
    }

    /// The analyzed tree (for lockstep walks with the expression).
    pub fn node(&self) -> &AnalyzedNode {
        &self.root
    }

    /// Is subtree-split execution applicable: the root itself is not ground,
    /// but some proper subtree larger than a leaf is — so the engine can
    /// evaluate that region once on the plain executor and lift only the
    /// remainder?
    pub fn has_inlinable_subtree(&self) -> bool {
        !self.root.facts.ground && self.root.children.iter().any(has_ground_region)
    }
}

fn has_ground_region(node: &AnalyzedNode) -> bool {
    (node.facts.ground && node.facts.size > 1) || node.children.iter().any(has_ground_region)
}

// ---------------------------------------------------------------------------
// The abstract interpretation
// ---------------------------------------------------------------------------

/// Analyzes `expr` bottom-up against the given null census. Purely
/// syntactic plus census facts: never evaluates the query, tolerates
/// ill-typed expressions (conservatively).
pub fn analyze(expr: &RaExpr, census: &NullCensus) -> Analysis {
    Analysis {
        root: analyze_node(expr, census),
    }
}

fn analyze_node(expr: &RaExpr, census: &NullCensus) -> AnalyzedNode {
    match expr {
        RaExpr::Relation(name) => {
            let ground = census.relation_null_free(name);
            leaf(NodeFacts {
                class: QueryClass::Positive,
                split_class: QueryClass::Positive,
                ground,
                monotone: true,
                constant: false,
                has_null_literal: false,
                positive_conditions: true,
                dup_sensitive: false,
                nullable: census.relation_columns(name),
                size: 1,
            })
        }
        RaExpr::Values(rel) => {
            let complete = rel.is_complete();
            let mut nullable = vec![false; rel.arity()];
            for tuple in rel.iter() {
                for (i, v) in tuple.values().iter().enumerate() {
                    if v.is_null() {
                        nullable[i] = true;
                    }
                }
            }
            let class = if complete {
                QueryClass::Positive
            } else {
                QueryClass::FullRa
            };
            leaf(NodeFacts {
                class,
                split_class: class,
                ground: complete,
                monotone: true,
                constant: true,
                has_null_literal: !complete,
                positive_conditions: true,
                dup_sensitive: false,
                nullable: ColumnNulls::Known(nullable),
                size: 1,
            })
        }
        RaExpr::Delta => {
            let ground = census.database_null_free();
            leaf(NodeFacts {
                class: QueryClass::Positive,
                split_class: QueryClass::Positive,
                ground,
                monotone: true,
                constant: false,
                has_null_literal: false,
                positive_conditions: true,
                dup_sensitive: false,
                nullable: ColumnNulls::Known(vec![!ground; 2]),
                size: 1,
            })
        }
        RaExpr::Select(e, p) => {
            let child = analyze_node(e, census);
            let c = &child.facts;
            let positive = p.is_positive();
            let class = if positive {
                c.class
            } else {
                QueryClass::FullRa
            };
            let facts = NodeFacts {
                class,
                split_class: if c.ground {
                    QueryClass::Positive
                } else if positive {
                    c.split_class
                } else {
                    QueryClass::FullRa
                },
                ground: c.ground,
                monotone: c.monotone,
                constant: c.constant,
                has_null_literal: c.has_null_literal,
                positive_conditions: c.positive_conditions && positive,
                dup_sensitive: c.dup_sensitive
                    || (!c.ground && predicate_touches_nullable(p, &c.nullable)),
                nullable: c.nullable.clone(),
                size: c.size + 1,
            };
            AnalyzedNode {
                facts,
                children: vec![child],
            }
        }
        RaExpr::Project(e, columns) => {
            let child = analyze_node(e, census);
            let c = &child.facts;
            let facts = NodeFacts {
                class: c.class,
                split_class: if c.ground {
                    QueryClass::Positive
                } else {
                    c.split_class
                },
                ground: c.ground,
                monotone: c.monotone,
                constant: c.constant,
                has_null_literal: c.has_null_literal,
                positive_conditions: c.positive_conditions,
                // Projection deduplicates: tuples a valuation merges (via any
                // null-bearing column of the input) collapse invisibly.
                dup_sensitive: c.dup_sensitive || (!c.ground && c.nullable.any()),
                nullable: c.nullable.project(columns),
                size: c.size + 1,
            };
            AnalyzedNode {
                facts,
                children: vec![child],
            }
        }
        RaExpr::Product(a, b) => binary(expr, a, b, census),
        RaExpr::Union(a, b) => binary(expr, a, b, census),
        RaExpr::Intersection(a, b) => binary(expr, a, b, census),
        RaExpr::Difference(a, b) => binary(expr, a, b, census),
        RaExpr::Divide(a, b) => binary(expr, a, b, census),
    }
}

fn leaf(facts: NodeFacts) -> AnalyzedNode {
    AnalyzedNode {
        facts,
        children: Vec::new(),
    }
}

fn binary(expr: &RaExpr, a: &RaExpr, b: &RaExpr, census: &NullCensus) -> AnalyzedNode {
    let left = analyze_node(a, census);
    let right = analyze_node(b, census);
    let (l, r) = (&left.facts, &right.facts);
    let ground = l.ground && r.ground;
    let either_nullable = l.nullable.any() || r.nullable.any();
    let (class, split_class, monotone, nullable, set_dup) = match expr {
        RaExpr::Product(_, _) => (
            l.class.max(r.class),
            l.split_class.max(r.split_class),
            l.monotone && r.monotone,
            l.nullable.concat(&r.nullable),
            false,
        ),
        RaExpr::Union(_, _) => (
            l.class.max(r.class),
            l.split_class.max(r.split_class),
            l.monotone && r.monotone,
            l.nullable.join(&r.nullable),
            either_nullable,
        ),
        RaExpr::Intersection(_, _) => (
            l.class.max(r.class),
            l.split_class.max(r.split_class),
            l.monotone && r.monotone,
            l.nullable.meet(&r.nullable),
            either_nullable,
        ),
        RaExpr::Difference(_, _) => (
            QueryClass::FullRa,
            QueryClass::FullRa,
            // Monotone only when the subtrahend cannot grow with the
            // instance at all.
            l.monotone && r.constant,
            l.nullable.clone(),
            either_nullable,
        ),
        RaExpr::Divide(da, db) => {
            let class = if l.class <= QueryClass::RaCwa && is_divisor_class(db) {
                l.class.max(QueryClass::RaCwa)
            } else {
                QueryClass::FullRa
            };
            let split_class =
                if l.split_class <= QueryClass::RaCwa && split_divisor_class(db, &right) {
                    l.split_class.max(QueryClass::RaCwa)
                } else {
                    QueryClass::FullRa
                };
            let _ = da;
            (
                class,
                split_class,
                l.monotone && r.constant,
                l.nullable.divide(r.nullable.arity()),
                either_nullable,
            )
        }
        _ => unreachable!("binary() is only called on binary operators"),
    };
    let split_class = if ground {
        QueryClass::Positive
    } else {
        split_class
    };
    let facts = NodeFacts {
        class,
        split_class,
        ground,
        monotone,
        constant: l.constant && r.constant,
        has_null_literal: l.has_null_literal || r.has_null_literal,
        positive_conditions: l.positive_conditions && r.positive_conditions,
        dup_sensitive: l.dup_sensitive || r.dup_sensitive || (!ground && set_dup),
        nullable,
        size: l.size + r.size + 1,
    };
    AnalyzedNode {
        facts,
        children: vec![left, right],
    }
}

/// Is the divisor admissible for `RA_cwa` **after** ground-subtree inlining:
/// either ground (inlined to a complete literal, which is admissible), or in
/// `RA(Δ, π, ×, ∪)` with the same allowance recursively?
fn split_divisor_class(expr: &RaExpr, node: &AnalyzedNode) -> bool {
    if node.facts.ground {
        return true;
    }
    match expr {
        RaExpr::Relation(_) | RaExpr::Delta => true,
        RaExpr::Values(rel) => rel.is_complete(),
        RaExpr::Project(e, _) => split_divisor_class(e, &node.children[0]),
        RaExpr::Product(a, b) | RaExpr::Union(a, b) => {
            split_divisor_class(a, &node.children[0]) && split_divisor_class(b, &node.children[1])
        }
        RaExpr::Select(_, _)
        | RaExpr::Intersection(_, _)
        | RaExpr::Difference(_, _)
        | RaExpr::Divide(_, _) => false,
    }
}

fn predicate_touches_nullable(p: &Predicate, nullable: &ColumnNulls) -> bool {
    if matches!(p, Predicate::True) {
        return false;
    }
    p.columns().iter().any(|&c| nullable.column(c))
}

// ---------------------------------------------------------------------------
// Lints
// ---------------------------------------------------------------------------

/// Stable diagnostic codes of the lint framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticCode {
    /// `QL001` — difference over a null-bearing operand: naïve evaluation
    /// is unsound here (the certain difference can lose tuples no syntactic
    /// set difference sees).
    DifferenceOverNulls,
    /// `QL002` — a null-bearing `Values` literal: representation-based
    /// evaluators conflate the literal `⊥ᵢ` with a database `⊥ᵢ`, an
    /// equality that fails in every world.
    NullLiteral,
    /// `QL003` — a denial constraint compares a symbolic (possibly-null)
    /// attribute: nulls never fire denial constraints, so consistency of
    /// the constrained column is world-dependent.
    DenialOverSymbolic,
    /// `QL004` — a non-positive selection predicate reads a possibly-null
    /// column: three-valued and naïve evaluation diverge at this node.
    NegationOverNulls,
    /// `QL005` — a division whose divisor is outside `RA(Δ, π, ×, ∪)` (and
    /// not ground): the query leaves `RA_cwa`.
    NonRaCwaDivisor,
    /// `QL006` — note: this subtree is ground (world-invariant given the
    /// census) and larger than a leaf, so the engine can evaluate it once
    /// on the plain executor and substitute the result.
    GroundSubtree,
}

impl DiagnosticCode {
    /// The stable code string (`QL001` … `QL006`).
    pub fn code(self) -> &'static str {
        match self {
            DiagnosticCode::DifferenceOverNulls => "QL001",
            DiagnosticCode::NullLiteral => "QL002",
            DiagnosticCode::DenialOverSymbolic => "QL003",
            DiagnosticCode::NegationOverNulls => "QL004",
            DiagnosticCode::NonRaCwaDivisor => "QL005",
            DiagnosticCode::GroundSubtree => "QL006",
        }
    }

    /// The diagnostic's severity.
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticCode::GroundSubtree => Severity::Note,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How seriously to take a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: the analyzer found an *opportunity*, not a hazard.
    Note,
    /// The plan region is unsound for naïve evaluation (or conflates null
    /// kinds); the engine must route around it.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One lint finding, anchored to a plan node by path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagnosticCode,
    /// The severity ([`DiagnosticCode::severity`]).
    pub severity: Severity,
    /// The node path from the root, `root` / `root.0` / `root.1.0` …
    /// (operand indices).
    pub path: String,
    /// Human-readable explanation, naming the operator.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] at {}: {}",
            self.code, self.severity, self.path, self.message
        )
    }
}

/// Lints `expr` against the census (and, when a schema is supplied, its
/// integrity constraints — `QL003`). Diagnostics come out in plan order
/// (parents before children), constraint findings last.
pub fn lint(expr: &RaExpr, census: &NullCensus, schema: Option<&Schema>) -> Vec<Diagnostic> {
    let analysis = analyze(expr, census);
    let mut out = Vec::new();
    lint_walk(expr, analysis.node(), "root", true, &mut out);
    if let Some(schema) = schema {
        lint_constraints(expr, census, schema, &mut out);
    }
    out
}

fn lint_walk(
    expr: &RaExpr,
    node: &AnalyzedNode,
    path: &str,
    is_root: bool,
    out: &mut Vec<Diagnostic>,
) {
    for (code, message) in node_lints(expr, node, is_root) {
        out.push(Diagnostic {
            code,
            severity: code.severity(),
            path: path.to_string(),
            message,
        });
    }
    // A maximal ground region needs no inner diagnostics: the engine
    // evaluates it wholesale.
    if node.facts.ground && !is_root {
        return;
    }
    for (i, (child_expr, child_node)) in expr_children(expr).iter().zip(&node.children).enumerate()
    {
        lint_walk(child_expr, child_node, &format!("{path}.{i}"), false, out);
    }
}

fn expr_children(expr: &RaExpr) -> Vec<&RaExpr> {
    match expr {
        RaExpr::Relation(_) | RaExpr::Values(_) | RaExpr::Delta => Vec::new(),
        RaExpr::Select(e, _) | RaExpr::Project(e, _) => vec![e],
        RaExpr::Product(a, b)
        | RaExpr::Union(a, b)
        | RaExpr::Intersection(a, b)
        | RaExpr::Difference(a, b)
        | RaExpr::Divide(a, b) => vec![a, b],
    }
}

/// The node-local lints, shared between [`lint`] and [`annotate`].
fn node_lints(expr: &RaExpr, node: &AnalyzedNode, is_root: bool) -> Vec<(DiagnosticCode, String)> {
    let mut out = Vec::new();
    if node.facts.ground {
        if !is_root && node.facts.size > 1 {
            out.push((
                DiagnosticCode::GroundSubtree,
                "subtree is world-invariant given the null census; eligible for one plain \
                 evaluation"
                    .to_string(),
            ));
        }
        return out;
    }
    match expr {
        RaExpr::Difference(_, _) => {
            let l = &node.children[0].facts;
            let r = &node.children[1].facts;
            let side = match (l.ground, r.ground) {
                (false, false) => "both operands",
                (false, true) => "the left operand",
                (true, false) => "the right operand",
                (true, true) => unreachable!("a difference of ground operands is ground"),
            };
            out.push((
                DiagnosticCode::DifferenceOverNulls,
                format!(
                    "difference over null-bearing operand ({side} may vary across worlds) — \
                     naive evaluation unsound here"
                ),
            ));
        }
        RaExpr::Values(rel) if !rel.is_complete() => {
            out.push((
                DiagnosticCode::NullLiteral,
                "null literal joins database null: possible worlds value database nulls but \
                 leave query literals untouched, so syntactic evaluation conflates the two"
                    .to_string(),
            ));
        }
        RaExpr::Select(_, p) if !p.is_positive() => {
            let child = &node.children[0].facts;
            if predicate_touches_nullable(p, &child.nullable) {
                out.push((
                    DiagnosticCode::NegationOverNulls,
                    format!(
                        "non-positive selection [{p}] reads a possibly-null column — \
                         three-valued and naive evaluation diverge here"
                    ),
                ));
            }
        }
        RaExpr::Divide(_, b) if !split_divisor_class(b, &node.children[1]) => {
            out.push((
                DiagnosticCode::NonRaCwaDivisor,
                "division divisor is outside RA(Δ, π, ×, ∪) and not ground — the query \
                 leaves RA_cwa"
                    .to_string(),
            ));
        }
        _ => {}
    }
    out
}

fn lint_constraints(
    expr: &RaExpr,
    census: &NullCensus,
    schema: &Schema,
    out: &mut Vec<Diagnostic>,
) {
    let mentioned = expr.relations();
    for constraint in schema.constraints() {
        let Constraint::Denial {
            relation, column, ..
        } = constraint
        else {
            continue;
        };
        if !mentioned.contains(relation.as_str()) {
            continue;
        }
        let Some(rel_schema) = schema.relation(relation) else {
            continue;
        };
        let Some(idx) = rel_schema.attribute_index(column) else {
            continue;
        };
        if census.column_nullable(relation, idx) {
            out.push(Diagnostic {
                code: DiagnosticCode::DenialOverSymbolic,
                severity: Severity::Warning,
                path: "root".to_string(),
                message: format!(
                    "denial constraint `{constraint}` compares symbolic attribute \
                     {relation}.{column} (possibly null): nulls never fire denial constraints, \
                     so consistency here is world-dependent"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Annotated explain
// ---------------------------------------------------------------------------

/// Renders the logical plan with the analyzer's per-node facts and lint
/// codes inline — the `EXPLAIN ANALYZE` of the static world.
pub fn annotate(expr: &RaExpr, census: &NullCensus) -> String {
    let analysis = analyze(expr, census);
    let mut out = String::new();
    annotate_node(expr, analysis.node(), 0, true, &mut out);
    out
}

fn annotate_node(
    expr: &RaExpr,
    node: &AnalyzedNode,
    depth: usize,
    is_root: bool,
    out: &mut String,
) {
    use fmt::Write;
    let f = &node.facts;
    let mut flags = vec![f.class.to_string()];
    if f.ground {
        flags.push("ground".to_string());
    }
    if f.monotone {
        flags.push("monotone".to_string());
    }
    if f.dup_sensitive {
        flags.push("dup-sensitive".to_string());
    }
    flags.push(f.nullable.to_string());
    let codes: Vec<String> = node_lints(expr, node, is_root)
        .iter()
        .map(|(c, _)| c.code().to_string())
        .collect();
    let _ = write!(
        out,
        "{:indent$}{}",
        "",
        node_label(expr),
        indent = depth * 2
    );
    let _ = write!(out, "  [{}]", flags.join(" | "));
    if !codes.is_empty() {
        let _ = write!(out, "  {}", codes.join(" "));
    }
    out.push('\n');
    // Inside a maximal ground region the facts are all implied by
    // `ground`; elide the subtree like the lint walk does.
    if f.ground && !is_root {
        return;
    }
    for (child_expr, child_node) in expr_children(expr).iter().zip(&node.children) {
        annotate_node(child_expr, child_node, depth + 1, false, out);
    }
}

fn node_label(expr: &RaExpr) -> String {
    match expr {
        RaExpr::Relation(name) => name.clone(),
        RaExpr::Values(rel) => format!("values({} tuples, arity {})", rel.len(), rel.arity()),
        RaExpr::Delta => "delta".to_string(),
        RaExpr::Select(_, p) => format!("select[{p}]"),
        RaExpr::Project(_, cols) => {
            let cols: Vec<String> = cols.iter().map(|c| format!("#{c}")).collect();
            format!("project[{}]", cols.join(","))
        }
        RaExpr::Product(_, _) => "product".to_string(),
        RaExpr::Union(_, _) => "union".to_string(),
        RaExpr::Intersection(_, _) => "intersect".to_string(),
        RaExpr::Difference(_, _) => "minus".to_string(),
        RaExpr::Divide(_, _) => "divide".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Operand, Predicate};
    use relmodel::{DatabaseBuilder, Relation, Tuple, Value};

    /// R(a,b) with a null in b; S(a) complete; T(a,b) complete.
    fn census() -> NullCensus {
        let db = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["a"])
            .relation("T", &["a", "b"])
            .ints("R", &[1, 10])
            .tuple("R", vec![Value::int(2), Value::null(0)])
            .ints("S", &[1])
            .ints("T", &[1, 2])
            .build();
        NullCensus::of_database(&db)
    }

    #[test]
    fn census_measures_columns_and_relations() {
        let c = census();
        assert!(!c.relation_null_free("R"));
        assert!(c.relation_null_free("S"));
        assert!(c.relation_null_free("T"));
        assert!(!c.database_null_free());
        assert_eq!(c.distinct_nulls(), 1);
        assert!(!c.column_nullable("R", 0));
        assert!(c.column_nullable("R", 1));
        assert!(c.column_nullable("Unknown", 0), "unknown is pessimistic");
        assert_eq!(
            c.relation_columns("R"),
            ColumnNulls::Known(vec![false, true])
        );
    }

    #[test]
    fn ground_reach_follows_the_census() {
        let c = census();
        // A difference of null-free relations is ground: any class, exact.
        let q = RaExpr::relation("S").difference(RaExpr::relation("T").project(vec![0]));
        let a = analyze(&q, &c);
        assert!(a.root().ground);
        assert_eq!(a.root().class, QueryClass::FullRa);
        assert!(a.root().certainty_preserving(Semantics::Cwa));
        // The same shape over the null-bearing R is not ground.
        let q = RaExpr::relation("S").difference(RaExpr::relation("R").project(vec![1]));
        let a = analyze(&q, &c);
        assert!(!a.root().ground);
        assert!(!a.root().certainty_preserving(Semantics::Cwa));
        // Pessimistic census: nothing relation-based is ground.
        let q = RaExpr::relation("S").difference(RaExpr::relation("T"));
        assert!(!analyze(&q, &NullCensus::pessimistic()).root().ground);
    }

    #[test]
    fn column_nullability_flows_through_operators() {
        let c = census();
        // Projecting R to its null-free column: output null-free; to the
        // nullable column: nullable.
        let a = analyze(&RaExpr::relation("R").project(vec![0]), &c);
        assert!(!a.root().nullable.any());
        let a = analyze(&RaExpr::relation("R").project(vec![1]), &c);
        assert!(a.root().nullable.any());
        // Product concatenates; intersection meets.
        let a = analyze(&RaExpr::relation("S").product(RaExpr::relation("R")), &c);
        assert_eq!(
            a.root().nullable,
            ColumnNulls::Known(vec![false, false, true])
        );
        let a = analyze(
            &RaExpr::relation("R").intersection(RaExpr::relation("T")),
            &c,
        );
        assert!(!a.root().nullable.any(), "meet with a null-free operand");
    }

    #[test]
    fn monotone_tracks_instance_monotonicity() {
        let c = census();
        // σ≠ is instance-monotone even though it is full RA.
        let q = RaExpr::relation("R").select(Predicate::neq(Operand::col(0), Operand::int(1)));
        let a = analyze(&q, &c);
        assert_eq!(a.root().class, QueryClass::FullRa);
        assert!(a.root().monotone);
        // Difference against a relation is not; against a literal it is.
        let q = RaExpr::relation("S").difference(RaExpr::relation("T").project(vec![0]));
        assert!(!analyze(&q, &c).root().monotone);
        let lit = RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[1])]));
        let q = RaExpr::relation("S").difference(lit);
        assert!(analyze(&q, &c).root().monotone);
        // OWA: monotone + ground ⇒ certainty preserving; monotone alone +
        // CWA-sound class too.
        let q = RaExpr::relation("S").select(Predicate::neq(Operand::col(0), Operand::int(9)));
        let a = analyze(&q, &c);
        assert!(a.root().ground && a.root().monotone);
        assert!(a.root().certainty_preserving(Semantics::Owa));
    }

    #[test]
    fn split_class_inlines_ground_regions() {
        let c = census();
        // (S − πT) ∪ π(R): the non-monotone region is ground, so after
        // inlining the query is positive.
        let core = RaExpr::relation("S").difference(RaExpr::relation("T").project(vec![0]));
        let q = core.union(RaExpr::relation("R").project(vec![0]));
        let a = analyze(&q, &c);
        assert_eq!(a.root().class, QueryClass::FullRa);
        assert_eq!(a.root().split_class, QueryClass::Positive);
        assert!(a.has_inlinable_subtree());
        // With the difference over the null-bearing R instead (and a
        // null-bearing top), the class stays full RA and nothing is ground.
        let core = RaExpr::relation("S").difference(RaExpr::relation("R").project(vec![1]));
        let q = core.union(RaExpr::relation("R").project(vec![0]));
        let a = analyze(&q, &c);
        assert_eq!(a.root().split_class, QueryClass::FullRa);
        assert!(!a.has_inlinable_subtree());
        // A ground divisor admits RA_cwa after inlining even when selected.
        let divisor = RaExpr::relation("T")
            .select(Predicate::eq(Operand::col(0), Operand::int(1)))
            .project(vec![0]);
        let q = RaExpr::relation("R").divide(divisor);
        let a = analyze(&q, &c);
        assert_eq!(a.root().class, QueryClass::FullRa);
        assert_eq!(a.root().split_class, QueryClass::RaCwa);
    }

    #[test]
    fn refinement_never_coarser_than_the_class_theorem() {
        let c = census();
        let queries = [
            RaExpr::relation("R").project(vec![0]),
            RaExpr::relation("R").divide(RaExpr::relation("S")),
            RaExpr::relation("R").difference(RaExpr::relation("T")),
            RaExpr::relation("S").select(Predicate::neq(Operand::col(0), Operand::int(0))),
        ];
        for q in queries {
            for semantics in [Semantics::Cwa, Semantics::Owa] {
                let facts = analyze(&q, &c).root().clone();
                if facts.class.naive_evaluation_sound(semantics) {
                    assert!(
                        facts.certainty_preserving(semantics),
                        "analyzer coarser than classify on {q} under {semantics}"
                    );
                }
            }
        }
    }

    #[test]
    fn dup_sensitivity_flags_null_comparisons() {
        let c = census();
        // Joining on the nullable column of R.
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        assert!(analyze(&q, &c).root().dup_sensitive);
        // Joining null-free columns only.
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(0), Operand::col(2)));
        assert!(!analyze(&q, &c).root().dup_sensitive);
        // Ground subtrees are never duplicate-sensitive.
        let q = RaExpr::relation("T").project(vec![0]);
        assert!(!analyze(&q, &c).root().dup_sensitive);
    }

    #[test]
    fn lints_fire_with_stable_codes() {
        let c = census();
        // QL001 on a difference whose subtrahend may vary.
        let q = RaExpr::relation("S").difference(RaExpr::relation("R").project(vec![1]));
        let diags = lint(&q, &c, None);
        assert!(diags
            .iter()
            .any(|d| d.code == DiagnosticCode::DifferenceOverNulls && d.path == "root"));
        // QL002 on a null literal.
        let lit = RaExpr::values(Relation::from_tuples(
            1,
            vec![Tuple::new(vec![Value::null(7)])],
        ));
        let diags = lint(&RaExpr::relation("S").union(lit), &c, None);
        assert!(diags
            .iter()
            .any(|d| d.code == DiagnosticCode::NullLiteral && d.path == "root.1"));
        // QL004 on σ≠ over the nullable column; silent over a null-free one.
        let q = RaExpr::relation("R").select(Predicate::neq(Operand::col(1), Operand::int(1)));
        assert!(lint(&q, &c, None)
            .iter()
            .any(|d| d.code == DiagnosticCode::NegationOverNulls));
        let q = RaExpr::relation("R").select(Predicate::neq(Operand::col(0), Operand::int(1)));
        assert!(!lint(&q, &c, None)
            .iter()
            .any(|d| d.code == DiagnosticCode::NegationOverNulls));
        // QL005 on a non-RA(Δ,π,×,∪), non-ground divisor.
        let divisor = RaExpr::relation("R")
            .select(Predicate::eq(Operand::col(1), Operand::int(1)))
            .project(vec![0]);
        let q = RaExpr::relation("R").divide(divisor);
        assert!(lint(&q, &c, None)
            .iter()
            .any(|d| d.code == DiagnosticCode::NonRaCwaDivisor));
        // QL006 notes the inlinable ground region.
        let core = RaExpr::relation("S").difference(RaExpr::relation("T").project(vec![0]));
        let q = core.union(RaExpr::relation("R").project(vec![0]));
        assert!(lint(&q, &c, None)
            .iter()
            .any(|d| d.code == DiagnosticCode::GroundSubtree && d.severity == Severity::Note));
    }

    #[test]
    fn denial_constraints_over_symbolic_attributes_lint() {
        let db = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .deny(
                "R",
                "b",
                relmodel::CompareOp::Gt,
                relmodel::value::Constant::Int(100),
            )
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .build();
        let c = NullCensus::of_database(&db);
        let q = RaExpr::relation("R").project(vec![0]);
        let diags = lint(&q, &c, Some(db.schema()));
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagnosticCode::DenialOverSymbolic),
            "QL003 must fire: {diags:?}"
        );
        // A query not touching R stays silent.
        let other = DatabaseBuilder::new().relation("S", &["a"]).build();
        let _ = other;
        let q = RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[1])]));
        assert!(lint(&q, &c, Some(db.schema()))
            .iter()
            .all(|d| d.code != DiagnosticCode::DenialOverSymbolic));
    }

    #[test]
    fn annotate_renders_flags_and_codes() {
        let c = census();
        let core = RaExpr::relation("S").difference(RaExpr::relation("R").project(vec![1]));
        let q = core.union(RaExpr::relation("T").project(vec![0]));
        let text = annotate(&q, &c);
        assert!(text.contains("union"), "{text}");
        assert!(text.contains("QL001"), "{text}");
        assert!(text.contains("ground"), "{text}");
        assert!(text.contains("full relational algebra"), "{text}");
    }

    #[test]
    fn null_literals_are_never_ground_but_are_constant() {
        let lit = RaExpr::values(Relation::from_tuples(
            1,
            vec![Tuple::new(vec![Value::null(0)])],
        ));
        let a = analyze(&lit, &census());
        assert!(!a.root().ground);
        assert!(a.root().constant);
        assert!(a.root().has_null_literal);
        assert_eq!(a.root().class, QueryClass::FullRa);
    }
}
