//! Physical query plans: the executable operator tree every evaluator runs.
//!
//! A [`PhysicalPlan`] is lowered from a (typechecked) [`crate::plan::PlannedQuery`]
//! expression and rewritten for execution:
//!
//! * **Join fusion** — `σ(A × B)` with cross-operand equality conjuncts
//!   becomes a [`PhysOp::HashJoin`] with those conjuncts as equi-join keys
//!   and the remainder as a residual predicate, turning the interpreter's
//!   `O(|A|·|B|)` Cartesian loop into a build/probe hash join.
//! * **Selection pushdown** — filters merge with adjacent filters and move
//!   through projections, unions, products (operand-local conjuncts land on
//!   the operand), and the left operand of difference/intersection, so rows
//!   are dropped as early as possible.
//! * **Projection pushdown** — adjacent projections compose, projections
//!   distribute over unions, and identity projections vanish.
//!
//! Every rewrite is valid under *all* evaluation models that run physical
//! plans — plain syntactic tuples (naïve/complete/worlds), the certain⁺/
//! possible? approximation pair, and condition-carrying c-table rows — which
//! is what lets `releval::exec` execute one plan shape under four strategies.
//! The rewrites only reassociate conjunctions and reorder row-local work;
//! they never change which atoms are evaluated against which row.
//!
//! [`PhysicalPlan::explain`] renders the plan as an indented operator tree
//! (the `EXPLAIN` view), which the engine surfaces in its reports and the
//! plan-snapshot tests lock.

use std::fmt;

use relmodel::{Relation, Schema};

use crate::ast::RaExpr;
use crate::predicate::{Operand, Predicate};
use crate::typecheck::{output_arity, TypeError};

/// A node of the physical operator tree: the operator plus its output arity
/// (annotated during lowering so rewrites and executors never re-derive it)
/// and a plan-unique node id (assigned in preorder after rewriting, for
/// trace/profile attribution — `EXPLAIN ANALYZE` joins per-node timings back
/// to the plan by this id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysNode {
    op: PhysOp,
    arity: usize,
    id: u32,
}

/// A physical operator. Children are boxed [`PhysNode`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysOp {
    /// Scan of a base relation by name.
    Scan(String),
    /// A literal relation.
    Values(Relation),
    /// The active-domain diagonal `Δ`; executors compute the domain once per
    /// execution and serve every `Delta` node from that cache.
    Delta,
    /// Row filter `σ[p]`.
    Filter {
        /// Input operator.
        input: Box<PhysNode>,
        /// The predicate rows must satisfy.
        predicate: Predicate,
    },
    /// Projection onto the listed columns, in the listed order.
    Project {
        /// Input operator.
        input: Box<PhysNode>,
        /// Output columns (indices into the input).
        columns: Vec<usize>,
    },
    /// Cartesian product (no usable equi-join key was found).
    NestedProduct {
        /// Left operator.
        left: Box<PhysNode>,
        /// Right operator.
        right: Box<PhysNode>,
    },
    /// Hash equi-join: build a hash table on one side's key columns, probe
    /// with the other's. `keys` pairs `(left column, right column)`; the
    /// residual predicate (if any) is evaluated on the concatenated row.
    HashJoin {
        /// Left (probe-side by convention; executors may swap) operator.
        left: Box<PhysNode>,
        /// Right operator.
        right: Box<PhysNode>,
        /// Equi-join key column pairs `(left, right)`.
        keys: Vec<(usize, usize)>,
        /// Leftover predicate on the concatenated row, in concat coordinates.
        residual: Option<Predicate>,
    },
    /// Set union.
    Union {
        /// Left operator.
        left: Box<PhysNode>,
        /// Right operator.
        right: Box<PhysNode>,
    },
    /// Set difference.
    Difference {
        /// Left operator.
        left: Box<PhysNode>,
        /// Right operator.
        right: Box<PhysNode>,
    },
    /// Set intersection.
    Intersect {
        /// Left operator.
        left: Box<PhysNode>,
        /// Right operator.
        right: Box<PhysNode>,
    },
    /// Relational division.
    Divide {
        /// Dividend operator.
        left: Box<PhysNode>,
        /// Divisor operator.
        right: Box<PhysNode>,
    },
}

impl PhysNode {
    /// The operator at this node.
    pub fn op(&self) -> &PhysOp {
        &self.op
    }

    /// The node's output arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The node's plan-unique id: preorder position in the **rewritten**
    /// plan, assigned by [`PhysicalPlan::lower_unchecked`]. Deterministic
    /// for a given query and schema, so equal plans carry equal ids.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The node's direct children, left to right.
    pub fn children(&self) -> Vec<&PhysNode> {
        match &self.op {
            PhysOp::Scan(_) | PhysOp::Values(_) | PhysOp::Delta => Vec::new(),
            PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => vec![input],
            PhysOp::NestedProduct { left, right }
            | PhysOp::HashJoin { left, right, .. }
            | PhysOp::Union { left, right }
            | PhysOp::Difference { left, right }
            | PhysOp::Intersect { left, right }
            | PhysOp::Divide { left, right } => vec![left, right],
        }
    }

    fn new(op: PhysOp, arity: usize) -> Self {
        PhysNode { op, arity, id: 0 }
    }

    /// Preorder id assignment over the rewritten tree.
    fn assign_ids(&mut self, next: &mut u32) {
        self.id = *next;
        *next += 1;
        match &mut self.op {
            PhysOp::Scan(_) | PhysOp::Values(_) | PhysOp::Delta => {}
            PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => {
                input.assign_ids(next);
            }
            PhysOp::NestedProduct { left, right }
            | PhysOp::HashJoin { left, right, .. }
            | PhysOp::Union { left, right }
            | PhysOp::Difference { left, right }
            | PhysOp::Intersect { left, right }
            | PhysOp::Divide { left, right } => {
                left.assign_ids(next);
                right.assign_ids(next);
            }
        }
    }

    /// Number of operator nodes in the subtree rooted here.
    pub fn operator_count(&self) -> usize {
        1 + match &self.op {
            PhysOp::Scan(_) | PhysOp::Values(_) | PhysOp::Delta => 0,
            PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => input.operator_count(),
            PhysOp::NestedProduct { left, right }
            | PhysOp::HashJoin { left, right, .. }
            | PhysOp::Union { left, right }
            | PhysOp::Difference { left, right }
            | PhysOp::Intersect { left, right }
            | PhysOp::Divide { left, right } => left.operator_count() + right.operator_count(),
        }
    }

    /// The one-line `EXPLAIN` label for this operator (no children, no
    /// indentation) — the exact strings the plain rendering has always used.
    pub fn op_label(&self) -> String {
        match &self.op {
            PhysOp::Scan(name) => format!("scan {name}"),
            PhysOp::Values(rel) => {
                format!("values [{} col(s), {} row(s)]", rel.arity(), rel.len())
            }
            PhysOp::Delta => "Δ".to_string(),
            PhysOp::Filter { predicate, .. } => format!("σ[{predicate}]"),
            PhysOp::Project { columns, .. } => {
                let cols: Vec<String> = columns.iter().map(|c| format!("#{c}")).collect();
                format!("π[{}]", cols.join(","))
            }
            PhysOp::NestedProduct { .. } => "×".to_string(),
            PhysOp::HashJoin { keys, residual, .. } => {
                let keys: Vec<String> =
                    keys.iter().map(|(l, r)| format!("l#{l} = r#{r}")).collect();
                match residual {
                    Some(p) => format!("hash-join [{}] residual σ[{p}]", keys.join(", ")),
                    None => format!("hash-join [{}]", keys.join(", ")),
                }
            }
            PhysOp::Union { .. } => "∪".to_string(),
            PhysOp::Difference { .. } => "−".to_string(),
            PhysOp::Intersect { .. } => "∩".to_string(),
            PhysOp::Divide { .. } => "÷".to_string(),
        }
    }

    fn render(
        &self,
        indent: usize,
        out: &mut String,
        annotate: &mut dyn FnMut(&PhysNode) -> Option<String>,
    ) {
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push_str(&self.op_label());
        if let Some(note) = annotate(self) {
            out.push(' ');
            out.push_str(&note);
        }
        out.push('\n');
        for child in self.children() {
            child.render(indent + 1, out, annotate);
        }
    }
}

/// A rewritten, executable operator tree for one query over one schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalPlan {
    root: PhysNode,
}

impl PhysicalPlan {
    /// Typechecks `expr` against `schema`, lowers it, and rewrites it.
    pub fn lower(expr: &RaExpr, schema: &Schema) -> Result<PhysicalPlan, TypeError> {
        output_arity(expr, schema)?;
        Ok(PhysicalPlan::lower_unchecked(expr, schema))
    }

    /// Lowers an expression already known to typecheck against `schema`
    /// (what [`crate::plan::PlannedQuery`] guarantees).
    pub fn lower_unchecked(expr: &RaExpr, schema: &Schema) -> PhysicalPlan {
        let mut root = optimize(translate(expr, schema));
        // Ids are assigned in preorder over the *rewritten* tree, so every
        // node carries a stable, plan-unique handle for profile attribution
        // and equal plans (same query, same schema) get equal ids.
        let mut next = 0u32;
        root.assign_ids(&mut next);
        PhysicalPlan { root }
    }

    /// The root operator.
    pub fn root(&self) -> &PhysNode {
        &self.root
    }

    /// The plan's output arity.
    pub fn arity(&self) -> usize {
        self.root.arity
    }

    /// Number of physical operators in the plan.
    pub fn operator_count(&self) -> usize {
        self.root.operator_count()
    }

    /// Does the plan contain a hash join (i.e. did join fusion fire)?
    pub fn has_hash_join(&self) -> bool {
        fn walk(node: &PhysNode) -> bool {
            match node.op() {
                PhysOp::HashJoin { .. } => true,
                PhysOp::Scan(_) | PhysOp::Values(_) | PhysOp::Delta => false,
                PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => walk(input),
                PhysOp::NestedProduct { left, right }
                | PhysOp::Union { left, right }
                | PhysOp::Difference { left, right }
                | PhysOp::Intersect { left, right }
                | PhysOp::Divide { left, right } => walk(left) || walk(right),
            }
        }
        walk(&self.root)
    }

    /// The indented `EXPLAIN` rendering of the operator tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.root.render(0, &mut out, &mut |_| None);
        out
    }

    /// The `EXPLAIN` rendering with a per-node annotation appended to each
    /// operator line (when `annotate` returns `Some`). This is the hook
    /// `EXPLAIN ANALYZE` uses to splice measured row counts and timings into
    /// the plan text: the callback receives each node (with its
    /// [`PhysNode::id`]) in render order and returns the suffix for its line.
    pub fn explain_annotated(
        &self,
        annotate: &mut dyn FnMut(&PhysNode) -> Option<String>,
    ) -> String {
        let mut out = String::new();
        self.root.render(0, &mut out, annotate);
        out
    }

    /// [`PhysicalPlan::explain`] followed by an execution-telemetry footer:
    /// each line of `footer` is rendered as a `-- ` comment below the plan
    /// tree. The executor crates use this to attach what actually happened
    /// (operators run, batches, ground/symbolic run sizes) to the plan text
    /// without this crate depending on their counter types.
    pub fn explain_with_footer(&self, footer: &str) -> String {
        let mut out = self.explain();
        for line in footer.lines() {
            out.push_str("-- ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// Linearity of a plan node in the *volatile* relations — those whose
/// contents differ between the elements an enumeration fold visits (the
/// relations holding conflict vertices, for repairs; the relations holding
/// a row with a marked null, for possible worlds). `Some(true)` when the
/// node's result depends on them (volatile), `Some(false)` when it does not
/// (stable), `None` when some derivation may combine two or more volatile
/// rows (non-linear). `volatile` names the volatile relations.
///
/// | operator      | volatile when                 | linear when                     |
/// |---------------|-------------------------------|---------------------------------|
/// | scan          | the relation is volatile      | always                          |
/// | values        | never                         | always                          |
/// | σ, π          | the input is                  | the input is                    |
/// | ∪             | either side is                | both sides are                  |
/// | ⋈, ×, ∩       | either side is                | both are, and one side is stable |
/// | −             | the left side is              | both are, and the right is stable |
/// | ÷             | never                         | both sides are stable           |
/// | Δ             | —                             | never (volatile rows' constants enter the active domain) |
///
/// A linear plan's answer over stable rows `G` plus independent volatile
/// choices `M₁ … Mₖ` is `Q(G) ∪ ⋃_K vol(M_K)`, which is what lets a fold
/// visit each component's choices on their own: a conflict component's
/// local repairs, or a null component's valuations. [`fold_shape`] turns
/// the verdict into a fold's plan.
pub fn linear_volatility(node: &PhysNode, volatile: &dyn Fn(&str) -> bool) -> Option<bool> {
    let (left, right) = match node.op() {
        PhysOp::Scan(name) => return Some(volatile(name)),
        PhysOp::Values(_) => return Some(false),
        PhysOp::Delta => return None,
        PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => {
            return linear_volatility(input, volatile)
        }
        PhysOp::NestedProduct { left, right }
        | PhysOp::HashJoin { left, right, .. }
        | PhysOp::Union { left, right }
        | PhysOp::Difference { left, right }
        | PhysOp::Intersect { left, right }
        | PhysOp::Divide { left, right } => (left, right),
    };
    let (l, r) = (
        linear_volatility(left, volatile)?,
        linear_volatility(right, volatile)?,
    );
    match node.op() {
        PhysOp::Union { .. } => Some(l || r),
        PhysOp::NestedProduct { .. } | PhysOp::HashJoin { .. } | PhysOp::Intersect { .. }
            if !(l && r) =>
        {
            Some(l || r)
        }
        PhysOp::Difference { .. } if !r => Some(l),
        PhysOp::Divide { .. } if !(l || r) => Some(false),
        _ => None,
    }
}

/// How an enumeration fold over independent components may take a plan
/// apart: the verdict of [`fold_shape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldShape<'p> {
    /// The whole plan is linear ([`linear_volatility`] accepts it);
    /// `volatile` says whether it reads a volatile relation at all.
    Linear {
        /// Does the plan's result depend on the volatile relations?
        volatile: bool,
    },
    /// The root is `left − right` with both sides linear and `right`
    /// volatile: `⋂ (A − B) = ⋂ A − ⋃ B` folds each side on its own.
    Difference {
        /// The minuend `A`.
        left: &'p PhysNode,
        /// Does `A` depend on the volatile relations?
        left_volatile: bool,
        /// The subtrahend `B`, volatile.
        right: &'p PhysNode,
    },
    /// Anything else: the fold must visit the product of the components'
    /// choices.
    Product,
}

/// The factorization verdict of a plan, one row per root shape:
///
/// | root                         | verdict                                   |
/// |------------------------------|-------------------------------------------|
/// | linear plan                  | [`FoldShape::Linear`]                     |
/// | `A − B`, A linear, B linear and volatile | [`FoldShape::Difference`]     |
/// | anything else                | [`FoldShape::Product`]                    |
///
/// A linear plan `Q` over stable rows `G` plus independent choices
/// `M₁ … Mₖ` answers `Q(G) ∪ ⋃_K vol(M_K)`; a root difference of linear
/// sides intersects to `⋂ A − ⋃ B` over any set of elements. `volatile`
/// names the volatile relations, as for [`linear_volatility`].
pub fn fold_shape<'p>(root: &'p PhysNode, volatile: &dyn Fn(&str) -> bool) -> FoldShape<'p> {
    if let Some(volatile) = linear_volatility(root, volatile) {
        return FoldShape::Linear { volatile };
    }
    let PhysOp::Difference { left, right } = root.op() else {
        return FoldShape::Product;
    };
    match (
        linear_volatility(left, volatile),
        linear_volatility(right, volatile),
    ) {
        (Some(left_volatile), Some(true)) => FoldShape::Difference {
            left,
            left_volatile,
            right,
        },
        _ => FoldShape::Product,
    }
}

/// Does the plan read Δ anywhere?
pub fn reads_delta(node: &PhysNode) -> bool {
    matches!(node.op(), PhysOp::Delta) || node.children().into_iter().any(reads_delta)
}

/// Direct (unoptimized) translation of the logical tree.
fn translate(expr: &RaExpr, schema: &Schema) -> PhysNode {
    match expr {
        RaExpr::Relation(name) => {
            let arity = schema
                .relation(name)
                .expect("type checker guarantees the relation exists")
                .arity();
            PhysNode::new(PhysOp::Scan(name.clone()), arity)
        }
        RaExpr::Values(rel) => PhysNode::new(PhysOp::Values(rel.clone()), rel.arity()),
        RaExpr::Delta => PhysNode::new(PhysOp::Delta, 2),
        RaExpr::Select(e, p) => {
            let input = translate(e, schema);
            let arity = input.arity;
            PhysNode::new(
                PhysOp::Filter {
                    input: Box::new(input),
                    predicate: p.clone(),
                },
                arity,
            )
        }
        RaExpr::Project(e, cols) => {
            let input = translate(e, schema);
            PhysNode::new(
                PhysOp::Project {
                    input: Box::new(input),
                    columns: cols.clone(),
                },
                cols.len(),
            )
        }
        RaExpr::Product(a, b) => {
            let left = translate(a, schema);
            let right = translate(b, schema);
            let arity = left.arity + right.arity;
            PhysNode::new(
                PhysOp::NestedProduct {
                    left: Box::new(left),
                    right: Box::new(right),
                },
                arity,
            )
        }
        RaExpr::Union(a, b) => binary(expr, a, b, schema),
        RaExpr::Difference(a, b) => binary(expr, a, b, schema),
        RaExpr::Intersection(a, b) => binary(expr, a, b, schema),
        RaExpr::Divide(a, b) => {
            let left = translate(a, schema);
            let right = translate(b, schema);
            let arity = left.arity - right.arity;
            PhysNode::new(
                PhysOp::Divide {
                    left: Box::new(left),
                    right: Box::new(right),
                },
                arity,
            )
        }
    }
}

fn binary(expr: &RaExpr, a: &RaExpr, b: &RaExpr, schema: &Schema) -> PhysNode {
    let left = Box::new(translate(a, schema));
    let right = Box::new(translate(b, schema));
    let arity = left.arity;
    let op = match expr {
        RaExpr::Union(_, _) => PhysOp::Union { left, right },
        RaExpr::Difference(_, _) => PhysOp::Difference { left, right },
        RaExpr::Intersection(_, _) => PhysOp::Intersect { left, right },
        _ => unreachable!("binary() is only called for set operators"),
    };
    PhysNode::new(op, arity)
}

/// Bottom-up rewriting: children first, then the local rules.
fn optimize(node: PhysNode) -> PhysNode {
    let arity = node.arity;
    let op = match node.op {
        PhysOp::Filter { input, predicate } => {
            return push_filter(optimize(*input), predicate);
        }
        PhysOp::Project { input, columns } => {
            return push_project(optimize(*input), columns);
        }
        PhysOp::NestedProduct { left, right } => PhysOp::NestedProduct {
            left: Box::new(optimize(*left)),
            right: Box::new(optimize(*right)),
        },
        PhysOp::HashJoin {
            left,
            right,
            keys,
            residual,
        } => PhysOp::HashJoin {
            left: Box::new(optimize(*left)),
            right: Box::new(optimize(*right)),
            keys,
            residual,
        },
        PhysOp::Union { left, right } => PhysOp::Union {
            left: Box::new(optimize(*left)),
            right: Box::new(optimize(*right)),
        },
        PhysOp::Difference { left, right } => PhysOp::Difference {
            left: Box::new(optimize(*left)),
            right: Box::new(optimize(*right)),
        },
        PhysOp::Intersect { left, right } => PhysOp::Intersect {
            left: Box::new(optimize(*left)),
            right: Box::new(optimize(*right)),
        },
        PhysOp::Divide { left, right } => PhysOp::Divide {
            left: Box::new(optimize(*left)),
            right: Box::new(optimize(*right)),
        },
        leaf @ (PhysOp::Scan(_) | PhysOp::Values(_) | PhysOp::Delta) => leaf,
    };
    PhysNode::new(op, arity)
}

/// Pushes a filter into (already-optimized) `input`, fusing joins on the way.
fn push_filter(input: PhysNode, predicate: Predicate) -> PhysNode {
    if predicate == Predicate::True {
        return input;
    }
    let arity = input.arity;
    match input.op {
        // σ[p](σ[q](x)) = σ[p ∧ q](x): one pass over the rows.
        PhysOp::Filter {
            input: inner,
            predicate: q,
        } => push_filter(*inner, q.and(predicate)),
        // σ[p](π[cols](x)) = π[cols](σ[p′](x)) where p′ reads through cols.
        PhysOp::Project {
            input: inner,
            columns,
        } => {
            let mapped = predicate.map_columns(&|i| columns[i]);
            PhysNode::new(
                PhysOp::Project {
                    input: Box::new(push_filter(*inner, mapped)),
                    columns,
                },
                arity,
            )
        }
        // σ distributes over ∪.
        PhysOp::Union { left, right } => PhysNode::new(
            PhysOp::Union {
                left: Box::new(push_filter(*left, predicate.clone())),
                right: Box::new(push_filter(*right, predicate)),
            },
            arity,
        ),
        // σ[p](A − B) = σ[p](A) − B and σ[p](A ∩ B) = σ[p](A) ∩ B.
        PhysOp::Difference { left, right } => PhysNode::new(
            PhysOp::Difference {
                left: Box::new(push_filter(*left, predicate)),
                right,
            },
            arity,
        ),
        PhysOp::Intersect { left, right } => PhysNode::new(
            PhysOp::Intersect {
                left: Box::new(push_filter(*left, predicate)),
                right,
            },
            arity,
        ),
        // The join-fusion site: route operand-local conjuncts to the
        // operands, promote cross-operand equalities to hash keys.
        PhysOp::NestedProduct { left, right } => {
            fuse(*left, *right, Vec::new(), None, predicate, arity)
        }
        PhysOp::HashJoin {
            left,
            right,
            keys,
            residual,
        } => fuse(*left, *right, keys, residual, predicate, arity),
        other => PhysNode::new(
            PhysOp::Filter {
                input: Box::new(PhysNode::new(other, arity)),
                predicate,
            },
            arity,
        ),
    }
}

/// Splits `predicate` over a product/join of `left` and `right`: operand-
/// local conjuncts are pushed into the operands, cross-operand equality
/// atoms join `keys`, and everything else lands in the residual. Builds a
/// [`PhysOp::HashJoin`] when at least one key exists, a (possibly filtered)
/// [`PhysOp::NestedProduct`] otherwise.
fn fuse(
    left: PhysNode,
    right: PhysNode,
    mut keys: Vec<(usize, usize)>,
    residual: Option<Predicate>,
    predicate: Predicate,
    arity: usize,
) -> PhysNode {
    let la = left.arity;
    let mut left_push = Vec::new();
    let mut right_push = Vec::new();
    let mut rest = residual.map(|p| p.conjuncts()).unwrap_or_default();
    for conjunct in predicate.conjuncts() {
        let cols = conjunct.columns();
        if cols.is_empty() {
            rest.push(conjunct);
        } else if cols.iter().all(|&i| i < la) {
            left_push.push(conjunct);
        } else if cols.iter().all(|&i| i >= la) {
            right_push.push(conjunct.map_columns(&|i| i - la));
        } else if let Predicate::Eq(Operand::Column(i), Operand::Column(j)) = conjunct {
            // Exactly one side of the equality lives in each operand.
            if i < la {
                keys.push((i, j - la));
            } else {
                keys.push((j, i - la));
            }
        } else {
            rest.push(conjunct);
        }
    }
    let left = Box::new(if left_push.is_empty() {
        left
    } else {
        push_filter(left, Predicate::conjoin(left_push))
    });
    let right = Box::new(if right_push.is_empty() {
        right
    } else {
        push_filter(right, Predicate::conjoin(right_push))
    });
    let rest = if rest.is_empty() {
        None
    } else {
        Some(Predicate::conjoin(rest))
    };
    if keys.is_empty() {
        let product = PhysNode::new(PhysOp::NestedProduct { left, right }, arity);
        match rest {
            None => product,
            Some(predicate) => PhysNode::new(
                PhysOp::Filter {
                    input: Box::new(product),
                    predicate,
                },
                arity,
            ),
        }
    } else {
        PhysNode::new(
            PhysOp::HashJoin {
                left,
                right,
                keys,
                residual: rest,
            },
            arity,
        )
    }
}

/// Pushes a projection into (already-optimized) `input`.
fn push_project(input: PhysNode, columns: Vec<usize>) -> PhysNode {
    // π over the identity column list is a no-op.
    if columns.len() == input.arity && columns.iter().enumerate().all(|(i, &c)| i == c) {
        return input;
    }
    let arity = columns.len();
    match input.op {
        // π[a](π[b](x)) = π[b ∘ a](x).
        PhysOp::Project {
            input: inner,
            columns: inner_cols,
        } => {
            let composed: Vec<usize> = columns.iter().map(|&i| inner_cols[i]).collect();
            push_project(*inner, composed)
        }
        // π distributes over ∪.
        PhysOp::Union { left, right } => PhysNode::new(
            PhysOp::Union {
                left: Box::new(push_project(*left, columns.clone())),
                right: Box::new(push_project(*right, columns)),
            },
            arity,
        ),
        other => PhysNode::new(
            PhysOp::Project {
                input: Box::new(PhysNode::new(other, input.arity)),
                columns,
            },
            arity,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmodel::Tuple;

    fn schema() -> Schema {
        Schema::builder()
            .relation("R", &["a", "b"])
            .relation("S", &["b", "c"])
            .relation("U", &["a"])
            .build()
    }

    fn lower(expr: &RaExpr) -> PhysicalPlan {
        PhysicalPlan::lower(expr, &schema()).unwrap()
    }

    #[test]
    fn select_over_product_fuses_into_hash_join() {
        // R(a,b) ⋈_{b = b'} S(b',c)
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        let plan = lower(&q);
        assert!(plan.has_hash_join());
        assert_eq!(plan.arity(), 4);
        assert_eq!(
            plan.explain(),
            "hash-join [l#1 = r#0]\n  scan R\n  scan S\n"
        );
    }

    #[test]
    fn join_fusion_splits_local_cross_and_residual_conjuncts() {
        // σ[#0 = 1 ∧ #1 = #2 ∧ #3 ≠ 5](R × S): the constant conjunct goes to
        // R, the equality becomes the key, the inequality on S's column is
        // pushed into S.
        let p = Predicate::eq(Operand::col(0), Operand::int(1))
            .and(Predicate::eq(Operand::col(1), Operand::col(2)))
            .and(Predicate::neq(Operand::col(3), Operand::int(5)));
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(p);
        let plan = lower(&q);
        assert_eq!(
            plan.explain(),
            "hash-join [l#1 = r#0]\n  σ[#0 = 1]\n    scan R\n  σ[#1 <> 5]\n    scan S\n"
        );
    }

    #[test]
    fn cross_inequality_stays_residual() {
        let p = Predicate::eq(Operand::col(0), Operand::col(2))
            .and(Predicate::neq(Operand::col(1), Operand::col(3)));
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(p);
        let plan = lower(&q);
        assert_eq!(
            plan.explain(),
            "hash-join [l#0 = r#0] residual σ[#1 <> #3]\n  scan R\n  scan S\n"
        );
    }

    #[test]
    fn no_cross_equality_keeps_a_filtered_product() {
        let p = Predicate::neq(Operand::col(0), Operand::col(2));
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(p);
        let plan = lower(&q);
        assert!(!plan.has_hash_join());
        assert_eq!(plan.explain(), "σ[#0 <> #2]\n  ×\n    scan R\n    scan S\n");
    }

    #[test]
    fn filters_merge_and_push_through_projections_and_unions() {
        let q = RaExpr::relation("R")
            .project(vec![1, 0])
            .union(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(0), Operand::int(3)))
            .select(Predicate::eq(Operand::col(1), Operand::int(4)));
        let plan = lower(&q);
        // Both filters merge, distribute over the union, and remap through
        // the projection (output #0 reads input #1, output #1 reads #0).
        assert_eq!(
            plan.explain(),
            "∪\n  π[#1,#0]\n    σ[(#1 = 3 AND #0 = 4)]\n      scan R\n  σ[(#0 = 3 AND #1 = 4)]\n    scan S\n"
        );
    }

    #[test]
    fn filter_pushes_into_the_left_of_difference_and_intersection() {
        let q = RaExpr::relation("R")
            .difference(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(0), Operand::int(1)));
        let plan = lower(&q);
        assert_eq!(plan.explain(), "−\n  σ[#0 = 1]\n    scan R\n  scan S\n");
        let q = RaExpr::relation("R")
            .intersection(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(0), Operand::int(1)));
        assert!(lower(&q).explain().starts_with("∩\n  σ[#0 = 1]"));
    }

    #[test]
    fn projections_compose_distribute_and_vanish() {
        let q = RaExpr::relation("R").project(vec![1, 0]).project(vec![1]);
        assert_eq!(lower(&q).explain(), "π[#0]\n  scan R\n");
        let q = RaExpr::relation("R")
            .union(RaExpr::relation("S"))
            .project(vec![0]);
        assert_eq!(
            lower(&q).explain(),
            "∪\n  π[#0]\n    scan R\n  π[#0]\n    scan S\n"
        );
        let identity = RaExpr::relation("R").project(vec![0, 1]);
        assert_eq!(lower(&identity).explain(), "scan R\n");
    }

    #[test]
    fn equi_join_builder_lowers_to_a_hash_join() {
        let q = RaExpr::relation("R").equi_join(RaExpr::relation("S"), &[(1, 0)], 2);
        let plan = lower(&q);
        assert!(plan.has_hash_join());
        assert_eq!(plan.operator_count(), 3);
    }

    #[test]
    fn divide_delta_values_lower_directly() {
        let q = RaExpr::relation("R").divide(RaExpr::relation("U"));
        let plan = lower(&q);
        assert_eq!(plan.arity(), 1);
        assert_eq!(plan.explain(), "÷\n  scan R\n  scan U\n");
        let lit = RaExpr::values(Relation::from_tuples(2, vec![Tuple::ints(&[1, 2])]));
        let q = RaExpr::Delta.union(lit);
        assert_eq!(
            lower(&q).explain(),
            "∪\n  Δ\n  values [2 col(s), 1 row(s)]\n"
        );
    }

    #[test]
    fn lowering_typechecks() {
        assert!(PhysicalPlan::lower(&RaExpr::relation("Nope"), &schema()).is_err());
    }

    #[test]
    fn true_filters_disappear() {
        let q = RaExpr::relation("R").select(Predicate::True);
        assert_eq!(lower(&q).explain(), "scan R\n");
    }

    #[test]
    fn node_ids_are_preorder_and_stable() {
        let q = RaExpr::relation("R")
            .equi_join(RaExpr::relation("S"), &[(1, 0)], 2)
            .project(vec![0]);
        let plan = lower(&q);
        // Preorder: root gets 0, ids cover 0..operator_count contiguously.
        let mut seen = Vec::new();
        fn walk(node: &PhysNode, seen: &mut Vec<u32>) {
            seen.push(node.id());
            for child in node.children() {
                walk(child, seen);
            }
        }
        walk(plan.root(), &mut seen);
        let expected: Vec<u32> = (0..plan.operator_count() as u32).collect();
        assert_eq!(seen, expected);
        // Same query, same schema → same ids (derived PartialEq still holds).
        assert_eq!(plan, lower(&q));
    }

    #[test]
    fn explain_annotated_splices_per_node_suffixes() {
        let q = RaExpr::relation("R").equi_join(RaExpr::relation("S"), &[(1, 0)], 2);
        let plan = lower(&q);
        // Annotating nothing reproduces the plain rendering exactly.
        assert_eq!(plan.explain_annotated(&mut |_| None), plan.explain());
        let annotated = plan.explain_annotated(&mut |node| Some(format!("(#{})", node.id())));
        assert_eq!(
            annotated,
            "hash-join [l#1 = r#0] (#0)\n  scan R (#1)\n  scan S (#2)\n"
        );
    }

    /// The linearity verdict of a query's physical plan when R and T are
    /// volatile and S is stable.
    fn verdict(q: RaExpr) -> Option<bool> {
        let schema = Schema::builder()
            .relation("R", &["a", "b"])
            .relation("S", &["a", "b"])
            .relation("T", &["a", "b"])
            .build();
        let plan = PhysicalPlan::lower(&q, &schema).unwrap();
        linear_volatility(plan.root(), &|name| name == "R" || name == "T")
    }

    #[test]
    fn the_linearity_table() {
        let r = || RaExpr::relation("R");
        let s = || RaExpr::relation("S");
        let t = || RaExpr::relation("T");
        let join = |l: RaExpr, r: RaExpr| {
            l.product(r)
                .select(Predicate::eq(Operand::col(1), Operand::col(2)))
        };
        let lit = || RaExpr::values(Relation::from_tuples(2, vec![Tuple::ints(&[1, 2])]));
        // Scans, literals, σ and π.
        assert_eq!(verdict(r()), Some(true));
        assert_eq!(verdict(s()), Some(false));
        assert_eq!(verdict(lit()), Some(false));
        let sel = r().select(Predicate::eq(Operand::col(0), Operand::int(1)));
        assert_eq!(verdict(sel.project(vec![1])), Some(true));
        // ∪ may be volatile on both sides.
        assert_eq!(verdict(r().union(t())), Some(true));
        assert_eq!(verdict(s().union(lit())), Some(false));
        // ⋈, × and ∩: at most one volatile side.
        assert_eq!(verdict(join(r(), s())), Some(true));
        assert_eq!(verdict(join(s(), r())), Some(true));
        assert_eq!(verdict(r().product(s())), Some(true));
        assert_eq!(verdict(r().intersection(s())), Some(true));
        assert_eq!(verdict(join(r(), r())), None);
        assert_eq!(verdict(join(r(), t())), None);
        assert_eq!(verdict(r().product(r())), None);
        assert_eq!(verdict(r().intersection(t())), None);
        // −: volatile on the left only.
        assert_eq!(verdict(r().difference(s())), Some(true));
        assert_eq!(verdict(s().difference(lit())), Some(false));
        assert_eq!(verdict(s().difference(r())), None);
        assert_eq!(verdict(r().difference(r())), None);
        // ÷ and Δ: never volatile.
        let divisor = || RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[2])]));
        assert_eq!(verdict(s().divide(divisor())), Some(false));
        assert_eq!(verdict(r().divide(divisor())), None);
        assert_eq!(verdict(s().divide(t().project(vec![1]))), None);
        assert_eq!(verdict(RaExpr::Delta), None);
        assert_eq!(verdict(s().union(RaExpr::Delta)), None);
        // Non-linearity anywhere below poisons the whole plan, whatever
        // the other side of a union holds.
        assert_eq!(verdict(join(r(), r()).project(vec![0, 3]).union(s())), None);
        assert_eq!(
            verdict(r().union(r().product(t()).project(vec![0, 3]))),
            None
        );
    }

    #[test]
    fn the_fold_shape_table() {
        let schema = Schema::builder()
            .relation("R", &["a", "b"])
            .relation("S", &["a", "b"])
            .build();
        let shape = |q: RaExpr| {
            let plan = PhysicalPlan::lower(&q, &schema).unwrap();
            let label = match fold_shape(plan.root(), &|name| name == "R") {
                FoldShape::Linear { volatile } => format!("linear {volatile}"),
                FoldShape::Difference {
                    left,
                    left_volatile,
                    right,
                } => format!(
                    "difference {} {left_volatile} {}",
                    left.op_label(),
                    right.op_label()
                ),
                FoldShape::Product => "product".to_string(),
            };
            label
        };
        let r = || RaExpr::relation("R");
        let s = || RaExpr::relation("S");
        assert_eq!(shape(r().project(vec![0])), "linear true");
        assert_eq!(shape(s().difference(s())), "linear false");
        assert_eq!(shape(r().difference(s())), "linear true");
        // A root difference with a volatile right side: both sides linear.
        assert_eq!(shape(s().difference(r())), "difference scan S false scan R");
        assert_eq!(
            shape(r().project(vec![0]).difference(r().project(vec![1]))),
            "difference π[#0] true π[#1]"
        );
        // A non-linear side, a difference below the root, or Δ: the product.
        assert_eq!(shape(r().intersection(r()).difference(r())), "product");
        assert_eq!(shape(s().difference(r().intersection(r()))), "product");
        assert_eq!(shape(s().difference(r()).project(vec![0])), "product");
        assert_eq!(
            shape(s().difference(r()).difference(r())),
            "product",
            "(A − B) − C with a volatile B is not linear on the left"
        );
        assert_eq!(shape(RaExpr::Delta.difference(r())), "product");
    }
}
