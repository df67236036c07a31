//! The certainty solver: validity, satisfiability and entailment of
//! [`Condition`]s, decided **without enumerating any valuation domain**.
//!
//! Conditions are Boolean combinations of (in)equalities between marked
//! nulls and constants, interpreted over the infinite domain of all
//! constants. Every question reduces to one satisfiability check (validity
//! of `c` is unsatisfiability of `¬c`), decided by a DPLL-style search:
//!
//! 1. **Compile** the condition into negation normal form over an arena of
//!    `And`/`Or` nodes and atoms, folding ground atoms and `true`/`false`
//!    on the way. A root that folds to a constant is a *simplification
//!    win*: no search runs.
//! 2. **Propagate.** Conjunctions are asserted outright: equalities into a
//!    backtrackable union–find, disequalities into a list beside it. A
//!    conflict is two **distinct constants** in one class (this is where
//!    `Int(1)` and `Str("1")` must stay apart) or a disequality inside one
//!    class. Each open disjunction is checked against the current classes:
//!    one with a child already entailed is dropped, one with every child
//!    refuted is a conflict, and one with a single live child asserts it.
//! 3. **Decide.** Branch on the open disjunction with the fewest live
//!    children, one child per branch; on a conflict, undo the union–find
//!    trail to the last decision and try its next child (asserting the
//!    negations of the atoms already tried). The first branch that closes
//!    every disjunction consistently is a model; running out of branches
//!    is unsatisfiability.
//!
//! A consistent state is satisfiable over the infinite domain because every
//! constant-free class can be assigned its own fresh constant, so no
//! valuation is ever enumerated. The search is an explicit loop over a
//! stack of decisions, in space polynomial in the condition, and the
//! compiler walks the condition with an explicit stack too, so a deeply
//! nested condition cannot overflow the call stack. The number of
//! decisions is the budget ([`SolverOptions::max_decisions`]) — the only
//! way the solver ever punts.
//!
//! This is what makes symbolic c-table evaluation polynomial-per-tuple
//! where possible-world enumeration is exponential in the number of nulls:
//! [`crate::algebra`] produces the conditions, and a certainty question
//! ("is this tuple in the answer of *every* world?") becomes one validity
//! query instead of `|domain|^|nulls|` world evaluations.
//!
//! The possible-world oracle realizes the same infinite-domain semantics
//! with *adequate* finite domains (the mentioned constants plus enough
//! fresh ones), so solver verdicts must agree with brute-force valuation
//! enumeration — [`valid_by_enumeration`] and [`satisfiable_by_enumeration`]
//! are the expansion-based oracles the property tests check against, in the
//! same spirit as [`crate::verify`].

use std::collections::HashMap;
use std::fmt;

use relmodel::valuation::{domain_with_fresh, ValuationEnumerator};
use relmodel::value::Value;

use super::Condition;

/// Budgets governing how much work the solver may do before punting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverOptions {
    /// Maximum number of branching decisions a single question may take.
    /// Branching is the one exponential step of the procedure (driven by
    /// the number of disjunctions, not by the number of nulls), so it
    /// carries the budget.
    pub max_decisions: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_decisions: 16_384,
        }
    }
}

/// Why the solver declined to answer. A punt is not a wrong answer — it is
/// the explicit signal for callers to fall back to world enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverPunt {
    /// The search needed more than [`SolverOptions::max_decisions`]
    /// branching decisions.
    DecisionBudgetExceeded {
        /// The configured maximum.
        budget: usize,
    },
}

impl fmt::Display for SolverPunt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverPunt::DecisionBudgetExceeded { budget } => write!(
                f,
                "the search needed more than the budget of {budget} decisions"
            ),
        }
    }
}

/// Work counters for one solver, reported by the symbolic strategy as the
/// honest "units evaluated" figure to compare against worlds visited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Validity / satisfiability / entailment questions asked.
    pub calls: usize,
    /// Questions the compiler's constant folding resolved outright (to
    /// `true`/`false`), without any search.
    pub simplification_wins: usize,
    /// Branching decisions taken across all questions — the search's unit
    /// of work, and the unit of [`SolverOptions::max_decisions`].
    pub decisions: usize,
}

/// A decision procedure for conditions, carrying its budget and counters.
/// The solver keeps its arena and search buffers between questions, so
/// asking many questions of one solver allocates little.
#[derive(Debug, Clone, Default)]
pub struct CertaintySolver {
    options: SolverOptions,
    stats: SolverStats,
    formula: Formula,
    search: Search,
}

impl CertaintySolver {
    /// A solver with the given budget.
    pub fn new(options: SolverOptions) -> Self {
        CertaintySolver {
            options,
            ..CertaintySolver::default()
        }
    }

    /// The work counters accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Is the condition true under **every** valuation of its nulls?
    pub fn is_valid(&mut self, condition: &Condition) -> Result<bool, SolverPunt> {
        Ok(!self.satisfiable(&[(condition, false)])?)
    }

    /// Is the condition true under **some** valuation of its nulls?
    pub fn is_satisfiable(&mut self, condition: &Condition) -> Result<bool, SolverPunt> {
        self.satisfiable(&[(condition, true)])
    }

    /// Does every valuation satisfying `premise` satisfy `conclusion`?
    /// (With `premise = true` this is [`CertaintySolver::is_valid`] of the
    /// conclusion — the form certainty extraction needs when a conditional
    /// database carries a global condition.)
    pub fn entails(
        &mut self,
        premise: &Condition,
        conclusion: &Condition,
    ) -> Result<bool, SolverPunt> {
        Ok(!self.satisfiable(&[(premise, true), (conclusion, false)])?)
    }

    /// Satisfiability of the conjunction of `parts`, each taken as is
    /// (`true`) or negated (`false`).
    fn satisfiable(&mut self, parts: &[(&Condition, bool)]) -> Result<bool, SolverPunt> {
        self.stats.calls += 1;
        let root = self.formula.compile(parts);
        if root == TRUE || root == FALSE {
            self.stats.simplification_wins += 1;
            return Ok(root == TRUE);
        }
        let (verdict, decisions) = self
            .search
            .run(&self.formula, root, self.options.max_decisions);
        self.stats.decisions += decisions;
        verdict
    }
}

/// An index into [`Formula::nodes`].
type NodeId = u32;
/// An index into the interned terms (nulls and constants) of a formula.
type TermId = u32;

/// The folded constants, pre-allocated at fixed ids.
const TRUE: NodeId = 0;
const FALSE: NodeId = 1;

/// One node of a negation-normal-form formula. `And`/`Or` children are the
/// slice `kids[start..start + len]`.
#[derive(Debug, Clone, Copy)]
enum Node {
    Const(bool),
    Atom { eq: bool, a: TermId, b: TermId },
    And { start: u32, len: u32 },
    Or { start: u32, len: u32 },
}

/// A condition compiled to negation normal form: an arena of nodes over
/// interned terms. Rebuilt per question; the buffers are reused.
#[derive(Debug, Clone, Default)]
struct Formula {
    nodes: Vec<Node>,
    kids: Vec<NodeId>,
    terms: HashMap<Value, TermId>,
    /// Per term: is it a constant?
    constant: Vec<bool>,
    /// Compiler scratch: finished subformulas, and the children of the
    /// node being joined.
    done: Vec<NodeId>,
    joined: Vec<NodeId>,
}

/// A step of the compiler's explicit traversal stack.
enum Task<'c> {
    /// Compile this condition, negated when the flag is `false`.
    Visit(&'c Condition, bool),
    /// Join the last `arity` finished subformulas into an `And` (flag
    /// `true`) or an `Or`.
    Join(bool, usize),
}

impl Formula {
    /// Compiles the conjunction of `parts` (each negated when its flag is
    /// `false`) and returns the root, which is [`TRUE`] or [`FALSE`] when
    /// the folding decides it.
    fn compile(&mut self, parts: &[(&Condition, bool)]) -> NodeId {
        self.nodes.clear();
        self.kids.clear();
        self.terms.clear();
        self.constant.clear();
        self.done.clear();
        self.nodes.extend([Node::Const(true), Node::Const(false)]);
        let mut tasks = vec![Task::Join(true, parts.len())];
        tasks.extend(
            parts
                .iter()
                .rev()
                .map(|&(c, positive)| Task::Visit(c, positive)),
        );
        while let Some(task) = tasks.pop() {
            match task {
                Task::Visit(condition, positive) => match condition {
                    Condition::True => self.done.push(if positive { TRUE } else { FALSE }),
                    Condition::False => self.done.push(if positive { FALSE } else { TRUE }),
                    Condition::Eq(a, b) => {
                        let atom = self.atom(positive, a, b);
                        self.done.push(atom);
                    }
                    Condition::Neq(a, b) => {
                        let atom = self.atom(!positive, a, b);
                        self.done.push(atom);
                    }
                    Condition::Not(inner) => tasks.push(Task::Visit(inner, !positive)),
                    // De Morgan: a negated conjunction is a disjunction.
                    Condition::And(cs) | Condition::Or(cs) => {
                        let and = matches!(condition, Condition::And(_)) == positive;
                        tasks.push(Task::Join(and, cs.len()));
                        tasks.extend(cs.iter().rev().map(|c| Task::Visit(c, positive)));
                    }
                },
                Task::Join(and, arity) => {
                    let start = self.done.len() - arity;
                    let node = self.join(and, start);
                    self.done.truncate(start);
                    self.done.push(node);
                }
            }
        }
        self.done.pop().expect("the outer join leaves the root")
    }

    fn term(&mut self, value: &Value) -> TermId {
        if let Some(&id) = self.terms.get(value) {
            return id;
        }
        let id = self.constant.len() as TermId;
        self.constant.push(value.is_const());
        self.terms.insert(value.clone(), id);
        id
    }

    /// The atom `a = b` (`eq`) or `a ≠ b`, folded when it is ground or
    /// trivial.
    fn atom(&mut self, eq: bool, a: &Value, b: &Value) -> NodeId {
        let (a, b) = (self.term(a), self.term(b));
        let holds = if a == b {
            eq
        } else if self.constant[a as usize] && self.constant[b as usize] {
            !eq
        } else {
            return self.push(Node::Atom { eq, a, b });
        };
        if holds {
            TRUE
        } else {
            FALSE
        }
    }

    /// Joins `done[start..]` into one node: drops units, short-circuits on
    /// the absorbing constant, flattens same-kind children.
    fn join(&mut self, and: bool, start: usize) -> NodeId {
        let (absorbing, unit) = if and { (FALSE, TRUE) } else { (TRUE, FALSE) };
        self.joined.clear();
        for &child in &self.done[start..] {
            if child == absorbing {
                return absorbing;
            }
            match self.nodes[child as usize] {
                Node::Const(_) => {}
                Node::And { start, len } if and => self
                    .joined
                    .extend_from_slice(&self.kids[start as usize..(start + len) as usize]),
                Node::Or { start, len } if !and => self
                    .joined
                    .extend_from_slice(&self.kids[start as usize..(start + len) as usize]),
                _ => self.joined.push(child),
            }
        }
        match self.joined.len() {
            0 => unit,
            1 => self.joined[0],
            len => {
                let start = self.kids.len() as u32;
                self.kids.extend_from_slice(&self.joined);
                let len = len as u32;
                self.push(if and {
                    Node::And { start, len }
                } else {
                    Node::Or { start, len }
                })
            }
        }
    }

    fn push(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        (self.nodes.len() - 1) as NodeId
    }

    fn children(&self, node: NodeId) -> &[NodeId] {
        match self.nodes[node as usize] {
            Node::And { start, len } | Node::Or { start, len } => {
                &self.kids[start as usize..(start + len) as usize]
            }
            Node::Const(_) | Node::Atom { .. } => &[],
        }
    }
}

/// Three-valued truth of a subformula under the current classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Truth {
    True,
    False,
    Open,
}

/// The asserted (dis)equalities: a union–find without path compression,
/// so every union is undone by popping its trail entry, plus the list of
/// asserted disequalities.
#[derive(Debug, Clone, Default)]
struct Classes {
    parent: Vec<TermId>,
    size: Vec<u32>,
    /// Per class root: the constant term in the class, if any.
    constant: Vec<Option<TermId>>,
    /// Per union: (the absorbed root, the surviving root's previous
    /// constant).
    trail: Vec<(TermId, Option<TermId>)>,
    disequal: Vec<(TermId, TermId)>,
}

impl Classes {
    fn reset(&mut self, constant: &[bool]) {
        let n = constant.len() as TermId;
        self.parent.clear();
        self.parent.extend(0..n);
        self.size.clear();
        self.size.resize(constant.len(), 1);
        self.constant.clear();
        self.constant
            .extend((0..n).map(|t| constant[t as usize].then_some(t)));
        self.trail.clear();
        self.disequal.clear();
    }

    fn find(&self, mut t: TermId) -> TermId {
        while self.parent[t as usize] != t {
            t = self.parent[t as usize];
        }
        t
    }

    /// Is there an asserted disequality between the classes `ra` and `rb`
    /// (both roots)?
    fn separated(&self, ra: TermId, rb: TermId) -> bool {
        self.disequal.iter().any(|&(x, y)| {
            let (rx, ry) = (self.find(x), self.find(y));
            (rx == ra && ry == rb) || (rx == rb && ry == ra)
        })
    }

    /// The truth of `a = b` (`eq`) or `a ≠ b` under the classes.
    fn truth(&self, eq: bool, a: TermId, b: TermId) -> Truth {
        let (ra, rb) = (self.find(a), self.find(b));
        let equal = if ra == rb {
            true
        } else if (self.constant[ra as usize].is_some() && self.constant[rb as usize].is_some())
            || self.separated(ra, rb)
        {
            false
        } else {
            return Truth::Open;
        };
        if equal == eq {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// Asserts `a = b` (`eq`) or `a ≠ b`; `false` on a conflict.
    fn assert(&mut self, eq: bool, a: TermId, b: TermId) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return eq;
        }
        let (ca, cb) = (self.constant[ra as usize], self.constant[rb as usize]);
        if !eq {
            // Classes with two distinct constants can never merge, so the
            // disequality needs no record.
            if ca.is_none() || cb.is_none() {
                self.disequal.push((a, b));
            }
            return true;
        }
        if (ca.is_some() && cb.is_some()) || self.separated(ra, rb) {
            return false;
        }
        let (child, root) = if self.size[ra as usize] < self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[child as usize] = root;
        self.size[root as usize] += self.size[child as usize];
        self.trail.push((child, self.constant[root as usize]));
        self.constant[root as usize] = ca.or(cb);
        true
    }

    /// Undoes every assertion made since the state had `trail` unions and
    /// `disequal` disequalities.
    fn undo(&mut self, trail: usize, disequal: usize) {
        while self.trail.len() > trail {
            let (child, constant) = self.trail.pop().expect("length checked");
            let root = self.parent[child as usize];
            self.parent[child as usize] = child;
            self.size[root as usize] -= self.size[child as usize];
            self.constant[root as usize] = constant;
        }
        self.disequal.truncate(disequal);
    }
}

/// A decision: the state to restore, the live children of the disjunction
/// branched on, and the next child to try.
#[derive(Debug, Clone)]
struct Frame {
    trail: usize,
    disequal: usize,
    open: Vec<NodeId>,
    alternatives: Vec<NodeId>,
    next: usize,
}

/// Where propagation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Propagated {
    /// The asserted (dis)equalities clash.
    Conflict,
    /// Every disjunction is closed and the classes are consistent.
    Model,
    /// Branch on this open disjunction, the one with the fewest live
    /// children.
    Branch(NodeId),
}

/// The search state: asserted classes, subformulas still to assert, open
/// disjunctions, and the decision stack.
#[derive(Debug, Clone, Default)]
struct Search {
    classes: Classes,
    pending: Vec<NodeId>,
    open: Vec<NodeId>,
    frames: Vec<Frame>,
}

impl Search {
    /// Is `root` satisfiable? Also returns the decisions taken; punts once
    /// they exceed `budget`.
    fn run(
        &mut self,
        formula: &Formula,
        root: NodeId,
        budget: usize,
    ) -> (Result<bool, SolverPunt>, usize) {
        self.classes.reset(&formula.constant);
        self.pending.clear();
        self.pending.push(root);
        self.open.clear();
        self.frames.clear();
        let mut decisions = 0;
        loop {
            match self.propagate(formula) {
                Propagated::Model => return (Ok(true), decisions),
                Propagated::Conflict => {}
                Propagated::Branch(or) => self.open_frame(formula, or),
            }
            // Take the next untried alternative of the innermost decision
            // (a fresh one, or the one a conflict just refuted).
            loop {
                let Some(frame) = self.frames.last_mut() else {
                    return (Ok(false), decisions);
                };
                if frame.next == frame.alternatives.len() {
                    self.frames.pop();
                    continue;
                }
                self.classes.undo(frame.trail, frame.disequal);
                self.open.clone_from(&frame.open);
                self.pending.clear();
                // Every model in this branch falsifies the atoms already
                // refuted before it.
                let refuted = frame.alternatives[..frame.next].iter().all(|&c| {
                    match formula.nodes[c as usize] {
                        Node::Atom { eq, a, b } => self.classes.assert(!eq, a, b),
                        _ => true,
                    }
                });
                let alternative = frame.alternatives[frame.next];
                frame.next += 1;
                if !refuted {
                    self.frames.pop();
                    continue;
                }
                decisions += 1;
                if decisions > budget {
                    return (
                        Err(SolverPunt::DecisionBudgetExceeded { budget }),
                        decisions,
                    );
                }
                self.pending.push(alternative);
                break;
            }
        }
    }

    /// Pushes a decision on the open disjunction `or`: its live children
    /// become the alternatives, tried in order against the current state.
    fn open_frame(&mut self, formula: &Formula, or: NodeId) {
        let at = self.open.iter().position(|&n| n == or).expect("open");
        self.open.swap_remove(at);
        let alternatives = formula
            .children(or)
            .iter()
            .copied()
            .filter(|&c| self.truth(formula, c) == Truth::Open)
            .collect();
        self.frames.push(Frame {
            trail: self.classes.trail.len(),
            disequal: self.classes.disequal.len(),
            open: self.open.clone(),
            alternatives,
            next: 0,
        });
    }

    /// Asserts the pending subformulas and propagates through the open
    /// disjunctions to a fixpoint.
    fn propagate(&mut self, formula: &Formula) -> Propagated {
        loop {
            while let Some(node) = self.pending.pop() {
                match formula.nodes[node as usize] {
                    Node::Const(true) => {}
                    Node::Const(false) => return Propagated::Conflict,
                    Node::Atom { eq, a, b } => {
                        if !self.classes.assert(eq, a, b) {
                            return Propagated::Conflict;
                        }
                    }
                    Node::And { .. } => self.pending.extend_from_slice(formula.children(node)),
                    Node::Or { .. } => self.open.push(node),
                }
            }
            // (disjunction, live children) of the narrowest open one.
            let mut narrowest: Option<(NodeId, usize)> = None;
            let mut i = 0;
            while i < self.open.len() {
                let or = self.open[i];
                let mut live = 0;
                let mut last = FALSE;
                let mut closed = false;
                for &child in formula.children(or) {
                    match self.truth(formula, child) {
                        Truth::True => {
                            closed = true;
                            break;
                        }
                        Truth::False => {}
                        Truth::Open => {
                            live += 1;
                            last = child;
                        }
                    }
                }
                match live {
                    _ if closed => {
                        self.open.swap_remove(i);
                    }
                    0 => return Propagated::Conflict,
                    1 => {
                        self.open.swap_remove(i);
                        self.pending.push(last);
                    }
                    _ => {
                        if narrowest.is_none_or(|(_, fewest)| live < fewest) {
                            narrowest = Some((or, live));
                        }
                        i += 1;
                    }
                }
            }
            if self.pending.is_empty() {
                return narrowest.map_or(Propagated::Model, |(or, _)| Propagated::Branch(or));
            }
        }
    }

    /// The truth of a subformula under the current classes: exact for
    /// atoms; for a connective, decided by its atom children alone (a
    /// nested connective counts as open).
    fn truth(&self, formula: &Formula, node: NodeId) -> Truth {
        let (and, kids) = match formula.nodes[node as usize] {
            Node::Atom { eq, a, b } => return self.classes.truth(eq, a, b),
            Node::Const(true) => return Truth::True,
            Node::Const(false) => return Truth::False,
            Node::And { .. } => (true, formula.children(node)),
            Node::Or { .. } => (false, formula.children(node)),
        };
        // An `And` is false as soon as one child is, an `Or` true as soon
        // as one child is; otherwise the connective is decided only when
        // every child is.
        let (decisive, total) = if and {
            (Truth::False, Truth::True)
        } else {
            (Truth::True, Truth::False)
        };
        let mut settled = true;
        for &kid in kids {
            let value = match formula.nodes[kid as usize] {
                Node::Atom { eq, a, b } => self.classes.truth(eq, a, b),
                _ => Truth::Open,
            };
            if value == decisive {
                return decisive;
            }
            settled &= value == total;
        }
        if settled {
            total
        } else {
            Truth::Open
        }
    }
}

/// Brute-force validity over the condition's *adequate* finite domain — its
/// constants plus one fresh constant per null plus one, the same domain
/// shape [`crate::verify`] and the possible-world oracle use. This is the
/// expansion-based test oracle for [`CertaintySolver::is_valid`]:
/// exponential in the number of nulls, which is exactly the cost the solver
/// exists to avoid.
pub fn valid_by_enumeration(condition: &Condition) -> bool {
    adequate_enumerator(condition).all(|v| condition.eval(&v))
}

/// Brute-force satisfiability over the adequate finite domain — the oracle
/// for [`CertaintySolver::is_satisfiable`].
pub fn satisfiable_by_enumeration(condition: &Condition) -> bool {
    adequate_enumerator(condition).any(|v| condition.eval(&v))
}

fn adequate_enumerator(condition: &Condition) -> ValuationEnumerator {
    let nulls = condition.null_ids();
    let domain = domain_with_fresh(&condition.constants(), nulls.len() + 1);
    ValuationEnumerator::new(nulls, domain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmodel::value::Value;

    fn solver() -> CertaintySolver {
        CertaintySolver::new(SolverOptions::default())
    }

    #[test]
    fn tautologies_and_contradictions() {
        let mut s = solver();
        // ⊥0 = 1 ∨ ⊥0 ≠ 1 is valid; ⊥0 = 1 ∧ ⊥0 ≠ 1 is unsatisfiable.
        let taut = Condition::eq(Value::null(0), Value::int(1))
            .or(Condition::neq(Value::null(0), Value::int(1)));
        assert!(s.is_valid(&taut).unwrap());
        let contra = Condition::eq(Value::null(0), Value::int(1))
            .and(Condition::neq(Value::null(0), Value::int(1)));
        assert!(!s.is_satisfiable(&contra).unwrap());
        // A lone atom is satisfiable but not valid.
        let atom = Condition::eq(Value::null(0), Value::int(1));
        assert!(s.is_satisfiable(&atom).unwrap());
        assert!(!s.is_valid(&atom).unwrap());
    }

    #[test]
    fn congruence_closure_is_transitive() {
        let mut s = solver();
        // ⊥0 = ⊥1 ∧ ⊥1 = ⊥2 ∧ ⊥0 ≠ ⊥2 is unsatisfiable only through
        // transitivity — no single atom is contradictory.
        let chain = Condition::eq(Value::null(0), Value::null(1))
            .and(Condition::eq(Value::null(1), Value::null(2)))
            .and(Condition::neq(Value::null(0), Value::null(2)));
        assert!(!s.is_satisfiable(&chain).unwrap());
        // ... and forcing two constants through a null chain clashes.
        let clash = Condition::eq(Value::null(0), Value::int(1))
            .and(Condition::eq(Value::null(0), Value::null(1)))
            .and(Condition::eq(Value::null(1), Value::int(2)));
        assert!(!s.is_satisfiable(&clash).unwrap());
    }

    #[test]
    fn int_and_str_constants_are_distinct() {
        // The PR 2 regression class: Int(1) and Str("1") display identically
        // but denote different constants.
        let mut s = solver();
        let cross = Condition::eq(Value::int(1), Value::str("1"));
        assert!(!s.is_satisfiable(&cross).unwrap());
        assert!(s.is_valid(&cross.clone().negate()).unwrap());
        let via_null = Condition::eq(Value::null(0), Value::int(1))
            .and(Condition::eq(Value::null(0), Value::str("1")));
        assert!(!s.is_satisfiable(&via_null).unwrap());
        assert!(!satisfiable_by_enumeration(&via_null));
    }

    #[test]
    fn infinite_domain_semantics() {
        let mut s = solver();
        // ⊥0 ≠ 1 ∧ ⊥0 ≠ 2 ∧ ⊥0 ≠ ⊥1: satisfiable, a fresh constant exists.
        let c = Condition::neq(Value::null(0), Value::int(1))
            .and(Condition::neq(Value::null(0), Value::int(2)))
            .and(Condition::neq(Value::null(0), Value::null(1)));
        assert!(s.is_satisfiable(&c).unwrap());
        assert!(satisfiable_by_enumeration(&c));
        // "⊥0 is 1 or 2" is NOT valid: the domain is not {1, 2}.
        let closed = Condition::eq(Value::null(0), Value::int(1))
            .or(Condition::eq(Value::null(0), Value::int(2)));
        assert!(!s.is_valid(&closed).unwrap());
        assert!(!valid_by_enumeration(&closed));
    }

    #[test]
    fn entailment() {
        let mut s = solver();
        let premise = Condition::eq(Value::null(0), Value::int(1));
        let conclusion = Condition::neq(Value::null(0), Value::int(2));
        assert!(s.entails(&premise, &conclusion).unwrap());
        assert!(!s.entails(&conclusion, &premise).unwrap());
        // true ⊨ c reduces to validity of c.
        let taut = premise
            .clone()
            .or(Condition::neq(Value::null(0), Value::int(1)));
        assert!(s.entails(&Condition::True, &taut).unwrap());
    }

    #[test]
    fn negation_of_nested_conditions() {
        let mut s = solver();
        // ¬(⊥0 = 1 ∧ (⊥1 = 2 ∨ ⊥0 ≠ ⊥1)) — De Morgan through NNF.
        let inner = Condition::eq(Value::null(0), Value::int(1)).and(
            Condition::eq(Value::null(1), Value::int(2))
                .or(Condition::neq(Value::null(0), Value::null(1))),
        );
        let neg = Condition::Not(Box::new(inner.clone()));
        // c ∨ ¬c valid, c ∧ ¬c unsat — for a non-trivial c.
        assert!(s.is_valid(&inner.clone().or(neg.clone())).unwrap());
        assert!(!s.is_satisfiable(&inner.and(neg)).unwrap());
    }

    /// ⋀_{i<n} (⊥i = 0 ∨ ⊥i = 1): a DNF of 2ⁿ clauses, one decision per
    /// conjunct for the search.
    fn binary_choices(n: u64) -> Condition {
        (0..n).fold(Condition::True, |acc, i| {
            acc.and(
                Condition::eq(Value::null(i), Value::int(0))
                    .or(Condition::eq(Value::null(i), Value::int(1))),
            )
        })
    }

    #[test]
    fn budget_punts_are_explicit() {
        // Three independent binary choices need three decisions; a budget
        // of two must punt, not guess.
        let c = binary_choices(3);
        let mut s = CertaintySolver::new(SolverOptions { max_decisions: 2 });
        match s.is_satisfiable(&c) {
            Err(SolverPunt::DecisionBudgetExceeded { budget }) => assert_eq!(budget, 2),
            other => panic!("expected a budget punt, got {other:?}"),
        }
        // A zero budget punts on the first decision.
        let mut s = CertaintySolver::new(SolverOptions { max_decisions: 0 });
        assert!(s.is_satisfiable(&c).is_err());
        // A generous budget answers the same question, one decision per
        // choice.
        let mut s = solver();
        assert!(s.is_satisfiable(&c).unwrap());
        assert_eq!(s.stats().decisions, 3);
    }

    #[test]
    fn propagation_decides_without_branching() {
        // ⊥0 ≠ 0 ∧ ⊥0 ≠ 1 refutes both children of (⊥0 = 0 ∨ ⊥0 = 1): the
        // conflict is found before any decision, so even a zero budget
        // answers.
        let c = binary_choices(8)
            .and(Condition::neq(Value::null(0), Value::int(0)))
            .and(Condition::neq(Value::null(0), Value::int(1)));
        let mut s = CertaintySolver::new(SolverOptions { max_decisions: 0 });
        assert!(!s.is_satisfiable(&c).unwrap());
        assert_eq!(s.stats().decisions, 0);
        // A disjunction with one live child asserts it: ⊥0 = 1 follows.
        let unit = Condition::neq(Value::null(0), Value::int(0))
            .and(binary_choices(1))
            .and(Condition::neq(Value::null(1), Value::null(0)))
            .and(Condition::eq(Value::null(1), Value::int(1)));
        assert!(!s.is_satisfiable(&unit).unwrap());
    }

    #[test]
    fn backtracking_restores_the_classes() {
        // Under ⊥1 = 2 the branch ⊥0 = ⊥1 dies on (⊥0 = 1 ∨ ⊥0 = 3); the
        // branch ⊥0 = 3 must not inherit its merge.
        let c = Condition::eq(Value::null(0), Value::null(1))
            .or(Condition::eq(Value::null(0), Value::int(3)).and(
                Condition::eq(Value::null(2), Value::null(1))
                    .or(Condition::eq(Value::null(2), Value::int(9))),
            ))
            .and(Condition::eq(Value::null(1), Value::int(2)))
            .and(
                Condition::eq(Value::null(0), Value::int(1))
                    .or(Condition::eq(Value::null(0), Value::int(3))),
            );
        let mut s = solver();
        assert!(s.is_satisfiable(&c).unwrap());
        assert!(satisfiable_by_enumeration(&c));
    }

    #[test]
    fn deep_conditions_do_not_overflow_the_stack() {
        // A 100k-deep alternation of ¬, ∧ and ∨: the compiler and the
        // search both run on explicit stacks.
        let mut c = Condition::eq(Value::null(0), Value::int(0));
        for i in 0..100_000u64 {
            let atom = Condition::neq(Value::null(i % 7), Value::int((i % 3) as i64));
            c = match i % 3 {
                0 => Condition::And(vec![atom, c]),
                1 => Condition::Or(vec![c, atom]),
                _ => Condition::Not(Box::new(c)),
            };
        }
        let mut s = solver();
        let sat = s.is_satisfiable(&c).unwrap();
        let valid = s.is_valid(&c).unwrap();
        assert!(sat || !valid);
        // Dropping the condition recurses; hand it off piece by piece.
        let mut stack = vec![c];
        while let Some(c) = stack.pop() {
            match c {
                Condition::And(cs) | Condition::Or(cs) => stack.extend(cs),
                Condition::Not(inner) => stack.push(*inner),
                _ => {}
            }
        }
    }

    #[test]
    fn stats_count_calls_and_wins() {
        let mut s = solver();
        assert!(s.is_valid(&Condition::True).unwrap());
        assert!(!s.is_satisfiable(&Condition::False).unwrap());
        // Ground atoms are simplification wins too.
        assert!(s
            .is_valid(&Condition::eq(Value::int(1), Value::int(1)))
            .unwrap());
        let real = Condition::eq(Value::null(0), Value::int(1));
        assert!(s.is_satisfiable(&real).unwrap());
        let stats = s.stats();
        assert_eq!(stats.calls, 4);
        assert_eq!(stats.simplification_wins, 3);
    }

    #[test]
    fn punt_displays() {
        let p = SolverPunt::DecisionBudgetExceeded { budget: 4 };
        assert!(p.to_string().contains("budget"));
    }
}
