//! A tour of conditional tables: the strong representation system the paper
//! recalls in §2, and why its answers are "hardly meaningful to humans".
//!
//! Run with `cargo run --example ctables_tour`.

use ctables::prelude::*;
use qparser::parse;
use relmodel::builder::difference_example;
use relmodel::display::render_database;

fn main() {
    // R = {1, 2}, S = {⊥}: the paper's difference example.
    let db = difference_example();
    println!("Database:\n{}", render_database(&db));

    let cdb = ConditionalDatabase::from_database(&db);
    let q = parse("R minus S").unwrap();
    println!("Query: {q}\n");

    // The Imieliński–Lipski algebra produces a conditional table capturing all
    // possible answers at once.
    let answer = eval_ctable(&q, &cdb).unwrap();
    println!("Conditional answer table:\n{answer}");
    println!(
        "({} condition atoms for a two-tuple answer.)\n",
        answer.condition_atoms()
    );

    // Its worlds are exactly Q([[D]]_cwa) = {{1,2}, {1}, {2}}.
    let check = ctables::verify::check_strong_representation(&q, &cdb, 2).unwrap();
    println!(
        "Possible answers of the query ({} of them):",
        check.query_of_worlds.len()
    );
    for world in &check.query_of_worlds {
        println!("  {world}");
    }
    println!("Strong representation holds: {}", check.holds());

    // Growing the query grows the conditions quickly — the usability critique.
    let nested = parse("(R minus S) minus (S minus R)").unwrap();
    let nested_answer = eval_ctable(&nested, &cdb).unwrap();
    println!(
        "\nFor the nested query {nested} the answer already carries {} condition atoms:",
        nested_answer.condition_atoms()
    );
    println!("{nested_answer}");

    // ── Certain answers without enumerating a single world. ───────────────
    //
    // The same conditional table, asked a different question: a tuple t is
    // certain iff ⋁ᵢ (tᵢ = t ∧ cᵢ) holds under EVERY valuation — a validity
    // question the certainty solver decides by a DPLL-style search over
    // (dis)equalities on the infinite constant domain. This is
    // `releval::symbolic`, the engine's default strategy for full RA under
    // CWA.
    use relalgebra::plan::PlannedQuery;
    use releval::symbolic::{symbolic_certain_answer, SymbolicOptions, SymbolicOutcome};

    println!("── certain answers, symbolically ──");
    for text in ["R minus S", "R union S", "(R minus S) minus (S minus R)"] {
        let q = parse(text).unwrap();
        let plan = PlannedQuery::new(q, db.schema()).unwrap();
        match symbolic_certain_answer(&plan, &db, &SymbolicOptions::default()) {
            SymbolicOutcome::Answered(exec) => println!(
                "certain({text}) = {}   [{} solver call(s), {} condition atoms, 0 worlds]",
                exec.answers, exec.solver_calls, exec.condition_atoms
            ),
            SymbolicOutcome::Punted(reason) => println!("certain({text}): punted — {reason}"),
        }
    }

    // A disjunctive certainty the classical intersection needs every world
    // for: "R − S is nonempty" is certainly true even though no specific
    // tuple of R − S is certain.
    let boolean = parse("R minus S").unwrap().project(vec![]);
    let plan = PlannedQuery::new(boolean, db.schema()).unwrap();
    if let SymbolicOutcome::Answered(exec) =
        symbolic_certain_answer(&plan, &db, &SymbolicOptions::default())
    {
        println!(
            "certainly-true(R minus S ≠ ∅) = {}   — proven by one validity query",
            !exec.answers.is_empty()
        );
    }
}
