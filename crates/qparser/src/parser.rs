//! Recursive-descent parser producing [`RaExpr`]s.
//!
//! Every later stage — typechecking, lowering, analysis, each evaluator —
//! walks the expression recursively, so the parser bounds the depth of the
//! trees it builds by [`MAX_DEPTH`]: deeper text is refused with
//! [`ParseError::TooDeep`] instead of overflowing a thread's stack further
//! down. The bound covers left-deep operator chains (`R minus R minus …`,
//! `p and p and …`), which parse iteratively but still build deep trees, and
//! the parser's own recursion, parentheses included.

use std::fmt;

use relalgebra::ast::RaExpr;
use relalgebra::predicate::{Operand, Predicate};

use crate::lexer::{tokenize, LexError, Token};

/// A parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// An unexpected token (or end of input) was found.
    Unexpected {
        /// What was found, rendered as text (`"end of input"` if none).
        found: String,
        /// What the parser was expecting.
        expected: String,
    },
    /// Input continued after a complete expression.
    TrailingInput(String),
    /// The query (its expression tree, a predicate inside it, or its
    /// parenthesised nesting) is deeper than [`MAX_DEPTH`].
    TooDeep {
        /// The depth limit the input exceeded.
        limit: usize,
    },
}

/// The deepest query [`parse`] accepts, for both the expression tree it
/// builds ([`RaExpr::depth`]: each operator of a chain is one level) and
/// the nesting depth of the text, parentheses included. It is the bound
/// `relalgebra` puts on every expression, so any tree `parse` builds also
/// passes `PlannedQuery::new`'s depth check.
pub use relalgebra::ast::MAX_DEPTH;

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { found, expected } => {
                write!(f, "unexpected `{found}`, expected {expected}")
            }
            ParseError::TrailingInput(tok) => {
                write!(f, "unexpected trailing input starting at `{tok}`")
            }
            ParseError::TooDeep { limit } => {
                write!(f, "query nests deeper than the limit of {limit} levels")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parses a query in the textual syntax into a relational algebra expression.
pub fn parse(input: &str) -> Result<RaExpr, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        nesting: 0,
    };
    let (expr, _) = parser.expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(ParseError::TrailingInput(
            parser.tokens[parser.pos].to_string(),
        ));
    }
    Ok(expr)
}

/// A parsed node with the depth of the tree it roots (a leaf is 1).
type Deep<T> = (T, usize);

/// `depth`, unless it exceeds [`MAX_DEPTH`].
fn bounded(depth: usize) -> Result<usize, ParseError> {
    if depth > MAX_DEPTH {
        Err(ParseError::TooDeep { limit: MAX_DEPTH })
    } else {
        Ok(depth)
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// How many nested productions enclose the current position.
    nesting: usize,
}

impl Parser {
    /// Runs `parse` one nesting level deeper, refusing to recurse past
    /// [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<Deep<T>, ParseError>,
    ) -> Result<Deep<T>, ParseError> {
        if self.nesting >= MAX_DEPTH {
            return Err(ParseError::TooDeep { limit: MAX_DEPTH });
        }
        self.nesting += 1;
        let out = parse(self);
        self.nesting -= 1;
        out
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, token: &Token, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if &t == token => Ok(()),
            other => Err(ParseError::Unexpected {
                found: other.map_or_else(|| "end of input".to_owned(), |t| t.to_string()),
                expected: what.to_owned(),
            }),
        }
    }

    fn keyword(&self) -> Option<&str> {
        match self.peek() {
            Some(Token::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn expr(&mut self) -> Result<Deep<RaExpr>, ParseError> {
        let (mut left, mut depth) = self.term()?;
        loop {
            let op = match self.keyword() {
                Some("union") | Some("minus") | Some("intersect") | Some("divide") => {
                    self.keyword().map(str::to_owned)
                }
                _ => None,
            };
            let Some(op) = op else { break };
            self.next();
            let (right, right_depth) = self.term()?;
            depth = bounded(1 + depth.max(right_depth))?;
            left = match op.as_str() {
                "union" => left.union(right),
                "minus" => left.difference(right),
                "intersect" => left.intersection(right),
                "divide" => left.divide(right),
                _ => unreachable!("operator keywords are matched above"),
            };
        }
        Ok((left, depth))
    }

    fn term(&mut self) -> Result<Deep<RaExpr>, ParseError> {
        match self.next() {
            Some(Token::LParen) => {
                let e = self.nested(Self::expr)?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(e)
            }
            Some(Token::Ident(word)) => match word.as_str() {
                "select" => {
                    self.expect(&Token::LBracket, "`[` after select")?;
                    let (pred, pred_depth) = self.nested(Self::predicate)?;
                    self.expect(&Token::RBracket, "`]` after predicate")?;
                    self.expect(&Token::LParen, "`(` after select[..]")?;
                    let (inner, depth) = self.nested(Self::expr)?;
                    self.expect(&Token::RParen, "`)`")?;
                    Ok((inner.select(pred), bounded(1 + depth.max(pred_depth))?))
                }
                "project" => {
                    self.expect(&Token::LBracket, "`[` after project")?;
                    let cols = self.columns()?;
                    self.expect(&Token::RBracket, "`]` after columns")?;
                    self.expect(&Token::LParen, "`(` after project[..]")?;
                    let (inner, depth) = self.nested(Self::expr)?;
                    self.expect(&Token::RParen, "`)`")?;
                    Ok((inner.project(cols), bounded(1 + depth)?))
                }
                "product" => {
                    self.expect(&Token::LParen, "`(` after product")?;
                    let (a, a_depth) = self.nested(Self::expr)?;
                    self.expect(&Token::Comma, "`,` between product operands")?;
                    let (b, b_depth) = self.nested(Self::expr)?;
                    self.expect(&Token::RParen, "`)`")?;
                    Ok((a.product(b), bounded(1 + a_depth.max(b_depth))?))
                }
                "delta" => Ok((RaExpr::Delta, 1)),
                name => Ok((RaExpr::relation(name), 1)),
            },
            other => Err(ParseError::Unexpected {
                found: other.map_or_else(|| "end of input".to_owned(), |t| t.to_string()),
                expected: "an expression".to_owned(),
            }),
        }
    }

    fn columns(&mut self) -> Result<Vec<usize>, ParseError> {
        let mut cols = Vec::new();
        loop {
            if self.peek() == Some(&Token::Hash) {
                self.next();
            }
            match self.next() {
                Some(Token::Number(n)) if n >= 0 => cols.push(n as usize),
                other => {
                    return Err(ParseError::Unexpected {
                        found: other.map_or_else(|| "end of input".to_owned(), |t| t.to_string()),
                        expected: "a non-negative column number".to_owned(),
                    })
                }
            }
            if self.peek() == Some(&Token::Comma) {
                self.next();
            } else {
                break;
            }
        }
        Ok(cols)
    }

    fn predicate(&mut self) -> Result<Deep<Predicate>, ParseError> {
        self.disjunction()
    }

    fn disjunction(&mut self) -> Result<Deep<Predicate>, ParseError> {
        let (mut left, mut depth) = self.conjunction()?;
        while self.keyword() == Some("or") {
            self.next();
            let (right, right_depth) = self.conjunction()?;
            depth = bounded(1 + depth.max(right_depth))?;
            left = left.or(right);
        }
        Ok((left, depth))
    }

    fn conjunction(&mut self) -> Result<Deep<Predicate>, ParseError> {
        let (mut left, mut depth) = self.atom()?;
        while self.keyword() == Some("and") {
            self.next();
            let (right, right_depth) = self.atom()?;
            depth = bounded(1 + depth.max(right_depth))?;
            left = left.and(right);
        }
        Ok((left, depth))
    }

    fn atom(&mut self) -> Result<Deep<Predicate>, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s == "not" => {
                self.next();
                let (p, depth) = self.nested(Self::atom)?;
                Ok((p.negate(), bounded(1 + depth)?))
            }
            Some(Token::Ident(s)) if s == "true" => {
                self.next();
                Ok((Predicate::True, 1))
            }
            Some(Token::Ident(s)) if s == "false" => {
                self.next();
                Ok((Predicate::False, 1))
            }
            Some(Token::LParen) => {
                self.next();
                let p = self.nested(Self::predicate)?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(p)
            }
            _ => {
                let left = self.operand()?;
                let negated = match self.next() {
                    Some(Token::Eq) => false,
                    Some(Token::NotEq) => true,
                    other => {
                        return Err(ParseError::Unexpected {
                            found: other
                                .map_or_else(|| "end of input".to_owned(), |t| t.to_string()),
                            expected: "`=` or `!=`".to_owned(),
                        })
                    }
                };
                let right = self.operand()?;
                let atom = if negated {
                    Predicate::neq(left, right)
                } else {
                    Predicate::eq(left, right)
                };
                Ok((atom, 1))
            }
        }
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        match self.next() {
            Some(Token::Hash) => match self.next() {
                Some(Token::Number(n)) if n >= 0 => Ok(Operand::col(n as usize)),
                other => Err(ParseError::Unexpected {
                    found: other.map_or_else(|| "end of input".to_owned(), |t| t.to_string()),
                    expected: "a column number after `#`".to_owned(),
                }),
            },
            Some(Token::Number(n)) => Ok(Operand::int(n)),
            Some(Token::Str(s)) => Ok(Operand::str(s)),
            other => Err(ParseError::Unexpected {
                found: other.map_or_else(|| "end of input".to_owned(), |t| t.to_string()),
                expected: "`#<col>`, a number, or a string".to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalgebra::classify::{classify, QueryClass};

    #[test]
    fn parses_the_unpaid_orders_query() {
        let q = parse("project[#0](Order) minus project[#1](Pay)").unwrap();
        assert_eq!(q.to_string(), "(π[#0](Order) − π[#1](Pay))");
        assert_eq!(classify(&q), QueryClass::FullRa);
    }

    #[test]
    fn parses_selection_predicates() {
        let q = parse("project[#0](select[#1 = 'oid1' or #1 != 'oid1'](Pay))").unwrap();
        assert!(q.to_string().contains("oid1"));
        let q = parse("select[not (#0 = 1) and true](R)").unwrap();
        assert_eq!(classify(&q), QueryClass::FullRa);
        let q = parse("select[#0 = 1 and #1 = #2](product(R, S))").unwrap();
        assert_eq!(classify(&q), QueryClass::Positive);
    }

    #[test]
    fn parses_set_operators_left_associatively() {
        let q = parse("R union S union T").unwrap();
        assert_eq!(q.to_string(), "((R ∪ S) ∪ T)");
        let q = parse("R minus S intersect T").unwrap();
        assert_eq!(q.to_string(), "((R − S) ∩ T)");
    }

    #[test]
    fn parses_division_and_delta() {
        let q = parse("R divide project[#0](S)").unwrap();
        assert_eq!(classify(&q), QueryClass::RaCwa);
        let q = parse("R divide delta").unwrap();
        assert_eq!(classify(&q), QueryClass::RaCwa);
    }

    #[test]
    fn parses_parenthesised_expressions() {
        let q = parse("R minus (S union T)").unwrap();
        assert_eq!(q.to_string(), "(R − (S ∪ T))");
    }

    #[test]
    fn boolean_projection() {
        // project[] is not valid (needs at least one column); a Boolean query is
        // written by projecting onto no columns via "project[](..)" — we require
        // at least one number, so use the library API for that. Check the error.
        assert!(parse("project[](R)").is_err());
    }

    #[test]
    fn error_cases() {
        assert!(parse("").is_err());
        assert!(parse("select[#0 = ](R)").is_err());
        assert!(parse("project[#0](R) extra").is_err());
        assert!(parse("select[#0 1](R)").is_err());
        assert!(parse("product(R)").is_err());
        assert!(parse("select #0 = 1 (R)").is_err());
        assert!(parse("project[#-1](R)").is_err());
        let err = parse("select['a' <> ](R)").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn depth_is_bounded_at_the_limit_exactly() {
        let too_deep = Err(ParseError::TooDeep { limit: MAX_DEPTH });
        // Chains: the limit is the tree's depth, not the recursion's.
        let chain = |n: usize| vec!["R"; n].join(" minus ");
        assert_eq!(parse(&chain(MAX_DEPTH)).unwrap().depth(), MAX_DEPTH);
        assert_eq!(parse(&chain(MAX_DEPTH + 1)), too_deep);
        let conj = |n: usize| format!("select[{}](R)", vec!["#0 = 1"; n].join(" and "));
        assert_eq!(parse(&conj(MAX_DEPTH - 1)).unwrap().depth(), MAX_DEPTH);
        assert_eq!(parse(&conj(MAX_DEPTH)), too_deep);
        // Prefix nesting: projections, negations, parentheses.
        let nest =
            |open: &str, close: &str, n: usize| format!("{}R{}", open.repeat(n), close.repeat(n));
        assert_eq!(
            parse(&nest("project[#0](", ")", MAX_DEPTH - 1))
                .unwrap()
                .depth(),
            MAX_DEPTH
        );
        assert_eq!(parse(&nest("project[#0](", ")", MAX_DEPTH)), too_deep);
        let nots = format!("select[{}#0 = 1](R)", "not ".repeat(MAX_DEPTH));
        assert_eq!(parse(&nots), too_deep);
        // Parentheses build no tree, but each one is a level of recursion.
        assert_eq!(
            parse(&nest("(", ")", MAX_DEPTH)).unwrap(),
            RaExpr::relation("R")
        );
        assert_eq!(parse(&nest("(", ")", MAX_DEPTH + 1)), too_deep);
        let message = ParseError::TooDeep { limit: MAX_DEPTH }.to_string();
        assert!(message.contains("128"), "{message}");
    }
}
