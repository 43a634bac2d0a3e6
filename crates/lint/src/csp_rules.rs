//! Unguarded recursion (`CSP202`) in a CSPm module, before elaboration.
//!
//! A process that can reach itself without performing an event first can
//! unwind forever. This is the one CSPm check that reads the syntax: the
//! alphabet coverage of parallel compositions and the reachability of
//! definitions are judged on the elaborated model by `cspm::analyze`
//! (`ANA301`–`ANA304`).
//!
//! The check ignores values, so it errs towards reporting: a recursion that
//! a condition ends, such as `P(n) = if n == 0 then STOP else P(n-1)`, is
//! flagged although it terminates. Every walk keeps an explicit stack, so an
//! operator chain costs no native stack frame per link.

use std::collections::{HashMap, HashSet};

use cspm::ast::{Decl, Expr, Module};
use diag::{Diagnostic, Span};

use crate::codes;

/// One definition as the linter sees it.
struct Def<'a> {
    params: &'a [String],
    body: &'a Expr,
    span: Span,
}

/// The CSPm structural lint for `module`: a `CSP202` warning for each
/// definition that can recurse without performing an event first, in name
/// order.
pub fn lint_module(module: &Module) -> Vec<Diagnostic> {
    let mut defs: HashMap<&str, Def<'_>> = HashMap::new();
    for d in &module.decls {
        if let Decl::Definition {
            name,
            params,
            body,
            pos,
            ..
        } = d
        {
            let span = Span::new(pos.line, pos.col, name.len().max(1) as u32);
            defs.insert(name, Def { params, body, span });
        }
    }

    // Edges: definition -> definitions reachable without passing a prefix.
    let edges: HashMap<&str, Vec<&str>> = defs
        .iter()
        .map(|(&name, def)| (name, unguarded_succ(def, &defs)))
        .collect();

    let mut names: Vec<&str> = defs.keys().copied().collect();
    names.sort_unstable();
    names
        .into_iter()
        .filter(|name| reaches_itself(name, &edges))
        .map(|name| {
            Diagnostic::warning(
                codes::UNGUARDED_RECURSION,
                defs[name].span,
                format!("process `{name}` can recurse without performing an event first"),
            )
            .with_note("unguarded recursion lets the process unwind forever (divergence)")
        })
        .collect()
}

/// Whether `name` can reach itself along `edges`, which has an entry for
/// every definition.
fn reaches_itself(name: &str, edges: &HashMap<&str, Vec<&str>>) -> bool {
    let mut visited = HashSet::new();
    let mut stack = vec![name];
    while let Some(at) = stack.pop() {
        for &next in &edges[at] {
            if next == name {
                return true;
            }
            if visited.insert(next) {
                stack.push(next);
            }
        }
    }
    false
}

/// Names of the definitions `def`'s body reaches without passing through an
/// event prefix, sorted. Parameters, replicated variables and `let` names
/// shadow definitions of the same name within their scope.
fn unguarded_succ<'a>(def: &Def<'a>, defs: &HashMap<&'a str, Def<'a>>) -> Vec<&'a str> {
    /// Visit an expression, or drop the names bound since the shadow list
    /// had this length.
    enum Step<'a> {
        Visit(&'a Expr),
        Unbind(usize),
    }

    let mut shadow: Vec<&str> = def.params.iter().map(String::as_str).collect();
    let mut steps = vec![Step::Visit(def.body)];
    let mut out = Vec::new();
    while let Some(step) = steps.pop() {
        let e = match step {
            Step::Visit(e) => e,
            Step::Unbind(depth) => {
                shadow.truncate(depth);
                continue;
            }
        };
        match e {
            // Everything beyond a prefix is guarded by its event.
            Expr::Prefix { .. } => {}
            Expr::Name(n) | Expr::Call { name: n, .. } => {
                let name = n.as_str();
                if defs.contains_key(name) && !shadow.contains(&name) {
                    out.push(name);
                }
            }
            Expr::Guard { body: a, .. }
            | Expr::Hide { process: a, .. }
            | Expr::Rename { process: a, .. } => steps.push(Step::Visit(a)),
            Expr::ExtChoice(a, b)
            | Expr::IntChoice(a, b)
            | Expr::Interleave(a, b)
            | Expr::Interrupt(a, b)
            | Expr::Timeout(a, b)
            | Expr::Parallel {
                left: a, right: b, ..
            }
            | Expr::If {
                then: a, els: b, ..
            } => steps.extend([Step::Visit(b), Step::Visit(a)]),
            Expr::Seq(a, b) => {
                if terminates_silently(a) {
                    steps.push(Step::Visit(b));
                }
                steps.push(Step::Visit(a));
            }
            Expr::Replicated { var, body, .. } => {
                steps.push(Step::Unbind(shadow.len()));
                shadow.push(var);
                steps.push(Step::Visit(body));
            }
            Expr::Let { bindings, body } => {
                steps.push(Step::Unbind(shadow.len()));
                shadow.extend(bindings.iter().map(|(name, _)| name.as_str()));
                steps.push(Step::Visit(body));
            }
            _ => {}
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Whether `e` can terminate (reach `SKIP`) without performing any event —
/// purely syntactic, erring towards `false`.
fn terminates_silently(e: &Expr) -> bool {
    /// Evaluate an expression, or combine the top two results.
    enum Step<'a> {
        Eval(&'a Expr),
        And,
        Or,
    }

    let mut steps = vec![Step::Eval(e)];
    let mut results: Vec<bool> = Vec::new();
    while let Some(step) = steps.pop() {
        match step {
            Step::Eval(Expr::Skip) => results.push(true),
            Step::Eval(Expr::Seq(a, b)) => {
                steps.extend([Step::And, Step::Eval(b), Step::Eval(a)]);
            }
            Step::Eval(
                Expr::ExtChoice(a, b)
                | Expr::IntChoice(a, b)
                | Expr::Timeout(a, b)
                | Expr::If {
                    then: a, els: b, ..
                },
            ) => steps.extend([Step::Or, Step::Eval(b), Step::Eval(a)]),
            Step::Eval(Expr::Guard { body, .. } | Expr::Let { body, .. }) => {
                steps.push(Step::Eval(body));
            }
            Step::Eval(_) => results.push(false),
            Step::And | Step::Or => {
                let b = results.pop().expect("both operands evaluated");
                let a = results.pop().expect("both operands evaluated");
                results.push(if let Step::And = step { a && b } else { a || b });
            }
        }
    }
    results.pop() == Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definitions `src` is flagged for, after checking that every
    /// finding is a `CSP202`.
    fn flagged(src: &str) -> Vec<String> {
        let script = cspm::Script::parse(src).expect("fixture parses");
        lint_module(script.module())
            .iter()
            .map(|d| {
                assert_eq!(d.code, codes::UNGUARDED_RECURSION, "{d:?}");
                d.message.split('`').nth(1).unwrap().to_string()
            })
            .collect()
    }

    #[test]
    fn unguarded_recursion_is_flagged() {
        assert_eq!(flagged("channel a\nP = P [] a -> STOP\n"), ["P"]);
    }

    #[test]
    fn mutual_unguarded_recursion_is_flagged() {
        assert_eq!(
            flagged("channel a\nP = Q\nQ = P [] a -> STOP\n"),
            ["P", "Q"]
        );
    }

    #[test]
    fn guarded_recursion_is_clean() {
        assert!(flagged("channel a\nP = a -> P\n").is_empty());
    }

    #[test]
    fn skip_seq_recursion_is_flagged() {
        assert_eq!(flagged("channel a\nP = SKIP ; P\n"), ["P"]);
    }

    #[test]
    fn event_seq_recursion_is_clean() {
        assert!(flagged("channel a\nP = (a -> SKIP) ; P\n").is_empty());
    }

    #[test]
    fn silent_termination_follows_choices_and_sequences() {
        assert_eq!(
            flagged("channel a\nP = ((a -> SKIP) [] (SKIP ; SKIP)) ; P\n"),
            ["P"]
        );
        assert!(flagged("channel a\nP = (SKIP ; (a -> SKIP)) ; P\n").is_empty());
    }

    #[test]
    fn bound_names_shadow_definitions_only_within_their_scope() {
        assert!(flagged("channel a\nP = let P = a -> STOP within P\n").is_empty());
        assert_eq!(
            flagged("channel a\nP = (let P = a -> STOP within P) [] P\n"),
            ["P"]
        );
        assert!(flagged("channel a\nP(P) = P [] a -> STOP\n").is_empty());
        assert!(flagged("channel a : {0..1}\nP = ([] P : {0..1} @ P) [] a.0 -> STOP\n").is_empty());
        assert_eq!(
            flagged("channel a : {0..1}\nP = ([] x : {0..1} @ P) [] a.0 -> STOP\n"),
            ["P"]
        );
    }

    #[test]
    fn a_terminating_conditional_recursion_is_a_known_false_positive() {
        assert_eq!(
            flagged("P(n) = if n == 0 then STOP else P(n-1)\nQ = P(3)\n"),
            ["P"]
        );
    }

    #[test]
    fn one_sided_synchronisation_is_left_to_the_semantic_analysis() {
        assert!(
            flagged("channel a, b\nP = a -> P\nQ = b -> Q\nSYS = P [| {a, b} |] Q\n").is_empty()
        );
    }
}
