//! Recursive-descent parser for the CSPm subset.
//!
//! Operator precedence, loosest to tightest (matching FDR's manual closely
//! enough for the scripts this toolchain emits and consumes):
//!
//! ```text
//! [|A|]  |||                 (parallel, interleave)
//! |~|                        (internal choice)
//! []                         (external choice)
//! ;                          (sequential composition)
//! &                          (guard)
//! or / and / not             (boolean)
//! == != < <= > >=            (comparison)
//! + -                        (additive)
//! * / %                      (multiplicative)
//! \  [[..]]                  (hiding, renaming — postfix)
//! e -> P                     (prefix, parsed at atom level)
//! ```

use crate::ast::*;
use crate::error::{CspmError, Pos};
use crate::lexer::{Token, TokenKind};

/// Parse a token stream into a [`Module`].
///
/// # Errors
///
/// [`CspmError::Parse`] on the first syntax error.
pub(crate) fn parse_module(tokens: &[Token]) -> Result<Module, CspmError> {
    let mut p = Parser {
        tokens,
        i: 0,
        depth: 0,
    };
    let mut decls = Vec::new();
    while !p.at_eof() {
        decls.push(p.decl()?);
    }
    Ok(Module { decls })
}

/// How deep expressions may nest, counted in atoms: each parenthesis,
/// brace, prefix `->`, unary operator or call argument opens one level.
/// Deeper input is a parse error instead of a stack overflow.
///
/// Every example script and every script the benchmark generates nests
/// at most 7 deep. A release build parses about 450 nested parentheses
/// in a 2 MiB thread stack and a debug build about 300 in 8 MiB, so the
/// limit leaves at least twice the room in both.
pub(crate) const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    tokens: &'a [Token],
    i: usize,
    /// Atoms open around `i`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.i.min(self.tokens.len() - 1)].kind
    }

    fn pos(&self) -> Pos {
        self.tokens[self.i.min(self.tokens.len() - 1)].pos
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.i].kind.clone();
        if self.i < self.tokens.len() - 1 {
            self.i += 1;
        }
        k
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, CspmError> {
        Err(CspmError::Parse {
            pos: self.pos(),
            message: message.into(),
        })
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), CspmError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, CspmError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected {what}, found {other:?}")),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw)
    }

    // ---- declarations -------------------------------------------------

    fn decl(&mut self) -> Result<Decl, CspmError> {
        if self.is_kw("channel") {
            self.bump();
            return self.channel_decl();
        }
        if self.is_kw("datatype") {
            self.bump();
            return self.datatype_decl();
        }
        if self.is_kw("nametype") {
            self.bump();
            let name = self.ident("nametype name")?;
            self.expect(&TokenKind::Eq, "`=`")?;
            let value = self.expr()?;
            return Ok(Decl::Nametype { name, value });
        }
        if self.is_kw("assert") {
            self.bump();
            return Ok(Decl::Assert(self.assertion()?));
        }
        // Definition: Name [ ( params ) ] = body
        let pos = self.pos();
        let name = self.ident("definition name")?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                params.push(self.ident("parameter name")?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, "`)`")?;
        }
        self.expect(&TokenKind::Eq, "`=`")?;
        let body = self.expr()?;
        Ok(Decl::Definition {
            name,
            params,
            body,
            pos,
        })
    }

    fn channel_decl(&mut self) -> Result<Decl, CspmError> {
        let mut names = vec![self.ident("channel name")?];
        while self.eat(&TokenKind::Comma) {
            names.push(self.ident("channel name")?);
        }
        let mut fields = Vec::new();
        if self.eat(&TokenKind::Colon) {
            fields.push(self.type_expr()?);
            while self.eat(&TokenKind::Dot) {
                fields.push(self.type_expr()?);
            }
        }
        Ok(Decl::Channel { names, fields })
    }

    fn datatype_decl(&mut self) -> Result<Decl, CspmError> {
        let name = self.ident("datatype name")?;
        self.expect(&TokenKind::Eq, "`=`")?;
        let mut ctors = vec![self.ctor()?];
        while self.eat(&TokenKind::Bar) {
            ctors.push(self.ctor()?);
        }
        Ok(Decl::Datatype { name, ctors })
    }

    fn ctor(&mut self) -> Result<Ctor, CspmError> {
        let name = self.ident("constructor name")?;
        let mut fields = Vec::new();
        while self.eat(&TokenKind::Dot) {
            fields.push(self.type_expr()?);
        }
        Ok(Ctor { name, fields })
    }

    fn type_expr(&mut self) -> Result<TypeExpr, CspmError> {
        if matches!(self.peek(), TokenKind::LBrace) {
            let e = self.atom()?;
            Ok(TypeExpr::Set(Box::new(e)))
        } else {
            Ok(TypeExpr::Name(self.ident("type name")?))
        }
    }

    fn assertion(&mut self) -> Result<Assertion, CspmError> {
        let lhs = self.expr()?;
        match self.peek().clone() {
            TokenKind::RefinesTraces => {
                self.bump();
                let rhs = self.expr()?;
                Ok(Assertion::Refinement {
                    spec: lhs,
                    impl_: rhs,
                    model: RefModel::Traces,
                })
            }
            TokenKind::RefinesFailures => {
                self.bump();
                let rhs = self.expr()?;
                Ok(Assertion::Refinement {
                    spec: lhs,
                    impl_: rhs,
                    model: RefModel::Failures,
                })
            }
            TokenKind::RefinesFailuresDivergences => {
                self.bump();
                let rhs = self.expr()?;
                Ok(Assertion::Refinement {
                    spec: lhs,
                    impl_: rhs,
                    model: RefModel::FailuresDivergences,
                })
            }
            TokenKind::ColonLBracket => {
                self.bump();
                let word = self.ident("property name")?;
                let property = match word.as_str() {
                    "deadlock" => {
                        let free = self.ident("`free`")?;
                        if free != "free" {
                            return self.err("expected `free` after `deadlock`");
                        }
                        PropKind::DeadlockFree
                    }
                    "divergence" => {
                        let free = self.ident("`free`")?;
                        if free != "free" {
                            return self.err("expected `free` after `divergence`");
                        }
                        PropKind::DivergenceFree
                    }
                    "deterministic" => PropKind::Deterministic,
                    other => return self.err(format!("unknown property `{other}`")),
                };
                self.expect(&TokenKind::RBracket, "`]`")?;
                Ok(Assertion::Property {
                    process: lhs,
                    property,
                })
            }
            other => self.err(format!(
                "expected `[T=`, `[F=` or `:[` in assertion, found {other:?}"
            )),
        }
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr, CspmError> {
        self.parallel()
    }

    fn parallel(&mut self) -> Result<Expr, CspmError> {
        let mut lhs = self.int_choice()?;
        loop {
            if self.eat(&TokenKind::Interleave) {
                let rhs = self.int_choice()?;
                lhs = Expr::Interleave(Box::new(lhs), Box::new(rhs));
            } else if self.eat(&TokenKind::LParBar) {
                let sync = self.expr()?;
                self.expect(&TokenKind::RParBar, "`|]`")?;
                let rhs = self.int_choice()?;
                lhs = Expr::Parallel {
                    left: Box::new(lhs),
                    sync: Box::new(sync),
                    right: Box::new(rhs),
                };
            } else {
                return Ok(lhs);
            }
        }
    }

    fn int_choice(&mut self) -> Result<Expr, CspmError> {
        let mut lhs = self.ext_choice()?;
        while self.eat(&TokenKind::IntChoice) {
            let rhs = self.ext_choice()?;
            lhs = Expr::IntChoice(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn ext_choice(&mut self) -> Result<Expr, CspmError> {
        let mut lhs = self.interrupt_timeout()?;
        while self.eat(&TokenKind::ExtChoice) {
            let rhs = self.interrupt_timeout()?;
            lhs = Expr::ExtChoice(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn interrupt_timeout(&mut self) -> Result<Expr, CspmError> {
        let mut lhs = self.seq()?;
        loop {
            if self.eat(&TokenKind::InterruptOp) {
                let rhs = self.seq()?;
                lhs = Expr::Interrupt(Box::new(lhs), Box::new(rhs));
            } else if self.eat(&TokenKind::TimeoutOp) {
                let rhs = self.seq()?;
                lhs = Expr::Timeout(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn seq(&mut self) -> Result<Expr, CspmError> {
        let mut lhs = self.guard()?;
        while self.eat(&TokenKind::Semi) {
            let rhs = self.guard()?;
            lhs = Expr::Seq(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// `c1 & c2 & P`, right-associated, read in a loop.
    fn guard(&mut self) -> Result<Expr, CspmError> {
        let mut body = self.bool_or()?;
        let mut conds = Vec::new();
        while self.eat(&TokenKind::Amp) {
            conds.push(std::mem::replace(&mut body, self.bool_or()?));
        }
        while let Some(cond) = conds.pop() {
            body = Expr::Guard {
                cond: Box::new(cond),
                body: Box::new(body),
            };
        }
        Ok(body)
    }

    fn bool_or(&mut self) -> Result<Expr, CspmError> {
        let mut lhs = self.bool_and()?;
        while self.is_kw("or") {
            self.bump();
            let rhs = self.bool_and()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn bool_and(&mut self) -> Result<Expr, CspmError> {
        let mut lhs = self.comparison()?;
        while self.is_kw("and") {
            self.bump();
            let rhs = self.comparison()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn comparison(&mut self) -> Result<Expr, CspmError> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::NotEq => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.additive()?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn additive(&mut self) -> Result<Expr, CspmError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, CspmError> {
        let mut lhs = self.postfix()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.postfix()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn postfix(&mut self) -> Result<Expr, CspmError> {
        let mut e = self.atom()?;
        loop {
            if self.eat(&TokenKind::Backslash) {
                let set = self.atom()?;
                e = Expr::Hide {
                    process: Box::new(e),
                    set: Box::new(set),
                };
            } else if self.eat(&TokenKind::LRenameBracket) {
                let mut pairs = Vec::new();
                loop {
                    let from = self.event_pattern()?;
                    self.expect(&TokenKind::LeftArrow, "`<-`")?;
                    let to = self.event_pattern()?;
                    pairs.push((from, to));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RRenameBracket, "`]]`")?;
                e = Expr::Rename {
                    process: Box::new(e),
                    pairs,
                };
            } else {
                return Ok(e);
            }
        }
    }

    /// One atom, one level deeper; past [`MAX_DEPTH`] levels, an error at
    /// the token that would open the next one.
    fn atom(&mut self) -> Result<Expr, CspmError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("expression nested deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let atom = self.atom_body();
        self.depth -= 1;
        atom
    }

    fn atom_body(&mut self) -> Result<Expr, CspmError> {
        match self.peek().clone() {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::Int(n))
            }
            TokenKind::Minus => {
                self.bump();
                let e = self.postfix()?;
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(e),
                })
            }
            TokenKind::Ident(name) => self.ident_led(name),
            TokenKind::LParen => {
                self.bump();
                let first = self.expr()?;
                if self.eat(&TokenKind::Comma) {
                    let mut items = vec![first];
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen, "`)`")?;
                    Ok(Expr::Tuple(items))
                } else {
                    self.expect(&TokenKind::RParen, "`)`")?;
                    // A parenthesised event expression may still be prefixed.
                    Ok(first)
                }
            }
            TokenKind::LBrace => {
                self.bump();
                if self.eat(&TokenKind::RBrace) {
                    return Ok(Expr::SetLit(Vec::new()));
                }
                let first = self.expr()?;
                if self.eat(&TokenKind::DotDot) {
                    let hi = self.expr()?;
                    self.expect(&TokenKind::RBrace, "`}`")?;
                    return Ok(Expr::RangeSet {
                        lo: Box::new(first),
                        hi: Box::new(hi),
                    });
                }
                if self.eat(&TokenKind::Bar) {
                    // Comprehension: { head | x <- S, guard, ... }
                    let mut binders = Vec::new();
                    let mut guards = Vec::new();
                    loop {
                        // `ident <-` starts a generator; anything else is a
                        // guard expression.
                        let is_binder = matches!(self.peek(), TokenKind::Ident(_))
                            && self.tokens.get(self.i + 1).map(|t| &t.kind)
                                == Some(&TokenKind::LeftArrow);
                        if is_binder {
                            let var = self.ident("binder variable")?;
                            self.expect(&TokenKind::LeftArrow, "`<-`")?;
                            binders.push((var, self.expr()?));
                        } else {
                            guards.push(self.expr()?);
                        }
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RBrace, "`}`")?;
                    return Ok(Expr::SetComprehension {
                        head: Box::new(first),
                        binders,
                        guards,
                    });
                }
                let mut items = vec![first];
                while self.eat(&TokenKind::Comma) {
                    items.push(self.expr()?);
                }
                self.expect(&TokenKind::RBrace, "`}`")?;
                Ok(Expr::SetLit(items))
            }
            TokenKind::LBraceBar => {
                self.bump();
                let mut pats = vec![self.event_pattern()?];
                while self.eat(&TokenKind::Comma) {
                    pats.push(self.event_pattern()?);
                }
                self.expect(&TokenKind::RBraceBar, "`|}`")?;
                Ok(Expr::Productions(pats))
            }
            TokenKind::Lt => {
                self.bump();
                if self.eat(&TokenKind::Gt) {
                    return Ok(Expr::SeqLit(Vec::new()));
                }
                // Items are parsed at additive level so that the closing `>`
                // is not taken as a comparison operator.
                let mut items = vec![self.additive()?];
                while self.eat(&TokenKind::Comma) {
                    items.push(self.additive()?);
                }
                self.expect(&TokenKind::Gt, "`>`")?;
                Ok(Expr::SeqLit(items))
            }
            TokenKind::ExtChoice => {
                self.bump();
                self.replicated(ReplOp::ExtChoice)
            }
            TokenKind::IntChoice => {
                self.bump();
                self.replicated(ReplOp::IntChoice)
            }
            TokenKind::Interleave => {
                self.bump();
                self.replicated(ReplOp::Interleave)
            }
            TokenKind::Semi => {
                self.bump();
                self.replicated(ReplOp::Seq)
            }
            other => self.err(format!("unexpected token {other:?} in expression")),
        }
    }

    fn replicated(&mut self, op: ReplOp) -> Result<Expr, CspmError> {
        let var = self.ident("bound variable")?;
        self.expect(&TokenKind::Colon, "`:`")?;
        let set = self.expr()?;
        self.expect(&TokenKind::At, "`@`")?;
        let body = self.expr()?;
        Ok(Expr::Replicated {
            op,
            var,
            set: Box::new(set),
            body: Box::new(body),
        })
    }

    /// Parse an expression beginning with an identifier: keyword forms,
    /// calls, dotted values, event patterns, and prefixes.
    fn ident_led(&mut self, name: String) -> Result<Expr, CspmError> {
        match name.as_str() {
            "STOP" => {
                self.bump();
                return Ok(Expr::Stop);
            }
            "SKIP" => {
                self.bump();
                return Ok(Expr::Skip);
            }
            "true" => {
                self.bump();
                return Ok(Expr::Bool(true));
            }
            "false" => {
                self.bump();
                return Ok(Expr::Bool(false));
            }
            "not" => {
                self.bump();
                let e = self.comparison()?;
                return Ok(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(e),
                });
            }
            "if" => {
                self.bump();
                let cond = self.expr()?;
                let kw = self.ident("`then`")?;
                if kw != "then" {
                    return self.err("expected `then`");
                }
                let then = self.expr()?;
                let kw = self.ident("`else`")?;
                if kw != "else" {
                    return self.err("expected `else`");
                }
                let els = self.expr()?;
                return Ok(Expr::If {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                });
            }
            "let" => {
                self.bump();
                let mut bindings = Vec::new();
                loop {
                    let n = self.ident("binding name")?;
                    self.expect(&TokenKind::Eq, "`=`")?;
                    let v = self.expr()?;
                    bindings.push((n, v));
                    if self.is_kw("within") {
                        self.bump();
                        break;
                    }
                }
                let body = self.expr()?;
                return Ok(Expr::Let {
                    bindings,
                    body: Box::new(body),
                });
            }
            _ => {}
        }

        self.bump(); // consume the identifier

        // Call syntax f(a, b)?
        if self.eat(&TokenKind::LParen) {
            let mut args = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen, "`)`")?;
            }
            return Ok(Expr::Call { name, args });
        }

        // Event-pattern fields.
        let mut fields: Vec<FieldPat> = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    self.bump();
                    fields.push(FieldPat::Dot(self.simple_atom()?));
                }
                TokenKind::Bang => {
                    self.bump();
                    fields.push(FieldPat::Output(self.simple_atom()?));
                }
                TokenKind::Question => {
                    self.bump();
                    let var = self.ident("input variable")?;
                    let restrict = if self.eat(&TokenKind::Colon) {
                        Some(self.simple_atom()?)
                    } else {
                        None
                    };
                    fields.push(FieldPat::Input { var, restrict });
                }
                _ => break,
            }
        }

        if self.eat(&TokenKind::Arrow) {
            let body = self.guard()?;
            return Ok(Expr::Prefix {
                event: EventPattern {
                    channel: name,
                    fields,
                },
                body: Box::new(body),
            });
        }

        if fields.is_empty() {
            return Ok(Expr::Name(name));
        }
        // A dotted value: all fields must be output-style.
        let mut values = Vec::new();
        for f in fields {
            match f {
                FieldPat::Dot(e) | FieldPat::Output(e) => values.push(e),
                FieldPat::Input { var, .. } => {
                    return self.err(format!("input `?{var}` is only allowed in an event prefix"));
                }
            }
        }
        Ok(Expr::Dotted {
            name,
            fields: values,
        })
    }

    /// A restricted atom used in event-pattern fields and after dots in
    /// dotted values: literals, names, or a parenthesised full expression.
    fn simple_atom(&mut self) -> Result<Expr, CspmError> {
        match self.peek().clone() {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::Int(n))
            }
            TokenKind::Ident(s) => {
                match s.as_str() {
                    "true" => {
                        self.bump();
                        return Ok(Expr::Bool(true));
                    }
                    "false" => {
                        self.bump();
                        return Ok(Expr::Bool(false));
                    }
                    _ => {}
                }
                self.bump();
                Ok(Expr::Name(s))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::LBrace => self.atom(),
            other => self.err(format!("unexpected token {other:?} in event field")),
        }
    }

    /// An event pattern as used in `{| … |}` production sets and renamings:
    /// channel name plus dotted fields only.
    fn event_pattern(&mut self) -> Result<EventPattern, CspmError> {
        let channel = self.ident("channel name")?;
        let mut fields = Vec::new();
        while self.eat(&TokenKind::Dot) {
            fields.push(FieldPat::Dot(self.simple_atom()?));
        }
        Ok(EventPattern { channel, fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Module {
        parse_module(&lex(src).unwrap()).unwrap()
    }

    fn parse_expr(src: &str) -> Expr {
        let m = parse(&format!("X = {src}"));
        match &m.decls[0] {
            Decl::Definition { body, .. } => body.clone(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_paper_sp02() {
        let e = parse_expr("rec.reqSw -> send.rptSw -> SP02");
        let Expr::Prefix { event, body } = e else {
            panic!("expected prefix");
        };
        assert_eq!(event.channel, "rec");
        assert_eq!(event.fields.len(), 1);
        assert!(matches!(*body, Expr::Prefix { .. }));
    }

    #[test]
    fn prefix_binds_tighter_than_choice() {
        let e = parse_expr("a -> STOP [] b -> STOP");
        assert!(matches!(e, Expr::ExtChoice(_, _)));
    }

    #[test]
    fn choice_precedence_ext_below_int() {
        // a -> STOP [] b -> STOP |~| c -> STOP
        // == (a -> STOP [] b -> STOP) |~| (c -> STOP)
        let e = parse_expr("a -> STOP [] b -> STOP |~| c -> STOP");
        let Expr::IntChoice(lhs, _) = e else {
            panic!("top must be |~|");
        };
        assert!(matches!(*lhs, Expr::ExtChoice(_, _)));
    }

    #[test]
    fn parallel_with_sync_set() {
        let e = parse_expr("VMG [| {| send, rec |} |] ECU");
        let Expr::Parallel { sync, .. } = e else {
            panic!("expected parallel");
        };
        assert!(matches!(*sync, Expr::Productions(ref ps) if ps.len() == 2));
    }

    #[test]
    fn channel_declaration() {
        let m = parse("channel send, rec : MsgT");
        assert_eq!(
            m.decls[0],
            Decl::Channel {
                names: vec!["send".into(), "rec".into()],
                fields: vec![TypeExpr::Name("MsgT".into())],
            }
        );
    }

    #[test]
    fn bare_channel_declaration() {
        let m = parse("channel tock");
        assert_eq!(
            m.decls[0],
            Decl::Channel {
                names: vec!["tock".into()],
                fields: vec![],
            }
        );
    }

    #[test]
    fn datatype_declaration() {
        let m = parse("datatype MsgT = reqSw | rptSw | reqApp | rptUpd");
        let Decl::Datatype { name, ctors } = &m.decls[0] else {
            panic!();
        };
        assert_eq!(name, "MsgT");
        assert_eq!(ctors.len(), 4);
        assert!(ctors.iter().all(|c| c.fields.is_empty()));
    }

    #[test]
    fn datatype_with_payload() {
        let m = parse("datatype Packet = Msg1.Agent.Nonce | Msg3.Nonce");
        let Decl::Datatype { ctors, .. } = &m.decls[0] else {
            panic!();
        };
        assert_eq!(ctors[0].fields.len(), 2);
        assert_eq!(ctors[1].fields.len(), 1);
    }

    #[test]
    fn assertion_forms() {
        let m = parse(
            "assert SP02 [T= SYSTEM\n\
             assert SP02 [F= SYSTEM\n\
             assert SYSTEM :[deadlock free]\n\
             assert SYSTEM :[divergence free]\n\
             assert SYSTEM :[deterministic]",
        );
        assert_eq!(m.decls.len(), 5);
        assert!(matches!(
            m.decls[0],
            Decl::Assert(Assertion::Refinement {
                model: RefModel::Traces,
                ..
            })
        ));
        assert!(matches!(
            m.decls[4],
            Decl::Assert(Assertion::Property {
                property: PropKind::Deterministic,
                ..
            })
        ));
    }

    #[test]
    fn input_output_fields() {
        let e = parse_expr("c?x!3 -> STOP");
        let Expr::Prefix { event, .. } = e else {
            panic!();
        };
        assert_eq!(event.fields.len(), 2);
        assert!(matches!(event.fields[0], FieldPat::Input { .. }));
        assert!(matches!(event.fields[1], FieldPat::Output(Expr::Int(3))));
    }

    #[test]
    fn input_with_restriction() {
        let e = parse_expr("c?x:{0..2} -> STOP");
        let Expr::Prefix { event, .. } = e else {
            panic!();
        };
        assert!(matches!(
            &event.fields[0],
            FieldPat::Input {
                restrict: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn replicated_external_choice() {
        let e = parse_expr("[] x : {0..3} @ c.x -> STOP");
        assert!(matches!(
            e,
            Expr::Replicated {
                op: ReplOp::ExtChoice,
                ..
            }
        ));
    }

    #[test]
    fn hiding_and_renaming() {
        let e = parse_expr("P \\ {| internal |}");
        assert!(matches!(e, Expr::Hide { .. }));
        let e = parse_expr("P [[ a <- b ]]");
        assert!(matches!(e, Expr::Rename { ref pairs, .. } if pairs.len() == 1));
    }

    #[test]
    fn guard_expression() {
        let e = parse_expr("x == 0 & c.x -> STOP");
        assert!(matches!(e, Expr::Guard { .. }));
    }

    #[test]
    fn if_then_else_and_let() {
        let e = parse_expr("if x == 0 then STOP else SKIP");
        assert!(matches!(e, Expr::If { .. }));
        let e = parse_expr("let y = x + 1 within c.y -> STOP");
        assert!(matches!(e, Expr::Let { .. }));
    }

    #[test]
    fn parameterised_definition() {
        let m = parse("P(x, y) = c.x -> P(y, x)");
        let Decl::Definition { params, .. } = &m.decls[0] else {
            panic!();
        };
        assert_eq!(params, &["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn dotted_value_expression() {
        let e = parse_expr("{ Msg1.a.b }");
        let Expr::SetLit(items) = e else { panic!() };
        assert!(
            matches!(&items[0], Expr::Dotted { name, fields } if name == "Msg1" && fields.len() == 2)
        );
    }

    #[test]
    fn sequence_literals_vs_comparison() {
        let e = parse_expr("<1, 2>");
        assert!(matches!(e, Expr::SeqLit(ref v) if v.len() == 2));
        let e = parse_expr("x < 2");
        assert!(matches!(e, Expr::Binary { op: BinOp::Lt, .. }));
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_expr("1 + 2 * 3");
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = e
        else {
            panic!();
        };
        assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn error_reports_position() {
        let tokens = lex("P = ->").unwrap();
        let err = parse_module(&tokens).unwrap_err();
        assert!(matches!(err, CspmError::Parse { .. }));
    }

    /// Parse `src` on a thread with room for a debug build's frames.
    fn parse_on_big_stack(src: String) -> Result<Module, CspmError> {
        std::thread::Builder::new()
            .stack_size(16 << 20)
            .spawn(move || parse_module(&lex(&src).unwrap()))
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn nesting_is_bounded_and_chains_are_not() {
        // `n` parentheses around `1` nest `n + 1` atoms.
        let nest = |n: usize| format!("N = {}1{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_on_big_stack(nest(MAX_DEPTH - 1)).is_ok());
        let Err(CspmError::Parse { pos, message }) = parse_on_big_stack(nest(MAX_DEPTH)) else {
            panic!("one level too deep must fail");
        };
        assert_eq!(message, "expression nested deeper than 128");
        assert_eq!((pos.line, pos.col), (1, 5 + 128), "at the `1`");
        let prefixes = format!("channel a\nN = {}STOP", "a -> ".repeat(MAX_DEPTH));
        let Err(CspmError::Parse { pos, .. }) = parse_on_big_stack(prefixes) else {
            panic!("a prefix chain nests");
        };
        assert_eq!((pos.line, pos.col), (2, 5 + 5 * 128), "at `STOP`");
        for link in ["a -> STOP [] ", "a -> STOP |~| ", "a -> STOP ; ", "true & "] {
            let chain = format!("channel a\nN = {}STOP", link.repeat(2_000));
            assert!(parse_on_big_stack(chain).is_ok(), "{link}");
        }
    }

    #[test]
    fn input_outside_prefix_is_rejected() {
        let tokens = lex("P = c?x").unwrap();
        assert!(parse_module(&tokens).is_err());
    }
}
