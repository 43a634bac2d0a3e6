//! Evaluation of CSPm expressions and elaboration into core CSP processes.
//!
//! CSPm is a small functional language whose expressions may evaluate to
//! ordinary values *or* to processes. The evaluator is a tree-walking
//! interpreter; process-typed definitions are elaborated on demand into
//! [`csp::Definitions`] entries so that recursion (`P = a -> P`) ties the
//! knot through [`csp::Process::Var`] rather than infinite unfolding. Each
//! distinct instantiation of a parameterised process (`P(0)`, `P(1)`, …)
//! becomes its own definition, which is how FDR compiles parameterised
//! scripts too.
//!
//! Type and channel-field domains are computed once per script and shared
//! ([`Domain`] behind an [`Rc`]): every event prefix enumerates and
//! membership-tests its channel's domains by reference, so elaboration
//! cost grows linearly with the script rather than with the square of the
//! channels' type sizes.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;

use csp::{Alphabet, DefId, Definitions, EventId, EventSet, Process, RenameMap};

use crate::ast::{BinOp, Ctor, Decl, EventPattern, Expr, FieldPat, Module, ReplOp, TypeExpr, UnOp};
use crate::error::CspmError;

/// A CSPm runtime value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A fully-applied datatype constructor.
    Data(String, Vec<Value>),
    /// A datatype constructor awaiting payload arguments.
    CtorRef {
        /// Constructor name.
        name: String,
        /// Number of payload fields it expects.
        arity: usize,
    },
    /// A finite set.
    Set(BTreeSet<Value>),
    /// A finite sequence.
    Seq(Vec<Value>),
    /// A tuple.
    Tuple(Vec<Value>),
    /// A fully-applied communication event.
    Event(EventId),
    /// A channel name (first-class, e.g. as an argument).
    Channel(String),
    /// A CSP process.
    Process(Process),
}

impl Value {
    fn kind_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::Data(_, _) => "datatype value",
            Value::CtorRef { .. } => "constructor",
            Value::Set(_) => "set",
            Value::Seq(_) => "sequence",
            Value::Tuple(_) => "tuple",
            Value::Event(_) => "event",
            Value::Channel(_) => "channel",
            Value::Process(_) => "process",
        }
    }

    /// Extract a process, or fail with a type error.
    pub fn into_process(self) -> Result<Process, CspmError> {
        match self {
            Value::Process(p) => Ok(p),
            other => Err(CspmError::eval(format!(
                "expected a process, found a {}",
                other.kind_name()
            ))),
        }
    }

    fn into_bool(self) -> Result<bool, CspmError> {
        match self {
            Value::Bool(b) => Ok(b),
            other => Err(CspmError::eval(format!(
                "expected a boolean, found a {}",
                other.kind_name()
            ))),
        }
    }

    fn into_int(self) -> Result<i64, CspmError> {
        match self {
            Value::Int(n) => Ok(n),
            other => Err(CspmError::eval(format!(
                "expected an integer, found a {}",
                other.kind_name()
            ))),
        }
    }

    fn into_set(self) -> Result<BTreeSet<Value>, CspmError> {
        match self {
            Value::Set(s) => Ok(s),
            other => Err(CspmError::eval(format!(
                "expected a set, found a {}",
                other.kind_name()
            ))),
        }
    }

    fn into_seq(self) -> Result<Vec<Value>, CspmError> {
        match self {
            Value::Seq(s) => Ok(s),
            other => Err(CspmError::eval(format!(
                "expected a sequence, found a {}",
                other.kind_name()
            ))),
        }
    }
}

fn variant_rank(v: &Value) -> u8 {
    match v {
        Value::Int(_) => 0,
        Value::Bool(_) => 1,
        Value::Data(_, _) => 2,
        Value::CtorRef { .. } => 3,
        Value::Set(_) => 4,
        Value::Seq(_) => 5,
        Value::Tuple(_) => 6,
        Value::Event(_) => 7,
        Value::Channel(_) => 8,
        Value::Process(_) => 9,
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Data(n1, f1), Value::Data(n2, f2)) => n1.cmp(n2).then_with(|| f1.cmp(f2)),
            (
                Value::CtorRef {
                    name: n1,
                    arity: a1,
                },
                Value::CtorRef {
                    name: n2,
                    arity: a2,
                },
            ) => n1.cmp(n2).then_with(|| a1.cmp(a2)),
            (Value::Set(a), Value::Set(b)) => a.cmp(b),
            (Value::Seq(a), Value::Seq(b)) => a.cmp(b),
            (Value::Tuple(a), Value::Tuple(b)) => a.cmp(b),
            (Value::Event(a), Value::Event(b)) => a.cmp(b),
            (Value::Channel(a), Value::Channel(b)) => a.cmp(b),
            // Processes are ordered by their (structural) debug rendering;
            // sets of processes are not supported as data, this keeps the
            // ordering total.
            (Value::Process(a), Value::Process(b)) => format!("{a:?}").cmp(&format!("{b:?}")),
            (a, b) => variant_rank(a).cmp(&variant_rank(b)),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

type Bindings = Vec<(String, Value)>;

/// A finite domain — a type's or a channel field's values — in declaration
/// order, which fixes the order events are enumerated and interned in, plus
/// a hashed index for membership tests.
#[derive(Debug)]
struct Domain {
    values: Vec<Value>,
    index: HashSet<Value>,
}

impl Domain {
    fn new(values: Vec<Value>) -> Rc<Domain> {
        let index = values.iter().cloned().collect();
        Rc::new(Domain { values, index })
    }

    fn contains(&self, v: &Value) -> bool {
        self.index.contains(v)
    }
}

/// The evaluator: shared interning state plus the script's declarations.
pub(crate) struct Evaluator {
    pub alphabet: Alphabet,
    pub defs: Definitions,
    channels_raw: HashMap<String, Vec<TypeExpr>>,
    channel_order: Vec<String>,
    channel_memo: HashMap<String, Rc<[Rc<Domain>]>>,
    datatypes_raw: HashMap<String, Vec<Ctor>>,
    nametypes_raw: HashMap<String, Expr>,
    ctor_fields: HashMap<String, Vec<TypeExpr>>,
    type_memo: HashMap<String, Rc<Domain>>,
    globals: HashMap<String, (Vec<String>, Expr)>,
    proc_ids: HashMap<(String, Vec<Value>), DefId>,
    in_progress: HashSet<(String, Vec<Value>)>,
    value_memo: HashMap<(String, Vec<Value>), Value>,
    type_in_progress: HashSet<String>,
    /// Process-position calls awaiting body elaboration. Deferring them
    /// keeps Rust recursion bounded by *expression* depth instead of the
    /// CSPm call-graph depth (a buffer process with hundreds of reachable
    /// parameter values would otherwise overflow the stack).
    pending: Vec<(String, Vec<Value>)>,
    pending_seen: HashSet<(String, Vec<Value>)>,
}

impl Evaluator {
    /// Collect a module's declarations (without evaluating anything yet).
    pub(crate) fn new(module: &Module) -> Result<Evaluator, CspmError> {
        let mut ev = Evaluator {
            alphabet: Alphabet::new(),
            defs: Definitions::new(),
            channels_raw: HashMap::new(),
            channel_order: Vec::new(),
            channel_memo: HashMap::new(),
            datatypes_raw: HashMap::new(),
            nametypes_raw: HashMap::new(),
            ctor_fields: HashMap::new(),
            type_memo: HashMap::new(),
            globals: HashMap::new(),
            proc_ids: HashMap::new(),
            in_progress: HashSet::new(),
            value_memo: HashMap::new(),
            type_in_progress: HashSet::new(),
            pending: Vec::new(),
            pending_seen: HashSet::new(),
        };
        for decl in &module.decls {
            match decl {
                Decl::Channel { names, fields } => {
                    for n in names {
                        if ev.channels_raw.insert(n.clone(), fields.clone()).is_some() {
                            return Err(CspmError::eval(format!("channel `{n}` redeclared")));
                        }
                        ev.channel_order.push(n.clone());
                    }
                }
                Decl::Datatype { name, ctors } => {
                    if ev
                        .datatypes_raw
                        .insert(name.clone(), ctors.clone())
                        .is_some()
                    {
                        return Err(CspmError::eval(format!("datatype `{name}` redeclared")));
                    }
                    for c in ctors {
                        if ev
                            .ctor_fields
                            .insert(c.name.clone(), c.fields.clone())
                            .is_some()
                        {
                            return Err(CspmError::eval(format!(
                                "constructor `{}` declared twice",
                                c.name
                            )));
                        }
                    }
                }
                Decl::Nametype { name, value } => {
                    ev.nametypes_raw.insert(name.clone(), value.clone());
                }
                Decl::Definition {
                    name, params, body, ..
                } => {
                    if ev
                        .globals
                        .insert(name.clone(), (params.clone(), body.clone()))
                        .is_some()
                    {
                        return Err(CspmError::eval(format!("`{name}` defined twice")));
                    }
                }
                Decl::Assert(_) => {}
            }
        }
        Ok(ev)
    }

    // ---- types and channels --------------------------------------------

    fn type_domain(&mut self, name: &str) -> Result<Rc<Domain>, CspmError> {
        if let Some(d) = self.type_memo.get(name) {
            return Ok(Rc::clone(d));
        }
        if name == "Bool" {
            return Ok(Domain::new(vec![Value::Bool(false), Value::Bool(true)]));
        }
        if !self.type_in_progress.insert(name.to_owned()) {
            return Err(CspmError::eval(format!(
                "recursive type `{name}` has no finite domain"
            )));
        }
        let result = (|| {
            if let Some(ctors) = self.datatypes_raw.get(name).cloned() {
                let mut values = Vec::new();
                for ctor in &ctors {
                    let mut payload_domains = Vec::new();
                    for f in &ctor.fields {
                        payload_domains.push(self.type_expr_domain(f)?);
                    }
                    for combo in cartesian(&payload_domains) {
                        values.push(Value::Data(ctor.name.clone(), combo));
                    }
                }
                Ok(values)
            } else if let Some(expr) = self.nametypes_raw.get(name).cloned() {
                let v = self.eval(&expr, &mut Vec::new())?;
                Ok(v.into_set()?.into_iter().collect())
            } else {
                Err(CspmError::eval(format!("unknown type `{name}`")))
            }
        })();
        self.type_in_progress.remove(name);
        let domain = Domain::new(result?);
        self.type_memo.insert(name.to_owned(), Rc::clone(&domain));
        Ok(domain)
    }

    /// Whether `name` names a type: `Bool`, a datatype or a nametype.
    fn is_type(&self, name: &str) -> bool {
        name == "Bool"
            || self.datatypes_raw.contains_key(name)
            || self.nametypes_raw.contains_key(name)
    }

    fn type_expr_domain(&mut self, t: &TypeExpr) -> Result<Rc<Domain>, CspmError> {
        match t {
            TypeExpr::Name(n) => self.type_domain(n),
            TypeExpr::Set(e) => {
                let v = self.eval(e, &mut Vec::new())?;
                Ok(Domain::new(v.into_set()?.into_iter().collect()))
            }
        }
    }

    /// The domain of each field of channel `name`, computed once per script.
    fn channel_domains(&mut self, name: &str) -> Result<Rc<[Rc<Domain>]>, CspmError> {
        if let Some(d) = self.channel_memo.get(name) {
            return Ok(Rc::clone(d));
        }
        let Some(fields) = self.channels_raw.get(name).cloned() else {
            return Err(CspmError::eval(format!("unknown channel `{name}`")));
        };
        let mut domains = Vec::new();
        for f in &fields {
            domains.push(self.type_expr_domain(f)?);
        }
        let domains: Rc<[Rc<Domain>]> = domains.into();
        self.channel_memo
            .insert(name.to_owned(), Rc::clone(&domains));
        Ok(domains)
    }

    fn is_channel(&self, name: &str) -> bool {
        self.channels_raw.contains_key(name)
    }

    /// All events of channel `name`, in domain enumeration order.
    fn channel_events(&mut self, name: &str) -> Result<Vec<EventId>, CspmError> {
        let domains = self.channel_domains(name)?;
        let mut out = Vec::new();
        for combo in cartesian(&domains) {
            out.push(self.intern_event(name, &combo));
        }
        Ok(out)
    }

    fn intern_event(&mut self, channel: &str, values: &[Value]) -> EventId {
        let mut s = String::from(channel);
        for v in values {
            s.push('.');
            event_component(v, &mut s);
        }
        self.alphabet.intern(&s)
    }

    // ---- names and calls -------------------------------------------------

    fn scope_lookup(&self, name: &str, scopes: &[Bindings]) -> Option<Value> {
        for scope in scopes.iter().rev() {
            if let Some((_, v)) = scope.iter().rev().find(|(n, _)| n == name) {
                return Some(v.clone());
            }
        }
        None
    }

    fn eval_name(&mut self, name: &str, scopes: &mut [Bindings]) -> Result<Value, CspmError> {
        if let Some(v) = self.scope_lookup(name, scopes) {
            return Ok(v);
        }
        if let Some(fields) = self.ctor_fields.get(name) {
            return Ok(if fields.is_empty() {
                Value::Data(name.to_owned(), Vec::new())
            } else {
                Value::CtorRef {
                    name: name.to_owned(),
                    arity: fields.len(),
                }
            });
        }
        if self.is_channel(name) {
            return Ok(Value::Channel(name.to_owned()));
        }
        if self.globals.contains_key(name) {
            return self.eval_call(name, Vec::new());
        }
        if name == "Events" {
            let mut all = BTreeSet::new();
            for ch in self.channel_order.clone() {
                for e in self.channel_events(&ch)? {
                    all.insert(Value::Event(e));
                }
            }
            return Ok(Value::Set(all));
        }
        if self.is_type(name) {
            let domain = self.type_domain(name)?;
            return Ok(Value::Set(domain.values.iter().cloned().collect()));
        }
        Err(CspmError::eval(format!("unknown name `{name}`")))
    }

    fn eval_call(&mut self, name: &str, args: Vec<Value>) -> Result<Value, CspmError> {
        let key = (name.to_owned(), args.clone());
        if let Some(v) = self.value_memo.get(&key) {
            return Ok(v.clone());
        }
        if self.in_progress.contains(&key) {
            // Recursive reference: assume (and enforce, below) it is a process.
            let id = self.proc_id_for(&key);
            return Ok(Value::Process(Process::var(id)));
        }
        let Some((params, body)) = self.globals.get(name).cloned() else {
            return Err(CspmError::eval(format!("unknown definition `{name}`")));
        };
        if params.len() != args.len() {
            return Err(CspmError::eval(format!(
                "`{name}` expects {} argument(s), got {}",
                params.len(),
                args.len()
            )));
        }
        self.in_progress.insert(key.clone());
        let mut scopes = vec![params.into_iter().zip(args).collect::<Bindings>()];
        let result = self.eval(&body, &mut scopes);
        self.in_progress.remove(&key);
        let value = result?;
        let out = match value {
            Value::Process(p) => {
                let id = self.proc_id_for(&key);
                self.defs.define(id, p);
                Value::Process(Process::var(id))
            }
            other => other,
        };
        self.value_memo.insert(key, out.clone());
        Ok(out)
    }

    /// Evaluate an expression in *process position*: calls and references
    /// to global definitions are deferred (a `Var` handle is returned and
    /// the body is elaborated later by [`Evaluator::drain_pending`]),
    /// bounding native recursion depth.
    fn eval_process(
        &mut self,
        expr: &Expr,
        scopes: &mut Vec<Bindings>,
    ) -> Result<Process, CspmError> {
        match expr {
            Expr::Call { name, args } if self.globals.contains_key(name) => {
                let argv = args
                    .iter()
                    .map(|a| self.eval(a, scopes))
                    .collect::<Result<Vec<_>, _>>()?;
                self.defer_call(name, argv)
            }
            Expr::Name(n)
                if self.scope_lookup(n, scopes).is_none()
                    && self.globals.get(n).is_some_and(|(p, _)| p.is_empty()) =>
            {
                self.defer_call(n, Vec::new())
            }
            Expr::If { cond, then, els } => {
                if self.eval(cond, scopes)?.into_bool()? {
                    self.eval_process(then, scopes)
                } else {
                    self.eval_process(els, scopes)
                }
            }
            Expr::Let { bindings, body } => {
                scopes.push(Bindings::new());
                let mut result = Ok(());
                for (name, value) in bindings {
                    match self.eval(value, scopes) {
                        Ok(v) => scopes
                            .last_mut()
                            .expect("scope just pushed")
                            .push((name.clone(), v)),
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                let out = match result {
                    Ok(()) => self.eval_process(body, scopes),
                    Err(e) => Err(e),
                };
                scopes.pop();
                out
            }
            other => self.eval(other, scopes)?.into_process(),
        }
    }

    /// Get (or create) the definition handle for a call and queue its body
    /// for elaboration.
    fn defer_call(&mut self, name: &str, args: Vec<Value>) -> Result<Process, CspmError> {
        let key = (name.to_owned(), args);
        if let Some(v) = self.value_memo.get(&key) {
            return v.clone().into_process();
        }
        let id = self.proc_id_for(&key);
        if !self.in_progress.contains(&key) && self.pending_seen.insert(key.clone()) {
            self.pending.push(key);
        }
        Ok(Process::var(id))
    }

    /// Elaborate every deferred call (and whatever they defer in turn).
    pub(crate) fn drain_pending(&mut self) -> Result<(), CspmError> {
        while let Some(key) = self.pending.pop() {
            let value = self.eval_call(&key.0, key.1.clone())?;
            if !matches!(value, Value::Process(_)) {
                return Err(CspmError::eval(format!(
                    "`{}` is used as a process but evaluates to a {}",
                    key.0,
                    value.kind_name()
                )));
            }
        }
        Ok(())
    }

    fn proc_id_for(&mut self, key: &(String, Vec<Value>)) -> DefId {
        if let Some(&id) = self.proc_ids.get(key) {
            return id;
        }
        let mut label = key.0.clone();
        if !key.1.is_empty() {
            label.push('(');
            for (i, v) in key.1.iter().enumerate() {
                if i > 0 {
                    label.push(',');
                }
                let mut s = String::new();
                event_component(v, &mut s);
                label.push_str(&s);
            }
            label.push(')');
        }
        let id = self.defs.declare(&label);
        self.proc_ids.insert(key.clone(), id);
        id
    }

    // ---- the evaluator ---------------------------------------------------

    pub(crate) fn eval(
        &mut self,
        expr: &Expr,
        scopes: &mut Vec<Bindings>,
    ) -> Result<Value, CspmError> {
        match expr {
            Expr::Int(n) => Ok(Value::Int(*n)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Name(n) => self.eval_name(n, scopes),
            Expr::Call { name, args } => {
                let argv = args
                    .iter()
                    .map(|a| self.eval(a, scopes))
                    .collect::<Result<Vec<_>, _>>()?;
                if self.globals.contains_key(name) {
                    self.eval_call(name, argv)
                } else {
                    self.builtin(name, argv)
                }
            }
            Expr::Dotted { name, fields } => {
                let base = self.eval_name(name, scopes)?;
                let Value::CtorRef { name: ctor, arity } = base else {
                    return Err(CspmError::eval(format!(
                        "`{name}` is not a constructor with payload"
                    )));
                };
                if fields.len() != arity {
                    return Err(CspmError::eval(format!(
                        "constructor `{ctor}` expects {arity} field(s), got {}",
                        fields.len()
                    )));
                }
                let values = fields
                    .iter()
                    .map(|f| self.eval(f, scopes))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Value::Data(ctor, values))
            }
            Expr::SetLit(items) => {
                let mut set = BTreeSet::new();
                for it in items {
                    set.insert(self.eval(it, scopes)?);
                }
                Ok(Value::Set(set))
            }
            Expr::RangeSet { lo, hi } => {
                let lo = self.eval(lo, scopes)?.into_int()?;
                let hi = self.eval(hi, scopes)?.into_int()?;
                Ok(Value::Set((lo..=hi).map(Value::Int).collect()))
            }
            Expr::Productions(pats) => {
                let mut set = BTreeSet::new();
                for pat in pats {
                    for (e, _) in self.completions(pat, scopes, true)? {
                        set.insert(Value::Event(e));
                    }
                }
                Ok(Value::Set(set))
            }
            Expr::SetComprehension {
                head,
                binders,
                guards,
            } => {
                let mut out = BTreeSet::new();
                self.comprehend(head, binders, guards, scopes, &mut out)?;
                Ok(Value::Set(out))
            }
            Expr::SeqLit(items) => {
                let values = items
                    .iter()
                    .map(|it| self.eval(it, scopes))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Value::Seq(values))
            }
            Expr::Tuple(items) => {
                let values = items
                    .iter()
                    .map(|it| self.eval(it, scopes))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Value::Tuple(values))
            }
            Expr::Unary { op, expr } => {
                let v = self.eval(expr, scopes)?;
                match op {
                    UnOp::Neg => Ok(Value::Int(-v.into_int()?)),
                    UnOp::Not => Ok(Value::Bool(!v.into_bool()?)),
                }
            }
            Expr::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs, scopes),
            Expr::If { cond, then, els } => {
                if self.eval(cond, scopes)?.into_bool()? {
                    self.eval(then, scopes)
                } else {
                    self.eval(els, scopes)
                }
            }
            Expr::Let { bindings, body } => {
                scopes.push(Bindings::new());
                for (name, value) in bindings {
                    let v = match self.eval(value, scopes) {
                        Ok(v) => v,
                        Err(e) => {
                            scopes.pop();
                            return Err(e);
                        }
                    };
                    scopes
                        .last_mut()
                        .expect("scope just pushed")
                        .push((name.clone(), v));
                }
                let result = self.eval(body, scopes);
                scopes.pop().expect("scope just pushed");
                result
            }
            Expr::Stop => Ok(Value::Process(Process::Stop)),
            Expr::Skip => Ok(Value::Process(Process::Skip)),
            Expr::Prefix { event, body } => {
                // A bound event-valued variable may be used directly as a
                // prefix (common with replicated choice over event sets,
                // e.g. `[] e : Events @ e -> P`).
                if event.fields.is_empty() {
                    if let Some(Value::Event(eid)) = self.scope_lookup(&event.channel, scopes) {
                        let p = self.eval_process(body, scopes)?;
                        return Ok(Value::Process(Process::prefix(eid, p)));
                    }
                }
                let completions = self.completions(event, scopes, false)?;
                let mut branches = Vec::with_capacity(completions.len());
                for (eid, binds) in completions {
                    scopes.push(binds);
                    let result = self.eval_process(body, scopes);
                    scopes.pop();
                    branches.push(Process::prefix(eid, result?));
                }
                Ok(Value::Process(Process::external_choice_all(branches)))
            }
            Expr::Guard { cond, body } => {
                if self.eval(cond, scopes)?.into_bool()? {
                    let p = self.eval_process(body, scopes)?;
                    Ok(Value::Process(p))
                } else {
                    Ok(Value::Process(Process::Stop))
                }
            }
            Expr::ExtChoice(a, b) => {
                let p = self.eval_process(a, scopes)?;
                let q = self.eval_process(b, scopes)?;
                Ok(Value::Process(Process::external_choice(p, q)))
            }
            Expr::IntChoice(a, b) => {
                let p = self.eval_process(a, scopes)?;
                let q = self.eval_process(b, scopes)?;
                Ok(Value::Process(Process::internal_choice(p, q)))
            }
            Expr::Seq(a, b) => {
                let p = self.eval_process(a, scopes)?;
                let q = self.eval_process(b, scopes)?;
                Ok(Value::Process(Process::seq(p, q)))
            }
            Expr::Parallel { left, sync, right } => {
                let p = self.eval_process(left, scopes)?;
                let s = self.eval(sync, scopes)?;
                let sync_set = self.value_to_event_set(&s)?;
                let q = self.eval_process(right, scopes)?;
                Ok(Value::Process(Process::parallel(sync_set, p, q)))
            }
            Expr::Interleave(a, b) => {
                let p = self.eval_process(a, scopes)?;
                let q = self.eval_process(b, scopes)?;
                Ok(Value::Process(Process::interleave(p, q)))
            }
            Expr::Interrupt(a, b) => {
                let p = self.eval_process(a, scopes)?;
                let q = self.eval_process(b, scopes)?;
                Ok(Value::Process(Process::interrupt(p, q)))
            }
            Expr::Timeout(a, b) => {
                let p = self.eval_process(a, scopes)?;
                let q = self.eval_process(b, scopes)?;
                Ok(Value::Process(Process::timeout(p, q)))
            }
            Expr::Hide { process, set } => {
                let p = self.eval_process(process, scopes)?;
                let s = self.eval(set, scopes)?;
                let hidden = self.value_to_event_set(&s)?;
                Ok(Value::Process(Process::hide(p, hidden)))
            }
            Expr::Rename { process, pairs } => {
                let p = self.eval_process(process, scopes)?;
                let map = self.rename_map(pairs, scopes)?;
                Ok(Value::Process(Process::rename(p, map)))
            }
            Expr::Replicated { op, var, set, body } => {
                let domain = self.eval(set, scopes)?.into_set()?;
                let mut processes = Vec::with_capacity(domain.len());
                for v in domain {
                    scopes.push(vec![(var.clone(), v)]);
                    let result = self.eval_process(body, scopes);
                    scopes.pop();
                    processes.push(result?);
                }
                Ok(Value::Process(match op {
                    ReplOp::ExtChoice => Process::external_choice_all(processes),
                    ReplOp::IntChoice => Process::internal_choice_all(processes),
                    ReplOp::Interleave => Process::interleave_all(processes),
                    ReplOp::Seq => {
                        let mut iter = processes.into_iter().rev();
                        match iter.next() {
                            None => Process::Skip,
                            Some(last) => iter.fold(last, |acc, p| Process::seq(p, acc)),
                        }
                    }
                }))
            }
        }
    }

    /// Recursive comprehension driver: bind each generator in turn, filter
    /// by the guards, collect the head expression.
    fn comprehend(
        &mut self,
        head: &Expr,
        binders: &[(String, Expr)],
        guards: &[Expr],
        scopes: &mut Vec<Bindings>,
        out: &mut BTreeSet<Value>,
    ) -> Result<(), CspmError> {
        let Some(((var, domain_expr), rest)) = binders.split_first() else {
            for g in guards {
                if !self.eval(g, scopes)?.into_bool()? {
                    return Ok(());
                }
            }
            out.insert(self.eval(head, scopes)?);
            return Ok(());
        };
        let domain = self.eval(domain_expr, scopes)?.into_set()?;
        for v in domain {
            scopes.push(vec![(var.clone(), v)]);
            let result = self.comprehend(head, rest, guards, scopes, out);
            scopes.pop();
            result?;
        }
        Ok(())
    }

    fn binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        scopes: &mut Vec<Bindings>,
    ) -> Result<Value, CspmError> {
        // Short-circuit booleans first.
        match op {
            BinOp::And => {
                return Ok(Value::Bool(
                    self.eval(lhs, scopes)?.into_bool()? && self.eval(rhs, scopes)?.into_bool()?,
                ));
            }
            BinOp::Or => {
                return Ok(Value::Bool(
                    self.eval(lhs, scopes)?.into_bool()? || self.eval(rhs, scopes)?.into_bool()?,
                ));
            }
            _ => {}
        }
        let a = self.eval(lhs, scopes)?;
        let b = self.eval(rhs, scopes)?;
        Ok(match op {
            BinOp::Add => Value::Int(a.into_int()? + b.into_int()?),
            BinOp::Sub => Value::Int(a.into_int()? - b.into_int()?),
            BinOp::Mul => Value::Int(a.into_int()? * b.into_int()?),
            BinOp::Div => {
                let d = b.into_int()?;
                if d == 0 {
                    return Err(CspmError::eval("division by zero"));
                }
                Value::Int(a.into_int()? / d)
            }
            BinOp::Mod => {
                let d = b.into_int()?;
                if d == 0 {
                    return Err(CspmError::eval("modulo by zero"));
                }
                Value::Int(a.into_int()?.rem_euclid(d))
            }
            BinOp::Eq => Value::Bool(a == b),
            BinOp::Ne => Value::Bool(a != b),
            BinOp::Lt => Value::Bool(a.into_int()? < b.into_int()?),
            BinOp::Le => Value::Bool(a.into_int()? <= b.into_int()?),
            BinOp::Gt => Value::Bool(a.into_int()? > b.into_int()?),
            BinOp::Ge => Value::Bool(a.into_int()? >= b.into_int()?),
            BinOp::Cat => {
                let mut s = a.into_seq()?;
                s.extend(b.into_seq()?);
                Value::Seq(s)
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        })
    }

    fn builtin(&mut self, name: &str, mut args: Vec<Value>) -> Result<Value, CspmError> {
        let arity = args.len();
        let wrong = |n: usize| {
            Err::<Value, _>(CspmError::eval(format!(
                "builtin `{name}` expects {n} argument(s), got {arity}"
            )))
        };
        match (name, arity) {
            ("union", 2) => {
                let b = args.pop().expect("arity checked").into_set()?;
                let mut a = args.pop().expect("arity checked").into_set()?;
                a.extend(b);
                Ok(Value::Set(a))
            }
            ("inter", 2) => {
                let b = args.pop().expect("arity checked").into_set()?;
                let a = args.pop().expect("arity checked").into_set()?;
                Ok(Value::Set(a.intersection(&b).cloned().collect()))
            }
            ("diff", 2) => {
                let b = args.pop().expect("arity checked").into_set()?;
                let a = args.pop().expect("arity checked").into_set()?;
                Ok(Value::Set(a.difference(&b).cloned().collect()))
            }
            ("member", 2) => {
                let s = args.pop().expect("arity checked").into_set()?;
                let x = args.pop().expect("arity checked");
                Ok(Value::Bool(s.contains(&x)))
            }
            ("card", 1) => Ok(Value::Int(
                args.pop().expect("arity checked").into_set()?.len() as i64,
            )),
            ("empty", 1) => Ok(Value::Bool(
                args.pop().expect("arity checked").into_set()?.is_empty(),
            )),
            ("head", 1) => {
                let s = args.pop().expect("arity checked").into_seq()?;
                s.first()
                    .cloned()
                    .ok_or_else(|| CspmError::eval("head of empty sequence"))
            }
            ("tail", 1) => {
                let mut s = args.pop().expect("arity checked").into_seq()?;
                if s.is_empty() {
                    return Err(CspmError::eval("tail of empty sequence"));
                }
                s.remove(0);
                Ok(Value::Seq(s))
            }
            ("length", 1) => Ok(Value::Int(
                args.pop().expect("arity checked").into_seq()?.len() as i64,
            )),
            ("elem", 2) => {
                let s = args.pop().expect("arity checked").into_seq()?;
                let x = args.pop().expect("arity checked");
                Ok(Value::Bool(s.contains(&x)))
            }
            ("cat", 2) => {
                let b = args.pop().expect("arity checked").into_seq()?;
                let mut a = args.pop().expect("arity checked").into_seq()?;
                a.extend(b);
                Ok(Value::Seq(a))
            }
            ("set", 1) => {
                let s = args.pop().expect("arity checked").into_seq()?;
                Ok(Value::Set(s.into_iter().collect()))
            }
            ("union" | "inter" | "diff" | "member" | "cat" | "elem", _) => wrong(2),
            ("card" | "empty" | "head" | "tail" | "length" | "set", _) => wrong(1),
            _ => Err(CspmError::eval(format!("unknown function `{name}`"))),
        }
    }

    // ---- events ----------------------------------------------------------

    /// Enumerate the completions of an event pattern: the concrete events it
    /// matches, each with the variable bindings its `?` fields produce.
    ///
    /// With `partial_ok`, trailing unspecified fields range over their whole
    /// domain (used for `{| c |}` production sets); otherwise every channel
    /// field must be matched by the pattern.
    fn completions(
        &mut self,
        pat: &EventPattern,
        scopes: &mut Vec<Bindings>,
        partial_ok: bool,
    ) -> Result<Vec<(EventId, Bindings)>, CspmError> {
        let domains = self.channel_domains(&pat.channel)?;
        let mut out = Vec::new();
        self.complete_fields(
            &pat.channel,
            &domains,
            0,
            &pat.fields,
            0,
            Vec::new(),
            Bindings::new(),
            partial_ok,
            scopes,
            &mut out,
        )?;
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn complete_fields(
        &mut self,
        channel: &str,
        domains: &[Rc<Domain>],
        field_idx: usize,
        pats: &[FieldPat],
        pat_idx: usize,
        values: Vec<Value>,
        binds: Bindings,
        partial_ok: bool,
        scopes: &mut Vec<Bindings>,
        out: &mut Vec<(EventId, Bindings)>,
    ) -> Result<(), CspmError> {
        if field_idx == domains.len() {
            if pat_idx < pats.len() {
                return Err(CspmError::eval(format!(
                    "too many fields for channel `{channel}`"
                )));
            }
            let event = self.intern_event(channel, &values);
            out.push((event, binds));
            return Ok(());
        }
        let domain = &domains[field_idx];
        match pats.get(pat_idx) {
            None => {
                if !partial_ok {
                    return Err(CspmError::eval(format!(
                        "event on channel `{channel}` is missing fields"
                    )));
                }
                for v in &domain.values {
                    let mut vs = values.clone();
                    vs.push(v.clone());
                    self.complete_fields(
                        channel,
                        domains,
                        field_idx + 1,
                        pats,
                        pat_idx,
                        vs,
                        binds.clone(),
                        partial_ok,
                        scopes,
                        out,
                    )?;
                }
                Ok(())
            }
            Some(FieldPat::Dot(e)) | Some(FieldPat::Output(e)) => {
                scopes.push(binds.clone());
                let v = self.eval(e, scopes);
                scopes.pop();
                let v = v?;
                // A bare constructor with payload: consume following pattern
                // fields as its payload components.
                if let Value::CtorRef { name: ctor, arity } = v {
                    return self.complete_ctor(
                        channel, domains, field_idx, pats, pat_idx, values, binds, partial_ok,
                        scopes, out, ctor, arity,
                    );
                }
                if !domain.contains(&v) {
                    return Err(CspmError::eval(format!(
                        "value is not in the domain of field {field_idx} of channel `{channel}`"
                    )));
                }
                let mut vs = values;
                vs.push(v);
                self.complete_fields(
                    channel,
                    domains,
                    field_idx + 1,
                    pats,
                    pat_idx + 1,
                    vs,
                    binds,
                    partial_ok,
                    scopes,
                    out,
                )
            }
            Some(FieldPat::Input { var, restrict }) => {
                let allowed: Option<BTreeSet<Value>> = match restrict {
                    Some(r) => {
                        scopes.push(binds.clone());
                        let v = self.eval(r, scopes);
                        scopes.pop();
                        Some(v?.into_set()?)
                    }
                    None => None,
                };
                for v in &domain.values {
                    if let Some(allowed) = &allowed {
                        if !allowed.contains(v) {
                            continue;
                        }
                    }
                    let mut vs = values.clone();
                    vs.push(v.clone());
                    let mut bs = binds.clone();
                    bs.push((var.clone(), v.clone()));
                    self.complete_fields(
                        channel,
                        domains,
                        field_idx + 1,
                        pats,
                        pat_idx + 1,
                        vs,
                        bs,
                        partial_ok,
                        scopes,
                        out,
                    )?;
                }
                Ok(())
            }
        }
    }

    /// Handle `c.Ctor.p1.p2` where `Ctor` is a payload-carrying constructor
    /// of the channel field's datatype: the next `arity` pattern fields form
    /// the payload.
    #[allow(clippy::too_many_arguments)]
    fn complete_ctor(
        &mut self,
        channel: &str,
        domains: &[Rc<Domain>],
        field_idx: usize,
        pats: &[FieldPat],
        pat_idx: usize,
        values: Vec<Value>,
        binds: Bindings,
        partial_ok: bool,
        scopes: &mut Vec<Bindings>,
        out: &mut Vec<(EventId, Bindings)>,
        ctor: String,
        arity: usize,
    ) -> Result<(), CspmError> {
        let payload_types = self
            .ctor_fields
            .get(&ctor)
            .cloned()
            .ok_or_else(|| CspmError::eval(format!("unknown constructor `{ctor}`")))?;
        debug_assert_eq!(payload_types.len(), arity);
        // Enumerate payload combinations compatible with the next pattern
        // fields.
        let mut partials: Vec<(Vec<Value>, Bindings)> = vec![(Vec::new(), binds)];
        let mut used = 0usize;
        for (slot, ty) in payload_types.iter().enumerate() {
            let domain = self.type_expr_domain(ty)?;
            let pat = pats.get(pat_idx + 1 + slot);
            let mut next: Vec<(Vec<Value>, Bindings)> = Vec::new();
            match pat {
                None => {
                    if !partial_ok {
                        return Err(CspmError::eval(format!(
                            "constructor `{ctor}` is missing payload fields"
                        )));
                    }
                    for (payload, bs) in &partials {
                        for v in &domain.values {
                            let mut p = payload.clone();
                            p.push(v.clone());
                            next.push((p, bs.clone()));
                        }
                    }
                }
                Some(FieldPat::Dot(e)) | Some(FieldPat::Output(e)) => {
                    used += 1;
                    for (payload, bs) in &partials {
                        scopes.push(bs.clone());
                        let v = self.eval(e, scopes);
                        scopes.pop();
                        let v = v?;
                        if !domain.contains(&v) {
                            return Err(CspmError::eval(format!(
                                "payload value not in domain of `{ctor}` field {slot}"
                            )));
                        }
                        let mut p = payload.clone();
                        p.push(v);
                        next.push((p, bs.clone()));
                    }
                }
                Some(FieldPat::Input { var, restrict }) => {
                    used += 1;
                    for (payload, bs) in &partials {
                        let allowed: Option<BTreeSet<Value>> = match restrict {
                            Some(r) => {
                                scopes.push(bs.clone());
                                let v = self.eval(r, scopes);
                                scopes.pop();
                                Some(v?.into_set()?)
                            }
                            None => None,
                        };
                        for v in &domain.values {
                            if let Some(allowed) = &allowed {
                                if !allowed.contains(v) {
                                    continue;
                                }
                            }
                            let mut p = payload.clone();
                            p.push(v.clone());
                            let mut b2 = bs.clone();
                            b2.push((var.clone(), v.clone()));
                            next.push((p, b2));
                        }
                    }
                }
            }
            partials = next;
        }
        for (payload, bs) in partials {
            let value = Value::Data(ctor.clone(), payload);
            if !domains[field_idx].contains(&value) {
                return Err(CspmError::eval(format!(
                    "`{ctor}` value is not in the domain of field {field_idx} of `{channel}`"
                )));
            }
            let mut vs = values.clone();
            vs.push(value);
            self.complete_fields(
                channel,
                domains,
                field_idx + 1,
                pats,
                pat_idx + 1 + used,
                vs,
                bs,
                partial_ok,
                scopes,
                out,
            )?;
        }
        Ok(())
    }

    fn value_to_event_set(&mut self, v: &Value) -> Result<EventSet, CspmError> {
        let Value::Set(items) = v else {
            return Err(CspmError::eval(format!(
                "expected a set of events, found a {}",
                v.kind_name()
            )));
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            match item {
                Value::Event(e) => out.push(*e),
                Value::Channel(c) => out.extend(self.channel_events(c)?),
                other => {
                    return Err(CspmError::eval(format!(
                        "synchronisation/hiding sets may contain only events, found a {}",
                        other.kind_name()
                    )));
                }
            }
        }
        Ok(out.into_iter().collect())
    }

    fn rename_map(
        &mut self,
        pairs: &[(EventPattern, EventPattern)],
        scopes: &mut Vec<Bindings>,
    ) -> Result<RenameMap, CspmError> {
        let mut map = RenameMap::new();
        for (from, to) in pairs {
            let froms = self.completions(from, scopes, true)?;
            let tos = self.completions(to, scopes, true)?;
            if froms.len() != tos.len() {
                return Err(CspmError::eval(format!(
                    "renaming `{}` <- `{}` relates {} events to {}",
                    from.channel,
                    to.channel,
                    froms.len(),
                    tos.len()
                )));
            }
            // CSPm renaming `P[[a <- b]]` maps event a (performed by P) to b.
            for ((a, _), (b, _)) in froms.into_iter().zip(tos) {
                map.insert(a, b);
            }
        }
        Ok(map)
    }
}

/// Append the flattened event-name component(s) for `v` to `out`.
fn event_component(v: &Value, out: &mut String) {
    match v {
        Value::Int(n) => {
            let _ = std::fmt::write(out, format_args!("{n}"));
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Data(ctor, fields) => {
            out.push_str(ctor);
            for f in fields {
                out.push('.');
                event_component(f, out);
            }
        }
        Value::Tuple(items) | Value::Seq(items) => {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push('.');
                }
                event_component(item, out);
            }
        }
        Value::Channel(c) => out.push_str(c),
        Value::CtorRef { name, .. } => out.push_str(name),
        Value::Set(_) | Value::Event(_) | Value::Process(_) => out.push('?'),
    }
}

/// Cartesian product of the given domains (empty product = one empty row).
fn cartesian(domains: &[Rc<Domain>]) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = vec![Vec::new()];
    for d in domains {
        let mut next = Vec::with_capacity(rows.len() * d.values.len());
        for row in &rows {
            for v in &d.values {
                let mut r = row.clone();
                r.push(v.clone());
                next.push(r);
            }
        }
        rows = next;
    }
    rows
}

/// Evaluate every zero-parameter definition in the module.
pub(crate) fn load_module(
    module: &Module,
) -> Result<(Evaluator, BTreeMap<String, Value>), CspmError> {
    let mut ev = Evaluator::new(module)?;
    let mut named = BTreeMap::new();
    for decl in &module.decls {
        if let Decl::Definition { name, params, .. } = decl {
            if params.is_empty() {
                let v = ev.eval_call(name, Vec::new())?;
                ev.drain_pending()?;
                named.insert(name.clone(), v);
            }
        }
    }
    Ok((ev, named))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_module;

    fn load(src: &str) -> (Evaluator, BTreeMap<String, Value>) {
        let m = parse_module(&lex(src).unwrap()).unwrap();
        load_module(&m).unwrap()
    }

    fn load_err(src: &str) -> CspmError {
        let m = parse_module(&lex(src).unwrap()).unwrap();
        match load_module(&m) {
            Ok(_) => panic!("expected an error"),
            Err(e) => e,
        }
    }

    /// The message of the evaluation error `src` fails to load with.
    fn eval_error(src: &str) -> String {
        match load_err(src) {
            CspmError::Eval { message } => message,
            other => panic!("expected an evaluation error, got {other}"),
        }
    }

    #[test]
    fn constants_evaluate() {
        let (_, named) = load("N = 2 + 3 * 4");
        assert_eq!(named["N"], Value::Int(14));
    }

    #[test]
    fn sets_and_builtins() {
        let (_, named) = load(
            "A = {1, 2, 3}\n\
             B = {2..4}\n\
             U = union(A, B)\n\
             I = inter(A, B)\n\
             D = diff(A, B)\n\
             C = card(U)\n\
             M = member(3, A)",
        );
        assert_eq!(named["C"], Value::Int(4));
        assert_eq!(named["M"], Value::Bool(true));
        assert_eq!(
            named["I"],
            Value::Set([Value::Int(2), Value::Int(3)].into_iter().collect())
        );
        assert_eq!(
            named["D"],
            Value::Set([Value::Int(1)].into_iter().collect())
        );
    }

    #[test]
    fn sequences_and_builtins() {
        let (_, named) = load("S = <1, 2, 3>\nH = head(S)\nT = tail(S)\nL = length(S)");
        assert_eq!(named["H"], Value::Int(1));
        assert_eq!(named["L"], Value::Int(3));
        assert_eq!(named["T"], Value::Seq(vec![Value::Int(2), Value::Int(3)]));
    }

    #[test]
    fn paper_sp02_elaborates() {
        let (ev, named) = load(
            "datatype MsgT = reqSw | rptSw\n\
             channel send, rec : MsgT\n\
             SP02 = rec.reqSw -> send.rptSw -> SP02",
        );
        let Value::Process(p) = &named["SP02"] else {
            panic!("SP02 must be a process");
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 1000).unwrap();
        assert_eq!(lts.state_count(), 2);
        assert!(ev.alphabet.lookup("rec.reqSw").is_some());
        assert!(ev.alphabet.lookup("send.rptSw").is_some());
    }

    #[test]
    fn input_binds_and_expands_to_choice() {
        let (ev, named) = load(
            "channel c : {0..2}\n\
             channel d : {0..2}\n\
             P = c?x -> d!x -> STOP",
        );
        let Value::Process(p) = &named["P"] else {
            panic!()
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 1000).unwrap();
        // initial state offers c.0, c.1, c.2
        assert_eq!(lts.edges(lts.initial()).len(), 3);
    }

    #[test]
    fn input_restriction_limits_domain() {
        let (ev, named) = load(
            "channel c : {0..5}\n\
             P = c?x:{0..1} -> STOP",
        );
        let Value::Process(p) = &named["P"] else {
            panic!()
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 1000).unwrap();
        assert_eq!(lts.edges(lts.initial()).len(), 2);
    }

    #[test]
    fn parameterised_process_instantiates_per_argument() {
        let (ev, named) = load(
            "channel c : {0..3}\n\
             P(n) = n < 3 & c.n -> P(n + 1)\n\
             Q = P(0)",
        );
        let Value::Process(p) = &named["Q"] else {
            panic!()
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 1000).unwrap();
        // c.0 c.1 c.2 then STOP
        assert_eq!(lts.state_count(), 4);
    }

    #[test]
    fn guard_false_does_not_evaluate_body() {
        // If the guard evaluated its body, P(0) would recurse forever through
        // P(-1), P(-2), ….
        let (ev, named) = load(
            "channel c : {0..1}\n\
             P(n) = n >= 0 & c.0 -> P(n - 1)\n\
             Q = P(0)",
        );
        let Value::Process(p) = &named["Q"] else {
            panic!()
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 1000).unwrap();
        // Var(Q) --c.0--> Var(P(-1)) which is STOP-like (guard false).
        assert_eq!(lts.state_count(), 2);
        assert_eq!(lts.transition_count(), 1);
    }

    #[test]
    fn datatype_payload_values() {
        let (_, named) = load(
            "datatype Agent = alice | bob\n\
             datatype Packet = Msg1.Agent | Done\n\
             V = Msg1.alice\n\
             S = card({ Msg1.alice, Msg1.bob, Done })",
        );
        assert_eq!(
            named["V"],
            Value::Data("Msg1".into(), vec![Value::Data("alice".into(), vec![])])
        );
        assert_eq!(named["S"], Value::Int(3));
    }

    #[test]
    fn channel_with_payload_ctor_events() {
        let (ev, named) = load(
            "datatype Agent = alice | bob\n\
             datatype Packet = Msg1.Agent | Done\n\
             channel comm : Packet\n\
             P = comm.Msg1.alice -> STOP\n\
             Q = comm?p -> STOP",
        );
        let Value::Process(p) = &named["P"] else {
            panic!()
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 100).unwrap();
        assert_eq!(lts.edges(lts.initial()).len(), 1);
        assert!(ev.alphabet.lookup("comm.Msg1.alice").is_some());
        let Value::Process(q) = &named["Q"] else {
            panic!()
        };
        let lts = csp::Lts::build(q.clone(), &ev.defs, 100).unwrap();
        // Msg1.alice, Msg1.bob, Done
        assert_eq!(lts.edges(lts.initial()).len(), 3);
    }

    #[test]
    fn productions_set() {
        let (_, named) = load(
            "channel c : {0..2}\n\
             channel d\n\
             S = card({| c |})\n\
             T = card({| c, d |})",
        );
        assert_eq!(named["S"], Value::Int(3));
        assert_eq!(named["T"], Value::Int(4));
    }

    #[test]
    fn parallel_composition_synchronises() {
        let (ev, named) = load(
            "datatype MsgT = reqSw | rptSw\n\
             channel send, rec : MsgT\n\
             VMG = send.reqSw -> rec.rptSw -> VMG\n\
             ECU = send?m -> rec.rptSw -> ECU\n\
             SYSTEM = VMG [| {| send, rec |} |] ECU",
        );
        let Value::Process(p) = &named["SYSTEM"] else {
            panic!()
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 1000).unwrap();
        // Var(SYSTEM), the mid-exchange state, and the recursive
        // Parallel(Var VMG, Var ECU) state.
        assert_eq!(lts.state_count(), 3);
        assert_eq!(lts.transition_count(), 3);
    }

    #[test]
    fn replicated_choice() {
        let (ev, named) = load(
            "channel c : {0..3}\n\
             P = [] x : {0..3} @ c.x -> STOP",
        );
        let Value::Process(p) = &named["P"] else {
            panic!()
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 100).unwrap();
        assert_eq!(lts.edges(lts.initial()).len(), 4);
    }

    #[test]
    fn hiding_makes_taus() {
        let (ev, named) = load(
            "channel c : {0..1}\n\
             channel d\n\
             P = c.0 -> d -> STOP\n\
             Q = P \\ {| c |}",
        );
        let Value::Process(q) = &named["Q"] else {
            panic!()
        };
        let lts = csp::Lts::build(q.clone(), &ev.defs, 100).unwrap();
        let edges = lts.edges(lts.initial());
        assert!(edges[0].0.is_tau());
    }

    #[test]
    fn renaming_full_events() {
        let (ev, named) = load(
            "channel c, d : {0..1}\n\
             P = c.0 -> STOP\n\
             Q = P [[ c.0 <- d.1 ]]",
        );
        let Value::Process(q) = &named["Q"] else {
            panic!()
        };
        let lts = csp::Lts::build(q.clone(), &ev.defs, 100).unwrap();
        let (label, _) = lts.edges(lts.initial())[0];
        assert_eq!(ev.alphabet.name(label.event().unwrap()), "d.1");
    }

    #[test]
    fn channel_wide_renaming() {
        let (ev, named) = load(
            "channel c, d : {0..1}\n\
             P = c.0 -> c.1 -> STOP\n\
             Q = P [[ c <- d ]]",
        );
        let Value::Process(q) = &named["Q"] else {
            panic!()
        };
        let lts = csp::Lts::build(q.clone(), &ev.defs, 100).unwrap();
        let (label, _) = lts.edges(lts.initial())[0];
        assert_eq!(ev.alphabet.name(label.event().unwrap()), "d.0");
    }

    #[test]
    fn if_then_else_and_let() {
        let (_, named) = load("X = let y = 3 within if y > 2 then y * 2 else 0");
        assert_eq!(named["X"], Value::Int(6));
    }

    #[test]
    fn unknown_name_errors() {
        let err = load_err("X = nosuchthing");
        assert!(matches!(err, CspmError::Eval { .. }));
    }

    #[test]
    fn arity_mismatch_errors() {
        let err = load_err("P(x) = STOP\nQ = P(1, 2)");
        assert!(err.to_string().contains("expects 1"));
    }

    #[test]
    fn division_by_zero_errors() {
        let err = load_err("X = 1 / 0");
        assert!(err.to_string().contains("division"));
    }

    #[test]
    fn events_builtin_covers_all_channels() {
        let (_, named) = load(
            "channel c : {0..1}\n\
             channel d\n\
             N = card(Events)",
        );
        assert_eq!(named["N"], Value::Int(3));
    }

    #[test]
    fn nametype_alias() {
        let (_, named) = load(
            "nametype Small = {0..2}\n\
             channel c : Small\n\
             N = card({| c |})",
        );
        assert_eq!(named["N"], Value::Int(3));
    }

    #[test]
    fn sequential_composition_and_skip() {
        let (ev, named) = load(
            "channel a, b\n\
             P = (a -> SKIP) ; b -> STOP",
        );
        let Value::Process(p) = &named["P"] else {
            panic!()
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 100).unwrap();
        // a, tau (tick of SKIP converted), b
        let a = ev.alphabet.lookup("a").unwrap();
        let b = ev.alphabet.lookup("b").unwrap();
        assert!(csp::traces::has_trace(&lts, &[a, b]));
    }

    #[test]
    fn out_of_domain_channel_value_errors() {
        assert_eq!(
            eval_error("channel c : {0..2}\nP = c.5 -> STOP"),
            "value is not in the domain of field 0 of channel `c`"
        );
    }

    #[test]
    fn out_of_domain_payload_value_errors() {
        let message = eval_error(
            "datatype Agent = alice | bob\n\
             datatype Packet = Msg1.Agent | Done\n\
             channel comm : Packet\n\
             P = comm.Msg1.5 -> STOP",
        );
        assert_eq!(message, "payload value not in domain of `Msg1` field 0");
    }

    #[test]
    fn constructor_value_outside_the_field_domain_errors() {
        // `Msg1.bob` is a well-formed `Packet`, but the channel only carries
        // the subset `Sub`.
        let message = eval_error(
            "datatype Agent = alice | bob\n\
             datatype Packet = Msg1.Agent | Done\n\
             nametype Sub = {Msg1.alice, Done}\n\
             channel comm : Sub\n\
             P = comm.Msg1.bob -> STOP",
        );
        assert_eq!(
            message,
            "`Msg1` value is not in the domain of field 0 of `comm`"
        );
    }

    #[test]
    fn restricted_input_and_productions_intern_in_declaration_order() {
        // Events are interned in domain (declaration) order whichever way a
        // channel's events are enumerated; `EventId`s follow that order.
        let names = |src: &str| {
            let (ev, _) = load(src);
            (0..ev.alphabet.len())
                .map(|i| ev.alphabet.name(EventId::from_index(i)).to_owned())
                .collect::<Vec<_>>()
        };
        let decls = "datatype Agent = alice | bob\n\
                     datatype Packet = Msg1.Agent | Done\n\
                     channel comm : Packet\n";
        let restricted = names(&format!(
            "{decls}P = comm?x:{{Done, Msg1.bob, Msg1.alice}} -> STOP"
        ));
        let productions = names(&format!("{decls}S = {{| comm |}}"));
        let payload_input = names(&format!(
            "{decls}P = comm.Msg1?a -> STOP [] comm.Done -> STOP"
        ));
        let expect = ["comm.Msg1.alice", "comm.Msg1.bob", "comm.Done"];
        assert_eq!(restricted, expect);
        assert_eq!(productions, expect);
        assert_eq!(payload_input, expect);
    }

    #[test]
    fn nametype_error_names_the_real_fault() {
        let message = eval_error(
            "nametype T = {0..N}\n\
             channel c : {0..3}\n\
             P = [] x : T @ c.x -> STOP",
        );
        assert_eq!(message, "unknown name `N`");
    }

    #[test]
    fn recursive_datatype_named_as_a_set_reports_recursion() {
        assert_eq!(
            eval_error("datatype T = leaf | node.T\nS = card(T)"),
            "recursive type `T` has no finite domain"
        );
    }

    #[test]
    fn mutual_recursion() {
        let (ev, named) = load(
            "channel a, b\n\
             P = a -> Q\n\
             Q = b -> P",
        );
        let Value::Process(p) = &named["P"] else {
            panic!()
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 100).unwrap();
        assert_eq!(lts.state_count(), 2);
    }
}

#[cfg(test)]
mod comprehension_tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_module;

    fn load(src: &str) -> std::collections::BTreeMap<String, Value> {
        let m = parse_module(&lex(src).unwrap()).unwrap();
        load_module(&m).unwrap().1
    }

    #[test]
    fn simple_comprehension_maps_the_head() {
        let named = load("S = { x * 2 | x <- {1, 2, 3} }");
        assert_eq!(
            named["S"],
            Value::Set([2, 4, 6].map(Value::Int).into_iter().collect())
        );
    }

    #[test]
    fn guards_filter() {
        let named = load("S = { x | x <- {0..9}, x % 2 == 0, x > 2 }");
        assert_eq!(
            named["S"],
            Value::Set([4, 6, 8].map(Value::Int).into_iter().collect())
        );
    }

    #[test]
    fn multiple_generators_cross_product() {
        let named = load("S = card({ (x, y) | x <- {0..2}, y <- {0..2}, x < y })");
        assert_eq!(named["S"], Value::Int(3));
    }

    #[test]
    fn comprehension_over_events() {
        let named = load(
            "channel c : {0..3}\n\
             S = card({ e | e <- {| c |} })",
        );
        assert_eq!(named["S"], Value::Int(4));
    }

    #[test]
    fn comprehension_usable_in_process_position() {
        let named = load(
            "channel c : {0..5}\n\
             P = [] x : { y | y <- {0..5}, y % 3 == 0 } @ c.x -> STOP",
        );
        assert!(matches!(named["P"], Value::Process(_)));
    }
}

#[cfg(test)]
mod interrupt_timeout_tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_module;

    fn load(src: &str) -> (Evaluator, std::collections::BTreeMap<String, Value>) {
        let m = parse_module(&lex(src).unwrap()).unwrap();
        load_module(&m).unwrap()
    }

    #[test]
    fn interrupt_elaborates_and_behaves() {
        let (ev, named) = load(
            "channel a, b, k\n\
             P = (a -> b -> STOP) /\\ (k -> STOP)",
        );
        let Value::Process(p) = &named["P"] else {
            panic!()
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 1000).unwrap();
        let a = ev.alphabet.lookup("a").unwrap();
        let b = ev.alphabet.lookup("b").unwrap();
        let k = ev.alphabet.lookup("k").unwrap();
        assert!(csp::traces::has_trace(&lts, &[a, k]));
        assert!(csp::traces::has_trace(&lts, &[a, b]));
        assert!(!csp::traces::has_trace(&lts, &[k, a]));
    }

    #[test]
    fn timeout_elaborates_and_behaves() {
        let (ev, named) = load(
            "channel a, b\n\
             P = (a -> STOP) [> (b -> STOP)",
        );
        let Value::Process(p) = &named["P"] else {
            panic!()
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 1000).unwrap();
        let a = ev.alphabet.lookup("a").unwrap();
        let b = ev.alphabet.lookup("b").unwrap();
        assert!(csp::traces::has_trace(&lts, &[a]));
        assert!(csp::traces::has_trace(&lts, &[b]));
    }

    #[test]
    fn precedence_prefix_binds_tighter_than_interrupt() {
        // a -> STOP /\ k -> STOP must parse as (a->STOP) /\ (k->STOP).
        let (ev, named) = load("channel a, k\nP = a -> STOP /\\ k -> STOP");
        let Value::Process(p) = &named["P"] else {
            panic!()
        };
        let lts = csp::Lts::build(p.clone(), &ev.defs, 1000).unwrap();
        let k = ev.alphabet.lookup("k").unwrap();
        assert!(csp::traces::has_trace(&lts, &[k]));
    }
}
