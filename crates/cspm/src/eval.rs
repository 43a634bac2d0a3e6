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
//! The evaluator borrows the parsed [`Module`]: definition bodies,
//! parameters, and channel, datatype and nametype declarations are read
//! in place, never copied. Repeated work is found without allocating:
//!
//! * each call `P(args)` has one memo entry (its value, its definition
//!   handle, and whether it is being evaluated or is queued), looked up by
//!   the argument values it was called with;
//! * type and channel-field domains are computed once per script and
//!   shared ([`Domain`] behind an [`Rc`]), each with the position of every
//!   value in it;
//! * each channel maps the field-value positions of the events its
//!   patterns produced to their [`EventId`]s, so a prefix whose event is
//!   already interned neither builds the event's name nor searches the
//!   alphabet. Only events that were produced are entered, never a
//!   channel's whole domain product.
//!
//! A `[]` or `|~|` chain is read in one loop: its operands are evaluated
//! left to right and build one n-ary choice, so a chain of any length
//! costs native stack only for its nesting, not for its links.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

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
    Data(Arc<str>, Vec<Value>),
    /// A datatype constructor awaiting payload arguments.
    CtorRef {
        /// Constructor name.
        name: Arc<str>,
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
    Channel(Arc<str>),
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

/// Variable bindings of one scope, innermost last; names borrow the AST.
type Bindings<'m> = Vec<(&'m str, Value)>;

/// The innermost binding of `name` across `scopes`.
fn lookup<'s>(name: &str, scopes: &'s [Bindings<'_>]) -> Option<&'s Value> {
    scopes
        .iter()
        .rev()
        .find_map(|scope| scope.iter().rev().find(|(n, _)| *n == name))
        .map(|(_, v)| v)
}

/// A finite domain — a type's or a channel field's values — in declaration
/// order, which fixes the order events are enumerated and interned in, plus
/// the position of each value, for membership tests.
#[derive(Debug)]
struct Domain {
    values: Vec<Value>,
    positions: HashMap<Value, u32>,
}

impl Domain {
    fn new(values: Vec<Value>) -> Rc<Domain> {
        let mut positions = HashMap::with_capacity(values.len());
        for (i, v) in values.iter().enumerate() {
            positions.entry(v.clone()).or_insert(i as u32);
        }
        Rc::new(Domain { values, positions })
    }

    /// Where `v` sits in the domain, when it is a member.
    fn position(&self, v: &Value) -> Option<u32> {
        self.positions.get(v).copied()
    }
}

/// A declared channel.
struct Channel<'m> {
    name: Arc<str>,
    fields: &'m [TypeExpr],
    /// The fields' domains, once computed.
    domains: Option<Rc<[Rc<Domain>]>>,
    /// The events produced on this channel so far, by the positions of
    /// their field values in `domains`.
    events: HashMap<Vec<u32>, EventId>,
}

/// A datatype constructor.
struct Constructor<'m> {
    name: Arc<str>,
    fields: &'m [TypeExpr],
}

/// A definition `name(params) = body`.
struct Global<'m> {
    params: &'m [String],
    body: &'m Expr,
    /// Each call's index in [`Evaluator::calls`], by argument values.
    calls: HashMap<Vec<Value>, usize>,
}

/// What the evaluator knows about one call `name(args)`.
#[derive(Default)]
struct Call {
    /// Its value, once evaluated.
    value: Option<Value>,
    /// Its definition handle, once a process reference needed one.
    id: Option<DefId>,
    /// Its body is being evaluated: a call now is a recursive reference.
    busy: bool,
    /// It was queued for elaboration by [`Evaluator::defer_call`].
    queued: bool,
}

/// An event pattern being completed against its channel's domains.
struct Pattern<'p, 'm> {
    channel: usize,
    domains: &'p [Rc<Domain>],
    fields: &'m [FieldPat],
    /// Trailing unspecified fields range over their whole domain.
    partial_ok: bool,
    /// Where this pattern's field positions start in
    /// [`Evaluator::positions`].
    base: usize,
}

/// A completion of an event pattern: the event and the bindings its `?`
/// fields produced.
type Completion<'m> = (EventId, Bindings<'m>);

/// The evaluator: shared interning state plus the script's declarations,
/// borrowed from the module for its lifetime `'m`.
pub(crate) struct Evaluator<'m> {
    pub alphabet: Alphabet,
    pub defs: Definitions,
    /// Channels in declaration order, and their indices by name.
    channels: Vec<Channel<'m>>,
    channel_index: HashMap<&'m str, usize>,
    constructors: HashMap<&'m str, Constructor<'m>>,
    datatypes: HashMap<&'m str, &'m [Ctor]>,
    nametypes: HashMap<&'m str, &'m Expr>,
    type_memo: HashMap<&'m str, Rc<Domain>>,
    type_in_progress: HashSet<&'m str>,
    globals: HashMap<&'m str, Global<'m>>,
    calls: Vec<Call>,
    /// Process-position calls awaiting body elaboration. Deferring them
    /// keeps Rust recursion bounded by *expression* depth instead of the
    /// CSPm call-graph depth (a buffer process with hundreds of reachable
    /// parameter values would otherwise overflow the stack).
    pending: Vec<(&'m str, Vec<Value>)>,
    /// The calls of alias chains and `if`-recursions that
    /// [`Evaluator::eval_call`] is following, each waiting on the next.
    links: Vec<(usize, &'m str, Vec<Value>)>,
    /// Field-value positions of the event patterns being completed, one
    /// run per pattern (see [`Pattern::base`]).
    positions: Vec<u32>,
}

impl<'m> Evaluator<'m> {
    /// Collect a module's declarations (without evaluating anything yet).
    pub(crate) fn new(module: &'m Module) -> Result<Evaluator<'m>, CspmError> {
        let mut ev = Evaluator {
            alphabet: Alphabet::new(),
            defs: Definitions::new(),
            channels: Vec::new(),
            channel_index: HashMap::new(),
            constructors: HashMap::new(),
            datatypes: HashMap::new(),
            nametypes: HashMap::new(),
            type_memo: HashMap::new(),
            type_in_progress: HashSet::new(),
            globals: HashMap::new(),
            calls: Vec::new(),
            pending: Vec::new(),
            links: Vec::new(),
            positions: Vec::new(),
        };
        for decl in &module.decls {
            match decl {
                Decl::Channel { names, fields } => {
                    for n in names {
                        let index = ev.channels.len();
                        if ev.channel_index.insert(n, index).is_some() {
                            return Err(CspmError::eval(format!("channel `{n}` redeclared")));
                        }
                        ev.channels.push(Channel {
                            name: Arc::from(n.as_str()),
                            fields,
                            domains: None,
                            events: HashMap::new(),
                        });
                    }
                }
                Decl::Datatype { name, ctors } => {
                    if ev.datatypes.insert(name, ctors).is_some() {
                        return Err(CspmError::eval(format!("datatype `{name}` redeclared")));
                    }
                    for c in ctors {
                        let constructor = Constructor {
                            name: Arc::from(c.name.as_str()),
                            fields: &c.fields,
                        };
                        if ev.constructors.insert(&c.name, constructor).is_some() {
                            return Err(CspmError::eval(format!(
                                "constructor `{}` declared twice",
                                c.name
                            )));
                        }
                    }
                }
                Decl::Nametype { name, value } => {
                    ev.nametypes.insert(name, value);
                }
                Decl::Definition {
                    name, params, body, ..
                } => {
                    let global = Global {
                        params,
                        body,
                        calls: HashMap::new(),
                    };
                    if ev.globals.insert(name, global).is_some() {
                        return Err(CspmError::eval(format!("`{name}` defined twice")));
                    }
                }
                Decl::Assert(_) => {}
            }
        }
        Ok(ev)
    }

    // ---- types and channels --------------------------------------------

    fn type_domain(&mut self, name: &'m str) -> Result<Rc<Domain>, CspmError> {
        if let Some(d) = self.type_memo.get(name) {
            return Ok(Rc::clone(d));
        }
        if name == "Bool" {
            let domain = Domain::new(vec![Value::Bool(false), Value::Bool(true)]);
            self.type_memo.insert(name, Rc::clone(&domain));
            return Ok(domain);
        }
        if !self.type_in_progress.insert(name) {
            return Err(CspmError::eval(format!(
                "recursive type `{name}` has no finite domain"
            )));
        }
        let result = (|| {
            if let Some(&ctors) = self.datatypes.get(name) {
                let mut values = Vec::new();
                for ctor in ctors {
                    let mut payload_domains = Vec::new();
                    for f in &ctor.fields {
                        payload_domains.push(self.type_expr_domain(f)?);
                    }
                    let ctor_name: Arc<str> = Arc::from(ctor.name.as_str());
                    for combo in cartesian(&payload_domains) {
                        values.push(Value::Data(Arc::clone(&ctor_name), combo));
                    }
                }
                Ok(values)
            } else if let Some(&expr) = self.nametypes.get(name) {
                let v = self.eval(expr, &mut Vec::new())?;
                Ok(v.into_set()?.into_iter().collect())
            } else {
                Err(CspmError::eval(format!("unknown type `{name}`")))
            }
        })();
        self.type_in_progress.remove(name);
        let domain = Domain::new(result?);
        self.type_memo.insert(name, Rc::clone(&domain));
        Ok(domain)
    }

    /// Whether `name` names a type: `Bool`, a datatype or a nametype.
    fn is_type(&self, name: &str) -> bool {
        name == "Bool" || self.datatypes.contains_key(name) || self.nametypes.contains_key(name)
    }

    fn type_expr_domain(&mut self, t: &'m TypeExpr) -> Result<Rc<Domain>, CspmError> {
        match t {
            TypeExpr::Name(n) => self.type_domain(n),
            TypeExpr::Set(e) => {
                let v = self.eval(e, &mut Vec::new())?;
                Ok(Domain::new(v.into_set()?.into_iter().collect()))
            }
        }
    }

    /// The index of channel `name`.
    fn channel(&self, name: &str) -> Result<usize, CspmError> {
        self.channel_index
            .get(name)
            .copied()
            .ok_or_else(|| CspmError::eval(format!("unknown channel `{name}`")))
    }

    /// The domain of each field of a channel, computed once per script.
    fn channel_domains(&mut self, channel: usize) -> Result<Rc<[Rc<Domain>]>, CspmError> {
        if let Some(d) = &self.channels[channel].domains {
            return Ok(Rc::clone(d));
        }
        let fields = self.channels[channel].fields;
        let mut domains = Vec::with_capacity(fields.len());
        for f in fields {
            domains.push(self.type_expr_domain(f)?);
        }
        let domains: Rc<[Rc<Domain>]> = domains.into();
        self.channels[channel].domains = Some(Rc::clone(&domains));
        Ok(domains)
    }

    /// All events of a channel, in domain enumeration order.
    fn channel_events(&mut self, channel: usize) -> Result<Vec<EventId>, CspmError> {
        let whole = Pattern {
            channel,
            domains: &self.channel_domains(channel)?,
            fields: &[],
            partial_ok: true,
            base: self.positions.len(),
        };
        let mut out = Vec::new();
        self.complete_fields(
            &whole,
            0,
            0,
            &mut Bindings::new(),
            &mut Vec::new(),
            &mut out,
        )?;
        Ok(out.into_iter().map(|(e, _)| e).collect())
    }

    /// The event of `channel` whose field values sit at
    /// `self.positions[base..]` in the channel's domains, interned (and
    /// named) the first time it is produced.
    fn event_id(&mut self, channel: usize, base: usize) -> EventId {
        let channel = &mut self.channels[channel];
        let key = &self.positions[base..];
        if let Some(&id) = channel.events.get(key) {
            return id;
        }
        let domains = channel
            .domains
            .as_deref()
            .expect("a channel's domains are computed before its events");
        let mut name = String::from(&*channel.name);
        for (domain, &at) in domains.iter().zip(key) {
            name.push('.');
            event_component(&domain.values[at as usize], &mut name);
        }
        let id = self.alphabet.intern(&name);
        channel.events.insert(key.to_vec(), id);
        id
    }

    // ---- names and calls -------------------------------------------------

    fn eval_name(&mut self, name: &'m str, scopes: &[Bindings<'m>]) -> Result<Value, CspmError> {
        if let Some(v) = lookup(name, scopes) {
            return Ok(v.clone());
        }
        if let Some(c) = self.constructors.get(name) {
            let name = Arc::clone(&c.name);
            return Ok(if c.fields.is_empty() {
                Value::Data(name, Vec::new())
            } else {
                Value::CtorRef {
                    name,
                    arity: c.fields.len(),
                }
            });
        }
        if let Some(&channel) = self.channel_index.get(name) {
            return Ok(Value::Channel(Arc::clone(&self.channels[channel].name)));
        }
        if self.globals.contains_key(name) {
            return self.eval_call(name, Vec::new());
        }
        if name == "Events" {
            let mut all = BTreeSet::new();
            for channel in 0..self.channels.len() {
                for e in self.channel_events(channel)? {
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

    /// The memo entry of `name(args)`, made on first sight.
    fn call(&mut self, name: &str, args: &[Value]) -> usize {
        let next = self.calls.len();
        let global = self
            .globals
            .get_mut(name)
            .expect("calls name global definitions");
        if let Some(&call) = global.calls.get(args) {
            return call;
        }
        global.calls.insert(args.to_vec(), next);
        self.calls.push(Call::default());
        next
    }

    /// Whether elaboration has called the definition `name`, with any
    /// arguments.
    pub(crate) fn called(&self, name: &str) -> bool {
        self.globals
            .get(name)
            .is_some_and(|global| !global.calls.is_empty())
    }

    /// The value of the call `name(args)`, memoised. A body that resolves
    /// to another call, as in an alias `P = Q` or `P(n) = if n == 0 then
    /// a -> STOP else P(n-1)`, is followed in a loop, at no native frame per
    /// link; the links then take their values in the order recursion would.
    fn eval_call(&mut self, mut name: &'m str, mut args: Vec<Value>) -> Result<Value, CspmError> {
        let base = self.links.len();
        let mut result = loop {
            let Some(global) = self.globals.get(name) else {
                break Err(CspmError::eval(format!("unknown definition `{name}`")));
            };
            let (params, mut body) = (global.params, global.body);
            let known = global.calls.get(args.as_slice()).copied();
            if let Some(call) = known {
                if let Some(v) = &self.calls[call].value {
                    break Ok(v.clone());
                }
                if self.calls[call].busy {
                    // Recursive reference: assume (and enforce, below) it
                    // is a process.
                    let id = self.call_id(call, name, &args);
                    break Ok(Value::Process(Process::var(id)));
                }
            }
            if params.len() != args.len() {
                break Err(CspmError::eval(format!(
                    "`{name}` expects {} argument(s), got {}",
                    params.len(),
                    args.len()
                )));
            }
            let call = known.unwrap_or_else(|| self.call(name, &args));
            self.calls[call].busy = true;
            let scope = params
                .iter()
                .map(String::as_str)
                .zip(args.iter().cloned())
                .collect();
            let mut scopes = vec![scope];
            let tail = self.tail_call(&mut body, &mut scopes);
            self.links.push((call, name, std::mem::take(&mut args)));
            match tail {
                Ok(Some((next, next_args))) => (name, args) = (next, next_args),
                found => break found.and_then(|_| self.eval(body, &mut scopes)),
            }
        };
        while self.links.len() > base {
            let (call, name, args) = self.links.pop().expect("a link above the base");
            self.calls[call].busy = false;
            result = result.map(|value| {
                let value = match value {
                    Value::Process(p) => {
                        let id = self.call_id(call, name, &args);
                        self.defs.define(id, p);
                        Value::Process(Process::var(id))
                    }
                    other => other,
                };
                self.calls[call].value = Some(value.clone());
                value
            });
        }
        result
    }

    /// Resolve the `if`s at the top of `body`, leaving there the expression
    /// they come to, and return the call it is if it calls a definition.
    /// Names resolve as [`Evaluator::eval_name`] resolves them.
    fn tail_call(
        &mut self,
        body: &mut &'m Expr,
        scopes: &mut Vec<Bindings<'m>>,
    ) -> Result<Option<(&'m str, Vec<Value>)>, CspmError> {
        loop {
            match *body {
                Expr::If { cond, then, els } => {
                    *body = if self.eval(cond, scopes)?.into_bool()? {
                        then
                    } else {
                        els
                    };
                }
                Expr::Call { name, args } if self.globals.contains_key(name.as_str()) => {
                    let argv = args.iter().map(|a| self.eval(a, scopes));
                    return Ok(Some((name, argv.collect::<Result<_, _>>()?)));
                }
                Expr::Name(n)
                    if lookup(n, scopes).is_none()
                        && !self.constructors.contains_key(n.as_str())
                        && !self.channel_index.contains_key(n.as_str())
                        && self.globals.contains_key(n.as_str()) =>
                {
                    return Ok(Some((n, Vec::new())));
                }
                _ => return Ok(None),
            }
        }
    }

    /// Evaluate an expression in *process position*: calls and references
    /// to global definitions are deferred (a `Var` handle is returned and
    /// the body is elaborated later by [`Evaluator::drain_pending`]),
    /// bounding native recursion depth.
    fn eval_process(
        &mut self,
        expr: &'m Expr,
        scopes: &mut Vec<Bindings<'m>>,
    ) -> Result<Process, CspmError> {
        match expr {
            Expr::Call { name, args } if self.globals.contains_key(name.as_str()) => {
                let argv = args
                    .iter()
                    .map(|a| self.eval(a, scopes))
                    .collect::<Result<Vec<_>, _>>()?;
                self.defer_call(name, argv)
            }
            Expr::Name(n)
                if lookup(n, scopes).is_none()
                    && self
                        .globals
                        .get(n.as_str())
                        .is_some_and(|g| g.params.is_empty()) =>
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
                            .push((name, v)),
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
    fn defer_call(&mut self, name: &'m str, args: Vec<Value>) -> Result<Process, CspmError> {
        let call = self.call(name, &args);
        if let Some(v) = &self.calls[call].value {
            return v.clone().into_process();
        }
        let id = self.call_id(call, name, &args);
        let entry = &mut self.calls[call];
        if !entry.busy && !entry.queued {
            entry.queued = true;
            self.pending.push((name, args));
        }
        Ok(Process::var(id))
    }

    /// Elaborate every deferred call (and whatever they defer in turn).
    pub(crate) fn drain_pending(&mut self) -> Result<(), CspmError> {
        while let Some((name, args)) = self.pending.pop() {
            let value = self.eval_call(name, args)?;
            if !matches!(value, Value::Process(_)) {
                return Err(CspmError::eval(format!(
                    "`{name}` is used as a process but evaluates to a {}",
                    value.kind_name()
                )));
            }
        }
        Ok(())
    }

    /// The definition handle of `call`, declared as `name(args)` on first
    /// use.
    fn call_id(&mut self, call: usize, name: &str, args: &[Value]) -> DefId {
        if let Some(id) = self.calls[call].id {
            return id;
        }
        let mut label = String::from(name);
        if !args.is_empty() {
            label.push('(');
            for (i, v) in args.iter().enumerate() {
                if i > 0 {
                    label.push(',');
                }
                event_component(v, &mut label);
            }
            label.push(')');
        }
        let id = self.defs.declare(&label);
        self.calls[call].id = Some(id);
        id
    }

    // ---- the evaluator ---------------------------------------------------

    pub(crate) fn eval(
        &mut self,
        expr: &'m Expr,
        scopes: &mut Vec<Bindings<'m>>,
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
                if self.globals.contains_key(name.as_str()) {
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
                        .push((name, v));
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
                    if let Some(&Value::Event(eid)) = lookup(&event.channel, scopes) {
                        let p = self.eval_process(body, scopes)?;
                        return Ok(Value::Process(Process::prefix(eid, p)));
                    }
                }
                let mut completions = self.completions(event, scopes, false)?;
                if completions.len() == 1 {
                    let (eid, binds) = completions.pop().expect("one completion");
                    scopes.push(binds);
                    let result = self.eval_process(body, scopes);
                    scopes.pop();
                    return Ok(Value::Process(Process::prefix(eid, result?)));
                }
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
            Expr::ExtChoice(..) => {
                let operands = self.chain(expr, scopes, |e| match e {
                    Expr::ExtChoice(a, b) => Some((&**a, &**b)),
                    _ => None,
                })?;
                Ok(Value::Process(Process::external_choice_all(operands)))
            }
            Expr::IntChoice(..) => {
                let operands = self.chain(expr, scopes, |e| match e {
                    Expr::IntChoice(a, b) => Some((&**a, &**b)),
                    _ => None,
                })?;
                Ok(Value::Process(Process::internal_choice_all(operands)))
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
                    scopes.push(vec![(var.as_str(), v)]);
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

    /// The operands of a chain of one binary choice operator, each
    /// evaluated in process position, left to right. `link` splits one
    /// link of the chain into its operands. The chain is walked with an
    /// explicit stack: however the parser nested it, a chain of n links
    /// costs no native recursion.
    fn chain(
        &mut self,
        root: &'m Expr,
        scopes: &mut Vec<Bindings<'m>>,
        link: fn(&'m Expr) -> Option<(&'m Expr, &'m Expr)>,
    ) -> Result<Vec<Process>, CspmError> {
        let mut todo = vec![root];
        let mut operands = Vec::new();
        while let Some(e) = todo.pop() {
            match link(e) {
                Some((a, b)) => {
                    todo.push(b);
                    todo.push(a);
                }
                None => operands.push(self.eval_process(e, scopes)?),
            }
        }
        Ok(operands)
    }
    /// Recursive comprehension driver: bind each generator in turn, filter
    /// by the guards, collect the head expression.
    fn comprehend(
        &mut self,
        head: &'m Expr,
        binders: &'m [(String, Expr)],
        guards: &'m [Expr],
        scopes: &mut Vec<Bindings<'m>>,
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
            scopes.push(vec![(var.as_str(), v)]);
            let result = self.comprehend(head, rest, guards, scopes, out);
            scopes.pop();
            result?;
        }
        Ok(())
    }

    fn binary(
        &mut self,
        op: BinOp,
        lhs: &'m Expr,
        rhs: &'m Expr,
        scopes: &mut Vec<Bindings<'m>>,
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
        pat: &'m EventPattern,
        scopes: &mut Vec<Bindings<'m>>,
        partial_ok: bool,
    ) -> Result<Vec<Completion<'m>>, CspmError> {
        let channel = self.channel(&pat.channel)?;
        let pattern = Pattern {
            channel,
            domains: &self.channel_domains(channel)?,
            fields: &pat.fields,
            partial_ok,
            base: self.positions.len(),
        };
        let mut out = Vec::new();
        let result = self.complete_fields(&pattern, 0, 0, &mut Bindings::new(), scopes, &mut out);
        self.positions.truncate(pattern.base);
        result.map(|()| out)
    }

    /// Complete channel field `field` (and those after it) from pattern
    /// field `at`, under the positions already pushed for the fields before
    /// it and the bindings `binds` their `?` fields made.
    fn complete_fields(
        &mut self,
        pat: &Pattern<'_, 'm>,
        field: usize,
        at: usize,
        binds: &mut Bindings<'m>,
        scopes: &mut Vec<Bindings<'m>>,
        out: &mut Vec<Completion<'m>>,
    ) -> Result<(), CspmError> {
        if field == pat.domains.len() {
            if at < pat.fields.len() {
                return Err(CspmError::eval(format!(
                    "too many fields for channel `{}`",
                    self.channels[pat.channel].name
                )));
            }
            let event = self.event_id(pat.channel, pat.base);
            out.push((event, binds.clone()));
            return Ok(());
        }
        let domain = &pat.domains[field];
        match pat.fields.get(at) {
            None => {
                if !pat.partial_ok {
                    return Err(CspmError::eval(format!(
                        "event on channel `{}` is missing fields",
                        self.channels[pat.channel].name
                    )));
                }
                for i in 0..domain.values.len() {
                    self.positions.push(i as u32);
                    self.complete_fields(pat, field + 1, at, binds, scopes, out)?;
                    self.positions.pop();
                }
                Ok(())
            }
            Some(FieldPat::Dot(e) | FieldPat::Output(e)) => {
                let v = self.eval_with(e, binds, scopes)?;
                // A bare constructor with payload: consume following pattern
                // fields as its payload components.
                if let Value::CtorRef { name: ctor, arity } = v {
                    return self.complete_ctor(pat, field, at, binds, scopes, out, &ctor, arity);
                }
                let Some(position) = domain.position(&v) else {
                    return Err(CspmError::eval(format!(
                        "value is not in the domain of field {field} of channel `{}`",
                        self.channels[pat.channel].name
                    )));
                };
                self.positions.push(position);
                self.complete_fields(pat, field + 1, at + 1, binds, scopes, out)?;
                self.positions.pop();
                Ok(())
            }
            Some(FieldPat::Input { var, restrict }) => {
                let allowed = match restrict {
                    Some(r) => Some(self.eval_with(r, binds, scopes)?.into_set()?),
                    None => None,
                };
                for (i, v) in domain.values.iter().enumerate() {
                    if allowed.as_ref().is_some_and(|allowed| !allowed.contains(v)) {
                        continue;
                    }
                    self.positions.push(i as u32);
                    binds.push((var, v.clone()));
                    self.complete_fields(pat, field + 1, at + 1, binds, scopes, out)?;
                    binds.pop();
                    self.positions.pop();
                }
                Ok(())
            }
        }
    }

    /// Evaluate `e` with the pattern's bindings `binds` in scope.
    fn eval_with(
        &mut self,
        e: &'m Expr,
        binds: &mut Bindings<'m>,
        scopes: &mut Vec<Bindings<'m>>,
    ) -> Result<Value, CspmError> {
        scopes.push(std::mem::take(binds));
        let v = self.eval(e, scopes);
        *binds = scopes.pop().expect("scope just pushed");
        v
    }

    /// Handle `c.Ctor.p1.p2` where `Ctor` is a payload-carrying constructor
    /// of the channel field's datatype: the next `arity` pattern fields form
    /// the payload.
    #[allow(clippy::too_many_arguments)]
    fn complete_ctor(
        &mut self,
        pat: &Pattern<'_, 'm>,
        field: usize,
        at: usize,
        binds: &mut Bindings<'m>,
        scopes: &mut Vec<Bindings<'m>>,
        out: &mut Vec<Completion<'m>>,
        ctor: &Arc<str>,
        arity: usize,
    ) -> Result<(), CspmError> {
        let payload_types = self
            .constructors
            .get(&**ctor)
            .map(|c| c.fields)
            .ok_or_else(|| CspmError::eval(format!("unknown constructor `{ctor}`")))?;
        debug_assert_eq!(payload_types.len(), arity);
        // Enumerate payload combinations compatible with the next pattern
        // fields.
        let mut partials: Vec<(Vec<Value>, Bindings<'m>)> = vec![(Vec::new(), binds.clone())];
        let mut used = 0usize;
        for (slot, ty) in payload_types.iter().enumerate() {
            let domain = self.type_expr_domain(ty)?;
            let mut next: Vec<(Vec<Value>, Bindings<'m>)> = Vec::new();
            match pat.fields.get(at + 1 + slot) {
                None => {
                    if !pat.partial_ok {
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
                Some(FieldPat::Dot(e) | FieldPat::Output(e)) => {
                    used += 1;
                    for (payload, bs) in &mut partials {
                        let v = self.eval_with(e, bs, scopes)?;
                        if domain.position(&v).is_none() {
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
                    for (payload, bs) in &mut partials {
                        let allowed = match restrict {
                            Some(r) => Some(self.eval_with(r, bs, scopes)?.into_set()?),
                            None => None,
                        };
                        for v in &domain.values {
                            if allowed.as_ref().is_some_and(|allowed| !allowed.contains(v)) {
                                continue;
                            }
                            let mut p = payload.clone();
                            p.push(v.clone());
                            let mut b2 = bs.clone();
                            b2.push((var.as_str(), v.clone()));
                            next.push((p, b2));
                        }
                    }
                }
            }
            partials = next;
        }
        for (payload, mut bs) in partials {
            let value = Value::Data(Arc::clone(ctor), payload);
            let Some(position) = pat.domains[field].position(&value) else {
                return Err(CspmError::eval(format!(
                    "`{ctor}` value is not in the domain of field {field} of `{}`",
                    self.channels[pat.channel].name
                )));
            };
            self.positions.push(position);
            self.complete_fields(pat, field + 1, at + 1 + used, &mut bs, scopes, out)?;
            self.positions.pop();
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
                Value::Channel(c) => {
                    let channel = self.channel(c)?;
                    out.extend(self.channel_events(channel)?);
                }
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
        pairs: &'m [(EventPattern, EventPattern)],
        scopes: &mut Vec<Bindings<'m>>,
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
) -> Result<(Evaluator<'_>, BTreeMap<String, Value>), CspmError> {
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

    /// The evaluator borrows its module, so tests leak theirs.
    fn module(src: &str) -> &'static Module {
        Box::leak(Box::new(parse_module(&lex(src).unwrap()).unwrap()))
    }

    fn load(src: &str) -> (Evaluator<'static>, BTreeMap<String, Value>) {
        load_module(module(src)).unwrap()
    }

    fn load_err(src: &str) -> CspmError {
        match load_module(module(src)) {
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

    fn load(
        src: &str,
    ) -> (
        Evaluator<'static>,
        std::collections::BTreeMap<String, Value>,
    ) {
        let m = Box::leak(Box::new(parse_module(&lex(src).unwrap()).unwrap()));
        load_module(m).unwrap()
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
