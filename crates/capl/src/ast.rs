//! Abstract syntax tree for CAPL programs.

use serde::{Deserialize, Serialize};

use crate::error::Pos;

/// A whole CAPL program: the four block types of §IV-B1 of the paper —
/// optional `includes` and `variables` sections, event procedures and
/// user-defined functions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// `#include "…"` paths from the `includes` section.
    pub includes: Vec<String>,
    /// Global declarations from the `variables` section.
    pub variables: Vec<VarDecl>,
    /// Event procedures, in source order.
    pub handlers: Vec<EventHandler>,
    /// User-defined functions, in source order.
    pub functions: Vec<FunctionDecl>,
}

impl Program {
    /// The handler for a given event kind, if present.
    pub fn handler(&self, event: &EventKind) -> Option<&EventHandler> {
        self.handlers.iter().find(|h| &h.event == event)
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&FunctionDecl> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// A global or local variable declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VarDecl {
    /// The declared type.
    pub ty: Type,
    /// Variable name.
    pub name: String,
    /// Optional array length (`byte buf[8]`).
    pub array: Option<usize>,
    /// Optional initialiser expression.
    pub init: Option<Expr>,
    /// Source position.
    pub pos: Pos,
}

/// CAPL types (the subset used by ECU application code).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Type {
    /// `int` (16-bit in CAPL; modelled as i64).
    Int,
    /// `long`
    Long,
    /// `byte`
    Byte,
    /// `word`
    Word,
    /// `dword`
    Dword,
    /// `char`
    Char,
    /// `float` / `double`
    Float,
    /// `message <name-or-id>` — a CAN message object.
    Message(MsgRef),
    /// `msTimer`
    MsTimer,
    /// `timer` (seconds)
    Timer,
    /// `void` (function return type only)
    Void,
}

/// How a `message` variable or `on message` handler names its CAN message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsgRef {
    /// By symbolic name from the CAN database, e.g. `reqSw`.
    Name(String),
    /// By raw CAN identifier, e.g. `0x64`.
    Id(u32),
    /// `*` — any message (only valid in `on message *`).
    Any,
}

impl MsgRef {
    /// The symbolic name, if this reference uses one.
    pub fn name(&self) -> Option<&str> {
        match self {
            MsgRef::Name(n) => Some(n),
            _ => None,
        }
    }
}

/// An event procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventHandler {
    /// What event triggers the procedure.
    pub event: EventKind,
    /// The body.
    pub body: Block,
    /// Source position.
    pub pos: Pos,
}

/// The events CAPL programs can react to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// `on start` — measurement start.
    Start,
    /// `on preStart`
    PreStart,
    /// `on stopMeasurement`
    StopMeasurement,
    /// `on message <m>`
    Message(MsgRef),
    /// `on timer <t>`
    Timer(String),
    /// `on key '<c>'`
    Key(char),
}

/// A user-defined function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionDecl {
    /// Return type.
    pub ret: Type,
    /// Function name.
    pub name: String,
    /// Parameters as `(type, name)` pairs.
    pub params: Vec<(Type, String)>,
    /// The body.
    pub body: Block,
    /// Source position.
    pub pos: Pos,
}

/// A `{ … }` block of statements.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// A local variable declaration.
    VarDecl(VarDecl),
    /// An expression statement (usually a call or assignment).
    Expr(Expr),
    /// `if (c) s [else s]`
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then: Block,
        /// Optional else-branch.
        els: Option<Block>,
    },
    /// `while (c) s`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `for (init; cond; step) s`
    For {
        /// Initialiser (statement, typically assignment or declaration).
        init: Option<Box<Stmt>>,
        /// Condition (defaults to true).
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `switch (e) { case k: …; default: … }`
    Switch {
        /// Scrutinee.
        scrutinee: Expr,
        /// `case` arms: constant expression and body.
        cases: Vec<(Expr, Block)>,
        /// Optional `default` arm.
        default: Option<Block>,
    },
    /// `return [e];`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// A nested block.
    Block(Block),
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Integer literal (decimal or hex).
    Int(i64),
    /// Floating literal.
    Float(f64),
    /// Character literal.
    Char(char),
    /// String literal.
    Str(String),
    /// A name.
    Ident(String),
    /// `this` — the message that triggered the current handler.
    This,
    /// Member access `m.signal` (signal or selector access on a message).
    Member {
        /// The object.
        object: Box<Expr>,
        /// The member name.
        member: String,
    },
    /// Array index `a[i]`.
    Index {
        /// The array.
        array: Box<Expr>,
        /// The index.
        index: Box<Expr>,
    },
    /// A call `f(a, b)` — including the CAPL built-ins `output`,
    /// `setTimer`, `cancelTimer`, `write`.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Assignment `lhs = rhs` (also `+=` etc., desugared by the parser).
    Assign {
        /// Target (identifier, member or index expression).
        target: Box<Expr>,
        /// Value.
        value: Box<Expr>,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
    /// `~`
    BitNot,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}
