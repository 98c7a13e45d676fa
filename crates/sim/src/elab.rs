//! Elaboration: flattening an analyzed design into signals plus
//! combinational, sequential and initial processes, then lowering them
//! into the kernel the interpreter executes. A [`Design`] is what is left:
//! its top, its ports and the kernel.
//!
//! Instances are flattened with hierarchical name prefixes (`u1.q`), and
//! generate-for loops are unrolled at elaboration time with the genvar bound
//! as a constant parameter, exactly like a synthesis front-end.
//!
//! The flattened process list is a temporary: each process borrows its
//! expressions and statements from the [`Analysis`], and every process of
//! one scope (an instance, or one generate iteration) shares one `Arc` of
//! that scope's prefixes and constants. [`elaborate`] lowers the list (the
//! `lower` module: name interning, constant folding, tape compilation)
//! before it returns, so nothing copied from the source outlives set-up.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use rtlfixer_verilog::ast::{
    Connection, Direction, Edge, Expr, Item, Module, Sensitivity, Stmt,
};
use rtlfixer_verilog::const_eval;
use rtlfixer_verilog::Analysis;

use crate::lower::{lower, Kernel};

/// Maximum instance nesting depth.
const MAX_DEPTH: usize = 16;
/// Maximum generate-loop unroll count.
const MAX_GEN_UNROLL: i64 = 4096;

/// Why elaboration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElabError {
    /// The requested top module does not exist.
    TopNotFound(String),
    /// The analysis contains compile errors; refuse to elaborate.
    CompileErrors(usize),
    /// Instance recursion exceeded `MAX_DEPTH` (16) levels.
    TooDeep,
    /// A construct the simulator does not support.
    Unsupported(String),
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElabError::TopNotFound(name) => write!(f, "top module '{name}' not found"),
            ElabError::CompileErrors(n) => write!(f, "design has {n} compile errors"),
            ElabError::TooDeep => write!(f, "instance hierarchy too deep"),
            ElabError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
        }
    }
}

impl std::error::Error for ElabError {}

/// A flattened signal definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigDef {
    /// Packed width in bits.
    pub width: u32,
    /// Declared most-significant index.
    pub msb: i64,
    /// Declared least-significant index.
    pub lsb: i64,
    /// Declared signed.
    pub signed: bool,
    /// Unpacked (memory) bounds, if any.
    pub words: Option<(i64, i64)>,
}

impl SigDef {
    /// Maps a declared bit index to a zero-based offset, if in range.
    pub fn offset(&self, index: i64) -> Option<u32> {
        let descending = self.msb >= self.lsb;
        let (lo, hi) = if descending { (self.lsb, self.msb) } else { (self.msb, self.lsb) };
        if index < lo || index > hi {
            return None;
        }
        let off = if descending { index - self.lsb } else { self.lsb - index };
        Some(off as u32)
    }

    /// Number of memory words (1 for plain vectors).
    pub fn word_count(&self) -> usize {
        match self.words {
            None => 1,
            Some((a, b)) => (a.abs_diff(b) + 1) as usize,
        }
    }

    /// Maps a declared word index to a zero-based slot, if in range.
    pub fn word_offset(&self, index: i64) -> Option<usize> {
        let (a, b) = self.words?;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        if index < lo || index > hi {
            return None;
        }
        Some((index - lo) as usize)
    }
}

/// A top-level port of the elaborated design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortDef {
    /// Port name (top-level, unprefixed).
    pub name: String,
    /// Width in bits.
    pub width: u32,
}

/// Scope information shared by the processes of one module instance (or one
/// generate-scope within it).
#[derive(Debug)]
pub(crate) struct Scope {
    /// Prefix of the instance this process belongs to (`""` for top,
    /// `"u1."` for a child instance).
    pub(crate) module_prefix: String,
    /// Full scope prefix including generate-block scopes
    /// (`"u1.gen[3]."`). Name resolution walks from here back to
    /// [`Scope::module_prefix`].
    pub(crate) scope_prefix: String,
    /// Constant bindings: parameters plus enclosing genvar values.
    pub(crate) params: Arc<HashMap<String, i64>>,
}

/// A combinational or initial process, borrowing its body from the
/// analysis.
#[derive(Debug)]
pub(crate) struct Proc<'a> {
    /// Scope for name resolution, shared by every process of the scope.
    pub(crate) scope: Arc<Scope>,
    /// What to execute.
    pub(crate) kind: ProcKind<'a>,
}

/// Process payload.
#[derive(Debug)]
pub(crate) enum ProcKind<'a> {
    /// `assign lhs = rhs` (both in this scope).
    Assign {
        /// Target.
        lhs: &'a Expr,
        /// Source.
        rhs: &'a Expr,
    },
    /// A net initialiser, `wire name = rhs`: an assignment to the net.
    Init {
        /// The declared net.
        name: &'a str,
        /// Source.
        rhs: &'a Expr,
    },
    /// An `always @*` (or initial) body.
    Block(&'a Stmt),
    /// Port bind: copy `expr` (evaluated in this scope) into the child's
    /// input signal (full flattened name).
    BindIn {
        /// Full flattened child signal name.
        child: String,
        /// Parent-scope expression.
        expr: &'a Expr,
    },
    /// Port bind: copy the child's output signal into `lhs` (this scope).
    BindOut {
        /// Parent-scope l-value.
        lhs: &'a Expr,
        /// Full flattened child signal name.
        child: String,
    },
}

/// An edge-triggered process.
#[derive(Debug)]
pub(crate) struct SeqProc<'a> {
    /// Scope for name resolution.
    pub(crate) scope: Arc<Scope>,
    /// Triggering edges: polarity + full flattened signal name.
    pub(crate) edges: Vec<(Edge, String)>,
    /// Body, executed with non-blocking semantics available.
    pub(crate) body: &'a Stmt,
}

/// A user function, resolvable from its defining scope.
#[derive(Debug)]
pub(crate) struct FunctionDef<'a> {
    /// Argument names and widths, in order.
    pub(crate) args: Vec<(&'a str, u32)>,
    /// Return width.
    pub(crate) width: u32,
    /// Body.
    pub(crate) body: &'a Stmt,
    /// Defining scope.
    pub(crate) scope: Arc<Scope>,
}

/// The flattened design lowering consumes: every signal and process of the
/// hierarchy, borrowed from the analysis it was elaborated from.
#[derive(Debug, Default)]
pub(crate) struct Flat<'a> {
    /// All flattened signals.
    pub(crate) signals: HashMap<String, SigDef>,
    /// Combinational processes (assigns, always@*, port binds) in order.
    pub(crate) comb: Vec<Proc<'a>>,
    /// Edge-triggered processes.
    pub(crate) seq: Vec<SeqProc<'a>>,
    /// Initial processes.
    pub(crate) init: Vec<Proc<'a>>,
    /// Functions keyed by `{module_prefix}{name}`.
    pub(crate) functions: HashMap<String, FunctionDef<'a>>,
}

/// A fully elaborated design: its top, its ports and the lowered kernel,
/// which holds every flattened signal's name and definition and every
/// process in execution form. Immutable once built, so clones and the
/// simulators built on it share one kernel.
#[derive(Debug, Clone)]
pub struct Design {
    /// Top module name.
    pub top: String,
    /// Top-level input ports.
    pub inputs: Vec<PortDef>,
    /// Top-level output ports.
    pub outputs: Vec<PortDef>,
    /// The lowered execution form.
    pub(crate) kernel: Arc<Kernel>,
}

/// Elaborates `top` from an error-free analysis and lowers it, tapes
/// compiled.
///
/// # Errors
///
/// Returns [`ElabError`] if the analysis has errors, the top module is
/// missing, the hierarchy recurses too deep, or an unsupported construct is
/// encountered.
pub fn elaborate(analysis: &Analysis, top: &str) -> Result<Design, ElabError> {
    let (flat, inputs, outputs) = flatten_top(analysis, top)?;
    Ok(Design { top: top.to_owned(), inputs, outputs, kernel: Arc::new(lower(flat)) })
}

/// Runs elaboration's flattening alone — no lowering — and returns how many
/// processes it produced: [`elaborate`]'s first phase, exposed for
/// allocation budgets.
///
/// # Errors
///
/// As [`elaborate`].
#[doc(hidden)]
pub fn flatten(analysis: &Analysis, top: &str) -> Result<usize, ElabError> {
    let (flat, _, _) = flatten_top(analysis, top)?;
    Ok(flat.comb.len() + flat.seq.len() + flat.init.len())
}

/// Flattens `top` and reads its ports: the flat form plus its inputs and
/// outputs.
fn flatten_top<'a>(
    analysis: &'a Analysis,
    top: &str,
) -> Result<(Flat<'a>, Vec<PortDef>, Vec<PortDef>), ElabError> {
    let error_count = analysis.errors().len();
    if error_count > 0 {
        return Err(ElabError::CompileErrors(error_count));
    }
    let module = analysis
        .file
        .module(top)
        .ok_or_else(|| ElabError::TopNotFound(top.to_owned()))?;

    let mut flat = Flat::default();
    let params = Arc::new(module_params(module, &HashMap::new()));
    elaborate_module(analysis, module, "", Arc::clone(&params), &mut flat, 0)?;

    // Top ports.
    let (mut inputs, mut outputs) = (Vec::new(), Vec::new());
    for port in &module.ports {
        let width = port_width(port, &params);
        let def = PortDef { name: port.name.clone(), width };
        match port.direction {
            Direction::Input => inputs.push(def),
            Direction::Output | Direction::Inout => outputs.push(def),
        }
    }
    Ok((flat, inputs, outputs))
}

/// Key of the process-wide design cache: source content hash plus top
/// module name. The fingerprint identifies the source text behind the
/// analysis, so any two analyses of the same source share one elaboration.
type DesignKey = (u128, String);

fn design_cache(
) -> &'static rtlfixer_cache::ShardedCache<DesignKey, Result<Arc<Design>, ElabError>> {
    static CACHE: std::sync::OnceLock<
        rtlfixer_cache::ShardedCache<DesignKey, Result<Arc<Design>, ElabError>>,
    > = std::sync::OnceLock::new();
    CACHE.get_or_init(|| rtlfixer_cache::ShardedCache::named(64, 128, "designs"))
}

/// [`elaborate`], memoised process-wide behind `(source fingerprint, top)`.
///
/// The testbench harness elaborates the same design once per simulation
/// run — once per proposal in the §5 local search, once per sample in the
/// pass@k harness — yet elaboration is a pure function of the analysed
/// source and the top name. This is the *elaborate-once fast path*:
/// callers get a shared immutable [`Design`], kernel included, and keep
/// per-run mutable state (signal values) on the side. Failures are memoised
/// too, so repeatedly simulating an unsupported design stays cheap. Each
/// fill is timed as a [`rtlfixer_obs::kind::SETUP`] span.
pub fn elaborate_shared(analysis: &Analysis, top: &str) -> Result<Arc<Design>, ElabError> {
    let key = (analysis.fingerprint, top.to_owned());
    design_cache().get_or_insert_with(key, || {
        let _setup_span = rtlfixer_obs::span(rtlfixer_obs::kind::SETUP);
        elaborate(analysis, top).map(Arc::new)
    })
}

/// Hit/miss counters of the process-wide [`elaborate_shared`] cache.
pub fn design_cache_stats() -> rtlfixer_cache::CacheStats {
    design_cache().stats()
}

fn port_width(port: &rtlfixer_verilog::ast::Port, env: &HashMap<String, i64>) -> u32 {
    match &port.range {
        None => 1,
        Some(r) => {
            let msb = const_eval::eval(&r.msb, env).unwrap_or(0);
            let lsb = const_eval::eval(&r.lsb, env).unwrap_or(0);
            msb.abs_diff(lsb) as u32 + 1
        }
    }
}

fn module_params(module: &Module, overrides: &HashMap<String, i64>) -> HashMap<String, i64> {
    let mut env = HashMap::new();
    for param in &module.header_params {
        let value = overrides
            .get(&param.name)
            .copied()
            .or_else(|| const_eval::eval(&param.value, &env).ok())
            .unwrap_or(0);
        env.insert(param.name.clone(), value);
    }
    for item in &module.items {
        if let Item::Param(param) = item {
            let value = if !param.local {
                overrides
                    .get(&param.name)
                    .copied()
                    .or_else(|| const_eval::eval(&param.value, &env).ok())
                    .unwrap_or(0)
            } else {
                const_eval::eval(&param.value, &env).unwrap_or(0)
            };
            env.insert(param.name.clone(), value);
        }
    }
    env
}

fn elaborate_module<'a>(
    analysis: &'a Analysis,
    module: &'a Module,
    prefix: &str,
    params: Arc<HashMap<String, i64>>,
    flat: &mut Flat<'a>,
    depth: usize,
) -> Result<(), ElabError> {
    if depth > MAX_DEPTH {
        return Err(ElabError::TooDeep);
    }
    // Register port signals.
    for port in &module.ports {
        register_signal(
            flat,
            &format!("{prefix}{}", port.name),
            &port.range,
            port.signed,
            &None,
            &params,
        );
    }
    let scope = Arc::new(Scope {
        module_prefix: prefix.to_owned(),
        scope_prefix: prefix.to_owned(),
        params,
    });
    elaborate_items(analysis, &module.items, &scope, flat, depth)
}

fn register_signal(
    flat: &mut Flat<'_>,
    full_name: &str,
    range: &Option<rtlfixer_verilog::ast::RangeDecl>,
    signed: bool,
    unpacked: &Option<rtlfixer_verilog::ast::RangeDecl>,
    env: &HashMap<String, i64>,
) {
    register_signal_kind(flat, full_name, range, signed, unpacked, env, false)
}

#[allow(clippy::too_many_arguments)]
fn register_signal_kind(
    flat: &mut Flat<'_>,
    full_name: &str,
    range: &Option<rtlfixer_verilog::ast::RangeDecl>,
    signed: bool,
    unpacked: &Option<rtlfixer_verilog::ast::RangeDecl>,
    env: &HashMap<String, i64>,
    is_integer: bool,
) {
    let (msb, lsb) = match range {
        None if is_integer => (31, 0),
        None => (0, 0),
        Some(r) => (
            const_eval::eval(&r.msb, env).unwrap_or(0),
            const_eval::eval(&r.lsb, env).unwrap_or(0),
        ),
    };
    let words = unpacked.as_ref().map(|r| {
        (
            const_eval::eval(&r.msb, env).unwrap_or(0),
            const_eval::eval(&r.lsb, env).unwrap_or(0),
        )
    });
    let width = msb.abs_diff(lsb) as u32 + 1;
    flat.signals
        .entry(full_name.to_owned())
        .and_modify(|def| {
            // A body decl refining a port: prefer the wider/more specific.
            if width > def.width {
                def.width = width;
                def.msb = msb;
                def.lsb = lsb;
            }
            if words.is_some() {
                def.words = words;
            }
            def.signed |= signed;
        })
        .or_insert(SigDef { width, msb, lsb, signed, words });
}

fn elaborate_items<'a>(
    analysis: &'a Analysis,
    items: &'a [Item],
    scope: &Arc<Scope>,
    flat: &mut Flat<'a>,
    depth: usize,
) -> Result<(), ElabError> {
    for item in items {
        match item {
            Item::Net { kind, signed, range, decls, .. } => {
                let is_integer = *kind == rtlfixer_verilog::ast::NetKind::Integer;
                for decl in decls {
                    let full = format!("{}{}", scope.scope_prefix, decl.name);
                    register_signal_kind(
                        flat,
                        &full,
                        range,
                        *signed,
                        &decl.unpacked,
                        &scope.params,
                        is_integer,
                    );
                    if let Some(init) = &decl.init {
                        let kind = || ProcKind::Init { name: &decl.name, rhs: init };
                        flat.init.push(Proc { scope: Arc::clone(scope), kind: kind() });
                        // Nets with initialisers behave like continuous
                        // assignments for combinational logic.
                        flat.comb.push(Proc { scope: Arc::clone(scope), kind: kind() });
                    }
                }
            }
            Item::PortDecl(port) => {
                let full = format!("{}{}", scope.scope_prefix, port.name);
                register_signal(flat, &full, &port.range, port.signed, &None, &scope.params);
            }
            Item::Param(_) | Item::Genvar { .. } => {}
            Item::ContinuousAssign { assigns, .. } => {
                for (lhs, rhs) in assigns {
                    flat.comb
                        .push(Proc { scope: Arc::clone(scope), kind: ProcKind::Assign { lhs, rhs } });
                }
            }
            Item::Always { sensitivity, body, .. } => match sensitivity {
                Sensitivity::Star | Sensitivity::Signals(_) | Sensitivity::None => {
                    flat.comb.push(Proc { scope: Arc::clone(scope), kind: ProcKind::Block(body) });
                }
                Sensitivity::Edges(edges) => {
                    let mut resolved = Vec::with_capacity(edges.len());
                    for edge in edges {
                        let name = edge.signal.as_ident().ok_or_else(|| {
                            ElabError::Unsupported("non-identifier edge expression".into())
                        })?;
                        resolved.push((edge.edge, format!("{}{name}", scope.module_prefix)));
                    }
                    flat.seq.push(SeqProc { scope: Arc::clone(scope), edges: resolved, body });
                }
            },
            Item::Initial { body, .. } => {
                flat.init.push(Proc { scope: Arc::clone(scope), kind: ProcKind::Block(body) });
            }
            Item::Instance { module: child_name, name, params: param_conns, conns, .. } => {
                elaborate_instance(
                    analysis,
                    child_name,
                    name,
                    param_conns,
                    conns,
                    scope,
                    flat,
                    depth,
                )?;
            }
            Item::Generate { items, .. } => {
                elaborate_items(analysis, items, scope, flat, depth)?;
            }
            Item::GenFor { var, init, cond, step, label, items, .. } => {
                let mut env = (*scope.params).clone();
                let mut value = const_eval::eval(init, &env)
                    .map_err(|_| ElabError::Unsupported("non-constant generate bound".into()))?;
                let mut count = 0i64;
                loop {
                    match env.get_mut(var) {
                        Some(slot) => *slot = value,
                        None => {
                            env.insert(var.clone(), value);
                        }
                    }
                    match const_eval::eval(cond, &env) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(_) => {
                            return Err(ElabError::Unsupported(
                                "non-constant generate condition".into(),
                            ))
                        }
                    }
                    let iter_scope = Arc::new(Scope {
                        module_prefix: scope.module_prefix.clone(),
                        scope_prefix: match label {
                            Some(l) => format!("{}{l}[{value}].", scope.scope_prefix),
                            None => format!("{}genblk[{value}].", scope.scope_prefix),
                        },
                        params: Arc::new(env.clone()),
                    });
                    elaborate_items(analysis, items, &iter_scope, flat, depth)?;
                    count += 1;
                    if count > MAX_GEN_UNROLL {
                        return Err(ElabError::Unsupported("generate loop too large".into()));
                    }
                    value = const_eval::eval(step, &env)
                        .map_err(|_| ElabError::Unsupported("non-constant generate step".into()))?;
                }
            }
            Item::Function { name, range, args, body, .. } => {
                let width = match range {
                    None => 1,
                    Some(r) => {
                        let msb = const_eval::eval(&r.msb, &scope.params).unwrap_or(0);
                        let lsb = const_eval::eval(&r.lsb, &scope.params).unwrap_or(0);
                        msb.abs_diff(lsb) as u32 + 1
                    }
                };
                let args = args
                    .iter()
                    .map(|arg| (arg.name.as_str(), port_width(arg, &scope.params)))
                    .collect();
                flat.functions.insert(
                    format!("{}{name}", scope.module_prefix),
                    FunctionDef { args, width, body, scope: Arc::clone(scope) },
                );
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn elaborate_instance<'a>(
    analysis: &'a Analysis,
    child_name: &str,
    instance: &str,
    param_conns: &[Connection],
    conns: &'a [Connection],
    scope: &Arc<Scope>,
    flat: &mut Flat<'a>,
    depth: usize,
) -> Result<(), ElabError> {
    let child = analysis
        .file
        .module(child_name)
        .ok_or_else(|| ElabError::TopNotFound(child_name.to_owned()))?;

    // Parameter overrides, evaluated in the parent's constant scope.
    let mut overrides = HashMap::new();
    for (idx, conn) in param_conns.iter().enumerate() {
        let Some(expr) = &conn.expr else { continue };
        let Ok(value) = const_eval::eval(expr, &scope.params) else { continue };
        match &conn.port {
            Some(name) => {
                overrides.insert(name.clone(), value);
            }
            None => {
                if let Some(param) = child.header_params.get(idx) {
                    overrides.insert(param.name.clone(), value);
                }
            }
        }
    }
    let child_params = module_params(child, &overrides);
    let child_prefix = format!("{}{instance}.", scope.scope_prefix);
    elaborate_module(analysis, child, &child_prefix, Arc::new(child_params), flat, depth + 1)?;

    // Port binds: by name when every connection names its port, else by
    // position.
    let by_name = conns.iter().all(|c| c.port.is_some());
    for (index, conn) in conns.iter().enumerate() {
        let port_name = if by_name {
            conn.port.as_deref()
        } else {
            child.ports.get(index).map(|port| port.name.as_str())
        };
        // Positional connections past the child's last port bind nothing.
        let Some(port_name) = port_name else { break };
        let Some(port) = child.port(port_name) else { continue };
        let Some(expr) = &conn.expr else { continue };
        let child = format!("{child_prefix}{port_name}");
        let kind = match port.direction {
            Direction::Input => ProcKind::BindIn { child, expr },
            Direction::Output | Direction::Inout => ProcKind::BindOut { lhs: expr, child },
        };
        flat.comb.push(Proc { scope: Arc::clone(scope), kind });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlfixer_verilog::compile;

    fn design(src: &str, top: &str) -> Design {
        let analysis = compile(src);
        assert!(analysis.is_ok(), "{:?}", analysis.diagnostics);
        elaborate(&analysis, top).expect("elaborates")
    }

    /// The flattened signal `name`'s definition, read back from the kernel.
    fn signal<'d>(d: &'d Design, name: &str) -> Option<&'d SigDef> {
        d.kernel.by_name.get(name).map(|&id| &d.kernel.sigs[id as usize].def)
    }

    #[test]
    fn simple_module_shapes() {
        let d = design(
            "module m(input [7:0] a, output [7:0] y);\nwire [3:0] t;\n\
             assign t = a[3:0];\nassign y = {4'b0, t};\nendmodule",
            "m",
        );
        assert_eq!(d.inputs.len(), 1);
        assert_eq!(d.inputs[0].width, 8);
        assert_eq!(d.outputs[0].width, 8);
        assert_eq!(d.kernel.comb.len(), 2);
        assert_eq!(signal(&d, "t").map(|s| s.width), Some(4));
    }

    #[test]
    fn refuses_broken_design() {
        let analysis = compile("module m(output y); assign y = clk; endmodule");
        assert!(matches!(elaborate(&analysis, "m"), Err(ElabError::CompileErrors(_))));
    }

    #[test]
    fn missing_top_errors() {
        let analysis = compile("module m(input a, output y); assign y = a; endmodule");
        assert!(matches!(elaborate(&analysis, "zz"), Err(ElabError::TopNotFound(_))));
    }

    #[test]
    fn seq_process_edges_resolved() {
        let d = design(
            "module m(input clk, input d, output reg q);\n\
             always @(posedge clk) q <= d;\nendmodule",
            "m",
        );
        assert_eq!(d.kernel.seq.len(), 1);
        assert_eq!(d.kernel.seq[0].edges, vec![(Edge::Pos, "clk".to_owned())]);
    }

    #[test]
    fn instance_flattening_prefixes_signals() {
        let d = design(
            "module child(input a, output y); wire t; assign t = ~a; assign y = t; endmodule\n\
             module top(input x, output z);\nchild u1(.a(x), .y(z));\nendmodule",
            "top",
        );
        assert!(signal(&d, "u1.t").is_some(), "{:?}", d.kernel.by_name.keys());
        assert!(signal(&d, "u1.a").is_some());
        // 2 child assigns + 2 binds
        assert_eq!(d.kernel.comb.len(), 4);
    }

    #[test]
    fn parameter_override_changes_width() {
        let d = design(
            "module child #(parameter W = 4)(input [W-1:0] a, output [W-1:0] y);\n\
             assign y = a;\nendmodule\n\
             module top(input [7:0] p, output [7:0] q);\n\
             child #(.W(8)) u(.a(p), .y(q));\nendmodule",
            "top",
        );
        assert_eq!(signal(&d, "u.a").map(|s| s.width), Some(8));
    }

    #[test]
    fn genfor_unrolls_with_scoped_prefix() {
        let source = "module m(input [3:0] a, output [3:0] y);\n\
             genvar i;\ngenerate\n\
             for (i = 0; i < 4; i = i + 1) begin : g\n\
               wire t;\n\
               assign t = ~a[i];\n\
               assign y[i] = t;\n\
             end\nendgenerate\nendmodule";
        let d = design(source, "m");
        assert!(signal(&d, "g[0].t").is_some());
        assert!(signal(&d, "g[3].t").is_some());
        assert_eq!(d.kernel.comb.len(), 8);
        assert_eq!(flatten(&compile(source), "m"), Ok(8));
    }

    #[test]
    fn generate_iterations_share_one_scope_and_borrow_their_bodies() {
        let analysis = compile(
            "module m(input [3:0] a, output [3:0] y);\n\
             genvar i;\ngenerate\n\
             for (i = 0; i < 4; i = i + 1) begin : g\n\
               wire t;\n\
               assign t = ~a[i];\n\
               assign y[i] = t;\n\
             end\nendgenerate\nendmodule",
        );
        let (flat, _, _) = flatten_top(&analysis, "m").expect("elaborates");
        assert_eq!(flat.comb.len(), 8);
        for (pair, iteration) in flat.comb.chunks(2).zip(0..) {
            assert!(Arc::ptr_eq(&pair[0].scope, &pair[1].scope), "iteration {iteration}");
            assert_eq!(pair[0].scope.scope_prefix, format!("g[{iteration}]."));
            assert_eq!(pair[0].scope.params.get("i"), Some(&iteration));
        }
        // Every iteration's `assign t = ~a[i]` is the one in the source.
        let ProcKind::Assign { rhs: first, .. } = &flat.comb[0].kind else { panic!("assign") };
        let ProcKind::Assign { rhs: last, .. } = &flat.comb[6].kind else { panic!("assign") };
        assert!(std::ptr::eq(*first, *last));
    }

    #[test]
    fn sigdef_offsets_descending_and_ascending() {
        let desc = SigDef { width: 8, msb: 7, lsb: 0, signed: false, words: None };
        assert_eq!(desc.offset(0), Some(0));
        assert_eq!(desc.offset(7), Some(7));
        assert_eq!(desc.offset(8), None);
        let asc = SigDef { width: 8, msb: 0, lsb: 7, signed: false, words: None };
        assert_eq!(asc.offset(7), Some(0));
        assert_eq!(asc.offset(0), Some(7));
    }

    #[test]
    fn memory_word_offsets() {
        let mem = SigDef { width: 8, msb: 7, lsb: 0, signed: false, words: Some((0, 15)) };
        assert_eq!(mem.word_count(), 16);
        assert_eq!(mem.word_offset(0), Some(0));
        assert_eq!(mem.word_offset(15), Some(15));
        assert_eq!(mem.word_offset(16), None);
    }

    #[test]
    fn elaborate_shared_memoises_per_source_and_top() {
        rtlfixer_cache::set_enabled(true);
        let source = "module shared_elab_probe(input a, output y);\n\
                      assign y = ~a;\nendmodule";
        // Two separate analyses of the same source share one Design.
        let first = compile(source);
        let second = compile(source);
        let a = elaborate_shared(&first, "shared_elab_probe").expect("elaborates");
        let b = elaborate_shared(&second, "shared_elab_probe").expect("elaborates");
        assert!(Arc::ptr_eq(&a, &b), "same (source, top) must share one Design");
        // The shared design matches a direct elaboration.
        let direct = elaborate(&first, "shared_elab_probe").expect("elaborates");
        assert_eq!(a.top, direct.top);
        assert_eq!(a.kernel.comb.len(), direct.kernel.comb.len());
        assert_eq!(a.kernel.sigs.len(), direct.kernel.sigs.len());
        // A different top over the same source is a distinct cache entry.
        assert!(matches!(
            elaborate_shared(&first, "zz"),
            Err(ElabError::TopNotFound(_))
        ));
    }

    #[test]
    fn elaborate_shared_memoises_failures() {
        let analysis = compile("module m(output y); assign y = clk; endmodule");
        let first = elaborate_shared(&analysis, "m");
        let second = elaborate_shared(&analysis, "m");
        assert!(matches!(first, Err(ElabError::CompileErrors(_))));
        assert_eq!(first.err(), second.err());
    }

    #[test]
    fn function_registered() {
        let analysis = compile(
            "module m(input [7:0] a, output [3:0] y);\n\
             function [3:0] ones;\ninput [7:0] v;\ninteger i;\nbegin\n\
               ones = 0;\nfor (i = 0; i < 8; i = i + 1) ones = ones + v[i];\n\
             end\nendfunction\nassign y = ones(a);\nendmodule",
        );
        let (flat, _, _) = flatten_top(&analysis, "m").expect("elaborates");
        let f = flat.functions.get("ones").expect("function");
        assert_eq!(f.width, 4);
        assert_eq!(f.args, vec![("v", 8)]);
    }
}
