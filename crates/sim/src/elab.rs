//! Elaboration: flattening an analyzed design into a [`Design`] — a set of
//! signals plus combinational, sequential and initial processes that the
//! interpreter executes.
//!
//! Instances are flattened with hierarchical name prefixes (`u1.q`), and
//! generate-for loops are unrolled at elaboration time with the genvar bound
//! as a constant parameter, exactly like a synthesis front-end.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use rtlfixer_verilog::ast::{
    Connection, Direction, Edge, Expr, Item, Module, Sensitivity, Stmt,
};
use rtlfixer_verilog::const_eval;
use rtlfixer_verilog::Analysis;

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
#[derive(Debug, Clone)]
pub struct Scope {
    /// Prefix of the instance this process belongs to (`""` for top,
    /// `"u1."` for a child instance).
    pub module_prefix: String,
    /// Full scope prefix including generate-block scopes
    /// (`"u1.gen[3]."`). Name resolution walks from here back to
    /// [`Scope::module_prefix`].
    pub scope_prefix: String,
    /// Constant bindings: parameters plus enclosing genvar values.
    pub params: Arc<HashMap<String, i64>>,
}

/// A combinational or initial process.
#[derive(Debug, Clone)]
pub struct Proc {
    /// Scope for name resolution.
    pub scope: Scope,
    /// What to execute.
    pub kind: ProcKind,
}

/// Process payload.
#[derive(Debug, Clone)]
pub enum ProcKind {
    /// `assign lhs = rhs` (both in this scope).
    Assign {
        /// Target.
        lhs: Expr,
        /// Source.
        rhs: Expr,
    },
    /// An `always @*` (or initial) body.
    Block(Stmt),
    /// Port bind: copy `expr` (evaluated in this scope) into the child's
    /// input signal (full flattened name).
    BindIn {
        /// Full flattened child signal name.
        child: String,
        /// Parent-scope expression.
        expr: Expr,
    },
    /// Port bind: copy the child's output signal into `lhs` (this scope).
    BindOut {
        /// Parent-scope l-value.
        lhs: Expr,
        /// Full flattened child signal name.
        child: String,
    },
}

/// An edge-triggered process.
#[derive(Debug, Clone)]
pub struct SeqProc {
    /// Scope for name resolution.
    pub scope: Scope,
    /// Triggering edges: polarity + full flattened signal name.
    pub edges: Vec<(Edge, String)>,
    /// Body, executed with non-blocking semantics available.
    pub body: Stmt,
}

/// A user function, resolvable from its defining scope.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    /// Argument names and widths, in order.
    pub args: Vec<(String, u32)>,
    /// Return width.
    pub width: u32,
    /// Body.
    pub body: Stmt,
    /// Defining scope.
    pub scope: Scope,
}

/// Lazily-populated slot for the lowered execution form of a [`Design`]
/// (see `crate::lower`). Computed once per design by the first
/// [`crate::Simulator`] built on it and shared by every simulator after
/// that, including through the `elaborate_shared` design cache.
///
/// Cloning a `Design` deliberately does **not** clone the slot: the clone
/// may be mutated before simulation, which would invalidate the kernel.
#[derive(Debug, Default)]
pub struct LowerCell(pub(crate) std::sync::OnceLock<Arc<crate::lower::Kernel>>);

impl Clone for LowerCell {
    fn clone(&self) -> Self {
        LowerCell::default()
    }
}

/// A fully elaborated (flattened) design.
#[derive(Debug, Clone)]
pub struct Design {
    /// Top module name.
    pub top: String,
    /// All flattened signals.
    pub signals: HashMap<String, SigDef>,
    /// Top-level input ports.
    pub inputs: Vec<PortDef>,
    /// Top-level output ports.
    pub outputs: Vec<PortDef>,
    /// Combinational processes (assigns, always@*, port binds) in order.
    pub comb: Vec<Proc>,
    /// Edge-triggered processes.
    pub seq: Vec<SeqProc>,
    /// Initial processes.
    pub init: Vec<Proc>,
    /// Functions keyed by `{module_prefix}{name}`.
    pub functions: HashMap<String, FunctionDef>,
    /// Cached lowered execution form (never cloned with the design).
    pub(crate) lowered: LowerCell,
}

/// Elaborates `top` from an error-free analysis.
///
/// # Errors
///
/// Returns [`ElabError`] if the analysis has errors, the top module is
/// missing, the hierarchy recurses too deep, or an unsupported construct is
/// encountered.
pub fn elaborate(analysis: &Analysis, top: &str) -> Result<Design, ElabError> {
    let error_count = analysis.errors().len();
    if error_count > 0 {
        return Err(ElabError::CompileErrors(error_count));
    }
    let module = analysis
        .file
        .module(top)
        .ok_or_else(|| ElabError::TopNotFound(top.to_owned()))?;

    let mut design = Design {
        top: top.to_owned(),
        signals: HashMap::new(),
        inputs: Vec::new(),
        outputs: Vec::new(),
        comb: Vec::new(),
        seq: Vec::new(),
        init: Vec::new(),
        functions: HashMap::new(),
        lowered: LowerCell::default(),
    };
    let params = Arc::new(module_params(module, &HashMap::new()));
    elaborate_module(analysis, module, "", Arc::clone(&params), &mut design, 0)?;

    // Top ports.
    for port in &module.ports {
        let width = port_width(port, &params);
        let def = PortDef { name: port.name.clone(), width };
        match port.direction {
            Direction::Input => design.inputs.push(def),
            Direction::Output | Direction::Inout => design.outputs.push(def),
        }
    }
    Ok(design)
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
/// callers get a shared immutable [`Design`] and keep per-run mutable
/// state (signal values) on the side. Failures are memoised too, so
/// repeatedly simulating an unsupported design stays cheap.
pub fn elaborate_shared(analysis: &Analysis, top: &str) -> Result<Arc<Design>, ElabError> {
    let key = (analysis.fingerprint, top.to_owned());
    design_cache().get_or_insert_with(key, || elaborate(analysis, top).map(Arc::new))
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

fn elaborate_module(
    analysis: &Analysis,
    module: &Module,
    prefix: &str,
    params: Arc<HashMap<String, i64>>,
    design: &mut Design,
    depth: usize,
) -> Result<(), ElabError> {
    if depth > MAX_DEPTH {
        return Err(ElabError::TooDeep);
    }
    // Register port signals.
    for port in &module.ports {
        register_signal(
            design,
            &format!("{prefix}{}", port.name),
            &port.range,
            port.signed,
            &None,
            &params,
        );
    }
    let scope = Scope {
        module_prefix: prefix.to_owned(),
        scope_prefix: prefix.to_owned(),
        params: Arc::clone(&params),
    };
    elaborate_items(analysis, module, &module.items, &scope, design, depth)
}

fn register_signal(
    design: &mut Design,
    full_name: &str,
    range: &Option<rtlfixer_verilog::ast::RangeDecl>,
    signed: bool,
    unpacked: &Option<rtlfixer_verilog::ast::RangeDecl>,
    env: &HashMap<String, i64>,
) {
    register_signal_kind(design, full_name, range, signed, unpacked, env, false)
}

#[allow(clippy::too_many_arguments)]
fn register_signal_kind(
    design: &mut Design,
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
    design
        .signals
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

fn elaborate_items(
    analysis: &Analysis,
    module: &Module,
    items: &[Item],
    scope: &Scope,
    design: &mut Design,
    depth: usize,
) -> Result<(), ElabError> {
    for item in items {
        match item {
            Item::Net { kind, signed, range, decls, .. } => {
                let is_integer = *kind == rtlfixer_verilog::ast::NetKind::Integer;
                for decl in decls {
                    let full = format!("{}{}", scope.scope_prefix, decl.name);
                    register_signal_kind(
                        design,
                        &full,
                        range,
                        *signed,
                        &decl.unpacked,
                        &scope.params,
                        is_integer,
                    );
                    if let Some(init) = &decl.init {
                        design.init.push(Proc {
                            scope: scope.clone(),
                            kind: ProcKind::Assign {
                                lhs: Expr::Ident { name: decl.name.clone(), span: decl.span },
                                rhs: init.clone(),
                            },
                        });
                        // Nets with initialisers behave like continuous
                        // assignments for combinational logic.
                        design.comb.push(Proc {
                            scope: scope.clone(),
                            kind: ProcKind::Assign {
                                lhs: Expr::Ident { name: decl.name.clone(), span: decl.span },
                                rhs: init.clone(),
                            },
                        });
                    }
                }
            }
            Item::PortDecl(port) => {
                let full = format!("{}{}", scope.scope_prefix, port.name);
                register_signal(design, &full, &port.range, port.signed, &None, &scope.params);
            }
            Item::Param(_) | Item::Genvar { .. } => {}
            Item::ContinuousAssign { assigns, .. } => {
                for (lhs, rhs) in assigns {
                    design.comb.push(Proc {
                        scope: scope.clone(),
                        kind: ProcKind::Assign { lhs: lhs.clone(), rhs: rhs.clone() },
                    });
                }
            }
            Item::Always { sensitivity, body, .. } => match sensitivity {
                Sensitivity::Star | Sensitivity::Signals(_) | Sensitivity::None => {
                    design
                        .comb
                        .push(Proc { scope: scope.clone(), kind: ProcKind::Block(body.clone()) });
                }
                Sensitivity::Edges(edges) => {
                    let mut resolved = Vec::new();
                    for edge in edges {
                        let name = edge.signal.as_ident().ok_or_else(|| {
                            ElabError::Unsupported("non-identifier edge expression".into())
                        })?;
                        resolved.push((edge.edge, format!("{}{name}", scope.module_prefix)));
                    }
                    design.seq.push(SeqProc {
                        scope: scope.clone(),
                        edges: resolved,
                        body: body.clone(),
                    });
                }
            },
            Item::Initial { body, .. } => {
                design.init.push(Proc { scope: scope.clone(), kind: ProcKind::Block(body.clone()) });
            }
            Item::Instance { module: child_name, name, params: param_conns, conns, .. } => {
                elaborate_instance(
                    analysis,
                    module,
                    child_name,
                    name,
                    param_conns,
                    conns,
                    scope,
                    design,
                    depth,
                )?;
            }
            Item::Generate { items, .. } => {
                elaborate_items(analysis, module, items, scope, design, depth)?;
            }
            Item::GenFor { var, init, cond, step, label, items, .. } => {
                let mut env = (*scope.params).clone();
                let mut value = const_eval::eval(init, &env)
                    .map_err(|_| ElabError::Unsupported("non-constant generate bound".into()))?;
                let mut count = 0i64;
                loop {
                    env.insert(var.clone(), value);
                    match const_eval::eval(cond, &env) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(_) => {
                            return Err(ElabError::Unsupported(
                                "non-constant generate condition".into(),
                            ))
                        }
                    }
                    let iter_scope = Scope {
                        module_prefix: scope.module_prefix.clone(),
                        scope_prefix: match label {
                            Some(l) => format!("{}{l}[{value}].", scope.scope_prefix),
                            None => format!("{}genblk[{value}].", scope.scope_prefix),
                        },
                        params: Arc::new(env.clone()),
                    };
                    elaborate_items(analysis, module, items, &iter_scope, design, depth)?;
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
                    .map(|arg| (arg.name.clone(), port_width(arg, &scope.params)))
                    .collect();
                design.functions.insert(
                    format!("{}{name}", scope.module_prefix),
                    FunctionDef { args, width, body: body.clone(), scope: scope.clone() },
                );
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn elaborate_instance(
    analysis: &Analysis,
    _parent: &Module,
    child_name: &str,
    instance: &str,
    param_conns: &[Connection],
    conns: &[Connection],
    scope: &Scope,
    design: &mut Design,
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
    elaborate_module(analysis, child, &child_prefix, Arc::new(child_params), design, depth + 1)?;

    // Port binds.
    let pairs: Vec<(String, Option<Expr>)> = if conns.iter().all(|c| c.port.is_some()) {
        conns
            .iter()
            .map(|c| (c.port.clone().expect("checked"), c.expr.clone()))
            .collect()
    } else {
        child
            .ports
            .iter()
            .zip(conns)
            .map(|(p, c)| (p.name.clone(), c.expr.clone()))
            .collect()
    };
    for (port_name, expr) in pairs {
        let Some(port) = child.port(&port_name) else { continue };
        let Some(expr) = expr else { continue };
        let child_sig = format!("{child_prefix}{port_name}");
        match port.direction {
            Direction::Input => design.comb.push(Proc {
                scope: scope.clone(),
                kind: ProcKind::BindIn { child: child_sig, expr },
            }),
            Direction::Output | Direction::Inout => design.comb.push(Proc {
                scope: scope.clone(),
                kind: ProcKind::BindOut { lhs: expr, child: child_sig },
            }),
        }
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
        assert_eq!(d.comb.len(), 2);
        assert_eq!(d.signals.get("t").map(|s| s.width), Some(4));
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
        assert_eq!(d.seq.len(), 1);
        assert_eq!(d.seq[0].edges, vec![(Edge::Pos, "clk".to_owned())]);
    }

    #[test]
    fn instance_flattening_prefixes_signals() {
        let d = design(
            "module child(input a, output y); wire t; assign t = ~a; assign y = t; endmodule\n\
             module top(input x, output z);\nchild u1(.a(x), .y(z));\nendmodule",
            "top",
        );
        assert!(d.signals.contains_key("u1.t"), "{:?}", d.signals.keys());
        assert!(d.signals.contains_key("u1.a"));
        // 2 child assigns + 2 binds
        assert_eq!(d.comb.len(), 4);
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
        assert_eq!(d.signals.get("u.a").map(|s| s.width), Some(8));
    }

    #[test]
    fn genfor_unrolls_with_scoped_prefix() {
        let d = design(
            "module m(input [3:0] a, output [3:0] y);\n\
             genvar i;\ngenerate\n\
             for (i = 0; i < 4; i = i + 1) begin : g\n\
               wire t;\n\
               assign t = ~a[i];\n\
               assign y[i] = t;\n\
             end\nendgenerate\nendmodule",
            "m",
        );
        assert!(d.signals.contains_key("g[0].t"));
        assert!(d.signals.contains_key("g[3].t"));
        assert_eq!(d.comb.len(), 8);
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
        assert_eq!(a.comb.len(), direct.comb.len());
        assert_eq!(a.signals.len(), direct.signals.len());
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
        let d = design(
            "module m(input [7:0] a, output [3:0] y);\n\
             function [3:0] ones;\ninput [7:0] v;\ninteger i;\nbegin\n\
               ones = 0;\nfor (i = 0; i < 8; i = i + 1) ones = ones + v[i];\n\
             end\nendfunction\nassign y = ones(a);\nendmodule",
            "m",
        );
        let f = d.functions.get("ones").expect("function");
        assert_eq!(f.width, 4);
        assert_eq!(f.args, vec![("v".to_owned(), 8)]);
    }
}
