"""Tiny expression language for curves, germs and scalar profiles.

Grammar (whitespace insensitive, ``^`` right-associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Known single-argument functions: sin cos tan exp log sqrt atan.
``pi`` and ``e`` are reserved constants.  Syntax and domain errors carry the
byte offset / source of the offending fragment.

Expressions share subtrees freely.  Evaluation compiles them to a `Tape`,
which evaluates every distinct node once, on floats, truncated Taylor
series (`Series`) or numpy arrays; `diff`, `subs` and `free_vars` also
visit each shared node once.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .numkit import DomainViolation, Series

__all__ = [
    "Expr", "Num", "Var", "Neg", "Bin", "Call", "parse", "to_source",
    "evaluate", "Tape", "diff", "subs", "free_vars", "MapDef",
    "ExprError", "ExprSyntaxError", "UnknownFunctionError", "EvalDomainError",
    "num", "var", "add", "sub", "mul", "div", "neg", "call", "dot3",
    "cross3", "norm3",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "atan")
CONSTANTS = {"pi": math.pi, "e": math.e}


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, msg: str, offset: int):
        super().__init__(f"{msg} (at byte {offset})")
        self.offset = offset


class UnknownFunctionError(ExprSyntaxError):
    pass


class EvalDomainError(ExprError):
    def __init__(self, msg: str, source: str):
        super().__init__(f"{msg} in '{source}'")
        self.source = source


@dataclass(frozen=True)
class Expr:
    span: tuple = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Num(Expr):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Expr):
    name: str = ""


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr = None


@dataclass(frozen=True)
class Bin(Expr):
    op: str = "+"
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Call(Expr):
    fn: str = ""
    arg: Expr = None


# ---------------------------------------------------------------- tokenizer

_TOKEN_CHARS = set("+-*/^()")


def _tokenize(src: str):
    toks = []  # (kind, text, offset)
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            toks.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"malformed number '{text}'", i)
            toks.append(("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("ident", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character '{ch}'", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str):
        kind, tok, off = self.peek()
        if kind == "op" and tok == text:
            return self.next()
        raise ExprSyntaxError(f"expected '{text}'", off)

    def parse(self) -> Expr:
        e = self.expr()
        kind, tok, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing '{tok}'", off)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, tok, off = self.peek()
            if kind == "op" and tok in "+-":
                self.next()
                rhs = self.term()
                e = Bin((e.span[0], rhs.span[1]), tok, e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, tok, off = self.peek()
            if kind == "op" and tok in "*/":
                self.next()
                rhs = self.factor()
                e = Bin((e.span[0], rhs.span[1]), tok, e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        base = self.unary()
        kind, tok, off = self.peek()
        if kind == "op" and tok == "^":
            self.next()
            exponent = self.factor()  # right-associative
            return Bin((base.span[0], exponent.span[1]), "^", base, exponent)
        return base

    def unary(self) -> Expr:
        kind, tok, off = self.peek()
        if kind == "op" and tok == "-":
            self.next()
            operand = self.unary()
            return Neg((off, operand.span[1]), operand)
        return self.atom()

    def atom(self) -> Expr:
        kind, tok, off = self.next()
        if kind == "num":
            return Num((off, off + len(tok)), float(tok))
        if kind == "ident":
            k2, t2, _ = self.peek()
            if k2 == "op" and t2 == "(":
                if tok not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function '{tok}'", off)
                self.next()
                arg = self.expr()
                closing = self.expect(")")
                return Call((off, closing[2] + 1), tok, arg)
            return Var((off, off + len(tok)), tok)
        if kind == "op" and tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExprSyntaxError(
            f"unexpected '{tok}'" if tok else "unexpected end of input", off)


def parse(src: str) -> Expr:
    return _Parser(src).parse()


# ------------------------------------------------------------ pretty printer

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def to_source(e: Expr) -> str:
    return _ts(e, 0)


def _ts(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        v = e.value
        s = repr(int(v)) if v.is_integer() and abs(v) < 1e15 else repr(v)
        return s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = _ts(e.operand, 2)
        # unary minus binds before "^": a power that would print first in
        # the operand needs parentheses, -(u^2) and not -u^2 = (-u)^2
        lead = e.operand
        while isinstance(lead, Bin) and lead.op == "*":
            lead = lead.left
        if isinstance(lead, Bin) and lead.op == "^":
            inner = f"({inner})"
        s = f"-{inner}"
        return f"({s})" if parent_prec >= 2 else s
    if isinstance(e, Call):
        return f"{e.fn}({_ts(e.arg, 0)})"
    if isinstance(e, Bin):
        p = _PREC[e.op]
        if e.op == "^":
            s = f"{_ts(e.left, p + 1)}^{_ts(e.right, p)}"
        else:
            # left-assoc: right operand needs the next level up
            s = f"{_ts(e.left, p)}{e.op}{_ts(e.right, p + 1)}"
        return f"({s})" if parent_prec > p or (parent_prec == p and e.op in "-/^") else s
    raise TypeError(f"not an expression node: {e!r}")


def _node_source(e: Expr) -> str:
    try:
        return to_source(e)
    except Exception:
        return repr(e)


# ----------------------------------------------------------------- evaluation

def free_vars(e: Expr) -> set:
    return _new_free_vars(e, set())


def _new_free_vars(e: Expr, seen: set) -> set:
    """Free names of the nodes of `e` whose ids are not in `seen` yet; adds
    the ids of the nodes it visits, so shared subexpressions count once."""
    names = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, Var):
            if n.name not in CONSTANTS:
                names.add(n.name)
        elif isinstance(n, Neg):
            stack.append(n.operand)
        elif isinstance(n, Call):
            stack.append(n.arg)
        elif isinstance(n, Bin):
            stack += (n.left, n.right)
        elif not isinstance(n, Num):
            raise TypeError(f"not an expression node: {n!r}")
    return names


def evaluate(e: Expr, bindings: dict):
    """Evaluate with Series or float bindings; constants pi/e are built in."""
    tape = Tape([e], bindings)
    regs = tape.run_checked([bindings.get(n, _UNBOUND) for n in tape.names])
    return regs[tape.outputs[0]]


def _div(l, r):
    if not isinstance(l, Series) and not isinstance(r, Series) and r == 0.0:
        raise DomainViolation("division by zero")
    return l / r


def _pow(l, r):
    if isinstance(l, Series):
        return l ** r
    if isinstance(r, Series):
        return r._coerce(l) ** r
    if l < 0 and not float(r).is_integer():
        raise DomainViolation("non-integer power of a negative base")
    if l == 0 and r < 0:
        raise DomainViolation("zero raised to a negative power")
    return l ** r


def _scalar_fn(fn: str):
    def apply(x):
        if isinstance(x, Series):
            return getattr(x, fn)()
        if fn == "log" and x <= 0.0:
            raise DomainViolation("log of a nonpositive quantity")
        if fn == "sqrt" and x < 0.0:
            raise DomainViolation("sqrt of a negative quantity")
        return getattr(math, fn)(x)
    return apply


# per-op functions of the interpreter: floats and Series, and numpy arrays
_SCALAR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": _div, "^": _pow, "neg": operator.neg}
_SCALAR_OPS.update({fn: _scalar_fn(fn) for fn in FUNCTIONS})
_GRID_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": np.divide, "^": np.power, "neg": operator.neg,
             "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
             "log": np.log, "sqrt": np.sqrt, "atan": np.arctan}

#: the value of an identifier that nothing binds
_UNBOUND = object()


class _Compilation:
    """The registers and instructions of a `Tape` being compiled.  The
    recursion over the expressions is module-level (`_visit`): a local
    function that calls itself would hold the compilation, and the tape
    it fills, in a reference cycle."""

    def __init__(self, names):
        self.slots = {n: i for i, n in enumerate(dict.fromkeys(names))}
        # temporary -> (kind, index): kind 0 an input, 1 a constant,
        # 2 an instruction; registers are numbered kind by kind
        self.temps = []
        self.by_key = {}     # structural key -> temporary
        self.by_id = {}      # id(node) -> temporary
        self.consts, self.code, self.nodes = [], [], []
        self.first_use = {}  # input -> instructions before its first use

    def intern(self, key, kind, index) -> int:
        self.by_key[key] = len(self.temps)
        self.temps.append((kind, index))
        return self.by_key[key]

    def constant(self, key, value) -> int:
        self.consts.append(value)
        return self.intern(key, 1, len(self.consts) - 1)


def _visit(e, c: _Compilation) -> int:
    """The temporary holding expression e, compiling e on first sight."""
    t = c.by_id.get(id(e))
    if t is not None:
        return t
    if isinstance(e, Num):
        v = e.value
        key = ("num", type(v), v, math.copysign(1.0, v))
        t = c.by_key.get(key)
        if t is None:
            t = c.constant(key, v)
    elif isinstance(e, Var):
        key = ("var", e.name)
        t = c.by_key.get(key)
        if t is None and e.name not in c.slots and e.name in CONSTANTS:
            t = c.constant(key, CONSTANTS[e.name])
        elif t is None:
            i = c.slots.setdefault(e.name, len(c.slots))
            c.first_use[i] = len(c.code)
            t = c.intern(key, 0, i)
    else:
        if isinstance(e, Bin):
            key = (e.op, _visit(e.left, c), _visit(e.right, c))
        elif isinstance(e, Neg):
            key = ("neg", _visit(e.operand, c), -1)
        elif isinstance(e, Call):
            if e.fn not in FUNCTIONS:
                raise UnknownFunctionError(
                    f"unknown function '{e.fn}'", e.span[0])
            key = (e.fn, _visit(e.arg, c), -1)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        t = c.by_key.get(key)
        if t is None:
            t = c.intern(key, 2, len(c.code))
            c.code.append(key)
            c.nodes.append(e)
    c.by_id[id(e)] = t
    return t


class Tape:
    """Expressions compiled to a straight-line program over registers.

    The registers hold the inputs (one per entry of `names`), then the
    constants, then one result per instruction, in the order a left-to-right
    tree walk first completes each node, so the first failing instruction is
    the node a tree walk would fail at.  Structurally equal nodes share one
    register: an operation is keyed by its op and argument registers, a
    number by its type, value and sign, so -0.0 and 0.0 stay apart.  An
    identifier is an input when `names` lists it, else the constant pi or e,
    else an unbound input appended to `names`.
    """

    def __init__(self, exprs, names=()):
        c = _Compilation(names)
        outputs = [_visit(e, c) for e in exprs]
        code = c.code
        self.first_use = c.first_use
        self.names = tuple(c.slots)
        offset = (0, len(c.slots), len(c.slots) + len(c.consts))
        reg = [offset[kind] + i for kind, i in c.temps]
        self.consts = c.consts
        self.base = offset[2]
        self.nodes = c.nodes
        self.outputs = [reg[t] for t in outputs]
        self.scalar = [(_SCALAR_OPS[op], reg[a], reg[b] if b >= 0 else -1)
                       for op, a, b in code]
        self.grid = [(_GRID_OPS[op], reg[a], reg[b] if b >= 0 else -1)
                     for op, a, b in code]
        last_use = {}
        for k, (_, a, b) in enumerate(self.grid):
            last_use[a] = last_use[b] = k
        kept = set(self.outputs)
        self.dead = [[] for _ in code]  # registers last used by instruction k
        for r, k in last_use.items():
            if r >= self.base and r not in kept:
                self.dead[k].append(r)

    def __len__(self) -> int:
        return len(self.nodes)

    def run(self, inputs: list, stop: int | None = None) -> list:
        """Registers after the float or Series instructions (the first
        `stop` of them) on `inputs`, one value per name; `inputs` becomes
        the register list."""
        code = self.scalar if stop is None else self.scalar[:stop]
        regs = inputs
        regs += self.consts
        append = regs.append
        try:
            for fn, a, b in code:
                append(fn(regs[a]) if b < 0 else fn(regs[a], regs[b]))
        except (DomainViolation, ValueError) as exc:
            node = self.nodes[len(regs) - self.base]
            if isinstance(exc, ValueError) and not isinstance(node, Call):
                raise
            raise EvalDomainError(str(exc), _node_source(node)) from exc
        return regs

    def run_grid(self, inputs: list, stop: int | None = None) -> list:
        """`run` over numpy arrays, non-finite values passing through; an
        intermediate array is dropped after its last use."""
        regs = inputs
        regs += self.consts
        append = regs.append
        with np.errstate(all="ignore"):
            for (fn, a, b), dead in zip(self.grid[:stop], self.dead):
                append(fn(regs[a]) if b < 0 else fn(regs[a], regs[b]))
                for r in dead:
                    regs[r] = None
        return regs

    def run_checked(self, inputs: list, grid: bool = False) -> list:
        """`run` or `run_grid` where an input may be `_UNBOUND`: the
        instructions before its first use run, then it raises."""
        run = self.run_grid if grid else self.run
        unbound = [(self.first_use[i], n) for i, n in enumerate(self.names)
                   if inputs[i] is _UNBOUND and i in self.first_use]
        if unbound:
            pos, name = min(unbound)
            run(inputs, pos)
            raise EvalDomainError(f"unbound identifier '{name}'", name)
        return run(inputs)


# --------------------------------------------------------- symbolic operators

def num(v) -> Expr:
    return Num((0, 0), float(v))


def var(name: str) -> Expr:
    return Var((0, 0), name)


def add(a, b) -> Expr:
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return Bin((0, 0), "+", a, b)


def sub(a, b) -> Expr:
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return Bin((0, 0), "-", a, b)


def mul(a, b) -> Expr:
    if isinstance(a, Num):
        if a.value == 0.0:
            return a
        if a.value == 1.0:
            return b
    if isinstance(b, Num):
        if b.value == 0.0:
            return b
        if b.value == 1.0:
            return a
    return Bin((0, 0), "*", a, b)


def div(a, b) -> Expr:
    if isinstance(a, Num) and a.value == 0.0:
        return a
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return Bin((0, 0), "/", a, b)


def neg(a) -> Expr:
    if isinstance(a, Num):
        return num(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg((0, 0), a)


def call(fn: str, a) -> Expr:
    return Call((0, 0), fn, a)


def diff(e: Expr, name: str, memo: dict | None = None) -> Expr:
    """Symbolic derivative with respect to `name`.

    Each node is differentiated once, so a shared subexpression gives one
    shared derivative.  Pass the same `memo` to differentiate several
    expressions in `name` with shared work.
    """
    return _diff(e, name, {} if memo is None else memo)


def _diff(e: Expr, name: str, memo: dict) -> Expr:
    # a module-level recursion, not a closure over itself: a self-referring
    # closure would hold the memo in a reference cycle
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    out = _diff_node(e, name, memo)
    memo[id(e)] = (e, out)  # holding e keeps its id from being reused
    return out


def _diff_node(e: Expr, name: str, memo: dict) -> Expr:
    if isinstance(e, Num):
        return num(0)
    if isinstance(e, Var):
        return num(1) if e.name == name else num(0)
    if isinstance(e, Neg):
        return neg(_diff(e.operand, name, memo))
    if isinstance(e, Bin):
        l, r = e.left, e.right
        dl, dr = _diff(l, name, memo), _diff(r, name, memo)
        if e.op == "+":
            return add(dl, dr)
        if e.op == "-":
            return sub(dl, dr)
        if e.op == "*":
            return add(mul(dl, r), mul(l, dr))
        if e.op == "/":
            return div(sub(mul(dl, r), mul(l, dr)), mul(r, r))
        # power rule; general case via exp/log when the exponent varies
        if isinstance(dr, Num) and dr.value == 0.0:
            if isinstance(r, Num):
                k = r.value
                if k == 0.0:
                    return num(0)
                return mul(mul(num(k), Bin((0, 0), "^", l, num(k - 1))), dl)
            return mul(mul(r, Bin((0, 0), "^", l, sub(r, num(1)))), dl)
        whole = Bin((0, 0), "^", l, r)
        return mul(whole, add(mul(dr, call("log", l)), mul(r, div(dl, l))))
    if isinstance(e, Call):
        inner = _diff(e.arg, name, memo)
        x = e.arg
        if e.fn == "sin":
            dx = call("cos", x)
        elif e.fn == "cos":
            dx = neg(call("sin", x))
        elif e.fn == "tan":
            dx = add(num(1), mul(call("tan", x), call("tan", x)))
        elif e.fn == "exp":
            dx = call("exp", x)
        elif e.fn == "log":
            dx = div(num(1), x)
        elif e.fn == "sqrt":
            dx = div(num(1), mul(num(2), call("sqrt", x)))
        elif e.fn == "atan":
            dx = div(num(1), add(num(1), mul(x, x)))
        else:
            raise UnknownFunctionError(f"unknown function '{e.fn}'", e.span[0])
        return mul(dx, inner)
    raise TypeError(f"not an expression node: {e!r}")


def subs(e: Expr, name: str, replacement: Expr) -> Expr:
    return _subs(e, name, replacement, {})


def _subs(e: Expr, name: str, replacement: Expr, memo: dict) -> Expr:
    # a module-level recursion, as in `_diff`: a self-referring closure
    # would hold the memo in a reference cycle
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    if isinstance(e, Num):
        out = e
    elif isinstance(e, Var):
        out = replacement if e.name == name else e
    elif isinstance(e, Neg):
        out = Neg(e.span, _subs(e.operand, name, replacement, memo))
    elif isinstance(e, Bin):
        out = Bin(e.span, e.op, _subs(e.left, name, replacement, memo),
                  _subs(e.right, name, replacement, memo))
    elif isinstance(e, Call):
        out = Call(e.span, e.fn, _subs(e.arg, name, replacement, memo))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = out
    return out


# 3-vectors of expressions -----------------------------------------------

def dot3(a, b) -> Expr:
    return add(add(mul(a[0], b[0]), mul(a[1], b[1])), mul(a[2], b[2]))


def cross3(a, b):
    return (
        sub(mul(a[1], b[2]), mul(a[2], b[1])),
        sub(mul(a[2], b[0]), mul(a[0], b[2])),
        sub(mul(a[0], b[1]), mul(a[1], b[0])),
    )


def norm3(a) -> Expr:
    return call("sqrt", dot3(a, a))


# --------------------------------------------------------------------- MapDef

class MapDef:
    """A named map R^k -> R^m with expression components and fixed parameters.

    The components are compiled once, on first use, into one `Tape`; the
    variables are bound positionally and the parameters loaded once.
    """

    def __init__(self, name: str, variables, components, params=None):
        self.name = name
        self.variables = tuple(variables)
        self.params = dict(params or {})
        comps = []
        for c in components:
            comps.append(parse(c) if isinstance(c, str) else c)
        self.components = tuple(comps)
        known = set(self.variables) | set(self.params) | set(CONSTANTS)
        seen = set()
        for c in self.components:
            unknown = _new_free_vars(c, seen) - known
            if unknown:
                raise ExprError(
                    f"map '{name}': unbound identifiers {sorted(unknown)}")
        self._tape = None

    @property
    def tape(self) -> Tape:
        if self._tape is None:
            tape = Tape(self.components, self.variables + tuple(self.params))
            self._param_values = [float(self.params[n])
                                  for n in tape.names[len(self.variables):]]
            self._tape = tape
        return self._tape

    def _point(self, point) -> list:
        n = len(self.variables)
        if type(point) in (tuple, list) and len(point) == n:
            return [float(x) for x in point]
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        if pt.size != n:
            raise ValueError(f"map '{self.name}' expects {n} coordinates")
        return [float(x) for x in pt]

    def __call__(self, point) -> np.ndarray:
        tape = self.tape
        regs = tape.run(self._point(point) + self._param_values)
        return np.array([regs[i] for i in tape.outputs], dtype=float)

    def eval_jet(self, point, order: int = 3):
        """The jet of any order at one point (k,), partials (m,), or at
        the rows of an (N, k) array, partials (N, m): one tape run on
        Taylor series.  A row with a non-finite value is evaluated again as
        one point, so it raises what the float path raises.  A negative
        order raises `ValueError`."""
        from .numkit import Jet
        if order < 0:
            raise ValueError(f"jet order {order} is negative")
        pt = np.asarray(point, dtype=float)
        X = np.atleast_2d(pt)
        nvars = len(self.variables)
        if X.ndim != 2 or X.shape[1] != nvars:
            raise ValueError(f"map '{self.name}' expects {nvars} coordinates")
        inputs = [Series.variable(i, X[:, i], nvars, order)
                  for i in range(nvars)]
        with np.errstate(all="ignore"):
            regs = self.tape.run(inputs + self._param_values)
        jet = Jet.from_series(
            [s if isinstance(s, Series)
             else Series.constant(np.full(len(X), s), nvars, order)
             for s in (regs[i] for i in self.tape.outputs)], nvars, order)
        for k in np.flatnonzero(~np.isfinite(jet.value).all(axis=1)):
            self(X[k])
        if pt.ndim < 2:
            jet.partials = {a: p[0] for a, p in jet.partials.items()}
        return jet

    def eval_grid(self, arrays: dict) -> np.ndarray:
        """Evaluate on broadcastable numpy arrays; returns shape (m, ...)."""
        tape = self.tape
        env = dict(self.params)
        env.update(arrays)
        shape = np.broadcast(*[np.asarray(v) for v in arrays.values()]).shape
        inputs = [env.get(n, CONSTANTS.get(n, _UNBOUND)) for n in tape.names]
        regs = tape.run_checked(inputs, grid=True)
        return np.stack([np.broadcast_to(np.asarray(regs[i], dtype=float), shape)
                         for i in tape.outputs])

    def values(self, arrays: dict) -> np.ndarray:
        """`eval_grid`, where each point left non-finite is evaluated again
        as one point on the float path: it raises that path's error, or
        supplies its value."""
        out = self.eval_grid(arrays)
        if np.isfinite(out).all():
            return out
        xs = np.broadcast_arrays(*(np.asarray(arrays[n], dtype=float)
                                   for n in self.variables))
        for i in np.flatnonzero(~np.isfinite(out).all(axis=0)):
            at = np.unravel_index(i, out.shape[1:])
            out[(slice(None),) + at] = self([x[at] for x in xs])
        return out

    def diff(self, name: str) -> "MapDef":
        memo = {}
        return MapDef(f"d({self.name})/d{name}", self.variables,
                      [diff(c, name, memo) for c in self.components], self.params)

    def sources(self):
        return [to_source(c) for c in self.components]

    def __repr__(self):
        return (f"MapDef({self.name!r}, {self.variables}, "
                f"{len(self.components)} components, tape {len(self.tape)})")
