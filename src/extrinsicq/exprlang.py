"""A small expression language for chart functions.

Metric components, embeddings, conformal factors, and test functions enter
the package as strings in this grammar.  Expressions evaluate over jets, so
a single parse serves values, derivatives, and whole verification grids.
A build that evaluates a list of expressions on one argument list (a
metric's components, an embedding, an ambient metric along the embedding)
passes them one memo, so it evaluates each distinct subexpression once: the
conformal factor that ``conformal_rescale`` writes into every component, for
instance, is expanded once per build, not once per component.  The memo keeps
only the subexpressions that occur more than once, and each only until its
last use in that build.

Grammar (conventional precedence, left associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] number)?
    atom   := number | variable | func '(' expr ')' | '(' expr ')'

Functions: sin, cos, exp, log, sqrt.  An exponent must be a numeric
literal: integer exponents lower to repeated multiplication and work for
any base, fractional ones require a positive base value.  Chained '^' is
rejected at parse time; write parentheses.

A name may also stand for a column of numbers, one per point of the batch
the expression is evaluated on (``parse_expression``'s ``columns``).  It is
used where a literal would be: ``(c)*(b)`` scales b by c point by point,
with the bits a literal c would give at each point.  So one expression can
hold a different linear combination at each block of points.
"""

import re

from . import jets

_FUNCS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
}

_TOKEN_RE = re.compile(
    r"""
      (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>[-+*/^()])
    | (?P<ws>\s+)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


class ExprError(ValueError):
    """Malformed expression text; the message pins the offending position."""

    def __init__(self, message, text, pos):
        marker = " " * pos + "^"
        super().__init__(f"{message}\n    {text}\n    {marker}")
        self.pos = pos


def _tokenize(text):
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "num":
            toks.append(("num", float(m.group()), m.start()))
        elif kind == "name":
            toks.append(("name", m.group(), m.start()))
        elif kind == "op":
            toks.append(("op", m.group(), m.start()))
        else:
            raise ExprError(f"unexpected character {m.group()!r}", text, m.start())
    toks.append(("end", None, len(text)))
    return toks


class _Parser:
    def __init__(self, text, variables):
        self.text = text
        self.variables = variables
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse(self):
        node = self._expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected {val!r} after a complete expression", self.text, pos)
        return node

    def _expr(self):
        node = self._term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = ("bin", val, node, self._term())
            else:
                return node

    def _term(self):
        node = self._unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                node = ("bin", val, node, self._unary())
            else:
                return node

    def _unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return ("neg", self._unary())
        return self._power()

    def _power(self):
        base = self._atom()
        kind, val, pos = self.peek()
        if not (kind == "op" and val == "^"):
            return base
        self.take()
        sign = 1.0
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            kind, val, pos = self.peek()
            sign = -1.0
        if kind != "num":
            raise ExprError("exponent must be a numeric literal", self.text, pos)
        self.take()
        kind2, val2, pos2 = self.peek()
        if kind2 == "op" and val2 == "^":
            raise ExprError("chained '^' is ambiguous here, parenthesize", self.text, pos2)
        return ("pow", base, sign * val)

    def _atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in _FUNCS:
                    known = ", ".join(sorted(_FUNCS))
                    raise ExprError(f"unknown function '{val}' (available: {known})", self.text, pos)
                self.take()
                arg = self._expr()
                self._close(pos)
                return ("call", val, arg)
            try:
                return ("var", self.variables.index(val))
            except ValueError:
                names = ", ".join(self.variables) or "(none)"
                raise ExprError(
                    f"unknown variable '{val}' (chart variables: {names})", self.text, pos
                ) from None
        if kind == "op" and val == "(":
            node = self._expr()
            self._close(pos)
            return node
        what = "end of expression" if kind == "end" else repr(val)
        raise ExprError(f"unexpected {what}", self.text, pos)

    def _close(self, open_pos):
        kind, val, pos = self.take()
        if not (kind == "op" and val == ")"):
            raise ExprError("unclosed '('", self.text, open_pos)


def _eval(node, args, space, memo):
    """The value of ``node``; kept in ``memo`` until its last use if the memo
    has a slot (uses left, value or None) for it."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return args[node[1]]
    slot = memo.get(node)
    if slot is None:
        return _eval_op(node, args, space, memo)
    uses, out = slot
    if out is None:
        out = _eval_op(node, args, space, memo)
    if uses == 1:
        del memo[node]
    else:
        memo[node] = (uses - 1, out)
    return out


def _eval_op(node, args, space, memo):
    kind = node[0]
    if kind == "neg":
        return -_eval(node[1], args, space, memo)
    if kind == "call":
        arg = _eval(node[2], args, space, memo)
        if not isinstance(arg, jets.Jet):
            arg = jets.constant(space, arg)
        return _FUNCS[node[1]](arg)
    if kind == "pow":
        base = _eval(node[1], args, space, memo)
        if not isinstance(base, jets.Jet):
            base = jets.constant(space, base)
        e = node[2]
        if float(e).is_integer():
            return jets.powi(base, int(e))
        return jets.powf(base, e)
    op = node[1]
    lhs = _eval(node[2], args, space, memo)
    rhs = _eval(node[3], args, space, memo)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    return lhs / rhs


def _children(node):
    if node[0] in ("bin", "call"):
        return node[2:]
    return node[1:2]


def shared_memo(exprs):
    """An empty memo for evaluating every expression of ``exprs`` once, on one
    argument list.

    It has a slot for each subtree that those calls would otherwise evaluate
    more than once, and none for the others, so a subtree used once is freed
    as soon as its parent is built.  A slot counts the uses left and drops
    its value at the last one.  Nodes are tuples, so equal subtrees of
    different expressions share one slot.  A subtree that raises leaves its
    slot empty.  Code that evaluates the same list often keeps one memo and
    passes a copy to each evaluation.
    """
    uses = {}
    stack = [e._ast for e in exprs]
    while stack:
        node = stack.pop()
        if node[0] in ("num", "var"):
            continue
        if node in uses:
            # evaluated once through its slot, so its own subtrees are not repeats
            uses[node] += 1
            continue
        uses[node] = 1
        stack.extend(_children(node))
    return {node: (n, None) for node, n in uses.items() if n > 1}


class Expression:
    """A parsed expression over a fixed tuple of variable names.

    Calling it with one jet per variable (all in the same space) returns the
    jet of the expression's value.  Constant expressions come back as
    constant jets in the arguments' space.  A subexpression that recurs
    within the expression is evaluated once.  Expressions evaluated on the
    same arguments may share a memo from :func:`shared_memo`, passed
    positionally: each subexpression they share is then evaluated once.
    ``columns`` holds the arrays its column names read as.
    """

    __slots__ = ("text", "variables", "columns", "_ast", "_memo")

    def __init__(self, text, variables, ast, columns=()):
        self.text = text
        self.variables = tuple(variables)
        self.columns = tuple(columns)
        self._ast = ast
        self._memo = shared_memo((self,))

    def __repr__(self):
        return f"Expression({self.text!r}, variables={self.variables})"

    def __call__(self, args, memo=None):
        if len(args) != len(self.variables):
            raise jets.JetError(
                f"expression over {len(self.variables)} variables called "
                f"with {len(args)} arguments"
            )
        space = args[0].space
        for a in args[1:]:
            if a.space is not space:
                raise jets.JetError("expression arguments must share one jet space")
        if self.columns:
            args = (*args, *self.columns)
        try:
            out = _eval(self._ast, args, space, dict(self._memo) if memo is None else memo)
        except jets.SingularFieldError as err:
            raise jets.SingularFieldError(f"{err} while evaluating '{self.text}'") from err
        except ZeroDivisionError:
            raise jets.SingularFieldError(
                f"division by zero while evaluating '{self.text}'"
            ) from None
        if not isinstance(out, jets.Jet):
            out = jets.constant(space, out)
        return out


def parse_expression(text, variables, columns=None):
    """Parse ``text`` over the named ``variables`` into an Expression.

    ``columns`` maps further names to 1-d arrays, one number per point of
    the batch the expression will be evaluated on; each such name reads as
    its array.
    """
    if not isinstance(text, str):
        raise ExprError(
            f"expected an expression string, got {type(text).__name__}", repr(text), 0
        )
    variables = tuple(variables)
    columns = dict(columns or {})
    ast = _Parser(text, (*variables, *columns)).parse()
    return Expression(text, variables, ast, columns.values())
