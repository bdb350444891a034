"""A test-only frozen copy of the parser's front end as it was when each
token was a (kind, value, position) tuple from named regex groups, read
through ``peek``/``advance``/``expect_op``, and ``infer_variables`` kept
its names in a list.

``parse_dag`` and ``infer_variables`` here are held against the package's
by ``test_parser``: equal DAG nodes and root, or the same exception class,
message and position.  The DAG builder is the package's own; only the
tokens and the descent over them are copied.
"""

import re
from typing import Sequence

from nullgrid.errors import ExponentOverflowError, ParseError, UnknownVariableError
from nullgrid.parser import MAX_EXPONENT, MAX_NESTING, DagBuilder, ExprDag
from nullgrid.ring import RingSpec

_TOKEN_RE = re.compile(
    r"(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()])|(?P<bad>\S)"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):  # whitespace matches no group and is skipped
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str], builder: DagBuilder):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0
        self.vars = {name: idx for idx, name in enumerate(variables)}
        if len(self.vars) != len(variables):
            raise ValueError(f"repeated variable name in {list(variables)}")
        self.b = builder

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> int:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        return node

    def expr(self) -> int:
        terms = [("+", self.term())]
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            terms.append((self.advance()[1], self.term()))
        while len(terms) > 1:
            pairs = [(s, self.b.add(a, b) if s == t else self.b.sub(a, b))
                     for (s, a), (t, b) in zip(terms[::2], terms[1::2])]
            terms = pairs + terms[len(pairs) * 2:]
        return terms[0][1]

    def term(self) -> int:
        negations = 0
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "-":
                self.advance()
                negations += 1
            else:
                break
        node = self.factor()
        for _ in range(negations):
            node = self.b.neg(node)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                node = self.b.mul(node, self.factor())
            else:
                break
        return node

    def factor(self) -> int:
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind != "int":
                raise ParseError("expected a nonnegative integer exponent after '^'", pos)
            self.advance()
            e = int(val)
            if e > MAX_EXPONENT:
                raise ExponentOverflowError(f"exponent {e} exceeds the maximum {MAX_EXPONENT}", pos)
            node = self.b.pow(node, e)
        return node

    def atom(self) -> int:
        kind, val, pos = self.advance()
        if kind == "int":
            return self.b.const(int(val))
        if kind == "ident":
            idx = self.vars.get(val)
            if idx is None:
                raise UnknownVariableError(f"unknown variable {val!r}", pos)
            return self.b.var(idx)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING} levels", pos)
            self.depth += 1
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise ParseError(f"expected a variable, integer, or parenthesized expression, got {val!r}" if val else "unexpected end of input", pos)


def parse_dag(text: str, variables: Sequence[str], ring: RingSpec) -> ExprDag:
    builder = DagBuilder(len(variables), ring)
    root = _Parser(text, variables, builder).parse()
    return builder.build(root)


def infer_variables(text: str) -> list[str]:
    seen: list[str] = []
    for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_]*", text):
        name = m.group(0)
        if name not in seen:
            seen.append(name)
    if seen and all(re.fullmatch(r"x[1-9][0-9]*", n) for n in seen):
        top = max(int(n[1:]) for n in seen)
        return [f"x{i}" for i in range(1, top + 1)]
    return seen
