"""Recursive-descent parser for polynomial expressions, with two backends.

Grammar (whitespace insensitive, implicit multiplication rejected):

    expr   := term (("+" | "-") term)*
    term   := ("-")* factor ("*" factor)*
    factor := atom ("^" uint)?
    atom   := ident | int | "(" expr ")"

Precedence is ^ above unary minus above * above binary +/-, which the
grammar enforces structurally.  A sum of T terms is a balanced tree of add
and sub nodes, so it expands in O(T log T) term copies.  Exponents are
capped at 10**6, parentheses at ``MAX_NESTING`` levels (past them the
recursive descent would pass Python's recursion limit), and an expansion
at ``poly.MAX_WORK`` term products weighted by coefficient size and by
the exponent tuples they write.

A token is its text (an integer, an identifier or one operator character),
and "" ends the token list.  Tokens carry no position: an error's position
is found only when it is raised, by scanning the text again.
``infer_variables`` reads the same tokens, and expands an x<k> prefix to at
most ``MAX_INFERRED`` names.  An integer token past Python's limit on the
digits of an integer string is refused where ``int`` refuses it, at its
position; a k of more than ``_NAME_DIGITS`` digits is refused from its
length, never converted.

``parse_poly`` expands the expression eagerly into a sparse Polynomial;
``parse_dag`` builds a hash-consed expression DAG without any expansion,
so (x+y)^16 stays a single power node.  Both run the same grammar; the
DAG is the primary build and expansion is a walk over it.  ``fold_dag`` is
that walk, shared by expansion, evaluation, degree bounds and grafting.
"""

from __future__ import annotations

import operator
import re
import sys
from math import prod
from typing import Sequence

from . import poly
from .errors import (
    ArityMismatchError,
    ExpansionTooLargeError,
    ExponentOverflowError,
    ParseError,
    ResourceLimitError,
    RingMismatchError,
    UnknownVariableError,
    charge,
)
from .poly import Polynomial, product_work, words
from .ring import RingSpec, _Frozen

MAX_EXPONENT = 10**6
# each level of parentheses takes four Python frames (expr, term, factor, atom)
MAX_NESTING = 200
# names x1..xk that infer_variables may return
MAX_INFERRED = 1000
# digits of k in an x<k> name past which a refusal gives their count, not k
_NAME_DIGITS = 100
# exponent-tuple entries counted as one term product: a variable's or a
# product's tuple took 150 ns an entry, a term product of 2 to 4 variables
# 0.85 us, on one core of a 2-vCPU VM; 4 prices an entry a little above its
# time and charges an expansion in up to 3 variables as before
_ENTRIES = 4

# Node tags.  A node is a tuple whose first entry is the tag:
#   ("var", index) ("const", value) ("add", l, r) ("sub", l, r)
#   ("mul", l, r) ("neg", k) ("pow", k, exponent)
VAR, CONST, ADD, SUB, MUL, NEG, POW = "var", "const", "add", "sub", "mul", "neg", "pow"


class ExprDag(_Frozen):
    """A hash-consed expression DAG over a ring.

    ``nodes`` is topologically ordered (children precede parents), so a
    single forward pass evaluates every node exactly once.  Structurally
    identical subtrees are shared: building x*y twice yields one mul node.
    Immutable; a ``__slots__`` class, since a tuple base would give it a
    ``len`` of four fields where its own ``len`` counts the nodes.
    """

    __slots__ = __match_args__ = ("arity", "ring", "nodes", "root")

    def __init__(self, arity: int, ring: RingSpec, nodes: tuple[tuple, ...], root: int):
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "root", root)

    def __len__(self) -> int:
        return len(self.nodes)


class DagBuilder:
    """Interning builder for ExprDag nodes."""

    def __init__(self, arity: int, ring: RingSpec):
        self.arity = arity
        self.ring = ring
        self.nodes: list[tuple] = []
        self._index: dict[tuple, int] = {}

    def _intern(self, node: tuple) -> int:
        i = self._index.get(node)
        if i is None:
            i = len(self.nodes)
            self.nodes.append(node)
            self._index[node] = i
        return i

    def var(self, index: int) -> int:
        if not 0 <= index < self.arity:
            raise ArityMismatchError(f"variable index {index} out of range for arity {self.arity}")
        return self._intern((VAR, index))

    def const(self, value: int) -> int:
        return self._intern((CONST, self.ring.canon(value)))

    def add(self, left: int, right: int) -> int:
        return self._intern((ADD, left, right))

    def sub(self, left: int, right: int) -> int:
        return self._intern((SUB, left, right))

    def mul(self, left: int, right: int) -> int:
        return self._intern((MUL, left, right))

    def neg(self, child: int) -> int:
        return self._intern((NEG, child))

    def pow(self, child: int, exponent: int) -> int:
        if exponent < 0:
            raise ValueError("negative exponent")
        return self._intern((POW, child, exponent))

    def graft(self, dag: ExprDag) -> int:
        """Re-intern another DAG's nodes here; returns the new root index."""
        if dag.ring != self.ring:
            raise RingMismatchError(f"mixed rings {dag.ring} and {self.ring}")
        if dag.arity != self.arity:
            raise ArityMismatchError(f"mixed arities {dag.arity} and {self.arity}")
        return fold_dag(dag, self.var, self.const, self.add, self.sub, self.mul, self.neg, self.pow)

    def build(self, root: int) -> ExprDag:
        return ExprDag(self.arity, self.ring, tuple(self.nodes), root)


_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*^()]")
# a character that is neither whitespace nor the first of a token
_BAD_RE = re.compile(r"[^\s\dA-Za-z_()*+^-]")


def _tokenize(text: str) -> list[str]:
    """The token texts of ``text``, then "" as the end marker."""
    bad = _BAD_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    return _TOKEN_RE.findall(text) + [""]


class _Parser:
    def __init__(self, text: str, variables: Sequence[str], builder: DagBuilder):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.vars = {name: idx for idx, name in enumerate(variables)}
        if len(self.vars) != len(variables):
            raise ValueError(f"repeated variable name in {list(variables)}")
        self.b = builder

    def take(self, *ops: str) -> str | None:
        """The next token, consumed, if it is one of ``ops``; else None."""
        tok = self.tokens[self.i]
        if tok in ops:
            self.i += 1
            return tok
        return None

    def error(self, message: str, i: int, cls: type[ParseError] = ParseError) -> ParseError:
        """A ``cls`` at token i; its position is found only now, by a rescan."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)] + [len(self.text)]
        return cls(message, starts[i])

    def parse(self) -> int:
        node = self.expr()
        if self.tokens[self.i]:
            raise self.error(f"unexpected {self.tokens[self.i]!r}", self.i)
        return node

    def expr(self) -> int:
        """Signed terms joined pairwise into a balanced tree: a pair keeps
        the left sign, and is an add node if the signs agree, else a sub."""
        terms = [("+", self.term())]
        while sign := self.take("+", "-"):
            terms.append((sign, self.term()))
        while len(terms) > 1:
            pairs = [(s, self.b.add(a, b) if s == t else self.b.sub(a, b))
                     for (s, a), (t, b) in zip(terms[::2], terms[1::2])]
            terms = pairs + terms[len(pairs) * 2:]
        return terms[0][1]

    def term(self) -> int:
        negations = 0
        while self.take("-"):
            negations += 1
        node = self.factor()
        for _ in range(negations):
            node = self.b.neg(node)
        while self.take("*"):
            node = self.b.mul(node, self.factor())
        return node

    def factor(self) -> int:
        node = self.atom()
        if self.take("^"):
            tok = self.tokens[self.i]
            if not tok.isdecimal():
                raise self.error("expected a nonnegative integer exponent after '^'", self.i)
            try:
                e = int(tok)
            except ValueError:  # past Python's digit limit
                raise self.error(f"exponent of {len(tok)} digits exceeds the maximum {MAX_EXPONENT}", self.i,
                                 ExponentOverflowError) from None
            if e > MAX_EXPONENT:
                raise self.error(f"exponent {e} exceeds the maximum {MAX_EXPONENT}", self.i, ExponentOverflowError)
            self.i += 1
            node = self.b.pow(node, e)
        return node

    def atom(self) -> int:
        tok = self.tokens[self.i]
        self.i += 1
        if tok.isdecimal():
            try:
                return self.b.const(int(tok))
            except ValueError:  # past Python's digit limit
                raise self.error(f"integer of {len(tok)} digits exceeds the limit of "
                                 f"{sys.get_int_max_str_digits()} digits", self.i - 1) from None
        if tok.isidentifier():
            idx = self.vars.get(tok)
            if idx is None:
                raise self.error(f"unknown variable {tok!r}", self.i - 1, UnknownVariableError)
            return self.b.var(idx)
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nest deeper than {MAX_NESTING} levels", self.i - 1)
            self.depth += 1
            node = self.expr()
            if not self.take(")"):
                raise self.error("expected ')'", self.i)
            self.depth -= 1
            return node
        raise self.error(f"expected a variable, integer, or parenthesized expression, got {tok!r}" if tok
                         else "unexpected end of input", self.i - 1)


def parse_dag(text: str, variables: Sequence[str], ring: RingSpec) -> ExprDag:
    """Parse into a hash-consed DAG without expanding anything."""
    builder = DagBuilder(len(variables), ring)
    root = _Parser(text, variables, builder).parse()
    return builder.build(root)


def fold_dag(dag: ExprDag, var, const, add, sub, mul, neg, power):
    """The root's value under one forward pass, visiting each node once.

    Leaves take ``var(index)`` and ``const(value)``; inner nodes apply
    ``add``, ``sub`` or ``mul`` to their children's values, ``neg`` to
    its child's, and ``power`` to its child's value and the exponent.
    """
    memo: list = []
    for node in dag.nodes:
        tag = node[0]
        if tag == VAR:
            v = var(node[1])
        elif tag == CONST:
            v = const(node[1])
        elif tag == ADD:
            v = add(memo[node[1]], memo[node[2]])
        elif tag == SUB:
            v = sub(memo[node[1]], memo[node[2]])
        elif tag == MUL:
            v = mul(memo[node[1]], memo[node[2]])
        elif tag == NEG:
            v = neg(memo[node[1]])
        elif tag == POW:
            v = power(memo[node[1]], node[2])
        else:
            raise ValueError(f"unknown node tag {tag!r}")
        memo.append(v)
    return memo[dag.root]


def _terms_bound(f: Polynomial, j: int, cap: int) -> int:
    """An upper bound on the number of terms of f^j, or cap + 1 once it
    passes cap: the smaller of the box of partial degrees and the count
    C(T-1+j, T-1) of monomials of degree j in the T terms of f."""
    t = len(f.terms)
    if j == 0:
        return 1
    if t <= 1:
        return t
    box = prod(j * di + 1 for di in f.degrees()[0])
    r = min(t - 1, j)
    c = 1
    for i in range(1, r + 1):
        c = c * (t - 1 + j - r + i) // i  # C(t-1+j-r+i, i), increasing in i
        if c >= box or c > cap:
            break
    return min(box, c, cap + 1)


def _words(p: Polynomial) -> int:
    """Machine words of p's largest coefficient (of the modulus over F_p, Z_m)."""
    return words((p.ring.modulus or max(map(abs, p.terms.values()), default=0)).bit_length())


def _product_work(ta: int, wa: int, tb: int, wb: int, arity: int) -> int:
    """``poly.product_work``, plus arity // ``_ENTRIES`` for the exponent
    tuple each of the ta·tb term products writes."""
    return product_work(ta, wa, tb, wb) + ta * tb * (arity // _ENTRIES)


def _power_work(f: Polynomial, k: int, cap: int) -> int:
    """An upper bound on the work ``f ** k`` spends, or more than cap once
    it is passed: the square-and-multiply schedule of
    ``Polynomial.__pow__``, with ``_terms_bound`` for the lengths.  Over Z
    a coefficient of f^j is at most ‖f‖₁^j <= 2^(j·b), b the bits of ‖f‖₁ - 1."""
    m = f.ring.modulus
    b = (sum(map(abs, f.terms.values())) - 1).bit_length()

    def bits(j: int) -> int:  # of the coefficients of f^j
        return m.bit_length() if m else j * b + 1

    def product(i: int, j: int) -> int:  # f^i times f^j
        return _product_work(_terms_bound(f, i, cap), words(bits(i)), _terms_bound(f, j, cap), words(bits(j)),
                             f.arity)

    work, have, base = 0, 0, 1
    while k and work <= cap:
        if k & 1:
            work += product(have, base)
            have += base
        k >>= 1
        if k:
            work += product(base, base)
            base *= 2
    return work


def expand_dag(dag: ExprDag) -> Polynomial:
    """Expand a DAG into a sparse polynomial, one visit per node.

    The work, counted in term products weighted by coefficient words
    (``poly.product_work``) and by the arity-long exponent tuple each
    writes (``_product_work``), is charged before each product and each
    power, and the tuples of the variable and constant leaves before the
    first; an expansion that would pass ``poly.MAX_WORK`` raises
    ``ExpansionTooLargeError`` before doing the step that passes it.
    """
    arity, ring = dag.arity, dag.ring
    budget, spent = poly.MAX_WORK, 0

    def spend(work: int, step: str, *args):
        nonlocal spent
        spent += work
        charge(spent, budget, ExpansionTooLargeError, "expansion passes its budget of {limit} term products at "
               + step + "; expand a smaller expression", *args)

    def mul(a: Polynomial, b: Polynomial) -> Polynomial:
        spend(_product_work(len(a.terms), _words(a), len(b.terms), _words(b), arity),
              "a product of {} and {} terms", len(a.terms), len(b.terms))
        return a * b

    def power(a: Polynomial, k: int) -> Polynomial:
        spend(_power_work(a, k, budget), "a {}-term polynomial to the power {}", len(a.terms), k)
        return a ** k

    leaves = sum(node[0] in (VAR, CONST) for node in dag.nodes)
    spend(leaves * (arity // _ENTRIES), "the exponent tuples of {} variables and constants in {} variables",
          leaves, arity)
    return fold_dag(dag,
                    lambda i: Polynomial.variable(arity, ring, i),
                    lambda c: Polynomial.constant(arity, ring, c),
                    operator.add, operator.sub, mul, operator.neg, power)


def parse_poly(text: str, variables: Sequence[str], ring: RingSpec) -> Polynomial:
    """Parse and eagerly expand into a sparse polynomial."""
    return expand_dag(parse_dag(text, variables, ring))


def infer_variables(text: str) -> list[str]:
    """Variable names appearing in an expression, for callers that do not
    declare them.  Names of the form x<k> yield the full prefix x1..xmax,
    refused past ``MAX_INFERRED`` names; any other names are returned in
    first-appearance order.
    """
    seen = list(dict.fromkeys(filter(str.isidentifier, _TOKEN_RE.findall(text))))
    if seen and all(re.fullmatch(r"x[1-9][0-9]*", n) for n in seen):
        # no k starts with 0, so the longest name holds the largest k; a k
        # of more than _NAME_DIGITS digits is refused by its length, unread
        k = max(seen, key=lambda n: (len(n), n))[1:]
        charge(len(k), _NAME_DIGITS, ResourceLimitError, "x1..x<k> for a {work}-digit k would be more than {} "
               "inferred variables; name them with --vars", MAX_INFERRED)
        top = int(k)
        charge(top, MAX_INFERRED, ResourceLimitError,
               "x1..x{work} would be {work} inferred variables, limit is {limit}; name them with --vars")
        return [f"x{i}" for i in range(1, top + 1)]
    return seen
