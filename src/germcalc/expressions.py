"""Text form of series, maps, and vector fields.

The grammar is small and exact: integer literals, the imaginary unit
``i``, named variables, ``+ - * / ^`` and parentheses.  Multiplication is
always explicit (``2*z``, never ``2z``) and division is only defined by a
nonzero constant, which is exactly enough to write any rational or
Gaussian-rational coefficient.  A parenthesized comma-separated list at
top level denotes a map, one component per variable of the target.

A parser value is a scalar (int, Fraction or GaussianRational) or a term
table {packed key: nonzero coefficient} at the parser's truncation, as a
FormalSeries keeps it; it becomes one only at the end, which makes each
int coefficient a Fraction.  Ints stay ints through ``+ - * ^``, so
integer coefficients cost no Fraction arithmetic.  A sum adds its right
operand into the left table in place, so T terms cost O(T).

Printing inverts parsing: ``parse_series(format_series(f, names),
names, f.truncation)`` returns ``f`` again.  Terms are emitted in
increasing monomial order and coefficients in lowest terms with positive
denominator, so equal objects print to equal strings.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional, Sequence, Union

from .errors import GermcalcError, LimitError, ParseError
from .monomial import FIELD_BITS, check_width, unpack
from .scalars import GaussianRational, I, _square_and_multiply
from .series import FormalMap, FormalSeries, _bound, _mul_terms, _reduced, _scaled_terms

Scalar = Union[Fraction, GaussianRational]

_OPERATORS = set("+-*/^(),")

# Each parenthesis or unary sign opens one more factor and about five
# stack frames; past this depth the parser refuses the input rather than
# exhaust the interpreter's recursion limit.
_MAX_NESTING = 100

# A scalar power is refused before it is computed once its size estimate
# passes this many bits, and a sum, product, quotient or series power as
# soon as one of its coefficients does; a coefficient of that size already
# prints to about 2,500 decimal digits.
_MAX_POWER_BITS = 8192

# A product of two tables is refused before it runs once its result could
# pass this many terms, min(len(a) * len(b), C(n + d, n)) for the degree
# d <= K it reaches: past about 50,000 terms a power already costs seconds.
_MAX_TERMS = 50_000

# Longer integer literals are refused before conversion: Python's default
# limit on int-to-str conversion, which int() also enforces.
_MAX_LITERAL_DIGITS = 4300

# An inferred variable set stops at this many variables, and an inferred
# index at _MAX_LITERAL_DIGITS digits: one name like t20000 would otherwise
# declare every variable below it.  Larger sets are named explicitly.
_MAX_INFERRED_VARIABLES = 100


def _bits(value: Union[int, Scalar]) -> int:
    """Bit length of the widest numerator or denominator in a scalar."""
    if type(value) is int:
        return abs(value).bit_length()
    gaussian = isinstance(value, GaussianRational)
    parts = (value.real, value.imag) if gaussian else (value,)
    return max(
        max(abs(p.numerator).bit_length(), p.denominator.bit_length()) for p in parts
    )


def _power_bits(base: Scalar, exponent: int) -> int:
    """Size estimate of base**exponent for a scalar base: the exponent
    times the bit length of the widest numerator or denominator in base.
    Powers of 0 and of +-1 stay small and count as 0."""
    if base in (0, 1, -1):
        return 0
    return exponent * _bits(base)


def default_variables(dimension: int) -> list[str]:
    """Naming convention used when no explicit names are given: z, then
    (z, w), then t1..tn."""
    if dimension == 1:
        return ["z"]
    if dimension == 2:
        return ["z", "w"]
    return [f"t{j}" for j in range(1, dimension + 1)]


def real_variables(pairs: int) -> list[str]:
    """Interleaved real/imaginary names x1, y1, ..., xn, yn."""
    out = []
    for j in range(1, pairs + 1):
        out.extend([f"x{j}", f"y{j}"])
    return out


def infer_variables(texts: Sequence[str]) -> list[str]:
    """Deduce the variable list from the names used in expressions.

    Recognizes the three conventions of default_variables and
    real_variables; anything else needs an explicit variable list.
    """
    seen: set[str] = set()
    for text in texts:
        seen.update(tok.text for tok in _tokenize(text) if tok.kind == "name")
    seen.discard("i")
    if seen <= {"z"}:
        return ["z"]
    if seen <= {"z", "w"}:
        return ["z", "w"]
    t_indices = {name: _indexed_name(name, "t") for name in seen}
    if None not in t_indices.values():
        return [f"t{j}" for j in range(1, _widest(t_indices, 1) + 1)]
    xy_indices = {name: _indexed_name(name, "xy") for name in seen}
    if None not in xy_indices.values():
        return real_variables(_widest(xy_indices, 2))
    raise ParseError(
        "cannot infer a variable set from "
        + ", ".join(sorted(seen))
        + "; pass the names explicitly"
    )


def _indexed_name(name: str, letters: str) -> Optional[int]:
    if len(name) >= 2 and name[0] in letters and name[1:].isascii() and name[1:].isdigit():
        if len(name) - 1 > _MAX_LITERAL_DIGITS:
            raise ParseError(
                f"variable {_abridged(name)} has an index of {len(name) - 1} digits, "
                f"over the limit of {_MAX_LITERAL_DIGITS}; pass the names with --vars"
            )
        index = int(name[1:])
        if index >= 1 and not name[1:].startswith("0"):
            return index
    return None


def _widest(indices: dict[str, int], per_index: int) -> int:
    """The largest index, unless it makes more than _MAX_INFERRED_VARIABLES
    variables at per_index variables each."""
    name = max(indices, key=indices.__getitem__)
    if indices[name] * per_index > _MAX_INFERRED_VARIABLES:
        raise ParseError(
            f"variable {_abridged(name)} asks for more than {_MAX_INFERRED_VARIABLES} "
            "inferred variables; pass the names with --vars"
        )
    return indices[name]


def _abridged(name: str) -> str:
    return name if len(name) <= 12 else name[:12] + "..."


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int):
        self.kind = kind  # "number" | "name" | "op" | "end"
        self.text = text
        self.position = position  # 1-based column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if "0" <= ch <= "9":
            start = pos
            while pos < len(text) and "0" <= text[pos] <= "9":
                pos += 1
            tokens.append(_Token("number", text[start:pos], start + 1))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(_Token("name", text[start:pos], start + 1))
            continue
        if ch in _OPERATORS:
            tokens.append(_Token("op", ch, pos + 1))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos + 1)
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Values are int, Fraction or GaussianRational scalars, or term tables
    of them (see the module docstring), and no table is shared between two
    values; _promote makes one Fraction per int term that is left.  The
    truncation acts as a cap on literal exponents -- a power the
    truncation cannot carry is a typo or a missing --trunc, not a silent
    zero.
    """

    def __init__(self, text: str, names: Sequence[str], truncation: int):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if "i" in names:
            raise ValueError("'i' is reserved for the imaginary unit")
        self.text = text
        self.names = list(names)
        self.index_of = {name: j for j, name in enumerate(names)}
        self.truncation = truncation
        self.bound = _bound(len(names), truncation)
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            shown = tok.text if tok.kind != "end" else "end of input"
            raise ParseError(f"expected {text!r}, found {shown!r}", tok.position)
        return self.advance()

    # -- grammar ------------------------------------------------------------

    def parse_expression(self):
        value = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                value = self._add(value, self.parse_term(), tok)
            else:
                return value

    def parse_term(self):
        value = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = self._bounded(self._mul(value, self.parse_factor()), tok)
            elif tok.kind == "op" and tok.text == "/":
                self.advance()
                value = self._bounded(self._div(value, self.parse_factor(), tok), tok)
            else:
                return value

    def parse_factor(self):
        tok = self.peek()
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {_MAX_NESTING} levels", tok.position
            )
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            value = self.parse_factor()
            if tok.text == "-":
                value = {k: -c for k, c in value.items()} if type(value) is dict else -value
        else:
            value = self.parse_power()
        self.depth -= 1
        return value

    def parse_power(self):
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "number":
                raise ParseError(
                    "exponent must be a nonnegative integer literal",
                    exp_tok.position,
                )
            self.advance()
            exponent = self._integer(exp_tok)
            if type(base) is dict and exponent > self.truncation:
                raise ParseError(
                    f"exponent {exponent} exceeds truncation {self.truncation}",
                    exp_tok.position,
                )
            if type(base) is not dict:
                bits = _power_bits(base, exponent)
                if bits > _MAX_POWER_BITS:
                    raise ParseError(
                        f"scalar power of about {bits} bits exceeds the limit "
                        f"of {_MAX_POWER_BITS} bits",
                        exp_tok.position,
                    )
            return self._bounded(self._power(base, exponent), exp_tok)
        return base

    def parse_atom(self):
        tok = self.advance()
        if tok.kind == "number":
            return self._integer(tok)
        if tok.kind == "name":
            if tok.text == "i":
                return I
            j = self.index_of.get(tok.text)
            if j is None:
                raise ParseError(f"unknown variable {tok.text!r}", tok.position)
            check_width("truncation", self.truncation)  # as FormalSeries.variable
            key = 1 << FIELD_BITS * len(self.names) | 1 << FIELD_BITS * j  # degree 1, x_j
            return {key: 1} if key < self.bound else {}
        if tok.kind == "op" and tok.text == "(":
            value = self.parse_expression()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == ",":
                raise ParseError(
                    "map tuples may only appear at top level", nxt.position
                )
            self.expect_op(")")
            return value
        shown = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"unexpected {shown!r}", tok.position)

    def parse_tuple(self) -> list:
        """Top-level '(' expr (',' expr)* ')'; returns the component list."""
        self.expect_op("(")
        components = [self.parse_expression()]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == ",":
                self.advance()
                components.append(self.parse_expression())
            else:
                break
        self.expect_op(")")
        return components

    # -- arithmetic on mixed scalar/series values ---------------------------

    @staticmethod
    def _integer(tok: _Token) -> int:
        if len(tok.text) > _MAX_LITERAL_DIGITS:
            raise ParseError(
                f"integer literal of {len(tok.text)} digits exceeds the limit "
                f"of {_MAX_LITERAL_DIGITS} digits",
                tok.position,
            )
        return int(tok.text)

    @staticmethod
    def _bounded(value, tok: _Token, changed=None):
        """value, unless one of its coefficients, or of changed when given,
        passes _MAX_POWER_BITS."""
        if changed is None:
            changed = value.values() if type(value) is dict else (value,)
        bits = max(map(_bits, changed), default=0)
        if bits > _MAX_POWER_BITS:
            raise ParseError(
                f"coefficient of {bits} bits exceeds the limit "
                f"of {_MAX_POWER_BITS} bits",
                tok.position,
            )
        return value

    @staticmethod
    def _table(value) -> dict:
        return value if type(value) is dict else {0: value} if value else {}

    def _add(self, a, b, tok: _Token):
        """a + b, or a + (-b) at a '-' token, into a table operand in place.
        Only the coefficients the sum changes are checked against the bit
        bound: every other one came from a variable or passed the check."""
        if tok.text == "-":
            b = {k: -c for k, c in b.items()} if type(b) is dict else -b
        if type(a) is not dict:
            if type(b) is not dict:
                return self._bounded(a + b, tok)
            a, b = b, a
        get, changed = a.get, []
        for k, c in self._table(b).items():
            s = get(k, 0) + c
            if s:
                a[k] = s
                changed.append(s)
            elif k in a:
                del a[k]
        return self._bounded(a, tok, changed)

    def _mul(self, a, b):
        """a * b; a product with a one-term table shifts the other's keys."""
        if type(a) is not dict and type(b) is not dict:
            return a * b
        a, b = self._table(a), self._table(b)
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            ((kb, cb),) = b.items()
            return {k + kb: c * cb for k, c in a.items() if k + kb < self.bound}
        terms = len(a) * len(b)
        if terms > _MAX_TERMS:  # C(n + d, n) monomials have degree <= d
            n = len(self.names)
            d = min(self.truncation, (max(a) >> FIELD_BITS * n) + (max(b) >> FIELD_BITS * n))
            if min(terms, comb(n + d, n)) > _MAX_TERMS:
                raise LimitError(f"a product of up to {min(terms, comb(n + d, n))} terms "
                                 f"exceeds the budget of {_MAX_TERMS} terms")
        (left, da), (right, db) = _scaled_terms(a), _scaled_terms(b)
        table = _mul_terms(left, right, self.bound)
        return _reduced(table, da * db) if da * db > 1 else {k: c for k, c in table.items() if c}

    def _power(self, base, exponent: int):
        """base**exponent: a one-term table multiplies its key, any other
        runs square-and-multiply; 1 for exponent 0."""
        if type(base) is not dict:
            return base**exponent
        if len(base) == 1 and exponent:
            ((k, c),) = base.items()
            return {k * exponent: c**exponent} if k * exponent < self.bound else {}
        return _square_and_multiply(base, exponent, self._mul, {0: 1})

    def _promote(self, value) -> FormalSeries:
        if type(value) is dict:
            return FormalSeries._from_table(len(self.names), self.truncation, _reduced(value, 1))
        return FormalSeries.constant(len(self.names), self.truncation, value)

    def _div(self, a, b, tok: _Token):
        if type(b) is dict:
            if any(b):  # a nonzero packed key has positive degree
                raise ParseError(
                    "division is only defined by a nonzero constant",
                    tok.position,
                )
            b = b.get(0, 0)
        if not b:
            raise ParseError("division by zero", tok.position)
        return self._mul(a, Fraction(1) / b)


def parse_series(
    text: str, names: Sequence[str], truncation: int
) -> FormalSeries:
    """Parse a single series expression over the named variables."""
    parser = _Parser(text, names, truncation)
    value = parser.parse_expression()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing {tok.text!r}", tok.position)
    return parser._promote(value)


def _parse_tuple(
    text: str, names: Sequence[str], truncation: int, shape_error: str, count_error: str
) -> list[FormalSeries]:
    """Parse '(expr, ..., expr)' with one component per name; the error
    texts name what the tuple stands for."""
    parser = _Parser(text, names, truncation)
    tok = parser.peek()
    if not (tok.kind == "op" and tok.text == "("):
        raise ParseError(shape_error, tok.position)
    components = parser.parse_tuple()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing {tok.text!r}", tok.position)
    if len(components) != len(names):
        raise ParseError(
            count_error.format(len(components), len(names)), 1
        )
    return [parser._promote(c) for c in components]


def parse_map(text: str, names: Sequence[str], truncation: int) -> FormalMap:
    """Parse a component tuple '(expr, ..., expr)' as a formal map."""
    return FormalMap(
        _parse_tuple(
            text,
            names,
            truncation,
            "a map must be a parenthesized component tuple",
            "map has {} components for {} variables",
        )
    )


def parse_components(
    text: str, names: Sequence[str], truncation: int
) -> list[FormalSeries]:
    """Parse a component tuple without the vanishing/shape demands of a
    map; used for vector fields."""
    return _parse_tuple(
        text,
        names,
        truncation,
        "components must form a parenthesized tuple",
        "{} components for {} variables",
    )


# -- printing ---------------------------------------------------------------


def format_scalar(value: Scalar) -> str:
    """Reduced-form scalar text that re-parses to the same value."""
    if isinstance(value, GaussianRational):
        if not value.imag:
            return format_scalar(value.real)
        if not value.real:
            return _imaginary_text(value.imag)
        imag = _imaginary_text(abs(value.imag))
        sign = "+" if value.imag > 0 else "-"
        return f"({format_scalar(value.real)} {sign} {imag})"
    try:
        return str(Fraction(value))  # "n", or "n/d" in lowest terms
    except ValueError:  # past Python's limit on int-to-str conversion
        raise GermcalcError(
            f"coefficient of {_bits(value)} bits exceeds the limit of "
            f"{_MAX_LITERAL_DIGITS:,} digits for printing"
        ) from None


def _imaginary_text(coefficient: Fraction) -> str:
    if coefficient == 1:
        return "i"
    if coefficient == -1:
        return "-i"
    return f"{format_scalar(coefficient)}*i"


def _monomial_text(exponents, names: Sequence[str]) -> str:
    factors = []
    for name, e in zip(names, exponents):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def _is_negative(value: Scalar) -> bool:
    if isinstance(value, GaussianRational):
        if value.imag and value.real:
            return False  # full complex coefficients keep their parens
        if value.imag:
            return value.imag < 0
        return value.real < 0
    return value < 0


def format_series(f: FormalSeries, names: Optional[Sequence[str]] = None) -> str:
    """Deterministic text form, terms in increasing monomial order."""
    if names is None:
        names = default_variables(f.dimension)
    if len(names) != f.dimension:
        raise ValueError("need one name per variable")
    terms = sorted(f._table.items())  # packed keys sort in monomial order
    if not terms:
        return "0"
    pieces = []
    for key, coeff in terms:
        negative = _is_negative(coeff)
        magnitude = -coeff if negative else coeff
        mono = _monomial_text(unpack(key, f.dimension), names)
        if not mono:
            body = format_scalar(magnitude)
        elif magnitude == 1:
            body = mono
        else:
            body = f"{format_scalar(magnitude)}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"{'-' if negative else '+'} {body}")
    return " ".join(pieces)


def format_map(phi: FormalMap, names: Optional[Sequence[str]] = None) -> str:
    return format_components(phi.components, names)


def format_components(
    components: Sequence[FormalSeries], names: Optional[Sequence[str]] = None
) -> str:
    if names is None:
        names = default_variables(components[0].dimension)
    inner = ", ".join(format_series(c, names) for c in components)
    return f"({inner})"
