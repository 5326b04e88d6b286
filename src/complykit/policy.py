"""The `.law` policy language: lexer, parser, checker, and formatter.

A policy file is the machine-readable companion of a corporate code: it
names the protected attribute, the favorable outcome, the fairness
metrics with their legitimate intervals, the approved data sources and
models, and the decision block an autonomous system must follow.

Grammar (normative):

    document  := "policy" STRING "{" item* "}"
    item      := protected | favorable | metric | sources | model | decision
    protected := "protected_attribute" name "{"
                     "privileged" "=" STRING "unprivileged" "=" STRING "}"
    favorable := "favorable_outcome" name "{" "value" "=" STRING "}"
    metric    := "metric" IDENT "{" ("range" "=" interval
               | "bins" "=" NUMBER | "tolerance" "=" NUMBER)* "}"
    sources   := "approved_sources" "{" STRING* "}"
    model     := "approved_model" STRING "{" ("acceptable_uses" "="
                     string_list | "synthetic_data_capability" "=" BOOL)* "}"
    decision  := "decision" "{" ("actions" "=" string_list
               | "states" "=" string_list | "payoffs" "=" matrix
               | "criterion" "=" IDENT | "lambda" "=" NUMBER)* "}"
    interval  := "[" NUMBER "," NUMBER "]"
    name      := IDENT | STRING

`#` starts a line comment. Strings are double-quoted with `\\"` and
`\\\\` escapes. Numbers are decimal with optional sign and fraction.
Identifiers match `[a-z_][a-z0-9_]*`. Semicolons between items are
optional. Intervals are closed at both endpoints.

A key repeated within a block is a SemanticError, so the document is
rejected; the checks after it see the last value, even one that failed
to parse. The formatter keeps every digit of a number: one whose `repr`
has an exponent is written out positionally, since the grammar has no
exponent form.

Parsing is total: any text input produces either a checked document or a
list of diagnostics with line:column positions, never an unhandled crash.
Each syntax error is reported once, and the parser recovers by one rule:
it gives up the value the error stands in and skips, past any `[` or `{`
group, to the next key of the block or to the block's `}`. An error in
an item outside its block, and a second copy of a section, skip the item
to the next item keyword. A stray token where a key or an item belongs
is skipped alone first. A semantic error (an inverted interval,
`bins = 1`, a number too large for a float) drops its value but skips
nothing.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Optional

from ._shared import resolve_metric_id
from ._value import Value
from .decisions import CRITERIA, DecisionError, PayoffMatrix
from .intervals import Interval

LEX = "LexError"
SYNTAX = "SyntaxError"
SEMANTIC = "SemanticError"

DEFAULT_BINS = 10
DEFAULT_TOLERANCE = 0.0
DEFAULT_LAMBDA = 0.5


class Diagnostic(Value):
    kind: str  # LexError | SyntaxError | SemanticError
    line: int  # 1-based
    col: int  # 1-based
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.kind}: {self.message}"


class PolicyError(Exception):
    """Raised by parse_policy when the input has diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# ---------------------------------------------------------------------------
# Document model

class ProtectedSpec(Value):
    attribute: str
    privileged_value: str
    unprivileged_value: str


class FavorableSpec(Value):
    attribute: str
    value: str


class MetricConstraint(Value):
    metric_id: str
    range: Interval
    bins: int = DEFAULT_BINS
    tolerance: float = DEFAULT_TOLERANCE


class ModelSpec(Value):
    model_id: str
    acceptable_uses: frozenset = frozenset()
    synthetic_data_capability: bool = False


class DecisionSpec(Value):
    payoffs: PayoffMatrix
    criterion: str
    hurwicz_lambda: float = DEFAULT_LAMBDA


class PolicyDocument(Value):
    name: str
    protected: Optional[ProtectedSpec] = None
    favorable: Optional[FavorableSpec] = None
    metrics: tuple = ()
    approved_sources: frozenset = frozenset()
    approved_models: tuple = ()  # ModelSpecs, document order
    decision: Optional[DecisionSpec] = None

    def model(self, model_id: str) -> Optional[ModelSpec]:
        for m in self.approved_models:
            if m.model_id == model_id:
                return m
        return None


# ---------------------------------------------------------------------------
# Lexer

# `[0-9]`, not `\d`, so that non-ASCII digits are lex errors. Only `space`
# can hold a newline: comments and strings end before one.
# A comma-separated list of numbers in brackets on one line is one ROW token
# of its floats and text, unless a number in it is not finite. A payoff row
# takes a ROW whole; any other rule gets it split by `_PLAIN`, the same
# grammar less rows, and so the plain grammar's tokens.
_TOKEN = re.compile(r"""
    (?P<row>\[[ \t]*NUM(?:[ \t]*,[ \t]*NUM)*[ \t]*\])
  | (?P<space>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<punct>[{}\[\],=;])
  | (?P<string>"(?P<body>(?:[^"\\\n]|\\[^\n]?)*)"?)
  | (?P<number>NUM)
  | (?P<ident>[a-z_][a-z0-9_]*)
  | (?P<other>.)
""".replace("NUM", r"[+-]?[0-9]+(?:\.[0-9]+)?"), re.VERBOSE)
_PLAIN = re.compile(_TOKEN.pattern.split("|", 1)[1], re.VERBOSE)  # less `row`
_ESCAPE = re.compile(r'\\(["\\]?)')
_IDENT = re.compile(r"[a-z_][a-z0-9_]*")


class Token(NamedTuple):
    type: str  # IDENT STRING NUMBER ROW { } [ ] , = ; EOF
    value: object  # a ROW's is (its floats, its text)
    line: int
    col: int


def _lex(text: str, pattern=_TOKEN):
    tokens = []
    diags = []
    line, line_start = 1, 0
    for m in pattern.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "space":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = m.start() + lexeme.rindex("\n") + 1
        elif kind == "row":
            values = list(map(float, lexeme[1:-1].split(",")))
            row = Token("ROW", (values, lexeme), line, col)
            tokens += [row] if all(map(math.isfinite, values)) else _split_row(row)
        elif kind == "punct":
            tokens.append(Token(lexeme, lexeme, line, col))
        elif kind == "ident":
            tokens.append(Token("IDENT", lexeme, line, col))
        elif kind == "number":
            tokens.append(Token("NUMBER", float(lexeme), line, col))
        elif kind == "string":
            value = m.group("body")
            if "\\" in value:
                def unescape(e, body_col=col + 1):
                    if not e.group(1):
                        diags.append(Diagnostic(LEX, line, body_col + e.start(),
                                                "invalid escape sequence"))
                    return e.group(1)
                value = _ESCAPE.sub(unescape, value)
            if m.end() == m.end("body"):
                diags.append(Diagnostic(LEX, line, col, "unterminated string"))
            tokens.append(Token("STRING", value, line, col))
        elif kind == "other":
            diags.append(Diagnostic(LEX, line, col,
                                    f"unexpected character {lexeme!r}"))
    tokens.append(Token("EOF", None, line, len(text) - line_start + 1))
    return tokens, diags


def _split_row(row: Token) -> list:
    """The `[`, NUMBER, `,` and `]` tokens of a ROW, at their own columns."""
    return [t._replace(line=row.line, col=row.col + t.col - 1)
            for t in _lex(row.value[1], _PLAIN)[0][:-1]]


# ---------------------------------------------------------------------------
# Parser

def _value(tok: Optional[Token], default=None):
    return default if tok is None else tok.value


class _Abandon(Exception):
    """A syntax error, already reported: give up the value or item."""


class _Parser:
    def __init__(self, tokens, diags):
        self.tokens = tokens[::-1]  # a stack: the next token is last
        self.diags = diags
        self.open = 0  # the `[`s the value being parsed has not yet closed

    # -- token helpers ------------------------------------------------

    def peek(self) -> Token:
        """The next token, a ROW split into its tokens first."""
        if self.tokens[-1].type == "ROW":
            self.tokens += reversed(_split_row(self.tokens.pop()))
        return self.tokens[-1]

    def next(self) -> Token:
        tok = self.tokens[-1]
        if tok.type != "EOF":
            self.tokens.pop()
        return tok

    def at(self, ttype: str) -> bool:
        """Whether the next token, a ROW unsplit, has type `ttype`; for
        `]`, `,`, `;` and EOF the answer is the same after a split."""
        return self.tokens[-1].type == ttype

    def error(self, tok: Token, message: str, kind: str = SYNTAX):
        self.diags.append(Diagnostic(kind, tok.line, tok.col, message))

    def expect(self, types, what: str, values=None) -> Token:
        """The next token if its type is in `types` and, when `values` is
        given, its value is in `values`; else "expected {what}" and
        _Abandon.

        `types` is one token type or a tuple of them (no token type is a
        substring of another).
        """
        tok = self.peek()
        if tok.type in types and (values is None or tok.value in values):
            self.open += (tok.type == "[") - (tok.type == "]")
            return self.next()
        self.error(tok, f"expected {what}, found {self._describe(tok)}")
        raise _Abandon

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.type == "EOF":
            return "end of input"
        if tok.type in ("IDENT", "STRING", "NUMBER"):
            return f"{tok.type} {tok.value!r}"
        return repr(tok.type)

    def skip_separators(self):
        while self.at(";"):
            self.next()

    def sync(self, stop):
        """Skip the rest of an abandoned value or item: tokens, a ROW and
        each `{` group whole, to a `}` or end of input, or to a keyword in
        `stop`. Inside a `[`, the ones the value left open included, a
        keyword stops the skip only if an `=` follows it, which shows that
        the `[` was never closed."""
        brackets, braces, self.open = self.open, 0, 0
        while True:
            tok = self.tokens[-1]
            if tok.type == "EOF" or tok.type == "}" and not braces:
                return
            if (tok.type == "IDENT" and tok.value in stop and not braces
                    and (not brackets or self.tokens[-2].type == "=")):
                return
            brackets = max(brackets + (tok.type == "[") - (tok.type == "]"), 0)
            braces += (tok.type == "{") - (tok.type == "}")
            self.next()

    def skip_stray(self, tok: Token, message: str, stop):
        """Report `tok`, which cannot start a key or an item, and skip it
        alone (a stray `[` or `{` opens no group), then to `stop`."""
        self.error(tok, message)
        self.next()
        self.sync(stop)

    def items(self, open_tok: Token):
        """Yield each item token of the block `open_tok` opened, skipping
        separators, then consume its `}` (or report it unclosed at end of
        input). The caller consumes at least the token yielded.
        """
        while True:
            self.skip_separators()
            tok = self.peek()
            if tok.type == "}":
                self.next()
                return
            if tok.type == "EOF":
                self.error(tok, f"unclosed '{{' opened at "
                                f"{open_tok.line}:{open_tok.col}")
                return
            yield tok

    # -- value parsers ------------------------------------------------
    # Each reports a syntax error by _Abandon, and a semantic one by
    # returning None after consuming the whole value.

    def parse_number(self) -> Optional[Token]:
        tok = self.expect("NUMBER", "a number")
        if not math.isfinite(tok.value):
            self.error(tok, "number is too large to represent", SEMANTIC)
            return None
        return tok

    def parse_checked(self, valid, message: str) -> Optional[Token]:
        """A number for which `valid(value)` holds, else `message`."""
        tok = self.parse_number()
        if tok is not None and not valid(tok.value):
            self.error(tok, message, SEMANTIC)
            return None
        return tok

    def parse_string(self) -> Token:
        return self.expect("STRING", "a string")

    def parse_criterion(self) -> Optional[str]:
        tok = self.expect("IDENT", "a criterion name")
        if tok.value in CRITERIA:
            return tok.value
        self.error(tok, f"unknown criterion {tok.value!r}; expected "
                        "wald, hurwicz, or savage", SEMANTIC)
        return None

    def parse_interval(self) -> Optional[Interval]:
        self.expect("[", "'['")
        lo = self.parse_number()
        self.expect(",", "','")
        hi = self.parse_number()
        self.expect("]", "']'")
        if lo is None or hi is None:
            return None
        try:
            return Interval(lo.value, hi.value)
        except ValueError as exc:
            self.error(lo, str(exc), SEMANTIC)
            return None

    def parse_list(self, parse_item) -> Optional[list]:
        """`[ item, ... ]` with optional commas; None if an item is."""
        self.expect("[", "'['")
        items = []
        while not self.at("]") and not self.at("EOF"):
            items.append(parse_item())
            if self.at(","):
                self.next()
        self.expect("]", "']'")
        return None if None in items else items

    def parse_strings(self) -> Optional[list]:
        return self.parse_list(lambda: self.parse_string().value)

    def parse_row(self) -> Optional[list]:
        """A payoff row: a ROW taken whole, else `[ number, ... ]`."""
        if self.at("ROW"):
            return self.next().value[0]
        return self.parse_list(lambda: _value(self.parse_number()))

    def parse_block(self, fields: dict, context: str):
        """Parse `{ key = value ... }`, each value by `fields[key]()`.

        Returns (values, keys): for each key given, the value its last
        assignment parsed (None if that failed, already reported) and its
        last key token. A key in `keys` is never also reported as missing.
        """
        values, keys = {}, {}
        for tok in self.items(self.expect("{", "'{'")):
            if tok.type != "IDENT" or tok.value not in fields:
                self.skip_stray(tok, f"unexpected {self._describe(tok)} in "
                                     f"{context} block", fields)
                continue
            key = self.next()
            if key.value in keys:
                self.error(key, f"duplicate {key.value!r} in {context} block",
                           SEMANTIC)
            keys[key.value], values[key.value] = key, None
            try:
                self.expect("=", "'='")
                values[key.value] = fields[key.value]()
            except _Abandon:
                self.sync(fields)
        return values, keys

    # -- items ----------------------------------------------------------

    def parse_document(self) -> Optional[PolicyDocument]:
        try:
            self.expect("IDENT", "'policy'", ("policy",))
            name = self.parse_string().value
            open_tok = self.expect("{", "'{'")
        except _Abandon:
            return None

        doc = {"name": name, "protected": None, "favorable": None,
               "metrics": [], "sources": set(), "models": [],
               "decision": None}
        seen_sections = set()

        for tok in self.items(open_tok):
            if tok.type != "IDENT" or tok.value not in ITEM_KEYWORDS:
                self.skip_stray(tok, f"expected a policy item, found "
                                     f"{self._describe(tok)}", ITEM_KEYWORDS)
                continue
            keyword = self.next()
            try:
                if keyword.value in seen_sections:
                    self.error(keyword, f"duplicate {keyword.value} section",
                               SEMANTIC)
                    raise _Abandon  # skip the second copy whole
                if keyword.value not in ("metric", "approved_model"):
                    seen_sections.add(keyword.value)
                getattr(self, "item_" + keyword.value)(keyword, doc)
            except _Abandon:
                self.sync(ITEM_KEYWORDS)

        self.skip_separators()
        trailing = self.peek()
        if trailing.type != "EOF":
            self.error(trailing, f"unexpected {self._describe(trailing)} "
                                 "after policy document")
        if self.diags:
            return None
        return PolicyDocument(
            name=doc["name"],
            protected=doc["protected"],
            favorable=doc["favorable"],
            metrics=tuple(doc["metrics"]),
            approved_sources=frozenset(doc["sources"]),
            approved_models=tuple(doc["models"]),
            decision=doc["decision"],
        )

    def item_protected_attribute(self, kw: Token, doc: dict):
        attribute = self.expect(("IDENT", "STRING"), "a name")
        values, keys = self.parse_block({"privileged": self.parse_string,
                                         "unprivileged": self.parse_string},
                                        "protected_attribute")
        privileged = values.get("privileged")
        unprivileged = values.get("unprivileged")
        if "privileged" not in keys or "unprivileged" not in keys:
            self.error(kw, "protected_attribute needs privileged and "
                           "unprivileged values", SEMANTIC)
        elif privileged is None or unprivileged is None:
            return
        elif privileged.value == unprivileged.value:
            self.error(unprivileged,
                       "privileged and unprivileged values must differ",
                       SEMANTIC)
        else:
            doc["protected"] = ProtectedSpec(attribute.value, privileged.value,
                                             unprivileged.value)

    def item_favorable_outcome(self, kw: Token, doc: dict):
        attribute = self.expect(("IDENT", "STRING"), "a name")
        values, keys = self.parse_block({"value": self.parse_string},
                                        "favorable_outcome")
        value = values.get("value")
        if "value" not in keys:
            self.error(kw, "favorable_outcome needs a value", SEMANTIC)
        elif value is not None:
            doc["favorable"] = FavorableSpec(attribute.value, value.value)

    def item_metric(self, kw: Token, doc: dict):
        name_tok = self.expect("IDENT", "a metric id")
        values, keys = self.parse_block({
            "range": self.parse_interval,
            "bins": lambda: self.parse_checked(
                lambda v: v == int(v) and v >= 2,
                "bins must be an integer >= 2"),
            "tolerance": lambda: self.parse_checked(
                lambda v: v >= 0, "tolerance must be nonnegative"),
        }, "metric")
        metric_id = resolve_metric_id(name_tok.value)
        if metric_id is None:
            self.error(name_tok, f"unknown metric id {name_tok.value!r}",
                       SEMANTIC)
            return
        if any(m.metric_id == metric_id for m in doc["metrics"]):
            self.error(name_tok, f"duplicate metric {metric_id!r}", SEMANTIC)
            return
        span = values.get("range")
        if span is None:
            if "range" not in keys:
                self.error(name_tok, f"metric {metric_id!r} needs a range",
                           SEMANTIC)
            return
        tolerance_tok = values.get("tolerance")
        tolerance = _value(tolerance_tok, DEFAULT_TOLERANCE)
        try:
            span.widened(tolerance)
        except ValueError:
            self.error(tolerance_tok or name_tok, "range widened by tolerance "
                                                  "is not finite", SEMANTIC)
            return
        bins = int(_value(values.get("bins"), DEFAULT_BINS))
        doc["metrics"].append(MetricConstraint(metric_id, span, bins,
                                               tolerance))

    def item_approved_sources(self, kw: Token, doc: dict):
        for tok in self.items(self.expect("{", "'{'")):
            if tok.type != "STRING":
                # the block has no keys: skip to its `}`
                self.skip_stray(tok, f"expected a source URL string, found "
                                     f"{self._describe(tok)}", ())
                continue
            doc["sources"].add(self.next().value)
            if self.at(","):
                self.next()

    def item_approved_model(self, kw: Token, doc: dict):
        id_tok = self.parse_string()
        values, _ = self.parse_block({
            "acceptable_uses": self.parse_strings,
            "synthetic_data_capability": lambda: self.expect(
                "IDENT", "true or false", ("true", "false")),
        }, "approved_model")
        if any(m.model_id == id_tok.value for m in doc["models"]):
            self.error(id_tok, f"duplicate model {id_tok.value!r}", SEMANTIC)
            return
        doc["models"].append(ModelSpec(
            id_tok.value, frozenset(values.get("acceptable_uses") or ()),
            _value(values.get("synthetic_data_capability")) == "true"))

    def item_decision(self, kw: Token, doc: dict):
        values, keys = self.parse_block({
            "actions": self.parse_strings,
            "states": self.parse_strings,
            "payoffs": lambda: self.parse_list(self.parse_row),
            "criterion": self.parse_criterion,
            "lambda": lambda: self.parse_checked(
                lambda v: 0.0 <= v <= 1.0, "lambda must lie in [0, 1]"),
        }, "decision")
        required = ("actions", "states", "payoffs", "criterion")
        missing = [k for k in required if k not in keys]
        if missing:
            self.error(kw, "decision block is missing: " + ", ".join(missing),
                       SEMANTIC)
        if missing or any(values[k] is None for k in required):
            return
        try:
            matrix = PayoffMatrix(values["actions"], values["states"],
                                  values["payoffs"])
        except DecisionError as exc:
            self.error(keys["payoffs"], str(exc), SEMANTIC)
            return
        doc["decision"] = DecisionSpec(
            matrix, values["criterion"],
            _value(values.get("lambda"), DEFAULT_LAMBDA))


# The grammar's item keywords: one `_Parser.item_<keyword>` method each.
ITEM_KEYWORDS = {n[5:] for n in vars(_Parser) if n.startswith("item_")}


def parse_policy_with_diagnostics(text: str):
    """Total parse: returns (document or None, diagnostics)."""
    tokens, diags = _lex(text)
    return _Parser(tokens, diags).parse_document(), diags


def parse_policy(text: str) -> PolicyDocument:
    """Parse and check a policy; raises PolicyError with diagnostics."""
    doc, diags = parse_policy_with_diagnostics(text)
    if doc is None:
        raise PolicyError(diags)
    return doc


# ---------------------------------------------------------------------------
# Canonical serializer

def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x)) if x or math.copysign(1.0, x) > 0 else "-0"
    r = repr(x)
    if "e" in r:
        # The grammar has no exponent form: write the same digits
        # positionally, so that the number reads back as the same float.
        from decimal import Decimal
        r = format(Decimal(r), "f")
    return r


def _fmt_string(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _fmt_name(s: str) -> str:
    if _IDENT.fullmatch(s):
        return s
    return _fmt_string(s)


def _fmt_string_list(items) -> str:
    return "[" + ", ".join(_fmt_string(s) for s in items) + "]"


def serialize_policy(doc: PolicyDocument) -> str:
    """Canonical text form: fixed section order, one item per line,
    normalized numbers, defaults elided. parse(serialize(doc)) == doc."""
    out = [f"policy {_fmt_string(doc.name)} {{"]

    if doc.protected is not None:
        p = doc.protected
        out.append(f"  protected_attribute {_fmt_name(p.attribute)} {{")
        out.append(f"    privileged = {_fmt_string(p.privileged_value)}")
        out.append(f"    unprivileged = {_fmt_string(p.unprivileged_value)}")
        out.append("  }")
    if doc.favorable is not None:
        f = doc.favorable
        out.append(f"  favorable_outcome {_fmt_name(f.attribute)} {{")
        out.append(f"    value = {_fmt_string(f.value)}")
        out.append("  }")
    for m in doc.metrics:
        out.append(f"  metric {m.metric_id} {{")
        out.append(f"    range = [{_fmt_number(m.range.lo)}, "
                   f"{_fmt_number(m.range.hi)}]")
        if m.bins != DEFAULT_BINS:
            out.append(f"    bins = {m.bins}")
        if _fmt_number(m.tolerance) != _fmt_number(DEFAULT_TOLERANCE):
            out.append(f"    tolerance = {_fmt_number(m.tolerance)}")
        out.append("  }")
    if doc.approved_sources:
        out.append("  approved_sources {")
        for src in sorted(doc.approved_sources):
            out.append(f"    {_fmt_string(src)}")
        out.append("  }")
    for model in sorted(doc.approved_models, key=lambda m: m.model_id):
        out.append(f"  approved_model {_fmt_string(model.model_id)} {{")
        if model.acceptable_uses:
            out.append("    acceptable_uses = "
                       + _fmt_string_list(sorted(model.acceptable_uses)))
        if model.synthetic_data_capability:
            out.append("    synthetic_data_capability = true")
        out.append("  }")
    if doc.decision is not None:
        d = doc.decision
        out.append("  decision {")
        out.append(f"    actions = {_fmt_string_list(d.payoffs.actions)}")
        out.append(f"    states = {_fmt_string_list(d.payoffs.states)}")
        rows = ", ".join(
            "[" + ", ".join(_fmt_number(v) for v in row) + "]"
            for row in d.payoffs.values)
        out.append(f"    payoffs = [{rows}]")
        out.append(f"    criterion = {d.criterion}")
        if _fmt_number(d.hurwicz_lambda) != _fmt_number(DEFAULT_LAMBDA):
            out.append(f"    lambda = {_fmt_number(d.hurwicz_lambda)}")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Operational-context manifest check

APPROVED = "approved"
VIOLATION = "violation"


class ContextFinding(Value):
    subject: str  # e.g. "source <url>", "model <id>"
    status: str  # approved | violation
    reason: str

    @property
    def is_approved(self) -> bool:
        return self.status == APPROVED


def check_manifest(doc: PolicyDocument, manifest) -> list:
    """Check a run manifest against the policy's approved sources/models.

    `manifest` carries `dataset_source`, `model_id`, `declared_use`, and
    `synthetic`. Returns one ContextFinding per manifest item; violations
    are findings, never exceptions.
    """
    findings = []

    def finding(subject, approved, reason_if_approved, reason_if_not):
        findings.append(ContextFinding(subject, APPROVED, reason_if_approved)
                        if approved else
                        ContextFinding(subject, VIOLATION, reason_if_not))

    if manifest.dataset_source:
        if not doc.approved_sources:
            finding(f"source {manifest.dataset_source}", True,
                    "policy declares no source restrictions", None)
        else:
            finding(f"source {manifest.dataset_source}",
                    manifest.dataset_source in doc.approved_sources,
                    "listed in approved_sources", "unknown source")

    # uses and the capability are approved per model, so without a
    # model_id nothing can approve them
    model, refusal = None, "manifest names no model_id"
    if manifest.model_id:
        model, refusal = doc.model(manifest.model_id), None
        finding(f"model {manifest.model_id}", model is not None,
                "listed in approved models", "unknown model")
        if model is None:
            return findings
    if manifest.declared_use is not None:
        finding(f"use {manifest.declared_use}",
                model and manifest.declared_use in model.acceptable_uses,
                "listed in acceptable_uses", refusal or "use not acceptable")
    if manifest.synthetic:
        finding("synthetic data generation",
                model and model.synthetic_data_capability,
                "model declares the capability",
                refusal or "synthetic data requested but capability is false")
    return findings
