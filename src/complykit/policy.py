"""The `.law` policy language: lexer, parser, checker, and formatter.

A policy file is the machine-readable companion of a corporate code: it
names the protected attribute, the favorable outcome, the fairness
metrics with their legitimate intervals, the approved data sources and
models, and the decision block an autonomous system must follow.

Grammar (normative):

    document  := "policy" STRING "{" item* "}"
    item      := protected | favorable | metric | sources | model
               | decision | violation
    protected := "protected_attribute" name "{"
                     "privileged" "=" STRING "unprivileged" "=" STRING "}"
    favorable := "favorable_outcome" name "{" "value" "=" STRING "}"
    metric    := "metric" IDENT "{" ("range" "=" interval
               | "bins" "=" NUMBER | "tolerance" "=" NUMBER)* "}"
    sources   := "approved_sources" "{" STRING* "}"
    model     := "approved_model" STRING "{" ("description" "=" STRING
               | "acceptable_uses" "=" string_list
               | "synthetic_data_capability" "=" BOOL)* "}"
    decision  := "decision" "{" ("actions" "=" string_list
               | "states" "=" string_list | "payoffs" "=" matrix
               | "criterion" "=" IDENT | "lambda" "=" NUMBER)* "}"
    violation := "on_violation" "=" ("explain" | "halt")
    interval  := "[" NUMBER "," NUMBER "]"
    name      := IDENT | STRING

`#` starts a line comment. Strings are double-quoted with `\\"` and
`\\\\` escapes. Numbers are decimal with optional sign and fraction.
Identifiers match `[a-z_][a-z0-9_]*`. Semicolons between items are
optional. Intervals are closed at both endpoints.

A key repeated within a block is a SemanticError, so the document is
rejected; the checks after it see the last value, even one that failed
to parse. `on_violation` is parsed, formatted and round-tripped, but
changes neither the report nor the exit code. The formatter keeps every
digit of a number: one whose `repr` has an exponent is written out
positionally, since the grammar has no exponent form.

Parsing is total: any byte input produces either a checked document or a
list of diagnostics with line:column positions, never an unhandled crash.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Optional

from ._value import Value
from .decisions import CRITERIA, DecisionError, PayoffMatrix
from .fairness import resolve_metric_id
from .intervals import Interval

LEX = "LexError"
SYNTAX = "SyntaxError"
SEMANTIC = "SemanticError"

DEFAULT_BINS = 10
DEFAULT_TOLERANCE = 0.0
DEFAULT_LAMBDA = 0.5
DEFAULT_ON_VIOLATION = "explain"


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
    description: Optional[str] = None
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
    on_violation: str = DEFAULT_ON_VIOLATION

    def model(self, model_id: str) -> Optional[ModelSpec]:
        for m in self.approved_models:
            if m.model_id == model_id:
                return m
        return None


# ---------------------------------------------------------------------------
# Lexer

# `[0-9]`, not `\d`, so that non-ASCII digits are lex errors. Only `space`
# can hold a newline: comments and strings end before one.
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<punct>[{}\[\],=;])
  | (?P<string>"(?P<body>(?:[^"\\\n]|\\[^\n]?)*)"?)
  | (?P<number>[+-]?[0-9]+(?:\.[0-9]+)?)
  | (?P<ident>[a-z_][a-z0-9_]*)
  | (?P<other>.)
""", re.VERBOSE)
_ESCAPE = re.compile(r'\\(["\\]?)')
_IDENT = re.compile(r"[a-z_][a-z0-9_]*")


class Token(NamedTuple):
    type: str  # IDENT STRING NUMBER { } [ ] , = ; EOF
    value: object
    line: int
    col: int


def _lex(text: str):
    tokens = []
    diags = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "space":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = m.start() + lexeme.rindex("\n") + 1
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


# ---------------------------------------------------------------------------
# Parser

ITEM_KEYWORDS = {
    "protected_attribute", "favorable_outcome", "metric", "approved_sources",
    "approved_model", "decision", "on_violation",
}


def _value(tok: Optional[Token], default=None):
    return default if tok is None else tok.value


class _Parser:
    def __init__(self, tokens, diags):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags

    # -- token helpers ------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def at(self, ttype: str) -> bool:
        return self.peek().type == ttype

    def error(self, tok: Token, message: str, kind: str = SYNTAX):
        self.diags.append(Diagnostic(kind, tok.line, tok.col, message))

    def expect(self, types, what: str, values=None) -> Optional[Token]:
        """The next token if its type is in `types` and, when `values` is
        given, its value is in `values`; else None after "expected {what}".

        `types` is one token type or a tuple of them (no token type is a
        substring of another).
        """
        tok = self.peek()
        if tok.type in types and (values is None or tok.value in values):
            return self.next()
        self.error(tok, f"expected {what}, found {self._describe(tok)}")
        return None

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.type == "EOF":
            return "end of input"
        if tok.type in ("IDENT", "STRING", "NUMBER"):
            return f"{tok.type} {tok.value!r}"
        return repr(tok.type)

    def skip_separators(self):
        while self.peek().type == ";":
            self.next()

    def sync_to_item(self):
        """Skip tokens until a plausible item start or block end."""
        while True:
            tok = self.peek()
            if tok.type == "EOF" or tok.type == "}":
                return
            if tok.type == "IDENT" and tok.value in ITEM_KEYWORDS:
                return
            self.next()

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

    def parse_number(self) -> Optional[Token]:
        tok = self.expect("NUMBER", "a number")
        if tok is not None and not math.isfinite(tok.value):
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

    def parse_string(self) -> Optional[Token]:
        return self.expect("STRING", "a string")

    def parse_criterion(self) -> Optional[str]:
        tok = self.expect("IDENT", "a criterion name")
        if tok is None:
            return None
        if tok.value in CRITERIA:
            return tok.value
        self.error(tok, f"unknown criterion {tok.value!r}; expected "
                        "wald, hurwicz, or savage", SEMANTIC)
        return None

    def parse_interval(self) -> Optional[Interval]:
        if self.expect("[", "'['") is None:
            return None
        lo = self.parse_number()
        self.expect(",", "','")
        hi = self.parse_number()
        self.expect("]", "']'")
        if lo is None or hi is None:
            return None
        if lo.value > hi.value:
            self.error(lo, f"inverted interval: [{lo.value}, {hi.value}]",
                       SEMANTIC)
            return None
        return Interval(lo.value, hi.value)

    def parse_list(self, parse_item, sync: bool = True) -> Optional[list]:
        """`[ item, ... ]` with optional commas; None after a bad item.

        A bad item skips to the next item keyword or `}` unless `sync` is
        false (a payoff row without its `[` leaves the rest in place).
        """
        if self.expect("[", "'['") is None:
            return None
        items = []
        while not self.at("]") and not self.at("EOF"):
            item = parse_item()
            if item is None:
                if sync:
                    self.sync_to_item()
                return None
            items.append(item)
            if self.at(","):
                self.next()
        self.expect("]", "']'")
        return items

    def parse_strings(self) -> Optional[list]:
        return self.parse_list(lambda: _value(self.parse_string()))

    def parse_block(self, fields: dict, context: str):
        """Parse `{ key = value ... }`, each value by `fields[key]()`.

        Returns (values, keys): for each key given, the value its last
        assignment parsed (None if that failed) and its last key token.
        """
        values, keys = {}, {}
        open_tok = self.expect("{", "'{'")
        if open_tok is None:
            self.sync_to_item()
            return values, keys
        for tok in self.items(open_tok):
            if tok.type != "IDENT" or tok.value not in fields:
                self.error(tok, f"unexpected {self._describe(tok)} in "
                                f"{context} block")
                self.next()
                continue
            key = self.next()
            if key.value in keys:
                self.error(key, f"duplicate {key.value!r} in {context} block",
                           SEMANTIC)
            keys[key.value] = key
            self.expect("=", "'='")
            values[key.value] = fields[key.value]()
        return values, keys

    # -- items ----------------------------------------------------------

    def parse_document(self) -> Optional[PolicyDocument]:
        if self.expect("IDENT", "'policy'", ("policy",)) is None:
            return None
        name = _value(self.parse_string(), "")
        open_tok = self.expect("{", "'{'")
        if open_tok is None:
            return None

        doc = {"name": name, "protected": None, "favorable": None,
               "metrics": [], "sources": set(), "models": [],
               "decision": None, "on_violation": DEFAULT_ON_VIOLATION}
        seen_sections = set()

        for tok in self.items(open_tok):
            if tok.type != "IDENT" or tok.value not in ITEM_KEYWORDS:
                self.error(tok, f"expected a policy item, found "
                                f"{self._describe(tok)}")
                self.next()
                self.sync_to_item()
                continue
            keyword = self.next()
            if keyword.value not in ("metric", "approved_model"):
                if keyword.value in seen_sections:
                    self.error(keyword, f"duplicate {keyword.value} section",
                               SEMANTIC)
                seen_sections.add(keyword.value)
            getattr(self, "item_" + keyword.value)(keyword, doc)

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
            on_violation=doc["on_violation"],
        )

    def item_protected_attribute(self, kw: Token, doc: dict):
        attribute = self.expect(("IDENT", "STRING"), "a name")
        values, _ = self.parse_block({"privileged": self.parse_string,
                                      "unprivileged": self.parse_string},
                                     "protected_attribute")
        privileged = values.get("privileged")
        unprivileged = values.get("unprivileged")
        if attribute is None:
            return
        if privileged is None or unprivileged is None:
            self.error(kw, "protected_attribute needs privileged and "
                           "unprivileged values", SEMANTIC)
        elif privileged.value == unprivileged.value:
            self.error(unprivileged,
                       "privileged and unprivileged values must differ",
                       SEMANTIC)
        else:
            doc["protected"] = ProtectedSpec(attribute.value, privileged.value,
                                             unprivileged.value)

    def item_favorable_outcome(self, kw: Token, doc: dict):
        attribute = self.expect(("IDENT", "STRING"), "a name")
        values, _ = self.parse_block({"value": self.parse_string},
                                     "favorable_outcome")
        value = values.get("value")
        if attribute is None:
            return
        if value is None:
            self.error(kw, "favorable_outcome needs a value", SEMANTIC)
        else:
            doc["favorable"] = FavorableSpec(attribute.value, value.value)

    def item_metric(self, kw: Token, doc: dict):
        name_tok = self.expect("IDENT", "a metric id")
        values, _ = self.parse_block({
            "range": self.parse_interval,
            "bins": lambda: self.parse_checked(
                lambda v: v == int(v) and v >= 2,
                "bins must be an integer >= 2"),
            "tolerance": lambda: self.parse_checked(
                lambda v: v >= 0, "tolerance must be nonnegative"),
        }, "metric")
        if name_tok is None:
            return
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
        open_tok = self.expect("{", "'{'")
        if open_tok is None:
            self.sync_to_item()
            return
        for _ in self.items(open_tok):
            source = self.expect("STRING", "a source URL string")
            if source is None:
                self.next()
                continue
            doc["sources"].add(source.value)
            if self.at(","):
                self.next()

    def item_approved_model(self, kw: Token, doc: dict):
        id_tok = self.parse_string()
        values, _ = self.parse_block({
            "description": self.parse_string,
            "acceptable_uses": self.parse_strings,
            "synthetic_data_capability": lambda: self.expect(
                "IDENT", "true or false", ("true", "false")),
        }, "approved_model")
        if id_tok is None:
            return
        if any(m.model_id == id_tok.value for m in doc["models"]):
            self.error(id_tok, f"duplicate model {id_tok.value!r}", SEMANTIC)
            return
        doc["models"].append(ModelSpec(
            id_tok.value, _value(values.get("description")),
            frozenset(values.get("acceptable_uses") or ()),
            _value(values.get("synthetic_data_capability")) == "true"))

    def item_decision(self, kw: Token, doc: dict):
        values, keys = self.parse_block({
            "actions": self.parse_strings,
            "states": self.parse_strings,
            "payoffs": lambda: self.parse_list(
                lambda: self.parse_list(lambda: _value(self.parse_number())),
                sync=False),
            "criterion": self.parse_criterion,
            "lambda": lambda: self.parse_checked(
                lambda v: 0.0 <= v <= 1.0, "lambda must lie in [0, 1]"),
        }, "decision")
        missing = [k for k in ("actions", "states", "payoffs", "criterion")
                   if values.get(k) is None]
        if missing:
            self.error(kw, "decision block is missing: " + ", ".join(missing),
                       SEMANTIC)
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

    def item_on_violation(self, kw: Token, doc: dict):
        self.expect("=", "'='")
        tok = self.peek()
        if tok.type == "IDENT" and tok.value in ("explain", "halt"):
            doc["on_violation"] = self.next().value
        else:
            self.error(tok, f"expected explain or halt, found "
                            f"{self._describe(tok)}", SEMANTIC
                       if tok.type == "IDENT" else SYNTAX)
            if tok.type == "IDENT":
                self.next()


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
        return str(int(x))
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
        if m.tolerance != DEFAULT_TOLERANCE:
            out.append(f"    tolerance = {_fmt_number(m.tolerance)}")
        out.append("  }")
    if doc.approved_sources:
        out.append("  approved_sources {")
        for src in sorted(doc.approved_sources):
            out.append(f"    {_fmt_string(src)}")
        out.append("  }")
    for model in sorted(doc.approved_models, key=lambda m: m.model_id):
        out.append(f"  approved_model {_fmt_string(model.model_id)} {{")
        if model.description is not None:
            out.append(f"    description = {_fmt_string(model.description)}")
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
        if d.hurwicz_lambda != DEFAULT_LAMBDA:
            out.append(f"    lambda = {_fmt_number(d.hurwicz_lambda)}")
        out.append("  }")
    if doc.on_violation != DEFAULT_ON_VIOLATION:
        out.append(f"  on_violation = {doc.on_violation}")
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
