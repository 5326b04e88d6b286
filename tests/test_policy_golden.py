"""Golden diagnostics: what the `.law` front end says about broken inputs.

`tests/golden/policy_diagnostics.json` holds seeded token deletions,
insertions and duplications of `SCENARIO1_POLICY` and of random
documents, plus hand-written lexer and parser edge cases. Each entry
keeps the input, its diagnostics as `str(d)` and, when it parses, the
canonical text of the document. The test replays every entry, so any
change to what the parser accepts, reports or formats shows here.

Regenerate the file with the current parser (and review the diff):

    PYTHONPATH=src python3 tests/test_policy_golden.py

It prints how the corpus moved against the copy it replaces: the inputs
whose accept/reject outcome, canonical text or first diagnostic changed,
and the number of diagnostics before and after.
"""

import json
import random
import re
from pathlib import Path

from complykit.policy import parse_policy_with_diagnostics, serialize_policy
from conftest import SCENARIO1_POLICY, random_document

CORPUS = Path(__file__).parent / "golden" / "policy_diagnostics.json"

# a rough lexeme split, only to choose where a mutation lands
_LEXEME = re.compile(r'"(?:[^"\\\n]|\\.)*"?|[+-]?[0-9]+(?:\.[0-9]+)?'
                     r'|[a-z_][a-z0-9_]*|\S')

_INSERTS = (
    "{", "}", "[", "]", ",", "=", ";", '"x"', '""', "0.5", "-1", "2", "+3",
    "metric", "range", "bins", "tolerance", "lambda", "decision", "payoffs",
    "actions", "states", "criterion", "savage", "policy", "acceptable_uses",
    "synthetic_data_capability", "true", "value", "privileged",
    "approved_sources", "@", "\\",
    '"', "-", "1.", "9" * 400, "# note\n", "\n",
)

_DECISION = ('decision { actions = ["a", "b"] states = ["s"] '
             'payoffs = [[1], [2]] criterion = wald }')


def _decision(payoffs, actions=1, states=2, criterion="wald"):
    """A policy with one decision block over `payoffs`, spliced in as text."""
    names = ", ".join(f'"a{i}"' for i in range(actions))
    columns = ", ".join(f'"s{j}"' for j in range(states))
    return (f'policy "p" {{ decision {{ actions = [{names}] '
            f'states = [{columns}] payoffs = {payoffs} '
            f'criterion = {criterion} }} }}')


_ROW_OF_20 = "[" + ", ".join(
    "9" * 400 if j == 9 else str(j) for j in range(20)) + "]"
_MATRIX_10 = ("policy \"p\" {\n  decision {\n"
              "    actions = [" + ", ".join(f'"a{i}"' for i in range(10)) + "]\n"
              "    states = [" + ", ".join(f'"s{j}"' for j in range(10)) + "]\n"
              "    payoffs = [\n"
              + ",\n".join("      [" + ", ".join(
                  str((i * 7 + j * 3) % 11 - 5) + ("" if j % 3 else ".25")
                  for j in range(10)) + "]" for i in range(10))
              + "\n    ]\n    criterion = savage\n  }\n}\n").replace("\n", "\r\n")

HAND_WRITTEN = (
    # empty, blank and comment-only input
    "", "   \n\t", "# only a comment", "# comment\n",
    'policy "p" {}', 'policy "p" {};;', 'policy "p" {} extra',
    'policy "p" {', 'policy "p"', "policy", 'policy {}', "Policy \"p\" {}",
    # string escapes
    'policy "a\\xb" {}',
    'policy "p" { approved_sources { "a\\x" "b\\q\\"c" "d\\\\e" } }',
    'policy "\\\\\\"" {}',
    'policy "p\\\n" {}',
    'policy "p\\',
    'policy "p\\"',
    'policy "p',
    'policy "p {}\n',
    'policy "p" { approved_sources { "abc',
    'policy "p" { approved_sources { "a\\\n" } }',
    # line ends and tabs
    SCENARIO1_POLICY.replace("\n", "\r\n"),
    SCENARIO1_POLICY.replace("  ", "\t"),
    'policy "p" {\r  approved_sources { "a" }\r}',
    'policy "p" {\n\t\tmetric calibration {\t@ range = [0, 1] }\n}',
    # non-ASCII digits and letters, uppercase, stray characters
    'policy "p" { metric calibration { range = [٣, 1] } }',
    'policy "p" { metric calibration { range = [0, 1] bins = ٥ } }',
    'policy "p" { Metric calibration { range = [0, 1] } }',
    'policy "p" { protected_attribute Sex '
    '{ privileged = "M" unprivileged = "F" } }',
    'policy "p" { metric Calibration { range = [0, 1] } }',
    'policy "p" { protected_attribute séx '
    '{ privileged = "M" unprivileged = "F" } }',
    'policy "p" { favorable_outcome y { value =  "a" } }',
    'policy "p" {\x00}',
    'policy "p" { decision { criterion = WALD } }',
    # numbers
    'policy "p" { metric calibration { range = [-, 1] } }',
    'policy "p" { metric calibration { range = [- 0.5, 1] } }',
    'policy "p" { metric calibration { range = [1., 2] } }',
    'policy "p" { metric calibration { range = [.5, 2] } }',
    'policy "p" { metric calibration { range = [1.2.3, 4] } }',
    'policy "p" { metric calibration { range = [1e5, 2] } }',
    'policy "p" { metric calibration { range = [0x10, 20] } }',
    'policy "p" { metric calibration { range = [+0.25, +1] } }',
    'policy "p" { metric calibration { range = [1, 0] } }',
    'policy "p" { metric calibration { range = [0, 1 } }',
    'policy "p" { metric calibration { range = 0, 1] } }',
    'policy "p" { metric calibration { range = [0 1] } }',
    'policy "p" { metric calibration { range = [0, 1] bins = 2.5 } }',
    'policy "p" { metric calibration { range = [0, 1] bins = 1 } }',
    'policy "p" { metric calibration { range = [0, 1] tolerance = -0.1 } }',
    'policy "p" { metric calibration { range = [0, 1] tolerance = x } }',
    'policy "p" { metric calibration { range = [-%s, 1] } }' % ("9" * 400),
    'policy "p" { metric calibration { range = [0, %s] } }' % ("1" * 400),
    'policy "p" { metric calibration { range = [0, 1] tolerance = %s } }'
    % ("7" * 400),
    'policy "p" { metric calibration { range = [0, 1] bins = %s } }'
    % ("3" * 400),
    'policy "p" { metric calibration { range = [0, 1] tolerance = %s } }'
    % ("9" * 308),
    'policy "p" { metric calibration '
    '{ range = [0.00000000000000000001, 1] } }',
    'policy "p" { decision { actions = ["a"] states = ["s"] '
    'payoffs = [[%s]] criterion = wald } }' % ("5" * 400),
    'policy "p" { decision { actions = ["a", "b"] states = ["s"] '
    'payoffs = [[-%s], [%s]] criterion = savage } }' % ("9" * 308, "9" * 308),
    'policy "p" { decision { actions = ["a"] states = ["s"] '
    'payoffs = [[1]] criterion = hurwicz lambda = %s } }' % ("2" * 400),
    'policy "p" { decision { actions = ["a"] states = ["s"] '
    'payoffs = [[1]] criterion = hurwicz lambda = 1.5 } }',
    # payoff matrices
    'policy "p" { decision { actions = ["a", "b"] states = ["s", "t"] '
    'payoffs = [[1, 2], 3, 4]] criterion = wald } }',
    'policy "p" { decision { actions = ["a"] states = ["s", "t"] '
    'payoffs = [1, 2] criterion = wald } }',
    'policy "p" { decision { actions = ["a"] states = ["s", "t"] '
    'payoffs = [[1, x], [2]] criterion = wald } }',
    'policy "p" { decision { actions = ["a"] states = ["s", "t"] '
    'payoffs = [[1, 2] [3, 4]] criterion = wald } }',
    'policy "p" { decision { actions = ["a"] states = ["s", "t"] '
    'payoffs = [[1, 2, 3]] criterion = wald } }',
    'policy "p" { decision { actions = [] states = [] payoffs = [] '
    'criterion = wald } }',
    'policy "p" { decision { actions = ["a", 1] states = ["s"] '
    'payoffs = [[1]] criterion = wald } }',
    'policy "p" { decision { actions = "a" states = ["s"] '
    'payoffs = [[1]] criterion = wald } }',
    'policy "p" { decision { actions = ["a"] states = ["s"] '
    'payoffs = [[1]] criterion = laplace } }',
    'policy "p" { decision { actions = ["a"] states = ["s"] '
    'payoffs = [[1]] criterion = "wald" } }',
    'policy "p" { decision { actions = ["a"] } }',
    'policy "p" { decision { actions = ["a"] states = ["s"] '
    'payoffs = [[1]] criterion = wald ',
    # other items
    'policy "p" { protected_attribute sex { privileged = "M" } }',
    'policy "p" { protected_attribute sex '
    '{ privileged = "M" unprivileged = "M" } }',
    'policy "p" { protected_attribute { privileged = "M" '
    'unprivileged = "F" } }',
    'policy "p" { protected_attribute sex privileged = "M" }',
    'policy "p" { favorable_outcome y {} }',
    'policy "p" { favorable_outcome "y y" { value = 1 } }',
    'policy "p" { approved_sources { "a", "b" 3 "c" } }',
    'policy "p" { approved_sources "a" }',
    'policy "p" { approved_model "m" { '
    'acceptable_uses = ["u", "v",] synthetic_data_capability = yes } }',
    'policy "p" { approved_model m {} }',
    'policy "p" { approved_model "m" {} approved_model "m" {} }',
    'policy "p" { approved_sources { "a" }; approved_sources { "b" } }',
    # keys the grammar does not have
    'policy "p" { on_violation = halt }',
    'policy "p" { approved_model "m" { description = "d" } }',
    'policy "p" { metric nope { range = [0, 1] } }',
    'policy "p" { metric calibration {} }',
    'policy "p" { metric calibration { range = [0, 1] } '
    'metric calibration { range = [0, 1] } }',
    'policy "p" { metric { range = [0, 1] } }',
    'policy "p" { metric calibration { width = 3 range = [0, 1] } }',
    'policy "p" { 42 metric calibration { range = [0, 1] } }',
    'policy "p" { decision {} decision {} }',
    # a key repeated within a block
    'policy "p" { protected_attribute sex { privileged = "M" '
    'privileged = 1 unprivileged = "F" } }',
    'policy "p" { protected_attribute sex { privileged = "M" '
    'unprivileged = "F" unprivileged = "M" } }',
    'policy "p" { favorable_outcome y { value = "a" value = "b" } }',
    'policy "p" { favorable_outcome y { value = "a" value = 2 } }',
    'policy "p" { metric calibration { range = [0, 1] range = [2, 1] } }',
    'policy "p" { metric calibration { range = [0, 1] bins = 5 bins = 1 } }',
    'policy "p" { metric calibration { range = [0, 1] '
    'tolerance = 0.1 tolerance = -1 } }',
    'policy "p" { metric calibration { range = [0, 1] '
    'tolerance = %s tolerance = -1 } }' % ("9" * 308),
    'policy "p" { approved_model "m" { '
    'acceptable_uses = ["u"] acceptable_uses = [2] '
    'synthetic_data_capability = true synthetic_data_capability = 0 } }',
    'policy "p" { decision { actions = ["a"] actions = [1] states = ["s"] '
    'payoffs = [[1]] criterion = wald } }',
    'policy "p" { decision { actions = ["a"] states = ["s"] states = "s" '
    'payoffs = [[1]] criterion = wald } }',
    'policy "p" { decision { actions = ["a"] states = ["s"] payoffs = [[1]] '
    'payoffs = [1] criterion = wald } }',
    'policy "p" { decision { actions = ["a"] states = ["s"] payoffs = [[1]] '
    'criterion = wald criterion = laplace } }',
    'policy "p" { decision { actions = ["a"] states = ["s"] payoffs = [[1]] '
    'criterion = hurwicz lambda = 0.2 lambda = 2 } }',
    _DECISION.replace("wald }", "wald criterion = wald }"),
    # bracketed number lists: payoff rows and every other place one can stand
    _decision("[[1,\n 2], [3, 4]]", actions=2),
    _decision("[[1, # two\n 2], [3, 4]]", actions=2),
    _decision("[[1, 2,], [3, 4]]", actions=2),
    _decision("[[1 2], [3, 4]]", actions=2),
    _decision("[[\t1,\t2\t], [3 ,4\t]]", actions=2),
    _decision("[[+3, -0.5], [-0, +0.0]]", actions=2),
    _decision(f"[{_ROW_OF_20}, [1]]", actions=2, states=20),
    _decision(f"[[{'9' * 400}, 1]]"),
    _decision(f"[[1, {'9' * 400}]]"),
    _decision("[1, 2]", actions=2, states=1),
    _decision("[[[1, 2]]]"),
    _decision("[[1, 2], 3]", actions=2),
    _decision("[[1, 2] [3, 4]]", actions=2),
    _decision("[[1, 2]", actions=1),
    _decision("[[1.5.2, 2]]"),
    _decision("[[1, 2]]", criterion="[1]"),
    _decision("[[1, 2]] lambda = [0.5]", criterion="hurwicz"),
    'policy "p" { metric calibration { range = [0.5, 0.1] } }',
    'policy "p" { metric calibration { range = [1, 2, 3] } }',
    'policy "p" { metric calibration { range = [] } }',
    'policy "p" { metric calibration { range = [,] } }',
    'policy "p" { metric calibration { range = [ 0 ,\t1 ] } }',
    'policy "p" { metric calibration { range = [0, 1] bins = [5] } }',
    'policy "p" { metric calibration { range = [0, 1] tolerance = [0] } }',
    'policy "p" { metric [1] { range = [0, 1] } }',
    'policy "p" { protected_attribute [1] '
    '{ privileged = "M" unprivileged = "F" } }',
    'policy "p" { favorable_outcome y { value = [1, 2] } }',
    'policy "p" { approved_sources { "a" [1, 2] "b" } }',
    'policy "p" { approved_model "m" { acceptable_uses = [1, 2] } }',
    'policy "p" { approved_model "m" { synthetic_data_capability = [1] } }',
    'policy "p" { decision { actions = [1, 2] states = ["s"] '
    'payoffs = [[1], [2]] criterion = wald } }',
    'policy "p" { [1, 2] metric calibration { range = [0, 1] } }',
    'policy "p" { metric calibration { [0, 1] } }',
    'policy "p" {} [1, 2]',
    'policy [1] {}',
    "[1, 2]",
    _MATRIX_10,
    # recovery skips the braced group of an item header without its name
    'policy "p" { favorable_outcome 5 { value = "a" } '
    'metric calibration { range = [0, 1] } }',
    'policy "p" { favorable_outcome 5 { value = "a" } '
    'metric nosuch { range = [0, 1] } }',
    'policy "p" { protected_attribute [1] '
    '{ privileged = "M" unprivileged = "F" } '
    'metric calibration { range = [2, 1] } }',
    # recovery gives up a bad value to the block's next key: past the
    # brackets the value opened, unless a `key =` shows one left unclosed
    'policy "p" { metric calibration { range = [1 x] } }',
    'policy "p" { approved_model "m" { acceptable_uses = [1] '
    'synthetic_data_capability = 5 } }',
    _decision("[[1 criterion]]"),
    # a stray `{` where a key, source or item belongs is skipped alone;
    # a second copy of a section is skipped whole
    'policy "p" { favorable_outcome y { { value = "a" } '
    'metric calibration { range = [2, 1] } }',
    'policy "p" { approved_sources { { "a" } '
    'metric calibration { range = [2, 1] } }',
    'policy "p" { favorable_outcome y { value = "a" } '
    'favorable_outcome [1, 2] metric calibration { range = [2, 1] } }',
)


def _mutations(text, rng, count):
    spans = [m.span() for m in _LEXEME.finditer(text)]
    out = []
    for _ in range(count):
        start, end = rng.choice(spans)
        op = rng.randrange(3)
        if op == 0:
            out.append(text[:start] + text[end:])
        elif op == 1:
            out.append(text[:end] + " " + text[start:end] + text[end:])
        else:
            at = rng.choice((start, end))
            out.append(text[:at] + " " + rng.choice(_INSERTS) + " " + text[at:])
    return out


def corpus_inputs():
    """The corpus inputs: hand-written cases, then seeded mutations."""
    rng = random.Random(20261018)
    inputs = list(HAND_WRITTEN)
    inputs += _mutations(SCENARIO1_POLICY, rng, 160)
    for _ in range(40):
        text = serialize_policy(random_document(rng))
        inputs += _mutations(text, rng, 4)
    return list(dict.fromkeys(inputs))


def outcome(text):
    doc, diags = parse_policy_with_diagnostics(text)
    return {"diagnostics": [str(d) for d in diags],
            "canonical": serialize_policy(doc) if doc is not None else None}


def _entries():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_policy_diagnostics_corpus():
    entries = _entries()
    assert len(entries) > 400
    mismatched = [e["input"] for e in entries
                  if outcome(e["input"]) != {"diagnostics": e["diagnostics"],
                                             "canonical": e["canonical"]}]
    assert not mismatched, (
        f"{len(mismatched)} of {len(entries)} inputs changed; first: "
        f"{mismatched[0]!r}")


def test_no_fault_is_reported_twice_at_one_position():
    # Recovery reports each fault once. Only the `unclosed '{'` reports of
    # nested blocks share a position: all stand at end of input.
    for entry in _entries():
        seen = set()
        for diagnostic in entry["diagnostics"]:
            position, kind, message = diagnostic.split(": ", 2)
            if not message.startswith("unclosed '{'"):
                message = None
            assert (position, kind, message) not in seen, entry
            seen.add((position, kind, message))


def corpus_moves(old, new):
    """Lines saying how corpus entries `new` differ from `old`: inputs
    whose accept/reject outcome flipped, whose canonical text or whose
    first diagnostic changed, and the diagnostic totals."""
    before = {e["input"]: e for e in old}
    moved = {"accept/reject flipped": [], "canonical text changed": [],
             "first diagnostic changed": []}
    for entry in new:
        was = before.get(entry["input"])
        if was is None:
            continue
        if (was["canonical"] is None) != (entry["canonical"] is None):
            moved["accept/reject flipped"].append(entry["input"])
        elif was["canonical"] != entry["canonical"]:
            moved["canonical text changed"].append(entry["input"])
        if was["diagnostics"][:1] != entry["diagnostics"][:1]:
            moved["first diagnostic changed"].append(entry["input"])
    lines = []
    for what, inputs in moved.items():
        lines.append(f"{len(inputs)} inputs: {what}")
        lines += [f"  {text!r}" for text in inputs]
    kept = sum(e["input"] in before for e in new)
    lines.append(f"{len(new) - kept} inputs added, {len(old) - kept} dropped")
    lines.append(f"diagnostics: {sum(len(e['diagnostics']) for e in old)} "
                 f"before, {sum(len(e['diagnostics']) for e in new)} after")
    return lines


def test_corpus_moves_names_each_changed_input():
    def entry(text, diagnostics, canonical=None):
        return {"input": text, "diagnostics": diagnostics,
                "canonical": canonical}
    old = [entry("a", ["1:1: x"]), entry("b", [], "B"), entry("c", [], "C"),
           entry("gone", ["1:1: x"])]
    new = [entry("a", ["1:1: x", "1:2: y"]), entry("b", ["1:1: z"]),
           entry("c", [], "C2"), entry("added", [])]
    assert corpus_moves(old, new) == [
        "1 inputs: accept/reject flipped", "  'b'",
        "1 inputs: canonical text changed", "  'c'",
        "1 inputs: first diagnostic changed", "  'b'",
        "1 inputs added, 1 dropped",
        "diagnostics: 2 before, 3 after",
    ]


if __name__ == "__main__":
    entries = [{"input": text, **outcome(text)} for text in corpus_inputs()]
    if CORPUS.exists():
        print("\n".join(corpus_moves(_entries(), entries)))
    CORPUS.write_text(json.dumps(entries, indent=1, ensure_ascii=True) + "\n",
                      encoding="utf-8")
