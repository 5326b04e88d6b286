"""A small JSON Schema checker for the keywords docs/report-schema.json uses.

Covers `type`, `properties`, `required`, `additionalProperties`, `items`,
`enum`, `const`, `oneOf`, `$ref` (local `#/...` pointers) and `minimum`;
any other keyword in the schema is an error, so the checker cannot
silently ignore a constraint it does not implement.
"""

import json
from pathlib import Path

SCHEMA_PATH = Path(__file__).parent.parent / "docs" / "report-schema.json"

# Keywords that only annotate or locate the schema.
_ANNOTATIONS = {"$schema", "$id", "title", "description", "definitions"}
_CHECKED = {"type", "properties", "required", "additionalProperties", "items",
            "enum", "const", "oneOf", "$ref", "minimum"}


def _is_type(value, name):
    if name == "null":
        return value is None
    if name == "boolean":
        return isinstance(value, bool)
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "string":
        return isinstance(value, str)
    if name == "array":
        return isinstance(value, list)
    if name == "object":
        return isinstance(value, dict)
    raise ValueError(f"unknown schema type {name!r}")


def _resolve(root, ref):
    if not ref.startswith("#/"):
        raise ValueError(f"only local $ref is supported, got {ref!r}")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def errors(value, schema, root=None, path="$"):
    """Every violation of `schema` by `value`, as 'path: message' strings."""
    root = schema if root is None else root
    unknown = set(schema) - _CHECKED - _ANNOTATIONS
    if unknown:
        raise ValueError(f"{path}: unsupported schema keywords {sorted(unknown)}")
    out = []
    if "$ref" in schema:
        out += errors(value, _resolve(root, schema["$ref"]), root, path)
    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) \
            else [schema["type"]]
        if not any(_is_type(value, n) for n in names):
            out.append(f"{path}: {value!r} is not of type {names}")
            return out
    if "const" in schema and value != schema["const"]:
        out.append(f"{path}: {value!r} is not {schema['const']!r}")
    if "enum" in schema and value not in schema["enum"]:
        out.append(f"{path}: {value!r} is not one of {schema['enum']}")
    if "minimum" in schema and _is_type(value, "number") \
            and value < schema["minimum"]:
        out.append(f"{path}: {value!r} is below {schema['minimum']}")
    if "oneOf" in schema:
        matches = sum(not errors(value, sub, root, path)
                      for sub in schema["oneOf"])
        if matches != 1:
            out.append(f"{path}: matches {matches} oneOf branches, not 1")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                out.append(f"{path}: missing required {key!r}")
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                out += errors(item, props[key], root, f"{path}.{key}")
            elif extra is False:
                out.append(f"{path}: unexpected property {key!r}")
            elif isinstance(extra, dict):
                out += errors(item, extra, root, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            out += errors(item, schema["items"], root, f"{path}[{i}]")
    return out


def load_schema():
    return json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))


def validate_report(blob: bytes):
    """Assert that a JSON report is strict JSON, with no NaN or Infinity
    and no object that names a member twice, and matches the schema."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    def unique(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            names = [name for name, _ in pairs]
            twice = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate JSON object keys {twice}")
        return obj

    obj = json.loads(blob, parse_constant=reject, object_pairs_hook=unique)
    problems = errors(obj, load_schema())
    assert not problems, "\n".join(problems)
