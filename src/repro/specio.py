"""Spec-document I/O: load declarative TOML/JSON documents.

Service and scenario specs (:mod:`repro.services.spec`,
:mod:`repro.netsim.scenario`) are *data*, so they live in plain files a user
edits without writing Python.  This module turns such a file into nested
dicts/lists of plain values:

* ``.json`` documents parse with the standard library;
* ``.toml`` documents parse with :mod:`tomllib` where available
  (Python ≥ 3.11) and otherwise fall back to a small built-in reader
  covering the TOML subset spec files actually use — tables, arrays of
  tables, dotted table headers, and key/value pairs whose values are
  strings, integers, floats, booleans or inline arrays.  The fallback
  exists because the benchmark must stay dependency-free on Python 3.9.

Canonical serialization (stable key order) also lives here, in two
spellings: :func:`canonical_json` (minimal separators) is what every spec
fingerprint hashes, the same bytes no matter which format — or which
Python version — the spec was loaded from; :func:`canonical_text`
(indented, newline-terminated) is how the diffable key-value reports —
trace documents, store sidecars, benchmark documents, lint reports — are
written.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Tuple

from repro.errors import ConfigurationError

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised on 3.9/3.10 CI
    _toml = None

__all__ = ["load_document", "loads_toml", "canonical_json", "canonical_text"]


def canonical_json(document: Any) -> str:
    """Canonical serialization of a spec document: one spelling per content.

    Keys are sorted recursively and separators minimized, so two documents
    with equal content always serialize — and therefore hash — identically.
    """
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def canonical_text(document: Any) -> str:
    """Pretty canonical serialization: sorted keys, two-space indent, final newline.

    For documents that are key-value reports with no pinned field order,
    so two documents diff cleanly regardless of assembly order.
    """
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def load_document(path: str) -> Dict[str, Any]:
    """Parse a ``.toml`` or ``.json`` spec file into a plain dict."""
    extension = os.path.splitext(path)[1].lower()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ConfigurationError(f"cannot read spec file {path!r}: {error}") from None
    if extension == ".json":
        try:
            document = json.loads(text)
        except ValueError as error:
            raise ConfigurationError(f"invalid JSON in {path!r}: {error}") from None
    elif extension == ".toml":
        document = loads_toml(text, source=path)
    else:
        raise ConfigurationError(
            f"unsupported spec file extension {extension!r} for {path!r}; use .toml or .json"
        )
    if not isinstance(document, dict):
        raise ConfigurationError(f"spec file {path!r} must contain a table/object at the top level")
    return document


def loads_toml(text: str, *, source: str = "<string>") -> Dict[str, Any]:
    """Parse TOML text, via :mod:`tomllib` or the built-in subset reader."""
    if _toml is not None:
        try:
            return _toml.loads(text)
        except _toml.TOMLDecodeError as error:
            raise ConfigurationError(f"invalid TOML in {source!r}: {error}") from None
    return _MiniToml(text, source).parse()


# --------------------------------------------------------------------------- #
# Minimal TOML subset reader (pre-3.11 fallback)
# --------------------------------------------------------------------------- #
_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


class _MiniToml:
    """Reader for the TOML subset used by spec files.

    Supported: ``[table]`` and ``[a.b.c]`` headers, ``[[array.of.tables]]``
    headers, ``key = value`` pairs (bare or quoted keys), and values that
    are basic strings, integers, floats, booleans or inline arrays of those.
    Multi-line strings, inline tables, dates and dotted keys-in-pairs are
    not — spec files do not need them, and the error says so.
    """

    def __init__(self, text: str, source: str) -> None:
        self._lines = text.splitlines()
        self._source = source
        self._root: Dict[str, Any] = {}
        self._current: Dict[str, Any] = self._root

    def _fail(self, line_number: int, message: str) -> "ConfigurationError":
        return ConfigurationError(f"{self._source}:{line_number}: {message} (built-in TOML subset reader)")

    def parse(self) -> Dict[str, Any]:
        for number, raw in enumerate(self._lines, start=1):
            line = self._strip_comment(raw).strip()
            if not line:
                continue
            if line.startswith("[["):
                if not line.endswith("]]"):
                    raise self._fail(number, f"malformed array-of-tables header {line!r}")
                self._current = self._enter(line[2:-2], number, array=True)
            elif line.startswith("["):
                if not line.endswith("]"):
                    raise self._fail(number, f"malformed table header {line!r}")
                self._current = self._enter(line[1:-1], number, array=False)
            else:
                key, value = self._split_pair(line, number)
                if key in self._current:
                    raise self._fail(number, f"duplicate key {key!r}")
                self._current[key] = value
        return self._root

    @staticmethod
    def _strip_comment(line: str) -> str:
        in_string = False
        for index, char in enumerate(line):
            if char == '"':
                in_string = not in_string
            elif char == "#" and not in_string:
                return line[:index]
        return line

    def _enter(self, dotted: str, number: int, *, array: bool) -> Dict[str, Any]:
        parts = [part.strip() for part in dotted.split(".")]
        if not all(_BARE_KEY.match(part) for part in parts):
            raise self._fail(number, f"unsupported table name {dotted!r}")
        node: Dict[str, Any] = self._root
        for part in parts[:-1]:
            child = node.setdefault(part, {})
            if isinstance(child, list):
                child = child[-1]
            if not isinstance(child, dict):
                raise self._fail(number, f"table {dotted!r} collides with a value")
            node = child
        leaf = parts[-1]
        if array:
            entries = node.setdefault(leaf, [])
            if not isinstance(entries, list):
                raise self._fail(number, f"array of tables {dotted!r} collides with a value")
            entries.append({})
            return entries[-1]
        child = node.setdefault(leaf, {})
        if isinstance(child, list):
            raise self._fail(number, f"table {dotted!r} collides with an array of tables")
        if not isinstance(child, dict):
            raise self._fail(number, f"table {dotted!r} collides with a value")
        return child

    def _split_pair(self, line: str, number: int) -> Tuple[str, Any]:
        if "=" not in line:
            raise self._fail(number, f"expected key = value, got {line!r}")
        key, _, rest = line.partition("=")
        key = key.strip()
        if key.startswith('"') and key.endswith('"') and len(key) >= 2:
            key = key[1:-1]
        elif not _BARE_KEY.match(key):
            raise self._fail(number, f"unsupported key {key!r}")
        return key, self._parse_value(rest.strip(), number)

    def _parse_value(self, token: str, number: int) -> Any:
        if not token:
            raise self._fail(number, "missing value")
        if token.startswith('"'):
            if not token.endswith('"') or len(token) < 2:
                raise self._fail(number, f"unterminated string {token!r}")
            body = token[1:-1]
            try:
                return body.encode("utf-8").decode("unicode_escape")
            except UnicodeDecodeError:
                raise self._fail(number, f"bad escape in string {token!r}") from None
        if token.startswith("["):
            if not token.endswith("]"):
                raise self._fail(number, f"unterminated array {token!r} (arrays must be single-line)")
            return [self._parse_value(item.strip(), number) for item in self._split_array(token[1:-1], number)]
        if token == "true":
            return True
        if token == "false":
            return False
        cleaned = token.replace("_", "")
        try:
            return int(cleaned, 10)
        except ValueError:
            pass
        try:
            return float(cleaned)
        except ValueError:
            raise self._fail(number, f"unsupported value {token!r}") from None

    def _split_array(self, body: str, number: int) -> List[str]:
        items: List[str] = []
        depth = 0
        in_string = False
        current = ""
        for char in body:
            if char == '"':
                in_string = not in_string
                current += char
            elif char == "[" and not in_string:
                depth += 1
                current += char
            elif char == "]" and not in_string:
                depth -= 1
                current += char
            elif char == "," and depth == 0 and not in_string:
                items.append(current)
                current = ""
            else:
                current += char
        if in_string or depth != 0:
            raise self._fail(number, f"malformed array [{body}]")
        if current.strip():
            items.append(current)
        return [item for item in items if item.strip()]
