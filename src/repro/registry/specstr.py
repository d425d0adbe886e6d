"""Spec-string grammar: ``Name`` or ``Name(kw=literal, ...)``.

A *spec string* names a registered component, optionally parameterized
with keyword arguments::

    GhostMinion
    MuonTrap(flush=True)
    pointer_chase(stride=128, footprint_kb=8192)

The grammar is deliberately tiny and injection-safe:

* the head is a bare component name (letters, digits, ``_``, ``.``,
  ``-`` and ``[...]`` — covering figure names like ``MuonTrap-Flush``
  and ``GhostMinion[All]``);
* arguments are **keyword-only** and their values must be Python
  literals (``ast.literal_eval`` territory: numbers, strings, booleans,
  ``None``, and tuples/lists/dicts thereof).  Names, attribute access,
  calls, comprehensions, f-strings and starred expressions are all
  rejected, so a spec string can never execute code.

:func:`parse_spec` -> ``(name, kwargs)``; :func:`format_spec` is its
inverse and produces the *normalized* form (sorted keys, ``repr``
values) used for display names and cache digests — so two spellings of
the same spec digest identically.
"""

from __future__ import annotations

import ast
import keyword
import re
from typing import Dict, Tuple

__all__ = ["SpecError", "parse_spec", "format_spec", "normalize_spec"]

#: Bare component names: must not look like an expression (no spaces,
#: parens or quotes), but may contain ``-``, ``.`` and ``[...]``.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-\[\]]*\Z")

#: ``Name(...)`` call form; the argument list is handed to ``ast``.
_CALL_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_.\-\[\]]*)"
                      r"\s*\((?P<args>.*)\)\s*\Z", re.DOTALL)


class SpecError(ValueError):
    """A spec string that does not fit the grammar."""


def parse_spec(text: str) -> Tuple[str, Dict[str, object]]:
    """Parse a spec string into ``(name, kwargs)``.

    Raises :class:`SpecError` for anything outside the grammar: bad
    syntax, positional arguments, ``**`` expansion, or non-literal
    values.  ``Name()`` normalizes to a bare ``Name`` (empty kwargs).
    """
    if not isinstance(text, str):
        raise SpecError("spec must be a string, got %r" % (text,))
    stripped = text.strip()
    if not stripped:
        raise SpecError("empty spec string")
    if _NAME_RE.match(stripped):
        return stripped, {}
    match = _CALL_RE.match(stripped)
    if match is None:
        raise SpecError(
            "bad spec %r: expected NAME or NAME(kw=literal, ...)" % text)
    name = match.group("name")
    # Re-parse as a call on a placeholder identifier so the component
    # name itself (which may contain '-' / '[...]') never reaches ast.
    try:
        tree = ast.parse("_spec_(%s)" % match.group("args"), mode="eval")
    except SyntaxError as exc:
        raise SpecError("bad spec %r: %s" % (text, exc.msg)) from None
    call = tree.body
    if not (isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "_spec_"):
        # e.g. "k()(x=1)": the argument text itself contained parens
        # that re-shaped the expression.
        raise SpecError(
            "bad spec %r: expected NAME or NAME(kw=literal, ...)" % text)
    if call.args:
        raise SpecError(
            "bad spec %r: positional arguments are not allowed, use "
            "keyword=value" % text)
    kwargs: Dict[str, object] = {}
    for keyword in call.keywords:
        if keyword.arg is None:
            raise SpecError(
                "bad spec %r: ** expansion is not allowed" % text)
        if keyword.arg in kwargs:
            raise SpecError("bad spec %r: duplicate keyword %r"
                            % (text, keyword.arg))
        try:
            kwargs[keyword.arg] = ast.literal_eval(keyword.value)
        except (ValueError, SyntaxError):
            raise SpecError(
                "bad spec %r: value of %r must be a literal (number, "
                "string, bool, None, or tuple/list/dict of those)"
                % (text, keyword.arg)) from None
    return name, kwargs


def format_spec(name: str, kwargs: Dict[str, object]) -> str:
    """The normalized spec string: sorted keys, ``repr`` values.

    ``format_spec(*parse_spec(s))`` is a fixed point: parsing the
    result gives back the same ``(name, kwargs)``.  Keys must be valid
    keyword-argument names (identifiers that are not Python keywords),
    else :class:`SpecError`: ``Custom(as=None)`` would not parse back.
    """
    for key in kwargs:
        if not isinstance(key, str) or not key.isidentifier() \
                or keyword.iskeyword(key):
            raise SpecError("spec keyword %r is not a valid keyword-"
                            "argument name" % (key,))
    if not kwargs:
        return name
    return "%s(%s)" % (name, ", ".join(
        "%s=%r" % (key, value) for key, value in sorted(kwargs.items())))


def normalize_spec(text: str) -> str:
    """Parse and re-format: the canonical spelling of ``text``."""
    return format_spec(*parse_spec(text))
