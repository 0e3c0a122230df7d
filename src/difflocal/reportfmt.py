"""Self-describing structured-text reports: a key/value tree with stable order.

Values are dicts (emitted in insertion order), lists, and the scalars int,
bool, Fraction, and str.  Fractions always carry a slash ("5/2", "2/1") so
they survive a round trip; bools are "true"/"false"; anything else parses as
a string.  parse(emit(x)) == x for every report the package produces.
"""

from __future__ import annotations

import re
from fractions import Fraction

INDENT = "  "
_INT_RE = re.compile(r"-?\d+$")
_FRACTION_RE = re.compile(r"-?\d+/\d+$")


def emit(value) -> str:
    lines: list[str] = []
    _emit_into(value, 0, lines)
    return "\n".join(lines) + "\n"


def _emit_into(value, depth: int, lines: list[str]) -> None:
    pad = INDENT * depth
    if isinstance(value, dict):
        if not value:
            raise ValueError("cannot emit an empty dict at top level; wrap it in a key")
        for key, item in value.items():
            if not isinstance(key, str) or ":" in key or not key:
                raise ValueError(f"bad report key: {key!r}")
            if _is_scalar(item):
                lines.append(f"{pad}{key}: {_scalar_str(item)}")
            else:
                lines.append(f"{pad}{key}:")
                _emit_into(item, depth + 1, lines)
    elif isinstance(value, (list, tuple)):
        for item in value:
            if _is_scalar(item):
                lines.append(f"{pad}- {_scalar_str(item)}")
            else:
                lines.append(f"{pad}-")
                _emit_into(item, depth + 1, lines)
    else:
        raise ValueError(f"cannot emit {type(value).__name__} as a block")


def _is_scalar(value) -> bool:
    if isinstance(value, (int, bool, str, Fraction)):
        return True
    return isinstance(value, (list, tuple, dict)) and len(value) == 0


def _scalar_str(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[]"
    if isinstance(value, dict):
        return "{}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if "\n" in text or text != text.strip() or not text:
        raise ValueError(f"string not representable: {text!r}")
    if _parse_scalar(text) != text:
        raise ValueError(f"string would not round-trip: {text!r}")
    return text


def _parse_scalar(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "[]":
        return []
    if text == "{}":
        return {}
    if _INT_RE.match(text):
        return int(text)
    if _FRACTION_RE.match(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {text!r}") from None
    return text


def parse(text: str):
    """Inverse of ``emit``; malformed text raises ValueError."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    try:
        value, consumed = _parse_block(lines, 0, 0)
    except RecursionError:
        raise ValueError("report nested too deeply") from None
    if consumed != len(lines):
        raise ValueError(f"trailing content at line {consumed + 1}")
    return value


def _indent_of(line: str) -> int:
    stripped = len(line) - len(line.lstrip(" "))
    if stripped % len(INDENT):
        raise ValueError(f"bad indentation: {line!r}")
    return stripped // len(INDENT)


def _parse_block(lines: list[str], pos: int, depth: int):
    if pos == len(lines):
        raise ValueError("expected a block, got end of input")
    is_list = lines[pos].lstrip().startswith("-")
    items: list = []
    mapping: dict = {}
    while pos < len(lines):
        line = lines[pos]
        d = _indent_of(line)
        if d < depth:
            break
        if d > depth:
            raise ValueError(f"unexpected indentation: {line!r}")
        body = line.strip()
        if is_list:
            if body == "-":
                child, pos = _parse_block(lines, pos + 1, depth + 1)
                items.append(child)
            elif body.startswith("- "):
                items.append(_parse_scalar(body[2:]))
                pos += 1
            else:
                break
        else:
            if body.startswith("-"):
                break
            key, sep, rest = body.partition(":")
            if not sep:
                raise ValueError(f"expected 'key: value' or 'key:', got {line!r}")
            rest = rest.strip()
            if rest:
                mapping[key] = _parse_scalar(rest)
                pos += 1
            else:
                child, pos = _parse_block(lines, pos + 1, depth + 1)
                mapping[key] = child
    return (items if is_list else mapping), pos
