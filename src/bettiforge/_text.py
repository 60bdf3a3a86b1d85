"""Checks and quoting of user text, shared by the polynomial parser and the CLI.

Kept apart from :mod:`bettiforge.exact` so that the CLI's numeric commands
can check and quote their input without loading the polynomial code.
"""

from __future__ import annotations

import re

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DIGITS_RE = re.compile(r"[0-9]+")


def _clip(value) -> str:
    """The repr of user input for an error message, cut to the first 100 characters of a string or of another repr."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 100:
        return repr(value)
    return f"{text[:100]!r}... ({len(text)} characters)"
