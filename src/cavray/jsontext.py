"""JSON text of report values, exactly as ``json.dumps(value, indent=2)``.

The artifacts hold dicts, lists, floats, ``None`` and strings, and writing
them here spares a process the ~3 ms import of the json package. A float
is written by ``float.__repr__``, as json writes it, so an ``np.float64``
gives the same text. A string of printable ASCII without ``"`` or ``\\``
is written inline, and any other goes to ``json.dumps``: the one case that
still imports json. A non-finite float is a ValueError (JSON has no token
for it), any other type a TypeError.
"""

import math


def dumps(value, margin: str = "") -> str:
    """``json.dumps(value, indent=2)`` with ``margin`` after every newline:
    the text of ``value`` as it sits in a document at that indent."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"JSON has no token for {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    inner = margin + "  "
    if isinstance(value, dict):
        items = [f"{_string(key)}: {dumps(item, inner)}" for key, item in value.items()]
        brackets = "{}"
    elif isinstance(value, list):
        items = [dumps(item, inner) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"no JSON text for a {type(value).__name__}")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{margin}{brackets[1]}"


def _string(text: str) -> str:
    """``text`` as a JSON string: quoted inline when nothing in it needs an escape."""
    if not isinstance(text, str):
        raise TypeError(f"no JSON string for a {type(text).__name__}")
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)
