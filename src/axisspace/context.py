"""Model-context files: field, descriptor and named constants as JSON text.

Schema::

    {
      "field": "q" | "zp:<prime>",
      "descriptor": {
        "f_codim": <int> | "aleph0",
        "axis_census": [[<dim int|"aleph0">, <count int|"aleph0">], ...]
      },
      "constants": {
        "<name>": {
          "axis": [[<axis>, <coord>, "<scalar>"], ...],
          "free": [[<coord>, "<scalar>"], ...]
        }, ...
      }
    }

Indices are JSON integers.  A scalar is a JSON string in the field's
syntax, ``p`` or ``p/q`` with an optional leading ``-`` (``"-2/3"`` over
Q, ``"4"`` over GF(p)); a JSON number or boolean in its place, a string
with an exponent, a point or a space, a fraction over GF(p), or a
coordinate given twice in one constant is a format error, never coerced.

Dumping is canonical (sorted keys and entries, fixed separators), so
dump(load(text)) == text for canonical inputs and load(dump(model)) always
reproduces the model bit for bit.  The layout is fixed, so it is written
directly, one line per value, byte for byte what ``json.dumps(doc,
sort_keys=True, separators=(", ", ": "), indent=1)`` would write; only the
constant names go through json's escaper.  Dumping refuses a constant
whose field is not the model's with ``FieldMismatch``: written under the
model's field it would load back as another element.  It refuses a
constant name that is not a ``str`` with ``ContextFormatError``: a JSON
name is a string, so the constant would load back under another name.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import ContextFormatError
from .fields import FieldCtx, check_same_field
from .model import ALEPH0, Model, canonical_model, make_descriptor

ALEPH_TOKEN = "aleph0"


def _card_from_json(v):
    if v == ALEPH_TOKEN:
        return ALEPH0
    if type(v) is int and v >= 0:
        return v
    raise ContextFormatError(f"bad cardinal value {v!r}")


def _card_text(c) -> str:
    return f'"{ALEPH_TOKEN}"' if c is ALEPH0 else str(c)


# what dump_context writes and the formula grammar reads: p or p/q, with an
# optional minus; Fraction(str) would also take exponents, and "1e1000000"
# builds an integer of a million digits
_SCALAR_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _scalar_from_json(v, rational: bool):
    """A scalar entry, checked to be a JSON string in the field's syntax and
    read once: an int, or over Q with a denominator a Fraction; the model
    coerces it."""
    if type(v) is not str:
        raise ContextFormatError(f"scalar {v!r} is not a JSON string")
    m = _SCALAR_RE.fullmatch(v)
    if m is None:
        raise ContextFormatError(f"scalar {v!r} is not p or p/q")
    num, den = m.groups()
    if den is None:
        return int(num)
    if not rational:
        raise ContextFormatError(f"scalar {v!r} is a fraction over a prime field")
    den = int(den)
    if den == 0:
        raise ContextFormatError(f"scalar {v!r} has a zero denominator")
    return Fraction(int(num), den)


def field_to_token(field: FieldCtx) -> str:
    return "q" if field.is_infinite else f"zp:{field.p}"


def field_from_token(token: str) -> FieldCtx:
    if token == "q":
        return FieldCtx.rationals()
    if token.startswith("zp:"):
        try:
            return FieldCtx.prime_field(int(token[3:]))
        except ValueError as exc:
            raise ContextFormatError(f"bad field token {token!r}") from exc
    raise ContextFormatError(f"bad field token {token!r}")


def _list_text(items: list, depth: int) -> str:
    """A JSON list, opened at ``depth``, of items already written one level
    deeper."""
    if not items:
        return "[]"
    return "[\n" + ", \n".join(items) + "\n" + " " * depth + "]"


def _constant_text(name: str, el) -> str:
    # a scalar's text is digits, "-" and "/", which JSON writes unescaped
    axis_items = [f'    [\n     {axis}, \n     {coord}, \n     "{c}"\n    ]' for (axis, coord), c in el.axis_part]
    free_items = [f'    [\n     {coord}, \n     "{c}"\n    ]' for coord, c in el.free_part]
    return (
        f"  {encode_basestring_ascii(name)}: {{\n"
        f'   "axis": {_list_text(axis_items, 3)}, \n'
        f'   "free": {_list_text(free_items, 3)}\n'
        "  }"
    )


def dump_context(model: Model) -> str:
    field = model.field
    for name in model.constants:
        if not isinstance(name, str):
            raise ContextFormatError(f"constant name {name!r} is not a string")
    constants = []
    for name in sorted(model.constants):
        el = model.constants[name]
        check_same_field(field, el.field)
        constants.append(_constant_text(name, el))
    census = [f"   [\n    {_card_text(d)}, \n    {_card_text(c)}\n   ]" for d, c in model.descriptor.axis_census]
    constants_text = "{\n" + ", \n".join(constants) + "\n }" if constants else "{}"
    return (
        "{\n"
        f' "constants": {constants_text}, \n'
        ' "descriptor": {\n'
        f'  "axis_census": {_list_text(census, 2)}, \n'
        f'  "f_codim": {_card_text(model.descriptor.f_codim)}\n'
        " }, \n"
        f' "field": "{field_to_token(field)}"\n'
        "}\n"
    )


def load_context(text: str) -> Model:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContextFormatError(f"not valid JSON: {exc}") from exc
    try:
        field = field_from_token(doc["field"])
        desc_doc = doc["descriptor"]
        census = {}
        for dim, count in desc_doc["axis_census"]:
            census[_card_from_json(dim)] = _card_from_json(count)
        descriptor = make_descriptor(_card_from_json(desc_doc["f_codim"]), census)
        model = canonical_model(descriptor, field)
        rational = field.is_infinite
        for name, entry in doc.get("constants", {}).items():
            axis_entries, free_entries = entry.get("axis", []), entry.get("free", [])
            axis_part = {(axis, coord): _scalar_from_json(c, rational) for axis, coord, c in axis_entries}
            free_part = {coord: _scalar_from_json(c, rational) for coord, c in free_entries}
            if len(axis_part) != len(axis_entries) or len(free_part) != len(free_entries):
                raise ContextFormatError(f"constant {name!r} gives a coordinate twice")
            model.constants[name] = model.element(axis_part, free_part)
        return model
    except ContextFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ContextFormatError(f"malformed context document: {exc}") from exc
