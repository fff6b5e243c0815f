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
Q, ``"4"`` over GF(p)); a JSON number or boolean in its place, or a
string with an exponent, a point or a space, is a format error, never
coerced.

Dumping is canonical (sorted keys and entries, fixed separators), so
dump(load(text)) == text for canonical inputs and load(dump(model)) always
reproduces the model bit for bit.
"""

from __future__ import annotations

import json
import re

from .errors import ContextFormatError
from .fields import FieldCtx
from .model import ALEPH0, Model, canonical_model, make_descriptor

ALEPH_TOKEN = "aleph0"


def _card_to_json(c):
    return ALEPH_TOKEN if c is ALEPH0 else c


def _card_from_json(v):
    if v == ALEPH_TOKEN:
        return ALEPH0
    if type(v) is int and v >= 0:
        return v
    raise ContextFormatError(f"bad cardinal value {v!r}")


# what dump_context writes and the formula grammar reads: p or p/q, with an
# optional minus; Fraction(str) would also take exponents, and "1e1000000"
# builds an integer of a million digits
_SCALAR_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _scalar_from_json(v):
    """A scalar entry, checked to be a JSON string in the field's syntax;
    the model coerces it."""
    if type(v) is not str:
        raise ContextFormatError(f"scalar {v!r} is not a JSON string")
    if not _SCALAR_RE.fullmatch(v):
        raise ContextFormatError(f"scalar {v!r} is not p or p/q")
    return v


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


def dump_context(model: Model) -> str:
    constants = {}
    for name in sorted(model.constants):
        el = model.constants[name]
        constants[name] = {
            "axis": [[axis, coord, str(c)] for (axis, coord), c in el.axis_part],
            "free": [[coord, str(c)] for coord, c in el.free_part],
        }
    doc = {
        "constants": constants,
        "descriptor": {
            "axis_census": [[_card_to_json(d), _card_to_json(c)] for d, c in model.descriptor.axis_census],
            "f_codim": _card_to_json(model.descriptor.f_codim),
        },
        "field": field_to_token(model.field),
    }
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "), indent=1) + "\n"


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
        for name, entry in doc.get("constants", {}).items():
            axis_part = {(axis, coord): _scalar_from_json(c) for axis, coord, c in entry.get("axis", [])}
            free_part = {coord: _scalar_from_json(c) for coord, c in entry.get("free", [])}
            model.constants[name] = model.element(axis_part, free_part)
        return model
    except ContextFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ContextFormatError(f"malformed context document: {exc}") from exc
