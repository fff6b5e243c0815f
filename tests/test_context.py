"""Model-context serialization: bit-exact round-trips."""

import json

import pytest

from axisspace.context import dump_context, field_from_token, load_context
from axisspace.errors import ContextFormatError, FragmentExhausted
from axisspace.fields import FieldCtx
from axisspace.model import ALEPH0, canonical_model, make_descriptor, rich_model

Q = FieldCtx.rationals()


def _sample_model():
    model = rich_model(Q)
    model.constants["c"] = model.e(0, 0) + model.e(1, 2).scale(Q.of("2/3"))
    model.constants["d"] = model.fe(0).scale(-2) + model.e(0, 1)
    return model


def test_roundtrip_model_to_text_to_model():
    model = _sample_model()
    text = dump_context(model)
    again = load_context(text)
    assert again.field == model.field
    assert again.descriptor == model.descriptor
    assert again.constants == model.constants


def test_roundtrip_text_is_bit_exact():
    text = dump_context(_sample_model())
    assert dump_context(load_context(text)) == text


def test_fragment_descriptor_roundtrip():
    model = canonical_model(make_descriptor(2, {1: 2, ALEPH0: 1}), Q)
    model.constants["a"] = model.e(0, 0)
    text = dump_context(model)
    again = load_context(text)
    assert again.descriptor == model.descriptor
    assert again.constants == model.constants


def test_prime_field_roundtrip():
    model = rich_model(FieldCtx.prime_field(5))
    model.constants["c"] = model.e(0, 0).scale(3)
    again = load_context(dump_context(model))
    assert again.field.p == 5
    assert again.constants == model.constants


def test_field_tokens():
    assert field_from_token("q").is_infinite
    assert field_from_token("zp:7").p == 7
    for token in ("gf:4", "zp:abc", "zp:"):
        with pytest.raises(ContextFormatError):
            field_from_token(token)


def test_malformed_documents_rejected():
    with pytest.raises(ContextFormatError):
        load_context("not json")
    with pytest.raises(ContextFormatError):
        load_context("{}")
    for descriptor in (
        {"f_codim": -1, "axis_census": []},
        {"f_codim": True, "axis_census": []},
        {"f_codim": 0, "axis_census": [[True, 1]]},
        {"f_codim": 0, "axis_census": [[1, True]]},
    ):
        with pytest.raises(ContextFormatError):
            load_context(json.dumps({"field": "q", "descriptor": descriptor}))
    descriptor = {"f_codim": 0, "axis_census": [[1, 1]]}
    for constants in ([], {"c": []}):
        with pytest.raises(ContextFormatError):
            load_context(json.dumps({"field": "q", "descriptor": descriptor, "constants": constants}))


def test_constants_with_zero_denominators_or_negative_indices_rejected():
    """Bad scalars and indices are refused.  A scalar is a JSON string: a
    number or a boolean is a format error, not coerced (1e400 reads as an
    infinite float, 2.5 is no residue, 0.1 is a binary fraction).  The
    string is ``p`` or ``p/q`` with an optional ``-``, as dump_context and
    the formula grammar write it: ``"1e1000000"`` would build an integer of
    a million digits, and exponents, decimal points and spaces are refused."""
    q_doc = json.loads(dump_context(_sample_model()))
    zp_doc = json.loads(dump_context(rich_model(FieldCtx.prime_field(5))))
    for doc, entries, error in (
        (q_doc, {"axis": [[0, 0, "1/0"]]}, ContextFormatError),
        (q_doc, {"free": [[0, "-2/0"]]}, ContextFormatError),
        (q_doc, {"axis": [[-1, 0, "1"]]}, FragmentExhausted),
        (q_doc, {"axis": [[0, -1, "1"]]}, FragmentExhausted),
        (q_doc, {"free": [[-1, "1"]]}, FragmentExhausted),
        (q_doc, {"axis": [[1.5, 0, "1"]]}, ContextFormatError),
        (q_doc, {"axis": [[0, 0.5, "1"]]}, ContextFormatError),
        (q_doc, {"axis": [[True, 0, "1"]]}, ContextFormatError),
        (q_doc, {"free": [[2.5, "1"]]}, ContextFormatError),
        (q_doc, {"axis": [[0, 0, 1e400]]}, ContextFormatError),
        (zp_doc, {"free": [[0, 1e400]]}, ContextFormatError),
        (zp_doc, {"axis": [[0, 0, 2.5]]}, ContextFormatError),
        (q_doc, {"axis": [[0, 0, 0.1]]}, ContextFormatError),
        (q_doc, {"axis": [[0, 0, True]]}, ContextFormatError),
        (zp_doc, {"axis": [[0, 0, 1]]}, ContextFormatError),
        (q_doc, {"axis": [[0, 0, "1e1000000"]]}, ContextFormatError),
        (q_doc, {"axis": [[0, 0, "1e3"]]}, ContextFormatError),
        (q_doc, {"free": [[0, "2.5"]]}, ContextFormatError),
        (zp_doc, {"axis": [[0, 0, " 1"]]}, ContextFormatError),
    ):
        doc["constants"]["c"] = entries
        with pytest.raises(error):
            load_context(json.dumps(doc))
