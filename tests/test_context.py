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
    with pytest.raises(ContextFormatError):
        field_from_token("gf:4")


def test_malformed_documents_rejected():
    with pytest.raises(ContextFormatError):
        load_context("not json")
    with pytest.raises(ContextFormatError):
        load_context("{}")
    with pytest.raises(ContextFormatError):
        load_context('{"field": "q", "descriptor": {"f_codim": -1, "axis_census": []}}')


def test_constants_with_zero_denominators_or_negative_indices_rejected():
    doc = json.loads(dump_context(_sample_model()))
    for entries, error in (
        ({"axis": [[0, 0, "1/0"]]}, ContextFormatError),
        ({"free": [[0, "-2/0"]]}, ContextFormatError),
        ({"axis": [[-1, 0, "1"]]}, FragmentExhausted),
        ({"axis": [[0, -1, "1"]]}, FragmentExhausted),
        ({"free": [[-1, "1"]]}, FragmentExhausted),
    ):
        doc["constants"]["c"] = entries
        with pytest.raises(error):
            load_context(json.dumps(doc))
