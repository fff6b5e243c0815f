"""Model-context serialization: bit-exact round-trips."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from axisspace.context import dump_context, field_from_token, load_context
from axisspace.errors import ContextFormatError, FieldMismatch, FragmentExhausted
from axisspace.fields import FieldCtx
from axisspace.model import ALEPH0, canonical_model, make_descriptor, rich_model

Q = FieldCtx.rationals()


def _sample_model():
    model = rich_model(Q)
    model.constants["c"] = model.e(0, 0) + model.e(1, 2).scale(Q.of("2/3"))
    model.constants["d"] = model.fe(0).scale(-2) + model.e(0, 1)
    return model


def _reference_dump(model):
    """The context layout as ``json.dumps`` with ``indent=1`` writes it: the
    oracle for the layout ``dump_context`` writes."""
    constants = {}
    for name in sorted(model.constants):
        el = model.constants[name]
        constants[name] = {
            "axis": [[axis, coord, str(c)] for (axis, coord), c in el.axis_part],
            "free": [[coord, str(c)] for coord, c in el.free_part],
        }

    def card(c):
        return "aleph0" if c is ALEPH0 else c

    doc = {
        "constants": constants,
        "descriptor": {
            "axis_census": [[card(d), card(c)] for d, c in model.descriptor.axis_census],
            "f_codim": card(model.descriptor.f_codim),
        },
        "field": "q" if model.field.p is None else f"zp:{model.field.p}",
    }
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "), indent=1) + "\n"


_GOLDEN_DESCRIPTORS = (
    make_descriptor(ALEPH0, {ALEPH0: ALEPH0}),
    make_descriptor(2, {1: 2, 3: 1}),
    make_descriptor(3, {}),
    make_descriptor(ALEPH0, {2: ALEPH0, ALEPH0: 3}),
    make_descriptor(1, {1: 4, ALEPH0: ALEPH0}),
)
_GOLDEN_NAMES = ("c", "a0", 'say "hi"', "back\\slash", "tab\there", "ünï€", "\U0001d53d", "", "z")


def _random_context_model(rng, descriptor, field):
    model = canonical_model(descriptor, field)
    axes = 6 if model.axis_count is ALEPH0 else min(6, model.axis_count)
    codim = model.descriptor.f_codim
    free_coords = 3 if codim is ALEPH0 else min(3, codim)

    def scalar():
        if field.p is not None:
            return rng.randrange(field.p)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    for name in rng.sample(_GOLDEN_NAMES, rng.randrange(len(_GOLDEN_NAMES) // 2)):
        if rng.random() < 0.15:
            model.constants[name] = model.zero()
            continue
        axis_part = {}
        for axis in rng.sample(range(axes), rng.randrange(min(axes, 3) + 1)):
            dim = model.axis_dim(axis)
            coords = 4 if dim is ALEPH0 else min(dim, 4)
            for coord in rng.sample(range(coords), rng.randint(1, min(coords, 2))):
                axis_part[(axis, coord)] = scalar()
        free_part = {coord: scalar() for coord in rng.sample(range(free_coords), rng.randrange(free_coords + 1))}
        model.constants[name] = model.element(axis_part, free_part)
    return model


def test_dump_layout_matches_json_indent_encoder():
    """dump_context writes, byte for byte, what ``json.dumps(...,
    indent=1)`` writes for the same document: over Q and GF(7), rich,
    fragment, axis-free and mixed aleph0 descriptors, no constants, zero
    constants, fractional and negative scalars, and names that JSON escapes."""
    rng = random.Random(20261020)
    seen = set()
    for field in (Q, FieldCtx.prime_field(7)):
        for descriptor in _GOLDEN_DESCRIPTORS:
            for _ in range(24):
                model = _random_context_model(rng, descriptor, field)
                text = dump_context(model)
                assert text == _reference_dump(model)
                seen.update(model.constants)
    assert seen == set(_GOLDEN_NAMES)


def test_sample_model_dump_is_pinned():
    text = dump_context(_sample_model())
    assert hashlib.sha1(text.encode()).hexdigest() == "58728354d8dd26cb0ff45fa78562edeb5b333826"


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
    a million digits, and exponents, decimal points and spaces are refused.
    Over GF(p) a scalar has no denominator."""
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
        (zp_doc, {"axis": [[0, 0, "1/2"]]}, ContextFormatError),
        (zp_doc, {"free": [[0, "0/3"]]}, ContextFormatError),
        (zp_doc, {"axis": [[0, 0, "1/0"]]}, ContextFormatError),
    ):
        doc["constants"]["c"] = entries
        with pytest.raises(error):
            load_context(json.dumps(doc))


def test_dump_refuses_constant_over_another_field():
    """A constant over GF(5) in a model over Q is refused, not written under
    the model's field, where it would load back as another element."""
    model = rich_model(Q)
    model.constants["c"] = rich_model(FieldCtx.prime_field(5)).e(0, 0).scale(3)
    with pytest.raises(FieldMismatch):
        dump_context(model)


def test_dump_refuses_a_name_that_is_not_a_string():
    """A constant name that is not a str, alone or among str names, is a
    format error that names it: a JSON name is a string, so the constant
    would load back under another name."""
    rng = random.Random(26)
    for field, names in itertools.product((Q, FieldCtx.prime_field(7)), ((), ("c",), ('say "hi"', "", "z"))):
        model = rich_model(field)
        for name in names:
            model.constants[name] = model.e(rng.randrange(4), 0)
        bad = rng.randrange(-50, 50)
        model.constants[bad] = model.e(0, rng.randrange(4))
        with pytest.raises(ContextFormatError, match=f"constant name {bad} "):
            dump_context(model)
        del model.constants[bad]
        assert load_context(dump_context(model)).constants == model.constants


def test_load_refuses_repeated_coordinate():
    """An axis or free coordinate given twice is a format error: neither
    entry silently wins."""
    doc = json.loads(dump_context(_sample_model()))
    for entries in (
        {"axis": [[0, 0, "1"], [0, 0, "2"]], "free": []},
        {"axis": [], "free": [[0, "1"], [0, "2"]]},
    ):
        doc["constants"]["c"] = entries
        with pytest.raises(ContextFormatError):
            load_context(json.dumps(doc))


def test_zero_scalars_load_as_absent_entries():
    q_doc = json.loads(dump_context(_sample_model()))
    zp_doc = json.loads(dump_context(rich_model(FieldCtx.prime_field(5))))
    for doc, zero in ((q_doc, "-0"), (q_doc, "0/3"), (zp_doc, "-0"), (zp_doc, "5")):
        doc["constants"]["c"] = {"axis": [[0, 0, zero], [0, 1, "2"]], "free": [[0, zero]]}
        model = load_context(json.dumps(doc))
        assert model.constants["c"] == model.e(0, 1, 2)
