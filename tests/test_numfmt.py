import json
import random
import sys

import numpy as np
import pytest

from safmap import numfmt
from safmap.crossbar import ActivationVector
from safmap.faults import SafMask
from safmap.lut import CvmLut, build_cvm_lut
from safmap.mapping import SCHEME_BITFLIP, SCHEME_SIGNFLIP, LayerWeights, MappedLayout
from safmap.numfmt import (
    MODE_TWOS_COMPLEMENT as TWOS,
    MODE_UNSIGNED as UNSIGNED,
    OutOfRangeError,
    clamp_array,
    decode,
    encode_array,
)
from safmap.toymodel import ToyModel


def test_decode_examples():
    assert decode(0b0111, 4, UNSIGNED) == 7
    assert decode(0b1000, 4, TWOS) == -8
    assert decode(0b1001, 4, TWOS) == -7  # 9 - 16


def test_encode_examples():
    assert encode_array([-7, 0], 4, TWOS).tolist() == [0b1001, 0]
    assert encode_array([0], 4, UNSIGNED).tolist() == [0]
    with pytest.raises(OutOfRangeError):
        encode_array([8], 4, TWOS)
    with pytest.raises(OutOfRangeError):
        encode_array([-1], 4, UNSIGNED)


def test_clamp_examples():
    assert clamp_array([8, -9, 3], 4, TWOS).tolist() == [7, -8, 3]
    assert clamp_array([3, -1, 16], 4, UNSIGNED).tolist() == [3, 0, 15]


@pytest.mark.parametrize("width", range(1, 9))
@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
def test_round_trip_exhaustive(width, mode):
    lo, hi = numfmt.value_range(width, mode)
    values = list(range(lo, hi + 1))
    codes = encode_array(values, width, mode)
    assert [decode(int(code), width, mode) for code in codes] == values


@pytest.mark.parametrize("width", range(1, 9))
@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
def test_slicing_consistency_exhaustive(width, mode):
    for code in range(1 << width):
        acc = sum((1 << k) * ((code >> k) & 1) for k in range(width - 1))
        msb_weight = 1 << (width - 1)
        if mode == UNSIGNED:
            acc += msb_weight * ((code >> (width - 1)) & 1)
        else:
            acc -= msb_weight * ((code >> (width - 1)) & 1)
        assert acc == decode(code, width, mode)


def test_width_limits():
    with pytest.raises(OutOfRangeError):
        numfmt.check_width(9)
    with pytest.raises(OutOfRangeError):
        numfmt.check_width(0)


def test_array_helpers_match_scalars():
    for mode in (UNSIGNED, TWOS):
        codes = np.arange(16)
        decoded = numfmt.decode_array(codes, 4, mode)
        assert [decode(int(c), 4, mode) for c in codes] == decoded.tolist()
        assert np.array_equal(encode_array(decoded, 4, mode), codes)


def test_json_int_array_examples():
    def read(values, shape, lo=-1, hi=1, dtype=np.int8):
        return numfmt.json_array(values, "fault mask", "data", shape, lo, hi, dtype)

    got = read([1, 0, -1, 0], (2, 2))
    assert got.dtype == np.int8 and got.tolist() == [[1, 0], [-1, 0]]
    assert read([], (0, 3)).shape == (0, 3)  # numpy reads [] as float64
    # Blocks after the first are checked too.
    big = [0] * 70_000
    big[-1] = 2
    for values, shape, match in (
        ([255, 0], (2,), r"in \[-1, 1\]"),  # checked before narrowing to int8
        ([0.5, 0], (2,), "integers"),
        ([True, False], (2,), "integers"),
        ([None, 0], (2,), "integers"),
        ([2**70, 0], (2,), "integers"),
        ([[0], 0], (2,), "integers"),
        ([[0, 0], [0, 0]], (2,), "flat array"),
        ([0, 0, 0], (2, 2), "expected 4"),
        ([0] * 4, (-2, -2), "negative shape"),
        (big, (70_000,), r"in \[-1, 1\]"),
    ):
        with pytest.raises(ValueError, match=match) as info:
            read(values, shape)
        assert "fault mask key 'data'" in str(info.value)


def test_encode_rejects_non_integers():
    with pytest.raises(ValueError, match="integers"):
        encode_array([3.7], 4, UNSIGNED)


@pytest.mark.parametrize("values, index", [([True, 0], 0), ([0, False], 1)])
def test_json_array_rejects_mixed_booleans(values, index):
    # numpy alone reads [true, 0] as the integers [1, 0].
    with pytest.raises(ValueError, match=rf"integers: element {index} is (true|false)"):
        numfmt.json_array(values, "fault mask", "data", (2,), -1, 1, np.int8)


def test_json_array_of_floats_takes_any_finite_number():
    top = sys.float_info.max

    def read(values):
        return numfmt.json_array(
            values, "model layer 0", "bias", (2,), -top, top, np.float64
        )

    assert read([1, -2.5]).tolist() == [1.0, -2.5]
    for values, index in (([0, True], 1), ([float("nan"), 0], 0),
                          ([0, float("-inf")], 1), ([10**400, 0], 0), ([None, 0], 0)):
        with pytest.raises(ValueError, match=rf"model layer 0 key 'bias'.* element {index} "):
            read(values)


def test_out_of_range_error_cuts_a_long_value():
    top = sys.float_info.max
    with pytest.raises(ValueError) as info:
        numfmt.json_array([0, -10**400], "model layer 0", "bias", (2,), -top, top, np.float64)
    message = str(info.value)
    assert len(message) < 150
    assert f"element 1 is -1{'0' * 18}... (402 characters);" in message


@pytest.mark.parametrize(
    "values, wording",
    [
        (np.array([[3.7]]), "must hold integers, got float64"),
        (np.array([True, False]), "must hold integers, got bool"),
        ([2**70, 0], "must hold integers of at most 64 bits, got object"),
    ],
)
def test_int_array_names_what_is_wrong(values, wording):
    with pytest.raises(ValueError, match=rf"^weight codes {wording}$"):
        numfmt.int_array(values, "weight codes", 0, 15, np.uint16)


def test_int_array_copies_only_memory_a_caller_can_write():
    owned = np.arange(6, dtype=np.uint16).reshape(2, 3)
    frozen = owned.copy()
    frozen.flags.writeable = False
    for given in (owned, owned[:, 1:], memoryview(owned)):  # the caller's memory
        got = numfmt.int_array(given, "codes", 0, 15, np.uint16)
        assert not got.flags.writeable and not np.shares_memory(got, owned)
    converted = numfmt.int_array(owned, "codes", 0, 15, np.int64)
    assert converted.flags.owndata and not converted.flags.writeable
    assert owned.flags.writeable  # freezing a conversion leaves the input as it is
    assert numfmt.int_array(frozen, "codes", 0, 15, np.uint16) is frozen
    assert not numfmt.int_array([[1, 2]], "codes", 0, 15, np.uint16).flags.writeable
    assert not encode_array(owned, 4, TWOS).flags.writeable


def _value_objects():
    """(name, the caller's writeable array, a build of an object from it,
    the object's array) per value object, each read through int_array."""
    flips = np.zeros((1, 3), dtype=np.uint8)
    b_flips = np.zeros((4, 1, 3), dtype=np.uint8)

    def layout(scheme, **arrays):
        given = {"stored": np.zeros((2, 3), np.uint16), "col_flip": flips.copy(),
                 "b_flip": b_flips.copy(), **arrays}
        return MappedLayout(scheme, 4, TWOS, 2, **given)

    return [
        ("LayerWeights", np.arange(6, dtype=np.uint16).reshape(2, 3),
         lambda a: LayerWeights(a, 4, TWOS), lambda o: o.codes),
        ("SafMask", np.zeros((2, 3, 4), dtype=np.int8), SafMask, lambda o: o.cells),
        ("MappedLayout.stored", np.arange(6, dtype=np.uint16).reshape(2, 3),
         lambda a: layout(SCHEME_BITFLIP, stored=a), lambda o: o.stored),
        ("MappedLayout.col_flip", flips.copy(),
         lambda a: layout(SCHEME_SIGNFLIP, col_flip=a), lambda o: o.col_flip),
        ("MappedLayout.b_flip", b_flips.copy(),
         lambda a: layout(SCHEME_BITFLIP, b_flip=a), lambda o: o.b_flip),
        ("ActivationVector", np.arange(5, dtype=np.int64),
         lambda a: ActivationVector(a, 4, UNSIGNED), lambda o: o.values),
        ("CvmLut", build_cvm_lut(2, UNSIGNED).entries.copy(),
         lambda a: CvmLut(2, UNSIGNED, a), lambda o: o.entries),
    ]


@pytest.mark.parametrize(
    "given, build, held",
    [pytest.param(*case[1:], id=case[0]) for case in _value_objects()],
)
def test_value_objects_hold_arrays_no_write_can_change(given, build, held):
    # A write through the caller's array after validation once reached
    # LayerWeights, ActivationVector and CvmLut: mapping then raised
    # IndexError on a weight code or table entry out of range.
    obj = build(given)
    before = held(obj).copy()
    given.flat[0] ^= 1  # still in range, so only ownership can catch it
    assert np.array_equal(held(obj), before)
    with pytest.raises(ValueError, match="read-only"):
        held(obj).flat[0] = 0


# ---------------------------------------------------------------------------
# read_json against json.loads.

# Integer texts the numpy path reads, and texts it must leave to json:
# 19 and 20 digits, leading zeros, signs json rejects, non-integers.
_FAST_INTS = ["0", "-0", "7", "-1", "255", "-128", str(10**18 - 1), str(-(10**17))]
_OTHER_ELEMENTS = [
    str(2**63 - 1), str(-(2**63)), str(10**19), "01", "-01", "+1", "-", "--1",
    "1.0", "1e5", "true", "null", '"x"', '"x]"', "[1]", "[]", "{}", "",
]
_SEPARATORS = [",", ", ", " ,", ",  ", ",\n", ",\t", "\n,"]
_STRINGS = ['"a"', '"caf\\u00e9"', '"café"', '"[1, 2]"', '"\\"]"']


def _random_int(rng) -> str:
    if rng.random() < 0.5:
        return rng.choice(_FAST_INTS)
    value = rng.randrange(10 ** rng.randrange(1, 19))
    return str(-value if rng.random() < 0.3 else value)


def _random_array(rng, odd: float) -> str:
    items = [
        rng.choice(_OTHER_ELEMENTS) if rng.random() < odd / 4 else _random_int(rng)
        for _ in range(rng.randrange(40))
    ]
    seps = _SEPARATORS if rng.random() < odd else _SEPARATORS[:2]
    text = items[0] if items else ""
    for item in items[1:]:
        text += rng.choice(seps) + item
    if rng.random() < odd / 4:
        text = rng.choice(["", " ", "\n", "\t"]) + text + rng.choice(["", ",", " ", "\n"])
    return f"[{text}]"


def _random_document(rng, odd: float) -> str:
    values = {
        "rows": str(rng.randrange(-5, 5)),
        "data": _random_array(rng, odd),
        "name": rng.choice(_STRINGS),
        "nested": '{"inner": %s, "flag": true}' % _random_array(rng, odd),
        "layers": "[%s]" % ", ".join(
            '{"weights": %s, "bias": [0.5]}' % _random_array(rng, odd)
            for _ in range(rng.randrange(1, 3))
        ),
        "grid": "[%s, %s]" % (_random_array(rng, odd), _random_array(rng, odd)),
    }
    keys = rng.sample(list(values), rng.randrange(1, len(values) + 1))
    colon, comma = (": ", ", ") if rng.random() < 0.8 else (" :\n", " ,\t")
    text = "{" + comma.join(f'"{key}"{colon}{values[key]}' for key in keys) + "}"
    if rng.random() < odd / 2:  # truncate, delete or insert one character
        i = rng.randrange(len(text))
        text = rng.choice([text[:i], text[:i] + text[i + 1 :], text[:i] + "]" + text[i:]])
    return text


def _outcome(read) -> tuple:
    """(("value", its JSON text) or (error type, message), arrays read by
    numpy).  Each integer ndarray is written as the list json gives."""
    arrays = []

    def listed(array):
        assert array.dtype.kind == "i" and array.ndim == 1
        arrays.append(array)
        return array.tolist()

    try:
        value = read()
    except ValueError as exc:
        return (type(exc).__name__, str(exc)), 0
    return ("value", json.dumps(value, default=listed)), len(arrays)


@pytest.mark.parametrize("block", [24, 57, 1 << 16])
def test_read_json_matches_json_loads(tmp_path, monkeypatch, block):
    """Same accept/reject, values and error text as ``json.loads`` on
    seeded random files, with blocks that split arrays mid-body."""
    monkeypatch.setattr(numfmt, "_JSON_BLOCK", block)
    rng = random.Random(block)
    path = tmp_path / "doc.json"
    arrays = errors = 0
    for n in range(1000):
        text = _random_document(rng, odd=0.0 if n % 3 == 0 else 0.3)
        path.write_text(text, encoding="utf-8")
        got, read = _outcome(lambda: numfmt.read_json(path, "doc"))
        assert got == _outcome(lambda: json.loads(path.read_text()))[0], text
        arrays += read
        errors += got[0] == "JSONDecodeError"
    assert arrays > 400 and errors > 200  # both paths ran


def test_read_json_reads_top_level_and_scalar_documents(tmp_path):
    path = tmp_path / "doc.json"
    for text in ["[1, -2, 3]", " [0] \n", "7", '"s"', "[]", "[[1]]", "", "[1, 2] x"]:
        path.write_text(text)
        got = _outcome(lambda: numfmt.read_json(path, "doc"))[0]
        assert got == _outcome(lambda: json.loads(text))[0]
    path.write_text("[1, -2, 3]")
    got = numfmt.read_json(path, "doc")
    assert isinstance(got, np.ndarray) and got.dtype == np.int8
    path.write_text(f"[{2**63 - 1}, 0]")  # 19 digits: json reads it
    assert numfmt.read_json(path, "doc") == [2**63 - 1, 0]


def _write_cases():
    rng = np.random.default_rng(11)
    mask = {"rows": 3, "cols": 4, "bits": 2, "data": rng.integers(-1, 2, (3, 4, 2), np.int8)}
    floats = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-300, 300, size=(4, 3))
    floats[0, :2] = [-0.0, 0.1]
    yield "int8", rng.integers(-128, 128, size=(5, 7), dtype=np.int8)
    yield "uint8", rng.integers(0, 256, size=(2, 3, 4), dtype=np.uint8)
    yield "uint16", rng.integers(0, 2**16, size=300, dtype=np.uint16)
    yield "int64", np.array([0, -1, 2**63 - 1, -(2**63), 10**17])
    yield "float64", floats
    yield "bool", rng.integers(0, 2, size=(3, 3)).astype(bool)
    yield "not-c-contiguous", rng.integers(0, 9, size=(3, 5)).T
    yield "empty-layout", {"rows": 0, "cols": 4, "stored": np.zeros((0, 4), np.uint16)}
    # Around the writer's blocks of 8,192 elements and the reader's 65,536.
    for size in (8_191, 8_192, 8_193, 65_535, 65_536, 65_537, 160_000):
        yield f"size-{size}", {"n": size, "data": rng.integers(-1, 2, size, np.int8)}
    yield "model-layers", {
        "layers": [
            {"rows": 4, "cols": 3, "weights": floats, "bias": floats[0], "relu": True},
            {"rows": 3, "cols": 0, "weights": np.zeros((3, 0)), "bias": np.zeros(0),
             "relu": False},
        ],
        "input_dim": 4,
        "classes": 0,
    }
    yield "extra-replaces-a-key", {**mask, **{"rows": 9, "more": [1, (2, None)]}}
    yield "extra-replaces-data", {**mask, **{"data": "replaced", "more": 2}}
    yield "keys-of-every-kind", {"a\"\u00e9": mask["data"], 1: 2.5, 2.5: True, None: {}}
    yield "arrays-in-a-tuple", (np.arange(3), [np.arange(2), []], float("nan"))


@pytest.mark.parametrize("obj", [pytest.param(obj, id=name) for name, obj in _write_cases()])
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path, obj):
    """The bytes of ``json.dumps`` of ``obj`` with each array written as the
    flat C-order list of its elements; ``json_lists`` gives that object."""
    listed = json.dumps(obj, default=lambda array: array.ravel().tolist())
    path = tmp_path / "out.json"
    numfmt.write_json(path, obj)
    assert path.read_bytes() == listed.encode()
    assert json.dumps(numfmt.json_lists(obj)) == listed


def test_model_with_integer_weights_loads_the_same_floats(tmp_path):
    rng = np.random.default_rng(3)
    weights = rng.integers(-(10**17), 10**17, size=(3, 4)).tolist()
    weights[0][:3] = [0, -0, 123456789012345679]  # the last one rounds
    obj = {
        "layers": [
            {"rows": 3, "cols": 4, "weights": sum(weights, []),
             "bias": [1, 2, 3, 4], "relu": True},
            {"rows": 4, "cols": 2, "weights": [1.5, -2, 0, 3, 4, 5, 6, 7],
             "bias": [0.25, 0], "relu": False},
        ],
        "input_dim": 3,
        "classes": 2,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    parsed = numfmt.read_json(path, "model")
    assert isinstance(parsed["layers"][0]["weights"], np.ndarray)
    got = ToyModel.load(path)
    want = ToyModel.from_json_dict(json.loads(path.read_text()))
    for a, b in zip(got.layers, want.layers):
        assert a.weights.dtype == b.weights.dtype == np.float64
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
    assert got.layers[0].weights[0, 2] == float(123456789012345679)
