import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from safmap import toymodel
from safmap.quant import quantize
from safmap.toymodel import (
    DenseLayer,
    ToyModel,
    make_blob_dataset,
    quantize_model,
    quantized_predict,
    train_toy,
)
from safmap.numfmt import MODE_TWOS_COMPLEMENT as TWOS, MODE_UNSIGNED as UNSIGNED

import pytest


@pytest.fixture(scope="module")
def model():
    return train_toy(seed=0)


def test_dataset_is_deterministic_and_sized():
    a = make_blob_dataset(seed=3)
    b = make_blob_dataset(seed=3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    x_train, y_train, x_test, y_test = a
    assert x_train.shape == (2000, 16) and x_test.shape == (500, 16)
    assert set(np.unique(y_train)) == {0, 1, 2, 3}
    c = make_blob_dataset(seed=4)
    assert not np.array_equal(a[0], c[0])


def test_training_is_deterministic(model):
    again = train_toy(seed=0)
    for la, lb in zip(model.layers, again.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_float_accuracy_floor(model):
    _, _, x_test, y_test = make_blob_dataset(seed=0)
    acc = float((model.predict(x_test) == y_test).mean())
    assert acc >= 0.95


def test_quantized_accuracy_close_to_float(model):
    _, _, x_test, y_test = make_blob_dataset(seed=0)
    float_acc = float((model.predict(x_test) == y_test).mean())
    qmodel = quantize_model(model, weight_bits=8, act_bits=8)
    q_acc = float((quantized_predict(qmodel, x_test) == y_test).mean())
    assert abs(q_acc - float_acc) <= 0.01


def test_activation_modes(model):
    qmodel = quantize_model(model)
    assert qmodel.layers[0].act_mode == TWOS  # raw inputs can be negative
    assert qmodel.layers[1].act_mode == UNSIGNED  # post-ReLU
    assert all(layer.weights.bits == 8 for layer in qmodel.layers)


def test_model_json_round_trip(model, tmp_path):
    path = tmp_path / "model.json"
    model.save(path, extra={"config": {"seed": 0}})
    loaded = ToyModel.load(path)
    assert loaded.input_dim == model.input_dim
    assert loaded.classes == model.classes
    for la, lb in zip(loaded.layers, model.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
        assert la.relu == lb.relu
    x = make_blob_dataset(seed=0)[2]
    assert np.array_equal(loaded.predict(x), model.predict(x))


@settings(max_examples=30, deadline=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    relus=st.lists(st.booleans(), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_model_json_round_trip_any_shape(dims, relus, seed):
    rng = np.random.default_rng(seed)
    layers = [
        DenseLayer(rng.normal(size=(fan_in, fan_out)), rng.normal(size=fan_out), relu)
        for fan_in, fan_out, relu in zip(dims, dims[1:], relus)
    ]
    model = ToyModel(layers=layers, input_dim=dims[0], classes=dims[-1])
    loaded = ToyModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
    assert (loaded.input_dim, loaded.classes) == (model.input_dim, model.classes)
    assert len(loaded.layers) == len(layers)
    for la, lb in zip(loaded.layers, layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
        assert la.relu is lb.relu


def test_model_json_rejects_numbers_beyond_float64():
    # Integers convert exactly as long as float64 can hold them.
    obj = ToyModel(
        layers=[DenseLayer(np.zeros((1, 2)), np.zeros(2), relu=False)],
        input_dim=1,
        classes=2,
    ).to_json_dict()
    obj["layers"][0]["weights"] = [2**70, -3]
    assert ToyModel.from_json_dict(obj).layers[0].weights.tolist() == [[2.0**70, -3.0]]
    obj["layers"][0]["bias"] = [0, -(10**400)]
    with pytest.raises(ValueError, match=r"model layer 0 key 'bias' element 1"):
        ToyModel.from_json_dict(obj)


# Enough rows that a float32 product of the 255 cases would round.
EXTREME_ROWS = 70_001


@pytest.mark.parametrize(
    "code, weight",
    [(-128, -128), (-128, 128), (255, 255), (255, -255)],
    ids=["twos-128x-128", "twos-128x128", "unsigned255x255", "unsigned255x-255"],
)
def test_float_product_is_exact_at_the_extremes(code, weight):
    codes = np.full((3, EXTREME_ROWS), code, dtype=np.int64)
    weights = np.full((EXTREME_ROWS, 2), weight, dtype=np.int64)
    got = toymodel._exact_product(codes, weights)
    want = codes @ weights
    assert np.array_equal(got, want)
    assert int(got[0, 0]) == code * weight * EXTREME_ROWS
    # The same sum in float32 is not exact, so the rows test the bound.
    if abs(code * weight) == 255 * 255:
        narrow = codes.astype(np.float32) @ weights.astype(np.float32)
        assert not np.array_equal(narrow.astype(np.int64), want)


def test_prequantized_input_predicts_as_float_input(model):
    _, _, x_test, _ = make_blob_dataset(seed=0)
    qmodel = quantize_model(model)
    first = qmodel.layers[0]
    x_codes = quantize(x_test, first.act_bits, first.act_mode)
    rng = np.random.default_rng(5)
    effective = [
        rng.integers(-128, 129, size=layer.weights.codes.shape) for layer in qmodel.layers
    ]
    for weights in (None, effective):
        assert np.array_equal(
            quantized_predict(qmodel, x_codes, weights),
            quantized_predict(qmodel, x_test, weights),
        )
    with pytest.raises(ValueError, match="quantized to 8-bit unsigned"):
        quantized_predict(qmodel, quantize(x_test, 8, UNSIGNED))
