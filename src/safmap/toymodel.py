"""Small synthetic MLP used by the Monte Carlo evaluation harness.

A seeded Gaussian-blob classification task (4 classes in 16 dimensions,
2000 train / 500 test points) and a 16 -> 32 -> 4 ReLU MLP trained with
plain full-batch gradient descent on softmax cross-entropy, implemented
directly on numpy.  Hidden activations are non-negative, so everything
after the first layer can stream as unsigned activations.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numfmt import MODE_TWOS_COMPLEMENT, MODE_UNSIGNED, json_array, json_fields
from .quant import QuantizedTensor, quantize

# The blob task and the MLP's training schedule.
_CLASSES = 4
_DIM = 16
_TRAIN_POINTS = 2000
_TEST_POINTS = 500
_CENTER_SPREAD = 1.0
_HIDDEN = 32
_EPOCHS = 400
_LEARNING_RATE = 0.05
_ACCURACY_FLOOR = 0.95
# Model arrays accept any finite JSON number.
_FINITE = sys.float_info.max


class TrainingDivergedError(RuntimeError):
    """Training failed to reach the clean-accuracy floor."""


@dataclass
class DenseLayer:
    weights: np.ndarray  # float64, (fan_in, fan_out)
    bias: np.ndarray  # float64, (fan_out,)
    relu: bool


@dataclass
class ToyModel:
    layers: list[DenseLayer]
    input_dim: int
    classes: int

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = x @ layer.weights + layer.bias
            if layer.relu:
                x = np.maximum(x, 0.0)
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).argmax(axis=1)

    def to_json_dict(self) -> dict:
        return {
            "layers": [
                {
                    "rows": layer.weights.shape[0],
                    "cols": layer.weights.shape[1],
                    "weights": layer.weights.ravel(order="C").tolist(),
                    "bias": layer.bias.tolist(),
                    "relu": layer.relu,
                }
                for layer in self.layers
            ],
            "input_dim": self.input_dim,
            "classes": self.classes,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ToyModel":
        """Parse a model file.  Each layer's ``weights`` hold rows x cols
        finite numbers and its ``bias`` cols; the layers chain, the first
        taking ``input_dim`` inputs and the last giving ``classes`` outputs
        (with no layers, ``classes`` equals ``input_dim``)."""
        specs, input_dim, classes = json_fields(
            obj, "model", layers=list, input_dim=int, classes=int
        )
        layers = []
        width = input_dim
        for i, spec in enumerate(specs):
            what = f"model layer {i}"
            rows, cols, weights, bias, relu = json_fields(
                spec, what, rows=int, cols=int, weights=list, bias=list, relu=bool
            )
            if rows != width:
                raise ValueError(
                    f"{what} key 'rows' is {rows}, but layer {i - 1} gives "
                    f"{width} outputs"
                    if layers
                    else f"model key 'input_dim' is {input_dim}, but layer 0 "
                    f"has {rows} rows"
                )
            weights, bias = (
                json_array(values, what, key, shape, -_FINITE, _FINITE, np.float64)
                for key, values, shape in (
                    ("weights", weights, (rows, cols)), ("bias", bias, (cols,))
                )
            )
            layers.append(DenseLayer(weights=weights, bias=bias, relu=relu))
            width = cols
        if classes != width:
            raise ValueError(
                f"model key 'classes' is {classes}, but its 'layers' give "
                f"{width} outputs"
            )
        return cls(layers=layers, input_dim=input_dim, classes=classes)

    def save(self, path: str | Path, extra: dict | None = None) -> None:
        obj = self.to_json_dict()
        if extra:
            obj.update(extra)
        Path(path).write_text(json.dumps(obj))

    @classmethod
    def load(cls, path: str | Path) -> "ToyModel":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def make_blob_dataset(
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Seeded Gaussian blobs; returns (x_train, y_train, x_test, y_test)."""
    rng = np.random.default_rng([seed, 0xDA7A])
    centers = rng.normal(0.0, _CENTER_SPREAD, size=(_CLASSES, _DIM))
    total = _TRAIN_POINTS + _TEST_POINTS
    labels = rng.integers(0, _CLASSES, size=total)
    points = centers[labels] + rng.normal(0.0, 1.0, size=(total, _DIM))
    order = rng.permutation(total)
    points, labels = points[order], labels[order]
    return (
        points[:_TRAIN_POINTS],
        labels[:_TRAIN_POINTS],
        points[_TRAIN_POINTS:],
        labels[_TRAIN_POINTS:],
    )


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_toy(seed: int = 0) -> ToyModel:
    """Train the MLP with full-batch gradient descent; deterministic per seed."""
    x_train, y_train, x_test, y_test = make_blob_dataset(seed)
    dim, classes = x_train.shape[1], int(y_train.max()) + 1
    rng = np.random.default_rng([seed, 0x1417])
    w1 = rng.normal(0.0, np.sqrt(2.0 / dim), size=(dim, _HIDDEN))
    b1 = np.zeros(_HIDDEN)
    w2 = rng.normal(0.0, np.sqrt(2.0 / _HIDDEN), size=(_HIDDEN, classes))
    b2 = np.zeros(classes)

    onehot = np.eye(classes)[y_train]
    count = x_train.shape[0]
    # The (count, hidden) arrays are reused across epochs: fresh 500 KB
    # temporaries would make the training time depend on whether the
    # allocator serves them from freed heap or from new, faulting pages.
    h_pre = np.empty((count, _HIDDEN))
    h = np.empty_like(h_pre)
    g_h = np.empty_like(h_pre)
    active = np.empty(h_pre.shape, dtype=bool)
    for _ in range(_EPOCHS):
        np.matmul(x_train, w1, out=h_pre)
        h_pre += b1
        np.maximum(h_pre, 0.0, out=h)
        probs = _softmax(h @ w2 + b2)
        g_out = (probs - onehot) / count
        g_w2 = h.T @ g_out
        g_b2 = g_out.sum(axis=0)
        np.matmul(g_out, w2.T, out=g_h)
        g_h *= np.greater(h_pre, 0, out=active)
        g_w1 = x_train.T @ g_h
        g_b1 = g_h.sum(axis=0)
        w2 -= _LEARNING_RATE * g_w2
        b2 -= _LEARNING_RATE * g_b2
        w1 -= _LEARNING_RATE * g_w1
        b1 -= _LEARNING_RATE * g_b1

    model = ToyModel(
        layers=[DenseLayer(w1, b1, relu=True), DenseLayer(w2, b2, relu=False)],
        input_dim=dim,
        classes=classes,
    )
    accuracy = float((model.predict(x_test) == y_test).mean())
    if accuracy < _ACCURACY_FLOOR:
        raise TrainingDivergedError(
            f"clean float accuracy {accuracy:.3f} below floor {_ACCURACY_FLOOR}"
        )
    return model


@dataclass
class QuantizedLayer:
    """One layer ready for integer inference."""

    weights: QuantizedTensor
    bias: np.ndarray
    relu: bool
    act_bits: int
    act_mode: str  # mode the layer's INPUT activations stream in


@dataclass
class QuantizedModel:
    layers: list[QuantizedLayer]


def quantize_model(
    model: ToyModel, weight_bits: int = 8, act_bits: int = 8
) -> QuantizedModel:
    """Per-tensor symmetric quantization of every layer.

    The first layer sees raw (possibly negative) inputs and streams them
    as two's complement; ReLU outputs stream unsigned.
    """
    layers = []
    mode = MODE_TWOS_COMPLEMENT
    for layer in model.layers:
        layers.append(
            QuantizedLayer(
                weights=quantize(layer.weights, weight_bits, MODE_TWOS_COMPLEMENT),
                bias=layer.bias.copy(),
                relu=layer.relu,
                act_bits=act_bits,
                act_mode=mode,
            )
        )
        mode = MODE_UNSIGNED if layer.relu else MODE_TWOS_COMPLEMENT
    return QuantizedModel(layers=layers)


def blob_test_set(model: ToyModel, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The blob task's test points and labels, once the model is checked to
    take its inputs and give its classes."""
    for key, value, task, what in (
        ("input_dim", model.input_dim, _DIM, "inputs"),
        ("classes", model.classes, _CLASSES, "classes"),
    ):
        if value != task:
            raise ValueError(
                f"model key '{key}' is {value}, but the blob dataset has {task} {what}"
            )
    _, _, x_test, y_test = make_blob_dataset(seed)
    return x_test, y_test


def _exact_product(codes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``codes @ weights`` of integer matrices, on BLAS in float64; exact
    within the bound :func:`quantized_predict` states."""
    return codes.astype(np.float64) @ np.asarray(weights, dtype=np.float64)


def quantized_predict(
    qmodel: QuantizedModel,
    x: np.ndarray | QuantizedTensor,
    weights: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Integer inference with exact matrix products.  ``x`` is the float
    input, or the first layer's input already quantized to that layer's
    ``act_bits`` and ``act_mode``.  ``weights`` holds one integer matrix per
    layer (the effective weights of a mapped layout, say) in place of the
    layers' quantized codes.

    The matrix products run on BLAS in float64 and are exact.  With widths
    of at most ``MAX_BITS`` = 8, an activation code is at most 255 in
    magnitude (unsigned 8-bit) and so is a weight, so every term is at most
    2**16 and a sum over R rows at most 2**16 * R: an integer below 2**53
    for any R < 2**37, whatever order BLAS adds the terms in."""
    if weights is None:
        weights = [layer.weights.codes for layer in qmodel.layers]
    for layer, w in zip(qmodel.layers, weights, strict=True):
        if isinstance(x, QuantizedTensor):
            if (x.bits, x.mode) != (layer.act_bits, layer.act_mode):
                raise ValueError(
                    f"input quantized to {x.bits}-bit {x.mode}, but the layer "
                    f"takes {layer.act_bits}-bit {layer.act_mode}"
                )
            aq = x
        else:
            aq = quantize(x, layer.act_bits, layer.act_mode)
        y = _exact_product(aq.codes, w)
        x = y * (aq.scale * layer.weights.scale) + layer.bias
        if layer.relu:
            x = np.maximum(x, 0.0)
    return x.argmax(axis=1)
