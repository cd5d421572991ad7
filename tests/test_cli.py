import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safmap.cli import main, parse_rates
from safmap.faults import SafMask
from safmap.mapping import MappedLayout
from safmap.toymodel import DenseLayer, ToyModel


def write_weights(path, values):
    values = np.asarray(values)
    path.write_text(
        json.dumps(
            {
                "rows": values.shape[0],
                "cols": values.shape[1],
                "values": values.ravel(order="C").tolist(),
            }
        )
    )


def test_parse_rates():
    assert parse_rates("0,0.01,0.05") == [0.0, 0.01, 0.05]
    assert parse_rates("0:0.05:0.01") == [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
    assert parse_rates("0.02:0.02:0.01") == [0.02]
    with pytest.raises(ValueError):
        parse_rates("0:0.05")
    with pytest.raises(ValueError):
        parse_rates("0:0.05:0")


def test_inject_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["inject", "--rows", "8", "--cols", "8", "--bits", "4",
            "--rate", "0.1", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    ma, mb = SafMask.load(a), SafMask.load(b)
    assert np.array_equal(ma.cells, mb.cells)
    obj = json.loads(a.read_text())
    assert obj["config"]["rate"] == 0.1
    assert obj["config"]["tool"].startswith("safmap ")


def test_inject_rejects_bad_rate(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["inject", "--rows", "2", "--cols", "2", "--bits", "4",
              "--rate", "1.1", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["inject", "--rows", "0", "--cols", "2", "--bits", "4", "--rate", "0.1"], "--rows"),
        (["inject", "--rows", "2", "--cols", "0", "--bits", "4", "--rate", "0.1"], "--cols"),
        (["lut", "verify", "--lut", "n4.lut", "--samples", "0"], "--samples"),
        (["map", "--scheme", "cvm", "--weights", "w.json", "--mask", "m.json",
          "--bits", "4", "--row-len", "0"], "--row-len"),
        (["eval", "--model", "model.json", "--row-len", "-1"], "--row-len"),
        (["bench", "--bits", "2", "--row-len", "0"], "--row-len"),
        (["eval", "--model", "model.json", "--trials", "0"], "--trials"),
        (["eval", "--model", "model.json", "--trials", "-3"], "--trials"),
    ],
)
def test_count_flags_reject_zero(tmp_path, capsys, argv, flag):
    # zero rows or columns would write an empty mask, zero samples verify
    # nothing; a chunk needs a row and a sweep a trial
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", str(out)] if argv[0] in ("inject", "map", "eval") else []))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "must be >= 1" in err and "Traceback" not in err
    assert not out.exists()


def test_lut_build_and_verify(tmp_path, capsys):
    path = tmp_path / "n4.lut"
    assert main(["lut", "build", "--bits", "4", "--mode", "unsigned",
                 "--out", str(path)]) == 0
    assert path.stat().st_size == 6**4 + 7
    assert main(["lut", "verify", "--lut", str(path), "--samples", "5000"]) == 0
    # corrupt one entry -> verification should eventually fail
    raw = bytearray(path.read_bytes())
    raw[7:] = bytes((b + 1) % 16 for b in raw[7:])
    path.write_bytes(bytes(raw))
    assert main(["lut", "verify", "--lut", str(path), "--samples", "5000"]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_map_single_weight_example(tmp_path):
    weights = tmp_path / "w.json"
    write_weights(weights, [[7]])
    mask_path = tmp_path / "m.json"
    cells = np.zeros((1, 1, 4), dtype=int)
    cells[0, 0, 2] = -1  # stuck-at-0 at bit 2
    mask_path.write_text(
        json.dumps({"rows": 1, "cols": 1, "bits": 4, "data": cells.ravel().tolist()})
    )
    base = ["map", "--weights", str(weights), "--mask", str(mask_path),
            "--bits", "4", "--mode", "unsigned", "--row-len", "1"]

    cvm_out = tmp_path / "cvm.json"
    assert main(base + ["--scheme", "cvm", "--out", str(cvm_out)]) == 0
    assert MappedLayout.load(cvm_out).stored[0, 0] == 0b1000

    naive_out = tmp_path / "naive.json"
    assert main(base + ["--scheme", "naive", "--out", str(naive_out)]) == 0
    assert MappedLayout.load(naive_out).stored[0, 0] == 0b0011


def test_map_with_and_without_lut_agree(tmp_path):
    rng = np.random.default_rng(5)
    weights = tmp_path / "w.json"
    write_weights(weights, rng.integers(-8, 8, size=(16, 6)))
    mask_path = tmp_path / "m.json"
    assert main(["inject", "--rows", "16", "--cols", "6", "--bits", "4",
                 "--rate", "0.1", "--seed", "1", "--out", str(mask_path)]) == 0
    base = ["map", "--scheme", "bitflip", "--weights", str(weights),
            "--mask", str(mask_path), "--bits", "4", "--row-len", "8"]
    direct_out, lut_out = tmp_path / "d.json", tmp_path / "l.json"
    assert main(base + ["--out", str(direct_out)]) == 0
    assert main(base + ["--lut", str(tmp_path / "n4.lut"),
                        "--out", str(lut_out)]) == 0
    assert (tmp_path / "n4.lut").exists()  # built and cached on first use
    a, b = MappedLayout.load(direct_out), MappedLayout.load(lut_out)
    assert np.array_equal(a.stored, b.stored)
    assert np.array_equal(a.b_flip, b.b_flip)


def test_map_shape_mismatch_is_usage_error(tmp_path):
    weights = tmp_path / "w.json"
    write_weights(weights, [[1, 2], [3, 4]])
    mask_path = tmp_path / "m.json"
    assert main(["inject", "--rows", "3", "--cols", "2", "--bits", "4",
                 "--rate", "0", "--out", str(mask_path)]) == 0
    assert main(["map", "--scheme", "cvm", "--weights", str(weights),
                 "--mask", str(mask_path), "--bits", "4",
                 "--out", str(tmp_path / "o.json")]) == 2


def test_signflip_unsigned_is_usage_error(tmp_path):
    weights = tmp_path / "w.json"
    write_weights(weights, [[1]])
    mask_path = tmp_path / "m.json"
    assert main(["inject", "--rows", "1", "--cols", "1", "--bits", "4",
                 "--rate", "0", "--out", str(mask_path)]) == 0
    assert main(["map", "--scheme", "signflip", "--weights", str(weights),
                 "--mask", str(mask_path), "--bits", "4", "--mode", "unsigned",
                 "--out", str(tmp_path / "o.json")]) == 2


def test_mvm_end_to_end(tmp_path):
    # 2x1 layer [3, -2], activations [1, 2]: exact product is -1
    weights = tmp_path / "w.json"
    write_weights(weights, [[3], [-2]])
    mask_path = tmp_path / "m.json"
    assert main(["inject", "--rows", "2", "--cols", "1", "--bits", "4",
                 "--rate", "0", "--out", str(mask_path)]) == 0
    layout = tmp_path / "layout.json"
    assert main(["map", "--scheme", "cvm", "--weights", str(weights),
                 "--mask", str(mask_path), "--bits", "4", "--row-len", "2",
                 "--out", str(layout)]) == 0
    acts = tmp_path / "a.json"
    acts.write_text(json.dumps({"m": 4, "mode": "unsigned", "values": [1, 2]}))
    out = tmp_path / "y.json"
    assert main(["mvm", "--layout", str(layout), "--activations", str(acts),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == [-1]

    zeros = tmp_path / "z.json"
    zeros.write_text(json.dumps({"m": 4, "mode": "unsigned", "values": [0, 0]}))
    out0 = tmp_path / "y0.json"
    assert main(["mvm", "--layout", str(layout), "--activations", str(zeros),
                 "--out", str(out0)]) == 0
    assert json.loads(out0.read_text()) == [0]

    # the layout and activation files fix the configuration: no override flag
    with pytest.raises(SystemExit) as exc:
        main(["mvm", "--layout", str(layout), "--activations", str(acts),
              "--config", str(acts), "--out", str(out)])
    assert exc.value.code == 2


def test_train_and_eval_round_trip(tmp_path):
    model_path = tmp_path / "model.json"
    assert main(["train-toy", "--seed", "0", "--out", str(model_path)]) == 0
    report_path = tmp_path / "report.json"
    assert main(["eval", "--model", str(model_path), "--rates", "0,0.03",
                 "--trials", "2", "--schemes", "naive", "cvm",
                 "--out", str(report_path)]) == 0
    obj = json.loads(report_path.read_text())
    assert len(obj["results"]) == 4  # 2 rates x 2 schemes
    assert obj["config"]["tool"].startswith("safmap ")
    csv_lines = report_path.with_suffix(".csv").read_text().strip().split("\n")
    assert len(csv_lines) == 5
    assert csv_lines[0].startswith("rate,scheme,trials,mean_acc")


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_eval_rejects_jobs_below_one(tmp_path, capsys, jobs):
    # --jobs has no effect, but a value below 1 is still refused.
    report = tmp_path / "report.json"
    code = main(["eval", "--model", str(tmp_path / "model.json"), "--jobs", jobs,
                 "--out", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert not report.exists()


@pytest.mark.parametrize(
    "flags", [["--repeats", "0"], ["--repeats", "-2"], ["--dims", "0x4"], ["--dims", "4x-1"]]
)
def test_bench_rejects_empty_runs_as_usage_error(capsys, flags):
    # Zero repeats would time nothing and an empty layer would map nothing.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--bits", "2", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flags[0] in err and "Traceback" not in err


@pytest.mark.parametrize("rates", ["0.5:0.1:0.1", ",", " , "])
def test_eval_rejects_rates_naming_no_rate(tmp_path, capsys, rates):
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", str(tmp_path / "model.json"), "--rates", rates,
              "--out", str(report)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "names no fault rate" in err and "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize(
    "model_name, out, message",
    [
        ("model.json", "report.csv", "overwritten by its CSV twin"),
        ("model.json", "model.json", "would overwrite --model"),
        ("model.csv", "model.json", "would overwrite --model"),  # the CSV twin would
    ],
)
def test_eval_refuses_out_that_overwrites_an_input_or_itself(
    tmp_path, capsys, model_name, out, message
):
    model = tmp_path / model_name
    assert main(["train-toy", "--seed", "0", "--out", str(model)]) == 0
    before = model.read_bytes()
    capsys.readouterr()
    code = main(["eval", "--model", str(model), "--rates", "0", "--trials", "1",
                 "--out", str(tmp_path / out)])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1 and err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == [model_name]
    assert model.read_bytes() == before


@pytest.fixture
def map_and_mvm_inputs(tmp_path):
    """Argument lists of a valid ``map --lut`` and ``mvm`` run on 2x2 files,
    the layout already written, without ``--out``."""
    weights, mask, table = tmp_path / "w.json", tmp_path / "m.json", tmp_path / "n4.lut"
    layout, acts = tmp_path / "layout.json", tmp_path / "a.json"
    write_weights(weights, [[1, -2], [3, 0]])
    assert main(["inject", "--rows", "2", "--cols", "2", "--bits", "4",
                 "--rate", "0.2", "--out", str(mask)]) == 0
    map_argv = ["map", "--scheme", "bitflip", "--weights", str(weights),
                "--mask", str(mask), "--bits", "4", "--row-len", "2",
                "--lut", str(table)]
    assert main(map_argv + ["--out", str(layout)]) == 0
    acts.write_text(json.dumps({"m": 4, "mode": "unsigned", "values": [1, 2]}))
    mvm_argv = ["mvm", "--layout", str(layout), "--activations", str(acts)]
    return {"map": map_argv, "mvm": mvm_argv}


@pytest.mark.parametrize(
    "command, flag",
    [("map", "--weights"), ("map", "--mask"), ("map", "--lut"),
     ("mvm", "--layout"), ("mvm", "--activations")],
)
def test_map_and_mvm_refuse_out_that_overwrites_an_input(
    tmp_path, capsys, map_and_mvm_inputs, command, flag
):
    argv = map_and_mvm_inputs[command]
    target = argv[argv.index(flag) + 1]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv + ["--out", target]) == 2
    err = capsys.readouterr().err
    assert f"would overwrite {flag}" in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_map_refuses_out_that_is_a_lut_cache_not_built_yet(tmp_path, capsys,
                                                         map_and_mvm_inputs):
    argv = map_and_mvm_inputs["map"]
    table = tmp_path / "new.lut"
    argv[argv.index("--lut") + 1] = str(table)
    assert main(argv + ["--out", str(table)]) == 2
    assert "would overwrite --lut" in capsys.readouterr().err
    assert not table.exists()


@pytest.mark.parametrize("flag", ["--bits", "--act-bits"])
def test_eval_rejects_one_bit_twos_complement(tmp_path, capsys, flag):
    model = tmp_path / "model.json"
    assert main(["train-toy", "--seed", "0", "--out", str(model)]) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    code = main(["eval", "--model", str(model), "--rates", "0", "--trials", "1",
                 flag, "1", "--out", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert "1-bit twos_complement" in err and err.count("\n") == 1
    assert not report.exists()


@pytest.mark.parametrize(
    "input_dim, classes, message",
    [
        (16, 3, "model key 'classes' is 3, but the blob dataset has 4 classes"),
        (16, 6, "model key 'classes' is 6, but the blob dataset has 4 classes"),
        (8, 4, "model key 'input_dim' is 8, but the blob dataset has 16 inputs"),
    ],
)
def test_eval_refuses_model_that_does_not_fit_the_blob_task(
    tmp_path, capsys, input_dim, classes, message
):
    rng = np.random.default_rng(0)
    model = tmp_path / "model.json"
    ToyModel(
        layers=[
            DenseLayer(rng.normal(size=(input_dim, 5)), rng.normal(size=5), relu=True),
            DenseLayer(rng.normal(size=(5, classes)), rng.normal(size=classes), relu=False),
        ],
        input_dim=input_dim,
        classes=classes,
    ).save(model)
    report = tmp_path / "report.json"
    code = main(["eval", "--model", str(model), "--rates", "0", "--trials", "1",
                 "--out", str(report)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


def test_missing_file_is_runtime_error(tmp_path):
    assert main(["lut", "verify", "--lut", str(tmp_path / "nope.lut")]) == 1


def test_map_refuses_lut_cache_of_another_width(tmp_path, capsys):
    table = tmp_path / "n4.lut"
    assert main(["lut", "build", "--bits", "4", "--out", str(table)]) == 0
    before = table.read_bytes()
    weights = tmp_path / "w.json"
    write_weights(weights, [[1, -2], [3, 0]])
    mask_path = tmp_path / "m.json"
    assert main(["inject", "--rows", "2", "--cols", "2", "--bits", "3",
                 "--rate", "0.2", "--out", str(mask_path)]) == 0
    capsys.readouterr()
    code = main(["map", "--scheme", "cvm", "--weights", str(weights),
                 "--mask", str(mask_path), "--bits", "3", "--lut", str(table),
                 "--out", str(tmp_path / "o.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "4-bit twos_complement" in err and "3-bit twos_complement" in err
    assert table.read_bytes() == before
    assert not (tmp_path / "o.json").exists()


MISSING = object()


class First:
    """Replace only the first element of the key's array."""

    def __init__(self, value):
        self.value = value


def bad_file_id(kind, key, value):
    if value is MISSING:
        return f"{kind}-{key}"
    if isinstance(value, First):
        return f"{kind}-{key}[0]={json.dumps(value.value)}"
    return f"{kind}-{key}={json.dumps(value)}"


BAD_FILES = [
    ("mask", "bits", MISSING),
    ("weights", "values", MISSING),
    ("layout", "b_flip", MISSING),
    ("activations", "m", MISSING),
    ("model", "classes", MISSING),
    ("mask", "bits", "4"),
    ("mask", "bits", [4]),
    ("weights", "rows", 2.0),
    ("layout", "bits", "4"),
    ("activations", "m", True),
    ("model", "classes", "4"),
    ("mask", "data", [0.5, 0, 0, 0, 0, 0, 0, 0]),
    ("mask", "data", [300, 0, 0, 0, 0, 0, 0, 0]),
    ("mask", "data", [255, 0, 0, 0, 0, 0, 0, 0]),
    ("mask", "data", [None, 0, 0, 0, 0, 0, 0, 0]),
    ("mask", "data", [0, 0, 0, 0, 0, 0, 0]),
    ("weights", "values", [3.9, -2]),
    ("weights", "values", [3, -2, 1]),
    ("activations", "values", [1.7, 2]),
    ("activations", "values", [2**70, 2]),
    ("layout", "stored", [0, 0, 0]),
    ("layout", "col_flip", [0, 0]),
    ("layout", "b_flip", [0, 0, 0]),
    ("model", "layers", []),
    ("model", "input_dim", 3),
    ("model", "classes", 7),
    ("model layer", "bias", [0.0]),
    ("model layer", "weights", [0.0]),
    ("model layer", "weights", First({})),
    ("model layer", "weights", First(None)),
    ("model layer", "weights", First("x")),
    ("model layer", "weights", First(True)),
    ("model layer", "weights", First(float("nan"))),
    ("model layer", "bias", First(float("inf"))),
    ("model layer", "bias", First(float("-inf"))),
    ("mask", "data", [True, 0, 0, 0, 0, 0, 0, 0]),
    ("weights", "values", [True, -2]),
    ("activations", "values", [1, False]),
    ("layout", "stored", [True, 0]),
    ("layout", "b_flip", [True, 0, 0, 0]),
]


@pytest.mark.parametrize(
    "kind, key, value",
    BAD_FILES,
    ids=[bad_file_id(*case) for case in BAD_FILES],
)
def test_missing_json_key_is_runtime_error(tmp_path, capsys, kind, key, value):
    """A key missing from an input file, or holding a value of the wrong
    JSON type, is a one-line error naming the key."""
    weights = tmp_path / "w.json"
    write_weights(weights, [[3], [-2]])
    mask_path = tmp_path / "m.json"
    assert main(["inject", "--rows", "2", "--cols", "1", "--bits", "4",
                 "--rate", "0", "--out", str(mask_path)]) == 0
    layout = tmp_path / "layout.json"
    map_argv = ["map", "--scheme", "cvm", "--weights", str(weights),
                "--mask", str(mask_path), "--bits", "4", "--row-len", "2",
                "--out", str(layout)]
    assert main(map_argv) == 0
    acts = tmp_path / "a.json"
    acts.write_text(json.dumps({"m": 4, "mode": "unsigned", "values": [1, 2]}))
    model = tmp_path / "model.json"
    if kind.startswith("model"):
        assert main(["train-toy", "--out", str(model)]) == 0

    path = {"mask": mask_path, "weights": weights, "layout": layout,
            "activations": acts, "model": model, "model layer": model}[kind]
    obj = json.loads(path.read_text())
    entry = obj["layers"][0] if kind == "model layer" else obj
    if value is MISSING:
        del entry[key]
    elif isinstance(value, First):
        entry[key][0] = value.value
    else:
        entry[key] = value
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    if kind in ("mask", "weights"):
        code = main(map_argv)
    elif kind.startswith("model"):
        code = main(["eval", "--model", str(model), "--rates", "0", "--trials", "1",
                     "--schemes", "naive", "--out", str(tmp_path / "r.json")])
    else:
        code = main(["mvm", "--layout", str(layout), "--activations", str(acts),
                     "--out", str(tmp_path / "y.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(key) in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A 2x1 4-bit weights file, its fault-free mask, the cvm layout of the
    two and a 4-bit unsigned activations file, as (paths, parsed files)."""
    root = tmp_path_factory.mktemp("files")
    kinds = ("weights", "mask", "activations", "layout")
    paths = {kind: root / f"{kind}.json" for kind in kinds}
    write_weights(paths["weights"], [[3], [-2]])
    paths["activations"].write_text(
        json.dumps({"m": 4, "mode": "unsigned", "values": [1, 2]})
    )
    assert main(["inject", "--rows", "2", "--cols", "1", "--bits", "4",
                 "--rate", "0", "--out", str(paths["mask"])]) == 0
    assert main(["map", "--scheme", "cvm", "--weights", str(paths["weights"]),
                 "--mask", str(paths["mask"]), "--bits", "4", "--row-len", "2",
                 "--out", str(paths["layout"])]) == 0
    return paths, {kind: json.loads(path.read_text()) for kind, path in paths.items()}


# The array key of each file kind and the range of its elements.
ARRAY_KEYS = {"mask": ("data", -1, 1), "weights": ("values", -8, 7),
              "activations": ("values", 0, 15)}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(ARRAY_KEYS)),
    position=st.integers(0, 7),
    bad=st.sampled_from([True, 0.5, None, "1", [0], "past", 2**64]),
    high=st.booleans(),
)
def test_bad_array_element_is_one_line_naming_it(valid_files, kind, position, bad, high):
    """Any one bad element of a mask, weights or activations array is a
    one-line error naming the key and the element's index."""
    paths, files = valid_files
    key, lo, hi = ARRAY_KEYS[kind]
    obj = json.loads(json.dumps(files[kind]))
    position %= len(obj[key])
    if bad == "past":
        bad = hi + 1 if high else lo - 1
    obj[key][position] = bad
    bad_path = paths[kind].with_name(f"bad-{kind}.json")
    bad_path.write_text(json.dumps(obj))
    out = bad_path.with_name("out.json")
    if kind == "activations":
        argv = ["mvm", "--layout", str(paths["layout"]),
                "--activations", str(bad_path), "--out", str(out)]
    else:
        inputs = {"weights": paths["weights"], "mask": paths["mask"], kind: bad_path}
        argv = ["map", "--scheme", "cvm", "--weights", str(inputs["weights"]),
                "--mask", str(inputs["mask"]), "--bits", "4", "--row-len", "2",
                "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code == 1
    assert err.count("\n") == 1 and repr(key) in err
    assert re.search(rf"\belement {position}\b", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["mask", "layout"])
def test_deeply_nested_file_is_one_line_naming_its_kind(valid_files, capsys, kind):
    """json's scanner raises RecursionError on nesting this deep; the
    reader turns it into a one-line error, not a traceback."""
    paths, files = valid_files
    key, deep, what = {
        "mask": ("data", "[" * 100_000 + "]" * 100_000, "fault mask"),
        "layout": ("extra", '{"a": ' * 100_000 + "1" + "}" * 100_000, "layout"),
    }[kind]
    bad_path = paths[kind].with_name(f"deep-{kind}.json")
    bad_path.write_text(json.dumps(files[kind])[:-1] + f', "{key}": {deep}}}')
    out = bad_path.with_name("out.json")
    if kind == "mask":
        argv = ["map", "--scheme", "cvm", "--weights", str(paths["weights"]),
                "--mask", str(bad_path), "--bits", "4", "--row-len", "2",
                "--out", str(out)]
    else:
        argv = ["mvm", "--layout", str(bad_path),
                "--activations", str(paths["activations"]), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {what} file nests arrays or objects too deeply\n"
    assert not out.exists()
