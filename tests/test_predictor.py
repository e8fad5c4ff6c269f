"""Network plumbing: init, gradients vs finite differences, persistence, training."""
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from star154.cli import main
from star154.predictor import (
    DEFAULT_HIDDEN,
    DESK_HIDDEN,
    DivergenceDetected,
    EvalReport,
    INPUTS,
    MLPArchitecture,
    MLPModel,
    TASKS,
    TrainConfig,
    denormalize_target,
    evaluate,
    forward,
    gradient_check,
    init_model,
    load_model,
    normalize_inputs,
    normalize_target,
    save_model,
    train,
)

SMALL = MLPArchitecture(hidden=(5, 4, 3))


def _toy_data(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.uniform(0.0, 1.0, size=(n, 4))
    y = 2.0 * X[:, 0] - X[:, 1] + 0.5 * X[:, 2] * X[:, 3] + 3.0
    return X, y


def test_task_table():
    assert TASKS["n"] == (("r", "L", "PS", "TVS"), "N")
    assert TASKS["ps"] == (("r", "L", "N", "TVS"), "PS")
    assert TASKS["tvs"] == (("r", "L", "PS", "N"), "TVS")
    assert {len(features) for features, _ in TASKS.values()} == {INPUTS}
    assert DEFAULT_HIDDEN["n"] == (100, 80, 50)
    assert DEFAULT_HIDDEN["ps"] == DEFAULT_HIDDEN["tvs"] == (80, 50, 30)
    assert DESK_HIDDEN == (32, 24, 16)


def test_init_shapes_and_bounds():
    arch = MLPArchitecture(hidden=(100, 80, 50))
    m = init_model(arch, seed=0)
    assert [w.shape for w in m.weights] == [(4, 100), (100, 80), (80, 50), (50, 1)]
    assert [b.shape for b in m.biases] == [(100,), (80,), (50,), (1,)]
    assert sum(w.size for w in m.weights) == 12450
    assert sum(b.size for b in m.biases) == 231
    assert all(not b.any() for b in m.biases)
    for w, fan_in in zip(m.weights, (4, 100, 80, 50)):
        assert np.abs(w).max() <= 1.0 / math.sqrt(fan_in)


def test_architecture_takes_three_hidden_sizes_and_nothing_else():
    for hidden in ((5,), (5, 4), (5, 4, 3, 2), (5, 0, 3), (-1, 4, 3)):
        message = f"need 3 hidden layer sizes, each >= 1, got {hidden}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MLPArchitecture(hidden=hidden)
    with pytest.raises(TypeError):
        MLPArchitecture()  # no default sizes: DEFAULT_HIDDEN and DESK_HIDDEN name them
    assert MLPArchitecture(hidden=(5, 4, 3)).layer_sizes == (INPUTS, 5, 4, 3, 1)


def test_weights_and_biases_are_views_of_params(tmp_path):
    path = tmp_path / "m.txt"
    save_model(init_model(SMALL, seed=3), str(path))
    for m in (init_model(SMALL, seed=3), load_model(str(path))):
        assert m.params.shape == (SMALL.n_params,) == (68,)  # 55 weights, 13 biases
        assert all(np.shares_memory(m.params, v) for v in (*m.weights, *m.biases))
        m.params[:] = 7.0
        assert all((v == 7.0).all() for v in (*m.weights, *m.biases))


def test_init_is_deterministic():
    a = init_model(SMALL, seed=9)
    b = init_model(SMALL, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    c = init_model(SMALL, seed=10)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_zero_weight_model_outputs_denormalized_bias():
    m = init_model(SMALL, seed=0)
    for w in m.weights:
        w[:] = 0.0
    # all-sigmoid hidden collapses to 0.5, linear head gives its zero bias,
    # and denormalizing 0.0 from the [0.1, 0.9] band gives -0.125
    assert forward(m, [0.3, 0.7, 0.1, 0.9]) == pytest.approx(-0.125, abs=1e-15)


def test_normalization_round_trip():
    m = init_model(SMALL, seed=1)
    m.in_min = np.array([0.0, 30.0, 0.5, 300.0])
    m.in_max = np.array([0.13, 127.0, 1.0, 900.0])
    m.out_min, m.out_max = 2.0, 20.0
    X = np.array([[0.0, 30.0, 0.5, 300.0], [0.13, 127.0, 1.0, 900.0]])
    Xn = normalize_inputs(m, X)
    assert np.allclose(Xn[0], 0.1) and np.allclose(Xn[1], 0.9)
    y = np.array([2.0, 7.5, 20.0])
    back = denormalize_target(m, normalize_target(m, y))
    assert np.allclose(back, y, atol=1e-12)


def test_forward_rejects_wrong_arity():
    m = init_model(SMALL, seed=0)
    with pytest.raises(ValueError):
        forward(m, [1.0, 2.0, 3.0])


def test_gradient_check_fresh_models():
    for seed in (0, 1, 2):
        m = init_model(SMALL, seed=seed)
        err = gradient_check(m, [0.3, 0.6, 0.2, 0.8], y_target=0.4)
        assert err < 1e-5


def test_gradient_check_zero_weight_model():
    m = init_model(SMALL, seed=0)
    for w in m.weights:
        w[:] = 0.0
    assert gradient_check(m, [0.5, 0.5, 0.5, 0.5], y_target=0.2) < 1e-5


def test_gradient_check_after_training_steps():
    X, y = _toy_data(64, seed=5)
    m = init_model(SMALL, seed=5)
    train(m, X, y, TrainConfig(epochs=20, seed=5, validation_fraction=0.0))
    assert gradient_check(m, [0.4, 0.1, 0.9, 0.5], y_target=0.7) < 1e-4


def test_training_is_deterministic():
    X, y = _toy_data(120, seed=7)
    cfg = TrainConfig(epochs=30, seed=7)
    m1, rep1 = train(init_model(SMALL, seed=7), X, y, cfg)
    m2, rep2 = train(init_model(SMALL, seed=7), X, y, cfg)
    assert rep1 == rep2
    assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
    assert all(np.array_equal(a, b) for a, b in zip(m1.biases, m2.biases))


# sha256 of save_model's bytes after a 3-epoch desk-scale run, and of the
# little-endian float64 bytes of the parameters, in_min, in_max and
# (out_min, out_max) that file loads back as; a refactor of the trainer that
# keeps its arithmetic keeps both digests, a change of file format only the
# first (a BLAS build that rounds matrix products differently keeps neither)
TRAINED_MODEL_SHA256 = "b62deccd2599d733454d448f3569c631adf394fcc86d7c6538ea2bc2e21db72d"
TRAINED_ARRAYS_SHA256 = "0499f2e34b569ff20598c3fb5fdd1ff03b9d82b35f18a59573570cd844b99313"


def _trained_model():
    """The 3-epoch desk-scale model the pins above and below describe."""
    X, y = _toy_data(200, seed=31)
    m, _ = train(init_model(MLPArchitecture(hidden=DESK_HIDDEN), seed=31), X, y,
                 TrainConfig(epochs=3, batch_size=8, learning_rate=0.2, seed=31))
    return m


def test_trained_model_file_is_pinned(tmp_path):
    m = _trained_model()
    path = tmp_path / "m.txt"
    save_model(m, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRAINED_MODEL_SHA256
    back = load_model(str(path))
    arrays = (back.params, back.in_min, back.in_max, np.array([back.out_min, back.out_max]))
    digest = hashlib.sha256(b"".join(a.astype("<f8").tobytes() for a in arrays))
    assert digest.hexdigest() == TRAINED_ARRAYS_SHA256


# sha256 of the newline-joined reprs of forward() on that model at 64 seeded
# inputs: 32 inside its training range (about [0, 1] on every input) and 32
# drawn from [-3, 4], each outside it on some input; a refactor of the
# forward pass that keeps its arithmetic keeps the digest (a BLAS build that
# rounds matrix products differently does not)
FORWARD_REPRS_SHA256 = "a2baefc27c0c620c3cd03558b56bc57db4432d8e56b41563610350c92ea51475"


def test_forward_outputs_are_pinned(tmp_path, capsys):
    m = _trained_model()
    rng = np.random.Generator(np.random.PCG64(2701))
    inputs = np.vstack([rng.uniform(0.05, 0.95, size=(32, 4)),
                        rng.uniform(-3.0, 4.0, size=(32, 4))])
    reprs = [repr(forward(m, x)) for x in inputs.tolist()]
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == FORWARD_REPRS_SHA256
    # the command line prints the same repr, after a save and a load
    path = tmp_path / "m.txt"
    save_model(m, str(path))
    x = inputs[40].tolist()
    assert main(["predict", "--model", str(path), "--input=" + ",".join(map(repr, x))]) == 0
    assert capsys.readouterr().out == reprs[40] + "\n"


def test_full_batch_loss_decreases():
    X, y = _toy_data(40, seed=3)
    losses = []
    cfg = TrainConfig(
        epochs=200, batch_size=64, learning_rate=0.05, seed=3,
        validation_fraction=0.0,
    )
    train(init_model(SMALL, seed=3), X, y, cfg, on_epoch=lambda e, mse: losses.append(mse))
    assert len(losses) == 200
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0] / 2


def test_overfit_small_dataset_early_stop():
    # single-sample batches take enough steps per epoch to interpolate fast;
    # the full capacity check to 1e-6 lives in the acceptance suite
    X, y = _toy_data(10, seed=0)
    cfg = TrainConfig(
        epochs=1500, batch_size=1, learning_rate=0.6, seed=0,
        validation_fraction=0.0, target_mse=1e-3,
    )
    losses = []
    m, _ = train(
        init_model(MLPArchitecture(hidden=(8, 6, 4)), seed=0),
        X, y, cfg, on_epoch=lambda e, mse: losses.append(mse),
    )
    assert losses[-1] <= 1e-3
    assert len(losses) < 1500  # early stop actually triggered


def test_divergence_is_reported():
    X, y = _toy_data(64, seed=13)
    cfg = TrainConfig(epochs=200, learning_rate=1e6, seed=13, validation_fraction=0.0)
    with pytest.raises(DivergenceDetected):
        train(init_model(SMALL, seed=13), X, y, cfg)


@pytest.mark.parametrize("bad", [
    {"batch_size": 0}, {"batch_size": -3}, {"epochs": 0}, {"learning_rate": 0.0},
    {"learning_rate": math.nan}, {"validation_fraction": 1.0},
    {"learning_rate": math.inf}, {"seed": -1},
])
def test_train_config_rejects_settings_that_cannot_train(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


def test_train_input_validation():
    X, y = _toy_data(8, seed=1)
    with pytest.raises(ValueError):
        train(init_model(SMALL, seed=1), X, y, TrainConfig())
    X, y = _toy_data(32, seed=1)
    y[3] = math.nan
    with pytest.raises(ValueError):
        train(init_model(SMALL, seed=1), X, y, TrainConfig())
    # a validation split that leaves fewer than two rows to scale on
    X, y = _toy_data(32, seed=1)
    for fraction, n_train in ((0.99, 0), (0.96, 1)):
        with pytest.raises(ValueError, match=f"^{n_train} training and {32 - n_train} validation"):
            train(init_model(SMALL, seed=1), X, y, TrainConfig(validation_fraction=fraction))
    # one validation row cannot be correlated; it is refused before any training
    with pytest.raises(ValueError, match="^1 validation row: need 0 or at least 2 to correlate"):
        train(init_model(SMALL, seed=1), X, y, TrainConfig(validation_fraction=0.02),
              on_epoch=lambda epoch, mse: pytest.fail("trained on a split it then refuses"))
    # data of another shape is refused with both shapes, before the split and the scaling
    for bad_X, bad_y in ((X[:, :3], y), (X[:, 0], y), (X, y[:-1]), (X[:, :, None], y)):
        message = f"X has shape {bad_X.shape} and y {bad_y.shape}; need (n, 4) and (n,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            train(init_model(SMALL, seed=1), bad_X, bad_y, TrainConfig())


def test_evaluate_perfect_predictions():
    m = init_model(SMALL, seed=2)
    m.out_min, m.out_max = 0.0, 10.0
    X = np.random.Generator(np.random.PCG64(2)).uniform(0, 1, size=(50, 4))
    y = np.array([forward(m, row) for row in X])
    rep = evaluate(m, X, y)
    assert rep.n == 50
    assert rep.R == pytest.approx(1.0, abs=1e-12)
    assert rep.MSE == pytest.approx(0.0, abs=1e-24)


def test_evaluate_rejects_degenerate_sets():
    m = init_model(SMALL, seed=2)
    with pytest.raises(ValueError):
        evaluate(m, np.empty((0, 4)), np.empty(0))
    X = np.ones((5, 4))
    with pytest.raises(ValueError):
        evaluate(m, X, np.ones(5))


def test_save_load_round_trip(tmp_path):
    m = init_model(SMALL, seed=21)
    m.in_min = np.array([0.001, 30.0, 0.2, 250.0])
    m.in_max = np.array([0.13, 127.0, 1.0, 1500.0])
    m.out_min, m.out_max = 2.0, 20.0
    path = tmp_path / "m.txt"
    save_model(m, str(path))
    back = load_model(str(path))
    assert back.arch == m.arch
    assert all(np.array_equal(a, b) for a, b in zip(back.weights, m.weights))
    assert all(np.array_equal(a, b) for a, b in zip(back.biases, m.biases))
    assert np.array_equal(back.in_min, m.in_min)
    assert back.out_min == m.out_min and back.out_max == m.out_max
    x = [0.05, 100.0, 0.9, 700.0]
    assert forward(back, x) == forward(m, x)
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "m2.txt"
    save_model(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("png-v9 4 5 4 3 1\n")
    with pytest.raises(ValueError):
        load_model(str(bad))
    m = init_model(SMALL, seed=0)
    good = tmp_path / "good.txt"
    save_model(m, str(good))
    truncated = tmp_path / "trunc.txt"
    truncated.write_text("".join(good.read_text().splitlines(keepends=True)[:-2]))
    with pytest.raises(ValueError):
        load_model(str(truncated))
    padded = tmp_path / "padded.txt"
    padded.write_text(good.read_text() + "0.5\n")
    with pytest.raises(ValueError):
        load_model(str(padded))


def _edit_line(text: str, index: int, line: str) -> str:
    lines = text.splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


def _edit_params(text: str, start: int, digits: str) -> str:
    """The model file with the parameter line's digits from start on replaced."""
    lines = text.splitlines()
    lines[-1] = lines[-1][:start] + digits + lines[-1][start + len(digits):]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit, problem", [
    (lambda t: "", "empty model file"),
    (lambda t: "\n  \n", "empty model file"),
    (lambda t: _edit_line(t, 0, "mlp-v2 4 5 4 3"), "expected 5 layer sizes"),
    (lambda t: _edit_line(t, 0, "mlp-v2 4 5 x 3 1"), "invalid literal"),
    (lambda t: _edit_line(t, 0, "mlp-v2 4 5 0 3 1"),
     "need 3 hidden layer sizes, each >= 1, got (5, 0, 3)"),
    # refused at the header, before the ranges and parameters are read
    (lambda t: _edit_line(t, 0, "mlp-v2 4 5 4 3 2"),
     ":1: expected 4 inputs and 1 output, got 4 and 2"),
    (lambda t: _edit_line(t, 0, "mlp-v1 4 5 4 3 1"),
     "model format mlp-v1 is no longer read; retrain with star154 train"),
    (lambda t: _edit_line(t, 2, "0.5"), "range of two reals"),
    (lambda t: _edit_line(t, 2, "0.5 0.7 0.9"), "range of two reals"),
    (lambda t: _edit_line(t, 3, "0.5 zero"), "range of two reals"),
    (lambda t: _edit_line(t, 2, "nan 120.0"), "finite range with low < high, got 'nan 120.0'"),
    (lambda t: _edit_line(t, 3, "60.0 60.0"), "finite range with low < high, got '60.0 60.0'"),
    (lambda t: _edit_line(t, 4, "inf 0.1"), "finite range with low < high, got 'inf 0.1'"),
    (lambda t: _edit_line(t, 5, "2.0 -inf"), "finite range with low < high, got '2.0 -inf'"),
    (lambda t: t.rstrip("\n")[:-2] + "\n", "expected 1088 hex digits, got 1086"),
    (lambda t: _edit_params(t, 40, "0.5"), "non-hexadecimal number found in fromhex"),
    (lambda t: _edit_params(t, 40, "  "), "expected 544 bytes, got 543"),
    (lambda t: _edit_params(t, 16, "000000000000f87f"), "parameter 2 is nan, not a finite real"),
    (lambda t: _edit_params(t, 1072, "000000000000f0ff"),
     "parameter 68 is -inf, not a finite real"),
    (lambda t: t + "\n0.5\n", "trailing data"),
], ids=["empty", "blank", "four-sizes", "non-integer-size", "zero-size", "wrong-size",
        "v1-header", "one-real-range", "three-real-range", "non-numeric-range",
        "nan-range", "empty-range", "inverted-range", "infinite-output-range",
        "short-parameter-line", "non-hex-parameter", "spaced-parameter-byte",
        "nan-parameter", "infinite-parameter", "trailing"])
def test_load_names_the_file_and_the_problem(tmp_path, edit, problem):
    good = tmp_path / "good.txt"
    save_model(init_model(SMALL, seed=0), str(good))
    bad = tmp_path / "bad.txt"
    bad.write_text(edit(good.read_text()))
    with pytest.raises(ValueError, match=re.escape(problem)) as exc:
        load_model(str(bad))
    assert str(exc.value).startswith(str(bad))


def test_load_ignores_blank_lines_and_reports_file_line_numbers(tmp_path):
    m = init_model(SMALL, seed=4)
    good = tmp_path / "good.txt"
    save_model(m, str(good))
    text = good.read_text()

    def spaced(text):  # a blank line before every line: line i of text is line 2i + 2
        path = tmp_path / "spaced.txt"
        path.write_text("\n" + "\n \t\n".join(text.splitlines()) + "\n\n")
        return str(path)

    back = load_model(spaced(text))
    assert all(np.array_equal(a, b) for a, b in zip(back.weights, m.weights))
    for line, bad_text, problem in (
        (2, _edit_line(text, 0, "mlp-v1 4 5 4 3 1"), "model format mlp-v1 is no longer read"),
        (14, _edit_params(text, 7, "x"), "non-hexadecimal number found in fromhex() arg at position 7"),
        (14, _edit_params(text, 16, "  "), "parameters: expected 544 bytes, got 543"),
        (14, text.rstrip("\n") + "00\n", "parameters: expected 1088 hex digits, got 1090"),
    ):
        path = spaced(bad_text)
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}:{line}: ") and problem in str(exc.value)


def test_load_counts_the_parameters_once(tmp_path, monkeypatch):
    path = tmp_path / "m.txt"
    save_model(init_model(SMALL, seed=0), str(path))
    count = MLPArchitecture.n_params
    calls = []

    def counting(arch):
        calls.append(arch)
        return count.fget(arch)

    monkeypatch.setattr(MLPArchitecture, "n_params", property(counting))
    load_model(str(path))
    assert len(calls) == 1
    # the layer views check the shape without counting, and name the count only in the error
    for shape in ((67,), (69,), (68, 1), ()):
        message = f"expected 68 parameters, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MLPModel(arch=SMALL, params=np.zeros(shape), in_min=np.zeros(4), in_max=np.ones(4),
                     out_min=0.0, out_max=1.0)


def test_load_rejects_binary_files(tmp_path):
    binary = tmp_path / "model.bin"
    binary.write_bytes(b"\xff\xfe\x00\x01")
    with pytest.raises(ValueError, match="not a text file"):
        load_model(str(binary))


_sizes = st.integers(min_value=1, max_value=12)
# every finite double: subnormals, signed zeros and the extreme exponents
_reals = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _models(draw):
    arch = MLPArchitecture(hidden=(draw(_sizes), draw(_sizes), draw(_sizes)))
    model = init_model(arch, seed=0)

    def fill(size):
        return np.array(draw(st.lists(_reals, min_size=size, max_size=size)), dtype=float)

    def span():  # two distinct reals, low first: load_model refuses an empty range
        return sorted(draw(st.lists(_reals, min_size=2, max_size=2, unique=True)))

    model.params[:] = fill(arch.n_params)
    model.in_min, model.in_max = np.array([span() for _ in range(INPUTS)]).T
    model.out_min, model.out_max = span()
    return model


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=_models(), data=st.data())
def test_model_file_round_trip_and_truncation_property(tmp_path, model, data):
    path = tmp_path / "m.txt"
    save_model(model, str(path))
    back = load_model(str(path))
    assert back.arch == model.arch
    assert _bits([back.params]) == _bits([model.params])
    assert _bits(back.weights) == _bits(model.weights)
    assert _bits(back.biases) == _bits(model.biases)
    assert _bits([back.in_min, back.in_max]) == _bits([model.in_min, model.in_max])
    assert _bits(np.array([back.out_min, back.out_max])) == _bits(
        np.array([model.out_min, model.out_max]))
    again = tmp_path / "again.txt"
    save_model(back, str(again))
    assert again.read_bytes() == path.read_bytes()
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    cut = tmp_path / "cut.txt"
    for keep in range(len(lines)):
        cut.write_text("".join(lines[:keep]))
        with pytest.raises(ValueError):
            load_model(str(cut))
    # cuts inside the parameter line, each dropping at least its last digit
    params_at = len(text) - len(lines[-1])
    for offset in data.draw(st.lists(st.integers(0, len(lines[-1]) - 2), max_size=8)):
        cut.write_text(text[: params_at + offset])
        with pytest.raises(ValueError):
            load_model(str(cut))


def test_eval_report_fields():
    rep = EvalReport(R=0.99, MSE=1e-4, n=1000)
    assert rep.R == 0.99 and rep.MSE == 1e-4 and rep.n == 1000
