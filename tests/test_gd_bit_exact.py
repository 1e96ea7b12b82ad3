"""The fused supervised GD loops return exactly what the straightforward loops
in ``gd_reference`` return at constant steps: weights, final loss, final
gradient norm, steps taken, and the epoch at which a divergent run stops. The
references are the class-major loops, the contract the library runs; the
margin-space loop (n < d) is held to ``gd_reference.class_major_margin_gd``,
which forms the gradient norm every epoch where the library's convergence gate
skips it. The frozen loops of the earlier contract stay within a derived
rounding bound of the class-major ones, and stop and diverge at the same
epochs."""
import math
import types
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gd_reference
from mmclab import RngStream, TrainingError, sl_fit_gd
from mmclab import numerics, training
from mmclab.training import _descend

RNG = RngStream(17, 0)


def _assert_identical(got, want):
    assert not isinstance(got, TrainingError), got
    w, loss, grad_norm, epochs_run = got
    w_ref, loss_ref, grad_norm_ref, epochs_run_ref = want
    assert np.array_equal(w, w_ref)
    assert np.array_equal(loss, loss_ref)
    assert np.array_equal(grad_norm, grad_norm_ref)
    assert epochs_run == epochs_run_ref


def _problem(seed, n, d, q):
    """Gaussian inputs around per-class centers; q = 1 means +-1 labels."""
    g = np.random.default_rng(seed)
    classes = max(q, 2)
    labels = np.arange(n) % classes
    g.shuffle(labels)
    x = 0.7 * g.standard_normal((classes, d))[labels] + g.standard_normal((n, d))
    if q == 1:
        labels = np.where(labels == 1, 1, -1)
    return x, labels


def _reference_descend(x, target, q, lr, epochs, w0, margin_space=False):
    """The reference loops at constant steps, behind ``_descend``'s signature and
    return value. ``margin_space`` is ignored, so an n < d fit runs the loop on
    the raw inputs."""
    if q == 1:
        return gd_reference.class_major_logistic_gd(x, target, lr, epochs, w0)
    return gd_reference.class_major_cross_entropy_gd(x, target, q, lr, epochs, w0)


def _margin_reference(x, target, q, lr, epochs, w0, margin_space=True):
    return gd_reference.class_major_margin_gd(x, target, q, lr, epochs, w0)


def _frozen_descend(x, target, q, lr, epochs, w0, margin_space=False):
    """The frozen loops of the earlier contract, behind ``_descend``'s signature."""
    if margin_space:
        return gd_reference.margin_gd(x, target, q, lr, epochs, w0)
    if q == 1:
        return gd_reference.logistic_gd(x, target, lr, epochs, w0)[:4]
    return gd_reference.cross_entropy_gd(x, target, q, lr, epochs, w0)[:4]


def _both(x, labels, q, lr, epochs, w0, margin_space=False, reference=_reference_descend):
    """Run the fused loop and the reference; each gives a result or its error."""
    target = labels.astype(float) if q == 1 else labels
    outcomes = []
    for run in (_descend, reference):
        try:
            outcomes.append(run(x, target, q, lr, epochs, w0, margin_space=margin_space))
        except TrainingError as err:
            outcomes.append(err)
    return outcomes


def _rate(x, q, lr):
    """The convergence gate's r = c lr trace(x x^T) / n."""
    return (0.25 if q == 1 else 0.5) * lr * np.sum(x * x) / len(x)


@contextmanager
def _counted_square_roots():
    """Count the square roots ``_descend`` takes: each formed gradient norm
    takes one or two, and the set-up two."""
    calls = []
    spy = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math) if not k.startswith("_")})
    spy.sqrt = lambda value: calls.append(value) or math.sqrt(value)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "math", spy)
        yield calls


def _assert_same_outcome(got, want):
    if isinstance(want, TrainingError):
        assert isinstance(got, TrainingError) and str(got) == str(want)
    else:
        _assert_identical(got, want)


def _assert_the_frozen_loop_stops_alike(x, labels, q, lr, epochs, w0, want, margin_space=False):
    """The frozen loop stops or diverges at the epoch where the class-major one does."""
    target = labels.astype(float) if q == 1 else labels
    try:
        frozen = _frozen_descend(x, target, q, lr, epochs, w0, margin_space=margin_space)
    except TrainingError as err:
        assert isinstance(want, TrainingError) and str(err) == str(want)
    else:
        assert not isinstance(want, TrainingError) and frozen[3] == want[3]


def _init(seed, d, q):
    g = np.random.default_rng(seed)
    return 1e-3 * (g.standard_normal(d) if q == 1 else g.standard_normal((d, q)))


GRID = [
    (5000, 2, 1, 0.05, 300),      # logistic, n >> d (the supcon-dm1 probe shape)
    (16, 4, 4, 0.05, 3000),       # cross-entropy at the supcon-dm2 probe shape
    (96, 6, 6, 0.05, 2000),       # cross-entropy at the dm2-sl shape
    (40, 3, 8, 0.05, 1000),       # q = 8: the first width an n x q row sum takes pairwise
    (300, 5, 11, 0.05, 500),      # q >= 9: pairwise row sums in the frozen layout
    (60, 3, 9, 0.05, 500),        # q = 9: one block of 8, then one entry
    (64, 4, 16, 0.05, 300),       # q = 16: two blocks of 8
    (150, 3, 130, 0.05, 60),      # q = 130: a row passes the 128-entry pairwise block
    (40, 1, 4, 0.05, 1000),       # d = 1: the products take a gemv
]


@pytest.mark.parametrize("n,d,q,lr,epochs", GRID)
def test_loops_match_reference(n, d, q, lr, epochs):
    x, labels = _problem(n + q, n, d, q)
    got, want = _both(x, labels, q, lr, epochs, _init(q, d, q))
    assert not isinstance(want, TrainingError)
    _assert_identical(got, want)


def _rounding_gap_bound(x, q, lr, epochs, w0):
    """How far apart two loops that run the same GD, and differ only in how they
    round, can end after ``epochs`` steps from w0.

    Each loop steps W to T(W) + e, with T the exact step W - lr grad F(W). F is
    convex and its gradient is L-Lipschitz, L = c ||x||_2^2 / n (c = 1/4 for the
    sigmoid, 1/2 for the softmax), so while lr L <= 2, T is non-expansive and
    the loops end at most the sum of both loops' |e| apart. With u the unit
    roundoff, gamma_m = m u / (1 - m u), b = 1 (logistic) or 2, ||V||_F <=
    sqrt(n b) and ||W|| <= M = ||W_0|| + epochs lr/n ||x||_F sqrt(n b), up to
    rounding, one step's |e| is at most the sum of
      u M                                  the add;
      3 u lr/n ||x||_F sqrt(n b)           the step factor's roundings: lr / n
                                           and its product with each entry of
                                           x (cross-entropy's h x) or V (the
                                           logistic v), or the frozen loops'
                                           divide by n and product with lr; two
                                           roundings, and one to spare;
      lr/n gamma_n ||x||_F sqrt(n b)       the product V x, in any order;
      lr/n ||x||_2 c gamma_d ||x||_F M     the scores' rounding, through V,
                                           whatever the layout of x^T;
      lr/n ||x||_2 sqrt(n) kappa u         V's own rounding, per row at most
                                           kappa u in the 1-norm.
    kappa = 16 covers the sigmoid: 1 / (1 + e^m) is exp to 4 ulp, an add and a
    divide, at most 10 u, as is the frozen loops' masked form. 32 + 4q covers
    the softmax: exp to 4 ulp, the row sum in any order (a product by ones is
    one), the divide, the one-hot subtract, and a shift, whose rounding moves
    an entry e^-t by u t e^-t <= u/e against a row sum of at least 1."""
    n, d = x.shape
    u = np.finfo(float).eps / 2
    gamma_n, gamma_d = (m * u / (1 - m * u) for m in (n, d))
    c, b, kappa = (0.25, 1.0, 16) if q == 1 else (0.5, 2.0, 32 + 4 * q)
    x_f, x_2, h = np.linalg.norm(x), np.linalg.norm(x, 2), lr / n
    assert lr * c * x_2 ** 2 / n <= 2, "T is not known to be non-expansive"
    v_f = math.sqrt(n * b)
    size = (np.linalg.norm(w0) + epochs * h * x_f * v_f) * (1 + 1e-6)
    step = u * size + h * ((3 * u + gamma_n) * x_f * v_f
                           + x_2 * (c * gamma_d * x_f * size + math.sqrt(n) * kappa * u))
    return 2 * epochs * step


@pytest.mark.parametrize("n,d,q,lr,epochs", GRID)
def test_the_frozen_loops_stay_within_rounding_of_the_class_major_loops(n, d, q, lr, epochs):
    # the two contracts run the same GD and round differently: the frozen
    # loops shift every softmax, sum in the n x q layout and divide by n before
    # the step, where the class-major ones fold the step into x or the logistic
    # residual. Each gap measured about 1e-16 relative; the bounds are 2e-12 to 2e-10
    x, labels = _problem(n + q, n, d, q)
    w0 = _init(q, d, q)
    target = labels.astype(float) if q == 1 else labels
    w, _, _, epochs_run = _reference_descend(x, target, q, lr, epochs, w0)
    w_frozen, _, _, epochs_frozen = _frozen_descend(x, target, q, lr, epochs, w0)
    assert epochs_run == epochs_frozen == epochs
    assert np.linalg.norm(w - w_frozen) <= _rounding_gap_bound(x, q, lr, epochs, w0)
    if q == 1:
        assert np.array_equal(x @ w > 0, x @ w_frozen > 0)
    else:
        assert np.array_equal(np.argmax(x @ w, axis=1), np.argmax(x @ w_frozen, axis=1))


@pytest.mark.parametrize("n,d,q,lr,epochs,gated", [
    (60, 200, 1, 0.005, 2000, True),    # logistic at r < 1: the gate skips most norms
    (30, 80, 3, 0.01, 1000, True),      # cross-entropy at r < 1
    (20, 50, 9, 0.02, 500, True),       # q = 9: pairwise row sums in the frozen layout
    (24, 40, 6, 0.5, 1000, False),      # r >= 1, as at dm2-sl: every norm is formed
])
def test_margin_loops_match_the_margin_reference(n, d, q, lr, epochs, gated):
    x, labels = _problem(n + d, n, d, q)
    assert (_rate(x, q, lr) < 1) == gated
    with _counted_square_roots() as roots:
        got, want = _both(x, labels, q, lr, epochs, _init(q, d, q), margin_space=True,
                          reference=_margin_reference)
    assert not isinstance(want, TrainingError) and want[3] == epochs
    _assert_identical(got, want)
    assert len(roots) < epochs / 2 if gated else len(roots) > epochs


@pytest.mark.parametrize("q", [1, 3])
def test_margin_fits_without_dsymv_keep_the_bytes_of_a_full_product(monkeypatch, q):
    # where numpy's BLAS exports no dsymv (MKL, Accelerate), K v is np.dot's, and a
    # fit's bytes are those of the reference loop forming K v as gram @ v
    found = numerics._openblas
    monkeypatch.setattr(numerics, "_openblas",
                        lambda *names: None if names == ("cblas_dsymv",) else found(*names))
    monkeypatch.setattr(gd_reference, "gram_product",
                        lambda gram, v, out: lambda: np.copyto(out, gram @ v))
    x, labels = _problem(60 + q, 60, 200, q)
    got, want = _both(x, labels, q, 0.005, 2000, _init(q, 200, q), margin_space=True,
                      reference=_margin_reference)
    assert not isinstance(want, TrainingError) and want[3] == 2000
    _assert_identical(got, want)


@pytest.mark.parametrize("margin_space", [False, True])
@pytest.mark.parametrize("q,rows,lr", [(1, 1, 0.6), (1, 10, 0.5), (2, 1, 0.3), (3, 10, 0.3)])
def test_converging_fits_skip_norms_and_stop_where_the_reference_stops(q, rows, lr, margin_space):
    # rows repeated under every label: GD heads to equal scores within each
    # row, and the norm falls geometrically to GRAD_TOL. With one distinct row
    # K has rank one, and near equal scores the loss's curvature reaches its
    # bound c, so the norm decays at nearly the worst-case factor 1 - r that
    # the gate assumes, and any overstated bound skips the stopping epoch.
    # Unit rows give r = c lr; zero columns put n < d
    g = np.random.default_rng(rows + q)
    base = g.standard_normal((rows, 3))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    labels = np.repeat(np.arange(max(q, 2)), rows)
    if q == 1:
        labels = 2 * labels - 1
    x = np.tile(base, (max(q, 2), 1))
    if margin_space:
        x = np.hstack([x, np.zeros((len(x), len(x)))])
    w0 = g.standard_normal(x.shape[1] if q == 1 else (x.shape[1], q))
    assert _rate(x, q, lr) < 1
    reference = _margin_reference if margin_space else _reference_descend
    with _counted_square_roots() as roots:
        got, want = _both(x, labels, q, lr, 20000, w0, margin_space=margin_space,
                          reference=reference)
    assert not isinstance(want, TrainingError) and 0 < want[3] < 20000
    assert want[2] < training.GRAD_TOL
    _assert_identical(got, want)
    _assert_the_frozen_loop_stops_alike(x, labels, q, lr, 20000, w0, want, margin_space)
    # a formed norm takes one or two roots, so some epochs formed none
    assert len(roots) < want[3]


def test_stop_on_gradient_tolerance_matches_reference():
    x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    y = np.array([1, -1, -1, 1])
    got, want = _both(x, y, 1, 0.5, 20000, np.array([1e-3]))
    assert 0 < want[3] < 20000
    _assert_identical(got, want)
    _assert_the_frozen_loop_stops_alike(x, y, 1, 0.5, 20000, np.array([1e-3]), want)


def test_cross_entropy_stop_on_gradient_tolerance_matches_reference():
    # each of 10 rows appears under every label, so GD heads to equal scores
    # within each row and stops on GRAD_TOL; the loop skips the loss of the
    # stopping epoch and takes it from that epoch's probabilities afterwards
    g = np.random.default_rng(8)
    x = np.tile(g.standard_normal((10, 3)), (3, 1))
    labels = np.repeat(np.arange(3), 10)
    got, want = _both(x, labels, 3, 0.5, 20000, _init(8, 3, 3))
    assert 0 < want[3] < 20000
    _assert_identical(got, want)
    _assert_the_frozen_loop_stops_alike(x, labels, 3, 0.5, 20000, _init(8, 3, 3), want)


@pytest.mark.parametrize("q", [1, 4])
def test_zero_epochs_returns_init(q):
    x, labels = _problem(5, 20, 3, q)
    w0 = _init(5, 3, q)
    got, want = _both(x, labels, q, 0.05, 0, w0)
    _assert_identical(got, want)
    w, loss, grad_norm, epochs_run = got
    assert np.array_equal(w, w0) and w is not w0
    assert loss == grad_norm == math.inf
    assert epochs_run == 0


@pytest.mark.parametrize("q,lr,scale", [(1, 1e6, 1.0), (1, 1e300, 1.0), (4, 1e300, 1e10)])
def test_divergence_stops_at_the_reference_epoch(q, lr, scale):
    # each row appears with two labels, so no direction separates and a huge
    # step drives the loss up; the cross-entropy loss is capped near
    # -log(1e-300) < blowup, so that loop stops only once the scores overflow
    x, labels = _problem(6, 12, 3, q)
    x = scale * np.vstack([x, x])
    labels = np.concatenate([labels, -labels if q == 1 else (labels + 1) % q])
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _both(x, labels, q, lr, 50, _init(6, 3, q))
        _assert_the_frozen_loop_stops_alike(x, labels, q, lr, 50, _init(6, 3, q), want)
    assert isinstance(want, TrainingError) and "lr" in str(want)
    _assert_same_outcome(got, want)


def test_exact_loss_decides_when_the_bound_does_not_clear_blowup():
    # margins (w, -2w) from w0 = 0: the first step lands at a loss just under
    # the blowup level while the loss bound lies above it; only the exact
    # loss tells that epoch 1 has not diverged, and the next step has
    x = np.array([[1.0], [-2.0]])
    y = np.array([1, 1])
    blowup = 1e3 * (math.log(2.0) + 1.0)
    lr = 8.0 * (blowup - 0.3)
    got, want = _both(x, y, 1, lr, 2, np.zeros(1))
    assert not isinstance(want, TrainingError)
    assert blowup - 1.0 < want[1] <= blowup
    margins = y * (x @ np.array([-0.25 * lr]))  # after the first step
    assert np.mean(np.maximum(-margins, 0.0)) + math.log(2.0) > blowup
    _assert_identical(got, want)
    got, want = _both(x, y, 1, lr, 3, np.zeros(1))
    assert "epoch 2" in str(want)
    _assert_same_outcome(got, want)
    _assert_the_frozen_loop_stops_alike(x, y, 1, lr, 3, np.zeros(1), want)


def test_exact_loss_decides_when_the_cross_entropy_bound_does_not_clear_blowup():
    # one input, two classes, both rows of class 1: from w0 = 0 the first step
    # gives row 0 the shifted own score -lr/2 and row 1 a score of 0; epoch 1's
    # exact loss lies just under blowup while log 2 - mean(own shifted score)
    # lies above it, so only the exact loss tells that epoch 1 has not
    # diverged, and the next step has
    x = np.array([[1.0], [-2.0]])
    labels = np.array([1, 1])
    blowup = 1e3 * (math.log(2.0) + 1.0)
    lr = 4.0 * (blowup - 0.3)
    got, want = _both(x, labels, 2, lr, 2, np.zeros((1, 2)))
    assert not isinstance(want, TrainingError)
    assert want[1] < blowup                                   # the floored loss
    scores = x @ np.array([[0.25 * lr, -0.25 * lr]])          # after the first step
    shifted = scores - scores.max(axis=1, keepdims=True)
    own = shifted[np.arange(2), labels]
    assert math.log(2.0) - np.mean(own) >= training._BOUND_CLEARANCE * blowup
    assert blowup - 1.0 < np.mean(np.log(np.exp(shifted).sum(axis=1)) - own) < blowup
    _assert_identical(got, want)
    got, want = _both(x, labels, 2, lr, 3, np.zeros((1, 2)))
    assert "epoch 2" in str(want)
    _assert_same_outcome(got, want)
    _assert_the_frozen_loop_stops_alike(x, labels, 2, lr, 3, np.zeros((1, 2)), want)


@pytest.mark.parametrize("margin_space", [False, True])
@pytest.mark.parametrize("q,lr,p0,epoch", [(1, 6e5, 2138.25, 203), (2, 3e5, 2017.0, 192)])
def test_divergence_after_a_long_quiet_stretch_stops_at_the_reference_epoch(
        q, lr, p0, epoch, margin_space):
    # Rows times their labels (for q = 2, the scores of class 1 minus those of
    # class 0, stepped at twice lr): j = (-1e-4, 0) is barely misclassified
    # and moves p down by about 10 an epoch. That lowers l = (1, -3)'s margin
    # p - 3 z by 10 an epoch and leaves k = (0, 30)'s margin 30 z at 30. For
    # about 200 epochs every loss stays near its start while the divergence
    # ceiling rises by 110 to 160 an epoch, so it hands over to the exact
    # bound every 8 to 12 epochs. Once l's margin nears 8 its own pull turns on,
    # and one step along l sends k, which l nearly opposes, far below zero:
    # the bound rises past the blowup level by more than half of the ceiling's
    # rise, so a ceiling that undercounts the rise misses that epoch. Two zero
    # columns put n < d, for the margin path
    x = np.hstack([[[1e-4, 0.0], [1.0, -3.0], [0.0, 30.0]], np.zeros((3, 2 * margin_space))])
    w0 = np.zeros(x.shape[1] if q == 1 else (x.shape[1], 2))
    if q == 1:
        labels, w0[:2] = np.array([-1, 1, 1]), (p0, 1.0)
    else:
        labels, w0[:2, 1] = np.array([0, 1, 1]), (p0, 1.0)
    got, want = _both(x, labels, q, lr, 400, w0, margin_space=margin_space)
    assert isinstance(want, TrainingError) and f"epoch {epoch} " in str(want)
    _assert_same_outcome(got, want)
    _assert_the_frozen_loop_stops_alike(x, labels, q, lr, 400, w0, want, margin_space)


@contextmanager
def _recorded_shifts():
    """Record the epochs on which ``_descend`` shifts a softmax by its row max:
    a cross-entropy epoch takes one exp, and a shift subtracts an n-vector."""
    shifts, exps = [], [0]

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(*args):
            exps[0] += 1
            return np.exp(*args)

        @staticmethod
        def subtract(a, b, *out):
            if np.ndim(b) == 1:
                shifts.append(exps[0])
            return np.subtract(a, b, *out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "np", Spy())
        yield shifts


def _offset_problem(offset, margin_space):
    """Three noisy classes in the plane, plus a constant input that every class
    weighs by ``offset``. The softmax ignores a score all classes share, so GD
    never moves it: max |score| starts at ``offset`` and grows with the
    classes' own scores. Zero columns put n < d, for the margin path."""
    g = np.random.default_rng(5)
    labels = np.arange(30) % 3
    centers = np.array([[1.0, 0.0], [-0.5, 0.87], [-0.5, -0.87]])
    x = np.hstack([2 * centers[labels] + 0.8 * g.standard_normal((30, 2)), np.ones((30, 1))])
    x = np.hstack([x, np.zeros((30, 30 * margin_space))])
    w0 = np.zeros((x.shape[1], 3))
    w0[2] = offset
    return x, labels, w0


@pytest.mark.parametrize("margin_space", [False, True])
def test_scores_that_cross_the_cap_shift_on_the_reference_epochs(margin_space):
    x, labels, w0 = _offset_problem(490.0, margin_space)
    reference = (gd_reference.class_major_margin_gd if margin_space
                 else gd_reference.class_major_cross_entropy_gd)
    shifts = []
    want = reference(x, labels, 3, 0.5, 600, w0, shifts=shifts)
    with _recorded_shifts() as got_shifts:
        got = _descend(x, labels, 3, 0.5, 600, w0, margin_space=margin_space)
    # max |score| starts near 490 and passes the cap about 240 epochs in
    assert 100 < shifts[0] and shifts == list(range(shifts[0], 600))
    assert got_shifts == shifts
    _assert_identical(got, want)


@pytest.mark.parametrize("margin_space", [False, True])
def test_scores_past_the_range_of_exp_fit_without_overflow(margin_space):
    # e^710 overflows a float, and numpy's overflow RuntimeWarning fails the test
    x, labels, w0 = _offset_problem(700.0, margin_space)
    reference = _margin_reference if margin_space else _reference_descend
    got, want = _both(x, labels, 3, 0.5, 600, w0, margin_space=margin_space,
                      reference=reference)
    _assert_identical(got, want)
    assert np.abs(x @ got[0]).max() > 710


@contextmanager
def _recorded_divides():
    """Record a copy of each array ``_descend`` divides into: the logistic loop
    divides once per epoch, forming its residual."""
    quotients = []

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def divide(*args):
            quotient = np.divide(*args)
            quotients.append(quotient.copy())
            return quotient

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "np", Spy())
        yield quotients


def test_the_logistic_residual_is_the_sigmoid_to_a_few_ulp():
    # margins across [-800, 800] as one input column under +1 labels, from w0 = 1
    # at lr = n: the step factor lr / n is 1, so the residual is 1 / (1 + e^m).
    # exp within 4 ulp, then an add and a divide of half an ulp each, keep it
    # within 5 eps relative of the exact value wherever that is a normal float
    # (about 1.03 eps measured). Past exp's range, m > log(max float) = 709.78,
    # e^m is inf and the residual exactly 0; that overflow raises no warning
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is no wider than a float here")
    margins = np.concatenate([np.linspace(-800.0, 800.0, 16001),
                              [0.0, 708.3, 708.4, 709.78, 709.79, 745.2]])
    n = len(margins)
    with warnings.catch_warnings(), _recorded_divides() as quotients:
        warnings.simplefilter("error", RuntimeWarning)
        _descend(margins[:, None], np.ones(n), 1, float(n), 1, np.ones(1))
    (v,) = quotients
    exact = 1.0 / (1.0 + np.exp(margins.astype(np.longdouble)))
    normal = exact >= np.finfo(float).tiny
    assert normal.sum() > 14000 and not normal[margins > 708.4].any()
    error = np.abs(v[normal] - exact[normal])
    assert np.all(error <= 5 * np.finfo(float).eps * exact[normal])
    past = margins > 709.79
    assert past.sum() > 900 and np.all(v[past] == 0.0)


def _fit_with_reference_loops(*args, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_descend", _reference_descend)
        return sl_fit_gd(*args, **kwargs)


def _close(a, b):
    return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("kind,q", [("logistic", 1), ("cross-entropy", 5)])
@pytest.mark.parametrize("n,d", [(40, 90), (200, 3)])
def test_sl_fit_matches_reference_fit(kind, q, n, d):
    """Whole fits match fits on the reference loops: bit for bit when n >= d, and
    to 1e-12 relative with the same step count on the n < d margin path, whose
    products round differently from the raw-input loop."""
    x, labels = _problem(7, n, d, q)
    kwargs = dict(lr=0.5, epochs=300, rng=RNG.child(n))
    got = sl_fit_gd(x, labels, **kwargs)
    want = _fit_with_reference_loops(x, labels, **kwargs)
    same = np.array_equal if n >= d else _close
    assert got.classes == want.classes
    assert same(got.W, want.W)
    meta, meta_ref = dict(got.training_meta), dict(want.training_meta)
    if n < d:
        for key in ("final_loss", "final_grad_norm"):
            np.testing.assert_allclose(meta.pop(key), meta_ref.pop(key), rtol=1e-12)
    assert meta == meta_ref
    assert meta["gd_dim"] == min(n, d)
    assert meta["loss_kind"] == kind


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), d=st.integers(1, 8),
       q=st.sampled_from([1, 2, 3, 5, 8, 9, 12, 16]), log_lr=st.floats(-3.0, 4.0),
       epochs=st.integers(0, 80))
def test_random_problems_match_reference(seed, n, d, q, log_lr, epochs):
    x, labels = _problem(seed, n, d, q)
    got, want = _both(x, labels, q, 10.0 ** log_lr, epochs, _init(seed, d, q))
    _assert_same_outcome(got, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), extra=st.integers(1, 30),
       q=st.sampled_from([1, 2, 3, 5, 9]), log_lr=st.floats(-3.0, 4.0),
       epochs=st.integers(0, 300))
def test_random_margin_problems_match_the_margin_reference(seed, n, extra, q, log_lr, epochs):
    x, labels = _problem(seed, n, n + extra, q)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _both(x, labels, q, 10.0 ** log_lr, epochs, _init(seed, n + extra, q),
                          margin_space=True, reference=_margin_reference)
    _assert_same_outcome(got, want)
