"""Acceptance suite: every shipped guarantee, one test per criterion clause.

Each test prints a single [criterion NN] PASS/FAIL line (visible with -s or on
failure). The heavy verification suites run once per session through fixtures.
"""
import hashlib

import numpy as np
import pytest

from mmclab import (CaptionMask, DataModel1Params, ModalityConfig, RngStream, empirical_cross_cov, build_prompts,
                    make_dictionary, make_paired_dataset, mmcl_fit_closed_form,
                    mmcl_fit_gd, population_cross_cov_dm1,
                    sample_latents_dm1, perfect_zero_shot_condition_dm2, zero_shot_robustness_dm1,
                    caption_masking_threshold_dm2)
from mmclab.harness import config_from_dict, emit_csv, run_experiment, run_suite
from mmclab.training import MMCLModel
from contrastive_loss import mmcl_loss
from zero_shot_rule import zero_shot_predict

SEED = 7


def _criterion(num: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def dm1_records():
    return run_suite("dm1", SEED, threads=2)


@pytest.fixture(scope="session")
def dm2_records():
    return run_suite("dm2", SEED, threads=2)


@pytest.fixture(scope="session")
def captions_records():
    return run_suite("captions", SEED, threads=2)


@pytest.fixture(scope="session")
def supcon_records():
    return run_suite("supcon", SEED, threads=2)


@pytest.fixture(scope="session")
def id_records():
    return run_suite("id", SEED, threads=2)


def _pick(records, **filters):
    out = []
    for rec in records:
        if all(getattr(rec, key) == val for key, val in filters.items()):
            out.append(rec)
    return out


def _one(records, **filters):
    found = _pick(records, **filters)
    assert len(found) == 1, f"expected one record for {filters}, got {len(found)}"
    return found[0]


# -- criterion 1: closed form vs gradient descent, and the loss identity ------

def test_criterion_01_gd_matches_closed_form_and_loss_identity():
    worst_gap = 0.0
    for seed in range(10):
        rng = RngStream(seed, 1000)
        batch = sample_latents_dm1(DataModel1Params(1.0, 0.1, 0.9), 200, "train",
                                   rng.child(1))
        di = ModalityConfig(make_dictionary(32, 2, "random-orthonormal", rng.child(2)), 0.1)
        dt = ModalityConfig(make_dictionary(32, 2, "random-orthonormal", rng.child(3)), 0.1)
        data = make_paired_dataset(batch, di, dt, CaptionMask.none(), rng.child(4))
        closed = mmcl_fit_closed_form(empirical_cross_cov(data), 2, 1.0)
        gd = mmcl_fit_gd(data, 2, 1.0, rng=rng.child(5))
        gap = np.linalg.norm(gd.G - closed.G) / np.linalg.norm(closed.G)
        worst_gap = max(worst_gap, gap)

    # loss identity on a small dataset: literal ordered-pair double sum vs the
    # library value vs the trace form through the empirical cross-covariance
    rng = RngStream(99, 1001)
    batch = sample_latents_dm1(DataModel1Params(1.0, 0.1, 0.9), 24, "train", rng.child(1))
    cfg = ModalityConfig(make_dictionary(6, 2, "random-orthonormal", rng.child(2)), 0.1)
    data = make_paired_dataset(batch, cfg, cfg, CaptionMask.none(), rng.child(3))
    g = rng.child(4).generator()
    w_i, w_t = g.standard_normal((2, 6)), g.standard_normal((2, 6))
    model = MMCLModel(G=w_i.T @ w_t, p_dim=2, rho=1.0, W_I=w_i, W_T=w_t)
    r_i, r_t = data.x_image @ w_i.T, data.x_text @ w_t.T
    sim = r_i @ r_t.T
    n = data.n
    literal = sum((sim[i, j] - sim[i, i]) + (sim[j, i] - sim[i, i])
                  for i in range(n) for j in range(n) if i != j) / (2 * n * (n - 1))
    literal += 0.5 * np.sum((w_i.T @ w_t) ** 2)
    trace_form = (-np.sum(model.G * empirical_cross_cov(data))
                  + 0.5 * np.sum(model.G ** 2))
    value = mmcl_loss(model, data)
    identity_err = max(abs(value - literal), abs(value - trace_form)) / abs(literal)
    ok = worst_gap < 1e-3 and identity_err < 1e-10
    _criterion("01", ok, f"max G gap {worst_gap:.2e} (<1e-3), "
                         f"loss identity rel err {identity_err:.2e} (<1e-10)")


# -- criterion 2: model-1 zero-shot robustness ---------------------------------

def test_criterion_02_dm1_mmcl_robustness(dm1_records):
    from mmclab.theory import DM1_BEST_POSSIBLE_ACCURACY

    overall = _one(dm1_records, method="mmcl-closed", split="true", group="overall").value
    minority = _one(dm1_records, method="mmcl-closed", split="true", group="minority").value
    ok = (abs(overall - 0.8123) <= 0.02 and abs(minority - 0.6915) <= 0.02
          and overall <= DM1_BEST_POSSIBLE_ACCURACY + 0.02)
    _criterion("02", ok, f"zero-shot overall {overall:.4f} (0.8123 +- 0.02, below the "
                         f"{DM1_BEST_POSSIBLE_ACCURACY:.4f} ceiling), "
                         f"minority {minority:.4f} (0.6915 +- 0.02)")


# -- criterion 3: model-1 supervised failure -----------------------------------

def test_criterion_03_dm1_sl_failure(dm1_records):
    sl = _pick(dm1_records, method="sl", split="true")
    by_trial = {}
    for rec in sl:
        if rec.group in ("overall", "minority"):
            by_trial.setdefault(rec.run_id, {})[rec.group] = rec.value
    assert len(by_trial) == 10
    hits = sum(vals["minority"] <= 1 / 3 and vals["overall"] <= 2 / 3
               for vals in by_trial.values())
    _criterion("03", hits == 10,
               f"{hits}/10 trials with minority <= 1/3 and overall <= 2/3")


# -- criteria 4 and 5: model-2 robustness and supervised bound -----------------

def test_criterion_04_dm2_mmcl_perfect(dm2_records):
    emp = _one(dm2_records, method="mmcl-closed", split="true", group="overall").value
    ana = _one(dm2_records, method="mmcl-analytic", split="true", group="overall").value
    _criterion("04", emp == 1.0 and ana == 1.0,
               f"empirical path {emp}, analytic path {ana} (both exactly 1.0)")


def test_criterion_05_dm2_sl_bound(dm2_records):
    true_acc = _one(dm2_records, method="sl", split="true", group="overall").value
    train_acc = _one(dm2_records, method="sl", split="train", group="overall").value
    ok = true_acc <= 0.60 and train_acc == 1.0
    _criterion("05", ok, f"true-split {true_acc:.4f} (<= 0.60 around bound 0.5542), "
                         f"train {train_acc} (= 1.0)")


# -- criterion 6: caption richness, model 1 -------------------------------------

def test_criterion_06_caption_sweep_dm1(captions_records):
    cells = {}
    for rec in _pick(captions_records, method="mmcl-closed", split="true",
                     group="minority"):
        cells[(rec.params["pi_core"], rec.params["pi_spu"])] = rec.value
    assert len(cells) == 6
    monotone = all(cells[(0.0, ps)] <= cells[(0.5, ps)] + 1e-9
                   and cells[(0.5, ps)] <= cells[(1.0, ps)] + 1e-9
                   for ps in (0.0, 1.0))
    preds = {pc: zero_shot_robustness_dm1(1.0, 0.02, 0.999, pc).values["minority"]
             for pc in (0.0, 0.5, 1.0)}
    worst = max(abs(cells[(pc, ps)] - preds[pc])
                for pc in (0.0, 0.5, 1.0) for ps in (0.0, 1.0))
    spu_shift = abs(cells[(1.0, 0.0)] - cells[(1.0, 1.0)])
    ok = monotone and worst <= 0.02 and spu_shift < 0.02
    _criterion("06", ok, f"monotone={monotone}, largest gap to the linear prediction "
                         f"{worst:.4f} (<= 0.02), pi_spu shift {spu_shift:.4f} (< 0.02)")


# -- criterion 7: caption richness threshold, model 2 ---------------------------

def test_criterion_07_caption_threshold_dm2(captions_records):
    by_pi = {rec.params["pi"]: rec.value
             for rec in _pick(captions_records, method="mmcl-analytic", split="true",
                              group="overall")}
    pi_tilde = caption_masking_threshold_dm2(30, 1.1, 1 / 3)
    # counted exactly: below pi_tilde a flipped row wins only where all 29 other
    # pairs have coordinates of opposite sign
    ok = by_pi[0.6] == 1.0 and by_pi[0.3] == 0.5 + 2.0 ** -30
    _criterion("07", ok, f"threshold {pi_tilde:.4f}; acc(pi=0.6) = {by_pi[0.6]!r} "
                         f"(exactly 1), acc(pi=0.3) = {by_pi[0.3]!r} (exactly 1/2 + 2^-30)")


# -- criterion 8: supervised-contrastive failure modes --------------------------

def test_criterion_08_supcon_dm1(supcon_records):
    # As specified this clause asserts probe accuracy <= 0.55 overall and
    # <= 0.10 minority. The closed-form class-mean covariance is rank one along
    # [1, 2p-1], so the probe rides the core-dominated direction and lands near
    # 0.74 overall / 0.50 minority; the stated targets are not achievable from
    # this construction. The assertion is kept as written; see the project
    # notes for the full analysis.
    rows = [r for r in _pick(supcon_records, method="supcon", split="true")
            if r.params.get("sigma_core") == 1.0 and r.params.get("d_I") == 2]
    overall = next(r.value for r in rows if r.group == "overall")
    minority = next(r.value for r in rows if r.group == "minority")
    ok = overall <= 0.55 and minority <= 0.10
    _criterion("08a", ok, f"probe true-split overall {overall:.4f} (<= 0.55 claimed), "
                          f"minority {minority:.4f} (<= 0.10 claimed)")


def test_criterion_08_supcon_dm2(supcon_records):
    rows = [r for r in _pick(supcon_records, method="supcon")
            if r.params.get("m") == 2]
    overall = next(r.value for r in rows if r.split == "true" and r.group == "overall")
    residual = next(r.value for r in rows if r.metric == "collinearity_residual")
    (attack,) = [r for r in rows if r.metric == "best_probe_accuracy"]
    assert attack.group == "adversarial"
    ok = overall == 0.5 and residual < 1e-8 and attack.value <= 0.75 + 1e-9
    _criterion("08b", ok, f"probe true-split {overall} (= 0.50), collinearity "
                          f"residual {residual:.2e} (< 1e-8), threshold attack "
                          f"{attack.value:.4f} (<= 0.75)")


# -- criterion 9: in-distribution control ---------------------------------------

def test_criterion_09_in_distribution_control(id_records):
    sl_id = _one(id_records, method="sl", split="train", group="overall").value
    mmcl_id = _one(id_records, method="mmcl-closed", split="train", group="overall").value
    predicted = zero_shot_robustness_dm1(1.0, 0.01, 0.999).values["train"]  # 0.932820
    ok = sl_id >= 0.985 and abs(mmcl_id - predicted) <= 0.01 and sl_id > mmcl_id
    _criterion("09", ok, f"SL ID {sl_id:.4f} (>= 0.985), MMCL ID {mmcl_id:.4f} "
                         f"({predicted:.4f} +- 0.01), SL > MMCL: {sl_id > mmcl_id}")


# -- criterion 10: property suites ----------------------------------------------

def test_criterion_10_argmax_invariances():
    params = DataModel1Params(1.0, 0.02, 0.999)
    prompts = build_prompts(params, make_dictionary(2, 2))
    flips = 0
    for seed in range(5):
        rng = RngStream(seed, 2000)
        base_cov = population_cross_cov_dm1(params)
        base = mmcl_fit_closed_form(base_cov, 2, 1.0)
        half_rho = mmcl_fit_closed_form(base_cov, 2, 2.0)
        rescaled = mmcl_fit_closed_form(11.0 * base_cov, 2, 1.0)
        batch = sample_latents_dm1(params, 30, "train", rng.child(1))
        cfg = ModalityConfig(make_dictionary(2, 2))
        data = make_paired_dataset(batch, cfg, cfg, CaptionMask.none(), rng.child(2))
        gd = mmcl_fit_gd(data, 2, 1.0, epochs=300, rng=rng.child(3))
        q, _ = np.linalg.qr(rng.child(4).generator().standard_normal((2, 2)))
        rotated = MMCLModel(G=(q @ gd.W_I).T @ (q @ gd.W_T), p_dim=2, rho=1.0,
                            W_I=q @ gd.W_I, W_T=q @ gd.W_T)
        xs = rng.child(5).generator().standard_normal((1000, 2))
        for x in xs:
            reference = zero_shot_predict(base, x, prompts, params)
            flips += reference != zero_shot_predict(half_rho, x, prompts, params)
            flips += reference != zero_shot_predict(rescaled, x, prompts, params)
            flips += (zero_shot_predict(gd, x, prompts, params)
                      != zero_shot_predict(rotated, x, prompts, params))
    _criterion("10a", flips == 0,
               f"{flips} prediction flips under rho / scale / rotation changes "
               f"(1000 inputs x 5 seeds)")


def test_criterion_10_covariance_concentration():
    params = DataModel1Params(1.0, 0.1, 0.9)
    pop = population_cross_cov_dm1(params)
    cfg = ModalityConfig(make_dictionary(2, 2))

    def err(n, seed):
        rng = RngStream(seed, 3000)
        batch = sample_latents_dm1(params, n, "train", rng.child(n))
        data = make_paired_dataset(batch, cfg, cfg, CaptionMask.none(), rng.child(n + 1))
        return np.abs(empirical_cross_cov(data) - pop).max()

    base = np.mean([err(2000, s) for s in range(20)])
    quadrupled = np.mean([err(8000, s) for s in range(20)])
    _criterion("10b", quadrupled < 0.75 * base,
               f"avg err(4n) {quadrupled:.4f} < 0.75 * avg err(n) {0.75 * base:.4f}")


def test_criterion_10_threshold_equivalence():
    g = np.random.default_rng(4000)
    ok = True
    for _ in range(1000):
        m = int(g.integers(2, 80))
        alpha = float(g.uniform(0.05, 3.0))
        beta = float(g.uniform(0.01, 0.99))
        condition = perfect_zero_shot_condition_dm2(m, alpha, beta)
        threshold = caption_masking_threshold_dm2(m, alpha, beta)
        ok = ok and (condition == (threshold < 1))
    _criterion("10c", ok, "full-caption robustness condition matches "
                          "(threshold < 1) on 1000 random parameter draws")


def test_criterion_10_csv_determinism(tmp_path):
    doc = {
        "experiment": "caption-sweep-dm1", "name": "det", "root_seed": 17, "trials": 2,
        "data": {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.05, "p_spu": 0.95},
        "modality": {"d_I": 2, "d_T": 2},
        "methods": ["mmcl-closed"],
        "train": {"n_train": 1000, "p_dim": 2, "rho": 1.0},
        "eval": {"n_eval": 1000, "splits": ["true"]},
        "sweep": {"pi_core": [0.0, 1.0]},
        "tolerance": 0.2,
    }
    digests = []
    for i, threads in enumerate((1, 1, 8)):
        records = run_experiment(config_from_dict(doc), threads=threads)
        path = tmp_path / f"run{i}.csv"
        emit_csv(records, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    _criterion("10d", len(set(digests)) == 1,
               f"CSV sha256 identical across reruns at 1 and 8 threads "
               f"({digests[0][:12]}...)")
