"""The bytes of every preset config's run, pinned.

Each config of ``suite_configs("all", 7)`` (the configs of ``mmclab verify
--suite all --seed 7``) runs one trial in process. Its results.csv must hash to
the value in ``CSV_PINS``, its summary.json, less the ``total_wall_time`` line, to
the value in ``SUMMARY_PINS``, and the weights and ``training_meta`` of its GD fits
(sl and the SupCon probes, in fit order) to the value in ``FIT_PINS``. The run
holds BLAS at one thread: the wide fits' bytes move with the BLAS thread count,
though the CSV bytes do not. A change
that means to keep every byte is checked here, not by hand-run hashes. The CSV
rounds to 9 significant digits and most of its values are hit counts, so a
last-bit change in a fit seldom shows there; the fit digests show it.

Float results may change in the last bit with the numpy version, the BLAS build
and the kernels OpenBLAS picks for the CPU (its core name), so the pins hold
only for the key they were taken under; elsewhere the test skips and names the
part of the key that differs. Each core below was forced with
``OPENBLAS_CORETYPE``: the CSV and summary bytes were the same on all of them,
the fit bytes were not. The summary holds each cell's mean, min and max at full
precision, so it shows a last-bit change in a value that the CSV rounds away.
"""
import ctypes
import hashlib
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from mmclab import emit_csv, emit_json_summary, harness, run_experiment, suite_configs
from mmclab.numerics import _OPENBLAS_NAMES, _openblas_threads

PIN_KEY = {"numpy": "2.4.6", "BLAS build": "scipy-openblas 0.3.31.188.0"}

CSV_PINS = {
    "dm1-mmcl": "3c7df7459ede8f1d8eac2f1e81caa3de288c9162eae69c5e1bc8f6427db65a12",
    "dm1-sl": "129d52b4ce782caf86e030390da4b9c263dfd1011f13330a619945800ab3d05f",
    "dm2-mmcl": "e9f83917a38e4799f24f09f00d53cd93aceaa89e386eb50a5fe265179bf71445",
    "dm2-sl": "0fea25d627f095cd9382f8c398aa31614707b33427cd45eafc1817d4bf2c6074",
    "captions-dm1": "ae2c5c2f3feecdb15ac952bf1cd4b6c2d207bea9ed97709566badea146e562c2",
    "captions-dm2": "fda3b24a4147c688d77aa58885a9d91594a6657da42715b8ff4df9ab69a08edb",
    "supcon-dm1": "87dc57bdc9b532877b5a54b1ae07050114de9116e5bd9334f4bb585aab95d299",
    "supcon-dm2": "30a9adf79e2f192b35ff7c1c350b563d0e0d34f50a44deb6df01b0e9e72bebde",
    "id-control": "57795dd93edc8ae8a54634d137681ccf4f20bc9014211cbe7f46044239ea96d2",
}

SUMMARY_PINS = {
    "dm1-mmcl": "88340500a24bf0c1c5a0ef5abe7d43c1234a68828f4f97415b8ff1f1b5efe6c6",
    "dm1-sl": "f872c1f9cefff5b84fd3f8fa6af9f6bbd14fb38079480a80e4579ce0ee6ed1f3",
    "dm2-mmcl": "d5dd66cade4816c419d97519336211ac075597152354438e1667fac331c0f289",
    "dm2-sl": "df003fae9b4554f819bf6d5f44da32f5ca01cda9f94b7a7548496f25511b55dd",
    "captions-dm1": "253caaf81178a16f12993ea21e77b2fe1c24afa443939d7795d54c4acc6c3850",
    "captions-dm2": "ded166cfea274e2c393c0f2fb38b2833887aeca26c66633b4e10464e0bb9eea8",
    "supcon-dm1": "2ef138ba65dfe5875978f68c6b5131d666c66885af83f31ccc41c0a4d5887d6c",
    "supcon-dm2": "4b91adcef614ce3623b67a02237f6325c703ba953bf530f51edce179d6f9826d",
    "id-control": "44458e82c22bda9b9aadf86f52044a8e17fb00af79785a28d12d564d7f35e4ba",
}

FIT_PINS = {
    "Haswell": {
        "dm1-sl": "111d7cb6abb70ce30530251d2925a18442c602ed364e3a744835bd1e4c1b87fa",
        "dm2-sl": "252b29e1092a060e2babfed18e42a50495fa0b7f1934ec7829bc29eac104bd91",
        "supcon-dm1": "44250b11c52936a07e12df91993184e73f90f2c888cc97a4536cdba72694c02d",
        "supcon-dm2": "fd97987cfacd234270835c3dbea61c2d1a4d182eb993563f37804f3c87b46813",
        "id-control": "312e90d75c7b95983b308276579043b5724f27077c92dbb200c8172ec87332c1",
    },
    "Katmai": {
        "dm1-sl": "1a8a332c75775ba6886862d3d2d4514501827c50c38b51f3e06e6605b7dee30c",
        "dm2-sl": "400052f975d5fd203ccc84aec8294fd3697389e4fd0f784ab405d5ae0a48c89f",
        "supcon-dm1": "a560b3ce71f58936247eab7faaa590c3ab5370e567209fbdf20b558d4b67c68e",
        "supcon-dm2": "d597d30947f0c2cd8a912e16129ef10d5c6417b1e326cf0edda4f2d43110d5a6",
        "id-control": "b92fe17d1672e8362256d02f13ac4fd80a528e5f64ddc60954f90ae2e7e370b2",
    },
    "Nehalem": {
        "dm1-sl": "2efc5540f268f70ec1627b560b14b066fd97a0fd45e11e0d4ba570ae3aa9852f",
        "dm2-sl": "8bc1ffd77e0b419f2f36906c2b790aa0d1ea394dd183fb79e1db11a961083123",
        "supcon-dm1": "44250b11c52936a07e12df91993184e73f90f2c888cc97a4536cdba72694c02d",
        "supcon-dm2": "d597d30947f0c2cd8a912e16129ef10d5c6417b1e326cf0edda4f2d43110d5a6",
        "id-control": "fafee4828a8adc16186b1018c05467ca63f38da49110129f8bb23065c28b0544",
    },
    "Sandybridge": {
        "dm1-sl": "8303abed98976b36498f96252a16c4171b6aaa5641cdc72800572bc8c18fb273",
        "dm2-sl": "e1c9caab2ef9f3975f61251a5590b2f2ac517ddef1569188943643378e27f961",
        "supcon-dm1": "a560b3ce71f58936247eab7faaa590c3ab5370e567209fbdf20b558d4b67c68e",
        "supcon-dm2": "d597d30947f0c2cd8a912e16129ef10d5c6417b1e326cf0edda4f2d43110d5a6",
        "id-control": "dfec59734b8ae7ae1d466905687ecc28ac61391005a43a946a585ebefdbe3715",
    },
    "SkylakeX": {
        "dm1-sl": "b3287670587bc1beb1c3d3f43d8b6ed7f5d3a2559fd01e1d405501db76c5bb4a",
        "dm2-sl": "252b29e1092a060e2babfed18e42a50495fa0b7f1934ec7829bc29eac104bd91",
        "supcon-dm1": "44250b11c52936a07e12df91993184e73f90f2c888cc97a4536cdba72694c02d",
        "supcon-dm2": "fd97987cfacd234270835c3dbea61c2d1a4d182eb993563f37804f3c87b46813",
        "id-control": "885055f3f37c53e507d5eb01c6504f0f791e8fdd46e9e151f4a10ad0375829f2",
    },
}


def _blas_build() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def _openblas_core() -> str | None:
    """The core name of the kernels OpenBLAS chose for this CPU, or None when numpy
    does not run on an OpenBLAS that reports one."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix, _ in _OPENBLAS_NAMES:
        get = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode()
    return None


def _pinned_core() -> str:
    """The OpenBLAS core name, once the build matches the pins' key; skips otherwise."""
    for part, value in (("numpy", np.__version__), ("BLAS build", _blas_build())):
        if value != PIN_KEY[part]:
            pytest.skip(f"the preset pins hold for {part} {PIN_KEY[part]!r}; "
                        f"this run has {value!r}")
    core = _openblas_core()
    if core not in FIT_PINS:
        pytest.skip(f"the preset pins hold for OpenBLAS core in {tuple(FIT_PINS)}; "
                    f"this run has {core!r}")
    return core


@contextmanager
def _one_blas_thread():
    get, put = _openblas_threads()
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def test_every_preset_config_writes_its_pinned_bytes(tmp_path, monkeypatch):
    core = _pinned_core()
    fits = []

    def recorded(*args, _fit=harness.training.sl_fit_gd, **kwargs):
        model = _fit(*args, **kwargs)
        fits.append(model)
        return model

    monkeypatch.setattr(harness.training, "sl_fit_gd", recorded)  # probe_fit calls it too
    csv_hashes, summary_hashes, fit_hashes = {}, {}, {}
    for config in suite_configs("all", 7):
        fits.clear()
        path, summary = tmp_path / f"{config.name}.csv", tmp_path / f"{config.name}.json"
        with _one_blas_thread():
            records = run_experiment(replace(config, trials=1))
        emit_csv(records, path)
        emit_json_summary(records, summary, config.min_pass_fraction)
        csv_hashes[config.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        lines = summary.read_bytes().splitlines(keepends=True)
        timed = [line for line in lines if line.startswith(b'  "total_wall_time": ')]
        assert len(timed) == 1
        lines.remove(timed[0])
        summary_hashes[config.name] = hashlib.sha256(b"".join(lines)).hexdigest()
        if fits:
            digest = hashlib.sha256()
            for model in fits:
                digest.update(model.W.tobytes())
                digest.update(repr(sorted(model.training_meta.items())).encode())
            fit_hashes[config.name] = digest.hexdigest()
    assert csv_hashes == CSV_PINS
    assert summary_hashes == SUMMARY_PINS
    assert fit_hashes == FIT_PINS[core]


# caption groups whose cells also run sl and supcon, which never read the captions:
# 2 p_spu values make 2 groups of 4 cells, so 8 tasks keep 8 workers busy
CAPTION_GROUPS = {
    "experiment": "caption-sweep-dm1", "name": "cap-sl", "root_seed": 7, "trials": 4,
    "data": {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.02, "p_spu": 0.999},
    "modality": {"d_I": 2, "d_T": 2}, "methods": ["mmcl-closed", "sl", "supcon"],
    "train": {"n_train": 2000, "p_dim": 2, "rho": 1.0, "probe_epochs": 100},
    "eval": {"n_eval": 2000, "splits": ["true"]},
    "method_overrides": {"sl": {"modality": {"d_I": 200, "noise_sigma_I": 0.1},
                                "train": {"n_train": 100, "epochs": 200}}},
    "slacks": {"supcon:true:overall:accuracy": 0.5, "supcon:true:minority:accuracy": 1.0},
    "sweep": {"pi_core": [0.0, 1.0], "pi_spu": [0.0, 1.0], "p_spu": [0.99, 0.999]}}
# taken when every cell of a caption group still fitted sl and supcon itself
CAPTION_GROUPS_CSV_PIN = "8c7295ffcc3e89914174071d421b86c1a46793f80abe508a3639154f15183ae0"


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_caption_groups_that_fit_sl_and_supcon_once_keep_their_bytes(tmp_path, threads):
    _pinned_core()
    path = tmp_path / "results.csv"
    emit_csv(run_experiment(harness.config_from_dict(CAPTION_GROUPS), threads), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CAPTION_GROUPS_CSV_PIN
