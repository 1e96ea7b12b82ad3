"""The bytes of every preset config's run, pinned.

Each config of ``suite_configs("all", 7)`` (the configs of ``mmclab verify
--suite all --seed 7``) runs one trial in process. Its results.csv must hash to
the value in ``CSV_PINS``, its summary.json, less the ``total_wall_time`` line, to
the value in ``SUMMARY_PINS``, and the weights and ``training_meta`` of its GD fits
(sl and the SupCon probes, in fit order) to the value in ``FIT_PINS``.
``PYTHONPATH=src python tests/test_preset_bytes.py`` prints all three for the
machine it runs on. The run holds BLAS at one thread: the wide fits' bytes move
with the BLAS thread count, though the CSV bytes do not. A change that means to
keep every byte is checked here, not by hand-run hashes. The CSV
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
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mmclab import emit_csv, emit_json_summary, harness, run_experiment, suite_configs
from mmclab.numerics import _openblas

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
    "id-control": "642af84466f534bb9bff5d075720d2d58a492997e5bc0d0c16095d5ec9b5e553",
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
    "id-control": "bc3eebf9e5dfafb27d960993835c184f622a39a28601a8763d81caeb42c70fcb",
}

FIT_PINS = {
    "Haswell": {
        "dm1-sl": "92e7aa4975b2fb7889e838193cd346b226a6ac38cecb4e89903c30549beb7b06",
        "dm2-sl": "44c3addc6adc3fa5220a60eca380d38c568da28440f4d756456fbd8caea2fd35",
        "supcon-dm1": "9b6ad6aa8a994793af059c0a1bfee04fa22ca94cd5553a9be478cff77ab793ea",
        "supcon-dm2": "836bec836e27ff637a05f130c293ae361ee2ddbb770e71122396fec84b1c9075",
        "id-control": "4aa000412352bf4300f3a31597db914858d0562a9ccd63bc62c94f3319d3d349",
    },
    "Katmai": {
        "dm1-sl": "81acf8c65d40050f5af717826a01e1298be485231c95bbadedc33dde1aba2302",
        "dm2-sl": "634bddf2f5b1671cd26daeeebea99479f8a344a3b24a31bd56e9373b534a2735",
        "supcon-dm1": "d80426c08d8440720de5ecd063d84157a762f353bd22aaef4146c3a20b5b657b",
        "supcon-dm2": "2ffa9b57e5eb0e9956e38f32d761a7e912daf4d2ae92b9291dd43ee3d1f3f9aa",
        "id-control": "0863b86b0d27a2e6d8469ec8d00cdec581c5fb130d943df2928b1a906833c0ef",
    },
    "Nehalem": {
        "dm1-sl": "4c9a087f6ce708bb9194910a349481ef810c2186a3c2b694ec282e195236d609",
        "dm2-sl": "ae8ee5ad7ccf63446006f0798935f516f775b8c2da7a94dde66852cd0c36fca7",
        "supcon-dm1": "9b6ad6aa8a994793af059c0a1bfee04fa22ca94cd5553a9be478cff77ab793ea",
        "supcon-dm2": "2ffa9b57e5eb0e9956e38f32d761a7e912daf4d2ae92b9291dd43ee3d1f3f9aa",
        "id-control": "f9d0f0f3f88c3357cb58c6a7aeca329e2725c1a6d672893f5f782d3f0025b22a",
    },
    "Sandybridge": {
        "dm1-sl": "16088f681aec8b51843715038a6401d9063aedaeb71158142fb87764b7151bc0",
        "dm2-sl": "feeabd2a5383ecd2cf34fd65b5c0b1b00ad9bc8fdcf04d3e3df8b2a97443edea",
        "supcon-dm1": "d80426c08d8440720de5ecd063d84157a762f353bd22aaef4146c3a20b5b657b",
        "supcon-dm2": "2ffa9b57e5eb0e9956e38f32d761a7e912daf4d2ae92b9291dd43ee3d1f3f9aa",
        "id-control": "c31e73b879e91bee2f164e5d26f247adb2f7ef48f4f8858f2440247fb1cfca81",
    },
    "SkylakeX": {
        "dm1-sl": "e62ebd2bc81fea584768ef382ee9f824e1c4baebe19f839efc532581cd225d93",
        "dm2-sl": "1ac62fc90ca14af820a606a6fbf3b08afae218a81b26382769c7e3c29e3b3e42",
        "supcon-dm1": "9b6ad6aa8a994793af059c0a1bfee04fa22ca94cd5553a9be478cff77ab793ea",
        "supcon-dm2": "27e2fdedf1a5b23065d29eca3d329cdd69700993196aaabfd95dbc90b5ac48ca",
        "id-control": "1bf63a080a96d3c5398bed3c8be6982c05a838ca590a4b86bdd9ade15d0af267",
    },
}


def _blas_build() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def _openblas_core() -> str | None:
    """The core name of the kernels OpenBLAS chose for this CPU, or None when numpy
    does not run on an OpenBLAS that reports one."""
    if (found := _openblas("openblas_get_corename")) is None:
        return None
    get, _ = found
    get.restype = ctypes.c_char_p
    return get().decode()


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
    get, put, _ = _openblas("openblas_get_num_threads", "openblas_set_num_threads")
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def preset_hashes(directory: Path) -> tuple[dict, dict, dict]:
    """The CSV, summary and fit hashes of each preset config's one-trial run at one
    BLAS thread, as the pins hold them; the runs write their files under ``directory``."""
    fits = []

    def recorded(*args, _fit=harness.training.sl_fit_gd, **kwargs):
        model = _fit(*args, **kwargs)
        fits.append(model)
        return model

    csv_hashes, summary_hashes, fit_hashes = {}, {}, {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness.training, "sl_fit_gd", recorded)  # probe_fit calls it too
        for config in suite_configs("all", 7):
            fits.clear()
            path, summary = directory / f"{config.name}.csv", directory / f"{config.name}.json"
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
    return csv_hashes, summary_hashes, fit_hashes


def test_every_preset_config_writes_its_pinned_bytes(tmp_path):
    core = _pinned_core()
    csv_hashes, summary_hashes, fit_hashes = preset_hashes(tmp_path)
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


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_preset_bytes.py prints this machine's pins
    # (OPENBLAS_CORETYPE forces another core's kernels) in the form they take above
    with tempfile.TemporaryDirectory() as directory:
        hashes = preset_hashes(Path(directory))
    print(f"# numpy {np.__version__}, BLAS build {_blas_build()!r}, "
          f"OpenBLAS core {_openblas_core()!r}")
    names = ("CSV_PINS", "SUMMARY_PINS", f"FIT_PINS[{_openblas_core()!r}]")
    for name, pins in zip(names, hashes):
        print(f"{name} = {{")
        for config, digest in pins.items():
            print(f'    "{config}": "{digest}",')
        print("}")
