"""Array products in the library go through ``np.dot``, never ``@``, and BLAS
routines called through ctypes come from a ``ctypes.CDLL``.

In numpy 2.4, ``@`` (``np.matmul``) holds the GIL for its whole BLAS call,
while ``np.dot`` releases it and gives the same bytes. The harness runs
independent (cell, trial) tasks on a thread pool, so one ``@`` in a hot loop
serializes the workers again. This test reads every module of the package and
fails on any ``@`` or ``matmul`` it finds.

A ctypes call releases the GIL only when its library is a ``ctypes.CDLL``:
``ctypes.PyDLL``, ``ctypes.pydll`` and ``ctypes.pythonapi`` hold it for the
whole call, which would serialize the workers in the same way. No module may
name them, and every routine ``numerics`` binds must carry a CDLL's flags.
"""
import ast
import ctypes
from pathlib import Path

import mmclab
from mmclab import numerics

SRC = Path(mmclab.__file__).resolve().parent
GIL_HOLDING_LOADERS = ("PyDLL", "pydll", "pythonapi")


def _modules():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def _matmuls(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr == "matmul":
            yield node.lineno, "matmul"
        elif isinstance(node, ast.Name) and node.id == "matmul":
            yield node.lineno, "matmul"


def _gil_holding_loaders(tree):
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name in GIL_HOLDING_LOADERS:
            yield node.lineno, name


def test_no_module_multiplies_with_matmul():
    found = [f"{name}:{line} {what}" for name, tree in _modules()
             for line, what in _matmuls(tree)]
    assert not found, ("@ and np.matmul hold the GIL through their BLAS call and "
                       "serialize the pool workers; multiply with np.dot in the same "
                       "left-to-right order instead: " + ", ".join(found))


def test_no_module_binds_a_library_that_holds_the_gil():
    found = [f"{name}:{line} {what}" for name, tree in _modules()
             for line, what in _gil_holding_loaders(tree)]
    assert not found, ("ctypes.PyDLL, ctypes.pydll and ctypes.pythonapi hold the GIL "
                       "through each call and serialize the pool workers; load the "
                       "library with ctypes.CDLL instead: " + ", ".join(found))


def _openblas_lookups(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_openblas":
            yield tuple(arg.value for arg in node.args)


def test_every_bound_blas_routine_releases_the_gil():
    # every lookup the package makes, read from its source, so a new routine is covered
    lookups = {names for _, tree in _modules() for names in _openblas_lookups(tree)}
    assert ("cblas_dsymv",) in lookups and len(lookups) == 2
    for names in lookups:
        found = numerics._openblas(*names)
        for routine in found[:-1] if found else ():
            assert not routine._flags_ & ctypes._FUNCFLAG_PYTHONAPI, routine.__name__
