"""Array products in the library go through ``np.dot``, never ``@``.

In numpy 2.4, ``@`` (``np.matmul``) holds the GIL for its whole BLAS call,
while ``np.dot`` releases it and gives the same bytes. The harness runs
independent (cell, trial) tasks on a thread pool, so one ``@`` in a hot loop
serializes the workers again. This test reads every module of the package and
fails on any ``@`` or ``matmul`` it finds.
"""
import ast
from pathlib import Path

import mmclab

SRC = Path(mmclab.__file__).resolve().parent


def _matmuls(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr == "matmul":
            yield node.lineno, "matmul"
        elif isinstance(node, ast.Name) and node.id == "matmul":
            yield node.lineno, "matmul"


def test_no_module_multiplies_with_matmul():
    found = [f"{path.name}:{line} {what}" for path in sorted(SRC.glob("*.py"))
             for line, what in _matmuls(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, ("@ and np.matmul hold the GIL through their BLAS call and "
                       "serialize the pool workers; multiply with np.dot in the same "
                       "left-to-right order instead: " + ", ".join(found))
