"""The benchmark reaches into districtor in two places: the traced run wraps
each layer where it is looked up (``perfbench/layers.py``, ``PATCHES``), and
the workloads import and call the library (``perfbench/workloads.py``). A
renamed or deleted name would only break ``perfbench/run.py``; these tests
fail instead. Some wrappers record a call only when a predicate on its
arguments holds (``Instance._locations``, say), so the predicates run too.
"""

import ast
import importlib
import sys
from pathlib import Path

from districtor import dataio

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_patch_site_resolves_to_a_callable():
    layers = perfbench_module("layers")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in layers.PATCHES
        if not callable(getattr(owner, attr, None))
    ]
    assert layers.PATCHES
    assert not missing, f"patched but not defined: {missing}"


def test_every_patch_predicate_runs_on_a_read_instance(tmp_path):
    layers = perfbench_module("layers")
    tracer = perfbench_module("tracer").Tracer()
    p = tmp_path / "blocks.csv"
    p.write_text("block_id,x,y,population\na,0.5,1.0,3\nb,2.0,-1.5,4\n", encoding="utf-8")
    inst = dataio.read_blocks(p, k=2)
    predicates = [when for _, _, _, when in layers.PATCHES if when is not None]
    assert predicates
    assert all(isinstance(when(inst), bool) for when in predicates)
    # and inside the wrappers, as the traced run calls them
    layers.install(tracer)
    try:
        inst = dataio.read_blocks(p, k=2)
        assert inst.locations().tolist() == [[0.5, 1.0], [2.0, -1.5]]
        assert inst.populations().tolist() == [3, 4]
    finally:
        tracer.restore()
    assert {"dataio.read_blocks", "model.instance"} <= {span.name for span in tracer.spans}


def test_workloads_import_and_every_module_attribute_resolves():
    # the import checks the from-imports; the walk checks uses such as lloyd.run
    workloads = perfbench_module("workloads")
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and getattr(getattr(workloads, node.value.id, None), "__name__", "").startswith(
            "districtor."
        )
    }
    assert ("lloyd", "run") in used
    missing = [f"{mod}.{attr}" for mod, attr in sorted(used)
               if not hasattr(getattr(workloads, mod), attr)]
    assert not missing, f"used but not defined: {missing}"
