"""The benchmark's workloads call the library through module attributes, and
a run whose items raise is not ``correct``.  These tests run those calls,
reading only ``bench/workloads.py``, so a change to a class or a signature
the benchmark uses fails here first."""
import importlib
import importlib.util
import os
import sys
from types import SimpleNamespace

from weakhopf.fields import GF, QQ
from weakhopf.groupoid import dihedral, pair_groupoid

WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "bench", "workloads.py")
MODULES = ("fields", "linalg", "bialgebra", "groupoid", "crossed", "cleft")


def _load_workloads():
    name = "weakhopf_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


_workloads = _load_workloads()
wh = SimpleNamespace(**{m: importlib.import_module("weakhopf." + m) for m in MODULES})


def test_dual_group_hopf_is_a_checked_weak_hopf_algebra():
    # Fills zero_map rows in place, then calls the seven-argument checked.
    H = _workloads.dual_group_hopf(wh, dihedral(3), GF(7))
    assert H.dim == 6
    assert H.antipode is not None


def test_counterexample_is_caught_at_its_entry():
    G = pair_groupoid(2)
    e = G.morphisms.index(G.identity[G.objects[0]])
    h, k = 1, 2
    report = _workloads._counterexample_item(wh, G, QQ, e, h, k)()
    v = report.get("unit_left")
    assert v.status == "fail"
    assert (v.witness.row, v.witness.col) == (k, h)


def test_pipeline_item_passes_and_round_trips():
    run = _workloads._pipeline_item(
        wh,
        lambda: wh.groupoid.groupoid_algebra(pair_groupoid(2), QQ),
        wh.crossed.base_action_measure,
        wh.crossed.smash_cocycle,
    )
    out = run()
    assert [stage for stage, r in out["reports"] if not r.all_pass] == []
    (rho, rho2), (f, f2) = out["rho"], out["f"]
    assert rho2 == rho
    assert f2 == f
