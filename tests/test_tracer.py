"""The benchmark's layer tracer (perfbench/layers.py) against the library.

The tracer wraps library functions and methods by name, so renaming a
traced name breaks the traced benchmark run.  These tests install and
uninstall it in-process, so the same rename fails here first.
"""

import contextlib
import importlib
import importlib.util
import json
from pathlib import Path

import viscompare
import viscompare.cli

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(modname, attr):
    owner = importlib.import_module(modname)
    *cls_path, name = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner.__dict__[name]


@contextlib.contextmanager
def installed_tracer():
    """A Tracer installed for the block; afterwards every target must be
    its original again."""
    layers = load_layers()
    originals = {(m, a): resolve(m, a) for m, a, _, _ in layers.TARGETS}
    tracer = layers.Tracer()
    try:
        tracer.install()
        for (modname, attr), original in originals.items():
            assert resolve(modname, attr).__wrapped__ is original, attr
        yield tracer
    finally:
        tracer.uninstall()
    for (modname, attr), original in originals.items():
        assert resolve(modname, attr) is original, attr


def test_tracer_wraps_every_target_and_uninstalls(tmp_path):
    with installed_tracer() as tracer:
        # verify-classical certifies two candidates on 801 points each and
        # writes its CSVs from those residuals, without evaluating them again
        scn = tmp_path / "eq12.json"
        scn.write_text(json.dumps({"id": "eq12", "problem": {"builtin": "eq12"}}))
        code = viscompare.cli.main(["verify-classical", str(scn), "--out", str(tmp_path / "o")])
        assert code == viscompare.cli.EXIT_OK
        assert tracer.stats["residual.verify"][0] == 2
        assert tracer.stats["residual.point"][0] == 2 * 801
        assert tracer.stats["cli.write"][0] == 3
        # a builtin's fields are parsed through the traced module attributes:
        # one span for build_problem and one for parse_scalar_field
        parses = tracer.stats["cli.parse"][0]
        viscompare.cli.build_problem({"builtin": "eq13", "f": {"name": "one"}})
        assert tracer.stats["cli.parse"][0] == parses + 2


def test_traced_barrier_ladder_counts_its_rungs(tmp_path):
    with installed_tracer() as tracer:
        scn = tmp_path / "hje3.json"
        scn.write_text(json.dumps({
            "id": "hje3", "problem": {"builtin": "hje3", "lambda": 1.0, "t": 1.0},
            "window": [10.0, 100.0, 1000.0], "mu": [0.9],
        }))
        code = viscompare.cli.main(["barrier", str(scn), "--out", str(tmp_path / "o")])
        assert code == viscompare.cli.EXIT_OK
        # the strict construction is refused, then the traced ladder runs
        # seven rungs (lambda0 = 4) on one window sample
        assert tracer.stats["barrier.construct"][0] == 1
        assert tracer.stats["barrier.ladder"][0] == 1
        assert tracer.counts["barrier.ladder_rungs"] == 7
        assert tracer.counts["barrier.rungs_passed"] == 1


def test_traced_compare_builds_one_grid_operator(tmp_path):
    with installed_tracer() as tracer:
        scn = tmp_path / "cmp.json"
        scn.write_text(json.dumps({
            "id": "cmp", "problem": {"builtin": "eq13", "lambda": 1.0},
            "grid": {"box": {"center": [0.0], "half_width": [2.0]}, "h": 0.1},
            "f_low": {"name": "zero"}, "f_high": {"poly": {"0": 0.5}},
            "boundary_low": 0.0, "boundary_high": 0.25,
        }))
        code = viscompare.cli.main(["compare", str(scn), "--out", str(tmp_path / "o")])
        assert code == viscompare.cli.EXIT_OK
        # the order check and both solves run on one DiscreteOperator
        assert tracer.stats["solver.grid"][0] == 1
        assert tracer.stats["solver.demo"][0] == 1


def test_traced_barrier_constructs_once_for_all_mu(tmp_path):
    with installed_tracer() as tracer:
        scn = tmp_path / "eq13.json"
        scn.write_text(json.dumps({
            "id": "eq13", "problem": {"builtin": "eq13", "lambda": 1.0},
            "window": [10.0, 100.0, 1000.0], "mu": [0.5, 0.9, 0.99],
        }))
        code = viscompare.cli.main(["barrier", str(scn), "--out", str(tmp_path / "o")])
        assert code == viscompare.cli.EXIT_OK
        # one construction and window sample; each mu verifies on its nodes
        assert tracer.stats["barrier.construct"][0] == 1
        assert tracer.stats["barrier.verify"][0] == 3
        assert tracer.counts["barrier.verify_points"] == 3 * 4001
