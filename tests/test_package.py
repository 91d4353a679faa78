import pathlib
import re

import numpy as np
import pytest

import nmarl

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    missing = [name for name in nmarl.__all__ if not hasattr(nmarl, name)]
    assert missing == []


def test_numpy_floor_has_vecdot():
    # estimator._bounded_gradients squares every gradient norm by np.vecdot,
    # which numpy added in 2.0: under an older numpy, nmarl imports and then
    # fails at the first sampled gradient
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    numpy_reqs = [req for req in project["dependencies"] if re.match(r"numpy\b", req)]
    assert len(numpy_reqs) == 1
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)(\.\d+)*", numpy_reqs[0].replace(" ", ""))
    assert floor is not None, numpy_reqs[0]
    assert (int(floor[1]), int(floor[2])) >= (2, 0)
    assert hasattr(np, "vecdot")
