"""Property-based fuzzing of scenario documents: every document either loads
as a Scenario that serializes back to strict JSON, or fails with a
ScenarioError.  Documents are valid scenarios with one part replaced or
removed, or arbitrary JSON values; no simulation is run."""

import copy
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pendusim.control import Gains, Setpoint, solve_equilibrium_qm  # noqa: E402
from pendusim.model import preset_paper  # noqa: E402
from pendusim.sim import (Scenario, ScenarioError, scenario_from_dict,  # noqa: E402
                          scenario_to_dict)

QR_DES = np.array([np.pi / 4, np.pi / 2, 0.0])


def _base_documents():
    desk = preset_paper(3)
    setpoint = Setpoint(0.0, QR_DES, solve_equilibrium_qm(desk, QR_DES))
    q0 = np.zeros(desk.dof)
    q0[0] = 0.05
    full = scenario_to_dict(Scenario(
        model=desk, controller="proposed", gains=Gains(), setpoint=setpoint,
        q0=q0, dt=1e-2, duration=2.0, decimation=2, label="fuzz",
        tau_ext=np.zeros(desk.dof)))
    preset = {"model": {"preset_links": 3}, "controller": "motivating",
              "gains": Gains().to_dict(),
              "setpoint": {"gamma_des": 0.0, "qr_des": QR_DES.tolist()},
              "dt": 1e-3, "duration": 1.0}
    return [full, preset]


BASES = _base_documents()

scalars = (st.none() | st.booleans()
           | st.integers(min_value=-10**400, max_value=10**400)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.text(max_size=8)
           | st.sampled_from(["free", "motivating", "remark1", "remark2",
                              "proposed", "preset_links"]))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=8)
                   | st.dictionaries(st.text(max_size=12), inner, max_size=5)),
    max_leaves=20)


def _paths(node, prefix=()):
    """Every (container path, key) of a nested document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return doc


def _loads_or_rejects(doc):
    try:
        sc = scenario_from_dict(doc)
    except ScenarioError:
        return
    assert isinstance(sc, Scenario)
    json.dumps(scenario_to_dict(sc), allow_nan=False)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(mutated_documents())
def test_mutated_scenario_documents_load_or_raise_scenario_error(doc):
    _loads_or_rejects(doc)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(json_values | st.dictionaries(
    st.sampled_from(["model", "controller", "gains", "setpoint", "initial",
                     "dt", "duration", "decimation", "label", "tau_ext"]),
    json_values, max_size=10))
def test_arbitrary_documents_load_or_raise_scenario_error(doc):
    _loads_or_rejects(doc)


def test_base_documents_load():
    for doc in BASES:
        assert isinstance(scenario_from_dict(copy.deepcopy(doc)), Scenario)
