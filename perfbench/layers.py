"""Where each layer of districtor is wrapped for the traced run.

A function is wrapped at the place its caller looks it up: ``lloyd`` binds
``solve_balanced`` by name, ``cli`` binds ``verify_power_consistency`` and
``cost_model_for`` by name, ``assignment`` reaches ``solve_mcf``, ``certify``
and ``TransshipmentInstance`` through the ``flow`` module, ``dataio`` builds
``Instance`` from its own namespace, and ``int_costs`` is a method of
``CostModel``. ``oracle`` is used only by the tests and is not wrapped.
"""

from __future__ import annotations

from districtor import assignment, cli, dataio, flow, geometry, lloyd, model

from tracer import Tracer

READ_BACK = (
    "read_summary_json",
    "read_centers_csv",
    "read_assignment_csv",
    "read_trace_csv",
    "read_cells_json",
)


def _first_locations(inst) -> bool:
    return inst._locations is None  # the array is built on the first call only


def _first_populations(inst) -> bool:
    return inst._populations is None


# (owner, attribute, span name, predicate deciding whether a call is recorded)
PATCHES = [
    (dataio, "read_blocks", "dataio.read_blocks", None),
    (dataio, "Instance", "model.instance", None),
    (model.Instance, "locations", "model.instance", _first_locations),
    (model.Instance, "populations", "model.instance", _first_populations),
    (dataio, "write_outputs", "dataio.write_outputs", None),
    *((dataio, name, "dataio.read_back", None) for name in READ_BACK),
    (cli, "cmd_solve", "cli.solve", None),
    (cli, "cmd_validate", "cli.validate", None),
    (cli, "verify_power_consistency", "assignment.verify_power_consistency", None),
    (cli, "cost_model_for", "assignment.cost_model_for", None),
    (assignment, "cost_model_for", "assignment.cost_model_for", None),
    (assignment.CostModel, "int_costs", "assignment.int_costs", None),
    (assignment, "solve_balanced", "assignment.solve_balanced", None),
    (lloyd, "solve_balanced", "assignment.solve_balanced", None),
    (lloyd, "seed_centers", "lloyd.seed_centers", None),
    (lloyd, "centroid_step", "lloyd.centroid_step", None),
    (lloyd, "run", "lloyd.run", None),
    (flow, "TransshipmentInstance", "flow.instance", None),
    (flow, "solve_mcf", "flow.solve_mcf", None),
    (flow, "certify", "flow.certify", None),
    (geometry, "compute_cells", "geometry.compute_cells", None),
    (geometry, "diagram_stats", "geometry.diagram_stats", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in PATCHES})


def install(tracer: Tracer) -> None:
    for owner, attr, name, when in PATCHES:
        tracer.patch(owner, attr, name, when)
