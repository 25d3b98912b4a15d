"""A fault plan is a trust boundary (``--faults PLAN.json``): whatever a
mutated plan file holds, ``FaultPlan.loads`` returns a plan or raises
``FaultPlanError`` — never another exception — and a plan it returns
serialises and parses back to itself."""

import copy
import json

from hypothesis import example, given, settings, strategies as st

from repro.faults import FaultPlan, FaultPlanError

#: One event of every kind plus a random load: every field a plan has.
VALID = {
    "events": [
        {"time": 2.0, "kind": "node_crash", "node": 1, "duration": 1.5},
        {"time": 5.0, "kind": "link_blackout", "node": 1, "peer": 2,
         "duration": 1.0},
        {"time": 1.0, "kind": "error_burst", "duration": 2.0,
         "model": {"kind": "gilbert_elliott", "ber_bad": 0.05}},
        {"time": 3.0, "kind": "queue_spike", "node": 2, "capacity": 3,
         "duration": 1.0},
        {"time": 4.0, "kind": "partition", "groups": [[0, 1], [2, 3]],
         "duration": 1.0},
    ],
    "random": {"crashes": 1, "blackouts": 1, "crash_downtime": 2.0,
               "blackout_duration": 1.0, "start": 1.0, "nodes": [1, 2]},
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(min_value=10 ** 310, max_value=10 ** 320)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)

#: Names a mutation may insert: the plan's own, so inserts hit real fields.
field_names = st.sampled_from(
    ["events", "random", "time", "kind", "node", "peer", "duration",
     "capacity", "model", "groups", "crashes", "nodes", "start", "per", "x"])


def containers(tree, path=()):
    """The path to every dict and list in ``tree``, the root included."""
    if isinstance(tree, (dict, list)):
        yield path
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for key, child in items:
            yield from containers(child, path + (key,))


def at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@st.composite
def mutated_plans(draw):
    plan = copy.deepcopy(VALID)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(containers(plan))
        if not paths:  # the document became a scalar
            break
        path = draw(st.sampled_from(paths))
        node = at(plan, path)
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "insert" or not keys:
            value = draw(json_values)
            if isinstance(node, dict):
                node[draw(field_names)] = value
            else:
                node.insert(draw(st.integers(0, len(node))), value)
        elif op == "delete":
            del node[draw(st.sampled_from(keys))]
        elif path == () and draw(st.booleans()):
            plan = draw(json_values)  # the whole document
        else:
            node[draw(st.sampled_from(keys))] = draw(json_values)
    return plan


@settings(deadline=None)
@given(plan=mutated_plans(), cut=st.none() | st.integers(0, 2000))
@example(plan={"events": 5}, cut=None)
@example(plan={"events": ["ab"]}, cut=None)
@example(plan={"random": "x"}, cut=None)
@example(plan={"events": [{"time": 1.0, "kind": "error_burst",
                           "model": "x", "duration": 1.0}]}, cut=None)
@example(plan={"events": [{"time": 1.0, "kind": "node_crash",
                           "node": "a"}]}, cut=None)
@example(plan={"events": [{"time": float("nan"), "kind": "node_crash",
                           "node": 1}]}, cut=None)
def test_a_mutated_plan_parses_or_raises_fault_plan_error(plan, cut):
    text = json.dumps(plan)
    if cut is not None:
        text = text[:cut]
    try:
        parsed = FaultPlan.loads(text)
    except FaultPlanError:
        return
    rendered = json.dumps(parsed.to_dict(), sort_keys=True)
    again = FaultPlan.loads(rendered)
    assert json.dumps(again.to_dict(), sort_keys=True) == rendered


def test_deep_nesting_is_a_fault_plan_error():
    try:
        FaultPlan.loads("[" * 100_000 + "]" * 100_000)
    except FaultPlanError as exc:
        assert "not valid JSON" in str(exc)
    else:
        raise AssertionError("100 000 nested brackets parsed as a plan")
