"""Oracle: the branching cursor picks what a full scan would pick.

``BranchAndBound._pick_branch`` resumes its scan of the branch order at
a cursor the parent node hands down, instead of rescanning from index 0.
That is only sound while the first undecided entry moves forward along
every path.  These tests copy the full-scan rule into :func:`scan_pick`
and check, at every node the search visits, that the cursor's choice
equals the scan's — under the guided and static strategies, across a
split and its subtree searches, and across a checkpoint resume.  Bounds and
heuristics play no part: the searches run ``BranchAndBound`` directly.
"""

from repro.core.edgestate import COMPONENT, UNDECIDED
from repro.core.search import BranchAndBound, BranchingOptions
from repro.instances import differential_instances

SEED = 2107
COUNT = 150
NODE_LIMIT = 400

STATIC = BranchingOptions(strategy="static")


def scan_pick(solver):
    """The full-scan branching rule: first undecided entry from index 0."""
    state = solver.model.state
    order = solver._branch_order
    if solver.branching.strategy == "static":
        for axis, u, v in order:
            if state[axis][u][v] == UNDECIDED:
                return (axis, u, v)
        return None
    time_axis = solver.instance.time_axis
    for axis, u, v in order:
        if axis == time_axis and state[axis][u][v] == UNDECIDED:
            return (axis, u, v)
    fallback = None
    time_state = state[time_axis]
    for axis, u, v in order:
        if axis != time_axis and state[axis][u][v] == UNDECIDED:
            if time_state[u][v] == COMPONENT:
                return (axis, u, v)
            if fallback is None:
                fallback = (axis, u, v)
    return fallback


class Oracle(BranchAndBound):
    """Checks every pick against :func:`scan_pick`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.picks = 0
        self.resumed = 0

    def _pick_branch(self, cursor):
        choice, after = super()._pick_branch(cursor)
        assert choice == scan_pick(self), (cursor, after)
        self.picks += 1
        self.resumed += after != (0, 0, 0)
        return choice, after


def _instances():
    return list(
        differential_instances(SEED, COUNT, max_container=6, max_boxes=8)
    )


def _run_all(**kwargs):
    picks = resumed = 0
    for instance in _instances():
        solver = Oracle(instance, node_limit=NODE_LIMIT, **kwargs)
        solver.solve()
        picks += solver.picks
        resumed += solver.resumed
    return picks, resumed


def test_guided_cursor_matches_scan():
    picks, resumed = _run_all()
    assert picks > 1000 and resumed > picks // 2


def test_static_cursor_matches_scan():
    picks, resumed = _run_all(branching=STATIC)
    assert picks > 1000 and resumed > picks // 2


def test_split_and_subtrees_match_scan():
    subtrees = 0
    for instance in _instances():
        splitter = Oracle(instance)
        result = splitter.split(4)
        for task in result.tasks:
            solver = Oracle(
                instance, subtree=task.prefix, node_limit=NODE_LIMIT
            )
            solver.solve()
            subtrees += 1
    assert subtrees >= COUNT // 2


def test_checkpoint_resume_matches_scan():
    resumes = 0
    for instance in _instances():
        partial = Oracle(instance, node_limit=8)
        status, _ = partial.solve()
        if status != "unknown" or not partial.checkpoint.decisions:
            continue
        resumed = Oracle(
            instance,
            resume_from=partial.checkpoint,
            node_limit=NODE_LIMIT,
        )
        resumed.solve()
        resumes += 1
    assert resumes >= 20
