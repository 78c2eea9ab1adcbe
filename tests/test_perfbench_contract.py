"""The names the benchmark's tracing patches and binds still exist.

perfbench/spans.py wraps functions at the attributes where callers look them
up, and some wrappers bind a parameter by name.  A rename there would show
only as a "span target missing" line in a traced benchmark run, or as a
wrapper error; here it fails a test.  spans.py is loaded from its file and
only read: loading it patches nothing.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from effectledger import consensus, org

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

TARGETS = [(owner, attr) for targets in spans.SPAN_TARGETS.values() for owner, attr in targets]
TARGETS += [(owner, attr) for owner, attr, _ in spans.LatencyProbe(1).replacements()]


@pytest.mark.parametrize(
    "owner, attr", TARGETS, ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS]
)
def test_span_target_exists(owner, attr):
    # spans.patched looks each target up in the owner's own namespace
    assert attr in vars(owner)


@pytest.mark.parametrize(
    "function, parameter",
    [
        (consensus.run_consensus, "fetch_vote"),
        (org.build_ledger_block, "digest"),
        (org.OrgNode.commit_pending, "transcript"),
    ],
)
def test_bound_parameter_exists(function, parameter):
    assert parameter in inspect.signature(function).parameters
