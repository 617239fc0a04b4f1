"""`perfbench/run.py --trace 1` wraps each (module, attribute) listed in
`perfbench/spans.py`; a refactor that renames one breaks the traced run. The
traced run also loads `tests/conftest.py` outside pytest, and can check its
decodes with conftest.replay_problems."""

import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
CONFTEST = Path(__file__).resolve().with_name("conftest.py")


def test_every_traced_call_site_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert targets
    for module, attr, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_replay_rule_is_a_plain_function_outside_pytest(monkeypatch):
    # As perfbench/inputs.py::load_generator loads it: from its file, under
    # another module name, so no fixture machinery stands behind it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("irec_trace_conftest", CONFTEST)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    assert inspect.isfunction(conftest.replay_problems)
    assert list(inspect.signature(conftest.replay_problems).parameters) == [
        "data", "latent_dim", "calls"
    ]
    data = conftest.raw_v4([(1,)], 37, seed=0)  # one block: K = 1, index 1
    assert conftest.replay_problems(data, 8, [((0, 0, 0, 1, 4), 4)]) == []
    assert conftest.replay_problems(data, 8, [])
