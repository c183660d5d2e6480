"""The benchmark's per-layer trace hooks install on the package and come off cleanly."""

import sys
from pathlib import Path

import tubecomp.cli  # noqa: F401  (loads every module the tracer wraps)
from tubecomp import verification

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def attributes() -> dict:
    """Every tubecomp module attribute, class attribute and check, by identity."""
    seen = {("checks", name): fn for name, fn in verification.CHECK_DISPATCH.items()}
    for modname, mod in list(sys.modules.items()):
        if modname == "tubecomp" or modname.startswith("tubecomp."):
            for attr, value in vars(mod).items():
                seen[(modname, attr)] = value
                if isinstance(value, type):
                    seen.update({(modname, attr, a): v for a, v in vars(value).items()})
    return seen


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import SPANS, Tracer

    before = attributes()
    tracer = Tracer()
    tracer.install()   # raises if a traced name is gone
    try:
        wrapped = {key for key, value in attributes().items() if before[key] is not value}
        assert ("tubecomp.cli", "cmd_verify") in wrapped
        assert len(wrapped) >= len(SPANS)
    finally:
        tracer.uninstall()
    after = attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
