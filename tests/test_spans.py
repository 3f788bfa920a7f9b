"""The benchmark tracer finds every name it wraps and puts each one back."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_tracer_install_resolves_every_name_and_uninstall_restores_it():
    # install() reads each original as owner.__dict__[attr], so a wrapped
    # name that was deleted or moved to another class raises KeyError here.
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._originals)
        assert wrapped
        for owner, attr, original in wrapped:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    assert not tracer.installed
    for owner, attr, original in wrapped:
        assert owner.__dict__[attr] is original
