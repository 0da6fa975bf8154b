"""Smoke tests for the timing tools under ``tools/``, which reach into
``sumsetlab.core``'s internals: a rename there fails here."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rowwidth():
    spec = importlib.util.spec_from_file_location("rowwidth", ROOT / "tools" / "rowwidth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rowwidth_runs_an_engine_shape():
    """One engine shape of ``compare``, in the tool's own subprocess, as is
    and with the layout forced each way as ``calibrate`` does: all read the
    same values, each child reports that the rule packs this narrow shape,
    and no timed run reads a profile that the engine kept from the run
    before it.  Free, the engine builds the profile that its memo keeps, at
    r * k = 30; forced, it builds none there, so it times the layout it
    forces: packed builds its profile at h = 6 alone, and per t none.  A
    wide shape that the memo declines runs free: its child reports the
    rule's per-t pick and builds no profile."""
    rowwidth = _rowwidth()
    shape = next(s for s in rowwidth._compare_shapes() if s["name"] == "Z {0,1,2,3,7} h=r=6")
    src = str(ROOT / "src")
    shape = {**shape, "repeats": 1}
    free = rowwidth._run(shape, src)
    packed = rowwidth._run(shape, src, True)
    per_t = rowwidth._run(shape, src, False)
    assert free["digest"] == packed["digest"] == per_t["digest"]
    for run in (free, packed, per_t):
        assert run["s"] > 0 and run["peak_mb"] > 0
        assert run["memo_hits"] == 0
        assert run["rule"] is True
    assert free["profiles"] > 0 and free["heights"] == [30]
    assert packed["profiles"] > 0 and packed["heights"] == [6]
    assert per_t["profiles"] == 0 and per_t["heights"] == []
    wide = rowwidth._engine("Z {0,1,30000} h=2 r=1", [0, 1, 30_000], None, 2, 1, repeats=1)
    wide = rowwidth._run(wide, src)
    assert wide["rule"] is False and wide["profiles"] == 0
