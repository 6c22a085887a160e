"""The README's library quick tour runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_values():
    scope: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(quick_tour(), str(README), "exec"), scope)
    assert np.array_equal(scope["traj"].moves[:2], [[55, 43], [49, 18]])
    assert (scope["t_mix"], scope["t2_mix"]) == (6, 9)
    assert scope["rep"].gap == 0.26429773960448266
    assert scope["est"].estimate == 8.611879299994747
    assert scope["v"].accepted
