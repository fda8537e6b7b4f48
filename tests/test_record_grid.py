"""The package against the committed record grid (``record_grid.py``): 1e-12 relative on
every value, but 10 times what a 4-ulp nudge of every gradient moved the kl and renyi groups
of small, desk and fig1, which amplify a last-digit change, when the file was written: their
weights absolute, at most 3.2e-10 (fig1 kl), and the rest relative, at most 3.1e-13 (desk)."""

import pytest

import record_grid


@pytest.mark.parametrize("block", record_grid.BLOCKS)
def test_package_matches_the_grid(block):
    (stored, tolerance), got = record_grid.load(), record_grid.run(block)
    gaps = {name: record_grid.difference(got.get(name, []), stored.get(name, [])).ravel()[[0, 1, 3]]
            for name in {*got, *(name for name in stored if name.startswith(f"{block}/"))}}
    assert {n: g.tolist() for n, g in gaps.items() if not (g <= tolerance.get(n, 0.0)).all()} == {}
