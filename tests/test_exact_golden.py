"""Exact oracles at their size caps against recorded optimal values.

The brute-force comparisons elsewhere only reach n <= 8; these instances sit
at the caps (tsp n <= 15, trp n <= 13, ktsp n <= 12) where only the subset
dynamic program can answer.  The values were recorded from the package's
earlier pure-Python dynamic programs, one per oracle, and are stored as
``float.hex`` literals so they survive a round trip exactly.
"""

import pytest

from routebench import GridDensity, RandomSeed, ktsp_exact, sample_points, trp_exact, tsp_exact

UNIT = GridDensity.uniform(1)
TOL = 1e-12

TSP_GOLDEN = {
    13: "0x1.a86ad977320ecp+1",
    14: "0x1.d4f4f84d6a865p+1",
    15: "0x1.bcde71998ece5p+1",
}

TRP_GOLDEN = {
    12: "0x1.bbfdfa91464b2p+3",
    13: "0x1.b3b69c819391bp+3",
}

# one instance of 12 points, every k the dynamic program handles
KTSP_GOLDEN = {
    4: "0x1.92e1e483fb84ep-2",
    5: "0x1.38d1b94b59b60p-1",
    6: "0x1.acd66f9cbef42p-1",
    7: "0x1.307207a2aa8d0p+0",
    8: "0x1.655e2ea263e10p+0",
    9: "0x1.a5e893e2079ccp+0",
    10: "0x1.067c2b9cf0eaap+1",
    11: "0x1.29394b12693e2p+1",
    12: "0x1.4ee2a4ec3dc74p+1",
}


@pytest.mark.parametrize("n", sorted(TSP_GOLDEN))
def test_tsp_exact_golden(n):
    ps = sample_points(UNIT, n, RandomSeed(710, n))
    result = tsp_exact(ps)
    assert result.length == pytest.approx(float.fromhex(TSP_GOLDEN[n]), abs=TOL)
    assert result.route.closed
    assert sorted(result.route.order) == list(range(n))
    assert result.route.order[0] == 0


@pytest.mark.parametrize("n", sorted(TRP_GOLDEN))
def test_trp_exact_golden(n):
    ps = sample_points(UNIT, n, RandomSeed(711, n))
    result = trp_exact(ps)
    assert result.latency == pytest.approx(float.fromhex(TRP_GOLDEN[n]), abs=TOL)
    assert not result.route.closed
    assert sorted(result.route.order) == list(range(n))


@pytest.mark.parametrize("k", sorted(KTSP_GOLDEN))
def test_ktsp_exact_golden(k):
    ps = sample_points(UNIT, 12, RandomSeed(712, 12))
    result = ktsp_exact(ps, k)
    assert result.length == pytest.approx(float.fromhex(KTSP_GOLDEN[k]), abs=TOL)
    assert not result.route.closed
    order = result.route.order
    assert len(order) == k == len(set(order))
    assert all(0 <= i < 12 for i in order)
