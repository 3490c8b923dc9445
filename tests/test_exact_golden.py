"""Exact oracles on larger instances against recorded optimal values.

The brute-force comparisons elsewhere only reach n <= 8; these instances
reach n = 21 at k = 4 and n = 20 at k = 7 for ktsp and the size caps of
tsp (n <= 18) and trp (n <= 17), where only the subset dynamic program can
answer.  The ktsp sizes were its caps when they were recorded; the caps
have since grown to n <= 58 at k = 4 and n <= 22 at k = 7.  The values up
to n = 15 were recorded from the package's earlier pure-Python dynamic
programs, one per oracle, and those at n >= 17 from the numpy kernel with
its numpy walk-back; all are stored as ``float.hex`` literals so they
survive a round trip exactly.
"""

import hashlib

import pytest

from routebench import (
    GridDensity,
    PointSet,
    RandomSeed,
    Route,
    Square,
    ktsp_exact,
    sample_points,
    trp_exact,
    tsp_exact,
)

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


# ---------------------------------------------------------------------------
# Routes and tie breaks
#
# Each case pins the value bit for bit (``float.hex``, compared with ``==``)
# and the route by the sha256 of its order.  Random instances check the
# arithmetic; lattice instances, on integer coordinates where many distances
# are equal, and stacked instances, where every point coincides and every
# distance is 0, check that ties go to the same route as before.

LATTICE = Square((0.0, 0.0), 4.0)


def _instance(kind: str, n: int) -> PointSet:
    if kind == "random":
        return sample_points(UNIT, n, RandomSeed(720, n))
    if kind == "lattice":  # row-major on a 5 x 5 integer grid
        return PointSet([(i % 5, i // 5) for i in range(n)], LATTICE)
    return PointSet([(1.0, 3.0)] * n, LATTICE)  # stacked


def _pin(value: float, route: Route) -> tuple[str, str]:
    return value.hex(), hashlib.sha256(repr(route.order).encode()).hexdigest()


KINDS = ("random", "lattice", "stacked")
# each kind once more at the tsp and trp caps and at (21, 4) and (20, 7),
# the ktsp caps when recorded: the only sizes at which a walk-back step
# handles more than 15 points
TSP_CASES = [("random", n) for n in (4, 7, 10, 13, 15)] + [("lattice", 12), ("lattice", 15), ("stacked", 9)]
TSP_CASES += [(kind, 18) for kind in KINDS]
TRP_CASES = [("random", n) for n in (4, 7, 10, 13)] + [("lattice", 10), ("lattice", 13), ("stacked", 8)]
TRP_CASES += [(kind, 17) for kind in KINDS]
KTSP_CASES = [("random", 9, k) for k in range(2, 10)] + [(kind, 12, k) for kind in KINDS for k in range(2, 13)]
KTSP_CASES += [(kind, n, k) for kind in KINDS for n, k in ((21, 4), (20, 7))]

TSP_PINS = {
    ('random', 4): ("0x1.f8b241087f95bp+0", "c488d5c0fe8e8bd1d025e255f569afd64d2378fe49e3efa3fdbd0113d6195fc0"),
    ('random', 7): ("0x1.1dc1261693bb2p+1", "2fedf5a367c3625ece9a70454bf98c1470c1d6cb4d74c8271277fa34d9541cfb"),
    ('random', 10): ("0x1.7686ba811e3d1p+1", "d5efbed85a0290f332f969f0ae4caffb19fdc812efc1654b073935b4946d0957"),
    ('random', 13): ("0x1.d73fc0db69ef0p+1", "d4de43324ee5f167dc5a724cfd665c1238c5ac4a9a4e8a1ec0a2f5d7c0419b74"),
    ('random', 15): ("0x1.9f4e09c8624e9p+1", "2f26f487b827d2b0874de83481f7d2109b3169aa3a0412beb9aa3a3a12c81e87"),
    ('lattice', 12): ("0x1.8000000000000p+3", "373dbd1c80ec2f55cc58eb2f480c435cc9c260568f922c2ad89a5876dcdde6b3"),
    ('lattice', 15): ("0x1.ed413cccfe77ap+3", "cbf3fbab79fb808f1c5d1b8e4284600d2b676f05f9e71053f78602d1e7256127"),
    ('stacked', 9): ("0x0.0p+0", "f398a1269d4910332cb6e953fc4caf40c9461f78f4ef29465001ca6da38b28ae"),
    ('random', 18): ("0x1.00fdc1ee434ccp+2", "362596a7e4d01d8110ed13c0e0778f81ee88d77412b58396f9200335e0f15744"),
    ('lattice', 18): ("0x1.2000000000000p+4", "d4556a45eb05b2c65d141de9e90dfa53d56b7598ef592488e4d6a32dc3e33eaa"),
    ('stacked', 18): ("0x0.0p+0", "856620ceea2eab53e3c9f91a3b5d303d2e57ae76497f50787978e403fbbf752e"),
}
TRP_PINS = {
    ('random', 4): ("0x1.f5b2739c6ed27p+0", "d403258c4433091b856e3e8e0cc590b0470f4501a0668d72d82b6a1b4d6c144a"),
    ('random', 7): ("0x1.5e82bb61bcf8dp+2", "6a4fe88a30765a76239f52f4ce7f406e1fba45b71babadec71037a55704adb85"),
    ('random', 10): ("0x1.47823e000e87ap+3", "ec95d2027562501f204d318d46a0c1021789297e0fe54e2cbf109ae57c68a5fb"),
    ('random', 13): ("0x1.1f297dfc0071bp+4", "2d8a51948052eb8fd9d47dd82f70548a047ab5a0d6df13f601998ba29c20a8c8"),
    ('lattice', 10): ("0x1.6800000000000p+5", "b92307f6d3a9a5fab2e5391ccc29494ef5493e4229c161a5960124ba83806e65"),
    ('lattice', 13): ("0x1.3800000000000p+6", "941e26f33555273e9321c37d3e821abf9ac0c5d92284b64d3b62324ccf40ba67"),
    ('stacked', 8): ("0x0.0p+0", "f366d51b718610efe3f640a46db42178a60a2d723e4b1fbe39d7a2a2964303c5"),
    ('random', 17): ("0x1.84ba092075f4ap+4", "b79cbbe0daa462b34a03655ee3c0178b82a8199571fa9282902dbc416d84fd17"),
    ('lattice', 17): ("0x1.1000000000000p+7", "d6db8823d527a011216a50c9a717037bcd5d6d1dc137672474399b34d5aa38b6"),
    ('stacked', 17): ("0x0.0p+0", "b353a4f8ce734fe99ef77fc4e24b4b3a9317d88d529d3528bc1a473c091aa35f"),
}
KTSP_PINS = {
    ('random', 9, 2): ("0x1.0e5d8bc2b1e96p-4", "a94009aa79e42e48543a393364daf4094057596ab8438988490854fa49b30efe"),
    ('random', 9, 3): ("0x1.42d1b88cadb83p-2", "54a31c10b0f30327bb2ffb2503e9706da32ef9aa0bc412b78d6b079ae68cf95d"),
    ('random', 9, 4): ("0x1.418a6b99dfa24p-1", "f61fc35e0d08b94bbb6b13cc37aa73b5e416a6c5987acc42d9c6b35adc6670a3"),
    ('random', 9, 5): ("0x1.ccc7f8faacd0ep-1", "9eef4b6ef447ea8831c4c27d517868cf2d73c044405af149e0350f15a068845c"),
    ('random', 9, 6): ("0x1.43b40a96d80b3p+0", "17533f169452ee23a1de1d3f43818ab28ffb398e18fb666bc0349864fecd4940"),
    ('random', 9, 7): ("0x1.7a72d68881420p+0", "f17fceb178da2b5cfd36b87c2408b880a3e9d417d58aa27e7828454e7c7d2c8c"),
    ('random', 9, 8): ("0x1.ba416bef81917p+0", "8e0378af79db680ccfd5d0ca3c00282d2c09ed827c3546389b805b059d624649"),
    ('random', 9, 9): ("0x1.0aaa790e541d0p+1", "b3a592b583fe42cd31c686c553345386c5e940f5d520cc9d3a41309f5b66c953"),
    ('random', 12, 2): ("0x1.3b39fb5d335ddp-5", "5fb7cb4e5e77919c2aef478404afe58f4961110bce2b971e3b5b9b509614e043"),
    ('random', 12, 3): ("0x1.75941277ae124p-4", "74d8def91997e915ad44af3e6febca6a96c749672ef202fd86c1513bf9583362"),
    ('random', 12, 4): ("0x1.742b29426d29ap-3", "bdc2fc1f36003c3b60eb541e40b81c7a1dd22860fbe04afc8fd8276a6aab9894"),
    ('random', 12, 5): ("0x1.49a0135afd2f4p-2", "26c90cdde3e3c4e1dcb011805d1d2dc5e1032067b57d2e9cd1df92a6e3beedf3"),
    ('random', 12, 6): ("0x1.b2615082d0509p-2", "be2a804eab30ce40633915e07c6e80a11be6e9d5502b839ef2b7b4be81695d94"),
    ('random', 12, 7): ("0x1.49e8e1aea4e68p-1", "04a5dfc78a45ec7b4423024979a9391b612f5a918c98b057ac8699c9ec8b2600"),
    ('random', 12, 8): ("0x1.bb0f60d944b59p-1", "1152d45f59bfbcd48e51268aaf2e1feb369d8284b08f8d25e1ab1092cdbb29cd"),
    ('random', 12, 9): ("0x1.219ff15754cbdp+0", "29f5714c4e7e416e7982b098233b0da87ff4f59a9dc6a26b717a24e085c47c03"),
    ('random', 12, 10): ("0x1.68c81930ad5cap+0", "b80c1c2ac04e57d8c43df3ba0a7b8eede9f6e29bcd4e41cdf9a0f91c930f4f2d"),
    ('random', 12, 11): ("0x1.a3c32cb3d32dep+0", "13d8ff7f58bdb6e5d2d978d61e3222bcead855ce398c1bb420d33f4691a8c7cd"),
    ('random', 12, 12): ("0x1.11499b7889a3bp+1", "09c5848546e89a493ff1b951ffed98f1da8ca34bd6fb7b86273067c7456b5d69"),
    ('lattice', 12, 2): ("0x1.0000000000000p+0", "a5cabe61309cbdb1d6a67e597b1659243a076817ce37626014228bde43e86d2d"),
    ('lattice', 12, 3): ("0x1.0000000000000p+1", "84ff5504d8e7c5102386aab9108f2956752d65da4f36ba066f20e396c2e135bb"),
    ('lattice', 12, 4): ("0x1.8000000000000p+1", "c5c25158dde5b90a643a2185451fc876735019befa3aa97c963d56eaae22476b"),
    ('lattice', 12, 5): ("0x1.0000000000000p+2", "93f21536d27c36affb5a7ba4bcd60a9250d4c3d1c47ffb134af9f8b7241a448d"),
    ('lattice', 12, 6): ("0x1.4000000000000p+2", "8c680828304248ff8f02a352df893778579f2330223c02652b6669e4bd3b9844"),
    ('lattice', 12, 7): ("0x1.8000000000000p+2", "fb1d95ef622e9fbe325a35ff88618ea1c6a7621b4e64955fec559856b182d879"),
    ('lattice', 12, 8): ("0x1.c000000000000p+2", "dc2c87527ba73d8fb6de83bc3770266f4555c48843b2ae232326eeccadd6b69a"),
    ('lattice', 12, 9): ("0x1.0000000000000p+3", "9d38d987608300282a02e0c3e0739dc5b2ac6bb3af27f1c064c73194837f52ef"),
    ('lattice', 12, 10): ("0x1.2000000000000p+3", "fccc3f3c5d5454f57395419b40a869b0e59bc3c5a3c3697c92553a3239ccf812"),
    ('lattice', 12, 11): ("0x1.4000000000000p+3", "8cfb3cd64fc618d3748bc43f08332699072abbd40d675f911f84bbdb9517f726"),
    ('lattice', 12, 12): ("0x1.6000000000000p+3", "e3fa7ccb616d44965948e0a75a9d3339e6d336988fa0f1d29faafb1e2d3923d9"),
    ('stacked', 12, 2): ("0x0.0p+0", "a5cabe61309cbdb1d6a67e597b1659243a076817ce37626014228bde43e86d2d"),
    ('stacked', 12, 3): ("0x0.0p+0", "d8e4e3e5a544ac075ba31205c94dcf4fc326c027e2586efed54793a274ca457c"),
    ('stacked', 12, 4): ("0x0.0p+0", "a6fdd07451679bb882ba637e3e8d116dcb02f45584463ad92ce2b622fc5edd10"),
    ('stacked', 12, 5): ("0x0.0p+0", "bbaf8904d2b078bcb8eabc7e22f5f6db9161255e1a6c5b2a9ac3079f1cb809f6"),
    ('stacked', 12, 6): ("0x0.0p+0", "8c680828304248ff8f02a352df893778579f2330223c02652b6669e4bd3b9844"),
    ('stacked', 12, 7): ("0x0.0p+0", "77dd42642074d791cd0e0bda2cb06104153c6629d917dc8e91bf5145787d401b"),
    ('stacked', 12, 8): ("0x0.0p+0", "146467a391fa51ef89579f33537f579347705dfc547a7c4b8fdf65f2f006e2b4"),
    ('stacked', 12, 9): ("0x0.0p+0", "4770b1014942eee7f25d0c3acbfdf1553838c592e6a4f2ae606c16f998e06708"),
    ('stacked', 12, 10): ("0x0.0p+0", "ee2956bd5ba6b7b85a5d140a83e2c504945879b36bac15209700b511d73f0906"),
    ('stacked', 12, 11): ("0x0.0p+0", "4bc9637bf3dbcc8825c98afa2e319af7cb356c98c9a62b92bfe3973a3e0cd31f"),
    ('stacked', 12, 12): ("0x0.0p+0", "b2035b0af6dcfa8a2b15917e4b467a85fcd168cc1dd49587f24aa251f3e631e1"),
    ('random', 21, 4): ("0x1.07c57b2213d80p-2", "6449cf6b1e8064784d161058382f130ab6118ebd97e1a28c594be6b5c4795af4"),
    ('random', 20, 7): ("0x1.316ab4da7e40cp-1", "d2ffe346e688a63735f1e697fc55cb78fa71915b080ca89915e5d9776b364f35"),
    ('lattice', 21, 4): ("0x1.8000000000000p+1", "c5c25158dde5b90a643a2185451fc876735019befa3aa97c963d56eaae22476b"),
    ('lattice', 20, 7): ("0x1.8000000000000p+2", "fb1d95ef622e9fbe325a35ff88618ea1c6a7621b4e64955fec559856b182d879"),
    ('stacked', 21, 4): ("0x0.0p+0", "a6fdd07451679bb882ba637e3e8d116dcb02f45584463ad92ce2b622fc5edd10"),
    ('stacked', 20, 7): ("0x0.0p+0", "77dd42642074d791cd0e0bda2cb06104153c6629d917dc8e91bf5145787d401b"),
}


@pytest.mark.parametrize("kind, n", TSP_CASES)
def test_tsp_exact_route_pinned(kind, n):
    result = tsp_exact(_instance(kind, n))
    assert _pin(result.length, result.route) == TSP_PINS[kind, n]


@pytest.mark.parametrize("kind, n", TRP_CASES)
def test_trp_exact_route_pinned(kind, n):
    result = trp_exact(_instance(kind, n))
    assert _pin(result.latency, result.route) == TRP_PINS[kind, n]


@pytest.mark.parametrize("kind, n, k", KTSP_CASES)
def test_ktsp_exact_route_pinned(kind, n, k):
    result = ktsp_exact(_instance(kind, n), k)
    assert _pin(result.length, result.route) == KTSP_PINS[kind, n, k]
