"""Golden pins of the 012-row paths under the weak policies and the filters.

var-012 and clause-012 under ``none``/``test1``/``test12``, the weight
filter on both methods, the complement filter and ``enumerate_dnf_k`` all
build, test and emit 012-rows.  The values below were recorded from the
version whose 012-rows were a tuple of one symbol per variable; any rewrite
of the row representation must reproduce them exactly: the row file, the
row count, the harmful deletions and the filter counters.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from wildsat.bench import GenSpec, gen_random_cnf
from wildsat.engine import (
    EngineConfig,
    Method,
    Policy,
    WeightFilter,
    enumerate_dnf_k,
    enumerate_from_complement,
    run,
)
from wildsat.formulas import Dnf
from wildsat.rows import Row012, RowList, format_rows

# case -> (rows, solver_calls, harmful_deletions, weight_pruned, weight_discards,
#          sha256 of the row file)
GOLDEN = {
    ('var012/none', True, 1): (
        316, 0, 708, 0, 0,
        'e85acab745f00499b6579cca4e19a03ced01cbe8047369eccbc7246cc69f11df',
    ),
    ('var012/none', True, 2): (
        321, 0, 703, 0, 0,
        '95300c8838b8866e68a29d1e09e4e7de6ccde93efa3a6320c360cac6a36179b5',
    ),
    ('var012/none', False, 1): (
        68, 0, 956, 0, 0,
        'e85201a103e0be78a397a4624fff9f0986d026027c8fdbb658b2d3f5d0f5ec9a',
    ),
    ('var012/none', False, 2): (
        112, 0, 912, 0, 0,
        '3513db1d6c70d9262e3606b258c698607d9c5056461fa77bca493d00b2b39f3f',
    ),
    ('var012/test1', True, 1): (
        316, 0, 0, 0, 0,
        'e85acab745f00499b6579cca4e19a03ced01cbe8047369eccbc7246cc69f11df',
    ),
    ('var012/test1', False, 1): (
        68, 0, 30, 0, 0,
        'e85201a103e0be78a397a4624fff9f0986d026027c8fdbb658b2d3f5d0f5ec9a',
    ),
    ('var012/test1', False, 2): (
        112, 0, 88, 0, 0,
        '3513db1d6c70d9262e3606b258c698607d9c5056461fa77bca493d00b2b39f3f',
    ),
    ('var012/test12', True, 1): (
        316, 0, 0, 0, 0,
        'e85acab745f00499b6579cca4e19a03ced01cbe8047369eccbc7246cc69f11df',
    ),
    ('var012/test12', False, 1): (
        68, 0, 8, 0, 0,
        'e85201a103e0be78a397a4624fff9f0986d026027c8fdbb658b2d3f5d0f5ec9a',
    ),
    ('var012/test12', False, 2): (
        112, 0, 26, 0, 0,
        '3513db1d6c70d9262e3606b258c698607d9c5056461fa77bca493d00b2b39f3f',
    ),
    ('clause012/test1', True, 1): (
        66, 0, 0, 0, 0,
        '11f71ba15e837bedf0228902982661651f3683ad9e3ffd73157fd4ba72164fd4',
    ),
    ('clause012/test1', False, 1): (
        18, 0, 21, 0, 0,
        'c9ec5f883995a15b45470407af6433a49fbf5dfde4dee687ccaa567a883beca9',
    ),
    ('clause012/test1', False, 2): (
        34, 0, 13, 0, 0,
        '1bb07509b9707efefdce2097a61b2a7c2c6f09b254ca76ddca7cb5ef4b60c666',
    ),
    ('clause012/test12', True, 1): (
        66, 0, 0, 0, 0,
        '11f71ba15e837bedf0228902982661651f3683ad9e3ffd73157fd4ba72164fd4',
    ),
    ('clause012/test12', False, 1): (
        18, 0, 7, 0, 0,
        'c9ec5f883995a15b45470407af6433a49fbf5dfde4dee687ccaa567a883beca9',
    ),
    ('clause012/test12', False, 2): (
        34, 0, 3, 0, 0,
        '1bb07509b9707efefdce2097a61b2a7c2c6f09b254ca76ddca7cb5ef4b60c666',
    ),
    ('var012/weight/solver', True, 1): (
        261, 393, 10, 99, 0,
        '5f56ee24b150a7414aea7bdd0f9bec0741f8ce6c30e23ba201cc84dbf4b3326c',
    ),
    ('var012/weight/solver', False, 1): (
        50, 148, 11, 33, 0,
        '2402187f62065f44808b80cf3fd962acb452a7a4d2151aa101a9c4c722e6311e',
    ),
    ('var012/weight/test12', False, 2): (
        87, 0, 31, 89, 0,
        'c48cf3fa575dbaa4fa79da0855675d1157c8db29297cf09e38fddfaacfd79233',
    ),
    ('clause012/weight/solver', True, 1): (
        69, 43, 0, 7, 36,
        '3420d91d5888515d0614d721874569997402b89a5f83d6638ea5072cbfed7841',
    ),
    ('clause012/weight/solver', False, 1): (
        28, 48, 8, 13, 6,
        'f9f488483f7025851f2ff074f8ab3534b0a268a14f90df5f9139b3d7034d1e86',
    ),
    ('clause012/weight/test1', False, 2): (
        62, 0, 4, 19, 16,
        '8259c256e253f8443b550ea8556588b380775da3c48a08a9e4e9c88c56338596',
    ),
    ('complement', False, 1): (
        823, 0, 0, 0, 0,
        '16655f9f9af061895aa4efae2c70cf361d6ea9101646a8c86832d00c10af5e76',
    ),
    ('complement', False, 3): (
        355, 0, 0, 0, 0,
        '759052460a558dfd06e86e95ffeed0763b59f0bf8058d42ee2b973d455cc467c',
    ),
    ('complement', True, 2): (
        776, 0, 0, 0, 0,
        '81b3db29554a30ab7122e3e75e2c38ec361b7050fe5a9d232397e464c3d9408f',
    ),
    ('dnf-k', False, 1): (
        205, 0, 0, 0, 0,
        '504b00bddb2037ba2485ac298f6c552b857ae957bd2ad618e911e3de0df02eab',
    ),
    ('dnf-k', False, 2): (
        298, 0, 0, 0, 0,
        'a036570114359a796e63e3a093579538c05291482cfb4fdb3b333c63a9dcacc3',
    ),
}

_POLICIES = {p.value: p for p in Policy}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _weights(seed: int, w: int) -> tuple[list[int], int]:
    rng = random.Random(seed)
    weights = [rng.randint(0, 4) for _ in range(2 * w)]
    return weights, sum(weights) // 2


def _dnf(seed: int, w: int, n: int) -> Dnf:
    rng = random.Random(seed)
    terms = [Row012(tuple(rng.choice((0, 1, 2, 2, 2)) for _ in range(w))) for _ in range(n)]
    return Dnf(w, tuple(terms))


def _run(case: str, positive: bool, seed: int):
    kind, _, policy = case.rpartition("/")
    if kind in ("var012", "clause012"):
        method = Method.VAR012 if kind == "var012" else Method.CLAUSE012
        cnf = gen_random_cnf(GenSpec(10, 20 if method == Method.VAR012 else 26, 3, positive, seed))
        return run(cnf, EngineConfig(method=method, policy=_POLICIES[policy]))
    if kind.endswith("/weight"):
        method = Method.VAR012 if kind.startswith("var012") else Method.CLAUSE012
        cnf = gen_random_cnf(GenSpec(10, 18, 3, positive, seed))
        weights, bound = _weights(seed, 10)
        config = EngineConfig(method=method, policy=_POLICIES[policy], spmod=WeightFilter(weights, bound))
        return run(cnf, config)
    if case == "complement":
        cnf = gen_random_cnf(GenSpec(12, 20, 3, positive, seed))
        comp = run(cnf, EngineConfig(method=Method.CLAUSE012))
        return enumerate_from_complement(RowList(comp.width, comp.rows))
    if case == "dnf-k":
        return enumerate_dnf_k(_dnf(seed, 11, 9), 4)
    raise KeyError(case)


def _observe(case: str, positive: bool, seed: int) -> tuple:
    out = _run(case, positive, seed)
    st = out.stats
    return (
        len(out),
        st.solver_calls,
        st.harmful_deletions,
        st.weight_pruned,
        st.weight_discards,
        _sha256(format_rows(out)),
    )


@pytest.mark.parametrize("case, positive, seed", sorted(GOLDEN))
def test_run_matches_golden(case, positive, seed):
    assert _observe(case, positive, seed) == GOLDEN[case, positive, seed]
