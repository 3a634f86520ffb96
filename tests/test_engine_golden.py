"""Golden pins of the 012-row paths under the weak policies and the filters.

var-012 and clause-012 under ``none``/``test1``/``test12``, the weight
filter on both methods, the complement filter and ``enumerate_dnf_k`` all
build, test and emit 012-rows.  The values below were recorded from the
version whose 012-rows were a tuple of one symbol per variable; any rewrite
of the row representation must reproduce them exactly: the row file, the
row count, the harmful deletions and the filter counters.

The pop logs pin the order in which the driver goes down the stack: for
each method under the solver, a plugged solver, the weak tests and none,
for the weight filter on clause-012 and the cardinality filter on var-012,
every ``on_pop`` call (row, degree, stack depth, rows emitted) and every
``on_emit`` row.  They were recorded before the driver admitted every son
in one loop, and any rewrite of the driver must reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from wildsat.bench import GenSpec, gen_random_cnf
from wildsat.engine import (
    CardinalityFilter,
    EngineConfig,
    EngineObserver,
    Method,
    Policy,
    WeightFilter,
    enumerate_dnf_k,
    enumerate_from_complement,
    run,
)
from wildsat.formulas import Dnf
from wildsat.rows import Row012, RowList, format_rows
from wildsat.sat import dpll_sat

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


# ---------------------------------------------------------------------------
# Pop logs: the driver's descent order, as the observer sees it

# case -> (pops, sha256 of the on_pop log as "row degree depth emitted"
#          lines, emits, sha256 of the on_emit log as row lines)
POP_GOLDEN = {
    ('clause-e/none', False, 1): (
        38, 'be7e236fff13d4f1369b75db7b0558b1d6b264b7cfb75a434b40e56d3a0b512b',
        14, '3b7ddd32f4f16016d7b145a9024cb0421a50373f7fce8e21103e599a3b5f7e89',
    ),
    ('clause-e/none', True, 2): (
        47, '32d87cdedcab46f54d8d02cdb3e0ed3b9932bab27ff245edc783bfb4467a6ba1',
        16, '84eceb22b55efd54f48c75607eb154b41b7f47203a6dc589350d4534327b6e62',
    ),
    ('clause-e/plug', False, 1): (
        37, '0f2f70eb071ee289700f3b9a9d46fda4a5bc62b5bc5d38dec55d80ee0f2a51bc',
        14, '3b7ddd32f4f16016d7b145a9024cb0421a50373f7fce8e21103e599a3b5f7e89',
    ),
    ('clause-e/plug', True, 2): (
        45, '29bcb4bd9baef6a3d29c77092f86dbae24703a5cf19d17220bbd46c8e0018078',
        16, '84eceb22b55efd54f48c75607eb154b41b7f47203a6dc589350d4534327b6e62',
    ),
    ('clause-e/solver', False, 1): (
        37, '0f2f70eb071ee289700f3b9a9d46fda4a5bc62b5bc5d38dec55d80ee0f2a51bc',
        14, '3b7ddd32f4f16016d7b145a9024cb0421a50373f7fce8e21103e599a3b5f7e89',
    ),
    ('clause-e/solver', True, 2): (
        45, '29bcb4bd9baef6a3d29c77092f86dbae24703a5cf19d17220bbd46c8e0018078',
        16, '84eceb22b55efd54f48c75607eb154b41b7f47203a6dc589350d4534327b6e62',
    ),
    ('clause-e/test1', True, 2): (
        45, '29bcb4bd9baef6a3d29c77092f86dbae24703a5cf19d17220bbd46c8e0018078',
        16, '84eceb22b55efd54f48c75607eb154b41b7f47203a6dc589350d4534327b6e62',
    ),
    ('clause-e/test1', True, 3): (
        41, '1edc2c19083e8b93568dbc30264ac53d1bb11d8e7cae30ba67ba114bd02e80c0',
        16, '632bfd65a641871ad16c3666e25869523816884bfc43e10b7f0e982ceb4997a0',
    ),
    ('clause012/none', False, 1): (
        67, 'bc02bc612b6879d2ac8b74e1a849a3f71c5d822a1874c0d8c8f8303d42613709',
        18, 'd39240f51b831362261f2a1bc87554a05c21aace8c235f91349b8fa99e2a8768',
    ),
    ('clause012/none', True, 2): (
        69, 'c6b62d634dc7ddf56d6d087582a6add6688eb944f5f717abae25843914685e64',
        30, 'f30efa37ac086a31f4fbeca696f3f361de6cc72ee310682692d5e25ffb01fd3e',
    ),
    ('clause012/plug', False, 1): (
        53, '86cb9d205648e7335d41258d04e39952a48ddb7b514fccf3f912ef124b7d7c7a',
        18, 'd39240f51b831362261f2a1bc87554a05c21aace8c235f91349b8fa99e2a8768',
    ),
    ('clause012/plug', True, 2): (
        63, '642194b501341377f5c7474f966f0e0078fc01986b0b4ab1780e3b0dafbcfc28',
        30, 'f30efa37ac086a31f4fbeca696f3f361de6cc72ee310682692d5e25ffb01fd3e',
    ),
    ('clause012/solver', False, 1): (
        53, '86cb9d205648e7335d41258d04e39952a48ddb7b514fccf3f912ef124b7d7c7a',
        18, 'd39240f51b831362261f2a1bc87554a05c21aace8c235f91349b8fa99e2a8768',
    ),
    ('clause012/solver', True, 2): (
        63, '642194b501341377f5c7474f966f0e0078fc01986b0b4ab1780e3b0dafbcfc28',
        30, 'f30efa37ac086a31f4fbeca696f3f361de6cc72ee310682692d5e25ffb01fd3e',
    ),
    ('clause012/test1', False, 1): (
        54, '2cfb591211e82559a1b1c922f0f8e6397b173f7bb895def0abda39db56e66b30',
        18, 'd39240f51b831362261f2a1bc87554a05c21aace8c235f91349b8fa99e2a8768',
    ),
    ('clause012/test1', True, 2): (
        63, '642194b501341377f5c7474f966f0e0078fc01986b0b4ab1780e3b0dafbcfc28',
        30, 'f30efa37ac086a31f4fbeca696f3f361de6cc72ee310682692d5e25ffb01fd3e',
    ),
    ('clause012/test12', False, 1): (
        53, '86cb9d205648e7335d41258d04e39952a48ddb7b514fccf3f912ef124b7d7c7a',
        18, 'd39240f51b831362261f2a1bc87554a05c21aace8c235f91349b8fa99e2a8768',
    ),
    ('clause012/test12', True, 2): (
        63, '642194b501341377f5c7474f966f0e0078fc01986b0b4ab1780e3b0dafbcfc28',
        30, 'f30efa37ac086a31f4fbeca696f3f361de6cc72ee310682692d5e25ffb01fd3e',
    ),
    ('clause012/weight/none', False, 1): (
        47, '04f251738a95c6d3f2e95856ab6305b7483b9f341ea1e0346a486dcadcb88bc7',
        9, '7e90956161e2ceaf9c04427ac5cac0990271e8299aa0bc0e656385309e01cd85',
    ),
    ('clause012/weight/none', True, 2): (
        42, 'f91461017322aa3b53d02e43801b5067608be27de38b0e0fb9ebe0a6d92a9a07',
        15, 'cb73da0d7efa106545688c3f2960da72d3cbc52cb8e6f84a5aaf9bbb645df9bc',
    ),
    ('clause012/weight/solver', False, 1): (
        36, '922a5d1bf818e9d2231f3fe4d92ab98d31d8ca6e2a074c5bcef0dfc81a573086',
        9, '7e90956161e2ceaf9c04427ac5cac0990271e8299aa0bc0e656385309e01cd85',
    ),
    ('clause012/weight/solver', True, 2): (
        38, '5c51f660a532c884d2c9a0dfd2007d23b109a3e53f4b51fee26ce531d0b6b24c',
        15, 'cb73da0d7efa106545688c3f2960da72d3cbc52cb8e6f84a5aaf9bbb645df9bc',
    ),
    ('clause012/weight/test1', False, 1): (
        37, 'ada5acb5c43d26fdd11fa352c558f4d683dd9f7f3651c46170da0983ba5002d9',
        9, '7e90956161e2ceaf9c04427ac5cac0990271e8299aa0bc0e656385309e01cd85',
    ),
    ('clause012/weight/test1', True, 2): (
        38, '5c51f660a532c884d2c9a0dfd2007d23b109a3e53f4b51fee26ce531d0b6b24c',
        15, 'cb73da0d7efa106545688c3f2960da72d3cbc52cb8e6f84a5aaf9bbb645df9bc',
    ),
    ('var012/k/solver', False, 1): (
        87, 'f0720d98890dc8a02e736c87d40f71ff4cd0f5849907a42e96aa20cbc9063d2d',
        17, 'ae8cbb795e70e43179ed645e5b5e8c307a49b34ec31c5b7eb8efde24814dec4a',
    ),
    ('var012/k/solver', True, 2): (
        94, '6802de000c34d360c7206f1dcef55c3cd8c40b07176609236b8cc3a61d6c2adf',
        20, '235ccb4902dab244235157c79222323e88fa5d530fc3b26ccc51dd04cdfdbf78',
    ),
    ('var012/none', False, 1): (
        511, 'ddd2f7598a20504eac11cc9d7b7d0be9c8f3e0aa30764cb07b15e94dc680cf60',
        47, '6e49f460d6bc0ef9811a1e6c68291bb9b901cac47cd37c1bb6c9bd3c06defa7c',
    ),
    ('var012/none', True, 2): (
        511, '33bed0b68168be9f709e4787c4f765267e67add69561ebb219ea5803af92c076',
        101, '923ddfa94c670eee1bad63db1eefc6880f42df8c935de973952b88363c351eb7',
    ),
    ('var012/plug', False, 1): (
        162, '9d7f7da43fea99061cf90adeefcf52f45cbce2c11075f7e4cecd8d329d473ce3',
        47, '6e49f460d6bc0ef9811a1e6c68291bb9b901cac47cd37c1bb6c9bd3c06defa7c',
    ),
    ('var012/plug', True, 2): (
        256, '27b7239438906beecb0b26a560572d164cc0c7c992dde98572015ec7e5e06543',
        101, '923ddfa94c670eee1bad63db1eefc6880f42df8c935de973952b88363c351eb7',
    ),
    ('var012/solver', False, 1): (
        162, '9d7f7da43fea99061cf90adeefcf52f45cbce2c11075f7e4cecd8d329d473ce3',
        47, '6e49f460d6bc0ef9811a1e6c68291bb9b901cac47cd37c1bb6c9bd3c06defa7c',
    ),
    ('var012/solver', True, 2): (
        256, '27b7239438906beecb0b26a560572d164cc0c7c992dde98572015ec7e5e06543',
        101, '923ddfa94c670eee1bad63db1eefc6880f42df8c935de973952b88363c351eb7',
    ),
    ('var012/test1', False, 1): (
        189, 'adc1d1cf0acff71ee174e2d89b9360cf00b406b04d691910942ce928e2e3227f',
        47, '6e49f460d6bc0ef9811a1e6c68291bb9b901cac47cd37c1bb6c9bd3c06defa7c',
    ),
    ('var012/test1', True, 2): (
        256, '27b7239438906beecb0b26a560572d164cc0c7c992dde98572015ec7e5e06543',
        101, '923ddfa94c670eee1bad63db1eefc6880f42df8c935de973952b88363c351eb7',
    ),
    ('var012/test12', False, 1): (
        165, '6d5ecbc513e02c88147b2bbb9d94f608686e770cbef0a152acd82bb75cbfcd22',
        47, '6e49f460d6bc0ef9811a1e6c68291bb9b901cac47cd37c1bb6c9bd3c06defa7c',
    ),
    ('var012/test12', True, 2): (
        256, '27b7239438906beecb0b26a560572d164cc0c7c992dde98572015ec7e5e06543',
        101, '923ddfa94c670eee1bad63db1eefc6880f42df8c935de973952b88363c351eb7',
    ),
}


class _Log(EngineObserver):
    def __init__(self):
        self.popped, self.emitted = [], []

    def on_pop(self, row, degree, depth, emitted):
        self.popped.append(f"{row} {degree} {depth} {emitted}")

    def on_emit(self, row):
        self.emitted.append(str(row))


def _pop_config(case: str, cnf) -> EngineConfig:
    kind, _, policy = case.rpartition("/")
    method = {"var012": Method.VAR012, "clause012": Method.CLAUSE012, "clause-e": Method.CLAUSE_E}[kind.split("/")[0]]
    config = EngineConfig(method=method)
    if policy == "plug":  # a plugged solver: the built-in one, called through the SolverFn plug
        config.solver = lambda c: dpll_sat(c)
    else:
        config.policy = _POLICIES[policy]
    if kind.endswith("/weight"):
        config.spmod = WeightFilter(*_weights(7, cnf.num_vars))
    elif kind.endswith("/k"):
        config.spmod = CardinalityFilter(cnf, cnf.num_vars // 2)
    return config


def _pop_log(case: str, positive: bool, seed: int) -> tuple:
    cnf = gen_random_cnf(GenSpec(8, 14, 3, positive, seed))
    log = _Log()
    out = run(cnf, replace(_pop_config(case, cnf), observer=log))
    assert out.stats.pops == len(log.popped)
    return len(log.popped), _sha256("\n".join(log.popped)), len(log.emitted), _sha256("\n".join(log.emitted))


@pytest.mark.parametrize("case, positive, seed", sorted(POP_GOLDEN))
def test_pop_log_matches_golden(case, positive, seed):
    assert _pop_log(case, positive, seed) == POP_GOLDEN[case, positive, seed]
