"""The known-answer generator: every member gives its q, and assumption D
is decided exactly, as the sampled check decides it."""

import pytest

from knownanswer import member
from normform import normalform
from normform.expr import simplify
from normform.normalform import build_normal_form, check_assumption_D
from normform.structure import infinite_zero_algorithm
from normform.sysmodel import SamplePlan

# every n <= 10 and m <= 4 (about 2.5 s); the sampled verdict, on tree
# fields, is taken up to n = 8, as at n = 9 and 10 it would add about 1.3 s
SWEEP = [(n, m) for n in range(2, 11) for m in range(1, min(n, 4) + 1)]
SAMPLED_UP_TO = 8


def _exact_verdict(system, outcome, nf, compiles, monkeypatch):
    """D decided exactly, with no compile.  Up to SAMPLED_UP_TO states the
    sampled verdict, on the tree chain fields through geom.bracket_sampler,
    must agree."""
    compiles.clear()
    exact = check_assumption_D(system, outcome, nf)
    assert not compiles
    if len(system.states) <= SAMPLED_UP_TO:
        with monkeypatch.context() as patch:
            patch.setattr(normalform, "_exact_fracs", lambda exprs: None)
            assert check_assumption_D(system, outcome, nf) is exact
        assert len(compiles) == 1
    return exact


@pytest.mark.parametrize("n, m", SWEEP)
def test_member_gives_its_q_and_commuting_chain_fields(n, m, compiles,
                                                       monkeypatch):
    system, q = member(n, m, seed=100 * n + m)
    outcome = infinite_zero_algorithm(system, SamplePlan(count=20, seed=0))
    assert outcome.q == q and outcome.invertibility == "Invertible"
    nf = build_normal_form(system, outcome)
    assert _exact_verdict(system, outcome, nf, compiles, monkeypatch) is True
    if q[-1] == q[0]:
        return   # no delta(l, j, 1) may be set: the law needs q_1 <= j < q_l
    # delta(m, q_m - 1, 1) gains xi_{m, q_m - 1}: Y(1, 1) gains that
    # coordinate times Y(m, 2), whose derivative along Y(m, 2) is -1, so
    # [Y(1, 1), Y(m, 2)] = +-Y(m, 2) is not 0
    key = (m, q[-1] - 1, 1)
    nf.delta[key] = simplify(nf.delta_entry(*key) + nf.chains[m - 1][q[-1] - 2])
    assert _exact_verdict(system, outcome, nf, compiles, monkeypatch) is False


def test_members_are_seeded():
    (a, qa), (b, qb) = member(7, 3, seed=5), member(7, 3, seed=5)
    assert qa == qb and a.f == b.f and a.g == b.g and a.h == b.h
    assert member(7, 3, seed=6)[0].f != a.f
