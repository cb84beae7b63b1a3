"""Catalog families: identity grid, parameter validation, separations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg import catalog
from leibnizalg.core import algebra_from_products, bracket, check_leibniz, nilindex
from leibnizalg.isomorphism import compare_fingerprints, fingerprint
from leibnizalg.linalg import unit_vector

RATIONAL_DRAWS = (Fraction(0), Fraction(1), Fraction(-1, 2))


def grid_cases():
    """Every family at every admissible dim up to 10 with sampled params."""
    cases = []
    for info in catalog.list_families():
        fam = info.family
        if fam == "abelian":
            dims = range(0, 11)
        elif fam == "L6":
            dims = (5,)  # only member of its kind
        else:
            dims = range(info.min_dim, 11)
        for d in dims:
            for params in _param_draws(fam, d):
                cases.append((fam, d, params))
    return cases


def _param_draws(fam, d):
    if fam == "F3":
        out = [{"alpha": 0}]
        if d % 2 == 0:
            out.append({"alpha": 1})
        return out
    if fam == "F1param":
        return [{}, {"alpha%d" % d: 1, "theta": Fraction(-1, 2)}]
    if fam == "F2param":
        return [{}, {"beta%d" % d: 1, "gamma": 2}]
    if fam == "L1l":
        return [{"lam": v} for v in RATIONAL_DRAWS]
    if fam == "L2l":
        return [{"lam": 0}, {"lam": 1}]
    if fam == "L3l":
        return [{"lam": -1}, {"lam": 0}, {"lam": 1}]
    if fam == "L4l":
        return [{"lam": 1}, {"lam": Fraction(-1, 2)}, {"lam": 2}]
    if fam == "L5lm":
        return [{"lam": 1, "mu": 1}, {"lam": 2, "mu": 4}]
    if fam == "L":
        return [{}, {"alpha3": 1, "beta4": Fraction(-1, 2)}]
    if fam == "M":
        return [{}, {"alpha4": 1, "beta4": 2}]
    if fam == "N":
        return [{}, {"beta3": 1, "alpha4": 1}]
    if fam == "R":
        return [{}, {"alpha4": 1, "beta4": -1}]
    if fam == "P":
        return [{}, {"alpha4": 1, "gamma4": 2}]
    if fam == "Q":
        return [{}, {"gamma3": 1, "beta4": 1}]
    return [{}]


@pytest.mark.parametrize("fam,d,params", grid_cases())
def test_family_grid_satisfies_identity(fam, d, params):
    a = catalog.make(fam, d, **params)
    assert a.dim == d
    assert a.checked or not check_leibniz(a)
    if fam != "abelian" and d:
        assert nilindex(a) is not None


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        catalog.make("NOPE", 4)


def test_dim_below_minimum_rejected():
    with pytest.raises(ValueError, match="dim"):
        catalog.make("F1", 2)


def test_leftover_params_rejected():
    with pytest.raises(ValueError, match="bogus"):
        catalog.make("NF", 4, bogus=1)


def test_choice_domains_enforced():
    with pytest.raises(ValueError):
        catalog.make("L2l", 6, lam=2)
    with pytest.raises(ValueError):
        catalog.make("L3l", 6, lam=Fraction(1, 2))
    with pytest.raises(ValueError):
        catalog.make("L5lm", 6, lam=1, mu=2)
    with pytest.raises(ValueError):
        catalog.make("L4l", 6, lam=0)  # lam = 0 degenerates
    with pytest.raises(ValueError):
        catalog.make("L4l", 6)  # lam has no default
    with pytest.raises(ValueError):
        catalog.make("F3", 5, alpha=1)  # odd dim forces alpha 0
    with pytest.raises(ValueError):
        catalog.make("L6", 6)


def test_float_params_rejected():
    with pytest.raises(TypeError):
        catalog.make("L1l", 6, lam=0.5)


def test_param_free_f1param_is_plain_f1():
    assert catalog.make("F1param", 6).sc == catalog.make("F1", 6).sc
    assert catalog.make("F2param", 6).sc == catalog.make("F2", 6).sc


def test_core_trio_pairwise_distinguished():
    algs = [catalog.make(f, 6) for f in ("NF", "F1", "F2")]
    fps = [fingerprint(a) for a in algs]
    for i in range(3):
        for j in range(i + 1, 3):
            assert compare_fingerprints(fps[i], fps[j]).verdict == "distinguished"


def test_two_direction_families_split_by_series():
    # the L-type classes push the series one step deeper than the M-type
    l = catalog.make("L", 7, alpha3=1)
    m = catalog.make("M", 7, alpha4=1)
    assert fingerprint(l).lcs_dims != fingerprint(m).lcs_dims
    cmp = compare_fingerprints(fingerprint(l), fingerprint(m))
    assert cmp.verdict == "distinguished"
    assert cmp.detail == "lcs_dims"


def test_three_direction_families_split_by_series():
    p = catalog.make("P", 8)
    pstar = catalog.make("Pstar", 8)
    assert compare_fingerprints(fingerprint(p), fingerprint(pstar)).verdict == "distinguished"
    q = catalog.make("Q", 8, gamma3=1)
    qstar = catalog.make("Qstar", 8)
    assert compare_fingerprints(fingerprint(q), fingerprint(qstar)).verdict == "distinguished"


def test_known_tie_inside_one_parameter_family():
    # fingerprints cannot separate these; the sweep handles them by witness
    a = fingerprint(catalog.make("F1param", 6, alpha6=0, theta=1))
    b = fingerprint(catalog.make("F1param", 6, alpha6=1, theta=0))
    assert compare_fingerprints(a, b).verdict != "distinguished"


def test_labels_describe_generators():
    a = catalog.make("NF", 3)
    assert [a.label(i) for i in range(3)] == ["e1", "e2", "e3"]


def _mutate(a, i, j, k, delta):
    records = {}
    for r, s, t, c in a.products():
        records.setdefault((r, s), {})[t] = c
    cell = records.setdefault((i + 1, j + 1), {})
    cell[k + 1] = cell.get(k + 1, 0) + delta
    return algebra_from_products(a.dim, records, check=False)


def test_detects_planted_defect_across_families():
    # [e2,e2] += e1 feeds the generator back into the table
    for fam in ("NF", "F1", "F2", "L1", "L2", "L", "N", "P", "Q", "E4F1"):
        d = max(catalog.family_info(fam).min_dim, 5)
        mutant = _mutate(catalog.make(fam, d), 1, 1, 0, 1)
        assert check_leibniz(mutant), "%s mutation went undetected" % fam


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["NF", "F1", "F2", "L1", "L2"]),
    st.integers(min_value=5, max_value=8),
    st.data(),
)
def test_checker_agrees_with_direct_defect(fam, d, data):
    # some single-constant mutations stay within the variety, so the
    # checker is validated against brute-force evaluation instead
    a = catalog.make(fam, d)
    i = data.draw(st.integers(min_value=0, max_value=d - 1))
    j = data.draw(st.integers(min_value=0, max_value=d - 1))
    k = data.draw(st.integers(min_value=0, max_value=d - 1))
    delta = data.draw(st.sampled_from([1, -1, 2]))
    mutant = _mutate(a, i, j, k, delta)
    violations = check_leibniz(mutant)
    brute = []
    for x in range(d):
        for y in range(d):
            for z in range(d):
                yz = bracket(mutant, unit_vector(d, y), unit_vector(d, z))
                xy = bracket(mutant, unit_vector(d, x), unit_vector(d, y))
                xz = bracket(mutant, unit_vector(d, x), unit_vector(d, z))
                lhs = bracket(mutant, unit_vector(d, x), yz)
                r1 = bracket(mutant, xy, unit_vector(d, z))
                r2 = bracket(mutant, xz, unit_vector(d, y))
                if any(l - p + q for l, p, q in zip(lhs, r1, r2)):
                    brute.append((x + 1, y + 1, z + 1))
    assert [(v.i, v.j, v.k) for v in violations] == brute


def _table(a):
    return {(i, j, k): c for i, j, k, c in a.products()}


def _affine_cases():
    """(family, dim, name) for every non-choice parameter at dims min..min+2."""
    for info in catalog.list_families():
        if info.family == "L5lm":  # (lam, mu) is admissible only as a pair
            continue
        top = info.min_dim + 2 if info.max_dim is None else info.max_dim
        for d in range(info.min_dim, top + 1):
            for spec in info.params:
                if spec.kind == "choice":
                    continue
                if spec.name.endswith("<j>"):
                    for j in range(4, d + 1):
                        yield info.family, d, spec.name[:-3] + str(j)
                else:
                    yield info.family, d, spec.name


@pytest.mark.parametrize("fam,d,name", list(_affine_cases()))
def test_tables_are_affine_in_each_parameter(fam, d, name):
    # every constant is an int or an int times one parameter's value, so
    # the table at t lies on the line through the tables at a and b
    a, b, t = Fraction(1), Fraction(2), Fraction(-3, 2)
    ta, tb, tt = (_table(catalog.make(fam, d, **{name: v})) for v in (a, b, t))
    keys = set(ta) | set(tb) | set(tt)
    line = {key: ta.get(key, 0) + (t - a) / (b - a) * (tb.get(key, 0) - ta.get(key, 0))
            for key in keys}
    assert {key: c for key, c in line.items() if c} == tt
