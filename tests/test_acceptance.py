"""Acceptance gate: one test per contract criterion, one line each.

Every criterion prints a single [PASS]/[FAIL] line (visible under
pytest -s or in the captured output of a failing run) and uses exact
rational arithmetic throughout.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import product

from mulab.coding import cantor_unpair, dyadic_value
from mulab.corpus import flag_corpus
from mulab.errors import BoundViolation
from mulab.extractors import (
    BinaryExpansion,
    ivt_counterexample,
    mu_from,
    ubin_extraction,
    ubin_from_mu,
    ubin_repr_digits,
    udq_extraction,
    udq_from_mu,
    uivt_extraction,
    uivt_from_mu,
    uivt_repr_endpoints,
    uwwkl_extraction,
    uwwkl_from_mu,
    uwwkl_repr_bits,
)
from mulab.formulas import parse_formula, to_normal_form
from mulab.functionals import (
    TracedView,
    catalog_functional,
    e2_from_mu,
    mu_from_e2,
    omega_fan,
)
from mulab.reals import _first_nonzero_via, dq_real, flag_shifted, from_rational
from mulab.sequences import PresentedSequence, mu_exact
from mulab.trees import (
    FlagTree,
    FullTree,
    PathTree,
    TracedTreeView,
    Truncation,
    scf_check,
)

from oracles import (
    alpha_equal,
    ivt_base,
    piecewise_function,
    scan_first_nonzero,
    scan_first_zero,
    string_decode,
)
from test_extractors import counting
from test_formulas import FIXTURES, fixture_text

CORPUS = flag_corpus(seed=0)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def direct_first_zero(f: PresentedSequence) -> int | None:
    return scan_first_zero(f.values(f.horizon + 2 * len(f.tail)))


def direct_first_nonzero(f: PresentedSequence) -> int | None:
    return scan_first_nonzero(f.values(f.horizon + 2 * len(f.tail)))


def shiftable(f: PresentedSequence) -> bool:
    """Flags whose counterexample pair stays inside the unit interval."""
    m0 = direct_first_zero(f)
    return m0 is None or m0 >= 2


def test_criterion_1_round_trip_extraction():
    with criterion(1, "all four extraction routes equal the direct scan "
                      f"on {len(CORPUS)} corpus flags"):
        events = {direct_first_zero(f) for f in CORPUS}
        assert {None, 0, 1, 3, 7, 17, 64, 200} <= events
        assert any(direct_first_zero(f) is not None
                   and direct_first_zero(f) >= len(f.prefix) for f in CORPUS)

        start = time.perf_counter()
        mu_ubin = mu_from(ubin_extraction, ubin_from_mu(mu_exact))
        mu_wwkl = mu_from(uwwkl_extraction, uwwkl_from_mu(mu_exact))
        mu_ivt = mu_from(uivt_extraction, uivt_from_mu(mu_exact))
        mu_dq = mu_from(udq_extraction, udq_from_mu(mu_exact))
        for f in CORPUS:
            zero = direct_first_zero(f)
            assert mu_ubin(f) == zero
            assert mu_wwkl(f) == zero
            assert mu_ivt(f) == zero
            assert mu_dq(f) == direct_first_nonzero(f)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"round trips took {elapsed:.1f}s"


def test_criterion_2_witnesses_respect_their_bounds():
    with criterion(2, "every recovered witness stays at or below its "
                      "instrumented bound, with zero bound violations"):
        violations = 0
        for f in CORPUS:
            try:
                reports = [ubin_extraction(f), uwwkl_extraction(f),
                           uivt_extraction(f), udq_extraction(f)]
            except BoundViolation:
                violations += 1
                continue
            for rep in reports:
                if rep.fired and rep.search_bound is not None:
                    assert rep.witness <= rep.search_bound, rep.route
                if rep.fired and rep.xi_bound is not None:
                    assert rep.search_bound is not None
        assert violations == 0


def test_criterion_3_binary_expansion_soundness():
    with criterion(3, "binary expansions of 50 corpus reals are within "
                      "2^-n of every partial sum up to n = 30"):
        reals = []
        for f in CORPUS:
            if len(reals) >= 38:
                break
            if shiftable(f):
                reals.append(flag_shifted(Fraction(1, 2), 1, f))
                reals.append(flag_shifted(Fraction(1, 2), -1, f))
            reals.append(dq_real(f))
        reals += [from_rational(Fraction(i, 16)) for i in range(17)]
        assert len(reals) >= 50
        for x in reals[:50]:
            expansion = BinaryExpansion(x, mu_exact)
            value = x.exact_value()
            for n in range(1, 31):
                gap = value - sum(Fraction(d, 1 << i) for i, d in
                                  enumerate(expansion.digits(n), start=1))
                assert 0 <= gap <= Fraction(1, 1 << n)
        tie = BinaryExpansion(from_rational(Fraction(1, 2)), mu_exact)
        assert tie.digits(10) == [1] + [0] * 9


def _random_bracketing_functions(count: int, seed: int):
    """Piecewise-linear functions with f(0) < 0 < f(1), slope at most 4,
    and a designed root at the middle breakpoint."""
    rng = random.Random(seed)
    roots = [Fraction(n, d) for d in (4, 5, 6, 8, 12)
             for n in range(1, d) if Fraction(1, 4) <= Fraction(n, d) <= Fraction(3, 4)]
    heights = [Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(1, 3)]
    seen = set()
    out = []
    while len(out) < count:
        r = rng.choice(roots)
        a, b = rng.choice(heights), rng.choice(heights)
        key = (r, a, b)
        if key in seen:
            continue
        seen.add(key)
        points = ((Fraction(0), -a), (r, Fraction(0)), (Fraction(1), b))
        assert all(abs(y1 - y0) <= 4 * (x1 - x0)
                   for (x0, y0), (x1, y1) in zip(points, points[1:]))
        out.append((piecewise_function(points, f"bracket-{len(out)}"), r))
    return out


def test_criterion_4_ivt_root_soundness():
    with criterion(4, "bisection reals almost-zero their functions at "
                      "rate 2^-(n-2) and hit closed-form roots to 2^-20"):
        phi = uivt_from_mu(mu_exact)
        family = []
        for f in CORPUS:
            if len(family) >= 40:
                break
            if shiftable(f):
                m0 = direct_first_zero(f)
                eps = Fraction(0) if m0 is None else Fraction(1, 1 << (m0 - 1))
                family.append((ivt_counterexample(f, "+"),
                               Fraction(1, 2) if m0 is None else (1 - eps) / 3))
                family.append((ivt_counterexample(f, "-"),
                               Fraction(1, 2) if m0 is None else (2 + eps) / 3))
        family.append((ivt_base(), Fraction(1, 2)))
        extras = _random_bracketing_functions(20, seed=4)
        assert len(extras) == 20
        for fn, expected_root in family + extras:
            root = phi(fn)
            for n in range(21):
                value = fn.value_rule(root.approx(n)).exact_value()
                assert abs(value) <= Fraction(4, 1 << n)
            assert abs(root.approx(20) - expected_root) <= Fraction(1, 1 << 20)


def test_criterion_5_special_cover_implication():
    with criterion(5, "the special-cover implication holds on every "
                      "functional/tree pair, non-vacuously at least 5 times"):
        specs = ["const:1", "const:2", "const:3", "proj:0", "f0+f1", "max:2"]
        trees = [
            FullTree(),
            Truncation(0, FullTree()),
            Truncation(1, FullTree()),
            FlagTree(0, PresentedSequence((1, 1), (0,))),
            FlagTree(1, PresentedSequence((), (1,))),
            PathTree((0, 1), full_below=3),
        ]
        pairs = [(s, t) for s in specs for t in trees]
        assert len(pairs) >= 20
        antecedents = 0
        for spec, tree in pairs:
            report = scf_check(catalog_functional(spec), tree)
            assert report.implication, (spec, tree)
            if report.antecedent:
                assert report.consequent
                antecedents += 1
        assert antecedents >= 5


def test_criterion_6_fan_modulus_exhaustive():
    with criterion(6, "equal prefixes below the fan bound give equal "
                      "values, exhaustively over the catalog"):
        specs = ["const:3", "proj:0", "proj:5", "proj:11", "sum:8", "sum:12",
                 "max:6", "max:12", "ifz:5:2:9", "ifz:11:0:1",
                 "f0+f1", "f0+f1+1"]
        start = time.perf_counter()
        for spec in specs:
            g = catalog_functional(spec)
            bound = omega_fan(g)
            assert bound <= 12
            for prefix in product((0, 1), repeat=bound):
                zero_fill = g(PresentedSequence(prefix, (0,)))
                one_fill = g(PresentedSequence(prefix, (1,)))
                assert zero_fill == one_fill, (spec, prefix)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"exhaustive fan checks took {elapsed:.1f}s"


def test_criterion_7_formula_fixtures():
    with criterion(7, "the normal-form engine reproduces all five bundled "
                      "derivations with the right certificates"):
        for name, (rules, certificate) in FIXTURES.items():
            src = parse_formula(fixture_text(f"{name}.sexp"))
            expected = parse_formula(fixture_text(f"{name}.nf.sexp"))
            nf, trace = to_normal_form(src)
            assert alpha_equal(nf.to_formula(), expected), name
            assert trace.rules() == rules
            assert trace.certificate == certificate
            again, steps = to_normal_form(nf.to_formula())
            assert steps.rules() == ()
            assert alpha_equal(again.to_formula(), nf.to_formula())
        _, weakening = to_normal_form(
            parse_formula(fixture_text("ubin_to_transfer.sexp")))
        assert "R3-drop-st" in weakening.rules()
        _, clean = to_normal_form(parse_formula(fixture_text("pi01_transfer.sexp")))
        assert "R3-drop-st" not in clean.rules()


# --- criterion 8 machinery ---------------------------------------------

def _real_columns_agree_below(x, y, bound: int) -> bool:
    return all(x.approx(n) == y.approx(n) for n in range(bound))


def _trees_agree_below(t, s, bound: int) -> bool:
    return all(t.member(*string_decode(c)) == s.member(*string_decode(c))
               for c in range(bound))


def _tables_agree_below(fa, fb, bound: int) -> bool:
    for code in range(bound):
        i, n = cantor_unpair(code)
        point = dyadic_value(i)
        if fa.value_rule(point).approx(n) != fb.value_rule(point).approx(n):
            return False
    return True


def _check_contract(pairs, make_xi, run, agree_below) -> int:
    """Returns how many pairs agreed below the bound (non-vacuous cases);
    asserts output agreement for each of those."""
    nonvacuous = 0
    for a, b, k in pairs:
        bound = make_xi(a, b, k)
        assert isinstance(bound, int) and bound >= 0
        if agree_below(a, b, bound):
            assert run(a, k) == run(b, k)
            nonvacuous += 1
    return nonvacuous


def _real_triples(count: int):
    quiet_a = PresentedSequence((), (1,))
    quiet_b = PresentedSequence((), (2,))
    quiet_c = PresentedSequence((3,), (7,))
    half = Fraction(1, 2)
    twins = [
        (from_rational(half), flag_shifted(half, 1, quiet_a), 6),
        (from_rational(half), flag_shifted(half, -1, quiet_b), 4),
        (flag_shifted(half, 1, quiet_a), flag_shifted(half, -1, quiet_c), 8),
        (from_rational(Fraction(3, 8)),
         flag_shifted(Fraction(-5, 8), 1, PresentedSequence((0,), (1,))), 5),
        (dq_real(PresentedSequence((), (0,))), dq_real(PresentedSequence((0,), (0,))), 6),
    ]
    rng = random.Random(81)
    candidates = [from_rational(Fraction(i, 16)) for i in range(17)]
    candidates += [from_rational(Fraction(1, 3)), from_rational(Fraction(2, 5))]
    for f in CORPUS[:24]:
        if shiftable(f):
            candidates.append(flag_shifted(half, 1, f))
            candidates.append(flag_shifted(half, -1, f))
        candidates.append(dq_real(f))
    triples = list(twins)
    while len(triples) < count:
        triples.append((rng.choice(candidates), rng.choice(candidates),
                        rng.randrange(1, 9)))
    return triples


def _tree_triples(count: int):
    quiet_a = PresentedSequence((), (1,))
    quiet_b = PresentedSequence((4,), (2,))
    same_cut_a = PresentedSequence((1, 1, 0), (1,))
    same_cut_b = PresentedSequence((1, 1), (0,))
    twins = [
        (FullTree(), FlagTree(0, quiet_a), 4),
        (FlagTree(0, quiet_a), FlagTree(0, quiet_b), 5),
        (FlagTree(0, same_cut_a), FlagTree(0, same_cut_b), 4),
        (FlagTree(1, same_cut_a), FlagTree(1, same_cut_b), 6),
        (PathTree((1,), full_below=2), PathTree((1, 1), full_below=2), 5),
    ]
    rng = random.Random(82)
    small = [f for f in CORPUS if f.horizon <= 11]
    candidates = [FullTree(), PathTree((1, 0), full_below=3),
                  Truncation(2, FullTree())]
    candidates += [FlagTree(rng.randrange(2), f) for f in small[:30]]
    triples = list(twins)
    while len(triples) < count:
        triples.append((rng.choice(candidates), rng.choice(candidates),
                        rng.randrange(1, 5)))
    return triples


def _table_triples(count: int):
    quiet_a = PresentedSequence((), (1,))
    quiet_b = PresentedSequence((6, 6), (3,))
    twins = [
        (ivt_base(), ivt_counterexample(quiet_a, "+"), 5),
        (ivt_counterexample(quiet_a, "-"), ivt_counterexample(quiet_b, "+"), 6),
        (ivt_counterexample(quiet_a, "+"), ivt_counterexample(quiet_b, "+"), 4),
    ]
    rng = random.Random(83)
    candidates = [ivt_base()]
    for f in CORPUS[:30]:
        if shiftable(f) and f.horizon <= 11:
            candidates.append(ivt_counterexample(f, "+"))
            candidates.append(ivt_counterexample(f, "-"))
    triples = list(twins)
    while len(triples) < count:
        triples.append((rng.choice(candidates), rng.choice(candidates),
                        rng.randrange(1, 7)))
    return triples


def test_criterion_8_extensionality_contract():
    with criterion(8, "inputs agreeing below the instrumented bound give "
                      "agreeing outputs, 50 triples per functional"):
        nonvacuous = _check_contract(
            _real_triples(50),
            ubin_extraction.xi,
            lambda x, k: ubin_repr_digits(TracedView(x), k),
            _real_columns_agree_below)
        assert nonvacuous >= 5

        nonvacuous = _check_contract(
            _tree_triples(50),
            uwwkl_extraction.xi,
            lambda t, k: uwwkl_repr_bits(TracedTreeView(t), k),
            _trees_agree_below)
        assert nonvacuous >= 5

        nonvacuous = _check_contract(
            _table_triples(50),
            uivt_extraction.xi,
            lambda fn, k: uivt_repr_endpoints(TracedView(fn), k),
            _tables_agree_below)
        assert nonvacuous >= 3


# --- criterion 9 machinery ---------------------------------------------

# route -> (its extraction, its phi from a first-zero search)
ROUTES = {
    "ubin": (ubin_extraction, ubin_from_mu),
    "wwkl": (uwwkl_extraction, uwwkl_from_mu),
    "ivt": (uivt_extraction, uivt_from_mu),
    "dq": (udq_extraction, udq_from_mu),
}
# (outer, inner) -> the most calls of the base mu the composition may
# make over the corpus: the counts it makes today
BASE_CALLS = {
    ("ubin", "ubin"): 344, ("ubin", "wwkl"): 172,
    ("ubin", "ivt"): 1544, ("ubin", "dq"): 172,
    ("wwkl", "ubin"): 172, ("wwkl", "wwkl"): 120,
    ("wwkl", "ivt"): 772, ("wwkl", "dq"): 120,
    ("ivt", "ubin"): 1544, ("ivt", "wwkl"): 772,
    ("ivt", "ivt"): 7640, ("ivt", "dq"): 772,
    ("dq", "ubin"): 172, ("dq", "wwkl"): 120,
    ("dq", "ivt"): 772, ("dq", "dq"): 120,
}


def _first_zero_search(route: str, mu):
    """The first-zero search the route recovers with its phi built from
    mu.  dq recovers a first nonzero, so it runs on the zero indicator
    of the flag."""
    extraction, from_mu = ROUTES[route]
    search = mu_from(extraction, from_mu(mu))
    return partial(_first_nonzero_via, search) if route == "dq" else search


def test_criterion_9_composition_matrix():
    with criterion(9, "all 16 compositions of two routes through the "
                      f"existence functional equal mu on {len(CORPUS)} "
                      "corpus flags"):
        start = time.perf_counter()
        counts = {}
        for outer, inner in product(ROUTES, repeat=2):
            base, calls = counting(mu_exact)
            inner_search = _first_zero_search(inner, base)
            entry = _first_zero_search(outer, mu_from_e2(e2_from_mu(inner_search)))
            for f in CORPUS:
                assert entry(f) == mu_exact(f), (outer, inner, f)
            counts[outer, inner] = len(calls)
        elapsed = time.perf_counter() - start
        assert all(counts[key] <= most for key, most in BASE_CALLS.items()), counts
        assert elapsed < 10.0, f"the matrix took {elapsed:.1f}s"
