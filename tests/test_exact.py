import random
from itertools import islice
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete, petersen, random_gram
from oracles import charpoly_cofactor, integer_root_multiplicities, rank_rational

from uvcore import (
    charpoly,
    divide_out_root,
    eval_poly_at_int,
    eval_poly_at_matrix,
)
from uvcore.certify import _integer_eigenvalues
from uvcore.errors import InvariantViolation, NotSquare, OutOfRange
from uvcore.exact import (
    crt,
    is_prime,
    mat_mul,
    poly_mul,
    poly_trim,
    primes_below,
    psd_rank,
    rref_mod,
)


def adjacency(g):
    return g.adjacency()


# ---------------------------------------------------------------------------
# charpoly


def test_charpoly_k3():
    assert charpoly(adjacency(complete(3))) == [-2, -3, 0, 1]


def test_charpoly_zero_2x2():
    assert charpoly([[0, 0], [0, 0]]) == [0, 0, 1]


def test_charpoly_petersen_factorization():
    # (x - 3)(x - 1)^5 (x + 2)^4 expanded
    expect = [1]
    for root, mult in ((3, 1), (1, 5), (-2, 4)):
        for _ in range(mult):
            expect = poly_mul(expect, [-root, 1])
    got = charpoly(adjacency(petersen()))
    assert got == expect
    assert got == charpoly_cofactor(adjacency(petersen()))


def test_charpoly_not_square():
    with pytest.raises(NotSquare):
        charpoly([[1, 2, 3], [4, 5, 6]])


def test_charpoly_vs_cofactor_oracle_randomized():
    rng = random.Random(90125)
    for _ in range(200):
        n = rng.randint(1, 7)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert charpoly(a) == charpoly_cofactor(a)


# ---------------------------------------------------------------------------
# divide_out_root / integer roots


def test_divide_out_root_examples():
    assert divide_out_root([-2, -3, 0, 1], -1) == ([-2, -1, 1], 0)
    assert divide_out_root([0, 0, 1], 0) == ([0, 1], 0)
    assert divide_out_root([1, 0, 1], 1) == ([1, 1], 2)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.integers(-5, 5),
)
def test_divide_out_root_reconstructs(coeffs, t):
    p = poly_trim(coeffs)
    q, r = divide_out_root(p, t)
    # rebuild q*(x-t) + r
    rebuilt = poly_mul(q, [-t, 1])
    rebuilt = rebuilt + [0] * (len(p) - len(rebuilt))
    if rebuilt:
        rebuilt[0] += r
    elif r or p:
        rebuilt = [r]
    assert poly_trim(rebuilt) == p
    assert r == eval_poly_at_int(p, t)


def test_integer_roots_examples():
    # the integer-root scan of the spectral pass, over [-k, k]
    assert _integer_eigenvalues([-2, -3, 0, 1], 2) == [-1, 2]
    assert _integer_eigenvalues([1, 0, 1], 3) == []
    assert _integer_eigenvalues(charpoly(adjacency(petersen())), 3) == [-2, 1, 3]


def test_integer_roots_with_zero_root():
    # x^2 (x - 4)
    assert _integer_eigenvalues(poly_mul([0, 0, 1], [-4, 1]), 4) == [0, 4]


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.integers(-6, 6), st.integers(1, 3), max_size=4),
    st.integers(0, 3),
)
def test_integer_roots_multiplicity_sum(roots, extra):
    # prod (x - r)^mult times x^2 + extra + 1, which has no real root
    p = [extra + 1, 0, 1]
    for r, mult in roots.items():
        for _ in range(mult):
            p = poly_mul(p, [-r, 1])
    assert _integer_eigenvalues(p, 6) == sorted(roots)
    assert integer_root_multiplicities(p, 6) == roots
    assert sum(roots.values()) <= len(p) - 1


# ---------------------------------------------------------------------------
# eval at matrix


def test_eval_poly_at_matrix_identity_cases():
    a = adjacency(petersen())
    assert eval_poly_at_matrix([0, 1], a) == a
    j = [[1] * 3 for _ in range(3)]
    assert eval_poly_at_matrix([1, 1], adjacency(complete(3))) == j


def test_eval_poly_at_matrix_trace_identity():
    # trace(phi_tau(A)) = d * phi_tau(tau) for Petersen
    phi_tau = [1]
    for root, mult in ((3, 1), (1, 5)):
        for _ in range(mult):
            phi_tau = poly_mul(phi_tau, [-root, 1])
    b = eval_poly_at_matrix(phi_tau, adjacency(petersen()))
    trace = sum(b[i][i] for i in range(10))
    assert trace == 4 * eval_poly_at_int(phi_tau, -2)
    assert eval_poly_at_int(phi_tau, -2) == 1215


def test_eval_poly_at_int_examples():
    assert eval_poly_at_int([-2, -1, 1], -1) == 0
    assert eval_poly_at_int([0, 1], 7) == 7


# ---------------------------------------------------------------------------
# rank


def test_psd_rank_vs_oracle():
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(1, 14)
        r = rng.randint(0, n)
        k = random_gram(rng, n, r)
        assert psd_rank(k) == rank_rational(k)


def test_psd_rank_rejects_indefinite():
    with pytest.raises(InvariantViolation):
        psd_rank([[-1]])
    with pytest.raises(InvariantViolation):
        psd_rank([[1, 2], [2, 1]])


def test_psd_rank_big_entries():
    big = 10**40
    # rank 2: det = big^2 - (big-1)^2 != 0
    assert psd_rank([[big, big - 1], [big - 1, big]]) == 2


def test_psd_rank_zero_and_tiny():
    assert psd_rank([[0]]) == 0
    assert psd_rank([[5]]) == 1


def test_mat_mul_small():
    a = [[1, 2], [3, 4]]
    assert mat_mul(a, a) == [[7, 10], [15, 22]]


# ---------------------------------------------------------------------------
# primes, CRT and elimination mod p


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base
    # up to 31; the twelve bases 2..37 are exact only below the least
    # strong pseudoprime to all of them, and larger n are refused
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    with pytest.raises(OutOfRange):
        is_prime(318665857834031151167461)


def test_primes_below_descend():
    assert list(primes_below(100)) == [n for n in range(99, 1, -1) if _trial_division(n)]
    assert next(primes_below(1 << 31)) == 2**31 - 1
    assert list(islice(primes_below(1 << 31), 2))[1] == max(
        n for n in range(2**31 - 100, 2**31 - 1) if _trial_division(n))


def test_crt_joins_residues():
    rng = random.Random(7)
    moduli = [2**31 - 1, 2147483629, 101]
    for _ in range(50):
        x = rng.randrange(prod(moduli))
        assert crt([x % q for q in moduli], moduli) == x


def test_rref_mod_rank_and_row_space():
    # random products of an a x r and an r x b matrix have rank at most r;
    # the echelon form has unit pivot columns and spans the same rows mod p
    rng = random.Random(11)
    p = 2**31 - 1
    for _ in range(60):
        a, b, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 5)
        left = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(a)]
        right = [[rng.randint(-9, 9) for _ in range(b)] for _ in range(r)]
        mat = [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(b)]
               for i in range(a)]
        red, pivots = rref_mod(mat, p)
        assert len(pivots) == rank_rational(mat)
        assert not red[len(pivots):].any()
        assert red[:, pivots].tolist() == np.eye(a, dtype=np.int64)[:, :len(pivots)].tolist()
        assert len(rref_mod(np.vstack([red, np.array(mat, dtype=np.int64)]), p)[1]) == len(pivots)


def test_rref_mod_solves_and_detects_an_unlucky_prime():
    # det diag(p, 1) = p, so the matrix is singular mod p and not mod the
    # next prime, where the augmented column is the solution
    p, q = 2**31 - 1, next(primes_below(2**31 - 1))
    assert rref_mod([[p, 0, 3], [0, 1, 4]], p)[1] == [1, 2]
    red, pivots = rref_mod([[p, 0, 3], [0, 1, 4]], q)
    assert pivots == [0, 1] and red[:, 2].tolist() == [3 * pow(p, -1, q) % q, 4]
