"""Lower-bound parameter families: construction, membership, and pair bounds."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import covlab.minimax
from covlab import (
    BandedFamilySpec,
    NuSequence,
    SparseFamilySpec,
    ThetaIndex,
    UsageError,
    assouad_terms,
    build_linked_banded,
    build_sparse_theta,
    certify_banded_membership,
    certify_sparse_membership,
    diagonal_separation,
    flip_bit,
    sample_banded_theta,
    sample_sparse_theta,
)


def _nu_table(alpha: float = 0.5, length: int = 1024) -> NuSequence:
    return NuSequence.table([m**-alpha for m in range(1, length + 1)])


def _f2_spec(r: int = 16, N: int = 50, tau: float = 0.003) -> BandedFamilySpec:
    return BandedFamilySpec(kind="f2", r=r, N=N, tau=tau, nu=_nu_table())


def _f3_spec(r: int = 16, N: int = 100_000, tau: float = 0.003) -> BandedFamilySpec:
    return BandedFamilySpec(kind="f3", r=r, N=N, tau=tau, nu=_nu_table())


def _sparse_spec(r_plus_one: int = 64, N: int = 7) -> SparseFamilySpec:
    gamma2 = math.sqrt(2.0 * math.log(r_plus_one))
    return SparseFamilySpec(
        q=0.5, gamma1_q=3.0, gamma2=gamma2, nu_const=0.02, N=N
    )


def _failed(report):
    return [c.name for c in report.checks if not c.passed]


def _f1_members(r: int, delta: float) -> list:
    """The diagonal family's r+1 unit-scale members: I, then I less delta at each (ell, ell)."""
    members = [np.eye(r)]
    for ell in range(r):
        member = np.eye(r)
        member[ell, ell] -= delta
        members.append(member)
    return members


class TestDiagonalFamily:
    def test_separation_value(self):
        assert diagonal_separation(16, 100, 0.01) == pytest.approx(0.016651, abs=5e-7)

    def test_requires_enough_samples(self):
        with pytest.raises(UsageError, match="N > log r"):
            diagonal_separation(256, 5, 0.003)

    def test_separation_is_the_distance_between_members(self):
        delta = diagonal_separation(16, 100, 0.01)
        members = _f1_members(16, delta)
        assert np.linalg.norm(members[0] - members[1], 2) == pytest.approx(delta, rel=1e-12)

    def test_every_member_positive_definite(self):
        for member in _f1_members(32, diagonal_separation(32, 50, 0.01)):
            assert np.linalg.eigvalsh(member).min() > 0.0


class TestLinkedBandedFamilies:
    def test_f2_zero_theta_is_identity(self):
        spec = _f2_spec()
        theta = ThetaIndex(bits=(0,) * spec.gamma_N)
        np.testing.assert_array_equal(build_linked_banded(spec, theta), np.eye(spec.r))

    def test_f2_off_diagonal_amplitude(self):
        spec = _f2_spec()
        theta = ThetaIndex(bits=(1,) * spec.gamma_N)
        Sigma = build_linked_banded(spec, theta)
        off = Sigma[~np.eye(spec.r, dtype=bool)]
        nonzero = off[off != 0.0]
        assert nonzero.size > 0
        np.testing.assert_allclose(nonzero, spec.tau * spec.h_N)

    def test_f2_eigenvalue_floor(self):
        spec = _f2_spec()
        theta = ThetaIndex(bits=(1,) * spec.gamma_N)
        Sigma = build_linked_banded(spec, theta)
        assert np.linalg.eigvalsh(Sigma).min() >= 0.75 - 1e-10
        col_mass = np.abs(Sigma).sum(axis=0).max()
        assert col_mass <= 1.25

    def test_f2_membership_certificate_passes(self):
        spec = _f2_spec()
        for i in range(5):
            theta = sample_banded_theta(spec, seed=3, index=i)
            report = certify_banded_membership(spec, theta)
            assert _failed(report) == []

    def test_f2_tail_is_exactly_zero_past_band(self):
        spec = _f2_spec()
        theta = sample_banded_theta(spec, seed=4, index=0)
        report = certify_banded_membership(spec, theta)
        zero_checks = [c for c in report.checks if c.name.startswith("tail_zero_m")]
        assert zero_checks and all(c.measured == 0.0 for c in zero_checks)

    def test_f3_zero_theta_is_identity(self):
        spec = _f3_spec()
        theta = ThetaIndex(bits=(0,) * spec.gamma_N)
        np.testing.assert_array_equal(build_linked_banded(spec, theta), np.eye(spec.r))

    def test_f3_amplitude_and_certificate(self):
        spec = _f3_spec()
        theta = ThetaIndex(bits=(1,) * spec.gamma_N)
        Sigma = build_linked_banded(spec, theta)
        off = Sigma[~np.eye(spec.r, dtype=bool)]
        nonzero = off[off != 0.0]
        np.testing.assert_allclose(nonzero, spec.tau / math.sqrt(spec.N * spec.r))
        report = certify_banded_membership(spec, theta)
        assert _failed(report) == []

    def test_theta_sampling_is_deterministic(self):
        spec = _f2_spec()
        assert sample_banded_theta(spec, 9, 2) == sample_banded_theta(spec, 9, 2)
        assert sample_banded_theta(spec, 9, 2) != sample_banded_theta(spec, 9, 3)

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            _f2_spec(r=4, N=50)  # needs r > m_star^d
        with pytest.raises(UsageError):
            _f3_spec(r=16, N=10)  # needs r < m_star^d
        with pytest.raises(UsageError):
            BandedFamilySpec(kind="f2", r=16, N=50, tau=0.3, nu=_nu_table())
        with pytest.raises(UsageError):
            # 20 cells cannot tile a 2-d axis-aligned partition
            BandedFamilySpec(kind="f2", r=20, N=50, d=2, nu=_nu_table())

    def test_theta_bits_validated(self):
        with pytest.raises(UsageError):
            ThetaIndex(bits=(0, 2, 1))


def _tails_by_definition(spec, theta, r_eff):
    """Every tail_* value recomputed cell by cell with scalar arithmetic.

    tail at m: the largest, over every row i, of the sum of |Sigma_ij| / r
    over the cells j whose farthest point from cell i lies at least
    m * r_eff^(-1/d) away.
    """
    Sigma = build_linked_banded(spec, theta)
    r, S, d = spec.r, spec.S, spec.d
    coords = [tuple(int(c) for c in np.unravel_index(j, (S,) * d)) for j in range(r)]
    rows = range(r)
    supdist = {
        (i, j): math.sqrt(sum(((abs(a - b) + 1) / S) ** 2 for a, b in zip(coords[j], coords[i])))
        for i in rows for j in range(r)
    }
    tails = {}
    for m in range(1, spec.m_star + 3):
        radius = m * r_eff ** (-1.0 / d)
        worst = 0.0
        for i in rows:
            tail = 0.0
            for j in range(r):
                if supdist[i, j] >= radius:
                    tail += abs(float(Sigma[i, j])) * (1.0 / r)
            worst = max(worst, tail)
        name = "tail_zero_m" if m > spec.m_star - 1 else "tail_bound_m"
        tails[f"{name}{m}"] = worst
    return tails


@st.composite
def _banded_spec_and_theta(draw):
    """A valid f2 or f3 spec at d in {1, 2, 3} with at most 64 cells, and a theta.

    m_star is the smallest m with m^(d+1) >= N for the m^-1/2 table, so N is
    drawn from the range that gives the drawn m_star.
    """
    kind = draw(st.sampled_from(("f2", "f3")))
    d = draw(st.integers(1, 3))
    S = draw(st.integers(2, {1: 24, 2: 8, 3: 4}[d]))
    if kind == "f2":
        ms = draw(st.integers(2, max(2, S - 1)))
    else:
        S += S % 2
        ms = draw(st.integers(S + 1, S + 6))
    N = draw(st.integers((ms - 1) ** (d + 1) + 1, ms ** (d + 1)))
    tau = draw(st.floats(1e-4, 4.0 ** (-(d + 1)), exclude_max=True))
    try:
        spec = BandedFamilySpec(kind=kind, r=S**d, N=N, d=d, tau=tau, nu=_nu_table())
    except UsageError:
        assume(False)
    bits = draw(st.lists(st.integers(0, 1), min_size=spec.gamma_N, max_size=spec.gamma_N))
    return spec, ThetaIndex(bits=tuple(bits))


@given(_banded_spec_and_theta())
def test_every_tail_equals_its_definition(spec_theta):
    spec, theta = spec_theta
    report = certify_banded_membership(spec, theta)
    measured = {c.name: c.measured for c in report.checks}
    tails = {k: v for k, v in measured.items() if k.startswith("tail_")}
    assert tails == _tails_by_definition(spec, theta, measured["r_eff_lower"])


class TestBandingTails:
    @pytest.mark.parametrize("kind, r, N, d", [
        ("f2", 16, 50, 1),
        ("f3", 16, 100_000, 1),
        ("f3", 64, 100_000, 2),
        ("f2", 64, 60, 2),  # K=1: a set cell has no links, yet its diagonal counts
    ])
    def test_tails_equal_their_definition(self, kind, r, N, d):
        spec = BandedFamilySpec(kind=kind, r=r, N=N, d=d, nu=_nu_table())
        thetas = [ThetaIndex(bits=(0,) * spec.gamma_N), ThetaIndex(bits=(1,) * spec.gamma_N)]
        thetas += [sample_banded_theta(spec, seed=17, index=i) for i in range(3)]
        for theta in thetas:
            report = certify_banded_membership(spec, theta)
            measured = {c.name: c.measured for c in report.checks}
            tails = {k: v for k, v in measured.items() if k.startswith("tail_")}
            assert tails == _tails_by_definition(spec, theta, measured["r_eff_lower"])

    def test_zero_member_tail_counts_the_diagonal(self):
        # Each cell's farthest point from itself lies sqrt(2)/8 away, beyond
        # the m=1 radius 1/8, so every row of the identity carries 1/r there.
        spec = BandedFamilySpec(kind="f3", r=64, N=100_000, d=2, nu=_nu_table())
        report = certify_banded_membership(spec, ThetaIndex(bits=(0,) * spec.gamma_N))
        measured = {c.name: c.measured for c in report.checks}
        assert measured["tail_bound_m1"] == 1.0 / 64


class TestSparseFamily:
    def test_derived_sizes(self):
        spec = _sparse_spec()
        assert spec.r == 63
        assert spec.r_star == 31
        assert spec.eps == pytest.approx(
            0.02 * math.sqrt(math.log(63) / 7), rel=1e-12
        )
        assert spec.ell >= 1

    def test_zero_bits_block_structure(self):
        spec = _sparse_spec()
        theta = sample_sparse_theta(spec, seed=1, index=0)
        theta_off = type(theta)(bits=(0,) * len(theta.bits), rows=theta.rows)
        Sigma = build_sparse_theta(spec, theta_off)
        want = np.diag([1.0] + [0.5] * spec.r)
        np.testing.assert_array_equal(Sigma, want)

    def test_active_row_has_ell_links_at_half_eps(self):
        spec = _sparse_spec()
        theta = sample_sparse_theta(spec, seed=2, index=0)
        Sigma = build_sparse_theta(spec, theta)
        active = [m for m, bit in enumerate(theta.bits) if bit == 1]
        assert active, "sampled theta should activate at least one row"
        for m in active:
            row = Sigma[1 + m].copy()
            row[1 + m] = 0.0
            nonzero = row[row != 0.0]
            assert nonzero.size == spec.ell
            np.testing.assert_allclose(nonzero, spec.eps / 2.0)

    def test_column_cap_respected(self):
        spec = _sparse_spec()
        for i in range(10):
            theta = sample_sparse_theta(spec, seed=5, index=i)
            Sigma = build_sparse_theta(spec, theta)
            sub = Sigma[1:, 1:]
            off_support = (sub != 0.0) & ~np.eye(spec.r, dtype=bool)
            assert off_support.sum(axis=0).max() <= 2 * spec.ell

    def test_unit_norm_and_unit_top_left(self):
        spec = _sparse_spec()
        theta = sample_sparse_theta(spec, seed=6, index=0)
        Sigma = build_sparse_theta(spec, theta)
        e1 = np.zeros(spec.r + 1)
        e1[0] = 1.0
        np.testing.assert_array_equal(Sigma @ e1, e1)
        assert np.linalg.norm(Sigma, 2) == pytest.approx(1.0, abs=1e-12)

    def test_membership_certificate_passes(self):
        spec = _sparse_spec()
        for i in range(5):
            theta = sample_sparse_theta(spec, seed=7, index=i)
            report = certify_sparse_membership(spec, theta, seed=i)
            assert _failed(report) == []

    def test_config_validation(self):
        with pytest.raises(UsageError):
            SparseFamilySpec(q=0.5, gamma1_q=3.0, gamma2=2.9, nu_const=0.9, N=7)
        with pytest.raises(UsageError):
            SparseFamilySpec(q=1.2, gamma1_q=3.0, gamma2=2.9, nu_const=0.02, N=7)


def _sampled_theta(kind: str) -> ThetaIndex:
    """A sampled index of the f2 family ('banded') or the sparse family."""
    if kind == "banded":
        return sample_banded_theta(_f2_spec(), seed=8, index=0)
    return sample_sparse_theta(_sparse_spec(), seed=9, index=0)


class TestFlipBit:
    @pytest.mark.parametrize("kind", ["banded", "sparse"])
    def test_bits_other_than_0_or_1_refused(self, kind):
        theta = _sampled_theta(kind)
        with pytest.raises(UsageError, match="theta bits must be 0/1"):
            dataclasses.replace(theta, bits=(2,) + theta.bits[1:])

    @pytest.mark.parametrize("kind", ["banded", "sparse"])
    def test_flip_keeps_the_type_and_every_other_field(self, kind):
        theta = _sampled_theta(kind)
        other = flip_bit(theta, 0)
        assert type(other) is type(theta)
        assert sum(a != b for a, b in zip(theta.bits, other.bits)) == 1
        assert dataclasses.replace(other, bits=theta.bits) == theta

    @pytest.mark.parametrize("theta", [(0, 1, 0), SimpleNamespace(bits=(0, 1, 0))],
                             ids=["tuple", "duck"])
    def test_non_theta_refused(self, theta):
        with pytest.raises(UsageError, match="unknown theta type"):
            flip_bit(theta, 0)

    def test_banded_hamming_one(self):
        spec = _f2_spec()
        theta = sample_banded_theta(spec, seed=8, index=0)
        other = flip_bit(theta, 1)
        diff = sum(a != b for a, b in zip(theta.bits, other.bits))
        assert diff == 1
        assert flip_bit(other, 1) == theta

    def test_sparse_flip_keeps_rows(self):
        spec = _sparse_spec()
        theta = sample_sparse_theta(spec, seed=9, index=0)
        other = flip_bit(theta, 0)
        assert other.rows == theta.rows
        assert sum(a != b for a, b in zip(theta.bits, other.bits)) == 1

    def test_position_out_of_range(self):
        spec = _f2_spec()
        theta = sample_banded_theta(spec, seed=10, index=0)
        with pytest.raises(UsageError):
            flip_bit(theta, len(theta.bits))


class TestAssouadTerms:
    def test_f2_pairs_satisfy_proof_inequalities(self):
        spec = _f2_spec()
        rng = np.random.default_rng(11)
        pairs = []
        for i in range(6):
            theta = sample_banded_theta(spec, seed=12, index=i)
            pairs.append((theta, flip_bit(theta, int(rng.integers(spec.gamma_N)))))
        report = assouad_terms(spec, pairs)
        assert report.all_passed, [c.name for c in report.checks if not c.passed]
        assert report.alpha_min > 0.0
        assert report.worst_kl <= (16.0 / 9.0) * report.worst_frob2 + 1e-18

    def test_f2_frobenius_budget_value(self):
        spec = _f2_spec()
        theta = ThetaIndex(bits=(0,) * spec.gamma_N)
        other = flip_bit(theta, 0)
        A = build_linked_banded(spec, theta)
        B = build_linked_banded(spec, other)
        frob2 = float(np.sum((A - B) ** 2))
        assert frob2 <= 2.0 * spec.tau**2 * spec.h_N**2 * (2 * spec.K) ** spec.d

    def test_sparse_pairs_satisfy_alpha_bound(self):
        spec = _sparse_spec()
        pairs = []
        for i in range(6):
            theta = sample_sparse_theta(spec, seed=13, index=i)
            pairs.append((theta, flip_bit(theta, i % spec.r_star)))
        report = assouad_terms(spec, pairs)
        assert report.all_passed, [c.name for c in report.checks if not c.passed]
        # per-pair separation over Hamming distance is at least ell*eps/r
        assert report.alpha_min >= spec.ell * spec.eps / spec.r - 1e-12

    def test_f1_spec_rejected(self):
        # The diagonal family's bound needs only its separation, so it has no
        # spec to build Assouad pairs from.
        with pytest.raises(UsageError, match="unknown banded family kind 'f1'"):
            BandedFamilySpec(kind="f1", r=16, N=100, tau=0.01, nu=_nu_table())

    def test_sparse_pairs_must_share_rows(self):
        spec = _sparse_spec()
        a = sample_sparse_theta(spec, seed=14, index=0)
        b = sample_sparse_theta(spec, seed=14, index=1)
        if a.rows == b.rows:  # pragma: no cover - seeds chosen to differ
            pytest.skip("sampled row patterns coincide")
        with pytest.raises(UsageError):
            assouad_terms(spec, [(a, b)])

    def test_identical_thetas_rejected(self):
        spec = _f2_spec()
        theta = sample_banded_theta(spec, seed=15, index=0)
        with pytest.raises(UsageError):
            assouad_terms(spec, [(theta, theta)])

    @pytest.mark.parametrize("family", ["f2", "f3", "sparse"])
    def test_flip_norm_from_support_block_equals_dense(self, family):
        # One Hamming-1 pair per report, so alpha_min is that pair's |Sa - Sb|.
        if family == "sparse":
            spec = _sparse_spec()
            sample, build = sample_sparse_theta, build_sparse_theta
            bits = spec.r_star
        else:
            spec = _f2_spec(r=64) if family == "f2" else _f3_spec()
            sample, build = sample_banded_theta, build_linked_banded
            bits = spec.gamma_N
        for i in range(4):
            theta = sample(spec, 18, i)
            other = flip_bit(theta, (3 * i) % bits)
            dense = np.max(np.abs(np.linalg.eigvalsh(build(spec, theta) - build(spec, other))))
            report = assouad_terms(spec, [(theta, other)])
            assert report.alpha_min == pytest.approx(dense, rel=1e-13)

    def test_f3_kl_over_frobenius_is_one_quarter(self):
        # Near the identity KL(Sa || Sb) / |Sa - Sb|_F^2 -> 1/4.  The members
        # of the CLI's default f3 family (seed 0, 50 samples) have links of
        # 2.4e-6, so only a KL free of cancellation reads 1/4 to 1e-8.
        spec = _f3_spec()
        pairs = []
        for i in range(50):
            theta = sample_banded_theta(spec, 0, i)
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((0, 0xF11B, i))))
            for pos in gen.integers(0, spec.gamma_N, size=2):
                pairs.append((theta, flip_bit(theta, int(pos))))
        report = assouad_terms(spec, pairs)
        measured = {c.name: c.measured for c in report.checks}
        assert abs(measured["kl_vs_frobenius"] - 0.25) <= 1e-8


class TestCheckResult:
    def test_a_numpy_slack_gives_a_python_bool(self):
        # A report prints .pass through format_value, which writes true/false
        # only for a Python bool; a numpy bool would print as False or True.
        for measured, passed in ((np.float64(0.5), True), (np.float64(2.0), False)):
            check = covlab.minimax._check("x", measured, np.float64(1.0), "le")
            assert type(check.passed) is bool and check.passed is passed
