"""Bernoulli psi and the Vaaler trigonometric approximation."""

import math
import random

import numpy as np
import pytest

from floorsums import psi as PS


def coefficients(damping):
    """{h: c_h} for 1 <= |h| <= H: c_h = i J_h/(2 pi h), c_{-h} = conj(c_h),
    from the damping factors J_h of `vaaler_polynomial`."""
    h = np.arange(1, damping.size + 1)
    coeffs = {}
    for hh, im in zip(h.tolist(), (damping / (2 * np.pi * h)).tolist()):
        coeffs[hh] = complex(0.0, im)
        coeffs[-hh] = complex(0.0, -im)
    return coeffs


def eval_complex(damping, x):
    """Direct two-sided evaluation sum c_h e(hx); imag part ~ 0."""
    out = 0j
    for h, c in coefficients(damping).items():
        out += c * complex(math.cos(2 * math.pi * h * x),
                           math.sin(2 * math.pi * h * x))
    return out


def test_fejer_envelope_values():
    # F_1(1/2) = 1 + cos(pi) = 0 forces exactness of the H=1 polynomial there
    assert PS.fejer_envelope(1, 0.5) == pytest.approx(0.0, abs=1e-30)
    # and psi(1/2) = 0
    assert eval_complex(PS.vaaler_polynomial(1), 0.5) == pytest.approx(0, abs=1e-15)
    # Fejer peak: F_H(0) = H + 1, envelope 1/2
    for H in (1, 3, 10, 57):
        assert PS.fejer_envelope(H, 0.0) == pytest.approx(0.5)


def test_fejer_kernel_nonnegative_random():
    # F_H >= 0 through the envelope F_H/(2H+2), which peaks at F_H(0) = H + 1
    rng = random.Random(4)
    for _ in range(10**4):
        H = rng.randint(1, 40)
        x = rng.uniform(-2, 2)
        assert PS.fejer_envelope(H, x) >= 0
    for H in (1, 7, 40):
        assert PS.fejer_envelope(H, [0.0, 1.0, -3.0]).tolist() == [0.5] * 3


def test_fejer_kernel_matches_direct_sum():
    # closed form vs definition sum_{|h|<=H} (1-|h|/(H+1)) e(hx)
    rng = random.Random(8)
    for _ in range(100):
        H = rng.randint(1, 12)
        x = rng.uniform(0.001, 0.999)
        direct = 1 + 2 * sum((1 - h / (H + 1)) * math.cos(2 * math.pi * h * x)
                             for h in range(1, H + 1))
        assert (2 * H + 2) * PS.fejer_envelope(H, x) == pytest.approx(direct, abs=1e-10)


def test_coefficient_envelope_and_symmetry():
    for H in (1, 2, 5, 10, 100):
        coeffs = coefficients(PS.vaaler_polynomial(H))
        assert set(coeffs) == set(range(-H, H + 1)) - {0}
        for h in range(1, H + 1):
            c = coeffs[h]
            assert coeffs[-h] == c.conjugate()
            assert abs(c) <= 1 / (2 * h) + 1e-15


@pytest.mark.parametrize("H", [1, 2, 5, 10, 100])
def test_pointwise_vaaler_bound(H):
    assert PS.verify_pointwise_bound(H, 10**4) <= 1e-9


def test_pointwise_bound_excludes_integer_grid_points():
    # grid j/G for j = 1..G-1 never hits an integer
    v = PS.verify_pointwise_bound(3, 1000)
    assert v <= 1e-9


def test_polynomial_real_valued():
    damping = PS.vaaler_polynomial(23)
    rng = random.Random(6)
    xs = [rng.uniform(-2, 2) for _ in range(100)]
    for x in xs:
        z = eval_complex(damping, x)
        assert abs(z.imag) <= 1e-12


def test_vaaler_polynomial_is_its_read_only_damping_array():
    for H in (1, 2, 7, 100):
        damping = PS.vaaler_polynomial(H)
        assert damping.shape == (H,) and damping.dtype == np.float64
        assert not damping.flags.writeable


def test_h_range_validated():
    with pytest.raises(ValueError):
        PS.vaaler_polynomial(0)
    with pytest.raises(ValueError):
        PS.vaaler_polynomial(10**6 + 1)
    with pytest.raises(ValueError):
        PS.verify_pointwise_bound(5, 999)


@pytest.mark.parametrize("H, grid, message", [
    (10, 10**6 + 1, "grid_size must be in [1000, 1000000]"),
    (10, 200_000_000, "grid_size must be in [1000, 1000000]"),
    (10**4 + 1, 10**6, "H * grid_size must be <= 10000000000"),
    (10**6, 10**4 + 1, "H * grid_size must be <= 10000000000"),
])
def test_grid_budget_rejected_before_allocating(monkeypatch, H, grid, message):
    # the caps are checked before the polynomial or any grid is built
    monkeypatch.setattr(PS, "vaaler_polynomial", None)
    with pytest.raises(ValueError) as err:
        PS.verify_pointwise_bound(H, grid)
    assert message in str(err.value)


def test_grid_budget_admits_its_edges():
    assert PS.verify_pointwise_bound(1, 10**6) <= 1e-9
    assert PS.verify_pointwise_bound(10**4, 10**3) <= 1e-9
    assert PS.verify_pointwise_bound(10**6, 10**4) <= 1e-9
    assert PS.verify_pointwise_bound(10**4, 10**6) <= 1e-9


def exact_phase_grid(damping, G):
    """psi_H(k/G), k = 0..G-1, as -fsum(w_h sin(2 pi ((hk) mod G)/G))."""
    h = np.arange(1, damping.size + 1)
    w = damping / (math.pi * h)
    return np.array([-math.fsum((w * np.sin(2 * math.pi * ((h * k) % G) / G)).tolist())
                     for k in range(G)])


# (5000, 1000) has H >= G, so harmonics fold onto the same residue
@pytest.mark.parametrize("H, G", [(10, 2000), (1000, 2000), (5000, 1000)])
def test_grid_values_match_exact_phase_reference(H, G):
    damping = PS.vaaler_polynomial(H)
    values = PS._grid_values(damping, G)
    assert np.max(np.abs(values - exact_phase_grid(damping, G))) <= 2e-15


@pytest.mark.parametrize("call, message", [
    (lambda: PS.fejer_envelope(0, 0.25), "H must be >= 1"),
    (lambda: PS.fejer_envelope(-3, 0.25), "H must be >= 1"),
    (lambda: PS.fejer_envelope(2.5, 0.25), "need integer H, got 2.5"),
    (lambda: PS.vaaler_polynomial(2.5), "need integer H, got 2.5"),
    (lambda: PS.verify_pointwise_bound(2.5, 1000), "need integer H, got 2.5"),
    (lambda: PS.verify_pointwise_bound(True, 1000), "need integer H, got True"),
    (lambda: PS.verify_pointwise_bound(10, 1000.0), "need integer grid_size, got 1000.0"),
], ids=["0", "-3", "envelope-float", "vaaler-float", "bound-float", "bound-bool",
        "bound-grid-float"])
def test_malformed_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_degree_may_be_a_numpy_integer():
    assert PS.vaaler_polynomial(np.int64(10)).tobytes() == PS.vaaler_polynomial(10).tobytes()
    assert PS.verify_pointwise_bound(np.int64(10), np.int64(1000)) == \
        PS.verify_pointwise_bound(10, 1000)
