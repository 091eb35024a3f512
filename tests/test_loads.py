import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotds.loads import (
    InductionMotor,
    InductionMotorParams,
    ZipLoadParams,
    zip_power,
)

OMEGA_S = 2.0 * np.pi * 60.0

MP = InductionMotorParams(rs=0.013, xs=0.05, xm=6.0, rr=0.03, xr=0.12,
                          h_m=0.6, mva_scale=0.25)


class TestZipLoad:
    def test_nominal_voltage(self):
        zl = ZipLoadParams(p0=1.2, q0=0.5, z_frac=0.3, i_frac=0.3,
                           p_frac=0.4)
        assert zip_power(zl, 1.0) == pytest.approx(1.2 + 0.5j)

    def test_off_nominal_frozen(self):
        # [DERIVED] 0.3*v^2 + 0.3*v + 0.4 weighting at v = 0.95 and 1.05.
        zl = ZipLoadParams(p0=1.2, q0=0.5, z_frac=0.3, i_frac=0.3,
                           p_frac=0.4)
        assert zip_power(zl, 0.95) == pytest.approx(1.1469 + 0.477875j)
        assert zip_power(zl, 1.05) == pytest.approx(1.2549 + 0.522875j)

    def test_constant_impedance_scales_quadratically(self):
        zl = ZipLoadParams(p0=2.0, q0=1.0, z_frac=1.0, i_frac=0.0,
                           p_frac=0.0)
        assert zip_power(zl, 0.5) == pytest.approx(0.25 * (2.0 + 1.0j))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ZipLoadParams(p0=1.0, q0=0.0, z_frac=0.5, i_frac=0.5,
                          p_frac=0.5)


class TestMotorParams:
    def test_derived_reactances(self):
        # [DERIVED] x' = xs + xm*xr/(xm+xr), x0 = xs + xm, T0' = (xr+xm)/(ws*rr)
        assert MP.x_p == pytest.approx(0.167647058823529, rel=1e-12)
        assert MP.x_0 == pytest.approx(6.05)
        assert MP.t0_p(OMEGA_S) == pytest.approx(0.541126806512444, rel=1e-12)


class TestInductionMotor:
    V = 0.98 * np.exp(1j * 0.1)

    def make(self):
        m = InductionMotor(MP, OMEGA_S)
        x0 = m.initialize(self.V, p_target=0.20)
        return m, x0

    def test_initialize_frozen(self):
        # [DERIVED] equilibrium for p_target=0.20 at V=0.98 angle 0.1 rad.
        m, x0 = self.make()
        assert m.s0 == pytest.approx(0.0262164057124992, rel=1e-10)
        assert m.tm0 == pytest.approx(0.790332157867163, rel=1e-10)
        assert x0 == pytest.approx(
            [0.931471520899242, -0.040450674948499, 0.026216405712499],
            rel=1e-9)

    def test_initialize_hits_power_target(self):
        m, x0 = self.make()
        s = m.terminal_power(x0, self.V)
        assert s.real == pytest.approx(0.20, abs=1e-12)
        assert s.imag > 0.0  # motors absorb reactive power

    def test_equilibrium_derivatives_vanish(self):
        m, x0 = self.make()
        assert np.max(np.abs(m.derivatives(x0, self.V))) < 1e-12

    def test_steady_torque_matches_electrical_torque(self):
        m, x0 = self.make()
        te = m.electrical_torque(x0, self.V)
        assert te == pytest.approx(m.steady_torque(m.s0, self.V), rel=1e-10)
        assert te == pytest.approx(m.mech_torque(m.s0), rel=1e-10)

    def test_standstill_draws_inrush(self):
        m, x0 = self.make()
        ss = m.standstill_state()
        assert ss == pytest.approx([0.0, 0.0, 1.0])
        s = m.terminal_power(ss, self.V)
        # locked-rotor current is dominated by the leakage reactance
        assert s.imag > 5.0 * abs(m.terminal_power(x0, self.V).imag)

    def test_acceleration_from_standstill(self):
        # Rotor flux (and hence torque) builds from zero; after a few
        # milliseconds the machine must be spinning up.
        m, _ = self.make()
        x = m.standstill_state()
        h = 1e-4
        for _ in range(100):
            x = x + h * np.array(m.derivatives(x, self.V))
        assert m.derivatives(x, self.V)[2] < 0.0
        assert x[2] < 1.0

    def test_infeasible_target_raises(self):
        m = InductionMotor(MP, OMEGA_S)
        with pytest.raises(ValueError):
            m.initialize(self.V, p_target=50.0)

    def test_mva_scale_linear_in_power(self):
        big = InductionMotorParams(rs=0.013, xs=0.05, xm=6.0, rr=0.03,
                                   xr=0.12, h_m=0.6, mva_scale=0.50)
        m1 = InductionMotor(MP, OMEGA_S)
        m2 = InductionMotor(big, OMEGA_S)
        x1 = m1.initialize(self.V, p_target=0.20)
        x2 = m2.initialize(self.V, p_target=0.40)
        # same machine loading per unit of rating -> identical internal state
        assert x1 == pytest.approx(x2, rel=1e-10)


def textbook_motor(p, omega_s, tm0, s0, x, v):
    """Equivalent-circuit derivatives and power, in real arithmetic.

    x' = xs + xm xr/(xm + xr), x0 = xs + xm, T0' = (xr + xm)/(ws rr);
    I = (V - E')/(rs + j x'); dE'/dt = -j s ws E' - (E' - j(x0 - x')I)/T0';
    Te = Re(E' I*), Tm = tm0 ((1 - s)/(1 - s0))^2, ds/dt = (Tm - Te)/2H;
    S = V I* mva_scale.  Each result comes with the size of its largest
    term, the scale its rounding error is relative to.
    """
    er, ei, s = x
    x_p = p.xs + p.xm * p.xr / (p.xm + p.xr)
    dx = p.xs + p.xm - x_p
    t0 = (p.xr + p.xm) / (omega_s * p.rr)
    den = p.rs ** 2 + x_p ** 2
    ar, ai = v.real - er, v.imag - ei
    ir, ii = (ar * p.rs + ai * x_p) / den, (ai * p.rs - ar * x_p) / den
    te = er * ir + ei * ii
    tm = tm0 * ((1.0 - s) / (1.0 - s0)) ** 2
    deriv = [s * omega_s * ei - (er + dx * ii) / t0,
             -s * omega_s * er - (ei - dx * ir) / t0,
             (tm - te) / (2.0 * p.h_m)]
    e, i = math.hypot(er, ei), math.hypot(ir, ii)
    deriv_scale = [abs(s) * omega_s * e + (e + dx * i) / t0] * 2 + [
        (abs(tm) + e * i) / (2.0 * p.h_m)]
    power = complex(v.real * ir + v.imag * ii,
                    v.imag * ir - v.real * ii) * p.mva_scale
    return deriv, deriv_scale, power, abs(v) * i * p.mva_scale


def positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


motor_params = st.builds(InductionMotorParams, rs=positive(1e-3, 0.1),
                         xs=positive(0.01, 0.3), xm=positive(1.0, 10.0),
                         rr=positive(5e-3, 0.1), xr=positive(0.01, 0.3),
                         h_m=positive(0.1, 3.0), mva_scale=positive(0.01, 2.0))


class TestAgainstTextbook:
    @settings(max_examples=200, deadline=None)
    @given(p=motor_params, tm0=positive(0.0, 2.0), s0=positive(0.0, 0.2),
           x=st.tuples(positive(-1.5, 1.5), positive(-1.5, 1.5),
                       positive(-0.5, 1.5)),
           vmag=positive(0.5, 1.2), vang=positive(-math.pi, math.pi))
    def test_derivatives_and_terminal_power(self, p, tm0, s0, x, vmag,
                                            vang):
        m = InductionMotor(p, OMEGA_S)
        m.tm0, m.s0 = tm0, s0
        v = complex(vmag * math.cos(vang), vmag * math.sin(vang))
        deriv, deriv_scale, power, power_scale = textbook_motor(
            p, OMEGA_S, tm0, s0, x, v)
        got = m.derivatives(np.array(x), v)
        for g, want, scale in zip(got, deriv, deriv_scale):
            assert abs(g - want) <= 1e-13 * scale
        s = m.terminal_power(np.array(x), v)
        assert abs(s - power) <= 1e-13 * power_scale
