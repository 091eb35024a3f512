import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from cotds.feeder import FeederError, MotorUnit
from cotds.loads import (
    InductionMotor,
    InductionMotorParams,
    ZipLoadParams,
    zip_power,
)

OMEGA_S = 2.0 * np.pi * 60.0

MP = InductionMotorParams(rs=0.013, xs=0.05, xm=6.0, rr=0.03, xr=0.12,
                          h_m=0.6, mva_scale=0.25)


def derivs(m, x, v):
    """The motor's derivatives at the state (E', slip), as three floats."""
    de, ds = m.derivatives(*x, v)
    return de.real, de.imag, ds


def flat(x):
    """The state (E', slip) as [re E', im E', slip]."""
    e, s = x
    return [e.real, e.imag, s]


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
        assert flat(x0) == pytest.approx(
            [0.931471520899242, -0.040450674948499, 0.026216405712499],
            rel=1e-9)

    def test_initialize_returns_python_scalars(self):
        m = InductionMotor(MP, OMEGA_S)
        e, s = m.initialize(complex(self.V), p_target=0.20)
        assert type(e) is complex and type(s) is float

    def test_initialize_hits_power_target(self):
        m, x0 = self.make()
        s = m.terminal_power(x0[0], self.V)
        assert s.real == pytest.approx(0.20, abs=1e-12)
        assert s.imag > 0.0  # motors absorb reactive power

    def test_equilibrium_derivatives_vanish(self):
        m, x0 = self.make()
        assert np.max(np.abs(derivs(m, x0, self.V))) < 1e-12

    def test_steady_torque_matches_electrical_torque(self):
        m, x0 = self.make()
        te = m.electrical_torque(x0[0], self.V)
        assert te == pytest.approx(m.steady_torque(m.s0, self.V), rel=1e-10)
        assert te == pytest.approx(m.mech_torque(m.s0), rel=1e-10)

    def test_standstill_draws_inrush(self):
        m, x0 = self.make()
        ss = m.standstill_state()
        assert ss == (0j, 1.0) and type(ss[1]) is float
        s = m.terminal_power(ss[0], self.V)
        # locked-rotor current is dominated by the leakage reactance
        assert s.imag > 5.0 * abs(m.terminal_power(x0[0], self.V).imag)

    def test_acceleration_from_standstill(self):
        # Rotor flux (and hence torque) builds from zero; after a few
        # milliseconds the machine must be spinning up.
        m, _ = self.make()
        e, s = m.standstill_state()
        h = 1e-4
        for _ in range(100):
            de, ds = m.derivatives(e, s, self.V)
            e, s = e + h * de, s + h * ds
        assert derivs(m, (e, s), self.V)[2] < 0.0
        assert s < 1.0

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
        assert flat(x1) == pytest.approx(flat(x2), rel=1e-10)


def bracketed_steady_state(p, omega_s, v, slip):
    """The running state at ``slip``, in the form the motor solved it in
    before its closed form: E' = (j dx v / (T0' zs)) / (j s ws + 1/T0' +
    j dx / (T0' zs)) with zs = rs + j x' and dx = x0 - x'.  Returns the
    consumed active power (system base), E', the stator current and the
    electrical torque (machine base)."""
    zs = complex(p.rs, p.x_p)
    t0 = p.t0_p(omega_s)
    dx = p.x_0 - p.x_p
    e = (1j * dx * v / (t0 * zs)) / (1j * slip * omega_s + 1.0 / t0
                                       + 1j * dx / (t0 * zs))
    i = (v - e) / zs
    power = (v * i.conjugate()).real * p.mva_scale
    return power, e, i, (e * i.conjugate()).real


def scanned_pull_out(p, omega_s):
    """The slip of largest consumed power and that power, at |V| = 1, by a
    scan of (0, 1] in steps of 1e-5.  P(s) = |V|^2 N(s) / M(s) with N and
    M independent of V, so the slip holds at any voltage and the power
    scales with |V|^2."""
    grid = np.arange(1, 100_001) * 1e-5
    power = [bracketed_steady_state(p, omega_s, 1.0 + 0j, s)[0] for s in grid]
    k = int(np.argmax(power))
    return float(grid[k]), power[k]


def brentq_slip(p, omega_s, v, p_target, s_pull_out):
    """The reference running slip: ``brentq`` on (0, pull-out slip), where
    consumed power rises through ``p_target``."""
    return brentq(lambda s: bracketed_steady_state(p, omega_s, v, s)[0]
                  - p_target, 0.0, s_pull_out, xtol=BRENTQ_XTOL)


BRENTQ_XTOL = 1e-15
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def pull_out():
    """``MP``'s pull-out slip and power at |V| = 1."""
    return scanned_pull_out(MP, OMEGA_S)


class TestClosedFormEquilibrium:
    """The quadratic's slip against a bracketed root of the steady-state
    power, on testcase1's motor bus5_im1 (whose machine is ``MP``)."""

    @staticmethod
    def slip_bound(m, v, p_target, slip, e, i):
        """How far the two slips may differ by rounding alone.

        Consumed power is |v|^2 N(s) / M(s), so P(s) = p is Q(s) = |v|^2
        N(s) - p M(s) = 0 with Q' = P' M at the root.  The closed form
        is the exact root of Q with each coefficient's terms rounded a few
        times: with |Q|(s) the sum of the terms' magnitudes, it lands
        within 16 eps |Q|(s) / |Q'(s)| of the root.  The reference stops
        within xtol + 4 eps s of where its power crosses p_target, and
        that power is off by a few roundings of |v| |i|, so it lands
        within 16 eps |v| |i| M(s) / |Q'(s)| more.
        """
        p = m.p
        c = OMEGA_S * p.t0_p(OMEGA_S)
        dx = p.x_0 - p.x_p
        n0, n1, n2 = p.rs, c * dx, c * c * p.rs
        m0, m1, m2 = (p.rs ** 2 + p.x_0 ** 2, 2 * c * p.rs * dx,
                      c * c * (p.rs ** 2 + p.x_p ** 2))
        vv = abs(v) ** 2
        p_mach = p_target / p.mva_scale
        q_mag = ((vv * n2 + p_mach * m2) * slip * slip
                 + (vv * n1 + p_mach * m1) * slip + vv * n0 + p_mach * m0)
        dq = abs(2.0 * (vv * n2 - p_mach * m2) * slip
                 + vv * n1 - p_mach * m1)
        m_s = m0 + m1 * slip + m2 * slip * slip
        return (BRENTQ_XTOL + 4 * EPS * slip
                + 16 * EPS * (q_mag + abs(v) * abs(i) * m_s) / dq)

    def check(self, m, v, p_target, s_po):
        x = m.initialize(v, p_target)
        s_ref = brentq_slip(MP, OMEGA_S, v, p_target, s_po)
        _, e, i, torque = bracketed_steady_state(MP, OMEGA_S, v, s_ref)
        tol_s = self.slip_bound(m, v, p_target, s_ref, e, i)
        assert abs(x[1] - s_ref) <= tol_s
        assert m.s0 == x[1]
        # E' = a v / (b + j c s) with a = j dx / zs, b = 1 + a and c = ws
        # T0', so |dE'/ds| = c |E'| / |b + j c s|; the torque Re(E' i*)
        # with i = (v - E') / zs moves by at most |dE'/ds| (|i| + |E'| /
        # |zs|) per unit slip
        zs = complex(MP.rs, MP.x_p)
        c = OMEGA_S * MP.t0_p(OMEGA_S)
        b = 1.0 + 1j * (MP.x_0 - MP.x_p) / zs
        de_ds = c * abs(e) / abs(b + 1j * c * s_ref)
        tol_e = de_ds * tol_s + 8 * EPS * abs(e)
        assert abs(x[0] - e) <= tol_e
        tol_t = (de_ds * (abs(i) + abs(e) / abs(zs)) * tol_s
                 + 8 * EPS * abs(e) * abs(i))
        assert abs(m.tm0 - torque) <= tol_t

    def test_matches_bracketed_root(self, pull_out):
        s_po, p_max = pull_out
        m = InductionMotor(MP, OMEGA_S)
        # p_target from 0.01 P_max up: the no-load loss, 1.3e-4 P_max, has
        # no running slip (see below)
        rng = np.random.default_rng(20)
        for _ in range(200):
            v = cmath.rect(rng.uniform(0.85, 1.1), rng.uniform(-np.pi, np.pi))
            self.check(m, v, rng.uniform(0.01, 0.95) * abs(v) ** 2 * p_max,
                       s_po)

    def test_finds_running_state_near_pull_out(self, pull_out):
        # the machine draws more than p_target only for s in (0.1649,
        # 0.2244); the halving bracket's points 0.5, 0.25, 0.125, ... all
        # draw less, so it stepped over that interval and raised
        s_po, p_max = pull_out
        assert s_po == pytest.approx(0.192, abs=5e-4)
        assert p_max == pytest.approx(0.728, abs=5e-4)
        m = InductionMotor(MP, OMEGA_S)
        p_target = 0.99 * p_max
        x = m.initialize(1.0 + 0j, p_target)
        assert x[1] == pytest.approx(0.1649, abs=5e-5)
        self.check(m, 1.0 + 0j, p_target, s_po)

    def test_past_pull_out_is_feeder_error(self, pull_out):
        mu = MotorUnit("bus5_im1", 1, InductionMotor(MP, OMEGA_S),
                       p_target=1.001 * pull_out[1])
        with pytest.raises(FeederError, match="motor bus5_im1"):
            mu.equilibrium(1.0 + 0j)

    def test_under_no_load_loss_raises(self):
        # at s = 0 the machine still draws its stator loss |v|^2 rs / |rs
        # + j x0|^2; no running slip draws less
        m = InductionMotor(MP, OMEGA_S)
        p0 = bracketed_steady_state(MP, OMEGA_S, 1.0 + 0j, 0.0)[0]
        with pytest.raises(ValueError):
            m.initialize(1.0 + 0j, 0.5 * p0)


def textbook_motor(p, omega_s, tm0, s0, x, v):
    """Equivalent-circuit derivatives and power, in real arithmetic.

    x' = xs + xm xr/(xm + xr), x0 = xs + xm, T0' = (xr + xm)/(ws rr);
    I = (V - E')/(rs + j x'); dE'/dt = -j s ws E' - (E' - j(x0 - x')I)/T0';
    Te = Re(E' I*), Tm = tm0 ((1 - s)/(1 - s0))^2, ds/dt = (Tm - Te)/2H;
    S = V I* mva_scale.  Each result comes with the size of its largest
    term, the scale its rounding error is relative to, and last comes
    the absolute error that gradual underflow can add to any result
    (see ``UNDERFLOW_OPS``).
    """
    er, ei, s = x
    x_p = p.xs + p.xm * p.xr / (p.xm + p.xr)
    dx = p.xs + p.xm - x_p
    t0 = (p.xr + p.xm) / (omega_s * p.rr)
    den = p.rs ** 2 + x_p ** 2
    ar, ai = v.real - er, v.imag - ei
    ir, ii = (ar * p.rs + ai * x_p) / den, (ai * p.rs - ar * x_p) / den
    te = er * ir + ei * ii
    ratio = (1.0 - s) / (1.0 - s0)
    tm = tm0 * ratio ** 2
    deriv = [s * omega_s * ei - (er + dx * ii) / t0,
             -s * omega_s * er - (ei - dx * ir) / t0,
             (tm - te) / (2.0 * p.h_m)]
    e, i = math.hypot(er, ei), math.hypot(ir, ii)
    deriv_scale = [abs(s) * omega_s * e + (e + dx * i) / t0] * 2 + [
        (abs(tm) + e * i) / (2.0 * p.h_m)]
    power = complex(v.real * ir + v.imag * ii,
                    v.imag * ir - v.real * ii) * p.mva_scale
    gain = (max(1.0, 1.0 / den) * omega_s
            * max(1.0, e, abs(v), dx, 2.0 * tm0 * max(1.0, abs(ratio)))
            * max(1.0, 1.0 / t0, 1.0 / (2.0 * p.h_m), p.mva_scale))
    return (deriv, deriv_scale, power, abs(v) * i * p.mva_scale,
            UNDERFLOW_OPS * gain * 2.0 ** -1074)


# Gradual underflow adds an absolute error to the relative one: a product
# or quotient whose result is subnormal is off by up to half a subnormal
# spacing (2^-1075) whatever its size, while a sum or difference keeps
# a relative error only (a subnormal one is exact).  To first order, an absolute error eta at an
# intermediate t reaches a result r as |dr/dt| * eta, so both computations
# together are off by at most (number of state-dependent products and
# quotients) * max |dr/dt| * 2^-1074, one full spacing per operation so
# that pow, correct to within one ulp, is covered too.  Counted with each
# complex product as four real products and a complex quotient by a float
# as four operations (Python 3.11 turns a float operand into a complex
# one), constants of the parameters alone (zs's ratio, 1j*dx, 2H) excluded:
#   model:    I = (V - E')/zs 4; dE' = -j s ws E' - (E' - j dx I)/T0' 20;
#             Te = Re(E' I*) 4; Tm 3; ds/dt's quotient 1; S = V I* mva 8
#   textbook: ir, ii 6; Te 2; Tm 3; the three derivatives 4 + 4 + 1; S 8
UNDERFLOW_OPS = (4 + 20 + 4 + 3 + 1 + 8) + (6 + 2 + 3 + 4 + 4 + 1 + 8)
# ``gain`` bounds every |dr/dt|.  On its way to a result an error passes
# at most one factor of each kind: into the stator current, 1/|zs|^2 (the
# textbook divides by den = |zs|^2, the model's complex quotient by at
# least |zs|); the rotation speed ws; a state or circuit magnitude, |E'|,
# |V|, dx, or Tm's tm0 and 2 tm0 (1 - s)/(1 - s0) (its derivative in the
# ratio); and an output scale, 1/T0', 1/2H or mva_scale.  Factors below
# one only shrink it, hence the max(1, ...) of each kind.


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
    # E' at V with a subnormal imaginary part: the stator current, the
    # slip derivative and the power are subnormal and differ from the
    # textbook by one or two spacings (MP), or by hundreds once the small
    # impedance of the parameter box's corner amplifies them
    @example(p=MP, tm0=0.0, s0=0.0, x=(1.0, 2.2250738585e-313, 0.0),
             vmag=1.0, vang=0.0)
    @example(p=InductionMotorParams(rs=1e-3, xs=0.01, xm=1.0, rr=5e-3,
                                    xr=0.01, h_m=0.1, mva_scale=0.01),
             tm0=0.0, s0=0.0, x=(1.0, 2.2250738585e-313, 0.0), vmag=1.0,
             vang=0.0)
    def test_derivatives_and_terminal_power(self, p, tm0, s0, x, vmag,
                                            vang):
        m = InductionMotor(p, OMEGA_S)
        m.tm0, m.s0 = tm0, s0
        v = complex(vmag * math.cos(vang), vmag * math.sin(vang))
        deriv, deriv_scale, power, power_scale, tiny = textbook_motor(
            p, OMEGA_S, tm0, s0, x, v)
        e_p = complex(x[0], x[1])
        got = derivs(m, (e_p, x[2]), v)
        for g, want, scale in zip(got, deriv, deriv_scale):
            assert abs(g - want) <= 1e-13 * scale + tiny
        s = m.terminal_power(e_p, v)
        assert abs(s - power) <= 1e-13 * power_scale + tiny
