"""Level-1 (Shichman-Hodges) MOSFET model.

This is the workhorse device of the reproduction: the 1997 paper simulated
its IV-converter macro with HSPICE; we substitute a self-contained level-1
implementation.  Level 1 captures everything the methodology exercises —
square-law gain, triode/saturation transitions, channel-length modulation,
body effect — and its simplicity keeps the tens of thousands of Newton
iterations behind a full ATPG run affordable in pure Python.

Two layers:

* :class:`MosfetParams` / :class:`Mosfet` — immutable netlist-level
  description (also used by the pinhole fault model, which splits a device
  into two series transistors; see :mod:`repro.faults.pinhole`).
* :func:`mos_level1` — vectorized model evaluation over arrays of terminal
  voltages and parameters, returning currents and the small-signal partial
  derivatives the Newton stamper needs.  Polarity is handled with a sign
  transform so NMOS and PMOS evaluate through one code path.
  :func:`mos_level1_bank` is the same evaluation on stacked voltages with
  the cards' constants precomputed (:class:`Level1Bank`), the form the
  batched column solvers call.
* :func:`mos_level1_stamps` — the same evaluation for one state, device
  by device in plain floats and fused with the stamper's values, the
  form every scalar Newton iteration calls.  Its values are bitwise the
  bank's.

The model equations (NMOS orientation, ``vov = vgs - vth``):

* cutoff   (``vov <= 0``):       ``ids = 0``
* triode   (``vds < vov``):      ``ids = beta*(vov - vds/2)*vds*(1 + lam*vds)``
* saturation (``vds >= vov``):   ``ids = beta/2*vov^2*(1 + lam*vds)``

with ``beta = kp*(w/l)*m`` and body effect
``vth = vto + gamma*(sqrt(phi - vbs) - sqrt(phi))``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import sqrt

import numpy as np

from repro.errors import NetlistError
from repro.circuit.elements import Element

__all__ = ["MosfetParams", "Mosfet", "Level1Bank", "mos_level1",
           "mos_level1_bank", "mos_level1_stamps", "NMOS_DEFAULT",
           "PMOS_DEFAULT"]


@dataclass(frozen=True)
class MosfetParams:
    """Technology parameters of a level-1 MOSFET model card.

    Attributes:
        kind: ``"nmos"`` or ``"pmos"``.
        vto: zero-bias threshold voltage [V].  Positive for NMOS,
            negative for PMOS (SPICE convention).
        kp: transconductance parameter ``KP = u0*Cox`` [A/V^2].
        lam: channel-length modulation ``LAMBDA`` [1/V].
        gamma: body-effect coefficient [sqrt(V)].
        phi: surface potential ``2*phi_F`` [V].
        cgs_ov: gate-source overlap capacitance per meter width [F/m].
        cgd_ov: gate-drain overlap capacitance per meter width [F/m].
        cox_area: gate-oxide capacitance per unit area [F/m^2]; used for
            the (constant, 2/3-channel) intrinsic gate capacitance added
            in transient analyses.
    """

    kind: str = "nmos"
    vto: float = 0.8
    kp: float = 60e-6
    lam: float = 0.02
    gamma: float = 0.4
    phi: float = 0.7
    cgs_ov: float = 200e-12
    cgd_ov: float = 200e-12
    cox_area: float = 1.5e-3

    def __post_init__(self) -> None:
        if self.kind not in ("nmos", "pmos"):
            raise NetlistError(f"mosfet kind must be nmos/pmos, got {self.kind!r}")
        if self.kp <= 0.0:
            raise NetlistError(f"mosfet KP must be > 0, got {self.kp!r}")
        if self.phi <= 0.0:
            raise NetlistError(f"mosfet PHI must be > 0, got {self.phi!r}")
        if (self.kind == "nmos") != (self.vto >= 0.0):
            raise NetlistError(
                f"VTO sign ({self.vto}) inconsistent with kind {self.kind!r}")

    @property
    def sign(self) -> float:
        """+1 for NMOS, -1 for PMOS (voltage/current polarity transform)."""
        return 1.0 if self.kind == "nmos" else -1.0

    def scaled(self, **overrides: float) -> "MosfetParams":
        """Return a copy with selected parameters replaced.

        Used by process-variation sampling (``scaled(vto=..., kp=...)``).
        """
        return replace(self, **overrides)


#: Representative 1.6 um CMOS cards, in the spirit of mid-90s designs.
NMOS_DEFAULT = MosfetParams(kind="nmos", vto=0.8, kp=60e-6, lam=0.02,
                            gamma=0.4, phi=0.7)
PMOS_DEFAULT = MosfetParams(kind="pmos", vto=-0.85, kp=22e-6, lam=0.03,
                            gamma=0.5, phi=0.7)


@dataclass(frozen=True)
class Mosfet(Element):
    """MOSFET instance: terminals (drain, gate, source, bulk) + geometry."""

    d: str = "0"
    g: str = "0"
    s: str = "0"
    b: str = "0"
    params: MosfetParams = NMOS_DEFAULT
    w: float = 10e-6
    l: float = 2e-6
    m: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.w <= 0.0 or self.l <= 0.0:
            raise NetlistError(
                f"mosfet {self.name}: W and L must be > 0 (w={self.w}, l={self.l})")
        if self.m < 1.0:
            raise NetlistError(f"mosfet {self.name}: multiplier m must be >= 1")

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.d, self.g, self.s, self.b)

    @property
    def beta(self) -> float:
        """Device transconductance factor ``KP*(W/L)*m`` [A/V^2]."""
        return self.params.kp * (self.w / self.l) * self.m

    @property
    def cgs(self) -> float:
        """Constant gate-source capacitance used in transient analyses [F]."""
        intrinsic = (2.0 / 3.0) * self.params.cox_area * self.w * self.l
        return (self.params.cgs_ov * self.w + intrinsic) * self.m

    @property
    def cgd(self) -> float:
        """Constant gate-drain (overlap) capacitance [F]."""
        return self.params.cgd_ov * self.w * self.m

    def with_geometry(self, w: float | None = None,
                      l: float | None = None) -> "Mosfet":
        """Return a copy with a different channel geometry.

        The pinhole fault model uses this to split a transistor into a
        source-side and a drain-side segment.
        """
        return replace(self, w=self.w if w is None else w,
                       l=self.l if l is None else l)


class Level1Bank:
    """Per-device constants of a level-1 MOSFET bank.

    Everything :func:`mos_level1_bank` needs that depends on the model
    cards alone — the transformed threshold ``sign*vto``, ``sqrt(phi)``,
    ``-gamma`` and ``beta/2`` — computed once, so a compiled circuit
    pays for them at compile time instead of every Newton iteration.
    Arrays broadcast against the terminal voltages (``(n,)`` for one
    circuit, ``(n, 1)`` or ``(n, k)`` for a column stack).
    """

    __slots__ = ("sign", "beta", "half_beta", "tvto", "lam", "gamma",
                 "neg_gamma", "phi", "sqrt_phi")

    def __init__(self, sign: np.ndarray, beta: np.ndarray, vto: np.ndarray,
                 lam: np.ndarray, gamma: np.ndarray,
                 phi: np.ndarray) -> None:
        self.sign = sign
        self.beta = beta
        self.half_beta = 0.5 * beta
        self.tvto = sign * vto
        self.lam = lam
        self.gamma = gamma
        self.neg_gamma = -gamma
        self.phi = phi
        self.sqrt_phi = np.sqrt(phi)

    def devices(self, d: np.ndarray, g: np.ndarray, s: np.ndarray,
                b: np.ndarray) -> tuple[tuple, ...]:
        """The bank as plain-float per-device rows for
        :func:`mos_level1_stamps`: each device's augmented terminal
        indices ``(d, g, s, b)`` and its constants, taken from this
        bank's own arrays, so both evaluations start from the same
        bits.  Only meaningful for a 1-D bank (one entry per device)."""
        return tuple(zip(
            d.tolist(), g.tolist(), s.tolist(), b.tolist(),
            self.sign.tolist(), self.beta.tolist(),
            self.half_beta.tolist(), self.tvto.tolist(), self.lam.tolist(),
            self.gamma.tolist(), self.neg_gamma.tolist(),
            self.phi.tolist(), self.sqrt_phi.tolist()))


def mos_level1(
    vgs: np.ndarray,
    vds: np.ndarray,
    vbs: np.ndarray,
    sign: np.ndarray,
    beta: np.ndarray,
    vto: np.ndarray,
    lam: np.ndarray,
    gamma: np.ndarray,
    phi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized level-1 evaluation for a bank of MOSFETs.

    All arguments are equal-length 1-D arrays (one entry per device).
    Terminal voltages are *actual* values; the NMOS/PMOS ``sign`` transform
    is applied internally.  Source-drain inversion (``vds' < 0``) is handled
    by evaluating the device with drain and source swapped and negating the
    current, as physical MOSFETs are symmetric in level 1.

    Returns:
        ``(ids, gm, gds, gmb)`` where ``ids`` is the current flowing into
        the *drain* terminal (out of the source), and the conductances are
        the partials ``d ids / d vgs``, ``d ids / d vds``, ``d ids / d vbs``
        — all in actual (untransformed) polarity, ready for MNA stamping.

    Note:
        Because ``ids = sign * f(sign*v...)``, the chain rule makes each
        partial equal to the transformed-space partial (the two sign
        factors cancel), so no re-transform of ``gm/gds/gmb`` is needed.
    """
    return mos_level1_bank(sign * np.array((vgs, vbs, vds)),
                           Level1Bank(sign, beta, vto, lam, gamma, phi))


def mos_level1_bank(
    terms: np.ndarray, bank: Level1Bank,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`mos_level1` on stacked, sign-transformed terminal voltages.

    *terms* is ``sign * (vgs, vbs, vds)`` stacked on a leading axis of
    3 (one array, so the transform is one multiply); *bank* holds the
    cards' constants.  Returns exactly :func:`mos_level1`'s arrays: the
    per-element arithmetic is the same, only grouped into fewer numpy
    calls (one ``where`` selects all three branch outputs, and the
    source-drain swap is skipped when no device is inverted).
    """
    tvds = terms[2]

    # Drain-source inversion: evaluate with swapped terminals.  When no
    # device is inverted (about 58% of the calls of a `generate` pass)
    # every swap is the identity and is skipped.
    inverted = tvds < 0.0
    swapped = bool(inverted.any())
    if swapped:
        # Gate- and bulk-source voltages seen from the effective source.
        evgs, evbs = np.where(inverted, terms[:2] - tvds, terms[:2])
    else:
        evgs, evbs = terms[0], terms[1]
    evds = np.abs(tvds)

    # Body effect: vth = vto + gamma*(sqrt(phi - vbs) - sqrt(phi)).
    # Clamp the junction forward bias so sqrt stays real; dvth/dvbs is then
    # zero in the clamped region, which is the standard SPICE treatment.
    phi_vbs = bank.phi - evbs
    sqrt_phi_vbs = np.sqrt(np.maximum(phi_vbs, 1e-4))
    vth = bank.tvto + bank.gamma * (sqrt_phi_vbs - bank.sqrt_phi)
    dvth_dvbs = np.where(phi_vbs > 1e-4,
                         bank.neg_gamma / (2.0 * sqrt_phi_vbs), 0.0)

    beta, lam = bank.beta, bank.lam
    vov = evgs - vth
    clm = 1.0 + lam * evds
    on = vov > 0.0
    sat = evds >= vov  # saturation where on, triode otherwise

    # Saturation: ids = beta/2 * vov^2 * (1 + lam*vds)
    half_beta_vov2 = bank.half_beta * vov**2
    # Triode: ids = beta * (vov - vds/2) * vds * (1 + lam*vds)
    vmid = vov - 0.5 * evds
    ids, gm, gds = np.where(on, np.where(
        sat,
        (half_beta_vov2 * clm, beta * vov * clm, half_beta_vov2 * lam),
        (beta * vmid * evds * clm, beta * evds * clm,
         beta * ((vov - evds) * clm + vmid * evds * lam))), 0.0)

    # Body transconductance: d ids / d vbs = -gm_eff * dvth/dvbs.
    gmb = -gm * dvth_dvbs

    if swapped:
        # Undo the source-drain swap.  In swapped orientation the computed
        # current flows effective-drain -> effective-source = actual s -> d,
        # and the partials map as: d/dvgs -> gm stays on vgs but measured
        # from the other terminal; the standard result is:
        #   ids_actual = -ids_swapped
        #   gm_actual  = gm_swapped        (applied to vgd = vgs - vds)
        # We fold the remapping algebraically so the caller can stamp with
        # plain (gm, gds, gmb) against (vgs, vds, vbs):
        #   i(vgs,vds,vbs) = -f(vgs-vds, -vds, vbs-vds)
        #   di/dvgs = -f1
        #   di/dvds = f1 + f2 + f3
        #   di/dvbs = -f3
        ids, gm, gds, gmb = np.where(
            inverted, (-ids, -gm, gm + gds + gmb, -gmb), (ids, gm, gds, gmb))

    # Undo the polarity transform for the current (partials are invariant).
    return bank.sign * ids, gm, gds, gmb


def mos_level1_stamps(xs: list[float], devices: tuple[tuple, ...],
                      ) -> list[float]:
    """Signed MNA stamp values of a level-1 bank at one state, per device.

    *xs* is the augmented state as a list (ground last, 0.0) and
    *devices* the rows of :meth:`Level1Bank.devices`.  Returns the
    ``10 * n`` values the compiled MOS family scatters, in its order:
    kind-major ``gm, gds, gmb, -gsum, -gm, -gds, -gmb, gsum`` for the
    ``(d,g) (d,d) (d,b) (d,s) (s,g) (s,d) (s,b) (s,s)`` matrix stamps,
    then ``-ieq, ieq`` for the drain and source rows, where
    ``gsum = gm + gds + gmb`` and ``ieq = ids - gm*vgs - gds*vds -
    gmb*vbs``.

    This is :func:`mos_level1_bank` plus the stamper's concatenation,
    element by element in plain floats: a one-state Newton iteration
    evaluates 6-11 devices, where each of the bank's ~40 numpy calls
    costs more in call overhead than in arithmetic.  Every operation
    mirrors the bank's operand order (IEEE arithmetic on one element is
    the same in numpy and in Python), so the values are bitwise the
    bank's, signed zeros and infinities included, and NaN where the
    bank gives NaN (the sign bit numpy gives a NaN made from two NaNs
    depends on the element's position in the array, so it is not
    reproducible element by element):

    * the clamp ``max(phi - vbs, 1e-4)`` keeps a NaN, like
      ``np.maximum`` (``max(1e-4, p)`` would drop it);
    * squares are ``vov*vov``, as numpy computes ``vov**2`` (Python's
      ``**`` would raise on overflow);
    * the signs multiply by ``-1.0``, as the stamper's sign vector does.
    """
    n = len(devices)
    out = [0.0] * (10 * n)
    for i, (d, g, s, b, sign, beta, half_beta, tvto, lam, gamma,
            neg_gamma, phi, sqrt_phi) in enumerate(devices):
        vs = xs[s]
        vgs = xs[g] - vs
        vbs = xs[b] - vs
        vds = xs[d] - vs
        tvgs = sign * vgs
        tvbs = sign * vbs
        tvds = sign * vds
        inverted = tvds < 0.0
        if inverted:
            tvgs = tvgs - tvds
            tvbs = tvbs - tvds
        evds = abs(tvds)
        phi_vbs = phi - tvbs
        sqrt_phi_vbs = sqrt(1e-4 if phi_vbs < 1e-4 else phi_vbs)
        vov = tvgs - (tvto + gamma * (sqrt_phi_vbs - sqrt_phi))
        clm = 1.0 + lam * evds
        if vov > 0.0:
            if evds >= vov:
                half_beta_vov2 = half_beta * (vov * vov)
                ids = half_beta_vov2 * clm
                gm = beta * vov * clm
                gds = half_beta_vov2 * lam
            else:
                vmid = vov - 0.5 * evds
                ids = beta * vmid * evds * clm
                gm = beta * evds * clm
                gds = beta * ((vov - evds) * clm + vmid * evds * lam)
        else:
            ids = gm = gds = 0.0
        gmb = -gm * (neg_gamma / (2.0 * sqrt_phi_vbs) if phi_vbs > 1e-4
                     else 0.0)
        if inverted:
            ids, gm, gds, gmb = -ids, -gm, gm + gds + gmb, -gmb
        ieq = sign * ids - gm * vgs - gds * vds - gmb * vbs
        gsum = gm + gds + gmb
        out[i::n] = (gm, gds, gmb, gsum * -1.0, gm * -1.0, gds * -1.0,
                     gmb * -1.0, gsum, ieq * -1.0, ieq)
    return out
