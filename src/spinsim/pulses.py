"""Instruction tables and sequence constructors for the 2-qubit search runs.

Two hardware profiles provide the same nine-instruction set
{X1, X1b, X2, X2b, Y1, Y1b, Y2, Y2b, Ipi}, where a trailing "b" marks the
inverse ("bar") of a rotation and Ipi is free evolution under the z-z
coupling for the time producing conditional phases -/+ pi/4.

ideal profile: each rotation is a single static transverse field of
magnitude 1 held for tau = 2*pi*0.25; bars reverse the field sign. Ipi has
J_z = -1e-6 held for tau = 2*pi*50e4.

nmr profile: every instruction carries the always-on background
(h0_z = 1 and 0.25 on spins 1 and 2, J_z = -1e-6); rotations add a
sinusoidal transverse drive resonant with the target spin, which also
shakes the spectator spin (the single coil drives both). A pulse along y
rotates about x and vice versa. Bars flip the sign of both drive
amplitudes at once.

Sequence construction: written gate products apply right-to-left, so every
constructor expands a product-notation name list through one shared helper,
``execution_order``, before building a PulseSequence. That keeps the single
most error-prone convention in exactly one place.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

from .propagator import TWO_PI, ElementaryOperation, PulseSequence, SpinModel

EO_NAMES = ("X1", "X1b", "X2", "X2b", "Y1", "Y1b", "Y2", "Y2b", "Ipi")

#: Execute W1's three instructions first ("12", the standard preparation) or
#: W2's first ("21", the logically equivalent swap that derails the NMR run).
INIT_ORDERS = ("12", "21")
#: The database items, 0..3, whose bits select the marked two-qubit basis state.
ITEMS = (0, 1, 2, 3)

# ideal rotation table: name -> (qubit, field axis, sign)
_IDEAL_ROTATIONS = {
    "X1": (1, "x", +1.0), "X1b": (1, "x", -1.0),
    "X2": (2, "x", +1.0), "X2b": (2, "x", -1.0),
    "Y1": (1, "y", +1.0), "Y1b": (1, "y", -1.0),
    "Y2": (2, "y", +1.0), "Y2b": (2, "y", -1.0),
}

# nmr rotation table: name -> (tau/2pi, drive axis, amp spin 1, amp spin 2, frequency)
# X-family drives along y, Y-family along x; bars flip both amplitudes.
_NMR_ROTATIONS = {
    "X1":  (10.0, "y", -0.05, -0.0125, 1.0),
    "X1b": (10.0, "y", +0.05, +0.0125, 1.0),
    "X2":  (40.0, "y", -0.05, -0.0125, 0.25),
    "X2b": (40.0, "y", +0.05, +0.0125, 0.25),
    "Y1":  (10.0, "x", +0.05, +0.0125, 1.0),
    "Y1b": (10.0, "x", -0.05, -0.0125, 1.0),
    "Y2":  (40.0, "x", +0.05, +0.0125, 0.25),
    "Y2b": (40.0, "x", -0.05, -0.0125, 0.25),
}

_COUPLING_Z = -1e-6
_IPI_TAU_OVER_2PI = 50e4


@dataclass(frozen=True)
class HardwareProfile:
    """Named map of the nine elementary operations for one hardware kind.

    Read-only: ``eos`` is a read-only copy of the map given.
    """

    kind: str
    eos: dict

    def __post_init__(self):
        object.__setattr__(self, "eos", MappingProxyType(dict(self.eos)))

    def eo(self, name: str) -> ElementaryOperation:
        try:
            return self.eos[name]
        except KeyError:
            raise ValueError(f"unknown instruction {name!r}; known: {list(self.eos)}") from None


def _nmr_background(model: SpinModel) -> SpinModel:
    model.set_coupling(1, 2, "z", _COUPLING_Z)
    model.set_static(1, "z", 1.0)
    model.set_static(2, "z", 0.25)
    return model


@functools.cache
def make_profile(kind: str) -> HardwareProfile:
    """The complete instruction table for 'ideal' or 'nmr' hardware.

    Built on the first call for a kind and returned by every later one:
    profiles and operations are read-only, so every caller can share one,
    and with it the plans and step-matrix pieces its operations keep.
    """
    eos = {}
    if kind == "ideal":
        for name, (j, axis, sign) in _IDEAL_ROTATIONS.items():
            model = SpinModel(2).set_static(j, axis, sign)
            eos[name] = ElementaryOperation(name, model, TWO_PI * 0.25)
        ipi = SpinModel(2).set_coupling(1, 2, "z", _COUPLING_Z)
        eos["Ipi"] = ElementaryOperation("Ipi", ipi, TWO_PI * _IPI_TAU_OVER_2PI)
    elif kind == "nmr":
        for name, (tau2pi, axis, a1, a2, f) in _NMR_ROTATIONS.items():
            model = _nmr_background(SpinModel(2))
            model.set_rf(1, axis, a1, f)
            model.set_rf(2, axis, a2, f)
            eos[name] = ElementaryOperation(name, model, TWO_PI * tau2pi)
        eos["Ipi"] = ElementaryOperation("Ipi", _nmr_background(SpinModel(2)), TWO_PI * _IPI_TAU_OVER_2PI)
    else:
        raise ValueError(f"hardware kind must be 'ideal' or 'nmr', got {kind!r}")
    return HardwareProfile(kind=kind, eos=eos)


def execution_order(product_names) -> list:
    """Expand a right-to-left operator product into execution order."""
    return list(reversed(list(product_names)))


def sequence_from_product(profile: HardwareProfile, product_names) -> PulseSequence:
    """PulseSequence for a gate product written in operator (right-to-left) order."""
    return PulseSequence([profile.eo(n) for n in execution_order(product_names)])


def _check_qubit(j: int) -> None:
    if j not in (1, 2):
        raise ValueError(f"qubit must be 1 or 2, got {j}")


def _check_item(item: int) -> None:
    if item not in ITEMS:
        raise ValueError(f"item must be 0..3, got {item}")


def wh_transform_product(j: int) -> list:
    """Walsh-Hadamard transform on qubit j as a product: W_j = X_j X_j Yb_j."""
    _check_qubit(j)
    return [f"X{j}", f"X{j}", f"Y{j}b"]


def f_oracle_product(item: int) -> list:
    """Database encoding F_item as a product of phase gadgets and Ipi.

    F_item = Y1 B1 Yb1 Y2 B2 Yb2 Ipi, where B1 is barred unless bit 1 of the
    item is set and B2 is barred unless bit 0 is set.
    """
    _check_item(item)
    b1 = "X1" if (item >> 1) & 1 else "X1b"
    b2 = "X2" if item & 1 else "X2b"
    return ["Y1", b1, "Y1b", "Y2", b2, "Y2b", "Ipi"]


def conditional_phase_product() -> list:
    """Conditional phase shift P = Y1 Xb1 Yb1 Y2 Xb2 Yb2 Ipi, the product of F_0: P equals -F0, a global phase."""
    return f_oracle_product(0)


def shortened_search_product(item: int) -> list:
    """The shortened two-block search program U_item as a product.

    U_item = X1 Yb1 X2 Yb2 Ipi  C1 Yb1 C2 Yb2 Ipi, where the bits of the item
    put the bar on the rightmost block: C1 is barred when bit 1 is set, C2
    when bit 0 is set. For items 1 and 2 this drops a physically irrelevant
    overall sign relative to the full product.
    """
    _check_item(item)
    c1 = "X1b" if (item >> 1) & 1 else "X1"
    c2 = "X2b" if item & 1 else "X2"
    return ["X1", "Y1b", "X2", "Y2b", "Ipi", c1, "Y1b", c2, "Y2b", "Ipi"]


def full_search_product(item: int) -> list:
    """Unshortened program: W1 W2 P W1 W2 F_item (used by the oracle tests)."""
    w1w2 = wh_transform_product(1) + wh_transform_product(2)
    return w1w2 + conditional_phase_product() + w1w2 + f_oracle_product(item)


@dataclass
class GroverProgram:
    """Initialization plus the shortened search program for one item. Every reader takes only
    ``seq``; the class stays because ``perfbench/workloads.py`` reads ``grover_program(...).seq``."""

    seq: PulseSequence


def grover_program(item: int, profile: HardwareProfile, init_order: str = "12") -> GroverProgram:
    """Complete search run: two WH transforms, then the shortened U_item.

    ``init_order`` "12" executes W1's instructions before W2's (the standard
    preparation); "21" swaps them, which is logically equivalent but exposes
    the phase errors of the nmr instructions.
    """
    if init_order not in INIT_ORDERS:
        raise ValueError(f"init_order must be one of {INIT_ORDERS}, got {init_order!r}")
    first, second = (1, 2) if init_order == "12" else (2, 1)
    product = shortened_search_product(item) + wh_transform_product(second) + wh_transform_product(first)
    return GroverProgram(sequence_from_product(profile, product))
