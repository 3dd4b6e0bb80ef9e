"""Grid data model for hybrid AC/DC networks.

Loads and validates case files (JSON, schema ``acdc-case/1``), builds the
derived solver structure, enumerates the N-1 contingency list and derives
per-contingency network variants.  All quantities are per-unit on the case
base MVA; angles are radians.

A :class:`Network` is immutable after load and safe to share read-only
across worker processes; no element is ever changed in place, so the
variants :func:`apply_contingency` returns share every element they do
not drop with the input network (an N-1 check takes the variant of the
network that carries the evaluated point's controls).

Every network carries a :class:`SolverPlan`, the structure and the
constants that the solvers and the constraint report read and never
rebuild.  It has three parts:

- the bus part: the Newton unknowns and equation rows, the load, bus
  setpoint and preset-voltage vectors, the bus rows of the generators,
  shunts and converter PCCs, the slack generators, and the names and
  bounds of the AC voltage, angle and generator limits;
- the branch part: the bus admittance matrix, its sparsity pattern with
  the Newton Jacobian position of every entry, the per-branch terms of
  the vectorised branch flows, the position of each branch by outage id,
  and the names and bounds of the flow limits;
- the DC part: the conductance matrix, the rows that the converter modes
  fix, the preset DC voltages, and the names and bounds of the DC limits
  and converter capabilities.

Whatever builds a variant's admittance builds its plan: :func:`_finalize`
at load and :func:`apply_contingency` (branch part for an AC outage, DC
part for a DC outage).  A tap change keeps the branch topology (the bus
rows, the sparsity pattern and the Jacobian positions) and
:func:`acdcopf.opfcore.apply_taps` recomputes only the admittance values
over it (:func:`branch_values`).  The bus part never changes across
variants (outages drop only branches, and no control is a bus constant)
and is shared by reference.  A plan reads its constants from the
elements once, so an element changed in place would leave it stale;
variants copy the elements they change.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

CASE_SCHEMA_VERSION = "acdc-case/1"

BUS_KINDS = ("slack", "pv", "pq")
CONVERTER_MODES = ("droop", "const_p", "const_vdc")
# how far a stepped control's range, counted in steps, may lie from a
# whole number
STEP_GRID_TOL = 1e-9


class CaseError(Exception):
    """Base class for case-file problems."""


class CaseParseError(CaseError):
    """The file is not valid JSON or misses required schema structure."""


class CaseValidationError(CaseError):
    """The parsed case violates a model invariant; names the offender."""


class IslandingError(Exception):
    """A branch outage disconnects a load or generator bus from the slack."""


@dataclass
class AcBus:
    id: int
    kind: str                  # slack | pv | pq
    p_d: float = 0.0
    q_d: float = 0.0
    u: float = 1.0
    delta: float = 0.0
    u_min: float = 0.9
    u_max: float = 1.1
    delta_min: float = -math.pi / 4
    delta_max: float = math.pi / 4
    u_set: float = 1.0
    a_min: float = 0.85        # voltage alarm limits (outside security band)
    a_max: float = 1.15
    h_min: float = 0.90        # voltage security limits
    h_max: float = 1.10


@dataclass
class AcBranch:
    from_bus: int
    to_bus: int
    g: float                   # series admittance, real part
    b: float                   # series admittance, imaginary part
    b_charge: float = 0.0      # total line charging susceptance
    tap: float = 1.0
    tap_min: float = 1.0
    tap_max: float = 1.0
    tap_step: float = 0.0
    p_min: float = -99.0       # active flow limits (from side, signed)
    p_max: float = 99.0
    p_alarm: float = 99.9      # flow alarm limit (> security limit)
    p_secure: float = 99.0     # flow security limit
    outage_id: str = ""
    label: str = ""


@dataclass
class Generator:
    bus: int
    p_g: float = 0.0
    q_g: float = 0.0
    p_min: float = 0.0
    p_max: float = 1.0
    q_min: float = -1.0
    q_max: float = 1.0
    u_g: float = 1.0
    alpha: float = 0.0         # $/h per p.u.^2
    beta: float = 0.0          # $/h per p.u.
    gamma: float = 0.0         # $/h


@dataclass
class ShuntCompensator:
    bus: int
    q_c: float = 0.0
    q_min: float = 0.0
    q_max: float = 0.0
    q_step: float = 0.0


@dataclass
class ConverterStation:
    name: str
    pcc_bus: int
    dc_bus: int
    g: float                   # coupling admittance, real part
    b: float                   # coupling admittance, imaginary part
    p_s: float = 0.0           # scheduled PCC->converter active power
    q_s: float = 0.0
    a_loss: float = 0.0        # no-load loss
    b_loss: float = 0.0        # linear loss coefficient
    c_loss: float = 0.0        # quadratic loss coefficient
    p_center: float = 0.0      # capability circle center
    q_center: float = 0.0
    r_min: float = 0.0
    r_max: float = 99.0
    mode: str = "droop"        # droop | const_p | const_vdc
    droop: float = 0.005       # voltage-per-power slope
    u_dc0: float = 1.0         # droop/const_vdc reference voltage


@dataclass
class DcBus:
    id: int
    u_dc: float = 1.0
    u_min: float = 0.9
    u_max: float = 1.1
    u_set: float = 1.0


@dataclass
class DcBranch:
    from_bus: int
    to_bus: int
    y: float                   # conductance (> 0)
    i_min: float = -99.0
    i_max: float = 99.0
    p_min: float = -99.0
    p_max: float = 99.0
    outage_id: str = ""
    label: str = ""


@dataclass(frozen=True)
class Contingency:
    kind: str                  # ac_line | dc_line
    branch_id: str             # outage id, e.g. "L4"
    label: str                 # e.g. "L4(3-4)"


@dataclass
class ControlBounds:
    """Global bounds for control components not carried per element."""

    u_g: tuple[float, float] = (0.9, 1.1)
    p_s: tuple[float, float] = (-1.0, 1.0)
    q_s: tuple[float, float] = (-1.0, 1.0)
    u_dc0: tuple[float, float] = (0.9, 1.1)
    droop: tuple[float, float] = (-10.0, 10.0)


@dataclass
class Network:
    """Full AC grid + DC grid + converter stations + operating limits."""

    name: str
    base_mva: float
    buses: list[AcBus]
    branches: list[AcBranch]
    generators: list[Generator]
    shunts: list[ShuntCompensator]
    converters: list[ConverterStation]
    dc_buses: list[DcBus]
    dc_branches: list[DcBranch]
    bounds: ControlBounds
    contingencies: list[Contingency] = field(default_factory=list)
    excluded_contingencies: list[Contingency] = field(default_factory=list)
    plan: SolverPlan = field(default=None, repr=False)
    bus_index: dict[int, int] = field(default_factory=dict, repr=False)

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def contingency(self, branch_id: str) -> Contingency:
        for k in self.contingencies:
            if k.branch_id == branch_id:
                return k
        for k in self.excluded_contingencies:
            if k.branch_id == branch_id:
                return k
        raise KeyError(f"unknown contingency id {branch_id!r}")


# ---------------------------------------------------------------------------
# Solver plan


# a constraint group of a plan: names, lower and upper bounds
Limits = tuple[tuple[str, ...], np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class BusPlan:
    """Bus part of a :class:`SolverPlan`: the AC Newton unknowns and the
    per-bus constants of the loads, generators, shunts and converter PCCs
    (no outage moves an element of these lists)."""

    slack: int
    pv: np.ndarray
    pq: np.ndarray
    pvpq: np.ndarray           # buses with an unknown angle
    fixed: np.ndarray          # slack, then PV: buses with a set magnitude
    # Newton unknowns are the angles at pvpq, then the magnitudes at pq;
    # equations are P at pvpq, then Q at pq.  Flat positions of the
    # mismatch entries in the float view of the complex S, and the row
    # (and column) of each bus's P equation (angle) and Q equation
    # (magnitude), -1 where it has none
    mis_index: np.ndarray
    eq_rows: np.ndarray        # 2 x n
    p_d: np.ndarray            # demand per bus
    q_d: np.ndarray
    p_load: np.ndarray         # injection of the demand, ``0 - p_d``
    q_load: np.ndarray
    vm_set: np.ndarray         # bus voltage setpoint ``u``
    u_set: np.ndarray          # preset voltage of the deviation objective
    gen_rows: np.ndarray       # bus row of each generator
    slack_gens: np.ndarray     # generators at the slack bus
    shunt_rows: np.ndarray     # bus row of each shunt
    pcc_rows: np.ndarray       # PCC bus row of each converter
    # ac_voltage, ac_angle, and with generators gen_q and gen_p_slack
    limits: dict[str, Limits]


@dataclass(frozen=True, eq=False)
class BranchPlan:
    """Branch part of a :class:`SolverPlan`: the topology of the
    branches and, over it, the values that their admittances give
    (:func:`branch_values`: the admittance matrix, its pattern values and
    the from-side pi-model terms of every branch, split in real and
    imaginary parts)."""

    ybus: np.ndarray
    f: np.ndarray              # from-bus row per branch
    t: np.ndarray              # to-bus row per branch
    yff_r: np.ndarray
    yff_i: np.ndarray
    yft_r: np.ndarray
    yft_i: np.ndarray
    # sparsity pattern of ybus: row, column and admittance of each entry,
    # the diagonal of every bus first, then the (f, t) and (t, f) entries
    # of every branch (parallel branches repeat an entry and its value)
    pat_r: np.ndarray
    pat_c: np.ndarray
    pat_y: np.ndarray
    # the reduced Newton Jacobian (flat, m x m) takes the entries
    # ``jac_src`` of the float view of the stacked pattern values of
    # (dS/dVa, dS/dVm) at its flat positions ``jac_dst``
    jac_src: np.ndarray
    jac_dst: np.ndarray
    index: dict[str, int]      # outage id -> position in the branch list
    limits: dict[str, Limits]  # ac_flow, when there are branches


@dataclass(frozen=True, eq=False)
class DcPlan:
    """DC part of a :class:`SolverPlan`: the conductance matrix, the bus
    rows of every DC branch, the rows that the converter modes fix, and
    the DC-side and converter constants."""

    index: dict[int, int]      # DC bus id -> row
    ydc: np.ndarray
    f: np.ndarray
    t: np.ndarray
    y: np.ndarray              # branch conductance
    conv_rows: np.ndarray      # DC row of each converter, in case order
    vdc_rows: np.ndarray       # rows of const_vdc converters: set voltage
    free_rows: np.ndarray      # every other row, ascending: Newton unknowns
    droop_rows: np.ndarray     # rows whose equation is the droop law
    const_p: tuple[int, ...]   # const_p converters, in case order
    y_series: tuple[complex, ...]  # per converter: complex(g, b) of its PCC
    r_series: tuple[float, ...]    # branch, and (1 / complex(g, b)).real
    u_set: np.ndarray          # preset DC bus voltage
    # dc_voltage, and with DC branches dc_current and dc_flow
    limits: dict[str, Limits]
    capability: tuple[str, ...]    # capability constraint name per converter


@dataclass(frozen=True, eq=False)
class SolverPlan:
    """Per-network solver structure and constants, built once per
    (network, contingency, taps) and immutable; its arrays are read-only."""

    buses: BusPlan
    branches: BranchPlan
    dc: DcPlan


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _limits(names: list[str], lo: list[float], hi: list[float]) -> Limits:
    bounds = np.array(lo, dtype=float), np.array(hi, dtype=float)
    _read_only(*bounds)
    return (tuple(names), *bounds)


def branch_admittance(br: AcBranch) -> tuple[complex, complex, complex]:
    """Pi-model terms ``(y_ff, y_ft, y_tt)`` of one branch, tap on the from
    side; the model is symmetric, so ``y_tf == y_ft``."""
    ys = complex(br.g, br.b)
    ysh = 1j * br.b_charge / 2.0
    tap = br.tap if br.tap != 0.0 else 1.0
    return (ys + ysh) / (tap * tap), -ys / tap, ys + ysh


def bus_plan(net: Network) -> BusPlan:
    """Bus part of the plan of ``net``: its buses, generators, shunts and
    converters."""
    buses, gens = net.buses, net.generators
    kinds = [b.kind for b in buses]
    pv = np.array([i for i, k in enumerate(kinds) if k == "pv"], dtype=int)
    pq = np.array([i for i, k in enumerate(kinds) if k == "pq"], dtype=int)
    pvpq = np.concatenate([pv, pq])
    slack = kinds.index("slack")
    fixed = np.concatenate([[slack], pv]).astype(int)
    n = len(buses)
    # 0: P row (real part); 1: Q row (imaginary part)
    mis_index = np.concatenate([2 * pvpq, 2 * pq + 1])
    eq_rows = np.full((2, n), -1)
    eq_rows[0, pvpq] = np.arange(len(pvpq))
    eq_rows[1, pq] = len(pvpq) + np.arange(len(pq))
    p_d = np.array([b.p_d for b in buses], dtype=float)
    q_d = np.array([b.q_d for b in buses], dtype=float)
    p_load, q_load = np.zeros(n) - p_d, np.zeros(n) - q_d
    vm_set = np.array([b.u for b in buses], dtype=float)
    u_set = np.array([b.u_set for b in buses], dtype=float)
    rows = net.bus_index
    gen_rows = np.array([rows[g.bus] for g in gens], dtype=int)
    slack_gens = np.flatnonzero(gen_rows == slack)
    shunt_rows = np.array([rows[sh.bus] for sh in net.shunts], dtype=int)
    pcc_rows = np.array([rows[c.pcc_bus] for c in net.converters], dtype=int)
    _read_only(pv, pq, pvpq, fixed, mis_index, eq_rows, p_d, q_d, p_load,
               q_load, vm_set, u_set, gen_rows, slack_gens, shunt_rows,
               pcc_rows)

    limits = {
        "ac_voltage": _limits([f"U:bus{b.id}" for b in buses],
                              [b.u_min for b in buses],
                              [b.u_max for b in buses]),
        "ac_angle": _limits([f"delta:bus{b.id}" for b in buses],
                            [b.delta_min for b in buses],
                            [b.delta_max for b in buses])}
    if gens:
        limits["gen_q"] = _limits([f"Q_G:bus{g.bus}" for g in gens],
                                  [g.q_min for g in gens],
                                  [g.q_max for g in gens])
        slack_p = [gens[j] for j in slack_gens]
        limits["gen_p_slack"] = _limits(
            [f"P_G:bus{buses[slack].id}" for _ in slack_p],
            [g.p_min for g in slack_p], [g.p_max for g in slack_p])
    return BusPlan(slack, pv, pq, pvpq, fixed, mis_index, eq_rows, p_d, q_d,
                   p_load, q_load, vm_set, u_set, gen_rows, slack_gens,
                   shunt_rows, pcc_rows, limits)


def branch_plan(buses: BusPlan, bus_index: dict[int, int],
                branches: list[AcBranch]) -> BranchPlan:
    """Branch part of the plan: the topology of the branches (their bus
    rows, the sparsity pattern of the admittance matrix with the Newton
    Jacobian position of every entry, through the equation rows of
    ``buses``, the outage index and the flow limits), with the values
    :func:`branch_values` computes over it."""
    n_bus, m = len(bus_index), len(branches)
    f = np.fromiter((bus_index[br.from_bus] for br in branches), int, m)
    t = np.fromiter((bus_index[br.to_bus] for br in branches), int, m)
    pat_r = np.concatenate([np.arange(n_bus), f, t])
    pat_c = np.concatenate([np.arange(n_bus), t, f])
    # the four Jacobian blocks (P or Q row, angle or magnitude column) of
    # every pattern entry whose buses have that row and column
    part_r, part_c = np.array([[0], [0], [1], [1]]), np.array([[0], [1]] * 2)
    row, col = buses.eq_rows[part_r, pat_r], buses.eq_rows[part_c, pat_c]
    keep = (row >= 0) & (col >= 0)
    nnz, size = len(pat_r), len(buses.mis_index)
    jac_src = ((part_c * nnz + np.arange(nnz)) * 2 + part_r)[keep]
    jac_dst = (row * size + col)[keep]
    _read_only(f, t, pat_r, pat_c, jac_src, jac_dst)
    limits = {"ac_flow": _limits([f"P_L:{br.outage_id}" for br in branches],
                                 [br.p_min for br in branches],
                                 [br.p_max for br in branches])
              } if branches else {}
    return BranchPlan(
        f=f, t=t, pat_r=pat_r, pat_c=pat_c, jac_src=jac_src, jac_dst=jac_dst,
        index={br.outage_id: i for i, br in enumerate(branches)},
        limits=limits, **branch_values(branches, f, t, pat_r, pat_c, n_bus))


def branch_values(branches: list[AcBranch], f: np.ndarray, t: np.ndarray,
                  pat_r: np.ndarray, pat_c: np.ndarray,
                  n_bus: int) -> dict[str, np.ndarray]:
    """The admittance values of a :class:`BranchPlan` (``ybus``, the
    per-branch ``y_ff``/``y_ft`` parts and the pattern values ``pat_y``)
    of ``branches``, whose bus rows are ``f``/``t`` and whose pattern
    entries are ``pat_r``/``pat_c``; a tap change recomputes only these.
    """
    m = len(branches)
    terms = np.fromiter(itertools.chain.from_iterable(
        map(branch_admittance, branches)), complex, 3 * m).reshape(m, 3)
    ybus = np.zeros(n_bus * n_bus, dtype=complex)
    # entries ff, tt, ft, tf of each branch in turn: every sum is formed
    # in branch order
    fn, tn = f * n_bus, t * n_bus
    np.add.at(ybus, np.array([fn + f, tn + t, fn + t, tn + f]).T.ravel(),
              terms[:, [0, 2, 1, 1]].ravel())
    yff, yft = terms[:, 0], terms[:, 1]
    values = {"ybus": ybus.reshape(n_bus, n_bus),
              "yff_r": yff.real.copy(), "yff_i": yff.imag.copy(),
              "yft_r": yft.real.copy(), "yft_i": yft.imag.copy(),
              "pat_y": ybus[pat_r * n_bus + pat_c]}
    _read_only(*values.values())
    return values


def dc_plan(dc_buses: list[DcBus], dc_branches: list[DcBranch],
            converters: list[ConverterStation]) -> DcPlan:
    """DC part of the plan of a DC grid with these buses, branches and
    converters; a free row that is not a droop row is a power balance."""
    index = {b.id: i for i, b in enumerate(dc_buses)}
    n = len(dc_buses)
    ydc = np.zeros((n, n))
    for br in dc_branches:
        f, t = index[br.from_bus], index[br.to_bus]
        ydc[f, f] += br.y
        ydc[t, t] += br.y
        ydc[f, t] -= br.y
        ydc[t, f] -= br.y
    f = np.array([index[br.from_bus] for br in dc_branches], dtype=int)
    t = np.array([index[br.to_bus] for br in dc_branches], dtype=int)
    y = np.array([br.y for br in dc_branches], dtype=float)
    conv = np.array([index[c.dc_bus] for c in converters], dtype=int)
    vdc = conv[[c.mode == "const_vdc" for c in converters]]
    droop = conv[[c.mode == "droop" for c in converters]]
    free = np.setdiff1d(np.arange(n), vdc)
    u_set = np.array([b.u_set for b in dc_buses], dtype=float)
    _read_only(ydc, f, t, y, conv, vdc, free, droop, u_set)
    limits = {"dc_voltage": _limits([f"U_dc:bus{b.id}" for b in dc_buses],
                                    [b.u_min for b in dc_buses],
                                    [b.u_max for b in dc_buses])
              } if dc_buses else {}
    if dc_branches:
        limits["dc_current"] = _limits(
            [f"I_dc:{br.outage_id}" for br in dc_branches],
            [br.i_min for br in dc_branches], [br.i_max for br in dc_branches])
        limits["dc_flow"] = _limits(
            [f"P_dc:{br.outage_id}" for br in dc_branches],
            [br.p_min for br in dc_branches], [br.p_max for br in dc_branches])
    const_p = tuple(j for j, c in enumerate(converters) if c.mode == "const_p")
    y_series = tuple(complex(c.g, c.b) for c in converters)
    r_series = tuple((1.0 / y_c).real for y_c in y_series)
    return DcPlan(index, ydc, f, t, y, conv, vdc, free, droop, const_p,
                  y_series, r_series, u_set, limits,
                  tuple(f"capability:{c.name}" for c in converters))


def build_plan(net: Network) -> SolverPlan:
    """A fresh plan of ``net``, built from its elements alone."""
    buses = bus_plan(net)
    return SolverPlan(buses, branch_plan(buses, net.bus_index, net.branches),
                      dc_plan(net.dc_buses, net.dc_branches, net.converters))


# ---------------------------------------------------------------------------
# Loading and validation


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CaseValidationError(message)


def _require_finite(fields: dict, name: str) -> None:
    # JSON parsing accepts NaN and Infinity, and the invariant checks
    # would let a NaN through
    for key, value in fields.items():
        for v in value if isinstance(value, list) else (value,):
            _require(not isinstance(v, float) or math.isfinite(v),
                     f"{name}: {key} is not finite ({v})")


def _near_multiple(span: float, step: float) -> bool:
    if step <= 0:
        return False
    ratio = span / step
    return abs(ratio - round(ratio)) < STEP_GRID_TOL


def load_case(path: str | Path) -> Network:
    """Load and validate an ``acdc-case/1`` JSON case file.

    Raises :class:`CaseParseError` for malformed files and
    :class:`CaseValidationError` for invariant violations; each message
    names the offending element.
    """
    path = Path(path)
    if not path.exists():
        raise CaseParseError(f"case file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CaseParseError(f"case file {path} is not valid JSON: {exc}") from exc
    return network_from_dict(raw)


def network_from_dict(raw: dict) -> Network:
    if not isinstance(raw, dict):
        raise CaseParseError("case document must be a JSON object")
    version = raw.get("version")
    if version != CASE_SCHEMA_VERSION:
        raise CaseParseError(
            f"unsupported case schema version {version!r} "
            f"(expected {CASE_SCHEMA_VERSION!r})")
    for section in ("base_mva", "ac_buses", "ac_branches", "generators"):
        if section not in raw:
            raise CaseParseError(f"case is missing required section {section!r}")

    def build(cls, items, section):
        if not isinstance(items, list):
            raise CaseParseError(f"{section} must be a JSON list")
        numeric = {f.name for f in dataclasses.fields(cls)
                   if f.type in ("int", "float")}
        out = []
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                raise CaseParseError(
                    f"{section}[{i}] must be a JSON object, not {item!r}")
            fields = {k: v for k, v in item.items() if not k.startswith("_")}
            for key, value in fields.items():
                # a bool is not taken as a number, nor is null or a string
                if key in numeric and type(value) not in (int, float):
                    raise CaseParseError(f"{section}[{i}].{key} must be a "
                                         f"number, not {value!r}")
            _require_finite(fields, f"{section}[{i}]")
            try:
                out.append(cls(**fields))
            except TypeError as exc:
                raise CaseParseError(f"{section}[{i}]: {exc}") from exc
        return out

    buses = build(AcBus, raw["ac_buses"], "ac_buses")
    branches = build(AcBranch, raw["ac_branches"], "ac_branches")
    generators = build(Generator, raw["generators"], "generators")
    shunts = build(ShuntCompensator, raw.get("shunts", []), "shunts")
    converters = build(ConverterStation, raw.get("converters", []), "converters")
    dc_buses = build(DcBus, raw.get("dc_buses", []), "dc_buses")
    dc_branches = build(DcBranch, raw.get("dc_branches", []), "dc_branches")
    base_mva = raw["base_mva"]
    if type(base_mva) not in (int, float):
        raise CaseParseError(f"case: base_mva must be a number, "
                             f"not {base_mva!r}")
    _require_finite({"base_mva": base_mva}, "case")

    net = Network(
        name=raw.get("name", "unnamed"),
        base_mva=float(base_mva),
        buses=buses, branches=branches, generators=generators,
        shunts=shunts, converters=converters,
        dc_buses=dc_buses, dc_branches=dc_branches,
        bounds=_control_bounds(raw.get("limits", {})),
    )
    _validate(net)
    _finalize(net)
    return net


def _control_bounds(raw) -> ControlBounds:
    """The ``limits`` section: control kind -> [lo, hi] with lo <= hi."""
    if not isinstance(raw, dict):
        raise CaseParseError(f"limits must be a JSON object, not {raw!r}")
    kinds = {f.name for f in dataclasses.fields(ControlBounds)}
    for key, pair in raw.items():
        if key not in kinds:
            raise CaseParseError(f"limits: unknown key {key!r}")
        # a bool is not taken as a number
        if (not isinstance(pair, list) or len(pair) != 2
                or any(type(v) not in (int, float) for v in pair)):
            raise CaseParseError(f"limits: {key} must be a pair of numbers "
                                 f"[lo, hi], not {pair!r}")
        _require_finite({key: pair}, "limits")
        _require(pair[0] <= pair[1], f"limits: {key} lower bound {pair[0]} "
                                     f"exceeds upper bound {pair[1]}")
    return ControlBounds(**{k: tuple(v) for k, v in raw.items()})


def _validate(net: Network) -> None:
    # AC buses
    ids = [b.id for b in net.buses]
    dup = {i for i in ids if ids.count(i) > 1}
    _require(not dup, f"duplicate AC bus ids: {sorted(dup)}")
    slack = [b.id for b in net.buses if b.kind == "slack"]
    _require(len(slack) == 1,
             f"exactly one slack bus required, found {slack or 'none'}")
    for b in net.buses:
        _require(b.kind in BUS_KINDS, f"bus {b.id}: unknown kind {b.kind!r}")
        _require(b.u_min < b.u_max,
                 f"bus {b.id}: U_min {b.u_min} must be < U_max {b.u_max}")
        _require(b.a_min < b.h_min,
                 f"bus {b.id}: alarm limit A_min {b.a_min} must lie below "
                 f"security limit H_min {b.h_min}")
        _require(b.h_max < b.a_max,
                 f"bus {b.id}: security limit H_max {b.h_max} must lie below "
                 f"alarm limit A_max {b.a_max}")
        _require(b.delta_min < b.delta_max,
                 f"bus {b.id}: angle limits out of order")

    bus_set = set(ids)
    for i, br in enumerate(net.branches):
        name = f"AC branch {i + 1} ({br.from_bus}-{br.to_bus})"
        _require(br.from_bus in bus_set and br.to_bus in bus_set,
                 f"{name}: references unknown bus")
        _require(br.from_bus != br.to_bus, f"{name}: self loop")
        _require(br.p_alarm > br.p_secure > 0,
                 f"{name}: flow limits must satisfy P_A > P_H > 0 "
                 f"(got P_A={br.p_alarm}, P_H={br.p_secure})")
        if br.tap_min < br.tap_max:
            _require(br.tap_step > 0,
                     f"{name}: tap range declared but step is not positive")
            _require(_near_multiple(br.tap_max - br.tap_min, br.tap_step),
                     f"{name}: tap range is not a multiple of the tap step")
        else:
            _require(br.tap_min == br.tap_max,
                     f"{name}: tap_min must be <= tap_max")

    # generators
    for gen in net.generators:
        name = f"generator at bus {gen.bus}"
        _require(gen.bus in bus_set, f"{name}: unknown bus")
        _require(gen.p_min <= gen.p_max, f"{name}: P limits out of order")
        _require(gen.q_min <= gen.q_max, f"{name}: Q limits out of order")
        _require(gen.alpha >= 0, f"{name}: alpha must be nonnegative")
    gen_buses = [g.bus for g in net.generators]
    dup = {b for b in gen_buses if gen_buses.count(b) > 1}
    _require(not dup, f"multiple generators on bus(es) {sorted(dup)}")

    # one shunt per bus: the control name Q_C:bus<id> names the bus
    shunt_buses = [sh.bus for sh in net.shunts]
    for i, sh in enumerate(net.shunts):
        name = f"shunt at bus {sh.bus}"
        _require(sh.bus in bus_set, f"{name}: unknown bus")
        j = shunt_buses.index(sh.bus)
        _require(j == i, f"shunts[{i}]: bus {sh.bus} already has shunts[{j}]; "
                         f"merge them into one shunt")
        if sh.q_min < sh.q_max:
            _require(sh.q_step > 0, f"{name}: range declared but step not positive")
            _require(_near_multiple(sh.q_max - sh.q_min, sh.q_step),
                     f"{name}: range is not a multiple of the step")

    # DC side
    dc_ids = [b.id for b in net.dc_buses]
    dup = {i for i in dc_ids if dc_ids.count(i) > 1}
    _require(not dup, f"duplicate DC bus ids: {sorted(dup)}")
    dc_set = set(dc_ids)
    for b in net.dc_buses:
        _require(b.u_min < b.u_max, f"DC bus {b.id}: voltage limits out of order")
    for i, br in enumerate(net.dc_branches):
        name = f"DC branch {i + 1} ({br.from_bus}-{br.to_bus})"
        _require(br.from_bus in dc_set and br.to_bus in dc_set,
                 f"{name}: references unknown DC bus")
        _require(br.y > 0, f"{name}: conductance must be positive")
        _require(br.i_min <= br.i_max, f"{name}: current limits out of order")

    conv_pcc = [c.pcc_bus for c in net.converters]
    conv_dc = [c.dc_bus for c in net.converters]
    for c in net.converters:
        name = f"converter {c.name}"
        _require(c.pcc_bus in bus_set, f"{name}: unknown PCC bus {c.pcc_bus}")
        _require(c.dc_bus in dc_set, f"{name}: unknown DC bus {c.dc_bus}")
        _require(c.mode in CONVERTER_MODES, f"{name}: unknown mode {c.mode!r}")
        _require(0 <= c.r_min < c.r_max, f"{name}: capability radii out of order")
        _require(min(c.a_loss, c.b_loss, c.c_loss) >= 0,
                 f"{name}: loss coefficients must be nonnegative")
    dup = {b for b in conv_pcc if conv_pcc.count(b) > 1}
    _require(not dup, f"multiple converters on PCC bus(es) {sorted(dup)}")
    dup = {b for b in conv_dc if conv_dc.count(b) > 1}
    _require(not dup, f"multiple converters on DC bus(es) {sorted(dup)}")
    if net.dc_buses:
        _require(net.converters,
                 "DC grid present but no converter stations defined")

    # pre-contingency connectivity
    slack_id = slack[0]
    reachable = _reachable(bus_set, [(b.from_bus, b.to_bus) for b in net.branches],
                           slack_id)
    missing = sorted(bus_set - reachable)
    _require(not missing,
             f"AC grid is disconnected: bus(es) {missing} unreachable from slack")
    if net.dc_buses:
        comp = _reachable(dc_set,
                          [(b.from_bus, b.to_bus) for b in net.dc_branches],
                          net.dc_buses[0].id)
        missing = sorted(dc_set - comp)
        _require(not missing, f"DC grid is disconnected: bus(es) {missing}")
        # the rule _dc_outage_islands applies to post-outage islands
        _require(any(c.mode != "const_p" for c in net.converters),
                 "DC grid has no droop or const_vdc converter; its voltage "
                 "is undetermined")


def _reachable(nodes: set[int], edges: list[tuple[int, int]], start: int) -> set[int]:
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for f, t in edges:
        adj[f].append(t)
        adj[t].append(f)
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _finalize(net: Network) -> None:
    """Assign outage ids, build the solver plan and contingency list."""
    net.bus_index = {b.id: i for i, b in enumerate(net.buses)}
    for i, br in enumerate(net.branches):
        br.outage_id = f"L{i + 1}"
        br.label = f"L{i + 1}({br.from_bus}-{br.to_bus})"
    for i, br in enumerate(net.dc_branches):
        br.outage_id = f"DC{i + 1}"
        br.label = f"DC{i + 1}({br.from_bus}-{br.to_bus})"
    net.plan = build_plan(net)

    net.contingencies = []
    net.excluded_contingencies = []
    for br in net.branches:
        k = Contingency("ac_line", br.outage_id, br.label)
        if _ac_outage_islands(net, br):
            log.warning("excluding contingency %s: outage islands a load or "
                        "generator bus", k.label)
            net.excluded_contingencies.append(k)
        else:
            net.contingencies.append(k)
    for br in net.dc_branches:
        k = Contingency("dc_line", br.outage_id, br.label)
        if _dc_outage_islands(net, br):
            log.warning("excluding contingency %s: outage leaves a DC island "
                        "without voltage control", k.label)
            net.excluded_contingencies.append(k)
        else:
            net.contingencies.append(k)


def _ac_outage_islands(net: Network, out: AcBranch) -> bool:
    slack_id = net.buses[net.plan.buses.slack].id
    edges = [(b.from_bus, b.to_bus) for b in net.branches if b is not out]
    reach = _reachable({b.id for b in net.buses}, edges, slack_id)
    load_or_gen = {b.id for b in net.buses if b.p_d != 0 or b.q_d != 0}
    load_or_gen |= {g.bus for g in net.generators}
    return bool(load_or_gen - reach)


def _dc_outage_islands(net: Network, out: DcBranch) -> bool:
    # every post-outage DC component must hold a droop or const_vdc converter
    nodes = {b.id for b in net.dc_buses}
    edges = [(b.from_bus, b.to_bus) for b in net.dc_branches if b is not out]
    vref = {c.dc_bus for c in net.converters if c.mode in ("droop", "const_vdc")}
    remaining = set(nodes)
    while remaining:
        comp = _reachable(nodes, edges, min(remaining)) & remaining
        remaining -= comp
        if not comp & vref:
            return True
    return False


# ---------------------------------------------------------------------------
# Contingency application


def apply_contingency(net: Network, k: Contingency) -> Network:
    """Return a variant of ``net`` with the branch of ``k`` removed.

    The input network is never mutated; the variant shares its other
    elements.  Raises :class:`IslandingError`
    when the removal disconnects a load or generator bus from the slack
    (AC) or leaves an active DC island without voltage control (DC).
    """
    if k.kind == "ac_line":
        target = next((b for b in net.branches if b.outage_id == k.branch_id), None)
        if target is None:
            raise KeyError(f"unknown AC outage id {k.branch_id!r}")
        if _ac_outage_islands(net, target):
            raise IslandingError(
                f"outage {k.label} disconnects a load or generator bus "
                f"from the slack")
        new = copy.copy(net)
        new.branches = [b for b in net.branches if b.outage_id != k.branch_id]
        new.plan = dataclasses.replace(
            net.plan, branches=branch_plan(net.plan.buses, new.bus_index,
                                           new.branches))
        return new
    if k.kind == "dc_line":
        target = next((b for b in net.dc_branches if b.outage_id == k.branch_id),
                      None)
        if target is None:
            raise KeyError(f"unknown DC outage id {k.branch_id!r}")
        if _dc_outage_islands(net, target):
            raise IslandingError(
                f"outage {k.label} leaves a DC island without voltage control")
        new = copy.copy(net)
        new.dc_branches = [b for b in net.dc_branches
                           if b.outage_id != k.branch_id]
        new.plan = dataclasses.replace(
            net.plan, dc=dc_plan(new.dc_buses, new.dc_branches,
                                 new.converters))
        return new
    raise ValueError(f"unknown contingency kind {k.kind!r}")


# ---------------------------------------------------------------------------
# Control space


# control kind -> (name prefix, element list of the network, attribute
# that names the element), in control-vector order; each kind is also the
# element field that the control sets
CONTROL_KINDS = {
    "p_g": ("P_G:bus", "generators", "bus"),
    "u_g": ("U_G:bus", "generators", "bus"),
    "tap": ("T:", "branches", "outage_id"),
    "q_c": ("Q_C:bus", "shunts", "bus"),
    "p_s": ("P_s:", "converters", "name"),
    "q_s": ("Q_s:", "converters", "name"),
    "u_dc0": ("U_dc0:", "converters", "name"),
    "droop": ("R:", "converters", "name"),
}


@dataclass(frozen=True)
class ControlComponent:
    name: str                  # e.g. "P_G:bus2", "T:L5", "P_s:VSC1"
    kind: str                  # p_g | u_g | tap | q_c | p_s | q_s | u_dc0 | droop
    key: str                   # bus id, branch outage id or converter name
    lo: float
    hi: float
    step: float                # 0 for continuous components
    base: float                # case-file default value


def _control_range(net: Network, kind: str, el) -> tuple | None:
    """``(lo, hi, step)`` of the ``kind`` control of element ``el``, or
    None when ``el`` has no such control."""
    if kind == "p_g":
        lo, hi, step = el.p_min, el.p_max, 0.0
    elif kind == "tap":
        lo, hi, step = el.tap_min, el.tap_max, el.tap_step
    elif kind == "q_c":
        lo, hi, step = el.q_min, el.q_max, el.q_step
    else:
        (lo, hi), step = getattr(net.bounds, kind), 0.0
    fixed = (kind == "p_g" and el.bus == net.buses[net.plan.buses.slack].id
             or kind in ("tap", "q_c") and not lo < hi
             or kind == "u_dc0" and el.mode == "const_p"
             or kind == "droop" and el.mode != "droop")
    return None if fixed else (lo, hi, step)


class ControlSpace:
    """Component layout of the control vector, fixed by the case file.

    Ordering: P_G (non-slack generators) | U_G (all generators) | T
    (adjustable transformers) | Q_C (adjustable shunts) | P_s | Q_s |
    U_dc0 (droop and const_vdc converters) | R (droop converters).
    """

    def __init__(self, net: Network):
        comps: list[ControlComponent] = []
        positions: list[int] = []
        for kind, (prefix, elements, name) in CONTROL_KINDS.items():
            for pos, el in enumerate(getattr(net, elements)):
                limits = _control_range(net, kind, el)
                if limits is not None:
                    key = str(getattr(el, name))
                    comps.append(ControlComponent(prefix + key, kind, key,
                                                  *limits, getattr(el, kind)))
                    positions.append(pos)

        self.components = comps
        self.names = [c.name for c in comps]
        self.kinds = [c.kind for c in comps]
        # position of each component's element in its list; outages drop
        # only branches, so it holds in every variant of the network but
        # for taps, which are found through the branch plan's index
        self.positions = positions
        self.lo = np.array([c.lo for c in comps])
        self.hi = np.array([c.hi for c in comps])
        self.step = np.array([c.step for c in comps])
        self.base = np.array([c.base for c in comps])
        self.index = {c.name: i for i, c in enumerate(comps)}
        self._stepped = np.flatnonzero(self.step > 0)

    def __len__(self) -> int:
        return len(self.components)

    def default_vector(self) -> np.ndarray:
        return self.snap(self.base)

    def snap(self, u_raw: np.ndarray) -> np.ndarray:
        """Clamp to bounds and round stepped components to their grids.
        Idempotent.  A grid point is ``lo + k * step`` rounded to 12
        decimals, so the case value of a stepped control (a tap of 0.975
        on a 0.9 + k * 0.0125 grid) is its own grid point."""
        u_raw = np.asarray(u_raw, dtype=float)
        if u_raw.shape != self.lo.shape:
            raise ValueError(
                f"control vector has {u_raw.shape[0]} components, "
                f"expected {len(self)}")
        u = np.clip(u_raw, self.lo, self.hi)
        s = self._stepped
        if s.size:
            lo, step = self.lo[s], self.step[s]
            k = np.round((u[s] - lo) / step)
            u[s] = np.minimum(np.round(lo + k * step, 12), self.hi[s])
        return u


# ---------------------------------------------------------------------------
# Bundled cases


def bundled_case_path(name: str) -> Path:
    """Path of a case shipped with the package (e.g. ``case14_acdc``)."""
    ref = resources.files("acdcopf").joinpath(f"cases/{name}.json")
    with resources.as_file(ref) as p:
        return Path(p)


def load_bundled_case(name: str) -> Network:
    return load_case(bundled_case_path(name))
