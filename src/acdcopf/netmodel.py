"""Grid data model for hybrid AC/DC networks.

Loads and validates case files (JSON, schema ``acdc-case/1``), builds the
derived AC admittance matrix, enumerates the N-1 contingency list and
derives per-contingency network variants.  All quantities are per-unit on
the case base MVA; angles are radians.

A :class:`Network` is immutable after load and safe to share read-only
across worker processes; :func:`apply_contingency` returns independent
copies.
"""

from __future__ import annotations

import copy
import json
import logging
import math
from dataclasses import dataclass, field, asdict
from importlib import resources
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

CASE_SCHEMA_VERSION = "acdc-case/1"

BUS_KINDS = ("slack", "pv", "pq")
CONVERTER_MODES = ("droop", "const_p", "const_vdc")


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
    p_dc0: float = 0.0         # droop reference injection
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
    ybus: np.ndarray = field(default=None, repr=False)
    bus_index: dict[int, int] = field(default_factory=dict, repr=False)
    dc_bus_index: dict[int, int] = field(default_factory=dict, repr=False)

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def slack_index(self) -> int:
        for i, bus in enumerate(self.buses):
            if bus.kind == "slack":
                return i
        raise CaseValidationError("network has no slack bus")

    def contingency(self, branch_id: str) -> Contingency:
        for k in self.contingencies:
            if k.branch_id == branch_id:
                return k
        for k in self.excluded_contingencies:
            if k.branch_id == branch_id:
                return k
        raise KeyError(f"unknown contingency id {branch_id!r}")


# ---------------------------------------------------------------------------
# Admittance matrix


def branch_admittance(br: AcBranch) -> tuple[complex, complex, complex]:
    """Pi-model terms ``(y_ff, y_ft, y_tt)`` of one branch, tap on the from
    side; the model is symmetric, so ``y_tf == y_ft``."""
    ys = complex(br.g, br.b)
    ysh = 1j * br.b_charge / 2.0
    tap = br.tap if br.tap != 0.0 else 1.0
    return (ys + ysh) / (tap * tap), -ys / tap, ys + ysh


def build_ybus(buses: list[AcBus], branches: list[AcBranch],
               bus_index: dict[int, int]) -> np.ndarray:
    """Dense complex bus admittance matrix."""
    n = len(buses)
    ybus = np.zeros((n, n), dtype=complex)
    for br in branches:
        f = bus_index[br.from_bus]
        t = bus_index[br.to_bus]
        yff, yft, ytt = branch_admittance(br)
        ybus[f, f] += yff
        ybus[t, t] += ytt
        ybus[f, t] += yft
        ybus[t, f] += yft
    return ybus


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


def _near_multiple(span: float, step: float, tol: float = 1e-9) -> bool:
    if step <= 0:
        return False
    ratio = span / step
    return abs(ratio - round(ratio)) < tol


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
        out = []
        for i, item in enumerate(items):
            fields = {k: v for k, v in item.items() if not k.startswith("_")}
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
    bounds_raw = raw.get("limits", {})
    _require_finite(bounds_raw, "limits")
    _require_finite({"base_mva": raw["base_mva"]}, "case")
    bounds = ControlBounds(**{k: tuple(v) for k, v in bounds_raw.items()})

    net = Network(
        name=raw.get("name", "unnamed"),
        base_mva=float(raw["base_mva"]),
        buses=buses, branches=branches, generators=generators,
        shunts=shunts, converters=converters,
        dc_buses=dc_buses, dc_branches=dc_branches, bounds=bounds,
    )
    _validate(net)
    _finalize(net)
    return net


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
    """Assign outage ids, build the admittance matrix and contingency list."""
    net.bus_index = {b.id: i for i, b in enumerate(net.buses)}
    net.dc_bus_index = {b.id: i for i, b in enumerate(net.dc_buses)}
    for i, br in enumerate(net.branches):
        br.outage_id = f"L{i + 1}"
        br.label = f"L{i + 1}({br.from_bus}-{br.to_bus})"
    for i, br in enumerate(net.dc_branches):
        br.outage_id = f"DC{i + 1}"
        br.label = f"DC{i + 1}({br.from_bus}-{br.to_bus})"
    net.ybus = build_ybus(net.buses, net.branches, net.bus_index)

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
    slack_id = net.buses[net.slack_index].id
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
    """Return a copy of ``net`` with the branch of ``k`` removed.

    The input network is never mutated.  Raises :class:`IslandingError`
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
        new = copy.deepcopy(net)
        new.branches = [b for b in new.branches if b.outage_id != k.branch_id]
        new.ybus = build_ybus(new.buses, new.branches, new.bus_index)
        return new
    if k.kind == "dc_line":
        target = next((b for b in net.dc_branches if b.outage_id == k.branch_id),
                      None)
        if target is None:
            raise KeyError(f"unknown DC outage id {k.branch_id!r}")
        if _dc_outage_islands(net, target):
            raise IslandingError(
                f"outage {k.label} leaves a DC island without voltage control")
        new = copy.deepcopy(net)
        new.dc_branches = [b for b in new.dc_branches
                           if b.outage_id != k.branch_id]
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
    fixed = (kind == "p_g" and el.bus == net.buses[net.slack_index].id
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
        for kind, (prefix, elements, name) in CONTROL_KINDS.items():
            for el in getattr(net, elements):
                limits = _control_range(net, kind, el)
                if limits is not None:
                    key = str(getattr(el, name))
                    comps.append(ControlComponent(prefix + key, kind, key,
                                                  *limits, getattr(el, kind)))

        self.components = comps
        self.names = [c.name for c in comps]
        self.kinds = [c.kind for c in comps]
        self.lo = np.array([c.lo for c in comps])
        self.hi = np.array([c.hi for c in comps])
        self.step = np.array([c.step for c in comps])
        self.base = np.array([c.base for c in comps])
        self.index = {c.name: i for i, c in enumerate(comps)}

    def __len__(self) -> int:
        return len(self.components)

    def default_vector(self) -> np.ndarray:
        u, _ = self.snap(self.base)
        return u

    def snap(self, u_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Clamp to bounds and round stepped components to their grids.

        Returns ``(u, clamped)`` where ``clamped`` flags components that
        fell outside their declared bounds.  Idempotent.
        """
        u_raw = np.asarray(u_raw, dtype=float)
        if u_raw.shape != self.lo.shape:
            raise ValueError(
                f"control vector has {u_raw.shape[0]} components, "
                f"expected {len(self)}")
        clamped = (u_raw < self.lo - 1e-12) | (u_raw > self.hi + 1e-12)
        u = np.clip(u_raw, self.lo, self.hi)
        stepped = self.step > 0
        if np.any(stepped):
            k = np.round((u[stepped] - self.lo[stepped]) / self.step[stepped])
            u[stepped] = self.lo[stepped] + k * self.step[stepped]
            u[stepped] = np.minimum(u[stepped], self.hi[stepped])
        return u, clamped


# ---------------------------------------------------------------------------
# Serialization


def network_to_dict(net: Network) -> dict:
    """Serialize back to the ``acdc-case/1`` schema (round-trip stable)."""

    def strip(obj, drop=("outage_id", "label")):
        d = asdict(obj)
        for key in drop:
            d.pop(key, None)
        return d

    return {
        "version": CASE_SCHEMA_VERSION,
        "name": net.name,
        "base_mva": net.base_mva,
        "ac_buses": [strip(b) for b in net.buses],
        "ac_branches": [strip(b) for b in net.branches],
        "generators": [strip(g) for g in net.generators],
        "shunts": [strip(s) for s in net.shunts],
        "converters": [strip(c) for c in net.converters],
        "dc_buses": [strip(b) for b in net.dc_buses],
        "dc_branches": [strip(b) for b in net.dc_branches],
        "limits": {k: list(v) for k, v in asdict(net.bounds).items()},
    }


# ---------------------------------------------------------------------------
# Bundled cases


def bundled_case_path(name: str) -> Path:
    """Path of a case shipped with the package (e.g. ``case14_acdc``)."""
    ref = resources.files("acdcopf").joinpath(f"cases/{name}.json")
    with resources.as_file(ref) as p:
        return Path(p)


def load_bundled_case(name: str) -> Network:
    return load_case(bundled_case_path(name))
