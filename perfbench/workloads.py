"""Seeded command lists for the three benchmark workloads.

Each workload is a fixed list of ``qcorr`` command lines. The seed picks
the states (random W-matrices, concurrences, amplitudes, kinds) and some
grid offsets; the list's length and make-up do not depend on it. Floats
are passed as ``repr`` strings, so the program and the reference read
the very same doubles. Only the standard library is imported here: the
set-up timing covers importing ``qcorr`` and nothing else heavy.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("oracle-verify", "analytic-sweep", "deformed-crossover")

GWL_LO, GWL_HI = -1.0 / 3.0, 1.0
WERNER_LO = -1.0

#: family (library name; the CLI flag has "-" for "_"): its parameter flags, N,
#: kappa, and a fixed truncation level inside the family's validity window
FAMILIES = {
    "harmonic": ((), None, None, 20),
    "poschl_teller": (("--N", "10"), 10, None, 9),
    "morse": (("--N", "10"), 10, None, 3),
    "exciton": (("--kappa", "0.3"), None, 0.3, 5),
}
BOUNDED = ("poschl_teller", "morse", "exciton")
KINDS = ("C", "A", "D")

#: Root tolerance of ``crossover --functional alpha-max-p`` when --tol is not given.
ALPHA_ROOT_TOL = 1e-4
#: Default p grid of ``crossover`` (GWL range, step 0.01).
CROSSOVER_GRID = (GWL_LO, GWL_HI, 0.01)


@dataclass(frozen=True)
class Deformed:
    """A symmetric quasi-Bell pair; ``n_max`` None means the command chooses it.

    For alpha-max-p commands ``alpha`` is the --alpha flag (None when not
    passed), which only steers the command's own choice of n_max.
    """

    family: str
    N: int | None
    kappa: float | None
    alpha: float | None
    kind: str
    n_max: int | None


@dataclass(frozen=True)
class Command:
    """One command line plus what its output must satisfy.

    ``check`` is one of sweep, verify, state-info, p-crossing, alpha-max-p.
    ``state`` is ("werner",), ("wmatrix", path), ("concurrence", c) or
    ("deformed", Deformed). ``grid`` is the (start, stop, step) the
    command sweeps, ``p`` the mixing parameter of state-info, and
    ``bracket`` the alpha bracket of alpha-max-p. With ``strict_format``
    a state-info value printed as a numpy scalar repr (``np.float64(x)``)
    is an error; elsewhere the value inside is checked and the format is
    left to the one strict command, so that the fault counts once a round.
    """

    argv: tuple
    check: str
    state: tuple
    oracle: bool = False
    grid: tuple | None = None
    p: float | None = None
    bracket: tuple | None = None
    strict_format: bool = False


def _r(x):
    return repr(float(x))


def _jittered_grid(lo, step, points, rng):
    # ``points`` rows whose last one sits half a step below the stop, so the
    # row count never hangs on round-off at the end of the grid
    start = lo + rng.uniform(0.0, 0.5) * step
    return start, start + (points - 0.5) * step, step


def _binary_grid(stop, step, points):
    # step and start are dyadic, so every grid point is exact and the last is ``stop``
    return stop - (points - 1) * step, stop, step


def _grid_flags(grid):
    start, stop, step = grid
    return ("--p-start", _r(start), "--p-stop", _r(stop), "--p-step", _r(step))


def _state_flags(state):
    tag = state[0]
    if tag == "werner":
        return ("--kind", "werner")
    if tag == "wmatrix":
        return ("--kind", "gwl", "--wmatrix", state[1])
    if tag == "concurrence":
        return ("--kind", "gwl", "--concurrence", _r(state[1]))
    d = state[1]
    flags = ("--kind", "deformed", "--family", d.family.replace("_", "-")) + FAMILIES[d.family][0]
    flags += ("--alpha", _r(d.alpha), "--deformed-kind", d.kind)
    if d.n_max is not None:
        flags += ("--nmax", str(d.n_max))
    return flags


def _deformed(family, alpha, kind, fixed_nmax=True):
    _, n, kappa, n_max = FAMILIES[family]
    return ("deformed", Deformed(family, n, kappa, alpha, kind, n_max if fixed_nmax else None))


def _sweep(state, grid, oracle):
    argv = ("sweep",) + _state_flags(state) + _grid_flags(grid)
    if oracle:
        argv += ("--oracle",)
    return Command(argv, "sweep", state, oracle=oracle, grid=grid)


def _verify(state, grid):
    argv = ("verify",) + _state_flags(state) + _grid_flags(grid)
    return Command(argv, "verify", state, oracle=True, grid=grid)


def _state_info(state, p, strict_format=False):
    argv = ("state-info",) + _state_flags(state) + ("--p", _r(p), "--oracle")
    return Command(argv, "state-info", state, oracle=True, p=p, strict_format=strict_format)


def _random_wmatrix_text(rng):
    parts = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in parts))
    tokens = []
    for z in parts:
        re, im = z.real / norm, z.imag / norm
        tokens.append("%r%s%rj" % (re, "+" if im >= 0.0 else "-", abs(im)))
    return " ".join(tokens) + "\n"


def _oracle_verify(rng, inputs_dir):
    werner = ("werner",)
    cmds = [
        _verify(werner, _jittered_grid(WERNER_LO, 0.05, 26, rng)),
        _sweep(werner, _binary_grid(0.25, 0.125, 11), oracle=True),
        _state_info(werner, rng.uniform(WERNER_LO, 1.0 / 3.0)),
        # fixed inputs: its "pure-state concurrence" line is checked for format too
        _state_info(("concurrence", 0.5), 0.5, strict_format=True),
    ]
    gwl_states = []
    for i in range(3):
        path = os.path.join(inputs_dir, "wmatrix-%d.txt" % i)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_random_wmatrix_text(rng))
        gwl_states.append(("wmatrix", path))
    gwl_states += [("concurrence", 0.0), ("concurrence", 1.0),
                   ("concurrence", rng.uniform(0.05, 0.95))]
    for state in gwl_states:
        cmds += [
            _verify(state, _jittered_grid(GWL_LO, 0.1, 13, rng)),
            _sweep(state, _binary_grid(GWL_HI, 0.125, 11), oracle=True),
            _state_info(state, rng.uniform(GWL_LO, GWL_HI)),
        ]
    for family in BOUNDED:
        for kind in KINDS:
            state = _deformed(family, rng.uniform(0.5, 1.5), kind)
            cmds += [
                _sweep(state, _binary_grid(GWL_HI, 0.25, 6), oracle=True),
                _state_info(state, rng.uniform(GWL_LO, GWL_HI)),
            ]
    return cmds


def _analytic_sweep(rng):
    # 10,001 rows per curve on a dyadic step k * 2^-17: GWL grids end exactly
    # at p = 1 and the Werner grid starts exactly at p = -1 (the pure points)
    step = rng.choice((15, 16, 17)) * 2.0**-17
    rows = 10001
    werner_grid = (WERNER_LO, WERNER_LO + (rows - 1) * step, step)
    gwl_grid = _binary_grid(GWL_HI, step, rows)
    cmds = [_sweep(("werner",), werner_grid, oracle=False)]
    for c in (0.0, 0.5, 1.0):
        cmds.append(_sweep(("concurrence", c), gwl_grid, oracle=False))
    for family in BOUNDED:
        state = _deformed(family, rng.uniform(0.5, 1.5), rng.choice(KINDS), fixed_nmax=False)
        cmds.append(_sweep(state, gwl_grid, oracle=False))
    return cmds


def _deformed_crossover(rng):
    cmds = []
    for family in FAMILIES:
        for kind in KINDS:
            state = _deformed(family, rng.uniform(0.65, 1.5), kind)
            argv = ("crossover", "--pair", "eof-qd", "--functional", "p-crossing")
            cmds.append(Command(argv + _state_flags(state), "p-crossing", state))
    # Poschl-Teller N=10 on a jittered [1.0, 1.6] bracket at a fixed n_max
    lo, hi = 1.0 - rng.uniform(0.0, 0.05), 1.6 + rng.uniform(0.0, 0.05)
    pt = _deformed("poschl_teller", None, "C")
    argv = ("crossover", "--pair", "coherent-vs-a", "--family", "poschl-teller", "--N", "10",
            "--nmax", "9", "--alpha-lo", _r(lo), "--alpha-hi", _r(hi))
    cmds.append(Command(argv, "alpha-max-p", pt, bracket=(lo, hi)))
    # Morse N=10 on the default bracket; n_max left to select_nmax at --alpha
    morse = _deformed("morse", rng.uniform(0.5, 2.0), "C", fixed_nmax=False)
    argv = ("crossover", "--pair", "coherent-vs-a", "--family", "morse", "--N", "10",
            "--alpha", _r(morse[1].alpha))
    cmds.append(Command(argv, "alpha-max-p", morse, bracket=(0.2, 3.0)))
    return cmds


def build(workload, seed, inputs_dir):
    """The command list of ``workload`` for ``seed``; writes input files to inputs_dir."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "oracle-verify":
        return _oracle_verify(rng, inputs_dir)
    if workload == "analytic-sweep":
        return _analytic_sweep(rng)
    if workload == "deformed-crossover":
        return _deformed_crossover(rng)
    raise ValueError("unknown workload %r, expected one of %r" % (workload, WORKLOADS))
