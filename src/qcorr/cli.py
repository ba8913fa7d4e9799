"""Command-line interface: CSV sweeps, oracle verification, crossovers.

Commands
--------
sweep       EoF and QD curves over the mixing parameter, as CSV.
verify      Re-run a sweep with the numeric oracle and report the worst
            relative residual; exits 2 when it exceeds the threshold.
crossover   Bisect for the alpha (or p) where two quantities cross.
state-info  Eigenvalues, concurrence and entropies of one state.

CSV output is deterministic: header ``p,eof,qd_analytic`` (plus
``qd_numeric,residual,concurrence`` when the oracle runs), one row per
grid point in ascending p, floats printed with round-trip precision,
LF line endings, UTF-8.

Exit codes: 0 success, 1 usage or domain error, 2 verification failure,
3 numeric failure (including a bracket without sign change).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .deformed import DeformationSpec, QuasiBellSpec, overlap, quasi_bell_wmatrix, select_nmax
from .discord import qd_gwl, qd_numeric, qd_werner
from .entanglement import (
    concurrence_gwl_analytic,
    concurrence_pure,
    concurrence_werner,
    eof_from_concurrence,
)
from .linalg import (
    DomainError,
    NumericError,
    hermitian_eigenvalues,
    partial_trace,
    tolerance,
    von_neumann_entropy,
)
from .states import GWL_RANGE, WERNER_RANGE, WMatrix, gwl, werner

# Relative residuals divide by max(|QD|, this floor) so exact zeros of
# the analytic formula stay comparable.
RESIDUAL_FLOOR = 1e-6

DEFAULT_VERIFY_THRESHOLD = 1e-8
DEFAULT_ROOT_TOL = 1e-4
DEFAULT_P_STEP = 0.01

# Largest p grid a command may ask for; checked before the grid is built.
MAX_GRID_POINTS = 1_000_000

_FAMILY_FLAG = {
    "harmonic": "harmonic",
    "poschl-teller": "poschl_teller",
    "exciton": "exciton",
    "morse": "morse",
}


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class SweepConfig:
    """Everything one sweep needs: the state, the grid, the outputs."""

    kind: str
    psi: WMatrix | None
    p_start: float
    p_stop: float
    p_step: float
    oracle: bool
    grid_n: int
    out: str | None


@dataclass
class CurveRow:
    """One CSV row of a sweep."""

    p: float
    eof: float
    qd_analytic: float
    qd_numeric: float | None = None
    residual: float | None = None
    concurrence: float | None = None


def p_grid(start, stop, step):
    """Ascending arithmetic grid start, start + step, ... up to stop."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise UsageError(
            "--p-start, --p-stop and --p-step must be finite, got %r, %r, %r"
            % (start, stop, step)
        )
    if step <= 0.0:
        raise UsageError("--p-step must be positive, got %r" % step)
    if stop < start:
        raise UsageError("--p-stop %r below --p-start %r" % (stop, start))
    last = (stop - start) / step + 1e-9
    if not last < MAX_GRID_POINTS:
        raise UsageError(
            "--p-step %r gives more than %d grid points from %r to %r"
            % (step, MAX_GRID_POINTS, start, stop)
        )
    return [start + i * step for i in range(int(math.floor(last)) + 1)]


def compute_rows(cfg):
    """Evaluate the sweep; qd_numeric/residual only when the oracle runs.

    The closed forms run once on the whole p grid, and the oracle once,
    on the stack of every row's density matrix.
    """
    ps = p_grid(cfg.p_start, cfg.p_stop, cfg.p_step)
    if cfg.kind == "werner":
        conc, qd = concurrence_werner(ps), qd_werner(ps)
    else:
        c_pure = concurrence_pure(cfg.psi)
        conc, qd = concurrence_gwl_analytic(c_pure, ps), qd_gwl(c_pure, ps)
    eof = eof_from_concurrence(conc)
    rows = [
        CurveRow(p, e, q, None, None, k)
        for p, e, q, k in zip(ps, eof.tolist(), qd.tolist(), conc.tolist())
    ]
    if cfg.oracle:
        rhos = [werner(p) if cfg.kind == "werner" else gwl(cfg.psi, p) for p in ps]
        for row, qn in zip(rows, qd_numeric(rhos, grid_n=cfg.grid_n).tolist()):
            qd = row.qd_analytic
            row.qd_numeric = qn
            row.residual = abs(qd - qn) / max(abs(qd), RESIDUAL_FLOOR)
    return rows


def _fmt(x):
    return repr(float(x))


def csv_text(rows, oracle):
    header = "p,eof,qd_analytic"
    if oracle:
        header += ",qd_numeric,residual,concurrence"
    lines = [header]
    for r in rows:
        cells = [_fmt(r.p), _fmt(r.eof), _fmt(r.qd_analytic)]
        if oracle:
            cells += [_fmt(r.qd_numeric), _fmt(r.residual), _fmt(r.concurrence)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _diagonal_wmatrix(c):
    # canonical diag(a, b) with a^2 + b^2 = 1 and 2ab = c
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise UsageError("--concurrence must lie in [0, 1], got %r" % c)
    a = math.sqrt((1.0 + math.sqrt(1.0 - c * c)) / 2.0)
    b = c / (2.0 * a)
    return WMatrix([[a, 0.0], [0.0, b]])


def _deformation_spec(args):
    # the family flags as a spec; without --nmax, select_nmax picks the
    # level at --alpha, so a command resolves this once and reuses it
    if args.family is None:
        raise UsageError("--family is required for deformed states")
    spec = DeformationSpec(
        family=_FAMILY_FLAG[args.family], N=args.N, kappa=args.kappa, n_max=args.nmax
    )
    if spec.n_max is None:
        if args.alpha is None:
            raise UsageError("--alpha is required for deformed states")
        spec = replace(spec, n_max=select_nmax(spec, args.alpha, args.deformed_kind))
    return spec


def _deformed_psi(spec, args, alpha=None, kind=None):
    qb = QuasiBellSpec(
        spec=spec,
        alpha=args.alpha if alpha is None else alpha,
        kind=args.deformed_kind if kind is None else kind,
        sign=args.sign,
    )
    return quasi_bell_wmatrix(qb)


def build_state(args):
    """Resolve the state flags to (kind, psi or None, deformation spec or None)."""
    if args.kind == "werner":
        return "werner", None, None
    if args.kind == "gwl":
        given = [v is not None for v in (args.wmatrix, args.concurrence)]
        if sum(given) != 1:
            raise UsageError("gwl needs exactly one of --wmatrix or --concurrence")
        if args.wmatrix is not None:
            with open(args.wmatrix, "r", encoding="utf-8") as fh:
                return "gwl", WMatrix.from_text(fh.read()), None
        return "gwl", _diagonal_wmatrix(args.concurrence), None
    if args.kind == "deformed":
        if args.alpha is None:
            raise UsageError("--alpha is required for deformed states")
        spec = _deformation_spec(args)
        return "deformed", _deformed_psi(spec, args), spec
    raise UsageError("unknown kind %r" % (args.kind,))


def _default_range(kind):
    return WERNER_RANGE if kind == "werner" else GWL_RANGE


def _sweep_config(args):
    kind, psi, _ = build_state(args)
    lo, hi = _default_range(kind)
    return SweepConfig(
        kind=kind,
        psi=psi,
        p_start=lo if args.p_start is None else args.p_start,
        p_stop=hi if args.p_stop is None else args.p_stop,
        p_step=args.p_step,
        oracle=args.oracle,
        grid_n=args.grid,
        out=getattr(args, "out", None),
    )


def cmd_sweep(args):
    with tolerance(args.tol):
        cfg = _sweep_config(args)
        text = csv_text(compute_rows(cfg), cfg.oracle)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args):
    threshold = DEFAULT_VERIFY_THRESHOLD if args.tol is None else args.tol
    args.oracle = True
    cfg = _sweep_config(args)
    rows = compute_rows(cfg)
    worst = max(rows, key=lambda r: r.residual)
    print(
        "verify: kind=%s points=%d grid=%d threshold=%g"
        % (cfg.kind, len(rows), cfg.grid_n, threshold)
    )
    print("  max relative residual %.6e at p=%r" % (worst.residual, worst.p))
    if worst.residual > threshold:
        print("FAIL")
        return 2
    print("PASS")
    return 0


def _bisect(g, lo, hi, tol, label):
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0 and g_hi == 0.0:
        raise NumericError(
            "%s is zero at both ends of [%g, %g]; no isolated crossing" % (label, lo, hi)
        )
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise NumericError(
            "%s does not change sign on [%g, %g] (endpoint values %g, %g)"
            % (label, lo, hi, g_lo, g_hi)
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _eof_minus_qd(c_pure, p):
    return eof_from_concurrence(concurrence_gwl_analytic(c_pure, p)) - qd_gwl(c_pure, p)


def cmd_crossover(args):
    root_tol = DEFAULT_ROOT_TOL if args.tol is None else args.tol
    lo, hi = GWL_RANGE
    start = lo if args.p_start is None else args.p_start
    stop = hi if args.p_stop is None else args.p_stop
    ps = p_grid(start, stop, args.p_step)

    if args.functional == "p-crossing":
        if args.pair != "eof-qd":
            raise UsageError("--functional p-crossing only applies to --pair eof-qd")
        if args.alpha is None:
            raise UsageError("--functional p-crossing needs --alpha")
        c = concurrence_pure(_deformed_psi(_deformation_spec(args), args))
        # scan downward from p = 1 for the highest sign change
        p_sep = 1.0 / (1.0 + 2.0 * c)
        scan = [1.0 - 1e-9]
        p = 1.0 - 1e-3
        while p > p_sep + 1e-6:
            scan.append(p)
            p -= 1e-3
        positive = _eof_minus_qd(c, scan) > 0.0
        change = np.flatnonzero(positive[:-1] != positive[1:])
        if change.size == 0:
            raise NumericError("EoF - QD does not change sign below p = 1 for this state")
        i = int(change[0])
        root = _bisect(lambda p: _eof_minus_qd(c, p), scan[i + 1], scan[i], 1e-10, "EoF - QD")
        print("crossover pair=eof-qd functional=p-crossing alpha=%r p=%r" % (args.alpha, root))
        print(
            "note: p-crossing reports the largest mixing parameter where the "
            "EoF and QD curves of this fixed state cross"
        )
        return 0

    spec = _deformation_spec(args)

    def concurrence_at(alpha, kind=None):
        return concurrence_pure(_deformed_psi(spec, args, alpha=alpha, kind=kind))

    if args.pair == "eof-qd":

        def g(alpha):
            return float(np.max(_eof_minus_qd(concurrence_at(alpha), ps)))

        label = "max over p of EoF - QD"
    elif args.pair == "coherent-vs-a":

        def g(alpha):
            gap = qd_gwl(concurrence_at(alpha, "C"), ps) - qd_gwl(concurrence_at(alpha, "A"), ps)
            return float(np.max(gap))

        label = "max over p of QD(coherent) - QD(A)"
    else:
        raise UsageError("unknown pair %r" % (args.pair,))

    root = _bisect(g, args.alpha_lo, args.alpha_hi, root_tol, label)
    print("crossover pair=%s functional=alpha-max-p alpha=%r" % (args.pair, root))
    print(
        "note: alpha-max-p bisects alpha on the sign of [%s] over the p grid "
        "(%g..%g step %g)" % (label, start, stop, args.p_step)
    )
    return 0


def cmd_state_info(args):
    with tolerance(args.tol):
        kind, psi, spec = build_state(args)
        p = args.p
        if p is None:
            raise UsageError("state-info needs --p")
        if kind == "werner":
            rho = werner(p)
            conc = concurrence_werner(p)
            qd = qd_werner(p)
        else:
            rho = gwl(psi, p)
            c_pure = concurrence_pure(psi)
            conc = concurrence_gwl_analytic(c_pure, p)
            qd = qd_gwl(c_pure, p)
            print("pure-state concurrence: %s" % _fmt(c_pure))
            if kind == "deformed":
                print("overlap s: %s" % _fmt(overlap(spec, args.alpha, args.deformed_kind)))
        eof = eof_from_concurrence(conc)
        eigs = hermitian_eigenvalues(rho).eigenvalues
        print("eigenvalues: %s" % ", ".join(_fmt(v) for v in eigs))
        print("concurrence: %s" % _fmt(conc))
        print("entropy_total: %s" % _fmt(von_neumann_entropy(rho)))
        print("entropy_reduced_A: %s" % _fmt(von_neumann_entropy(partial_trace(rho, "B"))))
        print("entropy_reduced_B: %s" % _fmt(von_neumann_entropy(partial_trace(rho, "A"))))
        print("eof: %s" % _fmt(eof))
        print("qd_analytic: %s" % _fmt(qd))
        if args.oracle:
            print("qd_numeric: %s" % _fmt(qd_numeric(rho, grid_n=args.grid)))
        return 0


def _add_state_flags(sp):
    sp.add_argument("--kind", choices=("werner", "gwl", "deformed"), default="werner")
    sp.add_argument("--wmatrix", help="file with four complex amplitudes, row-major")
    sp.add_argument(
        "--concurrence",
        type=float,
        help="build the canonical diagonal pure state with this concurrence",
    )
    sp.add_argument("--family", choices=tuple(_FAMILY_FLAG))
    sp.add_argument("--N", type=int, help="trap depth / bound-state count")
    sp.add_argument("--kappa", type=float, help="Lamb-Dicke-like parameter")
    sp.add_argument("--alpha", type=float, help="coherent amplitude (non-negative)")
    sp.add_argument(
        "--nmax", type=int, help="truncation level (default: chosen by select_nmax)"
    )
    sp.add_argument("--deformed-kind", choices=("C", "A", "D"), default="C")
    sp.add_argument("--sign", choices=("plus", "minus"), default="plus")
    sp.add_argument("--oracle", action="store_true", help="also run the numeric oracle")
    sp.add_argument("--grid", type=int, default=64, help="oracle polar grid count")
    sp.add_argument("--tol", type=float, help="command-specific tolerance override")


def _add_range_flags(sp):
    sp.add_argument("--p-start", type=float)
    sp.add_argument("--p-stop", type=float)
    sp.add_argument("--p-step", type=float, default=DEFAULT_P_STEP)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The qcorr argument parser, built once per process.

    Parsing leaves the parser unchanged and every call starts from a
    fresh namespace, so later commands see the defaults again.
    """
    parser = _Parser(prog="qcorr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("sweep", help="write EoF/QD curves as CSV")
    _add_state_flags(sp)
    _add_range_flags(sp)
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="compare analytic curves against the oracle")
    _add_state_flags(sp)
    _add_range_flags(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("crossover", help="bisect where two quantities cross")
    _add_state_flags(sp)
    _add_range_flags(sp)
    sp.add_argument("--pair", choices=("eof-qd", "coherent-vs-a"), default="eof-qd")
    sp.add_argument(
        "--functional",
        choices=("alpha-max-p", "p-crossing"),
        default="alpha-max-p",
        help="alpha-max-p bisects alpha on the max-over-p sign; "
        "p-crossing locates the EoF/QD crossing in p at fixed alpha",
    )
    sp.add_argument("--alpha-lo", type=float, default=0.2)
    sp.add_argument("--alpha-hi", type=float, default=3.0)
    sp.set_defaults(func=cmd_crossover)

    sp = sub.add_parser("state-info", help="print eigenvalues, concurrence, entropies")
    _add_state_flags(sp)
    sp.add_argument("--p", type=float, help="mixing parameter")
    sp.set_defaults(func=cmd_state_info)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except DomainError as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return 1
    except NumericError as exc:
        print("numeric error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
