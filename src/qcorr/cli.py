"""Command-line interface: CSV sweeps, oracle verification, crossovers.

Commands
--------
sweep       EoF and QD curves over the mixing parameter, as CSV.
verify      Re-run a sweep with the oracle always on (no --oracle flag) and
            report the worst relative residual; exits 2 above the threshold.
crossover   Bisect for the alpha (or p) where two quantities cross, on a
            deformed state only and without the oracle's flags.
state-info  Eigenvalues, concurrence and entropies of one state.

A sweep is a table of named float columns over the p grid:
``p,eof,qd_analytic``, plus ``qd_numeric,residual,concurrence`` with the
oracle. Its CSV is deterministic: the names as header, one row per grid
point in ascending p, round-trip float precision, LF line endings, UTF-8.

Exit codes: 0 success, 1 usage or domain error (a state flag of another
--kind, an unreadable --wmatrix or an unwritable --out file is a usage
error), 2 verification failure, 3 numeric failure (including a bracket
without sign change).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from .deformed import (
    FAMILIES,
    DeformationSpec,
    _wmatrix_from_overlap,
    overlap,
    select_nmax,
)
from .discord import _gwl_kernel, qd_gwl, qd_numeric, qd_werner
from .entanglement import concurrence_pure, concurrence_werner, eof_from_concurrence
from .linalg import (
    DomainError,
    NumericError,
    _spectrum_entropy,
    partial_trace,
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


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


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
    # the same IEEE product and sum as start + i * step, as a list of Python floats
    return (start + np.arange(int(math.floor(last)) + 1) * step).tolist()


def _p_range(args, kind):
    """The --p-start/--p-stop ends, defaulting to the kind's range, and their grid."""
    lo, hi = WERNER_RANGE if kind == "werner" else GWL_RANGE
    start = lo if args.p_start is None else args.p_start
    stop = hi if args.p_stop is None else args.p_stop
    return start, stop, p_grid(start, stop, args.p_step)


def _closed_forms(kind, psi, p, tol):
    """(concurrence, EoF, qd) of the state at p, a scalar or a whole grid."""
    if kind == "werner":
        conc = concurrence_werner(p, tol)
        return conc, eof_from_concurrence(conc, tol), qd_werner(p, tol)
    return _gwl_kernel(concurrence_pure(psi), p, tol, rows=3)


def compute_rows(args, oracle, tol):
    """The sweep's CSV columns by name, in header order, as lists of floats.

    The closed forms run once on the whole p grid, and the oracle once,
    on the stack of every row's density matrix. Only the oracle adds the
    qd_numeric, residual and concurrence columns.
    """
    kind, psi, _ = build_state(args, tol)
    ps = _p_range(args, kind)[2]
    conc, eof, qd = _closed_forms(kind, psi, ps, tol)
    columns = {"p": ps, "eof": eof.tolist(), "qd_analytic": qd.tolist()}
    if oracle:
        rhos = werner(ps, tol) if kind == "werner" else gwl(psi, ps, tol)
        qn = qd_numeric(rhos, grid_n=_grid(args), tol=tol)
        columns["qd_numeric"] = qn.tolist()
        columns["residual"] = (np.abs(qd - qn) / np.maximum(np.abs(qd), RESIDUAL_FLOOR)).tolist()
        columns["concurrence"] = conc.tolist()
    return columns


def _fmt(x):
    return repr(float(x))


def csv_text(columns):
    """CSV of named float columns: the names as header, one line per row."""
    rows = map(",".join, zip(*(map(repr, column) for column in columns.values())))
    return "\n".join([",".join(columns), *rows, ""])


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
        family=args.family.replace("-", "_"), N=args.N, kappa=args.kappa, n_max=args.nmax
    )
    if spec.n_max is None:
        if args.alpha is None:
            raise UsageError("--alpha is required for deformed states")
        spec = replace(spec, n_max=select_nmax(spec, args.alpha, args.deformed_kind))
    return spec


def _grid(args):
    # the oracle's grid_n: --grid, or 64 where it is not given
    return 64 if args.grid is None else args.grid


def build_state(args, tol):
    """Resolve the state flags to (kind, psi or None, overlap s or None)."""
    # only the oracle reads --grid
    if not getattr(args, "oracle", True) and args.grid is not None:
        raise UsageError("--grid applies only with --oracle")
    # a flag of another kind would be dropped; --deformed-kind has a default
    for kind, names in (("gwl", "wmatrix concurrence"), ("deformed", "family N kappa alpha nmax")):
        for name in names.split():
            if args.kind != kind and getattr(args, name, None) is not None:
                raise UsageError("--%s does not apply to --kind %s" % (name, args.kind))
    if args.kind == "werner":
        return "werner", None, None
    if args.kind == "gwl":
        given = [v is not None for v in (args.wmatrix, args.concurrence)]
        if sum(given) != 1:
            raise UsageError("gwl needs exactly one of --wmatrix or --concurrence")
        if args.wmatrix is not None:
            try:
                with open(args.wmatrix, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                reason = getattr(exc, "strerror", None) or exc
                raise UsageError("cannot read --wmatrix %r: %s" % (args.wmatrix, reason)) from None
            # only a user's file meets --tol; states built here use the default
            return "gwl", WMatrix.from_text(text, tol), None
        return "gwl", _diagonal_wmatrix(args.concurrence), None
    # the parser admits no other kind than deformed
    if args.alpha is None:
        raise UsageError("--alpha is required for deformed states")
    s = overlap(_deformation_spec(args), args.alpha, args.deformed_kind)
    return "deformed", _wmatrix_from_overlap(s), s


def cmd_sweep(args):
    text = csv_text(compute_rows(args, args.oracle, args.tol))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("cannot write --out %r: %s" % (args.out, exc.strerror or exc)) from None
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args):
    threshold = DEFAULT_VERIFY_THRESHOLD if args.tol is None else args.tol
    columns = compute_rows(args, oracle=True, tol=None)
    residual = columns["residual"]
    worst = max(residual)
    print(
        "verify: kind=%s points=%d grid=%d threshold=%g"
        % (args.kind, len(residual), _grid(args), threshold)
    )
    # index() names the first row with the largest residual
    print("  max relative residual %.6e at p=%r" % (worst, columns["p"][residual.index(worst)]))
    if worst > threshold:
        print("FAIL")
        return 2
    print("PASS")
    return 0


def _bisect(g, lo, hi, tol, label, levels=1, ends=None):
    """Bisect the sign change of g, which maps a list of points to values, on [lo, hi].

    Each g call takes the midpoints of the next ``levels`` steps as a heap (node k
    halves into nodes 2k + 1, 2k + 2), each 0.5 * (lo + hi) of its parent's half, and
    the walk steps by the one-point rules: the root is the same float. ``ends`` are
    g(lo), g(hi) if known. Adjacent floats lo, hi also stop the walk.
    """
    g_lo, g_hi = g([lo, hi]) if ends is None else ends
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
    tree, node = [], 0
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        if node >= len(tree):
            edges, tree, node = [lo, hi], [], 0
            for _ in range(levels):
                tree += [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
                edges = sorted(edges + tree[1 - len(edges) :])
            values = g(tree)
        mid, g_mid = tree[node], values[node]
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo, node = mid, g_mid, 2 * node + 2
        else:
            hi, node = mid, 2 * node + 1
    return 0.5 * (lo + hi)


def _eof_minus_qd(c_pure, p):
    return np.subtract(*_gwl_kernel(c_pure, p, None, rows=3)[1:])  # EoF - QD


def cmd_crossover(args):
    tol = args.tol or (1e-10 if args.functional == "p-crossing" else DEFAULT_ROOT_TOL)
    if args.functional == "p-crossing":
        if args.pair != "eof-qd":
            raise UsageError("--functional p-crossing only applies to --pair eof-qd")
        c = concurrence_pure(build_state(args, None)[1])
        # scan down from p = 1 for the highest sign change; 8 levels bisect it in 3 calls
        p_sep = 1.0 / (1.0 + 2.0 * c)
        scan = [1.0 - 1e-9]
        p = 1.0 - 1e-3
        while p > p_sep + 1e-6:
            scan.append(p)
            p -= 1e-3
        gaps = _eof_minus_qd(c, scan)
        change = np.flatnonzero(np.diff(gaps > 0.0))
        if change.size == 0:
            raise NumericError("EoF - QD does not change sign below p = 1 for this state")
        i = int(change[0])
        g = functools.partial(_eof_minus_qd, c)
        root = _bisect(g, scan[i + 1], scan[i], tol, "EoF - QD", levels=8, ends=gaps[[i + 1, i]])
        print("crossover pair=eof-qd functional=p-crossing alpha=%r p=%r" % (args.alpha, root))
        print(
            "note: p-crossing reports the largest mixing parameter where the "
            "EoF and QD curves of this fixed state cross"
        )
        return 0

    # only alpha-max-p reads the --p-* grid; p-crossing scans its own points
    start, stop, ps = _p_range(args, "gwl")
    if not args.alpha_lo < args.alpha_hi:
        raise UsageError(
            "--alpha-lo %r must be below --alpha-hi %r" % (args.alpha_lo, args.alpha_hi)
        )
    spec = _deformation_spec(args)

    def concurrence_at(alpha, kind=args.deformed_kind):
        return concurrence_pure(_wmatrix_from_overlap(overlap(spec, alpha, kind)))

    if args.pair == "eof-qd":

        def g(alpha):
            return float(np.max(_eof_minus_qd(concurrence_at(alpha), ps)))

        label = "max over p of EoF - QD"
    else:  # coherent-vs-a, the parser's only other pair

        def g(alpha):
            qd_c, qd_a = qd_gwl([[concurrence_at(alpha, "C")], [concurrence_at(alpha, "A")]], ps)
            return float(np.max(qd_c - qd_a))

        label = "max over p of QD(coherent) - QD(A)"

    root = _bisect(lambda a: list(map(g, a)), args.alpha_lo, args.alpha_hi, tol, label)
    print("crossover pair=%s functional=alpha-max-p alpha=%r" % (args.pair, root))
    print(
        "note: alpha-max-p bisects alpha on the sign of [%s] over the p grid "
        "(%g..%g step %g)" % (label, start, stop, args.p_step)
    )
    return 0


def cmd_state_info(args):
    tol = args.tol
    kind, psi, s = build_state(args, tol)
    rho = werner(args.p, tol) if kind == "werner" else gwl(psi, args.p, tol)
    conc, eof, qd = _closed_forms(kind, psi, args.p, tol)
    if kind != "werner":
        print("pure-state concurrence: %s" % _fmt(concurrence_pure(psi)))
        if kind == "deformed":
            print("overlap s: %s" % _fmt(s))
    eigs, s_total = _spectrum_entropy(rho, tol)
    print("eigenvalues: %s" % ", ".join(_fmt(v) for v in eigs))
    print("concurrence: %s" % _fmt(conc))
    print("entropy_total: %s" % _fmt(s_total))
    print("entropy_reduced_A: %s" % _fmt(von_neumann_entropy(partial_trace(rho, "B"), tol)))
    print("entropy_reduced_B: %s" % _fmt(von_neumann_entropy(partial_trace(rho, "A"), tol)))
    print("eof: %s" % _fmt(eof))
    print("qd_analytic: %s" % _fmt(qd))
    if args.oracle:
        print("qd_numeric: %s" % _fmt(qd_numeric(rho, grid_n=_grid(args), tol=tol)))
    return 0


def finite_positive(text):
    """argparse type of --tol: a finite float above 0."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and positive, got %r" % text)
    return value


def _add_flags(sp, kinds=("werner", "gwl", "deformed"), oracle=True, grid=True, p_range=True):
    """The shared flags a command reads: a state of ``kinds``, the oracle's, --tol, --p-*."""
    sp.add_argument("--kind", choices=kinds, default=kinds[0])
    if "gwl" in kinds:
        sp.add_argument("--wmatrix", help="file with four complex amplitudes, row-major")
        sp.add_argument(
            "--concurrence",
            type=float,
            help="build the canonical diagonal pure state with this concurrence",
        )
    # the library's family names, spelt with "-" for "_"
    sp.add_argument("--family", choices=tuple(f.replace("_", "-") for f in FAMILIES))
    sp.add_argument("--N", type=int, help="trap depth / bound-state count")
    sp.add_argument("--kappa", type=float, help="Lamb-Dicke-like parameter")
    sp.add_argument("--alpha", type=float, help="coherent amplitude (non-negative)")
    sp.add_argument("--nmax", type=int, help="truncation level (default: chosen by select_nmax)")
    sp.add_argument("--deformed-kind", choices=("C", "A", "D"), default="C")
    if oracle:
        sp.add_argument("--oracle", action="store_true", help="also run the numeric oracle")
    if grid:
        sp.add_argument(
            "--grid", type=int,
            help="oracle grid size N: max(8, N // 2) theta rows of its half-sphere direction grid "
            "and a refine step cap of pi/(N - 1) (default 64, at most 1000)",
        )
    sp.add_argument("--tol", type=finite_positive, help="tolerance, threshold or root width")
    if p_range:
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
    _add_flags(sp)
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="compare analytic curves against the oracle")
    _add_flags(sp, oracle=False)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("crossover", help="bisect where two quantities cross")
    _add_flags(sp, kinds=("deformed",), oracle=False, grid=False)
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
    _add_flags(sp, p_range=False)
    sp.add_argument("--p", type=float, required=True, help="mixing parameter")
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
