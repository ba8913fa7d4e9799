"""Output checks for every benchmark command, against ``reference``.

``Checker.errors`` returns the list of problems with one command's exit
code and standard output (empty when the output is right). Verdicts are
memoised on the exact output, so a command that prints the same text
every round is checked against the reference once. Tolerances:

* analytic values against the 50-digit reference: 1e-12 absolute;
* oracle against analytic: 1e-8 relative, with a 1e-6 floor on the
  denominator, recomputed from the two columns;
* concurrence against the numpy Wootters value: 1e-6, because square
  roots of the near-zero eigenvalues of rho rho~ keep only about half
  the working digits.
"""

from __future__ import annotations

import math
import re
import sys

import reference as ref
from workloads import ALPHA_ROOT_TOL, CROSSOVER_GRID

REF_TOL = 1e-12
ORACLE_REL_TOL = 1e-8
RESIDUAL_FLOOR = 1e-6
WOOTTERS_TOL = 1e-6
ORACLE_GRID = 64
#: bisection tolerance of ``crossover --functional p-crossing``
P_ROOT_TOL = 1e-10
#: how far either side of a p-crossing root the reference gap is evaluated
P_ROOT_PROBE = 10 * P_ROOT_TOL
#: errors reported per command before the rest are summarised
MAX_ERRORS = 5

_VERIFY_HEAD = re.compile(r"verify: kind=(\S+) points=(\d+) grid=(\d+) threshold=(\S+)")
_VERIFY_WORST = re.compile(r"  max relative residual (\S+) at p=(\S+)")
_P_CROSSING = re.compile(r"crossover pair=eof-qd functional=p-crossing alpha=(\S+) p=(\S+)")
_ALPHA_MAX_P = re.compile(r"crossover pair=coherent-vs-a functional=alpha-max-p alpha=(\S+)")
# what ``%r`` of a numpy float prints with numpy >= 2
_NUMPY_SCALAR = re.compile(r"np\.float64\((\S+)\)")


def _number(text, strict, what, errs):
    """The float printed as ``text``; a numpy scalar repr is an error only when strict."""
    m = _NUMPY_SCALAR.fullmatch(text)
    if m is None:
        return float(text)
    if strict:
        errs.append("%s printed as %r, not as a float" % (what, text))
    return float(m.group(1))


def _relative_residual(analytic, oracle):
    return abs(analytic - oracle) / max(abs(analytic), RESIDUAL_FLOOR)


class _Errors(list):
    def near(self, what, got, want, tol=REF_TOL):
        if not (math.isfinite(got) and abs(got - want) <= tol):
            self.append("%s: got %r, reference %r (tolerance %g)" % (what, got, want, tol))

    def require(self, ok, message):
        if not ok:
            self.append(message)


class Checker:
    """Checks outputs; ``n_max_of(Deformed)`` returns the level a command chose itself."""

    def __init__(self, n_max_of):
        self._n_max_of = n_max_of
        self._gwl = ref.GwlReference()
        self._pure = {}
        self._overlap = {}
        self._verdicts = {}

    def errors(self, cmd, rc, out, memo=True):
        key = (cmd, rc, out)
        if memo and key in self._verdicts:
            return self._verdicts[key]
        errs = _Errors()
        if rc != 0:
            errs.append("exit code %r, expected 0" % (rc,))
        else:
            try:
                getattr(self, "_" + cmd.check.replace("-", "_"))(cmd, out, errs)
            except (ValueError, IndexError, KeyError) as exc:
                errs.append("unparseable output: %s" % exc)
        if len(errs) > MAX_ERRORS:
            errs[MAX_ERRORS:] = ["... and %d more" % (len(errs) - MAX_ERRORS)]
        if memo:
            self._verdicts[key] = errs
        return errs

    # ----- reference states -------------------------------------------------

    def _deformed_overlap(self, d):
        if d not in self._overlap:
            n_max = d.n_max if d.n_max is not None else self._n_max_of(d)
            self._overlap[d] = ref.overlap(d.family, d.N, d.kappa, d.alpha, d.kind, n_max)
        return self._overlap[d]

    def pure(self, state):
        if state not in self._pure:
            tag = state[0]
            if tag == "wmatrix":
                with open(state[1], encoding="utf-8") as fh:
                    self._pure[state] = ref.pure_from_wmatrix_text(fh.read())
            elif tag == "concurrence":
                self._pure[state] = ref.pure_from_concurrence(state[1])
            else:
                self._pure[state] = ref.pure_from_overlap(self._deformed_overlap(state[1]))
        return self._pure[state]

    def point(self, state, p):
        if state[0] == "werner":
            return ref.werner_point(p)
        return self._gwl.point(self.pure(state), p)

    def _wootters(self, state, p):
        if state[0] == "werner":
            return ref.wootters(ref.werner_density(p))
        return ref.wootters(ref.gwl_density(self.pure(state), p))

    def _separable(self, state, p):
        # EoF must be exactly 0 here; points within 1e-12 of the edge are skipped
        if state[0] == "werner":
            return p >= -1.0 / 3.0 + REF_TOL
        return p <= 1.0 / (1.0 + 2.0 * float(self.pure(state).c)) - REF_TOL

    def _pure_point(self, state, p):
        return p == (-1.0 if state[0] == "werner" else 1.0)

    def _state_properties(self, state, p, eof, qd, pt, errs):
        errs.require(-REF_TOL <= qd <= pt.mutual_information + REF_TOL,
                     "QD %r outside [0, I = %r] at p=%r" % (qd, pt.mutual_information, p))
        if self._separable(state, p):
            errs.require(eof == 0.0, "EoF %r is not 0 on the separable side, p=%r" % (eof, p))
        if self._pure_point(state, p):
            errs.near("QD - EoF at the pure point p=%r" % p, qd - eof, 0.0)

    # ----- one method per command kind ----------------------------------------

    def _sweep(self, cmd, out, errs):
        lines = out.split("\n")
        errs.require(lines[-1] == "", "output does not end in a newline")
        header = "p,eof,qd_analytic" + (",qd_numeric,residual,concurrence" if cmd.oracle else "")
        errs.require(lines[0] == header, "header %r, expected %r" % (lines[0], header))
        rows = lines[1:-1]
        points = ref.grid_points(*cmd.grid)
        errs.require(len(rows) == len(points),
                     "%d rows, reference grid has %d" % (len(rows), len(points)))
        for line, p_ref in zip(rows, points):
            cells = [float(x) for x in line.split(",")]
            if len(cells) != (6 if cmd.oracle else 3):
                errs.append("row %r has %d cells" % (line, len(cells)))
                continue
            p, eof, qd = cells[:3]
            errs.near("p", p, float(p_ref))
            pt = self.point(cmd.state, p_ref)
            errs.near("EoF at p=%r" % p, eof, pt.eof)
            errs.near("QD at p=%r" % p, qd, pt.qd)
            self._state_properties(cmd.state, p, eof, qd, pt, errs)
            if cmd.oracle:
                qn, residual, conc = cells[3:]
                res = _relative_residual(qd, qn)
                errs.require(res <= ORACLE_REL_TOL,
                             "oracle %r vs analytic %r at p=%r: relative %g" % (qn, qd, p, res))
                errs.near("residual column at p=%r" % p, residual, res)
                errs.near("concurrence at p=%r" % p, conc, pt.concurrence)
                errs.near("concurrence vs Wootters at p=%r" % p, conc,
                          self._wootters(cmd.state, p), WOOTTERS_TOL)

    def _verify(self, cmd, out, errs):
        lines = out.split("\n")
        head, worst = _VERIFY_HEAD.fullmatch(lines[0]), _VERIFY_WORST.fullmatch(lines[1])
        if head is None or worst is None or lines[2:] != ["PASS", ""]:
            errs.append("unexpected verify output %r" % out)
            return
        kind = {"wmatrix": "gwl", "concurrence": "gwl"}.get(cmd.state[0], cmd.state[0])
        errs.require(head.group(1) == kind, "kind %r, expected %r" % (head.group(1), kind))
        count = ref.grid_count(*cmd.grid)
        errs.require(int(head.group(2)) == count,
                     "points=%s, reference grid has %d" % (head.group(2), count))
        errs.require(int(head.group(3)) == ORACLE_GRID, "grid=%s" % head.group(3))
        errs.require(float(head.group(4)) == ORACLE_REL_TOL, "threshold=%s" % head.group(4))
        residual, p = float(worst.group(1)), float(worst.group(2))
        errs.require(0.0 <= residual <= ORACLE_REL_TOL, "worst residual %r" % residual)
        start, _, step = cmd.grid
        k = round((p - start) / step)
        errs.require(0 <= k < count and abs(start + k * step - p) <= REF_TOL,
                     "worst p=%r is not a grid point" % p)

    def _state_info(self, cmd, out, errs):
        lines = out.split("\n")
        errs.require(lines[-1] == "", "output does not end in a newline")
        values = dict(line.split(": ", 1) for line in lines[:-1])
        keys = ["eigenvalues", "concurrence", "entropy_total", "entropy_reduced_A",
                "entropy_reduced_B", "eof", "qd_analytic", "qd_numeric"]
        if cmd.state[0] != "werner":
            keys.insert(0, "pure-state concurrence")
        if cmd.state[0] == "deformed":
            keys.insert(1, "overlap s")
        errs.require(list(values) == keys, "lines %r, expected %r" % (list(values), keys))
        num = {k: _number(v, cmd.strict_format, k, errs)
               for k, v in values.items() if k != "eigenvalues"}
        p = cmd.p
        pt = self.point(cmd.state, p)
        eigs = [float(x) for x in values["eigenvalues"].split(", ")]
        errs.require(len(eigs) == 4, "%d eigenvalues" % len(eigs))
        for i, (got, want) in enumerate(zip(eigs, pt.eigenvalues)):
            errs.near("eigenvalue %d" % i, got, want)
        errs.near("concurrence", num["concurrence"], pt.concurrence)
        errs.near("concurrence vs Wootters", num["concurrence"],
                  self._wootters(cmd.state, p), WOOTTERS_TOL)
        errs.near("entropy_total", num["entropy_total"], pt.entropy_total)
        errs.near("entropy_reduced_A", num["entropy_reduced_A"], pt.entropy_reduced)
        errs.near("entropy_reduced_B", num["entropy_reduced_B"], pt.entropy_reduced)
        errs.near("eof", num["eof"], pt.eof)
        errs.near("qd_analytic", num["qd_analytic"], pt.qd)
        res = _relative_residual(num["qd_analytic"], num["qd_numeric"])
        errs.require(res <= ORACLE_REL_TOL, "oracle vs analytic: relative %g" % res)
        self._state_properties(cmd.state, p, num["eof"], num["qd_analytic"], pt, errs)
        if cmd.state[0] != "werner":
            pure = self.pure(cmd.state)
            errs.near("pure-state concurrence", num["pure-state concurrence"], float(pure.c))
        if cmd.state[0] == "deformed":
            errs.near("overlap s", num["overlap s"], float(self._deformed_overlap(cmd.state[1])))

    def _p_crossing(self, cmd, out, errs):
        lines = out.split("\n")
        m = _P_CROSSING.fullmatch(lines[0])
        if m is None or len(lines) != 3 or not lines[1].startswith("note: "):
            errs.append("unexpected crossover output %r" % out)
            return
        alpha, root = float(m.group(1)), float(m.group(2))
        errs.require(alpha == cmd.state[1].alpha, "alpha=%r, passed %r" % (alpha, cmd.state[1].alpha))
        pure = self.pure(cmd.state)
        p_sep = 1.0 / (1.0 + 2.0 * float(pure.c))
        errs.require(p_sep < root < 1.0, "root p=%r outside (%r, 1)" % (root, p_sep))

        def gap(p):
            pt = self._gwl.point(pure, p)
            return pt.eof - pt.qd

        below, above = gap(root - P_ROOT_PROBE), gap(root + P_ROOT_PROBE)
        errs.require((below > 0.0) != (above > 0.0),
                     "reference EoF - QD has one sign across p=%r: %r, %r" % (root, below, above))

    def _alpha_max_p(self, cmd, out, errs):
        lines = out.split("\n")
        m = _ALPHA_MAX_P.fullmatch(lines[0])
        if m is None or len(lines) != 3 or not lines[1].startswith("note: "):
            errs.append("unexpected crossover output %r" % out)
            return
        root = float(m.group(1))
        lo, hi = cmd.bracket
        errs.require(lo <= root <= hi, "root alpha=%r outside [%r, %r]" % (root, lo, hi))
        d = cmd.state[1]
        # one truncation for the whole bracket: fixed, or chosen by the command at --alpha
        n_max = d.n_max if d.n_max is not None else self._n_max_of(d)
        ps = ref.grid_points(*CROSSOVER_GRID)

        def gap(alpha):
            s_c = ref.overlap(d.family, d.N, d.kappa, alpha, "C", n_max)
            s_a = ref.overlap(d.family, d.N, d.kappa, alpha, "A", n_max)
            pure_c, pure_a = ref.pure_from_overlap(s_c), ref.pure_from_overlap(s_a)
            return max(self._gwl.point(pure_c, p).qd - self._gwl.point(pure_a, p).qd for p in ps)

        below = gap(max(lo, root - ALPHA_ROOT_TOL))
        above = gap(min(hi, root + ALPHA_ROOT_TOL))
        errs.require((below > 0.0) != (above > 0.0),
                     "reference gap has one sign across alpha=%r: %r, %r" % (root, below, above))


def _shift_number(text, pattern, delta):
    """Replace the first match of pattern's group 1 (a float) by itself plus delta."""
    m = re.search(pattern, text, flags=re.M)
    return text[: m.start(1)] + repr(float(m.group(1)) + delta) + text[m.end(1):]


def perturb(cmd, out):
    """One output value moved well past its check's tolerance."""
    if cmd.check == "sweep":
        lines = out.split("\n")
        mid = len(lines) // 2
        cells = lines[mid].split(",")
        cells[2] = repr(float(cells[2]) + 1e-9)
        lines[mid] = ",".join(cells)
        return "\n".join(lines)
    if cmd.check == "verify":
        return _shift_number(out, r"residual (\S+) at", 2 * ORACLE_REL_TOL)
    if cmd.check == "state-info":
        return _shift_number(out, r"^qd_analytic: (\S+)$", 1e-9)
    if cmd.check == "p-crossing":
        return _shift_number(out, r" p=(\S+)$", 1e-7)
    return _shift_number(out, r"alpha=(\S+)$", 10 * ALPHA_ROOT_TOL)


def self_test(checker, outputs):
    """Perturb one passing output of each check kind; True when every change is caught.

    ``outputs`` holds (command, exit code, stdout) triples.
    """
    caught_all = True
    tried = set()
    for cmd, rc, out in outputs:
        if cmd.check in tried or checker.errors(cmd, rc, out):
            continue
        tried.add(cmd.check)
        if not checker.errors(cmd, rc, perturb(cmd, out), memo=False):
            print("SELF-TEST: a perturbed %s output passed its check" % cmd.check,
                  file=sys.stderr)
            caught_all = False
    return caught_all
