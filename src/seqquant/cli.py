"""Command-line front end: reproducible, scriptable subcommands emitting CSV/JSON.

Every stochastic subcommand takes an explicit seed (flag, else the
SEQQUANT_SEED environment variable, else 0) and echoes it in the output
metadata.  Floats are serialized with their shortest round-trip
representation; infinite bounds appear as the literals "-inf"/"inf".

Exit codes: 0 success, 2 usage error, 3 data/ingestion error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
from contextlib import contextmanager
from dataclasses import astuple
from functools import partial
from operator import itemgetter

import numpy as np
from scipy.special import ndtr

from . import bandit, boundaries, confseq, seqtest
from .boundaries import DoubleStitchConfig, StitchConfig
from .empdist import insert_sorted
from .errors import (
    ConfigurationError,
    DomainError,
    NumericalError,
    PairingError,
    QueryError,
    StateError,
    TuningError,
)

SEED_ENV = "SEQQUANT_SEED"

BOUNDS_METHODS = (
    "stitched",
    "beta_binomial",
    "normal_mixture",
    "lil_uniform",
    "double_stitch",
    "dkw_fixed",
    "dr1967",
    "dr1968",
    "szorenyi",
    "clt_pointwise",
    "hoeffding_kl",
)


class UsageError(Exception):
    pass


class IngestError(Exception):
    pass


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


# a cell's CSV text, keyed by its exact type: every cell and metadata value is a
# Python bool, int, float or str, so a numpy scalar is a KeyError, not a guess
_CELL_TEXT = {
    float: float.__repr__,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    str: str,
}


def _fmt_cell(x) -> str:
    return _CELL_TEXT[type(x)](x)


def _column_text(col: list) -> map:
    """A column's CSV cells: one `_CELL_TEXT` lookup when every cell has the same exact type."""
    kinds = set(map(type, col))
    return map(_CELL_TEXT[kinds.pop()] if len(kinds) == 1 else _fmt_cell, col)


def _json_cell(x):
    """A cell as the JSON payload holds it: a non-finite float as its CSV literal."""
    if type(x) is float and not math.isfinite(x):
        return _fmt_cell(x)
    return x


class Emitter:
    """Writes metadata, a header, and rows in CSV or JSON form."""

    def __init__(self, out, fmt: str, columns: list[str], meta: dict):
        self.out = out
        self.fmt = fmt
        self.columns = columns
        self.meta = meta
        self._rows = []
        if fmt == "csv":
            for key, val in meta.items():
                out.write(f"# {key}={_fmt_cell(val)}\n")
            out.write(",".join(columns) + "\n")

    def row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(f"every row needs {len(self.columns)} cells")
        if self.fmt == "csv":
            self.out.write(",".join(map(_fmt_cell, cells)) + "\n")
        else:
            self._rows.append(list(map(_json_cell, cells)))

    def rows(self, batch) -> None:
        """Write a batch of rows: one write in CSV, encoded column by column; one extend in JSON."""
        batch = list(batch)
        if set(map(len, batch)) - {len(self.columns)}:
            raise ValueError(f"every row needs {len(self.columns)} cells")
        if self.fmt == "json":
            self._rows.extend([list(map(_json_cell, cells)) for cells in batch])
        elif batch:
            cols = [_column_text(list(map(itemgetter(i), batch)))
                    for i in range(len(self.columns))]
            self.out.write("\n".join(map(",".join, zip(*cols))) + "\n")

    def close(self) -> None:
        if self.fmt == "json":
            payload = {
                "meta": {k: _json_cell(v) for k, v in self.meta.items()},
                "columns": self.columns,
                "rows": self._rows,
            }
            json.dump(payload, self.out, indent=None, separators=(",", ":"))
            self.out.write("\n")
        self.out.flush()


@contextmanager
def _output(path):
    """The output stream: stdout for None or "-", else a file at `path` written on success.

    A file output goes to a new temporary file beside `path` that replaces
    it only when the command succeeds, so a failed run leaves an earlier
    file at `path` as it was.  The temporary file is opened first, so an
    output that cannot be opened is a usage error raised before anything
    is computed or written.  An existing path that is not a regular file
    (a device or a pipe) is written in place.
    """
    if path in (None, "-"):
        yield sys.stdout
        return
    tmp = None
    if os.path.isfile(path) or not os.path.exists(path):
        head, tail = os.path.split(path)
        tmp = os.path.join(head, f".{tail}.{secrets.token_hex(6)}.tmp")
    try:
        out = open(tmp or path, "x" if tmp else "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot open output {path!r}: {exc.strerror or exc}") from None
    try:
        with out:
            yield out
        if tmp is not None:
            os.replace(tmp, path)
    except BaseException:
        if tmp is not None:
            os.unlink(tmp)
        raise


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"could not parse {what} list {text!r}: {exc}") from None
    if not values:
        raise UsageError(f"{what} list {text!r} is empty")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{what} list {text!r} holds a non-finite value")
    return values


def _parse_int_list(text: str, what: str) -> list[int]:
    values = _parse_float_list(text, what)
    if not all(v.is_integer() for v in values):
        raise UsageError(f"{what} list {text!r} holds a value that is not an integer")
    return [int(v) for v in values]


def _parse_names(text: str, what: str, valid) -> list[str]:
    """The non-empty list of comma-separated names, each one of `valid`."""
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise UsageError(f"{what} list {text!r} is empty")
    for name in names:
        if name not in valid:
            raise UsageError(f"unknown {what} {name!r}; valid {what}s: {', '.join(valid)}")
    return names


def _open_text(path: str):
    """`path` opened for reading UTF-8 text, its undecodable bytes kept as lone surrogates."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _utf8(text: str) -> bool:
    """Whether text holds no lone surrogate, i.e. it came from valid UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@contextmanager
def _input(path):
    """The input: `path` opened as `_open_text` does and closed on exit, or stdin, left open.

    Stdin (for None or "-") is switched to the same decoding when it can be
    reconfigured.  Opened before the output, an unreadable input fails
    before anything is written.
    """
    if path in (None, "-"):
        reconfigure = getattr(sys.stdin, "reconfigure", None)
        if reconfigure is not None:
            reconfigure(encoding="utf-8", errors="surrogateescape")
        yield sys.stdin
        return
    try:
        handle = _open_text(path)
    except OSError as exc:
        raise IngestError(f"cannot read input {path!r}: {exc.strerror or exc}") from None
    with handle:
        yield handle


def finite_float(text: str) -> float:
    """The value of a float flag: a finite float, else ValueError.

    argparse and `--config` report the error as a usage error, whether or
    not the command reads the flag.
    """
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    """The value of --seed or $SEQQUANT_SEED: an integer >= 0, else ValueError."""
    value = int(text)
    if value < 0:
        raise ValueError(f"not a non-negative integer: {text!r}")
    return value


_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _switch(text: str) -> bool:
    """A `--config` value for an on/off flag: 1/true/yes or 0/false/no, any case."""
    value = _SWITCH_VALUES.get(text.lower())
    if value is None:
        raise ValueError(f"not an on/off value: {text!r}")
    return value


def _finite(i: int, text: str) -> float:
    """The finite number on line i; anything else (nan and +-inf too) is an ingest error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise IngestError(f"line {i}: expected a finite number, got {text!r}")
    return value


def _text_lines(handle):
    """Yield (line_number, stripped text) of the non-blank lines.

    A line that is not valid UTF-8 is an ingest error: the input is read
    with surrogateescape, so such a line holds a lone surrogate.
    """
    for i, line in enumerate(handle, start=1):
        text = line.strip()
        if text:
            if not _utf8(text):
                raise IngestError(f"line {i}: not valid UTF-8")
            yield i, text


def _numeric_stream(handle):
    """Yield (line_number, value); blank lines are skipped."""
    for i, text in _text_lines(handle):
        yield i, _finite(i, text)


def _arm_stream(handle, max_arms: float):
    """Yield (line_number, arm, value) from 'label,value' lines.

    Arms are numbered from 0 in the order their labels first appear; a new
    label past the first `max_arms` is an ingest error.
    """
    labels: list[str] = []
    for i, text in _text_lines(handle):
        parts = text.split(",")
        if len(parts) != 2:
            raise IngestError(f"line {i}: expected 'label,value', got {text!r}")
        label = parts[0].strip()
        value = _finite(i, parts[1])
        if label not in labels:
            if len(labels) >= max_arms:
                raise IngestError(f"line {i}: unknown label {label!r} (have {labels})")
            labels.append(label)
        yield i, labels.index(label), value


def _check_level(p: float) -> None:
    """A quantile level given by --p must lie in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise UsageError(f"--p must lie in (0, 1), got {p}")


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return _nonnegative_int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV} must be a non-negative integer, got {env!r}") from None
    return 0


def _reference_cdf(spec: str):
    """Parse 'uniform:a,b' / 'normal:mu,sigma' / 'cauchy:loc,scale' into a CDF."""
    try:
        name, _, argtext = spec.partition(":")
        params = [float(tok) for tok in argtext.split(",")] if argtext else []
    except ValueError:
        raise UsageError(f"bad reference distribution {spec!r}") from None
    if name not in ("uniform", "normal", "cauchy"):
        raise UsageError(f"unknown reference distribution {name!r}")
    if len(params) not in (0, 2):
        raise UsageError(f"reference distribution {spec!r} needs 0 or 2 parameters, "
                         f"got {len(params)}")
    if not all(map(math.isfinite, params)):
        raise UsageError(f"reference distribution {spec!r} needs finite parameters")
    if name == "uniform":
        a, b = params if params else (0.0, 1.0)
        if not 0.0 < b - a < math.inf:
            raise UsageError("uniform reference needs b > a, with b - a finite")
        return lambda x: min(1.0, max(0.0, (x - a) / (b - a)))
    if name == "normal":
        mu, sigma = params if params else (0.0, 1.0)
        if sigma <= 0:
            raise UsageError("normal reference needs sigma > 0")
        return lambda x: float(ndtr((x - mu) / sigma))
    loc, scale = params if params else (0.0, 1.0)
    if scale <= 0:
        raise UsageError("cauchy reference needs scale > 0")
    return lambda x: 0.5 + math.atan((x - loc) / scale) / math.pi


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _radius(method: str, p: float, alpha: float, tune_m: float, stitch, r: float | None = None):
    """The radius(t, level) a method name stands for, and the mixture r it uses.

    A mixture method tunes r to `tune_m` at level p unless `r` is given; the
    other methods return r = None.  `stitch` builds the stitched method's
    `StitchConfig` and is called only for that method, so flags only it
    reads are checked only when it is chosen.
    """
    if method == "stitched":
        cfg = stitch()
        return lambda t, level: boundaries.stitched_radius(t, level, cfg), None
    if method == "stitched_simple":
        return lambda t, level: boundaries.stitched_radius_simple(t, level, alpha), None
    if method == "beta_binomial":
        if r is None:
            r = boundaries.tune_r(tune_m, p, alpha)
        return lambda t, level: boundaries.beta_binomial_radius(t, level, r, alpha), r
    if method == "normal_mixture":
        if r is None:
            # intrinsic-time m/8 convention: reproduces r = 0.504 at m=32, alpha=0.05
            r = tune_m / 8.0 / boundaries.tuning_denominator(alpha)
        return lambda t, level: boundaries.normal_mixture_radius(t, r, alpha), r
    if method == "lil_uniform":
        return confseq.LilMethod(a_mult=0.85, alpha=alpha, m_start=tune_m).radius, None
    if method == "double_stitch":
        cfg = DoubleStitchConfig.default_preset(alpha=alpha, m_start=tune_m)
        return lambda t, level: boundaries.double_stitch_radius(t, level, cfg), None
    return lambda t, level: boundaries.baseline_radius(method, t, level, alpha), None


def cmd_bounds(args) -> int:
    methods = _parse_names(args.methods, "method", BOUNDS_METHODS)
    p_list = _parse_float_list(args.p, "p")
    for p in p_list:
        _check_level(p)
    t_list = _parse_int_list(args.t, "t")
    t_grid = np.array(t_list, dtype=float)
    stitch = partial(StitchConfig, eta=2.04, s_exp=1.4, m_start=args.tune_m, alpha=args.alpha)
    meta = {"alpha": args.alpha, "tune_m": args.tune_m}
    with _output(args.out) as out:
        # every radius is computed before anything is written
        rows = []
        for method in methods:
            for p in p_list:
                radius, r = _radius(method, p, args.alpha, args.tune_m, stitch)
                if method == "beta_binomial":
                    meta[f"r[p={_fmt_cell(p)}]"] = r
                for t, rad in zip(t_list, radius(t_grid, p).tolist()):
                    rows.append((t, p, method, rad, rad * math.sqrt(t)))
        emitter = Emitter(out, args.format, ["t", "p", "method", "radius", "radius_times_sqrt_t"],
                          meta)
        emitter.rows(rows)
        emitter.close()
    return 0


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------


def cmd_track(args) -> int:
    _check_level(args.p)
    stitch = partial(StitchConfig, eta=args.eta, s_exp=args.s_exp, m_start=args.m,
                     alpha=args.alpha)
    radius, r = _radius(args.method, args.p, args.alpha, args.tune_m, stitch, args.r)
    cs = confseq.FixedQuantileCS(args.p, radius)
    columns = ["t", "x", "lower", "upper", "point_estimate"]
    if args.intersect:
        columns.append("empty")
    meta = {"p": args.p, "method": args.method, "alpha": args.alpha}
    if args.method == "beta_binomial":
        meta["r"] = r
    with _input(args.input) as handle, _output(args.out) as out:
        emitter = Emitter(out, args.format, columns, meta)
        for _, x in _numeric_stream(handle):
            lo, hi = cs.update(x)
            empty = ()
            if args.intersect:
                lo, hi, *empty = cs.intersected_bounds()
            emitter.row(len(cs.data), x, lo, hi, cs.point_estimate(), *empty)
        emitter.close()
    return 0


# ---------------------------------------------------------------------------
# band
# ---------------------------------------------------------------------------


def cmd_band(args) -> int:
    checkpoints = set(_parse_int_list(args.checkpoints, "checkpoints"))
    if max(checkpoints) < 1:
        raise UsageError(f"--checkpoints needs a time >= 1, got {args.checkpoints!r}")
    band = confseq.CdfBand(a_mult=args.a_mult, alpha=args.alpha, m_start=args.m)
    meta = {"alpha": args.alpha, "A": args.a_mult, "m": args.m, "C": band.method.c_add}
    with _input(args.input) as handle, _output(args.out) as out:
        emitter = Emitter(out, args.format, ["t", "x", "ecdf", "lo", "hi"], meta)
        for _, x in _numeric_stream(handle):
            t = band.update(x)
            if t in checkpoints:
                emitter.rows([(t, *cells) for cells in band.band()])
        emitter.close()
    return 0


# ---------------------------------------------------------------------------
# abtest
# ---------------------------------------------------------------------------


def cmd_abtest(args) -> int:
    _check_level(args.p)
    if args.simulate:
        return _abtest_simulate(args)
    if args.mode == "global" and args.delta_star != 0.0:
        raise UsageError(f"--mode global tests a zero shift; --delta-star must be 0, "
                         f"got {args.delta_star}")
    r = args.r if args.r is not None else boundaries.tune_r(args.tune_m, args.p, args.alpha)
    meta = {"p": args.p, "r": r, "delta_star": args.delta_star, "mode": args.mode,
            "alpha": args.alpha}
    # the state checks p, r and alpha before any output; the global null
    # tests arm 0 against every later arm, added as their labels appear
    state = seqtest.AbTestState(args.p, r, args.delta_star, args.alpha)
    global_null = args.mode == "global"
    arms = []
    running_min = 1.0
    with _input(args.input) as handle, _output(args.out) as out:
        emitter = Emitter(out, args.format, ["t", "stat", "pvalue", "reject"], meta)
        stream = _arm_stream(handle, math.inf if global_null else 2)
        for t, (_, arm, value) in enumerate(stream, start=1):
            if global_null:
                if arm == len(arms):
                    arms.append(np.empty(0))
                arms[arm] = insert_sorted(arms[arm], value)
                if len(arms) < 2 or not all(map(len, arms)):
                    continue
                result = seqtest.global_null_result(arms[0], arms[1:], args.p, r, args.alpha)
            else:
                state.add(arm + 1, value)
                if not (len(state.arm1) and len(state.arm2)):
                    continue
                result = state.two_sided() if args.mode == "two_sided" else state.one_sided()
            running_min = min(running_min, result.pvalue)
            pv = running_min if args.running_min else result.pvalue
            emitter.row(t, result.stat, pv, result.reject)
        emitter.close()
    return 0


def _abtest_simulate(args) -> int:
    seed = _resolve_seed(args)
    meta = {"scenario": args.scenario, "pi": args.p, "eps": args.eps,
            "alpha": args.alpha, "runs": args.runs, "seed": seed}
    with _output(args.out) as out:
        row = seqtest.ab_vs_naive_benchmark(
            scenario=args.scenario, pi=args.p, alpha=args.alpha, runs=args.runs,
            seed=seed, eps=args.eps, max_pairs=args.max_pairs,
        )
        emitter = Emitter(
            out, args.format,
            ["scenario", "pi", "runs", "mean_t_test", "mean_t_naive", "ratio",
             "capped_test", "capped_naive"],
            meta,
        )
        emitter.row(*astuple(row))
        emitter.close()
    return 0


# ---------------------------------------------------------------------------
# ks
# ---------------------------------------------------------------------------


def cmd_ks(args) -> int:
    paired = args.mode != "one_sample"
    f0 = None if paired else _reference_cdf(args.ref)
    state = seqtest.KsTestState(args.mode, f0=f0, a_mult=args.a_mult, alpha=args.alpha,
                                m_start=args.m)
    meta = {"mode": args.mode, "alpha": args.alpha, "A": args.a_mult, "m": args.m}
    if not paired:
        meta["ref"] = args.ref
    latched = False
    with _input(args.input) as handle, _output(args.out) as out:
        emitter = Emitter(out, args.format, ["t", "stat", "threshold", "reject"], meta)
        if paired:
            stream = _arm_stream(handle, 2)
        else:
            stream = ((i, 0, x) for i, x in _numeric_stream(handle))
        for _, arm, value in stream:
            state.add(value, sample=arm + 1)
            # a paired test is evaluated once both samples hold t values
            if not paired or state.n1 == state.n2:
                res = state.evaluate()
                latched = latched or res.reject
                emitter.row(res.t, res.stat, res.threshold, latched if args.latch else res.reject)
        if paired and state.n1 != state.n2:
            raise PairingError(f"stream ended with unequal counts: {state.n1} vs {state.n2}")
        emitter.close()
    return 0


# ---------------------------------------------------------------------------
# bai
# ---------------------------------------------------------------------------


def cmd_bai(args) -> int:
    seed = _resolve_seed(args)
    pi_list = _parse_float_list(args.pi, "pi")
    kinds = _parse_names(args.cs_kinds, "cs kind", bandit.CS_KINDS)
    meta = {"scenario": args.scenario, "eps": args.eps, "delta": args.delta,
            "runs": args.runs, "K": args.k_arms, "seed": seed}
    with _output(args.out) as out:
        rows = bandit.bai_benchmark(
            scenario=args.scenario, pi_list=pi_list, eps=args.eps, delta_err=args.delta,
            cs_kinds=kinds, runs=args.runs, seed=seed, k_arms=args.k_arms,
            max_rounds=args.max_rounds,
        )
        emitter = Emitter(
            out, args.format,
            ["scenario", "pi", "cs_kind", "runs", "mean_T", "median_T", "correct_rate",
             "capped"],
            meta,
        )
        emitter.rows(map(astuple, rows))
        emitter.close()
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", default="csv", choices=("csv", "json"))
    sub.add_argument("--config", default=None, help="flat key=value defaults file")
    sub.add_argument("--seed", type=_nonnegative_int, default=None,
                     help=f"RNG seed (default: ${SEED_ENV} or 0)")
    sub.set_defaults(subparser=sub)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors, reported as the others are."""

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seqquant",
        description="Anytime-valid quantile confidence sequences, sequential tests, "
                    "and quantile best-arm identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="tabulate confidence radii over a time grid")
    b.add_argument("--methods", required=True, help="comma-separated method names")
    b.add_argument("--p", default="0.5", help="comma-separated quantile levels")
    b.add_argument("--t", default="", help="comma-separated times")
    b.add_argument("--alpha", type=finite_float, default=0.05)
    b.add_argument("--tune-m", dest="tune_m", type=finite_float, default=boundaries.TUNE_M,
                   help="tuning time: sets r for beta_binomial and m for the others")
    _add_common(b)
    b.set_defaults(func=cmd_bounds)

    tr = sub.add_parser("track", help="stream a fixed-quantile confidence sequence")
    tr.add_argument("input", nargs="?", default="-", help="numeric lines, or - for stdin")
    tr.add_argument("--p", type=finite_float, required=True)
    tr.add_argument("--method", default="stitched",
                    choices=("stitched", "stitched_simple", "beta_binomial", "normal_mixture"))
    tr.add_argument("--alpha", type=finite_float, default=0.05)
    tr.add_argument("--eta", type=finite_float, default=2.04)
    tr.add_argument("--s-exp", dest="s_exp", type=finite_float, default=1.4)
    tr.add_argument("--m", type=finite_float, default=1.0)
    tr.add_argument("--r", type=finite_float, default=None)
    tr.add_argument("--tune-m", dest="tune_m", type=finite_float, default=boundaries.TUNE_M)
    tr.add_argument("--intersect", action="store_true", help="report the running intersection")
    _add_common(tr)
    tr.set_defaults(func=cmd_track)

    bd = sub.add_parser("band", help="CDF confidence band at checkpoints")
    bd.add_argument("input", nargs="?", default="-")
    bd.add_argument("--alpha", type=finite_float, default=0.05)
    bd.add_argument("--A", dest="a_mult", type=finite_float, default=0.85)
    bd.add_argument("--m", type=finite_float, default=1.0)
    bd.add_argument("--checkpoints", required=True, help="comma-separated times")
    _add_common(bd)
    bd.set_defaults(func=cmd_band)

    ab = sub.add_parser("abtest", help="sequential two-sample quantile test")
    ab.add_argument("input", nargs="?", default="-", help="label,value lines")
    ab.add_argument("--p", type=finite_float, default=0.5)
    ab.add_argument("--r", type=finite_float, default=None)
    ab.add_argument("--tune-m", dest="tune_m", type=finite_float, default=boundaries.TUNE_M)
    ab.add_argument("--delta-star", dest="delta_star", type=finite_float, default=0.0)
    ab.add_argument("--mode", default="two_sided", choices=("two_sided", "one_sided", "global"))
    ab.add_argument("--alpha", type=finite_float, default=0.05)
    ab.add_argument("--running-min", dest="running_min", action="store_true")
    ab.add_argument("--simulate", action="store_true",
                    help="run the test-vs-naive stopping comparison instead of ingesting data")
    ab.add_argument("--scenario", default="uniform_shift", choices=bandit.SCENARIOS)
    ab.add_argument("--eps", type=finite_float, default=0.025)
    ab.add_argument("--runs", type=int, default=32)
    ab.add_argument("--max-pairs", dest="max_pairs", type=int, default=200_000)
    _add_common(ab)
    ab.set_defaults(func=cmd_abtest)

    ks = sub.add_parser("ks", help="sequential Kolmogorov-Smirnov / dominance test")
    ks.add_argument("input", nargs="?", default="-")
    ks.add_argument("--mode", default="two_sample",
                    choices=("one_sample", "two_sample", "dominance"))
    ks.add_argument("--ref", default="uniform:0,1",
                    help="one_sample reference: uniform:a,b | normal:mu,sigma | cauchy:loc,scale")
    ks.add_argument("--A", dest="a_mult", type=finite_float, default=0.85)
    ks.add_argument("--alpha", type=finite_float, default=0.05)
    ks.add_argument("--m", type=finite_float, default=1.0)
    ks.add_argument("--latch", action="store_true", help="keep reject true once it fires")
    _add_common(ks)
    ks.set_defaults(func=cmd_ks)

    ba = sub.add_parser("bai", help="quantile best-arm identification benchmark")
    ba.add_argument("--scenario", default="uniform_shift", choices=bandit.SCENARIOS)
    ba.add_argument("--pi", default="0.05,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.95")
    ba.add_argument("--eps", type=finite_float, default=0.025)
    ba.add_argument("--delta", type=finite_float, default=0.05)
    ba.add_argument("--cs-kinds", dest="cs_kinds", default="beta_binomial_one_sided")
    ba.add_argument("--runs", type=int, default=64)
    ba.add_argument("--k-arms", dest="k_arms", type=int, default=10)
    ba.add_argument("--max-rounds", dest="max_rounds", type=int, default=10 ** 6)
    _add_common(ba)
    ba.set_defaults(func=cmd_bai)

    return parser


def _config_flags(subparser) -> dict:
    """Config key -> argparse action for every flag of a subcommand.

    A key is a flag's long name or its dest, with '-' read as '_' (``tune-m``,
    ``tune_m``; ``A``, ``a_mult``).
    """
    flags = {}
    for action in subparser._actions:
        if action.option_strings and action.dest != "help":
            flags[action.dest] = action
            for opt in action.option_strings:
                flags[opt.lstrip("-").replace("-", "_")] = action
    return flags


def _config_defaults(args) -> dict:
    """Dest -> value of each key=value line of the --config file, typed by its flag."""
    flags = _config_flags(args.subparser)
    defaults = {}
    try:
        fh = _open_text(args.config)
    except OSError as exc:
        raise UsageError(f"cannot read config {args.config!r}: {exc.strerror or exc}") from None
    with fh:
        for i, line in enumerate(fh, start=1):
            text = line.strip()
            if not _utf8(text):
                raise UsageError(f"{args.config}:{i}: not valid UTF-8")
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise UsageError(f"{args.config}:{i}: expected key=value, got {text!r}")
            key, _, val = text.partition("=")
            key = key.strip()
            val = val.strip()
            action = flags.get(key.replace("-", "_"))
            if action is None:
                raise UsageError(f"{args.config}:{i}: unknown key {key!r}: "
                                 f"not a flag of {args.command}")
            # a store_true flag (nargs 0) reads an on/off value
            convert = _switch if action.nargs == 0 else action.type
            try:
                value = val if convert is None else convert(val)
            except ValueError:
                raise UsageError(f"{args.config}:{i}: bad value {val!r} for {key!r}") from None
            if action.choices is not None and value not in action.choices:
                raise UsageError(f"{args.config}:{i}: {key!r} must be one of "
                                 f"{', '.join(action.choices)}, got {val!r}")
            defaults[action.dest] = value
    return defaults


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the config values become the subcommand's defaults, so argparse
            # itself lets any flag given in argv win
            args.subparser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigurationError, TuningError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (IngestError, PairingError, QueryError, StateError, DomainError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
