"""Command-line front end.

Every subcommand prints one self-describing JSON record (or CSV where a
table is the natural shape), with the tool version and the host it ran
on (`host`: CPU count, Python and numpy versions, the name and version
of numpy's BLAS, machine).  JSON numbers use Python's shortest round-trip
repr and CSV cells 17 significant digits, so binary64 values round-trip
either way.  Configuration precedence is flags, then
BPDP_-prefixed environment variables, then defaults.

JSON is written with allow_nan=False, so a record never carries NaN or
Infinity: a `pi` result whose log Pi is not finite (the hit probability
underflowed to 0) is an error instead, and `scan` counts such a row as
failed and does not write it.

`scan --output` is the one writer of growth-scale tables, and they have
one layout: a provenance line `# bpdp <version> convention=<c>`, a line
`# host <JSON>` with the same host facts as a record's `host` (readers
skip both as comments), the header `log2_inv_p,log_pi`, then one row
per exponent k.  `scan` opens the file once; with --resume it first checks
the whole table, and another --convention, another header or a malformed
row is an error that leaves the file as it was, and so is a path that
cannot be opened (a missing directory, or a directory).  Then a cut-off
last line is dropped and the k the table holds are skipped.  A table
without the provenance line predates it and counts as `exact`.  `fit`
reads the same layout.  Tables streamed to stdout carry no provenance
line.

Exit status: 0 success, 1 usage error, 2 verification failure,
3 resource cap exceeded, 4 a computation failed (a non-finite `pi`
result, levels or constants that overflow the double range, as at a
subnormal p, or at least one failed `scan` row; `scan` then ends with
`# n of m rows failed` on stderr).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import sys
import time
from typing import Optional

import click
import numpy as np

from . import __version__
from .chain import (DEFAULT_MEMORY_CAP_BYTES, ChainParams, ResourceCapError,
                    compute_pi)
from .fitting import (LAMBDA1_F, LAMBDA2_F, FitError, PiDataset,
                      fit_first_order, fit_first_order_fixed_alpha,
                      fit_four_param, fit_second_order,
                      fit_second_order_fixed_beta, fit_third_order)
from .lattice_sim import EVENTS, Rectangle, event_holds, mc_estimate
from .special_functions import (ModelParams, alpha, constants, f, g, h, h2,
                                h_mod)
from .verify import SUITES, run_suite

CONTEXT_SETTINGS = {"auto_envvar_prefix": "BPDP"}


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _blas() -> str:
    """Name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.25 has no mode="dicts"
        return "unknown"
    return f"{blas['name']} {blas['version']}"


def _host() -> dict:
    """The facts about the host that every record and table carries."""
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas(),
            "machine": platform.machine()}


def _emit_record(command: str, parameters: dict, outputs: dict,
                 wall_time_seconds: float, seed: Optional[int] = None):
    record = {
        "command": command,
        "parameters": parameters,
        "outputs": outputs,
        "wall_time_seconds": wall_time_seconds,
        "tool_version": __version__,
        "host": _host(),
    }
    if seed is not None:
        record["seed"] = seed
    try:
        text = json.dumps(record, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ComputationFailure(f"{command}: an output is not a finite "
                                 "number; no record written") from None
    click.echo(text)


class ComputationFailure(click.ClickException):
    exit_code = 4


@click.group(context_settings=CONTEXT_SETTINGS)
@click.version_option(__version__)
def cli():
    """Exact growth-scale computations for local Frobose bootstrap
    percolation (chain DP, lattice simulation, fits, matrix checks)."""


def _resolve_p(p: Optional[float], log2_inv_p: Optional[int]) -> float:
    if (p is None) == (log2_inv_p is None):
        raise click.UsageError("give exactly one of --p / --log2-inv-p")
    # k < 1 is refused before 2^-k, which overflows for large negative k
    if p is None and log2_inv_p >= 1:
        p = 2.0 ** -log2_inv_p
    if p is None or not 0.0 < p < 1.0:
        raise click.UsageError("p must lie in (0,1)")
    return p


@cli.command("pi")
@click.option("--p", type=float, default=None, help="Infection probability.")
@click.option("--log2-inv-p", type=int, default=None,
              help="Exponent k for p = 2^-k.")
@click.option("--threshold", type=click.IntRange(min=2), default=None,
              help="Target semi-perimeter L (default ceil(2 log(1/p)/p)).")
@click.option("--convention", type=click.Choice(["exact", "at-least"]),
              default="exact", show_default=True)
@click.option("--memory-cap-bytes", type=click.IntRange(min=1),
              default=DEFAULT_MEMORY_CAP_BYTES, show_default=True,
              help="Abort before starting if the estimated "
              "working memory of the DP exceeds this.")
def cmd_pi(p, log2_inv_p, threshold, convention, memory_cap_bytes):
    """Compute log Pi(p) exactly via the level-order dynamic program."""
    pv = _resolve_p(p, log2_inv_p)
    try:
        params = ChainParams.from_p(pv, threshold=threshold,
                                    convention=convention)
    except ValueError as exc:
        raise click.UsageError(f"no valid default threshold for p={pv!r} "
                               f"({exc}); give --threshold") from None
    result = _checked_pi(params, memory_cap_bytes=memory_cap_bytes)
    outputs = dataclasses.asdict(result)
    outputs["L"] = outputs.pop("threshold")
    del outputs["model"], outputs["wall_time_seconds"]
    _emit_record("pi", {
        "p": pv, "log2_inv_p": log2_inv_p, "threshold": params.threshold,
        "convention": convention,
    }, outputs, result.wall_time_seconds)


def _checked_pi(params: ChainParams, **kwargs):
    """compute_pi(params, **kwargs), with an ArithmeticError or a log_pi
    that is not finite raised as ComputationFailure."""
    try:
        result = compute_pi(params, **kwargs)
    except ArithmeticError as exc:
        raise ComputationFailure(str(exc)) from None
    if not math.isfinite(result.log_pi):
        raise ComputationFailure(
            f"log_pi is not finite (log_hit_prob={result.log_hit_prob!r}): "
            "the hit probability underflowed to 0")
    return result


_HEADER = "log2_inv_p,log_pi"
_PROVENANCE_PREFIX = "# bpdp "


def _table_row(k: int, log_pi: float) -> str:
    return f"{k},{_fmt(log_pi)}\n"


def _open_table(path: str, convention: str, resume: bool):
    """Open the table at path to append `convention` rows to it; returns
    the exponents it holds and a text sink positioned after them.

    The file is opened once: without resume it starts empty, with resume
    it is read first, and it must pass `_parse_table` and hold
    `convention` rows, else a one-line error (exit status 1) leaves it as
    it was.  Only then is a cut-off last line truncated away, and a file
    without a header gets the provenance line `# bpdp <version>
    convention=<c>`, the line `# host <JSON>` with a record's host facts,
    and the header.  A path that cannot be opened (a
    missing directory, a directory) is a one-line error too.
    """
    try:
        with contextlib.ExitStack() as stack:
            raw = stack.enter_context(open(path, "ab+" if resume else "wb+"))
            raw.seek(0)
            data = raw.read()
            # a last line without its newline was cut off mid-write
            kept = data[:data.rfind(b"\n") + 1]
            found, header, rows = _parse_table(
                path, kept.decode("utf-8", "replace").splitlines())
            if found not in (None, convention):
                raise click.ClickException(
                    f"{path}: table holds convention={found} rows; refusing "
                    f"to add convention={convention} rows")
            raw.truncate(len(kept) if header else 0)
            raw.seek(0, io.SEEK_END)
            sink = io.TextIOWrapper(raw, encoding="utf-8")
            if not header:
                sink.write(f"{_PROVENANCE_PREFIX}{__version__} "
                           f"convention={convention}\n# host "
                           f"{json.dumps(_host(), sort_keys=True)}\n"
                           f"{_HEADER}\n")
            stack.pop_all()
    except OSError as exc:
        raise click.FileError(path, hint=exc.strerror) from None
    return {k for k, _ in rows}, sink


def _parse_table(path: str, lines):
    """Convention, header flag and rows (log2_inv_p, log_pi) of a
    growth-scale table.

    Blank lines and `#` comments are skipped; the first non-comment line
    must be the header log2_inv_p,log_pi.  The convention is the one the
    provenance line names, `exact` for a table whose header comes first
    (it predates the line, when `exact` was the default), and None before
    either.  Another header, or a row that is not an integer exponent and a
    finite log Pi, is a one-line error naming the file and line (exit
    status 1).
    """
    convention, header, rows = None, False, []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line.startswith("#"):
            if (convention is None and line.startswith(_PROVENANCE_PREFIX)
                    and "convention=" in line):
                convention = line.rsplit("convention=", 1)[1]
            continue
        if not line:
            continue
        if not header:
            if line != _HEADER:
                raise click.ClickException(
                    f"{path}, line {lineno}: header {line!r} is not "
                    f"{_HEADER!r}")
            convention, header = convention or "exact", True
            continue
        try:
            k, v = line.split(",")
            k, v = int(k), float(v)
            if not math.isfinite(v):
                raise ValueError
        except ValueError:
            raise click.ClickException(
                f"{path}, line {lineno}: malformed row {line!r} (want "
                "an integer log2_inv_p and a finite log_pi)") from None
        rows.append((k, v))
    return convention, header, rows


def _parse_range(text: str):
    try:
        a, b = text.split("..")
        a, b = int(a), int(b)
    except ValueError:
        raise click.UsageError(f"range must look like 2..8, got {text!r}")
    if a < 1:
        raise click.UsageError(f"range must start at k >= 1 (p = 2^-k < 1), "
                               f"got {text!r}")
    if a <= b and b > 1074:
        raise click.UsageError(f"range must end at k <= 1074 (2^-k rounds "
                               f"to 0.0 from k = 1075 on), got {text!r}")
    return a, b


@cli.command("scan")
@click.option("--log2-inv-p-range", "krange", required=True,
              help="Inclusive range a..b of exponents k, p = 2^-k.")
@click.option("--convention", type=click.Choice(["exact", "at-least"]),
              default="exact", show_default=True)
@click.option("--output", type=click.Path(), default=None,
              help="CSV file (default stdout); enables --resume.")
@click.option("--resume", is_flag=True,
              help="Skip exponents that have a complete row in the output "
              "file; a cut-off last row is dropped and recomputed, and a "
              "malformed row, another header or another convention is an "
              "error.")
def cmd_scan(krange, convention, output, resume):
    """Stream a CSV table of (log2_inv_p, log_pi), one row per p."""
    k0, k1 = _parse_range(krange)
    if resume and not output:
        raise click.UsageError("--resume needs --output")
    if output:
        done, sink = _open_table(output, convention, resume)
    else:
        done, sink = set(), sys.stdout
        sink.write(_HEADER + "\n")
    try:
        todo = [k for k in range(k0, k1 + 1) if k not in done]
        failed = 0
        for k in todo:
            try:
                result = _checked_pi(ChainParams.from_p(2.0 ** -k,
                                                        convention=convention))
            except Exception as exc:  # per-row failures recorded, scan continues
                click.echo(f"# k={k} failed: {exc}", err=True)
                failed += 1
                continue
            sink.write(_table_row(k, result.log_pi))
            sink.flush()
    finally:
        if output:
            sink.close()
    if failed:
        click.echo(f"# {failed} of {len(todo)} rows failed", err=True)
        raise click.exceptions.Exit(ComputationFailure.exit_code)


@cli.command("verify")
@click.option("--suite", type=click.Choice([*SUITES, "all"]),
              default="all", show_default=True)
def cmd_verify(suite):
    """Run the module property suites; nonzero exit on any failure."""
    checks = run_suite(suite)
    failed = False
    for name, passed, details in checks:
        status = "pass" if passed else "FAIL"
        click.echo(f"[{status}] {name}" + (f"  ({details})" if details else ""))
        failed = failed or not passed
    if failed:
        raise VerificationFailure()


class VerificationFailure(click.ClickException):
    exit_code = 2

    def __init__(self):
        super().__init__("verification failed")


@cli.command("constants")
def cmd_constants():
    """First- and second-order constants (closed forms and quadrature)."""
    t0 = time.perf_counter()
    out = constants()
    _emit_record("constants", {}, out, time.perf_counter() - t0)


@cli.command("functions")
@click.option("--grid", default="1e-6..60", show_default=True,
              help="Log-spaced grid lo..hi for the abscissa z, lo at "
              "least the smallest normal double.")
@click.option("--points", type=click.IntRange(min=1), default=200,
              show_default=True)
def cmd_functions(grid, points):
    """CSV table of (z, f, g, h, h2, h2_mod, alpha) on a log-spaced grid."""
    try:
        lo_s, hi_s = grid.split("..")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise click.UsageError(f"grid must look like 1e-6..60, got {grid!r}")
    # h2_mod, about 1.85 / z, leaves the double range below z = 1.03e-308
    if not (sys.float_info.min <= lo < hi < math.inf):
        raise click.UsageError(f"need finite {sys.float_info.min!r} <= lo < "
                               f"hi, got {grid!r}")
    zs = np.exp(np.linspace(math.log(lo), math.log(hi), points))
    click.echo("z,f,g,h,h2,h2_mod,alpha")
    for z in zs:
        row = [z, float(f(z)), float(g(z)), float(h(z)), float(h2(z)),
               float(h_mod(z)), float(alpha(z))]
        click.echo(",".join(_fmt(v) for v in row))


@cli.command("fit")
@click.option("--input", "input_path", type=click.Path(exists=True),
              required=True, help="A growth-scale table, as "
              "scan --output writes it.")
def cmd_fit(input_path):
    """All asymptotic fits of a growth-scale table, as one JSON record."""
    t0 = time.perf_counter()
    with open(input_path, encoding="utf-8", errors="replace") as fh:
        _, _, rows = _parse_table(input_path, fh)
    if len(rows) < 4:
        raise click.UsageError("need at least four data rows")
    try:
        data = PiDataset(tuple(rows))
    except ValueError as exc:
        raise click.ClickException(f"{input_path}: {exc}") from None

    def attempt(fn):
        # a fit that cannot be taken (a log Pi that is not positive, a
        # value that over- or underflows) is an error of its own, and the
        # rest of the record is still written
        try:
            with np.errstate(all="raise"):
                return fn(data)
        except (FitError, ArithmeticError) as exc:
            return {"error": str(exc.args[-1])}

    outputs = {
        "first_order": attempt(fit_first_order),
        "first_order_fixed_alpha": attempt(fit_first_order_fixed_alpha),
        "second_order": attempt(fit_second_order),
        "second_order_fixed_beta": attempt(fit_second_order_fixed_beta),
        "third_order": attempt(fit_third_order),
        "four_param": attempt(fit_four_param),
        "coordinates": _figure_coordinates(data),
    }
    _emit_record("fit", {"input": os.path.basename(input_path)}, outputs,
                 time.perf_counter() - t0)


def _figure_coordinates(data: PiDataset) -> dict:
    """Plot-ready transformed coordinates for the standard figures."""
    x = data.log_inv_p
    p = data.p
    y = data.log_pi
    # a residual that overflows, or the log of one that is not positive,
    # is a null coordinate, not a warning on stderr
    with np.errstate(all="ignore"):
        res1 = LAMBDA1_F / p - y
        res2 = y - LAMBDA1_F / p + LAMBDA2_F / np.sqrt(p)
        log_y, log_res1, log_res2 = np.log(y), np.log(res1), np.log(res2)
    return {
        "leading": {"x_log_inv_p": _points(x), "y_p_log_pi": _points(p * y)},
        "loglog": {"x_log_inv_p": _points(x),
                   "y_log_log_pi": _points(log_y)},
        "second_order": {"x_log_inv_p": _points(x),
                         "y_log_residual": _points(log_res1)},
        "second_order_sqrt": {"x_inv_sqrt_p": _points(1.0 / np.sqrt(p)),
                              "y_residual": _points(res1)},
        "third_order": {"x_log_inv_p": _points(x),
                        "y_log_residual": _points(log_res2)},
    }


def _points(values) -> list:
    """Plot coordinates as JSON values: null where a coordinate is
    undefined (the log of a residual that is not positive)."""
    return [float(v) if math.isfinite(v) else None for v in values]


@cli.command("simulate")
@click.option("--event", "event_id", type=click.Choice(list(EVENTS)),
              required=True, help="Rectangle event.")
@click.option("--width", type=click.IntRange(min=1), required=True)
@click.option("--height", type=click.IntRange(min=1), required=True)
@click.option("--p", type=click.FloatRange(0, 1, min_open=True,
                                           max_open=True), required=True)
@click.option("--n", type=click.IntRange(min=1), default=10000,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
def cmd_simulate(event_id, width, height, p, n, seed):
    """Monte Carlo estimate of a rectangle event on a Bernoulli field."""
    t0 = time.perf_counter()
    params = ModelParams(p)
    rect = Rectangle(0, 0, width, height)
    est = mc_estimate(lambda A: event_holds(event_id, rect, A),
                      rect.cells(), params, n, seed)
    expected = _expected_event_prob(event_id, rect, params)
    outputs = {
        "event": event_id, "region": f"{width}x{height}", "p": p,
        "n": n, "seed": seed, "p_hat": est["p_hat"],
        "std_err": est["std_err"], "algorithm": est["algorithm"],
    }
    if expected is not None:
        outputs["expected"] = expected
    _emit_record("simulate", {"event": event_id, "width": width,
                              "height": height, "p": p, "n": n},
                 outputs, time.perf_counter() - t0, seed=seed)


def _expected_event_prob(event_id, rect, params):
    m = rect.width * rect.height
    q = params.q
    if event_id == "O":
        return -math.expm1(-m * q)
    if event_id == "G-":
        return math.exp(-rect.height * float(f(rect.width * q)))
    if event_id == "G|":
        return math.exp(-rect.width * float(f(rect.height * q)))
    return None


def main():
    try:
        # Outside standalone mode click returns the code of a raised
        # click.exceptions.Exit (`scan` with failed rows) instead of raising.
        status = cli(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except ResourceCapError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except click.Abort:
        sys.exit(1)
    sys.exit(status if isinstance(status, int) else 0)


if __name__ == "__main__":
    main()
