"""Command-line front end.

Every subcommand prints one self-describing JSON record (or CSV where a
table is the natural shape).  JSON numbers use Python's shortest
round-trip repr and CSV cells 17 significant digits, so binary64 values
round-trip either way.  Configuration precedence is flags, then
BPDP_-prefixed environment variables, then defaults.

JSON is written with allow_nan=False, so a record never carries NaN or
Infinity: a `pi` result whose log Pi is not finite (the hit probability
underflowed to 0) is an error instead, and `scan` counts such a row as
failed and does not write it.

Table files created by `scan --output` and `pi --csv` start with a
provenance line `# bpdp <version> convention=<c>`, which readers skip as a
comment.  Appending to a table (`scan --resume`, `pi --csv` on an existing
file) under another --convention is an error and leaves the file as it
was; a table without the line predates it and counts as `exact`.  A
`pi --csv` row is a default-threshold log Pi, so `--csv` with another
--threshold is refused before the DP runs.  Tables streamed to stdout
carry no provenance line.

Exit status: 0 success, 1 usage error, 2 verification failure,
3 resource cap exceeded, 4 a computation failed (a non-finite `pi`
result, or at least one failed `scan` row; `scan` then ends with
`# n of m rows failed` on stderr).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from typing import Optional

import click
import numpy as np

from . import __version__
from .chain import (ChainParams, ResourceCapError, compute_pi,
                    default_threshold)
from .fitting import (PiDataset, fit_first_order, fit_first_order_fixed_alpha,
                      fit_four_param, fit_second_order,
                      fit_second_order_fixed_beta, fit_third_order)
from .lattice_sim import (Rectangle, event_holds, mc_estimate)
from .special_functions import (ModelParams, alpha, constants, f, g, h, h2,
                                h_mod)
from .verify import SUITES, run_suite

CONTEXT_SETTINGS = {"auto_envvar_prefix": "BPDP"}


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit_record(command: str, parameters: dict, outputs: dict,
                 wall_time_seconds: float, seed: Optional[int] = None):
    record = {
        "command": command,
        "parameters": parameters,
        "outputs": outputs,
        "wall_time_seconds": wall_time_seconds,
        "tool_version": __version__,
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
    if p is None:
        p = 2.0 ** -log2_inv_p
    if not 0.0 < p < 1.0:
        raise click.UsageError("p must lie in (0,1)")
    return p


@cli.command("pi")
@click.option("--p", type=float, default=None, help="Infection probability.")
@click.option("--log2-inv-p", type=int, default=None,
              help="Exponent k for p = 2^-k.")
@click.option("--threshold", type=int, default=None,
              help="Target semi-perimeter L (default ceil(2 log(1/p)/p)).")
@click.option("--convention", type=click.Choice(["exact", "at-least"]),
              default="exact", show_default=True)
@click.option("--memory-cap-bytes", type=int, default=8 << 30,
              show_default=True, help="Abort before starting if the level "
              "storage estimate exceeds this.")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Append a CSV row (log2_inv_p, p, log_pi) to this file; "
              "needs p = 2^-k, the default threshold and the file's "
              "convention.")
def cmd_pi(p, log2_inv_p, threshold, convention, memory_cap_bytes, csv_path):
    """Compute log Pi(p) exactly via the level-order dynamic program."""
    pv = _resolve_p(p, log2_inv_p)
    csv_k = log2_inv_p if log2_inv_p is not None else _exact_log2_inv(pv)
    if csv_path and csv_k is None:
        raise click.ClickException(
            f"--csv needs p = 2^-k so the row names its log2_inv_p; "
            f"p={pv!r} is not a power of two (use --log2-inv-p)")
    if csv_path and threshold not in (None, default_threshold(pv)):
        raise click.ClickException(
            f"--csv rows are read as log Pi at the default threshold "
            f"({default_threshold(pv)} for p={pv!r}); refusing --threshold "
            f"{threshold}")
    if csv_path:
        _check_pi_table(csv_path, convention)
    params = ChainParams.from_p(pv, threshold=threshold, convention=convention)
    result = compute_pi(params, memory_cap_bytes=memory_cap_bytes)
    if not math.isfinite(result.log_pi):
        raise ComputationFailure(
            f"log_pi is not finite (log_hit_prob={result.log_hit_prob!r}): "
            "the hit probability underflowed to 0")
    outputs = {
        "p": result.p, "q": result.q, "L": result.threshold,
        "convention": result.convention,
        "log_hit_prob": result.log_hit_prob, "log_pi": result.log_pi,
    }
    _emit_record("pi", {
        "p": pv, "log2_inv_p": log2_inv_p, "threshold": params.threshold,
        "convention": convention,
    }, outputs, result.wall_time_seconds)
    if csv_path:
        new = not os.path.exists(csv_path)
        with _open_append(csv_path) as fh:
            if new:
                fh.write(_provenance(convention) + ",".join(_PI_COLUMNS)
                         + "\n")
            fh.write(f"{csv_k},{_fmt(pv)},{_fmt(result.log_pi)}\n")


def _check_pi_table(path: str, convention: str) -> None:
    """Refuse, before the DP runs, to append a `pi` row to an existing
    file that is not a `pi --csv` table of the same convention."""
    if not os.path.isfile(path):
        return
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    _check_convention(path, lines, convention)
    header, _ = _parse_table(path, lines)
    if header not in (None, _PI_COLUMNS):
        raise click.ClickException(
            f"{path}: header {','.join(header)!r} is not a pi --csv "
            f"table's {','.join(_PI_COLUMNS)!r}; cannot append")


def _exact_log2_inv(p: float) -> Optional[int]:
    """k with p == 2^-k exactly, or None."""
    mantissa, exponent = math.frexp(p)
    return 1 - exponent if mantissa == 0.5 else None


def _open_append(path: str):
    """Open a CSV for appending; a path that cannot be opened (a missing
    directory, say) is a one-line usage error with exit status 1."""
    try:
        return open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise click.FileError(path, hint=exc.strerror)


_TABLE_COLUMNS = ("log2_inv_p", "log_pi")
_PI_COLUMNS = ("log2_inv_p", "p", "log_pi")
_PROVENANCE_PREFIX = "# bpdp "


def _provenance(convention: str) -> str:
    """First line of every table file `scan` and `pi --csv` create."""
    return f"{_PROVENANCE_PREFIX}{__version__} convention={convention}\n"


def _check_convention(path: str, lines, convention: str) -> None:
    """Refuse to add rows of one convention to a table of another.

    A table names its convention on its provenance line, which precedes
    its header.  A table whose header comes first was written before the
    line existed, when `exact` was the default, and counts as `exact`; a
    file with neither holds no table yet and takes any convention.
    """
    found = None
    for line in lines:
        line = line.strip()
        if line.startswith(_PROVENANCE_PREFIX) and "convention=" in line:
            found = line.rsplit("convention=", 1)[1]
            break
        if line and not line.startswith("#"):
            found = "exact"
            break
    if found not in (None, convention):
        raise click.ClickException(
            f"{path}: table holds convention={found} rows; refusing to "
            f"add convention={convention} rows")


def _parse_table(path: str, lines):
    """Header and rows (log2_inv_p, log_pi) of a growth-scale CSV.

    The two columns are found by name in the header, so `scan` tables and
    `pi --csv` tables (log2_inv_p,p,log_pi) both read; blank lines and
    `#` comments are skipped.  A header without both columns, or a row
    that is not an integer exponent and a finite log Pi, is a one-line
    error naming the file and line (exit status 1).
    """
    header = None
    rows = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if header is None:
            if not set(_TABLE_COLUMNS) <= set(fields):
                raise click.ClickException(
                    f"{path}, line {lineno}: header {line!r} does not name "
                    "the columns log2_inv_p and log_pi")
            header = tuple(fields)
            cols = [fields.index(name) for name in _TABLE_COLUMNS]
            continue
        try:
            if len(fields) != len(header):
                raise ValueError
            k, v = int(fields[cols[0]]), float(fields[cols[1]])
            if not math.isfinite(v):
                raise ValueError
        except ValueError:
            raise click.ClickException(
                f"{path}, line {lineno}: malformed row {line!r} (want "
                "an integer log2_inv_p and a finite log_pi)") from None
        rows.append((k, v))
    return header, rows


def _completed_rows(path: str, convention: str):
    """Exponents with a row in a scan CSV, and whether it lacks a header.

    A last line without its newline was cut off mid-write, so it is
    truncated away and the rows appended next start on a line of their own.
    Every other line must parse (see `_parse_table`) under the scan header,
    and the table must hold `convention` rows (see `_check_convention`);
    otherwise the file is left untouched and the scan refuses to resume.
    """
    with open(path, "rb+") as fh:
        kept = fh.read()
        kept = kept[:kept.rfind(b"\n") + 1]
        lines = kept.decode("utf-8", "replace").splitlines()
        _check_convention(path, lines, convention)
        header, rows = _parse_table(path, lines)
        if header not in (None, _TABLE_COLUMNS):
            raise click.ClickException(
                f"{path}: header {','.join(header)!r} is not a scan table's "
                f"{','.join(_TABLE_COLUMNS)!r}; cannot resume")
        fh.truncate(len(kept))
    return {k for k, _ in rows}, header is None


def _parse_range(text: str):
    try:
        a, b = text.split("..")
        return int(a), int(b)
    except ValueError:
        raise click.UsageError(f"range must look like 2..8, got {text!r}")


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
              "malformed row or another convention is an error.")
def cmd_scan(krange, convention, output, resume):
    """Stream a CSV table of (log2_inv_p, log_pi), one row per p."""
    k0, k1 = _parse_range(krange)
    done = set()
    header_needed = True
    if output and os.path.exists(output):
        if resume:
            done, header_needed = _completed_rows(output, convention)
        else:
            os.remove(output)
    sink = _open_append(output) if output else sys.stdout
    try:
        if header_needed:
            if output:
                sink.write(_provenance(convention))
            sink.write(",".join(_TABLE_COLUMNS) + "\n")
            sink.flush()
        todo = [k for k in range(k0, k1 + 1) if k not in done]
        failed = 0
        for k in todo:
            try:
                params = ChainParams.from_p(2.0 ** -k, convention=convention)
                result = compute_pi(params)
                if not math.isfinite(result.log_pi):
                    raise ArithmeticError(
                        f"log_pi is not finite ({result.log_pi!r})")
            except Exception as exc:  # per-row failures recorded, scan continues
                click.echo(f"# k={k} failed: {exc}", err=True)
                failed += 1
                continue
            sink.write(f"{k},{_fmt(result.log_pi)}\n")
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
              help="Log-spaced grid lo..hi for the abscissa z.")
@click.option("--points", type=int, default=200, show_default=True)
def cmd_functions(grid, points):
    """CSV table of (z, f, g, h, h2, h2_mod, alpha) on a log-spaced grid."""
    try:
        lo_s, hi_s = grid.split("..")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise click.UsageError(f"grid must look like 1e-6..60, got {grid!r}")
    if not (0.0 < lo < hi):
        raise click.UsageError("need 0 < lo < hi")
    zs = np.exp(np.linspace(math.log(lo), math.log(hi), points))
    click.echo("z,f,g,h,h2,h2_mod,alpha")
    for z in zs:
        row = [z, float(f(z)), float(g(z)), float(h(z)), float(h2(z)),
               float(h_mod(z)), float(alpha(z))]
        click.echo(",".join(_fmt(v) for v in row))


@cli.command("fit")
@click.option("--input", "input_path", type=click.Path(exists=True),
              required=True, help="CSV with columns log2_inv_p and log_pi "
              "(a scan or pi --csv table).")
def cmd_fit(input_path):
    """All asymptotic fits of a growth-scale table, as one JSON record."""
    t0 = time.perf_counter()
    with open(input_path, encoding="utf-8", errors="replace") as fh:
        _, rows = _parse_table(input_path, fh)
    if len(rows) < 4:
        raise click.UsageError("need at least four data rows")
    try:
        data = PiDataset(tuple(rows))
    except ValueError as exc:
        raise click.ClickException(f"{input_path}: {exc}") from None
    from .fitting import FitError

    def attempt(fn):
        try:
            return fn(data)
        except FitError as exc:
            return {"error": str(exc)}

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
    import numpy as _np
    from .fitting import LAMBDA1_F, LAMBDA2_F
    x = data.log_inv_p
    p = data.p
    y = data.log_pi
    res1 = LAMBDA1_F / p - y
    res2 = y - LAMBDA1_F / p + LAMBDA2_F / _np.sqrt(p)
    return {
        "leading": {"x_log_inv_p": _points(x), "y_p_log_pi": _points(p * y)},
        "loglog": {"x_log_inv_p": _points(x),
                   "y_log_log_pi": _points(_np.log(y))},
        "second_order": {"x_log_inv_p": _points(x),
                         "y_log_residual": _points(_np.log(res1))},
        "second_order_sqrt": {"x_inv_sqrt_p": _points(1.0 / _np.sqrt(p)),
                              "y_residual": _points(res1)},
        "third_order": {"x_log_inv_p": _points(x),
                        "y_log_residual": _points(_np.log(res2))},
    }


def _points(values) -> list:
    """Plot coordinates as JSON values: null where a coordinate is
    undefined (the log of a residual that is not positive)."""
    return [float(v) if math.isfinite(v) else None for v in values]


@cli.command("simulate")
@click.option("--event", "event_id", required=True,
              help="Event id: I, IF, I_loc, IF_loc, O, G-, G|, T_east, ...")
@click.option("--width", type=int, required=True)
@click.option("--height", type=int, required=True)
@click.option("--p", type=float, required=True)
@click.option("--n", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
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
