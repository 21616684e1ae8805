"""Command-line surface.

Subcommands: slopes (per-point slope records), scan (family sweeps with
checkpoint/resume), hecke (eigenvalue valuations to Newton function and
slopes), coweight (root-datum predicates).  All machine output is exact:
rationals travel as "num/den" strings, never floats.

Exit codes: 0 success; 2 a mathematically well-posed request the library
refused (precision, strategy, dominance...), reported as structured JSON on
stdout; 64 malformed usage.  The environment variable ISOSLOPE_TABLE_LIMIT
caps the tables a request may build: GF(p^m) for its points and the orbit
tables of Z/(p^(m j) - 1) for its traces; a request over it exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import json
import os
import sys
import time
from fractions import Fraction

from .arith import field_create
from .coweight import (
    RootDatum,
    cohomology_slope_interval,
    dominance_leq,
    hecke_newton,
    newton_to_slopes,
    pgl3_region,
    small_gaps,
    weyl_vector,
)
from .errors import IsoslopeError, MalformedInput, PrecisionInsufficient
from .hyper import (
    STRATEGIES,
    HypergeometricDatum,
    closed_points,
    point_spec,
    slopes_at_point,
)
from .scan import (
    FAMILY_KINDS,
    FamilySpec,
    ReportWriter,
    point_record,
    rational_str,
    scan_family,
)

EX_OK = 0
EX_MATH = 2
EX_USAGE = 64

# schema of the hecke, coweight and error payloads; point records and scan
# reports carry scan.SCHEMA_VERSION, which moves on its own
PAYLOAD_SCHEMA_VERSION = "1"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message):
        raise MalformedInput(message)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad rational {text!r}: {exc}") from None


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise MalformedInput(f"bad integer list {text!r}: {exc}") from None


def _parse_p_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise MalformedInput(f"bad prime range {text!r}: {exc}") from None


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


class _RowWriter:
    """csv or tsv rows of flat records written to a stream as they arrive:
    a header from the first record's keys, then one row per record.  It has
    the interface of scan.ReportWriter; rows carry no summary."""

    def __init__(self, fmt: str, stream):
        self.points = 0
        self._rows = csv.writer(stream, delimiter="," if fmt == "csv" else "\t",
                                lineterminator="\n")
        self._header = None

    def write(self, rec: dict):
        if self._header is None:
            self._header = list(rec)
            self._rows.writerow(self._header)
        self._rows.writerow([_csv_cell(rec.get(k)) for k in self._header])
        self.points += 1

    def write_point(self, head, x: int, x_dlog: int):
        self.write(head.record(x, x_dlog))

    def close(self, datum_count: int, violations):
        pass


def emit_records(records: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        for rec in records:
            stream.write(json.dumps(rec, sort_keys=True) + "\n")
        return
    rows = _RowWriter(fmt, stream)
    for rec in records:
        rows.write(rec)


@contextlib.contextmanager
def _replacing(path: str):
    """Yield a stream into a temp file beside path and move it over path on
    a clean exit.  The temp file is made on entry, and a path naming a
    directory is refused there, so an unusable path is a usage error before
    any work is done; on any failure the temp file is removed, so an
    existing file at path is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise MalformedInput(f"--out {path}: {exc.strerror or exc}") from None
        raise


@contextlib.contextmanager
def _stdout_when_complete():
    """Yield a stream into an unnamed temp file and copy it to stdout on a
    clean exit, so stdout gets the whole output or none of it.  The stream
    is write-only, since a readable one resets its decoder on every write."""
    import shutil
    import tempfile  # only here: importing it would add to every command's start-up

    with tempfile.TemporaryFile() as raw:
        with open(raw.fileno(), "w", encoding="utf-8", newline="", closefd=False) as fh:
            yield fh
        raw.seek(0)
        with open(raw.fileno(), encoding="utf-8", newline="", closefd=False) as fh:
            shutil.copyfileobj(fh, sys.stdout)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_slopes(args) -> int:
    datum = HypergeometricDatum(args.p, tuple(_parse_int_list(args.c)))
    field = field_create(args.p, args.m)
    if args.precision == "auto":
        precision = None
    else:
        try:
            precision = int(args.precision)
        except ValueError:
            raise MalformedInput(f"bad --precision {args.precision!r}") from None
    if args.x is not None:
        parts = _parse_int_list(args.x)
        if len(parts) == 1 and args.m == 1:
            x = parts[0] % args.p
        elif len(parts) == args.m:
            x = sum(d % args.p * args.p ** i for i, d in enumerate(parts))
        else:
            raise MalformedInput(
                f"--x needs a single residue (degree 1) or {args.m} "
                f"little-endian coefficients, got {len(parts)} values"
            )
        points = [point_spec(field, x)]
    else:
        points = closed_points(field)

    records = []
    for pt in points:
        t0 = time.monotonic()
        report = slopes_at_point(datum, pt, args.strategy, precision)
        rec = point_record(report)
        rec["timing_ms"] = int((time.monotonic() - t0) * 1000)
        if args.x is not None:
            rec["x_requested"] = args.x
        records.append(rec)
    emit_records(records, args.format, sys.stdout)
    return EX_OK


def cmd_scan(args) -> int:
    p_min, p_max = _parse_p_range(args.p_range)
    c = tuple(_parse_int_list(args.c)) if args.c is not None else None
    spec = FamilySpec(args.family, p_min, p_max, c, args.m_max)
    if args.workers < 1:
        raise MalformedInput(f"need workers >= 1, got {args.workers}")
    # the report would replace the checkpoint, which the next run then refuses
    if args.out and args.checkpoint and \
            os.path.realpath(args.out) == os.path.realpath(args.checkpoint):
        raise MalformedInput(f"--out and --checkpoint name the same file {args.out}")
    with _replacing(args.out) if args.out else _stdout_when_complete() as out:
        writer = ReportWriter(spec, out) if args.format == "json" else \
            _RowWriter(args.format, out)
        try:
            report = scan_family(spec, checkpoint=args.checkpoint, writer=writer)
        except OSError as exc:
            if args.checkpoint is None:
                raise
            raise MalformedInput(
                f"--checkpoint {args.checkpoint}: {exc.strerror or exc}") from None

    expected = sum(1 for v in report.violations if v["expected"])
    summary = (f"{spec.kind} p in [{p_min}, {p_max}]: {report.datum_count} datums, "
               f"{writer.points} points, {len(report.violations)} gap "
               f"violations ({expected} at predicted points), "
               f"{report.elapsed_s:.1f}s")
    print(summary, file=sys.stderr)

    if spec.kind == "triplegap":
        if report.triple_gap_failures:
            print(f"triple-gap uniqueness FAILED at {list(report.triple_gap_failures)}",
                  file=sys.stderr)
            return EX_MATH
        print("all triple-gap uniqueness checks passed", file=sys.stderr)
    return EX_OK


def cmd_hecke(args) -> int:
    vals = [_parse_rational(part) for part in args.t_vals.split(",")]
    if args.n < 1:
        raise MalformedInput(f"need n >= 1, got {args.n}")
    if len(vals) != args.n:
        raise MalformedInput(f"--t-vals must list exactly n = {args.n} valuations, "
                             f"got {len(vals)}")
    if args.pgl3 and args.n != 3:
        raise MalformedInput("--pgl3 needs n = 3")
    newt = hecke_newton(vals)
    slopes = newton_to_slopes(newt, vals[-1])
    rec = {
        "schema_version": PAYLOAD_SCHEMA_VERSION,
        "n": args.n,
        "t_vals": [rational_str(v) for v in vals],
        "newton": [rational_str(v) for v in newt],
        "slopes": [rational_str(s) for s in slopes],
    }
    if args.pgl3:
        rec["region"] = pgl3_region(vals[0], vals[1])
    emit_records([rec], args.format, sys.stdout)
    return EX_OK


def _parse_datum_type(text: str) -> RootDatum:
    low = text.strip()
    try:
        if low.upper().startswith("GL"):
            return RootDatum.gl(int(low[2:]))
        if low.upper().startswith("SL"):
            return RootDatum.sl(int(low[2:]))
        if low.startswith("cartan:"):
            with open(low.split(":", 1)[1], encoding="utf-8") as fh:
                return RootDatum.from_cartan(json.load(fh))
    except (OSError, ValueError) as exc:
        raise MalformedInput(f"bad datum type {text!r}: {exc}") from None
    raise MalformedInput(f"unknown datum type {text!r}; use GLn, SLn, or cartan:<file>")


def _parse_rational_list(text: str) -> list[Fraction]:
    return [_parse_rational(part) for part in text.split(",")]


def cmd_coweight(args) -> int:
    if args.subcmd == "small-gaps":
        rep = small_gaps(_parse_datum_type(args.type), _parse_rational_list(args.coweight))
        body = {
            "satisfied": rep.satisfied,
            "gaps": [rational_str(g) for g in rep.gaps],
            "violating": list(rep.violating),
            "le1_indices": list(rep.le1_indices),
        }
    elif args.subcmd == "rho":
        body = {"rho": [rational_str(v) for v in weyl_vector(_parse_datum_type(args.type))]}
    elif args.subcmd == "leq":
        body = {"leq": dominance_leq(_parse_datum_type(args.type), _parse_rational_list(args.a),
                                     _parse_rational_list(args.b))}
    else:
        lo, hi = cohomology_slope_interval(_parse_rational(args.r),
                                           _parse_rational(args.s),
                                           args.i, args.n)
        body = {"interval": [rational_str(lo), rational_str(hi)]}
    emit_records([{"schema_version": PAYLOAD_SCHEMA_VERSION, **body}], args.format, sys.stdout)
    return EX_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _add_format(parser):
    parser.add_argument("--format", choices=("json", "csv", "tsv"), default="json")


def build_parser() -> _Parser:
    top = _Parser(prog="isoslope",
                  description="Exact Frobenius slopes of hypergeometric local "
                              "systems, and the coweight calculus around them.")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("slopes", help="slope records at closed points")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--c", required=True, help="comma list of exponents")
    p.add_argument("--x", help="point: residue, or m little-endian coefficients")
    p.add_argument("--m", type=int, default=1, help="point degree (default 1)")
    p.add_argument("--strategy", default="auto", choices=("auto", *STRATEGIES))
    p.add_argument("--precision", default="auto")
    _add_format(p)
    p.set_defaults(func=cmd_slopes)

    p = sub.add_parser("scan", help="sweep a datum family")
    p.add_argument("--family", required=True, choices=FAMILY_KINDS)
    p.add_argument("--p-range", required=True, help="inclusive, as a..b")
    p.add_argument("--c", help="exponents for --family explicit")
    p.add_argument("--m-max", type=int, default=1)
    p.add_argument("--checkpoint", help="resumable NDJSON path")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and ignored: scans run "
                        "serially (must be >= 1)")
    p.add_argument("--out", help="report path (default stdout)")
    _add_format(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("hecke", help="Hecke valuations to Newton data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-vals", required=True, help="comma list of rationals")
    p.add_argument("--pgl3", action="store_true",
                   help="classify (v(t_1), v(t_2)) into the rank-3 regions")
    _add_format(p)
    p.set_defaults(func=cmd_hecke)

    p = sub.add_parser("coweight", help="root-datum predicates")
    sub2 = p.add_subparsers(dest="subcmd", required=True)

    q = sub2.add_parser("small-gaps")
    q.add_argument("--type", required=True, help="GLn, SLn, or cartan:<file>")
    q.add_argument("--coweight", required=True, help="comma list of rationals")
    _add_format(q)
    q.set_defaults(func=cmd_coweight)

    q = sub2.add_parser("rho")
    q.add_argument("--type", required=True)
    _add_format(q)
    q.set_defaults(func=cmd_coweight)

    q = sub2.add_parser("leq")
    q.add_argument("--type", required=True)
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    _add_format(q)
    q.set_defaults(func=cmd_coweight)

    q = sub2.add_parser("cohinterval")
    q.add_argument("--r", required=True)
    q.add_argument("--s", required=True)
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    _add_format(q)
    q.set_defaults(func=cmd_coweight)

    return top


def _error_payload(exc: IsoslopeError) -> dict:
    info = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, PrecisionInsufficient):
        info["index"] = exc.index
        info["suggested_precision"] = exc.suggested_precision()
    return {"schema_version": PAYLOAD_SCHEMA_VERSION, "error": info}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except MalformedInput as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except IsoslopeError as exc:
        sys.stdout.write(json.dumps(_error_payload(exc), sort_keys=True) + "\n")
        return EX_MATH


if __name__ == "__main__":
    sys.exit(main())
