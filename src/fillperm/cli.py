"""Command-line front end.

Exit codes: 0 success, 1 negative-but-valid answer (not equivalent, no
decomposition, failed validation), 2 input or usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from collections.abc import Callable
from pathlib import Path

from .census import census_records, upper_bound, write_census
from .filling import FillingError, FillingPermutation, validate
from .perm import CycleParseError, Permutation, parse_cycle_text
from .surgery import (
    AttachmentSite,
    Decomposition,
    RoundTripReport,
    SurgeryError,
    assemble,
    attachment_site,
    decomposition_at,
    disassemble,  # noqa: F401  (wrapped by perfbench; tests/test_perfbench_surface.py)
    extract,
    find_decompositions,
    round_trip_check,
    _pull_back,
)
from .twist import BoundExceeded, _check_n, are_equivalent


class CLIInputError(Exception):
    pass


@contextlib.contextmanager
def _file_errors(path: str):
    """A file the user named that cannot be written is bad input."""
    try:
        yield
    except OSError as exc:
        raise CLIInputError(f"{path}: {exc.strerror or exc}") from exc


def read_filling_file(path: str) -> tuple[Permutation, int]:
    """Parse a pair file: optional leading `n=<int>`, cycle notation, `#` comments.

    The body is parsed once; its labels give n when there is no header and
    refuse a file that cannot be a pair before anything of 4n labels is built.
    """
    # a file that is not UTF-8, or whose header is too long for int(), is as
    # bad as a malformed cycle
    try:
        text = Path(path).read_text(encoding="utf-8")
        n = None
        body_parts: list[str] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if n is None and not body_parts and re.fullmatch(r"n\s*=\s*\d+", line):
                n = int(line.split("=", 1)[1])
                continue
            body_parts.append(line)
        body = "".join(body_parts)
        cycles = parse_cycle_text(body, None)
    except OSError as exc:
        raise CLIInputError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise CLIInputError(f"{path}: {exc}") from exc
    labels = set().union(*cycles)
    top = max(labels, default=0)
    if not top:
        raise CLIInputError(f"{path}: no permutation found")
    if n is None:
        n = (top + 3) // 4
    elif 4 * n > top:
        raise CLIInputError(f"{path}: n={n} needs labels up to {4 * n}, the largest is {top}")
    # a label the body does not name would be a fixed point, which no
    # filling permutation has; refuse before allocating 4n of them
    if len(labels) < 4 * n:
        raise CLIInputError(
            f"{path}: n={n} needs {4 * n} distinct labels, the body names {len(labels)}"
        )
    try:
        sigma = Permutation.from_cycles(cycles, 4 * n)
    except ValueError:
        # a symbol out of range or repeated in its cycle: the bounded parse
        # raises the error with its position in the body
        try:
            parse_cycle_text(body, 4 * n)
        except CycleParseError as exc:
            raise CLIInputError(f"{path}: {exc}") from exc
        raise
    return sigma, n


def write_filling_file(path: str, fp: FillingPermutation) -> None:
    with _file_errors(path):
        Path(path).write_text(f"n={fp.n}\n{fp.sigma.cycle_string()}\n", encoding="utf-8")


def load_valid(path: str) -> FillingPermutation:
    sigma, n = read_filling_file(path)
    try:
        return validate(sigma, n)
    except FillingError as exc:
        raise CLIInputError(f"{path}: not a filling permutation: {exc}") from exc


def _entry_text(entry: tuple[int, bool]) -> str:
    sym, decorated = entry
    return f"{sym}'" if decorated else str(sym)


def _cycles_text(cycles: list[list[tuple[int, bool]]]) -> str:
    return "".join("(" + ",".join(_entry_text(e) for e in cyc) + ")" for cyc in cycles)


def _dec_text(dec: Decomposition) -> str:
    quad = ",".join(str(r) for r in dec.type)
    note = ""
    if dec.k == 1:
        note = "  # genus-1 piece: admitted by the crossing arithmetic, no reference fixture"
    return f"k={dec.k} l={dec.l} x={dec.x} a={dec.a} y={dec.y} b={dec.b} type=({quad}){note}"


def _roundtrip_text(dec: Decomposition, report: RoundTripReport) -> str:
    tag = "exact" if report.exact else f"conjugate by kappa^{report.p} delta^{report.q}"
    return f"k={dec.k} x={dec.x}: p={report.p} q={report.q} ({tag})"


def _vertices_text(vertices: tuple[tuple[int, ...], ...]) -> str:
    return " ".join("{" + ",".join(map(str, v)) + "}" for v in vertices)


def _sigma_record(fp: FillingPermutation) -> dict:
    """`fp.sigma.to_record()` read off the regions: sigma alternates parity,
    so it has no fixed point and its cycles are the regions."""
    return {"size": fp.size, "cycles": [list(r) for r in fp.regions]}


# Each command returns (exit code, text, record payload).  The text is a
# function of no arguments, called only for `--format text`, so record
# output formats no text.


def cmd_validate(args) -> tuple[int, Callable[[], str], dict]:
    sigma, n = read_filling_file(args.file)
    try:
        fp = validate(sigma, n)
    except FillingError as exc:
        error = str(exc)
        return 1, lambda: f"invalid: {error}", {"valid": False, "error": error}
    payload = {
        "valid": True,
        "n": fp.n,
        "c": fp.region_count,
        "genus": fp.genus(),
    }
    return 0, lambda: f"valid, n={fp.n}, c={fp.region_count}, genus={fp.genus()}", payload


def cmd_info(args) -> tuple[int, Callable[[], str], dict]:
    fp = load_valid(args.file)
    payload = {
        "n": fp.n,
        "c": fp.region_count,
        "genus": fp.genus(),
        "minimal": fp.is_minimal(),
        "regions": [list(r) for r in fp.regions],
        "vertices": [list(v) for v in fp.vertices],
        "green_vertices": [list(v) for v in fp.green_vertices],
        "green_normalized": fp.green_normalized(),
    }
    ztype = fp.z_type() if fp.is_z_piece() else None
    if ztype is not None:
        payload["z_piece"] = {"k": fp.genus(), "type": list(ztype.quad)}

    def text() -> str:
        lines = [
            f"n={fp.n} c={fp.region_count} genus={fp.genus()} minimal={fp.is_minimal()}",
            "regions: " + " ".join("(" + ",".join(map(str, r)) + ")" for r in fp.regions),
            "vertices: " + _vertices_text(fp.vertices),
            "green vertices: " + (_vertices_text(fp.green_vertices) or "none"),
        ]
        if ztype is not None:
            lines.append(
                f"piece: genus {fp.genus()}, type ({','.join(map(str, ztype.quad))}),"
                f" green-normalized={fp.green_normalized()}"
            )
        return "\n".join(lines)

    return 0, text, payload


def cmd_assemble(args) -> tuple[int, Callable[[], str], dict]:
    host = load_valid(args.host)
    piece = load_valid(args.piece)
    try:
        if args.j is None:
            site = attachment_site(host, args.i)
        else:
            site = AttachmentSite(args.i, args.j)
        result = assemble(host, piece, site)
    except SurgeryError as exc:
        raise CLIInputError(str(exc)) from exc
    if args.out:
        write_filling_file(args.out, result)
    payload = {"n": result.n, "genus": result.genus(), **_sigma_record(result)}
    return 0, lambda: f"n={result.n}\n{result.sigma.cycle_string()}", payload


def cmd_decompose(args) -> tuple[int, Callable[[], str], dict]:
    fp = load_valid(args.file)
    if not fp.is_minimal():
        raise CLIInputError("decomposition search requires a minimal filling permutation")
    try:
        decs = find_decompositions(fp, k=args.k)
    except SurgeryError as exc:
        raise CLIInputError(str(exc)) from exc
    payload = {"decompositions": [d.to_record() for d in decs]}
    if not decs:
        return 1, lambda: "NO-DECOMPOSITION", payload
    return 0, lambda: "\n".join(map(_dec_text, decs)), payload


def cmd_extract(args) -> tuple[int, Callable[[], str], dict]:
    fp = load_valid(args.file)
    if not fp.is_minimal():
        raise CLIInputError("extraction requires a minimal filling permutation")
    try:
        dec = decomposition_at(fp, args.x, args.a, args.y, args.b, args.k)
    except SurgeryError as exc:
        raise CLIInputError(str(exc)) from exc
    if dec is None:
        return 1, lambda: "NOT-A-DECOMPOSITION", {"valid": False}
    cut_cycles, remainder_cycle = extract(fp, dec)
    piece, remainder = _pull_back(fp, dec, cut_cycles, remainder_cycle)
    payload = {
        "valid": True,
        "type": list(dec.type),
        "cut_cycles": [
            [{"symbol": s, "decorated": d} for s, d in cyc] for cyc in cut_cycles
        ],
        "remainder_cycle": list(remainder_cycle),
        "piece": {"n": piece.n, **_sigma_record(piece)},
        "remainder": {"n": remainder.n, **_sigma_record(remainder)},
    }

    def text() -> str:
        return "\n".join([
            f"type=({','.join(map(str, dec.type))})",
            "cut cycles: " + _cycles_text(cut_cycles),
            "remainder cycle: (" + ",".join(map(str, remainder_cycle)) + ")",
            f"piece: n={piece.n}\n{piece.sigma.cycle_string()}",
            f"remainder: n={remainder.n}\n{remainder.sigma.cycle_string()}",
        ])

    return 0, text, payload


def cmd_roundtrip(args) -> tuple[int, Callable[[], str], dict]:
    fp = load_valid(args.file)
    if not fp.is_minimal():
        raise CLIInputError("round trips require a minimal filling permutation")
    try:
        decs = find_decompositions(fp, k=args.k)
    except SurgeryError as exc:
        raise CLIInputError(str(exc)) from exc
    if not decs:
        return 1, lambda: "NO-DECOMPOSITION", {"roundtrips": []}
    reports = [round_trip_check(fp, dec) for dec in decs]
    results = [
        {**dec.to_record(), "p": report.p, "q": report.q, "exact": report.exact}
        for dec, report in zip(decs, reports)
    ]
    return 0, lambda: "\n".join(map(_roundtrip_text, decs, reports)), {"roundtrips": results}


def cmd_equivalent(args) -> tuple[int, Callable[[], str], dict]:
    fp1 = load_valid(args.file1)
    fp2 = load_valid(args.file2)
    if fp1.n != fp2.n:
        raise CLIInputError(f"crossing counts differ: {fp1.n} vs {fp2.n}")
    try:
        witness = are_equivalent(fp1, fp2)
    except BoundExceeded as exc:
        raise CLIInputError(str(exc)) from exc
    if witness is None:
        code, payload = 1, {"equivalent": False}
    else:
        code, payload = 0, {"equivalent": True, "witness": witness.to_record()}
    caveat = None
    if not (fp1.is_minimal() and fp2.is_minimal()):
        caveat = (
            "note: inputs are not minimal; a witness certifies relabeling"
            " equivalence (sufficient, not necessary)"
        )
        payload["caveat"] = caveat

    def text() -> str:
        answer = "NOT-EQUIVALENT" if witness is None else witness.cycle_string()
        return answer if caveat is None else answer + "\n" + caveat

    return code, text, payload


def cmd_census(args) -> tuple[int, Callable[[], str], dict]:
    # the run-length bound, checked after the byte bound: 7, 5 or FILLPERM_MAX_N
    env_max = os.environ.get("FILLPERM_MAX_N")
    max_n = 7 if args.single_cycle else 5
    if env_max is not None:
        try:
            max_n = int(env_max)
        except ValueError:
            raise CLIInputError(f"FILLPERM_MAX_N must be an integer, got {env_max!r}") from None
    try:
        _check_n(args.n)
    except BoundExceeded as exc:
        raise CLIInputError(str(exc)) from exc
    if args.n > max_n:
        raise CLIInputError(f"n={args.n} exceeds the configured bound {max_n}")
    total, records = census_records(args.n, args.single_cycle)
    if args.out:
        with _file_errors(args.out):
            write_census(records, args.out)

    def text() -> str:
        if args.out:
            return f"n={args.n} solutions={total} orbits={len(records)} -> {args.out}"
        return "\n".join(r.to_line() for r in records) or f"n={args.n} solutions=0 orbits=0"

    genus = (args.n + 1) // 2
    payload = {"n": args.n, "solutions": total, "orbits": len(records)}
    if args.format == "record":
        payload["records"] = [r.to_record() for r in records]
    # the ceiling counts minimal pairs, which only odd n = 2g - 1 has
    if args.single_cycle and args.n % 2 and genus > 2:
        payload["upper_bound"] = upper_bound(genus)
    return 0, text, payload


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing keeps no state in it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "record"), default="text",
        help="output rendering (default: text)",
    )
    parser = argparse.ArgumentParser(
        prog="fillperm",
        description="Filling pairs on closed surfaces as permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check the filling conditions")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", parents=[common], help="genus, regions, vertices, piece type")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("assemble", parents=[common], help="connected sum host # piece")
    p.add_argument("--host", required=True)
    p.add_argument("--piece", required=True)
    p.add_argument("--i", type=int, required=True, help="positive odd edge at the host crossing")
    p.add_argument("--j", type=int, default=None, help="positive even edge (inferred if omitted)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("decompose", parents=[common], help="find connected-sum splittings")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None, help="restrict to one piece genus")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("extract", parents=[common], help="cut out a piece at given anchors")
    p.add_argument("file")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("roundtrip", parents=[common], help="disassemble, rebuild, report conjugacy")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("equivalent", parents=[common], help="orbit equivalence of two pairs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_equivalent)

    p = sub.add_parser("census", parents=[common], help="enumerate and count orbits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--single-cycle", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text, payload = args.func(args)
        output = json.dumps(payload, separators=(",", ":")) if args.format == "record" else text()
    except CLIInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # input checks raise CLIInputError, so anything else is a fault of the
        # program; exit 1 would read as a negative answer
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    try:
        print(output, flush=True)
    except OSError as exc:
        # a closed pipe or a full disk is an unwritable output, as for --out;
        # devnull takes what the interpreter's last flush would write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: stdout: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
