"""Command-line frontend: generate, validate, gap, fetch.

Exit codes: 0 success, 1 validation or domain failure, 2 usage error,
3 I/O or network failure. Diagnostics go to stderr; the only machine-readable
line on stdout is the gap summary.
"""

import argparse
import functools
import io
import math
import os
import stat
import sys
from pathlib import Path
from threading import TIMEOUT_MAX

from .config import load_config
from .errors import DtGenError, FetchError
from .geodesy import origin_of
from .osm import OVERPASS_TIMEOUT_S, fetch_overpass
from .pipeline import GenerationResult, generate_world
from .replay import (
    VehicleState,
    compute_gap,
    derive_headings,  # noqa: F401 - benchmarks/dtbench/tracing.py wraps cli.derive_headings
    parse_controls_csv,
    parse_trajectory_csv,
    shadow_follow,
    simulate_controls,
)
from .sdf import ValidationIssue, validate_sdf

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3

ENDPOINT_ENV_VAR = "DTGEN_OVERPASS_ENDPOINT"


def _seconds(text: str) -> float:
    """A finite positive number of seconds up to ``threading.TIMEOUT_MAX``,
    the most a socket timeout holds; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value <= TIMEOUT_MAX:  # NaN fails both
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number of seconds up to {TIMEOUT_MAX:.0f}, got {text!r}"
        )
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: it holds no state of its own between parses, and the
    ``--endpoint`` default is read from the environment when a command runs
    (see :func:`_endpoint`)."""
    parser = argparse.ArgumentParser(
        prog="dtgen",
        description=(
            "Generate low-fidelity SDFormat digital-twin worlds from "
            "OpenStreetMap data and compare recorded vehicle traces against "
            "an internal kinematic model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # parent parsers: each option that several commands share is declared once
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="generation config JSON")
    overpass = argparse.ArgumentParser(add_help=False)
    overpass.add_argument(
        "--endpoint", help=f"Overpass interpreter URL (default: ${ENDPOINT_ENV_VAR})"
    )
    overpass.add_argument(
        "--timeout", type=_seconds, default=OVERPASS_TIMEOUT_S, help="network timeout, seconds"
    )

    gen = sub.add_parser(
        "generate", parents=[config, overpass], help="build an SDF world from a map and a config"
    )
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--osm", help="OSM XML file to read")
    source.add_argument("--fetch", action="store_true", help="download the map extract")
    gen.add_argument("--out", required=True, help="SDF output path")

    val = sub.add_parser("validate", help="check an SDF file for structural violations")
    val.add_argument("path", help="SDF file to check")

    gap = sub.add_parser(
        "gap", parents=[config], help="compare a recorded trace against a simulation"
    )
    gap.add_argument("--recorded", required=True, help="recorded trajectory CSV")
    source = gap.add_mutually_exclusive_group(required=True)
    source.add_argument("--controls", help="control CSV to replay through the vehicle model")
    source.add_argument("--sim", help="pre-simulated trajectory CSV")
    gap.add_argument("--vehicle", help="vehicle name from the config (with --controls)")
    gap.add_argument("--out", required=True, help="gap report JSON output path")

    fetch = sub.add_parser(
        "fetch", parents=[config, overpass], help="download the map extract for the config bbox"
    )
    fetch.add_argument("--out", required=True, help="OSM XML output path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    handlers = {
        "generate": _cmd_generate,
        "validate": _cmd_validate,
        "gap": _cmd_gap,
        "fetch": _cmd_fetch,
    }
    try:
        return handlers[args.command](args)
    except FetchError as exc:
        _error(str(exc))
        return EXIT_IO
    except (DtGenError, ValueError) as exc:
        # config, map, or emission defects: domain failures
        _error(str(exc))
        return EXIT_FAILURE
    except OSError as exc:
        _error(str(exc))
        return EXIT_IO


def main_entry() -> None:
    raise SystemExit(main())


def _error(message: str) -> None:
    print(f"dtgen: error: {message}", file=sys.stderr)


def _endpoint(args) -> str | None:
    """``--endpoint`` as given, else ``$DTGEN_OVERPASS_ENDPOINT`` as it is
    when the command runs."""
    return os.environ.get(ENDPOINT_ENV_VAR) if args.endpoint is None else args.endpoint


def _read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``, without a leading byte order
    mark. A byte that is not UTF-8 is a ``ValueError`` that names the file
    and the line the byte is on."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, 1 + exc.object.count(b"\n", 0, exc.start), exc) from exc


def _text_lines(path: str, binary):
    """The lines of the UTF-8 file at ``path``, open in binary mode as
    ``binary``, decoded one at a time, as ``_read_text`` reads them: the
    leading byte order mark skipped, and a ``\\r\\n`` or lone ``\\r`` ending
    a line as ``\\n`` does. UTF-8 never puts the byte 0x0a inside a
    character, so each line decodes alone, and a byte that is not UTF-8 is
    a ``ValueError`` that names the file and the line it is on."""
    for line_no, raw in enumerate(binary, 1):
        try:
            line = raw.decode("utf-8-sig" if line_no == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, line_no, exc) from exc
        if "\r" in line:
            yield from io.StringIO(line, newline=None)  # universal newlines
        else:
            yield line


def _not_utf8(path: str, line: int, exc: UnicodeDecodeError) -> ValueError:
    byte = exc.object[exc.start]
    return ValueError(f"{path}, line {line}: not UTF-8 ({exc.reason}, byte 0x{byte:02x})")


def _cmd_generate(args) -> int:
    config = load_config(_read_text(args.config))
    if args.fetch:
        endpoint = _endpoint(args)
        if not endpoint:
            _error(f"--fetch requires --endpoint or ${ENDPOINT_ENV_VAR}")
            return EXIT_USAGE
        # parsed from the response's own bytes, which BytesIO shares
        osm = io.BytesIO(fetch_overpass(config.bbox, endpoint, args.timeout))
        result = generate_world(config, osm)
    else:
        # read in slices by the parser, and closed before the world is written
        with open(args.osm, "rb") as osm:
            result = generate_world(config, osm)

    violations = _write_world_file(Path(args.out), result)
    if violations:
        for violation in violations:
            print(f"{violation.location}: {violation.message}", file=sys.stderr)
        return EXIT_FAILURE

    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"warnings: {len(result.warnings)}", file=sys.stderr)
    print(
        f"models: {len(result.buildings)} buildings, "
        f"{len(result.roads)} roads, "
        f"{len(config.vehicles)} vehicles",
        file=sys.stderr,
    )
    return EXIT_OK


def _write_world_file(path: Path, result: GenerationResult) -> tuple[ValidationIssue, ...]:
    """Write the world to ``path`` through a temporary file beside it, and
    return the violations that kept it from being written.

    ``path`` must be missing, a regular file or a symlink: replacing
    anything else, such as ``/dev/null`` or a FIFO, would put a regular
    file in its place, so it is refused with an ``OSError`` before any
    file is made. The temporary file, ``.dtgen.RANDOM.tmp`` whatever
    ``path`` is named, is created as ``open(path, "w")`` would create it,
    mode 0o666 less the umask. On success it replaces ``path`` in one
    ``os.replace``; on a writer fault it is read back to locate each
    violation and then removed, as it is on any error, so a failed run
    leaves ``path`` as it was.
    """
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        pass
    else:
        if not (stat.S_ISREG(mode) or stat.S_ISLNK(mode)):
            raise OSError(
                f"{path}: not a regular file or a symlink; --out is replaced by a new file"
            )
    temporary = path.with_name(f".dtgen.{os.urandom(6).hex()}.tmp")
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as sink:
            faults = result.write(sink)
        if faults:
            return validate_sdf(temporary.read_text(encoding="utf-8")).violations
        os.replace(temporary, path)
        return ()
    finally:
        temporary.unlink(missing_ok=True)


def _cmd_validate(args) -> int:
    report = validate_sdf(_read_text(args.path))
    for violation in report.violations:
        print(f"{violation.location}: {violation.message}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_FAILURE


def _cmd_gap(args) -> int:
    config = load_config(_read_text(args.config))
    origin = origin_of(config.bbox)
    if args.controls:
        if not args.vehicle:
            _error("--controls requires --vehicle")
            return EXIT_USAGE
        spec = next((v for v in config.vehicles if v.name == args.vehicle), None)
        if spec is None:
            _error(f"unknown vehicle name {args.vehicle!r}")
            return EXIT_USAGE
    elif args.vehicle is not None:
        _error("--vehicle requires --controls")
        return EXIT_USAGE
    # each CSV is read a line at a time as it is parsed
    with open(args.recorded, "rb") as binary:
        recorded = parse_trajectory_csv(_text_lines(args.recorded, binary), origin=origin)

    if args.controls:
        with open(args.controls, "rb") as binary:
            controls = parse_controls_csv(_text_lines(args.controls, binary))
        # the replay needs the recorded pose at its first control
        first = controls[0].t
        if first < recorded.t_first:
            raise ValueError(
                f"control log starts at t={first}, before the recorded trajectory "
                f"starts at t={recorded.t_first}"
            )
        if first > recorded.t_last:
            raise ValueError(
                f"control log starts at t={first}, after the recorded trajectory "
                f"ends at t={recorded.t_last}"
            )
        start = shadow_follow(recorded, [first])
        initial = VehicleState(start.x[0], start.y[0], start.yaw[0], 0.0)
        sim = simulate_controls(initial, controls, spec, t_end=recorded.t_last)
        del controls  # the simulated poses are all the comparison needs
        for warning in sim.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    else:
        with open(args.sim, "rb") as binary:
            sim = parse_trajectory_csv(_text_lines(args.sim, binary), origin=origin)

    report = compute_gap(recorded, sim)
    del recorded, sim  # not needed while the report is formatted
    Path(args.out).write_text(report.to_json(), encoding="utf-8")
    print(
        f"rmse={report.rmse:.6f} max={report.max_dev:.6f} "
        f"final_drift={report.final_drift:.6f}"
    )
    return EXIT_OK


def _cmd_fetch(args) -> int:
    config = load_config(_read_text(args.config))
    endpoint = _endpoint(args)
    if not endpoint:
        _error(f"fetch requires --endpoint or ${ENDPOINT_ENV_VAR}")
        return EXIT_USAGE
    Path(args.out).write_bytes(fetch_overpass(config.bbox, endpoint, args.timeout))
    return EXIT_OK
