"""Command-line entry point.

Subcommands: `replay` runs recorded traces through the pipeline, `synth`
generates and replays a synthetic session, `tables` prints the scent
vocabulary and the state-to-output mapping, `validate` checks a config
file. Exit codes: 0 success, 2 input error, 4 internal error, 3 config
or validation error. `SCENTCTL_CONFIG` supplies the config path when
`--config` is not given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .config import Config, ConfigError, load_config
from .estimator import InteractionState
from .ingest import (
    InsufficientDataError,
    Series,
    StreamFormatError,
    parse_context_stream,
    parse_hr_stream,
    parse_rr_stream,
    write_context_csv,
    write_series_csv,
)
from .scents import expression_for
from .simulate import (
    BlockKind,
    Episode,
    EpisodeKind,
    ScriptError,
    SessionBlock,
    SessionPlan,
    default_plan,
    generate_session,
    replay,
    summarize,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4

CONFIG_ENV_VAR = "SCENTCTL_CONFIG"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scentctl",
        description="Biosignal-driven scent release engine")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_replay = sub.add_parser("replay", help="replay recorded traces")
    p_replay.add_argument("--rr", required=True, help="RR interval CSV")
    p_replay.add_argument("--hr", help="heart rate CSV (optional)")
    p_replay.add_argument("--context", help="context flags CSV (optional)")
    p_replay.add_argument("--config", help="configuration file")
    p_replay.add_argument("--seed", type=int, help="override the config seed")
    p_replay.add_argument("--out", required=True, help="output directory")
    p_replay.set_defaults(handler=cmd_replay)

    p_synth = sub.add_parser("synth", help="generate and replay a session")
    p_synth.add_argument("--config", help="configuration file")
    p_synth.add_argument("--seed", type=int, help="override the config seed")
    p_synth.add_argument("--duration-min", type=float, default=120.0,
                         help="target session length for the default plan")
    p_synth.add_argument("--blocks",
                         help="explicit plan, e.g. work:40,break:7,work:35")
    p_synth.add_argument("--script",
                         help="episode CSV: start_min,duration_min,kind,magnitude")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(handler=cmd_synth)

    p_tables = sub.add_parser(
        "tables", help="print the scent vocabulary and state mapping")
    p_tables.set_defaults(handler=cmd_tables)

    p_validate = sub.add_parser("validate", help="validate a config file")
    p_validate.add_argument("--config", help="configuration file")
    p_validate.set_defaults(handler=cmd_validate)

    return parser


def _config_path(args: argparse.Namespace) -> str | None:
    return args.config or os.environ.get(CONFIG_ENV_VAR) or None


def _load(args: argparse.Namespace) -> Config:
    config = load_config(_config_path(args))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8-sig")


def _write_outputs(out_dir: Path, records: Iterable[dict], config: Config) -> dict:
    """Write each record as it arrives and audit the same stream with
    `summarize`; write the summary and return it."""
    def written(handle: TextIO) -> Iterator[dict]:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
            yield record

    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "events.ndjson").open("w", encoding="utf-8") as handle:
        summary = summarize(written(handle), config)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return summary


def _parse_blocks(text: str) -> SessionPlan:
    blocks = []
    for part in text.split(","):
        part = part.strip()
        try:
            kind, minutes = part.split(":")
            blocks.append(SessionBlock(BlockKind(kind.strip().lower()),
                                       float(minutes)))
        except (ValueError, KeyError):
            raise ScriptError(
                f"bad plan block {part!r} (expected kind:minutes)") from None
    return SessionPlan(tuple(blocks))


def _parse_script(text: str) -> tuple[Episode, ...]:
    episodes = []
    first = True
    # Lines end at "\n" alone, as in the sample streams; a "\r" before
    # it is stripped with the other whitespace.
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if first:
            first = False
            try:
                float(fields[0])
            except ValueError:
                continue  # header line: only the first may be one
        if len(fields) != 4:
            raise ScriptError(f"script line {line_no}: expected 4 fields")
        try:
            episodes.append(Episode(
                start_min=float(fields[0]),
                duration_min=float(fields[1]),
                kind=EpisodeKind(fields[2].lower()),
                magnitude=float(fields[3]),
            ))
        except ValueError as exc:
            raise ScriptError(f"script line {line_no}: {exc}") from None
    return tuple(episodes)


def cmd_replay(args: argparse.Namespace) -> int:
    config = _load(args)
    def parsed(parse, path):
        try:
            return parse(_read_text(path))
        except StreamFormatError as exc:  # name the file; keep `line`
            exc.args = (f"{path}: {exc}",)
            raise

    # No local keeps the parsed streams: CPython 3.11 and later move call
    # arguments into the callee's frame, so `replay` holds the only
    # reference and frees each raw column once it has the filtered copy.
    records = replay(
        parsed(parse_rr_stream, args.rr),
        parsed(parse_hr_stream, args.hr) if args.hr else Series((), ()),
        parsed(parse_context_stream, args.context) if args.context else [],
        config)
    out_dir = Path(args.out)
    summary = _write_outputs(out_dir, records, config)
    print(f"wrote {out_dir / 'events.ndjson'} and {out_dir / 'summary.json'} "
          f"({summary['releases']} releases, {summary['violations']} violations)")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    config = _load(args)
    if args.blocks:
        plan = _parse_blocks(args.blocks)
    else:
        import random
        plan = default_plan(random.Random(config.seed), args.duration_min)
    if plan.total_minutes < config.ingest.calibration_minutes:
        raise ScriptError(
            f"plan of {plan.total_minutes:g} min is shorter than the "
            f"{config.ingest.calibration_minutes:g}-minute baseline calibration")
    script = _parse_script(_read_text(args.script)) if args.script else ()

    rr, hr, context = generate_session(config.seed, plan, script, config.simulator)
    records = replay(rr, hr, context, config)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "rr.csv").open("w", encoding="utf-8") as out:
        write_series_csv(out, rr, "rr_ms")
    with (out_dir / "hr.csv").open("w", encoding="utf-8") as out:
        write_series_csv(out, hr, "hr_bpm")
    with (out_dir / "context.csv").open("w", encoding="utf-8") as out:
        write_context_csv(out, context)
    summary = _write_outputs(out_dir, records, config)
    work = sum(b.minutes for b in plan.blocks if b.kind is BlockKind.WORK)
    print(f"plan: {len(plan.blocks)} blocks, {plan.total_minutes:g} min "
          f"(work {work:g}, break {plan.total_minutes - work:g})")
    print(f"wrote traces, events, and summary to {out_dir} "
          f"({summary['releases']} releases, {summary['violations']} violations)")
    return EXIT_OK


def cmd_tables(args: argparse.Namespace) -> int:
    from .scents import vocabulary

    print("Scent vocabulary")
    header = f"{'#':>2}  {'Scent':<20} {'Family':<18} {'Role':<26} Scene metaphor"
    print(header)
    print("-" * len(header))
    for scent in vocabulary():
        print(f"{scent.channel:>2}  {scent.name:<20} {scent.family:<18} "
              f"{scent.primary_role:<26} {scent.scene_metaphor}")
    print()
    print("State to output mapping")
    header = (f"{'State':<28} {'Profile':<10} {'Members':<36} "
              f"{'Intensity':<12} Rhythm")
    print(header)
    print("-" * len(header))
    for state in InteractionState:
        expr = expression_for(state)
        if expr is None:
            print(f"{state.value:<28} (no output)")
            continue
        members = ", ".join(expr.members)
        print(f"{state.value:<28} {expr.profile.value:<10} {members:<36} "
              f"{expr.intensity.value:<12} {expr.rhythm.value}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    path = _config_path(args)
    load_config(path)
    print(f"configuration OK ({path or 'built-in defaults'})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return EXIT_OK
    try:
        return args.handler(args)
    except (StreamFormatError, InsufficientDataError, OSError,
            UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigError, ScriptError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive guard
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
