"""Command-line entry point.

Subcommands: validate, simulate, hitting, analyze, renewal, lemma, oracle.
All randomness flows from --seed; nothing is read from the environment, so
rerunning a command with the same arguments reproduces every output byte
(timestamps live in .meta.json sidecars, never in result files).  Exit
codes: 0 success/PASS, 1 usage or precondition failure, 2 I/O failure,
3 statistical FAIL.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import engine, renewal, streams, walks
from .analysis import analyze_protocol, ray_domain
from .errors import BudgetExceededError, PreconditionError
from .protocol import (ProtocolError, ScoutProtocol, builtin, parse_protocol,
                       protocol_hash, validate)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FAIL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option starts with -<digit>, so such an argument is always a
        # value, also where it is not a plain number: --targets -2,1 or '-1;2',
        # --interval -2:2
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):  # argparse default exits 2; the contract says 1
        raise UsageError(message)


def _load_protocol(src: str) -> ScoutProtocol:
    if src.startswith("builtin:"):
        spec = src[len("builtin:"):]
        name, _, argstr = spec.partition("?")
        params = {}
        if argstr:
            for kv in argstr.split(","):
                k, _, v = kv.partition("=")
                if not v:
                    raise UsageError(f"bad builtin parameter {kv!r}")
                params[k] = v
        return builtin(name, params)
    path = Path(src)
    return parse_protocol(path.read_text(encoding="utf-8"))


_INT64 = 1 << 63


def _parse_targets(text: str, dim: int) -> list[tuple[int, ...]]:
    targets = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            coords = tuple(int(v) for v in chunk.split(","))
        except ValueError:
            raise UsageError(f"target {chunk!r} is not a list of integers") from None
        if any(not -_INT64 <= v < _INT64 for v in coords):
            raise UsageError(f"target {chunk!r} has a coordinate outside int64")
        if len(coords) != dim:
            raise UsageError(f"target {chunk!r} has {len(coords)} coordinates, needs {dim}")
        targets.append(coords)
    if not targets:
        raise UsageError("no targets given")
    return targets


# (flag, least value, bound above or None), checked on every subcommand
# that has the flag, so edge values fail as usage errors, not tracebacks
_RANGES = (
    ("horizon", 0, None),
    ("cap", 1, None),
    ("replicas", 1, None),
    ("trials", 1, None),
    ("replica", 0, streams.COUNTER_LIMIT),
    ("seed", 0, streams.SEED_LIMIT),
    ("k_min", 1, None),
    ("n", 0, None),
    ("threads", 1, None),
)


def _check_ranges(args) -> None:
    for name, least, above in _RANGES:
        value = getattr(args, name, None)
        if value is None:
            continue
        if value < least or (above is not None and value >= above):
            bound = f">= {least}" if above is None else f"in [{least}, {above})"
            raise UsageError(f"--{name.replace('_', '-')} must be {bound}, got {value}")
    k_min, k_max = getattr(args, "k_min", None), getattr(args, "k_max", None)
    if k_max is not None and k_max < k_min:
        raise UsageError(f"--k-max must be >= --k-min ({k_min}), got {k_max}")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_output(out_dir: str | None, name: str, payload: str, argv: list[str]) -> None:
    if out_dir is None:
        return
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    (d / name).write_text(payload, encoding="utf-8")
    meta = {"created": datetime.now(timezone.utc).isoformat(), "command": argv}
    (d / (name + ".meta.json")).write_text(_dump_json(meta), encoding="utf-8")


def _curve_csv(curve) -> str:
    lines = ["u,survivors,total"]
    for u, s, t in curve.csv_rows():
        lines.append(f"{u},{s},{t}")
    return "\n".join(lines) + "\n"


def _target_slug(target) -> str:
    return "_".join(str(v).replace("-", "m") for v in target)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args, argv) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        p = parse_protocol(text)
    except ProtocolError as exc:
        print(f"invalid: {exc}")
        return EXIT_USAGE
    report = validate(p)
    if report:
        for v in report:
            print(f"violation: {v.message}")
        return EXIT_USAGE
    print(f"ok: {protocol_hash(p)}")
    return EXIT_OK


def cmd_simulate(args, argv) -> int:
    p = _load_protocol(args.protocol)
    trace = engine.run(p, args.horizon, engine.SeedSpec(args.seed, args.replica))
    if args.format == "json":
        body = {
            "protocol_hash": protocol_hash(p),
            "seed": args.seed,
            "replica": args.replica,
            "configurations": [
                {"time": n,
                 "positions": [list(map(int, q)) for q in trace.positions[n]],
                 "states": [p.state_names[j] for j in trace.state_idx[n]]}
                for n in range(trace.horizon + 1)
            ],
        }
        payload = _dump_json(body)
        name = "trace.json"
    else:
        lines = ["time,scout," + ",".join("xy"[:p.dim][k] for k in range(p.dim)) + ",state"]
        for n in range(trace.horizon + 1):
            for i in range(p.scouts):
                coords = ",".join(str(int(v)) for v in trace.positions[n, i])
                lines.append(f"{n},{i+1},{coords},{p.state_names[trace.state_idx[n, i]]}")
        payload = "\n".join(lines) + "\n"
        name = "trace.csv"
    _write_output(args.out_dir, name, payload, argv)
    if args.out_dir is None:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_hitting(args, argv) -> int:
    p = _load_protocol(args.protocol)
    targets = _parse_targets(args.targets, p.dim)
    summaries = engine.monte_carlo_hitting_multi(
        p, targets, args.replicas, args.cap, args.seed, threads=args.threads)
    out = []
    for s in summaries:
        verdict = renewal.divergence_report(s.summary)
        body = s.to_json()
        body["divergence"] = verdict
        out.append(body)
        slug = _target_slug(s.target)
        _write_output(args.out_dir, f"survival_{slug}.csv", _curve_csv(s.curve), argv)
        _write_output(args.out_dir, f"summary_{slug}.json", _dump_json(body), argv)
    sys.stdout.write(_dump_json(out))
    return EXIT_OK


def cmd_analyze(args, argv) -> int:
    if args.ray_width is not None and not (math.isfinite(args.ray_width) and args.ray_width > 0):
        raise UsageError(f"--ray-width must be finite and > 0, got {args.ray_width}")
    p = _load_protocol(args.protocol)
    if not 1 <= args.scout <= p.scouts:
        raise UsageError(f"--scout must be in [1, {p.scouts}], got {args.scout}")
    report = analyze_protocol(p, scout=args.scout)
    body = report.to_json()
    body["protocol_hash"] = protocol_hash(p)
    if p.dim == 2:
        dom = ray_domain(report, M=args.ray_width, root_seed=args.seed)
        body["ray_domain"] = dom.to_json()
    payload = _dump_json(body)
    _write_output(args.out_dir, "analysis.json", payload, argv)
    sys.stdout.write(payload)
    return EXIT_OK


def cmd_renewal(args, argv) -> int:
    p = _load_protocol(args.protocol)
    if p.scouts != 2:
        raise PreconditionError(f"renewal needs a two-scout protocol, not {p.scouts} scouts")
    trace = engine.run(p, args.horizon, engine.SeedSpec(args.seed, args.replica))
    mr = renewal.extract_renewal(trace)
    lines = ["k,Y,A,R"]
    for k, y, a, r in mr.csv_rows():
        lines.append(f"{k},\"{y}\",{a},{r}")
    payload = "\n".join(lines) + "\n"
    _write_output(args.out_dir, "renewal.csv", payload, argv)
    if args.out_dir is None:
        sys.stdout.write(payload)
    if args.tail:
        res = renewal.meeting_tail(p, k_range=(args.k_min, args.k_max),
                                   trials=args.trials, cap=args.cap,
                                   root_seed=args.seed)
        tail_payload = _dump_json(res.to_json())
        _write_output(args.out_dir, "meeting_tail.json", tail_payload, argv)
        sys.stdout.write(tail_payload)
    return EXIT_OK


def _parse_law(text: str, flag: str) -> walks.StepLaw:
    try:
        return walks.parse_law(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _build_walks(args) -> tuple[walks.LookAroundWalk, walks.LookAroundWalk | None]:
    w1 = walks.LookAroundWalk(_parse_law(args.law, "--law"), args.s0)
    w2 = None
    if args.law2:
        w2 = walks.LookAroundWalk(_parse_law(args.law2, "--law2"), args.s02)
    return w1, w2


def _finite(text: str) -> float | int:
    """A finite ``float(text)``, or an exact int inside int64 where that float
    would round an integer (9007199254740993 keeps its last digit)."""
    try:
        value, exact = float(text), Fraction(text)
    except ValueError:  # Fraction refuses inf and nan
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    if exact == value or exact.denominator != 1:
        return value
    if not -_INT64 <= exact < _INT64:
        raise argparse.ArgumentTypeError(f"an integer must fit int64, got {text!r}")
    return int(exact)


def _parse_interval(text: str) -> tuple[float | int, float | int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise UsageError(f"--interval must be LO:HI, got {text!r}")
    try:
        return _finite(lo), _finite(hi)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"--interval {text!r}: {exc}") from None


def cmd_lemma(args, argv) -> int:
    name = args.name
    if name not in walks.CHECKS:
        raise UsageError(f"unknown check {name!r}; choose from {sorted(walks.CHECKS)}")
    w1, w2 = _build_walks(args)
    fn = walks.CHECKS[name]
    if fn is walks.check_escape_under_drift:
        res = fn(w1, args.x, trials=args.trials, horizon=args.horizon,
                 root_seed=args.seed)
    elif fn is walks.check_zero_drift_reach_tail:
        res = fn(w1, args.x, trials=args.trials, cap=args.cap, root_seed=args.seed)
    elif fn is walks.check_exit_time_tail:
        res = fn(w1, args.rho, trials=args.trials, root_seed=args.seed)
    elif fn is walks.check_upper_deviation_bound:
        res = fn(w1, args.mu, args.n, args.y, trials=args.trials,
                 root_seed=args.seed)
    else:
        if w2 is None:
            raise UsageError("this check needs --law2")
        res = fn(w1, w2, _parse_interval(args.interval), trials=args.trials,
                 cap=args.cap, root_seed=args.seed)
    body = res.to_json()
    body["lemma"] = name
    payload = _dump_json(body)
    _write_output(args.out_dir, f"check_{name}.json", payload, argv)
    sys.stdout.write(payload)
    return EXIT_OK if res.passed else EXIT_FAIL


def _integer_start(text: str) -> int:
    """A start the exact oracle accepts: an integer, read as a rational so
    that no digit is rounded off (``2.0`` is 2)."""
    try:
        value = Fraction(text)
        if value.denominator == 1:
            return int(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"the exact oracle needs an integer, got {text!r}")


def cmd_oracle(args, argv) -> int:
    law = _parse_law(args.law, "--law")
    law2 = _parse_law(args.law2, "--law2") if args.law2 else None
    try:
        prob = walks.exact_dp_oracle(law, args.s0, args.horizon, args.event,
                                     law2=law2, s02=args.s02)
    except ValueError as exc:  # the event spec; checked before any work
        raise UsageError(f"--event: {exc}") from None
    body = {"event": args.event, "horizon": args.horizon, "s0": args.s0,
            "probability": str(prob), "probability_float": float(prob)}
    payload = _dump_json(body)
    _write_output(args.out_dir, "oracle.json", payload, argv)
    sys.stdout.write(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sp, seed=True):
    """--out-dir and --config on every subcommand, --seed where it is read."""
    if seed:
        sp.add_argument("--seed", type=int, default=0, help="root seed (all randomness)")
    sp.add_argument("--out-dir", default=None)
    sp.add_argument("--config", default=None,
                    help="flat key=value file supplying defaults")


def build_parser() -> _Parser:
    parser = _Parser(prog="scoutsim",
                     description="Scout-protocol simulation and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a protocol file")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("simulate", help="run one seeded trace")
    sp.add_argument("--protocol", required=True)
    sp.add_argument("--horizon", type=int, default=1000)
    sp.add_argument("--replica", type=int, default=0)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("hitting", help="Monte-Carlo hitting times")
    sp.add_argument("--protocol", required=True)
    sp.add_argument("--targets", required=True,
                    help="semicolon-separated points, e.g. '1;-2' or '2,1;0,3'")
    sp.add_argument("--replicas", type=int, default=1000)
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--threads", type=int, default=1,
                    help="threads over whole chunks of 8192 replicas, so none start "
                         "for 8192 replicas or fewer; no output byte changes")
    _add_common(sp)
    sp.set_defaults(fn=cmd_hitting)

    sp = sub.add_parser("analyze", help="exact class/drift/degeneracy report")
    sp.add_argument("--protocol", required=True)
    sp.add_argument("--scout", type=int, default=1)
    sp.add_argument("--ray-width", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("renewal", help="meeting renewal extraction and gap tail")
    sp.add_argument("--protocol", required=True)
    sp.add_argument("--horizon", type=int, default=4096)
    sp.add_argument("--replica", type=int, default=0)
    sp.add_argument("--tail", action="store_true")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--k-min", type=int, default=1)
    sp.add_argument("--k-max", type=int, default=64)
    sp.add_argument("--cap", type=int, default=1 << 14)
    _add_common(sp)
    sp.set_defaults(fn=cmd_renewal)

    sp = sub.add_parser("lemma", help="statistical tail-law checks")
    sp.add_argument("name")
    sp.add_argument("--law", default="srw")
    sp.add_argument("--law2", default=None)
    sp.add_argument("--s0", type=_finite, default=0.0)
    sp.add_argument("--s02", type=_finite, default=0.0)
    sp.add_argument("--x", type=_finite, default=10.0)
    sp.add_argument("--rho", type=_finite, default=5.0)
    sp.add_argument("--mu", type=_finite, default=0.2)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--y", type=_finite, default=20.0)
    sp.add_argument("--interval", default="-2:2")
    sp.add_argument("--trials", type=int, default=20000)
    sp.add_argument("--horizon", type=int, default=2048)
    sp.add_argument("--cap", type=int, default=1 << 13)
    _add_common(sp)
    sp.set_defaults(fn=cmd_lemma)

    sp = sub.add_parser("oracle", help="exact event probabilities")
    sp.add_argument("--law", required=True)
    sp.add_argument("--law2", default=None)
    sp.add_argument("--s0", type=_integer_start, default=0)
    sp.add_argument("--s02", type=_integer_start, default=0)
    sp.add_argument("--event", required=True,
                    help="hit:T | lookaround:T | reach:X | exit:R | position:Y | meeting")
    sp.add_argument("--horizon", type=int, required=True)
    _add_common(sp, seed=False)
    sp.set_defaults(fn=cmd_oracle)

    return parser


def _switches(parser: _Parser, command: str) -> set[str]:
    """Option strings of the store_true flags of ``command``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction) and command in action.choices:
            return {opt for a in action.choices[command]._actions
                    if isinstance(a, argparse._StoreTrueAction) for opt in a.option_strings}
    return set()


def _apply_config(argv: list[str], parser: _Parser) -> list[str]:
    """Expand --config FILE into leading --key value pairs (CLI args win).

    A key naming a store_true flag takes 1/true (flag passed) or 0/false
    (flag omitted).
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i == 0:
        raise UsageError("--config must follow the subcommand")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    path = Path(argv[i + 1])
    injected: list[str] = []
    switches = _switches(parser, argv[0])
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        if not value:
            raise UsageError(f"bad config line {raw!r}")
        flag, value = f"--{key.strip().replace('_', '-')}", value.strip()
        if flag not in switches:
            injected.extend([flag, value])
        elif value.lower() in ("1", "true"):
            injected.append(flag)
        elif value.lower() not in ("0", "false"):
            raise UsageError(f"config key {key.strip()!r} is a switch: use 1, true, 0 "
                             f"or false, not {value!r}")
    # insert after the subcommand so subparser options resolve
    head = argv[:1]
    return head + injected + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        expanded = _apply_config(argv, parser)
        args = parser.parse_args(expanded)
        _check_ranges(args)
        return args.fn(args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
