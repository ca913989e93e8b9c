"""Scout protocols on the integer grid: types, file format, validation, builtins.

A protocol fixes the number of scouts c, a shared finite state set, a common
starting point, per-scout initial states, and a probabilistic transition
table.  At every step each scout observes which states are present among the
other scouts sharing its grid point (a set of state names; multiplicity is
invisible), then draws a (new state, move) pair from the matching table row.
Moves are component-wise in {-1, 0, +1} and the grid dimension is 1 or 2.

Rule dispatch is deterministic: a row with an exact-set pattern fires only
when the observed co-located state set equals the pattern exactly; otherwise
the state's wildcard row fires.

File format (UTF-8, line oriented, '#' starts a comment)::

    dim <d>
    scouts <c>
    states <tok> <tok> ...
    origin <int> [<int>]          # optional, defaults to zeros
    init <scout-index> <state>    # one per scout, 1-based index
    trans <state> <pattern> -> <p> <state'> <move> [| <p> <state'> <move> ...]

where ``<pattern>`` is ``*``, ``{}``, or ``{s1,s2}``, ``<move>`` is ``(dx)``
or ``(dx,dy)``, and probabilities are decimal literals or rationals ``a/b``.
Canonical serialization sorts states and, per state, patterns lexicographically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

ROW_SUM_TOLERANCE = 1e-9

Probability = Union[Fraction, float]

_TOKEN_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")
_MOVE_COMPONENTS = (-1, 0, 1)


class ProtocolError(ValueError):
    """Base class for protocol definition problems."""


class ProtocolSyntaxError(ProtocolError):
    """Malformed protocol text; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.code}] {self.message}"


class ProtocolValidationError(ProtocolError):
    """Raised by parse/builtin when a structurally complete protocol is invalid."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


@dataclass(frozen=True)
class EnvPattern:
    """Environment pattern of a rule: wildcard or an exact set of state names."""

    kind: str  # "wildcard" | "exact-set"
    states: tuple[str, ...] = ()

    @staticmethod
    def wildcard() -> "EnvPattern":
        return EnvPattern("wildcard")

    @staticmethod
    def exact(names: Iterable[str]) -> "EnvPattern":
        return EnvPattern("exact-set", tuple(sorted(set(names))))

    @property
    def is_wildcard(self) -> bool:
        return self.kind == "wildcard"

    def render(self) -> str:
        if self.is_wildcard:
            return "*"
        return "{" + ",".join(self.states) + "}"


@dataclass(frozen=True)
class Outcome:
    probability: Probability
    state: str
    move: tuple[int, ...]


@dataclass(frozen=True)
class TransitionRule:
    state: str
    pattern: EnvPattern
    outcomes: tuple[Outcome, ...]


@dataclass(frozen=True)
class ScoutProtocol:
    """The 5-tuple (scout count, states, start point, initial states, kernel)."""

    dim: int
    scouts: int
    state_names: tuple[str, ...]
    initial_position: tuple[int, ...]
    initial_states: tuple[str, ...]
    rules: tuple[TransitionRule, ...]


# ---------------------------------------------------------------------------
# parsing


def parse_probability(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad probability {text!r}") from exc
    return value


def format_probability(p: Probability) -> str:
    if isinstance(p, Fraction):
        return str(p)  # "a/b", or "a" when integral
    return repr(p)


def _parse_move(text: str, dim: int, line: int) -> tuple[int, ...]:
    if not (text.startswith("(") and text.endswith(")")):
        raise ProtocolSyntaxError(f"move {text!r} must be parenthesized", line)
    parts = [p.strip() for p in text[1:-1].split(",")]
    try:
        comps = tuple(int(p) for p in parts)
    except ValueError:
        raise ProtocolSyntaxError(f"move {text!r} has non-integer components", line)
    if len(comps) != dim:
        raise ProtocolSyntaxError(f"move {text!r} has {len(comps)} components, expected {dim}", line)
    for c in comps:
        if c not in _MOVE_COMPONENTS:
            raise ProtocolSyntaxError(f"move component {c} out of {{-1,0,+1}}", line)
    return comps


def _parse_pattern(text: str, line: int) -> EnvPattern:
    if text == "*":
        return EnvPattern.wildcard()
    if text.startswith("{") and text.endswith("}"):
        inner = text[1:-1].strip()
        if not inner:
            return EnvPattern.exact(())
        names = [n.strip() for n in inner.split(",")]
        if any(not n for n in names):
            raise ProtocolSyntaxError(f"empty state name in pattern {text!r}", line)
        if len(set(names)) != len(names):
            raise ProtocolSyntaxError(f"duplicate state in pattern {text!r}", line)
        return EnvPattern.exact(names)
    raise ProtocolSyntaxError(f"bad pattern {text!r} (expected * or {{...}})", line)


def _check_token(tok: str, what: str, line: int) -> str:
    if not _TOKEN_RE.match(tok):
        raise ProtocolSyntaxError(f"bad {what} token {tok!r}", line)
    return tok


def parse_protocol(text: str) -> ScoutProtocol:
    """Parse protocol text, validate it, and return the protocol.

    Raises ProtocolSyntaxError for malformed text and
    ProtocolValidationError when the parsed protocol violates an invariant
    (bad row sum, missing coverage, undeclared state, ...).
    """
    dim: int | None = None
    scouts: int | None = None
    state_names: tuple[str, ...] | None = None
    origin: tuple[int, ...] | None = None
    init_lines: dict[int, str] = {}
    rules: list[TransitionRule] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "dim":
            if dim is not None:
                raise ProtocolSyntaxError("duplicate dim line", lineno)
            if len(fields) != 2 or not fields[1].lstrip("-").isdigit():
                raise ProtocolSyntaxError("dim expects one integer", lineno)
            dim = int(fields[1])
            if dim not in (1, 2):
                raise ProtocolSyntaxError(
                    f"dim {dim} unsupported (this version handles 1 and 2)", lineno)
        elif keyword == "scouts":
            if scouts is not None:
                raise ProtocolSyntaxError("duplicate scouts line", lineno)
            if len(fields) != 2 or not fields[1].isdigit():
                raise ProtocolSyntaxError("scouts expects one positive integer", lineno)
            scouts = int(fields[1])
            if scouts < 1:
                raise ProtocolSyntaxError("scouts must be >= 1", lineno)
        elif keyword == "states":
            if state_names is not None:
                raise ProtocolSyntaxError("duplicate states line", lineno)
            if len(fields) < 2:
                raise ProtocolSyntaxError("states line lists at least one state", lineno)
            names = [_check_token(t, "state", lineno) for t in fields[1:]]
            if len(set(names)) != len(names):
                raise ProtocolSyntaxError("duplicate state names", lineno)
            state_names = tuple(names)
        elif keyword == "origin":
            if origin is not None:
                raise ProtocolSyntaxError("duplicate origin line", lineno)
            try:
                origin = tuple(int(t) for t in fields[1:])
            except ValueError:
                raise ProtocolSyntaxError("origin expects integers", lineno)
        elif keyword == "init":
            if len(fields) != 3 or not fields[1].isdigit():
                raise ProtocolSyntaxError("init expects: init <scout-index> <state>", lineno)
            idx = int(fields[1])
            if idx in init_lines:
                raise ProtocolSyntaxError(f"duplicate init for scout {idx}", lineno)
            init_lines[idx] = _check_token(fields[2], "state", lineno)
        elif keyword == "trans":
            if dim is None:
                raise ProtocolSyntaxError("trans before dim", lineno)
            rules.append(_parse_trans(line, dim, lineno))
        else:
            raise ProtocolSyntaxError(f"unknown keyword {keyword!r}", lineno)

    if dim is None:
        raise ProtocolSyntaxError("missing dim line")
    if scouts is None:
        raise ProtocolSyntaxError("missing scouts line")
    if state_names is None:
        raise ProtocolSyntaxError("missing states line")
    if origin is None:
        origin = (0,) * dim
    missing = [i for i in range(1, scouts + 1) if i not in init_lines]
    if missing:
        raise ProtocolSyntaxError(f"missing init line for scout(s) {missing}")
    extra = [i for i in init_lines if not 1 <= i <= scouts]
    if extra:
        raise ProtocolSyntaxError(f"init for nonexistent scout(s) {extra}")

    protocol = ScoutProtocol(
        dim=dim,
        scouts=scouts,
        state_names=state_names,
        initial_position=origin,
        initial_states=tuple(init_lines[i] for i in range(1, scouts + 1)),
        rules=tuple(rules),
    )
    problems = validate(protocol)
    if problems:
        raise ProtocolValidationError(problems)
    return protocol


def _parse_trans(line: str, dim: int, lineno: int) -> TransitionRule:
    if "->" not in line:
        raise ProtocolSyntaxError("trans line missing '->'", lineno)
    head, _, tail = line.partition("->")
    head_fields = head.split()
    if len(head_fields) != 3:
        raise ProtocolSyntaxError("trans head expects: trans <state> <pattern>", lineno)
    state = _check_token(head_fields[1], "state", lineno)
    pattern = _parse_pattern(head_fields[2], lineno)
    outcomes: list[Outcome] = []
    for chunk in tail.split("|"):
        parts = chunk.split()
        if len(parts) != 3:
            raise ProtocolSyntaxError(
                f"outcome {chunk.strip()!r} expects: <p> <state> <move>", lineno)
        try:
            prob = parse_probability(parts[0])
        except ValueError as exc:
            raise ProtocolSyntaxError(str(exc), lineno)
        to_state = _check_token(parts[1], "state", lineno)
        move = _parse_move(parts[2], dim, lineno)
        outcomes.append(Outcome(prob, to_state, move))
    return TransitionRule(state, pattern, tuple(outcomes))


# ---------------------------------------------------------------------------
# serialization


def serialize(p: ScoutProtocol) -> str:
    """Canonical text form: states sorted, rules sorted by (state, pattern)."""
    lines = [f"dim {p.dim}", f"scouts {p.scouts}"]
    lines.append("states " + " ".join(sorted(p.state_names)))
    lines.append("origin " + " ".join(str(c) for c in p.initial_position))
    for i, st in enumerate(p.initial_states, start=1):
        lines.append(f"init {i} {st}")
    for rule in sorted(p.rules, key=lambda r: (r.state, r.pattern.render())):
        chunks = []
        for o in rule.outcomes:
            move = "(" + ",".join(str(c) for c in o.move) + ")"
            chunks.append(f"{format_probability(o.probability)} {o.state} {move}")
        lines.append(f"trans {rule.state} {rule.pattern.render()} -> " + " | ".join(chunks))
    return "\n".join(lines) + "\n"


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def protocol_hash(p: ScoutProtocol) -> str:
    """64-bit FNV-1a of the canonical serialization, as fixed-width hex."""
    return f"{fnv1a64(serialize(p).encode('utf-8')):016x}"


# ---------------------------------------------------------------------------
# validation


def _row_sum_ok(outcomes: Sequence[Outcome]) -> bool:
    """Exact rows must sum to exactly 1; rows with a float get the tolerance."""
    if all(isinstance(o.probability, Fraction) for o in outcomes):
        return sum(o.probability for o in outcomes) == 1
    acc = float(sum(float(o.probability) for o in outcomes))
    return abs(acc - 1.0) <= ROW_SUM_TOLERANCE


def validate(p: ScoutProtocol) -> list[Violation]:
    """All invariant violations of a structurally complete protocol.

    An empty report means the protocol is valid.  Coverage demands, for every
    state without a wildcard row, exact-set rows for every co-located state
    set of size at most c-1 (the realizable environments).
    """
    v: list[Violation] = []
    if p.dim not in (1, 2):
        v.append(Violation("dim", f"dim {p.dim} unsupported (this version handles 1 and 2)"))
    if p.scouts < 1:
        v.append(Violation("scouts", "scout count must be >= 1"))
    if len(p.initial_position) != p.dim:
        v.append(Violation("origin", f"origin has {len(p.initial_position)} components, expected {p.dim}"))
    declared = set(p.state_names)
    if len(declared) != len(p.state_names):
        v.append(Violation("states", "duplicate state names"))
    for name in p.state_names:
        if not _TOKEN_RE.match(name):
            v.append(Violation("states", f"bad state token {name!r}"))
    if len(p.initial_states) != p.scouts:
        v.append(Violation("init", f"{len(p.initial_states)} init states for {p.scouts} scouts"))
    for st in p.initial_states:
        if st not in declared:
            v.append(Violation("unknown-state", f"initial state {st!r} not declared"))

    seen_rows: set[tuple[str, EnvPattern]] = set()
    for rule in p.rules:
        if rule.state not in declared:
            v.append(Violation("unknown-state", f"rule for undeclared state {rule.state!r}"))
        for name in rule.pattern.states:
            if name not in declared:
                v.append(Violation("unknown-state", f"pattern references undeclared state {name!r}"))
        key = (rule.state, rule.pattern)
        if key in seen_rows:
            v.append(Violation("duplicate-rule",
                               f"duplicate rule for state {rule.state!r} pattern {rule.pattern.render()}"))
        seen_rows.add(key)
        if not rule.outcomes:
            v.append(Violation("empty-row", f"rule for {rule.state!r} has no outcomes"))
            continue
        for o in rule.outcomes:
            if o.state not in declared:
                v.append(Violation("unknown-state", f"outcome state {o.state!r} not declared"))
            if float(o.probability) < 0:
                v.append(Violation("negative-probability",
                                   f"negative probability in rule for {rule.state!r}"))
            if len(o.move) != p.dim or any(c not in _MOVE_COMPONENTS for c in o.move):
                v.append(Violation("bad-move", f"move {o.move} illegal for dim {p.dim}"))
        if not _row_sum_ok(rule.outcomes):
            # shortest repr, so an exact sum just below 1 does not print as 1
            total = float(sum(o.probability for o in rule.outcomes))
            v.append(Violation("row-sum",
                               f"row sum {total!r} != 1 for state {rule.state!r} "
                               f"pattern {rule.pattern.render()}"))

    # coverage: every state must dispatch every realizable environment
    if not any(x.code in ("unknown-state", "states") for x in v):
        k = max(p.scouts - 1, 0)
        realizable = sum(math.comb(len(p.state_names), j) for j in range(k + 1))
        for state in p.state_names:
            rows = [r for r in p.rules if r.state == state]
            if any(r.pattern.is_wildcard for r in rows):
                continue
            have = {frozenset(r.pattern.states) for r in rows}
            if not rows:
                v.append(Violation("uncovered", f"state {state!r} uncovered (no rules)"))
            elif sum(len(s) <= k for s in have) < realizable:
                v.append(Violation("uncovered",
                                   f"state {state!r}: exact-set rules leave environments "
                                   "uncovered and there is no wildcard"))
    return v


# ---------------------------------------------------------------------------
# builtins


def builtin(name: str, params: Mapping | None = None, **kw) -> ScoutProtocol:
    """Construct a named built-in protocol.

    Names: ``srw`` (one simple-random-walk scout), ``independent_walks``
    (c non-interacting walk scouts), ``anchored_geometric`` (the d+1-scout
    sweep protocol with excursion continuation probability p).  Parameters
    may be strings, as the CLI passes them.  ``d`` may be given as ``dim``
    and ``c`` as ``scouts``, or both when they agree.  The fixed kinds take
    a c (or scouts) only when it equals their own scout count.
    """
    merged = dict(params or {})
    merged.update(kw)
    d = _either(name, merged, "d", "dim", 1)
    if name == "srw":
        _check_count(name, merged, 1)
        _reject_extras(name, merged)
        return _srw(d)
    if name == "independent_walks":
        c = _either(name, merged, "c", "scouts", 1)
        _reject_extras(name, merged)
        return _independent_walks(d, c)
    if name == "anchored_geometric":
        # a float's exact binary expansion
        p = _number("p", merged.pop("p", Fraction(1, 2)), Fraction)
        _check_dim(d)
        _check_count(name, merged, d + 1)
        _reject_extras(name, merged)
        if not (0 < p < 1):
            raise ProtocolError(f"anchored_geometric needs p in (0,1), got {p}")
        return _anchored_1d(p) if d == 1 else _anchored_2d(p)
    raise ProtocolError(f"unknown builtin {name!r}")


def _number(name: str, value, kind: type):
    """``kind(value)`` for the builtin parameter ``name``, or ProtocolError;
    an int must equal the value, not truncate it."""
    try:
        number = kind(value)
        if kind is int and not isinstance(value, str) and number != value:
            raise ValueError(value)
        return number
    except (TypeError, ValueError, ArithmeticError):
        raise ProtocolError(f"builtin parameter {name}={value!r} does not parse "
                            f"as {kind.__name__}") from None


def _either(name: str, merged: dict, key: str, alias: str, default: int) -> int:
    """The int given as ``key`` or ``alias``, both taken out of ``merged``,
    or ``default``; ProtocolError when both are given and disagree."""
    given = {k: _number(k, merged.pop(k), int) for k in (key, alias) if k in merged}
    if len(set(given.values())) > 1:
        raise ProtocolError(f"builtin {name!r} got {key}={given[key]} and "
                            f"{alias}={given[alias]}, which disagree")
    return next(iter(given.values()), default)


def _check_count(name: str, merged: dict, count: int) -> None:
    """Take c and scouts out of ``merged``: each may only restate ``count``,
    the builtin's own number of scouts."""
    for key in ("c", "scouts"):
        c = _number(key, merged.pop(key, count), int)
        if c != count:
            raise ProtocolError(f"builtin {name!r} has {count} scout(s), not {key}={c}")


def _reject_extras(name: str, merged: Mapping) -> None:
    if merged:
        raise ProtocolError(f"unknown parameter(s) for builtin {name!r}: {sorted(merged)}")


def _srw_row(state: str, d: int) -> TransitionRule:
    outcomes = []
    share = Fraction(1, 2 * d)
    for axis in range(d):
        for sign in (+1, -1):
            move = tuple(sign if a == axis else 0 for a in range(d))
            outcomes.append(Outcome(share, state, move))
    return TransitionRule(state, EnvPattern.wildcard(), tuple(outcomes))


def _srw(d: int) -> ScoutProtocol:
    _check_dim(d)
    return ScoutProtocol(
        dim=d, scouts=1, state_names=("walk",),
        initial_position=(0,) * d, initial_states=("walk",),
        rules=(_srw_row("walk", d),),
    )


def _independent_walks(d: int, c: int) -> ScoutProtocol:
    _check_dim(d)
    if c < 1:
        raise ProtocolError("independent_walks needs c >= 1")
    names = tuple(f"walk{i}" for i in range(1, c + 1))
    return ScoutProtocol(
        dim=d, scouts=c, state_names=names,
        initial_position=(0,) * d, initial_states=names,
        rules=tuple(_srw_row(n, d) for n in names),
    )


def _check_dim(d: int) -> None:
    if d not in (1, 2):
        raise ProtocolError(f"dim {d} unsupported (this version handles 1 and 2)")


def _anchored_1d(p: Fraction) -> ScoutProtocol:
    """Anchor at the origin plus a sweeping scout.

    At the anchor the sweeper launches an excursion with probability p
    (direction uniform, the launch is already the first outward step) and
    otherwise rests one step; outward it continues with probability p per
    step, turning into a straight walk back to the sensed anchor.  A point
    at signed distance k != 0 is therefore reached within one anchor-to-
    anchor epoch with probability (1/2) p^|k|, and epochs have finite mean
    length, so every point has a finite mean hitting time.
    """
    q = 1 - p
    half_p = p / 2
    W = EnvPattern.wildcard

    def rule(state, pattern, *outs):
        return TransitionRule(state, pattern, tuple(Outcome(*o) for o in outs))

    launch = ((q, "b-home-", (0,)), (half_p, "b-out+", (1,)), (half_p, "b-out-", (-1,)))
    rules = (
        rule("anchor", W(), (Fraction(1), "anchor", (0,))),
        rule("b-out+", W(), (p, "b-out+", (1,)), (q, "b-home-", (-1,))),
        rule("b-out-", W(), (p, "b-out-", (-1,)), (q, "b-home+", (1,))),
        rule("b-home-", EnvPattern.exact(["anchor"]), *launch),
        rule("b-home-", W(), (Fraction(1), "b-home-", (-1,))),
        rule("b-home+", EnvPattern.exact(["anchor"]), *launch),
        rule("b-home+", W(), (Fraction(1), "b-home+", (1,))),
    )
    return ScoutProtocol(
        dim=1, scouts=2,
        state_names=("anchor", "b-out+", "b-out-", "b-home-", "b-home+"),
        initial_position=(0,),
        initial_states=("anchor", "b-home-"),
        rules=rules,
    )


def _anchored_2d(p: Fraction) -> ScoutProtocol:
    """Anchor plus column scout B plus excursion scout C on the plane.

    Per epoch, B picks an x direction; at every column visited (origin
    included) C runs a geometric +-y excursion from B and returns; the pair
    then advances one column with probability p or walks back to the anchor.
    A point (k, m) off the axes is reached within an epoch with probability
    (1/4) p^(|k|+|m|); axis points are reached at least that often.

    Handshakes are mediated through sensed states: B waits in b-wait*, reads
    C's return states, and announces advance/home in b-adv*/b-home*; C reads
    those announcements from c-sync and moves in lockstep.
    """
    q = 1 - p
    one = Fraction(1)
    half = Fraction(1, 2)
    W = EnvPattern.wildcard
    E = EnvPattern.exact

    def rule(state, pattern, *outs):
        return TransitionRule(state, pattern, tuple(Outcome(*o) for o in outs))

    rules: list[TransitionRule] = [
        rule("anchor", W(), (one, "anchor", (0, 0))),
    ]

    # B: wait during C's excursion, then decide (advance w.p. p / go home)
    for side, adv, home in (("+x", "b-adv+x", "b-home-x"), ("-x", "b-adv-x", "b-home+x")):
        wait = f"b-wait{side}"
        for ret in ("c-ret-y", "c-ret+y"):
            for env in ([ret], ["anchor", ret]):
                rules.append(rule(wait, E(env), (p, adv, (0, 0)), (q, home, (0, 0))))
        rules.append(rule(wait, W(), (one, wait, (0, 0))))
    rules.append(rule("b-adv+x", W(), (one, "b-wait+x", (1, 0))))
    rules.append(rule("b-adv-x", W(), (one, "b-wait-x", (-1, 0))))
    # B walking home: restart at the anchor (also when home was announced there)
    for home, step in (("b-home-x", (-1, 0)), ("b-home+x", (1, 0))):
        for mate in ("c-home-x", "c-home+x", "c-sync"):
            rules.append(rule(home, E(["anchor", mate]),
                              (half, "b-wait+x", (0, 0)), (half, "b-wait-x", (0, 0))))
        rules.append(rule(home, W(), (one, home, step)))

    # C: excursion machine
    rules.append(rule("c-pick", W(), (half, "c-out+y", (0, 0)), (half, "c-out-y", (0, 0))))
    rules.append(rule("c-out+y", W(), (p, "c-out+y", (0, 1)), (q, "c-ret-y", (0, 0))))
    rules.append(rule("c-out-y", W(), (p, "c-out-y", (0, -1)), (q, "c-ret+y", (0, 0))))
    for ret, back in (("c-ret-y", (0, -1)), ("c-ret+y", (0, 1))):
        for wait in ("b-wait+x", "b-wait-x"):
            for env in ([wait], ["anchor", wait]):
                rules.append(rule(ret, E(env), (one, "c-sync", (0, 0))))
        rules.append(rule(ret, W(), (one, ret, back)))
    # C synchronizing on B's announcement
    rules.append(rule("c-sync", E(["b-adv+x"]), (one, "c-pick", (1, 0))))
    rules.append(rule("c-sync", E(["anchor", "b-adv+x"]), (one, "c-pick", (1, 0))))
    rules.append(rule("c-sync", E(["b-adv-x"]), (one, "c-pick", (-1, 0))))
    rules.append(rule("c-sync", E(["anchor", "b-adv-x"]), (one, "c-pick", (-1, 0))))
    rules.append(rule("c-sync", E(["b-home-x"]), (one, "c-home-x", (-1, 0))))
    rules.append(rule("c-sync", E(["b-home+x"]), (one, "c-home+x", (1, 0))))
    rules.append(rule("c-sync", E(["anchor", "b-home-x"]), (one, "c-pick", (0, 0))))
    rules.append(rule("c-sync", E(["anchor", "b-home+x"]), (one, "c-pick", (0, 0))))
    rules.append(rule("c-sync", W(), (one, "c-sync", (0, 0))))
    # C walking home with B
    for chome, step, bhome in (("c-home-x", (-1, 0), "b-home-x"), ("c-home+x", (1, 0), "b-home+x")):
        rules.append(rule(chome, E(["anchor", bhome]), (one, "c-pick", (0, 0))))
        rules.append(rule(chome, W(), (one, chome, step)))

    names = (
        "anchor",
        "b-wait+x", "b-wait-x", "b-adv+x", "b-adv-x", "b-home-x", "b-home+x",
        "c-pick", "c-out+y", "c-out-y", "c-ret-y", "c-ret+y", "c-sync",
        "c-home-x", "c-home+x",
    )
    return ScoutProtocol(
        dim=2, scouts=3, state_names=names,
        initial_position=(0, 0),
        initial_states=("anchor", "b-home-x", "c-home-x"),
        rules=tuple(rules),
    )
