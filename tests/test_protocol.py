"""Protocol parsing, validation, environments, builtins, serialization."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import Configuration, environment_of
from scoutsim import (EnvPattern, ProtocolSyntaxError, ProtocolValidationError, builtin,
                      parse_protocol, protocol_hash, serialize, validate)
from scoutsim.protocol import ProtocolError

SRW_TEXT = """\
# single-state walk
dim 1
scouts 1
states A
init 1 A
trans A * -> 0.5 A (+1) | 0.5 A (-1)
"""


def test_parse_minimal_srw():
    p = parse_protocol(SRW_TEXT)
    assert p.scouts == 1
    assert len(p.state_names) == 1
    assert p.initial_position == (0,)
    assert p.rules[0].outcomes[0].probability == Fraction(1, 2)


def test_row_sum_error():
    bad = SRW_TEXT.replace("0.5 A (-1)", "0.6 A (-1)")
    with pytest.raises(ProtocolValidationError, match="row sum 1.1"):
        parse_protocol(bad)


def test_exact_row_sum_must_be_exactly_one():
    from dataclasses import replace
    from scoutsim.protocol import EnvPattern, Outcome, TransitionRule

    def with_row(*probs):
        outs = tuple(Outcome(q, "A", (m,)) for q, m in zip(probs, (1, -1)))
        return replace(srw, rules=(TransitionRule("A", EnvPattern.wildcard(), outs),))

    srw = parse_protocol(SRW_TEXT)
    short = with_row(Fraction(1, 2) - Fraction(1, 10**10), Fraction(1, 2))
    assert [v.code for v in validate(short)] == ["row-sum"]
    # a row with a float keeps the tolerance
    assert validate(with_row(0.5 - 1e-12, Fraction(1, 2))) == []


def test_move_component_error():
    bad = SRW_TEXT.replace("(+1)", "(+2)")
    with pytest.raises(ProtocolSyntaxError, match=r"out of \{-1,0,\+1\}"):
        parse_protocol(bad)


def test_syntax_error_reports_line():
    bad = "dim 1\nscouts 1\nstates A\ninit 1 A\ntrans A * 0.5 A (+1)\n"
    with pytest.raises(ProtocolSyntaxError, match="line 5"):
        parse_protocol(bad)


def test_dim_three_reserved():
    with pytest.raises(ProtocolSyntaxError, match="unsupported"):
        parse_protocol("dim 3\nscouts 1\nstates A\ninit 1 A\n")


def test_undeclared_state_violation():
    text = "dim 1\nscouts 1\nstates A\ninit 1 A\ntrans A * -> 1 Z (0)\n"
    with pytest.raises(ProtocolValidationError, match="'Z'"):
        parse_protocol(text)


def test_uncovered_state_violation():
    text = ("dim 1\nscouts 1\nstates A B\ninit 1 A\n"
            "trans A * -> 1 B (0)\n")
    with pytest.raises(ProtocolValidationError, match="'B' uncovered"):
        parse_protocol(text)


def test_partial_exact_coverage_needs_wildcard():
    # two scouts: realizable environments for A are {} and singletons
    text = ("dim 1\nscouts 2\nstates A B\ninit 1 A\ninit 2 B\n"
            "trans A {} -> 1 A (0)\n"
            "trans B * -> 1 B (0)\n")
    with pytest.raises(ProtocolValidationError, match="leave environments"):
        parse_protocol(text)


def test_coverage_count_matches_enumeration():
    # validate counts each state's exact-set rules of at most c-1 states
    # against the number of such sets; the reference enumerates the sets
    from scoutsim.protocol import Outcome, ScoutProtocol, TransitionRule
    names = ("A", "B", "C")
    sets = [c for k in range(4) for c in itertools.combinations(names, k)]
    rng = random.Random(0)
    for _ in range(300):
        scouts = rng.randint(1, 3)
        rules = tuple(TransitionRule(s, EnvPattern.exact(c), (Outcome(Fraction(1), s, (0,)),))
                      for s in names for c in sets if rng.random() < 0.8)
        rules += tuple(TransitionRule(s, EnvPattern.wildcard(), (Outcome(Fraction(1), s, (0,)),))
                       for s in names if rng.random() < 0.2)
        p = ScoutProtocol(dim=1, scouts=scouts, state_names=names, initial_position=(0,),
                          initial_states=("A",) * scouts, rules=rules)
        needed = [frozenset(c) for c in sets if len(c) < scouts]
        want = []
        for state in names:
            rows = [r for r in rules if r.state == state]
            have = {frozenset(r.pattern.states) for r in rows}
            if rows and not any(r.pattern.is_wildcard for r in rows) and not all(
                    s in have for s in needed):
                want.append(f"state {state!r}: exact-set rules leave environments "
                            "uncovered and there is no wildcard")
        assert [v.message for v in validate(p) if "exact-set" in v.message] == want


def test_validate_returns_violations_as_data():
    p = parse_protocol(SRW_TEXT)
    assert validate(p) == []


def test_validate_names_undeclared_state():
    from scoutsim.protocol import (EnvPattern, Outcome, ScoutProtocol,
                                   TransitionRule)
    p = ScoutProtocol(
        dim=1, scouts=1, state_names=("A",), initial_position=(0,),
        initial_states=("A",),
        rules=(TransitionRule("A", EnvPattern.wildcard(),
                              (Outcome(Fraction(1), "Z", (0,)),)),))
    report = validate(p)
    assert any("'Z'" in v.message for v in report)


def test_round_trip_canonical():
    p = builtin("anchored_geometric", d=2, p="1/3")
    text = serialize(p)
    q = parse_protocol(text)
    assert serialize(q) == text
    assert protocol_hash(q) == protocol_hash(p)


def test_hash_is_stable_across_state_order():
    a = ("dim 1\nscouts 1\nstates A B\ninit 1 A\n"
         "trans A * -> 1 B (+1)\ntrans B * -> 1 A (0)\n")
    b = ("dim 1\nscouts 1\nstates B A\ninit 1 A\n"
         "trans B * -> 1 A (0)\ntrans A * -> 1 B (+1)\n")
    assert protocol_hash(parse_protocol(a)) == protocol_hash(parse_protocol(b))


def test_probability_formats():
    text = SRW_TEXT.replace("0.5 A (+1) | 0.5 A (-1)", "1/4 A (+1) | 3/4 A (-1)")
    p = parse_protocol(text)
    assert p.rules[0].outcomes[0].probability == Fraction(1, 4)


# environments


def test_environment_colocated():
    cfg = Configuration(((0,), (0,)), ("a", "b"), 0)
    assert environment_of(cfg, 1) == frozenset({"b"})
    assert environment_of(cfg, 2) == frozenset({"a"})


def test_environment_separated():
    cfg = Configuration(((0, 0), (1, 0)), ("a", "b"), 0)
    assert environment_of(cfg, 1) == frozenset()
    assert environment_of(cfg, 2) == frozenset()


def test_environment_multiplicity_invisible():
    cfg = Configuration(((0,), (0,), (0,)), ("a", "b", "b"), 0)
    assert environment_of(cfg, 1) == frozenset({"b"})


def test_environment_index_range():
    cfg = Configuration(((0,),), ("a",), 0)
    with pytest.raises(ValueError, match="out of range"):
        environment_of(cfg, 2)


def test_environment_depends_only_on_colocated():
    near = Configuration(((0,), (0,), (9,)), ("a", "b", "a"), 0)
    far = Configuration(((0,), (0,), (-7,)), ("a", "b", "b"), 0)
    assert environment_of(near, 1) == environment_of(far, 1)


# builtins


def test_builtin_srw():
    p = builtin("srw", d=1)
    assert p.scouts == 1 and len(p.state_names) == 1
    probs = [o.probability for o in p.rules[0].outcomes]
    assert probs == [Fraction(1, 2), Fraction(1, 2)]


def test_builtin_independent_walks():
    p = builtin("independent_walks", d=1, c=3)
    assert p.scouts == 3
    assert len(set(p.initial_states)) == 3
    assert all(r.pattern.is_wildcard for r in p.rules)
    assert validate(p) == []


def test_builtin_anchored_counts():
    assert builtin("anchored_geometric", d=1, p="1/2").scouts == 2
    assert builtin("anchored_geometric", d=2, p="1/2").scouts == 3


def test_builtin_validates():
    for d in (1, 2):
        assert validate(builtin("anchored_geometric", d=d, p="1/2")) == []


def test_builtin_bad_params():
    with pytest.raises(ProtocolError, match="unknown builtin"):
        builtin("nope")
    with pytest.raises(ProtocolError, match=r"p in \(0,1\)"):
        builtin("anchored_geometric", d=1, p="3/2")


@pytest.mark.parametrize("d", [0, 3, -1])
def test_builtin_anchored_refuses_unsupported_dim(d):
    # each returned the d = 2 sweeper
    with pytest.raises(ProtocolError, match=f"dim {d} unsupported"):
        builtin("anchored_geometric", d=d, p="1/2")


def test_builtin_refuses_non_integer_counts():
    # d and c were truncated: c=2.9 built two scouts, d=1.5 a line
    for name, kw in (("independent_walks", {"d": 1, "c": 2.9}), ("srw", {"d": 1.5}),
                     ("anchored_geometric", {"d": Fraction(3, 2)})):
        with pytest.raises(ProtocolError, match="does not parse as int"):
            builtin(name, **kw)
    assert builtin("independent_walks", d="2", c=3.0).scouts == 3
    assert builtin("srw", {"d": "2"}).dim == 2


def test_builtin_refuses_a_scout_count_it_cannot_honour():
    # srw with c=3 returned one scout, and anchored_geometric dropped c too
    for name, d, own in (("srw", 1, 1), ("srw", 2, 1), ("anchored_geometric", 1, 2),
                         ("anchored_geometric", 2, 3)):
        for key in ("c", "scouts"):
            for c in (own - 1, own + 1, "x"):
                with pytest.raises(ProtocolError, match=f"{key}={c}|does not parse"):
                    builtin(name, {"d": d, key: c})
            assert builtin(name, {"d": d, key: str(own)}).scouts == own
        # a c that restates the count does not let a scouts through
        with pytest.raises(ProtocolError, match=f"scouts={own + 1}"):
            builtin(name, {"d": d, "c": own, "scouts": own + 1})


def test_builtin_refuses_disagreeing_aliases():
    # independent_walks dropped scouts=5 next to c=2, and every kind dim next to d
    for name, key, alias in (("independent_walks", "c", "scouts"), ("srw", "d", "dim"),
                             ("anchored_geometric", "d", "dim")):
        with pytest.raises(ProtocolError, match=f"{key}=1 and {alias}=2, which disagree"):
            builtin(name, {key: 1, alias: "2"})
    with pytest.raises(ProtocolError, match="c=2 and scouts=5"):
        builtin("independent_walks", d=1, c=2, scouts=5)
    assert builtin("independent_walks", d=1, c=2, scouts="2").scouts == 2
    assert builtin("independent_walks", {"scouts": "3"}).scouts == 3
    assert builtin("srw", d=2, dim=2).dim == 2


def test_envpattern_sorted_unique():
    pat = EnvPattern.exact(["b", "a", "b"])
    assert pat.states == ("a", "b")
