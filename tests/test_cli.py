"""Exit-code contract, reproducibility, and parallelism neutrality of the CLI."""

import hashlib
import json

import pytest

from scoutsim import engine, walks
from scoutsim.cli import EXIT_IO, _dump_json, main

SRW_TEXT = """\
dim 1
scouts 1
states A
init 1 A
trans A * -> 0.5 A (+1) | 0.5 A (-1)
"""


@pytest.fixture
def srw_file(tmp_path):
    f = tmp_path / "srw.proto"
    f.write_text(SRW_TEXT)
    return str(f)


def test_validate_ok(srw_file, capsys):
    assert main(["validate", srw_file]) == 0
    assert capsys.readouterr().out.startswith("ok:")


def test_validate_row_sum(tmp_path, capsys):
    f = tmp_path / "bad.proto"
    f.write_text(SRW_TEXT.replace("0.5 A (-1)", "0.6 A (-1)"))
    assert main(["validate", str(f)]) == 1
    assert "row sum" in capsys.readouterr().out


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/file.proto"]) == 2


def test_usage_error_exit_code():
    assert main(["hitting", "--protocol"]) == 1
    assert main(["lemma", "unknown-check"]) == 1


def test_simulate_csv(capsys):
    assert main(["simulate", "--protocol", "builtin:srw?d=1",
                 "--horizon", "4", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "time,scout,x,state"
    assert len(lines) == 6


def test_simulate_json_format(capsys):
    assert main(["simulate", "--protocol", "builtin:srw?d=1", "--horizon", "3",
                 "--seed", "2", "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert len(body["configurations"]) == 4
    assert body["configurations"][0]["positions"] == [[0]]
    assert "protocol_hash" in body


# sha256 of `simulate` stdout, recorded with the per-step Configuration
# stepper that the integer scalar kernel replaced; horizons cross several
# 1024-step kernel blocks
@pytest.mark.parametrize("protocol,horizon,seed,replica,fmt,digest", [
    ("builtin:anchored_geometric?d=1,p=1/2", 2100, 7, 2, "csv",
     "45af0f73beac33e1ccd3ccdf7dd4d102199d76bda943dce2d5d0c58866754927"),
    ("builtin:anchored_geometric?d=1,p=1/2", 2100, 7, 2, "json",
     "a48d20f7910e0455380b50d84c0fe047c2b6295fb6158d8281f85a18faa516c3"),
    ("builtin:anchored_geometric?d=2,p=1/2", 1500, 11, 0, "csv",
     "9c6b0d1ef92feccc9895ea15d2a0337fb249de44db2b0da8bcee1799c9ac5b09"),
    ("builtin:anchored_geometric?d=2,p=1/2", 1500, 11, 0, "json",
     "776266784d54819ec9bf66f4551f195af065ed9f48aa0edc8a38132eb3a02c13"),
    ("builtin:srw?d=2", 1100, 5, 3, "csv",
     "96d7101458e635e61939807a94ba9886cb951dea05d23e4ecd0cb7c6ffebf125"),
    ("builtin:srw?d=2", 1100, 5, 3, "json",
     "93da80e73d3100aa9e2b309af721b2c73d91bba47956d34a7876afdfe0e3e77a"),
])
def test_simulate_bytes_pinned(protocol, horizon, seed, replica, fmt, digest, capsys):
    assert main(["simulate", "--protocol", protocol, "--horizon", str(horizon),
                 "--seed", str(seed), "--replica", str(replica), "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of `lemma` and `oracle` stdout, recorded before the walks events
# moved into one table read by the exact DP, the Monte-Carlo frequency and
# the checks
CORRIDOR_LAWS = ["--law", "1/2:1,2,1;1/2:-1,1,2", "--law2", "1/3:2,1,1;2/3:-1,3,1"]
ORACLE_LAW = ["--law", "1/3:1,1,1.5;1/6:-2,1,2.5;1/2:0", "--horizon", "12", "--s0", "-1"]
ORACLE_LAW2 = ["--law2", "1/4:1,1,2;1/4:-1,1,1;1/2:0,1,1"]


@pytest.mark.parametrize("argv,code,digest", [
    (["lemma", "escape", "--law", "drift34", "--x", "-20", "--trials", "3000",
      "--horizon", "512", "--seed", "2"], 0,
     "fdd045bcb7a954e4d8a75e9e04800eb37e807a8e57680e445cf71ac3b5c3598d"),
    (["lemma", "reach-tail", "--law", "srw", "--x", "10", "--trials", "2000",
      "--cap", "4096", "--seed", "5"], 0,
     "a646081b988bf1eceede58d5fa5dbc49a7d8f9736be189e808b3d26b00a4eca9"),
    (["lemma", "exit-time", "--rho", "5", "--trials", "8000", "--seed", "4",
      "--law", "srw"], 0,
     "2f6e601d2745ecb6ee8aaed0c00fe17d5636199835f579336835e991050fbe4e"),
    (["lemma", "corridor", "--law", "srw", "--law2", "srw", "--s0", "8", "--s02", "-8",
      "--trials", "3000", "--cap", "4096", "--seed", "90"], 0,
     "89f1bae3bc1b0a0514a779c36c168aeca8131d895451f5299a478e01ed3f8ef6"),
    (["lemma", "corridor", *CORRIDOR_LAWS, "--s0", "7", "--s02", "-7",
      "--trials", "300", "--cap", "512", "--seed", "13"], 3,
     "9708bdffc444edb2bd65cd94a565046280f9c8bcc337d69a60bcd4e60c0ec9d6"),
    (["lemma", "corridor", *CORRIDOR_LAWS, "--s0", "6.5", "--s02", "-6.5",
      "--trials", "1000", "--cap", "2048", "--seed", "13"], 0,
     "66890d3f785d8d420bd0fac5e350fd1cec7645ec76f1feb9f1c5e281cb8f9ff8"),
    (["oracle", *ORACLE_LAW, "--event", "hit:2"], 0,
     "76d344d6eb290fa116a21cb6c1e117e6aab9f1a2e6d4a7daa1edc1a30e1606bc"),
    (["oracle", *ORACLE_LAW, "--event", "lookaround:3"], 0,
     "424fed014537ea934c2ddf49164626c24459aaa02abbe695265a7653e2c38084"),
    (["oracle", *ORACLE_LAW, "--event", "reach:4"], 0,
     "bb73caa15b29d6d55d6be22c9353f2d048539e0b4a0aaee0a353c9fa3f1c78c3"),
    (["oracle", *ORACLE_LAW, "--event", "exit:3"], 0,
     "214c643d86ff550fee093e365e94a2c436eced89daeb29b4f75519c795cb8973"),
    (["oracle", *ORACLE_LAW, "--event", "position:2"], 0,
     "3b7342b38a2b586d326a2e23f5390a991115322828a11526556e2169ec2a654d"),
    (["oracle", *ORACLE_LAW, "--event", "meeting", *ORACLE_LAW2, "--s02", "2"], 0,
     "81933dcc763f5ff3c56257c24d361650022e24f881d4ffa52b454e3cc15dbf02"),
    (["oracle", *ORACLE_LAW, "--event", "ballmeeting", *ORACLE_LAW2, "--s02", "7"], 0,
     "56a288f81462f23afa35c3161b8ba5dd64cedee580f38f2dcaf299637d054fe1"),
    # recorded before the deviation check moved from chunked full paths onto
    # the stopping-time helper; more than 4096 trials
    (["lemma", "deviation", "--law", "srw", "--mu", "0.2", "--n", "100", "--y", "20",
      "--trials", "5000", "--seed", "3"], 0,
     "1e9a49b8c2a7dcdf039b0b6ef90f406235f3f0916a648222ef1df45507613f67"),
    (["lemma", "deviation", "--law", "lazy", "--mu", "0.1", "--n", "64", "--y", "8",
      "--trials", "6000", "--seed", "7"], 0,
     "72e78d2893c9f35a434c62c707e712cd1e5356e5982873866f8a364db0393662"),
])
def test_walks_bytes_pinned(argv, code, digest, capsys):
    assert main(argv) == code
    out = capsys.readouterr().out
    if argv[1] in ("reach-tail", "exit-time"):
        # these two were recorded before their parameters reported s0; every
        # other byte is unchanged
        body = json.loads(out)
        assert body["parameters"].pop("s0") == 0.0
        out = _dump_json(body)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_lemma_deviation_large_steps(capsys):
    # max|zeta| = 1e11 put the bound optimizer's lower bound above its upper
    # bound, and the ValueError escaped as a traceback
    assert main(["lemma", "deviation", "--law", "1/2:100000000000;1/2:-100000000000",
                 "--mu", "1", "--n", "4", "--y", "4", "--trials", "10"]) in (0, 3)
    body = json.loads(capsys.readouterr().out)
    assert body["details"]["chernoff_bound"] == 1.0


def test_oracle_exact(capsys):
    assert main(["oracle", "--law", "srw", "--event", "hit:1",
                 "--horizon", "3"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["probability"] == "3/8"


def test_oracle_integer_float_start(capsys):
    # a float flag holding an integer is that integer
    assert main(["oracle", "--law", "srw", "--event", "hit:1", "--horizon", "3",
                 "--s0", "-2.0"]) == 0
    body = json.loads(capsys.readouterr().out)
    want = walks.exact_dp_oracle(walks.parse_law("srw"), -2, 3, "hit:1")
    assert body["s0"] == -2 and body["probability"] == str(want)


@pytest.mark.parametrize("argv,s0,probability", [
    # read as floats, 2**53 + 1 rounded to 2**53: the walk missed the point
    # it stands on at step 2, and the pair started 2 apart met at once
    (["--s0", "9007199254740993", "--event", "position:9007199254740995"],
     9007199254740993, "1"),
    (["--law2", "zero", "--s0", "-9007199254740995", "--s02", "-9007199254740993",
      "--event", "meeting"], -9007199254740995, "0"),
    # an integer past the floats; 1e400 read as a float was inf, refused
    (["--s0", "1e400", "--event", "hit:3"], 10**400, "1"),
])
def test_oracle_starts_parsed_exactly(argv, s0, probability, capsys):
    assert main(["oracle", "--law", "up", "--horizon", "2", *argv]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["s0"] == s0 and body["probability"] == probability


def test_lemma_starts_keep_integers_past_2_53(capsys):
    # --s0 2**53 + 1 was read as the float 2**53, not above the target --x 2**53,
    # and the escape check refused it
    assert main(["lemma", "escape", "--law", "up", "--s0", "9007199254740993",
                 "--x", "9007199254740992", "--trials", "5", "--horizon", "4"]) == 3
    body = json.loads(capsys.readouterr().out)
    assert body["parameters"]["s0"] == 9007199254740993 and body["estimate"] == 0.0
    # a start a float holds exactly stays a float, as before
    assert main(["lemma", "escape", "--law", "up", "--s0", "8", "--x", "2", "--trials", "5",
                 "--horizon", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["parameters"]["s0"] == 8.0


def test_lemma_reach_tail_offsets_exact_past_2_53(capsys):
    # x - s0 was taken in floats: float(2**53 + 11) - float(2**53 + 1) is 12.
    # An integer walk from s0 draws the same offsets from any start, so the
    # report is the one of s0 = 0, x = 10 but for x
    argv = ["lemma", "reach-tail", "--law", "1/2:1;1/2:-1", "--trials", "50", "--cap", "64"]
    bodies = []
    for start in (["--s0", "9007199254740993", "--x", "9007199254741003"], ["--x", "10"]):
        assert main(argv + start) == 3
        bodies.append(json.loads(capsys.readouterr().out))
    assert bodies[0]["parameters"]["offsets"] == [2.0, 4.0, 6.0, 8.0, 10.0]
    assert bodies[0]["parameters"].pop("x") == 9007199254741003
    assert bodies[0]["parameters"].pop("s0") == 9007199254740993
    assert bodies[1]["parameters"].pop("x") == 10.0
    assert bodies[1]["parameters"].pop("s0") == 0.0
    assert bodies[0] == bodies[1]


def test_lemma_corridor_exact_past_2_53(capsys):
    # --interval was read with float() and compared with the positions in
    # floats: the bounds became 2**53 + 12 and 2**53 + 16, and the slope read
    # -0.283.  The same geometry from 0 gives the same report but for the
    # interval and the starts
    argv = ["lemma", "corridor", "--law", "srw", "--law2", "srw", "--trials", "300",
            "--cap", "512"]
    bodies = []
    for where in (["--s0", "9007199254740993", "--s02", "9007199254741017",
                   "--interval", "9007199254741003:9007199254741007"],
                  ["--s0", "0", "--s02", "24", "--interval", "10:14"]):
        assert main(argv + where) == 0
        bodies.append(json.loads(capsys.readouterr().out))
    assert bodies[0]["parameters"].pop("interval") == [9007199254741003, 9007199254741007]
    assert bodies[0]["parameters"].pop("s0") == [9007199254740993, 9007199254741017]
    assert bodies[1]["parameters"].pop("interval") == [10.0, 14.0]
    assert bodies[1]["parameters"].pop("s0") == [0.0, 24.0]
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("argv", [
    # S1 - S2 wrapped to -1028 in int64: every trial met at step 512
    ["lemma", "corridor", "--law", "1:1,1,2", "--law2", "1:-1,1,2",
     "--s0", "9223372036854775294", "--s02", "-9223372036854775294", "--interval", "0:10",
     "--trials", "40", "--cap", "512"],
    # S - x wrapped to -20: every walk saw x at step 0
    ["lemma", "escape", "--law", "1:1,1,100", "--s0", "9223372036854775798",
     "--x", "-9223372036854775798", "--trials", "20", "--horizon", "4"],
    # a start outside the exit set exits at step 0: it could only FAIL
    ["lemma", "exit-time", "--law", "srw", "--s0", "100", "--rho", "5", "--trials", "50"],
])
def test_lemma_geometry_refused(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("precondition violation:")


def test_lemma_exit_time_step_budget(capsys):
    # u_max = 8 * rho**2 had no bound: rho 1e6 ran 8e12 steps per trial
    assert main(["lemma", "exit-time", "--rho", "1e6", "--trials", "5"]) == 1
    err = capsys.readouterr().err
    assert "budget" in err and len(err.strip().splitlines()) == 1
    assert main(["lemma", "exit-time", "--rho", "363", "--trials", "5"]) == 1
    capsys.readouterr()
    assert main(["lemma", "exit-time", "--rho", "5", "--trials", "5"]) in (0, 3)


def test_lemma_pass_fail_and_precondition(capsys):
    # deviation check on the simple walk: PASS -> 0
    assert main(["lemma", "lemma50", "--law", "srw", "--mu", "0.2",
                 "--n", "50", "--y", "10", "--trials", "4000"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["verdict"] == "PASS"
    assert body["lemma"] == "lemma50"
    # zero-drift law violates the escape precondition -> 1
    assert main(["lemma", "lemma6", "--law", "srw", "--x", "-5",
                 "--trials", "100"]) == 1
    # degenerate law violates the exit precondition -> 1
    assert main(["lemma", "lemma17", "--law", "zero", "--rho", "3",
                 "--trials", "100"]) == 1
    # so does a negative radius (it exited 3 with a FAIL verdict)
    assert main(["lemma", "exit-time", "--rho", "-3", "--trials", "5"]) == 1


def test_lemma_statistical_fail_exit_code(capsys):
    # deterministic +1 exit time is a step function: exponential fit fails -> 3
    assert main(["lemma", "lemma17", "--law", "up", "--rho", "5",
                 "--trials", "200"]) == 3


def test_lemma_corridor_via_cli(capsys):
    # separating drifts with the corridor behind both: flat survival, PASS
    assert main(["lemma", "prop22", "--law", "up", "--s0", "10",
                 "--law2", "1:-1", "--s02", "-10",
                 "--interval", "30:40", "--trials", "300", "--cap", "512"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["verdict"] == "PASS"
    # missing second walk is a usage error
    assert main(["lemma", "prop22", "--law", "srw", "--trials", "10"]) == 1


def test_oracle_meeting_via_cli(capsys):
    assert main(["oracle", "--law", "srw", "--law2", "srw", "--event",
                 "meeting", "--horizon", "2"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["probability"] == "3/8"


def test_hitting_outputs_and_reproducibility(srw_file, tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["hitting", "--protocol", srw_file, "--targets", "1",
            "--replicas", "400", "--cap", "1024", "--seed", "5"]
    assert main(args + ["--out-dir", str(out1)]) == 0
    capsys.readouterr()
    assert main(args + ["--out-dir", str(out2)]) == 0
    capsys.readouterr()
    csv1 = (out1 / "survival_1.csv").read_bytes()
    csv2 = (out2 / "survival_1.csv").read_bytes()
    assert csv1 == csv2
    j1 = (out1 / "summary_1.json").read_bytes()
    j2 = (out2 / "summary_1.json").read_bytes()
    assert j1 == j2
    body = json.loads(j1)
    assert body["seed"] == 5
    assert "divergence" in body and "protocol_hash" in body
    # timestamps only in the sidecar
    assert "created" in json.loads((out1 / "survival_1.csv.meta.json").read_text())


def test_hitting_default_cap(tmp_path, capsys):
    # without --cap the run is capped at engine.DEFAULT_CAP, and says so; a
    # scout that always steps to 1 hits it at t = 1 in every replica
    f = tmp_path / "step.proto"
    f.write_text("dim 1\nscouts 1\nstates A\ninit 1 A\ntrans A * -> 1 A (1)\n")
    assert main(["hitting", "--protocol", str(f), "--targets", "1", "--replicas", "8"]) == 0
    (body,) = json.loads(capsys.readouterr().out)
    assert body["cap_policy"] == "default" and body["cap"] == engine.DEFAULT_CAP
    assert body["censored_fraction"] == 0.0 and body["mean"] == 1.0


def test_hitting_threads_neutral(srw_file, tmp_path, capsys):
    base = ["hitting", "--protocol", srw_file, "--targets", "1;-2",
            "--replicas", "500", "--cap", "512", "--seed", "7"]
    a = tmp_path / "t1"
    b = tmp_path / "t8"
    assert main(base + ["--threads", "1", "--out-dir", str(a)]) == 0
    capsys.readouterr()
    assert main(base + ["--threads", "8", "--out-dir", str(b)]) == 0
    capsys.readouterr()
    for name in ("survival_1.csv", "survival_m2.csv", "summary_1.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_analyze_json(capsys):
    assert main(["analyze", "--protocol", "builtin:srw?d=1"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["classes"][0]["recurrent"] is True
    assert body["classes"][0]["drift"] == ["0"]


# a zero-probability entry that leaves its class is no edge
ZERO_EXIT = ("dim 1\nscouts 1\nstates a c\ninit 1 a\n"
             "trans a * -> 1 a (+1) | 0 c (0)\ntrans c * -> 1 c (0)\n")


def test_analyze_zero_probability_exit(tmp_path, capsys):
    proto = tmp_path / "zero_exit.proto"
    proto.write_text(ZERO_EXIT)
    assert main(["analyze", "--protocol", str(proto)]) == 0
    assert json.loads(capsys.readouterr().out)["protocol_hash"]


def test_analyze_exit_below_float_range(tmp_path, capsys):
    # 10^-400 is 0.0 as a float, but it is an edge: `a` is transient.  Read
    # as no edge, `a` was a closed class and its exact stationary check
    # failed with an ArithmeticError traceback
    tiny, rest = "1/1" + "0" * 400, "9" * 400 + "/1" + "0" * 400
    proto = tmp_path / "tiny_exit.proto"
    proto.write_text("dim 1\nscouts 1\nstates a c\ninit 1 a\n"
                     f"trans a * -> {rest} a (+1) | {tiny} c (0)\ntrans c * -> 1 c (0)\n")
    assert main(["analyze", "--protocol", str(proto)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert [(c["states"], c["recurrent"]) for c in body["classes"]] == \
        [(["a"], False), (["c"], True)]


def test_analyze_bad_ray_width_rejected_before_loading(capsys):
    assert main(["analyze", "--protocol", "no/such/file", "--ray-width", "nan"]) == 1
    assert capsys.readouterr().err.startswith("usage error: --ray-width")


# sha256 of `analyze` stdout, recorded with the per-step ray-width loop that
# block stepping replaced: estimated widths in sup norm (srw) and across a
# drift (the two-state protocol)
DRIFT2 = ("dim 2\nscouts 1\nstates a b\ninit 1 a\n"
          "trans a * -> 1/2 a (+1,0) | 1/2 b (0,+1)\n"
          "trans b * -> 1/3 a (0,-1) | 2/3 b (+1,+1)\n")


@pytest.mark.parametrize("argv,digest", [
    (["--protocol", "builtin:srw?d=2"],
     "8b06c3169bf8a873f52f5327ff15d083a91bc54f56a95ca690d47c975eabd2e8"),
    (["--protocol", "builtin:srw?d=2", "--seed", "5"],
     "eaba47a061b7a5f6348fdec43c8e1f5bd480b8da33b8ad410d71973952dbf96f"),
    (["--protocol", "builtin:anchored_geometric?d=2,p=1/2", "--scout", "2"],
     "2ec01c407d63a2270f3a2f71a8394d2a07f211423ff63de9f9f746442b4322a1"),
    # the ray reads its class's direction, 0.8320502943378436 (it recomputed
    # it with hypot, as ...437, and its width was 31.242254698199485)
    (["--protocol", "DRIFT2", "--seed", "2"],
     "ef36031a64d8f98771d0b36b62b52781ce847163938c19bb7eceba932d90434a"),
    # user widths on drifted and degenerate classes, on an ambiguous
    # zero-drift class, and a zero-probability exit
    (["--protocol", "builtin:anchored_geometric?d=2,p=1/2", "--scout", "2",
      "--ray-width", "3"],
     "01feeb29f974a125fddcab7402a0e6b2b0be92fad08ae0b2d559a4264d531e3d"),
    (["--protocol", "builtin:srw?d=2", "--ray-width", "3"],
     "43f17ee624fc53602468d0763e942e08a155da93e73d0068a8637562619a22c0"),
    (["--protocol", "ZERO_EXIT"],
     "0d4d34fbbdf6be970a10cfe9afd5404b70a981d3d15b85aa8186a79430992930"),
])
def test_analyze_bytes_pinned(argv, digest, tmp_path, capsys):
    files = {"DRIFT2": DRIFT2, "ZERO_EXIT": ZERO_EXIT}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(["analyze"] + [str(tmp_path / a) if a in files else a for a in argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_analyze_with_rays(capsys):
    assert main(["analyze", "--protocol", "builtin:srw?d=2", "--ray-width", "4"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["ray_domain"]["rays"][0]["zero_flag"] is True


def test_renewal_csv_and_tail(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["renewal", "--protocol", "builtin:anchored_geometric?d=1,p=1/2",
                 "--horizon", "512", "--tail", "--trials", "200",
                 "--cap", "2048", "--seed", "3", "--out-dir", str(out)]) == 0
    text = (out / "renewal.csv").read_text()
    assert text.splitlines()[0] == "k,Y,A,R"
    tail = json.loads((out / "meeting_tail.json").read_text())
    assert tail["passed"] is True


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon=4\nseed=9\n")
    assert main(["simulate", "--protocol", "builtin:srw?d=1",
                 "--config", str(cfg)]) == 0
    out1 = capsys.readouterr().out
    assert main(["simulate", "--protocol", "builtin:srw?d=1",
                 "--horizon", "4", "--seed", "9"]) == 0
    assert capsys.readouterr().out == out1


def test_config_cli_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon=4\n")
    assert main(["simulate", "--protocol", "builtin:srw?d=1",
                 "--config", str(cfg), "--horizon", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # header + 3 configurations


@pytest.mark.parametrize("argv", [
    ["hitting", "--protocol", "builtin:srw?d=1", "--targets", "1", "--cap", "0"],
    ["hitting", "--protocol", "builtin:srw?d=1", "--targets", "1", "--replicas", "0"],
    ["simulate", "--protocol", "builtin:srw?d=1", "--horizon", "-3"],
    ["simulate", "--protocol", "builtin:srw?d=1", "--replica", "-1"],
    ["simulate", "--protocol", "builtin:srw?d=1", "--replica", str(2**32)],
    ["lemma", "lemma50", "--trials", "0"],
    ["simulate", "--protocol", "builtin:srw?d=1", "--seed", "-1"],
    ["hitting", "--protocol", "builtin:srw?d=1", "--targets", "1", "--seed", str(2**64)],
    # flags a subcommand does not read are not accepted
    ["oracle", "--law", "srw", "--event", "hit:1", "--horizon", "3", "--seed", "1"],
    ["analyze", "--protocol", "builtin:srw?d=1", "--replicas", "5"],
    ["renewal", "--protocol", "builtin:independent_walks?d=1,c=2", "--horizon", "8",
     "--threads", "2"],
    ["simulate", "--protocol", "builtin:srw?d=1", "--horizon", "2", "--cap", "5"],
    ["hitting", "--protocol", "builtin:srw?d=1", "--targets", "1", "--replicas", "10",
     "--cap", "16", "--format", "json"],
    ["lemma", "lemma50", "--trials", "100", "--replicas", "5"],
    # library argument checks, made at the CLI boundary
    ["analyze", "--protocol", "builtin:srw?d=1", "--scout", "3"],
    ["analyze", "--protocol", "builtin:srw?d=1", "--scout", "0"],
    ["renewal", "--protocol", "builtin:independent_walks?d=1,c=2", "--horizon", "8",
     "--tail", "--trials", "5", "--k-min", "0"],
    ["renewal", "--protocol", "builtin:independent_walks?d=1,c=2", "--horizon", "8",
     "--tail", "--trials", "5", "--k-min", "5", "--k-max", "2"],
    # malformed laws, intervals, events and targets
    ["lemma", "escape", "--law", "bogus"],
    ["lemma", "escape", "--law", "1/2:1;1/3:-1"],
    ["lemma", "escape", "--law", "1/0:1"],
    ["lemma", "corridor", "--law2", "bogus"],
    ["lemma", "corridor", "--law2", "srw", "--interval", "5"],
    ["lemma", "corridor", "--law2", "srw", "--interval", "a:b"],
    ["oracle", "--law", "bogus", "--event", "hit:1", "--horizon", "3"],
    ["oracle", "--law", "srw", "--law2", "1/2:1;1/3:-1", "--event", "meeting",
     "--horizon", "3"],
    ["oracle", "--law", "srw", "--event", "hit:x", "--horizon", "3"],
    ["oracle", "--law", "srw", "--event", "meeting", "--horizon", "3"],
    ["hitting", "--protocol", "builtin:srw?d=1", "--targets", "99999999999999999999"],
    ["hitting", "--protocol", "builtin:srw?d=1", "--targets", "-9223372036854775809"],
    ["hitting", "--protocol", "builtin:srw?d=1", "--targets", "a"],
    # the exact oracle needs integer starts; look radii must be finite
    ["oracle", "--law", "srw", "--event", "hit:1", "--horizon", "3", "--s0", "0.5"],
    ["oracle", "--law", "srw", "--law2", "srw", "--event", "meeting", "--horizon", "3",
     "--s02", "-1.5"],
    *(["oracle", "--law", "srw", "--event", "hit:1", "--horizon", "3", "--s0", v]
      for v in ("nan", "inf", "1/0", "1e400.5")),
    ["lemma", "escape", "--law", "1/2:1,1,nan;1/2:1", "--x", "-5", "--trials", "100",
     "--horizon", "16"],
    ["oracle", "--law", "1/2:1,1,inf;1/2:-1", "--event", "lookaround:3", "--horizon", "3"],
    # displacements must be finite: 1.0e400 parses to an infinite float
    ["lemma", "escape", "--law", "1/2:1.0e400;1/2:-1", "--x", "-5", "--trials", "50",
     "--horizon", "16"],
    ["oracle", "--law", "1/2:1.0e400;1/2:-1", "--event", "hit:2", "--horizon", "3"],
    # integer displacements are int64: 10**400 overflowed converting to
    # float, and 2**63 wrapped to -2**63
    ["oracle", "--law", f"1/2:{10**400};1/2:-1", "--event", "hit:2", "--horizon", "3"],
    ["lemma", "escape", "--law", "1/2:9223372036854775808;1/2:-1", "--x", "-5",
     "--trials", "50", "--horizon", "16"],
    # a ray width must be finite and positive: nan was written as JSON NaN,
    # and widths <= 0 gave rays that contain no point
    *(["analyze", "--protocol", "builtin:srw?d=2", "--ray-width", w]
      for w in ("nan", "-5", "0", "inf")),
    # lemma floats must be finite: --x inf gave a LinAlgError traceback,
    # --rho inf an OverflowError from int(8 * rho**2), --rho nan ran to a
    # FAIL verdict
    ["lemma", "reach-tail", "--x", "inf", "--trials", "5"],
    ["lemma", "exit-time", "--rho", "inf", "--trials", "5"],
    ["lemma", "exit-time", "--rho", "nan", "--trials", "5"],
    ["lemma", "corridor", "--law2", "srw", "--s02", "nan", "--trials", "5"],
    # an integer a float would round must fit int64
    ["lemma", "escape", "--law", "up", "--s0", "92233720368547758090", "--trials", "5"],
    ["lemma", "escape", "--law", "up", "--s0", "1e400", "--trials", "5"],
    ["lemma", "corridor", "--law2", "srw", "--interval=-inf:2", "--trials", "5"],
    # negative counts: --n -5 passed, --threads -3 was accepted silently
    ["lemma", "deviation", "--n", "-5", "--trials", "5"],
    ["hitting", "--protocol", "builtin:srw?d=1", "--targets", "1", "--replicas", "5",
     "--cap", "8", "--threads", "-3"],
    # displacements are integers: float steps ran, summed in float per block
    ["oracle", "--law", "1/2:0.5;1/2:-0.5", "--event", "hit:1", "--horizon", "3"],
    ["lemma", "reach-tail", "--law", "1/2:0.5;1/2:-0.5", "--trials", "5"],
])
def test_edge_inputs_exit_usage(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


def test_lemma_offsets_beyond_int64_exit_one_line(capsys):
    # 33 steps of 2**62 wrapped the int64 walk offsets: the escape check
    # passed with estimate 0.34, where the walk escapes with probability 15/16
    assert main(["lemma", "escape", "--law", "1/2:4611686018427387904;1/2:-1",
                 "--x", "-5", "--trials", "50", "--horizon", "16"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("precondition violation:")


@pytest.mark.parametrize("argv,same", [
    (["hitting", "--protocol", "builtin:srw?d=2", "--targets", "-2,1", "--replicas", "5",
      "--cap", "64"], ["--targets=-2,1"]),
    (["hitting", "--protocol", "builtin:srw?d=1", "--targets", "-1;2", "--replicas", "5",
      "--cap", "64"], ["--targets=-1;2"]),
    # -2:2 is the flag's default
    (["lemma", "corridor", "--law2", "srw", "--s0", "8", "--s02", "-8", "--trials", "50",
      "--cap", "64", "--interval", "-2:2"], []),
])
def test_negative_leading_option_values(argv, same, capsys):
    # argparse took a value starting with "-" that is not a plain number
    # for an option: "expected one argument"
    code = main(argv)
    assert code in (0, 3)
    out = capsys.readouterr().out
    flag = argv.index("--targets" if same else "--interval")
    assert main(argv[:flag] + same + argv[flag + 2:]) == code
    assert capsys.readouterr().out == out


def test_config_key_of_absent_flag_exits_usage(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\n")
    assert main(["oracle", "--law", "srw", "--event", "hit:1", "--horizon", "3",
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


def test_config_before_subcommand_exits_usage(tmp_path, capsys):
    # the config's value landed where the subcommand belongs: "invalid choice: '2'"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon=2\n")
    assert main(["--config", str(cfg), "simulate", "--protocol", "builtin:srw?d=1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["usage error: --config must follow the subcommand"]


def test_builtin_scout_count_it_cannot_honour_exits_usage(capsys):
    # printed a one-scout trace with exit 0
    assert main(["simulate", "--protocol", "builtin:srw?d=2,c=3", "--horizon", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "protocol error: builtin 'srw' has 1 scout(s), not c=3"]


def test_builtin_disagreeing_scout_counts_exit_one_line(capsys):
    # scouts=5 was dropped without a word and two scouts ran
    assert main(["simulate", "--protocol", "builtin:independent_walks?d=1,c=2,scouts=5",
                 "--horizon", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "protocol error: builtin 'independent_walks' got c=2 and scouts=5, which disagree"]


RENEWAL_TAIL = ["renewal", "--protocol", "builtin:independent_walks?d=1,c=2",
                "--horizon", "16", "--trials", "20", "--cap", "64", "--seed", "4"]


@pytest.mark.parametrize("value,tail", [("1", True), ("true", True), ("TRUE", True),
                                        ("0", False), ("false", False)])
def test_config_switch(tmp_path, capsys, value, tail):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tail={value}\n")
    assert main(RENEWAL_TAIL + ["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert main(RENEWAL_TAIL + ["--tail"] * tail) == 0
    assert capsys.readouterr().out == out
    assert ('"n_gaps"' in out) == tail


def test_config_switch_bad_value_exits_usage(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tail=yes\n")
    assert main(RENEWAL_TAIL + ["--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


def test_analyze_inexact_rational_row(tmp_path, capsys):
    # an exact row 1e-10 short of 1 is invalid, not a crash in the analysis
    f = tmp_path / "short.proto"
    f.write_text(SRW_TEXT.replace("0.5 A (+1)", "4999999999/10000000000 A (+1)"))
    assert main(["analyze", "--protocol", str(f)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "row sum" in err[0]


def _plane_walk(tmp_path, origin):
    f = tmp_path / f"walk_{origin.replace(' ', '_')}.proto"
    f.write_text(f"dim 2\nscouts 1\nstates A\ninit 1 A\norigin {origin}\n"
                 "trans A * -> 0.5 A (1,0) | 0.5 A (0,1)\n")
    return str(f)


def test_hitting_beyond_key_range_exits_one_line(tmp_path, capsys):
    # d = 2 grid keys need every offset from the origin below 2**31, so a
    # cap of 2**31 unit steps is refused, whatever the origin
    f = _plane_walk(tmp_path, "0 0")
    assert main(["validate", f]) == 0
    capsys.readouterr()
    assert main(["hitting", "--protocol", f, "--targets", "1,0",
                 "--replicas", "4", "--cap", str(2**31)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("precondition violation:")
    assert "2**31" in err[0]


def test_hitting_from_a_far_d2_origin(tmp_path, capsys):
    # an origin past 2**31 exited 1 before any step; the keys are offsets
    # from the origin now, so it runs as the same walk from 0 does
    outs = []
    for origin, target in (("2147483653 -1099511627776", "2147483654,-1099511627776"),
                           ("0 0", "1,0")):
        assert main(["hitting", "--protocol", _plane_walk(tmp_path, origin),
                     "--targets", target, "--replicas", "40", "--cap", "64"]) == 0
        outs.append(json.loads(capsys.readouterr().out)[0])
    far, near = outs
    assert far.pop("target") == [2147483654, -1099511627776] and near.pop("target") == [1, 0]
    for key in ("label", "protocol_hash"):
        far.pop(key), near.pop(key)
    assert far == near and far["n_censored"] < 40


FAR_INT64_WALKS = {
    "simulate": "dim 1\nscouts 1\nstates A\ninit 1 A\norigin 9223372036854775805\n"
                "trans A * -> 0.5 A (+1) | 0.5 A (-1)\n",
    "renewal": "dim 1\nscouts 2\nstates A B\ninit 1 A\ninit 2 B\norigin 9223372036854775805\n"
               "trans A * -> 0.5 A (+1) | 0.5 A (-1)\ntrans B * -> 0.5 B (+1) | 0.5 B (-1)\n",
}


@pytest.mark.parametrize("command", sorted(FAR_INT64_WALKS))
def test_trace_leaving_int64_exits_one_line(command, tmp_path, capsys):
    # a trace that leaves int64 ended in an OverflowError traceback
    f = tmp_path / "far1.proto"
    f.write_text(FAR_INT64_WALKS[command])
    assert main([command, "--protocol", str(f), "--horizon", "10", "--seed", "2"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("precondition violation:")
    assert "int64" in err[0]


@pytest.mark.parametrize("spec", ["builtin:srw?d=1", "builtin:anchored_geometric?d=2"])
def test_renewal_needs_two_scouts(spec, capsys):
    # renewal extraction reads one scout pair; other scout counts stop
    # before the run with one line
    assert main(["renewal", "--protocol", spec, "--horizon", "10"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("precondition violation:")
    assert "two-scout" in err[0]


# sha256 of `hitting` and `renewal --tail` stdout, recorded before the
# verdict thresholds (fit floor, normal quantile, censoring flag, fit point
# and survivor counts) became named constants.  13% and 28% of the hitting
# runs are censored, so the lower-bound flag, the interval and the power
# fit all show
@pytest.mark.parametrize("argv,digest", [
    (["hitting", "--protocol", "builtin:srw?d=1", "--targets", "2;-6", "--replicas", "400",
      "--cap", "256", "--seed", "7"],
     "3933ac8feb5e4947d63371e1b23a04161d2ff74c6c3949a005b63408fa6ecb07"),
    (["renewal", "--protocol", "builtin:anchored_geometric?d=1,p=1/2", "--horizon", "512",
      "--tail", "--trials", "200", "--cap", "512", "--seed", "3"],
     "b06466f87225b33555c74d554a996e8915661d4244185719daea4860047608c7"),
])
def test_verdict_bytes_pinned(argv, digest, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,prefix", [
    # a trace past the memory limit raised ResourceLimitError, a traceback
    (["simulate", "--protocol", "builtin:srw?d=1", "--horizon", "30000000"],
     "budget exceeded:"),
    (["renewal", "--protocol", "builtin:independent_walks?d=1,c=2", "--horizon", "20000000"],
     "budget exceeded:"),
    # the censor marker cap + 1 overflowed int64: OverflowError from np.full
    (["hitting", "--protocol", "builtin:srw?d=1", "--targets", "1", "--replicas", "2",
      "--cap", str(2**63 - 1)], "precondition violation:"),
    (["renewal", "--protocol", "builtin:anchored_geometric?d=1,p=1/2", "--horizon", "16",
      "--tail", "--trials", "5", "--cap", str(2**63 - 1)], "precondition violation:"),
    (["lemma", "reach-tail", "--law", "zero", "--trials", "5", "--cap", str(2**63 - 1)],
     "precondition violation:"),
])
def test_limits_exit_one_line(argv, prefix, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)


@pytest.mark.parametrize("spec,prefix", [
    # each ended in a traceback: ValueError from int() or Fraction, and
    # ZeroDivisionError from Fraction
    ("srw?d=x", "protocol error:"),
    ("independent_walks?d=1,c=2.5", "protocol error:"),
    ("anchored_geometric?p=abc", "protocol error:"),
    ("anchored_geometric?d=1,p=3/0", "protocol error:"),
    ("anchored_geometric?p=nan", "protocol error:"),
    # returned the d = 2 sweeper
    ("anchored_geometric?d=3,p=1/2", "protocol error:"),
])
def test_unparsable_builtin_parameter_exits_one_line(spec, prefix, capsys):
    assert main(["hitting", "--protocol", "builtin:" + spec, "--targets", "1",
                 "--replicas", "2", "--cap", "8"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)


def test_analyze_solves_each_class_once(monkeypatch, capsys):
    # the ray domain reads the class report: one stationary solve and one
    # degeneracy check per recurrent class (10 here)
    from scoutsim import analysis
    calls = {"stationary_distribution": 0, "_degeneracy": 0}
    for name in calls:
        def counted(*args, _fn=getattr(analysis, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(analysis, name, counted)
    assert main(["analyze", "--protocol", "builtin:anchored_geometric?d=2,p=1/2",
                 "--scout", "2"]) == 0
    assert len(json.loads(capsys.readouterr().out)["ray_domain"]["rays"]) == 10
    assert calls == {"stationary_distribution": 10, "_degeneracy": 10}


@pytest.mark.parametrize("case", ["missing", "directory", "no_equals", "last"])
def test_config_errors_exit_one_usage_line(case, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon 2\n")
    path = {"missing": tmp_path / "none.cfg", "directory": tmp_path}.get(case, cfg)
    argv = ["simulate", "--protocol", "builtin:srw?d=1", "--config"]
    argv += [] if case == "last" else [str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    want = {"missing": "usage error: cannot read config: ",
            "directory": "usage error: cannot read config: ",
            "no_equals": "usage error: bad config line 'horizon 2'",
            "last": "usage error: --config needs a file path"}[case]
    assert len(err) == 1 and err[0].startswith(want)


def test_out_dir_on_a_regular_file_exits_io(srw_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["hitting", "--protocol", srw_file, "--targets", "1", "--replicas", "4",
                 "--cap", "16", "--out-dir", str(taken)]) == EXIT_IO == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("I/O error: ")
    assert taken.read_text() == ""
