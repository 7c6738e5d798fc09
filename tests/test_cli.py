"""Command-line behaviour: exit codes, file outputs, and the CSV schema."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tqaplan.cli import CSV_COLUMNS, main


def run(argv):
    return main([str(a) for a in argv])


def test_gen_solve_validate_cycle(tmp_path, capsys):
    domain = tmp_path / "g.json"
    assert run(["gen", "--type", "I", "--copies", "1", "--out", domain]) == 0
    plan = tmp_path / "g.plan.json"
    assert run(["solve", domain, "--max-copies", "1", "--plan-out", plan]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["verdict"] == "found" and record["n_found"] == 4
    assert plan.exists()
    assert run(["validate", domain, plan]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "valid"


def test_solve_exit_codes(tmp_path):
    no_raiser = tmp_path / "d.json"
    no_raiser.write_text(
        '{"fluents": ["g"], "skills": [{"name": "a", "kind": "delay", "duration": 2}],'
        ' "goal": ["g"]}'
    )
    assert run(["solve", no_raiser, "--max-n", "3"]) == 1
    assert run(["solve", tmp_path / "missing.json"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"fluents": [], "wat": 1}')
    assert run(["solve", bad]) == 3
    assert run(["solve", bad, "--no-strict-io", "--max-n", "1"]) == 0  # empty goal


def test_validate_detects_tampering(tmp_path, capsys):
    domain = tmp_path / "g.json"
    run(["gen", "--type", "I", "--copies", "1", "--out", domain])
    plan = tmp_path / "g.plan.json"
    run(["solve", domain, "--max-copies", "1", "--plan-out", plan])
    capsys.readouterr()
    doc = json.loads(plan.read_text())
    doc["actions"] = [a for a in doc["actions"] if a["name"] != "a3_g1"]
    plan.write_text(json.dumps(doc))
    assert run(["validate", domain, plan]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "invalid"
    rules = {v["rule"] for v in report["violations"]}
    assert "frame" in rules
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert run(["validate", domain, empty]) == 3


def test_encode_is_deterministic(tmp_path):
    domain = tmp_path / "d.json"
    domain.write_text(
        '{"fluents": ["g"], "skills": [{"name": "a", "kind": "delay", "duration": 2,'
        ' "raises": ["g"]}], "goal": ["g"]}'
    )
    out1, out2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    assert run(["encode", domain, "--n", "2", "--out", out1]) == 0
    assert run(["encode", domain, "--n", "2", "--out", out2]) == 0
    assert out1.read_text() == out2.read_text()
    assert out1.read_text().startswith("cspmodel 1\n")


def test_bench_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    assert (
        run(
            ["bench", "--type", "I", "--copies", "1..3", "--max-copies", "1", "--out", out]
        )
        == 0
    )
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    assert [r["copies"] for r in rows] == ["1", "2", "3"]
    assert all(r["verdict"] == "valid" for r in rows)
    assert all(r["n_found"] == "4" for r in rows)
    # appending keeps one header
    assert run(["bench", "--type", "I", "--copies", "1", "--max-copies", "1", "--out", out]) == 0
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4


def test_gen_rejects_bad_spec(capsys):
    assert run(["gen", "--type", "II", "--copies", "1"]) == 3


def test_geometric_probing_reports_non_minimality(tmp_path, capsys):
    domain = tmp_path / "d.json"
    domain.write_text(
        '{"fluents": ["g"], "skills": [{"name": "a", "kind": "delay", "duration": 2,'
        ' "raises": ["g"]}], "goal": ["g"]}'
    )
    assert run(["solve", domain, "--geometric-n", "--max-n", "4"]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["minimal_n_guaranteed"] is False


def test_solve_output_idempotent(tmp_path, capsys):
    domain = tmp_path / "g.json"
    run(["gen", "--type", "I", "--copies", "1", "--out", domain])
    first, second = tmp_path / "p1.json", tmp_path / "p2.json"
    assert run(["solve", domain, "--max-copies", "1", "--plan-out", first]) == 0
    assert run(["solve", domain, "--max-copies", "1", "--plan-out", second]) == 0
    assert first.read_text() == second.read_text()


ROOT = Path(__file__).resolve().parent.parent
NO_RAISER = (
    '{"fluents": ["g"], "skills": [{"name": "a", "kind": "delay", "duration": 2}],'
    ' "goal": ["g"]}'
)


def _solved_gadget(tmp_path):
    domain, plan = tmp_path / "g.json", tmp_path / "g.plan.json"
    assert run(["gen", "--type", "I", "--copies", "1", "--out", domain]) == 0
    assert run(["solve", domain, "--max-copies", "1", "--plan-out", plan]) == 0
    return domain, plan


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("command", ["validate", "gen", "encode"])
def test_closed_stdout_exits_quietly(tmp_path, command, buffered):
    domain, plan = _solved_gadget(tmp_path)
    argv = {
        "validate": ["validate", domain, plan],
        "gen": ["gen", "--type", "I", "--copies", "2"],
        "encode": ["encode", domain, "--n", "2"],
    }[command]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # buffered: the broken pipe shows at the final flush; unbuffered: at the first print
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    # the reading end is closed before the command starts, so its first
    # write to stdout meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "tqaplan.cli", *map(str, argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-copies", "0"],
        ["--max-n", "0"],
        ["--time-budget", "0"],
        ["--time-budget", "nan"],
        ["--horizon", "0"],
    ],
)
def test_bad_flag_values_are_input_errors(tmp_path, capsys, flags):
    domain = tmp_path / "d.json"
    domain.write_text(NO_RAISER)
    assert run(["solve", domain, *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_resource_limit_names_the_budget(tmp_path, capsys):
    domain = tmp_path / "g.json"
    assert run(["gen", "--type", "I", "--copies", "1", "--out", domain]) == 0
    capsys.readouterr()
    # the budget runs out while the first probe is built
    assert run(["solve", domain, "--max-copies", "1", "--time-budget", "1e-9"]) == 2
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert (record["verdict"], record["limit_reason"]) == ("limit", "time budget")
    assert captured.err == "resource limit reached: time budget\n"
    # an infinite budget is no limit
    assert run(["solve", domain, "--max-copies", "1", "--time-budget", "inf"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["verdict"], record["limit_reason"]) == ("found", None)


@pytest.mark.parametrize("command, name", [("solve", "find_plan"), ("encode", "encode")])
def test_running_out_of_memory_is_a_resource_limit(tmp_path, capsys, monkeypatch, command, name):
    """Exit 2 with one line, not a traceback and exit 1, which solve uses
    for stage counts exhausted."""
    domain = tmp_path / "g.json"
    assert run(["gen", "--type", "I", "--copies", "1", "--out", domain]) == 0
    capsys.readouterr()

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"tqaplan.cli.{name}", out_of_memory)
    assert run([command, domain]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "resource limit reached: memory\n")


def test_bench_bad_flag_value_is_an_input_error(tmp_path, capsys):
    """A bad value exits before any instance is solved: one error line, no
    per-instance line and no CSV; a bad range names its flag, and a refused
    value in a range is named with its field."""
    out = tmp_path / "sweep.csv"
    for flags, named, words in (
        (["--type", "I", "--copies", "1", "--max-copies", "0"], None, ()),
        (["--type", "II", "--copies", "3..1", "--height", "2"], "--copies", ()),
        (
            ["--type", "II", "--copies", "1", "--height", "7..9", "--max-n", "1"],
            None,
            ("height", "9"),
        ),
        (["--type", "II", "--copies", "0..2", "--height", "2"], None, ("copies", "0")),
        (["--type", "II", "--copies", "1..", "--height", "2"], "--copies", ()),
        (["--type", "II", "--copies", "1", "--height", "2..x"], "--height", ()),
    ):
        assert run(["bench", *flags, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: " if named else "error: ")
        assert err.count("\n") == 1
        assert all(word in err for word in words), err
        assert not out.exists()


def test_bench_reads_no_document_and_takes_no_strict_io_flag(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["bench", "--type", "I", "--copies", "1", "--max-copies", "1", "--out", out]
    assert run([*argv, "--no-strict-io"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_bench_opens_its_csv_before_solving(tmp_path, capsys, monkeypatch):
    """An --out that cannot be opened exits 3 with one line, and nothing is solved."""
    solved = []
    monkeypatch.setattr("tqaplan.cli.find_plan", lambda *args, **kwargs: solved.append(args))
    out = tmp_path / "missing" / "x.csv"
    argv = ["bench", "--type", "II", "--copies", "1", "--height", "2", "--max-n", "2"]
    assert run([*argv, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not solved


def test_directory_paths_are_input_errors(tmp_path, capsys):
    domain, plan = _solved_gadget(tmp_path)
    capsys.readouterr()
    for argv in (
        ["solve", tmp_path],
        ["encode", tmp_path],
        ["validate", tmp_path, plan],
        ["validate", domain, tmp_path],
    ):
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_exhaustion_names_the_last_probed_stage_count(tmp_path, capsys):
    domain = tmp_path / "d.json"
    domain.write_text(NO_RAISER)
    cases = (
        (["--horizon", "2"], "no plan up to 2 stages (--horizon 2 admits no more stages)"),
        (["--max-n", "3"], "no plan up to 3 stages (--max-n 3 reached)"),
        (["--max-n", "3", "--horizon", "5"], "no plan up to 3 stages (--max-n 3 reached)"),
        (["--max-n", "5", "--geometric-n"], "no plan at stage counts 1, 2, 4 (--max-n 5 reached)"),
        (
            ["--max-n", "5", "--horizon", "3", "--geometric-n"],
            "no plan at stage counts 1, 2 (--horizon 3 admits no more stages)",
        ),
    )
    for flags, message in cases:
        assert run(["solve", domain, *flags]) == 1
        assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "d.json", "--max-n", "abc"],
        ["solve"],
        [],
        ["bogus"],
        ["solve", "d.json", "--frob"],
        ["gen", "--type", "IV", "--copies", "1"],
        ["bench", "--type", "I"],
    ],
)
def test_argument_errors_are_input_errors(capsys, argv):
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert "usage: tqaplan" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--max-n", "3"], ["--time-budget", "5"], ["--geometric-n"]])
def test_encode_rejects_search_flags(tmp_path, capsys, flags):
    # encode builds one model for --n stages; it runs no search to limit
    domain = tmp_path / "d.json"
    domain.write_text(NO_RAISER)
    assert run(["encode", domain, "--n", "2", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


SPACED_NAMES = {
    "fluent": '{"fluents": ["a b"], "skills": [{"name": "s", "kind": "delay", "duration": 2,'
    ' "raises": ["a b"]}], "goal": ["a b"]}',
    "skill": '{"fluents": ["g"], "skills": [{"name": "s t", "kind": "delay", "duration": 2,'
    ' "raises": ["g"]}], "goal": ["g"]}',
    "temporal action": '{"fluents": ["g"], "skills": [{"name": "s", "kind": "delay",'
    ' "duration": 2, "raises": ["g"]}], "temporal_actions": [{"name": "t u", "skills": ["s"]}],'
    ' "goal": ["g"]}',
}


@pytest.mark.parametrize("kind", sorted(SPACED_NAMES))
def test_whitespace_in_a_domain_name_is_an_input_error(tmp_path, capsys, kind):
    domain = tmp_path / "d.json"
    domain.write_text(SPACED_NAMES[kind])
    plan = tmp_path / "p.plan.json"
    plan.write_text("{}")
    for argv in (["solve", domain], ["encode", domain], ["validate", domain, plan]):
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        # the message names the domain entity, not a model variable
        assert f"[name-without-whitespace] {kind} " in captured.err


def _skill(**fields) -> dict:
    return {"name": "a", "kind": "delay", "duration": 2, **fields}


def _domain(**doc) -> str:
    return json.dumps({"fluents": ["g"], "skills": [_skill(raises=["g"])], **doc})


def _one_skill(**fields) -> str:
    return _domain(skills=[_skill(**fields)])


# a domain document parse_domain, its reference checks or validate_domain
# rejects, and the one-line message that names why
DOMAIN_REJECTIONS = {
    "invalid-json": ('{"fluents": [', "$: not valid JSON"),
    "top-level": ("[]", "$: top level must be an object"),
    "cost-string": (_one_skill(cost="1/x"), "cost: not a rational: '1/x'"),
    "cost-zero-denominator": (_one_skill(cost="1/0"), "not a rational: '1/0'"),
    "cost-float": (_one_skill(cost=1.5), "a 'p/q' string, got 1.5"),
    "cost-bool": (_one_skill(cost=True), "cost must be an integer or a 'p/q' string"),
    "fluent-entry": (_domain(fluents=[3]), "$.fluents[0]: expected a name or an object"),
    "role": (_domain(fluents=[{"name": "g", "role": "gas"}]), "role: unknown role 'gas'"),
    "skill-entry": (_domain(skills=[3]), "$.skills[0]: expected an object"),
    "kind": (_one_skill(kind="instant"), "expected 'timer' or 'delay', got 'instant'"),
    "timer-duration": (_one_skill(kind="timer"), "timers take no fixed duration"),
    "duration-float": (_one_skill(duration=1.5), "duration: expected an integer, got 1.5"),
    "duration-bool": (_one_skill(duration=True), "expected an integer, got True"),
    "actors-not-a-list": (_one_skill(actors=1), "actors: expected a list, got int"),
    "actor-string": (_one_skill(actors=["1"]), "actors: expected integers, got '1'"),
    "constraint-entry": (_one_skill(constraints=[3]), "constraints[0]: expected an object"),
    "rel": (
        _one_skill(constraints=[{"fluent": "g", "rel": "meets"}]),
        "expected contains|overlaps|equals, got 'meets'",
    ),
    "pair-size": (_domain(interference=[["g"]]), "[0]: expected a pair, got 1 elements"),
    "pair-entry": (_domain(interference=[["g", 1]]), "expected a string, got int"),
    "temporal-action-entry": (_domain(temporal_actions=[3]), "actions[0]: expected an object"),
    "duplicate-skill": (_domain(skills=[_skill(), _skill()]), "duplicate skill names: ['a']"),
    "temporal-action-named-as-a-skill": (
        _domain(temporal_actions=[{"name": "a", "skills": ["a"]}]),
        "temporal action names must be fresh and unique",
    ),
    "duplicate-temporal-action": (
        _domain(
            skills=[_skill(), _skill(name="b")],
            temporal_actions=[{"name": "t", "skills": ["a"]}, {"name": "t", "skills": ["b"]}],
        ),
        "temporal action names must be fresh and unique",
    ),
    "constraint-fluent": (
        _one_skill(constraints=[{"fluent": "q", "rel": "contains"}]),
        "$.skills[a].constraints: unknown fluent 'q'",
    ),
    "raised-fluent": (_one_skill(raises=["q"]), "$.skills[a].raises: unknown fluent 'q'"),
    "goal-fluent": (_domain(goal=["q"]), "$.init/goal: unknown fluent 'q'"),
    "component-skill": (
        _domain(temporal_actions=[{"name": "t", "skills": ["a", "b"]}]),
        "$.temporal_actions[t]: unknown skill 'b'",
    ),
    "negative-cost": (_one_skill(cost=-1), "[non-negative-cost] skill 'a' has cost -1"),
    "actor-out-of-range": (_one_skill(actors=[3]), "[actor-range] skill 'a' names actors [3]"),
    "no-actor": (_one_skill(actors=[]), "[actor-range] skill 'a' restricts to no actor"),
    "empty-temporal-action": (
        _domain(temporal_actions=[{"name": "t", "skills": []}]),
        "[temporal-action-nonempty] 't' aggregates no skills",
    ),
    "repeated-component": (
        _domain(temporal_actions=[{"name": "t", "skills": ["a", "a"]}]),
        "[skill-single-aggregate] 't' repeats a skill in its sequence",
    ),
    "component-with-actors": (
        _domain(
            actors=2, skills=[_skill(actors=[1])], temporal_actions=[{"name": "t", "skills": ["a"]}]
        ),
        "[temporal-action-actors] skill 'a' in 't' must be available to every actor",
    ),
}


def _rejected(argv, capsys) -> str:
    """Run a command that must reject its input; its one error line."""
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("text, message", DOMAIN_REJECTIONS.values(), ids=DOMAIN_REJECTIONS.keys())
def test_a_rejected_domain_is_an_input_error(tmp_path, capsys, text, message):
    domain = tmp_path / "d.json"
    domain.write_text(text)
    assert message in _rejected(["solve", domain], capsys)


@pytest.mark.parametrize("text, message", DOMAIN_REJECTIONS.values(), ids=DOMAIN_REJECTIONS.keys())
def test_no_strict_io_rejects_a_domain_with_strict_modes_message(tmp_path, capsys, text, message):
    domain = tmp_path / "d.json"
    domain.write_text(text)
    assert message in _rejected(["solve", domain, "--no-strict-io"], capsys)


def _plan(**doc) -> str:
    segments = [{"truth": False, "start": 0, "end": 2}]
    return json.dumps({"n": 1, "boundaries": [0, 2], "fluents": {"g": segments}, **doc})


# a plan document plan_from_document rejects, and its one-line message
PLAN_REJECTIONS = {
    "top-level": ("[]", "top level must be an object"),
    "boundaries-not-a-list": (_plan(boundaries=2), "'boundaries' must be a list of integers"),
    "first-boundary": (_plan(boundaries=[1, 2]), "the dateline starts at time 0"),
    "fluents-not-an-object": (_plan(fluents=[]), "'fluents' must map names to segment lists"),
    "segments-do-not-tile": (
        _plan(
            fluents={
                "g": [{"truth": False, "start": 0, "end": 1}, {"truth": True, "start": 0, "end": 2}]
            }
        ),
        "segments of 'g' must tile [0, end) in order",
    ),
    "segments-stop-short": (
        _plan(fluents={"g": [{"truth": False, "start": 0, "end": 1}]}),
        "segments of 'g' cover [0, 1), expected [0, 2)",
    ),
    "duplicate-action": (
        _plan(actions=[{"name": "a", "actor": 1, "copy": 1, "start": 0, "end": 2}] * 2),
        "duplicate action entry a@1#1",
    ),
}


@pytest.mark.parametrize("text, message", PLAN_REJECTIONS.values(), ids=PLAN_REJECTIONS.keys())
def test_a_rejected_plan_is_an_input_error(tmp_path, capsys, text, message):
    domain, plan = tmp_path / "d.json", tmp_path / "p.plan.json"
    domain.write_text(_domain())
    plan.write_text(text)
    assert message in _rejected(["validate", domain, plan], capsys)
