import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import FIXTURES, REPO
from knotcocycle.cli import main
from oracles import whole_space_coboundary, whole_space_formulas


def run_cli(*argv, expect=0):
    cmd = [sys.executable, "-m", "knotcocycle", "--fixtures", str(FIXTURES), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == expect, proc.stderr + proc.stdout
    return proc.stdout


def test_pair_subcommand_prints_one():
    out = run_cli("pair",
                  "--arrow", str(FIXTURES / "formulas" / "v2_diagram.json"),
                  "--gauss", str(FIXTURES / "knots" / "trefoil.json"))
    assert out.strip() == "1"


def test_rot_test_output_format():
    out = run_cli("rot-test", "--knot", str(FIXTURES / "knots" / "unknot.json"))
    assert out.strip() == "alpha31(rot)=0, v2=0, identity holds"
    out = run_cli("rot-test", "--knot", "trefoil")
    assert out.strip() == "alpha31(rot)=-1, v2=1, identity holds"


def test_solve_reports_dimensions():
    out = json.loads(run_cli("solve"))
    assert out["alpha31_in_kernel"] is True
    assert out["kernel_dimension"] == 22
    assert out["quotient_dimension"] == 1


def test_verify_alpha31_passes():
    out = json.loads(run_cli("verify", "--formula", "alpha31"))
    assert out["violated_equations"] == [] and out["trivial"] is False


def test_eval_loop(tmp_path):
    from knotcocycle.cocycles import rot_loop
    from knotcocycle import fixtures_io as fio
    loop = rot_loop("trefoil")
    obj = {"initial": fio.diagram_to_json(loop.initial),
           "moves": [fio.move_to_json(m) for m in loop.moves]}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(obj))
    out = json.loads(run_cli("eval-loop", "--loop", str(path)))
    assert out["value"] == -1


# An R2 death undone by a birth closes up to relabelling only: the birth
# takes H2 H1 T1 T2 T3 H3 to H5 H4 T4 T5 T3 H3.
RELABELLED_CLOSURE = [{"kind": "R2_death", "data": [1, 2]},
                      {"kind": "R2_birth", "data": [0, 0, False, True, -1]}]


@pytest.mark.parametrize("moves", [[], RELABELLED_CLOSURE], ids=["empty", "relabelled"])
def test_eval_loop_accepts_a_loop_closed_up_to_relabelling(moves, tmp_path, capsys):
    from knotcocycle import fixtures_io as fio
    from knotcocycle.diagrams import parse_diagram
    initial = fio.diagram_to_json(parse_diagram("3; H2 H1 T1 T2 T3 H3; +-+"))
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"initial": initial, "moves": moves}))
    assert main(["--fixtures", str(FIXTURES), "eval-loop", "--loop", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"value": 0}


def test_coboundary_subcommand():
    out = json.loads(run_cli("coboundary",
                             "--diagram", str(FIXTURES / "formulas" / "v2_diagram.json")))
    assert all(v == [] for v in out.values())


# Together these have terms in each of I, II, Delta and Lambda.
COBOUNDARY_WORDS = {
    "deg2": "2; T1 T2 H1 H2",
    "deg3": "3; T1 T2 H1 T3 H2 H3",
    "deg4": "4; T1 T2 H1 T3 H2 T4 H3 H4",
    "deg4_all_kinds": "4; T1 H1 T2 T3 T4 H2 H4 H3",
}


@pytest.mark.parametrize("name", sorted(COBOUNDARY_WORDS))
def test_coboundary_output_matches_the_recorded_json(name, tmp_path, capsys):
    diagram = tmp_path / "diagram.txt"
    diagram.write_text(COBOUNDARY_WORDS[name] + "\n")
    assert main(["coboundary", "--diagram", str(diagram)]) == 0
    expected = (REPO / "tests" / "data" / "coboundary" / f"{name}.json").read_text()
    assert capsys.readouterr().out == expected


def test_stokes_check_small():
    out = json.loads(run_cli("stokes-check", "--trials", "25", "--max-degree", "3"))
    assert out["trials"] == 25 and out["failures"] == []


def test_invariants_degree_two():
    out = json.loads(run_cli("invariants", "--max-degree", "2"))
    assert out["kernel_dimension"] >= 2  # empty word, isolated arrows, v2


def test_invariants_prints_the_recorded_bytes():
    expected = (REPO / "tests" / "data" / "invariants_deg3.json").read_text()
    assert run_cli("invariants", "--max-degree", "3") == expected


def test_invariants_degree_four_prints_the_pinned_bytes():
    expected = (REPO / "tests" / "data" / "invariants_deg4.sha256").read_text().split()[0]
    out = run_cli("invariants", "--max-degree", "4")
    assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("max_degree", range(5))
def test_invariants_prints_the_whole_space_kernel(max_degree, capsys):
    assert main(["invariants", "--max-degree", str(max_degree)]) == 0
    out = json.loads(capsys.readouterr().out)
    diagrams, _ = whole_space_coboundary(max_degree)
    assert out["diagrams"] == len(diagrams)
    assert out["formulas"] == whole_space_formulas(max_degree)


def test_every_diagram_with_a_death_is_a_pivot_of_the_whole_space():
    from knotcocycle.coboundary import deaths
    from knotcocycle.rational_linalg import rref
    diagrams, mat = whole_space_coboundary(4)
    with_death = {i for i, a in enumerate(diagrams) if deaths(a)}
    assert len(with_death) == 1815 - 359  # 1 + 0 + 2 + 22 + 334 diagrams have none
    assert with_death <= set(rref(mat)[1])


def test_unknown_input_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    run_cli("pair", "--arrow", str(bad),
            "--gauss", str(FIXTURES / "knots" / "trefoil.json"), expect=2)
    run_cli("rot-test", "--knot", "not-a-knot", expect=2)


# command2 was `equations`, which reads no fixture now; the other ids keep their names.
@pytest.mark.parametrize("command", [
    ["solve"], ["verify"],
    ["eval-loop", "--loop", str(FIXTURES / "knots" / "trefoil.json")],
    ["rot-test", "--knot", "trefoil"],
], ids=["command0", "command1", "command3", "command4"])
@pytest.mark.parametrize("where", ["empty", "missing"])
def test_unreadable_fixtures_exit_2(command, where, tmp_path, capsys):
    fixtures = tmp_path / where
    if where == "empty":
        fixtures.mkdir()
    assert main(["--fixtures", str(fixtures), *command]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read"), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fixture, content, command", [
    ("formulas/alpha31.json", {}, ["verify"]),
    ("formulas/v2_diagram.json", [], ["rot-test", "--knot", "trefoil"]),
], ids=["alpha31", "v2_diagram"])
def test_malformed_fixtures_exit_2(fixture, content, command, tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    (fixtures / fixture).write_text(json.dumps(content))
    assert main(["--fixtures", str(fixtures), *command]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed fixture"), captured.err
    assert fixture.split("/")[-1] in err[0]
    assert captured.out == ""


READERS = {
    "pair": lambda bad: ["pair", "--arrow", bad, "--gauss", str(FIXTURES / "knots" / "trefoil.json")],
    "coboundary-json": lambda bad: ["coboundary", "--diagram", bad],
    "coboundary-text": lambda bad: ["coboundary", "--diagram", bad],
    "rot-test": lambda bad: ["rot-test", "--knot", bad],
    "rot-test-text": lambda bad: ["rot-test", "--knot", bad],
    "verify-formula": lambda bad: ["verify", "--formula", bad],
    "eval-loop": lambda bad: ["eval-loop", "--loop", bad],
    "verify-fixture": lambda bad: ["verify"],
}


@pytest.mark.parametrize("content", [None, "directory", b"\xff\xfe{\n", b"{not json",
                                     b"[" * 200_000 + b"]" * 200_000],
                         ids=["missing", "directory", "not-utf8", "not-json", "nested"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_refuses_a_bad_file_in_one_line(reader, content, tmp_path, capsys):
    fixtures = FIXTURES
    if reader == "verify-fixture":
        fixtures = tmp_path / "fixtures"
        shutil.copytree(FIXTURES, fixtures)
        bad = fixtures / "formulas" / "alpha31.json"
        bad.unlink()
    else:
        bad = tmp_path / ("bad.txt" if reader.endswith("-text") else "bad.json")
    if content == "directory":
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    assert main(["--fixtures", str(fixtures), *READERS[reader](str(bad))]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), captured.err
    assert captured.out == ""


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), captured.err
    assert captured.out == ""
    return err[0]


@pytest.mark.parametrize("reader", sorted(set(READERS) - {"verify-fixture"}))
def test_every_reader_refuses_a_file_one_byte_over_the_cap(reader, tmp_path, monkeypatch,
                                                           capsys):
    from knotcocycle import fixtures_io as fio
    # Padded past every fixture, so the fixtures a command reads first stay under the cap.
    size = 1 + max(f.stat().st_size for f in FIXTURES.rglob("*") if f.is_file())
    good = (FIXTURES / "knots" / "trefoil.json").read_bytes()
    monkeypatch.setattr(fio, "MAX_INPUT_BYTES", size - 1)
    bad = tmp_path / ("bad.txt" if reader.endswith("-text") else "bad.json")
    bad.write_bytes(good + b" " * (size - len(good)))
    assert main(["--fixtures", str(FIXTURES), *READERS[reader](str(bad))]) == 2
    assert f"cannot read {bad}: longer than {size - 1} bytes" in _one_error_line(capsys)


def test_a_file_at_the_cap_is_read(monkeypatch, capsys):
    from knotcocycle import fixtures_io as fio
    diagram = FIXTURES / "formulas" / "v2_diagram.json"  # the only file coboundary reads
    monkeypatch.setattr(fio, "MAX_INPUT_BYTES", len(diagram.read_bytes()))
    assert main(["coboundary", "--diagram", str(diagram)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_coboundary_of_an_endless_file_exits_2():
    import resource
    limit = 1 << 30  # without the cap the child fails here, not the machine
    proc = subprocess.run(
        [sys.executable, "-m", "knotcocycle", "coboundary", "--diagram", "/dev/zero"],
        capture_output=True, text=True, cwd=REPO,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    err = proc.stderr.splitlines()
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert len(err) == 1 and err[0].startswith("error:") and "longer than" in err[0]


def test_rot_test_on_a_knot_with_no_presentation_names_what_it_takes(tmp_path, capsys):
    from knotcocycle import fixtures_io as fio
    from knotcocycle.diagrams import parse_diagram
    knot = tmp_path / "two.json"
    knot.write_text(json.dumps(fio.diagram_to_json(parse_diagram("2; T1 T2 H1 H2; ++"))))
    assert main(["--fixtures", str(FIXTURES), "rot-test", "--knot", str(knot)]) == 2
    err = _one_error_line(capsys)
    assert "unknot, trefoil or figure8, by name or as a diagram file" in err
    assert "column events to cocycles.rot_loop" in err


def test_rot_test_reads_a_text_diagram_file(tmp_path, capsys):
    from knotcocycle import fixtures_io as fio
    knot = tmp_path / "tref.txt"
    knot.write_text(fio.load_json(FIXTURES / "knots" / "trefoil.json")["text"])
    assert main(["--fixtures", str(FIXTURES), "rot-test", "--knot", str(knot)]) == 0
    by_file = capsys.readouterr()
    assert main(["--fixtures", str(FIXTURES), "rot-test", "--knot", "trefoil"]) == 0
    assert by_file == capsys.readouterr()
    assert by_file.out == "alpha31(rot)=-1, v2=1, identity holds\n"


# The files each command reads: fixtures by their path in the fixture
# directory, other files by name.
READS = {
    "rot-test-name": (["rot-test", "--knot", "figure8"],
                      ["formulas/alpha31.json", "formulas/v2_diagram.json"]),
    "rot-test-file": (["rot-test", "--knot", "{fixtures}/knots/figure8.json"],
                      ["formulas/alpha31.json", "formulas/v2_diagram.json",
                       "knots/figure8.json"]),
    "eval-loop": (["eval-loop", "--loop", str(REPO / "tests" / "data" / "rot_loops" /
                                              "trefoil+figure8.json")],
                  ["formulas/alpha31.json", "trefoil+figure8.json"]),
    "solve": (["solve"], ["formulas/alpha31.json"]),
    "verify": (["verify"], ["formulas/alpha31.json"]),
    "equations": (["equations"], []),
}


@pytest.mark.parametrize("command", sorted(READS))
def test_each_command_reads_only_its_files(command, tmp_path, monkeypatch, capsys):
    from pathlib import Path
    from knotcocycle import fixtures_io as fio
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    argv, expected = READS[command]
    reads = []
    read = fio.read

    def recording_read(path, parse, what):
        path = Path(path)
        reads.append(path.relative_to(fixtures).as_posix()
                      if path.is_relative_to(fixtures) else path.name)
        return read(path, parse, what)

    monkeypatch.setattr(fio, "read", recording_read)
    argv = [a.format(fixtures=fixtures) for a in argv]
    assert main(["--fixtures", str(fixtures), *argv]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(reads) == expected


# sha256 of each system command's stdout, the bytes it printed when the
# tetrahedron pair was still read from strata/fig9_tetra.json.
SYSTEM_STDOUT_SHA256 = {
    "solve": "de83b2df45b490fbba3ca29ccc36d5c3699d54f0a4469124f8658149713477b1",
    "verify": "cc6b26a8afa687e6eb2a0e0b43e1569cd4e3f9e1908a5f7cc9578a05d3302d5b",
    "equations": "c2e83f54457d94330e309cc225b90b7c0d49b67f8e425e03e1b5b2616d71a018",
}


@pytest.mark.parametrize("command, kept", [
    ("solve", ["formulas"]), ("verify", ["formulas"]), ("equations", []),
], ids=["solve", "verify", "equations"])
def test_the_system_commands_need_no_strata_fixture(command, kept, tmp_path):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    for name in kept:
        shutil.copytree(FIXTURES / name, fixtures / name)
    env = dict(os.environ)
    env.pop("KNOT_COCYCLE_FIXTURES", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "knotcocycle", "--fixtures", str(fixtures),
                           command], capture_output=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == SYSTEM_STDOUT_SHA256[command]


def test_a_corrupted_tetrahedron_fixture_does_not_change_solve(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    (fixtures / "strata" / "fig9_tetra.json").write_text("{}")
    assert main(["--fixtures", str(fixtures), "solve"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SYSTEM_STDOUT_SHA256["solve"]


def test_rot_test_needs_only_the_formulas(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES / "formulas", fixtures / "formulas")
    text = tmp_path / "tref.txt"
    text.write_text(json.loads((FIXTURES / "knots" / "trefoil.json").read_text())["text"])
    knots = ["unknot", "trefoil", "figure8", str(text),
             *(str(f) for f in sorted((FIXTURES / "knots").glob("*.json")))]
    for knot in knots:
        assert main(["--fixtures", str(fixtures), "rot-test", "--knot", knot]) == 0, knot
        assert "identity holds" in capsys.readouterr().out


def test_determinism_byte_identical():
    one = run_cli("equations")
    two = run_cli("equations")
    assert one == two


def test_matrix_export(tmp_path):
    out_path = tmp_path / "matrix.txt"
    run_cli("equations", "--matrix-out", str(out_path))
    lines = out_path.read_text().strip().splitlines()
    assert lines, "matrix export must not be empty"
    for line in lines[:5]:
        r, c, val = line.split()
        int(r), int(c)
        num, den = val.split("/")
        int(num), int(den)


def test_top_level_fixtures_used_outside_the_repo(tmp_path):
    # No ./fixtures in tmp_path: the run must read the top-level --fixtures.
    env = dict(os.environ)
    env.pop("KNOT_COCYCLE_FIXTURES", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "knotcocycle", "--fixtures", str(FIXTURES),
           "rot-test", "--knot", "unknot"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "alpha31(rot)=0, v2=0, identity holds"


def test_common_option_after_subcommand_wins(capsys):
    diagram = str(FIXTURES / "formulas" / "v2_diagram.json")
    assert main(["--format", "text", "coboundary", "--diagram", diagram]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Delta:"
    assert main(["--format", "text", "coboundary", "--format", "json",
                 "--diagram", diagram]) == 0
    assert json.loads(capsys.readouterr().out)["Delta"] == []


@pytest.mark.parametrize("flags", [
    ["--trials", "-1"],
    ["--max-degree", "-4"],
    ["--trials", "-5"],
    ["--max-degree", "-1"],
    ["--max-degree", "9"],  # above the degree cap
])
def test_stokes_check_rejects_out_of_range_inputs(flags, capsys):
    assert main(["stokes-check", *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_invariants_rejects_negative_degree(capsys):
    for degree in ("-3", "5"):  # 5 is above the degree cap
        assert main(["invariants", "--max-degree", degree]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert captured.out == ""


def test_pair_rejects_a_sign_string_with_other_characters(tmp_path, capsys):
    gauss = tmp_path / "gauss.txt"
    gauss.write_text("2; T1 T2 H1 H2; +x\n")
    arrow = tmp_path / "arrow.txt"
    arrow.write_text("2; T1 T2 H1 H2\n")
    assert main(["pair", "--arrow", str(arrow), "--gauss", str(gauss)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


def test_pair_rejects_more_assignments_than_the_cap_before_any_work(tmp_path, capsys):
    # P(20, 10) = 670,442,572,800 assignments: hours of work if attempted.
    arrow = tmp_path / "arrow.txt"
    arrow.write_text("10; " + " ".join(f"T{i} H{i}" for i in range(1, 11)) + "\n")
    gauss = tmp_path / "gauss.txt"
    gauss.write_text("20; " + " ".join(f"T{i} H{i}" for i in range(1, 21)) + "; " + "+" * 20 + "\n")
    assert main(["pair", "--arrow", str(arrow), "--gauss", str(gauss)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "670,442,572,800" in err[0]
    assert captured.out == ""


def test_pair_rejects_a_sign_for_an_absent_arrow(tmp_path, capsys):
    from knotcocycle import fixtures_io as fio
    gauss = fio.load_json(FIXTURES / "knots" / "trefoil.json")
    gauss["signs"]["7"] = -1
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(gauss))
    arrow = str(FIXTURES / "formulas" / "v2_diagram.json")
    assert main(["pair", "--arrow", arrow, "--gauss", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("moves", [
    [{"kind": "R1_birth", "data": [0, "TH", 1]}],  # does not close
    [{"kind": "R1_death", "data": [99]}],          # no such arrow
    [{"kind": "R1_birth", "data": ["x", "TH", 1]}],  # gap is not an integer
    7,                                             # not a list of moves
])
def test_eval_loop_rejects_malformed_loops(moves, tmp_path, capsys):
    from knotcocycle import fixtures_io as fio
    initial = fio.load_json(FIXTURES / "knots" / "trefoil.json")
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"initial": initial, "moves": moves}))
    assert main(["--fixtures", str(FIXTURES), "eval-loop", "--loop", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


def test_eval_loop_rejects_an_initial_diagram_without_signs(tmp_path, capsys):
    from knotcocycle import fixtures_io as fio
    from knotcocycle.germs import enumerate_arrow_3germs
    germ = next(iter(enumerate_arrow_3germs(3)))  # an arrow diagram and its R3 move
    moves = [{"kind": "R3", "data": list(germ.dist)}] * 2
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"initial": fio.diagram_to_json(germ.g1), "moves": moves}))
    assert main(["--fixtures", str(FIXTURES), "eval-loop", "--loop", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("loop", [[1, 2, 3], "loop"], ids=["list", "string"])
def test_eval_loop_rejects_a_loop_that_is_not_an_object(loop, tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop))
    assert main(["--fixtures", str(FIXTURES), "eval-loop", "--loop", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


def test_equations_rejects_an_unwritable_matrix_path(tmp_path, capsys):
    target = tmp_path / "missing" / "m.txt"
    assert main(["--fixtures", str(FIXTURES), "equations", "--matrix-out", str(target)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == "" and not target.exists()


@pytest.mark.parametrize("spoil", [
    lambda t: t.update(coeff=[1, 0]),
    lambda t: t.update(coeff=[0.1, 1]),
    lambda t: t["germ"].update(dist=5),
    lambda t: t["germ"]["g1"]["word"][0].update(id=1.5),
    lambda t: t["germ"]["g1"]["word"][0].update(kind=["T"]),
], ids=["zero-denominator", "float-coeff", "scalar-r3-dist", "float-arrow-id", "list-token-kind"])
def test_verify_rejects_malformed_formulas(spoil, tmp_path, capsys):
    from knotcocycle import fixtures_io as fio
    formula = fio.load_json(FIXTURES / "formulas" / "alpha31.json")
    spoil(next(t for t in formula if t["germ"]["kind"] == "R3"))
    path = tmp_path / "formula.json"
    path.write_text(json.dumps(formula))
    assert main(["--fixtures", str(FIXTURES), "verify", "--formula", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


def test_verify_rejects_an_r2_term_with_one_arrow_twice(tmp_path, capsys):
    from knotcocycle import fixtures_io as fio
    from knotcocycle.coboundary import coboundary
    from knotcocycle.germs import enumerate_arrow_diagrams
    germ = next(g for a in enumerate_arrow_diagrams(3) for g in coboundary(a).keys()
                if g.kind == "R2")
    term = {"germ": fio.germ_to_json(germ), "coeff": [1, 1]}
    term["germ"]["dist"] = [3, 3]
    path = tmp_path / "formula.json"
    path.write_text(json.dumps([term]))
    assert main(["--fixtures", str(FIXTURES), "verify", "--formula", str(path)]) == 2
    assert "an R2 germ needs two distinct arrows" in _one_error_line(capsys)


def _rot_loop_file(tmp_path, name: str) -> str:
    from knotcocycle import fixtures_io as fio
    from knotcocycle.cocycles import rot_loop
    loop = rot_loop(name)
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"initial": fio.diagram_to_json(loop.initial),
                                "moves": [fio.move_to_json(m) for m in loop.moves]}))
    return str(path)


@pytest.mark.parametrize("command", ["verify", "eval-loop"])
def test_formula_whose_germ_is_not_its_move_exits_2(command, tmp_path, capsys):
    from knotcocycle import fixtures_io as fio
    formula = fio.load_json(FIXTURES / "formulas" / "alpha31.json")
    formula[0]["germ"]["g0"] = formula[0]["germ"]["g1"]
    path = tmp_path / "formula.json"
    path.write_text(json.dumps(formula))
    extra = ["--loop", _rot_loop_file(tmp_path, "trefoil")] if command == "eval-loop" else []
    assert main(["--fixtures", str(FIXTURES), command, "--formula", str(path), *extra]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["verify", "eval-loop"])
def test_formula_with_a_signed_germ_exits_2(command, tmp_path, capsys):
    from knotcocycle import fixtures_io as fio
    from knotcocycle.cocycles import rot_loop
    germ = next(g for g in rot_loop("trefoil").germs if g.kind == "R3")
    path = tmp_path / "formula.json"
    path.write_text(json.dumps([{"germ": fio.germ_to_json(germ.canonical()[0]),
                                 "coeff": [1, 1]}]))
    extra = ["--loop", _rot_loop_file(tmp_path, "trefoil")] if command == "eval-loop" else []
    assert main(["--fixtures", str(FIXTURES), command, "--formula", str(path), *extra]) == 2
    assert "arrow germ" in _one_error_line(capsys)


def test_a_file_of_the_wrong_kind_is_echoed_in_a_short_line(capsys):
    formula = FIXTURES / "formulas" / "alpha31.json"  # a list of terms, not a diagram
    assert main(["coboundary", "--diagram", str(formula)]) == 2
    err = _one_error_line(capsys)
    assert str(formula) in err and "must be a JSON object" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize("argv", [
    ["solve"], ["verify"], ["rot-test", "--knot", "figure8"],
    ["eval-loop", "--loop", str(REPO / "tests" / "data" / "rot_loops" / "trefoil+figure8.json")],
], ids=["solve", "verify", "rot-test", "eval-loop"])
def test_integral_coefficients_print_what_fractions_print(argv, monkeypatch, capsys):
    """The formula files loaded as ints print the bytes they print as Fractions.

    fixturegen reads no formula file; test_full_regeneration_reproduces_fixtures
    checks its bytes.
    """
    from fractions import Fraction
    from knotcocycle import fixtures_io as fio
    from knotcocycle.diagrams import FormalSum
    read = fio.formula_from_json

    def as_fractions(obj):
        out = FormalSum()
        for g, c in read(obj).items():
            out.add(g, Fraction(c))
        return out

    def run() -> str:
        assert main(["--fixtures", str(FIXTURES), *argv]) == 0
        return capsys.readouterr().out

    with_ints = run()
    monkeypatch.setattr(fio, "formula_from_json", as_fractions)
    assert run() == with_ints
