import json
import os
import subprocess
import sys
from decimal import Decimal
from math import factorial
from pathlib import Path

import pytest

from revpal.circuits import parse_circuit
from revpal.cli import _build_parser, main
from revpal.perm import parse_permutation
from revpal.simulate import equivalent, equivalent_with_ancilla

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

WORKED_PERM = "(0 1)(3 5)(2 7)"

OR_CIRCUIT_TEXT = ".lines 3\nt -x1 -x2 x3\nt x3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestClassify:
    def test_worked_example(self, capsys):
        code, out = run(capsys, "classify", "--perm", WORKED_PERM)
        assert code == 0
        assert "alternative construction required" in out
        assert "lines: 3" in out

    def test_gate_involution(self, capsys):
        code, out = run(capsys, "classify", "--perm", "(0 4)(1 5)(2 6)(3 7)")
        assert code == 0
        assert "odd palindromic circuit on 3 lines" in out

    def test_identity_with_lines_flag(self, capsys):
        code, out = run(capsys, "classify", "--perm", "()", "--n", "2")
        assert code == 0
        assert "identity" in out

    def test_bad_permutation(self, capsys):
        assert main(["classify", "--perm", "(0 1"]) == 1

    def test_missing_argument(self, capsys):
        assert main(["classify"]) == 1

    def test_repeated_entry_gives_one_short_error_line(self, capsys):
        image = [0, *range(1023)]  # 0 twice, 1023 missing
        assert main(["classify", "--perm", " ".join(map(str, image))]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == "error: not a bijection on 0..1023: 1023 is missing from the image"

    def test_an_element_repeated_in_one_cycle_is_named_rightly(self, capsys):
        assert main(["classify", "--perm", "(0 1 0)"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: element 0 appears more than once\n"

    @pytest.mark.parametrize(
        "perm, shown",
        [
            ("(0 1_5)", "'1_5' at entry 2"),  # int() reads 15
            ("(0 +1)", "'+1' at entry 2"),
            ("(-0 1)", "'-0' at entry 1"),
            ("\u0661 0", "'\u0661' at entry 1"),  # an Arabic-Indic one
        ],
    )
    def test_only_ascii_digits_make_an_integer(self, capsys, perm, shown):
        # The rule of circuit files; int() alone accepts each of these.
        assert main(["classify", "--perm", perm]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad integer {shown}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--perm", " ".join(map(str, range(1023))) + " x"],  # bad last entry
            ["--perm", "(0 1)" * 299 + "(2 3"],  # the last cycle unclosed
            ["--perm", "9" * 5000],  # past CPython's int digit limit
            ["--perm", f"(0 {'9' * 4000})"],  # past every degree
            ["--perm", f"(0 {'9' * 4000})", "--n", "3"],
            ["--perm", "(0 1)", "--n", "9" * 4000],
        ],
        ids=[
            "bad-entry",
            "unclosed-cycle",
            "5000-digits",
            "4000-digit-element",
            "4000-digit-element-n3",
            "4000-digit-n",
        ],
    )
    def test_long_bad_permutation_gives_one_short_error_line(self, capsys, argv):
        assert main(["classify", *argv]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert len(line) < 200

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["census", "--n", "9" * 5000], "argument --n: invalid int value: '9999"),
            (
                ["synth", "--perm", "(0 1)", "--mode", "9" * 5000],
                "argument --mode: invalid choice: '9999",
            ),
            (["census", "--n", "3", *map(str, range(3000))], "unrecognized arguments: 0 1 2"),
        ],
        ids=["5000-digit-n", "5000-digit-mode", "3000-extra-arguments"],
    )
    def test_argparse_errors_give_one_short_error_line(self, capsys, argv, shown):
        # argparse would echo all of the rejected text: 5,000 characters and more.
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {shown}")
        assert "characters)" in line
        assert len(line) < 200


class TestSynth:
    def test_palindrome_mode_verifies(self, capsys, tmp_path):
        out_file = tmp_path / "t07.rev"
        code, out = run(
            capsys, "synth", "--perm", "(0 7)", "--mode", "palindrome",
            "-o", str(out_file),
        )
        assert code == 0
        assert "verified: true" in out
        circuit = parse_circuit(out_file.read_text())
        assert equivalent(circuit, parse_permutation("(0 7)"))

    def test_auto_routes_to_ancilla(self, capsys):
        code, out = run(capsys, "synth", "--perm", WORKED_PERM)
        assert code == 0
        assert "mode: ancilla" in out
        assert ".ancilla 4" in out

    def test_vgate_mode(self, capsys):
        code, out = run(capsys, "synth", "--perm", WORKED_PERM, "--mode", "vgate")
        assert code == 0
        assert "v x2 x3 x1" in out

    def test_output_reparses_and_reverifies(self, capsys, tmp_path):
        out_file = tmp_path / "worked.rev"
        code, _ = run(capsys, "synth", "--perm", WORKED_PERM, "-o", str(out_file))
        assert code == 0
        circuit = parse_circuit(out_file.read_text())
        assert equivalent_with_ancilla(circuit, parse_permutation(WORKED_PERM))
        code, out = run(
            capsys, "verify", "--circuit", str(out_file), "--perm", WORKED_PERM,
            "--ancilla",
        )
        assert code == 0
        assert "equivalent: true" in out

    def test_identity_synthesizes_empty(self, capsys):
        code, out = run(capsys, "synth", "--perm", "()", "--n", "2")
        assert code == 0
        assert "circuit: 0 gates, even, palindromic" in out

    def test_palindrome_mode_rejects_other_sizes(self, capsys):
        assert main(["synth", "--perm", WORKED_PERM, "--mode", "palindrome"]) == 1

    def test_non_involution_rejected(self, capsys):
        assert main(["synth", "--perm", "(0 1 2)"]) == 1

    @pytest.mark.parametrize(
        "mode, construction", [("ancilla", "ancilla"), ("vgate", "v-gate")]
    )
    @pytest.mark.parametrize(
        "perm, got",
        [
            ("0 1", "0 transpositions"),
            ("(0 1)", "1 transposition"),
            ("(0 1)(2 3)", "2 transpositions"),
            ("(0 1 2)", "no involution"),
        ],
    )
    def test_alternative_modes_name_their_construction(self, capsys, mode, construction, perm, got):
        assert main(["synth", "--perm", perm, "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the {construction} construction needs an involution whose "
            f"transposition count is not a power of two, got {got}\n"
        )

    @pytest.mark.parametrize("where", ["missing/x.rev", "."])
    def test_unwritable_output_exits_1(self, capsys, tmp_path, where):
        target = tmp_path / where
        assert main(["synth", "--perm", "(0 1)", "-o", str(target)]) == 1
        captured = capsys.readouterr()
        # The circuit is written before the report, so no report claims a
        # verified circuit that was never written.
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert captured.err.count("\n") == 1


class TestVerify:
    def test_wrong_permutation_exits_2(self, capsys, tmp_path):
        f = tmp_path / "or.rev"
        f.write_text(OR_CIRCUIT_TEXT)
        code, out = run(capsys, "verify", "--circuit", str(f), "--perm", "(0 1)",
                        "--n", "3")
        assert code == 2
        assert "equivalent: false" in out

    def test_right_permutation(self, capsys, tmp_path):
        f = tmp_path / "or.rev"
        f.write_text(OR_CIRCUIT_TEXT)
        code, out = run(
            capsys, "verify", "--circuit", str(f), "--perm", "(1 5)(2 6)(3 7)"
        )
        assert code == 0

    def test_missing_file(self, capsys):
        # "(0 1)" parses, so the exit comes from the missing file.
        assert main(["verify", "--circuit", "/nonexistent.rev", "--perm", "(0 1)"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read /nonexistent.rev: ")

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        # Under LC_ALL=C without UTF-8 mode the locale's encoding is ASCII,
        # so only an explicit encoding reads the comment below.
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )

        def revpal(*argv):
            return subprocess.run(
                [sys.executable, "-m", "revpal.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )

        utf8 = tmp_path / "utf8.rev"
        utf8.write_bytes(".lines 2\n# caf\u00e9\nt x1\n".encode("utf-8"))
        result = revpal("verify", "--circuit", str(utf8), "--perm", "(0 1)(2 3)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith("equivalent: true\n")
        latin1 = tmp_path / "latin1.rev"
        latin1.write_bytes(b".lines 2\n# caf\xe9\nt x1\n")
        result = revpal("simulate", "--circuit", str(latin1), "--all")
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: cannot read {latin1}: ")
        written = tmp_path / "worked.rev"
        result = revpal("synth", "--perm", WORKED_PERM, "-o", str(written))
        assert result.returncode == 0
        assert (GOLDEN / "synth_worked.txt").read_bytes().endswith(written.read_bytes())

    @pytest.mark.parametrize("subcommand", ["verify", "simulate"])
    def test_file_that_is_not_utf8_names_the_path(self, capsys, tmp_path, subcommand):
        f = tmp_path / "latin1.rev"
        f.write_bytes(b".lines 2\n# \xe9\nt x1\n")
        argv = [subcommand, "--circuit", str(f)]
        argv += ["--perm", "(0 1)"] if subcommand == "verify" else ["--all"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {f}: ")
        assert "codec can't decode" in captured.err
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("n", ["0", "17", "-1"])
@pytest.mark.parametrize(
    "subcommand", ["classify", "synth", "verify", "census", "census --brute-force"]
)
def test_line_count_override_out_of_range_exits_1(capsys, tmp_path, subcommand, n):
    f = tmp_path / "or.rev"
    f.write_text(OR_CIRCUIT_TEXT)
    argv = subcommand.split() + ["--n", n]
    if subcommand in ("classify", "synth", "verify"):
        argv += ["--perm", "(0 1)"]
    if subcommand == "verify":
        argv += ["--circuit", str(f)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --n wants a line count in 1..16, got {n}\n"


def test_calls_in_one_process_share_the_parser_but_no_options(capsys, tmp_path):
    assert _build_parser() is _build_parser()
    golden = (GOLDEN / "synth_worked.txt").read_text()
    f = tmp_path / "worked.rev"
    code, out = run(capsys, "synth", "--perm", WORKED_PERM, "-o", str(f))
    assert code == 0
    assert out.endswith(f"written: {f}\n")
    assert golden.endswith(f.read_text())
    assert run(capsys, "synth", "--perm", WORKED_PERM) == (0, golden)
    code, out = run(capsys, "verify", "--circuit", str(f), "--perm", WORKED_PERM, "--ancilla")
    assert (code, out.splitlines()[-1]) == (0, "equivalent: true")
    # Without --ancilla the 4-line file cannot match a degree-8 permutation.
    assert main(["verify", "--circuit", str(f), "--perm", WORKED_PERM]) == 1
    assert "cannot match degree 8" in capsys.readouterr().err
    for _ in range(2):
        code, out = run(capsys, "-h")
        assert code == 0
        assert out.startswith("usage: revpal")


class TestCensus:
    def test_formula_text(self, capsys):
        code, out = run(capsys, "census", "--n", "3")
        assert code == 0
        assert "palindromic: 343" in out

    def test_brute_force(self, capsys):
        code, out = run(capsys, "census", "--n", "3", "--brute-force")
        assert code == 0
        assert "method: brute-force" in out
        assert "self-inverse: 764" in out

    def test_brute_force_beyond_range_exits_3(self, capsys):
        assert main(["census", "--n", "4", "--brute-force"]) == 3

    @pytest.mark.parametrize("n", ["4", "16"])
    def test_brute_force_beyond_range_reason_is_an_error_line(self, capsys, n):
        assert main(["census", "--n", n, "--brute-force"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = captured.err.splitlines()[0]
        assert reason == f"error: brute-force census supports 1..3 lines, got {n}"

    def test_json_matches_formulas_exactly(self, capsys):
        from revpal.census import formula_census

        for n in (1, 2, 3, 4):
            code, out = run(capsys, "census", "--n", str(n), "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["rows"] == {
                name: str(value) for name, value in formula_census(n).rows.items()
            }

    def test_counts_beyond_the_int_str_digit_limit(self, capsys):
        # (2**11)! has 5,895 digits, past CPython's default 4300-digit limit.
        # Independent oracles: I(m) = I(m-1) + (m-1) I(m-2) and m!, rendered
        # by decimal, which has no digit limit.
        m = 1 << 11
        inv = [1, 1]
        for k in range(2, m + 1):
            inv.append(inv[k - 1] + (k - 1) * inv[k - 2])
        expected = {
            "reversible": str(Decimal(factorial(m))),
            "self-inverse": str(Decimal(inv[m])),
            "transposition": str(m * (m - 1) // 2),
        }
        code, out = run(capsys, "census", "--n", "11")
        assert code == 0
        text_rows = dict(line.split(": ") for line in out.splitlines()[1:])
        code, out = run(capsys, "census", "--n", "11", "--json")
        assert code == 0
        json_rows = json.loads(out)["rows"]
        for name, digits in expected.items():
            assert text_rows[name] == json_rows[name] == digits

    def test_census_beyond_sixteen_lines_exits_1(self, capsys):
        for n in ("17", "40"):
            assert main(["census", "--n", n]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --n wants a line count in 1..16, got {n}\n"


class TestSimulate:
    def test_single_input(self, capsys, tmp_path):
        f = tmp_path / "or.rev"
        f.write_text(OR_CIRCUIT_TEXT)
        code, out = run(capsys, "simulate", "--circuit", str(f), "--input", "100")
        assert code == 0
        assert "100 -> 101" in out

    def test_all_inputs(self, capsys, tmp_path):
        f = tmp_path / "or.rev"
        f.write_text(OR_CIRCUIT_TEXT)
        code, out = run(capsys, "simulate", "--circuit", str(f), "--all")
        assert code == 0
        assert "000 -> 000" in out
        assert out.count("->") == 8

    def test_semiclassical_flag(self, capsys, tmp_path):
        f = tmp_path / "vtv.rev"
        f.write_text(".lines 1\nv x1\nt x1\nv x1\n")
        code, out = run(capsys, "simulate", "--circuit", str(f), "--all")
        assert code == 0
        assert "mode: semiclassical" in out
        assert "0 -> 0" in out and "1 -> 1" in out
        # On a Toffoli-only circuit both models give the same rows; only
        # the mode line tells the runs apart.
        f = tmp_path / "or.rev"
        f.write_text(OR_CIRCUIT_TEXT)
        for selection in (["--all"], ["--input", "100"]):
            argv = ["simulate", "--circuit", str(f), *selection]
            code, classical = run(capsys, *argv)
            assert code == 0
            code, semi = run(capsys, *argv, "--semiclassical")
            assert code == 0
            assert classical.replace("mode: classical", "mode: semiclassical") == semi
            assert "mode: classical" in classical

    def test_nonclassical_readout_exits_4(self, capsys, tmp_path):
        f = tmp_path / "v.rev"
        f.write_text(".lines 1\nv x1\n")
        code, out = run(capsys, "simulate", "--circuit", str(f), "--all")
        assert code == 4
        assert "non-classical" in out

    def test_requires_input_selection(self, capsys, tmp_path):
        f = tmp_path / "or.rev"
        f.write_text(OR_CIRCUIT_TEXT)
        assert main(["simulate", "--circuit", str(f)]) == 1

    def test_input_and_all_exclude_each_other(self, capsys, tmp_path):
        f = tmp_path / "or.rev"
        f.write_text(OR_CIRCUIT_TEXT)
        for given, other in (("--all", "--input"), ("--input", "--all")):
            selection = {"--input": ["--input", "100"], "--all": ["--all"]}
            argv = ["simulate", "--circuit", str(f), *selection[other], *selection[given]]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: argument {given}: not allowed with argument {other}\n"
        assert main(["simulate", "--circuit", str(f)]) == 1
        assert capsys.readouterr().err == "error: need --input BITS or --all\n"

    def test_bad_bits(self, capsys, tmp_path):
        f = tmp_path / "or.rev"
        f.write_text(OR_CIRCUIT_TEXT)
        assert main(["simulate", "--circuit", str(f), "--input", "10"]) == 1

    def test_all_rejects_more_than_sixteen_lines(self, capsys, tmp_path):
        f = tmp_path / "wide.rev"
        f.write_text(".lines 70\nt x1 x70\n")
        assert main(["simulate", "--circuit", str(f), "--all"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "70 lines" in captured.err
        # One input of a wide circuit still runs.
        bits = "1" + "0" * 69
        code, out = run(capsys, "simulate", "--circuit", str(f), "--input", bits)
        assert code == 0
        assert out.endswith(" -> 1" + "0" * 68 + "1\n")


class TestLongInputs:
    """Long user text in a circuit file or ``--input`` gets one short error line."""

    @pytest.mark.parametrize(
        "text, selection",
        [
            (".lines 3\nt x1 x" + "9" * 5000 + "\n", None),  # a far line
            (".lines 3\nt x1 y" + "z" * 5000 + "\n", None),  # a bad line token
            (".lines " + "q" * 5000 + "\n", None),  # a bad line count
            ("k" * 5000 + "\n", None),  # a bad first token
            (".lines 3\n.ancilla " + "9" * 4000 + "\n", None),  # a far ancilla
            (OR_CIRCUIT_TEXT, "0" * 5000),  # a long --input
        ],
        ids=["line", "token", "lines", "head", "ancilla", "input"],
    )
    def test_one_short_error_line(self, capsys, tmp_path, text, selection):
        f = tmp_path / "long.rev"
        f.write_text(text)
        if selection is None:
            argv = ["verify", "--circuit", str(f), "--perm", "(0 1)"]
        else:
            argv = ["simulate", "--circuit", str(f), "--input", selection]
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert len(line) < 200


class TestGoldenTranscripts:
    """Fixed inputs must print byte-identical reports, run after run."""

    CASES = {
        "classify_worked.txt": ["classify", "--perm", WORKED_PERM],
        "synth_worked.txt": ["synth", "--perm", WORKED_PERM],
        "synth_vgate_worked.txt": ["synth", "--perm", WORKED_PERM, "--mode", "vgate"],
        "census_formula_3.txt": ["census", "--n", "3"],
        "census_brute_3.txt": ["census", "--n", "3", "--brute-force"],
        "census_json_5.txt": ["census", "--n", "5", "--json"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_golden_and_is_stable(self, capsys, name):
        argv = self.CASES[name]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0
        assert first[1] == (GOLDEN / name).read_text()

    def test_verify_transcript_stable(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = run(capsys, "synth", "--perm", WORKED_PERM, "-o", "worked.rev")
        assert code == 0
        argv = ["verify", "--circuit", "worked.rev", "--perm", WORKED_PERM, "--ancilla"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0
        assert first[1] == (GOLDEN / "verify_worked.txt").read_text()
