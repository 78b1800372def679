import hashlib
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
from contextlib import nullcontext

import pytest

import modlie
from modlie.cli import ConfigError, RunConfig, load_config_file, main, run
from modlie.errors import InputError

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_command(capsys):
    code, out, _ = run_main(capsys, "roots", "--family", "B", "--rank", "3")
    assert code == 0
    assert "18 roots" in out
    doc = json.loads(out.split("\n", 1)[1])
    assert doc["count"] == 18
    assert doc["base"] == ["e1-e2", "e2-e3", "e3"]


def test_normalform_matches_example(capsys):
    code, out, _ = run_main(
        capsys, "normalform", "x(+e1) x(-e1)", "--family", "A", "--rank", "1", "--p", "7"
    )
    assert code == 0
    assert out.splitlines()[0] == "x(-e1) x(+e1) + h(e1)"


def test_normalform_expression_after_the_options(capsys):
    code, out, _ = run_main(
        capsys, "normalform", "--family", "A", "--rank", "1", "--p", "7", "x(+e1) x(-e1)"
    )
    assert code == 0
    assert out.splitlines()[0] == "x(-e1) x(+e1) + h(e1)"


def test_central_true_exit_zero(capsys):
    code, out, _ = run_main(
        capsys,
        "central",
        "(h(e1)+1)^2 + 4 x(-e1) x(+e1)",
        "--family",
        "A",
        "--rank",
        "1",
        "--p",
        "7",
    )
    assert code == 0
    assert out.splitlines()[0] == "true"


def test_central_false_exit_one_with_witness(capsys):
    code, out, _ = run_main(
        capsys, "central", "x(+e1)", "--family", "A", "--rank", "1", "--p", "7"
    )
    assert code == 1
    doc = json.loads(out.split("\n", 1)[1])
    assert doc["central"] is False
    assert doc["witness"]["generator"]


def test_parse_error_exit_two(capsys):
    code, _, err = run_main(
        capsys, "normalform", "x(+e1", "--family", "A", "--rank", "1", "--p", "7"
    )
    assert code == 2
    assert "parse error" in err


def test_unknown_config_key_exit_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family=B\nbogus=1\n")
    code, _, err = run_main(capsys, "roots", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


BAD_INPUTS = [
    # (argv, config file text or None, expected stderr fragment)
    (["baby-verma", "--p", "0"], None, "positive characteristic"),
    (["baby-verma", "--family", "B", "--rank", "1"], None, "rank >= 2"),
    (["baby-verma", "--p", "9"], None, "not prime"),
    (["baby-verma", "--p", "5"], None, "small-prime"),
    (["verify-lee", "--family", "A"], None, "family B"),
    (["independence", "--p", "0"], None, "over F_p"),
    (["baby-verma", "--chi", "x(+e1)=1"], None, "positive root vectors"),
    (
        ["baby-verma", "--family", "A", "--rank", "1", "--p", "7",
         "--chi", "h(e1)=1", "--lambda", "1=0"],
        None,
        "compatible weight",
    ),
    (["roots"], "rank=two\n", "must be an integer"),
    (["roots", "--config", "missing.cfg"], None, "cannot read"),
    (["roots"], "allow_small=maybe\n", "allow_small must be"),
    (
        ["normalform", "(" * 400 + "x(+e1)" + ")" * 400,
         "--family", "A", "--rank", "1", "--p", "7"],
        None,
        "recursion depth",
    ),
    (
        ["check-subalgebra", "--family", "A", "--rank", "2", "--p", "4294967311",
         "--span", "6 x(-e2+e3) + 3 h(e2-e3); 8 x(-e2+e3)"],
        None,
        "int64",
    ),
    (["irreducible", "--family", "A", "--rank", "1", "--p", "7", "--lambda", "3=1"], None, "outside 1..1"),
    (["check-subalgebra", "--span", "3"], None, "not an element of B2"),
    (["check-subalgebra", "--span", "x(+e1)", "--extend-h", "x(+e2)"], None, "coroot span"),
    (["irreducible", "--family", "A", "--rank", "1", "--p", "7", "--chi", "2=1"], None, "not an element of A1"),
    (["verify-lee", "--p", "0"], None, "over F_p"),
    (["normalform", "x(e0)", "--family", "B", "--rank", "2", "--p", "7"], None, "index >= 1"),
    (["normalform", "h(3)", "--family", "B", "--rank", "2", "--p", "7"], None, "names no simple coroot"),
    (["normalform", "h(0)", "--family", "B", "--rank", "2", "--p", "7"], None, "names no simple coroot"),
    (["baby-verma", "--family", "B", "--rank", "2", "--p", "7", "--chi", "h(3)=1"], None, "bad basis token"),
    (["baby-verma", "--family", "B", "--rank", "2", "--p", "7", "--lambda", "h(0)=1"], None, "bad basis token"),
    (["check-subalgebra", "--family", "B", "--rank", "2", "--p", "7", "--span", "h(5)"], None, "names no simple coroot"),
    (
        ["check-subalgebra", "--family", "B", "--rank", "2", "--p", "7",
         "--span", "x(+e1)", "--extend-h", "h(9)"],
        None,
        "names no simple coroot",
    ),
    (["normalform", "--family", "B", "--rank", "2", "--p", "7", "x(e10000000000)"], None, "x(...) names no root of B2"),
    # digits other than ASCII 0-9, which str.isdigit accepts and int() refuses
    (["normalform", "x(+e1)^²", "--family", "A", "--rank", "1", "--p", "7"], None, "expected a number at line 1, column 8"),
    (["normalform", "x(e²)", "--family", "A", "--rank", "1", "--p", "7"], None, "expected a number at line 1, column 4"),
    (["normalform", "²", "--family", "A", "--rank", "1", "--p", "7"], None, "expected an atom at line 1, column 1"),
    (["normalform", "h(²)", "--family", "A", "--rank", "1", "--p", "7"], None, "expected 'e<index>' at line 1, column 3"),
    (["irreducible", "--family", "A", "--rank", "1", "--p", "7", "--lambda", "²=1"], None, "bad basis token '²'"),
    (["roots"], "p=\xff\n", "not UTF-8"),
    (["roots", "--out", "missing/x.json"], None, "error: cannot write missing/x.json: No such file"),
    # 11^8 tuples of case II, refused before they are listed
    (
        ["independence", "--family", "B", "--rank", "2", "--p", "11", "--case", "II", "--bound", "99"],
        None,
        "independence stack of 214358881 tuples x 14641 cells exceeds",
    ),
]


@pytest.mark.parametrize("argv, config, fragment", BAD_INPUTS)
def test_bad_input_exits_two_with_one_line(tmp_path, monkeypatch, capsys, argv, config, fragment):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        # latin-1 writes each character below 256 as that byte, so a config
        # can hold bytes that are not UTF-8
        (tmp_path / "bad.cfg").write_bytes(config.encode("latin-1"))
        argv = argv + ["--config", "bad.cfg"]
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert fragment in err
    assert len(err.strip().splitlines()) == 1


def test_every_refusal_is_an_input_error():
    # main maps InputError to exit 2, so a refusal outside it would exit 1 with a traceback
    programming_errors = {"MixedAlgebras", "ArityMismatch", "UnsolvedSpec"}
    modules = [importlib.import_module(f"modlie.{m.name}") for m in pkgutil.iter_modules(modlie.__path__)
               if m.name != "__main__"]
    defined = [obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, ValueError) and obj.__module__ == module.__name__]
    assert len(defined) == 18  # InputError, 14 refusals and the 3 programming errors
    assert {cls.__name__ for cls in defined if not issubclass(cls, InputError)} == programming_errors


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# comment\nfamily=B\nrank=2\np=7\ncase=II\nseed=3\n")
    values = load_config_file(str(cfg))
    assert values == {"family": "B", "rank": "2", "p": "7", "case": "II", "seed": "3"}
    code, out, _ = run_main(capsys, "roots", "--config", str(cfg))
    assert code == 0
    assert "B2" in out


@pytest.mark.parametrize(
    "value, code", [("True", 0), ("YES", 0), ("1", 0), ("false", 2), ("No", 2), ("0", 2)]
)
def test_config_file_allow_small(tmp_path, capsys, value, code):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(f"family=A\nrank=1\np=5\nallow_small={value}\n")
    with pytest.warns(UserWarning) if code == 0 else nullcontext():
        got, out, err = run_main(capsys, "baby-verma", "--config", str(cfg))
    assert got == code
    if code == 0:
        assert "dim 5" in out
    else:
        assert "--allow-small" in err


def test_struct_table_golden(tmp_path, capsys):
    for name, family, rank in (("A2", "A", 2), ("B2", "B", 2), ("C2", "C", 2)):
        out_path = tmp_path / f"struct_{name}.json"
        code, _, _ = run_main(
            capsys,
            "struct-table",
            "--family",
            family,
            "--rank",
            str(rank),
            "--p",
            "0",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN / f"struct_{name}_p0.json").read_bytes()


def test_verify_lee_deterministic_bytes(tmp_path, capsys):
    paths = []
    for name in ("one.json", "two.json"):
        out_path = tmp_path / name
        code, _, _ = run_main(
            capsys,
            "verify-lee",
            "--family",
            "B",
            "--rank",
            "2",
            "--p",
            "7",
            "--case",
            "I",
            "--seed",
            "5",
            "--out",
            str(out_path),
        )
        assert code == 0
        paths.append(out_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    assert doc["schema"] == 1
    assert doc["summary"]["oracle_consistent"] is True


def test_verify_lee_case_ii(capsys):
    code, out, _ = run_main(
        capsys, "verify-lee", "--family", "B", "--rank", "2", "--p", "7", "--case", "II"
    )
    assert code == 0
    assert "8/8 solved" in out


def test_baby_verma_command(capsys):
    code, out, _ = run_main(
        capsys,
        "baby-verma",
        "--family",
        "A",
        "--rank",
        "1",
        "--p",
        "7",
        "--chi",
        "x(-e1)=1",
        "--lambda",
        "1=0",
    )
    assert code == 0
    doc = json.loads(out.split("\n", 1)[1])
    assert doc["dim"] == 7
    assert doc["bracket_compatibility"] and doc["restrictedness"]


def test_irreducible_command_verdicts(capsys):
    code, out, _ = run_main(
        capsys,
        "irreducible",
        "--family",
        "A",
        "--rank",
        "1",
        "--p",
        "7",
        "--chi",
        "x(-e1)=1",
    )
    assert code == 0
    assert "irreducible" in out


def test_irreducible_inconclusive_exit_three(capsys):
    # dim 81 > deterministic threshold, zero trial budget: must come back
    # inconclusive with exit code 3, never silently irreducible
    code, out, _ = run_main(
        capsys,
        "irreducible",
        "--family",
        "B",
        "--rank",
        "2",
        "--p",
        "3",
        "--allow-small",
        "--trials",
        "0",
    )
    assert code == 3
    assert "inconclusive" in out


def test_irreducible_report_certificate(capsys):
    base = ["irreducible", "--family", "A", "--rank", "1", "--p", "7"]
    code, out, _ = run_main(capsys, *base, "--chi", "x(-e1)=1")
    doc = json.loads(out.split("\n", 1)[1])
    assert code == 0 and doc["status"] == "irreducible" and doc["span_dim"] == 49
    cert = doc["certificate"]
    assert cert["method"] == "norton" and cert["nullity"] == 1 and cert["spin_dims"] == [7, 7]
    code, out, _ = run_main(capsys, *base)
    doc = json.loads(out.split("\n", 1)[1])
    assert code == 0 and doc["status"] == "submodule" and doc["span_dim"] is None
    assert doc["certificate"]["witness_dim"] == doc["witness_dim"]


def test_irreducible_report_non_dual_witness(capsys):
    # A1 at p = 31 with chi = 0: the spin of the null vector of theta - c is
    # already proper, so the witness is those spun rows, not a dual kernel
    code, out, _ = run_main(capsys, "irreducible", "--family", "A", "--rank", "1", "--p", "31")
    doc = json.loads(out.split("\n", 1)[1])
    assert code == 0 and doc["status"] == "submodule" and doc["witness_dim"] == 30
    assert doc["certificate"] == {"method": "norton", "trial": 0, "dual": False, "witness_dim": 30}


def test_small_prime_error_names_the_cli_flag(capsys):
    code, out, err = run_main(capsys, "baby-verma", "--family", "A", "--rank", "1", "--p", "5")
    assert code == 2 and out == ""
    assert "--allow-small" in err and "allow_small=True" not in err


def test_independence_command(capsys):
    code, out, _ = run_main(
        capsys,
        "independence",
        "--family",
        "B",
        "--rank",
        "2",
        "--p",
        "7",
        "--case",
        "I",
        "--bound",
        "2",
    )
    assert code == 0
    doc = json.loads(out.split("\n", 1)[1])
    assert doc["count"] == 15 and doc["rank"] == 15 and doc["full_rank"]


def test_check_subalgebra_command(capsys):
    code, out, _ = run_main(
        capsys,
        "check-subalgebra",
        "--family",
        "B",
        "--rank",
        "2",
        "--p",
        "7",
        "--span",
        "x(+e1); x(-e1); h(e1)",
        "--extend-h",
        "h(2)",
    )
    assert code == 0
    assert "closed" in out
    code2, out2, _ = run_main(
        capsys,
        "check-subalgebra",
        "--family",
        "B",
        "--rank",
        "2",
        "--p",
        "7",
        "--span",
        "x(+e1); x(+e2)",
    )
    assert code2 == 1
    assert "not closed" in out2


def test_run_validates_config():
    cfg = RunConfig(family="Z")
    with pytest.raises(ConfigError):
        run("roots", cfg)
    with pytest.raises(ConfigError):
        run("nonsense", RunConfig())


def test_small_characteristic_warning_is_one_line():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = ["baby-verma", "--family", "A", "--rank", "1", "--p", "5", "--allow-small"]
    done = subprocess.run(
        [sys.executable, "-m", "modlie", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0
    assert done.stderr == "warning: running at small characteristic p = 5\n"


def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr():
    # the reader stops after one line, as `| head -n 1` does; the 133 kB of
    # output are more than a pipe buffer (64 kB) and the reader's buffer hold,
    # so some write hits the closed pipe
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = ["struct-table", "--family", "B", "--rank", "7", "--p", "7"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "modlie", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert first == b"B7 (p=7): dim 105, 1443 nonzero bracket pairs\n"
    assert err == b""


# SHA-256 of the verify-lee report bytes at p = 7, seed 0, recorded before the
# template banks were rebuilt from one table
VERIFY_LEE_SHA256 = {
    (2, "I"): "3ac92914b74d09b4375d234a3efd1fe11d149e100dc9df401490cfa1e1b7687d",
    (2, "II"): "d99e980e5959d43bf9c9df785b1ef0ac23a680c877765ae6a9b14e95b595dc54",
    (3, "I"): "cb225fc68d87997dd3a956cdf5a112dbfe3098f208613ff7d9a73cca3657a32c",
    (3, "II"): "8d99850908ec50f7f08d29ddacc4f09511dbe6ffbecd7a044fa9d5a0c5377ea6",
    (4, "I"): "d1f5749fd2a1832ff58e7e74edca6c83822358b15896ced2013ab8736c818bc7",
    (4, "II"): "cfb57fe54b18e1243596849d88d6eb8c58542da6857937285d982856b76eab26",
    (5, "I"): "e9f42df3645659e169bee66da3945726f650e57a8dd7c66a9a845d3dd2e2c876",
    (5, "II"): "73cf1bfb88846c966c2cd24d08194283861ec5592f111a17c47ef9591ad41929",
}


@pytest.mark.parametrize("rank, case", sorted(VERIFY_LEE_SHA256))
def test_verify_lee_report_bytes_pinned(tmp_path, capsys, rank, case):
    out = tmp_path / "lee.json"
    code, _, _ = run_main(
        capsys, "verify-lee", "--rank", str(rank), "--p", "7", "--case", case, "--out", str(out)
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_LEE_SHA256[rank, case]


# exit code and SHA-256 of the --out bytes of the other commands, recorded
# before their reports shared one header builder
COMMAND_REPORTS = {
    ("roots", "--family", "B", "--rank", "3"):
        (0, "0a358324c234a7d68cf5b0ca7496a58f481bda8c0de0824d9fd188b6c9e0667c"),
    ("struct-table", "--family", "B", "--rank", "2", "--p", "7"):
        (0, "f52165949f9af8d11ff2db030d9ea2c1ad6be9dc39e14fd2797f615b75572d7f"),
    ("normalform", "x(+e1+e2) x(-e1) [x(+e2), x(-e2)]^2", "--p", "7"):
        (0, "cdb8f0009acf22dbdc4511015ec913f739906d29baf5f73f1efb5f9982591862"),
    ("central", "(h(e1)+1)^2 + 4 x(-e1) x(+e1)", "--family", "A", "--rank", "1", "--p", "7"):
        (0, "aff6ffb717be959a42c1daebf185363838d9c59a50d46ae2c26b5237bb05e3bc"),
    ("central", "x(+e1) x(-e2)", "--p", "7"):
        (1, "66f0233e55e2cd1c1ffefd5b6f0d2e899e36ea6bfc6e6415be68bef5d9fa9617"),
    ("baby-verma", "--family", "A", "--rank", "2", "--p", "7", "--chi", "x(-e1+e2)=1",
     "--lambda", "1=2,2=3"):
        (0, "3eda839ffa8f31d5b282f9b02430e9274c978d88d48924ed9957313ea75817d6"),
    ("irreducible", "--family", "A", "--rank", "1", "--p", "7", "--chi", "x(-e1)=1", "--lambda", "1=3"):
        (0, "72399d6402fd922212ac98f9ed6dc38435eba678ecb63bc6de5640bc4d2d4613"),
    ("independence", "--p", "7", "--case", "I", "--bound", "2"):
        (0, "ca972165040d0f4f4259e835f4040ad68cfd71d1e9127e298a1856b6b588bb0c"),
    ("independence", "--p", "7", "--case", "I", "--bound", "4"):
        (0, "52433e678bf47cdde4345992df83a2d722346b10fd23288414a8718b548cec30"),
    ("check-subalgebra", "--span", "x(+e1); x(-e1); [x(+e1), x(-e1)]", "--extend-h", "h(2)"):
        (0, "eab1cfd2140c62e9d4ae2f8828f38a30f15500a748e81b1052282b37c286eab4"),
    ("check-subalgebra", "--span", "x(+e1); 2 x(+e2) - h(e1)"):
        (1, "4a98c10131064c6eca54d8c9ada7b21d75c3e2f11e66083f887db2189fb7b224"),
}


@pytest.mark.parametrize("argv", sorted(COMMAND_REPORTS), ids=" ".join)
def test_command_report_bytes_pinned(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    code, _, _ = run_main(capsys, *argv, "--out", str(out))
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == COMMAND_REPORTS[argv]


def test_baby_verma_above_size_limit_exits_two(capsys):
    code, out, err = run_main(capsys, "baby-verma", "--family", "B", "--rank", "3", "--p", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "7^9 exceeds the limit" in err
    assert len(err.strip().splitlines()) == 1


def test_normalform_high_power_is_one_monomial(capsys):
    code, out, _ = run_main(capsys, "normalform", "x(-e1)^3000", "--family", "A", "--rank", "1")
    assert code == 0
    assert out.splitlines()[0] == "x(-e1)^3000"
