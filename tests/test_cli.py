"""Command-line entry points: output shapes, exit codes, file handling."""

import io

import pytest

from littlewood_offord import parse_instance
from littlewood_offord.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_prints_exact_and_decimal(capsys):
    code, out, _ = run_cli(capsys, "bound", "4", "0")
    assert code == 0
    assert out.strip() == "3/8 = 0.375"
    code, out, _ = run_cli(capsys, "bound", "5", "5")
    assert code == 0
    assert out.strip() == "1/32 = 0.03125"


def test_bound_rejects_bad_arguments(capsys):
    code, _, err = run_cli(capsys, "bound", "0", "0")
    assert code == 2
    assert "error:" in err
    # Integer arguments are ASCII digits with an optional leading minus.
    for argv in (("1_0", "\u0662"), ("10", "\u0662"), ("+4", "0"),
                 ("0x4", "0")):
        code, out, err = run_cli(capsys, "bound", *argv)
        assert (code, out) == (2, "")
        assert "not an integer" in err


def test_atom_reads_instance_file(tmp_path, capsys):
    path = tmp_path / "axis.instance"
    path.write_text("# lo-instance v1\n"
                    "dimension = 2\n"
                    "norm = l2\n"
                    "vectors = 1,0; 0,1\n"
                    "target = 1,1\n")
    code, out, _ = run_cli(capsys, "atom", str(path))
    assert code == 0
    assert out.strip() == "1/4"


def test_atom_reads_stdin(capsys, monkeypatch):
    text = ("# lo-instance v1\ndimension = 1\nnorm = linf\n"
            "vectors = 1; 1; 1\ntarget = 3\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "atom", "-")
    assert code == 0
    assert out.strip() == "1/8"


def test_verify_writes_report(tmp_path, capsys):
    path = tmp_path / "axis.instance"
    path.write_text("# lo-instance v1\ndimension = 2\nnorm = l2\n"
                    "vectors = 1,0; 0,1\ntarget = 1,1\n")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert out.splitlines()[0] == "# lo-report v1"
    assert "chain_holds = true" in out
    assert "tight = true" in out

    out_path = tmp_path / "axis.report"
    code, out, _ = run_cli(capsys, "verify", str(path), "--out", str(out_path))
    assert code == 0 and out == ""
    assert "chain_holds = true" in out_path.read_text()


def test_extremal_emits_verifiable_instance(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "extremal", "2", "l1", "3/2")
    assert code == 0
    inst = parse_instance(out)
    assert inst.n == 2

    path = tmp_path / "ex.instance"
    code, _, _ = run_cli(capsys, "extremal", "5", "l2", "3", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "tight = true" in out


def test_campaign_runs_config_and_writes_report(tmp_path, capsys):
    config = tmp_path / "small.campaign"
    config.write_text("# lo-campaign-config v1\n"
                      "mode = random\n"
                      "norms = l1, l2, linf\n"
                      "n = 1..6\n"
                      "d = 1..2\n"
                      "seed = 31\n"
                      "budget = 40\n"
                      "grid_denominator = 4\n")
    out_path = tmp_path / "small.report"
    code, _, err = run_cli(capsys, "campaign", str(config),
                           "--out", str(out_path))
    assert code == 0
    assert "instances=40" in err
    text = out_path.read_text()
    assert text.splitlines()[0] == "# lo-campaign-report v1"
    assert "status = verified" in text

    # same config, more workers: byte-identical report
    out_path2 = tmp_path / "small2.report"
    code, _, _ = run_cli(capsys, "campaign", str(config), "--workers", "3",
                         "--out", str(out_path2))
    assert code == 0
    assert out_path2.read_text() == text


def test_campaign_prints_to_stdout_without_out(tmp_path, capsys):
    config = tmp_path / "tiny.campaign"
    config.write_text("mode = extremal\nnorms = l2\nn = 1..4\n")
    code, out, _ = run_cli(capsys, "campaign", str(config))
    assert code == 0
    assert out.splitlines()[0] == "# lo-campaign-report v1"
    assert "tight = 20" in out


def test_exit_code_2_on_invalid_input(tmp_path, capsys):
    bad = tmp_path / "bad.instance"
    bad.write_text("dimension = 2\nnorm = l9\nvectors = 1,0\ntarget = 0,0\n")
    assert run_cli(capsys, "verify", str(bad))[0] == 2
    assert run_cli(capsys, "atom", str(tmp_path / "missing.instance"))[0] == 2

    outside = tmp_path / "outside.instance"
    outside.write_text("dimension = 1\nnorm = l2\nvectors = 2\ntarget = 0\n")
    assert run_cli(capsys, "verify", str(outside))[0] == 2

    lp = tmp_path / "lp.instance"
    lp.write_text("dimension = 1\nnorm = lp:3\nvectors = 1\ntarget = 1\n")
    assert run_cli(capsys, "verify", str(lp))[0] == 2
    lp_config = tmp_path / "lp.config"
    lp_config.write_text("mode = random\nnorms = lp:3\nbudget = 3\n")
    assert run_cli(capsys, "campaign", str(lp_config))[0] == 2

    assert run_cli(capsys, "extremal", "3", "l2", "7")[0] == 2
    out = tmp_path / "four.instance"
    assert run_cli(capsys, "extremal", "+\u0664", "l2", "3/2",
                   "--out", str(out))[0] == 2
    assert not out.exists()
    config = tmp_path / "line.config"
    config.write_text("mode = extremal\nnorms = l2\nn = 1..2\n")
    assert run_cli(capsys, "campaign", str(config), "--workers", "1")[0] == 0
    assert run_cli(capsys, "campaign", str(config),
                   "--workers", "\u0662")[0] == 2


def test_exit_code_2_on_empty_list_entries(tmp_path, capsys):
    instance = tmp_path / "gap.instance"
    instance.write_text("dimension = 2\nnorm = l2\nvectors = 1,0;;0,1\n"
                        "target = 0,0\n")
    code, _, err = run_cli(capsys, "verify", str(instance))
    assert code == 2 and "empty entry in the vector list" in err
    config = tmp_path / "gap.config"
    config.write_text("mode = random\nnorms = l1,,l2\nbudget = 3\n")
    code, _, err = run_cli(capsys, "campaign", str(config))
    assert code == 2 and "empty entry in norms" in err


def test_exit_code_3_on_capacity(tmp_path, capsys):
    big = tmp_path / "big.instance"
    vectors = "; ".join(["1,0"] * 45)
    big.write_text(f"dimension = 2\nnorm = l2\nvectors = {vectors}\n"
                   "target = 0,0\n")
    code, _, err = run_cli(capsys, "verify", str(big))
    assert code == 3
    assert "44" in err


def test_campaign_with_only_errors_is_incomplete(tmp_path, capsys):
    # No configured norm fits d = 3, so every instance is an error.
    config = tmp_path / "mismatch.campaign"
    config.write_text("mode = random\nnorms = poly:[1,0;0,1]\n"
                      "d = 3..3\nbudget = 2\n")
    code, out, _ = run_cli(capsys, "campaign", str(config))
    assert code == 3
    assert "errors = 2" in out
    assert "status = incomplete" in out


def test_exit_code_4_on_failed_certificate(tmp_path, capsys, monkeypatch):
    from littlewood_offord import reduction
    monkeypatch.setattr(reduction, "within", lambda c, s, squared: False)
    path = tmp_path / "axis.instance"
    path.write_text("dimension = 2\nnorm = l2\nvectors = 1,0; 0,1\n"
                    "target = 1,1\n")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 4
    assert out == ""
    assert ("certificate failed: projected coefficient left the unit "
            "interval") in err
