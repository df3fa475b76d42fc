"""End-to-end tests of the command line, run in process through cli.main."""

import json
import re

import numpy as np
import pytest

from ordernet import cli
from ordernet.training import checkpoint_load


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_reports_per_file_counts(capsys, toy_corpus_dir):
    rc, out, err = run_cli(capsys, ["stats", str(toy_corpus_dir / "train.txt"),
                                    str(toy_corpus_dir / "test.txt")])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# path")
    train_fields = lines[1].split("\t")
    assert train_fields[1] == "40"
    assert float(train_fields[2]) == 4.0
    assert lines[2].split("\t")[1] == "12"


def test_stats_missing_file_fails_with_diagnostic(capsys, tmp_path):
    rc, out, err = run_cli(capsys, ["stats", str(tmp_path / "absent.txt")])
    assert rc == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_checkpoint_and_log(toy_run_dir):
    log = (toy_run_dir / "train.log").read_text(encoding="utf-8")
    lines = log.strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1].startswith("# epoch")
    assert len(lines) == 2 + 5  # header rows plus one line per epoch
    model, _, _ = checkpoint_load(toy_run_dir / "model.npz")
    assert model.config.encoder == "cbow"
    assert model.config.epochs == 5


def test_train_flag_overrides_config_file(capsys, toy_corpus_dir, tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text(
        "encoder = cbow\nhidden_dim = 8\nembed_dim = 6\nrecurrent_dim = 8\n"
        "batch_size = 8\nepochs = 9\nseed = 2\n", encoding="utf-8")
    rc, out, _ = run_cli(capsys, [
        "train", "--config", str(config), "--epochs", "1",
        "--train", str(toy_corpus_dir / "train.txt"),
        "--dev", str(toy_corpus_dir / "test.txt"),
        "--out", str(tmp_path)])
    assert rc == 0
    epoch_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(epoch_lines) == 1  # the explicit flag beat the file's epochs=9
    assert '"epochs": 1' in out.splitlines()[0]


def test_train_creates_a_missing_out_directory(capsys, toy_corpus_dir, tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text("encoder = cbow\nhidden_dim = 8\nembed_dim = 6\nrecurrent_dim = 8\n"
                      "batch_size = 8\nepochs = 1\n", encoding="utf-8")
    out = tmp_path / "new" / "run"
    rc, _, err = run_cli(capsys, [
        "train", "--config", str(config),
        "--train", str(toy_corpus_dir / "train.txt"),
        "--dev", str(toy_corpus_dir / "test.txt"), "--out", str(out)])
    assert rc == 0, err
    model, _, _ = checkpoint_load(out / "model.npz")
    assert model.config.epochs == 1


def test_train_without_output_location_fails(capsys, toy_corpus_dir):
    rc, out, err = run_cli(capsys, [
        "train", "--train", str(toy_corpus_dir / "train.txt"),
        "--dev", str(toy_corpus_dir / "test.txt"), "--epochs", "1"])
    assert rc == 1
    assert err.startswith("error:") and "--checkpoint" in err


def test_unknown_config_key_fails(capsys, toy_corpus_dir, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("momentum = 0.9\n", encoding="utf-8")
    rc, _, err = run_cli(capsys, [
        "train", "--config", str(config),
        "--train", str(toy_corpus_dir / "train.txt"),
        "--dev", str(toy_corpus_dir / "test.txt"), "--out", str(tmp_path)])
    assert rc == 1
    assert "momentum" in err


@pytest.mark.parametrize("flags,setting", [
    (["--batch", "0"], ""),
    ([], "batch_size = 0"),
    ([], "hidden_dim = -3"),
    ([], "hidden_dim = abc"),
], ids=["flag batch 0", "batch_size 0", "hidden_dim -3", "hidden_dim abc"])
def test_out_of_range_or_unreadable_settings_fail_with_one_error_line(
        capsys, toy_corpus_dir, tmp_path, flags, setting):
    config = tmp_path / "c.cfg"
    config.write_text(f"encoder = cbow\n{setting}\n", encoding="utf-8")
    out = tmp_path / "run"
    rc, _, err = run_cli(capsys, [
        "train", "--config", str(config), *flags,
        "--train", str(toy_corpus_dir / "train.txt"),
        "--dev", str(toy_corpus_dir / "test.txt"), "--out", str(out)])
    assert rc == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert ("batch_size" if "batch" in " ".join(flags) + setting else "hidden_dim") in err
    assert not out.exists()


def test_malformed_config_line_reports_position(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("first line without equals\n", encoding="utf-8")
    rc, _, err = run_cli(capsys, ["train", "--config", str(config),
                                  "--out", str(tmp_path)])
    assert rc == 1
    assert f"{config}:1" in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_prints_metrics_and_writes_reports(capsys, toy_corpus_dir,
                                                toy_checkpoint, tmp_path):
    rc, out, _ = run_cli(capsys, [
        "eval", "--checkpoint", toy_checkpoint,
        "--test", str(toy_corpus_dir / "test.txt"), "--out", str(tmp_path)])
    assert rc == 0
    assert re.search(r"^pm_f=", out, re.M) and re.search(r"^pmr=", out, re.M)
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["metrics"]["count"] == 12
    assert report["config"]["encoder"] == "cbow"
    text = (tmp_path / "report.txt").read_text(encoding="utf-8")
    for key, value in report["metrics"].items():
        assert f"{key}={value}" in text


def test_eval_self_test_scores_gold_against_itself(capsys, toy_corpus_dir,
                                                   toy_checkpoint):
    rc, out, _ = run_cli(capsys, [
        "eval", "--checkpoint", toy_checkpoint, "--self-test",
        "--test", str(toy_corpus_dir / "test.txt")])
    assert rc == 0
    for key in ("pm_f", "lsr_f", "pmr", "head", "tail"):
        assert re.search(rf"^{key}=1\.0$", out, re.M), key


def test_eval_beam_strategy_runs(capsys, toy_corpus_dir, toy_checkpoint):
    rc, out, _ = run_cli(capsys, [
        "eval", "--checkpoint", toy_checkpoint, "--beam", "4",
        "--test", str(toy_corpus_dir / "test.txt")])
    assert rc == 0
    assert re.search(r"^count=12$", out, re.M)


@pytest.mark.parametrize("argv", [
    ["eval", "--beam", "0"],
    ["decode", "--beam", "0"],
    ["oracle", "--beams", "1,x"],
    ["oracle", "--beams", "2,0"],
])
def test_bad_beam_sizes_fail_with_one_error_line(capsys, toy_corpus_dir, toy_checkpoint, argv):
    rc, _, err = run_cli(capsys, argv + ["--checkpoint", toy_checkpoint,
                                         "--test", str(toy_corpus_dir / "test.txt")])
    assert rc == 1
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "beam" in err


@pytest.mark.parametrize("command", ["eval", "decode"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bad_job_counts_fail_with_one_error_line(capsys, toy_corpus_dir, toy_checkpoint,
                                                 command, jobs):
    rc, _, err = run_cli(capsys, [command, "--jobs", jobs, "--checkpoint", toy_checkpoint,
                                  "--test", str(toy_corpus_dir / "test.txt")])
    assert rc == 1
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "jobs" in err


def test_eval_of_an_empty_file_fails_with_one_error_line(capsys, toy_checkpoint, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    rc, _, err = run_cli(capsys, ["eval", "--checkpoint", toy_checkpoint,
                                  "--test", str(empty)])
    assert rc == 1
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_eval_requires_checkpoint_flag(capsys, toy_corpus_dir):
    rc, _, err = run_cli(capsys, [
        "eval", "--test", str(toy_corpus_dir / "test.txt")])
    assert rc == 1
    assert err.startswith("error:") and "--checkpoint" in err


def test_eval_rejects_contradicting_encoder_flag(capsys, toy_corpus_dir,
                                                 toy_checkpoint):
    rc, _, err = run_cli(capsys, [
        "eval", "--checkpoint", toy_checkpoint, "--encoder", "cnn",
        "--test", str(toy_corpus_dir / "test.txt")])
    assert rc == 1
    assert "disagrees" in err


def test_bad_choice_values_exit_with_usage_error(toy_corpus_dir):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--encoder", "transformer",
                  "--test", str(toy_corpus_dir / "test.txt")])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def test_decode_emits_one_tsv_row_per_document(capsys, toy_corpus_dir,
                                               toy_checkpoint, tmp_path):
    rc, out, _ = run_cli(capsys, [
        "decode", "--checkpoint", toy_checkpoint,
        "--input", str(toy_corpus_dir / "test.txt"), "--out", str(tmp_path)])
    assert rc == 0
    rows = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert len(rows) == 12
    for row in rows:
        doc_id, positions, log_prob, kind = row.split("\t")
        assert doc_id.startswith("test.txt:")
        assert sorted(int(p) for p in positions.split()) == [0, 1, 2, 3]
        assert float(log_prob) <= 0.0
        assert kind == "full"
    assert (tmp_path / "decoded.tsv").read_text(encoding="utf-8") == out


# ---------------------------------------------------------------------------
# saliency
# ---------------------------------------------------------------------------


def test_saliency_writes_html_and_json_reports(capsys, toy_corpus_dir,
                                               toy_checkpoint, tmp_path):
    rc, out, _ = run_cli(capsys, [
        "saliency", "--checkpoint", toy_checkpoint,
        "--input", str(toy_corpus_dir / "test.txt"), "--doc", "2",
        "--out", str(tmp_path)])
    assert rc == 0
    step_lines = [l for l in out.splitlines() if l.startswith("step ")]
    assert len(step_lines) == 4  # fixed-length: one pointing step per sentence

    payload = json.loads((tmp_path / "saliency.json").read_text(encoding="utf-8"))
    assert payload["doc_id"].endswith(":2")
    assert len(payload["steps"]) == 4
    for step in payload["steps"]:
        assert 0.0 < step["probability"] <= 1.0
        assert [len(s) for s in step["scores"]] == [len(w) for w in payload["words"]]
        assert all(v >= 0.0 for row in step["scores"] for v in row)

    html_text = (tmp_path / "saliency.html").read_text(encoding="utf-8")
    intensities = [float(m) for m in
                   re.findall(r"rgba\(255,120,0,([0-9.]+)\)", html_text)]
    assert intensities, "no shaded words found"
    assert all(0.0 <= v <= 1.0 for v in intensities)
    assert max(intensities) == 1.0


def test_saliency_rejects_out_of_range_doc_index(capsys, toy_corpus_dir,
                                                 toy_checkpoint):
    rc, _, err = run_cli(capsys, [
        "saliency", "--checkpoint", toy_checkpoint,
        "--input", str(toy_corpus_dir / "test.txt"), "--doc", "99"])
    assert rc == 1
    assert "--doc" in err


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_sweep_reports_nondecreasing_oracle_scores(capsys, toy_corpus_dir,
                                                          toy_checkpoint, tmp_path):
    rc, out, _ = run_cli(capsys, [
        "oracle", "--checkpoint", toy_checkpoint,
        "--test", str(toy_corpus_dir / "test.txt"), "--beams", "1,2,4",
        "--out", str(tmp_path)])
    assert rc == 0
    rows = [l.split("\t") for l in out.strip().splitlines()
            if l and not l.startswith("#")]
    assert [r[0] for r in rows] == ["1", "2", "4"]
    oracle_pmr = [float(r[6]) for r in rows]
    assert oracle_pmr == sorted(oracle_pmr)
    for row in rows:
        assert float(row[6]) >= float(row[3]) - 1e-12  # oracle beats decoded
    assert (tmp_path / "oracle.tsv").exists()
