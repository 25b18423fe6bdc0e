import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from oracles import (
    backbone_overlap,
    backbone_pair_mask_by_search,
    classify_users,
    columns_of,
    digraph_of,
    edge_set,
    edge_significance,
    global_threshold_backbone,
    heterogeneity_rows,
    involvement_counts,
    RetweetEvent,
    ternary_cells,
)
from swaynet import cli
from swaynet.backbone import disparity_filter
from swaynet.cli import DEFAULT_THETA_GRID, PipelineConfig, run, validate_config
from swaynet.events import CLASS_BY_CATEGORY, CONTENT_CLASSES, EVENT_FIELDS
from swaynet.graph import WeightedDigraph, load_binary, save_binary

DAY = 86_400


def synth_args(out, seed=9, extra=()):
    return [
        "synth",
        "--out",
        str(out),
        "--seed",
        str(seed),
        "--range-start",
        "0",
        "--range-end",
        str(150 * DAY),
        "--synth-aligned-factual",
        "15",
        "--synth-aligned-misleading",
        "15",
        "--synth-aligned-uncertain",
        "15",
        "--synth-swayable",
        "120",
        "--synth-events-factual",
        "3000",
        "--synth-events-misleading",
        "3000",
        "--synth-events-uncertain",
        "3000",
        *extra,
    ]


def run_pipeline(out, seed=9, with_fit=True):
    seed_args = ["--seed", str(seed)]
    assert run(synth_args(out, seed)) == 0
    assert run(["backbone", "--out", str(out), "--alpha", "0.05", *seed_args]) == 0
    assert run(["align", "--out", str(out), "--theta", "0.95", "--unfiltered", *seed_args]) == 0
    assert run(["growth", "--out", str(out), *seed_args]) == 0
    if with_fit:
        assert run(["fit", "--out", str(out), "--lookback", "1", "--runs", "10", *seed_args]) == 0
    assert run(["report", "--out", str(out), *seed_args]) == 0


def write_jsonl(path, n_events, days, labels, seed=0):
    """n_events random retweets among `labels` over `days` days, every class present."""
    import numpy as np

    rng = np.random.default_rng(seed)
    cats = ("SCIENCE", "FAKE/HOAX", "NA")
    with open(path, "w") as fh:
        for i in range(n_events):
            src, dst = rng.choice(len(labels), 2, replace=False)
            record = {
                "ts": int(rng.integers(0, days * DAY)),
                "src": labels[src],
                "dst": labels[dst],
                "cat": cats[i % 3],
                "src_followers": int(rng.integers(0, 1000)),
                "dst_followers": int(rng.integers(0, 1000)),
                "src_bot": False,
                "dst_bot": False,
                "src_verified": False,
                "dst_verified": False,
            }
            fh.write(json.dumps(record) + "\n")


def tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class TestValidateConfig:
    def test_defaults_with_out_are_ok(self):
        assert validate_config(PipelineConfig(out="/tmp/x")) == []

    def test_alpha_in_range_ok(self):
        assert validate_config(PipelineConfig(out="/tmp/x", alpha=0.05)) == []

    def test_step_exceeding_window_violation(self):
        violations = validate_config(PipelineConfig(out="/tmp/x", window_days=10, step_days=20))
        assert any("step exceeds length" in v for v in violations)

    def test_zero_tolerance_violation(self):
        violations = validate_config(PipelineConfig(out="/tmp/x", tolerance=0.0))
        assert any(v.startswith("tolerance") for v in violations)

    def test_every_violation_reported(self):
        violations = validate_config(PipelineConfig(out="/tmp/x", alpha=2.0, theta=1.5, bins=0))
        assert len(violations) >= 3


@pytest.fixture(scope="module")
def backbone_tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("backbone_tree")
    assert run(synth_args(out)) == 0
    assert run(["backbone", "--out", str(out), "--alpha", "0.05"]) == 0
    return out


class TestExitCodes:
    def test_theta_out_of_range_exits_1(self, tmp_path):
        assert run(["align", "--out", str(tmp_path), "--theta", "1.5"]) == 1

    def test_unsorted_theta_grid_exits_1_before_writing(self, backbone_tree, tmp_path, capsys):
        out = tmp_path / "tree"
        shutil.copytree(backbone_tree, out)
        before = tree_digest(out)
        assert run(["align", "--out", str(out), "--theta-grid", "0.9,0.6"]) == 1
        assert "theta_grid: must be sorted ascending" in capsys.readouterr().err
        assert tree_digest(out) == before

    def test_missing_upstream_exits_2(self, tmp_path):
        assert run(["backbone", "--out", str(tmp_path), "--alpha", "0.05"]) == 2

    def test_missing_events_file_exits_2(self, tmp_path):
        assert run(["ingest", "--out", str(tmp_path), "--events", str(tmp_path / "nope.jsonl")]) == 2

    @pytest.mark.parametrize("flag", ["--events", "--config"])
    def test_input_that_cannot_be_opened_exits_2_and_leaves_the_tree(self, tmp_path, capsys, flag):
        write_jsonl(tmp_path / "in.jsonl", 50, 40, ["a", "b", "c"])
        run_dir, folder = tmp_path / "run", tmp_path / "a-directory"
        folder.mkdir()
        assert run(["ingest", "--out", str(run_dir), "--events", str(tmp_path / "in.jsonl")]) == 0
        before = tree_digest(run_dir)
        events = folder if flag == "--events" else tmp_path / "in.jsonl"
        config = ["--config", str(folder)] if flag == "--config" else []
        assert run(["ingest", "--out", str(run_dir), "--events", str(events), *config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: missing input: cannot read ") and f"{folder}: Is a directory" in err
        assert tree_digest(run_dir) == before

    def test_ingest_reads_events_from_a_fifo(self, tmp_path):
        write_jsonl(tmp_path / "in.jsonl", 50, 40, ["a", "b", "c"])
        fifo = tmp_path / "events.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=((tmp_path / "in.jsonl").read_bytes(),), daemon=True)
        writer.start()
        assert run(["ingest", "--out", str(tmp_path / "piped"), "--events", str(fifo)]) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert run(["ingest", "--out", str(tmp_path / "filed"), "--events", str(tmp_path / "in.jsonl")]) == 0
        assert (tmp_path / "piped" / "events.jsonl").read_bytes() == (tmp_path / "filed" / "events.jsonl").read_bytes()

    def test_range_shorter_than_one_window_exits_1(self, tmp_path, capsys):
        write_jsonl(tmp_path / "in.jsonl", 300, 10, [f"u{i}" for i in range(20)])
        out = ["--out", str(tmp_path / "run")]
        assert run(["ingest", "--events", str(tmp_path / "in.jsonl"), *out]) == 0
        assert run(["align", "--unfiltered", *out]) == 0
        assert run(["growth", *out]) == 1
        assert "shorter than one window" in capsys.readouterr().err
        assert run(["simulate", "--delta", "0.01", "--r0", "1.5", *out]) == 1

    def test_strict_ingest_of_a_bad_line_exits_1(self, tmp_path, capsys):
        write_jsonl(tmp_path / "in.jsonl", 50, 40, ["a", "b", "c"])
        with open(tmp_path / "in.jsonl", "a") as fh:
            fh.write('{"ts": "soon"}\n')
        out = ["--out", str(tmp_path / "run"), "--events", str(tmp_path / "in.jsonl")]
        assert run(["ingest", "--strict", *out]) == 1
        assert "1 invalid lines" in capsys.readouterr().err
        assert run(["ingest", *out]) == 0

    def test_reparse_of_a_bad_events_file_exits_1(self, tmp_path, capsys):
        write_jsonl(tmp_path / "in.jsonl", 50, 40, ["a", "b", "c"])
        run_dir = tmp_path / "run"
        assert run(["ingest", "--out", str(run_dir), "--events", str(tmp_path / "in.jsonl")]) == 0
        shutil.rmtree(run_dir / "events_cache")
        with open(run_dir / "events.jsonl", "a") as fh:
            fh.write("not json\n")
        assert run(["backbone", "--out", str(run_dir)]) == 1
        assert "invalid lines (first: line 51" in capsys.readouterr().err

    def test_failed_strict_ingest_leaves_no_earlier_outputs(self, tmp_path, capsys):
        write_jsonl(tmp_path / "good.jsonl", 50, 40, ["a", "b", "c"])
        write_jsonl(tmp_path / "bad.jsonl", 60, 40, ["d", "e", "f"], seed=1)
        with open(tmp_path / "bad.jsonl", "a") as fh:
            fh.write('{"ts": "soon"}\n')
        run_dir = tmp_path / "run"
        out = ["--out", str(run_dir)]
        assert run(["ingest", "--events", str(tmp_path / "good.jsonl"), *out]) == 0
        assert run(["ingest", "--strict", "--events", str(tmp_path / "bad.jsonl"), *out]) == 1
        assert sorted(os.listdir(run_dir)) == ["parse_errors.csv"]
        assert run(["backbone", *out]) == 2
        assert "events.jsonl not found" in capsys.readouterr().err
        assert run(["ingest", "--events", str(tmp_path / "good.jsonl"), *out]) == 0
        assert not (run_dir / "parse_errors.csv").exists()

    def test_clean_ingest_removes_an_old_error_list(self, tmp_path):
        write_jsonl(tmp_path / "in.jsonl", 50, 40, ["a", "b", "c"])
        fresh = tmp_path / "fresh"
        assert run(["ingest", "--out", str(fresh), "--events", str(tmp_path / "in.jsonl")]) == 0
        reused = tmp_path / "reused"
        reused.mkdir()
        (reused / "parse_errors.csv").write_text("line_no,message\r\n3,bad\r\n")
        assert run(["ingest", "--out", str(reused), "--events", str(tmp_path / "in.jsonl")]) == 0
        assert tree_digest(reused) == tree_digest(fresh)

    def test_ingest_of_its_own_events_file_keeps_it(self, tmp_path):
        write_jsonl(tmp_path / "in.jsonl", 50, 40, ["a", "b", "c"])
        run_dir = tmp_path / "run"
        assert run(["ingest", "--out", str(run_dir), "--events", str(tmp_path / "in.jsonl")]) == 0
        before = (run_dir / "events.jsonl").read_bytes()
        assert run(["ingest", "--out", str(run_dir), "--events", str(run_dir / "events.jsonl")]) == 0
        assert (run_dir / "events.jsonl").read_bytes() == before

    def test_ingest_over_a_synth_tree_leaves_no_synth_output(self, tmp_path):
        write_jsonl(tmp_path / "in.jsonl", 50, 40, ["a", "b", "c"])
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        assert run(["ingest", "--out", str(fresh), "--events", str(tmp_path / "in.jsonl")]) == 0
        assert run(synth_args(reused)) == 0
        assert run(["ingest", "--out", str(reused), "--events", str(tmp_path / "in.jsonl")]) == 0
        assert not (reused / "truth.json").exists() and not (reused / "synth_meta.json").exists()
        assert tree_digest(reused) == tree_digest(fresh)

    def test_synth_over_an_ingest_tree_leaves_no_ingest_output(self, tmp_path, capsys):
        write_jsonl(tmp_path / "in.jsonl", 50, 40, ["a", "b", "c"])
        with open(tmp_path / "in.jsonl", "a") as fh:
            fh.write('{"ts": "soon"}\n')
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        assert run(synth_args(fresh, seed=8)) == 0
        assert run(["ingest", "--out", str(reused), "--events", str(tmp_path / "in.jsonl")]) == 0
        ingested = tree_digest(reused)
        # A config error found by the generator leaves the old tree whole.
        assert run(synth_args(reused, seed=8, extra=("--synth-swayable", "1"))) == 1
        assert "swayable" in capsys.readouterr().err
        assert tree_digest(reused) == ingested
        assert run(synth_args(reused, seed=8)) == 0
        assert not (reused / "parse_errors.csv").exists() and not (reused / "ingest_meta.json").exists()
        assert tree_digest(reused) == tree_digest(fresh)

    def test_non_string_user_and_fractional_count_are_bad_lines(self, tmp_path, capsys):
        write_jsonl(tmp_path / "in.jsonl", 50, 40, ["a", "b", "c"])
        good = {"ts": 5, "src": "a", "dst": "b", "cat": "NA", "src_followers": 1, "dst_followers": 2}
        good.update(src_bot=False, dst_bot=False, src_verified=False, dst_verified=False)
        with open(tmp_path / "in.jsonl", "a") as fh:
            fh.write(json.dumps({**good, "src": None}) + "\n")
            fh.write(json.dumps({**good, "src_followers": 3.7}) + "\n")
        run_dir = tmp_path / "run"
        out = ["--out", str(run_dir), "--events", str(tmp_path / "in.jsonl")]
        assert run(["ingest", "--strict", *out]) == 1
        assert "2 invalid lines" in capsys.readouterr().err
        assert run(["ingest", *out]) == 0
        assert (run_dir / "parse_errors.csv").read_bytes() == (
            b"line_no,message\r\n51,bad src: None\r\n52,bad src_followers: 3.7\r\n"
        )
        users = [row[0] for row in read_csv_rows(run_dir / "flag_rates.csv")]
        assert users == ["a", "b", "c"]

    def test_lone_surrogate_label_is_a_bad_line(self, tmp_path, capsys):
        # json.loads gives "\ud800" as a lone surrogate, which no UTF-8 file can hold.
        write_jsonl(tmp_path / "in.jsonl", 50, 40, ["a", "b", "c"])
        good = {"ts": 5, "src": "a", "dst": "b", "cat": "NA", "src_followers": 1, "dst_followers": 2}
        good.update(src_bot=False, dst_bot=False, src_verified=False, dst_verified=False)
        with open(tmp_path / "in.jsonl", "a") as fh:
            fh.write(json.dumps({**good, "src": "\ud800"}) + "\n")
        run_dir = tmp_path / "run"
        out = ["--out", str(run_dir), "--events", str(tmp_path / "in.jsonl")]
        assert run(["ingest", "--strict", *out]) == 1
        assert "1 invalid lines" in capsys.readouterr().err
        assert sorted(os.listdir(run_dir)) == ["parse_errors.csv"]
        assert run(["ingest", *out]) == 0
        assert (run_dir / "parse_errors.csv").read_bytes() == b"line_no,message\r\n51,bad src: '\\ud800'\r\n"
        assert run(["backbone", "--out", str(run_dir), "--alpha", "0.05"]) == 0

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_input_that_is_not_utf8_exits_1_and_names_the_line(self, tmp_path, capsys, fmt):
        write_jsonl(tmp_path / "good.jsonl", 50, 40, ["a", "b", "c"])
        lines = (tmp_path / "good.jsonl").read_bytes().splitlines(keepends=True)
        if fmt == "csv":
            lines = [",".join(EVENT_FIELDS).encode() + b"\n"] + [
                ",".join(str(v) for v in json.loads(line).values()).encode() + b"\n" for line in lines
            ]
        lines[2] = lines[2][:5] + b"\xe9" + lines[2][5:]  # Latin-1 for "é"
        bad = tmp_path / f"bad.{fmt}"
        bad.write_bytes(b"".join(lines))
        run_dir = tmp_path / "run"
        assert run(["ingest", "--out", str(run_dir), "--events", str(tmp_path / "good.jsonl")]) == 0
        assert run(["ingest", "--out", str(run_dir), "--events", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: line 3: not UTF-8 text" in err
        assert os.listdir(run_dir) == []  # the earlier ingest's outputs are gone, and nothing new was written

    def test_reparse_of_an_events_file_that_is_not_utf8_exits_1_and_names_the_line(self, tmp_path, capsys):
        write_jsonl(tmp_path / "in.jsonl", 50, 40, ["a", "b", "c"])
        run_dir = tmp_path / "run"
        assert run(["ingest", "--out", str(run_dir), "--events", str(tmp_path / "in.jsonl")]) == 0
        events = run_dir / "events.jsonl"
        lines = events.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:5] + b"\xe9" + lines[2][5:]
        events.write_bytes(b"".join(lines))  # a new digest: the cache misses and the stage parses the file
        assert run(["backbone", "--out", str(run_dir)]) == 1
        assert f"error: invalid data: {events}: line 3: not UTF-8 text (invalid continuation byte)" in capsys.readouterr().err

    def test_undecodable_line_is_numbered_as_the_parse_numbers_lines(self, tmp_path, capsys):
        write_jsonl(tmp_path / "in.jsonl", 5, 40, ["a", "b", "c"])
        lines = (tmp_path / "in.jsonl").read_bytes().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\r".join(lines[:2] + [b"not json"] + lines[3:]) + b"\r")  # bare carriage returns end lines
        assert run(["ingest", "--out", str(tmp_path / "run"), "--events", str(bad)]) == 0
        assert (tmp_path / "run" / "parse_errors.csv").read_bytes().startswith(b"line_no,message\r\n3,")
        bad.write_bytes(b"\r".join(lines[:2] + [lines[2][:5] + b"\xe9" + lines[2][5:]] + lines[3:]) + b"\r")
        assert run(["ingest", "--out", str(tmp_path / "run"), "--events", str(bad)]) == 1
        assert f"{bad}: line 3: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_ingest_reads_utf8_whatever_the_locale(self, tmp_path, fmt):
        events = tmp_path / f"in.{fmt}"
        records = [
            {"ts": 5 + i, "src": src, "dst": dst, "cat": "SCIENCE", "src_followers": 1, "dst_followers": 2}
            | {"src_bot": False, "dst_bot": False, "src_verified": False, "dst_verified": False}
            for i, (src, dst) in enumerate([("café", "b"), ("b", "ünï"), ("café", "ünï")])
        ]
        with open(events, "w", encoding="utf-8", newline="") as fh:
            if fmt == "jsonl":
                fh.writelines(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
            else:
                writer = csv.DictWriter(fh, EVENT_FIELDS)
                writer.writeheader()
                writer.writerows(records)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        c_locale = tmp_path / "c_locale"
        args = ["ingest", "--events", str(events), "--out", str(c_locale)]
        proc = subprocess.run([sys.executable, "-m", "swaynet.cli", *args], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert run(["ingest", "--events", str(events), "--out", str(tmp_path / "default")]) == 0
        assert tree_digest(c_locale) == tree_digest(tmp_path / "default")
        assert "café" in (c_locale / "flag_rates.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("damage", ["padded-24", "cut-13", "cut-16", "empty"])
    def test_unreadable_backbone_exits_2_and_names_stage(self, backbone_tree, tmp_path, capsys, damage):
        run_dir = tmp_path / "run"
        shutil.copytree(backbone_tree, run_dir)
        path = run_dir / "backbone.bin"
        data = path.read_bytes()
        path.write_bytes({"padded-24": data + bytes(24), "cut-13": data[:-13], "cut-16": data[:-16], "empty": b""}[damage])
        assert run(["align", "--out", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "`backbone` stage" in err

    def test_align_before_backbone_names_stage(self, tmp_path, capsys):
        assert run(synth_args(tmp_path)) == 0
        assert run(["align", "--out", str(tmp_path)]) == 2
        assert "backbone" in capsys.readouterr().err

    def test_diagnose_of_an_empty_event_stream_exits_1_before_writing(self, tmp_path, capsys):
        (tmp_path / "empty.jsonl").write_text("")
        run_dir = tmp_path / "run"
        assert run(["ingest", "--out", str(run_dir), "--events", str(tmp_path / "empty.jsonl")]) == 0
        before = sorted(os.listdir(run_dir))
        assert run(["diagnose", "--out", str(run_dir)]) == 1
        assert "empty" in capsys.readouterr().err
        assert sorted(os.listdir(run_dir)) == before

    def test_report_of_an_empty_backbone_exits_1_before_writing(self, tmp_path, capsys):
        out = ["--out", str(tmp_path)]
        assert run(synth_args(tmp_path)) == 0
        assert run(["backbone", "--alpha", "1e-300", *out]) == 0
        assert run(["align", *out]) == 0
        assert run(["growth", *out]) == 0
        assert run(["report", *out]) == 1
        assert "backbone.bin is an empty graph" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()
        assert not (tmp_path / "report_meta.json").exists()

    @pytest.mark.parametrize("name", ["ternary.csv", "coverage.csv"])
    def test_report_without_an_align_table_exits_2_before_writing(self, tmp_path, capsys, name):
        out = ["--out", str(tmp_path)]
        assert run(synth_args(tmp_path)) == 0
        assert run(["backbone", *out]) == 0
        assert run(["align", *out]) == 0
        assert run(["growth", *out]) == 0
        os.remove(tmp_path / name)
        assert run(["report", *out]) == 2
        assert f"{name} not found; run the `align` stage first" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.10  # comment\ntheta = 0.90\n")
        import swaynet.cli as cli

        args = cli.build_parser().parse_args(["backbone", "--out", str(tmp_path), "--config", str(cfg), "--alpha", "0.2"])
        resolved = cli.resolve_config(args)
        assert resolved.alpha == 0.2  # flag wins
        assert resolved.theta == 0.90  # file value survives

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert run(["backbone", "--out", str(tmp_path), "--config", str(cfg)]) == 1

    def test_removed_single_pass_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("single_pass = true\n")
        assert run(["fit", "--out", str(tmp_path), "--config", str(cfg)]) == 1


    @pytest.mark.parametrize("value", ["CSV", "xml"])
    def test_format_outside_its_choices_exits_1_from_a_config_file(self, tmp_path, capsys, value):
        write_jsonl(tmp_path / "in.csv", 20, 40, ["a", "b", "c"])  # JSON Lines under a .csv name
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fmt = {value}\n")
        args = ["ingest", "--out", str(tmp_path / "run"), "--events", str(tmp_path / "in.csv")]
        assert run([*args, "--config", str(cfg)]) == 1
        assert f"error: invalid config: fmt: must be one of jsonl, csv, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        with pytest.raises(SystemExit) as exc:
            run([*args, "--format", value])
        assert exc.value.code == 2

    def test_config_file_that_is_not_utf8_exits_1_naming_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# sweep\r\nalpha = 0.1 # caf\xe9\n")  # Latin-1 for "é"
        assert run(["backbone", "--out", str(tmp_path), "--config", str(cfg)]) == 1
        assert f"error: invalid config: {cfg}:2: not UTF-8 text (invalid continuation byte)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "runs = abc",
            "alpha = 0.05x",
            "alpha_grid = 0.1,x",
            "fit_range = 1.0:x",
            "fit_range = 2",
            "range_start = someday",
            "unfiltered = ture",
        ],
    )
    def test_unconvertible_value_exits_1_naming_key_and_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# sweep\n{line}\n")
        assert run(["backbone", "--out", str(tmp_path), "--config", str(cfg)]) == 1
        key = line.split(" = ")[0]
        assert f"run.cfg:2: {key}: " in capsys.readouterr().err


class TestFlagValues:
    @pytest.mark.parametrize(
        "stage, flag, value",
        [
            ("backbone", "--alpha", "abc"),
            ("backbone", "--range-start", "2020-13-01"),
            ("backbone", "--alpha-grid", "0.1,x"),
            ("diagnose", "--fit-range", "2"),
            ("diagnose", "--fit-range", "1:2:3"),
            ("align", "--bins", "2.5"),
            ("fit", "--runs", "ten"),
            ("simulate", "--seed", "x"),
        ],
    )
    def test_bad_flag_value_exits_1_naming_the_flag(self, tmp_path, capsys, stage, flag, value):
        assert run([stage, "--out", str(tmp_path), flag, value]) == 1
        assert f"error: invalid config: {flag}: " in capsys.readouterr().err

    # A value for each key type that differs from every default; a bool key's flag takes none.
    SAMPLES = {"str": "csv", "int": "7", "float": "0.5", "bool": "Yes", "tuple[float, ...]": "0.6,0.9", "tuple[float, float]": "1:50"}

    @pytest.mark.parametrize("stage", list(cli._STAGES))
    def test_flag_and_config_file_values_convert_alike(self, tmp_path, stage):
        keys = [key for key in (*cli._COMMON, *cli._STAGES[stage].keys) if key != "config"]
        text = {key: "2020-03-17" if key.startswith("range_") else self.SAMPLES[cli._TYPES[key]] for key in keys}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in text.items()))
        from_file = cli.resolve_config(cli.build_parser().parse_args([stage, "--config", str(cfg)]))
        assert all(getattr(from_file, key) != getattr(PipelineConfig(), key) for key in keys)
        for spelling in (0, -1):  # the first and the last flag of each key: --lookback and --n
            flags = []
            for key in keys:
                flag = cli._flags(key)[spelling]
                flags += [flag] if cli._TYPES[key] == "bool" else [flag, text[key]]
            assert cli.resolve_config(cli.build_parser().parse_args([stage, *flags])) == from_file
        if "range_start" in keys:
            assert from_file.range_start == 1584403200
        if "fit_range" in keys:
            assert from_file.fit_range == (1.0, 50.0)

    def test_config_file_sets_keys_its_stage_has_no_flag_for(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.5\nr0 = 2\nbins = 7\nstrict = No\nunfiltered = Yes\n")
        from_file = cli.resolve_config(cli.build_parser().parse_args(["diagnose", "--out", "x", "--config", str(cfg)]))
        assert (from_file.delta, from_file.r0, from_file.bins) == (0.5, 2.0, 7)
        assert (from_file.strict, from_file.unfiltered) == (False, True)

    def test_numeric_config_value_with_no_default_is_a_number(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.5\nr0 = 1\n")
        assert run(["simulate", "--out", str(tmp_path), "--config", str(cfg)]) == 2
        assert "missing input" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["backbone", "--bogus", "1"], ["fit", "--alpha", "0.1"]], ids=["backbone-bogus", "fit-alpha"])
    def test_unknown_flag_stays_a_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2


README = os.path.join(os.path.dirname(__file__), "..", "README.md")

# Keys a config file can set but no stage takes as a flag; README's
# "Configuration" section lists each.
CONFIG_ONLY_KEYS = {
    "window_days",
    "step_days",
    "gtb_quantiles",
    "synth_follower_mu",
    "synth_follower_sigma",
    "synth_bot_rate",
    "synth_verified_rate",
    *(f"synth_{kind}_{cls}" for kind in ("rates", "reach") for cls in CONTENT_CLASSES),
}


def readme_command_lines():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```\n(.*?)^```", fh.read(), re.S | re.M)
    return [line.split()[1:] for block in blocks for line in block.splitlines() if line.startswith("swaynet ")]


class TestDocumentedCommandLine:
    def test_readme_holds_the_pipeline_command_lines(self):
        stages = [argv[0] for argv in readme_command_lines()]
        assert stages == ["synth", "backbone", "align", "growth", "fit", "report", "ingest"]

    @pytest.mark.parametrize("argv", readme_command_lines(), ids=lambda argv: argv[0])
    def test_readme_command_line_parses_and_validates(self, argv):
        assert validate_config(cli.resolve_config(cli.build_parser().parse_args(argv))) == []

    def test_readme_outputs_table_is_the_stage_table(self):
        with open(README, encoding="utf-8") as fh:
            section = fh.read().partition("### Outputs")[2].partition("\n## ")[0]

        def documented(cell):  # artifact -> whether the cell gives it a condition
            return {name: bool(condition) for name, condition in re.findall(r"`([\w/]+\.\w+)`( \([^)]*\))?", cell)}

        def declared(names):
            return {name: isinstance(name, cli._If) for name in names}

        rows = re.findall(r"^\| `(\w+)` \| (.*) \| (.*) \|$", section, re.M)
        documented_rows = {stage: (documented(reads), documented(writes)) for stage, reads, writes in rows}
        assert documented_rows == {stage: (declared(row.reads), declared(row.writes)) for stage, row in cli._STAGES.items()}

    def test_keys_no_flag_sets_are_the_documented_config_only_keys(self):
        flagged = set(cli._COMMON).union(*(row.keys for row in cli._STAGES.values()))
        assert {f.name for f in fields(PipelineConfig)} - flagged == CONFIG_ONLY_KEYS
        with open(README, encoding="utf-8") as fh:
            section = fh.read().partition("### Configuration")[2].partition("\n### ")[0]
        assert [key for key in sorted(CONFIG_ONLY_KEYS) if f"`{key}`" not in section] == []


class TestPipeline:
    def test_full_pipeline_and_report_contents(self, tmp_path):
        run_pipeline(tmp_path, with_fit=True)
        report = tmp_path / "report"
        expected = [
            "fig1a_components.csv",
            "fig1b_retention.csv",
            "fig1c_temporal.csv",
            "fig2a_ternary.csv",
            "fig2b_coverage.csv",
            "fig3a_daily.csv",
            "fig3b_growth.csv",
            "fig4_rates.csv",
            "fig4_r0.csv",
        ]
        for name in expected:
            assert (report / name).exists(), name
        assert (report / "supp_size_curve.csv").exists()
        assert (report / "supp_topology.json").exists()

    def test_fig2_tables_are_byte_copies(self, tmp_path):
        run_pipeline(tmp_path, with_fit=False)
        for source, copy in (("ternary.csv", "fig2a_ternary.csv"), ("coverage.csv", "fig2b_coverage.csv")):
            assert (tmp_path / "report" / copy).read_bytes() == (tmp_path / source).read_bytes(), copy

    def test_report_without_fit_omits_fig4(self, tmp_path):
        run_pipeline(tmp_path, with_fit=False)
        report = tmp_path / "report"
        assert not (report / "fig4_rates.csv").exists()
        assert not (report / "fig4_r0.csv").exists()
        assert (report / "fig1a_components.csv").exists()

    def test_retention_fractions_in_unit_interval(self, tmp_path):
        run_pipeline(tmp_path, with_fit=False)
        import csv

        with open(tmp_path / "report" / "fig1b_retention.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["class"] for r in rows} == {"factual", "misleading", "uncertain"}
        for row in rows:
            assert 0.0 <= float(row["retained_fraction"]) <= 1.0

    def test_fit_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "a"
        run_pipeline(out, with_fit=False)
        argv = ["fit", "--out", str(out), "--n", "3", "--runs", "8", "--tolerance", "0.10", "--seed", "7"]
        assert run(argv) == 0
        first = (out / "fit.json").read_bytes()
        first_rates = (out / "fig4_rates.csv").read_bytes()
        assert run(argv) == 0
        assert (out / "fit.json").read_bytes() == first
        assert (out / "fig4_rates.csv").read_bytes() == first_rates
        assert json.loads(first)["lookback_months"] == 3

    def test_two_seeded_runs_byte_identical_trees(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline(a, seed=5, with_fit=False)
        run_pipeline(b, seed=5, with_fit=False)
        assert tree_digest(a) == tree_digest(b)

    def test_artifacts_do_not_depend_on_the_event_cache(self, tmp_path):
        # A stage that finds no events_cache/ parses events.jsonl and writes
        # the cache back; every artifact must match the tree synth cached.
        import shutil

        cached, parsed = tmp_path / "cached", tmp_path / "parsed"
        assert run(synth_args(cached, seed=5)) == 0
        shutil.copytree(cached, parsed)
        shutil.rmtree(parsed / "events_cache")
        for out in (cached, parsed):
            seed_args = ["--out", str(out), "--seed", "5"]
            assert run(["backbone", "--alpha", "0.05", *seed_args]) == 0
            assert run(["align", "--theta", "0.95", *seed_args]) == 0
            assert run(["growth", *seed_args]) == 0
            assert run(["fit", "--runs", "10", *seed_args]) == 0
            assert run(["report", *seed_args]) == 0
        assert (parsed / "events_cache" / "cache_meta.json").exists()
        assert tree_digest(cached) == tree_digest(parsed)

    def test_line_break_labels_survive_the_event_cache(self, tmp_path):
        # JSON allows any character in a label; the cache must give back the
        # user table a parse gives, so backbone builds the same graph from it.
        import shutil

        from swaynet.store import EventColumns

        labels = ["a\u2028b", "c\nd", "e\rf", "g\r\nh", "plain", "x\u0085y"]
        write_jsonl(tmp_path / "in.jsonl", 60, 40, labels)
        cached, parsed = tmp_path / "cached", tmp_path / "parsed"
        assert run(["ingest", "--out", str(cached), "--events", str(tmp_path / "in.jsonl")]) == 0
        loaded = EventColumns.load(str(cached / "events_cache"))
        assert loaded is not None and sorted(loaded.users) == sorted(labels)
        shutil.copytree(cached, parsed)
        shutil.rmtree(parsed / "events_cache")
        for out in (cached, parsed):
            assert run(["backbone", "--out", str(out), "--alpha", "0.05"]) == 0
        assert (cached / "backbone.bin").read_bytes() == (parsed / "backbone.bin").read_bytes()
        assert tree_digest(cached) == tree_digest(parsed)

    def test_non_ascii_events_file_stays_on_the_byte_tier(self, tmp_path, monkeypatch):
        from swaynet import events

        labels = ["café", "ünï", "😀", "plain", "a\u2028b"]
        write_jsonl(tmp_path / "in.jsonl", 60, 40, labels)
        out = tmp_path / "run"
        assert run(["ingest", "--out", str(out), "--events", str(tmp_path / "in.jsonl")]) == 0
        written = (out / "events.jsonl").read_bytes()
        assert b"\\u" not in written and all(label.encode() in written for label in labels)
        shutil.rmtree(out / "events_cache")

        def refuse(*args):
            raise AssertionError("a chunk of events.jsonl reached the per-line parse")

        monkeypatch.setattr(events, "_line_rows", refuse)
        assert run(["backbone", "--out", str(out), "--alpha", "0.05"]) == 0

    def test_ingest_roundtrip_of_synth_output(self, tmp_path):
        assert run(synth_args(tmp_path)) == 0
        out2 = tmp_path / "reingest"
        assert run(["ingest", "--out", str(out2), "--events", str(tmp_path / "events.jsonl")]) == 0
        assert (out2 / "events.jsonl").read_bytes() == (tmp_path / "events.jsonl").read_bytes()

    def test_simulate_stage(self, tmp_path):
        run_pipeline(tmp_path, with_fit=False)
        assert run(
            ["simulate", "--out", str(tmp_path), "--delta", "0.05", "--r0", "2.0", "--runs", "10"]
        ) == 0
        assert (tmp_path / "simulate.csv").exists()

    def test_simulate_repeats_fit_replicates_on_grid(self, tmp_path):
        import csv

        from swaynet import cli
        from swaynet.sir import FitConfig, _precompute_window

        run_pipeline(tmp_path, with_fit=False)
        assert run(
            ["simulate", "--out", str(tmp_path), "--delta", "0.05", "--r0", "2.0", "--runs", "10", "--seed", "9"]
        ) == 0
        config = PipelineConfig(out=str(tmp_path), seed=9, runs=10)
        inputs = cli._Inputs(config, "simulate")
        columns = inputs.columns()
        setups = cli._build_setups(config, columns, cli._load_labels(inputs, columns)[0])
        grid = FitConfig().r0_grid()
        assert grid[40] == 2.0
        with open(tmp_path / "simulate.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["r_hat_mean"] != ""]
        assert rows
        for row in rows:
            start, cls = int(row["window_start"]), row["class"]
            cache = _precompute_window(start, {cls: setups[start][cls]}, {cls: 0.0}, grid, 10, 9)
            assert row["r_hat_mean"] == f"{(0.05 * cache.rho[40, :, 0]).mean():.8f}", (start, cls)

    def test_simulate_off_grid_matches_per_replicate_oracle(self, tmp_path):
        from oracles import simulate_growth_rate
        from swaynet import cli
        from swaynet import rng as rngmod

        run_pipeline(tmp_path, with_fit=False)
        delta, r0, runs, seed = 0.05, 1.2345, 37, 9
        assert run(
            ["simulate", "--out", str(tmp_path), "--delta", str(delta), "--r0", str(r0), "--runs", str(runs), "--seed", str(seed)]
        ) == 0
        config = PipelineConfig(out=str(tmp_path), seed=seed, runs=runs)
        inputs = cli._Inputs(config, "simulate")
        columns = inputs.columns()
        setups = cli._build_setups(config, columns, cli._load_labels(inputs, columns)[0])
        with open(tmp_path / "simulate.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["r_hat_mean"] != ""]
        assert rows
        for row in rows:
            start, cls = int(row["window_start"]), row["class"]
            draws = np.array(
                [simulate_growth_rate(setups[start][cls], r0, delta, rngmod.stream(seed, start, rep, cls)) for rep in range(runs)]
            )
            assert (row["r_hat_mean"], row["r_hat_std"]) == (f"{draws.mean():.8f}", f"{draws.std():.8f}"), (start, cls)

    def test_diagnose_stage(self, tmp_path):
        assert run(synth_args(tmp_path)) == 0
        assert run(["diagnose", "--out", str(tmp_path)]) == 0
        for name in ("heterogeneity.csv", "heterogeneity_buckets.csv", "topology.json", "size_curve.csv", "gtb_overlap.csv"):
            assert (tmp_path / name).exists(), name

    def test_meta_embeds_seed_and_input_hashes(self, tmp_path):
        run_pipeline(tmp_path, with_fit=False)
        meta = json.loads((tmp_path / "growth_meta.json").read_text())
        assert meta["seed"] == 9
        assert "events.jsonl" in meta["inputs"]
        assert len(meta["inputs"]["events.jsonl"]) == 64


EVENTS, BACKBONE, LABELS, GROWTH = "events.jsonl", "backbone.bin", "alignment_labels.csv", "growth.csv"

# Run in order on one tree: (row id, argv after `--out OUT`, inputs the stage's meta must record).
# `{out}` in an argument is the tree itself.
STAGE_INPUT_ROWS = [
    ("synth", synth_args("{out}")[3:], set()),
    ("ingest-in-place", ["--events", "{out}/events.jsonl"], {EVENTS}),
    ("ingest-bad-line", ["--events", "{out}/bad_line.jsonl"], {"bad_line.jsonl"}),
    ("backbone", ["--alpha", "0.05"], {EVENTS}),
    ("backbone-grid", ["--alpha", "0.05", "--alpha-grid", "0.01,0.05", "--emit-significance"], {EVENTS}),
    ("diagnose", [], {EVENTS}),
    ("align-unfiltered", ["--unfiltered"], {EVENTS}),
    ("align", [], {EVENTS, BACKBONE}),
    ("growth", [], {EVENTS, LABELS}),
    ("growth-cache-miss", [], {EVENTS, LABELS}),
    ("simulate", ["--delta", "0.05", "--r0", "1.5", "--runs", "5"], {EVENTS, LABELS}),
    ("report-without-fit", [], {EVENTS, BACKBONE, LABELS, GROWTH, "ternary.csv", "coverage.csv"}),
    ("fit", ["--runs", "5"], {EVENTS, LABELS, GROWTH}),
    ("report", [], {EVENTS, BACKBONE, LABELS, GROWTH, "ternary.csv", "coverage.csv", "fit.json"}),
]


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# What a row needs done to the tree before it runs, beyond what the rows ahead of it did.
PREPARE = {
    "ingest-bad-line": lambda out: (out / "bad_line.jsonl").write_bytes((out / EVENTS).read_bytes() + b"not json\n"),
    "growth-cache-miss": lambda out: shutil.rmtree(out / "events_cache"),
}
# The conditional reads and writes in its stage's row that apply to a row id; the others apply to none.
APPLIES = {
    "ingest-bad-line": {"parse_errors.csv"},
    "backbone-grid": {"size_curve.csv", "significance.csv"},
    "align": {BACKBONE},
    "report": {"fit.json", "report/fig4_rates.csv", "report/fig4_r0.csv"},
}


def tree_state(root):
    """Every file under root, by its path relative to root, as (size, st_mtime_ns, SHA-256)."""
    files = (p for p in sorted(root.rglob("*")) if p.is_file())
    return {p.relative_to(root).as_posix(): (p.stat().st_size, p.stat().st_mtime_ns, sha256_of(p)) for p in files}


@pytest.fixture(scope="module")
def stage_runs(tmp_path_factory):
    """Row id -> (the stage's meta, the state of the whole tree before the row ran, and after)."""
    out = tmp_path_factory.mktemp("stage_inputs")
    seen = {}
    for row, args, _ in STAGE_INPUT_ROWS:
        stage = row.split("-")[0]
        if row in PREPARE:
            PREPARE[row](out)
        before = tree_state(out)
        assert run([stage, "--out", str(out), *(a.format(out=out) for a in args)]) == 0, row
        meta = json.loads((out / f"{stage}_meta.json").read_text())
        seen[row] = meta, before, tree_state(out)
    return seen


@pytest.fixture(scope="module")
def stage_metas(stage_runs):
    """Row id -> (the stage's meta, the SHA-256 of every file in the tree) just after the row ran."""
    return {
        row: (meta, {path: sha256 for path, (_, _, sha256) in after.items() if "/" not in path})
        for row, (meta, _, after) in stage_runs.items()
    }


class TestStageInputs:
    @pytest.mark.parametrize("row,expected", [pytest.param(row, expected, id=row) for row, _, expected in STAGE_INPUT_ROWS])
    def test_meta_records_every_input_the_stage_read(self, stage_metas, row, expected):
        meta, digests = stage_metas[row]
        assert set(meta["inputs"]) == expected
        assert meta["inputs"] == {name: digests[name] for name in expected}

    @pytest.mark.parametrize("row,args", [pytest.param(row, args, id=row) for row, args, _ in STAGE_INPUT_ROWS])
    def test_stage_touches_exactly_what_its_row_declares(self, stage_runs, row, args):
        stage = row.split("-")[0]
        declared, applies = cli._STAGES[stage], APPLIES.get(row, set())

        def applying(names):
            return {name for name in names if not isinstance(name, cli._If) or name in applies}

        meta, before, after = stage_runs[row]
        changed = {path for path, state in after.items() if before.get(path) != state}  # created or rewritten
        removed = set(before) - set(after)
        cache = {path for path in changed | removed if path.startswith("events_cache/")}
        writes = applying(declared.writes) | {f"{stage}_meta.json"}
        if row == "ingest-in-place":
            writes.remove(EVENTS)  # --events is --out's own events.jsonl, which ingest leaves as it is
        assert changed - cache == writes
        # The cache goes with events.jsonl: written by what writes events.jsonl, and by a stage that misses it.
        assert bool(cache) == (EVENTS in declared.writes or row == "growth-cache-miss")
        assert removed - cache <= (set(cli._EVENT_OUTPUTS) if EVENTS in declared.writes else set())
        events_input = {os.path.basename(args[1])} if stage == "ingest" else set()  # --events, outside the row
        assert set(meta["inputs"]) == applying(declared.reads) | events_input

    def test_undeclared_read_or_write_is_refused(self, tmp_path):
        inputs = cli._Inputs(PipelineConfig(out=str(tmp_path)), "growth")
        with pytest.raises(LookupError, match="`growth` stage declares no input fit.json"):
            inputs.require("fit.json")
        with pytest.raises(LookupError, match="`growth` stage declares no output fit.json"):
            inputs.output("fit.json")
        assert inputs.digests == {} and inputs.written == []

    def test_clear_set_is_what_ingest_and_synth_write(self):
        assert set(cli._EVENT_OUTPUTS) == {
            EVENTS,
            "events_cache",
            "follower_logs.csv",
            "flag_rates.csv",
            "truth.json",
            "parse_errors.csv",
            "ingest_meta.json",
            "synth_meta.json",
        }
        assert cli._PRODUCER[EVENTS] == "ingest or synth"

    @pytest.mark.parametrize("stage", ["backbone", "align", "growth", "fit", "report"])
    def test_each_input_is_hashed_once(self, backbone_tree, tmp_path, monkeypatch, stage):
        from swaynet import cli, store

        run_dir = tmp_path / "run"
        shutil.copytree(backbone_tree, run_dir)
        out = ["--out", str(run_dir)]
        assert run(["align", *out]) == 0
        assert run(["growth", *out]) == 0
        assert run(["fit", "--runs", "5", *out]) == 0
        calls = []
        sha256 = store.file_sha256
        for owner in (cli, store):
            monkeypatch.setattr(owner, "file_sha256", lambda path: calls.append(os.path.basename(path)) or sha256(path))
        assert run([stage, *out, *(["--runs", "5"] if stage == "fit" else [])]) == 0
        inputs = json.loads((run_dir / f"{stage}_meta.json").read_text())["inputs"]
        assert EVENTS in inputs
        assert sorted(calls) == sorted(inputs)


def tree_files(root):
    """Every file under root, by its path relative to root, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestIngestReadsOnce:
    """ingest reads its input once, as bytes: it hashes the input while it
    parses it, and copies an input that is already canonical."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Paths given to file_sha256, and the number of write_events_jsonl calls."""
        from swaynet import store

        calls = {"file_sha256": [], "write_events_jsonl": 0}
        sha256, write = store.file_sha256, cli.write_events_jsonl
        for owner in (cli, store):
            monkeypatch.setattr(owner, "file_sha256", lambda path: calls["file_sha256"].append(path) or sha256(path))

        def counted(*args):
            calls["write_events_jsonl"] += 1
            return write(*args)

        monkeypatch.setattr(cli, "write_events_jsonl", counted)
        return calls

    @pytest.mark.parametrize("case", ["copied", "rewritten", "in-place-left", "in-place-rewritten"])
    def test_ingest_hashes_each_file_once(self, tmp_path, spy, case):
        assert run(synth_args(tmp_path / "synth")) == 0
        source = tmp_path / "synth" / "events.jsonl"
        if case.endswith("rewritten"):
            source = tmp_path / "spaced.jsonl"
            write_jsonl(source, 200, 40, ["a", "b", "c", "d"])  # json.dumps' default style
        run_dir = tmp_path / "run"
        if case.startswith("in-place"):
            run_dir.mkdir()
            shutil.copyfile(source, run_dir / EVENTS)
            source = run_dir / EVENTS
        before = source.read_bytes()
        spy["file_sha256"].clear()
        spy["write_events_jsonl"] = 0
        assert run(["ingest", "--out", str(run_dir), "--events", str(source)]) == 0
        assert spy["file_sha256"] == []
        assert spy["write_events_jsonl"] == (1 if case.endswith("rewritten") else 0)
        assert ((run_dir / EVENTS).read_bytes() == before) == (not case.endswith("rewritten"))
        meta = json.loads((run_dir / "ingest_meta.json").read_text())
        cache_meta = json.loads((run_dir / "events_cache" / "cache_meta.json").read_text())
        assert meta["inputs"] == {source.name: sha256_of(source)}
        assert cache_meta["source_sha256"] == sha256_of(run_dir / EVENTS)
        assert run(["backbone", "--out", str(run_dir)]) == 0
        assert spy["file_sha256"] == [str(run_dir / EVENTS)]  # hashed again, and the cache hits
        assert json.loads((run_dir / "backbone_meta.json").read_text())["inputs"] == {EVENTS: sha256_of(run_dir / EVENTS)}

    def test_canonical_input_from_a_fifo_is_written_not_copied(self, tmp_path, spy):
        assert run(synth_args(tmp_path / "synth")) == 0
        data = (tmp_path / "synth" / "events.jsonl").read_bytes()
        fifo = tmp_path / "events.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        spy["write_events_jsonl"] = 0
        assert run(["ingest", "--out", str(tmp_path / "piped"), "--events", str(fifo)]) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert spy["write_events_jsonl"] == 1 and spy["file_sha256"] == []
        assert (tmp_path / "piped" / EVENTS).read_bytes() == data

    def test_input_replaced_during_ingest_is_copied_as_it_was_parsed(self, tmp_path, monkeypatch, spy):
        from swaynet import events

        assert run(synth_args(tmp_path / "synth")) == 0
        source = tmp_path / "events.jsonl"
        shutil.copyfile(tmp_path / "synth" / EVENTS, source)
        parsed = source.read_bytes()
        newer = tmp_path / "newer.jsonl"
        newer.write_bytes(parsed[: parsed.index(b"\n") + 1])
        parse = events.parse_events

        def then_replaced(*args):
            result = parse(*args)
            os.replace(newer, source)  # as swaynet's own writers replace a file
            return result

        monkeypatch.setattr(events, "parse_events", then_replaced)
        spy["write_events_jsonl"] = 0
        assert run(["ingest", "--out", str(tmp_path / "run"), "--events", str(source)]) == 0
        assert spy["write_events_jsonl"] == 0
        assert (tmp_path / "run" / EVENTS).read_bytes() == parsed
        digest = hashlib.sha256(parsed).hexdigest()
        assert json.loads((tmp_path / "run" / "ingest_meta.json").read_text())["inputs"] == {source.name: digest}
        assert json.loads((tmp_path / "run" / "events_cache" / "cache_meta.json").read_text())["source_sha256"] == digest

    def test_copy_and_rewrite_give_the_same_tree(self, tmp_path, monkeypatch, spy):
        from swaynet import events

        assert run(synth_args(tmp_path / "synth")) == 0
        source = tmp_path / "synth" / "events.jsonl"
        spy["write_events_jsonl"] = 0
        assert run(["ingest", "--out", str(tmp_path / "copied"), "--events", str(source)]) == 0
        assert spy["write_events_jsonl"] == 0
        byte_columns = events._byte_columns

        def never_canonical(data, time_range):
            taken = byte_columns(data, time_range)
            return taken and (taken[0], False)

        monkeypatch.setattr(events, "_byte_columns", never_canonical)
        assert run(["ingest", "--out", str(tmp_path / "rewritten"), "--events", str(source)]) == 0
        assert spy["write_events_jsonl"] == 1
        copied, rewritten = tree_files(tmp_path / "copied"), tree_files(tmp_path / "rewritten")
        assert {"ingest_meta.json", "events_cache/cache_meta.json", EVENTS} <= set(copied)
        assert copied == rewritten


def write_daily_jsonl(path, n_days=100):
    """One event per day, at noon of days 0..n_days-1."""
    cats = ("SCIENCE", "FAKE/HOAX", "NA")
    with open(path, "w") as fh:
        for d in range(n_days):
            record = {"ts": d * DAY + DAY // 2, "src": f"u{d % 7}", "dst": f"v{d % 5}", "cat": cats[d % 3]}
            record.update(src_followers=d, dst_followers=2 * d, src_bot=False, dst_bot=False)
            record.update(src_verified=False, dst_verified=False)
            fh.write(json.dumps(record) + "\n")


class TestRangeBounds:
    """A lone --range-start or --range-end filters on its own side."""

    @pytest.fixture
    def daily(self, tmp_path):
        write_daily_jsonl(tmp_path / "in.jsonl")
        return tmp_path

    def ingest(self, root, name, *bounds):
        out = root / name
        assert run(["ingest", "--out", str(out), "--events", str(root / "in.jsonl"), *bounds]) == 0
        return out, json.loads((out / "ingest_meta.json").read_text())["params"]

    @pytest.mark.parametrize(
        "bounds, kept",
        [
            (("--range-start", str(50 * DAY)), 50),
            (("--range-end", str(50 * DAY)), 50),
            (("--range-start", str(50 * DAY), "--range-end", str(60 * DAY)), 10),
            ((), 100),
        ],
    )
    def test_ingest_keeps_events_inside_the_bounds(self, daily, bounds, kept):
        _, params = self.ingest(daily, "run", *bounds)
        assert (params["n_events"], params["n_errors"]) == (kept, 100 - kept)

    def test_lone_bound_equals_a_pair_with_an_open_far_side(self, daily):
        lone, _ = self.ingest(daily, "lone", "--range-start", str(50 * DAY))
        pair, _ = self.ingest(daily, "pair", "--range-start", str(50 * DAY), "--range-end", str(1000 * DAY))
        assert (lone / "events.jsonl").read_bytes() == (pair / "events.jsonl").read_bytes()

    def test_bounds_around_all_events_keep_the_unbounded_bytes(self, daily):
        everything, _ = self.ingest(daily, "all")
        wide, _ = self.ingest(daily, "wide", "--range-start", "0", "--range-end", str(100 * DAY))
        assert tree_digest(everything / "events_cache") == tree_digest(wide / "events_cache")
        for name in ("events.jsonl", "follower_logs.csv", "flag_rates.csv"):
            assert (everything / name).read_bytes() == (wide / name).read_bytes(), name

    @pytest.mark.parametrize(
        "bounds, weight",
        [
            (("--range-start", str(50 * DAY)), 50),
            (("--range-end", str(30 * DAY)), 30),
            (("--range-start", str(50 * DAY), "--range-end", str(60 * DAY)), 10),
            ((), 100),
        ],
    )
    def test_backbone_graph_covers_the_bounds(self, daily, bounds, weight):
        out, _ = self.ingest(daily, "run")
        assert run(["backbone", "--out", str(out), "--alpha", "0.5", *bounds]) == 0
        meta = json.loads((out / "backbone_meta.json").read_text())
        assert meta["params"]["original"]["weight"] == weight


class TestParsingHelpers:
    def test_parse_time_accepts_dates_and_seconds(self):
        from swaynet.cli import parse_time

        assert parse_time("0") == 0
        assert parse_time("1584403200") == 1584403200
        assert parse_time("2020-03-17") == 1584403200

    def test_parse_time_rejects_garbage(self):
        from swaynet.cli import ConfigError, parse_time

        try:
            parse_time("yesterday")
        except ConfigError as exc:
            assert "yesterday" in str(exc)
        else:
            raise AssertionError("expected ConfigError")

    def test_config_file_fit_range_and_grids(self, tmp_path):
        import swaynet.cli as cli

        cfg = tmp_path / "run.cfg"
        cfg.write_text("fit_range = 1.0:50\nalpha_grid = 0.01,0.05,0.1\nsynth_rates_factual = 0.1,0.2\n")
        args = cli.build_parser().parse_args(["diagnose", "--out", str(tmp_path), "--config", str(cfg)])
        resolved = cli.resolve_config(args)
        assert resolved.fit_range == (1.0, 50.0)
        assert resolved.alpha_grid == (0.01, 0.05, 0.1)
        assert resolved.synth_rates_factual == (0.1, 0.2)


class TestSimulateEdge:
    def test_unsimulable_window_emits_blank_row(self, tmp_path):
        # No misleading campaign at all: its windows have no cascade seeds,
        # while factual windows stay simulable.
        assert run(
            synth_args(
                tmp_path,
                extra=["--synth-aligned-misleading", "0", "--synth-events-misleading", "0"],
            )
        ) == 0
        assert run(["backbone", "--out", str(tmp_path), "--alpha", "0.05"]) == 0
        assert run(["align", "--out", str(tmp_path), "--unfiltered"]) == 0
        assert run(["simulate", "--out", str(tmp_path), "--delta", "0.1", "--r0", "1.5", "--runs", "5"]) == 0
        import csv as _csv

        with open(tmp_path / "simulate.csv", newline="") as fh:
            rows = list(_csv.DictReader(fh))
        blanks = {r["class"] for r in rows if r["r_hat_mean"] == ""}
        filled = {r["class"] for r in rows if r["r_hat_mean"] != ""}
        assert "misleading" in blanks
        assert "factual" in filled


    def test_fit_without_simulable_window_exits_1_with_reasons(self, tmp_path, capsys):
        # No misleading campaign: every window lacks a misleading cascade,
        # a data condition rather than a runtime failure.
        assert run(
            synth_args(tmp_path, extra=["--synth-aligned-misleading", "0", "--synth-events-misleading", "0"])
        ) == 0
        assert run(["align", "--out", str(tmp_path), "--unfiltered"]) == 0
        assert run(["growth", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert run(["fit", "--out", str(tmp_path), "--runs", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid data: no simulable window")
        reasons = re.findall(r"window (\d+): empty populations or zero aligned followers for: misleading", err)
        assert len(reasons) >= 2
        assert not (tmp_path / "fit.json").exists()


class TestBackbonePairMask:
    def test_matches_search_oracle(self):
        from swaynet.cli import _backbone_pair_mask

        rng = np.random.default_rng(41)
        ends = [0, 0]  # cases with every backbone code below, and above, the events' codes
        for _ in range(30):
            users = [f"u{i}" for i in range(int(rng.integers(2, 15)))]
            events = [
                RetweetEvent(int(t), users[s], users[d], "NA", "uncertain", 1, 1, False, False, False, False)
                for t, (s, d) in enumerate(rng.integers(0, len(users), size=(int(rng.integers(1, 80)), 2)))
            ]
            columns = columns_of(events)
            g = columns.build_graph()
            backbones = [
                disparity_filter(g, float(rng.uniform(0.05, 1.0))),
                WeightedDigraph([], np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)),
                digraph_of([(s, d, w) for s, d, w in g.edges() if rng.random() < 0.5] + [("ghost", users[0], 1), (users[1], "ghost2", 2)]),
                digraph_of([("ghost", "ghost2", 1)]),
            ]
            # Backbones whose every pair code lies below, or above, every event's:
            # each search lands past one end of the codes and is clamped there.
            n, labels = len(columns.users), columns.users
            pairs = columns.src.astype(np.int64) * n + columns.dst
            outside = [range(pairs.min()), range(pairs.max() + 1, n * n)]
            for side, codes in enumerate(outside):
                if len(codes):
                    backbones.append(digraph_of([(labels[c // n], labels[c % n], 1) for c in codes]))
                    ends[side] += 1
            for backbone in backbones:
                assert np.array_equal(_backbone_pair_mask(columns, backbone), backbone_pair_mask_by_search(columns, backbone))
            for backbone in backbones[4:]:
                assert not _backbone_pair_mask(columns, backbone).any()
            assert not _backbone_pair_mask(columns, backbones[1]).any()
            assert _backbone_pair_mask(columns, g).all()
        assert min(ends) > 0, ends


class TestReportBackboneLabels:
    def test_backbone_label_the_events_lack_changes_no_flag_retention(self, tmp_path):
        from swaynet.cli import _Inputs

        run_pipeline(tmp_path, with_fit=False)
        last = _Inputs(PipelineConfig(out=str(tmp_path)), "report").columns().users[-1]
        edges = [e for e in load_binary(str(tmp_path / "backbone.bin")).edges() if last not in e[:2]]
        save_binary(digraph_of(edges), str(tmp_path / "backbone.bin"))
        assert run(["report", "--out", str(tmp_path)]) == 0
        expected = (tmp_path / "report" / "supp_flag_retention.csv").read_bytes()
        save_binary(digraph_of(edges + [(edges[0][0], "ghost", 1), ("ghost2", "ghost", 3)]), str(tmp_path / "backbone.bin"))
        assert run(["report", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "report" / "supp_flag_retention.csv").read_bytes() == expected


def random_event_streams(n_graphs=30, seed=2024):
    """(events, graph) pairs: random weighted digraphs with self-loops and a
    pendant pair (degree-1 sides), one event per unit of weight in shuffled
    order, and each graph rebuilt from its events by the oracle."""
    rng = np.random.default_rng(seed)
    for _ in range(n_graphs):
        n = int(rng.integers(2, 25))
        density = float(rng.uniform(0.05, 0.4))
        edges = [(f"n{s}", f"n{d}", int(rng.integers(1, 60))) for s in range(n) for d in range(n) if rng.random() < density]
        edges += [("n0", "n0", int(rng.integers(1, 60))), (f"p{n}", f"q{n}", int(rng.integers(1, 60)))]
        pairs = [(s, d) for s, d, w in edges for _ in range(w)]
        events = [pairs[i] for i in rng.permutation(len(pairs))]
        yield events, digraph_of((s, d, 1) for s, d in events)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


@pytest.fixture(scope="module")
def diagnosed(tmp_path_factory):
    """Each random stream ingested, diagnosed and filtered with significance output."""
    runs = []
    for i, (events, g) in enumerate(random_event_streams()):
        root = tmp_path_factory.mktemp(f"diag{i}")
        with open(root / "in.jsonl", "w") as fh:
            for ts, (s, d) in enumerate(events):
                record = {"ts": ts, "src": s, "dst": d, "cat": "NA", "src_followers": 1, "dst_followers": 1}
                record.update(src_bot=False, dst_bot=False, src_verified=False, dst_verified=False)
                fh.write(json.dumps(record) + "\n")
        (root / "run.cfg").write_text("gtb_quantiles = 0.1,0.5,0.9,0.99\n")
        out = ["--out", str(root / "run")]
        assert run(["ingest", "--events", str(root / "in.jsonl"), *out]) == 0
        assert run(["diagnose", "--alpha-grid", "0.05,0.2,0.5,0.9", "--config", str(root / "run.cfg"), *out]) == 0
        assert run(["backbone", "--emit-significance", *out]) == 0
        runs.append((root / "run", g))
    return runs


class TestDiagnoseTables:
    def test_heterogeneity_rows_match_per_side_oracle(self, diagnosed):
        for run_dir, g in diagnosed:
            got = read_csv_rows(run_dir / "heterogeneity.csv")
            expected = heterogeneity_rows(g, 2.0)
            assert len(got) == len(expected)
            assert any(k == 1 for _, _, k, *_ in expected)
            for row, (node, direction, k, upsilon, mu, sigma, flagged) in zip(got, expected):
                assert row[:3] == [node, direction, str(k)]
                # The file holds 8 significant digits.
                assert float(row[3]) == pytest.approx(upsilon, rel=1e-7)
                assert row[4:] == [f"{mu:.8g}", f"{sigma:.8g}", str(int(flagged))]

    def test_heterogeneity_buckets_recount_the_oracle_rows(self, diagnosed):
        for run_dir, g in diagnosed:
            cells: dict[int, list[int]] = {}
            for _, _, k, *_, flagged in heterogeneity_rows(g, 2.0):
                cell = cells.setdefault(1 << (k.bit_length() - 1), [0, 0])
                cell[0] += 1
                cell[1] += flagged
            expected = [[str(b), str(n), f"{f / n:.6f}"] for b, (n, f) in sorted(cells.items())]
            assert read_csv_rows(run_dir / "heterogeneity_buckets.csv") == expected

    def test_gtb_overlap_rows_match_subgraph_overlap(self, diagnosed):
        nonzero = 0
        for run_dir, g in diagnosed:
            rows = iter(read_csv_rows(run_dir / "gtb_overlap.csv"))
            for alpha in (0.05, 0.2, 0.5, 0.9):
                bb = disparity_filter(g, alpha)
                for q in (0.1, 0.5, 0.9, 0.99):
                    w_min = int(np.ceil(np.quantile(g.edge_weight, q)))
                    gtb = global_threshold_backbone(g, w_min)
                    overlap = 0.0 if gtb.n_edges == 0 or bb.n_edges == 0 else backbone_overlap(gtb, bb)
                    nonzero += 0 < overlap < 1
                    assert next(rows) == [f"{alpha:.6f}", f"{q:.4f}", str(w_min), str(gtb.n_edges), f"{overlap:.6f}"]
            assert next(rows, None) is None
        assert nonzero > 10

    def test_significance_rows_match_per_edge_closed_form(self, diagnosed):
        for run_dir, g in diagnosed:
            got = read_csv_rows(run_dir / "significance.csv")
            expected = edge_significance(g)
            assert [row[:3] for row in got] == [[s, d, str(w)] for s, d, w, *_ in expected]
            for row, (*_, p_out, p_in, a_out, a_in, alpha) in zip(got, expected):
                for field, value in zip(row[3:], (p_out, p_in, a_out, a_in, alpha)):
                    assert float(field) == pytest.approx(float(f"{value:.10g}"), rel=1e-12)


# A share of exactly theta for each threshold the align runs below use.
EXACT_SHARES = {0.5: (1, 2), 0.6: (3, 5), 0.75: (3, 4), 0.95: (19, 20)}
CATEGORY_OF = {"factual": ("SCIENCE", "MSM"), "misleading": ("FAKE/HOAX", "CLICKBAIT"), "uncertain": ("NA", "SATIRE")}


def random_class_streams(n_streams=20, seed=909):
    """(events, options) pairs: (src, dst, category) events among a few users,
    with self-loops and repeated pairs, a hub whose one weak edge goes to a
    user seen nowhere else (the backbone drops it), and a user whose
    factual share is exactly the run's theta; options vary the align flags."""
    rng = np.random.default_rng(seed)
    tokens = [tok for cls in CONTENT_CLASSES for tok in CATEGORY_OF[cls]]
    for k in range(n_streams):
        n = int(rng.integers(3, 12))
        events = []
        for _ in range(int(rng.integers(20, 120))):
            s, d = rng.integers(0, n, 2)
            if rng.random() < 0.1:
                d = s
            events.append((f"u{s}", f"u{d}", tokens[rng.integers(len(tokens))]))
        for j in range(3):
            events += [("hub", f"u{j % n}", "SCIENCE")] * 30
        events.append(("hub", f"lone{k}", "FAKE/HOAX"))
        theta = float(rng.choice(list(EXACT_SHARES)))
        part, whole = EXACT_SHARES[theta]
        events += [("tie", f"t{i}", "MSM" if i < part else "NA") for i in range(whole)]
        order = rng.permutation(len(events))
        options = {
            "theta": theta,
            "unfiltered": k % 2 == 0,
            "min_involvement": int(rng.choice([0, 0, 2, 3])),
            "bins": int(rng.choice([1, 2, 5, 6, 7, 20])),
            "theta_grid": None if k % 3 else (0.5, 0.6, 0.75, 0.95),
            "alpha": float(rng.choice([0.05, 0.2, 0.5])),
        }
        yield [events[i] for i in order], options


@pytest.fixture(scope="module")
def aligned_runs(tmp_path_factory):
    """Each stream ingested, filtered and aligned; with the retained events
    recounted from the backbone the align stage read."""
    runs = []
    for i, (events, options) in enumerate(random_class_streams()):
        root = tmp_path_factory.mktemp(f"align{i}")
        with open(root / "in.jsonl", "w") as fh:
            for ts, (s, d, cat) in enumerate(events):
                record = {"ts": ts, "src": s, "dst": d, "cat": cat, "src_followers": 1, "dst_followers": 1}
                record.update(src_bot=False, dst_bot=False, src_verified=False, dst_verified=False)
                fh.write(json.dumps(record) + "\n")
        out = ["--out", str(root / "run")]
        assert run(["ingest", "--events", str(root / "in.jsonl"), *out]) == 0
        assert run(["backbone", "--alpha", str(options["alpha"]), *out]) == 0
        flags = ["--theta", str(options["theta"]), "--bins", str(options["bins"])]
        flags += ["--min-involvement", str(options["min_involvement"])]
        if options["theta_grid"]:
            flags += ["--theta-grid", ",".join(map(str, options["theta_grid"]))]
        if options["unfiltered"]:
            flags.append("--unfiltered")
        assert run(["align", *flags, *out]) == 0
        retained = [(s, d, CLASS_BY_CATEGORY[cat]) for s, d, cat in events]
        if not options["unfiltered"]:
            kept = edge_set(load_binary(str(root / "run" / "backbone.bin")))
            retained = [e for e in retained if e[:2] in kept]
        runs.append((root / "run", events, retained, options))
    return runs


class TestAlignTables:
    def test_labels_match_per_event_recount(self, aligned_runs):
        for run_dir, _, retained, options in aligned_runs:
            counts = involvement_counts(retained)
            labels = classify_users(counts, options["theta"], options["min_involvement"])
            expected = [
                [u, labels[u], f"{options['theta']:.4f}"]
                + [f"{counts[u][cls] / sum(counts[u].values()):.6f}" for cls in CONTENT_CLASSES]
                + [str(sum(counts[u].values()))]
                for u in sorted(counts)
            ]
            assert read_csv_rows(run_dir / "alignment_labels.csv") == expected

    def test_ternary_matches_per_user_clamp(self, aligned_runs):
        for run_dir, _, retained, options in aligned_runs:
            cells = ternary_cells(involvement_counts(retained).values(), options["bins"])
            expected = [[str(i), str(j), str(n)] for (i, j), n in sorted(cells.items())]
            assert read_csv_rows(run_dir / "ternary.csv") == expected

    def test_coverage_matches_per_event_recount(self, aligned_runs):
        for run_dir, _, retained, options in aligned_runs:
            counts = involvement_counts(retained)
            share = {u: {cls: row[cls] / sum(row.values()) for cls in CONTENT_CLASSES} for u, row in counts.items()}
            expected = []
            for cls in CONTENT_CLASSES:
                in_class = [(s, d) for s, d, c in retained if c == cls]
                if not in_class:
                    continue  # a class with no retained retweet has no curve
                for theta in options["theta_grid"] or DEFAULT_THETA_GRID:
                    covered = sum(share[s][cls] > theta or share[d][cls] > theta for s, d in in_class)
                    expected.append([cls, f"{theta:.4f}", f"{covered / len(in_class):.6f}"])
            assert read_csv_rows(run_dir / "coverage.csv") == expected

    def test_aligned_counts_match_per_user_labels(self, aligned_runs):
        for run_dir, _, retained, options in aligned_runs:
            labels = classify_users(involvement_counts(retained), options["theta"], options["min_involvement"])
            with open(run_dir / "align_meta.json") as fh:
                params = json.load(fh)["params"]
            assert params["aligned_counts"] == {cls: list(labels.values()).count(cls) for cls in CONTENT_CLASSES}
            assert (params["theta"], params["unfiltered"], params["bins"]) == (
                options["theta"],
                options["unfiltered"],
                options["bins"],
            )

    def test_streams_reach_the_edge_cases(self, aligned_runs):
        seen = dict.fromkeys(["self_loop", "dropped_only", "exact_share", "aligned", "floor", "odd_bins", "even_bins"], 0)
        for run_dir, events, retained, options in aligned_runs:
            counts = involvement_counts(retained)
            written = {row[0] for row in read_csv_rows(run_dir / "alignment_labels.csv")}
            seen["self_loop"] += any(s == d for s, d, _ in retained)
            seen["dropped_only"] += bool({u for s, d, _ in events for u in (s, d)} - written)
            seen["exact_share"] += options["unfiltered"] and counts["tie"]["factual"] / sum(counts["tie"].values()) == options["theta"]
            labels = classify_users(counts, options["theta"], options["min_involvement"])
            seen["aligned"] += any(label != "unaligned" for label in labels.values())
            seen["floor"] += labels != classify_users(counts, options["theta"])
            seen["odd_bins" if options["bins"] % 2 else "even_bins"] += 1
        assert all(seen.values()), seen


_FREED_BLOCK_RSS = """
import sys, numpy as np
from swaynet import cli
def rss_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS")) / 1024
if sys.argv[1] == "pin":
    cli.pin_mmap_threshold()
a = np.ones(2_000_000); del a  # freeing a mapped 16 MB block raises glibc's own threshold past it
before = rss_mb()
b = np.ones(2_000_000); del b
print(rss_mb() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc mallopt and /proc are Linux-only")
def test_pinned_mmap_threshold_returns_freed_arrays_to_the_os():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def retained_mb(mode: str) -> float:
        out = subprocess.run([sys.executable, "-c", _FREED_BLOCK_RSS, mode], env=env, capture_output=True, text=True, check=True)
        return float(out.stdout)

    assert retained_mb("pin") < 2.0
    assert retained_mb("default") > 8.0  # the case pinning mends: a freed 16 MB array stays resident
