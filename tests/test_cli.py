import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from giraw import analysis, counting
from giraw.cli import load_tree, main
from giraw.trees import make_path, make_spider, make_star

from fresh import SRC, run_python


@pytest.fixture
def runner():
    return CliRunner()


def test_import_loads_neither_numpy_nor_networkx():
    code = "import sys, giraw.cli; print(sorted({'numpy', 'networkx'} & set(sys.modules)))"
    assert run_python(code) == "[]\n"


def assert_one_line_error(res, prefix: str) -> None:
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.startswith(prefix) and res.output.count("\n") == 1


class TestLoadTree:
    def test_shorthands_match_constructors(self):
        assert load_tree("path:7").canonical_form() == make_path(7).tree.canonical_form()
        assert load_tree("star:4").canonical_form() == make_star(4).tree.canonical_form()
        assert (
            load_tree("spider:2,2,1").canonical_form()
            == make_spider([2, 2, 1]).tree.canonical_form()
        )

    def test_file_input(self, tmp_path):
        f = tmp_path / "t.edges"
        f.write_text("0 1\n1 2\n# comment\n")
        assert load_tree(str(f)).n == 3

    def test_missing_file(self):
        import click

        with pytest.raises(click.ClickException):
            load_tree("no_such_file.edges")


class TestDist:
    def test_json(self, runner):
        res = runner.invoke(main, ["dist", "--tree", "path:7", "--model", "standard"])
        assert res.exit_code == 0
        blob = json.loads(res.output)
        assert blob["n"] == 8
        assert blob["denominator"] == "128"
        assert sum(int(c) for c in blob["class_counts"].values()) == 128

    def test_csv(self, runner):
        res = runner.invoke(main, ["dist", "--tree", "path:2", "--format", "csv"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "range,classes,denominator"
        assert len(lines) == 4

    def test_table(self, runner):
        res = runner.invoke(main, ["dist", "--tree", "star:3", "--format", "table"])
        assert res.exit_code == 0
        assert "range" in res.output

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "d.json"
        res = runner.invoke(main, ["dist", "--tree", "path:3", "--out", str(out)])
        assert res.exit_code == 0
        assert json.loads(out.read_text())["n"] == 4

    def test_bad_tree(self, runner):
        res = runner.invoke(main, ["dist", "--tree", "blob:3"])
        assert res.exit_code == 1

    def test_unwritable_out_is_a_one_line_error(self, runner, tmp_path):
        out = tmp_path / "missing" / "d.json"
        res = runner.invoke(main, ["dist", "--tree", "path:3", "--out", str(out)])
        assert_one_line_error(res, "Error: --out: ")

    def test_directory_as_tree_is_a_one_line_error(self, runner, tmp_path):
        res = runner.invoke(main, ["dist", "--tree", str(tmp_path)])
        assert_one_line_error(res, f"Error: {tmp_path}: ")

    def test_non_utf8_tree_file_is_a_one_line_error(self, runner, tmp_path):
        f = tmp_path / "t.edges"
        f.write_bytes(b"0 1\n\xff\xfe\n")
        res = runner.invoke(main, ["dist", "--tree", str(f)])
        assert_one_line_error(res, f"Error: {f}: ")


class TestCount:
    def test_values(self, runner):
        res = runner.invoke(main, ["count", "--tree", "path:2", "--k", "2"])
        blob = json.loads(res.output)
        assert blob["bounded_labelings"] == "6"
        assert blob["range_classes"] == "4"

    @pytest.mark.parametrize("k,dps", [(0, [0]), (3, [2, 3]), (5, [5]), (9, [5])])
    def test_one_dp_per_bound_used(self, runner, monkeypatch, k, dps):
        calls, profile = [], counting.profile
        monkeypatch.setattr(counting, "profile", lambda t, k, m: calls.append(k) or profile(t, k, m))
        res = runner.invoke(main, ["count", "--tree", "spider:3,2,2", "--k", str(k)])
        assert res.exit_code == 0
        assert calls == dps

    @pytest.mark.parametrize("m", ["standard", "lazy"])
    def test_k_past_the_diameter_matches_the_direct_dp(self, runner, m):
        # spider:2,1 has diameter 3; past it F^k grows by the whole walk space
        direct = counting.bounded_counts(make_spider([2, 1]), range(3, 10), counting.WalkModel(m))
        for k in range(4, 10):
            res = runner.invoke(main, ["count", "--tree", "spider:2,1", "--k", str(k), "--model", m])
            blob = json.loads(res.output)
            assert blob["bounded_labelings"] == str(direct[k - 3])
            assert blob["range_classes"] == str(direct[k - 3] - direct[k - 4])

    def test_k_defaults_to_diameter(self, runner):
        res = runner.invoke(main, ["count", "--tree", "star:3"])
        blob = json.loads(res.output)
        assert blob["k"] == 2
        assert blob["range_classes"] == "8"


class TestCompare:
    def test_star_vs_path(self, runner):
        res = runner.invoke(
            main, ["compare", "--left", "star:3", "--right", "path:3"]
        )
        assert res.exit_code == 0
        blob = json.loads(res.output)
        assert blob["verdict"] == "left_dominated_by_right"

    def test_path_vs_star_is_mirrored(self, runner):
        res = runner.invoke(main, ["compare", "--left", "path:3", "--right", "star:3"])
        assert res.exit_code == 0
        blob = json.loads(res.output)
        assert blob["verdict"] == "right_dominated_by_left"
        assert blob["strict_at"] == [3]

    def test_unequal_sizes(self, runner):
        res = runner.invoke(main, ["compare", "--left", "path:3", "--right", "path:5"])
        assert res.exit_code == 1


class TestScan:
    def test_lazy_clean(self, runner):
        res = runner.invoke(main, ["scan", "--n", "7", "--model", "lazy"])
        assert res.exit_code == 0
        assert "11 trees checked, 0 violations" in res.output

    def test_json_payload(self, runner):
        res = runner.invoke(main, ["scan", "--n", "6", "--model", "lazy"])
        blob = json.loads(res.output.split("\n6 trees checked")[0])
        assert blob["trees_checked"] == 6
        assert blob["violations"] == []

    def test_spider_family(self, runner):
        res = runner.invoke(
            main, ["scan", "--n", "8", "--model", "standard", "--family", "spiders"]
        )
        assert res.exit_code == 0

    def test_generation_cap(self, runner, monkeypatch):
        monkeypatch.setenv("GIRAW_MAX_N", "4")
        res = runner.invoke(main, ["scan", "--n", "6", "--model", "lazy"])
        assert res.exit_code == 1

    @pytest.mark.skipif(sys.platform != "linux", reason="pins CPUs")
    @pytest.mark.parametrize("how", ["exit", "raise"])
    def test_failing_worker_is_a_one_line_error(self, runner, monkeypatch, how):
        shard = analysis._scan_shard

        def failing(n, m, family, path_f, index, shards):
            if index and how == "exit":
                os._exit(3)
            if index:
                raise ValueError(f"no trees for shard {index}")
            return shard(n, m, family, path_f, index, shards)

        monkeypatch.setattr(analysis, "_scan_workers", lambda n: 2)
        monkeypatch.setattr(analysis, "_scan_shard", failing)
        res = runner.invoke(main, ["scan", "--n", "7"])
        if how == "exit":
            want = "Error: scan worker 1 of 2 ended without a result (exit status 3)\n"
        else:
            want = "Error: no trees for shard 1\n"
        assert_one_line_error(res, want)

    @pytest.mark.skipif(
        not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
        reason="lists child processes from /proc",
    )
    @pytest.mark.parametrize("target", ["group", "parent"])
    def test_ctrl_c_leaves_no_worker_running(self, target):
        # a terminal's Ctrl-C signals the whole process group; a plain kill
        # signals the parent alone, which must then stop its workers
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "giraw.cli", "scan", "--n", "17"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True,
        )
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 30
        while not (workers := children.read_text().split()) and time.monotonic() < deadline:
            time.sleep(0.01)
        if not workers:
            proc.kill()
            proc.wait()
            pytest.skip("one usable CPU: the scan forked no worker")
        if target == "group":
            os.killpg(proc.pid, signal.SIGINT)
        else:
            os.kill(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        assert (proc.returncode, out, err) == (1, b"", b"\nAborted!\n")
        assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]


class TestOrder:
    def test_n4(self, runner):
        res = runner.invoke(main, ["order", "--n", "4", "--model", "standard"])
        assert res.exit_code == 0
        blob = json.loads(res.output)
        dominated = blob["dominated_by"]
        assert sorted(len(v) for v in dominated.values()) == [1, 2]


class TestVerifyLemmas:
    def test_spidersums(self, runner):
        res = runner.invoke(
            main,
            ["verify-lemmas", "--lemma", "spidersums", "--legs", "2,2,1", "--k", "6"],
        )
        assert res.exit_code == 0
        blob = json.loads(res.output)
        assert blob["counterexamples"] == []

    def test_bad_legs_is_a_one_line_error(self, runner):
        res = runner.invoke(
            main, ["verify-lemmas", "--lemma", "spidersums", "--legs", "a,b"]
        )
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error: ") and res.output.count("\n") == 1

    @pytest.mark.parametrize("legs", ["2,-1", "0,2", "a,b"])
    @pytest.mark.parametrize("lemma", ["spidersums", "summand-comparison"])
    def test_bad_legs_name_the_option(self, runner, lemma, legs):
        res = runner.invoke(main, ["verify-lemmas", "--lemma", lemma, "--legs", legs])
        assert res.exit_code == 1
        assert res.output == (
            f"Error: --legs must be positive integers separated by commas, got '{legs}'\n"
        )

    @pytest.mark.parametrize("option", ["--a-max", "--k-max", "--tree-n-max"])
    @pytest.mark.parametrize("lemma", ["center-monotone", "difference-monotone"])
    def test_negative_grid_bound_is_a_one_line_error(self, runner, lemma, option):
        res = runner.invoke(
            main, ["verify-lemmas", "--lemma", lemma, "--model", "lazy", option, "-1"]
        )
        assert res.exit_code == 1
        assert res.output == f"Error: {option} must be >= 0, got -1\n"

    def test_center_monotone_lazy(self, runner):
        res = runner.invoke(
            main,
            [
                "verify-lemmas", "--lemma", "center-monotone", "--model", "lazy",
                "--a-max", "4", "--k-max", "4", "--tree-n-max", "5",
            ],
        )
        assert res.exit_code == 0

    def test_summand_comparison(self, runner):
        res = runner.invoke(
            main,
            ["verify-lemmas", "--lemma", "summand-comparison", "--legs", "2,2", "--k", "4",
             "--model", "lazy"],
        )
        assert res.exit_code == 0

    def test_difference_monotone(self, runner):
        res = runner.invoke(
            main,
            ["verify-lemmas", "--lemma", "difference-monotone", "--a-max", "4",
             "--k-max", "4"],
        )
        assert res.exit_code == 0


class TestSample:
    def test_range_stat(self, runner):
        res = runner.invoke(
            main,
            ["sample", "--tree", "path:2", "--samples", "2000", "--seed", "5"],
        )
        assert res.exit_code == 0
        blob = json.loads(res.output.rsplit("\nexpected_range", 1)[0])
        assert blob["exact"] == "3/2"

    def test_pair_stat(self, runner):
        res = runner.invoke(
            main,
            ["sample", "--tree", "path:2", "--samples", "1000", "--seed", "5",
             "--stat", "pair", "--u", "0", "--v", "2", "--model", "lazy"],
        )
        assert res.exit_code == 0
        blob = json.loads(res.output.rsplit("\npair_distance", 1)[0])
        assert blob["exact"] == "8/9"

    def test_pair_needs_vertices(self, runner):
        res = runner.invoke(
            main,
            ["sample", "--tree", "path:2", "--samples", "10", "--seed", "1",
             "--stat", "pair"],
        )
        assert res.exit_code == 1

    def test_seed_required(self, runner):
        res = runner.invoke(main, ["sample", "--tree", "path:2"])
        assert res.exit_code != 0

    def test_deterministic(self, runner):
        args = ["sample", "--tree", "star:4", "--samples", "500", "--seed", "17"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


class TestGenTrees:
    def test_count(self, runner):
        res = runner.invoke(main, ["gen-trees", "--n", "7"])
        blob = json.loads(res.output)
        assert blob["count"] == 11

    def test_table(self, runner):
        res = runner.invoke(main, ["gen-trees", "--n", "4", "--format", "table"])
        assert res.exit_code == 0
        assert len(res.output.strip().splitlines()) == 3
