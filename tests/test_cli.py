import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from giraw import analysis, cli, counting, trees
from giraw.cli import load_tree, main
from giraw.trees import Tree, TreeError, make_path, make_spider, make_star

from fresh import SRC, run_python
from oracles import canonical_form, centres


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


@pytest.mark.parametrize(
    "args, message",
    [
        (["scan", "--n", "abc"], "Invalid value for '--n': 'abc' is not a valid integer."),
        (["scan"], "Missing option '--n'."),
        (
            ["dist", "--tree", "path:3", "--model", "foo"],
            "Invalid value for '--model': 'foo' is not one of 'standard', 'lazy'.",
        ),
        (["nosuch"], "No such command 'nosuch'."),
    ],
)
def test_usage_error_is_one_line_and_exit_1(runner, args, message):
    # exit 2 means a violation, so a usage error must not give it
    res = runner.invoke(main, args)
    assert (res.exit_code, res.output) == (1, f"Error: {message}\n")


@pytest.mark.parametrize("error", [ValueError, TreeError, analysis.ScanWorkerError])
@pytest.mark.parametrize(
    "target, args",
    [
        ("giraw.cli.range_distribution", ["dist", "--tree", "path:3"]),
        ("giraw.cli.bounded_counts", ["count", "--tree", "path:3"]),
        ("giraw.analysis.compare_range", ["compare", "--left", "path:3", "--right", "star:3"]),
        ("giraw.analysis.scan_against_path", ["scan", "--n", "4"]),
        ("giraw.analysis.pairwise_domination_order", ["order", "--n", "4"]),
        ("giraw.analysis.check_spidersums", ["verify-lemmas", "--lemma", "spidersums"]),
        ("giraw.sampling.estimate_expected_range", ["sample", "--tree", "path:3", "--seed", "1"]),
        ("giraw.cli.generate_free_trees", ["gen-trees", "--n", "4"]),
    ],
)
def test_library_error_is_one_line_and_exit_1(runner, monkeypatch, target, args, error):
    # the group turns a library error in any command into its message alone
    def boom(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(target, boom)
    res = runner.invoke(main, args)
    assert (res.exit_code, res.output) == (1, "Error: boom\n")


@pytest.mark.skipif(sys.platform != "linux", reason="limits the address space with RLIMIT_AS")
def test_out_of_memory_is_one_line_and_exit_1():
    # a path on 1e11 vertices needs far more than the 1 GiB address space the
    # child gets; no command handles that MemoryError, so the group does
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    res = subprocess.run(
        [sys.executable, "-m", "giraw.cli", "dist", "--tree", "path:100000000000"],
        env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=limit,
        capture_output=True, text=True, timeout=60,
    )
    assert (res.returncode, res.stdout, res.stderr) == (1, "", "Error: out of memory\n")


@pytest.mark.parametrize("args", [["--help"], ["scan", "--help"]])
def test_help_exits_0(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 0 and res.output.startswith("Usage: ")


JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers().map(lambda x: x * 10**40),
        st.floats(),
        st.text(),
        st.sampled_from(["", "\u00e9t\u00e9", "\u2603 \U0001f332", 'a"b\\c\n\t\x00\x1b']),
    ),
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
    ),
    max_leaves=30,
)
INT_ROWS = st.lists(
    st.one_of(
        st.lists(st.integers()),
        st.tuples(st.integers(), st.integers()),
        st.tuples(st.integers(), st.booleans()),
        st.lists(st.one_of(st.integers(), st.floats())),
    )
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            JSON_VALUES,
            st.lists(st.one_of(st.integers(), st.booleans())),
            INT_ROWS,
            st.dictionaries(st.text(), INT_ROWS),
        )
    )
    def test_text_is_json_dumps_with_indent_2(self, obj):
        assert "".join(cli._json_pieces(obj)) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize(
        "obj",
        [[], (), {}, [[]], [[], [1]], [0, -1, 2**70], [(0, 1), (1, 2)], [True, 1], [(1, True)]],
    )
    def test_fast_paths_and_empty_containers(self, obj):
        assert "".join(cli._json_pieces(obj)) == json.dumps(obj, indent=2)

    def test_a_mapping_is_read_one_value_at_a_time(self):
        built = []

        class Lazy:
            def items(self):
                for i in range(3):
                    built.append(i)
                    yield str(i), [i] * i

        pieces = cli._json_pieces({"lazy": Lazy()})
        text = next(pieces)
        assert (text, built) == ('{\n  "lazy": {\n    "0": []', [0])
        rest = "".join(pieces)
        assert built == [0, 1, 2]
        assert json.loads(text + rest) == {"lazy": {"0": [], "1": [1], "2": [2, 2]}}

    def test_other_objects_are_rejected_as_json_dumps_rejects_them(self):
        with pytest.raises(TypeError, match="Object of type complex is not JSON serializable"):
            "".join(cli._json_pieces([1j]))
        with pytest.raises(TypeError, match="keys must be str, not int"):
            "".join(cli._json_pieces({1: 2}))


@pytest.mark.parametrize(
    "args",
    [
        ["order", "--n", "7"],
        ["scan", "--n", "6"],
        ["count", "--tree", "path:5"],
        ["verify-lemmas", "--lemma", "spidersums", "--legs", "2,2,1", "--k", "6"],
        ["sample", "--tree", "path:5", "--samples", "100", "--seed", "1"],
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_out_file_bytes_equal_stdout_bytes(runner, tmp_path, args, fmt):
    # one write path: the --out file and stdout are the same text stream's bytes
    shown = runner.invoke(main, [*args, "--format", fmt])
    out = tmp_path / "out"
    written = runner.invoke(main, [*args, "--format", fmt, "--out", str(out)])
    assert shown.exit_code == written.exit_code == 0
    assert written.stdout_bytes == b""
    assert out.read_bytes() == shown.stdout_bytes != b""


@pytest.mark.parametrize(
    "args, digest",
    [
        (["scan", "--n", "10", "--format", "csv"],
         "2371e1ef8dbb8985e53397b79170c4b167c4649f937845439883011b70387cf6"),
        (["scan", "--n", "10", "--model", "lazy", "--format", "table"],
         "5f73976f8e58183fc1fb77fead24d96be184d7800e72b9b98dc3dcaa112d93be"),
        (["verify-lemmas", "--lemma", "difference-monotone", "--model", "lazy", "--a-max", "24",
          "--k-max", "24", "--tree-n-max", "8", "--format", "csv"],
         "eabc60f835885d408b29ac8981085477dc37a10dfda53ba8ae7484a1a3cfe2d4"),
        (["verify-lemmas", "--lemma", "summand-comparison", "--legs", "60,40,20", "--k", "70",
          "--format", "table"],
         "8289ca72b17493d62ce297213246a2196532d93d52e15b568d68beb11cb9866b"),
        (["count", "--tree", "path:300", "--k", "299", "--format", "table"],
         "d645b3a5172c7dfa8dbe677a8a4d731bfdc481b04fa9b10548428175ac8c3955"),
        (["sample", "--tree", "path:39", "--samples", "20000", "--seed", "11", "--format", "csv"],
         "0fdfc09547d2a29c86b424d8dd63e4ca5aff6aae38f494ab12d4b2917806a5db"),
        (["compare", "--left", "star:3", "--right", "path:3", "--format", "csv"],
         "ff1c9b0843530b7ab34a5d0d40a909d0934eb1a64d52e596c343e8f6ac9cbc88"),
        (["dist", "--tree", "path:30", "--format", "table"],
         "dc5d098ed08f62cca374d37ebb1129bc7f32feac926d5e16fc2129cda070bd93"),
    ],
)
def test_row_views_are_pinned(runner, args, digest):
    # scan, verify-lemmas and count print their JSON view with each list
    # counted, and compare its per_k list; byte for byte as the hand-written
    # rows printed them
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="writes to /dev/full")
@pytest.mark.parametrize("args", [["order", "--n", "12"], ["scan", "--n", "5"]])
def test_a_full_stdout_is_one_line_and_exit_1(args):
    # with a buffered stdout, as without PYTHONUNBUFFERED, scan's short text
    # fails only at the flush, and its bytes stay in the buffer
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        res = subprocess.run(
            [sys.executable, "-m", "giraw.cli", *args], env=dict(env, PYTHONPATH=SRC),
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    want = "Error: stdout: [Errno 28] No space left on device\n"
    assert (res.returncode, res.stderr) == (1, want)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="writes to /dev/full")
def test_a_full_out_file_is_one_line_and_exit_1():
    res = subprocess.run(
        [sys.executable, "-m", "giraw.cli", "count", "--tree", "path:3", "--out", "/dev/full"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    want = "Error: --out: [Errno 28] No space left on device\n"
    assert (res.returncode, res.stdout, res.stderr) == (1, "", want)


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    # as `giraw order --n 12 | head -c 10`: 2.5 MB of JSON, 10 bytes read
    proc = subprocess.Popen(
        [sys.executable, "-m", "giraw.cli", "order", "--n", "12"],
        env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (head, proc.wait(timeout=60), err) == (b'{\n  "n": 1', 1, b"")


class TestLoadTree:
    def test_shorthands_match_constructors(self):
        assert canonical_form(load_tree("path:7")) == canonical_form(make_path(7).tree)
        assert canonical_form(load_tree("star:4")) == canonical_form(make_star(4).tree)
        assert (
            canonical_form(load_tree("spider:2,2,1"))
            == canonical_form(make_spider([2, 2, 1]).tree)
        )

    @pytest.mark.parametrize(
        "args,loaded",
        [
            (["dist", "--tree", "spider:2,3,1"], 1),
            (["count", "--tree", "star:4", "--k", "1"], 1),
            (["compare", "--left", "path:5", "--right", "spider:3,2"], 2),
        ],
    )
    def test_exact_commands_root_a_shorthand_tree_once_at_a_centre(
        self, runner, monkeypatch, args, loaded
    ):
        roots, reroot = [], trees.reroot
        monkeypatch.setattr(trees, "reroot", lambda t, r: roots.append((t, r)) or reroot(t, r))
        assert runner.invoke(main, args).exit_code == 0
        assert len(roots) == len({id(t) for t, _ in roots}) == loaded
        assert all(r in centres(t) for t, r in roots)

    def test_sample_walks_a_shorthand_tree_from_vertex_0(self, runner, monkeypatch):
        # the edges and the rooting of make_spider, which the seeded streams read
        roots, reroot = [], trees.reroot
        monkeypatch.setattr(trees, "reroot", lambda t, r: roots.append((t, r)) or reroot(t, r))
        args = ["sample", "--tree", "spider:2,3,1", "--samples", "10", "--seed", "1"]
        assert runner.invoke(main, args).exit_code == 0
        (t, first), (_, centre) = roots
        assert (t.edges, first) == (make_spider([2, 3, 1]).tree.edges, 0) and centre in centres(t)

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

    @pytest.mark.parametrize(
        "args, digest",
        [
            (["path:200"], "83b029d7e2fab5a23913ea68cb5d4c08d6b5cae12f26d53af9efedb13585ede0"),
            (
                ["path:160", "--model", "lazy"],
                "0cb763dd77757b61ac68581c1327894bc4f60204fd3333c5448c63c2caed239c",
            ),
        ],
    )
    def test_deep_paths_are_pinned(self, runner, args, digest):
        # the benchmark's deep paths, byte for byte, as the endpoint-rooted
        # DP that pushes every class at every bound prints them
        res = runner.invoke(main, ["dist", "--tree", *args])
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


class TestCount:
    def test_values(self, runner):
        res = runner.invoke(main, ["count", "--tree", "path:2", "--k", "2"])
        blob = json.loads(res.output)
        assert blob["bounded_labelings"] == "6"
        assert blob["range_classes"] == "4"

    @pytest.mark.parametrize("k,dps", [(0, [0]), (3, [2, 3]), (5, [4]), (9, [4])])
    def test_one_dp_per_bound_used(self, runner, monkeypatch, k, dps):
        # one DP call at the centre of the diameter-5 spider, on its leg of
        # length 3; from the diameter on, the bound D - 1 serves both counts
        calls, dp = [], counting._half_profiles
        monkeypatch.setattr(
            counting, "_half_profiles", lambda t, ks, m: calls.append((t.root, list(ks))) or dp(t, ks, m)
        )
        res = runner.invoke(main, ["count", "--tree", "spider:3,2,2", "--k", str(k)])
        assert res.exit_code == 0
        assert calls == [(1, dps)]

    @pytest.mark.parametrize("m", ["standard", "lazy"])
    def test_k_past_the_diameter_matches_the_direct_dp(self, runner, m):
        # spider:2,1 has diameter 3; past it F^k grows by the whole walk space.
        # The direct DP sums the full profile at the spider's own root.
        rt, model = make_spider([2, 1]), counting.WalkModel(m)
        direct = [sum(counting.profile(rt, k, model)) for k in range(3, 10)]
        for k in range(4, 10):
            res = runner.invoke(main, ["count", "--tree", "spider:2,1", "--k", str(k), "--model", m])
            blob = json.loads(res.output)
            assert blob["bounded_labelings"] == str(direct[k - 3])
            assert blob["range_classes"] == str(direct[k - 3] - direct[k - 4])

    def test_negative_k_names_the_option(self, runner):
        res = runner.invoke(main, ["count", "--tree", "path:3", "--k", "-1"])
        assert (res.exit_code, res.output) == (1, "Error: --k must be >= 0, got -1\n")

    def test_the_tree_is_walked_for_its_diameter_once(self, runner, monkeypatch):
        # bounded_counts reads the diameter: the walk from 0 validates the
        # path and finds one end of a longest path, one walk
        # from that end finds the other, and one roots the path at its
        # centre for the DP
        walks, walk = [], Tree._walk
        monkeypatch.setattr(Tree, "_walk", lambda t, root: walks.append(root) or walk(t, root))
        res = runner.invoke(main, ["count", "--tree", "path:30", "--k", "40"])
        assert res.exit_code == 0
        assert walks == [0, 30, 15]

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

    @pytest.mark.parametrize("command", ["scan", "order"])
    def test_generation_cap(self, runner, command):
        res = runner.invoke(main, [command, "--n", "23"])
        assert res.exit_code == 1
        assert res.output == "Error: n must be in [1, 22], got 23\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="forks scan workers")
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

    @pytest.mark.parametrize(
        "model, digest",
        [
            ("standard", "b5d7a934155b9a15c471879bbbb78ec58a7abda9cdab3c2c7cbbe206e9ca8184"),
            ("lazy", "d98a98e81b573fa20930a303f4bf55a7c80f8c17f37f8dcda97441a60fd3ad41"),
        ],
    )
    def test_n10_output_is_pinned(self, runner, model, digest):
        # the tree list, its labelling and the relation, byte for byte
        res = runner.invoke(main, ["order", "--n", "10", "--model", model])
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("csv", "b8a15b016e217d115dfe808e5d53665c26b7c5e36a24848187dbe98e0592906f"),
            ("table", "5e14ea8a8ea90909fd8f1447aec485c42ea53dde4935f2a21d2514274f5ae858"),
        ],
    )
    def test_n10_rows_are_pinned_and_build_no_json_view(self, runner, monkeypatch, fmt, digest):
        def no_json(self):
            raise AssertionError("csv and table read the rows alone")

        monkeypatch.setattr(analysis.DominationOrder, "to_json_dict", no_json)
        res = runner.invoke(main, ["order", "--n", "10", "--format", fmt])
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest

    @pytest.mark.parametrize("model", ["standard", "lazy"])
    def test_stdout_is_json_dumps_of_the_eager_dict(self, runner, model):
        for n in range(1, 12):
            order = analysis.pairwise_domination_order(n, counting.WalkModel(model))
            eager = dict(order.to_json_dict())
            indices = range(len(order.trees))
            eager["dominated_by"] = {str(i): order.dominators_of(i) for i in indices}
            res = runner.invoke(main, ["order", "--n", str(n), "--model", model])
            assert res.exit_code == 0
            assert res.stdout == json.dumps(eager, indent=2) + "\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    @pytest.mark.parametrize("n", [13, 14])
    def test_peaks_below_40_mib(self, n):
        # 75 and 329 MiB when the relation was expanded into lists and the
        # text built whole; n = 14's text alone is 31 MB. A child starts from
        # its parent's peak, so a fresh interpreter runs the command, not
        # this large one
        code = (
            "import os, subprocess, sys\n"
            f"args = [sys.executable, '-m', 'giraw.cli', 'order', '--n', '{n}']\n"
            "proc = subprocess.Popen(args, stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "proc.returncode = os.waitstatus_to_exitcode(status)\n"
            "print(proc.returncode, usage.ru_maxrss)\n"
        )
        status, maxrss_kib = map(int, run_python(code).split())
        assert status == 0
        assert maxrss_kib / 1024 < 40


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

    @pytest.mark.skipif(sys.platform != "linux", reason="limits the address space with RLIMIT_AS")
    @pytest.mark.parametrize("lemma", ["spidersums", "summand-comparison"])
    def test_huge_k_is_a_one_line_error(self, lemma):
        # 1e11 labels need far more than the 1 GiB address space the child
        # gets, so the first full-width row fails to allocate at once
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        res = subprocess.run(
            [sys.executable, "-m", "giraw.cli", "verify-lemmas", "--lemma", lemma,
             "--legs", "1,1", "--k", "100000000000"],
            env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=limit,
            capture_output=True, text=True, timeout=60,
        )
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == "Error: --k 100000000000 is too large to tabulate\n"

    @pytest.mark.parametrize("option", ["--a-max", "--k-max", "--tree-n-max"])
    @pytest.mark.parametrize("lemma", ["center-monotone", "difference-monotone"])
    def test_negative_grid_bound_is_a_one_line_error(self, runner, lemma, option):
        res = runner.invoke(
            main, ["verify-lemmas", "--lemma", lemma, "--model", "lazy", option, "-1"]
        )
        assert res.exit_code == 1
        assert res.output == f"Error: {option} must be >= 0, got -1\n"

    @pytest.mark.parametrize("lemma", ["center-monotone", "difference-monotone"])
    def test_tree_size_past_the_generator_cap_names_the_option(self, runner, lemma):
        res = runner.invoke(
            main, ["verify-lemmas", "--lemma", lemma, "--model", "lazy", "--tree-n-max", "23"]
        )
        assert (res.exit_code, res.output) == (1, "Error: --tree-n-max must be <= 22, got 23\n")

    @pytest.mark.parametrize("lemma", ["center-monotone", "difference-monotone"])
    def test_a_path_past_the_one_byte_depth_key_names_the_option(self, runner, lemma):
        res = runner.invoke(main, ["verify-lemmas", "--lemma", lemma, "--a-max", "256", "--k-max", "1"])
        assert (res.exit_code, res.output) == (1, "Error: --a-max must be <= 255, got 256\n")
        res = runner.invoke(main, ["verify-lemmas", "--lemma", lemma, "--a-max", "255", "--k-max", "1"])
        assert res.exit_code == 0 and json.loads(res.output)["cases_checked"] > 256

    @pytest.mark.parametrize(
        "lemma, reads_k",
        [("spidersums", True), ("summand-comparison", True),
         ("center-monotone", False), ("difference-monotone", False)],
    )
    def test_negative_k_names_the_option(self, runner, lemma, reads_k):
        res = runner.invoke(main, ["verify-lemmas", "--lemma", lemma, "--k", "-1"])
        if reads_k:
            assert (res.exit_code, res.output) == (1, "Error: --k must be >= 0, got -1\n")
        else:  # the grid lemmas ignore --k
            assert res.exit_code == 0

    @pytest.mark.parametrize(
        "lemma, digest",
        [
            ("difference-monotone", "7bd4a707386af89abeafe2bcf4882a6a3f59195a8b2b6775efe4190eaf145ea0"),
            ("center-monotone", "5de73f3d4db4b207fd7de9edfb3af410dffc78da858a1ac243ad4669a88fea08"),
        ],
    )
    def test_deep_grids_are_pinned(self, runner, lemma, digest):
        # the benchmark's lemma grid and its centre twin, byte for byte, as
        # the loops that try every pair (i, j) print them
        res = runner.invoke(
            main,
            ["verify-lemmas", "--lemma", lemma, "--model", "lazy",
             "--a-max", "24", "--k-max", "24", "--tree-n-max", "8"],
        )
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest

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

    def test_negative_seed_names_the_option(self, runner):
        res = runner.invoke(main, ["sample", "--tree", "path:3", "--seed", "-1"])
        assert (res.exit_code, res.output) == (1, "Error: --seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_too_few_samples_names_the_option(self, runner, samples):
        res = runner.invoke(
            main, ["sample", "--tree", "path:3", "--seed", "1", "--samples", samples]
        )
        assert (res.exit_code, res.output) == (1, f"Error: --samples must be >= 1, got {samples}\n")

    @pytest.mark.parametrize(
        "u, v, option, value", [("0", "9", "--v", "9"), ("-1", "2", "--u", "-1"), ("4", "4", "--u", "4")]
    )
    def test_vertex_out_of_range_names_the_option(self, runner, u, v, option, value):
        res = runner.invoke(
            main,
            ["sample", "--tree", "path:3", "--seed", "1", "--stat", "pair", "--u", u, "--v", v],
        )
        assert (res.exit_code, res.output) == (1, f"Error: {option} must be in [0, 4), got {value}\n")

    @pytest.mark.parametrize(
        "vertices, option", [(["--u", "7"], "--u"), (["--v", "0"], "--v"), (["--u", "0", "--v", "1"], "--u")]
    )
    def test_vertices_with_the_range_stat_name_the_option(self, runner, vertices, option):
        res = runner.invoke(
            main, ["sample", "--tree", "path:3", "--seed", "1", "--samples", "20", *vertices]
        )
        assert (res.exit_code, res.output) == (1, f"Error: {option} applies only to --stat pair\n")

    def test_deterministic(self, runner):
        args = ["sample", "--tree", "star:4", "--samples", "500", "--seed", "17"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_huge_sample_count_is_a_one_line_error(self, runner):
        # 10**15 one-byte statistics exceed any address space, so the
        # allocation fails before any memory is touched
        res = runner.invoke(
            main, ["sample", "--tree", "path:3", "--samples", str(10**15), "--seed", "1"]
        )
        assert res.exit_code == 1
        assert res.output == f"Error: --samples {10**15} is too many to hold\n"


class TestGenTrees:
    def test_count(self, runner):
        res = runner.invoke(main, ["gen-trees", "--n", "7"])
        blob = json.loads(res.output)
        assert blob["count"] == 11

    def test_table(self, runner):
        res = runner.invoke(main, ["gen-trees", "--n", "4", "--format", "table"])
        assert res.exit_code == 0
        assert len(res.output.strip().splitlines()) == 3
