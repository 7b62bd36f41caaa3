"""Command-line front end.

Tree arguments accept either a path to an edge-list file or an inline
shorthand: ``path:a``, ``star:l``, ``spider:a1,a2,...``.

Exit codes: 0 success, 1 usage/input error, 2 a mathematical violation or
counterexample was found (scan / verify-lemmas). Every error is one line,
``Error: ...``.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import click

from . import analysis
from .counting import WalkModel, bounded_counts, range_distribution
from .trees import (
    DEFAULT_MAX_N,
    Tree,
    TreeError,
    _path_tree,
    _spider_tree,
    generate_free_trees,
    parse_tree,
)

VIOLATION_EXIT = 2


def load_tree(spec: str) -> Tree:
    """A file's tree, or a shorthand's, unrooted, with make_path's or make_spider's edges."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "path" and rest:
            return _path_tree(int(rest))
        if kind == "star" and rest:
            return _spider_tree([1] * int(rest))
        if kind == "spider" and rest:
            return _spider_tree([int(x) for x in rest.split(",")])
    except ValueError as exc:
        raise click.ClickException(f"bad tree shorthand {spec!r}: {exc}")
    path = Path(spec)
    if not path.exists():
        raise click.ClickException(
            f"tree spec {spec!r} is neither a shorthand (path:a, star:l, spider:a1,a2,...) "
            f"nor an existing file"
        )
    try:
        return parse_tree(path.read_text())
    except (OSError, UnicodeDecodeError, TreeError) as exc:
        raise click.ClickException(f"{spec}: {exc}")


def parse_legs(text: str) -> list[int]:
    """Leg lengths from `a1,a2,...`; a one-line usage error unless all are positive."""
    try:
        legs = [int(x) for x in text.split(",") if x]
        valid = all(a >= 1 for a in legs)
    except ValueError:
        valid = False
    if not valid:
        raise click.ClickException(
            f"--legs must be positive integers separated by commas, got {text!r}"
        )
    return legs


def _json_pieces(obj, nl: str = "\n") -> Iterator[str]:
    """The text of json.dumps(obj, indent=2) in pieces; nl is a newline and obj's indent.

    A list of exact ints, or of sequences of exact ints (an edge list), is
    one str.join or one %-format, its types checked at C speed by
    set(map(type, ...)); bool is an int subclass and takes the general path.
    A dict, or any object with items(), is a JSON object whose values are
    read one at a time, so it can build each value as it is written; its
    keys must be str, where json.dumps would also convert numbers. A str or
    an exact int is written here, and every other leaf is json.dumps(obj).
    Each item's first piece carries its separator and key, so a container of
    flat items is one piece an item: one write each on an unbuffered stdout.
    """
    quote = json.encoder.encode_basestring_ascii
    if isinstance(obj, (list, tuple)):
        inner = nl + "  "
        types = set(map(type, obj))
        flat = [x for seq in obj for x in seq] if types and types <= {list, tuple} else ()
        if types == {int}:
            yield "[" + inner + ("," + inner).join(map(str, obj)) + nl + "]"
        elif set(map(type, flat)) == {int}:
            # one template a sequence length, all filled by one % at C speed
            deeper = inner + "  "
            template = {
                k: "[" + deeper + ("," + deeper).join(["%d"] * k) + inner + "]"
                for k in set(map(len, obj))
            }
            template[0] = "[]"
            text = ("," + inner).join(map(template.__getitem__, map(len, obj)))
            yield ("[" + inner + text + nl + "]") % tuple(flat)
        else:
            sep = "[" + inner
            for item in obj:
                pieces = _json_pieces(item, inner)
                yield sep + next(pieces)
                yield from pieces
                sep = "," + inner
            yield "[]" if sep[0] == "[" else nl + "]"
    elif isinstance(obj, str):
        yield quote(obj)
    elif type(obj) is int:
        yield int.__repr__(obj)
    elif hasattr(obj, "items"):
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = sep + quote(key) + ": "
            if isinstance(value, str):  # the common leaf, written without a nested generator
                yield head + quote(value)
            else:
                pieces = _json_pieces(value, inner)
                yield head + next(pieces)
                yield from pieces
            sep = "," + inner
        yield "{}" if sep[0] == "{" else nl + "}"
    else:
        yield json.dumps(obj)


def _table_pieces(
    headers: list[str], rows: Callable[[], list[dict] | Iterator[dict]]
) -> Iterator[str]:
    """Left-aligned columns: one pass over rows() finds the widths, a second writes them."""
    widths = [len(h) for h in headers]
    for row in rows():
        widths = [max(w, len(str(row.get(h, "")))) for h, w in zip(headers, widths)]
    yield "  ".join(h.ljust(w) for h, w in zip(headers, widths)) + "\n"
    for row in rows():
        yield "  ".join(str(row.get(h, "")).ljust(w) for h, w in zip(headers, widths)) + "\n"


def emit(
    data: Callable[[], object],
    fmt: str,
    out: str | None,
    rows: Callable[[], list[dict] | Iterator[dict]] | None = None,
) -> None:
    """Write one result in the chosen format into one text stream, stdout or out.

    ``data`` builds the full nested result, and only json calls it; the text is
    that of ``json.dumps(data(), indent=2)`` plus a newline. ``rows`` builds
    the flat row view used for csv/table, and only those formats call it: once
    for the first row's keys, the headers, then once per pass (table makes two,
    the first for the column widths). Without it the one row is ``data()``
    with each list replaced by its length. Every piece goes straight into the
    stream, whose own buffer bounds memory, so no format holds its whole text.
    """
    if rows is None:
        rows = lambda: [  # noqa: E731
            {key: len(v) if isinstance(v, list) else v for key, v in data().items()}
        ]

    def write(stream) -> None:
        if fmt == "json":
            stream.writelines(_json_pieces(data()))
            stream.write("\n")
            return
        headers = list(next(iter(rows()), {}))
        if fmt == "csv":
            writer = csv.DictWriter(stream, fieldnames=headers)
            writer.writeheader()
            writer.writerows(rows())
        else:  # table
            stream.writelines(_table_pieces(headers, rows))

    if out:
        try:
            with open(out, "w") as f:
                write(f)
        except OSError as exc:
            raise click.ClickException(f"--out: {exc}")
    else:
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            raise  # Click exits 1 without a message
        except OSError as exc:  # such as a full disk
            # a buffered stdout still holds bytes, whose flush at exit would
            # fail again and print a second error; exit without stdout
            sys.stdout = None
            raise click.ClickException(f"stdout: {exc}")


model_option = click.option(
    "--model",
    type=click.Choice(["standard", "lazy"]),
    default="standard",
    show_default=True,
    help="Edge step rule: standard (|step| = 1) or lazy (|step| <= 1).",
)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv", "table"]), default="json",
    show_default=True,
)
out_option = click.option("--out", default=None, help="Write output to this file.")


@contextmanager
def _one_line_errors() -> Iterator[None]:
    try:
        yield
    except click.UsageError as exc:
        raise click.ClickException(exc.format_message()) from None
    except (ValueError, analysis.ScanWorkerError) as exc:  # TreeError is a ValueError
        raise click.ClickException(str(exc)) from None
    except MemoryError:
        raise click.ClickException("out of memory") from None


class _Group(click.Group):
    """Usage errors and library errors print one line, `Error: ...`, and exit 1.

    Click would print the usage and a hint too, and exit 2, the code giraw
    keeps for a violation. A bare `giraw` is the usage error "Missing command.".
    A ValueError or ScanWorkerError from any command is bad input met by the
    library, and prints its message alone; a MemoryError that no command
    handles prints `Error: out of memory`.
    """

    def make_context(self, *args, **kwargs) -> click.Context:
        with _one_line_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx: click.Context):
        with _one_line_errors():
            return super().invoke(ctx)


@click.group(cls=_Group, no_args_is_help=False)
def main() -> None:
    """Exact range distributions of tree-indexed random walks."""


@main.command()
@click.option("--tree", "tree_spec", required=True)
@model_option
@format_option
@out_option
def dist(tree_spec: str, model: str, fmt: str, out: str | None) -> None:
    """Exact range distribution of a tree's walk space."""
    t = load_tree(tree_spec)
    d = range_distribution(t, WalkModel(model))
    emit(
        d.to_json_dict,
        fmt,
        out,
        lambda: [
            {"range": r, "classes": str(c), "denominator": str(d.denominator)}
            for r, c in d.class_counts.items()
        ],
    )


@main.command()
@click.option("--tree", "tree_spec", required=True)
@click.option("--k", type=int, default=None, help="Label bound; defaults to the diameter.")
@model_option
@format_option
@out_option
def count(tree_spec: str, k: int | None, model: str, fmt: str, out: str | None) -> None:
    """Bounded-labeling count F^k and class count f^k."""
    t = load_tree(tree_spec)
    m = WalkModel(model)
    if k is None:
        k = t.diameter()
    if k < 0:
        raise click.ClickException(f"--k must be >= 0, got {k}")
    before, labelings = bounded_counts(t, range(k - 1, k + 1), m)
    data = {
        "n": t.n,
        "k": k,
        "model": m.value,
        "bounded_labelings": str(labelings),
        "range_classes": str(labelings - before),
    }
    emit(lambda: data, fmt, out)


@main.command()
@click.option("--left", "left_spec", required=True)
@click.option("--right", "right_spec", required=True)
@model_option
@format_option
@out_option
def compare(left_spec: str, right_spec: str, model: str, fmt: str, out: str | None) -> None:
    """Tail-by-tail dominance comparison of two same-size trees."""
    left = load_tree(left_spec)
    right = load_tree(right_spec)
    rep = analysis.compare_range(
        left, right, WalkModel(model), left_id=left_spec, right_id=right_spec
    )
    emit(rep.to_json_dict, fmt, out, lambda: rep.to_json_dict()["per_k"])


@main.command()
@click.option("--n", type=int, required=True)
@model_option
@click.option(
    "--family", type=click.Choice(["all", "spiders"]), default="all", show_default=True
)
@format_option
@out_option
def scan(n: int, model: str, family: str, fmt: str, out: str | None) -> None:
    """Compare every tree on n vertices against the path; exit 2 on violation."""
    result = analysis.scan_against_path(n, WalkModel(model), family)
    emit(result.to_json_dict, fmt, out)
    if result.violations:
        click.echo(
            f"VIOLATION: {len(result.violations)} tail inequalities exceeded the path "
            f"(n={n}, model={model}); this contradicts the expected domination.",
            err=True,
        )
        sys.exit(VIOLATION_EXIT)
    click.echo(f"{result.trees_checked} trees checked, 0 violations", err=True)


@main.command()
@click.option("--n", type=int, required=True)
@model_option
@format_option
@out_option
def order(n: int, model: str, fmt: str, out: str | None) -> None:
    """Pairwise domination order over all trees on n vertices."""
    result = analysis.pairwise_domination_order(n, WalkModel(model))
    emit(
        result.to_json_dict,
        fmt,
        out,
        lambda: (
            {
                "tree": i,
                "edges": " ".join(f"{u}-{v}" for u, v in t.edges),
                "dominated_by": " ".join(map(str, result.dominators_of(i))),
            }
            for i, t in enumerate(result.trees)
        ),
    )


@main.command("verify-lemmas")
@click.option(
    "--lemma",
    type=click.Choice(
        ["spidersums", "center-monotone", "difference-monotone", "summand-comparison"]
    ),
    required=True,
)
@click.option("--legs", default="2,2", show_default=True, help="Spider legs, comma separated.")
@click.option("--k", type=int, default=6, show_default=True)
@click.option("--a-max", type=int, default=6, show_default=True)
@click.option("--k-max", type=int, default=6, show_default=True)
@click.option("--tree-n-max", type=int, default=7, show_default=True)
@model_option
@format_option
@out_option
def verify_lemmas(
    lemma: str,
    legs: str,
    k: int,
    a_max: int,
    k_max: int,
    tree_n_max: int,
    model: str,
    fmt: str,
    out: str | None,
) -> None:
    """Exhaustively check one identity/inequality family; exit 2 on counterexample."""
    m = WalkModel(model)
    leg_list = parse_legs(legs)
    for name, value in (("--a-max", a_max), ("--k-max", k_max), ("--tree-n-max", tree_n_max)):
        if value < 0:
            raise click.ClickException(f"{name} must be >= 0, got {value}")
    if tree_n_max > DEFAULT_MAX_N:  # the generator's cap
        raise click.ClickException(f"--tree-n-max must be <= {DEFAULT_MAX_N}, got {tree_n_max}")
    if a_max > 255:  # a path's branch key holds each depth in one byte
        raise click.ClickException(f"--a-max must be <= 255, got {a_max}")
    reads_k = lemma in ("spidersums", "summand-comparison")  # the lemmas that read --k
    if reads_k and k < 0:
        raise click.ClickException(f"--k must be >= 0, got {k}")
    try:
        if lemma == "spidersums":
            result = analysis.check_spidersums(leg_list, k, m)
        elif lemma == "center-monotone":
            result = analysis.check_center_monotone(
                a_max, k_max, m, tree_n_max if m is WalkModel.LAZY else 0
            )
        elif lemma == "difference-monotone":
            result = analysis.check_difference_monotone(
                m, a_max=a_max, k_max=k_max, tree_n_max=tree_n_max
            )
        else:
            result = analysis.check_summand_comparison(leg_list, k, m)
    except MemoryError:
        if not reads_k:
            raise
        raise click.ClickException(f"--k {k} is too large to tabulate")
    emit(result.to_json_dict, fmt, out)
    if not result.ok:
        click.echo(f"{len(result.counterexamples)} counterexamples found", err=True)
        sys.exit(VIOLATION_EXIT)


@main.command()
@click.option("--tree", "tree_spec", required=True)
@model_option
@click.option("--samples", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option(
    "--stat", type=click.Choice(["range", "pair"]), default="range", show_default=True
)
@click.option("--u", type=int, default=None, help="First vertex for --stat pair.")
@click.option("--v", type=int, default=None, help="Second vertex for --stat pair.")
@format_option
@out_option
def sample(
    tree_spec: str,
    model: str,
    samples: int,
    seed: int,
    stat: str,
    u: int | None,
    v: int | None,
    fmt: str,
    out: str | None,
) -> None:
    """Monte Carlo estimate of E[Range] or E|f(u)-f(v)|, with exact cross-check."""
    from . import sampling  # numpy loads only for the command that samples

    t = load_tree(tree_spec)
    m = WalkModel(model)
    if seed < 0:
        raise click.ClickException(f"--seed must be >= 0, got {seed}")
    if samples < 1:
        raise click.ClickException(f"--samples must be >= 1, got {samples}")
    if stat == "pair":
        if u is None or v is None:
            raise click.ClickException("--stat pair requires --u and --v")
        for name, x in (("--u", u), ("--v", v)):
            if not 0 <= x < t.n:
                raise click.ClickException(f"{name} must be in [0, {t.n}), got {x}")
    else:
        for name, x in (("--u", u), ("--v", v)):
            if x is not None:
                raise click.ClickException(f"{name} applies only to --stat pair")
    try:
        if stat == "range":
            rep = sampling.estimate_expected_range(t, m, samples, seed)
        else:
            rep = sampling.estimate_pair_distance(t, u, v, m, samples, seed)
    except MemoryError:  # the per-walk statistics, one label-dtype entry a walk
        raise click.ClickException(f"--samples {samples} is too many to hold")
    emit(rep.to_json_dict, fmt, out)
    exact = f" (exact {rep.exact})" if rep.exact is not None else ""
    click.echo(
        f"{rep.statistic}: {rep.estimate:.6f} +/- {rep.std_error:.6f}{exact}", err=True
    )


@main.command("gen-trees")
@click.option("--n", type=int, required=True)
@format_option
@out_option
def gen_trees(n: int, fmt: str, out: str | None) -> None:
    """Emit one representative per isomorphism class of trees on n vertices."""
    trees = list(generate_free_trees(n))
    emit(
        lambda: {"n": n, "count": len(trees), "trees": [list(t.edges) for t in trees]},
        fmt,
        out,
        lambda: [
            {"tree": i, "edges": " ".join(f"{u}-{v}" for u, v in t.edges)}
            for i, t in enumerate(trees)
        ],
    )


if __name__ == "__main__":
    main()
