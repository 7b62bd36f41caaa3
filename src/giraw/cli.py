"""Command-line front end.

Tree arguments accept either a path to an edge-list file or an inline
shorthand: ``path:a``, ``star:l``, ``spider:a1,a2,...``.

Exit codes: 0 success, 1 usage/input error, 2 a mathematical violation or
counterexample was found (scan / verify-lemmas).
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import click

from . import analysis
from .counting import (
    WalkModel,
    bounded_counts,
    count_bounded,
    range_classes_from,
    range_distribution,
)
from .trees import (
    Tree,
    TreeError,
    generate_free_trees,
    make_path,
    make_spider,
    make_star,
    parse_tree,
    reroot,
)

VIOLATION_EXIT = 2


def load_tree(spec: str) -> Tree:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "path" and rest:
            return make_path(int(rest)).tree
        if kind == "star" and rest:
            return make_star(int(rest)).tree
        if kind == "spider" and rest:
            return make_spider([int(x) for x in rest.split(",")]).tree
    except (ValueError, TreeError) as exc:
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


def emit(data: dict, fmt: str, out: str | None, rows: list[dict] | None = None) -> None:
    """Write one result in the chosen format.

    ``rows`` is the flat row view used for csv/table; json always gets the
    full nested dict.
    """
    if fmt == "json":
        text = json.dumps(data, indent=2) + "\n"
    else:
        rows = rows if rows is not None else [data]
        headers = list(rows[0].keys()) if rows else []
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=headers)
            writer.writeheader()
            writer.writerows(rows)
            text = buf.getvalue()
        else:  # table
            cells = [[str(r.get(h, "")) for h in headers] for r in rows]
            widths = [
                max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
                for i, h in enumerate(headers)
            ]
            lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
            lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
            text = "\n".join(lines) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise click.ClickException(f"--out: {exc}")
    else:
        click.echo(text, nl=False)


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


@click.group()
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
    rows = [
        {"range": r, "classes": str(c), "denominator": str(d.denominator)}
        for r, c in sorted(d.class_counts.items())
    ]
    emit(d.to_json_dict(), fmt, out, rows)


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
    d = t.diameter()
    if k is None:
        k = d
    if k < 0:
        raise click.ClickException("--k must be >= 0")
    if k < d:
        bounded = bounded_counts(reroot(t, 0), range(k - 1, k + 1), m)  # F^(k-1), F^k
        labelings, classes = bounded[1], range_classes_from(bounded)[0]
    else:  # f^j is the whole walk space s^(n-1) from j = D on, so F^j grows by it
        classes = m.steps_per_edge ** (t.n - 1)
        labelings = count_bounded(t, d, m) + (k - d) * classes
    data = {
        "n": t.n,
        "k": k,
        "model": m.value,
        "bounded_labelings": str(labelings),
        "range_classes": str(classes),
    }
    emit(data, fmt, out)


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
    try:
        rep = analysis.compare_range(
            left, right, WalkModel(model), left_id=left_spec, right_id=right_spec
        )
    except ValueError as exc:
        raise click.ClickException(str(exc))
    rows = [
        {"k": k, "tail_left": f"{a.numerator}/{a.denominator}", "tail_right": f"{b.numerator}/{b.denominator}"}
        for k, a, b in rep.per_k
    ]
    emit(rep.to_json_dict(), fmt, out, rows)


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
    try:
        result = analysis.scan_against_path(n, WalkModel(model), family)
    except (TreeError, ValueError, analysis.ScanWorkerError) as exc:
        raise click.ClickException(str(exc))
    rows = [
        {
            "n": result.n,
            "model": result.model.value,
            "family": result.family,
            "trees_checked": result.trees_checked,
            "violations": len(result.violations),
        }
    ]
    emit(result.to_json_dict(), fmt, out, rows)
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
    try:
        result = analysis.pairwise_domination_order(n, WalkModel(model))
    except (TreeError, ValueError) as exc:
        raise click.ClickException(str(exc))
    rows = [
        {
            "tree": i,
            "edges": " ".join(f"{u}-{v}" for u, v in result.trees[i].edges),
            "dominated_by": " ".join(map(str, result.dominators_of(i))),
        }
        for i in range(len(result.trees))
    ]
    emit(result.to_json_dict(), fmt, out, rows)


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
    except ValueError as exc:
        raise click.ClickException(str(exc))
    rows = [
        {
            "lemma": result.lemma,
            "grid": result.grid,
            "cases_checked": result.cases_checked,
            "counterexamples": len(result.counterexamples),
        }
    ]
    emit(result.to_json_dict(), fmt, out, rows)
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
    try:
        if stat == "range":
            rep = sampling.estimate_expected_range(t, m, samples, seed)
        else:
            if u is None or v is None:
                raise click.ClickException("--stat pair requires --u and --v")
            if not (0 <= u < t.n and 0 <= v < t.n):
                raise click.ClickException(f"vertices must be in [0, {t.n})")
            rep = sampling.estimate_pair_distance(t, u, v, m, samples, seed)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    emit(rep.to_json_dict(), fmt, out)
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
    try:
        trees = list(generate_free_trees(n))
    except TreeError as exc:
        raise click.ClickException(str(exc))
    data = {"n": n, "count": len(trees), "trees": [list(t.edges) for t in trees]}
    rows = [
        {"tree": i, "edges": " ".join(f"{u}-{v}" for u, v in t.edges)}
        for i, t in enumerate(trees)
    ]
    emit(data, fmt, out, rows)


if __name__ == "__main__":
    main()
